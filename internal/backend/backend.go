package backend

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"visapult/internal/amr"
	"visapult/internal/backend/framecache"
	"visapult/internal/ibr"
	"visapult/internal/netlogger"
	"visapult/internal/render"
	"visapult/internal/volume"
	"visapult/internal/wire"
)

// Mode selects how each PE schedules data loading relative to rendering.
type Mode int

// Execution modes of the back end (section 4.3 and Appendix B).
const (
	// Serial loads the data for timestep t, renders it, sends it, and only
	// then begins loading timestep t+1: Ts = N * (L + R).
	Serial Mode = iota
	// Overlapped runs a detached reader goroutine per PE that loads timestep
	// t+1 while timestep t is being rendered, sharing the loaded buffer with
	// the renderer (the paper's pthread + shared-memory design):
	// To = N * max(L, R) + min(L, R).
	Overlapped
	// OverlappedProcessPair is the MPI-only alternative Appendix B discusses
	// and rejects: reader and renderer are separate processes, so every
	// loaded timestep must be transmitted (copied) from one to the other.
	// The pipeline structure is identical to Overlapped; the extra per-frame
	// copy is what the paper "consciously chose to avoid".
	OverlappedProcessPair
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case Overlapped:
		return "overlapped"
	case OverlappedProcessPair:
		return "overlapped-process-pair"
	default:
		return "serial"
	}
}

// overlapped reports whether the mode uses a pipelined reader.
func (m Mode) overlapped() bool { return m == Overlapped || m == OverlappedProcessPair }

// FrameSink receives the per-frame output of one PE. *wire.Conn implements it
// for real network transport; the viewer package and tests provide in-process
// implementations.
type FrameSink interface {
	SendLight(*wire.LightPayload) error
	SendHeavy(*wire.HeavyPayload) error
}

// ConnSinks returns a link's per-PE Conns as the back end's sinks.
func ConnSinks(conns []*wire.Conn) []FrameSink {
	sinks := make([]FrameSink, len(conns))
	for i, c := range conns {
		sinks[i] = c
	}
	return sinks
}

// NullSink discards everything sent to it; benchmarks that measure only the
// load/render pipeline use it in place of a viewer.
type NullSink struct {
	bytes atomic.Int64
}

// SendLight implements FrameSink.
func (n *NullSink) SendLight(lp *wire.LightPayload) error {
	n.bytes.Add(lp.WireSize())
	return nil
}

// SendHeavy implements FrameSink.
func (n *NullSink) SendHeavy(hp *wire.HeavyPayload) error {
	n.bytes.Add(hp.WireSize())
	return nil
}

// Bytes returns the total payload bytes the sink has absorbed.
func (n *NullSink) Bytes() int64 { return n.bytes.Load() }

// Config describes one back-end run.
type Config struct {
	// PEs is the number of processing elements (the paper uses 4 and 8).
	PEs int
	// Timesteps bounds the number of frames processed; 0 means every
	// timestep the data source offers.
	Timesteps int
	// Mode selects serial or overlapped loading and rendering.
	Mode Mode
	// Axis is the initial slab decomposition axis. The viewer may change it
	// between frames through SetAxis (the IBRAVR axis-switching remedy).
	Axis volume.Axis
	// Source supplies the raw data.
	Source DataSource
	// TF is the volume rendering transfer function; nil selects the
	// combustion default.
	TF render.TransferFunction
	// Sinks receives each PE's output. Provide either one sink per PE (the
	// paper's one-connection-per-PE layout) or a single sink shared by all.
	Sinks []FrameSink
	// Logger receives NetLogger events; nil disables instrumentation.
	Logger *netlogger.Logger
	// OnFrame, when non-nil, is called once per (PE, timestep) as soon as
	// that PE has finished sending the frame. Run managers use it to stream
	// live per-frame metrics; it is called from the PE goroutines and must be
	// safe for concurrent use.
	OnFrame func(FrameStats)
	// OnSlab, when non-nil, receives every rendered (or cache-replayed)
	// slab payload pair as soon as it has been sent, for runs not shipping
	// AMR grids or elevation maps. Dispatch workers use it to stream raw
	// slab textures back to the scheduler's frame cache. The payloads are
	// immutable shared data; the hook is called from the PE goroutines and
	// must be safe for concurrent use.
	OnSlab func(light *wire.LightPayload, heavy *wire.HeavyPayload)
	// Grid, when non-nil, builds an AMR hierarchy over each PE's slab and
	// ships its wireframe with the heavy payload (Figure 3).
	Grid *amr.Config
	// Elevation, when true, ships the quadmesh elevation map of the IBRAVR
	// depth extension with each texture.
	Elevation bool
	// Cache, when non-nil, serves rendered slab payloads content-addressed by
	// (CacheDataset + decomposition, timestep, CacheTF) and absorbs freshly
	// rendered ones, so a replay of the same dataset skips both the data
	// source and the raycaster. Caching additionally requires a non-empty
	// CacheDataset and is disabled for runs shipping AMR grids or elevation
	// maps (their extra payloads are not part of the cache identity).
	Cache *framecache.Cache
	// CacheDataset names the voxel content this run renders (source kind,
	// dims, seed, ...); empty disables the cache for this run.
	CacheDataset string
	// CacheTF is the canonical transfer-function string of this run.
	CacheTF string
	// RenderWorkers sizes the shared render pool every PE's raycasts are
	// tiled across: min(GOMAXPROCS, RenderWorkers) goroutines, <= 0 selecting
	// GOMAXPROCS. One pool serves all PEs, so concurrent slab renders share
	// the machine instead of oversubscribing it. The pool is bit-exact at any
	// worker count; this knob never changes pixels.
	RenderWorkers int
}

// FrameStats records what one PE did for one timestep.
type FrameStats struct {
	Frame int
	PE    int
	// Load, Render and Send are the wall-clock durations of the three
	// phases. In overlapped mode Load is the reader goroutine's time for
	// this frame's data, which may have run concurrently with an earlier
	// frame's Render.
	Load   time.Duration
	Render time.Duration
	Send   time.Duration
	// Copy is the reader-to-renderer data transmission time paid per frame
	// by the OverlappedProcessPair mode (zero for the other modes).
	Copy time.Duration
	// BytesLoaded is the raw data volume fetched from the data source.
	BytesLoaded int64
	// BytesSent is the light + heavy payload volume shipped to the viewer.
	BytesSent int64
	// TilesSkipped counts the macrocell segments the raycaster's empty-space
	// skipping removed while rendering this frame (zero on cache hits).
	TilesSkipped int
	// CacheHit reports that this frame was served from the slab-texture
	// cache: no data was loaded and the raycaster never ran (Load, Render and
	// BytesLoaded are zero).
	CacheHit bool
}

// RunStats aggregates a whole back-end run.
type RunStats struct {
	Mode      Mode
	PEs       int
	Frames    int
	Elapsed   time.Duration
	PerFrame  []FrameStats
	BytesIn   int64
	BytesOut  int64
	AxisFlips int
}

// MeanLoad returns the mean per-PE, per-frame load time.
func (rs RunStats) MeanLoad() time.Duration {
	return rs.meanPhase(func(f FrameStats) time.Duration { return f.Load })
}

// MeanRender returns the mean per-PE, per-frame render time.
func (rs RunStats) MeanRender() time.Duration {
	return rs.meanPhase(func(f FrameStats) time.Duration { return f.Render })
}

// MeanSend returns the mean per-PE, per-frame send time.
func (rs RunStats) MeanSend() time.Duration {
	return rs.meanPhase(func(f FrameStats) time.Duration { return f.Send })
}

// MeanCopy returns the mean per-PE, per-frame reader-to-renderer copy time
// (nonzero only in OverlappedProcessPair mode).
func (rs RunStats) MeanCopy() time.Duration {
	return rs.meanPhase(func(f FrameStats) time.Duration { return f.Copy })
}

func (rs RunStats) meanPhase(get func(FrameStats) time.Duration) time.Duration {
	if len(rs.PerFrame) == 0 {
		return 0
	}
	var total time.Duration
	for _, f := range rs.PerFrame {
		total += get(f)
	}
	return total / time.Duration(len(rs.PerFrame))
}

// BackEnd is one configured back-end run. Create it with New, optionally feed
// it axis hints with SetAxis, and execute it with Run.
type BackEnd struct {
	cfg Config
	tf  render.TransferFunction
	// lut is cfg.TF quantized once per run; every PE's raycasts read it.
	lut *render.LUT
	// pool is the shared render pool, created by Run before the PE goroutines
	// start and closed after they join.
	pool *render.Pool

	nx, ny, nz int
	frames     int

	// pendingAxis is the most recent viewer hint; it is latched into
	// frameAxis at each frame barrier so that all PEs decompose the same way.
	pendingAxis atomic.Int32
	frameAxis   volume.Axis
	axisFlips   int

	mu       sync.Mutex
	perFrame []FrameStats
	// contributed tracks every cache key this run has fed slabs into, so an
	// aborted run can abandon its partial assemblies instead of stranding
	// them in the cache's pending map forever. guarded by mu
	contributed map[framecache.Key]struct{}
}

// New validates the configuration and prepares a back end.
func New(cfg Config) (*BackEnd, error) {
	if cfg.Source == nil {
		return nil, errors.New("backend: Config.Source is required")
	}
	if cfg.PEs <= 0 {
		return nil, fmt.Errorf("backend: PEs must be positive, got %d", cfg.PEs)
	}
	switch len(cfg.Sinks) {
	case 1, cfg.PEs:
	case 0:
		return nil, errors.New("backend: at least one FrameSink is required")
	default:
		return nil, fmt.Errorf("backend: got %d sinks, want 1 or %d", len(cfg.Sinks), cfg.PEs)
	}
	nx, ny, nz := cfg.Source.Dims()
	frames := cfg.Source.Timesteps()
	if cfg.Timesteps > 0 && cfg.Timesteps < frames {
		frames = cfg.Timesteps
	}
	if frames <= 0 {
		return nil, errors.New("backend: data source has no timesteps")
	}
	tf := cfg.TF
	if tf == nil {
		tf = render.DefaultCombustionTF()
	}
	if cfg.RenderWorkers < 0 {
		return nil, fmt.Errorf("backend: RenderWorkers must be non-negative, got %d", cfg.RenderWorkers)
	}
	b := &BackEnd{cfg: cfg, tf: tf, lut: render.BuildLUT(tf), nx: nx, ny: ny, nz: nz, frames: frames, frameAxis: cfg.Axis}
	b.pendingAxis.Store(int32(cfg.Axis))
	return b, nil
}

// SetAxis records a viewer hint: the axis whose slab decomposition best
// matches the current view. It takes effect at the next frame boundary.
func (b *BackEnd) SetAxis(a volume.Axis) { b.pendingAxis.Store(int32(a)) }

// Axis returns the decomposition axis currently in effect.
func (b *BackEnd) Axis() volume.Axis {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.frameAxis
}

// Frames returns the number of timesteps the run will process.
func (b *BackEnd) Frames() int { return b.frames }

// Config returns the run's configuration.
func (b *BackEnd) Config() Config { return b.cfg }

// sink returns the FrameSink PE rank should send to.
func (b *BackEnd) sink(rank int) FrameSink {
	if len(b.cfg.Sinks) == 1 {
		return b.cfg.Sinks[0]
	}
	return b.cfg.Sinks[rank]
}

// log emits a NetLogger event if instrumentation is enabled.
func (b *BackEnd) log(tag string, frame, pe int, bytes int64) {
	if b.cfg.Logger == nil {
		return
	}
	fields := []netlogger.Field{
		netlogger.Int(netlogger.FieldFrame, frame),
		netlogger.Int(netlogger.FieldPE, pe),
	}
	if bytes > 0 {
		fields = append(fields, netlogger.Int64(netlogger.FieldBytes, bytes))
	}
	b.cfg.Logger.Log(tag, fields...)
}

// latchAxis runs at each frame barrier: the pending viewer hint becomes the
// decomposition axis for the next frame.
func (b *BackEnd) latchAxis() {
	next := volume.Axis(b.pendingAxis.Load())
	b.mu.Lock()
	if next != b.frameAxis {
		b.axisFlips++
		b.frameAxis = next
	}
	b.mu.Unlock()
}

// loadedFrame is one timestep's worth of data for one PE, produced by the
// loader (inline in serial mode, the reader goroutine in overlapped mode).
type loadedFrame struct {
	frame  int
	axis   volume.Axis
	region volume.Region
	vol    *volume.Volume
	// cells is vol's min/max macrocell summary, built once per loaded
	// timestep by the loader so the renderer's empty-space skipping never
	// pays the scan. It summarizes values only, so it remains valid for the
	// process-pair mode's deep copy of vol.
	cells *render.Macrocells
	bytes int64
	dur   time.Duration
	// copyDur is the reader-to-renderer transmission cost paid in
	// OverlappedProcessPair mode.
	copyDur time.Duration
	err     error
	// cached carries the finished payloads when the frame was served from the
	// slab-texture cache (hit true); vol stays nil and no render happens.
	cached framecache.Slab
	hit    bool
}

// cacheKey addresses this run's slab of the given frame in the shared cache,
// folding the decomposition (axis, PE count) into the dataset identity so a
// run decomposing differently never sees another run's slabs. ok is false
// when caching is disabled for this run.
func (b *BackEnd) cacheKey(frame int, axis volume.Axis) (framecache.Key, bool) {
	if b.cfg.Cache == nil || b.cfg.CacheDataset == "" || b.cfg.Grid != nil || b.cfg.Elevation {
		return framecache.Key{}, false
	}
	return framecache.Key{
		Dataset:  framecache.DatasetKey(b.cfg.CacheDataset, int(axis), b.cfg.PEs),
		Timestep: frame,
		TF:       b.cfg.CacheTF,
	}, true
}

// load fetches one PE's slab of one timestep and logs the load phase. A
// cancelled ctx aborts a network-backed load in flight.
func (b *BackEnd) load(ctx context.Context, rank, frame int, axis volume.Axis) loadedFrame {
	if key, ok := b.cacheKey(frame, axis); ok {
		if slab, hit := b.cfg.Cache.Slab(key, rank); hit {
			return loadedFrame{frame: frame, axis: axis, cached: slab, hit: true}
		}
	}
	regions := volume.Slabs(b.nx, b.ny, b.nz, axis, b.cfg.PEs)
	region := regions[rank]
	b.log(netlogger.BELoadStart, frame, rank, region.Bytes())
	start := time.Now()
	vol, bytes, err := b.cfg.Source.LoadRegion(ctx, frame, region)
	var cells *render.Macrocells
	if err == nil && vol != nil {
		// Summarize on the loader side: in overlapped mode this overlaps the
		// previous frame's render, so the raycaster gets skipping for free.
		cells = render.BuildMacrocells(vol)
	}
	dur := time.Since(start)
	b.log(netlogger.BELoadEnd, frame, rank, bytes)
	return loadedFrame{frame: frame, axis: axis, region: region, vol: vol, cells: cells, bytes: bytes, dur: dur, err: err}
}

// renderAndSend renders one loaded slab and ships the light and heavy
// payloads to the viewer, returning the per-frame statistics. The raycast is
// tiled across the shared render pool (built from the run's LUT, skipping
// empty space through the loader-built macrocells) and draws its image from
// the free list, so steady-state frames allocate only their wire payloads.
// A ctx cancelled mid-frame abandons the remaining tiles and returns the
// context error.
func (b *BackEnd) renderAndSend(ctx context.Context, rank int, lf loadedFrame) (FrameStats, error) {
	fs := FrameStats{Frame: lf.frame, PE: rank, Load: lf.dur, Copy: lf.copyDur, BytesLoaded: lf.bytes, CacheHit: lf.hit}
	if lf.err != nil {
		return fs, fmt.Errorf("backend: PE %d frame %d load: %w", rank, lf.frame, lf.err)
	}

	var light *wire.LightPayload
	var heavy *wire.HeavyPayload
	if lf.hit {
		// Cache hit: the finished payloads were rendered by an earlier run of
		// the same content identity. The raycaster never runs.
		light, heavy = lf.cached.Light, lf.cached.Heavy
	} else {
		// Render phase.
		b.log(netlogger.BERenderStart, lf.frame, rank, 0)
		renderStart := time.Now()
		full := volume.Region{X1: lf.vol.NX, Y1: lf.vol.NY, Z1: lf.vol.NZ}
		img := render.GetImage(render.PlaneDims(full, lf.axis))
		st, rerr := b.pool.RenderSlab(ctx, lf.vol, full, b.lut, lf.cells, lf.axis, img)
		if rerr != nil {
			render.PutImage(img)
			return fs, fmt.Errorf("backend: PE %d frame %d render: %w", rank, lf.frame, rerr)
		}
		fs.TilesSkipped = st.TilesSkipped
		var grid []amr.Segment
		if b.cfg.Grid != nil {
			h := amr.Build(lf.vol, *b.cfg.Grid)
			grid = h.WireframeSegments()
		}
		var elev []float32
		if b.cfg.Elevation {
			elev = ibr.QuadmeshElevation(lf.vol, full, b.tf, lf.axis)
		}
		fs.Render = time.Since(renderStart)
		b.log(netlogger.BERenderEnd, lf.frame, rank, 0)

		// Payload assembly: place the slab-center quad in source-volume
		// coordinates so the viewer's scene graph lines up across PEs.
		cx, cy, cz := lf.region.Center()
		rx, ry, rz := lf.region.Dims()
		var width, height, depth float64
		switch lf.axis {
		case volume.AxisX:
			width, height, depth = float64(ry), float64(rz), float64(rx)
		case volume.AxisY:
			width, height, depth = float64(rx), float64(rz), float64(ry)
		default:
			width, height, depth = float64(rx), float64(ry), float64(rz)
		}
		// Ownership rule: from here on heavy (and light) is one shared,
		// immutable object. The same pointers go to the frame cache, to the
		// sink — where the fan-out queues them for every attached viewer,
		// each sender writing the wire straight from heavy.Texture, and an
		// in-process viewer keeps that very slice as its scene texture — and
		// to OnSlab. Nobody may write to it again, and because readers can
		// outlive this frame arbitrarily (a queued viewer, the cache) the
		// texture is a fresh buffer per slab, never a recycled one.
		heavy = &wire.HeavyPayload{
			Frame: lf.frame, PE: rank,
			TexWidth: img.W, TexHeight: img.H,
			Texture:   img.ToRGBA8(),
			Grid:      grid,
			Elevation: elev,
		}
		light = &wire.LightPayload{
			Frame: lf.frame, PE: rank,
			SlabIndex: rank, SlabCount: b.cfg.PEs,
			Axis:     lf.axis,
			TexWidth: img.W, TexHeight: img.H, BytesPerPixel: 4,
			CenterX: cx, CenterY: cy, CenterZ: cz,
			Width: width, Height: height, Depth: depth,
			HeavyBytes:   heavy.WireSize(),
			GridSegments: len(grid),
			HasElevation: elev != nil,
		}
		// The payload holds its own RGBA8 texture; the float image goes back
		// to the free list for the next frame.
		render.PutImage(img)
		if key, ok := b.cacheKey(lf.frame, lf.axis); ok {
			// Cached payloads are shared by reference across future runs and
			// their fan-out viewers; they are immutable from here on — which
			// is what lets this insert transfer ownership instead of copying.
			b.cfg.Cache.PutSlabOwned(key, rank, b.cfg.PEs, framecache.Slab{Light: light, Heavy: heavy})
			b.mu.Lock()
			if b.contributed == nil {
				b.contributed = make(map[framecache.Key]struct{})
			}
			b.contributed[key] = struct{}{}
			b.mu.Unlock()
		}
	}

	// Send phase: light payload (metadata) then heavy payload (texture).
	sink := b.sink(rank)
	sendStart := time.Now()
	b.log(netlogger.BELightSend, lf.frame, rank, light.WireSize())
	if err := sink.SendLight(light); err != nil {
		return fs, fmt.Errorf("backend: PE %d frame %d send light: %w", rank, lf.frame, err)
	}
	b.log(netlogger.BELightEnd, lf.frame, rank, light.WireSize())
	b.log(netlogger.BEHeavySend, lf.frame, rank, heavy.WireSize())
	if err := sink.SendHeavy(heavy); err != nil {
		return fs, fmt.Errorf("backend: PE %d frame %d send heavy: %w", rank, lf.frame, err)
	}
	b.log(netlogger.BEHeavyEnd, lf.frame, rank, heavy.WireSize())
	fs.Send = time.Since(sendStart)
	fs.BytesSent = light.WireSize() + heavy.WireSize()
	if b.cfg.OnSlab != nil && b.cfg.Grid == nil && !b.cfg.Elevation {
		b.cfg.OnSlab(light, heavy)
	}
	return fs, nil
}

// record appends one PE-frame record to the run statistics and feeds the
// OnFrame hook.
func (b *BackEnd) record(fs FrameStats) {
	b.mu.Lock()
	b.perFrame = append(b.perFrame, fs)
	b.mu.Unlock()
	if b.cfg.OnFrame != nil {
		b.cfg.OnFrame(fs)
	}
}

// Run executes the back end: one goroutine per PE, a frame barrier between
// timesteps (the paper's MPI barrier of Figure 18), and — in overlapped mode
// — one reader goroutine per PE. It returns aggregate statistics; the first
// PE error aborts the run. Cancelling ctx aborts the run at the next phase
// boundary: the barrier releases every PE, the reader goroutines are signalled
// to stop, and Run returns ctx.Err().
func (b *BackEnd) Run(ctx context.Context) (RunStats, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	start := time.Now()
	b.latchAxis()

	// One render pool for the whole run: every PE tiles its raycasts across
	// it, bounding total render parallelism at min(GOMAXPROCS, RenderWorkers)
	// regardless of PE count. Closed only after every PE goroutine has
	// joined, so no render is in flight at Close.
	b.pool = render.NewPool(b.cfg.RenderWorkers)
	defer b.pool.Close()

	barrier := newCyclicBarrier(b.cfg.PEs, b.latchAxis)
	// A cancelled context releases every PE blocked at the barrier.
	watchDone := make(chan struct{})
	defer close(watchDone)
	go func() {
		select {
		case <-ctx.Done():
			barrier.Abort()
		case <-watchDone:
		}
	}()

	errs := make([]error, b.cfg.PEs)
	var wg sync.WaitGroup
	for rank := 0; rank < b.cfg.PEs; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			if b.cfg.Mode.overlapped() {
				errs[rank] = b.runPEOverlapped(ctx, rank, barrier)
			} else {
				errs[rank] = b.runPESerial(ctx, rank, barrier)
			}
		}(rank)
	}
	wg.Wait()

	b.mu.Lock()
	rs := RunStats{
		Mode:      b.cfg.Mode,
		PEs:       b.cfg.PEs,
		Frames:    b.frames,
		Elapsed:   time.Since(start),
		PerFrame:  append([]FrameStats(nil), b.perFrame...),
		AxisFlips: b.axisFlips,
	}
	b.mu.Unlock()
	for _, f := range rs.PerFrame {
		rs.BytesIn += f.BytesLoaded
		rs.BytesOut += f.BytesSent
	}
	// When a PE failed, a context error outranks it: every PE reports
	// errAborted once the watcher trips the barrier, which would mask the
	// cause. A run whose PEs all finished cleanly stays a success even if
	// ctx expired in the instant after the last frame.
	for _, peErr := range errs {
		if peErr == nil {
			continue
		}
		// The run is aborting: any frame it only partially assembled in the
		// shared cache will never complete. Abandon those assemblies so they
		// do not sit in the cache's pending map for the daemon's lifetime.
		b.abandonContributed()
		if err := ctx.Err(); err != nil {
			return rs, err
		}
		return rs, peErr
	}
	return rs, nil
}

// abandonContributed drops this run's unfinished frame assemblies from the
// shared cache. Completed (resident) frames are untouched — Abandon only
// affects the pending map — so concurrent runs sharing the cache lose at
// most the frames this run was mid-way through contributing.
func (b *BackEnd) abandonContributed() {
	b.mu.Lock()
	keys := make([]framecache.Key, 0, len(b.contributed))
	for key := range b.contributed {
		keys = append(keys, key)
	}
	b.mu.Unlock()
	for _, key := range keys {
		b.cfg.Cache.Abandon(key)
	}
}

// runPESerial is the serial per-PE loop: load, render, send, barrier.
func (b *BackEnd) runPESerial(ctx context.Context, rank int, barrier *cyclicBarrier) error {
	for frame := 0; frame < b.frames; frame++ {
		if err := ctx.Err(); err != nil {
			barrier.Abort()
			return err
		}
		axis := b.Axis()
		b.log(netlogger.BEFrameStart, frame, rank, 0)
		lf := b.load(ctx, rank, frame, axis)
		fs, err := b.renderAndSend(ctx, rank, lf)
		if err != nil {
			barrier.Abort()
			return err
		}
		b.record(fs)
		b.log(netlogger.BEFrameEnd, frame, rank, 0)
		if aborted := barrier.Await(); aborted {
			return errAborted
		}
	}
	return nil
}

// runPEOverlapped is the overlapped per-PE loop of Appendix B: a reader
// goroutine loads timestep t+1 while the render goroutine processes timestep
// t. The request and result channels play the role of the paper's SystemV
// semaphores A and B; Go's garbage-collected slab volumes replace the
// explicit double-buffered shared memory block.
//
// Unlike the paper's detached pthread, the reader is joined before the PE
// returns: a failed PE, a closed viewer sink, or a cancelled context stops
// the reader instead of leaking it past the end of the run.
func (b *BackEnd) runPEOverlapped(ctx context.Context, rank int, barrier *cyclicBarrier) error {
	req := make(chan struct {
		frame int
		axis  volume.Axis
	}, 1)
	res := make(chan loadedFrame, 1)
	done := make(chan struct{})
	readerDone := make(chan struct{})

	// Join the reader on every exit path: close(done) releases it from any
	// channel operation, then wait for it to finish (a load already in
	// flight completes first; the data sources bound that time). The join is
	// bounded: a source whose read hangs without a deadline cannot observe
	// any stop signal, and leaking that one goroutine beats hanging the
	// whole run — and with it the caller that owns the source and would
	// close it.
	defer func() {
		close(done)
		close(req)
		select {
		case <-readerDone:
		default:
			t := time.NewTimer(readerJoinGrace)
			defer t.Stop()
			select {
			case <-readerDone:
			case <-t.C:
			}
		}
	}()

	// Reader goroutine (the paper's reader pthread). In process-pair mode
	// the reader stands in for a separate MPI rank, so the loaded timestep is
	// transmitted (deep-copied) to the renderer instead of shared — the extra
	// cost Appendix B avoids with the threaded design.
	go func() {
		defer close(readerDone)
		for {
			select {
			case r, ok := <-req:
				if !ok {
					return
				}
				lf := b.load(ctx, rank, r.frame, r.axis)
				if b.cfg.Mode == OverlappedProcessPair && lf.err == nil && !lf.hit {
					copyStart := time.Now()
					lf.vol = lf.vol.Clone()
					lf.copyDur = time.Since(copyStart)
				}
				select {
				case res <- lf:
				case <-done:
					return
				case <-ctx.Done():
					return
				}
			case <-done:
				return
			case <-ctx.Done():
				return
			}
		}
	}()

	// Prime the pipeline with frame 0 (the render process "first requests
	// data from time step zero").
	req <- struct {
		frame int
		axis  volume.Axis
	}{0, b.Axis()}

	for frame := 0; frame < b.frames; frame++ {
		b.log(netlogger.BEFrameStart, frame, rank, 0)
		var lf loadedFrame
		select {
		case lf = <-res:
		case <-ctx.Done():
			barrier.Abort()
			return ctx.Err()
		}
		// Immediately request the next timestep so loading overlaps the
		// rendering below. The axis hint latched at the last barrier applies.
		if frame+1 < b.frames {
			req <- struct {
				frame int
				axis  volume.Axis
			}{frame + 1, b.Axis()}
		}
		fs, err := b.renderAndSend(ctx, rank, lf)
		if err != nil {
			barrier.Abort()
			return err
		}
		b.record(fs)
		b.log(netlogger.BEFrameEnd, frame, rank, 0)
		if aborted := barrier.Await(); aborted {
			return errAborted
		}
	}
	return nil
}

// errAborted is returned by PEs that stopped because another PE failed.
var errAborted = errors.New("backend: run aborted by peer PE failure")

// readerJoinGrace bounds how long an exiting PE waits for its reader
// goroutine once the stop signal is posted. Normal loads finish well inside
// it; only a source read hung without a deadline exhausts it, and that
// reader is then deliberately detached.
const readerJoinGrace = 5 * time.Second

// cyclicBarrier synchronizes the PE goroutines at each frame boundary and
// runs an action (axis latching) exactly once per cycle. Abort releases all
// waiters with an aborted indication so a failing PE does not hang the rest.
type cyclicBarrier struct {
	mu      sync.Mutex
	cond    *sync.Cond
	parties int
	count   int
	gen     int
	aborted bool
	action  func()
}

func newCyclicBarrier(parties int, action func()) *cyclicBarrier {
	b := &cyclicBarrier{parties: parties, action: action}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// Await blocks until all parties arrive (or the barrier is aborted) and
// reports whether the barrier was aborted.
func (b *cyclicBarrier) Await() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.aborted {
		return true
	}
	gen := b.gen
	b.count++
	if b.count == b.parties {
		if b.action != nil {
			b.action()
		}
		b.count = 0
		b.gen++
		b.cond.Broadcast()
		return b.aborted
	}
	for gen == b.gen && !b.aborted {
		b.cond.Wait()
	}
	return b.aborted
}

// Abort permanently releases the barrier; all current and future waiters
// return immediately with the aborted indication.
func (b *cyclicBarrier) Abort() {
	b.mu.Lock()
	b.aborted = true
	b.cond.Broadcast()
	b.mu.Unlock()
}
