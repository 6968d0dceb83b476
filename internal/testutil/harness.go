// Package testutil provides a reusable in-process end-to-end harness for the
// Visapult pipeline: it wires a data source through a real back end and its
// fan-out stage to N viewers, each over a wire.Link of real TCP connections
// on loopback, with per-viewer stall injection. Fan-out, transport and
// viewer tests across the repository build on it instead of hand-rolling
// listener/dial/serve plumbing.
package testutil

import (
	"context"
	"net"
	"sync"
	"testing"
	"time"

	"visapult/internal/backend"
	"visapult/internal/viewer"
	"visapult/internal/volume"
	"visapult/internal/wire"
)

// HarnessConfig sizes one harness pipeline. The zero value selects 2 PEs, 3
// timesteps of a tiny in-memory volume, serial mode, and the default
// per-viewer queue bound.
type HarnessConfig struct {
	PEs       int
	Timesteps int
	Mode      backend.Mode
	// Queue bounds each viewer's fan-out send queue in (PE, frame) pairs.
	Queue int
	// Dims are the source volume dimensions; zero selects 12x8x8.
	NX, NY, NZ int
	// FrameDelay, when positive, slows each region load down so tests can
	// act (attach, stall, detach) while the run is in flight.
	FrameDelay time.Duration
	// OnFrame, when non-nil, is forwarded to the back end's per-frame hook.
	OnFrame func(backend.FrameStats)
}

// teardownGrace bounds one viewer's teardown: the fan-out's drain of its
// queue (or a detach's wait for its sender), then its end-of-stream markers
// and close, all measured from one deadline. Healthy viewers finish in
// milliseconds; only a stalled one uses it up, and closing its link is what
// unblocks it.
const teardownGrace = 2 * time.Second

// Harness is one configured pipeline: a back end publishing through a
// fan-out, plus any number of TCP-attached viewers.
type Harness struct {
	tb  testing.TB
	cfg HarnessConfig
	fan *backend.Fanout
	src backend.DataSource
	// listen opens each viewer's loopback listener; tests swap it to make
	// accepts slow or fail.
	listen func() (net.Listener, error)

	mu      sync.Mutex
	viewers []*HarnessViewer
}

// NewHarness builds a harness. Viewers attach before or during Run; the
// pipeline executes when Run is called.
func NewHarness(tb testing.TB, cfg HarnessConfig) *Harness {
	tb.Helper()
	if cfg.PEs <= 0 {
		cfg.PEs = 2
	}
	if cfg.Timesteps <= 0 {
		cfg.Timesteps = 3
	}
	if cfg.NX <= 0 || cfg.NY <= 0 || cfg.NZ <= 0 {
		cfg.NX, cfg.NY, cfg.NZ = 12, 8, 8
	}
	vol := volume.MustNew(cfg.NX, cfg.NY, cfg.NZ)
	for z := 0; z < cfg.NZ; z++ {
		for y := 0; y < cfg.NY; y++ {
			for x := 0; x < cfg.NX; x++ {
				vol.Set(x, y, z, float32((x+y+z)%13)/13)
			}
		}
	}
	steps := make([]*volume.Volume, cfg.Timesteps)
	for i := range steps {
		steps[i] = vol
	}
	mem, err := backend.NewMemorySource(steps...)
	if err != nil {
		tb.Fatalf("testutil: building source: %v", err)
	}
	var src backend.DataSource = mem
	if cfg.FrameDelay > 0 {
		src = &delaySource{DataSource: mem, delay: cfg.FrameDelay}
	}
	fan, err := backend.NewFanout(cfg.PEs, cfg.Queue)
	if err != nil {
		tb.Fatalf("testutil: building fan-out: %v", err)
	}
	listen := func() (net.Listener, error) { return net.Listen("tcp", "127.0.0.1:0") }
	return &Harness{tb: tb, cfg: cfg, fan: fan, src: src, listen: listen}
}

// delaySource slows each region load down by a fixed delay (interruptible by
// ctx, like a real network source).
type delaySource struct {
	backend.DataSource
	delay time.Duration
}

func (d *delaySource) LoadRegion(ctx context.Context, t int, r volume.Region) (*volume.Volume, int64, error) {
	select {
	case <-time.After(d.delay):
	case <-ctx.Done():
		return nil, 0, ctx.Err()
	}
	return d.DataSource.LoadRegion(ctx, t, r)
}

// Fanout exposes the harness's fan-out stage (delivery snapshots, manual
// attach of custom sinks).
func (h *Harness) Fanout() *backend.Fanout { return h.fan }

// Deliveries returns the fan-out's per-viewer delivery snapshot keyed by
// viewer ID.
func (h *Harness) Deliveries() map[string]backend.ViewerDelivery {
	out := make(map[string]backend.ViewerDelivery)
	for _, d := range h.fan.Viewers() {
		out[d.ID] = d
	}
	return out
}

// AttachViewer stands a new viewer up — its own TCP listener on loopback, a
// wire.Link with one accepted connection per PE, a real viewer.Viewer
// servicing them — and attaches it to the fan-out. Every connection is
// accepted before AttachViewer returns. Safe before or during Run; a viewer
// attached mid-run starts receiving at the next frame boundary.
func (h *Harness) AttachViewer(id string) *HarnessViewer {
	h.tb.Helper()
	hv, err := h.attachViewer(id)
	if err != nil {
		h.tb.Fatalf("testutil: attaching viewer %q: %v", id, err)
	}
	return hv
}

func (h *Harness) attachViewer(id string) (*HarnessViewer, error) {
	l, err := h.listen()
	if err != nil {
		return nil, err
	}
	vw, err := viewer.New(viewer.Config{
		PEs: h.cfg.PEs,
		// A non-nil hook keeps ServeConn from writing axis hints back.
		AxisHint: func(int, volume.Axis) {},
	})
	if err != nil {
		l.Close()
		return nil, err
	}
	g := newGate()
	gated := func(c net.Conn) net.Conn { return &gatedConn{Conn: c, gate: g} }
	link, conns, err := wire.ConnectLink(context.Background(), l, h.cfg.PEs, 0, gated, nil)
	if err != nil {
		return nil, err
	}
	hv := &HarnessViewer{
		ID:        id,
		harness:   h,
		vw:        vw,
		link:      link,
		gate:      g,
		serveDone: make(chan struct{}),
	}
	go func() {
		defer close(hv.serveDone)
		hv.setServeErr(vw.ServeConns(conns...))
	}()

	if err := h.fan.Attach(id, backend.ConnSinks(link.Conns())); err != nil {
		link.Close()
		return nil, err
	}
	h.mu.Lock()
	h.viewers = append(h.viewers, hv)
	h.mu.Unlock()
	return hv, nil
}

// AttachStalledViewer attaches a viewer whose connections are stalled from
// the start: the fan-out's sender for it blocks on the first write until
// teardown. Its queue then fills and frames drop — the dead display of the
// acceptance scenario.
func (h *Harness) AttachStalledViewer(id string) *HarnessViewer {
	h.tb.Helper()
	hv := h.AttachViewer(id)
	hv.Stall()
	return hv
}

// Run executes the back end against the fan-out and tears the viewers down
// when it finishes: queues are flushed, done markers sent, service goroutines
// joined, sockets closed. It returns the back end's statistics.
func (h *Harness) Run(ctx context.Context) (backend.RunStats, error) {
	h.tb.Helper()
	be, err := backend.New(backend.Config{
		PEs:       h.cfg.PEs,
		Timesteps: h.cfg.Timesteps,
		Mode:      h.cfg.Mode,
		Source:    h.src,
		Sinks:     h.fan.Sinks(),
		OnFrame:   h.cfg.OnFrame,
	})
	if err != nil {
		return backend.RunStats{}, err
	}
	stats, runErr := be.Run(ctx)
	deadline := time.Now().Add(teardownGrace)
	h.fan.Close(time.Until(deadline))

	h.mu.Lock()
	viewers := append([]*HarnessViewer(nil), h.viewers...)
	h.mu.Unlock()
	var wg sync.WaitGroup
	for _, hv := range viewers {
		wg.Add(1)
		go func(hv *HarnessViewer) {
			defer wg.Done()
			hv.teardown(deadline)
		}(hv)
	}
	wg.Wait()
	return stats, runErr
}

// HarnessViewer is one TCP-attached viewer of a harness.
type HarnessViewer struct {
	ID      string
	harness *Harness
	vw      *viewer.Viewer

	link      *wire.Link
	gate      *gate
	serveDone chan struct{}

	mu       sync.Mutex
	serveErr error
	torn     bool
}

// Viewer exposes the underlying viewer (scene graph, render loop).
func (hv *HarnessViewer) Viewer() *viewer.Viewer { return hv.vw }

// Stats returns the viewer's receive-side counters.
func (hv *HarnessViewer) Stats() viewer.Stats { return hv.vw.Stats() }

// Frames returns the viewer's per-frame assembly records in frame order.
func (hv *HarnessViewer) Frames() []viewer.FrameRecord { return hv.vw.Frames() }

// Delivery returns the fan-out's delivery record for this viewer.
func (hv *HarnessViewer) Delivery() backend.ViewerDelivery {
	return hv.harness.Deliveries()[hv.ID]
}

// ServeErr returns the viewer's terminal serve error (nil for clean
// streams); valid after Run returns.
func (hv *HarnessViewer) ServeErr() error {
	hv.mu.Lock()
	defer hv.mu.Unlock()
	return hv.serveErr
}

func (hv *HarnessViewer) setServeErr(err error) {
	hv.mu.Lock()
	if hv.serveErr == nil {
		hv.serveErr = err
	}
	hv.mu.Unlock()
}

// Stall blocks all of the viewer's connections at the next write, emulating
// a wedged display or a dead network path.
func (hv *HarnessViewer) Stall() { hv.gate.stall() }

// Detach removes the viewer from the fan-out mid-run and tears its
// transport down; its delivery record remains in the fan-out's snapshot.
func (hv *HarnessViewer) Detach() error {
	deadline := time.Now().Add(teardownGrace)
	if err := hv.harness.fan.Detach(hv.ID); err != nil {
		return err
	}
	hv.teardown(deadline)
	return nil
}

// teardown ends the viewer's streams: done markers and the viewer's close
// within what is left before deadline (nothing left: skipped — a stalled
// connection cannot take a marker anyway), then the link closed, which kills
// the gate and fails the sockets so anything still blocked unwinds, then the
// service goroutines joined.
func (hv *HarnessViewer) teardown(deadline time.Time) {
	hv.mu.Lock()
	if hv.torn {
		hv.mu.Unlock()
		return
	}
	hv.torn = true
	hv.mu.Unlock()

	if grace := time.Until(deadline); grace > 0 {
		_ = hv.link.Finish(grace) // a stalled viewer misses it; the serve error says why
	}
	hv.link.Close()
	select {
	case <-hv.serveDone:
	case <-time.After(5 * time.Second):
	}
}

// gate pauses writes on demand. Open by default; stall swaps in a blocking
// state, kill fails all current and future waits.
type gate struct {
	mu   sync.Mutex
	open chan struct{} // closed when writes may proceed
	dead chan struct{} // closed on teardown
}

func newGate() *gate {
	g := &gate{open: make(chan struct{}), dead: make(chan struct{})}
	close(g.open)
	return g
}

func (g *gate) stall() {
	g.mu.Lock()
	select {
	case <-g.open:
		g.open = make(chan struct{})
	default: // already stalled
	}
	g.mu.Unlock()
}

func (g *gate) kill() {
	g.mu.Lock()
	select {
	case <-g.dead:
	default:
		close(g.dead)
	}
	g.mu.Unlock()
}

// wait blocks while the gate is stalled; it fails once the gate is killed.
func (g *gate) wait() error {
	g.mu.Lock()
	open := g.open
	g.mu.Unlock()
	select {
	case <-open:
		return nil
	case <-g.dead:
		return net.ErrClosed
	}
}

// gatedConn is a net.Conn whose writes block while its gate is stalled.
// Closing it kills the gate, so a write parked there fails too.
type gatedConn struct {
	net.Conn
	gate *gate
}

func (c *gatedConn) Close() error {
	c.gate.kill()
	return c.Conn.Close()
}

func (c *gatedConn) Write(p []byte) (int, error) {
	if err := c.gate.wait(); err != nil {
		return 0, err
	}
	return c.Conn.Write(p)
}
