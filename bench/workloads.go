package main

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"net"
	"runtime"
	"slices"
	"sync"
	"time"

	"visapult/internal/dpss"
	"visapult/internal/dpss/fabric"
	"visapult/internal/netsim"
	"visapult/internal/volume"
	"visapult/pkg/visapult"
)

// Load shape shared by every workload: a closed loop with one client, so
// exactly one run is in flight and the next starts when the previous returns.
const (
	blockSize = 64 << 10 // DPSS block size of every staged dataset
	stripes   = 4        // striped connections per block server
	// wanConnRate caps each DPSS server connection on wan-dpss. Two servers x
	// four stripes x 16 MiB/s = 128 MiB/s for the whole "WAN", well under
	// what the unshaped path moves on the reference box (~700 MiB/s), so the
	// link and not the CPU sets run_s there.
	wanConnRate  = 16 << 20
	wanConnBurst = 64 << 10
)

// workloadDef is one named workload: why it exists and how to set it up.
type workloadDef struct {
	name  string
	why   string
	setup func(ctx context.Context, e env) (*instance, error)
}

// The six workloads. Names are fixed: later changes are judged by them.
var workloads = []workloadDef{
	{"wan-dpss", "window-limited WAN: run_s is pinned by the shaper, so only striping, pipelining and overlap (link_util) can move it and per-byte CPU savings must show in cpu_s", setupWAN},
	{"lan-dpss", "same DPSS path unshaped: CPU-bound block service, socket copies, scatter, decode, macrocell build; fire TF runs render's empty-space-skipping path", setupLAN},
	{"render-dense", "memory source, no sockets, a TF with no transparent bin: render.Pool and the dense march loops do the work; DPSS and wire changes must not move it", setupRenderDense},
	{"fanout-striped", "eight 1 MiB textures per timestep to three viewers over striped sockets: wire framing, backend.Fanout queues, viewer assembly and scenegraph composite dominate", setupFanout},
	{"remote-cold", "the remote back end: scheduler placement, dispatch wire v2, fabric replica reads, metric relay, slab stream-back into the dispatcher frame cache (cache writes)", setupRemoteCold},
	{"replay-warm", "frame-cache reads and Manager submit overhead with zero load and zero render: a cache layout that speeds inserts at the cost of lookups shows here", setupReplayWarm},
}

func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// env is what a workload's setup is given.
type env struct {
	seed int64
	pes  int
	// div divides every dataset axis; 1 for measuring, 4 in the smoke tests.
	div int
}

// oracle is what every timed run of a workload must reproduce. It is
// rendered in setup by the simplest configuration of the pipeline — serial
// mode, in-process transport, memory source — over the same volumes,
// transfer function, axis and PE count.
type oracle struct {
	frames            int
	bytesIn, bytesOut int64
	imageHash         uint64 // compared when the run returns an image
}

// runOutcome is what the benchmark observed of one submitted run.
type runOutcome struct {
	start, submitted, end time.Time
	frames                []frameObs
	loads                 []loadObs
	res                   *visapult.Result
	worker                string // managed runs: where the scheduler placed it
	queuePeak             int    // fan-out runs, traced: deepest viewer queue sampled
}

// instance is one set-up workload, ready to run repetitions.
type instance struct {
	pes, timesteps, viewers int
	// submissions is how many runs one repetition submits back to back.
	submissions int
	sourceBytes int64 // bytes the source holds for one run, for source_MBps
	slabs       []volume.Region
	layers      stageLayers
	want        oracle
	// run submits one run and waits for it. traced adds the span recording
	// that is off while end-to-end metrics are measured.
	run func(ctx context.Context, traced bool) (*runOutcome, error)
	// verify returns a workload-specific output complaint, or "".
	verify func(out *runOutcome) string
	// betweenReps restores the state a repetition must start from.
	betweenReps func()
	// probes runs the workload's isolated layer probes (traced runs only).
	probes func(ctx context.Context, rc *recorder, m map[string]summary) error
	// managed marks runs submitted through a Manager, specBuilt those
	// described by a RunSpec (their source cannot be wrapped); linkRate is
	// the shaped link's capacity in bytes/s (0: unshaped); cacheStats reads
	// the frame cache's counters where the workload has one.
	managed    bool
	specBuilt  bool
	linkRate   float64
	cacheStats func() visapult.FrameCacheStats
	// setupMetrics are per-layer numbers measured while setting up.
	setupMetrics map[string]summary
	// wrapSource, when set, wraps the source of option-built runs; the smoke
	// tests use it to corrupt a frame.
	wrapSource func(visapult.Source) visapult.Source
	closers    []func()
}

func (in *instance) close() {
	for _, c := range slices.Backward(in.closers) {
		c()
	}
}

func (in *instance) onClose(c func()) { in.closers = append(in.closers, c) }

// opsPerRun is one op for the submitted run plus one per (viewer, timestep).
func (in *instance) opsPerRun() int { return 1 + in.viewers*in.timesteps }

// check counts the failed operations of one run: all of them when the run
// errored; otherwise every timestep a viewer did not complete, every frame
// the fan-out dropped, and one for an output that does not match the oracle.
func (in *instance) check(out *runOutcome, runErr error) (failed int, complaint string) {
	if runErr != nil {
		return in.opsPerRun(), runErr.Error()
	}
	res := out.res
	viewers := []visapult.ViewerResult{{Stats: res.Viewer}}
	if len(res.Viewers) > 0 {
		viewers = res.Viewers
	}
	if len(viewers) != in.viewers {
		failed += (in.viewers - len(viewers)) * in.timesteps
	}
	for _, v := range viewers {
		failed += max(in.timesteps-v.Stats.FramesCompleted, 0) + v.Delivery.FramesDropped
	}
	switch {
	case res.Backend.Frames != in.want.frames:
		complaint = fmt.Sprintf("frames %d, oracle %d", res.Backend.Frames, in.want.frames)
	case res.Backend.BytesIn != in.want.bytesIn:
		complaint = fmt.Sprintf("bytes in %d, oracle %d", res.Backend.BytesIn, in.want.bytesIn)
	case res.Backend.BytesOut != in.want.bytesOut:
		complaint = fmt.Sprintf("bytes out %d, oracle %d", res.Backend.BytesOut, in.want.bytesOut)
	case res.FinalImage != nil && imageHash(res.FinalImage) != in.want.imageHash:
		complaint = "final image differs from the oracle's"
	case in.verify != nil:
		complaint = in.verify(out)
	}
	if complaint != "" {
		failed++
	}
	return failed, complaint
}

func imageHash(img *visapult.Image) uint64 {
	h := fnv.New64a()
	h.Write(img.ToRGBA8())
	return h.Sum64()
}

// renderOracle runs the reference configuration over steps.
func renderOracle(ctx context.Context, steps []*volume.Volume, pes int, axis visapult.Axis, tf visapult.TransferFunction) (oracle, error) {
	src, err := visapult.NewMemorySource(steps...)
	if err != nil {
		return oracle{}, err
	}
	opts := []visapult.Option{visapult.WithSource(src), visapult.WithPEs(pes), visapult.WithAxis(axis)}
	if tf != nil {
		opts = append(opts, visapult.WithTransferFunction(tf))
	}
	p, err := visapult.New(opts...)
	if err != nil {
		return oracle{}, err
	}
	res, err := p.Run(ctx)
	if err != nil {
		return oracle{}, fmt.Errorf("oracle: %w", err)
	}
	if res.FinalImage == nil {
		return oracle{}, errors.New("oracle: no final image")
	}
	return oracle{res.Backend.Frames, res.Backend.BytesIn, res.Backend.BytesOut, imageHash(res.FinalImage)}, nil
}

// generated is a dataset with how long datagen took to produce it.
type generated struct {
	spec datasetSpec
	vols []*volume.Volume
	genS float64
}

func generate(d datasetSpec, e env) generated {
	d = d.shrunk(e.div)
	start := time.Now()
	vols := d.generate(e.seed)
	return generated{d, vols, time.Since(start).Seconds()}
}

func (g generated) slabs(axis visapult.Axis, pes int) []volume.Region {
	return volume.Slabs(g.spec.nx, g.spec.ny, g.spec.nz, axis, pes)
}

// cycle repeats vols until there are n timesteps. Only pointers are copied.
func cycle(vols []*volume.Volume, n int) []*volume.Volume {
	out := make([]*volume.Volume, n)
	for i := range out {
		out[i] = vols[i%len(vols)]
	}
	return out
}

// sourceFor returns the source one run of an option-built workload reads:
// src, wrapped by the test hook if set, and by a load recorder when traced.
func (in *instance) sourceFor(src visapult.Source, traced bool) (visapult.Source, *tracedSource) {
	if in.wrapSource != nil {
		src = in.wrapSource(src)
	}
	if !traced {
		return src, nil
	}
	ts := &tracedSource{Source: src}
	return ts, ts
}

// runPipeline is one repetition of an option-built workload: New then Run,
// with the frame hook that first_frame_ms needs and, when traced, the source
// wrapper that records real load intervals.
func (in *instance) runPipeline(ctx context.Context, src visapult.Source, opts []visapult.Option, traced bool) (*runOutcome, error) {
	out := &runOutcome{}
	obs := &observer{}
	src, ts := in.sourceFor(src, traced)
	out.start = time.Now()
	p, err := visapult.New(slices.Concat(opts, []visapult.Option{visapult.WithSource(src), visapult.WithFrameHook(obs.hook)})...)
	if err != nil {
		return nil, err
	}
	out.res, err = p.Run(ctx)
	out.end = time.Now()
	out.submitted = out.start
	out.frames = obs.snapshot()
	if ts != nil {
		out.loads = ts.snapshot()
	}
	return out, err
}

// managed is one Manager with a run counter for unique names.
type managed struct {
	m *visapult.Manager
	n int
}

// submit registers and starts one run, waits for it, and removes it. The
// run's frame metrics arrive through a hook carried in opts (option-built
// runs) or through a metric subscription (spec-built runs, which cannot
// carry closures). A subscription buffers 64 metrics and a spec-built run
// here reports PEs x timesteps <= 32, so none is ever dropped.
func (mg *managed) submit(ctx context.Context, spec *visapult.RunSpec, opts []visapult.Option, obs *observer, sampleViewers bool) (*runOutcome, error) {
	mg.n++
	name := fmt.Sprintf("run-%d", mg.n)
	out := &runOutcome{start: time.Now()}
	var err error
	if spec != nil {
		err = mg.m.CreateSpec(name, *spec)
	} else {
		err = mg.m.Create(name, opts...)
	}
	if err != nil {
		return nil, err
	}
	// Remove fails only while the run is live, which is after a failed Wait;
	// that failure is what gets reported.
	defer func() { _ = mg.m.Remove(name) }()

	var relay sync.WaitGroup
	if spec != nil {
		sub, err := mg.m.SubscribeMetrics(name)
		if err != nil {
			return nil, err
		}
		defer sub.Cancel()
		relay.Add(1)
		go func() { // ends when the run finishes: the manager closes sub.C
			defer relay.Done()
			for fm := range sub.C {
				obs.hook(fm)
			}
		}()
	}
	if err := mg.m.Start(name); err != nil {
		return nil, err
	}
	out.submitted = time.Now()

	stopSampling := make(chan struct{})
	var sampler sync.WaitGroup
	if sampleViewers {
		sampler.Add(1)
		go func() {
			defer sampler.Done()
			tick := time.NewTicker(time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-stopSampling:
					return
				case <-tick.C:
					if vs, err := mg.m.Viewers(name); err == nil {
						for _, v := range vs {
							out.queuePeak = max(out.queuePeak, v.QueueDepth)
						}
					}
				}
			}
		}()
	}
	out.res, err = mg.m.Wait(ctx, name)
	out.end = time.Now()
	close(stopSampling)
	sampler.Wait()
	relay.Wait()
	out.frames = obs.snapshot()
	if st, serr := mg.m.Status(name); serr == nil {
		out.worker = st.Worker
	}
	return out, err
}

// ---------------------------------------------------------------------------
// wan-dpss and lan-dpss

func setupWAN(ctx context.Context, e env) (*instance, error) {
	return setupDPSS(ctx, e, func() *netsim.Shaper { return netsim.NewShaper(wanConnRate, wanConnBurst) })
}

func setupLAN(ctx context.Context, e env) (*instance, error) { return setupDPSS(ctx, e, nil) }

// setupDPSS stages D32 into one two-server cluster and reads it back through
// one shared striped client: overlapped, Z slabs (contiguous plane reads),
// fire TF, one TCP connection per PE to one viewer.
func setupDPSS(ctx context.Context, e env, perConn func() *netsim.Shaper) (in *instance, err error) {
	g := generate(d32, e)
	in = &instance{
		pes: e.pes, timesteps: g.spec.steps, viewers: 1, submissions: 1,
		sourceBytes: g.spec.stepBytes() * int64(g.spec.steps),
		slabs:       g.slabs(visapult.AxisZ, e.pes),
		layers:      stageLayers{load: "dpss", send: "wire", drain: "pkg/visapult"},
	}
	defer func() {
		if err != nil {
			in.close()
		}
	}()
	cluster, err := dpss.StartCluster(dpss.ClusterConfig{Servers: 2, DisksPerServer: 2, PerConnShaper: perConn})
	if err != nil {
		return nil, err
	}
	in.onClose(func() { cluster.Close() })

	stageStart := time.Now()
	loader := cluster.NewClient()
	for t, v := range g.vols {
		if _, err := cluster.LoadVolume(loader, dpss.TimestepDatasetName("d32", t), v, blockSize); err != nil {
			loader.Close()
			return nil, fmt.Errorf("staging timestep %d: %w", t, err)
		}
	}
	loader.Close()
	stageS := time.Since(stageStart).Seconds()
	in.setupMetrics = map[string]summary{
		"datagen.gen_s":   single("s", g.genS),
		"dpss.stage_MBps": single("MB/s", float64(in.sourceBytes)/1e6/stageS),
	}

	if in.want, err = renderOracle(ctx, g.vols, e.pes, visapult.AxisZ, nil); err != nil {
		return nil, err
	}
	client := cluster.NewClient(dpss.WithStripes(stripes))
	in.onClose(func() { client.Close() })
	src, err := visapult.NewDPSSSource(client, "d32", g.spec.nx, g.spec.ny, g.spec.nz, g.spec.steps)
	if err != nil {
		return nil, err
	}
	in.onClose(func() { src.Close() })
	opts := []visapult.Option{
		visapult.WithPEs(e.pes), visapult.WithMode(visapult.Overlapped),
		visapult.WithAxis(visapult.AxisZ), visapult.WithTransport(visapult.TransportTCP),
	}
	in.run = func(ctx context.Context, traced bool) (*runOutcome, error) {
		return in.runPipeline(ctx, src, opts, traced)
	}
	if perConn != nil {
		in.linkRate = float64(wanConnRate) * float64(stripes*len(cluster.Servers))
	}
	in.probes = func(ctx context.Context, rc *recorder, m map[string]summary) error {
		if perConn != nil {
			probeShaper(rc, m)
		}
		return probeDPSS(ctx, rc, m, client, src, in)
	}
	return in, nil
}

// ---------------------------------------------------------------------------
// render-dense

// denseTF has alpha in [0.01, 0.02] at every value: no transparent bin, so
// no macrocell is ever skipped, and 64 samples of at most 0.02 never reach
// the 0.98 early-termination cutoff. Every voxel is marched.
func denseTF() visapult.PiecewiseTF {
	return visapult.PiecewiseTF{Points: []visapult.TransferControlPoint{
		{Value: 0, R: 0.1, G: 0.1, B: 0.4, A: 0.01},
		{Value: 0.5, R: 0.9, G: 0.4, B: 0.1, A: 0.015},
		{Value: 1, R: 1, G: 0.9, B: 0.6, A: 0.02},
	}}
}

const renderDenseSteps = 32

func setupRenderDense(ctx context.Context, e env) (*instance, error) {
	g := generate(d32, e)
	steps := cycle(g.vols, renderDenseSteps)
	in := &instance{
		pes: e.pes, timesteps: len(steps), viewers: 1, submissions: 1,
		sourceBytes: g.spec.stepBytes() * int64(len(steps)),
		slabs:       g.slabs(visapult.AxisZ, e.pes),
		layers:      stageLayers{load: "backend", send: "viewer", drain: "pkg/visapult"},
		setupMetrics: map[string]summary{
			"datagen.gen_s": single("s", g.genS),
		},
	}
	var err error
	if in.want, err = renderOracle(ctx, steps, e.pes, visapult.AxisZ, denseTF()); err != nil {
		return nil, err
	}
	src, err := visapult.NewMemorySource(steps...)
	if err != nil {
		return nil, err
	}
	opts := []visapult.Option{
		visapult.WithPEs(e.pes), visapult.WithMode(visapult.Overlapped),
		visapult.WithAxis(visapult.AxisZ), visapult.WithTransferFunction(denseTF()),
	}
	in.run = func(ctx context.Context, traced bool) (*runOutcome, error) {
		return in.runPipeline(ctx, src, opts, traced)
	}
	in.probes = func(ctx context.Context, rc *recorder, m map[string]summary) error {
		return probeRender(ctx, rc, m, g, in)
	}
	return in, nil
}

// ---------------------------------------------------------------------------
// fanout-striped

const (
	fanoutSteps   = 16
	fanoutPEs     = 8 // decomposition width, not CPU sizing: eight 1 MiB textures per timestep
	fanoutViewers = 3
	fanoutLanes   = 2
)

func setupFanout(ctx context.Context, e env) (*instance, error) {
	g := generate(dwide, e)
	steps := cycle(g.vols, fanoutSteps)
	in := &instance{
		pes: fanoutPEs, timesteps: len(steps), viewers: fanoutViewers, submissions: 1, managed: true,
		sourceBytes: g.spec.stepBytes() * int64(len(steps)),
		slabs:       g.slabs(visapult.AxisZ, fanoutPEs),
		// Send here is only the publish into the fan-out's queues; the
		// striped sockets and the viewers work in the fan-out's own
		// goroutines, visible from outside only as the drain after the
		// last frame is rendered.
		layers: stageLayers{load: "backend", send: "backend.Fanout", drain: "wire+viewer"},
		setupMetrics: map[string]summary{
			"datagen.gen_s": single("s", g.genS),
		},
	}
	var err error
	if in.want, err = renderOracle(ctx, steps, fanoutPEs, visapult.AxisZ, nil); err != nil {
		return nil, err
	}
	src, err := visapult.NewMemorySource(steps...)
	if err != nil {
		return nil, err
	}
	mg := &managed{m: visapult.NewManager(1)}
	in.onClose(mg.m.Close)
	opts := []visapult.Option{
		visapult.WithPEs(fanoutPEs), visapult.WithMode(visapult.Overlapped), visapult.WithAxis(visapult.AxisZ),
		visapult.WithViewers(fanoutViewers), visapult.WithTransport(visapult.TransportStriped),
		visapult.WithStripeLanes(fanoutLanes), visapult.WithRenderLoop(),
		// A queue that holds the whole run: a drop is structurally
		// impossible, so any drop is a failure.
		visapult.WithViewerQueue(fanoutPEs * len(steps)),
	}
	in.run = func(ctx context.Context, traced bool) (*runOutcome, error) {
		obs := &observer{}
		s, ts := in.sourceFor(src, traced)
		run := slices.Concat(opts, []visapult.Option{visapult.WithSource(s), visapult.WithFrameHook(obs.hook)})
		out, err := mg.submit(ctx, nil, run, obs, traced)
		if out != nil && ts != nil {
			out.loads = ts.snapshot()
		}
		return out, err
	}
	in.probes = func(ctx context.Context, rc *recorder, m map[string]summary) error {
		if err := probeWire(rc, m, g.spec.nx, g.spec.ny); err != nil {
			return err
		}
		return probeViewer(ctx, rc, m, g, in)
	}
	return in, nil
}

// ---------------------------------------------------------------------------
// remote-cold and replay-warm

// fabricRig is what the two fabric-fed workloads share: two unshaped
// clusters federated at R=2 with D32 staged, the run spec that reads it, and
// the oracle. RunSpec has no axis field, so these runs decompose along X:
// every region is one extent per (y, z) row, the general read path.
type fabricRig struct {
	g    generated
	fb   *fabric.Fabric
	spec visapult.RunSpec
}

func setupFabric(ctx context.Context, e env, in *instance) (*fabricRig, error) {
	g := generate(d32, e)
	in.pes, in.timesteps, in.viewers = e.pes, g.spec.steps, 1
	in.sourceBytes = g.spec.stepBytes() * int64(g.spec.steps)
	in.slabs = g.slabs(visapult.AxisX, e.pes)

	var members []fabric.ClusterSpec
	fspec := &visapult.FabricSpec{Replication: 2, Stripes: stripes}
	for i := range 2 {
		cluster, err := dpss.StartCluster(dpss.ClusterConfig{Servers: 2, DisksPerServer: 2})
		if err != nil {
			return nil, err
		}
		in.onClose(func() { cluster.Close() })
		name := fmt.Sprintf("c%d", i)
		members = append(members, fabric.ClusterSpec{Name: name, Master: cluster.MasterAddr})
		fspec.Clusters = append(fspec.Clusters, visapult.FabricClusterSpec{Name: name, Master: cluster.MasterAddr})
	}
	fb, err := fabric.New(fabric.Config{Clusters: members, Replication: 2, Stripes: stripes})
	if err != nil {
		return nil, err
	}
	in.onClose(func() { fb.Close() })

	stageStart := time.Now()
	for t, v := range g.vols {
		if _, err := fb.LoadBytes(ctx, dpss.TimestepDatasetName("d32", t), v.Marshal(), blockSize); err != nil {
			return nil, fmt.Errorf("staging timestep %d: %w", t, err)
		}
	}
	stageS := time.Since(stageStart).Seconds()
	in.setupMetrics = map[string]summary{
		"datagen.gen_s":   single("s", g.genS),
		"dpss.stage_MBps": single("MB/s", 2*float64(in.sourceBytes)/1e6/stageS), // R=2: every byte is written twice
	}
	if in.want, err = renderOracle(ctx, g.vols, e.pes, visapult.AxisX, nil); err != nil {
		return nil, err
	}
	return &fabricRig{g: g, fb: fb, spec: visapult.RunSpec{
		Source: visapult.SourceSpec{Kind: "fabric", Base: "d32", NX: g.spec.nx, NY: g.spec.ny, NZ: g.spec.nz, Timesteps: g.spec.steps},
		Fabric: fspec, PEs: e.pes, Mode: "overlapped",
	}}, nil
}

const frameCacheBytes = 256 << 20 // holds every slab texture of D32 many times over

func setupRemoteCold(ctx context.Context, e env) (in *instance, err error) {
	in = &instance{submissions: 1, managed: true, specBuilt: true, layers: stageLayers{load: "dpss/fabric", send: "viewer", drain: "pkg/visapult"}}
	defer func() {
		if err != nil {
			in.close()
		}
	}()
	rig, err := setupFabric(ctx, e, in)
	if err != nil {
		return nil, err
	}
	mg := &managed{m: visapult.NewManager(1)}
	in.onClose(mg.m.Close)
	mg.m.SetFrameCacheCapacity(frameCacheBytes)
	in.cacheStats = mg.m.FrameCacheStats

	// One in-process worker on loopback: capacity 1, its own cache off, the
	// default (v2) wire. It stops when its context is cancelled.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	wctx, stopWorker := context.WithCancel(ctx)
	served := make(chan error, 1)
	go func() { served <- visapult.ServeWorker(wctx, l, visapult.WorkerConfig{Capacity: 1}) }()
	in.onClose(func() {
		stopWorker()
		<-served
	})
	if _, err := mg.m.RegisterWorker(ctx, l.Addr().String(), 1); err != nil {
		return nil, err
	}

	in.betweenReps = mg.m.FlushFrameCache
	in.run = func(ctx context.Context, traced bool) (*runOutcome, error) {
		return mg.submit(ctx, &rig.spec, nil, &observer{}, false)
	}
	in.verify = func(out *runOutcome) string {
		if out.worker == "" || out.worker == "local" {
			return fmt.Sprintf("run was placed on %q, not on the remote worker", out.worker)
		}
		return ""
	}
	in.probes = func(ctx context.Context, rc *recorder, m map[string]summary) error {
		if err := probeFabric(ctx, rc, m, rig, in); err != nil {
			return err
		}
		// Slab textures here are NY x NZ (X slabs).
		if err := probeDispatchSlab(rc, m, rig.g.spec.ny, rig.g.spec.nz); err != nil {
			return err
		}
		return probeFrameCache(rc, m, rig.g.spec.ny, rig.g.spec.nz, in)
	}
	return in, nil
}

const replaySubmissions = 40

func setupReplayWarm(ctx context.Context, e env) (in *instance, err error) {
	in = &instance{submissions: replaySubmissions, managed: true, specBuilt: true, layers: stageLayers{load: "dpss/fabric", send: "viewer", drain: "pkg/visapult"}}
	defer func() {
		if err != nil {
			in.close()
		}
	}()
	rig, err := setupFabric(ctx, e, in)
	if err != nil {
		return nil, err
	}
	in.sourceBytes = 0 // a replay reads nothing
	in.want.bytesIn = 0
	mg := &managed{m: visapult.NewManager(1)}
	in.onClose(mg.m.Close)
	mg.m.SetFrameCacheCapacity(frameCacheBytes)
	in.cacheStats = mg.m.FrameCacheStats
	// The one cold run that fills the cache: no workers are registered, so
	// it executes locally and reads the fabric.
	cold, err := mg.submit(ctx, &rig.spec, nil, &observer{}, false)
	if err != nil {
		return nil, fmt.Errorf("cold run: %w", err)
	}
	if cold.res.Backend.BytesIn != rig.g.spec.stepBytes()*int64(rig.g.spec.steps) {
		return nil, fmt.Errorf("cold run read %d bytes", cold.res.Backend.BytesIn)
	}
	in.run = func(ctx context.Context, traced bool) (*runOutcome, error) {
		return mg.submit(ctx, &rig.spec, nil, &observer{}, false)
	}
	in.verify = func(out *runOutcome) string {
		for _, f := range out.frames {
			if !f.m.CacheHit || f.m.Load != 0 || f.m.Render != 0 {
				return fmt.Sprintf("frame %d of PE %d was not a cache hit", f.m.Frame, f.m.PE)
			}
		}
		if len(out.frames) != in.pes*in.timesteps {
			return fmt.Sprintf("%d frame metrics, want %d", len(out.frames), in.pes*in.timesteps)
		}
		return ""
	}
	in.probes = func(ctx context.Context, rc *recorder, m map[string]summary) error {
		return probeFrameCache(rc, m, rig.g.spec.ny, rig.g.spec.nz, in)
	}
	return in, nil
}

// defaultPEs sizes the back end to the machine: min(4, nproc).
func defaultPEs() int { return min(4, runtime.NumCPU()) }
