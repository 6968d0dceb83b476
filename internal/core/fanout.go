package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"visapult/internal/backend"
	"visapult/internal/netlogger"
	"visapult/internal/render"
	"visapult/internal/viewer"
	"visapult/internal/volume"
)

// ViewerResult reports one viewer of a fan-out session: its receive-side
// counters and the sender-side delivery record the fan-out kept for it.
type ViewerResult struct {
	ID       string
	Stats    viewer.Stats
	Delivery backend.ViewerDelivery
	// Err is the viewer's terminal serve error, empty for clean streams.
	Err string
}

// fanoutDrainGrace bounds how long a finishing session waits for the viewer
// send queues to flush, and for each viewer's service goroutines to unwind. A
// viewer stalled past it is abandoned and torn down by closing its
// connections.
const fanoutDrainGrace = 10 * time.Second

// FanoutControl is the live handle of a fan-out session: attach and detach
// viewers while the run executes, and read per-viewer delivery metrics. All
// methods are safe for concurrent use; the handle stays readable (Viewers)
// after the session ends, while Attach and Detach then fail.
type FanoutControl struct {
	cfg SessionConfig
	ctx context.Context
	fan *backend.Fanout
	be  **backend.BackEnd

	mu        sync.Mutex
	instances map[string]*viewerInstance
	order     []*viewerInstance
	seq       int
	closed    bool
}

// viewerInstance is one attached viewer and its transport.
type viewerInstance struct {
	id     string
	seq    int
	vw     *viewer.Viewer
	logger *netlogger.Logger
	tr     *transport

	mu       sync.Mutex
	torn     bool
	serveErr error
}

// newFanoutControl builds the control for one session.
func newFanoutControl(ctx context.Context, cfg SessionConfig, fan *backend.Fanout, be **backend.BackEnd) *FanoutControl {
	return &FanoutControl{cfg: cfg, ctx: ctx, fan: fan, be: be, instances: make(map[string]*viewerInstance)}
}

// Active reports whether the fan-out still accepts viewer operations (the
// session has not begun tearing down). A retention sweep uses it to tell a
// finished session's historical viewer records from live attachments.
func (fc *FanoutControl) Active() bool {
	fc.mu.Lock()
	defer fc.mu.Unlock()
	return !fc.closed
}

// setAxis forwards a best-axis hint from the primary viewer to the back end.
func (fc *FanoutControl) setAxis(axis volume.Axis) {
	fc.mu.Lock()
	be := *fc.be
	fc.mu.Unlock()
	if be != nil {
		be.SetAxis(axis)
	}
}

// Attach builds a new in-process viewer (with the session's transport,
// dimensions and camera), wires it into the fan-out, and starts serving it.
// A viewer attached while the run is in flight starts receiving at the next
// frame boundary.
func (fc *FanoutControl) Attach(id string) error {
	fc.mu.Lock()
	if fc.closed {
		fc.mu.Unlock()
		return errors.New("core: fan-out session has ended, cannot attach")
	}
	if _, ok := fc.instances[id]; ok {
		fc.mu.Unlock()
		return fmt.Errorf("core: viewer %q is already attached", id)
	}
	// Reserve the id (nil entry) before dropping the lock to build the
	// viewer: a concurrent Attach with the same id must fail here, not
	// overwrite the registration below.
	fc.instances[id] = nil
	seq := fc.seq
	fc.seq++
	fc.mu.Unlock()
	unreserve := func() {
		fc.mu.Lock()
		delete(fc.instances, id)
		fc.mu.Unlock()
	}

	var logger *netlogger.Logger
	if fc.cfg.Instrument {
		logger = netlogger.New("viewer-host-"+id, "viewer")
	}
	vcfg := viewer.Config{
		PEs:       fc.cfg.PEs,
		Timesteps: fc.cfg.Timesteps,
		Logger:    logger,
	}
	// A non-nil hook keeps ServeConn from writing axis hints back over the
	// wire (nobody reads them on the fan-out's sender side); only the primary
	// viewer of a FollowView session actually steers the decomposition.
	if seq == 0 && fc.cfg.FollowView {
		vcfg.AxisHint = func(frame int, axis volume.Axis) { fc.setAxis(axis) }
	} else {
		vcfg.AxisHint = func(int, volume.Axis) {}
	}
	vw, err := viewer.New(vcfg)
	if err != nil {
		unreserve()
		return err
	}
	vw.SetViewAngle(fc.cfg.ViewAngle)

	// Reuse the single-viewer transport builder: it returns one sink per PE
	// (or one shared LocalSink) plus the teardown sequence. Hints travel
	// through the in-process hook above, never the wire.
	tr, err := buildTransport(fc.ctx, fc.cfg, vw, nil)
	if err != nil {
		unreserve()
		return fmt.Errorf("core: building transport for viewer %q: %w", id, err)
	}
	if fc.cfg.RenderLoop {
		vw.StartRenderLoop(0)
	}

	inst := &viewerInstance{id: id, seq: seq, vw: vw, logger: logger, tr: tr}
	fc.mu.Lock()
	if fc.closed {
		delete(fc.instances, id)
		fc.mu.Unlock()
		inst.teardown(0)
		return errors.New("core: fan-out session has ended, cannot attach")
	}
	fc.instances[id] = inst
	fc.order = append(fc.order, inst)
	fc.mu.Unlock()

	if err := fc.fan.Attach(id, tr.sinks); err != nil {
		fc.mu.Lock()
		delete(fc.instances, id)
		for i, o := range fc.order {
			if o == inst {
				fc.order = append(fc.order[:i], fc.order[i+1:]...)
				break
			}
		}
		fc.mu.Unlock()
		inst.teardown(0)
		return err
	}
	return nil
}

// Detach removes a viewer from the fan-out mid-run and tears its transport
// down. Its delivery record (and receive-side statistics) remain available in
// the session result and in Viewers snapshots.
func (fc *FanoutControl) Detach(id string) error {
	fc.mu.Lock()
	inst, ok := fc.instances[id]
	if !ok || inst == nil { // nil: a concurrent Attach is still building it
		fc.mu.Unlock()
		return fmt.Errorf("core: viewer %q is not attached", id)
	}
	delete(fc.instances, id)
	fc.mu.Unlock()
	if err := fc.fan.Detach(id); err != nil {
		// The sender may already be gone (failed sink); the transport still
		// needs tearing down.
		inst.teardown(fanoutDrainGrace)
		return nil
	}
	inst.teardown(fanoutDrainGrace)
	return nil
}

// Viewers returns a snapshot of every viewer's delivery counters, in attach
// order, including viewers that already detached or failed.
func (fc *FanoutControl) Viewers() []backend.ViewerDelivery {
	return fc.fan.Viewers()
}

// close marks the control finished: subsequent Attach/Detach calls fail.
func (fc *FanoutControl) close() {
	fc.mu.Lock()
	fc.closed = true
	fc.mu.Unlock()
}

// teardown finishes one viewer's streams and unwinds its goroutines: Done
// markers and the viewer's close first (bounded by grace — a wedged write
// means the viewer is gone anyway), then the sockets, which fails whatever is
// still blocked, then the serve goroutines. Idempotent.
func (inst *viewerInstance) teardown(grace time.Duration) {
	inst.mu.Lock()
	if inst.torn {
		inst.mu.Unlock()
		return
	}
	inst.torn = true
	inst.mu.Unlock()

	_ = inst.tr.finish(grace) // a viewer that misses it shows up in its serve error
	inst.tr.closeAll()
	inst.setServeErr(inst.tr.serveWait())
	inst.vw.Stop()
}

func (inst *viewerInstance) setServeErr(err error) {
	inst.mu.Lock()
	if inst.serveErr == nil {
		inst.serveErr = err
	}
	inst.mu.Unlock()
}

// result snapshots one viewer's final state.
func (inst *viewerInstance) result(delivery backend.ViewerDelivery) ViewerResult {
	vr := ViewerResult{ID: inst.id, Stats: inst.vw.Stats(), Delivery: delivery}
	inst.mu.Lock()
	if inst.serveErr != nil {
		vr.Err = inst.serveErr.Error()
	}
	inst.mu.Unlock()
	return vr
}

// runFanoutSession executes a session whose back end multicasts every frame
// to cfg.Viewers concurrently attached viewers through the fan-out stage.
// The render loop never blocks on a slow or dead viewer: each viewer owns a
// bounded send queue and loses frames past it. Viewer-side stream errors are
// per-viewer results, not run failures.
func runFanoutSession(ctx context.Context, cfg SessionConfig) (*SessionResult, error) {
	fan, err := backend.NewFanout(cfg.PEs, cfg.ViewerQueue)
	if err != nil {
		return nil, err
	}
	var be *backend.BackEnd
	fc := newFanoutControl(ctx, cfg, fan, &be)
	defer fc.close()

	for i := 0; i < cfg.Viewers; i++ {
		if err := fc.Attach(fmt.Sprintf("viewer-%d", i)); err != nil {
			fc.teardownAll()
			return nil, err
		}
	}

	var beLogger *netlogger.Logger
	if cfg.Instrument {
		beLogger = netlogger.New("backend-host", "backend")
	}
	be, err = backend.New(backend.Config{
		PEs:           cfg.PEs,
		Timesteps:     cfg.Timesteps,
		Mode:          cfg.Mode,
		Axis:          cfg.Axis,
		Source:        cfg.Source,
		TF:            cfg.TF,
		Sinks:         fan.Sinks(),
		Logger:        beLogger,
		OnFrame:       cfg.OnFrame,
		OnSlab:        cfg.OnSlab,
		Cache:         cfg.Cache,
		CacheDataset:  cfg.CacheDataset,
		CacheTF:       cfg.CacheTF,
		RenderWorkers: cfg.RenderWorkers,
	})
	if err != nil {
		fc.teardownAll()
		return nil, err
	}

	if cfg.OnFanout != nil {
		cfg.OnFanout(fc)
	}

	start := time.Now()
	beStats, runErr := be.Run(ctx)
	// Flush what the queues still hold, then end every viewer's streams. A
	// sender wedged on a stalled viewer past the grace is unblocked by the
	// teardown closing its connections.
	fan.Close(fanoutDrainGrace)
	fc.close()
	results, primary, finalImg := fc.finishAll()
	elapsed := time.Since(start)
	if runErr != nil {
		return nil, runErr
	}

	res := &SessionResult{
		Backend:    beStats,
		Viewer:     primary,
		Viewers:    results,
		Elapsed:    elapsed,
		FinalImage: finalImg,
	}
	if cfg.Instrument {
		collector := netlogger.NewCollector()
		collector.AddLogger(beLogger)
		fc.mu.Lock()
		for _, inst := range fc.order {
			if inst.logger != nil {
				collector.AddLogger(inst.logger)
			}
		}
		fc.mu.Unlock()
		res.Events = collector.Events()
	}
	return res, nil
}

// teardownAll unwinds every instance without collecting results (setup
// failure path). Closing the fan first ends the already-started sender
// goroutines — their queues are empty at setup time, so the short grace is
// never consumed by a healthy sender.
func (fc *FanoutControl) teardownAll() {
	fc.close()
	fc.fan.Close(time.Second)
	fc.mu.Lock()
	order := append([]*viewerInstance(nil), fc.order...)
	fc.mu.Unlock()
	for _, inst := range order {
		inst.teardown(0)
	}
}

// finishAll tears every viewer down and assembles the per-viewer results in
// attach order, returning them with the primary viewer's stats and final
// composited view.
func (fc *FanoutControl) finishAll() ([]ViewerResult, viewer.Stats, *render.Image) {
	fc.mu.Lock()
	order := append([]*viewerInstance(nil), fc.order...)
	fc.mu.Unlock()

	var wg sync.WaitGroup
	for _, inst := range order {
		wg.Add(1)
		go func(inst *viewerInstance) {
			defer wg.Done()
			inst.teardown(fanoutDrainGrace)
		}(inst)
	}
	wg.Wait()

	// Snapshot the delivery counters only after the teardown: a sender that
	// was wedged on a stalled connection settles its final sent/dropped tally
	// when the teardown closes that connection. An id reused after a detach
	// appears more than once in the snapshot, so pair each instance with the
	// first unconsumed record carrying its id.
	deliveries := fc.fan.Viewers()
	used := make([]bool, len(deliveries))
	deliveryFor := func(id string) backend.ViewerDelivery {
		for i, d := range deliveries {
			if !used[i] && d.ID == id {
				used[i] = true
				return d
			}
		}
		return backend.ViewerDelivery{ID: id}
	}

	results := make([]ViewerResult, 0, len(order))
	var primary viewer.Stats
	var finalImg *render.Image
	for i, inst := range order {
		results = append(results, inst.result(deliveryFor(inst.id)))
		if i == 0 {
			primary = inst.vw.Stats()
			if img, err := inst.vw.CompositeView(); err == nil {
				finalImg = img
			}
		}
	}
	return results, primary, finalImg
}
