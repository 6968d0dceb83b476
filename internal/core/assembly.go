package core

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"visapult/internal/backend"
	"visapult/internal/netlogger"
	"visapult/internal/netsim"
	"visapult/internal/render"
	"visapult/internal/viewer"
	"visapult/internal/volume"
	"visapult/internal/wire"
)

// teardownGrace bounds one viewer's teardown: the fan-out's drain of its
// queue (or a detach's wait for its sender), then the end-of-stream markers
// and the viewer's close, all measured from one deadline. A viewer that needs
// longer is abandoned by closing its link.
const teardownGrace = 10 * time.Second

// viewerEnd is one viewer the back end ships slabs to: its per-PE sinks and
// what must be torn down when the run ends. An in-process end owns its
// viewer and, over sockets, both sides of a loopback link; a remote end owns
// the back-end side of a link dialed to another process; a discard end owns
// nothing.
type viewerEnd struct {
	id     string
	sinks  []backend.FrameSink
	link   *wire.Link        // nil for local and discard ends
	peer   []*wire.Conn      // the viewer side of an in-process link
	vw     *viewer.Viewer    // nil for remote and discard ends
	logger *netlogger.Logger // vw's, when instrumented
	served chan error        // vw's serve result for peer (capacity 1)

	mu   sync.Mutex
	torn bool
	err  error // the terminal error, set by teardown
}

// endBuilder builds end i of a run. direct reports that the end's sinks are
// the back end's own; steer, when non-nil, receives the end's best-axis hints.
type endBuilder func(i int, direct bool, steer func(volume.Axis)) (*viewerEnd, error)

// runBackEnd is the one back-end assembly behind RunSession, RunRemote and
// viewer-less runs: it builds n viewer ends, wires them to the back end, runs
// it, and tears everything down.
//
// Exactly one end with no fan-out asked for (cfg.Viewers == 0) is direct:
// its sinks are the back end's, so delivery is lossless and back-pressured,
// and its serve, finish and close errors are run errors. Otherwise every end
// is attached to the fan-out stage behind its own bounded queue, and its
// errors are its own ViewerResult. Only the first end steers the
// decomposition, and only with cfg.FollowView. Cancelling ctx closes every
// link, which unblocks a PE or sender stuck writing to a stalled viewer.
func runBackEnd(ctx context.Context, cfg SessionConfig, host string, n int, build endBuilder) (*SessionResult, error) {
	var target atomic.Pointer[backend.BackEnd]
	steerFor := func(i int) func(volume.Axis) {
		if !cfg.FollowView || i != 0 {
			return nil
		}
		return func(axis volume.Axis) {
			if be := target.Load(); be != nil {
				be.SetAxis(axis)
			}
		}
	}

	var (
		direct *viewerEnd
		fc     *FanoutControl
		sinks  []backend.FrameSink
	)
	if n == 1 && cfg.Viewers == 0 {
		e, err := build(0, true, steerFor(0))
		if err != nil {
			return nil, err
		}
		direct, sinks = e, e.sinks
	} else {
		fan, err := backend.NewFanout(cfg.PEs, cfg.ViewerQueue)
		if err != nil {
			return nil, err
		}
		fc = &FanoutControl{cfg: cfg, ctx: ctx, fan: fan, ends: make(map[string]*viewerEnd)}
		for i := range n {
			e, err := build(i, false, steerFor(i))
			if err == nil {
				err = fc.add(e)
			}
			if err != nil {
				fc.abort()
				return nil, err
			}
		}
		sinks = fan.Sinks()
	}
	ends := func() []*viewerEnd {
		if fc != nil {
			return fc.snapshot()
		}
		return []*viewerEnd{direct}
	}
	defer context.AfterFunc(ctx, func() {
		for _, e := range ends() {
			if e.link != nil {
				e.link.Close()
			}
		}
	})()

	var beLogger *netlogger.Logger
	if cfg.Instrument {
		beLogger = netlogger.New(host, "backend")
	}
	be, err := backend.New(backend.Config{
		PEs:           cfg.PEs,
		Timesteps:     cfg.Timesteps,
		Mode:          cfg.Mode,
		Axis:          cfg.Axis,
		Source:        cfg.Source,
		TF:            cfg.TF,
		Sinks:         sinks,
		Logger:        beLogger,
		OnFrame:       cfg.OnFrame,
		OnSlab:        cfg.OnSlab,
		Cache:         cfg.Cache,
		CacheDataset:  cfg.CacheDataset,
		CacheTF:       cfg.CacheTF,
		RenderWorkers: cfg.RenderWorkers,
	})
	if err != nil {
		if fc != nil {
			fc.abort()
		} else {
			direct.teardown(time.Time{})
		}
		return nil, err
	}
	target.Store(be)
	if fc != nil && cfg.OnFanout != nil {
		cfg.OnFanout(fc)
	}

	start := time.Now()
	stats, runErr := be.Run(ctx)
	// One deadline for the whole teardown: what the fan-out's drain leaves of
	// it is all the end-of-stream markers get.
	deadline := time.Now().Add(teardownGrace)
	res := &SessionResult{Backend: stats}
	var endErr error
	if fc != nil {
		fc.fan.Close(time.Until(deadline))
		res.Viewers = fc.finish(deadline)
	} else {
		direct.teardown(deadline)
		endErr = direct.err
	}
	res.Elapsed = time.Since(start)
	if runErr != nil {
		return nil, runErr
	}
	if endErr != nil {
		if ctxErr := ctx.Err(); ctxErr != nil {
			return nil, ctxErr
		}
		return nil, endErr
	}

	all := ends()
	res.Viewer, res.FinalImage = all[0].view()
	if cfg.Instrument {
		col := netlogger.NewCollector()
		col.AddLogger(beLogger)
		for _, e := range all {
			if e.logger != nil {
				col.AddLogger(e.logger)
			}
		}
		res.Events = col.Events()
	}
	return res, nil
}

// newInProcessEnd builds a viewer in this process and its end: a LocalSink
// for TransportLocal, otherwise a loopback wire.Link whose viewer side the
// viewer serves. A direct socket end sends the viewer's axis hints back over
// the link (section 3.3); any other end hands them over in process. id names
// a fan-out end.
func newInProcessEnd(ctx context.Context, cfg SessionConfig, id string, direct bool, steer func(volume.Axis)) (*viewerEnd, error) {
	overWire := direct && cfg.Transport != TransportLocal
	e := &viewerEnd{id: id}
	if cfg.Instrument {
		host := "viewer-host"
		if !direct {
			host += "-" + id
		}
		e.logger = netlogger.New(host, "viewer")
	}
	vcfg := viewer.Config{PEs: cfg.PEs, Timesteps: cfg.Timesteps, Logger: e.logger}
	switch {
	case overWire:
		// A nil hook makes ServeConn write the hints back over the link.
	case steer != nil:
		vcfg.AxisHint = func(_ int, axis volume.Axis) { steer(axis) }
	case !direct:
		// A non-nil hook keeps a fan-out viewer's hints off its link.
		vcfg.AxisHint = func(int, volume.Axis) {}
	}
	vw, err := viewer.New(vcfg)
	if err != nil {
		return nil, fmt.Errorf("core: building viewer %q: %w", id, err)
	}
	vw.SetViewAngle(cfg.ViewAngle)
	e.vw = vw

	if cfg.Transport == TransportLocal {
		e.sinks = []backend.FrameSink{viewer.NewLocalSink(vw)}
	} else {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("core: listen: %w", err)
		}
		lanes, wrap := linkShape(cfg)
		var onHint func(volume.Axis)
		if overWire {
			onHint = steer
		}
		link, peer, err := wire.ConnectLink(ctx, l, cfg.PEs, lanes, wrap, axisHints(onHint))
		if err != nil {
			return nil, fmt.Errorf("core: connecting viewer %q: %w", id, err)
		}
		e.link, e.peer, e.sinks = link, peer, backend.ConnSinks(link.Conns())
		e.served = make(chan error, 1)
		go func() { e.served <- vw.ServeConns(peer...) }()
	}
	if cfg.RenderLoop {
		vw.StartRenderLoop(0)
	}
	return e, nil
}

// dialEnd dials a link to a viewer in another process. Its hints come back
// over the link and go to steer when non-nil; the link drains them either
// way, which a clean teardown needs.
func dialEnd(ctx context.Context, cfg SessionConfig, id, addr string, steer func(volume.Axis)) (*viewerEnd, error) {
	lanes, wrap := linkShape(cfg)
	link, err := wire.DialLink(ctx, addr, cfg.PEs, lanes, wrap, axisHints(steer))
	if err != nil {
		return nil, fmt.Errorf("core: connecting to viewer %s: %w", addr, err)
	}
	return &viewerEnd{id: id, sinks: backend.ConnSinks(link.Conns()), link: link}, nil
}

// discardEnd is the end of a run without a viewer: one sink that every PE
// shares and that drops what it is sent.
func discardEnd(int, bool, func(volume.Axis)) (*viewerEnd, error) {
	return &viewerEnd{id: "discard", sinks: []backend.FrameSink{&backend.NullSink{}}}, nil
}

// linkShape returns the lane count (0 for plain TCP) and the per-connection
// wrapper of cfg's viewer links.
func linkShape(cfg SessionConfig) (lanes int, wrap func(net.Conn) net.Conn) {
	if cfg.Transport == TransportStriped {
		lanes = cfg.StripeLanes
	}
	if cfg.ViewerShaper != nil {
		wrap = func(c net.Conn) net.Conn { return netsim.NewShapedConn(c, cfg.ViewerShaper) }
	}
	return lanes, wrap
}

// axisHints adapts steer to a link's hint callback; nil stays nil.
func axisHints(steer func(volume.Axis)) func(*wire.AxisHint) {
	if steer == nil {
		return nil
	}
	return func(h *wire.AxisHint) { steer(h.Axis) }
}

// teardown ends the end's streams and unwinds it, once: the end-of-stream
// markers and the viewer's close within what is left before deadline (with
// nothing left they are skipped — a zero deadline aborts), then the link
// closed, which fails whatever is still blocked on it, then the viewer's
// service goroutines joined. It records the first of the serve, finish and
// close errors as the end's terminal error.
func (e *viewerEnd) teardown(deadline time.Time) {
	e.mu.Lock()
	if e.torn {
		e.mu.Unlock()
		return
	}
	e.torn = true
	e.mu.Unlock()

	var finishErr, closeErr error
	if e.link != nil {
		if grace := time.Until(deadline); grace > 0 {
			finishErr = e.link.Finish(grace)
		} else {
			finishErr = errors.New("core: no time left to end the viewer's streams")
		}
		closeErr = e.link.Close()
		// A striped conn owns per-lane goroutines that only a Close releases.
		for _, c := range e.peer {
			c.Close()
		}
	}
	var serveErr error
	if e.served != nil {
		serveErr = <-e.served
	}
	if e.vw != nil {
		e.vw.Stop()
	}
	e.mu.Lock()
	e.err = cmp.Or(serveErr, finishErr, closeErr)
	e.mu.Unlock()
}

// view returns the end's viewer counters and final composited view (zero
// and nil when the viewer is not in this process or the scene stayed empty).
func (e *viewerEnd) view() (viewer.Stats, *render.Image) {
	if e.vw == nil {
		return viewer.Stats{}, nil
	}
	if img, err := e.vw.CompositeView(); err == nil {
		return e.vw.Stats(), img
	}
	return e.vw.Stats(), nil
}

// result snapshots one fan-out end's final state.
func (e *viewerEnd) result(delivery backend.ViewerDelivery) ViewerResult {
	vr := ViewerResult{ID: e.id, Delivery: delivery}
	if e.vw != nil {
		vr.Stats = e.vw.Stats()
	}
	e.mu.Lock()
	if e.err != nil {
		vr.Err = e.err.Error()
	}
	e.mu.Unlock()
	return vr
}
