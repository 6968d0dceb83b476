// Package core orchestrates complete Visapult sessions and reproduces the
// paper's field-test campaigns.
//
// It offers two complementary execution paths:
//
//   - Session (session.go): a real, concurrent pipeline — data source
//     (in-memory, synthetic or DPSS), the parallel back end of
//     internal/backend, the wire protocol of internal/wire, and the viewer
//     of internal/viewer. Over sockets every viewer is reached through one
//     wire.Link (a connection per PE, optionally striped and
//     bandwidth-shaped), the same link the split-process back end and the
//     test harness use. Everything actually runs; NetLogger events carry
//     real wall-clock timestamps.
//
//   - Campaign (campaign.go): a virtual-clock simulation of the paper's
//     year-2000 field tests. The WAN testbeds (NTON, ESnet, SciNet), the
//     terabyte DPSS installations and the CPlant/Onyx2/E4500 platforms are
//     modelled with internal/netsim, internal/dpss.ThroughputModel and
//     internal/platform, so the experiments of Figures 10-17 can be
//     regenerated at the paper's scale (160 MB per timestep) in milliseconds
//     of real time.
//
// experiments.go maps every table and figure of the paper's evaluation onto
// one of those two paths (experiments E1-E12 of DESIGN.md).
package core

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync/atomic"
	"time"

	"visapult/internal/backend"
	"visapult/internal/backend/framecache"
	"visapult/internal/netlogger"
	"visapult/internal/netsim"
	"visapult/internal/render"
	"visapult/internal/viewer"
	"visapult/internal/volume"
	"visapult/internal/wire"
)

// Transport selects how the back end's payloads reach the viewer in a
// Session.
type Transport int

// Session transports.
const (
	// TransportLocal delivers payloads with an in-process sink (no sockets).
	TransportLocal Transport = iota
	// TransportTCP gives every PE its own TCP connection to the viewer, the
	// paper's one-connection-per-PE layout.
	TransportTCP
	// TransportStriped gives every PE a striped bundle of TCP connections
	// (section 3.4's "striped sockets").
	TransportStriped
)

// String implements fmt.Stringer.
func (t Transport) String() string {
	switch t {
	case TransportTCP:
		return "tcp"
	case TransportStriped:
		return "striped-tcp"
	default:
		return "local"
	}
}

// SessionConfig describes one end-to-end Visapult run.
type SessionConfig struct {
	// PEs is the number of back-end processing elements.
	PEs int
	// Timesteps bounds the run; 0 means every timestep of the source.
	Timesteps int
	// Mode selects serial or overlapped loading in the back end.
	Mode backend.Mode
	// Axis is the initial slab decomposition axis.
	Axis volume.Axis
	// Source supplies the raw data (memory, synthetic, or DPSS).
	Source backend.DataSource
	// TF is the transfer function; nil selects the combustion default.
	TF render.TransferFunction
	// Transport selects local delivery or real sockets.
	Transport Transport
	// StripeLanes is the number of sockets per PE for TransportStriped
	// (default 2).
	StripeLanes int
	// ViewerShaper, when non-nil, throttles the back-end-to-viewer writes to
	// emulate a WAN between them.
	ViewerShaper *netsim.Shaper
	// FollowView makes the viewer feed best-axis hints back to the back end
	// (section 3.3 axis switching).
	FollowView bool
	// ViewAngle is the viewer's camera rotation about Y in radians.
	ViewAngle float64
	// Instrument enables NetLogger instrumentation on both components.
	Instrument bool
	// RenderLoop starts the viewer's decoupled render goroutine for the
	// duration of the run.
	RenderLoop bool
	// OnFrame, when non-nil, receives each PE's per-frame statistics as soon
	// as that PE finishes sending the frame. Called concurrently from the
	// back-end PE goroutines.
	OnFrame func(backend.FrameStats)
	// OnSlab, when non-nil, receives each rendered (or replayed) slab
	// payload pair after it has been sent; see backend.Config.OnSlab.
	// Called concurrently from the back-end PE goroutines.
	OnSlab func(light *wire.LightPayload, heavy *wire.HeavyPayload)
	// Viewers, when >= 1, runs the session through the back end's fan-out
	// stage with that many concurrently attached viewers (the paper's
	// ImmersaDesk + tiled display exhibit). Zero selects the classic
	// single-viewer pipeline.
	Viewers int
	// ViewerQueue bounds each attached viewer's send queue in (PE, frame)
	// pairs for fan-out sessions; <= 0 selects backend.DefaultViewerQueue.
	ViewerQueue int
	// RenderWorkers sizes the back end's shared render pool; <= 0 selects
	// GOMAXPROCS. See backend.Config.RenderWorkers.
	RenderWorkers int
	// OnFanout, when non-nil, receives the fan-out session's control handle
	// once the run is live, so callers can attach and detach viewers mid-run
	// and read per-viewer delivery metrics. Only invoked when Viewers >= 1.
	OnFanout func(*FanoutControl)
	// Cache, CacheDataset and CacheTF configure the content-addressed slab
	// cache in the back end; see backend.Config. A nil Cache (or empty
	// CacheDataset) disables caching for this session.
	Cache        *framecache.Cache
	CacheDataset string
	CacheTF      string
}

// SessionResult reports what a session did.
type SessionResult struct {
	Backend backend.RunStats
	// Viewer is the (primary) viewer's counter snapshot; for fan-out
	// sessions it is the first attached viewer's.
	Viewer viewer.Stats
	// Viewers reports every viewer of a fan-out session, in attach order
	// (empty for classic single-viewer sessions).
	Viewers []ViewerResult
	// Events is the merged NetLogger stream (empty unless Instrument).
	Events []netlogger.Event
	// Elapsed is the end-to-end wall-clock time of the run.
	Elapsed time.Duration
	// FinalImage is the viewer's last composited view (nil if the scene
	// stayed empty).
	FinalImage *render.Image
}

// TrafficRatio returns source-side bytes over viewer-side bytes, the pipeline
// reduction factor of experiment E10.
func (r *SessionResult) TrafficRatio() float64 {
	if r.Backend.BytesOut == 0 {
		return 0
	}
	return float64(r.Backend.BytesIn) / float64(r.Backend.BytesOut)
}

// RunSession executes a complete Visapult pipeline and blocks until every
// timestep has been loaded, rendered, transmitted and assembled in the
// viewer, or until ctx is cancelled — cancellation aborts the back end at the
// next phase boundary, tears the transport down, and returns ctx's error.
func RunSession(ctx context.Context, cfg SessionConfig) (*SessionResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if cfg.Source == nil {
		return nil, errors.New("core: SessionConfig.Source is required")
	}
	if cfg.PEs <= 0 {
		return nil, fmt.Errorf("core: PEs must be positive, got %d", cfg.PEs)
	}
	if cfg.StripeLanes <= 0 {
		cfg.StripeLanes = 2
	}
	if cfg.Viewers >= 1 {
		return runFanoutSession(ctx, cfg)
	}

	var beLogger, vLogger *netlogger.Logger
	if cfg.Instrument {
		beLogger = netlogger.New("backend-host", "backend")
		vLogger = netlogger.New("viewer-host", "viewer")
	}

	// The back end is created after the viewer so the axis-hint hook can
	// reference it; captured through this pointer.
	var be *backend.BackEnd

	vcfg := viewer.Config{
		PEs:       cfg.PEs,
		Timesteps: cfg.Timesteps,
		Logger:    vLogger,
	}
	if cfg.FollowView && cfg.Transport == TransportLocal {
		vcfg.AxisHint = func(frame int, axis volume.Axis) {
			if be != nil {
				be.SetAxis(axis)
			}
		}
	}
	vw, err := viewer.New(vcfg)
	if err != nil {
		return nil, err
	}
	vw.SetViewAngle(cfg.ViewAngle)

	// Hints that come back over the link steer the back end once it exists.
	var hintTarget atomic.Pointer[backend.BackEnd]
	var onHint func(*wire.AxisHint)
	if cfg.FollowView {
		onHint = func(h *wire.AxisHint) {
			if b := hintTarget.Load(); b != nil {
				b.SetAxis(h.Axis)
			}
		}
	}
	tr, err := buildTransport(ctx, cfg, vw, onHint)
	if err != nil {
		return nil, err
	}
	defer tr.closeAll()

	be, err = backend.New(backend.Config{
		PEs:           cfg.PEs,
		Timesteps:     cfg.Timesteps,
		Mode:          cfg.Mode,
		Axis:          cfg.Axis,
		Source:        cfg.Source,
		TF:            cfg.TF,
		Sinks:         tr.sinks,
		Logger:        beLogger,
		OnFrame:       cfg.OnFrame,
		OnSlab:        cfg.OnSlab,
		Cache:         cfg.Cache,
		CacheDataset:  cfg.CacheDataset,
		CacheTF:       cfg.CacheTF,
		RenderWorkers: cfg.RenderWorkers,
	})
	if err != nil {
		return nil, err
	}
	hintTarget.Store(be)

	if cfg.RenderLoop {
		vw.StartRenderLoop(0)
		defer vw.Stop()
	}

	start := time.Now()
	beStats, runErr := be.Run(ctx)
	// Announce the end of every stream, wait for the viewer's service
	// goroutines to drain, and only then tear the sockets down.
	finishErr := tr.finish(0)
	serveErr := tr.serveWait()
	closeErr := tr.closeAll()
	elapsed := time.Since(start)
	if runErr != nil {
		return nil, runErr
	}
	if serveErr != nil {
		return nil, serveErr
	}
	if finishErr != nil {
		return nil, finishErr
	}
	if closeErr != nil {
		return nil, closeErr
	}

	res := &SessionResult{
		Backend: beStats,
		Viewer:  vw.Stats(),
		Elapsed: elapsed,
	}
	if img, err := vw.CompositeView(); err == nil {
		res.FinalImage = img
	}
	if cfg.Instrument {
		collector := netlogger.NewCollector()
		collector.AddLogger(beLogger)
		collector.AddLogger(vLogger)
		res.Events = collector.Events()
	}
	return res, nil
}

// transport bundles the per-PE sinks with the functions that drive the
// teardown sequence: finish announces end-of-stream and waits up to grace for
// the viewer to close its side, serveWait joins the viewer-side service
// goroutines, closeAll tears the sockets down.
type transport struct {
	sinks     []backend.FrameSink
	finish    func(grace time.Duration) error
	serveWait func() error
	closeAll  func() error
}

// buildTransport wires the back end's sinks to the viewer according to the
// configured transport: an in-process sink, or one wire.Link whose viewer
// side vw serves. onHint receives the axis hints the viewer sends back over
// the link.
func buildTransport(ctx context.Context, cfg SessionConfig, vw *viewer.Viewer, onHint func(*wire.AxisHint)) (*transport, error) {
	switch cfg.Transport {
	case TransportLocal:
		noop := func() error { return nil }
		return &transport{
			sinks:     []backend.FrameSink{viewer.NewLocalSink(vw)},
			finish:    func(time.Duration) error { return nil },
			serveWait: noop,
			closeAll:  noop,
		}, nil

	case TransportTCP, TransportStriped:
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("core: listen: %w", err)
		}
		lanes := 0
		if cfg.Transport == TransportStriped {
			lanes = cfg.StripeLanes
		}
		var wrap func(net.Conn) net.Conn
		if cfg.ViewerShaper != nil {
			wrap = func(c net.Conn) net.Conn { return netsim.NewShapedConn(c, cfg.ViewerShaper) }
		}
		link, viewerConns, err := wire.ConnectLink(ctx, l, cfg.PEs, lanes, wrap, onHint)
		if err != nil {
			return nil, fmt.Errorf("core: connecting viewer: %w", err)
		}
		served := make(chan struct{})
		var serveErr error
		go func() {
			defer close(served)
			serveErr = vw.ServeConns(viewerConns...)
		}()
		return &transport{
			sinks:  backend.ConnSinks(link.Conns()),
			finish: link.Finish,
			serveWait: func() error {
				<-served
				return serveErr
			},
			closeAll: func() error {
				err := link.Close()
				// The viewer-side halves must be closed too: a striped
				// connection owns per-lane goroutines that only a Close
				// releases.
				for _, c := range viewerConns {
					c.Close()
				}
				return err
			},
		}, nil

	default:
		return nil, fmt.Errorf("core: unknown transport %d", cfg.Transport)
	}
}
