package visapult

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"visapult/internal/backend"
	"visapult/internal/netlogger"
	"visapult/internal/viewer"
	"visapult/internal/wire"
)

// The split-process deployment of the paper's field tests: the back end runs
// near the data (RunBackend) and streams slab textures to a viewer on the
// desktop (ServeViewer) over one wire.Link per viewer — a TCP connection per
// PE, which also carries the viewer's axis hints back. The in-process
// equivalent is Pipeline with TransportTCP, which builds the same link.

// BackendConfig describes a standalone back-end process.
type BackendConfig struct {
	// ViewerAddr is the host:port of the viewer accepting PE connections.
	ViewerAddr string
	// ViewerAddrs, when non-empty, multicasts the run to several viewer
	// processes at once through the back end's fan-out stage (the paper's
	// ImmersaDesk + tiled display exhibit): every frame is rendered once and
	// its per-slab textures are shipped to each address over that viewer's
	// own connections and bounded send queue, so one slow or dead viewer
	// loses frames instead of stalling the render loop or the others.
	// ViewerAddr is ignored when ViewerAddrs is set.
	ViewerAddrs []string
	// ViewerQueue bounds each fan-out viewer's send queue in (PE, frame)
	// pairs; 0 selects the default (32). Only used with ViewerAddrs.
	ViewerQueue int
	// PEs is the number of processing elements (default 4).
	PEs int
	// Timesteps bounds the run; 0 means every timestep of the source.
	Timesteps int
	// Mode selects serial or overlapped loading.
	Mode Mode
	// Source supplies the raw data. Required.
	Source Source
	// FollowView applies the viewer's best-axis hints to the slab
	// decomposition (section 3.3). When false the hints are still drained
	// off the connections — required for a clean teardown — but ignored.
	FollowView bool
	// RenderWorkers sizes the back end's shared render pool; <= 0 selects
	// GOMAXPROCS. See backend.Config.RenderWorkers.
	RenderWorkers int
	// Instrument enables NetLogger instrumentation; the events are returned
	// in BackendReport.Events.
	Instrument bool
}

// BackendReport is what a standalone back-end run did.
type BackendReport struct {
	Stats  RunStats
	Events []Event
	// Viewers is the per-viewer delivery record of a multicast run (one
	// entry per ViewerAddrs address, in order); empty for single-viewer
	// runs.
	Viewers []ViewerDelivery
}

// linkGrace bounds a split-process teardown: the fan-out's queue flush, then
// the end-of-stream markers and the viewers' close. A viewer that needs
// longer is abandoned by closing its link.
const linkGrace = 5 * time.Second

// RunBackend dials one wire.Link (a connection per PE) to every viewer,
// executes the back end, and announces end-of-stream. A single ViewerAddr
// takes the link's connections as the back end's sinks, so it is lossless
// and back-pressured; each of several ViewerAddrs is attached to the fan-out
// stage with its own bounded queue instead. Cancelling ctx closes the links,
// which unblocks a PE stuck mid-write against a stalled viewer, and aborts
// the run at the next phase boundary.
func RunBackend(ctx context.Context, cfg BackendConfig) (*BackendReport, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if cfg.Source == nil {
		return nil, errors.New("visapult: BackendConfig.Source is required")
	}
	if cfg.PEs <= 0 {
		cfg.PEs = 4
	}
	addrs := cfg.ViewerAddrs
	if len(addrs) == 0 {
		if cfg.ViewerAddr == "" {
			return nil, errors.New("visapult: BackendConfig.ViewerAddr is required")
		}
		addrs = []string{cfg.ViewerAddr}
	}

	var fan *backend.Fanout
	if len(cfg.ViewerAddrs) > 0 {
		var err error
		if fan, err = backend.NewFanout(cfg.PEs, cfg.ViewerQueue); err != nil {
			return nil, err
		}
		// Deferred before the links close, so it runs after: a sender still
		// parked on its queue (a setup failure) or wedged on a stalled
		// viewer ends once its link is gone.
		defer fan.Close(linkGrace)
	}

	// The first viewer's axis hints steer the decomposition when FollowView
	// is set (section 3.3); every link drains its hints either way.
	var hintTarget atomic.Pointer[backend.BackEnd]
	links := make([]*wire.Link, 0, len(addrs))
	closeLinks := func() {
		for _, l := range links {
			l.Close()
		}
	}
	for i, addr := range addrs {
		var onHint func(*wire.AxisHint)
		if cfg.FollowView && i == 0 {
			onHint = func(h *wire.AxisHint) {
				if be := hintTarget.Load(); be != nil {
					be.SetAxis(h.Axis)
				}
			}
		}
		link, err := wire.DialLink(ctx, addr, cfg.PEs, 0, nil, onHint)
		if err != nil {
			closeLinks()
			return nil, fmt.Errorf("visapult: connecting to viewer %s: %w", addr, err)
		}
		links = append(links, link)
	}
	defer closeLinks()
	defer context.AfterFunc(ctx, closeLinks)()

	var sinks []backend.FrameSink
	if fan == nil {
		sinks = backend.ConnSinks(links[0].Conns())
	} else {
		for i, l := range links {
			if err := fan.Attach(fmt.Sprintf("viewer-%d:%s", i, addrs[i]), backend.ConnSinks(l.Conns())); err != nil {
				return nil, err
			}
		}
		sinks = fan.Sinks()
	}

	var logger *netlogger.Logger
	if cfg.Instrument {
		logger = netlogger.New(hostname("backend-host"), "backend")
	}
	be, err := backend.New(backend.Config{
		PEs: cfg.PEs, Timesteps: cfg.Timesteps, Mode: cfg.Mode,
		Source: cfg.Source, Sinks: sinks, Logger: logger,
		RenderWorkers: cfg.RenderWorkers,
	})
	if err != nil {
		return nil, err
	}
	hintTarget.Store(be)

	stats, err := be.Run(ctx)
	if fan != nil {
		fan.Close(linkGrace)
	}
	if err != nil {
		return nil, err
	}
	// End every viewer's streams together. A viewer that misses the grace
	// (stalled, or gone) loses nothing the run still owes it: its frames
	// were delivered or, past its queue, dropped and counted.
	var wg sync.WaitGroup
	for _, l := range links {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = l.Finish(linkGrace)
		}()
	}
	wg.Wait()

	rep := &BackendReport{Stats: stats}
	if fan != nil {
		rep.Viewers = fan.Viewers()
	}
	if logger != nil {
		col := netlogger.NewCollector()
		col.AddLogger(logger)
		rep.Events = col.Events()
	}
	return rep, nil
}

// ViewerConfig describes a standalone viewer process.
type ViewerConfig struct {
	// ListenAddr is the host:port to accept back-end connections on.
	ListenAddr string
	// PEs is the number of back-end connections to expect (default 4).
	PEs int
	// Width and Height size the rendered view (default 512x512).
	Width, Height int
	// ViewAngle is the camera rotation about Y in radians.
	ViewAngle float64
	// RenderLoop starts the decoupled render goroutine while serving.
	RenderLoop bool
	// Instrument enables NetLogger instrumentation.
	Instrument bool
	// OnListen, when non-nil, is called with the bound address before the
	// viewer starts accepting (useful with a ":0" listen address).
	OnListen func(addr net.Addr)
}

// ViewerReport is what a standalone viewer served.
type ViewerReport struct {
	Stats      ViewerStats
	Events     []Event
	FinalImage *Image
}

// ServeViewer accepts one TCP connection per expected PE (the viewer side of
// RunBackend's wire.Link), services them concurrently until every stream
// ends, and returns the assembled view. Cancelling ctx closes the listener
// and the connections, which unwinds the service goroutines.
func ServeViewer(ctx context.Context, cfg ViewerConfig) (*ViewerReport, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if cfg.PEs <= 0 {
		cfg.PEs = 4
	}
	if cfg.ListenAddr == "" {
		return nil, errors.New("visapult: ViewerConfig.ListenAddr is required")
	}

	var logger *netlogger.Logger
	if cfg.Instrument {
		logger = netlogger.New(hostname("viewer-host"), "viewer")
	}
	vw, err := viewer.New(viewer.Config{
		PEs: cfg.PEs, Logger: logger,
		ViewWidth: cfg.Width, ViewHeight: cfg.Height,
	})
	if err != nil {
		return nil, err
	}
	vw.SetViewAngle(cfg.ViewAngle)
	if cfg.RenderLoop {
		vw.StartRenderLoop(0)
		defer vw.Stop()
	}

	var lc net.ListenConfig
	l, err := lc.Listen(ctx, "tcp", cfg.ListenAddr)
	if err != nil {
		return nil, err
	}
	if cfg.OnListen != nil {
		cfg.OnListen(l.Addr())
	}
	conns, err := wire.AcceptConns(ctx, l, cfg.PEs, 0)
	if err != nil {
		return nil, err
	}
	// A cancelled context closes every PE connection, so service goroutines
	// blocked reading a stalled back end unwind.
	stop := context.AfterFunc(ctx, func() {
		for _, c := range conns {
			c.Close()
		}
	})
	serveErr := vw.ServeConns(conns...)
	stop()
	if ctxErr := ctx.Err(); ctxErr != nil {
		return nil, ctxErr
	}
	if serveErr != nil {
		return nil, serveErr
	}

	rep := &ViewerReport{Stats: vw.Stats()}
	if img, err := vw.CompositeView(); err == nil {
		rep.FinalImage = img
	}
	if logger != nil {
		col := netlogger.NewCollector()
		col.AddLogger(logger)
		rep.Events = col.Events()
	}
	return rep, nil
}

// hostname returns the OS hostname, falling back to def.
func hostname(def string) string {
	h, err := os.Hostname()
	if err != nil || h == "" {
		return def
	}
	return h
}

// WriteULM serializes events as a ULM log to a file, the format netlogd and
// nlv consume.
func WriteULM(path string, events []Event) error {
	if len(events) == 0 {
		return errors.New("visapult: no events to write")
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	c := netlogger.NewCollector()
	c.Add(events...)
	if err := c.WriteULM(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// WritePPM serializes an image as a PPM file.
func WritePPM(path string, img *Image) error {
	if img == nil {
		return errors.New("visapult: nil image")
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := img.WritePPM(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Deadline is a tiny helper: it returns a context cancelled after d, or the
// parent unchanged when d <= 0.
func Deadline(parent context.Context, d time.Duration) (context.Context, context.CancelFunc) {
	if parent == nil {
		parent = context.Background()
	}
	if d <= 0 {
		return context.WithCancel(parent)
	}
	return context.WithTimeout(parent, d)
}
