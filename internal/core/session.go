// Package core orchestrates complete Visapult sessions and reproduces the
// paper's field-test campaigns.
//
// It offers two complementary execution paths:
//
//   - Session (session.go, assembly.go): a real, concurrent pipeline — data
//     source (in-memory, synthetic or DPSS), the parallel back end of
//     internal/backend, the wire protocol of internal/wire, and the viewer
//     of internal/viewer. RunSession (viewers in this process, or none) and
//     RunRemote (viewers in other processes) share one back-end assembly,
//     runBackEnd: it builds the viewer ends, ships to a single end directly
//     or to several through the fan-out stage, and tears everything down
//     under one grace budget. Over sockets every viewer is reached through
//     one wire.Link (a connection per PE, optionally striped and
//     bandwidth-shaped), the same link the test harness uses. Everything
//     actually runs; NetLogger events carry real wall-clock timestamps.
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
	// TransportNone ships every payload to a discarding sink: the run has no
	// viewer and measures only the load/render pipeline.
	TransportNone
)

// String implements fmt.Stringer.
func (t Transport) String() string {
	switch t {
	case TransportTCP:
		return "tcp"
	case TransportStriped:
		return "striped-tcp"
	case TransportNone:
		return "none"
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
	// single-viewer pipeline. For RunRemote it is 0 or the address count.
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
// The viewers are built in this process: one, or cfg.Viewers behind the
// fan-out stage; TransportNone builds none.
func RunSession(ctx context.Context, cfg SessionConfig) (*SessionResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	cfg, err := cfg.validate()
	if err != nil {
		return nil, err
	}
	if cfg.Transport == TransportNone {
		if cfg.Viewers > 0 {
			return nil, errors.New("core: a session without a viewer cannot fan out")
		}
		return runBackEnd(ctx, cfg, "backend-host", 1, discardEnd)
	}
	n := max(cfg.Viewers, 1)
	return runBackEnd(ctx, cfg, "backend-host", n, func(i int, direct bool, steer func(volume.Axis)) (*viewerEnd, error) {
		return newInProcessEnd(ctx, cfg, fmt.Sprintf("viewer-%d", i), direct, steer)
	})
}

// RunRemote executes the back end of a split-process run: it dials one
// wire.Link to each viewer process in addrs (ServeViewer on the far side)
// and ships to them as RunSession ships to in-process viewers. cfg.Viewers
// is 0 to ship to a single address directly, or len(addrs) to multicast to
// every address through the fan-out stage. The back end's NetLogger events
// carry this machine's host name.
func RunRemote(ctx context.Context, cfg SessionConfig, addrs []string) (*SessionResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	cfg, err := cfg.validate()
	if err != nil {
		return nil, err
	}
	switch {
	case cfg.Transport != TransportTCP && cfg.Transport != TransportStriped:
		return nil, fmt.Errorf("core: a remote viewer needs a socket transport, got %v", cfg.Transport)
	case len(addrs) == 0:
		return nil, errors.New("core: no viewer address")
	case cfg.Viewers == 0 && len(addrs) > 1, cfg.Viewers > 0 && cfg.Viewers != len(addrs):
		return nil, fmt.Errorf("core: %d viewer addresses for Viewers = %d", len(addrs), cfg.Viewers)
	}
	return runBackEnd(ctx, cfg, netlogger.Hostname("backend-host"), len(addrs), func(i int, _ bool, steer func(volume.Axis)) (*viewerEnd, error) {
		return dialEnd(ctx, cfg, fmt.Sprintf("viewer-%d:%s", i, addrs[i]), addrs[i], steer)
	})
}

// validate checks the settings every run needs and fills in defaults.
func (cfg SessionConfig) validate() (SessionConfig, error) {
	if cfg.Source == nil {
		return cfg, errors.New("core: SessionConfig.Source is required")
	}
	if cfg.PEs <= 0 {
		return cfg, fmt.Errorf("core: PEs must be positive, got %d", cfg.PEs)
	}
	if cfg.Transport < TransportLocal || cfg.Transport > TransportNone {
		return cfg, fmt.Errorf("core: unknown transport %d", cfg.Transport)
	}
	if cfg.StripeLanes <= 0 {
		cfg.StripeLanes = 2
	}
	return cfg, nil
}
