// Package visapult is the public API of the Visapult reproduction: a remote
// and distributed visualization pipeline after Bethel, Tierney, Lee, Gunter
// and Lau, "Using High-Speed WANs and Network Data Caches to Enable Remote
// and Distributed Visualization" (SC 2000).
//
// The package is the one way to build and run pipelines. A pipeline couples
// a data source (in-memory volumes, a synthetic generator, or a live DPSS
// network cache — all behind the Source interface), the parallel back end
// (slab decomposition, software volume rendering), a transport to the viewer
// (in-process, one TCP connection per PE, or striped sockets), and the
// viewer's scene-graph compositor. Build one with functional options and run
// it under a context:
//
//	p, err := visapult.New(
//		visapult.WithSource(visapult.NewCombustionSource(visapult.CombustionSpec{
//			NX: 80, NY: 32, NZ: 32, Timesteps: 4,
//		})),
//		visapult.WithPEs(4),
//		visapult.WithMode(visapult.Overlapped),
//		visapult.WithTransport(visapult.TransportTCP),
//		visapult.WithInstrumentation(),
//	)
//	if err != nil { ... }
//	res, err := p.Run(ctx)
//
// Cancelling ctx aborts the run at the next phase boundary and tears the
// transport down; no back-end goroutines outlive Run.
//
// For serving many pipelines at once, Manager owns a set of named runs
// behind a bounded worker pool (create, start, cancel, status, live
// per-frame metrics); cmd/visapultd exposes a Manager over HTTP.
//
// The virtual-clock reproduction of the paper's field tests is available
// through Campaign and the campaign presets, and the full E1-E12/X1
// evaluation through Experiments and Extensions.
package visapult

import (
	"context"
	"time"

	"visapult/internal/core"
)

// Pipeline is one configured end-to-end Visapult run. Create it with New and
// execute it with Run; a Pipeline is reusable — each Run call is an
// independent session.
type Pipeline struct {
	cfg config
}

// New validates the options and builds a pipeline. A Source is required;
// everything else defaults to the paper's first-light shape: 4 PEs, serial
// mode, in-process transport, every timestep the source offers.
func New(opts ...Option) (*Pipeline, error) {
	cfg := defaultConfig()
	for _, opt := range opts {
		opt(&cfg)
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return &Pipeline{cfg: cfg}, nil
}

// Run executes the pipeline and blocks until every timestep has been loaded,
// rendered, transmitted and assembled — or until ctx is cancelled, which
// aborts the back end at the next phase boundary and returns ctx's error.
func (p *Pipeline) Run(ctx context.Context) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	// Work on a copy: resolving a fabric-fed source mutates the source slot,
	// and a Pipeline must stay reusable across Runs.
	cfg := p.cfg
	src, cleanup, err := cfg.resolveSource()
	if err != nil {
		return nil, err
	}
	defer cleanup()
	cfg.source = src
	sr, err := core.RunSession(ctx, cfg.sessionConfig())
	if err != nil {
		return nil, err
	}
	return &Result{
		Backend:    sr.Backend,
		Viewer:     sr.Viewer,
		Viewers:    sr.Viewers,
		Events:     sr.Events,
		Elapsed:    sr.Elapsed,
		FinalImage: sr.FinalImage,
	}, nil
}

// Result reports what a pipeline run did.
type Result struct {
	// Backend aggregates the back end's per-PE, per-frame phase timings and
	// traffic counters.
	Backend RunStats
	// Viewer is the viewer-side counter snapshot (zero-valued for
	// WithoutViewer runs; the primary viewer's for WithViewers runs).
	Viewer ViewerStats
	// Viewers reports every viewer of a WithViewers fan-out run, in attach
	// order: receive-side counters plus the sender-side delivery record
	// (frames sent and dropped, bytes, queue depth). Empty for classic
	// single-viewer runs.
	Viewers []ViewerResult
	// Events is the merged NetLogger stream (empty unless instrumentation
	// was enabled).
	Events []Event
	// Elapsed is the end-to-end wall-clock time of the run.
	Elapsed time.Duration
	// FinalImage is the viewer's last composited view, nil if the scene
	// stayed empty or the run had no viewer.
	FinalImage *Image
}

// TrafficRatio returns source-side bytes over viewer-side bytes — the
// pipeline reduction factor that makes remote visualization over a WAN
// practical (the paper's experiment E10).
func (r *Result) TrafficRatio() float64 {
	if r.Backend.BytesOut == 0 {
		return 0
	}
	return float64(r.Backend.BytesIn) / float64(r.Backend.BytesOut)
}
