// Command visapult-backend runs the Visapult back end as a standalone
// process: it reads raw data either from a DPSS cache (see cmd/dpssd and
// cmd/dpssctl) or from a built-in synthetic generator, volume-renders it in
// parallel, and streams the per-slab textures to a visapult-viewer process
// over one TCP connection per processing element.
//
// With -serve-control it instead runs as a dispatch worker: it listens for
// runs placed on it by a visapultd scheduler (register the worker with
// POST /api/v1/workers) and streams per-frame metrics back over the control
// connection, so many backend processes form one scheduled pool. A bounded
// slab-texture cache (-frame-cache-mb) is shared across the worker's runs, so
// repeat dispatches of the same content replay rendered frames instead of
// raycasting again.
//
// With -viewers (plural) the run is multicast: every frame is rendered once
// and its per-slab textures are shipped to each listed viewer over that
// viewer's own connections and bounded send queue — the paper's ImmersaDesk +
// tiled display exhibit. A slow or dead viewer loses frames; it never stalls
// the render loop or the other viewers.
//
// Usage:
//
//	visapult-backend -viewer 127.0.0.1:9400 -pes 4 -steps 5 -mode overlapped
//	visapult-backend -viewers 127.0.0.1:9400,127.0.0.1:9401 -pes 4 -steps 5
//	visapult-backend -viewer 127.0.0.1:9400 -dpss 127.0.0.1:9300 -dataset combustion -dims 80x32x32 -steps 5
//	visapult-backend -viewer 127.0.0.1:9400 -dpss lbl=127.0.0.1:9300,anl=127.0.0.1:9310 -dataset combustion -dims 80x32x32 -steps 5
//	visapult-backend -serve-control 127.0.0.1:9700 -capacity 2
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"strings"
	"time"

	"visapult/pkg/visapult"
	"visapult/pkg/visapult/dpss"
)

func main() {
	viewerAddr := flag.String("viewer", "127.0.0.1:9400", "address of the visapult-viewer process")
	viewerAddrs := flag.String("viewers", "", "comma-separated viewer addresses; the run is multicast to all of them (overrides -viewer)")
	viewerQueue := flag.Int("viewer-queue", 0, "per-viewer send queue bound in frames for -viewers (0 = default)")
	pes := flag.Int("pes", 4, "number of processing elements")
	steps := flag.Int("steps", 5, "number of timesteps to process")
	mode := flag.String("mode", "overlapped", "serial or overlapped")
	scale := flag.Int("scale", 8, "synthetic grid divisor (ignored with -dpss)")
	dpssMaster := flag.String("dpss", "", "DPSS master address, or a whole federation as name=master,name=master (reads then fail over between clusters); empty uses the synthetic generator")
	replication := flag.Int("replication", 2, "replicas per dataset when -dpss names a federation")
	stripes := flag.Int("stripes", 0, "parallel striped connections per DPSS block server (0 = client default)")
	dataset := flag.String("dataset", "combustion", "DPSS dataset base name")
	dims := flag.String("dims", "80x32x32", "DPSS dataset dimensions, NXxNYxNZ")
	followView := flag.Bool("follow-view", false, "let the viewer's axis hints steer the slab decomposition")
	logOut := flag.String("netlog", "", "optional file for the back end's ULM event stream")
	serveControl := flag.String("serve-control", "", "worker mode: listen on this address for runs dispatched by visapultd")
	capacity := flag.Int("capacity", 2, "concurrent dispatched runs in -serve-control mode")
	frameCacheMB := flag.Int64("frame-cache-mb", 256, "slab-texture frame cache capacity in MiB for -serve-control mode (0 disables replay caching)")
	renderWorkers := flag.Int("render-workers", 0, "render-pool goroutines shared by the PEs (0 = GOMAXPROCS; dispatched specs with renderWorkers set win)")
	pprofAddr := flag.String("pprof-addr", "", "serve net/http/pprof on this address (empty disables profiling)")
	flag.Parse()

	startPprof(*pprofAddr)
	if *serveControl != "" {
		serveWorker(*serveControl, *capacity, *frameCacheMB, *renderWorkers)
		return
	}

	m := visapult.Serial
	if *mode == "overlapped" {
		m = visapult.Overlapped
	}

	var src visapult.Source
	switch {
	case strings.Contains(*dpssMaster, "="):
		// A federation: name=master pairs, read with replica-aware failover.
		var nx, ny, nz int
		if _, err := fmt.Sscanf(*dims, "%dx%dx%d", &nx, &ny, &nz); err != nil {
			fatal(fmt.Errorf("parsing -dims %q: %w", *dims, err))
		}
		cfg := visapult.FabricConfig{Replication: *replication, AttemptTimeout: 2 * time.Second, Stripes: *stripes}
		for _, part := range strings.Split(*dpssMaster, ",") {
			name, master, ok := strings.Cut(strings.TrimSpace(part), "=")
			if !ok || name == "" || master == "" {
				fatal(fmt.Errorf("parsing -dpss member %q: want name=master", part))
			}
			cfg.Clusters = append(cfg.Clusters, visapult.FabricCluster{Name: name, Master: master})
		}
		fb, err := visapult.NewFabric(cfg)
		if err != nil {
			fatal(err)
		}
		defer fb.Close()
		s, err := visapult.NewFabricSource(fb, *dataset, nx, ny, nz, *steps)
		if err != nil {
			fatal(err)
		}
		defer s.Close()
		src = s
	case *dpssMaster != "":
		var nx, ny, nz int
		if _, err := fmt.Sscanf(*dims, "%dx%dx%d", &nx, &ny, &nz); err != nil {
			fatal(fmt.Errorf("parsing -dims %q: %w", *dims, err))
		}
		var copts []dpss.ClientOption
		if *stripes > 0 {
			copts = append(copts, dpss.WithStripes(*stripes))
		}
		client := dpss.NewClient(*dpssMaster, copts...)
		defer client.Close()
		s, err := visapult.NewDPSSSource(client, *dataset, nx, ny, nz, *steps)
		if err != nil {
			fatal(err)
		}
		defer s.Close()
		src = s
	default:
		src = visapult.NewPaperCombustionSource(*scale, *steps)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	var addrs []string
	if *viewerAddrs != "" {
		for _, a := range strings.Split(*viewerAddrs, ",") {
			if a = strings.TrimSpace(a); a != "" {
				addrs = append(addrs, a)
			}
		}
	}
	target := *viewerAddr
	if len(addrs) > 0 {
		target = strings.Join(addrs, ", ")
	}
	fmt.Printf("visapult-backend: %d PEs, %d timesteps, %s mode -> %s\n", *pes, *steps, m, target)
	rep, err := visapult.RunBackend(ctx, visapult.BackendConfig{
		ViewerAddr:    *viewerAddr,
		ViewerAddrs:   addrs,
		ViewerQueue:   *viewerQueue,
		PEs:           *pes,
		Timesteps:     *steps,
		Mode:          m,
		Source:        src,
		FollowView:    *followView,
		Instrument:    true,
		RenderWorkers: *renderWorkers,
	})
	if err != nil {
		fatal(err)
	}

	fmt.Printf("visapult-backend: loaded %d bytes, sent %d bytes, mean load %v, mean render %v, elapsed %v\n",
		rep.Stats.BytesIn, rep.Stats.BytesOut, rep.Stats.MeanLoad().Round(time.Millisecond),
		rep.Stats.MeanRender().Round(time.Millisecond), rep.Stats.Elapsed.Round(time.Millisecond))
	for _, d := range rep.Viewers {
		fmt.Printf("visapult-backend: viewer %s: %d frames sent, %d dropped, %d bytes\n",
			d.ID, d.FramesSent, d.FramesDropped, d.BytesSent)
	}

	if *logOut != "" {
		if err := visapult.WriteULM(*logOut, rep.Events); err != nil {
			fatal(err)
		}
		fmt.Printf("visapult-backend: wrote %d events to %s\n", len(rep.Events), *logOut)
	}
}

// serveWorker runs the process as a dispatch worker until interrupted.
func serveWorker(addr string, capacity int, frameCacheMB int64, renderWorkers int) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		fatal(err)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	fmt.Printf("visapult-backend: worker mode, control on %s, capacity %d (ctrl-c to stop)\n",
		ln.Addr(), capacity)
	err = visapult.ServeWorker(ctx, ln, visapult.WorkerConfig{
		Capacity:        capacity,
		FrameCacheBytes: frameCacheMB << 20,
		RenderWorkers:   renderWorkers,
		Logf: func(format string, args ...any) {
			fmt.Printf("visapult-backend: "+format+"\n", args...)
		},
	})
	if err != nil {
		fatal(err)
	}
	fmt.Println("visapult-backend: worker stopped")
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "visapult-backend: %v\n", err)
	os.Exit(1)
}
