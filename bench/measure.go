package main

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"

	"visapult/pkg/visapult"
)

const (
	// setupRepeats is how many times a measuring run sets the workload up;
	// setup_s reports the median build plus the one warm-up that follows.
	setupRepeats = 3
	// warmups is the number of discarded repetitions before timing: the first
	// runs of any pipeline are 2-4x slower than steady state (cold heap,
	// empty pools, undialled stripes).
	warmups = 2
	// minReps is the least number of timed repetitions, however short the
	// measuring window.
	minReps = 3
)

// metricDef names one metric of the benchmark with its unit and direction.
type metricDef struct{ name, unit, better string }

// endToEndDefs are the metrics a user of the system sees. BENCHMARK.json
// fixes the bound of each.
var endToEndDefs = []metricDef{
	{"setup_s", "s", "lower"},
	{"run_s", "s", "lower"},
	{"first_frame_ms", "ms", "lower"},
	{"cpu_s", "s", "lower"},
	{"alloc_MB", "MB", "lower"},
}

// perLayerDefs are the single-layer metrics of the traced run. A workload
// reports 0 for the layers it does not drive.
var perLayerDefs = []metricDef{
	{"datagen.gen_s", "s", "lower"},
	{"dpss.read_MBps", "MB/s", "higher"},
	{"dpss.region_ms", "ms", "lower"},
	{"dpss.link_util", "ratio", "higher"},
	{"dpss.stripe_balance", "ratio", "higher"},
	{"dpss.failures", "count", "lower"},
	{"dpss.stage_MBps", "MB/s", "higher"},
	{"fabric.read_MBps", "MB/s", "higher"},
	{"fabric.failovers", "count", "lower"},
	{"backend.load_ms", "ms", "lower"},
	{"backend.render_ms", "ms", "lower"},
	{"backend.send_ms", "ms", "lower"},
	{"backend.frame_ms", "ms", "lower"},
	{"backend.modelled_s", "s", "lower"},
	{"backend.overlap_eff", "ratio", "higher"},
	{"backend.unaccounted_s", "s", "lower"},
	{"backend.reduction", "ratio", "higher"},
	{"render.macrocell_ms", "ms", "lower"},
	{"render.slab_ms", "ms", "lower"},
	{"render.Mvox_s", "Mvox/s", "higher"},
	{"render.skipped_share", "ratio", "higher"},
	{"render.early_term_share", "ratio", "higher"},
	{"wire.marshal_us", "us", "lower"},
	{"wire.unmarshal_us", "us", "lower"},
	{"wire.allocs_per_payload", "count", "lower"},
	{"wire.stripe_MBps", "MB/s", "higher"},
	{"wire.dispatch_slab_us", "us", "lower"},
	{"fanout.sent", "count", "higher"},
	{"fanout.dropped", "count", "lower"},
	{"fanout.queue_peak", "count", "lower"},
	{"viewer.deliver_us", "us", "lower"},
	{"viewer.composite_ms", "ms", "lower"},
	{"viewer.loop_frames", "count", "higher"},
	{"framecache.put_us", "us", "lower"},
	{"framecache.get_us", "us", "lower"},
	{"framecache.hit_ratio", "ratio", "higher"},
	{"manager.dispatch_ms", "ms", "lower"},
	{"manager.submit_us", "us", "lower"},
	{"netsim.shaper_error", "ratio", "lower"},
	{"process.peak_rss_MB", "MB", "lower"},
	{"process.gc_pause_ms", "ms", "lower"},
	{"process.goroutines_leaked", "count", "lower"},
	{"stage.startup_s", "s", "lower"},
	{"stage.load_s", "s", "lower"},
	{"stage.render_s", "s", "lower"},
	{"stage.send_s", "s", "lower"},
	{"stage.wait_s", "s", "lower"},
	{"stage.drain_s", "s", "lower"},
	{"stage.unaccounted_s", "s", "lower"},
	{"trace.overhead_share", "ratio", "lower"},
}

// workloadResult is everything one workload's process reports.
type workloadResult struct {
	Name         string             `json:"name"`
	Correct      bool               `json:"correct"`
	OpsAttempted int                `json:"ops_attempted"`
	OpsFailed    int                `json:"ops_failed"`
	Complaints   []string           `json:"complaints,omitempty"`
	PEs          int                `json:"pes"`
	Worker       string             `json:"worker,omitempty"`
	SourceMBps   float64            `json:"source_MBps"`
	EndToEnd     map[string]summary `json:"end_to_end"`
	// The rest is filled by traced runs only.
	PerLayer      map[string]summary `json:"per_layer,omitempty"`
	Stages        []stageRow         `json:"stages,omitempty"`
	TracedRunS    float64            `json:"traced_run_s,omitempty"`
	TraceOverhead float64            `json:"trace_overhead_share,omitempty"`
}

// repSample is one measured repetition.
type repSample struct {
	start, end                              time.Time
	runS, firstFrameMs, cpuS, allocMB, gcMs float64
	leaked, attempted, failed               int
	complaints                              []string
	runs                                    []*runOutcome
	hits, misses                            int64
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// settleGoroutines gives goroutines that were told to stop a moment to exit,
// then returns how many more are alive than before the repetition.
func settleGoroutines(before int) int {
	deadline := time.Now().Add(200 * time.Millisecond)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	return runtime.NumGoroutine() - before
}

// rep runs one repetition: the workload's submissions back to back, in a
// closed loop, between two readings of the process clocks and counters.
func (in *instance) rep(ctx context.Context, traced bool) repSample {
	if in.betweenReps != nil {
		in.betweenReps()
	}
	runtime.GC()
	goroutines := runtime.NumGoroutine()
	var cache0 visapult.FrameCacheStats
	if in.cacheStats != nil {
		cache0 = in.cacheStats()
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuSeconds()
	s := repSample{start: time.Now()}
	type submitted struct {
		out *runOutcome
		err error
	}
	runs := make([]submitted, 0, in.submissions)
	for range in.submissions {
		out, err := in.run(ctx, traced)
		runs = append(runs, submitted{out, err})
	}
	s.end = time.Now()
	cpu1 := cpuSeconds()
	runtime.ReadMemStats(&m1)
	// The output checks run after the clocks are read: hashing a final image
	// costs a quarter of what one replay-warm run does.
	var firsts []float64
	for _, r := range runs {
		s.attempted += in.opsPerRun()
		failed, complaint := in.check(r.out, r.err)
		s.failed += failed
		if complaint != "" {
			s.complaints = append(s.complaints, complaint)
		}
		if r.out == nil {
			continue
		}
		if r.out.res != nil {
			r.out.res.FinalImage = nil // checked; 4 MiB each must not pile up across repetitions
		}
		s.runs = append(s.runs, r.out)
		if at, ok := firstFrame(r.out.frames, in.pes); ok {
			firsts = append(firsts, ms(at.Sub(r.out.start)))
		}
	}
	s.runS = s.end.Sub(s.start).Seconds()
	s.firstFrameMs = median(firsts)
	s.cpuS = cpu1 - cpu0
	s.allocMB = float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6
	s.gcMs = float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6
	if in.cacheStats != nil {
		c := in.cacheStats()
		s.hits, s.misses = c.Hits-cache0.Hits, c.Misses-cache0.Misses
	}
	s.leaked = settleGoroutines(goroutines)
	return s
}

// runConfig is what one workload's process is asked to do.
type runConfig struct {
	seed    int64
	seconds float64
	trace   bool
	div     int
	outDir  string // where trace-<workload>.json goes
}

// timedReps repeats in.rep until the window has passed and at least minReps
// repetitions are in.
func timedReps(ctx context.Context, in *instance, window time.Duration, traced bool) []repSample {
	var reps []repSample
	deadline := time.Now().Add(window)
	for len(reps) < minReps || time.Now().Before(deadline) {
		reps = append(reps, in.rep(ctx, traced))
	}
	return reps
}

func column(reps []repSample, get func(repSample) float64) []float64 {
	out := make([]float64, len(reps))
	for i, r := range reps {
		out[i] = get(r)
	}
	return out
}

// measureWorkload sets a workload up, warms it, measures it for the
// configured window and reports. procStart is when the process started, so
// the first build includes everything before it.
func measureWorkload(ctx context.Context, w *workloadDef, cfg runConfig, procStart time.Time) (*workloadResult, error) {
	e := env{seed: cfg.seed, pes: defaultPEs(), div: cfg.div}
	builds := setupRepeats
	if cfg.trace {
		builds = 1 // traced runs do not report setup_s
	}
	var in *instance
	var buildS []float64
	for i := range builds {
		start := time.Now()
		if i == 0 {
			start = procStart
		} else {
			in.close()
			in = nil
			runtime.GC()
		}
		var err error
		if in, err = w.setup(ctx, e); err != nil {
			return nil, fmt.Errorf("%s: setup: %w", w.name, err)
		}
		buildS = append(buildS, time.Since(start).Seconds())
	}
	defer in.close()
	warmStart := time.Now()
	for range warmups {
		if s := in.rep(ctx, false); s.failed > 0 {
			return nil, fmt.Errorf("%s: warm-up failed %d of %d ops: %v", w.name, s.failed, s.attempted, s.complaints)
		}
	}
	setupS := median(buildS) + time.Since(warmStart).Seconds()

	window := time.Duration(cfg.seconds * float64(time.Second))
	if cfg.trace {
		window /= 2 // half the window untraced, half traced
	}
	reps := timedReps(ctx, in, window, false)

	res := &workloadResult{Name: w.name, PEs: in.pes, EndToEnd: map[string]summary{
		"setup_s":        {Unit: "s", N: len(buildS), Median: setupS, Q1: setupS, Q3: setupS},
		"run_s":          summarize("s", column(reps, func(r repSample) float64 { return r.runS })),
		"first_frame_ms": summarize("ms", column(reps, func(r repSample) float64 { return r.firstFrameMs })),
		"cpu_s":          summarize("s", column(reps, func(r repSample) float64 { return r.cpuS })),
		"alloc_MB":       summarize("MB", column(reps, func(r repSample) float64 { return r.allocMB })),
	}}
	res.SourceMBps = float64(in.sourceBytes) * float64(in.submissions) / 1e6 / res.EndToEnd["run_s"].Median

	all := reps
	if cfg.trace {
		rc := newRecorder()
		traced := timedReps(ctx, in, window, true)
		all = append(all, traced...)
		if err := tracedReport(ctx, rc, in, res, all, traced); err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		if err := rc.write(filepath.Join(cfg.outDir, "trace-"+w.name+".json")); err != nil {
			return nil, err
		}
	}
	for _, r := range all {
		res.OpsAttempted += r.attempted
		res.OpsFailed += r.failed
		for _, c := range r.complaints {
			if len(res.Complaints) < 5 {
				res.Complaints = append(res.Complaints, c)
			}
		}
		for _, out := range r.runs {
			if out.worker != "" {
				res.Worker = out.worker
			}
		}
	}
	res.Correct = res.OpsFailed == 0
	return res, nil
}

// tracedReport records the traced repetitions as spans, builds the stage
// table, derives the backend metrics from the frame records, and runs the
// workload's layer probes. all is every timed repetition, traced or not.
func tracedReport(ctx context.Context, rc *recorder, in *instance, res *workloadResult, all, traced []repSample) error {
	m := make(map[string]summary)
	for k, v := range in.setupMetrics {
		m[k] = v
	}
	ids := make([]int, len(traced))
	for i, r := range traced {
		ids[i] = i
		root := rc.add(0, i, "", "rep", -1, -1, r.start, r.end)
		for _, out := range r.runs {
			rc.recordRun(root, i, out, in.slabs, in.layers)
		}
	}
	res.Stages = stageTable(rc, ids)
	for _, row := range res.Stages {
		name := "stage." + row.Stage + "_s"
		m[name] = single("s", m[name].Median+row.SelfS)
	}
	tracedRun := summarize("s", column(traced, func(r repSample) float64 { return r.runS }))
	var mean float64
	for _, r := range traced {
		mean += r.runS / float64(len(traced))
	}
	res.TracedRunS = mean
	res.TraceOverhead = tracedRun.Median/res.EndToEnd["run_s"].Median - 1
	m["trace.overhead_share"] = single("ratio", res.TraceOverhead)

	backendMetrics(m, in, traced)
	m["process.peak_rss_MB"] = single("MB", peakRSSMB())
	m["process.gc_pause_ms"] = summarize("ms", column(all, func(r repSample) float64 { return r.gcMs }))
	leaked := 0
	var hits, lookups int64
	for _, r := range all {
		leaked = max(leaked, r.leaked)
		hits += r.hits
		lookups += r.hits + r.misses
	}
	m["process.goroutines_leaked"] = single("count", float64(leaked))
	if in.cacheStats != nil {
		ratio := 0.0
		if lookups > 0 {
			ratio = float64(hits) / float64(lookups)
		}
		m["framecache.hit_ratio"] = single("ratio", ratio)
	}
	if in.linkRate > 0 {
		m["dpss.link_util"] = summarize("ratio", column(all, func(r repSample) float64 {
			return float64(in.sourceBytes) / r.runS / in.linkRate
		}))
	}
	if in.probes != nil {
		if err := in.probes(ctx, rc, m); err != nil {
			return err
		}
	}
	res.PerLayer = m
	return nil
}

// backendMetrics derives the back end's figures of merit from the per-(PE,
// timestep) frame records of the traced runs.
func backendMetrics(m map[string]summary, in *instance, traced []repSample) {
	var loadMs, renderMs, sendMs, frameMs []float64
	var modelled, eff, unaccounted, reduction, dispatchMs, submitUs []float64
	var sent, dropped, queuePeak, loopFrames []float64
	for _, r := range traced {
		for _, out := range r.runs {
			// Per timestep: when the last PE reported it, and the model's
			// cost max over PEs of max(L, R+S).
			done := make(map[int]time.Time)
			cost := make(map[int]time.Duration)
			for _, f := range out.frames {
				loadMs = append(loadMs, ms(f.m.Load))
				renderMs = append(renderMs, ms(f.m.Render))
				sendMs = append(sendMs, ms(f.m.Send))
				if f.at.After(done[f.m.Frame]) {
					done[f.m.Frame] = f.at
				}
				cost[f.m.Frame] = max(cost[f.m.Frame], f.m.Load, f.m.Render+f.m.Send)
			}
			steps := make([]int, 0, len(done))
			for t := range done {
				steps = append(steps, t)
			}
			sort.Ints(steps)
			// The steady-state part: every timestep after the first, whose
			// cost first_frame_ms already carries.
			var model time.Duration
			for i, t := range steps {
				if i == 0 {
					continue
				}
				model += cost[t]
				frameMs = append(frameMs, ms(done[t].Sub(done[steps[i-1]])))
			}
			if len(steps) > 1 {
				first, last := done[steps[0]], done[steps[len(steps)-1]]
				modelled = append(modelled, model.Seconds())
				eff = append(eff, model.Seconds()/last.Sub(first).Seconds())
				unaccounted = append(unaccounted, out.end.Sub(out.start).Seconds()-first.Sub(out.start).Seconds()-model.Seconds())
			}
			if out.res != nil && out.res.Backend.BytesOut > 0 && out.res.Backend.BytesIn > 0 {
				reduction = append(reduction, float64(out.res.Backend.BytesIn)/float64(out.res.Backend.BytesOut))
			}
			if in.managed && len(out.frames) > 0 {
				f := out.frames[0]
				for _, g := range out.frames {
					if g.at.Before(f.at) {
						f = g
					}
				}
				dispatchMs = append(dispatchMs, ms(f.at.Sub(out.start)-f.m.Load-f.m.Render-f.m.Send))
				submitUs = append(submitUs, us(out.submitted.Sub(out.start)))
			}
			if out.res != nil && len(out.res.Viewers) > 0 {
				var s, d int
				loops := -1
				for _, v := range out.res.Viewers {
					s += v.Delivery.FramesSent
					d += v.Delivery.FramesDropped
					if loops < 0 || v.Stats.RenderedFrames < loops {
						loops = v.Stats.RenderedFrames
					}
				}
				sent, dropped = append(sent, float64(s)), append(dropped, float64(d))
				queuePeak = append(queuePeak, float64(out.queuePeak))
				loopFrames = append(loopFrames, float64(loops))
			}
		}
	}
	m["backend.load_ms"] = summarize("ms", loadMs)
	m["backend.render_ms"] = summarize("ms", renderMs)
	m["backend.send_ms"] = summarize("ms", sendMs)
	m["backend.frame_ms"] = summarize("ms", frameMs)
	m["backend.modelled_s"] = summarize("s", modelled)
	m["backend.overlap_eff"] = summarize("ratio", eff)
	m["backend.unaccounted_s"] = summarize("s", unaccounted)
	if len(reduction) > 0 {
		m["backend.reduction"] = summarize("ratio", reduction)
	}
	if in.managed {
		m["manager.dispatch_ms"] = summarize("ms", dispatchMs)
		m["manager.submit_us"] = summarize("us", submitUs)
	}
	if len(sent) > 0 {
		m["fanout.sent"] = summarize("count", sent)
		m["fanout.dropped"] = summarize("count", dropped)
		m["fanout.queue_peak"] = summarize("count", queuePeak)
		// The slowest viewer's render-loop frames during the stream: the
		// decoupled loop should turn at least once per timestep.
		m["viewer.loop_frames"] = summarize("count", loopFrames)
	}
}
