package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"visapult/internal/volume"
	"visapult/pkg/visapult"
)

// span is one traced interval at a layer boundary. All spans are recorded by
// the benchmark from outside the program: around its calls into a layer, or
// reconstructed from the per-frame durations the program reports.
type span struct {
	ID     int `json:"id"`
	Parent int `json:"parent"` // 0: no parent
	// Rep is the repetition the span belongs to; spans of one repetition
	// share it. Isolated layer-probe calls carry -1.
	Rep      int     `json:"rep"`
	Layer    string  `json:"layer"`
	Name     string  `json:"name"`
	PE       int     `json:"pe"`       // -1 when not per-PE
	Timestep int     `json:"timestep"` // -1 when not per-timestep
	Start    float64 `json:"start_s"`  // seconds since the recorder's epoch
	End      float64 `json:"end_s"`
}

// recorder keeps spans and counts in memory until the workload ends.
type recorder struct {
	epoch time.Time

	mu     sync.Mutex
	spans  []span           // guarded by mu
	counts map[string]int64 // guarded by mu
}

func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), counts: make(map[string]int64)}
}

func (rc *recorder) add(parent, rep int, layer, name string, pe, timestep int, start, end time.Time) int {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	id := len(rc.spans) + 1
	rc.spans = append(rc.spans, span{
		ID: id, Parent: parent, Rep: rep, Layer: layer, Name: name, PE: pe, Timestep: timestep,
		Start: start.Sub(rc.epoch).Seconds(), End: end.Sub(rc.epoch).Seconds(),
	})
	return id
}

func (rc *recorder) count(name string, n int64) {
	rc.mu.Lock()
	rc.counts[name] += n
	rc.mu.Unlock()
}

// probe times one isolated call into a layer and records it as a span.
func (rc *recorder) probe(layer, name string, fn func()) time.Duration {
	start := time.Now()
	fn()
	end := time.Now()
	rc.add(0, -1, layer, name, -1, -1, start, end)
	rc.count(layer+"."+name, 1)
	return end.Sub(start)
}

func (rc *recorder) repSpans(rep int) []span {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	var out []span
	for _, s := range rc.spans {
		if s.Rep == rep {
			out = append(out, s)
		}
	}
	return out
}

// write stores every span and count as JSON.
func (rc *recorder) write(path string) error {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(struct {
		Spans  []span           `json:"spans"`
		Counts map[string]int64 `json:"counts"`
	}{rc.spans, rc.counts})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// selfTimes attributes every instant of the root span's interval to spans of
// its tree and returns seconds per span ID; the values sum to the root's
// duration. A span's self time is its duration minus the part its children
// cover. Because PEs and the overlapped loader run concurrently, several
// spans can be in their self time at once; such an instant is shared equally
// among them, which is what keeps the total equal to wall-clock time. With
// no concurrency this is exactly "parent minus covered children".
//
// spans must form one tree (one span with Parent 0); children are clipped to
// the root's interval.
func selfTimes(spans []span) map[int]float64 {
	var root span
	for _, s := range spans {
		if s.Parent == 0 {
			root = s
		}
	}
	clipped := make([]span, 0, len(spans))
	cuts := []float64{root.Start, root.End}
	for _, s := range spans {
		s.Start, s.End = max(s.Start, root.Start), min(s.End, root.End)
		if s.End <= s.Start && s.ID != root.ID {
			continue
		}
		clipped = append(clipped, s)
		cuts = append(cuts, s.Start, s.End)
	}
	sort.Float64s(cuts)

	self := make(map[int]float64, len(clipped))
	hasActiveChild := make(map[int]bool)
	var active []span
	for i := 0; i+1 < len(cuts); i++ {
		a, b := cuts[i], cuts[i+1]
		if b <= a {
			continue
		}
		active = active[:0]
		clear(hasActiveChild)
		for _, s := range clipped {
			if s.Start <= a && s.End >= b {
				active = append(active, s)
				hasActiveChild[s.Parent] = true
			}
		}
		frontier := 0
		for _, s := range active {
			if !hasActiveChild[s.ID] {
				frontier++
			}
		}
		for _, s := range active {
			if !hasActiveChild[s.ID] {
				self[s.ID] += (b - a) / float64(frontier)
			}
		}
	}
	return self
}

// stageRow is one line of the stage table.
type stageRow struct {
	Layer string  `json:"layer"`
	Stage string  `json:"stage"`
	SelfS float64 `json:"self_s"`
}

// stageTable sums self times by (layer, stage) over the given repetitions and
// divides by their number, so the rows add up to the mean traced run_s. The
// root span's own self time is the "unaccounted" row.
func stageTable(rc *recorder, reps []int) []stageRow {
	type key struct{ layer, stage string }
	sums := make(map[key]float64)
	for _, rep := range reps {
		spans := rc.repSpans(rep)
		self := selfTimes(spans)
		for _, s := range spans {
			k := key{s.Layer, s.Name}
			if s.Parent == 0 {
				k = key{"", "unaccounted"}
			}
			sums[k] += self[s.ID]
		}
	}
	rows := make([]stageRow, 0, len(sums))
	for k, v := range sums {
		rows = append(rows, stageRow{k.layer, k.stage, v / float64(len(reps))})
	}
	sort.Slice(rows, func(i, j int) bool {
		if (rows[i].Stage == "unaccounted") != (rows[j].Stage == "unaccounted") {
			return rows[j].Stage == "unaccounted"
		}
		return rows[i].SelfS > rows[j].SelfS
	})
	return rows
}

// frameObs is one per-(PE, timestep) metric with the time the benchmark
// received it.
type frameObs struct {
	m  visapult.FrameMetric
	at time.Time
}

// observer collects the frame metrics of one submitted run. It is all the
// benchmark records when tracing is off.
type observer struct {
	mu     sync.Mutex
	frames []frameObs // guarded by mu
}

func (o *observer) hook(m visapult.FrameMetric) {
	now := time.Now()
	o.mu.Lock()
	o.frames = append(o.frames, frameObs{m, now})
	o.mu.Unlock()
}

func (o *observer) snapshot() []frameObs {
	o.mu.Lock()
	defer o.mu.Unlock()
	return append([]frameObs(nil), o.frames...)
}

// firstFrame returns when the last of pes PEs reported timestep 0.
func firstFrame(frames []frameObs, pes int) (time.Time, bool) {
	var last time.Time
	seen := 0
	for _, f := range frames {
		if f.m.Frame == 0 {
			seen++
			if f.at.After(last) {
				last = f.at
			}
		}
	}
	return last, seen >= pes
}

// loadObs is one observed Source.LoadRegion call.
type loadObs struct {
	timestep   int
	region     volume.Region
	start, end time.Time
}

// tracedSource wraps the source handed to WithSource and records the real
// start and end of every region load.
type tracedSource struct {
	visapult.Source
	mu    sync.Mutex
	loads []loadObs // guarded by mu
}

func (s *tracedSource) LoadRegion(ctx context.Context, t int, r volume.Region) (*volume.Volume, int64, error) {
	start := time.Now()
	v, n, err := s.Source.LoadRegion(ctx, t, r)
	end := time.Now()
	s.mu.Lock()
	s.loads = append(s.loads, loadObs{t, r, start, end})
	s.mu.Unlock()
	return v, n, err
}

func (s *tracedSource) snapshot() []loadObs {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]loadObs(nil), s.loads...)
}

// stageLayers names the package each pipeline stage of a workload runs in.
type stageLayers struct {
	load, send, drain string
}

// recordRun turns one submitted run's observations into spans under the
// repetition's root: a startup span up to the first stage, one span per
// timestep with load, render and send children per PE, and a drain span from
// the last frame metric to the run's return. Loads come from the traced
// source when the workload has one; otherwise (spec-built sources, possibly
// on a remote worker) they are placed before the render using the reported
// duration.
func (rc *recorder) recordRun(root, rep int, out *runOutcome, slabs []volume.Region, layers stageLayers) {
	start, end, frames, loads := out.start, out.end, out.frames, out.loads
	if len(frames) == 0 {
		return
	}
	type peStep struct{ pe, t int }
	realLoad := make(map[peStep]loadObs, len(loads))
	for _, l := range loads {
		for pe, r := range slabs {
			if r == l.region {
				realLoad[peStep{pe, l.timestep}] = l
			}
		}
	}
	type stages struct{ loadStart, loadEnd, renderStart, sendStart, sendEnd time.Time }
	byStep := make(map[int][]frameObs)
	stageOf := make(map[peStep]stages, len(frames))
	first, last := end, start
	for _, f := range frames {
		st := stages{sendEnd: f.at, sendStart: f.at.Add(-f.m.Send)}
		st.renderStart = st.sendStart.Add(-f.m.Render)
		st.loadStart, st.loadEnd = st.renderStart.Add(-f.m.Load), st.renderStart
		if l, ok := realLoad[peStep{f.m.PE, f.m.Frame}]; ok {
			st.loadStart, st.loadEnd = l.start, l.end
		}
		stageOf[peStep{f.m.PE, f.m.Frame}] = st
		byStep[f.m.Frame] = append(byStep[f.m.Frame], f)
		if st.loadStart.Before(first) {
			first = st.loadStart
		}
		if f.at.After(last) {
			last = f.at
		}
	}
	rc.add(root, rep, "pkg/visapult", "startup", -1, -1, start, first)
	rc.add(root, rep, layers.drain, "drain", -1, -1, last, end)
	for t, fs := range byStep {
		stepStart, stepEnd := end, start
		for _, f := range fs {
			st := stageOf[peStep{f.m.PE, t}]
			if st.loadStart.Before(stepStart) {
				stepStart = st.loadStart
			}
			if st.sendEnd.After(stepEnd) {
				stepEnd = st.sendEnd
			}
		}
		// A timestep's self time is the part of it no PE spends in a stage:
		// waiting at the frame barrier, for the loader, or for a CPU.
		step := rc.add(root, rep, "backend", "wait", -1, t, stepStart, stepEnd)
		for _, f := range fs {
			st := stageOf[peStep{f.m.PE, t}]
			if st.loadEnd.After(st.loadStart) {
				rc.add(step, rep, layers.load, "load", f.m.PE, t, st.loadStart, st.loadEnd)
			}
			if f.m.Render > 0 {
				rc.add(step, rep, "render", "render", f.m.PE, t, st.renderStart, st.sendStart)
			}
			rc.add(step, rep, layers.send, "send", f.m.PE, t, st.sendStart, st.sendEnd)
		}
	}
	rc.count("backend.frames", int64(len(frames)))
}
