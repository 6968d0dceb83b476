package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"testing"
	"time"

	"visapult/internal/volume"
	"visapult/pkg/visapult"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// Quartiles must match Python's statistics.quantiles(values, n=4), which is
// what judges the benchmark's run-to-run spread.
func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	s := summarize("ms", []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if s.N != 10 || !near(s.Q1, 2.75) || !near(s.Median, 5.5) || !near(s.Q3, 8.25) {
		t.Fatalf("1..10: %+v, want q1 2.75 median 5.5 q3 8.25", s)
	}
	if got := s.spread(); !near(got, 1) {
		t.Fatalf("spread %v, want (8.25-2.75)/5.5 = 1", got)
	}
	s = summarize("s", []float64{3, 1, 2})
	if !near(s.Q1, 1) || !near(s.Median, 2) || !near(s.Q3, 3) {
		t.Fatalf("1..3: %+v", s)
	}
	s = summarize("s", []float64{2, 4, 4, 5, 9, 11, 12})
	if !near(s.Q1, 4) || !near(s.Median, 5) || !near(s.Q3, 11) {
		t.Fatalf("7 values: %+v", s)
	}
	if s := summarize("s", nil); s.N != 0 || s.Median != 0 {
		t.Fatalf("empty: %+v", s)
	}
}

// The reported tail is the highest percentile with ten samples beyond it.
func TestHighestSupportedPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{0, 0}, {39, 0}, {40, 75}, {99, 75}, {100, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99}, {10000, 99.9}} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("n=%d: p%g, want p%g", c.n, got, c.want)
		}
	}
	samples := make([]float64, 100)
	for i := range samples {
		samples[i] = float64(i + 1)
	}
	s := summarize("us", samples)
	if s.TailP != 90 || !near(s.Tail, 90.9) { // rank 0.9*101 = 90.9
		t.Fatalf("1..100: tail p%g = %v, want p90 = 90.9", s.TailP, s.Tail)
	}
}

func TestCompareVerdicts(t *testing.T) {
	tight := func(median float64) summary {
		return summary{N: 9, Median: median, Q1: median * 0.99, Q3: median * 1.01}
	}
	noisy := summary{N: 9, Median: 1, Q1: 0.8, Q3: 1.2}
	for _, c := range []struct {
		name     string
		old, new summary
		want     verdict
	}{
		{"within bound", tight(1), tight(1.04), within},
		{"improvement", tight(1), tight(0.5), within},
		{"beyond bound", tight(1), tight(1.2), regression},
		{"spread wider than bound", noisy, tight(1.5), unresolved},
		{"new side noisy", tight(1), noisy, unresolved},
	} {
		if got, _ := judge(c.old, c.new, 0.10); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

func sumSelf(self map[int]float64) float64 {
	var total float64
	for _, v := range self {
		total += v
	}
	return total
}

// With no concurrency a span's self time is its duration minus the part its
// children cover, overlap between the children counted once.
func TestSelfTimeIsParentMinusCoveredChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Start: 0, End: 10},
		{ID: 2, Parent: 1, Start: 1, End: 4},
		{ID: 3, Parent: 1, Start: 6, End: 9},
		{ID: 4, Parent: 2, Start: 2, End: 3},
	}
	self := selfTimes(spans)
	want := map[int]float64{1: 4, 2: 2, 3: 3, 4: 1}
	for id, w := range want {
		if !near(self[id], w) {
			t.Errorf("span %d: self %v, want %v", id, self[id], w)
		}
	}
	if !near(sumSelf(self), 10) {
		t.Errorf("self times sum to %v, want the root's 10", sumSelf(self))
	}
}

// Concurrent spans share the instants they overlap, children reaching past
// the root are clipped, and the total is still the root's wall-clock time.
func TestSelfTimeSharesConcurrentInstants(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Start: 0, End: 10},
		{ID: 2, Parent: 1, Start: 0, End: 6},  // PE 0
		{ID: 3, Parent: 1, Start: 4, End: 12}, // PE 1, runs past the root
	}
	self := selfTimes(spans)
	// [0,4) span 2 alone; [4,6) shared; [6,10) span 3 alone; root never alone.
	if !near(self[2], 5) || !near(self[3], 5) || !near(self[1], 0) {
		t.Fatalf("self = %v, want 2:5 3:5 1:0", self)
	}
	if !near(sumSelf(self), 10) {
		t.Fatalf("sum %v, want 10", sumSelf(self))
	}
}

func TestStageTableSumsToRunTime(t *testing.T) {
	rc := newRecorder()
	at := func(ms int) time.Time { return rc.epoch.Add(time.Duration(ms) * time.Millisecond) }
	out := &runOutcome{start: at(0), end: at(100)}
	for pe := range 2 {
		for step := range 3 {
			done := at(30 + 20*step + pe)
			out.frames = append(out.frames, frameObs{at: done, m: visapult.FrameMetric{
				Frame: step, PE: pe, Load: 8 * time.Millisecond, Render: 5 * time.Millisecond, Send: time.Millisecond,
			}})
		}
	}
	root := rc.add(0, 0, "", "rep", -1, -1, out.start, out.end)
	rc.recordRun(root, 0, out, nil, stageLayers{load: "dpss", send: "wire", drain: "pkg/visapult"})
	var total float64
	stages := map[string]bool{}
	for _, row := range stageTable(rc, []int{0}) {
		total += row.SelfS
		stages[row.Stage] = true
	}
	if !near(total, 0.1) {
		t.Fatalf("stage rows sum to %v s, want run_s 0.1", total)
	}
	for _, s := range []string{"startup", "load", "render", "send", "wait", "drain", "unaccounted"} {
		if !stages[s] {
			t.Errorf("stage table has no %q row", s)
		}
	}
}

func TestNormalizeArgsAcceptsDriverTraceForm(t *testing.T) {
	got := normalizeArgs([]string{"--workload", "lan-dpss", "--trace", "1", "--seed", "3", "-trace"})
	want := []string{"--workload", "lan-dpss", "-trace=1", "--seed", "3", "-trace"}
	if len(got) != len(want) {
		t.Fatalf("%v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%v, want %v", got, want)
		}
	}
}

// corruptSource overwrites every voxel of one timestep as it is loaded.
type corruptSource struct {
	visapult.Source
	step int
}

func (c corruptSource) LoadRegion(ctx context.Context, t int, r volume.Region) (*volume.Volume, int64, error) {
	v, n, err := c.Source.LoadRegion(ctx, t, r)
	if err == nil && t == c.step {
		for i := range v.Data {
			v.Data[i] = 1
		}
	}
	return v, n, err
}

// Every workload sets up at 1/64 of the voxels, passes its oracle check, and
// the check fires on a corrupted frame: for option-built workloads a source
// that corrupts the last timestep, for spec-built ones (whose source the
// benchmark cannot wrap) a tampered byte count.
func TestWorkloadSmokeAndOracleCheck(t *testing.T) {
	ctx := context.Background()
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			in, err := w.setup(ctx, env{seed: 7, pes: 2, div: 4})
			if err != nil {
				t.Fatal(err)
			}
			defer in.close()
			in.rep(ctx, false) // fills the stripe pools, whose goroutines then persist
			s := in.rep(ctx, true)
			if s.failed != 0 || s.attempted != in.submissions*in.opsPerRun() {
				t.Fatalf("clean repetition: %d of %d ops failed: %v", s.failed, s.attempted, s.complaints)
			}
			if s.leaked != 0 {
				t.Errorf("%d goroutines leaked", s.leaked)
			}
			if s.firstFrameMs <= 0 || s.runS <= 0 || s.allocMB <= 0 {
				t.Errorf("metrics not measured: %+v", s)
			}

			if in.specBuilt {
				out, err := in.run(ctx, false)
				if err != nil {
					t.Fatal(err)
				}
				out.res.Backend.BytesOut++
				if failed, complaint := in.check(out, nil); failed != 1 || complaint == "" {
					t.Fatalf("tampered result: failed=%d complaint=%q", failed, complaint)
				}
				return
			}
			in.wrapSource = func(src visapult.Source) visapult.Source { return corruptSource{src, in.timesteps - 1} }
			out, err := in.run(ctx, false)
			if failed, complaint := in.check(out, err); failed != 1 || complaint == "" {
				t.Fatalf("corrupted frame: failed=%d complaint=%q, want the oracle check to fire", failed, complaint)
			}
		})
	}
}

// BENCHMARK.json must name exactly the workloads and metrics the command
// reports, within the schema's limits.
func TestBenchmarkFileMatchesCommand(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	if bf.RunSeconds < 1 || bf.RunSeconds > 60 {
		t.Errorf("run_seconds %d", bf.RunSeconds)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("%d workloads, command has %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: %q differs from the command's %q", i, w.Name, workloads[i].name)
		}
		if !nameRE.MatchString(w.Name) || len(w.Why) > 200 || len(w.Why) == 0 {
			t.Errorf("workload %q: bad name or why (%d chars)", w.Name, len(w.Why))
		}
	}
	if len(bf.EndToEnd) != len(endToEndDefs) {
		t.Fatalf("%d end-to-end metrics, command has %d", len(bf.EndToEnd), len(endToEndDefs))
	}
	for i, m := range bf.EndToEnd {
		d := endToEndDefs[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("end-to-end %d: %+v, command has %+v", i, m, d)
		}
		if m.Bound <= 0 || m.Bound > 0.25 || !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: bound %v unit %q", m.Name, m.Bound, m.Unit)
		}
	}
	if len(bf.PerLayer) != len(perLayerDefs) {
		t.Fatalf("%d per-layer metrics, command has %d", len(bf.PerLayer), len(perLayerDefs))
	}
	for i, m := range bf.PerLayer {
		d := perLayerDefs[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per-layer %d: %+v, command has %+v", i, m, d)
		}
		if !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) {
			t.Errorf("per-layer %q: bad name or unit %q", m.Name, m.Unit)
		}
	}
}
