// Command bench is the repository's pipeline benchmark: six named workloads
// driven through the whole chain — DPSS/fabric read, decode, macrocell build,
// render, wire, fan-out, viewer composite, in-process and through a remote
// worker — using only the program's public entry points, so every layer is
// measured from outside by timing calls into it. See README.md.
//
// Run it from the repository root:
//
//	bash bench/run.sh                         # every workload, table on stdout
//	bash bench/run.sh -workload lan-dpss -trace
//	bash bench/run.sh -json a.json
//	bash bench/run.sh -compare a.json b.json
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// benchmarkFile is the part of BENCHMARK.json the command reads.
type benchmarkFile struct {
	RunSeconds int `json:"run_seconds"`
	EndToEnd   []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// resultFile is the machine-readable result of one invocation (-json).
type resultFile struct {
	Seed       int64             `json:"seed"`
	Seconds    float64           `json:"seconds"`
	Trace      bool              `json:"trace"`
	NProc      int               `json:"nproc"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	Workloads  []*workloadResult `json:"workloads"`
}

// findRoot returns the directory holding BENCHMARK.json: the working
// directory (bench/run.sh) or its parent (go run -C bench .).
func findRoot() (string, error) {
	for _, dir := range []string{".", ".."} {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
	}
	return "", errors.New("BENCHMARK.json not found in . or ..: run from the repository root")
}

func readBenchmarkFile(root string) (*benchmarkFile, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &bf, nil
}

// normalizeArgs lets -trace be written both bare and, as the driver writes
// it, followed by 0 or 1: Go's flag package would stop parsing at the value.
func normalizeArgs(args []string) []string {
	out := make([]string, 0, len(args))
	for i := 0; i < len(args); i++ {
		a := args[i]
		if (a == "-trace" || a == "--trace") && i+1 < len(args) && (args[i+1] == "0" || args[i+1] == "1") {
			out = append(out, "-trace="+args[i+1])
			i++
			continue
		}
		out = append(out, a)
	}
	return out
}

func main() {
	procStart := time.Now()
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	workloadFlag := fs.String("workload", "", "comma-separated workloads to run (default: all six)")
	seed := fs.Int64("seed", 1, "seed of the generated datasets")
	seconds := fs.Float64("seconds", 0, "measuring window per workload (default: run_seconds of BENCHMARK.json)")
	trace := fs.Bool("trace", false, "also run traced: stage table, per-layer metrics, bench/out/trace-<workload>.json")
	jsonOut := fs.String("json", "", "write the machine-readable result to this file")
	compare := fs.Bool("compare", false, "compare two result files: -compare old.json new.json")
	_ = fs.Parse(normalizeArgs(os.Args[1:])) // ExitOnError: Parse exits instead of returning an error

	root, err := findRoot()
	if err != nil {
		fatal(err)
	}
	bf, err := readBenchmarkFile(root)
	if err != nil {
		fatal(err)
	}
	if *compare {
		if fs.NArg() != 2 {
			fatal(errors.New("usage: -compare old.json new.json"))
		}
		os.Exit(compareFiles(bf, fs.Arg(0), fs.Arg(1)))
	}
	if *seconds <= 0 {
		*seconds = float64(bf.RunSeconds)
	}

	var selected []*workloadDef
	if *workloadFlag == "" {
		for i := range workloads {
			selected = append(selected, &workloads[i])
		}
	}
	for _, name := range strings.Split(*workloadFlag, ",") {
		if name = strings.TrimSpace(name); name == "" {
			continue
		}
		w := findWorkload(name)
		if w == nil {
			fatal(fmt.Errorf("unknown workload %q", name))
		}
		selected = append(selected, w)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	out := &resultFile{Seed: *seed, Seconds: *seconds, Trace: *trace, NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0)}
	cfg := runConfig{seed: *seed, seconds: *seconds, trace: *trace, div: 1, outDir: filepath.Join(root, "bench", "out")}
	fmt.Printf("nproc=%d GOMAXPROCS=%d PEs=%d seed=%d seconds=%g trace=%v\n",
		out.NProc, out.GOMAXPROCS, defaultPEs(), *seed, *seconds, *trace)
	for _, w := range selected {
		var res *workloadResult
		if len(selected) == 1 {
			// This process is already fresh: measure here.
			res, err = measureWorkload(ctx, w, cfg, procStart)
		} else {
			// One child per workload, so heap state, GC history and peak RSS
			// do not leak from one workload into the next.
			res, err = runChild(ctx, w.name, cfg)
		}
		if err != nil {
			fatal(err)
		}
		printWorkload(res)
		out.Workloads = append(out.Workloads, res)
	}
	if *jsonOut != "" {
		data, err := json.MarshalIndent(out, "", "  ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*jsonOut, data, 0o644); err != nil {
			fatal(err)
		}
	}
	if len(out.Workloads) == 1 {
		printContractLine(out.Workloads[0], *trace)
	}
	for _, r := range out.Workloads {
		if !r.Correct {
			os.Exit(1)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// runChild re-executes this binary for one workload and reads its result
// back from a file under bench/out.
func runChild(ctx context.Context, name string, cfg runConfig) (*workloadResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(cfg.outDir, "result-"+name+".json")
	cmd := exec.CommandContext(ctx, exe, "-workload", name, "-seed", fmt.Sprint(cfg.seed),
		"-seconds", fmt.Sprint(cfg.seconds), fmt.Sprintf("-trace=%v", cfg.trace), "-json", path)
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 { // 1: ran, but an output check failed
			return nil, fmt.Errorf("%s: %w", name, err)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf resultFile
	if err := json.Unmarshal(data, &rf); err != nil {
		return nil, err
	}
	if len(rf.Workloads) != 1 {
		return nil, fmt.Errorf("%s: child reported %d workloads", name, len(rf.Workloads))
	}
	return rf.Workloads[0], nil
}

func printSummary(name string, s summary) {
	fmt.Printf("  %-28s %12.4f %-7s n=%-4d q1=%.4f q3=%.4f", name, s.Median, s.Unit, s.N, s.Q1, s.Q3)
	if s.TailP > 0 {
		fmt.Printf(" p%g=%.4f", s.TailP, s.Tail)
	}
	fmt.Println()
}

// printWorkload prints one workload's metrics by name with units and sample
// counts; for a traced run, also the stage table and the per-layer metrics.
func printWorkload(r *workloadResult) {
	fmt.Printf("\n%s  (PEs=%d", r.Name, r.PEs)
	if r.Worker != "" {
		fmt.Printf(" worker=%s", r.Worker)
	}
	fmt.Printf(")\n")
	for _, d := range endToEndDefs {
		printSummary(d.name, r.EndToEnd[d.name])
	}
	fmt.Printf("  %-28s %12.2f MB/s\n", "source_MBps (not gated)", r.SourceMBps)
	fmt.Printf("  %-28s %12d\n  %-28s %12d\n", "ops_attempted", r.OpsAttempted, "ops_failed", r.OpsFailed)
	for _, c := range r.Complaints {
		fmt.Printf("  FAILED: %s\n", c)
	}
	if r.PerLayer == nil {
		return
	}
	fmt.Printf("  stage table (mean of traced repetitions; self times sum to traced run_s = %.4f s, tracing overhead %+.1f%%)\n",
		r.TracedRunS, 100*r.TraceOverhead)
	var sum float64
	for _, row := range r.Stages {
		sum += row.SelfS
		fmt.Printf("    %-16s %-12s %10.4f s %6.1f%%\n", row.Layer, row.Stage, row.SelfS, 100*row.SelfS/r.TracedRunS)
	}
	fmt.Printf("    %-16s %-12s %10.4f s\n", "", "total", sum)
	names := make([]string, 0, len(r.PerLayer))
	for name := range r.PerLayer {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if !strings.HasPrefix(name, "stage.") {
			printSummary(name, r.PerLayer[name])
		}
	}
}

// printContractLine prints the one-line JSON result the driver reads: every
// end-to-end metric of an untraced run, every per-layer metric of a traced
// one (0 for layers the workload does not drive).
func printContractLine(r *workloadResult, traced bool) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value)
	if traced {
		for _, d := range perLayerDefs {
			metrics[d.name] = value{r.PerLayer[d.name].Median, d.unit}
		}
	} else {
		for _, d := range endToEndDefs {
			metrics[d.name] = value{r.EndToEnd[d.name].Median, d.unit}
		}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, r.OpsAttempted, r.OpsFailed, metrics})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%s\n", line)
}
