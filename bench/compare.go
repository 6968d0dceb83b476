package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// verdict is the outcome of comparing one (metric, workload) pair.
type verdict string

const (
	within     verdict = "ok"
	regression verdict = "REGRESSION"
	// unresolved: the repetition-to-repetition spread of either side is wider
	// than the bound, so the pair can be called neither changed nor unchanged.
	unresolved verdict = "unresolved"
)

// judge compares one lower-is-better metric of two runs against its bound.
func judge(old, new summary, bound float64) (verdict, float64) {
	if old.Median == 0 {
		return unresolved, 0
	}
	change := new.Median/old.Median - 1
	switch {
	case max(old.spread(), new.spread()) > bound:
		return unresolved, change
	case change > bound:
		return regression, change
	}
	return within, change
}

func readResult(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf resultFile
	if err := json.Unmarshal(data, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rf, nil
}

// compareFiles applies the bounds of BENCHMARK.json to every (metric,
// workload) pair present in both files and returns the exit code: 1 on a
// regression, a higher failure share or a failed output check.
func compareFiles(bf *benchmarkFile, oldPath, newPath string) int {
	oldRF, err := readResult(oldPath)
	if err != nil {
		fatal(err)
	}
	newRF, err := readResult(newPath)
	if err != nil {
		fatal(err)
	}
	code := 0
	for _, nw := range newRF.Workloads {
		var ow *workloadResult
		for _, w := range oldRF.Workloads {
			if w.Name == nw.Name {
				ow = w
			}
		}
		if ow == nil {
			continue
		}
		fmt.Printf("%s\n", nw.Name)
		for _, e := range bf.EndToEnd {
			v, change := judge(ow.EndToEnd[e.Name], nw.EndToEnd[e.Name], e.Bound)
			fmt.Printf("  %-16s %12.4f -> %12.4f %-3s %+6.1f%%  bound %4.0f%%  %s\n", e.Name,
				ow.EndToEnd[e.Name].Median, nw.EndToEnd[e.Name].Median, nw.EndToEnd[e.Name].Unit, 100*change, 100*e.Bound, v)
			if v == regression {
				code = 1
			}
		}
		oldShare := float64(ow.OpsFailed) / float64(max(ow.OpsAttempted, 1))
		newShare := float64(nw.OpsFailed) / float64(max(nw.OpsAttempted, 1))
		fmt.Printf("  %-16s %12.6f -> %12.6f\n", "failure share", oldShare, newShare)
		if newShare > oldShare {
			fmt.Println("  failure share rose: REGRESSION")
			code = 1
		}
		if !nw.Correct {
			fmt.Println("  output check failed")
			code = 1
		}
	}
	return code
}
