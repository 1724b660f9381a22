package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
)

// benchmarkFile is the part of BENCHMARK.json the comparer needs.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// simTolerance is "equal" for a sim-clock metric: float summation aside, it
// is a pure function of seed and code.
const simTolerance = 1e-9

// compareRuns prints one row per (end-to-end metric, workload) for the runs
// recorded in files a and b and reports whether any row is worse. A row is
// "within" when b's median is no worse than a's by more than the bound,
// "worse" when it is, and "unresolved" when the run-to-run spread of either
// side (interquartile range over median) is wider than the bound — unless
// every run of b reads better than every run of a. Sim-clock metrics and the
// failed-op count must be equal.
func compareRuns(out io.Writer, benchmarkPath, a, b string) (worse bool, err error) {
	raw, err := os.ReadFile(benchmarkPath)
	if err != nil {
		return false, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return false, fmt.Errorf("%s: %w", benchmarkPath, err)
	}
	ra, err := readRuns(a)
	if err != nil {
		return false, err
	}
	rb, err := readRuns(b)
	if err != nil {
		return false, err
	}
	clocks := map[string]string{}
	for _, d := range endToEnd {
		clocks[d.name] = d.clock
	}
	fmt.Fprintf(out, "%-16s %-22s %14s %14s %9s %8s  %s\n", "workload", "metric", "a median", "b median", "change", "bound", "verdict")
	for _, w := range workloads {
		for _, m := range bf.EndToEnd {
			va, vb := ra[w.name][m.Name], rb[w.name][m.Name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ma, mb := median(va), median(vb)
			change := (mb - ma) / ma
			if m.Better == "higher" {
				change = -change
			}
			verdict := "within"
			switch {
			case clocks[m.Name] == clockSim:
				if math.Abs(change) > simTolerance {
					verdict = "worse (sim metrics must be equal)"
				}
			case spread(va) > m.Bound || spread(vb) > m.Bound:
				verdict = "unresolved"
				if m.Better == "lower" && quantile(vb, 1) < quantile(va, 0) ||
					m.Better == "higher" && quantile(vb, 0) > quantile(va, 1) {
					verdict = "within (every b run beats every a run)"
				}
			case change > m.Bound:
				verdict = "worse"
			}
			worse = worse || strings.HasPrefix(verdict, "worse")
			fmt.Fprintf(out, "%-16s %-22s %14.6g %14.6g %+8.2f%% %7.1f%%  %s (n=%d,%d)\n",
				w.name, m.Name, ma, mb, 100*change, 100*m.Bound, verdict, len(va), len(vb))
		}
		fa, fb := ra[w.name]["ops_failed"], rb[w.name]["ops_failed"]
		if len(fa) > 0 && len(fb) > 0 {
			verdict := "within"
			if quantile(fb, 1) > quantile(fa, 1) {
				verdict, worse = "worse (any increase)", true
			}
			fmt.Fprintf(out, "%-16s %-22s %14.0f %14.0f %9s %8s  %s\n", w.name, "ops_failed", quantile(fa, 1), quantile(fb, 1), "", "", verdict)
		}
	}
	return worse, nil
}

// spread is the interquartile range as a share of the median.
func spread(v []float64) float64 {
	return (quantile(v, 0.75) - quantile(v, 0.25)) / median(v)
}

// readRuns collects, per workload and metric, the values of every untraced
// run in a runs.jsonl file.
func readRuns(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]map[string][]float64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var r runRecord
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if r.Traced {
			continue
		}
		if out[r.Workload] == nil {
			out[r.Workload] = map[string][]float64{}
		}
		for name, v := range r.Metrics {
			out[r.Workload][name] = append(out[r.Workload][name], v.Value)
		}
		out[r.Workload]["ops_failed"] = append(out[r.Workload]["ops_failed"], float64(r.Failed))
	}
	return out, sc.Err()
}
