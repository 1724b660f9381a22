package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// smoke is a run just long enough for one round of every loop.
var smoke = runConfig{seed: 7, seconds: 0.05}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestSmoke runs all five workloads end to end and traced (twice, same seed)
// and checks what later PRs rely on: the oracle passes, every metric is
// reported under a well-formed name, and whatever the sim clock or a counter
// measures repeats bit for bit.
func TestSmoke(t *testing.T) {
	cfg := smoke
	cfg.outDir = t.TempDir()
	seen := map[string]bool{}
	for _, spec := range workloads {
		spec := spec
		t.Run(spec.name, func(t *testing.T) {
			e2e, err := runEndToEnd(spec, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !e2e.Correct {
				t.Fatalf("end-to-end run incorrect: %v", e2e.problems)
			}
			for _, d := range endToEnd {
				if v, ok := e2e.Metrics[d.name]; !ok || !(v.Value > 0) {
					t.Errorf("%s = %v, want present and > 0", d.name, v.Value)
				}
			}
			again, err := runEndToEnd(spec, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if x, y := e2e.Metrics["model_cycles_per_op"], again.Metrics["model_cycles_per_op"]; x != y {
				t.Errorf("model_cycles_per_op: %v then %v for the same seed", x.Value, y.Value)
			}

			a, err := runTraced(spec, cfg)
			if err != nil {
				t.Fatal(err)
			}
			b, err := runTraced(spec, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !a.Correct || !b.Correct {
				t.Fatalf("traced run incorrect: %v %v", a.problems, b.problems)
			}
			for _, d := range perLayer {
				va, ok := a.Metrics[d.name]
				if !ok {
					continue
				}
				seen[d.name] = true
				if !metricName.MatchString(d.name) {
					t.Errorf("metric name %q is malformed", d.name)
				}
				// Table VI's virtual latency depends on which goroutine wins
				// the Sync race (ROADMAP item 1), so it does not repeat yet.
				if d.clock == clockHost || d.name == "core.model_reaction_ms" {
					continue
				}
				if vb := b.Metrics[d.name]; va != vb {
					t.Errorf("%s (%s clock): %v then %v for the same seed", d.name, d.clock, va.Value, vb.Value)
				}
			}
			if _, err := os.Stat(filepath.Join(cfg.outDir, "trace-"+spec.name+".json")); err != nil {
				t.Errorf("trace file: %v", err)
			}

			// What each workload was chosen to stress.
			share := a.Metrics["netdev.fastpath_share"].Value
			switch spec.name {
			case "router64", "churn":
				if share != 1 || a.Metrics["netdev.xdp_pass_share"].Value != 0 {
					t.Errorf("fastpath_share = %v, want 1", share)
				}
			case "gateway_punt64":
				if share < 0.89 || share > 0.91 {
					t.Errorf("fastpath_share = %v, want ≈ 0.9", share)
				}
			case "bulk_gro1448":
				if share != 0 || a.Metrics["kernel.gro_coalesce_ratio"].Value < 0.9 {
					t.Errorf("fastpath_share = %v, gro_coalesce_ratio = %v", share, a.Metrics["kernel.gro_coalesce_ratio"].Value)
				}
			}
			if gen, wall := a.Metrics["harness.gen_ns_per_op"].Value, e2e.Metrics["wall_ns_per_op"].Value; gen > 0.15*wall {
				t.Errorf("generator takes %v of %v ns per op, want < 15 %%", gen, wall)
			}
		})
	}
	for _, d := range perLayer {
		// The p95 needs 200 segments; a smoke run has a handful.
		if !seen[d.name] && d.name != "harness.seg_p95_ns_per_op" {
			t.Errorf("per-layer metric %s was reported by no workload", d.name)
		}
	}
}

// TestSeedChangesInputs: another seed yields other frames, and the oracle
// still passes on them.
func TestSeedChangesInputs(t *testing.T) {
	spec, _ := findWorkload("gateway_punt64")
	a, err := setUp(spec, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	defer a.close()
	b, err := setUp(spec, 2, true)
	if err != nil {
		t.Fatal(err)
	}
	defer b.close()
	if bytes.Equal(a.(*routerLoad).class, b.(*routerLoad).class) {
		t.Error("seeds 1 and 2 order the traffic classes identically")
	}
	res := &result{Metrics: map[string]value{}}
	if err := checkOracle(spec, 2, b, res); err != nil || res.Failed != 0 {
		t.Errorf("oracle on seed 2: err=%v problems=%v", err, res.problems)
	}
}

// TestBenchmarkFileMatchesCode keeps BENCHMARK.json and the metric tables in
// step: same names, same units, same order, every workload declared.
func TestBenchmarkFileMatchesCode(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark:", err)
	}
	var bf struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Errorf("workloads: file has %v, code has %v", names, want)
	}
	check := func(kind string, file []struct{ Name, Unit string }, code []metricDef) {
		if len(file) != len(code) {
			t.Errorf("%s: file lists %d metrics, code %d", kind, len(file), len(code))
			return
		}
		for i, d := range code {
			if file[i].Name != d.name || file[i].Unit != d.unit {
				t.Errorf("%s[%d]: file has %s (%s), code has %s (%s)", kind, i, file[i].Name, file[i].Unit, d.name, d.unit)
			}
		}
	}
	check("end_to_end", bf.EndToEnd, endToEnd)
	check("per_layer", bf.PerLayer, perLayer)
}

// TestCompare: a run compared with itself is within every bound; the same
// run with one host metric 30 % worse, or one sim metric off at all, is not.
func TestCompare(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, wall, cycles float64) string {
		res := result{Correct: true, Attempted: 1, Metrics: map[string]value{
			"wall_ns_per_op": {wall, "ns"}, "model_cycles_per_op": {cycles, "cycles"},
		}}
		raw, err := json.Marshal(runRecord{Workload: "router64", Seed: 1, Seconds: 10, result: res})
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	bench := filepath.Join(dir, "BENCHMARK.json")
	spec := `{"end_to_end":[{"name":"wall_ns_per_op","better":"lower","bound":0.1},{"name":"model_cycles_per_op","better":"lower","bound":0.01}]}`
	if err := os.WriteFile(bench, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	base := write("a.jsonl", 300, 1000)
	for _, c := range []struct {
		name         string
		wall, cycles float64
		worse        bool
	}{
		{"same", 300, 1000, false},
		{"wall+5%", 315, 1000, false},
		{"wall+30%", 390, 1000, true},
		{"cycles+0.001%", 300, 1000.01, true},
	} {
		var out bytes.Buffer
		worse, err := compareRuns(&out, bench, base, write("b.jsonl", c.wall, c.cycles))
		if err != nil {
			t.Fatal(err)
		}
		if worse != c.worse {
			t.Errorf("%s: worse=%v, want %v\n%s", c.name, worse, c.worse, out.String())
		}
	}
}
