// Command bench is this repository's benchmark: five named workloads, each
// reported on two clocks (host time of the Go implementation, model cycles of
// the simulated machine), end to end and layer by layer. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
)

// One P: the DUT is a synchronous call on the driving goroutine, and the only
// other goroutines are controller daemons and the garbage collector. On a
// second P they would race the driver from a second, shared vCPU, and which
// side wins decides both how long a reconcile takes and where GC time lands;
// on one P they run when the driver yields, and GC work is part of host time.
func init() { runtime.GOMAXPROCS(1) }

func main() {
	var cfg runConfig
	name := flag.String("workload", "", "run one workload and end with its JSON result line (default: all five, as a table)")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the workload's inputs")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "how long the untraced run measures")
	trace := flag.Int("trace", 0, "1: traced run, reports the per-layer metrics and writes trace-<workload>.json")
	flag.StringVar(&cfg.outDir, "out", "bench/out", "directory for runs.jsonl and the trace files")
	compare := flag.Bool("compare", false, "compare two runs.jsonl files given as arguments against the bounds in BENCHMARK.json")
	flag.Parse()
	cfg.traced = *trace == 1

	if *compare {
		if flag.NArg() != 2 {
			fatal(2, "usage: bench -compare <a/runs.jsonl> <b/runs.jsonl>")
		}
		worse, err := compareRuns(os.Stdout, "BENCHMARK.json", flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(1, err)
		}
		if worse {
			os.Exit(1)
		}
		return
	}

	specs := workloads
	if *name != "" {
		spec, ok := findWorkload(*name)
		if !ok {
			fatal(2, "unknown workload", *name)
		}
		specs = []workloadSpec{spec}
	}
	ok := true
	for _, spec := range specs {
		run := runEndToEnd
		if cfg.traced {
			run = runTraced
		}
		res, err := run(spec, cfg)
		if err != nil {
			fatal(1, err)
		}
		for _, p := range res.problems {
			fmt.Fprintf(os.Stderr, "%s: %s\n", spec.name, p)
		}
		if err := appendRun(cfg, spec.name, res); err != nil {
			fmt.Fprintln(os.Stderr, "bench: result not recorded:", err)
		}
		if *name == "" {
			printTable(spec.name, cfg, res)
		} else {
			printLine(res, cfg.traced)
		}
		ok = ok && res.Correct
	}
	if !ok {
		os.Exit(1)
	}
}

func fatal(code int, args ...any) {
	fmt.Fprintln(os.Stderr, append([]any{"bench:"}, args...)...)
	os.Exit(code)
}

// printLine writes the driver's result line. It carries every metric of the
// mode; a per-layer metric that does not apply to the workload reads 0.
func printLine(res *result, traced bool) {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	out := *res
	out.Metrics = map[string]value{}
	for _, d := range defs {
		v, ok := res.Metrics[d.name]
		if !ok {
			v = value{0, d.unit}
		}
		out.Metrics[d.name] = v
	}
	raw, err := json.Marshal(out)
	if err != nil {
		fatal(1, err)
	}
	fmt.Println(string(raw))
}

// printTable prints every metric by name with its unit and clock.
func printTable(workload string, cfg runConfig, res *result) {
	verdict := "correct"
	if !res.Correct {
		verdict = "INCORRECT"
	}
	fmt.Printf("%s  seed=%d  ops_attempted=%d  ops_failed=%d  %s\n", workload, cfg.seed, res.Attempted, res.Failed, verdict)
	defs := endToEnd
	if cfg.traced {
		defs = perLayer
	}
	for _, d := range defs {
		if v, ok := res.Metrics[d.name]; ok {
			fmt.Printf("  %-36s %16.6g %-7s %s\n", d.name, v.Value, v.Unit, d.clock)
		}
	}
}

// runRecord is one line of runs.jsonl, what -compare reads.
type runRecord struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Traced   bool    `json:"traced"`
	result
}

func appendRun(cfg runConfig, workload string, res *result) error {
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return err
	}
	f, err := os.OpenFile(filepath.Join(cfg.outDir, "runs.jsonl"), os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	raw, err := json.Marshal(runRecord{workload, cfg.seed, cfg.seconds, cfg.traced, *res})
	if err == nil {
		_, err = f.Write(append(raw, '\n'))
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
