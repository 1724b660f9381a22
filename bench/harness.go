package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"time"
)

const (
	setups    = 9    // complete set-ups per run; setup_s is their median
	oracleOps = 8192 // ops replayed through the DUT and its twin before timing
	// heapRounds is the fixed op count after which live heap is sampled, so
	// that state which grows per op reads the same however fast the run goes.
	heapRounds = 4
	// maxSegs preallocates the per-segment samples: a slice that grew with
	// the run would itself show up in heap_live_mb.
	maxSegs = 1 << 14
	// Reconcile probe on the workloads that do not churn: batches × commands.
	probeBatches, probePerBatch = 64, 96
)

// value is one reported number.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one run of one workload reports. Its JSON form is the line
// the driver reads.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]value `json:"metrics"`

	problems []string // why Failed > 0 or a ledger is off, for people
}

func (r *result) set(name string, v float64) {
	unit, ok := metricUnits[name]
	if !ok {
		panic("bench: metric " + name + " has no unit in metricUnits")
	}
	r.Metrics[name] = value{v, unit}
}

func (r *result) fail(n int64, format string, args ...any) {
	r.Failed += n
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// runConfig is one invocation's parameters.
type runConfig struct {
	seed    int64
	seconds float64
	traced  bool
	outDir  string
}

// setUp builds the workload and warms it up: topology, configuration through
// Linux commands, first reconcile, frame pre-generation, one segment of
// traffic (neighbours, pools, conntrack).
func setUp(spec workloadSpec, seed int64, accelerated bool) (workload, error) {
	w, err := spec.build(seed, accelerated)
	if err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", spec.name, err)
	}
	// Gate before and after the warm-up segment: a reconcile still running on
	// the daemon goroutine can detach what the first check saw attached.
	for _, warm := range []bool{true, false} {
		if err := engage(w); err != nil {
			w.close()
			return nil, fmt.Errorf("%s: fast path not engaged: %w", spec.name, err)
		}
		if warm {
			w.runSeg(0)
		}
	}
	return w, nil
}

// timedSetUps sets the workload up `setups` times and keeps the last.
func timedSetUps(spec workloadSpec, seed int64) (workload, float64, error) {
	var w workload
	times := make([]float64, setups)
	for i := range times {
		if w != nil {
			w.close()
		}
		runtime.GC()
		start := time.Now()
		var err error
		if w, err = setUp(spec, seed, true); err != nil {
			return nil, 0, err
		}
		times[i] = time.Since(start).Seconds()
	}
	return w, median(times), nil
}

// checkOracle replays the first oracleOps ops through the DUT and through an
// un-accelerated twin and compares what each transmitted, 64 ops (one burst)
// at a time, as multisets of (device, bytes): the fast path flushes redirects
// ahead of the punts of the same poll, so order within a burst is not part of
// the claim.
func checkOracle(spec workloadSpec, seed int64, w workload, res *result) error {
	twin, err := setUp(spec, seed, false)
	if err != nil {
		return err
	}
	defer twin.close()
	w.capture(true)
	twin.capture(true)
	var mismatched int64
	for from := 0; from < oracleOps; from += burstSize {
		w.oracleOps(from, burstSize)
		twin.oracleOps(from, burstSize)
		mismatched += multisetDiff(w.capture(true), twin.capture(true))
	}
	w.capture(false)
	res.Attempted += oracleOps
	if mismatched > 0 {
		res.fail(mismatched, "oracle: %d egress frames differ between the DUT and its un-accelerated twin", mismatched)
	}
	return nil
}

// multisetDiff counts the frames present in one capture and not the other.
func multisetDiff(a, b []string) int64 {
	seen := make(map[string]int, len(a))
	for _, f := range a {
		seen[f]++
	}
	for _, f := range b {
		seen[f]--
	}
	var diff int64
	for _, n := range seen {
		if n < 0 {
			n = -n
		}
		diff += int64(n)
	}
	return diff
}

// loopStats is what driving rounds yields.
type loopStats struct {
	segNs      []float64 // host ns per op, one per segment
	cmdUs      []float64 // churn: reconcile µs per command, one figure per segment
	rounds     int
	ops        int64
	cycles     float64 // model cycles, all rounds
	firstRound float64 // model cycles per op over the first round
	drift      float64 // largest relative deviation of a later round from the first
	heapLive   uint64  // HeapAlloc after a forced GC once heapRounds had run
}

// drive runs whole rounds, at least minRounds and then until the deadline.
func drive(w workload, minRounds int, deadline time.Time, onSeg func(start time.Time, d time.Duration)) loopStats {
	segs, perSeg := w.shape()
	st := loopStats{segNs: make([]float64, 0, maxSegs)}
	for st.rounds < minRounds || time.Now().Before(deadline) {
		w.takeCycles()
		for seg := 0; seg < segs; seg++ {
			start := time.Now()
			d, reconcileUs := w.runSeg(seg)
			st.segNs = append(st.segNs, float64(d.Nanoseconds())/float64(perSeg))
			if reconcileUs > 0 {
				st.cmdUs = append(st.cmdUs, reconcileUs)
			}
			if onSeg != nil {
				onSeg(start, d)
			}
		}
		cy := float64(w.takeCycles())
		st.cycles += cy
		perOp := cy / float64(segs*perSeg)
		if st.rounds == 0 {
			st.firstRound = perOp
		} else if d := math.Abs(perOp-st.firstRound) / st.firstRound; d > st.drift {
			st.drift = d
		}
		st.rounds++
		if st.rounds == heapRounds {
			st.heapLive = liveHeap()
		}
	}
	if st.heapLive == 0 {
		st.heapLive = liveHeap()
	}
	st.ops = int64(st.rounds) * int64(segs) * int64(perSeg)
	return st
}

// liveHeap collects twice: sync.Pool contents survive one collection in the
// victim cache, and whether a pool happened to be full is not program state.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// checkOutcomes compares what the generator predicted for the segments run
// against the counter deltas, and audits the conservation ledgers.
func checkOutcomes(w workload, before counts, segsRun int64, res *result) {
	got := w.observed().sub(before)
	want := w.expectedPerSeg()
	keys := make([]string, 0, len(want))
	for k := range want {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if d := abs64(want[k]*segsRun - got[k]); d != 0 {
			res.fail(d, "outcome %s: expected %d, observed %d", k, want[k]*segsRun, got[k])
		}
	}
	for _, l := range w.ledgers() {
		res.fail(1, "ledger: %s", l)
	}
}

// checkConfig counts the config commands issued and the ones that failed.
func checkConfig(w workload, res *result) {
	cfg := w.config()
	res.Attempted += int64(cfg.cmds)
	if cfg.failed > 0 {
		res.fail(int64(cfg.failed), "config: %d commands failed or did not converge within %v", cfg.failed, convergeTimeout)
	}
}

// runEndToEnd measures the end-to-end metrics of one workload with all
// tracing off.
func runEndToEnd(spec workloadSpec, cfg runConfig) (*result, error) {
	res := &result{Metrics: map[string]value{}}
	w, setupS, err := timedSetUps(spec, cfg.seed)
	if err != nil {
		return nil, err
	}
	defer w.close()
	if err := checkOracle(spec, cfg.seed, w, res); err != nil {
		return nil, err
	}

	runtime.GC()
	before := w.observed()
	st := drive(w, 1, time.Now().Add(time.Duration(cfg.seconds*float64(time.Second))), nil)

	reconcile := st.cmdUs
	if reconcile == nil {
		if reconcile, err = w.config().probe(rand.New(rand.NewSource(cfg.seed)), probeBatches, probePerBatch); err != nil {
			return nil, fmt.Errorf("%s: reconcile probe: %w", spec.name, err)
		}
	}
	res.Attempted += st.ops
	checkOutcomes(w, before, int64(len(st.segNs)), res)
	checkConfig(w, res)

	res.set("setup_s", setupS)
	res.set("wall_ns_per_op", median(st.segNs))
	res.set("model_cycles_per_op", st.firstRound)
	res.set("heap_live_mb", float64(st.heapLive)/(1<<20))
	res.set("reconcile_wall_us", median(reconcile))
	res.Correct = res.Failed == 0
	return res, nil
}

// --- small statistics ------------------------------------------------------------

func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// quantile interpolates linearly between order statistics.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sorted(v)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(v []float64) float64 { return quantile(v, 0.5) }

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

func abs64(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}
