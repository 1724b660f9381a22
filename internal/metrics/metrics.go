// Package metrics renders observability snapshots in Prometheus text
// exposition format: kernel stack counters, per-reason drop counters (kernel
// and per-device), per-stage latency quantiles, and ring buffer event
// accounting. It is a pure formatter over already-collected state — scraping
// it never touches the datapath beyond the same monotonic counter loads the
// stats snapshots use.
package metrics

import (
	"fmt"
	"io"

	"linuxfp/internal/core"
	"linuxfp/internal/drop"
	"linuxfp/internal/ebpf"
	"linuxfp/internal/flight"
	"linuxfp/internal/kernel"
)

// WriteKernel writes one kernel's full observability snapshot. The kernel
// label keeps multi-namespace setups (testbeds run three) distinguishable.
func WriteKernel(w io.Writer, k *kernel.Kernel) {
	st := k.Stats()
	name := k.Name

	fmt.Fprintf(w, "# HELP linuxfp_packets_total Stack-level packet outcomes.\n")
	fmt.Fprintf(w, "# TYPE linuxfp_packets_total counter\n")
	for _, c := range []struct {
		outcome string
		v       uint64
	}{
		{"forwarded", st.Forwarded},
		{"delivered", st.Delivered},
		{"dropped", st.Dropped},
	} {
		fmt.Fprintf(w, "linuxfp_packets_total{kernel=%q,outcome=%q} %d\n", name, c.outcome, c.v)
	}

	fmt.Fprintf(w, "# HELP linuxfp_steering_total RPS/RFS packet-steering outcomes.\n")
	fmt.Fprintf(w, "# TYPE linuxfp_steering_total counter\n")
	for _, c := range []struct {
		event string
		v     uint64
	}{
		{"rps_steered", st.RPSSteered},
		{"rps_backlog_drops", st.RPSBacklogDrops},
		{"rps_ipis", st.RPSIPIs},
		{"rfs_hits", st.RFSHits},
		{"rfs_migrations", st.RFSMigrations},
	} {
		fmt.Fprintf(w, "linuxfp_steering_total{kernel=%q,event=%q} %d\n", name, c.event, c.v)
	}

	fmt.Fprintf(w, "# HELP linuxfp_sockmap_total Socket-layer fast path outcomes.\n")
	fmt.Fprintf(w, "# TYPE linuxfp_sockmap_total counter\n")
	for _, c := range []struct {
		event string
		v     uint64
	}{
		{"hits", st.SockmapHits},
		{"misses", st.SockmapMisses},
		{"splices", st.SockmapSplices},
		{"l7_verdicts", st.L7Verdicts},
	} {
		fmt.Fprintf(w, "linuxfp_sockmap_total{kernel=%q,event=%q} %d\n", name, c.event, c.v)
	}

	fmt.Fprintf(w, "# HELP linuxfp_drop_reason_total Kernel-layer drops by skb drop reason.\n")
	fmt.Fprintf(w, "# TYPE linuxfp_drop_reason_total counter\n")
	byReason := k.DropReasons()
	// Every reason is exposed, zeros included: the audit test asserts each
	// enum member has a series, so a reason silently losing its drop site
	// (or its name) fails the scrape diff rather than vanishing.
	for _, r := range drop.Reasons() {
		fmt.Fprintf(w, "linuxfp_drop_reason_total{kernel=%q,reason=%q} %d\n", name, r, byReason[r])
	}

	fmt.Fprintf(w, "# HELP linuxfp_device_drop_reason_total Device-level drops by reason (rx/tx down, XDP verdicts, cpumap).\n")
	fmt.Fprintf(w, "# TYPE linuxfp_device_drop_reason_total counter\n")
	for _, dev := range k.Devices() {
		devReasons := dev.DropReasons()
		for _, r := range drop.Reasons() {
			if devReasons[r] == 0 {
				continue
			}
			fmt.Fprintf(w, "linuxfp_device_drop_reason_total{kernel=%q,device=%q,reason=%q} %d\n",
				name, dev.Name, r, devReasons[r])
		}
	}

	if sl := k.StageObs(); sl != nil {
		WriteStages(w, name, sl)
	}
	if fr := k.Flight(); fr != nil {
		WriteFlight(w, name, fr)
	}
	if ft := k.FlowTelemetry(); ft != nil {
		WriteFlows(w, name, ft, DefaultFlowSeries)
	}
}

// WriteFlight writes the flight recorder's trace ledger: stamps, spans, and
// per-terminal chain counts. Conservation is visible in the scrape itself:
// sampled == drop + tx + redirect + pass + lost once the datapath quiesces.
func WriteFlight(w io.Writer, name string, fr *flight.Recorder) {
	t := fr.Terminals()
	fmt.Fprintf(w, "# HELP linuxfp_trace_chains_total Flight-recorder chains by terminal verdict (trace-ID weighted).\n")
	fmt.Fprintf(w, "# TYPE linuxfp_trace_chains_total counter\n")
	for _, c := range []struct {
		terminal string
		v        uint64
	}{
		{"sampled", t.Sampled},
		{"drop", t.Drop},
		{"tx", t.Tx},
		{"redirect", t.Redirect},
		{"pass", t.Pass},
		{"lost", t.Lost},
	} {
		fmt.Fprintf(w, "linuxfp_trace_chains_total{kernel=%q,terminal=%q} %d\n", name, c.terminal, c.v)
	}
	fmt.Fprintf(w, "# HELP linuxfp_trace_spans_total Flight-recorder spans stamped.\n")
	fmt.Fprintf(w, "# TYPE linuxfp_trace_spans_total counter\n")
	fmt.Fprintf(w, "linuxfp_trace_spans_total{kernel=%q} %d\n", name, t.Spans)
	fmt.Fprintf(w, "# HELP linuxfp_trace_live_chains Chains still registered in the side table.\n")
	fmt.Fprintf(w, "# TYPE linuxfp_trace_live_chains gauge\n")
	fmt.Fprintf(w, "linuxfp_trace_live_chains{kernel=%q} %d\n", name, fr.Live())
}

// DefaultFlowSeries is how many top flows WriteFlows exposes as per-flow
// series (the table itself tracks far more; the scrape shows the heavy
// hitters, like `ss` piped through head).
const DefaultFlowSeries = 10

// WriteFlows writes the flow telemetry table: table-level gauges plus the
// top-n flows by packets as labeled per-flow series.
func WriteFlows(w io.Writer, name string, ft *flight.FlowTable, n int) {
	fmt.Fprintf(w, "# HELP linuxfp_flow_tracked Flows currently tracked by the top-k sketch.\n")
	fmt.Fprintf(w, "# TYPE linuxfp_flow_tracked gauge\n")
	fmt.Fprintf(w, "linuxfp_flow_tracked{kernel=%q} %d\n", name, ft.Tracked())
	fmt.Fprintf(w, "# HELP linuxfp_flow_evictions_total Space-saving replace-min evictions.\n")
	fmt.Fprintf(w, "# TYPE linuxfp_flow_evictions_total counter\n")
	fmt.Fprintf(w, "linuxfp_flow_evictions_total{kernel=%q} %d\n", name, ft.Evictions())
	fmt.Fprintf(w, "# HELP linuxfp_flow_capacity Flow-table capacity (entries across all shards).\n")
	fmt.Fprintf(w, "# TYPE linuxfp_flow_capacity gauge\n")
	fmt.Fprintf(w, "linuxfp_flow_capacity{kernel=%q} %d\n", name, ft.Capacity())

	top := ft.Top(n)
	fmt.Fprintf(w, "# HELP linuxfp_flow_packets_total Per-flow packets (top flows by packets).\n")
	fmt.Fprintf(w, "# TYPE linuxfp_flow_packets_total counter\n")
	for _, f := range top {
		fmt.Fprintf(w, "linuxfp_flow_packets_total{kernel=%q,flow=%q} %d\n", name, f.Key, f.Pkts)
	}
	fmt.Fprintf(w, "# HELP linuxfp_flow_bytes_total Per-flow bytes (top flows by packets).\n")
	fmt.Fprintf(w, "# TYPE linuxfp_flow_bytes_total counter\n")
	for _, f := range top {
		fmt.Fprintf(w, "linuxfp_flow_bytes_total{kernel=%q,flow=%q} %d\n", name, f.Key, f.Bytes)
	}
	fmt.Fprintf(w, "# HELP linuxfp_flow_drops_total Per-flow drops attributed at the kfree_skb choke points.\n")
	fmt.Fprintf(w, "# TYPE linuxfp_flow_drops_total counter\n")
	for _, f := range top {
		fmt.Fprintf(w, "linuxfp_flow_drops_total{kernel=%q,flow=%q} %d\n", name, f.Key, f.Drops)
	}
	fmt.Fprintf(w, "# HELP linuxfp_flow_fastpath_ratio Fraction of the flow's packets that took a fast path.\n")
	fmt.Fprintf(w, "# TYPE linuxfp_flow_fastpath_ratio gauge\n")
	for _, f := range top {
		fmt.Fprintf(w, "linuxfp_flow_fastpath_ratio{kernel=%q,flow=%q} %.4f\n", name, f.Key, f.FastPct()/100)
	}
}

// WriteStages writes the per-stage latency summaries in Prometheus summary
// style: one series per quantile plus count and mean.
func WriteStages(w io.Writer, name string, sl *kernel.StageLat) {
	report := sl.Report()
	fmt.Fprintf(w, "# HELP linuxfp_stage_latency_cycles Per-stage latency in modelcycles.\n")
	fmt.Fprintf(w, "# TYPE linuxfp_stage_latency_cycles summary\n")
	for _, s := range report {
		for _, q := range []struct {
			label string
			v     float64
		}{
			{"0.5", s.P50}, {"0.99", s.P99}, {"0.999", s.P999},
		} {
			fmt.Fprintf(w, "linuxfp_stage_latency_cycles{kernel=%q,stage=%q,quantile=%q} %.1f\n",
				name, s.Stage, q.label, q.v)
		}
		fmt.Fprintf(w, "linuxfp_stage_latency_cycles_count{kernel=%q,stage=%q} %d\n", name, s.Stage, s.Count)
	}
	// The mean is its own gauge family: summaries only own the _count and
	// _sum suffixes, and the exposition lint holds this file to that.
	fmt.Fprintf(w, "# HELP linuxfp_stage_latency_cycles_mean Per-stage mean latency in modelcycles.\n")
	fmt.Fprintf(w, "# TYPE linuxfp_stage_latency_cycles_mean gauge\n")
	for _, s := range report {
		fmt.Fprintf(w, "linuxfp_stage_latency_cycles_mean{kernel=%q,stage=%q} %.1f\n", name, s.Stage, s.MeanCy)
	}
}

// WriteXSKMap writes the AF_XDP state for every bound slot of an XSK map:
// the four ring occupancies as gauges plus frame and drop outcomes as
// counters. Occupancy reads are the same acquire-loads the rings' own
// producers and consumers use, so scraping is safe during traffic.
func WriteXSKMap(w io.Writer, m *ebpf.XSKMap) {
	fmt.Fprintf(w, "# HELP linuxfp_xsk_ring_occupancy AF_XDP ring occupancy in descriptors.\n")
	fmt.Fprintf(w, "# TYPE linuxfp_xsk_ring_occupancy gauge\n")
	type slotSock struct {
		slot int
		s    *ebpf.AFXDPSocket
	}
	var bound []slotSock
	for i := 0; i < m.Len(); i++ {
		if s := m.Lookup(i); s != nil {
			bound = append(bound, slotSock{i, s})
		}
	}
	for _, b := range bound {
		fill, rx, tx, comp := b.s.RingOccupancy()
		for _, r := range []struct {
			ring string
			v    int
		}{
			{"fill", fill}, {"rx", rx}, {"tx", tx}, {"completion", comp},
		} {
			fmt.Fprintf(w, "linuxfp_xsk_ring_occupancy{map=%q,slot=\"%d\",ring=%q} %d\n",
				m.Name(), b.slot, r.ring, r.v)
		}
	}

	fmt.Fprintf(w, "# HELP linuxfp_xsk_frames_total AF_XDP per-socket frame outcomes.\n")
	fmt.Fprintf(w, "# TYPE linuxfp_xsk_frames_total counter\n")
	for _, b := range bound {
		st := b.s.Stats()
		for _, c := range []struct {
			outcome string
			v       uint64
		}{
			{"rx_delivered", st.RxDelivered},
			{"tx_completed", st.TxCompleted},
			{"dropped_rx_full", st.RxFull},
			{"dropped_fill_empty", st.FillEmpty},
			{"wakeups", st.Wakeups},
		} {
			fmt.Fprintf(w, "linuxfp_xsk_frames_total{map=%q,slot=\"%d\",outcome=%q} %d\n",
				m.Name(), b.slot, c.outcome, c.v)
		}
	}
}

// WritePrograms writes per-program JIT body sizes and static costs for every
// loaded program, in both forms: form="generic" is the fused chain as
// synthesized, form="specialized" the config-folded body the loader built at
// Load time. The gap between the two series is the specialization win the
// datapath collects on every packet. Loader-level counters cover re-load
// churn: total Loads and the wall time the verify+specialize+fuse pipeline
// has consumed.
func WritePrograms(w io.Writer, l *ebpf.Loader) {
	progs := l.Programs()

	fmt.Fprintf(w, "# HELP linuxfp_prog_insns JIT body size in pseudo-instructions by form.\n")
	fmt.Fprintf(w, "# TYPE linuxfp_prog_insns gauge\n")
	for _, p := range progs {
		fmt.Fprintf(w, "linuxfp_prog_insns{prog=%q,form=\"generic\"} %d\n", p.Name, p.JITInsns())
		fmt.Fprintf(w, "linuxfp_prog_insns{prog=%q,form=\"specialized\"} %d\n", p.Name, p.SpecInsns())
	}

	fmt.Fprintf(w, "# HELP linuxfp_prog_cost_cycles Static (prefix-summed) JIT cost in modelcycles by form.\n")
	fmt.Fprintf(w, "# TYPE linuxfp_prog_cost_cycles gauge\n")
	for _, p := range progs {
		fmt.Fprintf(w, "linuxfp_prog_cost_cycles{prog=%q,form=\"generic\"} %.0f\n", p.Name, float64(p.JITCost()))
		fmt.Fprintf(w, "linuxfp_prog_cost_cycles{prog=%q,form=\"specialized\"} %.0f\n", p.Name, float64(p.SpecCost()))
	}

	loads, last, total := l.LoadStats()
	fmt.Fprintf(w, "# HELP linuxfp_prog_loads_total Programs loaded (verify+specialize+fuse runs).\n")
	fmt.Fprintf(w, "# TYPE linuxfp_prog_loads_total counter\n")
	fmt.Fprintf(w, "linuxfp_prog_loads_total %d\n", loads)
	fmt.Fprintf(w, "# HELP linuxfp_prog_load_wall_seconds Wall time spent in Loader.Load.\n")
	fmt.Fprintf(w, "# TYPE linuxfp_prog_load_wall_seconds gauge\n")
	fmt.Fprintf(w, "linuxfp_prog_load_wall_seconds{window=\"last\"} %.9f\n", last.Seconds())
	fmt.Fprintf(w, "linuxfp_prog_load_wall_seconds{window=\"total\"} %.9f\n", total.Seconds())
}

// WriteReconcile writes the controller's cumulative reconcile outcomes: how
// many reconciles ran and, per interface, how many programs were deployed,
// how many interfaces synthesis rejected and how many programs failed to
// load or attach. The last two are interfaces left on the slow path.
func WriteReconcile(w io.Writer, st core.ReconcileStats) {
	fmt.Fprintf(w, "# HELP linuxfp_reconciles_total Controller reconciles run.\n")
	fmt.Fprintf(w, "# TYPE linuxfp_reconciles_total counter\n")
	fmt.Fprintf(w, "linuxfp_reconciles_total %d\n", st.Reconciles)
	fmt.Fprintf(w, "# HELP linuxfp_reconcile_interfaces_total Per-interface reconcile outcomes.\n")
	fmt.Fprintf(w, "# TYPE linuxfp_reconcile_interfaces_total counter\n")
	fmt.Fprintf(w, "linuxfp_reconcile_interfaces_total{outcome=\"deployed\"} %d\n", st.IfDeployed)
	fmt.Fprintf(w, "linuxfp_reconcile_interfaces_total{outcome=\"synth_rejected\"} %d\n", st.SynthRejected)
	fmt.Fprintf(w, "linuxfp_reconcile_interfaces_total{outcome=\"load_failed\"} %d\n", st.LoadFailed)
}

// WriteRingBuf writes one ring buffer's event accounting. Event drops carry
// reason ringbuf_full but stay out of the packet-drop series by design —
// lost telemetry is not lost traffic.
func WriteRingBuf(w io.Writer, rb *ebpf.RingBuf) {
	fmt.Fprintf(w, "# HELP linuxfp_ringbuf_events_total Ring buffer event outcomes.\n")
	fmt.Fprintf(w, "# TYPE linuxfp_ringbuf_events_total counter\n")
	fmt.Fprintf(w, "linuxfp_ringbuf_events_total{ring=%q,outcome=\"produced\"} %d\n", rb.Name(), rb.Produced())
	fmt.Fprintf(w, "linuxfp_ringbuf_events_total{ring=%q,outcome=\"consumed\"} %d\n", rb.Name(), rb.Consumed())
	fmt.Fprintf(w, "linuxfp_ringbuf_events_total{ring=%q,outcome=\"dropped\",reason=%q} %d\n",
		rb.Name(), rb.DroppedReason(), rb.Dropped())
}
