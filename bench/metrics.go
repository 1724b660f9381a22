package main

// Every number the benchmark reports names its clock. "host" numbers are wall
// time and memory of the Go implementation on this machine: noisy, compared
// with a relative bound. "sim" numbers are model cycles charged through
// sim.Meter (or the Table VI latency model): a pure function of seed and
// code, compared for equality. Counts are neither; they repeat exactly too.
const (
	clockHost  = "host"
	clockSim   = "sim"
	clockCount = "count"
)

type metricDef struct {
	name, unit, clock string
}

// endToEnd is what a user of the system would see, measured with all tracing
// off. BENCHMARK.json carries the same names with their regression bounds.
var endToEnd = []metricDef{
	{"setup_s", "s", clockHost},
	{"wall_ns_per_op", "ns", clockHost},
	{"model_cycles_per_op", "cycles", clockSim},
	{"heap_live_mb", "MiB", clockHost},
	{"reconcile_wall_us", "us", clockHost},
}

// perLayer comes from the traced run. Layers are this repository's packages;
// a metric that does not apply to a workload is absent from its row in the
// table and 0 on the driver's result line.
var perLayer = []metricDef{
	{"harness.seg_count", "count", clockHost},
	{"harness.seg_p95_ns_per_op", "ns", clockHost},
	{"harness.seg_iqr_pct", "%", clockHost},
	{"harness.gen_ns_per_op", "ns", clockHost},
	{"harness.alloc_bytes_per_op", "B", clockHost},
	{"harness.gc_cycles", "count", clockHost},
	{"harness.gc_pause_ms", "ms", clockHost},
	{"harness.trace_overhead_pct", "%", clockHost},
	{"harness.model_round_drift", "ratio", clockSim},
	{"harness.ops_failed_share", "ratio", clockCount},

	{"netdev.xdp_ns_per_pkt", "ns", clockHost},
	{"netdev.driver_ns_per_pkt", "ns", clockHost},
	{"netdev.fastpath_share", "ratio", clockCount},
	{"netdev.xdp_pass_share", "ratio", clockCount},
	{"netdev.tx_pkts", "count", clockCount},
	{"netdev.tx_dropped", "count", clockCount},
	{"netdev.xmit_model_cycles_per_pkt", "cycles", clockSim},

	{"ebpf.prog_ns_per_pkt", "ns", clockHost},
	{"ebpf.xdp_model_cycles_per_pkt", "cycles", clockSim},
	{"ebpf.tc_model_cycles_per_pkt", "cycles", clockSim},
	{"ebpf.load_us", "us", clockHost},
	{"ebpf.loads", "count", clockCount},
	{"ebpf.loaded_programs_end", "count", clockCount},

	{"fib.lookup_ns", "ns", clockHost},
	{"fib.model_cycles_per_pkt", "cycles", clockSim},
	{"fib.routes", "count", clockCount},
	{"fib.gen_bumps", "count", clockCount},

	{"neigh.resolved_ns", "ns", clockHost},
	{"neigh.model_cycles_per_pkt", "cycles", clockSim},

	{"netfilter.eval_ns", "ns", clockHost},
	{"netfilter.compiled_eval_ns", "ns", clockHost},
	{"netfilter.rules_walked_per_pkt", "count", clockCount},
	{"netfilter.model_cycles_per_pkt", "cycles", clockSim},
	{"netfilter.filter_dropped", "count", clockCount},
	{"netfilter.conntrack_entries", "count", clockCount},
	{"netfilter.compile_us", "us", clockHost},

	{"bridge.fdb_lookup_ns", "ns", clockHost},
	{"bridge.fdb_entries", "count", clockCount},

	{"kernel.slowpath_ns_per_pkt", "ns", clockHost},
	{"kernel.class_clean_ns", "ns", clockHost},
	{"kernel.class_blacklisted_ns", "ns", clockHost},
	{"kernel.class_punt_ns", "ns", clockHost},
	{"kernel.forwarded", "count", clockCount},
	{"kernel.delivered", "count", clockCount},
	{"kernel.dropped", "count", clockCount},
	{"kernel.ttl_expired", "count", clockCount},
	{"kernel.icmp_tx", "count", clockCount},
	{"kernel.frags_sent", "count", clockCount},
	{"kernel.sockets_delivered", "count", clockCount},
	{"kernel.gro_coalesce_ratio", "ratio", clockCount},
	{"kernel.gro_flushes_per_kpkt", "count", clockCount},
	{"kernel.gro_supersegs", "count", clockCount},
	{"kernel.gro_model_cycles_per_pkt", "cycles", clockSim},
	{"kernel.unattributed_model_share", "ratio", clockSim},

	// Σ drop.* equals the drops of every DUT-side kernel and device; the
	// reasons these workloads do not reach are summed under drop.other.
	{"drop.xdp_drop", "count", clockCount},
	{"drop.netfilter_drop", "count", clockCount},
	{"drop.ip_ttl_expired", "count", clockCount},
	{"drop.ip_forwarding_off", "count", clockCount},
	{"drop.dev_tx_down", "count", clockCount},
	{"drop.other", "count", clockCount},

	{"packet.parse_ns", "ns", clockHost},
	{"packet.gso_ns_per_superseg", "ns", clockHost},
	{"packet.checksum_ns_per_kb", "ns", clockHost},

	{"shell.exec_us", "us", clockHost},

	{"core.reconcile_p50_us", "us", clockHost},
	{"core.reconcile_p95_us", "us", clockHost},
	{"core.load_us", "us", clockHost},
	{"core.swap_us", "us", clockHost},
	{"core.model_reaction_ms", "ms", clockSim},
	{"core.reactions", "count", clockCount},
	{"core.redeploys", "count", clockCount},
	{"core.modules", "count", clockCount},
	{"core.sync_waits", "count", clockHost},
}

var metricUnits = func() map[string]string {
	m := map[string]string{}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		m[d.name] = d.unit
	}
	return m
}()
