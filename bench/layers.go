package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"linuxfp/internal/core"
	"linuxfp/internal/drop"
	"linuxfp/internal/kernel"
	"linuxfp/internal/netdev"
	"linuxfp/internal/netfilter"
	"linuxfp/internal/packet"
	"linuxfp/internal/sim"
)

// span is one timed interval of the traced run: a driving call into the DUT
// or a layer replay. Times are nanoseconds since the tracer started.
type span struct {
	Name     string `json:"name"`
	Start    int64  `json:"start_ns"`
	End      int64  `json:"end_ns"`
	Parent   string `json:"parent,omitempty"`
	Workload string `json:"workload"`
}

// tracer keeps spans in memory; they are written out once, at exit.
type tracer struct {
	workload string
	origin   time.Time
	spans    []span
}

func (t *tracer) add(name, parent string, start time.Time, d time.Duration) {
	s := start.Sub(t.origin).Nanoseconds()
	t.spans = append(t.spans, span{name, s, s + d.Nanoseconds(), parent, t.workload})
}

// within records fn as a span and returns how long it took.
func (t *tracer) within(name, parent string, fn func()) time.Duration {
	start := time.Now()
	fn()
	d := time.Since(start)
	t.add(name, parent, start, d)
	return d
}

// replay times loop, which presents items inputs to one layer's public
// function, five times over and returns the median host ns per item.
func (t *tracer) replay(name string, items int, loop func()) float64 {
	per := make([]float64, 5)
	for i := range per {
		per[i] = float64(t.within(name, "replay", loop).Nanoseconds()) / float64(items)
	}
	return median(per)
}

// waterfallRow is one stage of a workload's per-layer waterfall.
type waterfallRow struct {
	Stage          string   `json:"stage"`
	SimCyclesPerOp float64  `json:"sim_cycles_per_op"`
	HostNsPerCall  *float64 `json:"host_ns_per_call,omitempty"` // one replayed call; only where a replay exists
}

type traceFile struct {
	Workload         string         `json:"workload"`
	Seed             int64          `json:"seed"`
	Ops              int64          `json:"ops"`
	ModelCyclesPerOp float64        `json:"model_cycles_per_op"`
	Waterfall        []waterfallRow `json:"waterfall"`
	UnattributedSim  float64        `json:"unattributed_model_share"`
	Spans            []span         `json:"spans"`
}

// snapshot is every counter the program exports for the DUT-side kernels and
// devices, summed.
type snapshot struct {
	ks        kernel.Stats
	dev       netdev.Stats // summed over every DUT-side device
	ingress   netdev.Stats // the device frames are injected into, if there is one
	reasons   [drop.NumReasons]uint64
	fibGen    uint64
	loads     uint64
	loadTotal time.Duration
	mem       runtime.MemStats
	outcomes  counts
}

func takeSnapshot(w workload) snapshot {
	s := snapshot{outcomes: w.observed()}
	for _, k := range w.kernels() {
		st := k.Stats()
		addStats(&s.ks, st)
		for i, n := range k.DropReasons() {
			s.reasons[i] += n
		}
		for _, d := range k.Devices() {
			ds := d.Stats()
			s.dev.TxPackets += ds.TxPackets
			s.dev.TxDropped += ds.TxDropped
			for i, n := range d.DropReasons() {
				s.reasons[i] += n
			}
		}
		s.fibGen += k.FIB.Gen()
	}
	if rl, ok := w.(*routerLoad); ok {
		s.ingress = rl.in.Stats()
	}
	if c := w.config().ctrl; c != nil {
		s.loads, _, s.loadTotal = c.Deployer().Loader().LoadStats()
	}
	runtime.ReadMemStats(&s.mem)
	return s
}

func addStats(to *kernel.Stats, s kernel.Stats) {
	to.Forwarded += s.Forwarded
	to.Delivered += s.Delivered
	to.Dropped += s.Dropped
	to.TTLExpired += s.TTLExpired
	to.FilterDropped += s.FilterDropped
	to.ICMPTx += s.ICMPTx
	to.FragsSent += s.FragsSent
	to.GROCoalesced += s.GROCoalesced
	to.GROFlushes += s.GROFlushes
	to.GROSupersegs += s.GROSupersegs
}

// reactionLog accumulates the controller's own record of each reconcile.
type reactionLog struct {
	wallUs, loadUs, swapUs, virtualMs []float64
	redeploys, modules                int
}

func (l *reactionLog) keep(r core.Reaction) {
	l.wallUs = append(l.wallUs, float64(r.Wall.Nanoseconds())/1e3)
	l.virtualMs = append(l.virtualMs, r.Virtual.Millis())
	l.modules = r.Modules
	if r.Deployed {
		l.redeploys++
		l.loadUs = append(l.loadUs, float64(r.LoadWall.Nanoseconds())/1e3)
		l.swapUs = append(l.swapUs, float64(r.SwapWall.Nanoseconds())/1e3)
	}
}

// runTraced measures the per-layer metrics of one workload, from outside:
// counters and histograms the program already exports, and replays of the
// inputs the workload presents to each layer against that layer's public
// function alone. It first drives the workload untraced, so that the cost of
// tracing is itself a number.
func runTraced(spec workloadSpec, cfg runConfig) (*result, error) {
	res := &result{Metrics: map[string]value{}}
	w, err := setUp(spec, cfg.seed, true)
	if err != nil {
		return nil, err
	}
	defer w.close()
	if err := checkOracle(spec, cfg.seed, w, res); err != nil {
		return nil, err
	}
	_, perSeg := w.shape()
	tr := &tracer{workload: spec.name, origin: time.Now()}

	// Untraced: the segment statistics behind wall_ns_per_op.
	runtime.GC()
	before := w.observed()
	s0 := takeSnapshot(w)
	var untraced loopStats
	tr.within("drive.untraced", "", func() {
		untraced = drive(w, 1, time.Now().Add(time.Duration(cfg.seconds/4*float64(time.Second))), nil)
	})
	s1 := takeSnapshot(w)

	// Traced: stage histograms on, one span per driven segment, the
	// controller's reactions kept. A fixed number of rounds, so every count
	// below repeats exactly for a given seed and -seconds.
	var stages []*kernel.StageLat
	for _, k := range w.kernels() {
		stages = append(stages, k.EnableStageLat())
	}
	var reactions reactionLog
	w.config().keep = reactions.keep
	rounds := int(float64(spec.tracedRounds)*cfg.seconds/10 + 0.5)
	if rounds < 1 {
		rounds = 1
	}
	traced := drive(w, rounds, time.Now(), func(start time.Time, d time.Duration) {
		tr.add("drive.segment", "drive.traced", start, d)
	})
	tracedCycles := traced.cycles
	for _, k := range w.kernels() {
		k.DisableStageLat()
	}
	s2 := takeSnapshot(w)

	res.Attempted += untraced.ops + traced.ops
	checkOutcomes(w, before, int64(len(untraced.segNs)+len(traced.segNs)), res)

	set := res.set
	ops := float64(traced.ops)

	// harness
	set("harness.seg_count", float64(len(untraced.segNs)))
	if len(untraced.segNs) >= 200 { // ten segments lie beyond the p95
		set("harness.seg_p95_ns_per_op", quantile(untraced.segNs, 0.95))
	}
	med := median(untraced.segNs)
	set("harness.seg_iqr_pct", 100*(quantile(untraced.segNs, 0.75)-quantile(untraced.segNs, 0.25))/med)
	gen := make([]float64, 8)
	for i := range gen {
		gen[i] = float64(tr.within("generator.segment", "replay", func() { w.genSeg(i) }).Nanoseconds()) / float64(perSeg)
	}
	set("harness.gen_ns_per_op", median(gen))
	set("harness.alloc_bytes_per_op", float64(s1.mem.TotalAlloc-s0.mem.TotalAlloc)/float64(untraced.ops))
	set("harness.gc_cycles", float64(s1.mem.NumGC-s0.mem.NumGC))
	set("harness.gc_pause_ms", float64(s1.mem.PauseTotalNs-s0.mem.PauseTotalNs)/1e6)
	set("harness.trace_overhead_pct", 100*(median(traced.segNs)/med-1))
	set("harness.model_round_drift", untraced.drift)

	// Stage histograms: model cycles per op, stage by stage.
	stageCy := map[string]float64{}
	var attributed float64
	for _, sl := range stages {
		for _, s := range sl.Report() {
			stageCy[s.Stage] += s.MeanCy * float64(s.Count)
		}
	}
	_, nested := w.(*podLoad)
	for st := kernel.Stage(0); st < kernel.NumStages; st++ { // fixed order: float sums repeat
		stage := st.String()
		// On pod_rr a transmit runs the next hop's whole receive path on the
		// same meter, so the xmit stage contains the stages downstream of it.
		if !(nested && st == kernel.StageXmit) {
			attributed += stageCy[stage]
		}
		if cy, ok := stageCy[stage]; ok {
			stageCy[stage] = cy / ops
		}
	}
	set("ebpf.xdp_model_cycles_per_pkt", stageCy["xdp"])
	set("ebpf.tc_model_cycles_per_pkt", stageCy["tc"])
	set("kernel.gro_model_cycles_per_pkt", stageCy["gro"])
	set("netfilter.model_cycles_per_pkt", stageCy["netfilter"])
	set("fib.model_cycles_per_pkt", stageCy["fib"])
	set("neigh.model_cycles_per_pkt", stageCy["neigh"])
	set("netdev.xmit_model_cycles_per_pkt", stageCy["xmit"])
	unattributed := 1 - attributed/tracedCycles
	set("kernel.unattributed_model_share", unattributed)

	// Counters over the traced rounds.
	ks := s2.ks
	set("kernel.forwarded", float64(ks.Forwarded-s1.ks.Forwarded))
	set("kernel.delivered", float64(ks.Delivered-s1.ks.Delivered))
	set("kernel.dropped", float64(ks.Dropped-s1.ks.Dropped))
	set("kernel.ttl_expired", float64(ks.TTLExpired-s1.ks.TTLExpired))
	set("kernel.icmp_tx", float64(ks.ICMPTx-s1.ks.ICMPTx))
	set("kernel.frags_sent", float64(ks.FragsSent-s1.ks.FragsSent))
	set("netfilter.filter_dropped", float64(ks.FilterDropped-s1.ks.FilterDropped))
	set("netdev.tx_pkts", float64(s2.dev.TxPackets-s1.dev.TxPackets))
	set("netdev.tx_dropped", float64(s2.dev.TxDropped-s1.dev.TxDropped))
	var other float64
	for i := range s2.reasons {
		n := float64(s2.reasons[i] - s1.reasons[i])
		if name := "drop." + drop.Reason(i).String(); metricUnits[name] != "" {
			set(name, n)
		} else {
			other += n
		}
	}
	set("drop.other", other)
	// Layer replays, each workload shape with the inputs it presents.
	host := map[string]float64{} // stage → host ns per replayed call, for the waterfall
	switch w := w.(type) {
	case *routerLoad:
		in := s2.ingress
		rx := float64(in.RxPackets - s1.ingress.RxPackets)
		set("netdev.fastpath_share", float64(in.XDPRedirects+in.XDPDrops-s1.ingress.XDPRedirects-s1.ingress.XDPDrops)/rx)
		set("netdev.xdp_pass_share", float64(in.XDPPass-s1.ingress.XDPPass)/rx)
		set("kernel.gro_coalesce_ratio", float64(ks.GROCoalesced-s1.ks.GROCoalesced)/rx)
		set("kernel.gro_flushes_per_kpkt", 1000*float64(ks.GROFlushes-s1.ks.GROFlushes)/rx)
		set("kernel.gro_supersegs", float64(ks.GROSupersegs-s1.ks.GROSupersegs))
		w.replayLayers(tr, res, host)
	case *podLoad:
		set("kernel.sockets_delivered", float64(s2.outcomes["responses"]-s1.outcomes["responses"]))
		w.replayLayers(tr, res, host)
	}
	twin, err := setUp(spec, cfg.seed, false)
	if err != nil {
		return nil, err
	}
	slow := make([]float64, 8)
	for i := range slow {
		slow[i] = float64(tr.within("twin.segment", "replay", func() { twin.runSeg(i) }).Nanoseconds()) / float64(perSeg)
	}
	twin.close()
	set("kernel.slowpath_ns_per_pkt", median(slow))
	replayPacket(tr, res)

	// The control plane comes last: the probe's commands leave the DUT in
	// whatever state its last command did (a set create bumps NF.Gen without a
	// redeploy, so the specialised filter would run on its generic fallback),
	// and the replays above must see the DUT the traced rounds saw.
	if traced.cmdUs == nil {
		tr.within("config.probe", "", func() {
			_, err = w.config().probe(rand.New(rand.NewSource(cfg.seed)), probeBatches/8, probePerBatch)
		})
		if err != nil {
			return nil, fmt.Errorf("%s: reconcile probe: %w", spec.name, err)
		}
	}
	s3 := takeSnapshot(w)
	checkConfig(w, res)
	set("fib.gen_bumps", float64(s3.fibGen-s1.fibGen))

	// Control plane: the traced rounds (churn) or the probe (the others).
	c := w.config()
	if c.cmds > 0 {
		set("shell.exec_us", float64(c.execTime.Nanoseconds())/1e3/float64(c.cmds))
	}
	set("core.sync_waits", float64(c.syncWaits))
	if c.ctrl != nil {
		set("core.reconcile_p50_us", median(reactions.wallUs))
		set("core.reconcile_p95_us", quantile(reactions.wallUs, 0.95))
		set("core.load_us", mean(reactions.loadUs))
		set("core.swap_us", mean(reactions.swapUs))
		set("core.model_reaction_ms", mean(reactions.virtualMs))
		set("core.reactions", float64(len(reactions.wallUs)))
		set("core.redeploys", float64(reactions.redeploys))
		set("core.modules", float64(reactions.modules))
		set("ebpf.loads", float64(s3.loads-s1.loads))
		if s3.loads > s1.loads {
			set("ebpf.load_us", float64((s3.loadTotal-s1.loadTotal).Nanoseconds())/1e3/float64(s3.loads-s1.loads))
		}
		set("ebpf.loaded_programs_end", float64(c.ctrl.Deployer().Loader().LoadedCount()))
	}
	set("harness.ops_failed_share", float64(res.Failed)/float64(res.Attempted))

	tf := traceFile{
		Workload: spec.name, Seed: cfg.seed, Ops: traced.ops,
		ModelCyclesPerOp: tracedCycles / ops, UnattributedSim: unattributed, Spans: tr.spans,
	}
	for st := kernel.Stage(0); st < kernel.NumStages; st++ {
		cy, ok := stageCy[st.String()]
		if !ok {
			continue
		}
		row := waterfallRow{Stage: st.String(), SimCyclesPerOp: cy}
		if ns, ok := host[st.String()]; ok {
			row.HostNsPerCall = &ns
		}
		tf.Waterfall = append(tf.Waterfall, row)
	}
	if err := writeTrace(cfg.outDir, tf); err != nil {
		return nil, err
	}
	res.Correct = res.Failed == 0
	return res, nil
}

func writeTrace(dir string, tf traceFile) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	raw, err := json.Marshal(tf)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+tf.Workload+".json"), raw, 0o644)
}

// Sinks keep the compiler from discarding replayed calls.
var (
	sinkInt  int
	sinkBool bool
	sinkU16  uint16
)

// replayLayers replays what the router-shaped workloads present to each
// layer: bursts to the XDP batch runner, destinations to the FIB, the next
// hop to the neighbour table, packet summaries to netfilter.
func (w *routerLoad) replayLayers(tr *tracer, res *result, host map[string]float64) {
	n := len(w.templates)
	now := w.kern.Now()
	var scratch sim.Meter

	dsts := make([]packet.Addr, n)
	metas := make([]netfilter.Meta, n)
	for i, f := range w.templates {
		t, l3, _ := packet.ReadFlowTuple(f)
		dsts[i] = packet.IPv4Dst(f, l3)
		metas[i] = netfilter.Meta{Src: t.Src, Dst: t.Dst, Proto: t.Proto, SrcPort: t.SrcPort, DstPort: t.DstPort,
			InIf: w.in.Index, OutIf: w.out.Index, Fragment: packet.IPv4IsFragment(f, l3)}
	}
	res.set("fib.routes", float64(w.kern.FIB.Main().Len()))
	host["fib"] = tr.replay("fib.Lookup", n, func() {
		for _, d := range dsts {
			_, sinkBool = w.kern.FIB.Lookup(d)
		}
	})
	res.set("fib.lookup_ns", host["fib"])
	gw := packet.MustAddr("10.2.0.1")
	host["neigh"] = tr.replay("neigh.Resolved", n, func() {
		for range dsts {
			_, sinkBool = w.kern.Neigh.Resolved(gw, now)
		}
	})
	res.set("neigh.resolved_ns", host["neigh"])

	walked := 0
	host["netfilter"] = tr.replay("netfilter.EvaluateHook", n, func() {
		walked = 0
		for i := range metas {
			_, st := w.kern.NF.EvaluateHook(netfilter.HookForward, &metas[i])
			walked += st.RulesEvaluated
		}
	})
	res.set("netfilter.eval_ns", host["netfilter"])
	res.set("netfilter.rules_walked_per_pkt", float64(walked)/float64(n))
	res.set("netfilter.conntrack_entries", float64(w.kern.NF.Conntrack.Len()))
	replayCompile(tr, res, w.kern.NF, metas)

	if attached, _ := w.in.XDPAttached(); attached {
		const frames = 4 * segFrames
		host["xdp"] = tr.replay("netdev.RunXDPBatch", frames, func() {
			for off := 0; off < frames; off += burstSize {
				w.in.RunXDPBatch(w.fill(off, burstSize), 0, burstSize, &scratch)
			}
		})
		res.set("netdev.xdp_ns_per_pkt", host["xdp"])
		// The same batch runner with a program that only redirects: what is
		// left of xdp_ns_per_pkt is the attached program.
		probe := netdev.New("probe0", w.in.Index, netdev.Physical, w.in.MAC, w.kern)
		probe.SetUp(true)
		probe.AttachXDP(redirectAll{to: w.out.Index}, "driver")
		driver := tr.replay("netdev.RunXDPBatch(stub)", frames, func() {
			for off := 0; off < frames; off += burstSize {
				probe.RunXDPBatch(w.fill(off, burstSize), 0, burstSize, &scratch)
			}
		})
		res.set("netdev.driver_ns_per_pkt", driver)
		res.set("ebpf.prog_ns_per_pkt", host["xdp"]-driver)
	}

	// Each traffic class of a mixed corpus alone through the accelerated DUT.
	byClass := map[string][][]byte{}
	for i, c := range w.class {
		byClass[classGroup(c)] = append(byClass[classGroup(c)], w.templates[i])
	}
	if len(byClass) > 1 {
		all := w.templates
		for name, frames := range byClass {
			w.templates = frames
			res.set("kernel.class_"+name+"_ns", tr.replay("class."+name, segFrames, func() { w.bursts(0, segFrames, true) }))
		}
		w.templates = all
	}

	decoded := 0
	var pkt packet.Packet
	var ip packet.IPv4
	var arp packet.ARP
	res.set("packet.parse_ns", tr.replay("packet.DecodeInto", n, func() {
		for _, f := range w.templates {
			if packet.DecodeInto(f, &pkt, &ip, &arp) == nil {
				decoded++
			}
		}
	}))
	sinkInt = decoded
}

// redirectAll is the cheapest XDP program that still exercises the batch
// runner's redirect path and devmap flush.
type redirectAll struct{ to int }

func (r redirectAll) HandleXDP(b *netdev.XDPBuff) netdev.XDPAction {
	b.RedirectTo = r.to
	return netdev.XDPRedirect
}

func (r redirectAll) HandleXDPBatch(bufs []*netdev.XDPBuff, acts []netdev.XDPAction) {
	for i, b := range bufs {
		b.RedirectTo = r.to
		acts[i] = netdev.XDPRedirect
	}
}

func replayCompile(tr *tracer, res *result, nf *netfilter.Netfilter, metas []netfilter.Meta) {
	comp, ok := nf.Compile(netfilter.HookForward)
	if !ok {
		return
	}
	res.set("netfilter.compiled_eval_ns", tr.replay("netfilter.Compiled.Evaluate", len(metas), func() {
		for i := range metas {
			v, _ := comp.Evaluate(&metas[i])
			sinkInt = int(v)
		}
	}))
	const compiles = 64
	res.set("netfilter.compile_us", tr.replay("netfilter.Compile", compiles, func() {
		for i := 0; i < compiles; i++ {
			_, sinkBool = nf.Compile(netfilter.HookForward)
		}
	})/1e3)
}

// replayLayers replays what a pod-to-pod transaction presents to the client's
// node: the server's address to the FIB, the remote VTEP to the neighbour
// table, the established flow to the FORWARD chain, the pods' MACs to cni0.
func (w *podLoad) replayLayers(tr *tracer, res *result, host map[string]float64) {
	const n = 4096
	node := w.client.Node
	k := node.K
	now := k.Now()
	res.set("fib.routes", float64(k.FIB.Main().Len()))
	host["fib"] = tr.replay("fib.Lookup", n, func() {
		for i := 0; i < n; i++ {
			_, sinkBool = k.FIB.Lookup(w.server.IP)
		}
	})
	res.set("fib.lookup_ns", host["fib"])
	vtep := packet.AddrFrom4(10, 244, byte(w.server.Node.Index), 0)
	host["neigh"] = tr.replay("neigh.Resolved", n, func() {
		for i := 0; i < n; i++ {
			_, sinkBool = k.Neigh.Resolved(vtep, now)
		}
	})
	res.set("neigh.resolved_ns", host["neigh"])

	metas := make([]netfilter.Meta, n)
	for i := range metas {
		metas[i] = netfilter.Meta{Src: w.client.IP, Dst: w.server.IP, Proto: packet.ProtoTCP,
			SrcPort: clientPort, DstPort: 12865, InIf: w.client.Eth0.Peer().Index, OutIf: node.Flannel.Index,
			CTState: netfilter.CTEstablished}
	}
	walked := 0
	host["netfilter"] = tr.replay("netfilter.EvaluateHook", n, func() {
		walked = 0
		for i := range metas {
			_, st := k.NF.EvaluateHook(netfilter.HookForward, &metas[i])
			walked += st.RulesEvaluated
		}
	})
	res.set("netfilter.eval_ns", host["netfilter"])
	res.set("netfilter.rules_walked_per_pkt", float64(walked)/n)
	res.set("netfilter.conntrack_entries", float64(k.NF.Conntrack.Len()))
	replayCompile(tr, res, k.NF, metas)

	if br, ok := k.BridgeByName("cni0"); ok {
		res.set("bridge.fdb_entries", float64(br.FDBLen()))
		mac := w.client.Eth0.MAC
		res.set("bridge.fdb_lookup_ns", tr.replay("bridge.FDBLookup", n, func() {
			for i := 0; i < n; i++ {
				sinkInt, sinkBool = br.FDBLookup(mac, 0, now)
			}
		}))
	}

	frames := make([][]byte, len(w.payloads))
	for i, p := range w.payloads {
		tcp := packet.TCP{SrcPort: clientPort, DstPort: 12865, Flags: packet.TCPPsh | packet.TCPAck, Window: 65535}
		frames[i] = packet.BuildIPv4(
			packet.Ethernet{Dst: node.CNI0.MAC, Src: w.client.Eth0.MAC, EtherType: packet.EtherTypeIPv4},
			packet.IPv4{TTL: 64, Proto: packet.ProtoTCP, Src: w.client.IP, Dst: w.server.IP},
			tcp.Marshal(nil, w.client.IP, w.server.IP, p))
	}
	var pkt packet.Packet
	var ip packet.IPv4
	var arp packet.ARP
	decoded := 0
	res.set("packet.parse_ns", tr.replay("packet.DecodeInto", len(frames), func() {
		for _, f := range frames {
			if packet.DecodeInto(f, &pkt, &ip, &arp) == nil {
				decoded++
			}
		}
	}))
	sinkInt = decoded
}

// replayPacket times the two byte-proportional packet functions on fixed
// inputs: resegmenting a 16-segment supersegment and checksumming one MSS.
func replayPacket(tr *tracer, res *result) {
	payload := make([]byte, bulkSegs*bulkMSS)
	src, dst := packet.MustAddr("10.1.0.1"), packet.MustAddr("10.100.0.9")
	tcp := packet.TCP{SrcPort: 4000, DstPort: 80, Seq: 1, Ack: 1, Flags: packet.TCPAck, Window: 512}
	super := packet.BuildIPv4(packet.Ethernet{EtherType: packet.EtherTypeIPv4},
		packet.IPv4{TTL: 64, Proto: packet.ProtoTCP, Src: src, Dst: dst, Flags: packet.IPv4DontFragment},
		tcp.Marshal(nil, src, dst, payload))
	const l3, l4 = packet.EthHdrLen, packet.EthHdrLen + packet.IPv4MinLen
	const reps = 64
	res.set("packet.gso_ns_per_superseg", tr.replay("packet.SegmentTCP", reps, func() {
		for i := 0; i < reps; i++ {
			sinkInt = len(packet.SegmentTCP(super, l3, l4, bulkMSS, false))
		}
	}))
	mss := payload[:bulkMSS]
	res.set("packet.checksum_ns_per_kb", tr.replay("packet.Checksum", reps*16, func() {
		for i := 0; i < reps*16; i++ {
			sinkU16 = packet.Checksum(mss)
		}
	})*1024/bulkMSS)
}
