package ebpf

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"linuxfp/internal/bridge"
	"linuxfp/internal/kernel"
	"linuxfp/internal/netdev"
	"linuxfp/internal/netfilter"
	"linuxfp/internal/packet"
	"linuxfp/internal/sim"
)

// Loader verifies and registers programs and wires them onto hooks.
type Loader struct {
	K *kernel.Kernel

	mu       sync.Mutex
	verifier Verifier
	nextID   int
	loaded   map[int]*Program

	// Load-latency instrumentation: the controller re-loads (and therefore
	// re-specializes) on every netlink change, so verify+specialize+fuse
	// wall time is part of the reaction-latency budget.
	loads         uint64
	lastLoadWall  time.Duration
	totalLoadWall time.Duration
}

// NewLoader returns a loader bound to a kernel.
func NewLoader(k *kernel.Kernel) *Loader {
	return &Loader{K: k, loaded: make(map[int]*Program)}
}

// Load verifies a program and compiles both executable forms: the fused
// (JIT) body and the specialized body (constant-folded against the live
// configuration, then fused). Both are always built; which one executes is
// decided per packet by net.core.bpf_jit_enable and
// net.core.bpf_jit_specialize, so A/B comparison needs no reload.
//
// Load is idempotent on the same *Program: a re-load (the controller's
// re-synthesis path) keeps the program's ID, rebuilds both bodies from the
// pristine Op chain, and publishes them atomically under live traffic.
func (l *Loader) Load(p *Program) (*Program, error) {
	start := time.Now()
	if err := l.verifier.Verify(p); err != nil {
		return nil, fmt.Errorf("load %q: %w", p.Name, err)
	}
	spec := specialize(p, &SpecEnv{K: l.K, Hook: p.Hook})
	jit := fuse(p)
	p.spec.Store(spec)
	p.jit.Store(jit)
	l.mu.Lock()
	defer l.mu.Unlock()
	if p.id == 0 {
		l.nextID++
		p.id = l.nextID
	}
	l.loaded[p.id] = p
	l.loads++
	l.lastLoadWall = time.Since(start)
	l.totalLoadWall += l.lastLoadWall
	return p, nil
}

// LoadStats reports how many Load calls ran and their wall-clock cost: the
// latest verify+specialize+fuse duration and the accumulated total.
func (l *Loader) LoadStats() (loads uint64, last, total time.Duration) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.loads, l.lastLoadWall, l.totalLoadWall
}

// Programs returns the loaded programs sorted by ID.
func (l *Loader) Programs() []*Program {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]*Program, 0, len(l.loaded))
	for _, p := range l.loaded {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

// Unload removes a program from the loaded set.
func (l *Loader) Unload(id int) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	_, ok := l.loaded[id]
	delete(l.loaded, id)
	return ok
}

// LoadedCount reports how many programs are loaded.
func (l *Loader) LoadedCount() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.loaded)
}

// xdpAdapter runs a loaded XDP program on a device's XDP hook.
type xdpAdapter struct {
	k    *kernel.Kernel
	prog *Program // static program (dispatcher or direct attach)
}

var _ netdev.XDPHandler = (*xdpAdapter)(nil)

// ctxPool recycles program contexts: one per program invocation on the hot
// path, so it must not hit the heap per packet. Ops may use the Ctx only
// for the duration of the call.
var ctxPool = sync.Pool{New: func() any { return new(Ctx) }}

// HandleXDP implements netdev.XDPHandler.
func (a *xdpAdapter) HandleXDP(buff *netdev.XDPBuff) netdev.XDPAction {
	sl := a.k.StageObs()
	var stageStart sim.Cycles
	if sl != nil {
		stageStart = buff.Meter.Total
	}
	buff.Meter.Charge(sim.CostXDPPrologue)
	ctx := ctxPool.Get().(*Ctx)
	ctx.bind(a.k, HookXDP)
	ctx.reset(buff.Meter, buff.IfIndex, buff, nil)
	v := a.prog.exec(ctx)
	act := verdictToXDP(v, buff, ctx)
	ctxPool.Put(ctx)
	if sl != nil {
		sl.Observe(kernel.StageXDP, buff.Meter, stageStart)
	}
	return act
}

// verdictToXDP maps a program verdict onto the driver-level XDP action,
// copying the redirect target (device or cpumap slot) from the context onto
// the buff. The cpumap field is only assigned when non-nil: storing a typed
// nil *CPUMap into the buff's interface field would make it compare non-nil
// and derail the driver's devmap path.
func verdictToXDP(v Verdict, buff *netdev.XDPBuff, ctx *Ctx) netdev.XDPAction {
	switch v {
	case VerdictDrop:
		return netdev.XDPDrop
	case VerdictTX:
		return netdev.XDPTx
	case VerdictRedirect:
		buff.RedirectTo = ctx.RedirectIfIndex
		if ctx.RedirectCPUMap != nil {
			buff.RedirectCPUMap = ctx.RedirectCPUMap
			buff.RedirectCPU = ctx.RedirectCPU
		}
		if ctx.RedirectXSKMap != nil {
			buff.RedirectXSKMap = ctx.RedirectXSKMap
			buff.RedirectXSKSlot = ctx.RedirectXSKSlot
		}
		return netdev.XDPRedirect
	case VerdictAborted:
		return netdev.XDPAborted
	default:
		return netdev.XDPPass
	}
}

var _ netdev.XDPBatchHandler = (*xdpAdapter)(nil)

// HandleXDPBatch implements netdev.XDPBatchHandler: one NAPI poll's worth
// of frames through the program with a single context reused across the
// burst. The full xdp_buff-setup prologue is paid once per poll; frames
// after the first run with warm I-cache and a live context, charging only
// the reduced per-frame entry cost — the batch-amortization real XDP gets
// from the NAPI loop.
func (a *xdpAdapter) HandleXDPBatch(bufs []*netdev.XDPBuff, acts []netdev.XDPAction) {
	if len(bufs) == 0 {
		return
	}
	m := bufs[0].Meter
	sl := a.k.StageObs()
	m.Charge(sim.CostXDPPrologue)
	ctx := ctxPool.Get().(*Ctx)
	ctx.bind(a.k, HookXDP)
	for i, buff := range bufs {
		if i > 0 {
			m.Charge(sim.CostXDPBatchEntry)
		}
		var stageStart sim.Cycles
		if sl != nil {
			stageStart = buff.Meter.Total
		}
		ctx.reset(buff.Meter, buff.IfIndex, buff, nil)
		acts[i] = verdictToXDP(a.prog.exec(ctx), buff, ctx)
		if sl != nil {
			// Per-frame observation: each frame's program run is one
			// latency sample, even inside a batched poll.
			sl.Observe(kernel.StageXDP, buff.Meter, stageStart)
		}
	}
	ctxPool.Put(ctx)
}

// tcAdapter runs a loaded TC program on a kernel TC hook.
type tcAdapter struct {
	k    *kernel.Kernel
	prog *Program
	hook Hook
}

var _ kernel.TCHandler = (*tcAdapter)(nil)

// HandleTC implements kernel.TCHandler.
func (a *tcAdapter) HandleTC(skb *kernel.SKB) kernel.TCAction {
	ctx := ctxPool.Get().(*Ctx)
	ctx.bind(a.k, a.hook)
	ctx.reset(skb.Meter, skb.Dev.Index, nil, skb)
	v := a.prog.exec(ctx)
	redirect := ctx.RedirectIfIndex
	ctxPool.Put(ctx)
	switch v {
	case VerdictDrop, VerdictAborted:
		return kernel.TCShot
	case VerdictRedirect:
		skb.RedirectTo = redirect
		return kernel.TCRedirect
	default:
		return kernel.TCOk
	}
}

var _ kernel.TCBatchHandler = (*tcAdapter)(nil)

// HandleTCBatch implements kernel.TCBatchHandler: the TC-hook twin of
// HandleXDPBatch. One context is reused across the whole burst of skbs, so
// the program runs back to back with warm I-cache; the kernel side charges
// the classifier entry costs (full on the first skb, batch-entry discount
// after), mirroring how the XDP batch runner splits costs with the driver.
func (a *tcAdapter) HandleTCBatch(skbs []*kernel.SKB, acts []kernel.TCAction) {
	if len(skbs) == 0 {
		return
	}
	ctx := ctxPool.Get().(*Ctx)
	ctx.bind(a.k, a.hook)
	for i, skb := range skbs {
		ctx.reset(skb.Meter, skb.Dev.Index, nil, skb)
		switch a.prog.exec(ctx) {
		case VerdictDrop, VerdictAborted:
			acts[i] = kernel.TCShot
		case VerdictRedirect:
			skb.RedirectTo = ctx.RedirectIfIndex
			acts[i] = kernel.TCRedirect
		default:
			acts[i] = kernel.TCOk
		}
	}
	ctxPool.Put(ctx)
}

// AttachXDP attaches a loaded program to a device's XDP hook.
func (l *Loader) AttachXDP(dev *netdev.Device, p *Program, mode string) error {
	if p.Hook != HookXDP {
		return fmt.Errorf("ebpf: program %q is for %v, not XDP", p.Name, p.Hook)
	}
	if p.id == 0 {
		return fmt.Errorf("ebpf: program %q not loaded", p.Name)
	}
	dev.AttachXDP(&xdpAdapter{k: l.K, prog: p}, mode)
	return nil
}

// AttachTC attaches a loaded program to a TC hook.
func (l *Loader) AttachTC(ifindex int, p *Program) error {
	if p.Hook != HookTCIngress && p.Hook != HookTCEgress {
		return fmt.Errorf("ebpf: program %q is for %v, not TC", p.Name, p.Hook)
	}
	if p.id == 0 {
		return fmt.Errorf("ebpf: program %q not loaded", p.Name)
	}
	l.K.AttachTC(ifindex, p.Hook == HookTCIngress, &tcAdapter{k: l.K, prog: p, hook: p.Hook})
	return nil
}

// Dispatcher is the permanently attached entry program: one tail call into
// slot 0 of its program array. Replacing the data path atomically is a
// single ProgArray.Update — no detach/attach window, no packet loss
// (paper §IV-A2 and Fig. 4).
type Dispatcher struct {
	Prog  *Program
	Table *ProgArray
}

// NewDispatcher builds and loads a dispatcher for the hook.
func (l *Loader) NewDispatcher(name string, hook Hook) (*Dispatcher, error) {
	table := NewProgArray(name+"_table", 1)
	entry := &Program{
		Name: name,
		Hook: hook,
		Ops: []Op{
			NewOp("tail_call_entry", 0, CapTailCall, 4, func(c *Ctx) Verdict {
				return c.TailCall(table, 0)
			}),
		},
		// An empty slot aborts the tail call; pass to the slow path then.
		Default: VerdictPass,
	}
	loaded, err := l.Load(entry)
	if err != nil {
		return nil, err
	}
	return &Dispatcher{Prog: loaded, Table: table}, nil
}

// Swap atomically replaces the active data path. A nil program empties the
// dispatcher, sending all traffic to the slow path.
func (d *Dispatcher) Swap(p *Program) {
	d.Table.Update(0, p)
}

// Active returns the currently installed data path.
func (d *Dispatcher) Active() *Program {
	return d.Table.Lookup(0)
}

// --- helpers -------------------------------------------------------------------

// FIBResult is what bpf_fib_lookup returns on success: everything needed to
// rewrite and redirect without touching the slow path.
type FIBResult struct {
	EgressIfIndex int
	SrcMAC        packet.HWAddr // egress device MAC
	DstMAC        packet.HWAddr // resolved next-hop MAC
}

// HelperFIBLookup is bpf_fib_lookup: one call resolves route + neighbour
// against live kernel state and, on a hit, writes the result into c.FIB and
// sets c.FIBOk, as the kernel helper fills the caller's bpf_fib_lookup
// struct. A miss (no route, or unresolved/stale neighbour) returns false and
// leaves both untouched; it tells the fast path to punt to the slow path,
// which will do the full resolution dance.
func HelperFIBLookup(c *Ctx, dst packet.Addr) bool {
	c.Meter.Charge(sim.CostHelperFIB)
	r, ok := c.Kernel.FIB.Lookup(dst)
	if !ok || r.Local {
		return false
	}
	out, ok := c.Kernel.DeviceByIndex(r.OutIf)
	if !ok || !out.IsUp() {
		return false
	}
	nexthop := r.Gateway
	if nexthop == 0 {
		nexthop = dst
	}
	mac, ok := c.Kernel.Neigh.Resolved(nexthop, c.Kernel.Now())
	if !ok {
		return false
	}
	c.FIB.EgressIfIndex, c.FIB.SrcMAC, c.FIB.DstMAC = out.Index, out.MAC, mac
	c.FIBOk = true
	return true
}

// HelperRedirectCPU is bpf_redirect_map on a cpumap: the frame is handed to
// another CPU's kthread for full-stack processing there, and the RX core
// moves on. The verdict is terminal; the driver's xdp_do_flush stages and
// spills the frame in bulk. An empty slot surfaces at enqueue time as an
// XDP exception drop, matching the kernel's late cpu_map_lookup_elem.
func HelperRedirectCPU(c *Ctx, cm *CPUMap, cpu int) Verdict {
	c.Meter.Charge(sim.CostMapLookup)
	c.RedirectCPUMap = cm
	c.RedirectCPU = cpu
	return VerdictRedirect
}

// HelperFDBLookup is the paper's new bpf_fdb_lookup: resolve the egress
// port for a MAC/VLAN against the live bridge FDB, honouring port state.
// Misses (unlearned, aged, blocked port) punt to the slow path, which owns
// learning and flooding.
func HelperFDBLookup(c *Ctx, br *bridge.Bridge, mac packet.HWAddr, vlan uint16) (int, bool) {
	c.Meter.Charge(sim.CostHelperFDB)
	port, ok := br.FDBLookup(mac, vlan, c.Kernel.Now())
	if !ok {
		return 0, false
	}
	p, exists := br.Port(port)
	if !exists || p.State != bridge.Forwarding {
		return 0, false
	}
	return port, true
}

// HelperIPVSLookup is the LB prototype's bpf_ipvs_lookup: resolve the
// backend for an *established* virtual-service flow from the kernel's ipvs
// connection table. New flows miss (ok=false with vip=true), telling the
// fast path to punt so the slow path runs the scheduler — scheduling is
// control-plane work (Table I). Non-VIP traffic returns vip=false.
func HelperIPVSLookup(c *Ctx) (backend packet.Addr, vip, ok bool) {
	c.Meter.Charge(sim.CostLBConnHash)
	backend, ok = c.Kernel.IPVSLookup(c.IPSrc, c.IPDst, c.IPProto, c.SrcPort, c.DstPort, false)
	if ok {
		return backend, true, true
	}
	// Distinguish "not a VIP" from "VIP but unscheduled flow".
	if _, isVIP := c.Kernel.IPVSLookupService(c.IPDst, c.DstPort, c.IPProto); isVIP {
		return 0, true, false
	}
	return 0, false, false
}

// HelperRingbufOutput is bpf_ringbuf_output: reserve, copy, submit. It
// charges the reserve/commit costs plus a per-byte copy cost, and the wakeup
// cost only when this submit actually posts the consumer doorbell (so raising
// the ring's wakeup batch directly cuts the amortized helper cost). A full
// ring returns false without blocking — the event is dropped and counted on
// the ring, never the packet.
func HelperRingbufOutput(c *Ctx, rb *RingBuf, data []byte) bool {
	c.Meter.Charge(sim.CostRingbufReserve)
	rec := rb.Reserve(len(data))
	if rec == nil {
		return false
	}
	copy(rec.Bytes(), data)
	c.Meter.Charge(sim.CostRingbufPerByte*sim.Cycles(len(data)) + sim.CostRingbufCommit)
	if rec.Submit() {
		c.Meter.Charge(sim.CostRingbufWakeup)
	}
	return true
}

// HelperRingbufOutputEvent emits one fixed-layout telemetry Event — the form
// every fast-path producer (fpm.TraceOp, drop mirrors) uses.
func HelperRingbufOutputEvent(c *Ctx, rb *RingBuf, e *Event) bool {
	var buf [EventSize]byte
	e.MarshalInto(&buf)
	return HelperRingbufOutput(c, rb, buf[:])
}

// IptResult is the tri-state outcome of bpf_ipt_lookup.
type IptResult int

// bpf_ipt_lookup outcomes.
const (
	IptAllow IptResult = iota + 1
	IptDeny
	// IptPunt tells the fast path to hand the packet to the slow path:
	// the rules need conntrack state the fast path may only read, and the
	// flow has no entry yet (the slow path creates it).
	IptPunt
)

// HelperIptLookup is the paper's new bpf_ipt_lookup: evaluate a chain
// against live iptables state, charging the fast-path match costs
// (cheaper per rule than the skb-based slow path, and one hashed probe per
// ipset match). When rules match on conntrack state, the helper performs a
// read-only conntrack lookup; flows without an entry punt so the slow path
// owns flow creation (Table I's division for conntrack handling).
func HelperIptLookup(c *Ctx, hook netfilter.Hook, outIf int) IptResult {
	meta := &netfilter.Meta{
		Src: c.IPSrc, Dst: c.IPDst, Proto: c.IPProto,
		SrcPort: c.SrcPort, DstPort: c.DstPort,
		InIf: c.IfIndex, OutIf: outIf, Fragment: c.Fragment,
	}
	cp := c.Kernel.NF.Snapshot(hook)
	if cp.CTRequired {
		c.Meter.Charge(sim.CostConntrackLookup)
		conn, _, ok := c.Kernel.NF.Conntrack.Lookup(netfilter.Tuple{
			Src: meta.Src, Dst: meta.Dst, Proto: meta.Proto,
			SrcPort: meta.SrcPort, DstPort: meta.DstPort,
		}, c.Kernel.Now())
		if !ok {
			return IptPunt
		}
		meta.CTState = conn.State
	}
	v, st := cp.Evaluate(meta)
	c.Meter.Charge(sim.CostHelperIptB +
		sim.Cycles(st.RulesEvaluated)*sim.CostIptRuleFast +
		sim.Cycles(st.SetProbes)*sim.CostIpsetLookup)
	if v == netfilter.VerdictDrop {
		return IptDeny
	}
	return IptAllow
}

// HelperIptLookupCompiled is the specialized form of bpf_ipt_lookup the JIT
// specializer emits: the chain's compiled snapshot was pinned at Load time,
// so the model charges neither the helper's meta-marshalling fixed part nor
// the generic per-rule dispatch (the host runs one evaluator either way), and
// packets whose protocol no rule can match skip the walk entirely. A generation guard keeps it sound: when the
// ruleset has changed since compilation, the call falls back to the generic
// helper, which is always correct (the controller re-specializes on the next
// netlink event). Verdicts, punt behaviour, and rule hit counters are
// identical to the generic path in every case.
func HelperIptLookupCompiled(c *Ctx, comp *netfilter.Compiled, hook netfilter.Hook, outIf int) IptResult {
	c.Meter.Charge(sim.CostSpecGuard)
	if c.Kernel.NF.Gen() != comp.Gen {
		return HelperIptLookup(c, hook, outIf)
	}
	meta := netfilter.Meta{
		Src: c.IPSrc, Dst: c.IPDst, Proto: c.IPProto,
		SrcPort: c.SrcPort, DstPort: c.DstPort,
		InIf: c.IfIndex, OutIf: outIf, Fragment: c.Fragment,
	}
	if comp.CTRequired {
		// Conntrack semantics must mirror the generic helper exactly: the
		// read-only lookup runs first, and a flow without an entry punts so
		// the slow path owns creation.
		c.Meter.Charge(sim.CostConntrackLookup)
		conn, _, ok := c.Kernel.NF.Conntrack.Lookup(netfilter.Tuple{
			Src: meta.Src, Dst: meta.Dst, Proto: meta.Proto,
			SrcPort: meta.SrcPort, DstPort: meta.DstPort,
		}, c.Kernel.Now())
		if !ok {
			return IptPunt
		}
		meta.CTState = conn.State
	}
	if comp.CanSkipProto(c.IPProto) {
		return IptAllow // dead arm: no rule can match this protocol
	}
	v, st := comp.Evaluate(&meta)
	c.Meter.Charge(sim.CostIptSpecBase +
		sim.Cycles(st.RulesEvaluated)*sim.CostIptRuleSpec +
		sim.Cycles(st.SetProbes)*sim.CostIpsetLookup)
	if v == netfilter.VerdictDrop {
		return IptDeny
	}
	return IptAllow
}
