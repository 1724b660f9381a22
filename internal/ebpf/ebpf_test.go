package ebpf

import (
	"errors"
	"testing"

	"linuxfp/internal/fib"
	"linuxfp/internal/kernel"
	"linuxfp/internal/netdev"
	"linuxfp/internal/netfilter"
	"linuxfp/internal/packet"
	"linuxfp/internal/sim"
)

func opReturning(name string, v Verdict) Op {
	return NewOp(name, 10, 0, 8, func(*Ctx) Verdict { return v })
}

func TestProgramRunSequencing(t *testing.T) {
	var order []string
	mk := func(name string, v Verdict) Op {
		return NewOp(name, 5, 0, 4, func(*Ctx) Verdict {
			order = append(order, name)
			return v
		})
	}
	p := &Program{Name: "seq", Hook: HookXDP, Ops: []Op{
		mk("a", VerdictNext), mk("b", VerdictNext), mk("c", VerdictDrop), mk("d", VerdictNext),
	}}
	ctx := &Ctx{Meter: &sim.Meter{}}
	if v := p.run(ctx); v != VerdictDrop {
		t.Fatalf("verdict %v", v)
	}
	if len(order) != 3 || order[2] != "c" {
		t.Fatalf("order %v — op d must not run after a terminal verdict", order)
	}
	// Cost accumulates per executed op.
	if ctx.Meter.Total != 15 {
		t.Fatalf("charged %v, want 15", ctx.Meter.Total)
	}
}

func TestProgramDefaultVerdict(t *testing.T) {
	p := &Program{Name: "fallthrough", Hook: HookXDP, Ops: []Op{opReturning("x", VerdictNext)}}
	if v := p.run(&Ctx{Meter: &sim.Meter{}}); v != VerdictPass {
		t.Fatalf("unset default should be pass, got %v", v)
	}
	p.Default = VerdictDrop
	if v := p.run(&Ctx{Meter: &sim.Meter{}}); v != VerdictDrop {
		t.Fatal("explicit default ignored")
	}
}

func TestVerifierRejectsEmptyProgram(t *testing.T) {
	var v Verifier
	if err := v.Verify(&Program{Name: "e", Hook: HookXDP}); !errors.Is(err, ErrEmptyProgram) {
		t.Fatalf("err %v", err)
	}
	if err := v.Verify(nil); !errors.Is(err, ErrEmptyProgram) {
		t.Fatalf("nil: %v", err)
	}
}

func TestVerifierRejectsOversizedProgram(t *testing.T) {
	v := Verifier{MaxInsns: 100}
	p := &Program{Name: "big", Hook: HookXDP}
	for i := 0; i < 20; i++ {
		p.Ops = append(p.Ops, NewOp("pad", 1, 0, 10, func(*Ctx) Verdict { return VerdictNext }))
	}
	if err := v.Verify(p); !errors.Is(err, ErrTooManyInsns) {
		t.Fatalf("err %v", err)
	}
	v.MaxInsns = 300
	if err := v.Verify(p); err != nil {
		t.Fatalf("within budget: %v", err)
	}
}

func TestVerifierEnforcesHookCaps(t *testing.T) {
	var v Verifier
	skbOp := NewOp("read_skb_mark", 5, CapSKB, 4, func(*Ctx) Verdict { return VerdictNext })
	p := &Program{Name: "needs-skb", Hook: HookXDP, Ops: []Op{skbOp}}
	if err := v.Verify(p); !errors.Is(err, ErrMissingCap) {
		t.Fatalf("XDP must reject skb ops: %v", err)
	}
	p.Hook = HookTCIngress
	if err := v.Verify(p); err != nil {
		t.Fatalf("TC should allow skb ops: %v", err)
	}
	p.Hook = Hook(99)
	if err := v.Verify(p); !errors.Is(err, ErrBadHook) {
		t.Fatalf("bad hook: %v", err)
	}
}

func TestLoaderAssignsIDs(t *testing.T) {
	k := kernel.New("t")
	l := NewLoader(k)
	p1, err := l.Load(&Program{Name: "a", Hook: HookXDP, Ops: []Op{opReturning("x", VerdictPass)}})
	if err != nil {
		t.Fatal(err)
	}
	p2, _ := l.Load(&Program{Name: "b", Hook: HookXDP, Ops: []Op{opReturning("x", VerdictPass)}})
	if p1.ID() == 0 || p1.ID() == p2.ID() {
		t.Fatalf("ids %d %d", p1.ID(), p2.ID())
	}
	if l.LoadedCount() != 2 {
		t.Fatalf("loaded %d", l.LoadedCount())
	}
	if !l.Unload(p1.ID()) || l.Unload(p1.ID()) {
		t.Fatal("unload semantics")
	}
	// Load rejects what the verifier rejects.
	if _, err := l.Load(&Program{Name: "bad", Hook: HookXDP}); err == nil {
		t.Fatal("empty program loaded")
	}
}

func TestAttachXDPChecksHookAndLoad(t *testing.T) {
	k := kernel.New("t")
	l := NewLoader(k)
	d := k.CreateDevice("eth0", netdev.Physical)
	tcProg := &Program{Name: "tc", Hook: HookTCIngress, Ops: []Op{opReturning("x", VerdictPass)}}
	if err := l.AttachXDP(d, tcProg, "driver"); err == nil {
		t.Fatal("attached TC program to XDP")
	}
	unloaded := &Program{Name: "u", Hook: HookXDP, Ops: []Op{opReturning("x", VerdictPass)}}
	if err := l.AttachXDP(d, unloaded, "driver"); err == nil {
		t.Fatal("attached unloaded program")
	}
	xdp, _ := l.Load(&Program{Name: "x", Hook: HookXDP, Ops: []Op{opReturning("x", VerdictDrop)}})
	if err := l.AttachXDP(d, xdp, "driver"); err != nil {
		t.Fatal(err)
	}
	if ok, _ := d.XDPAttached(); !ok {
		t.Fatal("not attached")
	}
}

func TestAttachTCChecksHook(t *testing.T) {
	k := kernel.New("t")
	l := NewLoader(k)
	d := k.CreateDevice("eth0", netdev.Physical)
	xdpProg, _ := l.Load(&Program{Name: "x", Hook: HookXDP, Ops: []Op{opReturning("x", VerdictPass)}})
	if err := l.AttachTC(d.Index, xdpProg); err == nil {
		t.Fatal("attached XDP program to TC")
	}
	tc, _ := l.Load(&Program{Name: "t", Hook: HookTCIngress, Ops: []Op{opReturning("x", VerdictPass)}})
	if err := l.AttachTC(d.Index, tc); err != nil {
		t.Fatal(err)
	}
	if !k.TCAttached(d.Index, true) {
		t.Fatal("not attached")
	}
}

func TestXDPAdapterVerdictMapping(t *testing.T) {
	k := kernel.New("t")
	l := NewLoader(k)
	cases := []struct {
		v    Verdict
		want netdev.XDPAction
	}{
		{VerdictDrop, netdev.XDPDrop},
		{VerdictPass, netdev.XDPPass},
		{VerdictTX, netdev.XDPTx},
		{VerdictAborted, netdev.XDPAborted},
	}
	for _, c := range cases {
		p, _ := l.Load(&Program{Name: "m", Hook: HookXDP, Ops: []Op{opReturning("x", c.v)}})
		a := &xdpAdapter{k: k, prog: p}
		buff := &netdev.XDPBuff{Data: []byte{1}, Meter: &sim.Meter{}}
		if got := a.HandleXDP(buff); got != c.want {
			t.Errorf("verdict %v -> %v, want %v", c.v, got, c.want)
		}
		if buff.Meter.Total < sim.CostXDPPrologue {
			t.Error("XDP prologue not charged")
		}
	}
	// Redirect carries the ifindex out.
	p, _ := l.Load(&Program{Name: "r", Hook: HookXDP, Ops: []Op{
		NewOp("redir", 1, CapRedirect, 2, func(c *Ctx) Verdict {
			c.RedirectIfIndex = 42
			return VerdictRedirect
		}),
	}})
	a := &xdpAdapter{k: k, prog: p}
	buff := &netdev.XDPBuff{Data: []byte{1}, Meter: &sim.Meter{}}
	if got := a.HandleXDP(buff); got != netdev.XDPRedirect || buff.RedirectTo != 42 {
		t.Fatalf("redirect mapping: %v to %d", got, buff.RedirectTo)
	}
}

func TestTailCallDepthLimit(t *testing.T) {
	pa := NewProgArray("t", 1)
	var selfCall *Program
	selfCall = &Program{Name: "loop", Hook: HookXDP, Ops: []Op{
		NewOp("tail", 0, CapTailCall, 4, func(c *Ctx) Verdict {
			return c.TailCall(pa, 0)
		}),
	}}
	pa.Update(0, selfCall)
	ctx := &Ctx{Meter: &sim.Meter{}}
	if v := selfCall.run(ctx); v != VerdictAborted {
		t.Fatalf("unbounded tail-call chain returned %v", v)
	}
	// Exactly MaxTailCalls tail-call costs were charged.
	if got := ctx.Meter.Total; got != sim.Cycles(MaxTailCalls+1)*sim.CostTailCall {
		t.Fatalf("charged %v", got)
	}
}

func TestTailCallEmptySlotAborts(t *testing.T) {
	pa := NewProgArray("t", 2)
	p := &Program{Name: "entry", Hook: HookXDP, Ops: []Op{
		NewOp("tail", 0, CapTailCall, 4, func(c *Ctx) Verdict { return c.TailCall(pa, 1) }),
	}}
	if v := p.run(&Ctx{Meter: &sim.Meter{}}); v != VerdictAborted {
		t.Fatalf("empty slot returned %v", v)
	}
	// Out-of-range slot too.
	p2 := &Program{Name: "oob", Hook: HookXDP, Ops: []Op{
		NewOp("tail", 0, CapTailCall, 4, func(c *Ctx) Verdict { return c.TailCall(pa, 9) }),
	}}
	if v := p2.run(&Ctx{Meter: &sim.Meter{}}); v != VerdictAborted {
		t.Fatalf("oob slot returned %v", v)
	}
}

func TestDispatcherAtomicSwap(t *testing.T) {
	k := kernel.New("t")
	l := NewLoader(k)
	disp, err := l.NewDispatcher("main", HookXDP)
	if err != nil {
		t.Fatal(err)
	}
	// Empty dispatcher: tail call aborts -> adapter maps to XDPAborted,
	// but dispatcher semantics should be "pass to slow path" — the entry
	// program's tail-call failure falls through in real BPF. Model: the
	// abort is visible; LinuxFP always installs a program before attach.
	drop, _ := l.Load(&Program{Name: "drop", Hook: HookXDP, Ops: []Op{opReturning("d", VerdictDrop)}})
	pass, _ := l.Load(&Program{Name: "pass", Hook: HookXDP, Ops: []Op{opReturning("p", VerdictPass)}})

	disp.Swap(drop)
	if disp.Active() != drop {
		t.Fatal("active program wrong")
	}
	ctx := &Ctx{Meter: &sim.Meter{}}
	if v := disp.Prog.run(ctx); v != VerdictDrop {
		t.Fatalf("dispatch to drop: %v", v)
	}
	disp.Swap(pass)
	ctx = &Ctx{Meter: &sim.Meter{}}
	if v := disp.Prog.run(ctx); v != VerdictPass {
		t.Fatalf("dispatch to pass: %v", v)
	}
	// Tail-call cost is charged on every dispatch (Fig. 10's overhead).
	if ctx.Meter.Total < sim.CostTailCall {
		t.Fatal("tail call not charged")
	}
	disp.Swap(nil)
	if disp.Active() != nil {
		t.Fatal("clear failed")
	}
}

func TestDispatcherSwapUnderTraffic(t *testing.T) {
	// No packet may observe a half-installed program: every run returns
	// either old or new verdict, never aborted, while swapping rapidly.
	k := kernel.New("t")
	l := NewLoader(k)
	disp, _ := l.NewDispatcher("main", HookXDP)
	drop, _ := l.Load(&Program{Name: "drop", Hook: HookXDP, Ops: []Op{opReturning("d", VerdictDrop)}})
	pass, _ := l.Load(&Program{Name: "pass", Hook: HookXDP, Ops: []Op{opReturning("p", VerdictPass)}})
	disp.Swap(drop)

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 5000; i++ {
			if i%2 == 0 {
				disp.Swap(pass)
			} else {
				disp.Swap(drop)
			}
		}
	}()
	for i := 0; i < 5000; i++ {
		v := disp.Prog.run(&Ctx{Meter: &sim.Meter{}})
		if v != VerdictDrop && v != VerdictPass {
			t.Fatalf("packet observed invalid state: %v", v)
		}
	}
	<-done
}

func TestHelperFIBLookup(t *testing.T) {
	k := kernel.New("t")
	d := k.CreateDevice("eth0", netdev.Physical)
	d.SetUp(true)
	k.AddAddr("eth0", packet.MustPrefix("10.0.0.1/24"))
	k.AddRoute(fib.Route{Prefix: packet.MustPrefix("10.5.0.0/16"), Gateway: packet.MustAddr("10.0.0.254"), OutIf: d.Index})

	ctx := &Ctx{Kernel: k, Meter: &sim.Meter{}}
	// No neighbour entry yet: helper must miss (punt to slow path).
	if HelperFIBLookup(ctx, packet.MustAddr("10.5.1.1")) || ctx.FIBOk || ctx.FIB != (FIBResult{}) {
		t.Fatalf("unresolved neighbour should miss and leave the result unwritten: %+v ok=%v", ctx.FIB, ctx.FIBOk)
	}
	gwMAC := packet.MustHWAddr("02:00:00:00:aa:01")
	k.Neigh.AddPermanent(packet.MustAddr("10.0.0.254"), gwMAC, d.Index)
	ok := HelperFIBLookup(ctx, packet.MustAddr("10.5.1.1"))
	if res := ctx.FIB; !ok || !ctx.FIBOk || res.EgressIfIndex != d.Index || res.DstMAC != gwMAC || res.SrcMAC != d.MAC {
		t.Fatalf("fib helper: %+v ok=%v FIBOk=%v", res, ok, ctx.FIBOk)
	}
	// No route at all.
	if HelperFIBLookup(ctx, packet.MustAddr("99.9.9.9")) {
		t.Fatal("no-route should miss")
	}
	// Local destination punts (delivery is slow-path work).
	if HelperFIBLookup(ctx, packet.MustAddr("10.0.0.1")) {
		t.Fatal("local dst should miss")
	}
	// Down egress device punts.
	d.SetUp(false)
	if HelperFIBLookup(ctx, packet.MustAddr("10.5.1.1")) {
		t.Fatal("down device should miss")
	}
	if ctx.Meter.Total < 4*sim.CostHelperFIB {
		t.Fatal("helper cost not charged per call")
	}
}

func TestHelperFDBLookup(t *testing.T) {
	k := kernel.New("t")
	_, br := k.CreateBridge("br0")
	br.AddPort(5)
	mac := packet.MustHWAddr("02:00:00:00:bb:01")
	ctx := &Ctx{Kernel: k, Meter: &sim.Meter{}}

	if _, ok := HelperFDBLookup(ctx, br, mac, 0); ok {
		t.Fatal("unlearned MAC should miss")
	}
	br.Learn(mac, 0, 5, 0)
	port, ok := HelperFDBLookup(ctx, br, mac, 0)
	if !ok || port != 5 {
		t.Fatalf("fdb helper: %d %v", port, ok)
	}
	// Blocked port punts even on FDB hit.
	p, _ := br.Port(5)
	p.State = 2 // bridge.Blocking
	if _, ok := HelperFDBLookup(ctx, br, mac, 0); ok {
		t.Fatal("blocked port should miss")
	}
}

func TestHelperIptLookup(t *testing.T) {
	k := kernel.New("t")
	blocked := packet.MustPrefix("203.0.113.0/24")
	k.NF.Append("FORWARD", netfilter.Rule{Match: netfilter.Match{Src: &blocked}, Target: netfilter.VerdictDrop})

	ctx := &Ctx{Kernel: k, Meter: &sim.Meter{}, IPSrc: packet.MustAddr("203.0.113.7"), IPProto: packet.ProtoUDP}
	if HelperIptLookup(ctx, netfilter.HookForward, 0) != IptDeny {
		t.Fatal("blacklisted src allowed")
	}
	ctx2 := &Ctx{Kernel: k, Meter: &sim.Meter{}, IPSrc: packet.MustAddr("8.8.8.8"), IPProto: packet.ProtoUDP}
	if HelperIptLookup(ctx2, netfilter.HookForward, 0) != IptAllow {
		t.Fatal("clean src dropped")
	}
	// Fast path charges less per rule than the slow path would.
	if ctx2.Meter.Total >= sim.CostHelperIptB+sim.CostIptRuleSlow {
		t.Fatalf("fast-path rule cost too high: %v", ctx2.Meter.Total)
	}
}

// TestHelperSeesLiveKernelState is the state-coherence property at the
// heart of the paper: a config change through the Linux API is immediately
// visible to the helper with no synchronization step.
func TestHelperSeesLiveKernelState(t *testing.T) {
	k := kernel.New("t")
	d := k.CreateDevice("eth0", netdev.Physical)
	d.SetUp(true)
	k.AddAddr("eth0", packet.MustPrefix("10.0.0.1/24"))
	k.Neigh.AddPermanent(packet.MustAddr("10.0.0.254"), packet.MustHWAddr("02:00:00:00:cc:01"), d.Index)
	ctx := &Ctx{Kernel: k, Meter: &sim.Meter{}}

	dst := packet.MustAddr("172.16.9.9")
	if HelperFIBLookup(ctx, dst) {
		t.Fatal("route not yet added")
	}
	k.AddRoute(fib.Route{Prefix: packet.MustPrefix("172.16.0.0/16"), Gateway: packet.MustAddr("10.0.0.254"), OutIf: d.Index})
	if !HelperFIBLookup(ctx, dst) {
		t.Fatal("route add not visible to helper")
	}
	k.DelRoute(packet.MustPrefix("172.16.0.0/16"))
	if HelperFIBLookup(ctx, dst) {
		t.Fatal("route delete not visible to helper")
	}
}

func TestMapsBasics(t *testing.T) {
	h := NewHashMap("h", 2)
	if !h.Update(1, 100) || !h.Update(2, 200) {
		t.Fatal("updates failed")
	}
	if h.Update(3, 300) {
		t.Fatal("over-capacity update succeeded")
	}
	if v, ok := h.Lookup(1); !ok || v != 100 {
		t.Fatal("lookup")
	}
	h.Add(1, 5)
	if v, _ := h.Lookup(1); v != 105 {
		t.Fatal("add")
	}
	if !h.Delete(1) || h.Delete(1) {
		t.Fatal("delete semantics")
	}
	if h.Len() != 1 || h.Name() != "h" {
		t.Fatal("len/name")
	}

	a := NewArrayMap("a", 4)
	if !a.Update(0, 7) || a.Update(9, 1) {
		t.Fatal("array bounds")
	}
	a.Add(0, 3)
	if a.Lookup(0) != 10 || a.Lookup(9) != 0 {
		t.Fatal("array lookup")
	}
	if a.Len() != 4 {
		t.Fatal("array len")
	}

	pa := NewProgArray("p", 2)
	if pa.Update(5, nil) {
		t.Fatal("prog array oob update")
	}
	if pa.Lookup(5) != nil || pa.Len() != 2 || pa.Name() != "p" {
		t.Fatal("prog array basics")
	}
}

func TestVerdictAndHookStrings(t *testing.T) {
	for v, want := range map[Verdict]string{
		VerdictNext: "next", VerdictPass: "pass", VerdictDrop: "drop",
		VerdictTX: "tx", VerdictRedirect: "redirect", VerdictAborted: "aborted",
	} {
		if v.String() != want {
			t.Errorf("%d -> %q", v, v.String())
		}
	}
	for h, want := range map[Hook]string{
		HookXDP: "xdp", HookTCIngress: "tc-ingress", HookTCEgress: "tc-egress",
	} {
		if h.String() != want {
			t.Errorf("%d -> %q", h, h.String())
		}
	}
}
