package netfilter

import (
	"testing"

	"linuxfp/internal/packet"
)

func newForwardNF(t *testing.T, rules ...Rule) *Netfilter {
	t.Helper()
	nf := New()
	for _, r := range rules {
		if err := nf.Append("FORWARD", r); err != nil {
			t.Fatal(err)
		}
	}
	return nf
}

func TestCompileRefusesJumpsAndMissingChains(t *testing.T) {
	nf := New()
	if _, ok := nf.Compile(Hook(99)); ok {
		t.Fatal("compiled a hook with no registered chain")
	}
	if err := nf.NewChain("USERCHAIN"); err != nil {
		t.Fatal(err)
	}
	if err := nf.Append("FORWARD", Rule{Jump: "USERCHAIN"}); err != nil {
		t.Fatal(err)
	}
	if _, ok := nf.Compile(HookForward); ok {
		t.Fatal("compiled a chain with user-chain jumps")
	}
}

func TestCompileProtoSkip(t *testing.T) {
	p := packet.MustPrefix("203.0.113.0/24")
	nf := newForwardNF(t,
		Rule{Match: Match{Src: &p, Proto: packet.ProtoTCP}, Target: VerdictDrop},
	)
	cp, ok := nf.Compile(HookForward)
	if !ok {
		t.Fatal("compile failed")
	}
	if !cp.CanSkipProto(packet.ProtoUDP) {
		t.Fatal("UDP cannot match any rule; skip must be allowed")
	}
	if cp.CanSkipProto(packet.ProtoTCP) {
		t.Fatal("TCP rules exist; skip must be refused")
	}

	// A wildcard-proto rule disables skipping entirely.
	nf.Append("FORWARD", Rule{Match: Match{Src: &p}, Target: VerdictDrop})
	cp2, ok := nf.Compile(HookForward)
	if !ok {
		t.Fatal("compile failed")
	}
	if cp2.CanSkipProto(packet.ProtoUDP) {
		t.Fatal("wildcard-proto rule present; skip must be refused")
	}

	// A drop policy disables skipping: "no rule matches" then means drop.
	nfDrop := newForwardNF(t, Rule{Match: Match{Proto: packet.ProtoTCP}, Target: VerdictAccept})
	nfDrop.SetPolicy("FORWARD", VerdictDrop)
	cp3, ok := nfDrop.Compile(HookForward)
	if !ok {
		t.Fatal("compile failed")
	}
	if cp3.CanSkipProto(packet.ProtoUDP) {
		t.Fatal("drop policy; skipping the walk would accept what policy drops")
	}
}

// TestCompileEvaluateCounterIdentity pins the memory-identity property the
// specializer relies on: the compiled snapshot bumps the very same Packets
// counters the live chain owns, with identical verdicts.
func TestCompileEvaluateCounterIdentity(t *testing.T) {
	blocked := packet.MustPrefix("10.100.40.0/24")
	returned := packet.MustPrefix("10.100.41.0/24")
	nf := newForwardNF(t,
		Rule{Match: Match{Dst: &blocked}, Target: VerdictDrop},
		Rule{Match: Match{Dst: &returned}, Target: VerdictReturn},
	)
	cp, ok := nf.Compile(HookForward)
	if !ok {
		t.Fatal("compile failed")
	}

	cases := []struct {
		dst  packet.Addr
		want Verdict
	}{
		{packet.AddrFrom4(10, 100, 40, 9), VerdictDrop},
		{packet.AddrFrom4(10, 100, 41, 9), VerdictAccept}, // RETURN -> policy
		{packet.AddrFrom4(10, 100, 50, 9), VerdictAccept}, // fallthrough
	}
	for _, c := range cases {
		m := Meta{Dst: c.dst, Proto: packet.ProtoUDP}
		mi := m
		vi, _ := nf.EvaluateHook(HookForward, &mi)
		mc := m
		vc, _ := cp.Evaluate(&mc)
		if vi != vc || vi != c.want {
			t.Fatalf("dst %v: interpreted %v, compiled %v, want %v", c.dst, vi, vc, c.want)
		}
	}
	// Each path ran each case once: both drop-rule hits and both RETURN hits
	// must have landed on the same counters.
	ch, _ := nf.Chain("FORWARD")
	if ch.Rules[0].Packets != 2 {
		t.Fatalf("drop rule counted %d, want 2 (shared counter memory)", ch.Rules[0].Packets)
	}
	if ch.Rules[1].Packets != 2 {
		t.Fatalf("return rule counted %d, want 2", ch.Rules[1].Packets)
	}
}

func TestCompileGenTracksMutations(t *testing.T) {
	p := packet.MustPrefix("203.0.113.0/24")
	nf := newForwardNF(t, Rule{Match: Match{Src: &p}, Target: VerdictDrop})
	cp, ok := nf.Compile(HookForward)
	if !ok {
		t.Fatal("compile failed")
	}
	if cp.Gen != nf.Gen() {
		t.Fatalf("snapshot gen %d != live gen %d at compile time", cp.Gen, nf.Gen())
	}
	for i, mutate := range []func(){
		func() { nf.Append("FORWARD", Rule{Match: Match{Src: &p}, Target: VerdictAccept}) },
		func() { nf.Delete("FORWARD", 2) },
		func() { nf.SetPolicy("FORWARD", VerdictDrop) },
	} {
		before := nf.Gen()
		mutate()
		if nf.Gen() == before {
			t.Fatalf("mutation %d did not bump the generation", i)
		}
	}
	if cp.Gen == nf.Gen() {
		t.Fatal("stale snapshot still matches the live generation")
	}
}

func TestCompileResolvesSets(t *testing.T) {
	nf := New()
	if _, err := nf.CreateSet("bl", "hash:net"); err != nil {
		t.Fatal(err)
	}
	bl, _ := nf.Set("bl")
	if err := bl.Add(packet.MustPrefix("203.0.113.0/24")); err != nil {
		t.Fatal(err)
	}
	if err := nf.Append("FORWARD", Rule{Match: Match{SrcSet: "bl"}, Target: VerdictDrop}); err != nil {
		t.Fatal(err)
	}
	cp, ok := nf.Compile(HookForward)
	if !ok {
		t.Fatal("compile failed")
	}
	m := Meta{Src: packet.AddrFrom4(203, 0, 113, 7), Proto: packet.ProtoTCP}
	v, st := cp.Evaluate(&m)
	if v != VerdictDrop {
		t.Fatalf("set-matched packet got %v, want drop", v)
	}
	if st.SetProbes != 1 {
		t.Fatalf("SetProbes = %d, want 1", st.SetProbes)
	}
	// Set content changes apply without a recompile: the snapshot holds the
	// same *IPSet the interpreter resolves.
	if err := bl.Add(packet.MustPrefix("198.51.100.0/24")); err != nil {
		t.Fatal(err)
	}
	m2 := Meta{Src: packet.AddrFrom4(198, 51, 100, 7), Proto: packet.ProtoTCP}
	if v, _ := cp.Evaluate(&m2); v != VerdictDrop {
		t.Fatalf("post-compile set member got %v, want drop", v)
	}
}

// TestEvaluateAllocatesNothing pins the steady state: once the first walk
// has built the index, a walk through the snapshot or through the hook
// allocates nothing.
func TestEvaluateAllocatesNothing(t *testing.T) {
	nf := gatewayChain(t, 100)
	cp := nf.Snapshot(HookForward)
	miss, hit := udpFrom(packet.MustAddr("8.8.8.8")), udpFrom(gatewayPrefix(50).Addr+9)
	cp.Evaluate(miss)
	if n := testing.AllocsPerRun(200, func() {
		cp.Evaluate(miss)
		cp.Evaluate(hit)
		nf.EvaluateHook(HookForward, miss)
	}); n != 0 {
		t.Errorf("steady-state Evaluate allocates %.1f times, want 0", n)
	}
}

// bytes reports the memory the axis holds.
func (ax *axis) bytes() int { return 4*len(ax.starts) + 8*len(ax.rows) }

// TestIndexBytesAtFig8 bounds the classifier at Fig. 8's largest point, the
// 500-rule gateway chain: at most 64 KiB per axis.
func TestIndexBytesAtFig8(t *testing.T) {
	cp := gatewayChain(t, 500).Snapshot(HookForward)
	ix := newChainIndex(cp.chains[cp.entry])
	for name, ax := range map[string]*axis{"src": &ix.src, "dst": &ix.dst} {
		if b := ax.bytes(); b > 64<<10 {
			t.Errorf("%s axis holds %d bytes at 500 rules, want at most %d", name, b, 64<<10)
		}
	}
}
