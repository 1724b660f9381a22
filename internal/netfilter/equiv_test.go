package netfilter

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"linuxfp/internal/packet"
)

// The equivalence harness keeps two rulesets in lock step — ref is read by
// the old interpreter (reference_test.go), dut by the compiled evaluator —
// so verdicts, work counts and every rule's hit counter can be compared.
type nfPair struct {
	t        testing.TB
	rng      *rand.Rand
	ref, dut *Netfilter
	drawn    []packet.Prefix // prefixes handed to rules, for duplicates, nesting and edges
}

var (
	equivChains = []string{"PREROUTING", "INPUT", "FORWARD", "OUTPUT", "POSTROUTING", "U0", "U1", "U2"}
	equivSets   = []string{"s0", "s1", "ghost"} // ghost is never created
	equivProtos = []uint8{0, packet.ProtoTCP, packet.ProtoUDP, packet.ProtoICMP}
	equivPorts  = []uint16{0, 53, 80}
	equivBits   = []int{0, 1, 8, 15, 16, 24, 31, 32}
)

// spaceEdges are the addresses where the classifier's intervals meet the
// ends of the space and the boundary between its two /1 halves.
var spaceEdges = []packet.Addr{0, 0x7fffffff, 0x80000000, 0xffffffff}

// addr draws from a handful of /16s so that prefixes, sets and packets
// overlap often, and now and then from the edges of the space.
func (p *nfPair) addr() packet.Addr {
	if p.rng.Intn(8) == 0 {
		return pick(p.rng, spaceEdges)
	}
	return packet.AddrFrom4(10, byte(p.rng.Intn(3)), byte(p.rng.Intn(2)), byte(p.rng.Intn(4)))
}

// prefix draws a rule prefix: mostly a fresh one, sometimes a /1 on either
// half of the space, a duplicate of one already drawn, or one nested in or
// around it.
func (p *nfPair) prefix() packet.Prefix {
	rng := p.rng
	var pf packet.Prefix
	switch k := rng.Intn(10); {
	case k == 0:
		pf = packet.Prefix{Addr: pick(rng, spaceEdges), Bits: 1}
	case k <= 2 && len(p.drawn) > 0:
		pf = pick(rng, p.drawn)
		if k == 2 {
			pf.Bits = pick(rng, equivBits)
		}
	default:
		// Host bits are left set: a rule's prefix need not be masked.
		pf = packet.Prefix{Addr: p.addr(), Bits: pick(rng, equivBits)}
	}
	if len(p.drawn) < 64 {
		p.drawn = append(p.drawn, pf)
	}
	return pf
}

// packetAddr is addr, or one of the addresses where a drawn prefix starts
// or ends, or the one just outside it: where an interval boundary off by
// one would show.
func (p *nfPair) packetAddr() packet.Addr {
	rng := p.rng
	if len(p.drawn) == 0 || rng.Intn(3) != 0 {
		return p.addr()
	}
	pf := pick(rng, p.drawn)
	first := pf.Addr & pf.Mask()
	last := first | ^pf.Mask()
	return pick(rng, []packet.Addr{first, last, first - 1, last + 1})
}

func pick[T any](rng *rand.Rand, v []T) T { return v[rng.Intn(len(v))] }

var userChains = []string{"U0", "U1", "U2", "U3"}

// hasJump reports whether chain is a user chain that already holds a jump
// rule. Random jumps may form loops and self-jumps, which both evaluators
// walk once per path to maxJumpDepth: with at most one jump per user chain
// (built-in chains are never jump targets) each path is a line, so a walk
// visits at most maxJumpDepth chains per jump rule in a built-in chain
// instead of a number exponential in the matching jumps.
func (p *nfPair) hasJump(chain string) bool {
	if !slices.Contains(userChains, chain) {
		return false
	}
	c, _ := p.ref.Chain(chain)
	return slices.ContainsFunc(c.Rules, func(r *Rule) bool { return r.Jump != "" })
}

func (p *nfPair) rule(chain string) Rule {
	rng := p.rng
	var r Rule
	if rng.Intn(2) == 0 {
		pf := p.prefix()
		r.Match.Src = &pf
	}
	if rng.Intn(3) == 0 {
		pf := p.prefix()
		r.Match.Dst = &pf
	}
	if rng.Intn(3) == 0 {
		r.Match.Proto = pick(rng, equivProtos)
	}
	if rng.Intn(4) == 0 {
		r.Match.SrcPort = pick(rng, equivPorts)
	}
	if rng.Intn(4) == 0 {
		r.Match.DstPort = pick(rng, equivPorts)
	}
	if rng.Intn(5) == 0 {
		r.Match.InIf = rng.Intn(3)
	}
	if rng.Intn(5) == 0 {
		r.Match.OutIf = rng.Intn(3)
	}
	if rng.Intn(6) == 0 {
		r.Match.CTState = CTState(rng.Intn(4))
	}
	if rng.Intn(5) == 0 {
		r.Match.SrcSet = pick(rng, equivSets)
	}
	if rng.Intn(6) == 0 {
		r.Match.DstSet = pick(rng, equivSets)
	}
	switch rng.Intn(8) {
	case 0, 1:
		r.Target = VerdictAccept
	case 2, 3:
		r.Target = VerdictDrop
	case 4:
		r.Target = VerdictReturn
	case 5:
		// no target: the rule only counts
	default:
		// Jumps into user chains, themselves and chains that may not exist
		// yet; a jump rule's Target must be ignored. A user chain that
		// already jumps gets the Target alone.
		if !p.hasJump(chain) {
			r.Jump = pick(rng, userChains)
		}
		r.Target = Verdict(rng.Intn(3))
	}
	return r
}

func (p *nfPair) meta() Meta {
	rng := p.rng
	m := Meta{
		Src: p.packetAddr(), Dst: p.packetAddr(), Proto: pick(rng, equivProtos[1:]),
		InIf: rng.Intn(3), OutIf: rng.Intn(3), CTState: CTState(rng.Intn(4)),
		Fragment: rng.Intn(4) == 0,
	}
	// First fragments and whole packets carry ports; so may a Meta marked
	// Fragment (reassembly re-derives them), and port rules must still skip it.
	if rng.Intn(3) != 0 {
		m.SrcPort, m.DstPort = pick(rng, equivPorts), pick(rng, equivPorts)
	}
	return m
}

// both applies one mutation to both rulesets and requires the same outcome.
func (p *nfPair) both(what string, op func(nf *Netfilter) error) {
	p.t.Helper()
	e1, e2 := op(p.ref), op(p.dut)
	if (e1 == nil) != (e2 == nil) {
		p.t.Fatalf("%s: reference err %v, compiled err %v", what, e1, e2)
	}
}

func boolErr(ok bool) error {
	if !ok {
		return fmt.Errorf("not found")
	}
	return nil
}

// mutate applies one random state-changing verb.
func (p *nfPair) mutate() {
	rng := p.rng
	chain := pick(rng, equivChains)
	switch rng.Intn(12) {
	case 0, 1, 2:
		r := p.rule(chain)
		p.both("append", func(nf *Netfilter) error { return nf.Append(chain, r) })
	case 3, 4:
		r, pos := p.rule(chain), 1+rng.Intn(p.ref.RuleCount(chain)+1)
		p.both("insert", func(nf *Netfilter) error { return nf.Insert(chain, pos, r) })
	case 5:
		pos := 1 + rng.Intn(p.ref.RuleCount(chain)+1) // sometimes one past the end
		p.both("delete", func(nf *Netfilter) error { return nf.Delete(chain, pos) })
	case 6:
		if rng.Intn(4) == 0 {
			p.both("flush", func(nf *Netfilter) error { return nf.Flush(chain) })
		}
	case 7:
		v := pick(rng, []Verdict{VerdictAccept, VerdictDrop})
		p.both("policy", func(nf *Netfilter) error { return nf.SetPolicy(chain, v) })
	case 8:
		name := pick(rng, equivSets[:2])
		p.both("create set", func(nf *Netfilter) error { _, err := nf.CreateSet(name, "hash:net"); return err })
	case 9:
		name := pick(rng, equivSets[:2])
		p.both("destroy set", func(nf *Netfilter) error { return boolErr(nf.DestroySet(name)) })
	case 10:
		name, pf, del := pick(rng, equivSets[:2]), p.prefix(), rng.Intn(3) == 0
		p.both("set add/del", func(nf *Netfilter) error {
			s, ok := nf.Set(name)
			if !ok {
				return boolErr(false)
			}
			if del {
				return boolErr(s.Del(pf))
			}
			return s.Add(pf)
		})
	case 11:
		name := pick(rng, userChains)
		p.both("new chain", func(nf *Netfilter) error { return nf.NewChain(name) })
	}
}

// check evaluates n random packets at every hook on both sides, then
// compares every rule's hit counter.
func (p *nfPair) check(n int) {
	p.t.Helper()
	if got, want := p.dut.CTRequired(), p.ref.refCTRequired(); got != want {
		p.t.Fatalf("CTRequired %v, reference %v", got, want)
	}
	// The snapshot's rule counts are the locked RuleCount of the same
	// generation, whichever hook's snapshot the datapath reads them from.
	for h := HookPrerouting; h <= HookPostrouting; h++ {
		for src := Hook(0); src <= HookPostrouting; src++ {
			if got, want := p.dut.Snapshot(src).Rules(h), p.ref.RuleCount(h.String()); got != want {
				p.t.Fatalf("snapshot(%v).Rules(%v) = %d, RuleCount = %d", src, h, got, want)
			}
		}
	}
	for i := 0; i < n; i++ {
		m := p.meta()
		for h := HookPrerouting; h <= HookPostrouting; h++ {
			mr, md := m, m
			wantV, wantSt := p.ref.refEvaluateHook(h, &mr)
			gotV, gotSt := p.dut.EvaluateHook(h, &md)
			if gotV != wantV || gotSt != wantSt {
				p.t.Fatalf("%v %+v: compiled %v %+v, reference %v %+v", h, m, gotV, gotSt, wantV, wantSt)
			}
			// What the specializer would do with the same packet: skip the
			// walk only where the walk accepts without touching a counter.
			if cp, ok := p.dut.Compile(h); ok && cp.CanSkipProto(m.Proto) && wantV != VerdictAccept {
				p.t.Fatalf("%v proto %d: skip allowed but reference says %v", h, m.Proto, wantV)
			}
		}
	}
	for _, name := range p.ref.Chains() {
		cr, _ := p.ref.Chain(name)
		cd, ok := p.dut.Chain(name)
		if !ok || len(cr.Rules) != len(cd.Rules) {
			p.t.Fatalf("chain %s: rulesets diverged", name)
		}
		for i := range cr.Rules {
			if cr.Rules[i].Packets != cd.Rules[i].Packets {
				p.t.Fatalf("chain %s rule %d: %d hits, reference %d", name, i+1, cd.Rules[i].Packets, cr.Rules[i].Packets)
			}
		}
	}
}

// grow appends to one chain until it holds more than 130 rules, so its
// classifier rows span three words and candidates straddle bits 63/64 and
// 127/128. It appends no jumps, so the jump rules a walk may take stay few,
// and three in four of its rules only count, so walks reach deep.
func (p *nfPair) grow() {
	chain := pick(p.rng, equivChains)
	for p.ref.RuleCount(chain) <= 130 {
		r := p.rule(chain)
		if r.Jump != "" || p.rng.Intn(4) != 0 {
			r.Jump, r.Target = "", VerdictNone
		}
		p.both("append", func(nf *Netfilter) error { return nf.Append(chain, r) })
	}
}

// runEquivalence grows a random ruleset and checks it after every few
// mutations, so each check runs against a snapshot built after interleaved
// inserts, deletes, flushes, policy and set changes. Halfway through, one
// chain grows long.
func runEquivalence(t testing.TB, seed int64, steps int) {
	p := &nfPair{t: t, rng: rand.New(rand.NewSource(seed)), ref: New(), dut: New()}
	for _, u := range []string{"U0", "U1", "U2"} {
		p.both("new chain", func(nf *Netfilter) error { return nf.NewChain(u) })
	}
	for i := 0; i < steps; i++ {
		if i == steps/2 {
			p.grow()
		}
		for j := p.rng.Intn(6); j >= 0; j-- {
			p.mutate()
		}
		p.check(16)
	}
}

func TestCompiledMatchesInterpreter(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		runEquivalence(t, seed, 40)
	}
}

func FuzzEvaluate(f *testing.F) {
	for _, seed := range []int64{0, 1, 42, -7, 1 << 40} {
		f.Add(seed, uint8(24))
	}
	f.Fuzz(func(t *testing.T, seed int64, steps uint8) {
		runEquivalence(t, seed, int(steps%64))
	})
}

// TestJumpLoopsMatchInterpreter pins two loop shapes, cut at maxJumpDepth,
// that the random harness reaches only by chance: a self-jumping chain whose
// jump sits past bit 64, and a loop of two chains.
func TestJumpLoopsMatchInterpreter(t *testing.T) {
	p := &nfPair{t: t, rng: rand.New(rand.NewSource(1)), ref: New(), dut: New()}
	for _, u := range []string{"SELF", "PING", "PONG"} {
		p.both("new chain", func(nf *Netfilter) error { return nf.NewChain(u) })
	}
	app := func(chain string, r Rule) {
		p.both("append", func(nf *Netfilter) error { return nf.Append(chain, r) })
	}
	for i := 0; i < 70; i++ {
		pf := packet.Prefix{Addr: packet.AddrFrom4(10, 0, byte(i&1), 0), Bits: 24}
		app("SELF", Rule{Match: Match{Src: &pf}})
		if i == 66 {
			app("SELF", Rule{Jump: "SELF"})
		}
	}
	drop := packet.MustPrefix("10.0.1.0/24")
	app("SELF", Rule{Match: Match{Src: &drop}, Target: VerdictDrop})
	app("PING", Rule{Match: Match{Proto: packet.ProtoUDP}})
	app("PING", Rule{Jump: "PONG"})
	app("PONG", Rule{Jump: "PING"})
	app("PONG", Rule{Match: Match{Proto: packet.ProtoTCP}, Target: VerdictDrop})
	app("FORWARD", Rule{Match: Match{Proto: packet.ProtoICMP}, Jump: "PING"})
	app("FORWARD", Rule{Jump: "SELF"})
	app("INPUT", Rule{Jump: "PING"})
	for i := 0; i < 64; i++ {
		p.check(8)
	}
}

// TestDestroyedSetStopsMatching pins the case a pinned set pointer would get
// wrong: the rule outlives its set, and must stop matching the moment the
// set is destroyed — in new snapshots and through the generation guard of
// one taken before.
func TestDestroyedSetStopsMatching(t *testing.T) {
	nf := New()
	s, _ := nf.CreateSet("bl", "hash:net")
	s.Add(packet.MustPrefix("203.0.113.0/24"))
	nf.Append("FORWARD", Rule{Match: Match{SrcSet: "bl"}, Target: VerdictDrop})
	m := Meta{Src: packet.MustAddr("203.0.113.9"), Proto: packet.ProtoUDP}
	pinned, _ := nf.Compile(HookForward)
	if v, _ := nf.EvaluateHook(HookForward, &m); v != VerdictDrop {
		t.Fatalf("member got %v before destroy", v)
	}
	nf.DestroySet("bl")
	v, st := nf.EvaluateHook(HookForward, &m)
	if v != VerdictAccept || st.SetProbes != 1 {
		t.Fatalf("after destroy: %v %+v, want ACCEPT with the probe still counted", v, st)
	}
	if pinned.Gen == nf.Gen() {
		t.Fatal("snapshot that resolved the destroyed set still passes its generation guard")
	}
}
