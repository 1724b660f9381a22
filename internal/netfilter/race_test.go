package netfilter

import (
	"sync"
	"sync/atomic"
	"testing"

	"linuxfp/internal/packet"
)

// TestReadersSeeSomeGeneration churns the ruleset through a fixed cycle of
// verbs, each of which bumps the generation exactly once, so the verdict of
// the two probe packets is a function of the generation alone. Readers
// bracket every evaluation with the generation: the verdicts must be those
// of one generation inside the bracket — never a mix of two states, never a
// state older than the generation loaded first (what a flow cache stamps its
// entry with).
func TestReadersSeeSomeGeneration(t *testing.T) {
	nf := New()
	base := nf.Gen()
	p1 := packet.MustPrefix("10.1.0.0/16")
	member := packet.MustPrefix("10.2.0.0/16")
	probes := [2]Meta{
		{Src: packet.MustAddr("10.1.1.1"), Proto: packet.ProtoUDP},
		{Src: packet.MustAddr("10.2.2.2"), Proto: packet.ProtoUDP},
	}
	const A, D = VerdictAccept, VerdictDrop
	// want[k] holds the probes' verdicts k bumps into the cycle.
	want := [][2]Verdict{{A, A}, {D, A}, {D, D}, {D, D}, {A, A}, {A, A}, {A, D}, {A, A}}
	cycle := []func(){
		func() { nf.Insert("FORWARD", 1, Rule{Match: Match{Src: &p1}, Target: VerdictDrop}) },
		func() { nf.SetPolicy("FORWARD", VerdictDrop) },
		func() { nf.Delete("FORWARD", 1) },
		func() { nf.SetPolicy("FORWARD", VerdictAccept) },
		func() {
			s, _ := nf.CreateSet("S", "hash:net")
			s.Add(member) // no rule names S yet: filling it changes no verdict
		},
		func() { nf.Append("FORWARD", Rule{Match: Match{SrcSet: "S"}, Target: VerdictDrop}) },
		func() { nf.DestroySet("S") },
		func() { nf.Flush("FORWARD") },
	}
	at := func(gen uint64) [2]Verdict { return want[(gen-base)%uint64(len(want))] }

	var stop atomic.Bool
	var reads atomic.Int64
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(pinned bool) {
			defer wg.Done()
			for !stop.Load() {
				reads.Add(1)
				g1 := nf.Gen()
				var got [2]Verdict
				if cp, ok := nf.Compile(HookForward); pinned && ok && cp.Gen == nf.Gen() {
					// The specialised op: a pinned snapshot behind its guard.
					for i := range probes {
						got[i], _ = cp.Evaluate(&probes[i])
					}
					if got != at(cp.Gen) {
						t.Errorf("pinned snapshot of gen %d answered %v, want %v", cp.Gen, got, at(cp.Gen))
						return
					}
					continue
				}
				cp := nf.Snapshot(HookForward)
				for i := range probes {
					got[i], _ = cp.Evaluate(&probes[i])
				}
				g2 := nf.Gen()
				if cp.Gen < g1 || cp.Gen > g2 || got != at(cp.Gen) {
					t.Errorf("gens %d..%d: snapshot of gen %d answered %v, want %v", g1, g2, cp.Gen, got, at(cp.Gen))
					return
				}
				// The two-call form the kernel uses: each call may land on a
				// different generation, but each inside the bracket.
				v, _ := nf.EvaluateHook(HookForward, &probes[0])
				g3 := nf.Gen()
				ok := false
				for g := g2; g <= g3; g++ {
					ok = ok || at(g)[0] == v
				}
				if !ok {
					t.Errorf("gens %d..%d: EvaluateHook answered %v", g2, g3, v)
					return
				}
			}
		}(r%2 == 0)
	}
	for i := 0; reads.Load() < 20000 && !t.Failed(); i++ {
		cycle[i%len(cycle)]()
	}
	stop.Store(true)
	wg.Wait()
}

// TestMutatingVerbsAllocNoMore pins what a rule insert allocated before the
// read side was compiled (the rule's heap copy; the slice grows amortised):
// building snapshots is the first reader's job, never the writer's.
func TestMutatingVerbsAllocNoMore(t *testing.T) {
	nf := New()
	p := packet.MustPrefix("198.18.0.0/24")
	r := Rule{Match: Match{Src: &p}, Target: VerdictDrop}
	for i := 0; i < 100; i++ {
		nf.Append("FORWARD", r)
	}
	nf.EvaluateHook(HookForward, &Meta{}) // a snapshot exists and goes stale
	if n := testing.AllocsPerRun(200, func() {
		nf.Insert("FORWARD", 50, r)
		nf.Delete("FORWARD", 50)
	}); n > 1 {
		t.Errorf("Insert+Delete allocate %.1f times, want at most 1", n)
	}
}

// TestFirstWalkersAgree starts eight walkers at once on snapshots nobody has
// walked, so they race to build and publish the chain's index: each must
// get the verdicts and work counts of the reference interpreter, and the
// hit counters must sum what every walker counted.
func TestFirstWalkersAgree(t *testing.T) {
	const walkers, rounds = 8, 16
	ref, dut := New(), New()
	for i := 0; i < 100; i++ {
		r := Rule{Match: Match{Src: gatewayPrefix(i % 50)}, Target: VerdictDrop}
		if i < 50 {
			r.Target = VerdictNone // the first pass only counts
		}
		if i%7 == 0 {
			r.Match.Dst = &packet.Prefix{Addr: packet.AddrFrom4(1, 1, byte(i), 0), Bits: 24 - i%16}
		}
		ref.Append("FORWARD", r)
		dut.Append("FORWARD", r)
	}
	var metas []Meta
	for i := 0; i < 64; i++ {
		metas = append(metas, Meta{
			Src: gatewayPrefix(i).Addr + packet.Addr(i), Dst: packet.AddrFrom4(1, 1, byte(i*3), 1),
			Proto: packet.ProtoUDP,
		})
	}
	type result struct {
		v  Verdict
		st EvalStats
	}
	want := make([]result, len(metas))
	for i := range metas {
		want[i].v, want[i].st = ref.refEvaluateHook(HookForward, &metas[i])
	}
	for round := 0; round < rounds; round++ {
		dut.SetPolicy("FORWARD", VerdictAccept) // a new generation: no index yet
		cp := dut.Snapshot(HookForward)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for w := 0; w < walkers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				for i := range metas {
					m := metas[i]
					if v, st := cp.Evaluate(&m); v != want[i].v || st != want[i].st {
						t.Errorf("round %d packet %d: %v %+v, reference %v %+v", round, i, v, st, want[i].v, want[i].st)
						return
					}
				}
			}()
		}
		close(start)
		wg.Wait()
		if t.Failed() {
			return
		}
	}
	cr, _ := ref.Chain("FORWARD")
	cd, _ := dut.Chain("FORWARD")
	for i := range cr.Rules {
		if got, want := cd.Rules[i].Packets, walkers*rounds*cr.Rules[i].Packets; got != want {
			t.Fatalf("rule %d: %d hits, want %d", i+1, got, want)
		}
	}
}
