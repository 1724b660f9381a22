package fib

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"

	"linuxfp/internal/packet"
)

// bruteLookup is the reference: the longest prefix containing dst, lowest
// metric on ties.
func bruteLookup(routes []Route, dst packet.Addr) (best Route, found bool) {
	for _, r := range routes {
		if !r.Prefix.Contains(dst) {
			continue
		}
		if !found || r.Prefix.Bits > best.Prefix.Bits ||
			(r.Prefix.Bits == best.Prefix.Bits && r.Metric < best.Metric) {
			best, found = r, true
		}
	}
	return best, found
}

// shape walks the trie, checks what Lookup relies on (a child extends its
// parent's prefix on the side its slot names; best is the head of routes)
// and what Delete promises (no route-less node is kept unless it forks), and
// returns the node count.
func shape(t testing.TB, tbl *Table) int {
	t.Helper()
	tbl.mu.RLock()
	defer tbl.mu.RUnlock()
	count := 0
	var walk func(n *node, root bool)
	walk = func(n *node, root bool) {
		count++
		if (n.best.Load() == nil) != (len(n.routes) == 0) || (len(n.routes) > 0 && n.best.Load() != &n.routes[0]) {
			t.Fatalf("node %v: best does not head its %d routes", n.prefix, len(n.routes))
		}
		kids := 0
		for b := range n.child {
			c := n.child[b].Load()
			if c == nil {
				continue
			}
			kids++
			if c.prefix.Bits <= n.prefix.Bits || !n.prefix.Contains(c.prefix.Addr) || bitAt(c.prefix.Addr, n.prefix.Bits) != b {
				t.Fatalf("node %v has child %v in slot %d", n.prefix, c.prefix, b)
			}
			walk(c, false)
		}
		if !root && len(n.routes) == 0 && kids < 2 {
			t.Fatalf("node %v holds no route and has %d children", n.prefix, kids)
		}
	}
	walk(tbl.root.Load(), true)
	return count
}

// TestRandomOpsMatchBruteForce drives add / replace / delete-by-metric /
// delete-all / flush over a small, heavily nested prefix pool and compares
// Routes() with a model and Lookup with a brute-force scan after every step.
func TestRandomOpsMatchBruteForce(t *testing.T) {
	type key struct {
		p      packet.Prefix
		metric int
	}
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tbl := NewTable()
		model := map[key]Route{}
		prefix := func() packet.Prefix {
			bits := []int{0, 1, 7, 8, 9, 16, 24, 30, 31, 32}[rng.Intn(10)]
			a := packet.AddrFrom4(10, byte(rng.Intn(2)), byte(rng.Intn(2)<<7), byte(rng.Intn(4)))
			return packet.Prefix{Addr: a, Bits: bits}
		}
		for step := 0; step < 600; step++ {
			gen, changed := tbl.Gen(), true
			p := prefix()
			switch op := rng.Intn(10); {
			case op < 5:
				r := Route{Prefix: p, OutIf: step + 1, Metric: rng.Intn(3) * 10}
				tbl.Add(r) // unmasked on purpose: Add masks
				r.Prefix = p.Masked()
				model[key{r.Prefix, r.Metric}] = r
			case op < 7:
				k := key{p.Masked(), rng.Intn(3) * 10}
				_, had := model[k]
				if got := tbl.Delete(p, k.metric); got != had {
					t.Fatalf("seed %d step %d: Delete(%v, %d) = %v, model had it: %v", seed, step, p, k.metric, got, had)
				}
				delete(model, k)
				changed = had
			case op < 9:
				had := false
				for k := range model {
					if k.p == p.Masked() {
						had = true
						delete(model, k)
					}
				}
				if got := tbl.Delete(p, -1); got != had {
					t.Fatalf("seed %d step %d: Delete(%v, -1) = %v, want %v", seed, step, p, got, had)
				}
				changed = had
			default:
				if rng.Intn(8) != 0 {
					continue
				}
				tbl.Flush()
				model = map[key]Route{}
			}
			want := make([]Route, 0, len(model))
			for _, r := range model {
				want = append(want, r)
			}
			got := tbl.Routes() // in (prefix, metric) order
			sort.Slice(want, func(i, j int) bool {
				a, b := want[i], want[j]
				if a.Prefix != b.Prefix {
					return a.Prefix.Addr < b.Prefix.Addr || (a.Prefix.Addr == b.Prefix.Addr && a.Prefix.Bits < b.Prefix.Bits)
				}
				return a.Metric < b.Metric
			})
			if len(got) != len(want) || (len(got) > 0 && !reflect.DeepEqual(got, want)) || tbl.Len() != len(want) {
				t.Fatalf("seed %d step %d: Routes() = %v (Len %d), model %v", seed, step, got, tbl.Len(), want)
			}
			shape(t, tbl)
			for probe := 0; probe < 24; probe++ {
				dst := prefix().Addr | packet.Addr(rng.Intn(4))
				wr, wok := bruteLookup(want, dst)
				gr, gok := tbl.Lookup(dst)
				if gok != wok || gr != wr {
					t.Fatalf("seed %d step %d: Lookup(%v) = %v %v, brute force %v %v", seed, step, dst, gr, gok, wr, wok)
				}
			}
			if changed != (tbl.Gen() != gen) {
				t.Fatalf("seed %d step %d: changed %v, generation %d -> %d", seed, step, changed, gen, tbl.Gen())
			}
		}
	}
}

// TestDeletePrunes: 10 000 distinct add/delete pairs (the churn workload's
// pattern) leave the trie exactly as large as its standing routes need, and
// those still resolve.
func TestDeletePrunes(t *testing.T) {
	tbl := NewTable()
	standing := []Route{
		route("0.0.0.0/0", "192.0.2.1", 1, 0),
		route("10.0.0.0/8", "192.0.2.2", 2, 0),
		route("10.200.0.0/16", "192.0.2.3", 3, 0),
		route("10.200.7.0/24", "192.0.2.4", 4, 0),
		route("10.239.255.128/25", "192.0.2.5", 5, 0),
	}
	for _, r := range standing {
		tbl.Add(r)
	}
	start := shape(t, tbl)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 10000; i++ {
		p := packet.Prefix{Addr: packet.AddrFrom4(10, byte(200+i%40), byte(i/40), 0), Bits: 24}
		tbl.Add(Route{Prefix: p, Gateway: packet.MustAddr("192.0.2.9"), OutIf: 9})
		if i%3 == 0 { // sometimes two live at once, removed in the other order
			q := packet.Prefix{Addr: p.Addr | 0x80, Bits: 25 + rng.Intn(7)}
			tbl.Add(Route{Prefix: q, OutIf: 9})
			tbl.Delete(p, 0)
			tbl.Delete(q, -1)
		} else if !tbl.Delete(p, -1) && p != standing[3].Prefix {
			t.Fatalf("pair %d: %v was not there to delete", i, p)
		}
	}
	tbl.Add(standing[3]) // the pairs ran over 10.200.7.0/24 once
	if n := shape(t, tbl); n != start {
		t.Fatalf("trie holds %d nodes after the pairs, %d before", n, start)
	}
	for _, r := range standing {
		if got, ok := tbl.Lookup(r.Prefix.Addr | 1); !ok || got != r {
			t.Fatalf("standing route %v resolves to %v %v", r, got, ok)
		}
	}
}

// TestLookupSeesSomeGeneration cycles the table through six states, one
// generation bump each, so the answer for two probes is a function of the
// generation. A lock-free Lookup bracketed by generation loads must return
// the answer of a generation inside the bracket, or of the one change that
// was published but not yet counted when the bracket closed. The cycle
// contains the pair a lock-free trie gets wrong without the generation
// re-check in Lookup: a covering route added above, then the covered one
// deleted below — a walk that passed the upper node before the first and
// reached the lower one after the second finds neither.
func TestLookupSeesSomeGeneration(t *testing.T) {
	tbl := NewTable()
	p8, p16, p24 := packet.MustPrefix("10.0.0.0/8"), packet.MustPrefix("10.1.0.0/16"), packet.MustPrefix("10.1.2.0/24")
	tbl.Add(Route{Prefix: p24, OutIf: 24})
	base := tbl.Gen()
	probes := [2]packet.Addr{packet.MustAddr("10.1.2.3"), packet.MustAddr("10.9.9.9")}
	want := [][2]int{{24, 0}, {24, 8}, {8, 8}, {16, 8}, {24, 8}, {24, 8}} // OutIf per probe; 0 is no route
	cycle := []func(){
		func() { tbl.Add(Route{Prefix: p8, OutIf: 8}) },
		func() { tbl.Delete(p24, -1) },
		func() { tbl.Add(Route{Prefix: p16, OutIf: 16}) },
		func() { tbl.Add(Route{Prefix: p24, OutIf: 24}) },
		func() { tbl.Delete(p16, 0) },
		func() { tbl.Delete(p8, 0) },
	}
	var stop atomic.Bool
	var reads atomic.Int64
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				reads.Add(1)
				g1 := tbl.Gen()
				got, _ := tbl.Lookup(probes[i%2])
				g2 := tbl.Gen()
				ok := false
				for g := g1; g <= g2+1; g++ {
					ok = ok || want[(g-base)%uint64(len(want))][i%2] == got.OutIf
				}
				if !ok {
					t.Errorf("gens %d..%d: Lookup(%v) went out if %d", g1-base, g2-base, probes[i%2], got.OutIf)
					return
				}
			}
		}()
	}
	for i := 0; reads.Load() < 40000 && !t.Failed(); i++ {
		cycle[i%len(cycle)]()
	}
	stop.Store(true)
	wg.Wait()
}

// TestAddAllocsNoMore pins what a route add allocated before lookups went
// lock-free: the trie node and the one-element route list.
func TestAddAllocsNoMore(t *testing.T) {
	tbl := NewTable()
	tbl.Add(route("10.0.0.0/8", "192.0.2.1", 1, 0))
	p := packet.MustPrefix("10.201.7.0/24")
	r := Route{Prefix: p, Gateway: packet.MustAddr("192.0.2.1"), OutIf: 1}
	if n := testing.AllocsPerRun(200, func() {
		tbl.Add(r)
		tbl.Delete(p, -1)
	}); n > 2 {
		t.Errorf("Add+Delete allocate %.1f times, want at most 2", n)
	}
}

// TestFIBLookupSeesSomeGeneration is TestLookupSeesSomeGeneration across
// both tables: the writer cycles routes on local and main through eight
// states, one generation bump each, so FIB.Gen names the state. The cycle
// has a local /32 appear inside a main /16, and a main /24 deleted under a
// local /8, so a snapshot stamped with one table's generation and built from
// another's trie answers wrong.
func TestFIBLookupSeesSomeGeneration(t *testing.T) {
	f := New()
	m16, m24 := packet.MustPrefix("10.1.0.0/16"), packet.MustPrefix("10.1.2.0/24")
	l8, l32 := packet.MustPrefix("10.0.0.0/8"), packet.MustPrefix("10.1.2.3/32")
	f.Main().Add(Route{Prefix: m24, OutIf: 24})
	base := f.Gen()
	probes := [2]packet.Addr{packet.MustAddr("10.1.2.3"), packet.MustAddr("10.1.9.9")}
	// OutIf per probe in each state; local routes are 100 + their length, 0 is no route.
	want := [][2]int{{24, 0}, {24, 16}, {132, 16}, {132, 108}, {132, 108}, {108, 108}, {108, 108}, {24, 16}}
	cycle := []func(){
		func() { f.Main().Add(Route{Prefix: m16, OutIf: 16}) },
		func() { f.Local().Add(Route{Prefix: l32, OutIf: 132, Local: true}) },
		func() { f.Local().Add(Route{Prefix: l8, OutIf: 108, Local: true}) },
		func() { f.Main().Delete(m24, -1) },
		func() { f.Local().Delete(l32, 0) },
		func() { f.Main().Add(Route{Prefix: m24, OutIf: 24}) },
		func() { f.Local().Delete(l8, -1) },
		func() { f.Main().Delete(m16, 0) },
	}
	var stop atomic.Bool
	var reads atomic.Int64
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				reads.Add(1)
				g1 := f.Gen()
				got, _ := f.Lookup(probes[i%2])
				g2 := f.Gen()
				ok := false
				for g := g1; g <= g2+1; g++ {
					ok = ok || want[(g-base)%uint64(len(want))][i%2] == got.OutIf
				}
				if !ok {
					t.Errorf("gens %d..%d: Lookup(%v) went out if %d", g1-base, g2-base, probes[i%2], got.OutIf)
					return
				}
			}
		}()
	}
	for i := 0; reads.Load() < 40000 && !t.Failed(); i++ {
		cycle[i%len(cycle)]()
	}
	stop.Store(true)
	wg.Wait()
}

// routerFIB is the router64 shape: one local address and n main routes of
// /16 to /24, with 1024 destinations to look up and the snapshot built.
func routerFIB(n int) (*FIB, []packet.Addr) {
	f := New()
	rng := rand.New(rand.NewSource(1))
	f.Local().Add(Route{Prefix: packet.MustPrefix("10.1.0.254/32"), Scope: ScopeHost, Local: true})
	for i := 0; i < n; i++ {
		f.Main().Add(Route{Prefix: packet.Prefix{Addr: packet.Addr(rng.Uint32()), Bits: 16 + rng.Intn(9)}, OutIf: i})
	}
	dsts := make([]packet.Addr, 1024)
	for i := range dsts {
		dsts[i] = packet.Addr(rng.Uint32())
	}
	f.Lookup(dsts[0])
	return f, dsts
}

// TestFIBLookupAllocsNothing: once the snapshot is built, a lookup allocates
// nothing.
func TestFIBLookupAllocsNothing(t *testing.T) {
	f, dsts := routerFIB(50)
	i := 0
	if n := testing.AllocsPerRun(1000, func() {
		f.Lookup(dsts[i%len(dsts)])
		i++
	}); n != 0 {
		t.Errorf("FIB.Lookup allocates %.1f times, want 0", n)
	}
}

var sinkRoute Route

func BenchmarkFIBLookup(b *testing.B) {
	f, dsts := routerFIB(50)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkRoute, _ = f.Lookup(dsts[i%len(dsts)])
	}
}

func BenchmarkFIBLookupParallel(b *testing.B) {
	f, dsts := routerFIB(50)
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for i := 0; pb.Next(); i++ {
			f.Lookup(dsts[i%len(dsts)])
		}
	})
}

// BenchmarkFIBRebuild times what the first lookup after a route change pays
// (ns/op) on router-shaped tables of growing size, and reports what the
// snapshot holds (flat_bytes) and its node count.
func BenchmarkFIBRebuild(b *testing.B) {
	for _, n := range []int{50, 1000, 10000} {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			f, _ := routerFIB(n)
			f.local.mu.RLock()
			defer f.local.mu.RUnlock()
			f.main.mu.RLock()
			defer f.main.mu.RUnlock()
			var s *flat
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s = newFlat(f.local, f.main, 0, 0)
			}
			// 1 KiB per node plus the routes the entries index.
			bytes := cap(s.nodes)*int(unsafe.Sizeof(s.nodes[0])) + cap(s.routes)*int(unsafe.Sizeof(Route{}))
			b.ReportMetric(float64(bytes), "flat_bytes")
			b.ReportMetric(float64(len(s.nodes)), "nodes")
		})
	}
}
