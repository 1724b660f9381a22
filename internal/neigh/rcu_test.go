package neigh

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"linuxfp/internal/packet"
	"linuxfp/internal/sim"
)

// refTable is the table as it was before reads went lock-free: one map, and
// a Lookup that downgrades the stored entry in place. With a clock that
// never runs backwards the two must agree on every answer.
type refTable map[packet.Addr]*Entry

func (r refTable) lookup(ip packet.Addr, now sim.Time) (Entry, bool) {
	e, ok := r[ip]
	if !ok {
		return Entry{}, false
	}
	if e.State == Reachable && now.Sub(e.Confirmed) > sim.Duration(ReachableTime) {
		e.State = Stale
	}
	return *e, true
}

// TestRandomOpsMatchReference interleaves every writer with every reader on
// a rising clock that keeps landing on ageing boundaries.
func TestRandomOpsMatchReference(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tb, ref := NewTable(), refTable{}
		now := sim.Time(0)
		for step := 0; step < 2000; step++ {
			now = now.Add(sim.Duration(ReachableTime) / 4 * sim.Duration(rng.Intn(3)))
			ip := packet.AddrFrom4(10, 0, 0, byte(rng.Intn(6)))
			mac := packet.HWAddr{2, 0, 0, 0, 0, byte(rng.Intn(4))}
			switch rng.Intn(8) {
			case 0, 1:
				tb.Confirm(ip, mac, 1, now)
				if e, ok := ref[ip]; !ok || e.State != Permanent {
					ref[ip] = &Entry{IP: ip, MAC: mac, IfIndex: 1, State: Reachable, Confirmed: now}
				}
			case 2:
				tb.AddPermanent(ip, mac, 2)
				ref[ip] = &Entry{IP: ip, MAC: mac, IfIndex: 2, State: Permanent}
			case 3:
				_, had := ref[ip]
				if tb.Delete(ip) != had {
					t.Fatalf("seed %d step %d: Delete(%v) disagrees with the reference", seed, step, ip)
				}
				delete(ref, ip)
			case 4:
				if rng.Intn(4) == 0 {
					tb.StartResolution(ip, 3, []byte{1})
					if e, ok := ref[ip]; !ok || e.State != Incomplete {
						ref[ip] = &Entry{IP: ip, IfIndex: 3, State: Incomplete}
					}
				}
			}
			want, wok := ref.lookup(ip, now)
			got, ok := tb.Lookup(ip, now)
			if ok != wok || got != want {
				t.Fatalf("seed %d step %d: Lookup(%v, %v) = %+v %v, reference %+v %v", seed, step, ip, now, got, ok, want, wok)
			}
			usable := wok && (want.State == Reachable || want.State == Permanent)
			if mac, ok := tb.Resolved(ip, now); ok != usable || (ok && mac != want.MAC) {
				t.Fatalf("seed %d step %d: Resolved(%v) = %v %v, reference entry %+v", seed, step, ip, mac, ok, want)
			}
			if mac, exp, ok := tb.ResolvedFull(ip, now); ok != usable || (ok && (mac != want.MAC || exp < now)) {
				t.Fatalf("seed %d step %d: ResolvedFull(%v) = %v %v %v at %v", seed, step, ip, mac, exp, ok, now)
			}
			es := tb.Entries(now)
			if len(es) != len(ref) || tb.Len() != len(ref) {
				t.Fatalf("seed %d step %d: %d entries, reference %d", seed, step, len(es), len(ref))
			}
			for _, e := range es {
				if l, _ := tb.Lookup(e.IP, now); l != e {
					t.Fatalf("seed %d step %d: Entries has %+v, Lookup %+v", seed, step, e, l)
				}
			}
		}
	}
}

// TestResolvedSeesSomeGeneration cycles one binding through five states, a
// generation bump each, while readers bracket Resolved with the generation:
// the MAC must be that of a generation inside the bracket.
func TestResolvedSeesSomeGeneration(t *testing.T) {
	tb := NewTable()
	base := tb.Gen()
	macs := []packet.HWAddr{{}, {2, 0, 0, 0, 0, 1}, {2, 0, 0, 0, 0, 2}, {}, {2, 0, 0, 0, 0, 3}} // zero: unresolved
	cycle := []func(){
		func() { tb.Confirm(ip1, macs[1], 1, 0) },
		func() { tb.Confirm(ip1, macs[2], 1, 0) },
		func() { tb.Delete(ip1) },
		func() { tb.AddPermanent(ip1, macs[4], 1) },
		func() { tb.Delete(ip1) },
	}
	var stop atomic.Bool
	var reads atomic.Int64
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				reads.Add(1)
				g1 := tb.Gen()
				got, _ := tb.Resolved(ip1, 1)
				g2 := tb.Gen()
				ok := false
				for g := g1; g <= g2; g++ {
					ok = ok || macs[(g-base)%uint64(len(macs))] == got
				}
				if !ok {
					t.Errorf("gens %d..%d: Resolved returned %v", g1-base, g2-base, got)
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

// TestConfirmAllocsNoMore pins what refreshing a known binding allocated
// before reads went lock-free: nothing. Copying the map for readers is the
// first reader's job.
func TestConfirmAllocsNoMore(t *testing.T) {
	tb := NewTable()
	tb.Confirm(ip1, mac1, 1, 0)
	tb.Resolved(ip1, 0) // a view exists and goes stale
	if n := testing.AllocsPerRun(200, func() { tb.Confirm(ip1, mac2, 1, 1) }); n != 0 {
		t.Errorf("Confirm of a known binding allocates %.1f times", n)
	}
}

func BenchmarkNeighResolvedParallel(b *testing.B) {
	tb := NewTable()
	for i := 0; i < 64; i++ {
		tb.AddPermanent(packet.AddrFrom4(10, 2, 0, byte(i)), mac1, 2)
	}
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for i := 0; pb.Next(); i++ {
			tb.Resolved(packet.AddrFrom4(10, 2, 0, byte(i%64)), 0)
		}
	})
}
