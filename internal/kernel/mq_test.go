package kernel

import (
	"bytes"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"linuxfp/internal/fib"
	"linuxfp/internal/netdev"
	"linuxfp/internal/netfilter"
	"linuxfp/internal/packet"
	"linuxfp/internal/sim"
)

// fwdFrame builds a forwardable UDP frame addressed to the router's ingress
// MAC.
func fwdFrame(dstMAC, srcMAC packet.HWAddr, src, dst packet.Addr, sport, dport uint16) []byte {
	u := packet.UDP{SrcPort: sport, DstPort: dport}
	return packet.BuildIPv4(
		packet.Ethernet{Dst: dstMAC, Src: srcMAC, EtherType: packet.EtherTypeIPv4},
		packet.IPv4{TTL: 64, Proto: packet.ProtoUDP, Src: src, Dst: dst},
		u.Marshal(nil, src, dst, make([]byte, 18)),
	)
}

// newFwdRouter builds a standalone two-port router with permanent neighbours
// on both sides, so forwarding never blocks on ARP and ICMP errors always
// have a resolved return path.
func newFwdRouter(t testing.TB) (r *Kernel, r0, r1 *netdev.Device, srcMAC, dstMAC packet.HWAddr) {
	t.Helper()
	r = New("router")
	r0 = r.CreateDevice("eth0", netdev.Physical)
	r1 = r.CreateDevice("eth1", netdev.Physical)
	r0.SetUp(true)
	r1.SetUp(true)
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(r.AddAddr("eth0", packet.MustPrefix("10.1.0.254/24")))
	must(r.AddAddr("eth1", packet.MustPrefix("10.2.0.254/24")))
	r.SetSysctl("net.ipv4.ip_forward", "1")
	srcMAC = packet.MustHWAddr("02:00:00:00:01:01")
	dstMAC = packet.MustHWAddr("02:00:00:00:02:01")
	must(r.AddNeigh("eth0", packet.MustAddr("10.1.0.1"), srcMAC))
	// All 16 destination hosts the tests address resolve permanently.
	for i := 0; i < 16; i++ {
		mac := dstMAC
		mac[5] = byte(i + 1)
		must(r.AddNeigh("eth1", packet.AddrFrom4(10, 2, 0, byte(i+1)), mac))
	}
	return r, r0, r1, srcMAC, dstMAC
}

// TestShardedDatapathRace hammers the datapath from concurrent virtual CPUs
// while the control plane mutates routes, neighbours, firewall rules, and the
// flow-cache sysctl. Run under -race this exercises the lock-free device/TC
// tables, the per-shard counters, and the seqlocked flow cache; the counter
// sum proves no frame was double-counted or lost.
func TestShardedDatapathRace(t *testing.T) {
	r, r0, _, srcMAC, _ := newFwdRouter(t)
	r.SetSysctl("net.core.flow_cache", "1")

	const workers = 8
	const perWorker = 2048

	done := make(chan struct{})
	var mut sync.WaitGroup
	mutate := func(fn func(i int)) {
		mut.Add(1)
		go func() {
			defer mut.Done()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
					fn(i)
				}
			}
		}()
	}
	// Route churn on a prefix the traffic never matches: every add/delete
	// bumps the FIB generation and invalidates all memoized decisions.
	churnPrefix := packet.MustPrefix("10.50.0.0/16")
	mutate(func(i int) {
		r.AddRoute(fib.Route{Prefix: churnPrefix, Gateway: packet.MustAddr("10.2.0.1"), OutIf: 2})
		r.DelRoute(churnPrefix)
	})
	// Neighbour churn on a host no frame is addressed to.
	mutate(func(i int) {
		r.Neigh.AddPermanent(packet.MustAddr("10.2.0.200"), packet.MustHWAddr("02:00:00:00:02:c8"), 2)
		r.Neigh.Delete(packet.MustAddr("10.2.0.200"))
	})
	// Firewall churn with a rule that matches nothing: the traffic stays
	// accepted, but chain evaluation toggles on and off and the netfilter
	// generation bumps.
	never := packet.MustPrefix("10.99.0.0/24")
	mutate(func(i int) {
		r.IptAppend("FORWARD", netfilter.Rule{
			Match: netfilter.Match{Dst: &never}, Target: netfilter.VerdictDrop,
		})
		r.IptFlush("FORWARD")
	})
	// Sysctl churn: the cache flips on and off underneath the workers.
	mutate(func(i int) {
		r.SetSysctl("net.core.flow_cache", "0")
		r.SetSysctl("net.core.flow_cache", "1")
	})

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			m := sim.Meter{CPU: w} // the per-CPU shard contract
			if w%2 == 0 {
				// Even CPUs deliver NAPI-style bursts.
				batch := make([][]byte, 0, 64)
				for i := 0; i < perWorker; i++ {
					batch = append(batch, fwdFrame(r0.MAC, srcMAC,
						packet.MustAddr("10.1.0.1"), packet.AddrFrom4(10, 2, 0, byte(i%16+1)),
						uint16(40000+i%128), 9))
					if len(batch) == 64 {
						r.DeliverBatch(r0, batch, &m)
						batch = batch[:0]
					}
				}
				r.DeliverBatch(r0, batch, &m)
			} else {
				for i := 0; i < perWorker; i++ {
					frame := fwdFrame(r0.MAC, srcMAC,
						packet.MustAddr("10.1.0.1"), packet.AddrFrom4(10, 2, 0, byte(i%16+1)),
						uint16(40000+i%128), 9)
					r.DeliverFrame(r0, frame, &m)
				}
			}
		}(w)
	}
	wg.Wait()
	close(done)
	mut.Wait()

	s := r.Stats()
	const total = workers * perWorker
	if s.Forwarded != total {
		t.Errorf("forwarded %d of %d injected frames (stats %+v)", s.Forwarded, total, s)
	}
	if s.Dropped != 0 || s.NoRoute != 0 || s.TTLExpired != 0 || s.FilterDropped != 0 {
		t.Errorf("unexpected drops under churn: %+v", s)
	}
	// Every frame probed the cache exactly once while it was enabled.
	if s.FlowHits+s.FlowMisses == 0 {
		t.Error("flow cache never probed despite sysctl on")
	}
}

// TestRxWorkerPoolCounts drives the per-queue worker goroutines end to end:
// frames steered by RSS hash, drained by per-CPU workers, counted exactly
// once across shards.
func TestRxWorkerPoolCounts(t *testing.T) {
	r, r0, _, srcMAC, _ := newFwdRouter(t)

	pool := r.StartRxQueues(r0, 4, 16)
	const frames = 1000
	for i := 0; i < frames; i++ {
		pool.Steer(fwdFrame(r0.MAC, srcMAC,
			packet.AddrFrom4(10, 1, 0, byte(i%200+1)), packet.AddrFrom4(10, 2, 0, byte(i%16+1)),
			uint16(40000+i), 9))
	}
	pool.Close()
	r0.SetRxQueues(1)

	var steered uint64
	busy := 0
	for _, qs := range pool.Stats() {
		steered += qs.Packets
		if qs.Packets > 0 {
			busy++
		}
	}
	if steered != frames {
		t.Errorf("queues drained %d frames, want %d", steered, frames)
	}
	if busy < 2 {
		t.Errorf("only %d of 4 queues saw traffic — RSS not spreading", busy)
	}
	if pool.MaxQueueCycles() <= 0 {
		t.Error("busiest queue reports no cycles")
	}
	if got := r.Stats().Forwarded; got != frames {
		t.Errorf("forwarded %d, want %d (stats %+v)", got, frames, r.Stats())
	}
}

// TestFlowCacheHitMatchesSlowPath proves a cache hit emits a byte-identical
// frame to the slow path: same TTL decrement, same MAC rewrite, same egress.
func TestFlowCacheHitMatchesSlowPath(t *testing.T) {
	r, r0, r1, srcMAC, _ := newFwdRouter(t)
	var egress [][]byte
	r1.SetTxHook(func(frame []byte, m *sim.Meter) bool {
		egress = append(egress, append([]byte(nil), frame...))
		return true
	})

	mk := func() []byte {
		return fwdFrame(r0.MAC, srcMAC, packet.MustAddr("10.1.0.1"), packet.MustAddr("10.2.0.1"), 777, 9)
	}
	var m sim.Meter

	// Slow path reference (cache off).
	r.DeliverFrame(r0, mk(), &m)
	// Cache on: first packet misses and installs, second hits.
	r.SetSysctl("net.core.flow_cache", "1")
	r.DeliverFrame(r0, mk(), &m)
	r.DeliverFrame(r0, mk(), &m)

	if len(egress) != 3 {
		t.Fatalf("egress saw %d frames, want 3", len(egress))
	}
	if !bytes.Equal(egress[0], egress[1]) || !bytes.Equal(egress[0], egress[2]) {
		t.Errorf("cache path diverges from slow path:\nslow: %x\nmiss: %x\nhit:  %x",
			egress[0], egress[1], egress[2])
	}
	s := r.Stats()
	if s.FlowHits < 1 {
		t.Errorf("no flow-cache hit recorded: %+v", s)
	}
	if s.Forwarded != 3 {
		t.Errorf("forwarded %d, want 3", s.Forwarded)
	}
}

// TestFlowCacheInvalidation flips every input the cache memoizes — route,
// neighbour, firewall, sysctl — and checks the very next packet observes the
// new state (the generation-bump coherence rule).
func TestFlowCacheInvalidation(t *testing.T) {
	r, r0, r1, srcMAC, _ := newFwdRouter(t)
	// A third port for rerouting.
	r2 := r.CreateDevice("eth2", netdev.Physical)
	r2.SetUp(true)
	if err := r.AddAddr("eth2", packet.MustPrefix("10.3.0.254/24")); err != nil {
		t.Fatal(err)
	}
	if err := r.AddNeigh("eth2", packet.MustAddr("10.3.0.1"), packet.MustHWAddr("02:00:00:00:03:01")); err != nil {
		t.Fatal(err)
	}

	var onR1, onR2 [][]byte
	r1.SetTxHook(func(frame []byte, m *sim.Meter) bool {
		onR1 = append(onR1, append([]byte(nil), frame...))
		return true
	})
	r2.SetTxHook(func(frame []byte, m *sim.Meter) bool {
		onR2 = append(onR2, append([]byte(nil), frame...))
		return true
	})

	r.SetSysctl("net.core.flow_cache", "1")
	var m sim.Meter
	inject := func() {
		r.DeliverFrame(r0, fwdFrame(r0.MAC, srcMAC,
			packet.MustAddr("10.1.0.1"), packet.MustAddr("10.2.0.1"), 777, 9), &m)
	}

	// Warm: install + verify a hit toward eth1.
	inject()
	inject()
	if r.Stats().FlowHits < 1 {
		t.Fatalf("cache not warm: %+v", r.Stats())
	}
	if len(onR1) != 2 {
		t.Fatalf("warmup frames on eth1: %d, want 2", len(onR1))
	}

	// (a) A more specific route steals the flow: the cached decision must
	// die with the FIB generation bump, not keep forwarding out eth1.
	steal := packet.MustPrefix("10.2.0.0/25")
	r.AddRoute(fib.Route{Prefix: steal, Gateway: packet.MustAddr("10.3.0.1"), OutIf: r2.Index})
	inject()
	if len(onR2) != 1 || len(onR1) != 2 {
		t.Fatalf("route change not observed: eth1=%d eth2=%d", len(onR1), len(onR2))
	}
	r.DelRoute(steal)

	// (b) The next hop's MAC changes: the next packet must carry it.
	newMAC := packet.MustHWAddr("02:00:00:00:02:ee")
	if err := r.AddNeigh("eth1", packet.MustAddr("10.2.0.1"), newMAC); err != nil {
		t.Fatal(err)
	}
	inject()
	if len(onR1) != 3 {
		t.Fatalf("frame did not return to eth1 after route delete: %d", len(onR1))
	}
	if got := packet.EthDst(onR1[2]); got != newMAC {
		t.Errorf("stale neighbour MAC after update: got %v, want %v", got, newMAC)
	}

	// (c) A drop rule appears: cached forwarding must not bypass it.
	blocked := packet.MustPrefix("10.2.0.0/24")
	if err := r.IptAppend("FORWARD", netfilter.Rule{
		Match: netfilter.Match{Dst: &blocked}, Target: netfilter.VerdictDrop,
	}); err != nil {
		t.Fatal(err)
	}
	fwdBefore := r.Stats().Forwarded
	inject()
	if len(onR1) != 3 {
		t.Errorf("packet bypassed new FORWARD drop rule via cache")
	}
	if s := r.Stats(); s.FilterDropped != 1 || s.Forwarded != fwdBefore {
		t.Errorf("drop not accounted: %+v", s)
	}
	if err := r.IptFlush("FORWARD"); err != nil {
		t.Fatal(err)
	}

	// (d) Sysctl off: forwarding continues on the slow path, no new hits.
	inject()
	inject() // re-warm after the flush bumped generations
	hits := r.Stats().FlowHits
	r.SetSysctl("net.core.flow_cache", "0")
	inject()
	if r.Stats().FlowHits != hits {
		t.Errorf("cache hit while disabled")
	}
	if len(onR1) != 6 {
		t.Errorf("slow path lost frames after disable: eth1=%d, want 6", len(onR1))
	}
}

// TestFlowCacheNeverOutlivesConcurrentChange is the invalidation test with
// the control plane and the datapath running at once. FIB, neighbour and
// netfilter reads take no lock, so the flow cache is only coherent if every
// writer publishes before it bumps its generation and every reader captures
// the generation before it reads: a decision read from old state must never
// be stamped with the generation of the new one. Workers forward (and fill
// their per-CPU caches) while a writer flips a stealing route, a FORWARD
// drop and the next hop's MAC; each time the writer pauses, the next frame
// on every CPU must follow the state it left — whatever was memoized
// during the flips has to be dead.
func TestFlowCacheNeverOutlivesConcurrentChange(t *testing.T) {
	r, r0, r1, srcMAC, dstMAC := newFwdRouter(t)
	r2 := r.CreateDevice("eth2", netdev.Physical)
	r2.SetUp(true)
	if err := r.AddAddr("eth2", packet.MustPrefix("10.3.0.254/24")); err != nil {
		t.Fatal(err)
	}
	if err := r.AddNeigh("eth2", packet.MustAddr("10.3.0.1"), packet.MustHWAddr("02:00:00:00:03:01")); err != nil {
		t.Fatal(err)
	}
	r.SetSysctl("net.core.flow_cache", "1")

	const workers = 4
	type seen struct {
		dev int // 0: the frame left on no device
		dst packet.HWAddr
	}
	var last [workers]seen // slot w is touched only by worker w (the hooks run on its goroutine)
	for _, d := range []*netdev.Device{r1, r2} {
		d.SetTxHook(func(frame []byte, m *sim.Meter) bool {
			last[m.CPU] = seen{d.Index, packet.EthDst(frame)}
			return true
		})
	}

	// The state the writer leaves behind at the end of a round.
	var steal, drop bool
	mac := dstMAC
	mac[5] = 1
	stealP, dst := packet.MustPrefix("10.2.0.0/25"), packet.MustPrefix("10.2.0.0/24")
	flip := func(what int) {
		switch what {
		case 0:
			if steal = !steal; steal {
				r.AddRoute(fib.Route{Prefix: stealP, Gateway: packet.MustAddr("10.3.0.1"), OutIf: r2.Index})
			} else {
				r.DelRoute(stealP)
			}
		case 1:
			if drop = !drop; drop {
				r.IptAppend("FORWARD", netfilter.Rule{Match: netfilter.Match{Dst: &dst}, Target: netfilter.VerdictDrop})
			} else {
				r.IptFlush("FORWARD")
			}
		case 2:
			mac[4] ^= 0x10
			r.AddNeigh("eth1", packet.MustAddr("10.2.0.1"), mac)
		}
	}
	want := func() seen {
		switch {
		case drop:
			return seen{}
		case steal:
			return seen{r2.Index, packet.MustHWAddr("02:00:00:00:03:01")}
		}
		return seen{r1.Index, mac}
	}

	var round atomic.Int64 // odd while the writer is flipping
	var injected atomic.Int64
	var expect atomic.Pointer[seen]
	var acks sync.WaitGroup
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			m := sim.Meter{CPU: w}
			inject := func() seen {
				last[w] = seen{}
				r.DeliverFrame(r0, fwdFrame(r0.MAC, srcMAC, packet.MustAddr("10.1.0.1"), packet.MustAddr("10.2.0.1"), 777, 9), &m)
				injected.Add(1)
				return last[w]
			}
			checked := int64(0)
			for {
				switch at := round.Load(); {
				case at < 0:
					return
				case at == checked:
					runtime.Gosched() // waiting for the other CPUs' checks
				case at%2 == 1:
					inject() // racing the writer: whatever this memoizes may already be stale
					runtime.Gosched()
				default:
					// The first frame may not use what the race memoized; the
					// second may use what the first did.
					for i := 0; i < 2; i++ {
						if got, exp := inject(), *expect.Load(); got != exp {
							t.Errorf("round %d cpu %d: frame went %+v, the state left behind says %+v", at/2, w, got, exp)
						}
					}
					checked = at
					acks.Done()
				}
			}
		}(w)
	}
	rng := rand.New(rand.NewSource(1))
	for i := int64(0); i < 1000 && !t.Failed(); i++ {
		round.Store(2*i + 1)
		for n := 1 + rng.Intn(6); n > 0; n-- {
			// Let frames through between flips, so each flip has readers in flight.
			for seen := injected.Load(); injected.Load() < seen+workers; {
				runtime.Gosched()
			}
			flip(rng.Intn(3))
		}
		exp := want()
		expect.Store(&exp)
		acks.Add(workers)
		round.Store(2*i + 2)
		acks.Wait()
	}
	round.Store(-1)
	wg.Wait()
	if s := r.Stats(); s.FlowHits == 0 {
		t.Errorf("the flow cache never hit: %+v", s)
	}
}

// TestL2CacheStationMove warms the bridged fast path and then moves the
// destination station to another port: the bridge generation bump must kill
// the memoized decision immediately.
func TestL2CacheStationMove(t *testing.T) {
	swk := New("sw")
	_, br := swk.CreateBridge("br0")
	brDev, _ := swk.DeviceByName("br0")
	brDev.SetUp(true)

	ports := make([]*netdev.Device, 3)
	for i := range ports {
		ports[i] = swk.CreateDevice("swp"+string(rune('0'+i)), netdev.Physical)
		ports[i].SetUp(true)
		if err := swk.AddBridgePort("br0", ports[i].Name); err != nil {
			t.Fatal(err)
		}
	}
	macA := packet.MustHWAddr("02:00:00:00:0a:01")
	macB := packet.MustHWAddr("02:00:00:00:0b:01")
	br.AddStatic(macA, 0, ports[0].Index)
	br.AddStatic(macB, 0, ports[1].Index)
	swk.SetSysctl("net.core.flow_cache", "1")

	var onP1, onP2 int
	ports[1].SetTxHook(func(frame []byte, m *sim.Meter) bool { onP1++; return true })
	ports[2].SetTxHook(func(frame []byte, m *sim.Meter) bool { onP2++; return true })

	var m sim.Meter
	inject := func() {
		swk.DeliverFrame(ports[0], fwdFrame(macB, macA,
			packet.MustAddr("10.9.0.1"), packet.MustAddr("10.9.0.2"), 5000, 5001), &m)
	}
	inject() // learn + install
	inject() // hit
	if onP1 != 2 || onP2 != 0 {
		t.Fatalf("warmup egress p1=%d p2=%d, want 2/0", onP1, onP2)
	}
	if swk.Stats().FlowHits < 1 {
		t.Fatalf("L2 cache never hit: %+v", swk.Stats())
	}

	// Station B moves to port 2.
	br.AddStatic(macB, 0, ports[2].Index)
	inject()
	if onP2 != 1 || onP1 != 2 {
		t.Errorf("station move not observed: p1=%d p2=%d, want 2/1", onP1, onP2)
	}
}
