package ebpf

import (
	"testing"

	"linuxfp/internal/drop"
	"linuxfp/internal/kernel"
	"linuxfp/internal/netdev"
	"linuxfp/internal/packet"
	"linuxfp/internal/sim"
)

func newCpumapKernel(t testing.TB) (*kernel.Kernel, *netdev.Device) {
	t.Helper()
	k := kernel.New("dut")
	d := k.CreateDevice("eth0", netdev.Physical)
	d.SetUp(true)
	return k, d
}

func TestCPUMapUpdateLookupDelete(t *testing.T) {
	k, _ := newCpumapKernel(t)
	cm := NewCPUMap("cpu_map", k)
	if cm.Len() != MapCPUs {
		t.Fatalf("Len = %d, want %d", cm.Len(), MapCPUs)
	}
	if _, ok := cm.Lookup(3); ok {
		t.Fatal("empty slot reported occupied")
	}
	if cm.Update(-1, 64) || cm.Update(MapCPUs, 64) || cm.Update(0, 0) {
		t.Fatal("invalid update accepted")
	}
	if !cm.Update(3, 192) {
		t.Fatal("valid update rejected")
	}
	defer cm.Delete(3)
	if q, ok := cm.Lookup(3); !ok || q != 192 {
		t.Fatalf("Lookup(3) = %d/%v, want 192/true", q, ok)
	}
	// Replacing swaps in a new entry (the old kthread is stopped/drained).
	if !cm.Update(3, 64) {
		t.Fatal("replace rejected")
	}
	if q, _ := cm.Lookup(3); q != 64 {
		t.Fatalf("replaced qsize = %d, want 64", q)
	}
	if !cm.Delete(3) {
		t.Fatal("delete of live slot failed")
	}
	if cm.Delete(3) {
		t.Fatal("double delete succeeded")
	}
	if _, ok := cm.Lookup(3); ok {
		t.Fatal("deleted slot still occupied")
	}
}

// TestCPUMapRingOverflowAccounting: a 64-frame poll into a qsize-8 entry
// overflows, and every lost frame surfaces in the producer's dropped count.
// The first spill into the empty ring wakes the kthread immediately, so it
// races the producer and the exact split is nondeterministic — but the
// accounting must conserve: enqueued + dropped == injected, the returned
// drop count matches the counters, and the first spill always fits.
func TestCPUMapRingOverflowAccounting(t *testing.T) {
	k, d := newCpumapKernel(t)
	cm := NewCPUMap("cpu_map", k)
	if !cm.Update(1, 8) {
		t.Fatal("update failed")
	}
	defer cm.Delete(1)

	frame := make([]byte, 64)
	var m sim.Meter
	dropped := 0
	for i := 0; i < 64; i++ {
		dr, ok := cm.EnqueueCPU(0, 1, d, frame, &m)
		if !ok {
			t.Fatalf("frame %d: enqueue to live entry failed", i)
		}
		dropped += dr
	}
	dropped += cm.FlushCPU(0, &m)
	cm.Quiesce()
	st := k.Stats()
	if st.CpumapEnqueued+st.CpumapDrops != 64 {
		t.Fatalf("enqueued %d + drops %d != 64 injected", st.CpumapEnqueued, st.CpumapDrops)
	}
	if uint64(dropped) != st.CpumapDrops {
		t.Fatalf("returned drop count %d != counter %d", dropped, st.CpumapDrops)
	}
	if st.CpumapEnqueued < 8 {
		t.Fatalf("enqueued = %d, want >= 8 (the first spill fits an empty qsize-8 ring)", st.CpumapEnqueued)
	}
}

// TestCPUMapSpillWakesKthread: one bulk spill into an empty ring delivers
// with no FlushCPU at all — the wasEmpty doorbell is the only wakeup — and
// kthread runs count actual wakeups, not drain iterations.
func TestCPUMapSpillWakesKthread(t *testing.T) {
	k, d := newCpumapKernel(t)
	cm := NewCPUMap("cpu_map", k)
	if !cm.Update(1, 256) {
		t.Fatal("update failed")
	}
	defer cm.Delete(1)

	// Staging spills lazily: the stage fills at CPUMapBulkSize and the next
	// enqueue pushes the batch, so bulk+1 frames produce exactly one spill
	// with one frame left staged.
	frame := make([]byte, 64)
	var m sim.Meter
	for i := 0; i < netdev.CPUMapBulkSize+1; i++ {
		if _, ok := cm.EnqueueCPU(0, 1, d, frame, &m); !ok {
			t.Fatalf("frame %d: enqueue failed", i)
		}
	}
	// No FlushCPU: Quiesce only returns if the spill itself rang the
	// doorbell (a sleeping kthread would hang the test).
	cm.Quiesce()
	st := k.Stats()
	if st.CpumapEnqueued != uint64(netdev.CPUMapBulkSize) {
		t.Fatalf("CpumapEnqueued = %d, want %d", st.CpumapEnqueued, netdev.CPUMapBulkSize)
	}
	if st.CpumapKthreadRuns < 1 {
		t.Fatal("spill did not wake the kthread")
	}

	// The staged remainder still needs the end-of-poll flush; its doorbell
	// either wakes the kthread again or coalesces with a pending one, so
	// runs grow by at most one.
	runsAfterSpill := st.CpumapKthreadRuns
	for i := 0; i < 3; i++ {
		cm.EnqueueCPU(0, 1, d, frame, &m)
	}
	cm.FlushCPU(0, &m)
	cm.Quiesce()
	st = k.Stats()
	if st.CpumapEnqueued != uint64(netdev.CPUMapBulkSize)+4 {
		t.Fatalf("CpumapEnqueued = %d, want %d", st.CpumapEnqueued, netdev.CPUMapBulkSize+4)
	}
	if st.CpumapKthreadRuns < runsAfterSpill || st.CpumapKthreadRuns > runsAfterSpill+1 {
		t.Fatalf("KthreadRuns = %d after flush, want %d or %d (wakeups coalesce)",
			st.CpumapKthreadRuns, runsAfterSpill, runsAfterSpill+1)
	}
}

// TestCPUMapValueProgDrop: an entry installed with a CPUMAP_VALUE_PROG that
// drops re-runs XDP on the target CPU after dequeue; dropped frames are
// tagged xdp_drop and the ledger conserves.
func TestCPUMapValueProgDrop(t *testing.T) {
	k, d := newCpumapKernel(t)
	l := NewLoader(k)
	prog, err := l.Load(&Program{Name: "drop_all", Hook: HookXDP, Ops: []Op{opReturning("deny", VerdictDrop)}})
	if err != nil {
		t.Fatal(err)
	}
	cm := NewCPUMap("cpu_map", k)
	if !cm.UpdateWithProg(2, 64, prog) {
		t.Fatal("UpdateWithProg failed")
	}
	defer cm.Delete(2)

	frame := packet.BuildEthernet(packet.Ethernet{EtherType: packet.EtherTypeIPv4}, make([]byte, 46))
	var m sim.Meter
	const n = 16
	for i := 0; i < n; i++ {
		if _, ok := cm.EnqueueCPU(0, 2, d, frame, &m); !ok {
			t.Fatalf("frame %d: enqueue failed", i)
		}
	}
	cm.FlushCPU(0, &m)
	cm.Quiesce()

	st := k.Stats()
	if st.CpumapEnqueued != n {
		t.Fatalf("CpumapEnqueued = %d, want %d", st.CpumapEnqueued, n)
	}
	if st.Dropped != n {
		t.Fatalf("Dropped = %d, want %d (value prog drops every frame)", st.Dropped, n)
	}
	reasons := k.DropReasons()
	if reasons[drop.ReasonXDPDrop] != n {
		t.Fatalf("xdp_drop = %d, want %d", reasons[drop.ReasonXDPDrop], n)
	}
	if total := drop.Total(reasons); total != st.Dropped {
		t.Fatalf("per-reason sum %d != dropped %d", total, st.Dropped)
	}
	if st.Forwarded != 0 || st.Delivered != 0 {
		t.Fatalf("frames leaked past a drop-all value prog: %+v", st)
	}
}

// TestCPUMapEnqueueMissingSlot: redirect to an empty slot is an
// unresolvable redirect (ok=false), not a stage or a drop count.
func TestCPUMapEnqueueMissingSlot(t *testing.T) {
	k, d := newCpumapKernel(t)
	cm := NewCPUMap("cpu_map", k)
	var m sim.Meter
	if _, ok := cm.EnqueueCPU(0, 9, d, make([]byte, 64), &m); ok {
		t.Fatal("enqueue to empty slot succeeded")
	}
	if _, ok := cm.EnqueueCPU(0, -1, d, nil, &m); ok {
		t.Fatal("enqueue to negative cpu succeeded")
	}
	if st := k.Stats(); st.CpumapEnqueued != 0 || st.CpumapDrops != 0 {
		t.Fatalf("counters moved on unresolvable redirect: %+v", st)
	}
}

func TestPerCPUArrayLookupAggregate(t *testing.T) {
	a := NewPerCPUArrayMap("mon", 4)
	a.Add(0, 1, 5)
	a.Add(3, 1, 7)
	a.Add(63, 2, 11)
	got := a.LookupAggregate()
	if len(got) != 4 {
		t.Fatalf("len = %d, want 4", len(got))
	}
	want := []uint64{0, 12, 11, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("slot %d = %d, want %d", i, got[i], want[i])
		}
	}
	// Matches the slot-by-slot Sum the callers used to hand-roll.
	for i := 0; i < 4; i++ {
		if got[i] != a.Sum(i) {
			t.Fatalf("slot %d: aggregate %d != Sum %d", i, got[i], a.Sum(i))
		}
	}
}

func TestPerCPUHashLookupAggregate(t *testing.T) {
	h := NewPerCPUHashMap("conns", 16)
	if v, ok := h.LookupAggregate(42); ok || v != 0 {
		t.Fatalf("missing key = %d/%v", v, ok)
	}
	h.Add(0, 42, 1)
	h.Add(5, 42, 2)
	h.Update(9, 42, 4)
	if v, ok := h.LookupAggregate(42); !ok || v != 7 {
		t.Fatalf("LookupAggregate = %d/%v, want 7/true", v, ok)
	}
	if v := h.Sum(42); v != 7 {
		t.Fatalf("Sum = %d, want 7", v)
	}
}

// BenchmarkCpumapProducerPoll measures the producer half only: staging,
// bulk spills, and one flush+doorbell for a 64-frame poll, with the kthread
// consuming concurrently.
func BenchmarkCpumapProducerPoll(b *testing.B) {
	k, d := newCpumapKernel(b)
	cm := NewCPUMap("cpu_map", k)
	cm.Update(1, 4096)
	defer cm.Delete(1)
	frame := packet.BuildEthernet(packet.Ethernet{EtherType: packet.EtherTypeIPv4}, make([]byte, 46))
	var m sim.Meter
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < 64; j++ {
			cm.EnqueueCPU(0, 1, d, frame, &m)
		}
		cm.FlushCPU(0, &m)
		if i%16 == 15 {
			cm.Quiesce() // keep the ring from running away from the kthread
		}
	}
	b.StopTimer()
	cm.Quiesce()
}

// TestCPUMapValueProgZeroAllocs pins the kthread's per-frame value-program
// run at zero allocations: the context and the xdp_buff come from one pool.
func TestCPUMapValueProgZeroAllocs(t *testing.T) {
	k, d := newCpumapKernel(t)
	l := NewLoader(k)
	frame := packet.BuildEthernet(packet.Ethernet{EtherType: packet.EtherTypeIPv4}, make([]byte, 46))
	for _, v := range []Verdict{VerdictDrop, VerdictPass} {
		prog, err := l.Load(&Program{Name: "value_" + v.String(), Hook: HookXDP, Ops: []Op{opReturning("verdict", v)}})
		if err != nil {
			t.Fatal(err)
		}
		run := valueProg(k, prog)
		var m sim.Meter
		if deliver, _ := run(d, frame, &m); deliver != (v == VerdictPass) {
			t.Fatalf("%v: deliver = %v", v, deliver)
		}
		if avg := testing.AllocsPerRun(200, func() { run(d, frame, &m) }); avg != 0 {
			t.Fatalf("%v: value program allocates %.1f per frame, want 0", v, avg)
		}
	}
}
