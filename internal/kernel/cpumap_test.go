package kernel

import (
	"bytes"
	"testing"

	"linuxfp/internal/packet"
	"linuxfp/internal/sim"
)

// cpumapFrames builds n forwardable UDP frames spread over the router's 16
// pre-resolved destination hosts.
func cpumapFrames(srcMAC, dstMAC packet.HWAddr, n int) [][]byte {
	frames := make([][]byte, n)
	for i := range frames {
		dst := packet.AddrFrom4(10, 2, 0, byte(i%16+1))
		frames[i] = fwdFrame(dstMAC, srcMAC, packet.MustAddr("10.1.0.1"), dst, uint16(4000+i%64), 2000)
	}
	return frames
}

// TestCpumapEntryDrainsIntoStack: frames bulk-enqueued on one CPU's meter are
// delivered into the stack by the entry's kthread, charged to the target CPU,
// and every counter reconciles.
func TestCpumapEntryDrainsIntoStack(t *testing.T) {
	r, r0, _, srcMAC, _ := newFwdRouter(t)
	e := r.NewCpumapEntry(5, 256)
	defer e.Stop()

	frames := cpumapFrames(srcMAC, r0.MAC, 64)
	m := sim.Meter{CPU: 0} // the producer (RX core)
	if dropped, _ := e.EnqueueBatch(r0, frames, &m); dropped != 0 {
		t.Fatalf("EnqueueBatch dropped %d of 64 with qsize 256", dropped)
	}
	e.RingDoorbell(&m)
	e.Quiesce()

	st := r.Stats()
	if st.CpumapEnqueued != 64 {
		t.Fatalf("CpumapEnqueued = %d, want 64", st.CpumapEnqueued)
	}
	if st.CpumapDrops != 0 {
		t.Fatalf("CpumapDrops = %d, want 0", st.CpumapDrops)
	}
	if st.CpumapKthreadRuns == 0 {
		t.Fatal("kthread never ran")
	}
	if st.Forwarded != 64 {
		t.Fatalf("Forwarded = %d, want 64 (drops: %d noroute: %d)", st.Forwarded, st.Dropped, st.NoRoute)
	}
	// The whole slow path ran on the kthread's meter, not the producer's:
	// the producer paid only the doorbell.
	if e.Cycles() == 0 {
		t.Fatal("kthread charged no cycles")
	}
	if m.Total >= e.Cycles() {
		t.Fatalf("producer paid %v cycles, kthread only %v — stack work leaked to the RX core", m.Total, e.Cycles())
	}
}

// TestCpumapEntryOverflow: a full ring drops the excess, counted on the
// producer's shard, and delivers exactly the ring's worth.
func TestCpumapEntryOverflow(t *testing.T) {
	r, r0, _, srcMAC, _ := newFwdRouter(t)
	e := r.NewCpumapEntry(2, 4)
	defer e.Stop()

	frames := cpumapFrames(srcMAC, r0.MAC, 10)
	var m sim.Meter
	if dropped, _ := e.EnqueueBatch(r0, frames, &m); dropped != 6 {
		t.Fatalf("dropped = %d, want 6 (qsize 4, 10 frames)", dropped)
	}
	e.RingDoorbell(&m)
	e.Quiesce()

	st := r.Stats()
	if st.CpumapEnqueued != 4 || st.CpumapDrops != 6 {
		t.Fatalf("enqueued/drops = %d/%d, want 4/6", st.CpumapEnqueued, st.CpumapDrops)
	}
	if st.Forwarded != 4 {
		t.Fatalf("Forwarded = %d, want 4", st.Forwarded)
	}
}

// TestCpumapEntryStopDrains: Stop delivers everything already in the ring
// (no doorbell ever rang), and enqueues after Stop count as drops — the
// producer-side view of a map delete racing traffic.
func TestCpumapEntryStopDrains(t *testing.T) {
	r, r0, _, srcMAC, _ := newFwdRouter(t)
	e := r.NewCpumapEntry(1, 64)

	frames := cpumapFrames(srcMAC, r0.MAC, 16)
	var m sim.Meter
	if dropped, _ := e.EnqueueBatch(r0, frames, &m); dropped != 0 {
		t.Fatalf("dropped %d on an empty ring", dropped)
	}
	e.Stop() // no doorbell: the teardown drain must deliver the 16

	if st := r.Stats(); st.Forwarded != 16 {
		t.Fatalf("Forwarded = %d, want 16 after Stop drain", st.Forwarded)
	}
	if dropped, _ := e.EnqueueBatch(r0, frames[:3], &m); dropped != 3 {
		t.Fatalf("post-Stop enqueue dropped %d, want 3", dropped)
	}
	if st := r.Stats(); st.CpumapDrops != 3 {
		t.Fatalf("CpumapDrops = %d, want 3", st.CpumapDrops)
	}
}

// BenchmarkCpumapEnqueueDrain64 measures one NAPI poll's worth of frames
// through a cpumap entry: bulk enqueue, doorbell, kthread drain into the
// forwarding slow path.
func BenchmarkCpumapEnqueueDrain64(b *testing.B) {
	r, r0, _, srcMAC, _ := newFwdRouter(b)
	r1, _ := r.DeviceByName("eth1")
	r1.Tap = nil
	e := r.NewCpumapEntry(3, 256)
	defer e.Stop()
	frames := cpumapFrames(srcMAC, r0.MAC, 64)
	batch := make([][]byte, 64)
	var m sim.Meter
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(batch, frames)
		e.EnqueueBatch(r0, batch, &m)
		e.RingDoorbell(&m)
		e.Quiesce()
	}
}

// TestCpumapGROWindowIsTheProducerPoll: a wakeup on the first spill lets the
// kthread pop part of a poll, or all of it, before the producer has finished
// it. The GRO window and the poll prologue are still the producer's poll,
// ended by its doorbell: a segment train popped in two drains leaves as one
// supersegment, at the cycles it costs popped in one. A wakeup counts as a
// kthread run only when it pops frames, not when it only ends the poll.
func TestCpumapGROWindowIsTheProducerPoll(t *testing.T) {
	// early is how many of the poll's 8 frames the kthread pops on a wake
	// before the producer's doorbell.
	run := func(early int) (Stats, sim.Cycles, int) {
		g := newGroRig(t)
		g.r0.SetGRO(true)
		e := g.r.NewCpumapEntry(1, 64)
		defer e.Stop()
		var frames [][]byte
		for i := 0; i < 8; i++ {
			frames = append(frames, g.seg(100+uint32(i)*64, uint16(i+1), packet.TCPAck, bytes.Repeat([]byte{'x'}, 64)))
		}
		var m sim.Meter
		if early > 0 {
			e.EnqueueBatch(g.r0, frames[:early], &m)
			e.Wake(&m)
			e.Quiesce() // popped, but the poll has not ended
			if st := g.r.Stats(); st.GROFlushes != 0 || len(g.captured) != 0 {
				t.Fatalf("early %d: GRO window closed before the producer's doorbell: %d flushes, %d frames out", early, st.GROFlushes, len(g.captured))
			}
			frames = frames[early:]
		}
		e.EnqueueBatch(g.r0, frames, &m)
		e.RingDoorbell(&m)
		e.Quiesce()
		return g.r.Stats(), e.Cycles(), len(g.captured)
	}
	whole, wholeCycles, wholeOut := run(0)
	if whole.GROSupersegs != 1 || whole.GROCoalesced != 7 || wholeOut != 8 || whole.CpumapKthreadRuns != 1 {
		t.Fatalf("one drain: %d supersegs, %d coalesced, %d frames out, %d runs; want 1, 7, 8, 1",
			whole.GROSupersegs, whole.GROCoalesced, wholeOut, whole.CpumapKthreadRuns)
	}
	for early, runs := range map[int]uint64{4: 2, 8: 1} {
		split, splitCycles, splitOut := run(early)
		if split.GROSupersegs != whole.GROSupersegs || split.GROCoalesced != whole.GROCoalesced ||
			split.GROFlushes != whole.GROFlushes || splitOut != wholeOut {
			t.Fatalf("early %d: %d supersegs, %d coalesced, %d flushes, %d out; one drain: %d, %d, %d, %d", early,
				split.GROSupersegs, split.GROCoalesced, split.GROFlushes, splitOut,
				whole.GROSupersegs, whole.GROCoalesced, whole.GROFlushes, wholeOut)
		}
		if splitCycles != wholeCycles {
			t.Fatalf("early %d: kthread charged %v cycles over two wakeups, %v over one", early, splitCycles, wholeCycles)
		}
		if split.CpumapKthreadRuns != runs {
			t.Fatalf("early %d: %d kthread runs, want %d", early, split.CpumapKthreadRuns, runs)
		}
	}
}
