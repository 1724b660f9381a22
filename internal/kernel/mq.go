// Multi-queue receive: per-CPU statistic shards, NAPI-style batch delivery,
// and per-RX-queue worker goroutines. This is the receive-side scaling half
// of the datapath — the netdev package steers flows to queues with the
// Toeplitz hash, and each queue drains into the stack on its own virtual CPU
// with no shared locks on the hot path.
package kernel

import (
	"runtime"
	"sync"
	"sync/atomic"

	"linuxfp/internal/drop"
	"linuxfp/internal/flight"
	"linuxfp/internal/netdev"
	"linuxfp/internal/sim"
)

// NumRxShards is the number of per-CPU statistic/cache shards. It matches
// netdev.MaxRxQueues so a meter's CPU maps 1:1 onto a shard, and is a power
// of two so the mapping is a mask.
const NumRxShards = netdev.MaxRxQueues

const rxShardMask = NumRxShards - 1

// shardCounters is one CPU's slice of the stack counters. Fields are
// atomics so a reader (Stats) can sum live shards without stopping traffic;
// the padding keeps each shard on its own cache lines so two queues never
// false-share a counter word.
type shardCounters struct {
	forwarded     atomic.Uint64
	delivered     atomic.Uint64
	dropped       atomic.Uint64
	noRoute       atomic.Uint64
	ttlExpired    atomic.Uint64
	filterDropped atomic.Uint64
	arpTx         atomic.Uint64
	icmpTx        atomic.Uint64
	stpTx         atomic.Uint64
	fragsSent     atomic.Uint64
	reassembled   atomic.Uint64
	flowHits      atomic.Uint64
	flowMisses    atomic.Uint64
	groCoalesced  atomic.Uint64
	groFlushes    atomic.Uint64
	groSupersegs  atomic.Uint64
	// Cpumap counters: enqueued/drops land on the producer CPU's shard
	// (the RX core pays for the redirect), kthread runs on the target's.
	cpumapEnqueued    atomic.Uint64
	cpumapDrops       atomic.Uint64
	cpumapKthreadRuns atomic.Uint64
	// Software steering counters: RPS enqueues/drops/IPIs land on the RX
	// core's shard (it does the steering work), RFS hits/migrations on the
	// shard that took the decision.
	rpsSteered      atomic.Uint64
	rpsBacklogDrops atomic.Uint64
	rpsIPIs         atomic.Uint64
	rfsHits         atomic.Uint64
	rfsMigrations   atomic.Uint64
	// Sockmap (socket-layer fast path) counters: hits/misses/splices land on
	// the probing CPU's shard, L7 verdicts on the CPU running the sk_skb
	// program.
	sockmapHits    atomic.Uint64
	sockmapMisses  atomic.Uint64
	sockmapSplices atomic.Uint64
	l7Verdicts     atomic.Uint64
	// 28 counters: 224 bytes; pad to a 256-byte (four cache line) boundary
	// so adjacent shards never share a line.
	_ [4]uint64
}

// shardIdx maps a meter to its shard. A nil meter (functional tests, config
// paths) accounts on shard 0.
func shardIdx(m *sim.Meter) int {
	if m == nil {
		return 0
	}
	return m.CPU & rxShardMask
}

// ctr returns the counter shard for the meter's CPU.
func (k *Kernel) ctr(m *sim.Meter) *shardCounters {
	return &k.shards[shardIdx(m)]
}

// --- counters ----------------------------------------------------------------

// Every drop bump carries a drop.Reason (see obs.go): the untagged countDrop
// of earlier PRs is gone, so sum(per-reason) == dropped holds by
// construction.

func (k *Kernel) countFilterDrop(m *sim.Meter) {
	c := k.ctr(m)
	c.filterDropped.Add(1)
	c.dropped.Add(1)
	k.countDropReasonOnly(m, drop.ReasonNetfilterDrop)
}

func (k *Kernel) countNoRoute(m *sim.Meter) {
	c := k.ctr(m)
	c.noRoute.Add(1)
	c.dropped.Add(1)
	k.countDropReasonOnly(m, drop.ReasonIPNoRoute)
}

func (k *Kernel) countTTLExpired(m *sim.Meter) {
	c := k.ctr(m)
	c.ttlExpired.Add(1)
	c.dropped.Add(1)
	k.countDropReasonOnly(m, drop.ReasonIPTTLExpired)
}

func (k *Kernel) countForwarded(m *sim.Meter) { k.ctr(m).forwarded.Add(1) }

func (k *Kernel) countDelivered(m *sim.Meter) { k.ctr(m).delivered.Add(1) }

func (k *Kernel) countReassembled(m *sim.Meter) { k.ctr(m).reassembled.Add(1) }

func (k *Kernel) bumpARPTx(m *sim.Meter) { k.ctr(m).arpTx.Add(1) }

func (k *Kernel) bumpICMPTx(m *sim.Meter) { k.ctr(m).icmpTx.Add(1) }

func (k *Kernel) bumpSTPTx(m *sim.Meter) { k.ctr(m).stpTx.Add(1) }

// --- batch receive -----------------------------------------------------------

// DeliverBatch implements netdev.BatchStack: one NAPI poll's worth of frames
// entering the stack together. The poll prologue (irq handling, poll-list
// bookkeeping, budget accounting) is charged once for the burst instead of
// per frame, and one scratch buffer serves every frame — the skb-recycling
// win real NAPI gets from bulk allocation.
//
// When the device has GRO enabled the burst first runs through the per-CPU
// GRO layer, which coalesces same-flow TCP segments into supersegments; the
// stack (and any TC ingress program) then walks once per supersegment
// instead of once per frame. With GRO off but a batch-capable TC program
// attached, the burst still takes the batched TC runner. Either way frames
// that neither coalesce nor batch fall back to the exact per-frame path.
//
// The frames belong to the stack until transmitted or dropped: GRO holds
// keep them (across polls under gro_flush_timeout), so do the neighbour
// queue and the cpumap/RPS rings, and GSO writes the post-stack headers of
// a supersegment into the very frames it was merged from and transmits
// those — no payload byte is copied on the way out.
func (k *Kernel) DeliverBatch(dev *netdev.Device, frames [][]byte, m *sim.Meter) {
	if len(frames) == 0 {
		return
	}
	m.Charge(sim.CostNAPIPoll)
	k.deliverBatch(dev, frames, true, m)
}

// deliverBatch is DeliverBatch without the poll prologue. pollEnd=false
// leaves GRO holds open for a later call of the same poll: a cpumap kthread
// may drain one producer poll in several pieces and closes the GRO window
// only at the producer's end-of-poll mark.
func (k *Kernel) deliverBatch(dev *netdev.Device, frames [][]byte, pollEnd bool, m *sim.Meter) {
	sc := rxScratchPool.Get().(*rxScratch)
	th := k.tcIngressFor(dev.Index)
	_, tcBatch := th.(TCBatchHandler)
	// GRO is gated off for bridge slaves (br_handle_frame runs before IP
	// input and forwards raw L2 frames) and while IPVS is active (its
	// interception path is not supersegment-aware); both keep the batch
	// path byte-for-byte equivalent to the per-frame one.
	gro := dev.GROEnabled() && dev.Master() == 0 && !k.IPVSActive()
	if !gro && !tcBatch {
		for _, frame := range frames {
			k.deliverFrame(dev, frame, m, sc)
		}
		rxScratchPool.Put(sc)
		return
	}
	b := groBatchPool.Get().(*groBatch)
	outs := b.outs[:0]
	if gro {
		sl, st := k.stageStart(m)
		outs = k.groRun(dev, frames, pollEnd, outs, m)
		if sl != nil {
			// One observation per coalesce pass (the burst-level cost),
			// matching how napi_gro_receive shows up in a flame graph.
			sl.Observe(StageGRO, m, st)
		}
	} else {
		for _, frame := range frames {
			outs = append(outs, groOut{frame: frame, dev: dev, gso: gsoMeta{segs: 1}})
		}
	}
	k.deliverOuts(outs, gro, m, sc)
	b.outs = outs[:0]
	groBatchPool.Put(b)
	rxScratchPool.Put(sc)
}

// --- per-queue workers -------------------------------------------------------

// RxQueueStat is one RX queue's lifetime accounting.
type RxQueueStat struct {
	Queue   int
	Packets uint64
	Cycles  sim.Cycles
}

// rxQueueWorker is one queue's goroutine state.
type rxQueueWorker struct {
	ch      chan [][]byte
	meter   sim.Meter
	packets uint64
}

// RxWorkerPool runs one goroutine per RX queue of a device, each draining
// bursts into the stack on its own virtual CPU — the software model of
// per-queue NAPI contexts pinned to distinct cores. The pool's dispatcher
// (Steer) plays the role of the NIC: it hashes each frame to a queue and
// accumulates per-queue bursts.
type RxWorkerPool struct {
	dev     *netdev.Device
	burst   int
	workers []*rxQueueWorker
	pending [][][]byte
	wg      sync.WaitGroup
}

// StartRxQueues configures the device for n RX queues and starts one worker
// goroutine per queue. burst is the NAPI budget: frames per batch handed to
// the stack (64 is the kernel default).
func (k *Kernel) StartRxQueues(dev *netdev.Device, n, burst int) *RxWorkerPool {
	if burst < 1 {
		burst = 64
	}
	dev.SetRxQueues(n)
	n = dev.RxQueues()
	p := &RxWorkerPool{dev: dev, burst: burst}
	p.workers = make([]*rxQueueWorker, n)
	p.pending = make([][][]byte, n)
	for q := 0; q < n; q++ {
		w := &rxQueueWorker{ch: make(chan [][]byte, 256), meter: sim.Meter{CPU: q}}
		p.workers[q] = w
		p.wg.Add(1)
		go func(q int, w *rxQueueWorker) {
			defer p.wg.Done()
			for batch := range w.ch {
				dev.ReceiveBatch(batch, q, &w.meter)
				w.packets += uint64(len(batch))
			}
			// napi_disable: drain anything GRO still holds on this queue's
			// shard (gro_flush_timeout can carry holds across polls) before
			// the worker exits, so no segment is stranded.
			k.groFlushShard(shardIdx(&w.meter), dev, &w.meter)
		}(q, w)
	}
	return p
}

// Steer hashes a frame to its RX queue and appends it to that queue's
// pending burst, flushing when the burst fills. The frame must be owned by
// the pool after the call (callers hand over fresh copies, like DMA'd ring
// buffers).
func (p *RxWorkerPool) Steer(frame []byte) {
	q := p.dev.QueueFor(frame)
	p.pending[q] = append(p.pending[q], frame)
	if len(p.pending[q]) >= p.burst {
		p.workers[q].ch <- p.pending[q]
		p.pending[q] = nil
	}
}

// Flush pushes all partial bursts to their workers.
func (p *RxWorkerPool) Flush() {
	for q, batch := range p.pending {
		if len(batch) > 0 {
			p.workers[q].ch <- batch
			p.pending[q] = nil
		}
	}
}

// Close flushes, stops every worker, and waits for in-flight bursts to
// finish. The pool must not be used afterwards.
func (p *RxWorkerPool) Close() {
	p.Flush()
	for _, w := range p.workers {
		close(w.ch)
	}
	p.wg.Wait()
}

// Stats reports per-queue packet and cycle totals. Only valid after Close
// (the workers own their meters while running).
func (p *RxWorkerPool) Stats() []RxQueueStat {
	out := make([]RxQueueStat, len(p.workers))
	for q, w := range p.workers {
		out[q] = RxQueueStat{Queue: q, Packets: w.packets, Cycles: w.meter.Total}
	}
	return out
}

// MaxQueueCycles reports the busiest queue's cycle total — the wall-clock
// bound on the burst: with one core per queue, the slowest queue finishes
// last. Only valid after Close.
func (p *RxWorkerPool) MaxQueueCycles() sim.Cycles {
	var max sim.Cycles
	for _, w := range p.workers {
		if w.meter.Total > max {
			max = w.meter.Total
		}
	}
	return max
}

// --- cpumap kthreads ---------------------------------------------------------

// cpumapFrame is one redirected frame in flight to another CPU: the frame
// bytes plus the ingress device it arrived on, which the target kthread needs
// to rebuild the skb's dev binding (and to pick the right GRO/TC context).
// at stamps the producer's meter at enqueue time so the kthread can observe
// per-frame queueing latency (dequeue-time minus enqueue-time in virtual
// cycles) when a latency observer is attached.
type cpumapFrame struct {
	dev   *netdev.Device
	frame []byte
	at    sim.Cycles
}

// CpumapProg is a CPUMAP_VALUE_PROG callback: an XDP program attached to the
// map value that the target kthread re-runs on every frame before building
// the skb — the second-verdict hook the kernel grew in 5.9. deliver=false
// with a non-zero reason drops the frame on the kthread's shard; deliver=false
// with ReasonNotSpecified means the program consumed the frame some other way
// (XDP_TX / redirect) and has already accounted for it.
type CpumapProg func(dev *netdev.Device, frame []byte, m *sim.Meter) (deliver bool, reason drop.Reason)

// CpumapEntry is one BPF_MAP_TYPE_CPUMAP slot: a fixed-capacity ptr_ring fed
// by RX cores in bulk, drained by a dedicated kthread goroutine that injects
// the frames into the target CPU's DeliverBatch. The kthread owns a meter
// pinned to the target CPU, so everything downstream of the ring — skb build,
// GRO, netfilter, FIB, neigh — is charged to (and sharded onto) that CPU,
// which is the entire point of the redirect: the RX core's cost stops at the
// enqueue.
type CpumapEntry struct {
	kern  *Kernel
	cpu   int
	qsize int

	mu     sync.Mutex
	ring   []cpumapFrame
	closed bool
	// The GRO window is one producer poll, however many drains the kthread
	// takes to pop it: popped counts frames ever dequeued, and mark is
	// popped + len(ring) as of the producer's last end-of-poll doorbell.
	popped, mark uint64

	doorbell chan struct{} // cap 1: coalesced wakeups, like wake_up_process
	done     chan struct{} // closed by Stop; kthread drains and exits
	exited   chan struct{} // closed by the kthread on exit

	// enqueued/delivered let Quiesce wait for in-flight frames without a
	// WaitGroup (a producer Add racing Wait at zero is disallowed there).
	enqueued  atomic.Uint64
	delivered atomic.Uint64

	cycles atomic.Uint64 // kthread meter total, published after each run
	// ended is the mark of the last poll the kthread has ended, stored once
	// its GRO window is closed, so Quiesce can wait for the flush as well.
	ended   atomic.Uint64
	polling bool // kthread only: the current poll has paid its prologue
	found   bool // kthread only: this wakeup has popped a frame

	// prog is the optional CPUMAP_VALUE_PROG; lat the optional per-frame
	// queueing-latency observer. Both are atomic so they can be installed
	// after the kthread has started without a happens-before hole.
	prog atomic.Pointer[CpumapProg]
	lat  atomic.Pointer[sim.Stats]
}

// NewCpumapEntry creates a cpumap slot targeting cpu with a ring of qsize
// frames and starts its kthread. Stop must be called to release it.
func (k *Kernel) NewCpumapEntry(cpu, qsize int) *CpumapEntry {
	if qsize < 1 {
		qsize = 1
	}
	e := &CpumapEntry{
		kern:     k,
		cpu:      cpu,
		qsize:    qsize,
		ring:     make([]cpumapFrame, 0, qsize),
		doorbell: make(chan struct{}, 1),
		done:     make(chan struct{}),
		exited:   make(chan struct{}),
	}
	go e.kthread()
	return e
}

// CPU reports the target CPU this entry drains onto.
func (e *CpumapEntry) CPU() int { return e.cpu }

// Qsize reports the ring capacity the entry was created with — the cpumap
// value userspace reads back.
func (e *CpumapEntry) Qsize() int { return e.qsize }

// Cycles reports the kthread's accumulated cycle total. Safe to call while
// traffic is running; the value is published after each kthread run.
func (e *CpumapEntry) Cycles() sim.Cycles {
	return sim.Cycles(e.cycles.Load())
}

// SetValueProg attaches (or, with nil, detaches) a CPUMAP_VALUE_PROG. The
// kthread re-runs it on every dequeued frame before stack delivery, exactly
// like cpu_map_bpf_prog_run_xdp — GRO and the second verdict both happen in
// the target CPU's context.
func (e *CpumapEntry) SetValueProg(p CpumapProg) {
	if p == nil {
		e.prog.Store(nil)
		return
	}
	e.prog.Store(&p)
}

// SetLatObserver attaches a per-frame queueing-latency observer: for every
// delivered frame the kthread records (its own meter at dequeue) minus (the
// producer's meter at enqueue), in virtual cycles. Only the kthread writes to
// the Stats, so reads are safe once the entry is quiesced or stopped.
func (e *CpumapEntry) SetLatObserver(s *sim.Stats) {
	e.lat.Store(s)
}

// EnqueueBatch spills a producer's bulk queue into the ring and reports how
// many frames the ring had no room for (or arrived after Stop) — those are
// the caller's to count as drops — plus whether the ring was empty before the
// spill. wasEmpty is the wake signal: an empty ring means the kthread has
// drained everything and is (or is about to be) asleep, so the first spill
// must ring the doorbell instead of waiting for the end-of-poll flush.
// Successful inserts and overflow drops are charged to the producer's shard:
// the RX core is the one observing them.
func (e *CpumapEntry) EnqueueBatch(dev *netdev.Device, frames [][]byte, m *sim.Meter) (dropped int, wasEmpty bool) {
	c := e.kern.ctr(m)
	fr := e.kern.flight.Load()
	var at sim.Cycles
	if m != nil {
		at = m.Total
	}
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		c.cpumapDrops.Add(uint64(len(frames)))
		if fr != nil {
			for _, f := range frames {
				fr.TerminalDropFrame(f, drop.ReasonCpumapOverflow, m)
			}
		}
		return len(frames), false
	}
	wasEmpty = len(e.ring) == 0
	free := cap(e.ring) - len(e.ring)
	n := len(frames)
	if n > free {
		dropped = n - free
		n = free
	}
	if fr != nil {
		// Accepted frames ride the ptr_ring verbatim: their chains park on
		// the producer CPU and resume on the kthread's. The parks happen
		// inside the producer section — the kthread may dequeue the moment
		// the lock drops, and each park must happen-before its Enter.
		for _, f := range frames[:n] {
			fr.ParkFrame(f, flight.StageCpumap, m)
		}
	}
	for _, f := range frames[:n] {
		e.ring = append(e.ring, cpumapFrame{dev: dev, frame: f, at: at})
	}
	e.mu.Unlock()
	if fr != nil {
		// Overflowed frames never left this CPU: the producer observes the
		// drop and closes their chains here.
		for _, f := range frames[n:] {
			fr.TerminalDropFrame(f, drop.ReasonCpumapOverflow, m)
		}
	}
	if n > 0 {
		e.enqueued.Add(uint64(n))
		c.cpumapEnqueued.Add(uint64(n))
	}
	if dropped > 0 {
		c.cpumapDrops.Add(uint64(dropped))
	}
	return dropped, wasEmpty
}

// RingDoorbell wakes the kthread — the IPI-flavoured half of xdp_do_flush,
// rung once per target per NAPI poll. It also marks the end of the
// producer's poll: the kthread keeps GRO holds open across the drains that
// pop this poll's frames and closes the window once it has popped them all,
// so where a poll's frames split between drains does not move a merge.
func (e *CpumapEntry) RingDoorbell(m *sim.Meter) {
	e.mu.Lock()
	e.mark = e.popped + uint64(len(e.ring))
	e.mu.Unlock()
	e.Wake(m)
}

// Wake wakes the kthread without ending the poll: the first bulk spill into
// an empty ring rings it (wake_up_process fires as soon as
// __ptr_ring_produce has work for a sleeping kthread; later spills find it
// already running and coalesce into the pending wakeup). The cap-1 channel
// is that coalescing.
func (e *CpumapEntry) Wake(m *sim.Meter) {
	m.Charge(sim.CostCpumapDoorbell)
	select {
	case e.doorbell <- struct{}{}:
	default: // already pending: wakeups coalesce
	}
}

// Stop tears the entry down: no further enqueues are accepted (they count as
// drops), the kthread drains whatever the ring still holds, and Stop blocks
// until it has exited. Used by map update/delete, like the RCU-deferred
// __cpu_map_entry_free.
func (e *CpumapEntry) Stop() {
	e.mu.Lock()
	if !e.closed {
		e.closed = true
		close(e.done)
	}
	e.mu.Unlock()
	<-e.exited
}

// Quiesce blocks until every frame enqueued so far has been delivered to the
// stack and every poll the producer has ended has had its GRO window
// closed. Benchmarks and tests call it between polls to read counters that
// no longer move.
func (e *CpumapEntry) Quiesce() {
	for {
		e.mu.Lock()
		mark := e.mark
		e.mu.Unlock()
		if e.delivered.Load() >= e.enqueued.Load() && e.ended.Load() >= mark {
			return
		}
		runtime.Gosched()
	}
}

// kthread is the entry's drain loop: wake on doorbell, pop up to NAPIBudget
// frames, split them into same-device runs, and hand each run to
// DeliverBatch on the target CPU's meter. Mirrors cpu_map_kthread_run.
func (e *CpumapEntry) kthread() {
	defer close(e.exited)
	m := sim.Meter{CPU: e.cpu}
	var local [netdev.NAPIBudget]cpumapFrame
	for {
		select {
		case <-e.doorbell:
			// One wakeup that finds frames is one kthread run, however many
			// ptr_ring pops it takes to drain — the unit the real
			// cpu_map_kthread_run loop counts between schedule() calls.
			e.drain(local[:], &m)
		case <-e.done:
			// Final drain: producers observing closed already count their
			// frames as drops, so everything still in the ring predates
			// Stop and must be delivered.
			e.drain(local[:], &m)
			// napi_disable-style: flush any GRO holds still parked on the
			// target shard so no segment is stranded by a map delete.
			e.kern.groFlushShard(shardIdx(&m), nil, &m)
			e.cycles.Store(uint64(m.Total))
			return
		}
	}
}

// drain runs drainOnce until it finds nothing to do.
func (e *CpumapEntry) drain(local []cpumapFrame, m *sim.Meter) {
	e.found = false
	for e.drainOnce(local, m) {
	}
}

// drainOnce pops one run of up to NAPIBudget frames, never past the
// producer's end-of-poll mark, and delivers it. The poll prologue is charged
// at the first delivery of each producer poll and the GRO window closes at
// the drain that reaches the mark, so both follow the producer's polls and
// not the moments the kthread woke. Reports whether it did any work:
// popping frames or ending a poll.
func (e *CpumapEntry) drainOnce(local []cpumapFrame, m *sim.Meter) bool {
	e.mu.Lock()
	n := len(e.ring)
	if e.popped < e.mark && uint64(n) > e.mark-e.popped {
		n = int(e.mark - e.popped)
	}
	if n > len(local) {
		n = len(local)
	}
	copy(local, e.ring[:n])
	rest := copy(e.ring, e.ring[n:])
	for i := rest; i < len(e.ring); i++ {
		e.ring[i] = cpumapFrame{} // let delivered frames go
	}
	e.ring = e.ring[:rest]
	e.popped += uint64(n)
	mark := e.mark
	pollEnd := e.popped == mark && mark > e.ended.Load()
	e.mu.Unlock()
	if n == 0 && !pollEnd {
		return false
	}
	if n > 0 && !e.found {
		// Counted before delivery, so a reader that has seen the frames
		// delivered sees the run. A wakeup that only ends a poll whose
		// frames an earlier wakeup popped flushes GRO but is not a run.
		e.kern.ctr(m).cpumapKthreadRuns.Add(1)
		e.found = true
	}

	// ptr_ring consume + xdp_frame→skb prep, per frame.
	m.Charge(sim.Cycles(n) * sim.CostCpumapDequeue)

	// Queueing latency: kthread time at dequeue minus producer time at
	// enqueue, both in virtual cycles from the same measurement epoch. The
	// overloaded-CPU signature is exactly this number exploding.
	if lat := e.lat.Load(); lat != nil {
		for i := 0; i < n; i++ {
			d := m.Total - local[i].at
			if d < 0 {
				d = 0
			}
			lat.Observe(float64(d))
		}
	}

	total := n
	// CPUMAP_VALUE_PROG: re-run XDP on the dequeued frames in the target
	// CPU's context. Frames the program drops are counted on this shard;
	// frames it consumed otherwise (TX/redirect) are already accounted by
	// the program. Survivors are compacted in place and delivered below.
	if pp := e.prog.Load(); pp != nil {
		prog := *pp
		fr := e.kern.flight.Load()
		kept := 0
		for i := 0; i < n; i++ {
			deliver, reason := prog(local[i].dev, local[i].frame, m)
			if deliver {
				local[kept] = local[i]
				kept++
				continue
			}
			if reason != drop.ReasonNotSpecified {
				// Outside an Enter window: close the chain by frame key.
				if fr != nil {
					fr.TerminalDropFrame(local[i].frame, reason, m)
				}
				e.kern.countDropReason(m, reason)
			}
		}
		n = kept
	}

	// One batch delivery per same-device run: the batch stack (GRO, batched
	// TC) keys its context on (shard, dev), so frames from one ingress
	// device coalesce together just as they would on the RX CPU. The last
	// run of the drain that reaches the mark ends the poll, as the RX CPU's
	// one DeliverBatch per poll would.
	if n > 0 && !e.polling {
		m.Charge(sim.CostNAPIPoll)
		e.polling = true
	}
	var frames [][]byte
	run := 0
	for run < n {
		dev := local[run].dev
		end := run
		for end < n && local[end].dev == dev {
			end++
		}
		frames = frames[:0]
		for i := run; i < end; i++ {
			frames = append(frames, local[i].frame)
		}
		e.kern.deliverBatch(dev, frames, pollEnd && end == n, m)
		run = end
	}
	if pollEnd {
		e.polling = false
		if e.kern.groFlushTO.Load() == 0 {
			// A no-op after a GRO run that ended the poll; otherwise the
			// mark came after the last frame was popped, or the last run
			// bypassed GRO, and holds from earlier drains are still open.
			e.kern.groFlushShard(shardIdx(m), nil, m)
		}
	}
	e.cycles.Store(uint64(m.Total))
	e.delivered.Add(uint64(total))
	if pollEnd {
		e.ended.Store(mark)
	}
	return true
}
