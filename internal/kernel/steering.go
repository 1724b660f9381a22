// Software packet steering: RPS, RFS, and the per-flow in-order migration
// guard (Documentation/networking/scaling.rst). RPS gives single-queue
// devices the spread a multi-queue NIC gets from RSS: the RX core hashes
// each flow, appends the frame to the target CPU's backlog ring
// (enqueue_to_backlog) and kicks the target with an IPI-modeled doorbell;
// the backlog's kthread then re-enters the stack on the target CPU's meter,
// so everything past the hash is charged where it actually runs. RFS layers
// the rps_sock_flow_table on top: established flows steer to the CPU where
// the consuming socket last ran, and a per-flow qtail guard keeps migration
// out-of-order-safe — a flow only moves once the old CPU's backlog has
// drained past the flow's last enqueue.
//
// Everything here is off until EnableRPS is called: the receive path's only
// cost for disabled steering is one nil pointer load.
package kernel

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"linuxfp/internal/drop"
	"linuxfp/internal/flight"
	"linuxfp/internal/netdev"
	"linuxfp/internal/packet"
	"linuxfp/internal/sim"
)

// rpsFrame is one frame parked in a CPU backlog, with the producer's meter
// stamped at enqueue so overflow analysis can see queueing delay.
type rpsFrame struct {
	dev   *netdev.Device
	frame []byte
}

// rpsBacklog is one CPU's input_pkt_queue + process_backlog pair: a bounded
// ring fed by other CPUs' receive paths, drained by a kthread goroutine that
// re-enters the stack with a meter pinned to the backlog's CPU.
type rpsBacklog struct {
	kern *Kernel
	cpu  int

	mu     sync.Mutex
	ring   []rpsFrame
	closed bool

	doorbell chan struct{} // cap 1: coalesced IPIs, like net_rps_send_ipi
	done     chan struct{}
	exited   chan struct{}

	enqueued  atomic.Uint64 // also the qtail clock for the RFS migration guard
	delivered atomic.Uint64
	cycles    atomic.Uint64
}

func newRPSBacklog(k *Kernel, cpu, qlen int) *rpsBacklog {
	if qlen < 1 {
		qlen = 1
	}
	b := &rpsBacklog{
		kern:     k,
		cpu:      cpu,
		ring:     make([]rpsFrame, 0, qlen),
		doorbell: make(chan struct{}, 1),
		done:     make(chan struct{}),
		exited:   make(chan struct{}),
	}
	go b.kthread()
	return b
}

// enqueue inserts one frame, reporting success and whether the ring was
// empty beforehand (the IPI-needed signal: a non-empty ring means the
// kthread is awake or already has a pending doorbell). The frame's flight
// chain parks inside the critical section: the backlog kthread may dequeue
// the moment the lock drops, and the park must happen-before its Enter.
func (b *rpsBacklog) enqueue(dev *netdev.Device, frame []byte, fr *flight.Recorder, m *sim.Meter) (ok, wasEmpty bool) {
	b.mu.Lock()
	if b.closed || len(b.ring) == cap(b.ring) {
		b.mu.Unlock()
		return false, false
	}
	wasEmpty = len(b.ring) == 0
	if fr != nil {
		fr.ParkFrame(frame, flight.StageRPS, m)
	}
	b.ring = append(b.ring, rpsFrame{dev: dev, frame: frame})
	b.mu.Unlock()
	b.enqueued.Add(1)
	return true, wasEmpty
}

// kick is the doorbell half of the IPI: wake the backlog kthread if it has
// no wakeup pending (the cap-1 channel coalesces storms).
func (b *rpsBacklog) kick() {
	select {
	case b.doorbell <- struct{}{}:
	default:
	}
}

func (b *rpsBacklog) stop() {
	b.mu.Lock()
	if !b.closed {
		b.closed = true
		close(b.done)
	}
	b.mu.Unlock()
	<-b.exited
}

// kthread mirrors the cpumap drain loop: wake on doorbell, drain to empty,
// sleep. The final drain on stop delivers everything already accepted.
func (b *rpsBacklog) kthread() {
	defer close(b.exited)
	m := sim.Meter{CPU: b.cpu}
	var local [netdev.NAPIBudget]rpsFrame
	for {
		select {
		case <-b.doorbell:
			for b.drainOnce(local[:], &m) {
			}
		case <-b.done:
			for b.drainOnce(local[:], &m) {
			}
			b.kern.groFlushShard(shardIdx(&m), nil, &m)
			b.cycles.Store(uint64(m.Total))
			return
		}
	}
}

// drainOnce pops up to one NAPI budget of frames and re-enters the stack for
// each on the backlog CPU's meter. Re-entry is receiveParsed, not
// deliverFrame: the RX core already paid the driver/netif prologue, and the
// steering check it re-runs picks this CPU (the hash is flow-deterministic),
// so delivery proceeds locally — that re-check terminating is what makes
// chained RFS retargets safe.
func (b *rpsBacklog) drainOnce(local []rpsFrame, m *sim.Meter) bool {
	b.mu.Lock()
	n := len(b.ring)
	if n == 0 {
		b.mu.Unlock()
		return false
	}
	if n > len(local) {
		n = len(local)
	}
	copy(local, b.ring[:n])
	rest := copy(b.ring, b.ring[n:])
	for i := rest; i < len(b.ring); i++ {
		b.ring[i] = rpsFrame{}
	}
	b.ring = b.ring[:rest]
	b.mu.Unlock()

	m.Charge(sim.CostRPSBacklogRun) // process_backlog pass, once per burst
	fr := b.kern.flight.Load()
	sc := rxScratchPool.Get().(*rxScratch)
	for i := 0; i < n; i++ {
		f := local[i]
		sc.fillOK = false
		sc.gso = gsoMeta{}
		eth, l3off, err := packet.UnmarshalEthernet(f.frame)
		if err != nil {
			if fr != nil {
				fr.TerminalDropFrame(f.frame, drop.ReasonL2HdrError, m)
			}
			b.kern.countDropReason(m, drop.ReasonL2HdrError)
			continue
		}
		if fr != nil {
			ch := fr.Enter(f.frame, m)
			b.kern.receiveParsed(f.dev, f.frame, eth, l3off, m, sc)
			fr.Exit(ch, m)
		} else {
			b.kern.receiveParsed(f.dev, f.frame, eth, l3off, m, sc)
		}
	}
	rxScratchPool.Put(sc)
	b.cycles.Store(uint64(m.Total))
	b.delivered.Add(uint64(n))
	return true
}

// rpsState is the published steering configuration: the candidate CPU set
// with one backlog per member, plus the two RFS tables. Replaced whole on
// reconfiguration; the receive path reads it with one atomic load.
type rpsState struct {
	cpus     []int
	backlogs [NumRxShards]*rpsBacklog

	// sockFlow is the rps_sock_flow_table analogue: flow hash → CPU+1 where
	// the consuming socket last ran (0 = no entry). devFlow is the
	// rps_dev_flow_table analogue: flow hash → packed (last CPU+1, qtail at
	// last enqueue), the out-of-order guard. Both nil when
	// net.core.rps_sock_flow_entries is 0 (RFS off, pure hash RPS).
	sockFlow []atomic.Uint32
	devFlow  []atomic.Uint64
	mask     uint32
}

const rpsQtailMask = (uint64(1) << 56) - 1

func packDevFlow(cpu int, qtail uint64) uint64 {
	return uint64(cpu+1)<<56 | (qtail & rpsQtailMask)
}

func unpackDevFlow(v uint64) (cpu int, qtail uint64) {
	return int(v>>56) - 1, v & rpsQtailMask
}

// rfsTableSize rounds n up to a power of two (0 stays 0: RFS off).
func rfsTableSize(n uint32) uint32 {
	if n == 0 {
		return 0
	}
	size := uint32(1)
	for size < n {
		size <<= 1
	}
	return size
}

// EnableRPS turns software steering on: new flows spread over cpus by flow
// hash (or by RFS when net.core.rps_sock_flow_entries is set), each steered
// frame landing in the target CPU's backlog ring of qlen frames — the model
// of echo <mask> > /sys/class/net/<dev>/queues/rx-0/rps_cpus plus
// netdev_max_backlog. Replaces any previous configuration.
func (k *Kernel) EnableRPS(cpus []int, qlen int) error {
	if len(cpus) == 0 {
		return fmt.Errorf("kernel: EnableRPS needs at least one CPU")
	}
	for _, c := range cpus {
		if c < 0 || c >= NumRxShards {
			return fmt.Errorf("kernel: RPS CPU %d out of range [0,%d)", c, NumRxShards)
		}
	}
	st := &rpsState{cpus: append([]int(nil), cpus...)}
	for _, c := range st.cpus {
		if st.backlogs[c] == nil {
			st.backlogs[c] = newRPSBacklog(k, c, qlen)
		}
	}
	if size := rfsTableSize(k.rfsEntries.Load()); size > 0 {
		st.sockFlow = make([]atomic.Uint32, size)
		st.devFlow = make([]atomic.Uint64, size)
		st.mask = size - 1
	}
	old := k.rps.Swap(st)
	k.cfgGen.Add(1)
	if old != nil {
		for _, b := range old.backlogs {
			if b != nil {
				b.stop()
			}
		}
	}
	return nil
}

// DisableRPS tears steering down, draining every backlog before returning.
func (k *Kernel) DisableRPS() {
	old := k.rps.Swap(nil)
	k.cfgGen.Add(1)
	if old == nil {
		return
	}
	for _, b := range old.backlogs {
		if b != nil {
			b.stop()
		}
	}
}

// RPSEnabled reports whether software steering is active.
func (k *Kernel) RPSEnabled() bool { return k.rps.Load() != nil }

// resizeRFSTables rebuilds the RFS tables live when the sysctl changes while
// steering is enabled. Learned socket placements reset, exactly like the
// kernel reallocating rps_sock_flow_table.
func (k *Kernel) resizeRFSTables(entries uint32) {
	old := k.rps.Load()
	if old == nil {
		return
	}
	st := &rpsState{cpus: old.cpus, backlogs: old.backlogs}
	if size := rfsTableSize(entries); size > 0 {
		st.sockFlow = make([]atomic.Uint32, size)
		st.devFlow = make([]atomic.Uint64, size)
		st.mask = size - 1
	}
	k.rps.Store(st)
	k.cfgGen.Add(1)
}

// RPSQuiesce blocks until every steered frame has been delivered — including
// frames a backlog re-steered to another backlog after an RFS retarget, which
// is why the loop requires all rings stable in one pass.
func (k *Kernel) RPSQuiesce() {
	st := k.rps.Load()
	if st == nil {
		return
	}
	for {
		stable := true
		for _, b := range st.backlogs {
			if b != nil && b.delivered.Load() < b.enqueued.Load() {
				stable = false
			}
		}
		if stable {
			return
		}
		runtime.Gosched()
	}
}

// rpsMix is splitmix64's finalizer: the hash the model uses in place of the
// skb->hash Toeplitz value for steering decisions.
func rpsMix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// rpsHash computes the steering hash from parsed flow fields. Receive-side
// orientation throughout (src = remote sender), so the hash computed from a
// raw frame at steering time equals the one computed from parsed headers at
// socket demux time.
func rpsHash(src, dst uint32, proto uint8, sport, dport uint16) uint32 {
	a := uint64(src)<<32 | uint64(dst)
	b := uint64(sport)<<24 | uint64(dport)<<8 | uint64(proto)
	return uint32(rpsMix(a ^ rpsMix(b)))
}

// rpsFrameHash extracts the flow hash straight from the raw frame — the
// model's skb->hash. Non-IPv4 frames are never steered; fragments hash on
// the 2-tuple only (ports are unreadable past the first fragment), matching
// the RSS layer's treatment.
func rpsFrameHash(frame []byte, eth packet.Ethernet, l3off int) (uint32, bool) {
	if eth.EtherType != packet.EtherTypeIPv4 || len(frame) < l3off+packet.IPv4MinLen {
		return 0, false
	}
	b := frame[l3off:]
	ihl := int(b[0]&0x0f) * 4
	proto := b[9]
	src := uint32(b[12])<<24 | uint32(b[13])<<16 | uint32(b[14])<<8 | uint32(b[15])
	dst := uint32(b[16])<<24 | uint32(b[17])<<16 | uint32(b[18])<<8 | uint32(b[19])
	fragment := b[6]&0x20 != 0 || (uint16(b[6]&0x1f)<<8|uint16(b[7])) != 0
	var sport, dport uint16
	if !fragment && (proto == packet.ProtoTCP || proto == packet.ProtoUDP) && len(b) >= ihl+4 {
		sport = uint16(b[ihl])<<8 | uint16(b[ihl+1])
		dport = uint16(b[ihl+2])<<8 | uint16(b[ihl+3])
	}
	return rpsHash(src, dst, proto, sport, dport), true
}

// rpsDeliver is get_rps_cpu + enqueue_to_backlog: it decides whether the
// frame should run on another CPU and, if so, parks it there. Reports true
// when the frame was consumed (steered or dropped); false means the caller
// keeps processing locally — which is always the case on the target CPU
// itself, the property that terminates the steering recursion.
func (k *Kernel) rpsDeliver(st *rpsState, dev *netdev.Device, frame []byte, eth packet.Ethernet, l3off int, m *sim.Meter) bool {
	hash, ok := rpsFrameHash(frame, eth, l3off)
	if !ok {
		return false
	}
	m.Charge(sim.CostRPSHash)
	cur := 0
	if m != nil {
		cur = m.CPU
	}
	c := k.ctr(m)

	target := st.cpus[int(hash)%len(st.cpus)]
	var qslot *atomic.Uint64
	if st.sockFlow != nil {
		m.Charge(sim.CostRFSProbe)
		if v := st.sockFlow[hash&st.mask].Load(); v != 0 {
			if v>>rfsCPUBits == uint32(k.sockGen.Load())&rfsGenMask {
				target = int(v&rfsCPUMask) - 1
				c.rfsHits.Add(1)
			} else {
				// Socket churn since this placement was recorded: the
				// consuming socket may be gone. Retire the entry (racing
				// stores just win) and fall back to hash spreading.
				st.sockFlow[hash&st.mask].CompareAndSwap(v, 0)
			}
		}
		// Out-of-order guard (rps_dev_flow_table): if the flow last enqueued
		// on a different CPU and that backlog has not yet drained past the
		// flow's qtail, keep it there — in-order beats placement.
		qslot = &st.devFlow[hash&st.mask]
		if packed := qslot.Load(); packed != 0 {
			last, qtail := unpackDevFlow(packed)
			if last != target {
				if lb := st.backlogs[last&rxShardMask]; lb != nil && lb.delivered.Load() < qtail {
					target = last
				} else {
					c.rfsMigrations.Add(1)
				}
			}
		}
	}

	if target == cur || target < 0 || target >= NumRxShards {
		if qslot != nil {
			// Local processing is synchronous and in-order by construction:
			// a zero qtail is always "drained". A slot that already names
			// this CPU is left alone: on the backlog kthread's re-entry it
			// holds the flow's last enqueue here, and frames of the flow may
			// still sit in this ring behind the one being delivered.
			if last, _ := unpackDevFlow(qslot.Load()); last != cur {
				qslot.Store(packDevFlow(cur, 0))
			}
		}
		return false
	}
	b := st.backlogs[target]
	if b == nil {
		return false
	}
	m.Charge(sim.CostRPSEnqueue)
	// The frame rides the backlog ring verbatim: its flight chain parks on
	// the source CPU — inside the ring's producer section — and resumes,
	// stamped by the target CPU, when the backlog kthread re-enters the
	// stack.
	enq, wasEmpty := b.enqueue(dev, frame, k.flight.Load(), m)
	if !enq {
		c.rpsBacklogDrops.Add(1)
		c.dropped.Add(1)
		k.countDropReasonOnly(m, drop.ReasonRPSBacklogFull)
		return true
	}
	c.rpsSteered.Add(1)
	if qslot != nil {
		qslot.Store(packDevFlow(target, b.enqueued.Load()))
	}
	if wasEmpty {
		// First frame into an idle backlog: send the IPI now. Later frames
		// find the kthread awake (or its doorbell pending) and coalesce.
		m.Charge(sim.CostRPSIPI)
		c.rpsIPIs.Add(1)
		b.kick()
	}
	return true
}

// Sock-flow-table entries carry the socket generation they were recorded
// under in their upper bits: (sockGen & rfsGenMask) << rfsCPUBits | (cpu+1).
// Any socket unregistration bumps the generation, so every placement learned
// for a possibly-dead socket goes stale at once — the model of the kernel
// reallocating rps_sock_flow_table. The 24-bit truncation is safe the same
// way any generation wraparound is: a false match needs 2^24 unregistrations
// between a record and its probe.
const (
	rfsCPUBits = 8
	rfsCPUMask = (1 << rfsCPUBits) - 1
	rfsGenMask = (1 << (32 - rfsCPUBits)) - 1
)

func rfsStamp(gen uint64, cpu int) uint32 {
	return uint32(gen&rfsGenMask)<<rfsCPUBits | uint32(cpu+1)&rfsCPUMask
}

// rfsRecord is sock_rps_record_flow: at socket demux, remember the CPU the
// consuming socket ran on so the flow's next frames steer here. Fragmented
// datagrams are skipped — their per-fragment hash degrades to the 2-tuple,
// which must not inherit a port-qualified placement.
func (k *Kernel) rfsRecord(ip *packet.IPv4, sport, dport uint16, m *sim.Meter) {
	st := k.rps.Load()
	if st == nil || st.sockFlow == nil || ip.IsFragment() {
		return
	}
	m.Charge(sim.CostRFSUpdate)
	cpu := 0
	if m != nil {
		cpu = m.CPU
	}
	hash := rpsHash(uint32(ip.Src), uint32(ip.Dst), ip.Proto, sport, dport)
	st.sockFlow[hash&st.mask].Store(rfsStamp(k.sockGen.Load(), cpu))
}

// rfsRecordTuple is rfsRecord for the sockmap hit path, which has the parsed
// flow tuple instead of an IPv4 header view. Fragments never reach it (the
// fast path rejects them before probing).
func (k *Kernel) rfsRecordTuple(t packet.FlowTuple, m *sim.Meter) {
	st := k.rps.Load()
	if st == nil || st.sockFlow == nil {
		return
	}
	m.Charge(sim.CostRFSUpdate)
	cpu := 0
	if m != nil {
		cpu = m.CPU
	}
	hash := rpsHash(uint32(t.Src), uint32(t.Dst), t.Proto, t.SrcPort, t.DstPort)
	st.sockFlow[hash&st.mask].Store(rfsStamp(k.sockGen.Load(), cpu))
}

// RPSBacklogCycles reports the accumulated kthread cycles of one CPU's
// backlog (0 if that CPU has none) — the per-CPU load signal a steering
// controller reads.
func (k *Kernel) RPSBacklogCycles(cpu int) sim.Cycles {
	st := k.rps.Load()
	if st == nil || cpu < 0 || cpu >= NumRxShards || st.backlogs[cpu] == nil {
		return 0
	}
	return sim.Cycles(st.backlogs[cpu].cycles.Load())
}
