package ebpf

import (
	"sync"
	"sync/atomic"

	"linuxfp/internal/drop"
	"linuxfp/internal/kernel"
	"linuxfp/internal/netdev"
	"linuxfp/internal/sim"
)

// ProgArray is the BPF_MAP_TYPE_PROG_ARRAY: tail-call targets indexed by
// slot. Updating a slot is a single atomic pointer store — the mechanism
// LinuxFP uses to swap an entire data path without dropping packets
// (paper Fig. 4).
type ProgArray struct {
	name  string
	slots []atomic.Pointer[Program]
}

// NewProgArray allocates a program array with n slots.
func NewProgArray(name string, n int) *ProgArray {
	return &ProgArray{name: name, slots: make([]atomic.Pointer[Program], n)}
}

// Name returns the map name.
func (pa *ProgArray) Name() string { return pa.name }

// Len reports the slot count.
func (pa *ProgArray) Len() int { return len(pa.slots) }

// Update installs a program in a slot (nil clears it). It reports whether
// the slot index was valid.
func (pa *ProgArray) Update(slot int, p *Program) bool {
	if slot < 0 || slot >= len(pa.slots) {
		return false
	}
	pa.slots[slot].Store(p)
	return true
}

// Lookup fetches the program in a slot.
func (pa *ProgArray) Lookup(slot int) *Program {
	if slot < 0 || slot >= len(pa.slots) {
		return nil
	}
	return pa.slots[slot].Load()
}

// HashMap is a BPF_MAP_TYPE_HASH with 64-bit keys and values — enough for
// the counters and small lookup tables FPMs keep (remember: LinuxFP
// deliberately does NOT keep configuration state in maps; that is the
// Polycube baseline's approach).
type HashMap struct {
	name string
	max  int

	mu sync.RWMutex
	m  map[uint64]uint64
}

// NewHashMap allocates a hash map with a max-entries bound.
func NewHashMap(name string, maxEntries int) *HashMap {
	return &HashMap{name: name, max: maxEntries, m: make(map[uint64]uint64)}
}

// Name returns the map name.
func (h *HashMap) Name() string { return h.name }

// Lookup reads a key.
func (h *HashMap) Lookup(k uint64) (uint64, bool) {
	h.mu.RLock()
	defer h.mu.RUnlock()
	v, ok := h.m[k]
	return v, ok
}

// Update writes a key, failing when the map is full (E2BIG in the kernel).
func (h *HashMap) Update(k, v uint64) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	if _, exists := h.m[k]; !exists && len(h.m) >= h.max {
		return false
	}
	h.m[k] = v
	return true
}

// Delete removes a key.
func (h *HashMap) Delete(k uint64) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	_, ok := h.m[k]
	delete(h.m, k)
	return ok
}

// Add atomically increments a key (BPF_XADD-style), creating it at delta.
func (h *HashMap) Add(k, delta uint64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if _, exists := h.m[k]; !exists && len(h.m) >= h.max {
		return
	}
	h.m[k] += delta
}

// Len reports the number of entries.
func (h *HashMap) Len() int {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return len(h.m)
}

// ArrayMap is a BPF_MAP_TYPE_ARRAY of 64-bit values (per-CPU flavour is
// not modeled; a single atomic slot array captures the semantics).
type ArrayMap struct {
	name  string
	slots []atomic.Uint64
}

// NewArrayMap allocates an array map.
func NewArrayMap(name string, n int) *ArrayMap {
	return &ArrayMap{name: name, slots: make([]atomic.Uint64, n)}
}

// Name returns the map name.
func (a *ArrayMap) Name() string { return a.name }

// Len reports the slot count.
func (a *ArrayMap) Len() int { return len(a.slots) }

// Lookup reads a slot (out-of-range reads zero, like a missing element).
func (a *ArrayMap) Lookup(i int) uint64 {
	if i < 0 || i >= len(a.slots) {
		return 0
	}
	return a.slots[i].Load()
}

// Update writes a slot.
func (a *ArrayMap) Update(i int, v uint64) bool {
	if i < 0 || i >= len(a.slots) {
		return false
	}
	a.slots[i].Store(v)
	return true
}

// Add atomically increments a slot.
func (a *ArrayMap) Add(i int, delta uint64) {
	if i >= 0 && i < len(a.slots) {
		a.slots[i].Add(delta)
	}
}

// MapCPUs is the number of virtual CPUs per-CPU map variants shard over.
// It matches netdev.MaxRxQueues (and therefore kernel.NumRxShards) so a
// meter's CPU maps 1:1 onto a shard, and is a power of two so the mapping
// is a mask.
const MapCPUs = netdev.MaxRxQueues

const mapCPUMask = MapCPUs - 1

// PerCPUArrayMap is a BPF_MAP_TYPE_PERCPU_ARRAY: each virtual CPU owns its
// own value row, so per-packet counter updates from different RX queues
// never contend on a cache line. Data-path writers pass their Meter CPU;
// control-plane readers aggregate with Sum, the way userspace sums the
// per-CPU values a percpu map lookup returns.
type PerCPUArrayMap struct {
	name   string
	n      int
	stride int // per-CPU row length, rounded up to a cache line of slots
	slots  []atomic.Uint64
}

// NewPerCPUArrayMap allocates a per-CPU array map with n slots per CPU.
func NewPerCPUArrayMap(name string, n int) *PerCPUArrayMap {
	stride := (n + 7) &^ 7 // cache-line align rows: no false sharing between CPUs
	return &PerCPUArrayMap{name: name, n: n, stride: stride, slots: make([]atomic.Uint64, MapCPUs*stride)}
}

// Name returns the map name.
func (a *PerCPUArrayMap) Name() string { return a.name }

// Len reports the per-CPU slot count.
func (a *PerCPUArrayMap) Len() int { return a.n }

// Add increments slot i on the given CPU's row.
func (a *PerCPUArrayMap) Add(cpu, i int, delta uint64) {
	if i >= 0 && i < a.n {
		a.slots[(cpu&mapCPUMask)*a.stride+i].Add(delta)
	}
}

// Lookup reads slot i on one CPU's row (out-of-range reads zero).
func (a *PerCPUArrayMap) Lookup(cpu, i int) uint64 {
	if i < 0 || i >= a.n {
		return 0
	}
	return a.slots[(cpu&mapCPUMask)*a.stride+i].Load()
}

// Sum aggregates slot i across every CPU — the control-plane read.
func (a *PerCPUArrayMap) Sum(i int) uint64 {
	if i < 0 || i >= a.n {
		return 0
	}
	var total uint64
	for cpu := 0; cpu < MapCPUs; cpu++ {
		total += a.slots[cpu*a.stride+i].Load()
	}
	return total
}

// LookupAggregate sums every slot across every CPU in one pass — what a
// userspace bpf_map_lookup_elem on a percpu map hands back, pre-reduced.
// Monitors and tests that want the whole map's totals use this instead of
// hand-rolling a Sum loop per slot.
func (a *PerCPUArrayMap) LookupAggregate() []uint64 {
	out := make([]uint64, a.n)
	for cpu := 0; cpu < MapCPUs; cpu++ {
		row := a.slots[cpu*a.stride:]
		for i := 0; i < a.n; i++ {
			out[i] += row[i].Load()
		}
	}
	return out
}

// pcpuShard is one CPU's slice of a PerCPUHashMap. The mutex is effectively
// uncontended (each RX queue only touches its own shard); the padding keeps
// shards on distinct cache lines.
type pcpuShard struct {
	mu sync.Mutex
	m  map[uint64]uint64
	_  [4]uint64
}

// PerCPUHashMap is a BPF_MAP_TYPE_PERCPU_HASH modeled as per-CPU key/value
// shards: an update from CPU x is visible only to CPU x, exactly like the
// kernel's per-CPU values. For flow-keyed state this is coherent because
// RSS pins every flow to one RX queue — the property LinuxFP's LB module
// relies on to drop the cross-queue lock.
type PerCPUHashMap struct {
	name   string
	max    int // per-CPU entry bound, like the kernel's per-CPU allocation
	shards []pcpuShard
}

// NewPerCPUHashMap allocates a per-CPU hash map bounded at maxEntries per
// CPU.
func NewPerCPUHashMap(name string, maxEntries int) *PerCPUHashMap {
	h := &PerCPUHashMap{name: name, max: maxEntries, shards: make([]pcpuShard, MapCPUs)}
	for i := range h.shards {
		h.shards[i].m = make(map[uint64]uint64)
	}
	return h
}

// Name returns the map name.
func (h *PerCPUHashMap) Name() string { return h.name }

func (h *PerCPUHashMap) shard(cpu int) *pcpuShard { return &h.shards[cpu&mapCPUMask] }

// Lookup reads a key on one CPU's shard.
func (h *PerCPUHashMap) Lookup(cpu int, k uint64) (uint64, bool) {
	s := h.shard(cpu)
	s.mu.Lock()
	defer s.mu.Unlock()
	v, ok := s.m[k]
	return v, ok
}

// Update writes a key on one CPU's shard, failing when that shard is full.
func (h *PerCPUHashMap) Update(cpu int, k, v uint64) bool {
	s := h.shard(cpu)
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, exists := s.m[k]; !exists && len(s.m) >= h.max {
		return false
	}
	s.m[k] = v
	return true
}

// Add increments a key on one CPU's shard, creating it at delta.
func (h *PerCPUHashMap) Add(cpu int, k, delta uint64) {
	s := h.shard(cpu)
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, exists := s.m[k]; !exists && len(s.m) >= h.max {
		return
	}
	s.m[k] += delta
}

// Delete removes a key from one CPU's shard.
func (h *PerCPUHashMap) Delete(cpu int, k uint64) bool {
	s := h.shard(cpu)
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.m[k]
	delete(s.m, k)
	return ok
}

// LookupAggregate sums a key's value across every CPU and reports whether
// any shard held it — Sum plus existence, the shape userspace gets from a
// percpu hash lookup after reducing the per-CPU rows.
func (h *PerCPUHashMap) LookupAggregate(k uint64) (uint64, bool) {
	var total uint64
	found := false
	for i := range h.shards {
		s := &h.shards[i]
		s.mu.Lock()
		if v, ok := s.m[k]; ok {
			total += v
			found = true
		}
		s.mu.Unlock()
	}
	return total, found
}

// Sum aggregates a key's value across every CPU (control-plane read).
func (h *PerCPUHashMap) Sum(k uint64) uint64 {
	var total uint64
	for i := range h.shards {
		s := &h.shards[i]
		s.mu.Lock()
		total += s.m[k]
		s.mu.Unlock()
	}
	return total
}

// Len reports the total entry count across CPUs.
func (h *PerCPUHashMap) Len() int {
	total := 0
	for i := range h.shards {
		s := &h.shards[i]
		s.mu.Lock()
		total += len(s.m)
		s.mu.Unlock()
	}
	return total
}

// cpuStage is one (RX queue, target CPU) bulk queue: up to CPUMapBulkSize
// frames staged for one cpumap entry during a NAPI poll. The entry pointer
// is captured at stage time so an in-flight stage still spills into the
// entry the frames were redirected to, even if the map slot was swapped or
// deleted mid-poll (the stopped entry counts them as drops — no frame is
// silently lost).
type cpuStage struct {
	e      *kernel.CpumapEntry
	dev    *netdev.Device
	n      int
	frames [netdev.CPUMapBulkSize][]byte
}

// cpumapRxQueue is one RX queue's staging state. The mutex is uncontended
// when each device polls its own queue index (the common case), and keeps
// the map safe when programs on two devices share a queue index; the
// padding keeps queues on distinct cache lines.
type cpumapRxQueue struct {
	mu     sync.Mutex
	stages []cpuStage
	_      [4]uint64
}

// CPUMap is the BPF_MAP_TYPE_CPUMAP: XDP_REDIRECT targets that are CPUs, not
// devices. Each occupied slot is a kernel.CpumapEntry — a bounded ptr_ring
// plus a kthread that drains it into the target CPU's DeliverBatch. The map
// implements netdev.CPURedirectTarget: the redirect helper plants it on the
// XDP buff, the driver's batch loop stages frames per (RX queue, CPU) and
// spills in CPUMapBulkSize bursts, and xdp_do_flush rings each touched
// entry's doorbell once per poll.
type CPUMap struct {
	name    string
	kern    *kernel.Kernel
	entries [MapCPUs]atomic.Pointer[kernel.CpumapEntry]
	queues  [netdev.MaxRxQueues]cpumapRxQueue
}

// NewCPUMap allocates a cpumap bound to the kernel whose stack the target
// kthreads inject into. All slots start empty.
func NewCPUMap(name string, k *kernel.Kernel) *CPUMap {
	return &CPUMap{name: name, kern: k}
}

// Name returns the map name.
func (cm *CPUMap) Name() string { return cm.name }

// Len reports the slot count.
func (cm *CPUMap) Len() int { return MapCPUs }

// Update installs (or replaces) the entry for a CPU with a ring of qsize
// frames, starting its kthread. A replaced entry is stopped and drained
// before Update returns. Reports whether the CPU index was valid.
func (cm *CPUMap) Update(cpu, qsize int) bool {
	if cpu < 0 || cpu >= MapCPUs || qsize < 1 {
		return false
	}
	e := cm.kern.NewCpumapEntry(cpu, qsize)
	if old := cm.entries[cpu].Swap(e); old != nil {
		old.Stop()
	}
	return true
}

// valueProgRun is the working set of one cpumap value-program run: the
// context and the xdp_buff it points at, pooled together so the kthread's
// per-frame program run allocates nothing.
type valueProgRun struct {
	ctx  Ctx
	buff netdev.XDPBuff
}

var valueProgPool = sync.Pool{New: func() any { return new(valueProgRun) }}

// UpdateWithProg installs an entry whose kthread re-runs an XDP program on
// every frame after dequeue — BPF_MAP_TYPE_CPUMAP with a CPUMAP_VALUE_PROG
// (bpf_cpu_map_entry.prog, kernel 5.9+). The program executes on the target
// CPU's meter, after the redirect, so the RX core stays at its minimal
// enqueue cost and the second verdict (filter, TX, device redirect) is
// charged where the kernel charges it: in cpu_map_bpf_prog_run_xdp.
func (cm *CPUMap) UpdateWithProg(cpu, qsize int, p *Program) bool {
	if cpu < 0 || cpu >= MapCPUs || qsize < 1 || p == nil {
		return false
	}
	e := cm.kern.NewCpumapEntry(cpu, qsize)
	e.SetValueProg(valueProg(cm.kern, p))
	if old := cm.entries[cpu].Swap(e); old != nil {
		old.Stop()
	}
	return true
}

// valueProg is the per-frame body of a CPUMAP_VALUE_PROG
// (cpu_map_bpf_prog_run_xdp): run p on the dequeued frame and turn its
// verdict into deliver, drop, TX or a device redirect.
func valueProg(k *kernel.Kernel, p *Program) kernel.CpumapProg {
	return func(dev *netdev.Device, frame []byte, m *sim.Meter) (bool, drop.Reason) {
		run := valueProgPool.Get().(*valueProgRun)
		run.buff.Reset(frame, dev.Index, 0, m)
		run.ctx.bind(k, HookXDP)
		run.ctx.reset(m, dev.Index, &run.buff, nil)
		v := p.exec(&run.ctx)
		redirectIf, redirectCPUMap := run.ctx.RedirectIfIndex, run.ctx.RedirectCPUMap
		valueProgPool.Put(run)
		switch v {
		case VerdictDrop:
			return false, drop.ReasonXDPDrop
		case VerdictAborted:
			return false, drop.ReasonXDPAborted
		case VerdictTX:
			// Reflect out the arrival device; the frame is consumed here and
			// the device's TX counters account for it.
			dev.Transmit(frame, m)
			return false, drop.ReasonNotSpecified
		case VerdictRedirect:
			// Chained cpumap redirects are not a thing in the kernel either:
			// a value prog may only target devices.
			if redirectCPUMap == nil {
				if out, ok := k.DeviceByIndex(redirectIf); ok {
					m.Charge(sim.CostDevXmit)
					out.Transmit(frame, m)
					return false, drop.ReasonNotSpecified
				}
			}
			return false, drop.ReasonXDPRedirectFail
		default:
			return true, drop.ReasonNotSpecified
		}
	}
}

// SetLatObserver attaches a latency observer to a CPU's entry: every frame's
// enqueue→dequeue cycle delta is recorded into s. Reports whether the slot
// was occupied.
func (cm *CPUMap) SetLatObserver(cpu int, s *sim.Stats) bool {
	if cpu < 0 || cpu >= MapCPUs {
		return false
	}
	e := cm.entries[cpu].Load()
	if e == nil {
		return false
	}
	e.SetLatObserver(s)
	return true
}

// Delete clears a CPU's slot, stopping and draining its kthread. Reports
// whether a live entry was removed.
func (cm *CPUMap) Delete(cpu int) bool {
	if cpu < 0 || cpu >= MapCPUs {
		return false
	}
	old := cm.entries[cpu].Swap(nil)
	if old == nil {
		return false
	}
	old.Stop()
	return true
}

// Lookup reports a slot's ring capacity (the map value) and occupancy.
func (cm *CPUMap) Lookup(cpu int) (qsize int, ok bool) {
	if cpu < 0 || cpu >= MapCPUs {
		return 0, false
	}
	e := cm.entries[cpu].Load()
	if e == nil {
		return 0, false
	}
	return e.Qsize(), true
}

// EntryCycles reports the cycle total a slot's kthread has charged so far —
// the per-target-CPU load a sweep needs to find the busiest core. Zero for
// an empty slot.
func (cm *CPUMap) EntryCycles(cpu int) sim.Cycles {
	if cpu < 0 || cpu >= MapCPUs {
		return 0
	}
	e := cm.entries[cpu].Load()
	if e == nil {
		return 0
	}
	return e.Cycles()
}

// Quiesce blocks until every frame enqueued to any live entry has been
// delivered to the stack. Tests and sweeps call it between polls for
// deterministic GRO windows and cycle totals.
func (cm *CPUMap) Quiesce() {
	for i := range cm.entries {
		if e := cm.entries[i].Load(); e != nil {
			e.Quiesce()
		}
	}
}

// EnqueueCPU implements netdev.CPURedirectTarget: stage one frame for cpu on
// rxq, spilling the stage into the entry's ring when it is already full.
// ok is false when the slot is empty (an unresolvable redirect); dropped
// counts frames a threshold spill lost to ring overflow.
func (cm *CPUMap) EnqueueCPU(rxq, cpu int, dev *netdev.Device, frame []byte, m *sim.Meter) (dropped int, ok bool) {
	if cpu < 0 || cpu >= MapCPUs {
		return 0, false
	}
	e := cm.entries[cpu].Load()
	if e == nil {
		return 0, false
	}
	m.Charge(sim.CostCpumapEnqueue)
	q := &cm.queues[rxq&(netdev.MaxRxQueues-1)]
	q.mu.Lock()
	st := (*cpuStage)(nil)
	for i := range q.stages {
		if q.stages[i].e == e {
			st = &q.stages[i]
			break
		}
	}
	if st == nil {
		q.stages = append(q.stages, cpuStage{e: e, dev: dev})
		st = &q.stages[len(q.stages)-1]
	}
	if st.n == netdev.CPUMapBulkSize || (st.n > 0 && st.dev != dev) {
		var wasEmpty bool
		dropped, wasEmpty = e.EnqueueBatch(st.dev, st.frames[:st.n], m)
		st.n = 0
		if wasEmpty {
			// First spill into an idle ring: wake the kthread now instead of
			// waiting for end-of-poll, so it overlaps with the rest of the
			// NAPI burst (cpu_map_kthread wake-on-first-enqueue). The poll
			// goes on, so this wakeup does not end it.
			e.Wake(m)
		}
	}
	st.dev = dev
	st.frames[st.n] = frame
	st.n++
	q.mu.Unlock()
	return dropped, true
}

// FlushCPU implements netdev.CPURedirectTarget: spill every stage rxq
// touched since the last flush and ring each target's doorbell once — the
// cpumap half of xdp_do_flush.
func (cm *CPUMap) FlushCPU(rxq int, m *sim.Meter) (dropped int) {
	q := &cm.queues[rxq&(netdev.MaxRxQueues-1)]
	q.mu.Lock()
	for i := range q.stages {
		st := &q.stages[i]
		if st.n > 0 {
			d, _ := st.e.EnqueueBatch(st.dev, st.frames[:st.n], m)
			dropped += d
		}
		// One doorbell per entry touched this poll, even if its frames all
		// went in via threshold spills.
		st.e.RingDoorbell(m)
		*st = cpuStage{} // release frame and entry references
	}
	q.stages = q.stages[:0]
	q.mu.Unlock()
	return dropped
}
