// Per-CPU flow fast-cache: memoizes the forwarding decision for a flow (the
// FIB result, resolved neighbour MAC and egress device for L3; the FDB
// decision for L2) so steady-state packets skip the full lookup walk.
//
// The coherence rule is the same one LinuxFP's fast path lives by: the cache
// never copies kernel state it cannot revalidate. Every entry records the
// combined generation of the subsystems consulted to build it, and every hit
// compares that against the live generation — one route change, neighbour
// update, FDB move, rule insertion or sysctl flip bumps a generation and
// every memoized decision dies at once. Expiring state (neighbour
// reachability, FDB ageing) is bounded by the expiry copied at fill time,
// and mutable device fields (MAC, MTU, up/down) are read live on every hit.
//
// The cache is sharded per CPU (same contract as per-CPU data in the
// kernel): a meter's CPU picks the shard, so queue workers never contend.
// It is off by default and enabled with the net.core.flow_cache sysctl.
package kernel

import (
	"encoding/binary"
	"sync/atomic"

	"linuxfp/internal/bridge"
	"linuxfp/internal/netdev"
	"linuxfp/internal/netfilter"
	"linuxfp/internal/packet"
	"linuxfp/internal/sim"
)

// flowCacheSize is entries per shard; direct-mapped, power of two.
const flowCacheSize = 256

const flowCacheMask = flowCacheSize - 1

// flowEntry memoizes one L3 forwarding decision. The seq field is a seqlock:
// odd while a writer is mid-update, bumped to even when consistent; readers
// verify it did not move across their reads.
type flowEntry struct {
	seq         atomic.Uint32
	gen         uint64
	hash        uint32
	tuple       packet.FlowTuple
	out         *netdev.Device
	dstMAC      packet.HWAddr
	neighExpire sim.Time
}

// flowShard is one CPU's direct-mapped flow table, allocated lazily on the
// first fill so idle shards cost nothing.
type flowShard struct {
	entries [flowCacheSize]flowEntry
}

// l2Key identifies one bridged unicast flow: the decision depends on the
// destination (FDB), the source and ingress port (station-move detection via
// key mismatch), and the raw VLAN tag (classification + retag).
type l2Key struct {
	dst, src packet.HWAddr
	vlan     uint16
	ingress  int32
}

// l2Entry memoizes one L2 forwarding decision.
type l2Entry struct {
	seq    atomic.Uint32
	gen    uint64
	key    l2Key
	out    *netdev.Device
	expire sim.Time
}

// l2Shard is one CPU's L2 decision table.
type l2Shard struct {
	entries [flowCacheSize]l2Entry
}

// dpGen is the combined generation of every subsystem an L3 forwarding
// decision consults. Each term is monotonic, so the sum is monotonic: equal
// sums imply nothing changed.
func (k *Kernel) dpGen() uint64 {
	return k.cfgGen.Load() + k.FIB.Gen() + k.Neigh.Gen() + k.NF.Gen()
}

// l2Gen is the combined generation for a bridged decision.
func (k *Kernel) l2Gen(br *bridge.Bridge) uint64 {
	return k.cfgGen.Load() + br.Gen() + k.NF.Gen()
}

// flowHash computes the symmetric Toeplitz hash of a frame's tuple — the
// model's skb->hash, shared with RSS so both directions of a flow land on
// one queue and one cache shard.
func flowHash(t packet.FlowTuple) uint32 {
	return netdev.HashFlow(&netdev.ToeplitzKeySymmetric, t)
}

// flowFastPath attempts a cached L3 forward. It returns true when the frame
// was fully handled (rewritten and transmitted). Validation on every hit:
// the generation, the tuple (hash collisions), the neighbour expiry against
// virtual now, the live TTL, and the live egress MTU/admin state.
func (k *Kernel) flowFastPath(dev *netdev.Device, frame []byte, m *sim.Meter) bool {
	t, l3, ok := packet.ReadFlowTuple(frame)
	if !ok || t.Frag {
		return false
	}
	c := k.ctr(m)
	sh := k.flows[shardIdx(m)].Load()
	if sh == nil {
		c.flowMisses.Add(1)
		return false
	}
	h := flowHash(t)
	e := &sh.entries[h&flowCacheMask]
	seq := e.seq.Load()
	if seq&1 != 0 {
		c.flowMisses.Add(1)
		return false
	}
	out := e.out
	if e.hash != h || e.tuple != t || out == nil || e.gen != k.dpGen() {
		c.flowMisses.Add(1)
		return false
	}
	if k.Now() > e.neighExpire {
		c.flowMisses.Add(1)
		return false
	}
	if packet.IPv4TTL(frame, l3) <= 1 {
		c.flowMisses.Add(1)
		return false
	}
	if int(binary.BigEndian.Uint16(frame[l3+2:l3+4])) > out.MTU || !out.IsUp() {
		c.flowMisses.Add(1)
		return false
	}
	dstMAC := e.dstMAC
	if e.seq.Load() != seq {
		c.flowMisses.Add(1)
		return false
	}
	packet.DecTTL(frame, l3)
	packet.SetEthSrc(frame, out.MAC)
	packet.SetEthDst(frame, dstMAC)
	m.Charge(sim.CostFlowFastHit + sim.CostDevXmit)
	if ft := k.flowTab.Load(); ft != nil {
		ft.Observe(t, len(frame), true, m)
	}
	out.Transmit(frame, m)
	c.flowHits.Add(1)
	c.forwarded.Add(1)
	return true
}

// flowInstall memoizes the decision just taken for frame: transmitted out
// `out` toward dstMAC, a binding valid until expire. gen was captured before
// the lookups ran, so a concurrent mutation forces a conservative miss. The
// caller has already verified eligibility (empty forward-path chains, no
// conntrack, no IPVS, no TC egress, unicast, unfragmented).
func (k *Kernel) flowInstall(frame []byte, out *netdev.Device, dstMAC packet.HWAddr, expire sim.Time, gen uint64, m *sim.Meter) {
	t, _, ok := packet.ReadFlowTuple(frame)
	if !ok || t.Frag {
		return
	}
	idx := shardIdx(m)
	sh := k.flows[idx].Load()
	if sh == nil {
		sh = new(flowShard)
		if !k.flows[idx].CompareAndSwap(nil, sh) {
			sh = k.flows[idx].Load()
		}
	}
	h := flowHash(t)
	e := &sh.entries[h&flowCacheMask]
	e.seq.Add(1) // odd: writer in progress
	e.gen = gen
	e.hash = h
	e.tuple = t
	e.out = out
	e.dstMAC = dstMAC
	e.neighExpire = expire
	e.seq.Add(1) // even: consistent
}

// flowFillEligible reports whether forwarded flows may currently be
// memoized: nothing on the forward path may filter, track, or rewrite
// packets, because a cache hit skips all of it. Any later change to these
// conditions bumps a generation and evicts.
func (k *Kernel) flowFillEligible(out *netdev.Device) bool {
	cp := k.NF.Snapshot(netfilter.HookForward)
	if cp.Rules(netfilter.HookPrerouting) > 0 || cp.Rules(netfilter.HookForward) > 0 ||
		cp.Rules(netfilter.HookPostrouting) > 0 || cp.CTRequired {
		return false
	}
	if k.IPVSActive() {
		return false
	}
	return k.tcEgressFor(out.Index) == nil
}

// l2Hash is FNV-1a over the L2 key.
func l2Hash(key l2Key) uint32 {
	h := uint32(2166136261)
	for _, b := range key.dst {
		h = (h ^ uint32(b)) * 16777619
	}
	for _, b := range key.src {
		h = (h ^ uint32(b)) * 16777619
	}
	h = (h ^ uint32(key.vlan)) * 16777619
	h = (h ^ uint32(key.vlan>>8)) * 16777619
	h = (h ^ uint32(key.ingress)) * 16777619
	h = (h ^ uint32(key.ingress>>8)) * 16777619
	return h
}

// l2FastPath attempts a cached bridged forward for a unicast frame. A hit
// transmits the frame unmodified (entries are only filled when no retag was
// needed). Station moves are caught structurally: a source appearing on a
// new ingress port forms a different key, misses, and the slow path's
// re-learning bumps the bridge generation, killing the stale entry.
func (k *Kernel) l2FastPath(br *bridge.Bridge, dev *netdev.Device, frame []byte, eth packet.Ethernet, m *sim.Meter) bool {
	if eth.Dst.IsMulticast() {
		return false
	}
	c := k.ctr(m)
	sh := k.l2cache[shardIdx(m)].Load()
	if sh == nil {
		c.flowMisses.Add(1)
		return false
	}
	key := l2Key{dst: eth.Dst, src: eth.Src, vlan: eth.VLAN, ingress: int32(dev.Index)}
	e := &sh.entries[l2Hash(key)&flowCacheMask]
	seq := e.seq.Load()
	if seq&1 != 0 {
		c.flowMisses.Add(1)
		return false
	}
	out := e.out
	if e.key != key || out == nil || e.gen != k.l2Gen(br) || k.Now() > e.expire || !out.IsUp() {
		c.flowMisses.Add(1)
		return false
	}
	if e.seq.Load() != seq {
		c.flowMisses.Add(1)
		return false
	}
	m.Charge(sim.CostBridgeFastHit + sim.CostDevXmit)
	if ft := k.flowTab.Load(); ft != nil {
		// Bridged frames need not carry IP; only account the ones that do.
		if t, _, ok := packet.ReadFlowTuple(frame); ok {
			ft.Observe(t, len(frame), true, m)
		}
	}
	out.Transmit(frame, m)
	c.flowHits.Add(1)
	return true
}

// l2Install memoizes a single-egress unicast bridge decision that required
// no retagging. expire bounds the entry by the FDB entry's own ageing.
func (k *Kernel) l2Install(dev *netdev.Device, eth packet.Ethernet, out *netdev.Device, expire sim.Time, gen uint64, m *sim.Meter) {
	idx := shardIdx(m)
	sh := k.l2cache[idx].Load()
	if sh == nil {
		sh = new(l2Shard)
		if !k.l2cache[idx].CompareAndSwap(nil, sh) {
			sh = k.l2cache[idx].Load()
		}
	}
	key := l2Key{dst: eth.Dst, src: eth.Src, vlan: eth.VLAN, ingress: int32(dev.Index)}
	e := &sh.entries[l2Hash(key)&flowCacheMask]
	e.seq.Add(1)
	e.gen = gen
	e.key = key
	e.out = out
	e.expire = expire
	e.seq.Add(1)
}

// FlowCacheEnabled reports whether the per-CPU flow fast-cache is on
// (net.core.flow_cache sysctl).
func (k *Kernel) FlowCacheEnabled() bool { return k.flowCacheOn.Load() }
