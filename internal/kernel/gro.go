// Generic receive offload: the slow-path batching layer between XDP batch
// exit and IP input. Same-flow TCP data segments arriving back to back in a
// NAPI poll are coalesced into supersegments, so the IP/netfilter/FIB/neigh
// walk — and any TC program — runs once per supersegment instead of once per
// frame. On forward the supersegment is split back into wire frames at the
// egress device (GSO), byte-identical to what the per-frame path would have
// transmitted; on local delivery the socket sees one message carrying the
// merged payload, exactly as with kernel GRO.
//
// The hold table is per-CPU (per shard), sized and ruled like Linux:
// MAX_GRO_SKBS holds, at most 17 segments or 65535 IP bytes per
// supersegment, with PSH/FIN/SYN/RST/URG/CWR/ECE, TCP options, urgent data,
// out-of-order sequence numbers, ack/window changes, and undersized tails
// all forcing a flush. net.core.gro_flush_timeout == 0 flushes every hold at
// the end of each poll; a positive timeout lets holds ride across polls
// until their virtual-time deadline.
package kernel

import (
	"bytes"
	"sync"

	"linuxfp/internal/drop"
	"linuxfp/internal/flight"
	"linuxfp/internal/netdev"
	"linuxfp/internal/netfilter"
	"linuxfp/internal/packet"
	"linuxfp/internal/sim"
)

const (
	// GROMaxSegs caps the segments per supersegment (Linux's gso_max_segs
	// contribution to GRO: 17 MSS-sized segments fill a 64KB skb).
	GROMaxSegs = 17
	// groMaxHolds is MAX_GRO_SKBS: concurrent flows held per NAPI context.
	groMaxHolds = 8
	// groMaxSuperLen caps the coalesced IP datagram (total-length field).
	groMaxSuperLen = 65535
)

// gsoMeta rides with a frame from GRO flush to egress: how to split it back.
// segs <= 1 means a plain wire frame that needs no resegmentation.
type gsoMeta struct {
	size    int // payload bytes per output segment
	segs    int // coalesced segment count
	pshLast bool
	sup     *groSuper // nil on singles
}

// groSuper is a supersegment: the linear copy the stack walks, plus the RX
// frames it was built from and their verified payload sums. Only a super
// GSO re-emitted is recycled: a socket may keep a delivered one's payload.
type groSuper struct {
	owner   *groCtx
	buf     []byte
	sums    [GROMaxSegs]uint16
	frames  [GROMaxSegs][]byte
	emitted bool // GSO wrote it out: recyclable once the stack walk is over
}

// segments re-emits the super as its RX frames under the stack's headers (or,
// reshaped past them, as fresh frames), aliased until deliverOuts recycles it.
func (g gsoMeta) segments(super []byte, l3, l4 int, m *sim.Meter) [][]byte {
	s := g.sup
	s.emitted = true
	segs := s.frames[:g.segs]
	if !packet.ResegmentTCPInto(super, l3, l4, g.size, g.pshLast, s.sums[:g.segs], segs) {
		segs = packet.SegmentTCP(super, l3, l4, g.size, g.pshLast)
	}
	m.Charge(sim.CostGSOSegment * sim.Cycles(len(segs)))
	return segs
}

// groOut is one frame the GRO layer emits into the stack: a passthrough
// single or a finalized supersegment, tagged with its ingress device.
type groOut struct {
	frame []byte
	dev   *netdev.Device
	gso   gsoMeta
}

// groBatch is the pooled per-poll emission buffer.
type groBatch struct{ outs []groOut }

var groBatchPool = sync.Pool{New: func() any {
	return &groBatch{outs: make([]groOut, 0, netdev.NAPIBudget+groMaxHolds)}
}}

// groHold is one in-progress coalesce: the supersegment under construction
// plus the expectations the next in-order segment must meet.
type groHold struct {
	sup     *groSuper
	dev     *netdev.Device
	l3, l4  int
	gsoSize int // payload length of the first segment: the split size
	segs    int
	pshLast bool
	// paySum is the running one's-complement sum of the payload held so far
	// (each piece placed with packet.SumAt); sup.sums keeps each segment's.
	paySum uint32

	src, dst     packet.Addr
	sport, dport uint16
	nextSeq      uint32 // expected sequence number of the next segment
	nextID       uint16 // expected IP ID (must be consecutive to resegment)
	ack          uint32
	window       uint16

	born     uint64   // allocation order, for oldest-first eviction
	deadline sim.Time // gro_flush_timeout expiry; 0 = flush at poll end

	// fl is the flight chain riding the hold: the first sampled segment's
	// chain, with every later sampled segment's trace ID folded in. It
	// detaches from the frame address here and reattaches to the address
	// the supersegment leaves from at flush.
	fl *flight.Chain
}

// groCtx is one shard's NAPI GRO context. The mutex is per-CPU so it is
// uncontended in steady state; it exists because GROFlushAll (device toggle,
// queue teardown, sysctl flips) may run from another goroutine.
type groCtx struct {
	mu     sync.Mutex
	holds  [groMaxHolds]groHold
	active int
	seq    uint64
	free   []*groSuper // at most groMaxHolds; GROFlushAll returns them too
}

// putSuper keeps a supersegment for reuse, its frame references dropped.
func (ctx *groCtx) putSuper(s *groSuper) {
	if *s = (groSuper{owner: ctx, buf: s.buf}); len(ctx.free) < groMaxHolds {
		ctx.free = append(ctx.free, s)
	}
}

// groCtxFor returns (lazily allocating) the GRO context for the meter's CPU.
func (k *Kernel) groCtxFor(m *sim.Meter) *groCtx {
	idx := shardIdx(m)
	ctx := k.gro[idx].Load()
	if ctx == nil {
		ctx = new(groCtx)
		if !k.gro[idx].CompareAndSwap(nil, ctx) {
			ctx = k.gro[idx].Load()
		}
	}
	return ctx
}

// groCand is the parse result of one ingress frame against the GRO rules.
type groCand struct {
	tcp   bool // IPv4 TCP with a readable tuple: may flush a matching hold
	merge bool // fully merge-eligible in-order data segment

	l3, l4       int
	src, dst     packet.Addr
	sport, dport uint16
	seq, ack     uint32
	window       uint16
	id           uint16
	flags        packet.TCPFlags
	payload      []byte
	paySum       uint16 // packet.PartialSum(payload), verified
}

// groParse classifies a frame. Anything unusual — control bits, TCP options,
// urgent data, fragments, IP options, padding, checksum failures — leaves
// merge false so the frame travels the stock per-frame path untouched.
func groParse(frame []byte, c *groCand) {
	*c = groCand{}
	et, l3 := packet.EtherTypeOf(frame)
	if et != packet.EtherTypeIPv4 || len(frame) < l3+packet.IPv4MinLen+packet.TCPHdrLen {
		return
	}
	if frame[l3]>>4 != 4 || frame[l3]&0xf != 5 {
		return // IP options: slow path
	}
	if packet.IPv4Proto(frame, l3) != packet.ProtoTCP || packet.IPv4IsFragment(frame, l3) {
		return
	}
	l4 := l3 + packet.IPv4MinLen
	c.tcp = true
	c.l3, c.l4 = l3, l4
	c.src, c.dst = packet.IPv4Src(frame, l3), packet.IPv4Dst(frame, l3)
	c.sport, c.dport = packet.L4Ports(frame, l4)
	c.seq = packet.TCPSeq(frame, l4)
	c.ack = packet.TCPAckNum(frame, l4)
	c.window = packet.TCPWindow(frame, l4)
	c.id = packet.IPv4ID(frame, l3)
	c.flags = packet.TCPRawFlags(frame, l4)
	if packet.TCPDataOff(frame, l4) != packet.TCPHdrLen || packet.TCPUrgent(frame, l4) != 0 {
		return
	}
	if c.flags&(packet.TCPSyn|packet.TCPFin|packet.TCPRst|packet.TCPUrg|packet.TCPEce|packet.TCPCwr) != 0 ||
		c.flags&packet.TCPAck == 0 {
		return
	}
	totalLen := int(packet.IPv4TotalLen(frame, l3))
	if totalLen <= packet.IPv4MinLen+packet.TCPHdrLen || l3+totalLen != len(frame) {
		return // no payload, or padded/truncated on the wire
	}
	// Both checksums must verify: a corrupt segment must reach the stack
	// unmodified so it fails there exactly as without GRO.
	if packet.Checksum(frame[l3:l4]) != 0 {
		return
	}
	// The payload is summed here and nowhere else: flush and GSO build their
	// checksums from this value.
	payload := frame[l4+packet.TCPHdrLen : l3+totalLen]
	paySum := packet.PartialSum(payload)
	if packet.ChecksumWithPseudoSum(c.src, c.dst, packet.ProtoTCP, frame[l4:l4+packet.TCPHdrLen], uint32(paySum), len(payload)) != 0 {
		return
	}
	c.payload, c.paySum = payload, paySum
	c.merge = true
}

// groRun feeds one poll's frames through the shard's GRO context and returns
// the emitted frames (passthrough singles and finalized supersegments) in
// per-flow arrival order. Per-frame driver receive costs are charged here;
// stack entry costs are charged per emitted frame by deliverRun. pollEnd is
// false when more frames of the same poll follow in a later call.
func (k *Kernel) groRun(dev *netdev.Device, frames [][]byte, pollEnd bool, outs []groOut, m *sim.Meter) []groOut {
	defer k.trace("napi_gro_receive", m)()
	ctx := k.groCtxFor(m)
	ctx.mu.Lock()
	now := k.Now()
	// Holds that rode over from earlier polls under gro_flush_timeout:
	// expired ones flush first so their bytes precede this burst.
	if ctx.active > 0 {
		outs = ctx.flushExpired(k, now, outs, m)
	}
	to := k.groFlushTO.Load()
	rx := rxDeviceCost(dev)
	for _, frame := range frames {
		m.Charge(rx)
		outs = ctx.receive(k, dev, frame, now, to, outs, m)
	}
	// End of poll: with no flush timeout every hold drains now (napi
	// complete); with one, unexpired holds wait for a later poll.
	if pollEnd && to == 0 && ctx.active > 0 {
		outs = ctx.flushAll(k, nil, outs, m)
	}
	ctx.mu.Unlock()
	return outs
}

// receive runs one frame through the GRO rules, appending whatever must be
// emitted (in order) to outs.
func (ctx *groCtx) receive(k *Kernel, dev *netdev.Device, frame []byte, now sim.Time, to int64, outs []groOut, m *sim.Meter) []groOut {
	var c groCand
	groParse(frame, &c)
	if !c.merge {
		// Same-flow traffic that cannot merge (pure ACKs, SYN/FIN/RST,
		// fragments, bad checksums) must not overtake held data: flush the
		// flow's hold first, then pass the frame through untouched.
		if c.tcp && ctx.active > 0 {
			if h := ctx.find(dev, &c); h != nil {
				outs = ctx.flushHold(k, h, outs, m)
			}
		}
		return append(outs, groOut{frame: frame, dev: dev, gso: gsoMeta{segs: 1}})
	}
	m.Charge(sim.CostGROReceive)
	h := ctx.find(dev, &c)
	if h == nil {
		if c.flags&packet.TCPPsh != 0 {
			// PSH with nothing to merge into: deliver immediately.
			return append(outs, groOut{frame: frame, dev: dev, gso: gsoMeta{segs: 1}})
		}
		return ctx.start(k, dev, frame, &c, now, to, outs, m)
	}
	if !h.canAppend(frame, &c) {
		outs = ctx.flushHold(k, h, outs, m)
		if c.flags&packet.TCPPsh != 0 {
			return append(outs, groOut{frame: frame, dev: dev, gso: gsoMeta{segs: 1}})
		}
		return ctx.start(k, dev, frame, &c, now, to, outs, m)
	}
	if fr := k.flight.Load(); fr != nil {
		// The merged frame's chain folds into the hold's: the supersegment
		// carries every sampled segment's trace ID forward.
		h.fl = fr.Fold(h.fl, frame, m)
	}
	s := h.sup
	if h.segs == 1 {
		// First merge: linearise, into a buffer holding the most this hold
		// can come to hold, so no later append reallocates.
		if need := min(len(s.frames[0])+(GROMaxSegs-1)*h.gsoSize, h.l3+groMaxSuperLen); cap(s.buf) < need {
			s.buf = make([]byte, 0, need)
		}
		s.buf = append(s.buf[:0], s.frames[0]...)
		s.sums[0] = uint16(h.paySum)
	}
	h.paySum += uint32(packet.SumAt(c.paySum, h.segs*h.gsoSize))
	s.sums[h.segs] = c.paySum
	s.frames[h.segs] = frame
	s.buf = append(s.buf, c.payload...)
	h.segs++
	h.nextSeq += uint32(len(c.payload))
	h.nextID++
	m.Charge(sim.CostGROMerge)
	m.ChargeBytes(len(c.payload))
	k.ctr(m).groCoalesced.Add(1)
	// Flush triggers that end a supersegment at this frame: PSH, an
	// undersized tail (later segments may not grow past the split size),
	// or the 17-segment cap.
	if c.flags&packet.TCPPsh != 0 || len(c.payload) < h.gsoSize || h.segs >= GROMaxSegs {
		h.pshLast = c.flags&packet.TCPPsh != 0
		outs = ctx.flushHold(k, h, outs, m)
	}
	return outs
}

// find returns the hold matching the candidate's flow on this device.
func (ctx *groCtx) find(dev *netdev.Device, c *groCand) *groHold {
	for i := range ctx.holds {
		h := &ctx.holds[i]
		if h.segs > 0 && h.dev == dev && h.src == c.src && h.dst == c.dst &&
			h.sport == c.sport && h.dport == c.dport {
			return h
		}
	}
	return nil
}

// canAppend reports whether the candidate extends the hold in order with
// headers that resegmentation can reproduce exactly.
func (h *groHold) canAppend(frame []byte, c *groCand) bool {
	if c.l3 != h.l3 || h.segs >= GROMaxSegs {
		return false
	}
	// Every held segment is gsoSize long: a shorter one ends the hold.
	if h.l4+packet.TCPHdrLen-h.l3+h.segs*h.gsoSize+len(c.payload) > groMaxSuperLen {
		return false
	}
	if len(c.payload) > h.gsoSize {
		return false
	}
	if c.seq != h.nextSeq || c.id != h.nextID || c.ack != h.ack || c.window != h.window {
		return false
	}
	// L2 headers and the invariant IP fields must match byte for byte:
	// MACs/ethertype (and any VLAN tag), then TOS, flags/frag-off (DF), TTL.
	first := h.sup.frames[0]
	if !bytes.Equal(frame[:h.l3], first[:h.l3]) {
		return false
	}
	if frame[h.l3+1] != first[h.l3+1] ||
		frame[h.l3+6] != first[h.l3+6] || frame[h.l3+7] != first[h.l3+7] ||
		frame[h.l3+8] != first[h.l3+8] {
		return false
	}
	return true
}

// start opens a new hold for the candidate, evicting the oldest hold when
// the table is full (MAX_GRO_SKBS). The frame is not copied: the hold keeps
// it, and every frame merged after it, until the supersegment is re-emitted.
func (ctx *groCtx) start(k *Kernel, dev *netdev.Device, frame []byte, c *groCand, now sim.Time, to int64, outs []groOut, m *sim.Meter) []groOut {
	slot := -1
	for i := range ctx.holds {
		if ctx.holds[i].segs == 0 {
			slot = i
			break
		}
	}
	if slot == -1 {
		oldest := 0
		for i := 1; i < groMaxHolds; i++ {
			if ctx.holds[i].born < ctx.holds[oldest].born {
				oldest = i
			}
		}
		outs = ctx.flushHold(k, &ctx.holds[oldest], outs, m)
		slot = oldest
	}
	ctx.seq++
	h := &ctx.holds[slot]
	var fl *flight.Chain
	if fr := k.flight.Load(); fr != nil {
		// The chain parks on the hold, off the frame's address, until flush.
		fl = fr.Detach(frame, m)
	}
	var sup *groSuper
	if n := len(ctx.free); n > 0 {
		sup, ctx.free = ctx.free[n-1], ctx.free[:n-1]
	} else {
		sup = &groSuper{owner: ctx}
	}
	sup.frames[0] = frame
	*h = groHold{
		fl:      fl,
		sup:     sup,
		dev:     dev,
		l3:      c.l3,
		l4:      c.l4,
		gsoSize: len(c.payload),
		segs:    1,
		paySum:  uint32(c.paySum),
		src:     c.src, dst: c.dst, sport: c.sport, dport: c.dport,
		nextSeq: c.seq + uint32(len(c.payload)),
		nextID:  c.id + 1,
		ack:     c.ack,
		window:  c.window,
		born:    ctx.seq,
	}
	if to > 0 {
		h.deadline = now + sim.Time(to)
	}
	ctx.active++
	return outs
}

// flushHold finalizes a hold into an emitted frame: a single passes through
// as the original frame; a supersegment gets its IP total length patched
// (incremental checksum), the PSH bit restored when the last merged segment
// carried it, and its TCP checksum built from the 20 header bytes and the
// payload sum carried since groParse — the merged payload is not read again.
func (ctx *groCtx) flushHold(k *Kernel, h *groHold, outs []groOut, m *sim.Meter) []groOut {
	out := groOut{frame: h.sup.buf, dev: h.dev, gso: gsoMeta{size: h.gsoSize, segs: h.segs, pshLast: h.pshLast, sup: h.sup}}
	if h.segs == 1 {
		out.frame, out.gso.sup = h.sup.frames[0], nil
		ctx.putSuper(h.sup)
	}
	if h.fl != nil {
		// The held chain registers under the flushed frame's address, still
		// parked; the downstream Enter stamps the resume span.
		if fr := k.flight.Load(); fr != nil {
			fr.Reattach(out.frame, h.fl)
		}
	}
	c := k.ctr(m)
	if h.segs > 1 {
		m.Charge(sim.CostGROFlush)
		f := out.frame
		packet.SetIPv4TotalLen(f, h.l3, uint16(len(f)-h.l3))
		if h.pshLast {
			f[h.l4+13] |= byte(packet.TCPPsh)
		}
		packet.RecomputeTCPChecksumSum(f, h.l3, h.l4, h.paySum)
		c.groSupersegs.Add(1)
	}
	c.groFlushes.Add(1)
	*h = groHold{}
	ctx.active--
	return append(outs, out)
}

// flushExpired flushes holds whose gro_flush_timeout deadline has passed.
func (ctx *groCtx) flushExpired(k *Kernel, now sim.Time, outs []groOut, m *sim.Meter) []groOut {
	for i := range ctx.holds {
		h := &ctx.holds[i]
		if h.segs > 0 && h.deadline != 0 && now >= h.deadline {
			outs = ctx.flushHold(k, h, outs, m)
		}
	}
	return outs
}

// flushAll flushes every hold, or only dev's holds when dev is non-nil.
func (ctx *groCtx) flushAll(k *Kernel, dev *netdev.Device, outs []groOut, m *sim.Meter) []groOut {
	for i := range ctx.holds {
		h := &ctx.holds[i]
		if h.segs > 0 && (dev == nil || h.dev == dev) {
			outs = ctx.flushHold(k, h, outs, m)
		}
	}
	return outs
}

// groFlushShard flushes one shard's holds (optionally restricted to dev) and
// delivers the results into the stack.
func (k *Kernel) groFlushShard(shard int, dev *netdev.Device, m *sim.Meter) {
	ctx := k.gro[shard&rxShardMask].Load()
	if ctx == nil {
		return
	}
	b := groBatchPool.Get().(*groBatch)
	outs := b.outs[:0]
	ctx.mu.Lock()
	if ctx.active > 0 {
		outs = ctx.flushAll(k, dev, outs, m)
	}
	ctx.mu.Unlock()
	if len(outs) > 0 {
		sc := rxScratchPool.Get().(*rxScratch)
		k.deliverOuts(outs, true, m, sc)
		rxScratchPool.Put(sc)
	}
	b.outs = outs[:0]
	groBatchPool.Put(b)
}

// GROFlushAll flushes every GRO hold on every shard into the stack — what
// napi_disable does when GRO is toggled or a queue is torn down, so held
// segments are never stranded. dev restricts the flush to holds from that
// device; nil flushes everything. Safe concurrently with live polls.
func (k *Kernel) GROFlushAll(dev *netdev.Device, m *sim.Meter) {
	for i := range k.gro {
		k.groFlushShard(i, dev, m)
	}
}

// --- batch stack entry -------------------------------------------------------

// rxDeviceCost is the driver-side receive cost by device class: what a frame
// pays before netif_receive_skb.
func rxDeviceCost(dev *netdev.Device) sim.Cycles {
	switch dev.Type {
	case netdev.Veth:
		return sim.CostVethRx
	case netdev.Physical:
		return sim.CostDriverRx + sim.CostSKBAlloc
	default:
		return 0
	}
}

// tcPrologueCost is the full per-frame cost up to and including cls_bpf
// entry, by device class — what the per-frame TC path charges as one lump.
func tcPrologueCost(dev *netdev.Device) sim.Cycles {
	switch dev.Type {
	case netdev.Veth:
		return sim.CostTCPrologueVeth
	case netdev.Physical:
		return sim.CostTCPrologue
	default:
		// Pseudo-devices (vxlan): the skb already exists; only the demux
		// and classifier entry are paid.
		return sim.CostNetifReceive + sim.CostTCClsEntry
	}
}

// tcPollScratch holds one chunk's worth of TC skb state so the batched TC
// runner allocates nothing per poll.
type tcPollScratch struct {
	skbs [netdev.NAPIBudget]SKB
	ptrs [netdev.NAPIBudget]*SKB
	acts [netdev.NAPIBudget]TCAction
	pkts [netdev.NAPIBudget]packet.Packet
	ips  [netdev.NAPIBudget]packet.IPv4
	arps [netdev.NAPIBudget]packet.ARP
	idx  [netdev.NAPIBudget]int
}

var tcPollScratchPool = sync.Pool{New: func() any { return new(tcPollScratch) }}

// deliverOuts feeds GRO-emitted frames into the stack, splitting the slice
// into same-device runs (mixed devices only arise from timeout/teardown
// flushes) so each run can use the batched TC path. Supersegments GSO
// re-emitted are recycled once every walk, flight windows included, is over.
func (k *Kernel) deliverOuts(outs []groOut, decomposed bool, m *sim.Meter, sc *rxScratch) {
	for start := 0; start < len(outs); {
		end := start + 1
		for end < len(outs) && outs[end].dev == outs[start].dev {
			end++
		}
		k.deliverRun(outs[start].dev, outs[start:end], decomposed, m, sc)
		start = end
	}
	for i := 0; decomposed && i < len(outs); i++ {
		if s := outs[i].gso.sup; s != nil && s.emitted {
			s.owner.mu.Lock() // another shard's, after a GROFlushAll
			s.owner.putSuper(s)
			s.owner.mu.Unlock()
		}
	}
}

// deliverRun runs TC ingress (batched when the program supports it) and the
// stack over one device's emitted frames. decomposed means the driver
// receive costs were already charged by the GRO pass, so only the
// netif/classifier-entry residuals are due here; otherwise (batched TC with
// GRO off) each frame pays the full prologue, with later frames getting the
// warm-I-cache batch-entry discount.
func (k *Kernel) deliverRun(dev *netdev.Device, outs []groOut, decomposed bool, m *sim.Meter, sc *rxScratch) {
	fr := k.flight.Load()
	th := k.tcIngressFor(dev.Index)
	if th == nil {
		for i := range outs {
			if decomposed {
				m.Charge(sim.CostNetifReceive)
			} else {
				m.Charge(rxDeviceCost(dev) + sim.CostNetifReceive)
			}
			if fr != nil {
				ch := fr.Enter(outs[i].frame, m)
				k.groInput(dev, outs[i].frame, outs[i].gso, m, sc)
				fr.Exit(ch, m)
			} else {
				k.groInput(dev, outs[i].frame, outs[i].gso, m, sc)
			}
		}
		return
	}
	bh, batched := th.(TCBatchHandler)
	ts := tcPollScratchPool.Get().(*tcPollScratch)
	first := true
	for off := 0; off < len(outs); off += netdev.NAPIBudget {
		end := off + netdev.NAPIBudget
		if end > len(outs) {
			end = len(outs)
		}
		chunk := outs[off:end]
		n := 0
		for i := range chunk {
			entry := sim.CostTCClsEntry
			if batched && !first {
				entry = sim.CostTCBatchEntry
			}
			if decomposed {
				m.Charge(sim.CostNetifReceive + entry)
			} else {
				m.Charge(tcPrologueCost(dev) - sim.CostTCClsEntry + entry)
			}
			first = false
			frame := chunk[i].frame
			eth, l3off, err := packet.UnmarshalEthernet(frame)
			if err != nil {
				// Outside an Enter window: terminate the frame's chain by key.
				if fr != nil {
					fr.TerminalDropFrame(frame, drop.ReasonL2HdrError, m)
				}
				k.countDropReason(m, drop.ReasonL2HdrError)
				continue
			}
			if perr := packet.DecodeInto(frame, &ts.pkts[n], &ts.ips[n], &ts.arps[n]); perr != nil {
				ts.pkts[n] = packet.Packet{Eth: eth, L3Off: l3off, Payload: frame[l3off:]}
			}
			ts.skbs[n] = SKB{Data: frame, Dev: dev, Pkt: &ts.pkts[n], VLAN: eth.VLAN, Meter: m}
			ts.ptrs[n] = &ts.skbs[n]
			ts.idx[n] = i
			n++
		}
		if batched {
			bh.HandleTCBatch(ts.ptrs[:n], ts.acts[:n])
		} else {
			for i := 0; i < n; i++ {
				ts.acts[i] = th.HandleTC(ts.ptrs[i])
			}
		}
		for i := 0; i < n; i++ {
			o := &chunk[ts.idx[i]]
			skb := &ts.skbs[i]
			var fch *flight.Chain
			if fr != nil {
				fch = fr.Enter(skb.Data, m)
				fr.SpanCur(m, flight.StageTC, flight.VerdictNone)
			}
			switch ts.acts[i] {
			case TCShot:
				k.countDropReason(m, drop.ReasonTCDrop)
			case TCRedirect:
				tgt, ok := k.DeviceByIndex(skb.RedirectTo)
				if !ok {
					k.countDropReason(m, drop.ReasonTCRedirectFail)
					break
				}
				if tgt.Type == netdev.Veth {
					m.Charge(sim.CostTCRedirectPeer)
				} else {
					m.Charge(sim.CostTCRedirect)
				}
				if o.gso.segs > 1 {
					// A redirected supersegment leaves as wire frames.
					if et, l3 := packet.EtherTypeOf(skb.Data); et == packet.EtherTypeIPv4 {
						if fr != nil {
							fr.SpanCur(m, flight.StageGSO, flight.VerdictNone)
						}
						tgt.TransmitBatch(o.gso.segments(skb.Data, l3, l3+packet.IPv4MinLen, m), m)
					}
					break
				}
				tgt.Transmit(skb.Data, m)
			default:
				k.groInput(dev, skb.Data, o.gso, m, sc)
			}
			if fr != nil {
				fr.Exit(fch, m)
			}
		}
	}
	tcPollScratchPool.Put(ts)
}

// groInput enters the stack proper for one emitted frame, threading the GSO
// metadata through the scratch so ip_forward can resegment at egress.
func (k *Kernel) groInput(dev *netdev.Device, frame []byte, gso gsoMeta, m *sim.Meter, sc *rxScratch) {
	defer k.trace("netif_receive_skb", m)()
	sc.fillOK = false
	sc.gso = gso
	eth, l3off, err := packet.UnmarshalEthernet(frame)
	if err != nil {
		k.countDropReason(m, drop.ReasonL2HdrError)
		sc.gso = gsoMeta{}
		return
	}
	if gso.segs > 1 {
		// Supersegments bypass the flow fast-cache — its hit path would
		// transmit the merged frame without resegmentation — and are never
		// bridged (GRO is gated off on bridge slaves).
		k.l3Input(dev, frame, m, sc)
	} else {
		k.receiveParsed(dev, frame, eth, l3off, m, sc)
	}
	sc.gso = gsoMeta{}
}

// gsoForward is finishOutput for a supersegment: POSTROUTING, neighbour
// resolution, and TC egress run once on the merged frame — the amortization
// — then the supersegment is split back into wire frames at the egress
// device, byte-identical to the per-frame path. Returns true when the
// forwarded counter was already advanced (the fragmentation fallback counts
// per segment, matching what the per-frame path would have recorded).
func (k *Kernel) gsoForward(dev, out *netdev.Device, nexthop packet.Addr, frame []byte, pkt *packet.Packet, gso gsoMeta, m *sim.Meter) bool {
	defer k.trace("gso_segment", m)()
	now := k.Now()

	if k.NF.Snapshot(netfilter.HookPostrouting).Rules(netfilter.HookPostrouting) > 0 {
		if p2, err := packet.Decode(frame); err == nil && p2.IPv4 != nil {
			meta := k.buildMeta(out, p2)
			meta.OutIf = out.Index
			if v := k.runHook(netfilter.HookPostrouting, meta, m); v == netfilter.VerdictDrop {
				k.countFilterDrop(m)
				return false
			}
		}
	}

	l3, l4 := pkt.L3Off, pkt.L3Off+packet.IPv4MinLen
	sl, nst := k.stageStart(m)
	mac, _, ok := k.Neigh.ResolvedFull(nexthop, now)
	if !ok {
		// The neighbour queue retains frames verbatim until the ARP reply
		// flushes them — so queue the wire frames, never the super.
		segs := gso.segments(frame, l3, l4, m)
		fr := k.flight.Load()
		if fr != nil {
			// The parked chain keys on the super's buffer: it is not reused.
			gso.sup.emitted = fr.Cur(m) == nil
			// The superseg's chain parks before any segment is published:
			// the ARP-reply flush can run on another CPU the moment a
			// segment hits the queue. Each segment aliases the chain — also
			// pre-publication — so the flush finds it by key and closes it
			// with a Tx terminal.
			fr.ParkFrame(frame, flight.StageNeigh, m)
			for _, s := range segs {
				fr.InheritFrame(frame, s, m)
			}
		}
		first, queuedAny := false, false
		for _, s := range segs {
			f, q := k.Neigh.StartResolution(nexthop, out.Index, s)
			if f {
				first = true
			}
			if q {
				queuedAny = true
			} else {
				k.countDropReason(m, drop.ReasonNeighQueueFull)
			}
		}
		if !queuedAny && fr != nil {
			// No segment left this CPU: the producer closes the chain.
			fr.TerminalDropFrame(frame, drop.ReasonNeighQueueFull, m)
		}
		if first {
			k.sendARPRequest(out, nexthop, m)
		}
		return false
	}
	packet.SetEthDst(frame, mac)
	m.Charge(sim.CostNeighOutput)
	if sl != nil {
		sl.Observe(StageNeigh, m, nst)
	}
	k.flightSpan(m, flight.StageNeigh, flight.VerdictNone)

	if h := k.tcEgressFor(out.Index); h != nil {
		if p2, err := packet.Decode(frame); err == nil {
			skb := &SKB{Data: frame, Dev: out, Pkt: p2, Meter: m}
			switch h.HandleTC(skb) {
			case TCShot:
				k.countDropReason(m, drop.ReasonTCDrop)
				return false
			case TCRedirect:
				m.Charge(sim.CostTCRedirect)
				if red, ok := k.DeviceByIndex(skb.RedirectTo); ok {
					return k.gsoTransmit(dev, red, nexthop, skb.Data, l3, l4, gso, m)
				}
				return false
			case TCOk:
				frame = skb.Data
			}
		}
	}

	k.trace("dev_queue_xmit", m)()
	xsl, xst := k.stageStart(m)
	m.Charge(sim.CostDevXmit)
	sent := k.gsoTransmit(dev, out, nexthop, frame, l3, l4, gso, m)
	if xsl != nil {
		xsl.Observe(StageXmit, m, xst)
	}
	return sent
}

// gsoTransmit splits the supersegment at the egress device and transmits the
// resulting wire frames as one batch. When the segments themselves exceed
// the egress MTU it falls back to the per-segment slow output, which
// fragments or bounces (ICMP frag-needed on DF) exactly like the per-frame
// path; that fallback advances the forwarded counter per segment itself, so
// it returns true to tell the caller not to count the supersegment again.
func (k *Kernel) gsoTransmit(dev, out *netdev.Device, nexthop packet.Addr, frame []byte, l3, l4 int, gso gsoMeta, m *sim.Meter) bool {
	k.flightSpan(m, flight.StageGSO, flight.VerdictNone)
	segs := gso.segments(frame, l3, l4, m)
	if l4-l3+packet.TCPHdrLen+gso.size <= out.MTU {
		out.TransmitBatch(segs, m)
		return false
	}
	for _, s := range segs {
		p, err := packet.Decode(s)
		if err != nil || p.IPv4 == nil {
			continue
		}
		if p.IPv4.DontFragment() {
			k.sendICMPError(dev, p, packet.ICMPUnreachable, 4, m)
			k.countDropReason(m, drop.ReasonPktTooBig)
			continue
		}
		k.fragmentAndSend(out, nexthop, s, p, m)
	}
	return true
}
