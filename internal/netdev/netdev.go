// Package netdev models network devices and the wires between them: NICs,
// veth pairs, bridge/vxlan pseudo-devices, per-device statistics, and the
// XDP attach point that runs before any kernel processing — the earliest
// (and fastest) hook LinuxFP can place a fast path on.
package netdev

import (
	"fmt"
	"sync"
	"sync/atomic"

	"linuxfp/internal/drop"
	"linuxfp/internal/flight"
	"linuxfp/internal/packet"
	"linuxfp/internal/sim"
)

// Type discriminates device kinds.
type Type int

// Device types.
const (
	Physical Type = iota + 1
	Veth
	BridgeDev
	VXLAN
	Loopback
)

func (t Type) String() string {
	switch t {
	case Physical:
		return "physical"
	case Veth:
		return "veth"
	case BridgeDev:
		return "bridge"
	case VXLAN:
		return "vxlan"
	case Loopback:
		return "loopback"
	default:
		return fmt.Sprintf("type(%d)", int(t))
	}
}

// XDPAction is an XDP program verdict.
type XDPAction int

// XDP verdicts.
const (
	XDPAborted XDPAction = iota
	XDPDrop
	XDPPass
	XDPTx
	XDPRedirect
)

func (a XDPAction) String() string {
	switch a {
	case XDPAborted:
		return "XDP_ABORTED"
	case XDPDrop:
		return "XDP_DROP"
	case XDPPass:
		return "XDP_PASS"
	case XDPTx:
		return "XDP_TX"
	case XDPRedirect:
		return "XDP_REDIRECT"
	default:
		return fmt.Sprintf("xdp(%d)", int(a))
	}
}

// XDPBuff is the context handed to an XDP program: the raw frame plus the
// minimal driver metadata available before any sk_buff exists.
type XDPBuff struct {
	Data       []byte
	IfIndex    int
	RxQueue    int
	RedirectTo int // egress ifindex, set by the redirect helper
	Meter      *sim.Meter

	// Cpumap redirect state, set by the redirect-to-CPU helper: when
	// RedirectCPUMap is non-nil an XDPRedirect verdict targets RedirectCPU's
	// queue in that map instead of a device.
	RedirectCPUMap CPURedirectTarget
	RedirectCPU    int

	// AF_XDP redirect state, set by the redirect-to-XSK helper: when
	// RedirectXSKMap is non-nil an XDPRedirect verdict targets the socket in
	// RedirectXSKSlot of that map instead of a device.
	RedirectXSKMap  XSKRedirectTarget
	RedirectXSKSlot int
}

// Reset starts a frame's run on a reused buff: the input fields are set
// and every redirect output is cleared, so nothing a program wrote for the
// previous frame survives into this one.
func (b *XDPBuff) Reset(frame []byte, ifindex, rxq int, m *sim.Meter) {
	b.Data, b.IfIndex, b.RxQueue, b.Meter = frame, ifindex, rxq, m
	b.RedirectTo = 0
	b.RedirectCPUMap, b.RedirectCPU = nil, 0
	b.RedirectXSKMap, b.RedirectXSKSlot = nil, 0
}

// XDPHandler is an XDP program attachment.
type XDPHandler interface {
	HandleXDP(*XDPBuff) XDPAction
}

// XDPBatchHandler is an XDPHandler that can run a whole NAPI burst in one
// call: the program prologue is paid once and every later frame enters with
// warm I-cache. Each buff's verdict lands in the parallel acts slice; a
// redirecting handler sets the buff's RedirectTo as usual.
type XDPBatchHandler interface {
	XDPHandler
	HandleXDPBatch(bufs []*XDPBuff, acts []XDPAction)
}

// Stack is the slow path a device delivers into when XDP passes the frame
// (or no program is attached). The kernel implements it.
type Stack interface {
	// DeliverFrame hands a received frame to the network stack.
	DeliverFrame(dev *Device, frame []byte, m *sim.Meter)
	// DeviceByIndex resolves redirect targets.
	DeviceByIndex(ifindex int) (*Device, bool)
}

// BatchStack is a Stack that accepts NAPI-style bursts: one poll prologue
// amortized over the batch instead of per-frame entry costs. ReceiveBatch
// uses it when the bound stack implements it.
type BatchStack interface {
	Stack
	// DeliverBatch hands a burst of frames received together to the stack.
	DeliverBatch(dev *Device, frames [][]byte, m *sim.Meter)
}

// Stats are device packet counters.
type Stats struct {
	RxPackets, RxBytes   uint64
	TxPackets, TxBytes   uint64
	RxDropped, TxDropped uint64
	XDPDrops, XDPTx      uint64
	XDPRedirects         uint64
	XDPPass              uint64
}

// devCounters are the live per-device counters, updated atomically so the
// RX/TX hot paths never take the device lock.
type devCounters struct {
	rxPackets, rxBytes   atomic.Uint64
	txPackets, txBytes   atomic.Uint64
	rxDropped, txDropped atomic.Uint64
	xdpDrops, xdpTx      atomic.Uint64
	xdpRedirects         atomic.Uint64
	xdpPass              atomic.Uint64

	// dropReasons attributes every device-level drop, so
	// drop.Total == RxDropped + TxDropped + XDPDrops.
	dropReasons drop.Counters
}

// linkState is everything Transmit/Receive need to route a frame, published
// as one atomic snapshot so the hot path reads it with a single load —
// replugging a wire or rebinding a stack swaps the snapshot like RCU.
type linkState struct {
	peer   *Device // wire endpoint (nil if down/unplugged)
	wire   Wire    // multi-endpoint attachment (switch); nil if none
	stack  Stack
	txHook func(frame []byte, m *sim.Meter) bool
}

// Device is one network interface.
type Device struct {
	Name  string
	Index int
	Type  Type
	MAC   packet.HWAddr
	MTU   int

	mu     sync.Mutex // guards config writes (addrs, link snapshot rebuild)
	addrs  []packet.Prefix
	up     atomic.Bool
	master atomic.Int32 // enslaving bridge ifindex, 0 if none
	gro    atomic.Bool  // generic receive offload (ethtool -K <dev> gro)
	stats  devCounters
	link   atomic.Pointer[linkState]
	rss    atomic.Pointer[rssState]

	xdp    atomic.Pointer[xdpSlot]
	devmap atomic.Pointer[DevMap]          // bulk-redirect state, allocated on first use
	xps    atomic.Pointer[xpsState]        // TX-queue steering; nil = single-queue TX
	flight atomic.Pointer[flight.Recorder] // packet flight recorder, propagated by the owning kernel

	// Tap, when set, observes every frame the device receives (before XDP)
	// — the model's equivalent of a packet capture. Set it before traffic
	// flows; it is read without synchronization on the hot path.
	Tap func(frame []byte)
}

// xdpSlot wraps the handler so attach/detach is a single atomic pointer
// swap, mirroring how program replacement must not disturb traffic.
type xdpSlot struct {
	h    XDPHandler
	mode string // "driver" or "generic"
}

// Wire is a multi-device segment (e.g. a LAN switch).
type Wire interface {
	// Send puts a frame on the segment from the given device.
	Send(from *Device, frame []byte, m *sim.Meter)
}

// New creates a device bound to a stack.
func New(name string, index int, typ Type, mac packet.HWAddr, stack Stack) *Device {
	d := &Device{Name: name, Index: index, Type: typ, MAC: mac, MTU: 1500}
	d.link.Store(&linkState{stack: stack})
	d.gro.Store(true) // like Linux: GRO defaults on, ethtool turns it off
	return d
}

// SetGRO toggles generic receive offload for the device — the model's
// `ethtool -K <dev> gro on|off`. The batch-aware stack consults it on every
// poll, so flipping it mid-traffic is safe.
func (d *Device) SetGRO(on bool) { d.gro.Store(on) }

// SetFlight attaches (or with nil detaches) the packet flight recorder: RX
// stamps the sampled trace IDs, XDP verdicts and driver transmits append
// spans and terminals. Detached, the RX/TX hot paths pay one nil check.
func (d *Device) SetFlight(r *flight.Recorder) { d.flight.Store(r) }

// Flight returns the attached flight recorder, or nil.
func (d *Device) Flight() *flight.Recorder { return d.flight.Load() }

// GROEnabled reports whether generic receive offload is enabled.
func (d *Device) GROEnabled() bool { return d.gro.Load() }

// updateLink rebuilds the link snapshot under the config lock.
func (d *Device) updateLink(f func(*linkState)) {
	d.mu.Lock()
	defer d.mu.Unlock()
	ln := *d.link.Load()
	f(&ln)
	d.link.Store(&ln)
}

// SetUp brings the device up or down.
func (d *Device) SetUp(up bool) { d.up.Store(up) }

// IsUp reports administrative state.
func (d *Device) IsUp() bool { return d.up.Load() }

// AddAddr assigns an IP address (with prefix) to the device.
func (d *Device) AddAddr(p packet.Prefix) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, a := range d.addrs {
		if a == p {
			return
		}
	}
	d.addrs = append(d.addrs, p)
}

// DelAddr removes an assigned address, reporting whether it was present.
func (d *Device) DelAddr(p packet.Prefix) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	for i, a := range d.addrs {
		if a == p {
			d.addrs = append(d.addrs[:i], d.addrs[i+1:]...)
			return true
		}
	}
	return false
}

// Addrs returns the assigned addresses.
func (d *Device) Addrs() []packet.Prefix {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]packet.Prefix(nil), d.addrs...)
}

// HasAddr reports whether ip is assigned to this device.
func (d *Device) HasAddr(ip packet.Addr) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, a := range d.addrs {
		if a.Addr == ip {
			return true
		}
	}
	return false
}

// SetMaster enslaves the device to a bridge (0 releases it).
func (d *Device) SetMaster(bridgeIfIndex int) { d.master.Store(int32(bridgeIfIndex)) }

// Master reports the enslaving bridge ifindex (0 if none).
func (d *Device) Master() int { return int(d.master.Load()) }

// AttachXDP installs an XDP program in the given mode ("driver" or
// "generic"). It replaces atomically: in-flight packets finish on the old
// program; new packets see the new one.
func (d *Device) AttachXDP(h XDPHandler, mode string) {
	if h == nil {
		d.xdp.Store(nil)
		return
	}
	d.xdp.Store(&xdpSlot{h: h, mode: mode})
}

// DetachXDP removes any XDP program.
func (d *Device) DetachXDP() { d.xdp.Store(nil) }

// XDPAttached reports whether a program is attached and its mode.
func (d *Device) XDPAttached() (bool, string) {
	s := d.xdp.Load()
	if s == nil {
		return false, ""
	}
	return true, s.mode
}

// DropReasons returns a snapshot of the per-reason device drop counters,
// indexed by drop.Reason. On a quiesced device the reasons sum exactly to
// RxDropped + TxDropped + XDPDrops.
func (d *Device) DropReasons() [drop.NumReasons]uint64 {
	var out [drop.NumReasons]uint64
	d.stats.dropReasons.AddInto(&out)
	return out
}

// Stats returns a snapshot of the device counters.
func (d *Device) Stats() Stats {
	return Stats{
		RxPackets: d.stats.rxPackets.Load(), RxBytes: d.stats.rxBytes.Load(),
		TxPackets: d.stats.txPackets.Load(), TxBytes: d.stats.txBytes.Load(),
		RxDropped: d.stats.rxDropped.Load(), TxDropped: d.stats.txDropped.Load(),
		XDPDrops: d.stats.xdpDrops.Load(), XDPTx: d.stats.xdpTx.Load(),
		XDPRedirects: d.stats.xdpRedirects.Load(),
		XDPPass:      d.stats.xdpPass.Load(),
	}
}

// Connect wires two devices point-to-point (a cable, or a veth pair's
// cross-connect).
func Connect(a, b *Device) {
	a.updateLink(func(ln *linkState) { ln.peer = b })
	b.updateLink(func(ln *linkState) { ln.peer = a })
}

// Disconnect unplugs the device from its peer.
func Disconnect(a *Device) {
	ln := a.link.Load()
	p := ln.peer
	a.updateLink(func(ln *linkState) { ln.peer = nil })
	if p != nil {
		p.updateLink(func(ln *linkState) {
			if ln.peer == a {
				ln.peer = nil
			}
		})
	}
}

// AttachWire connects the device to a multi-endpoint segment.
func (d *Device) AttachWire(w Wire) {
	d.updateLink(func(ln *linkState) { ln.wire = w })
}

// Peer returns the point-to-point peer, if any.
func (d *Device) Peer() *Device {
	return d.link.Load().peer
}

// SetStack rebinds the device's receive path to a different stack — how a
// kernel-bypass platform (VPP/DPDK) takes a NIC away from the kernel.
func (d *Device) SetStack(s Stack) {
	d.updateLink(func(ln *linkState) { ln.stack = s })
}

// SetTxHook intercepts transmission: pseudo-devices (VXLAN) encapsulate in
// the hook instead of putting the frame on a wire. A hook returning true
// consumes the frame.
func (d *Device) SetTxHook(fn func(frame []byte, m *sim.Meter) bool) {
	d.updateLink(func(ln *linkState) { ln.txHook = fn })
}

// Transmit sends a frame out the device: across the wire to the peer (or
// segment), which receives it as if off the NIC. Frames sent on a down or
// unplugged device are counted as drops.
func (d *Device) Transmit(frame []byte, m *sim.Meter) {
	if !d.up.Load() {
		d.stats.txDropped.Add(1)
		d.stats.dropReasons.Count(drop.ReasonDevTxDown)
		return
	}
	d.stats.txPackets.Add(1)
	d.stats.txBytes.Add(uint64(len(frame)))
	// Terminal before the wire copy: the peer's copy is a different packet.
	if fr := d.flight.Load(); fr != nil {
		fr.TerminalTx(frame, m)
	}
	d.chargeTxQueue(m)
	ln := d.link.Load()

	if ln.txHook != nil && ln.txHook(frame, m) {
		return
	}

	switch {
	case ln.peer != nil:
		// Copy across the wire: the two ends must not alias memory.
		ln.peer.Receive(append([]byte(nil), frame...), m)
	case ln.wire != nil:
		ln.wire.Send(d, append([]byte(nil), frame...), m)
	default:
		d.stats.txDropped.Add(1)
		d.stats.dropReasons.Count(drop.ReasonDevTxDown)
	}
}

// TransmitBatch sends a burst out the device: the packet/byte counters are
// updated once for the whole burst (the bulk-flush win), then each frame
// crosses the wire individually. A down device drops the entire burst into
// TxDropped.
func (d *Device) TransmitBatch(frames [][]byte, m *sim.Meter) {
	n := len(frames)
	if n == 0 {
		return
	}
	if !d.up.Load() {
		d.stats.txDropped.Add(uint64(n))
		d.stats.dropReasons.Add(drop.ReasonDevTxDown, uint64(n))
		return
	}
	var bytes uint64
	for _, f := range frames {
		bytes += uint64(len(f))
	}
	d.stats.txPackets.Add(uint64(n))
	d.stats.txBytes.Add(bytes)
	ln := d.link.Load()
	fr := d.flight.Load()
	for _, frame := range frames {
		if fr != nil {
			fr.TerminalTx(frame, m)
		}
		d.chargeTxQueue(m)
		if ln.txHook != nil && ln.txHook(frame, m) {
			continue
		}
		switch {
		case ln.peer != nil:
			ln.peer.Receive(append([]byte(nil), frame...), m)
		case ln.wire != nil:
			ln.wire.Send(d, append([]byte(nil), frame...), m)
		default:
			d.stats.txDropped.Add(1)
			d.stats.dropReasons.Count(drop.ReasonDevTxDown)
		}
	}
}

// redirectMap returns the device's devmap bulk-queue state, allocating it
// on first use.
func (d *Device) redirectMap() *DevMap {
	if dm := d.devmap.Load(); dm != nil {
		return dm
	}
	dm := &DevMap{}
	if !d.devmap.CompareAndSwap(nil, dm) {
		dm = d.devmap.Load()
	}
	return dm
}

// Receive processes a frame arriving from the wire: tap, XDP program (if
// any), then delivery into the stack. This is the driver RX path.
func (d *Device) Receive(frame []byte, m *sim.Meter) {
	if !d.up.Load() {
		d.stats.rxDropped.Add(1)
		d.stats.dropReasons.Count(drop.ReasonDevRxDown)
		return
	}
	d.stats.rxPackets.Add(1)
	d.stats.rxBytes.Add(uint64(len(frame)))

	if tap := d.Tap; tap != nil {
		tap(frame)
	}
	m.ChargeBytes(len(frame))
	if fr := d.flight.Load(); fr != nil {
		fr.SampleRX(frame, d.Index, m)
	}

	if slot := d.xdp.Load(); slot != nil {
		frame = d.runXDP(slot, frame, 0, m)
		if frame == nil {
			return
		}
	}
	if s := d.link.Load().stack; s != nil {
		s.DeliverFrame(d, frame, m)
	}
}

// runXDP executes the attached program on one frame, handling the terminal
// verdicts. It returns the (possibly adjusted) frame to pass up the stack,
// or nil if the program consumed it.
func (d *Device) runXDP(slot *xdpSlot, frame []byte, rxq int, m *sim.Meter) []byte {
	// The buff is pooled: handlers may use it only for the duration of the
	// HandleXDP call (the same lifetime rule as a real xdp_buff, which
	// points into the RX ring).
	buff := xdpBuffPool.Get().(*XDPBuff)
	buff.Reset(frame, d.Index, rxq, m)
	act := slot.h.HandleXDP(buff)
	data, redirect := buff.Data, buff.RedirectTo
	cm, cpu := buff.RedirectCPUMap, buff.RedirectCPU
	xm, xskSlot := buff.RedirectXSKMap, buff.RedirectXSKSlot
	xdpBuffPool.Put(buff)
	fr := d.flight.Load()
	switch act {
	case XDPDrop:
		d.stats.xdpDrops.Add(1)
		d.stats.dropReasons.Count(drop.ReasonXDPDrop)
		if fr != nil {
			fr.TerminalDropFrame(data, drop.ReasonXDPDrop, m)
		}
		return nil
	case XDPAborted:
		d.stats.xdpDrops.Add(1)
		d.stats.dropReasons.Count(drop.ReasonXDPAborted)
		if fr != nil {
			fr.TerminalDropFrame(data, drop.ReasonXDPAborted, m)
		}
		return nil
	case XDPTx:
		d.stats.xdpTx.Add(1)
		m.Charge(sim.CostXDPTx)
		if fr != nil {
			fr.SpanFrame(data, flight.StageXDP, flight.VerdictNone, m)
		}
		d.Transmit(data, m)
		return nil
	case XDPRedirect:
		if cm != nil {
			// Redirect to another CPU: the per-packet path stages and
			// flushes immediately (a one-frame poll). A missing entry is
			// an XDP exception; a ring overflow reclassifies the already
			// counted redirect as a drop.
			if fr != nil {
				fr.SpanFrame(data, flight.StageXDP, flight.VerdictNone, m)
			}
			dropped, ok := cm.EnqueueCPU(rxq, cpu, d, data, m)
			if !ok {
				d.stats.xdpDrops.Add(1)
				d.stats.dropReasons.Count(drop.ReasonCpumapNoEntry)
				if fr != nil {
					fr.TerminalDropFrame(data, drop.ReasonCpumapNoEntry, m)
				}
				return nil
			}
			dropped += cm.FlushCPU(rxq, m)
			if dropped > 0 {
				d.stats.xdpDrops.Add(uint64(dropped))
				d.stats.dropReasons.Add(drop.ReasonCpumapOverflow, uint64(dropped))
			} else {
				d.stats.xdpRedirects.Add(1)
			}
			return nil
		}
		if xm != nil {
			// Redirect to an AF_XDP socket: stage and flush immediately (a
			// one-frame poll). An empty slot is an XDP exception; an RX-ring
			// overflow or fill-ring underrun reclassifies the already counted
			// redirect as a drop with its own reason.
			rxFull, fillEmpty, ok := xm.EnqueueXSK(rxq, xskSlot, data, m)
			if !ok {
				d.stats.xdpDrops.Add(1)
				d.stats.dropReasons.Count(drop.ReasonXDPRedirectFail)
				if fr != nil {
					fr.TerminalDropFrame(data, drop.ReasonXDPRedirectFail, m)
				}
				return nil
			}
			if fr != nil {
				// The descriptor is staged: the packet left the stack. Ring
				// drops discovered at flush time stay counted as redirects
				// here — flight follows the verdict, not the ring.
				fr.TerminalRedirectFrame(data, m)
			}
			rf, fe := xm.FlushXSK(rxq, m)
			rxFull += rf
			fillEmpty += fe
			if dropped := rxFull + fillEmpty; dropped > 0 {
				d.stats.xdpDrops.Add(uint64(dropped))
				d.stats.dropReasons.Add(drop.ReasonXSKRxFull, uint64(rxFull))
				d.stats.dropReasons.Add(drop.ReasonXSKFillEmpty, uint64(fillEmpty))
			} else {
				d.stats.xdpRedirects.Add(1)
			}
			return nil
		}
		// Resolve the target first: an unresolvable redirect is an XDP
		// exception (counted as a drop), not a successful redirect.
		s := d.link.Load().stack
		if s == nil {
			d.stats.xdpDrops.Add(1)
			d.stats.dropReasons.Count(drop.ReasonXDPRedirectFail)
			if fr != nil {
				fr.TerminalDropFrame(data, drop.ReasonXDPRedirectFail, m)
			}
			return nil
		}
		out, ok := s.DeviceByIndex(redirect)
		if !ok {
			d.stats.xdpDrops.Add(1)
			d.stats.dropReasons.Count(drop.ReasonXDPRedirectFail)
			if fr != nil {
				fr.TerminalDropFrame(data, drop.ReasonXDPRedirectFail, m)
			}
			return nil
		}
		d.stats.xdpRedirects.Add(1)
		m.Charge(sim.CostXDPRedirect)
		if fr != nil {
			fr.SpanFrame(data, flight.StageXDP, flight.VerdictNone, m)
		}
		out.Transmit(data, m)
		return nil
	default: // XDPPass
		d.stats.xdpPass.Add(1)
		m.Charge(sim.CostXDPPass)
		if fr != nil {
			fr.SpanFrame(data, flight.StageXDP, flight.VerdictNone, m)
		}
		return data // program may have adjusted the frame
	}
}

var xdpBuffPool = sync.Pool{New: func() any { return new(XDPBuff) }}

// pollScratch is the reusable working set of one NAPI poll: xdp_buff
// contexts and a verdict array sized for a full budget, pooled so the batch
// hot path allocates nothing. The ptrs slice is wired to the bufs array
// once, at pool construction.
type pollScratch struct {
	bufs [NAPIBudget]XDPBuff
	ptrs [NAPIBudget]*XDPBuff
	acts [NAPIBudget]XDPAction
}

var pollScratchPool = sync.Pool{New: func() any {
	s := new(pollScratch)
	for i := range s.bufs {
		s.ptrs[i] = &s.bufs[i]
	}
	return s
}}

// RunXDPBatch runs the attached XDP program over a burst in NAPI-poll
// chunks of at most budget frames (clamped to NAPIBudget): verdicts are
// collected per chunk, XDP_TX and XDP_REDIRECT frames accumulate into the
// per-queue devmap bulk queues, and the bulk queues are flushed once per
// chunk (xdp_do_flush) before the next poll begins. It returns the XDP_PASS
// survivors, compacted into the front of frames in arrival order. With no
// program attached the burst is returned untouched.
func (d *Device) RunXDPBatch(frames [][]byte, rxq, budget int, m *sim.Meter) [][]byte {
	slot := d.xdp.Load()
	if slot == nil {
		return frames
	}
	return d.runXDPBatch(slot, frames, rxq, budget, m)
}

func (d *Device) runXDPBatch(slot *xdpSlot, frames [][]byte, rxq, budget int, m *sim.Meter) [][]byte {
	if budget <= 0 || budget > NAPIBudget {
		budget = NAPIBudget
	}
	bh, batched := slot.h.(XDPBatchHandler)
	scratch := pollScratchPool.Get().(*pollScratch)
	fr := d.flight.Load()
	keep := frames[:0]
	var dm *DevMap
	for off := 0; off < len(frames); off += budget {
		poll := frames[off:]
		if len(poll) > budget {
			poll = poll[:budget]
		}
		bufs, acts := scratch.ptrs[:len(poll)], scratch.acts[:len(poll)]
		for i, frame := range poll {
			scratch.bufs[i].Reset(frame, d.Index, rxq, m)
		}
		if batched {
			bh.HandleXDPBatch(bufs, acts)
		} else {
			for i := range bufs {
				acts[i] = slot.h.HandleXDP(bufs[i])
			}
		}

		// Resolve verdicts, accumulating counters locally so the device
		// stats are updated once per poll, not once per frame. Cpumap
		// redirects are counted as redirects at enqueue; frames a bulk
		// spill drops (ring overflow) come back as dropped counts and are
		// reclassified before the counters are published — every frame
		// lands in exactly one bucket, and every drop in exactly one
		// reason bucket.
		var txs, redirects, passes uint64
		var xdpDrops, xdpAborts, noEntry, overflow, redirFail uint64
		var xskRxFull, xskFillEmpty uint64
		var cm CPURedirectTarget
		var xm XSKRedirectTarget
		s := d.link.Load().stack
		for i := range bufs {
			data := bufs[i].Data
			switch acts[i] {
			case XDPTx:
				txs++
				if fr != nil {
					fr.SpanFrame(data, flight.StageXDP, flight.VerdictNone, m)
				}
				if dm == nil {
					dm = d.redirectMap()
				}
				dm.Enqueue(rxq, d, data, m)
			case XDPRedirect:
				if t := bufs[i].RedirectCPUMap; t != nil {
					if cm != nil && cm != t {
						// A second cpumap in one poll: flush the first
						// before switching so its accounting stays inside
						// this poll's counters.
						dropped := cm.FlushCPU(rxq, m)
						redirects -= uint64(dropped)
						overflow += uint64(dropped)
					}
					cm = t
					if fr != nil {
						fr.SpanFrame(data, flight.StageXDP, flight.VerdictNone, m)
					}
					dropped, ok := t.EnqueueCPU(rxq, bufs[i].RedirectCPU, d, data, m)
					if !ok {
						noEntry++ // no entry for that CPU: XDP exception
						if fr != nil {
							fr.TerminalDropFrame(data, drop.ReasonCpumapNoEntry, m)
						}
						break
					}
					redirects++
					redirects -= uint64(dropped)
					overflow += uint64(dropped)
					break
				}
				if t := bufs[i].RedirectXSKMap; t != nil {
					if xm != nil && xm != t {
						// A second xskmap in one poll: flush the first before
						// switching so its accounting stays inside this
						// poll's counters.
						rf, fe := xm.FlushXSK(rxq, m)
						redirects -= uint64(rf + fe)
						xskRxFull += uint64(rf)
						xskFillEmpty += uint64(fe)
					}
					xm = t
					rf, fe, ok := t.EnqueueXSK(rxq, bufs[i].RedirectXSKSlot, data, m)
					if !ok {
						redirFail++ // empty or out-of-range slot: XDP exception
						if fr != nil {
							fr.TerminalDropFrame(data, drop.ReasonXDPRedirectFail, m)
						}
						break
					}
					if fr != nil {
						fr.TerminalRedirectFrame(data, m)
					}
					redirects++
					redirects -= uint64(rf + fe)
					xskRxFull += uint64(rf)
					xskFillEmpty += uint64(fe)
					break
				}
				out, ok := (*Device)(nil), false
				if s != nil {
					out, ok = s.DeviceByIndex(bufs[i].RedirectTo)
				}
				if !ok {
					redirFail++ // unresolvable target: XDP exception
					if fr != nil {
						fr.TerminalDropFrame(data, drop.ReasonXDPRedirectFail, m)
					}
					break
				}
				redirects++
				if fr != nil {
					fr.SpanFrame(data, flight.StageXDP, flight.VerdictNone, m)
				}
				if dm == nil {
					dm = d.redirectMap()
				}
				dm.Enqueue(rxq, out, data, m)
			case XDPPass:
				passes++
				m.Charge(sim.CostXDPPass)
				if fr != nil {
					fr.SpanFrame(data, flight.StageXDP, flight.VerdictNone, m)
				}
				keep = append(keep, data)
			case XDPDrop:
				xdpDrops++
				if fr != nil {
					fr.TerminalDropFrame(data, drop.ReasonXDPDrop, m)
				}
			default: // XDPAborted, invalid verdicts
				xdpAborts++
				if fr != nil {
					fr.TerminalDropFrame(data, drop.ReasonXDPAborted, m)
				}
			}
		}
		if dm != nil {
			dm.Flush(rxq, m) // xdp_do_flush: once per NAPI poll
		}
		if cm != nil {
			dropped := cm.FlushCPU(rxq, m) // cpumap half of xdp_do_flush
			redirects -= uint64(dropped)
			overflow += uint64(dropped)
		}
		if xm != nil {
			rf, fe := xm.FlushXSK(rxq, m) // xsk half of xdp_do_flush
			redirects -= uint64(rf + fe)
			xskRxFull += uint64(rf)
			xskFillEmpty += uint64(fe)
		}
		if drops := xdpDrops + xdpAborts + noEntry + overflow + redirFail + xskRxFull + xskFillEmpty; drops > 0 {
			d.stats.xdpDrops.Add(drops)
			d.stats.dropReasons.Add(drop.ReasonXDPDrop, xdpDrops)
			d.stats.dropReasons.Add(drop.ReasonXDPAborted, xdpAborts)
			d.stats.dropReasons.Add(drop.ReasonCpumapNoEntry, noEntry)
			d.stats.dropReasons.Add(drop.ReasonCpumapOverflow, overflow)
			d.stats.dropReasons.Add(drop.ReasonXDPRedirectFail, redirFail)
			d.stats.dropReasons.Add(drop.ReasonXSKRxFull, xskRxFull)
			d.stats.dropReasons.Add(drop.ReasonXSKFillEmpty, xskFillEmpty)
		}
		if txs > 0 {
			d.stats.xdpTx.Add(txs)
		}
		if redirects > 0 {
			d.stats.xdpRedirects.Add(redirects)
		}
		if passes > 0 {
			d.stats.xdpPass.Add(passes)
		}
	}
	pollScratchPool.Put(scratch)
	return keep
}

// ReceiveBatch processes a burst arriving together on RX queue rxq, the way
// one NAPI poll drains a ring: per-frame tap and byte accounting, the XDP
// program over the whole burst with bulk-queued TX/redirects, then a single
// bulk handoff of the PASS survivors into the stack. The frames slice is
// compacted in place (XDP may consume entries), so the caller must not
// reuse it afterwards.
//
// The frames themselves belong to the stack from here until they are
// transmitted or dropped, as an skb does: the forward path rewrites their
// headers in place, GRO holds keep them across polls (under
// net.core.gro_flush_timeout), the neighbour queue and the cpumap/RPS rings
// keep them, and GSO writes the supersegment's headers back into them. A
// caller that recycles its buffers refills them only for a later burst, and
// only when nothing can still hold them (no flush timeout, every neighbour
// resolved).
func (d *Device) ReceiveBatch(frames [][]byte, rxq int, m *sim.Meter) {
	if len(frames) == 0 {
		return
	}
	if !d.up.Load() {
		d.stats.rxDropped.Add(uint64(len(frames)))
		d.stats.dropReasons.Add(drop.ReasonDevRxDown, uint64(len(frames)))
		return
	}
	d.stats.rxPackets.Add(uint64(len(frames)))
	var bytes uint64
	for _, f := range frames {
		bytes += uint64(len(f))
	}
	d.stats.rxBytes.Add(bytes)

	if tap := d.Tap; tap != nil {
		for _, f := range frames {
			tap(f)
		}
	}
	m.ChargeBytes(int(bytes))
	if fr := d.flight.Load(); fr != nil {
		for _, f := range frames {
			fr.SampleRX(f, d.Index, m)
		}
	}

	if slot := d.xdp.Load(); slot != nil {
		frames = d.runXDPBatch(slot, frames, rxq, NAPIBudget, m)
	}
	if len(frames) == 0 {
		return
	}
	s := d.link.Load().stack
	if bs, ok := s.(BatchStack); ok {
		bs.DeliverBatch(d, frames, m)
		return
	}
	if s != nil {
		for _, f := range frames {
			s.DeliverFrame(d, f, m)
		}
	}
}

// InjectLocal is used by traffic generators attached directly to a device:
// the frame enters the device's RX path as if it arrived from the wire.
func (d *Device) InjectLocal(frame []byte, m *sim.Meter) {
	d.Receive(frame, m)
}
