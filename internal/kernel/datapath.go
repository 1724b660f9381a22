package kernel

import (
	"sync"

	"linuxfp/internal/bridge"
	"linuxfp/internal/drop"
	"linuxfp/internal/fib"
	"linuxfp/internal/flight"
	"linuxfp/internal/netdev"
	"linuxfp/internal/netfilter"
	"linuxfp/internal/packet"
	"linuxfp/internal/sim"
)

// rxScratch is the per-frame working set of the receive path: the decoded
// packet view, netfilter metadata, and the TC context, all caller-owned so
// the hot path performs no per-packet heap allocation — the model's
// skb-recycling. A scratch is only valid within one DeliverFrame call; the
// structs it holds must not be retained past it.
type rxScratch struct {
	pkt  packet.Packet
	ip   packet.IPv4
	arp  packet.ARP
	meta netfilter.Meta
	skb  SKB

	// Flow fast-cache fill state, threaded from ipRcv (where the combined
	// generation is captured, before any lookup runs) to finishOutput
	// (where the resolved decision is memoized).
	fillGen uint64
	fillOK  bool

	// Sockmap fill state, same discipline: the combined socket-path
	// generation captured in ipRcv before PREROUTING/route/INPUT run,
	// consumed at the demux in ipLocalDeliver. smsg is the delivery message
	// the sockmap hit path reuses so a hit performs no allocation.
	sockGen    uint64
	sockFillOK bool
	smsg       SocketMsg

	// GSO state for the frame in flight: set by groInput when a GRO
	// supersegment enters the stack, read by ipForward to resegment at the
	// egress device. segs <= 1 for ordinary frames.
	gso gsoMeta
}

var rxScratchPool = sync.Pool{New: func() any { return new(rxScratch) }}

// DeliverFrame implements netdev.Stack: the software receive path a frame
// takes after the driver (and after any XDP program passed it up).
func (k *Kernel) DeliverFrame(dev *netdev.Device, frame []byte, m *sim.Meter) {
	sc := rxScratchPool.Get().(*rxScratch)
	k.deliverFrame(dev, frame, m, sc)
	rxScratchPool.Put(sc)
}

// deliverFrame is the body of DeliverFrame with the scratch made explicit,
// so DeliverBatch can run a whole burst on one scratch.
func (k *Kernel) deliverFrame(dev *netdev.Device, frame []byte, m *sim.Meter, sc *rxScratch) {
	defer k.trace("netif_receive_skb", m)()
	if fr, ch := k.flightEnter(frame, m); fr != nil {
		defer fr.Exit(ch, m)
	}
	sc.fillOK = false
	sc.gso = gsoMeta{}

	eth, l3off, err := packet.UnmarshalEthernet(frame)
	if err != nil {
		k.countDropReason(m, drop.ReasonL2HdrError)
		return
	}

	// TC ingress: the classifier runs after sk_buff allocation. If a
	// LinuxFP TC fast path is attached here it can consume the packet.
	if h := k.tcIngressFor(dev.Index); h != nil {
		m.Charge(tcPrologueCost(dev))
		// Best-effort parse: TC programs run on any frame; non-IP or
		// malformed L3 just leaves Pkt at the Ethernet level.
		if perr := packet.DecodeInto(frame, &sc.pkt, &sc.ip, &sc.arp); perr != nil {
			sc.pkt = packet.Packet{Eth: eth, L3Off: l3off, Payload: frame[l3off:]}
		}
		sc.skb = SKB{Data: frame, Dev: dev, Pkt: &sc.pkt, VLAN: eth.VLAN, Meter: m}
		skb := &sc.skb
		sl, st := k.stageStart(m)
		act := h.HandleTC(skb)
		if sl != nil {
			sl.Observe(StageTC, m, st)
		}
		k.flightSpan(m, flight.StageTC, flight.VerdictNone)
		switch act {
		case TCShot:
			k.countDropReason(m, drop.ReasonTCDrop)
			return
		case TCRedirect:
			if out, ok := k.DeviceByIndex(skb.RedirectTo); ok {
				// Redirecting into a veth uses bpf_redirect_peer: the skb
				// lands in the peer namespace without a requeue.
				if out.Type == netdev.Veth {
					m.Charge(sim.CostTCRedirectPeer)
				} else {
					m.Charge(sim.CostTCRedirect)
				}
				out.Transmit(skb.Data, m)
			} else {
				k.countDropReason(m, drop.ReasonTCRedirectFail)
			}
			return
		case TCOk:
			frame = skb.Data
		}
		// Fall through into the normal stack; allocation costs are covered
		// by the TC prologue already charged.
		k.receiveParsed(dev, frame, eth, l3off, m, sc)
		return
	}

	// Receive cost depends on the device class: a physical NIC pays DMA
	// descriptor handling and a fresh sk_buff; a veth hands over the
	// sender's skb through the per-CPU backlog; pseudo-devices (vxlan)
	// re-inject an existing skb.
	m.Charge(rxDeviceCost(dev) + sim.CostNetifReceive)
	k.receiveParsed(dev, frame, eth, l3off, m, sc)
}

// receiveParsed continues processing once the Ethernet header is decoded.
func (k *Kernel) receiveParsed(dev *netdev.Device, frame []byte, eth packet.Ethernet, l3off int, m *sim.Meter, sc *rxScratch) {
	// Bridged port? br_handle_frame intercepts before L3.
	if master := dev.Master(); master != 0 {
		if br, ok := k.Bridge(master); ok {
			k.bridgeInput(br, dev, frame, eth, l3off, m, sc)
			return
		}
	}
	// RPS/RFS: when software steering is on, get_rps_cpu may park the frame
	// in another CPU's backlog; that CPU re-enters here, picks itself, and
	// falls through. One nil load when steering is off.
	if st := k.rps.Load(); st != nil {
		if k.rpsDeliver(st, dev, frame, eth, l3off, m) {
			return
		}
	}
	// Sockmap fast path: established local flows jump straight from here to
	// the socket (or its splice partner), skipping ip_rcv, netfilter, and
	// the route lookup, when the memoized demux decision revalidates.
	if k.sockmapOn.Load() && k.sockFastPath(dev, frame, m, sc) {
		return
	}
	// Per-CPU flow fast-cache: steady-state forwarded flows skip the whole
	// ip_rcv/route/neighbour walk when the memoized decision revalidates.
	if k.flowCacheOn.Load() && k.flowFastPath(dev, frame, m) {
		return
	}
	k.l3Input(dev, frame, m, sc)
}

// bridgeInput is br_handle_frame: STP interception, VLAN classification,
// learning, and the forwarding decision. Bridging is pure L2: the frame's
// payload need not be valid IP.
func (k *Kernel) bridgeInput(br *bridge.Bridge, dev *netdev.Device, frame []byte, eth packet.Ethernet, l3off int, m *sim.Meter, sc *rxScratch) {
	defer k.trace("br_handle_frame", m)()
	now := k.Now()

	// BPDUs are link-local protocol traffic: always slow path (Table I).
	if eth.Dst == bridge.STPDestMAC {
		if br.STPEnabled() {
			if bpdu, err := bridge.UnmarshalBPDU(frame[l3off:]); err == nil {
				br.ReceiveBPDU(dev.Index, bpdu, now)
			}
		}
		return
	}

	// Per-CPU L2 fast-cache: a memoized single-port unicast decision that
	// revalidates skips classification, learning and the FDB walk. The
	// skipped learning refresh is safe: the cached entry expires with the
	// FDB entry it memoized, and any FDB change bumps the bridge
	// generation.
	if k.flowCacheOn.Load() && k.l2FastPath(br, dev, frame, eth, m) {
		return
	}

	vlan, ok := br.IngressVLAN(dev.Index, eth.VLAN)
	if !ok {
		k.countDropReason(m, drop.ReasonVLANFilter)
		return
	}
	br.Learn(eth.Src, vlan, dev.Index, now)
	m.Charge(sim.CostBridgeInput)

	// Capture the L2 generation before the forwarding decision, so a
	// concurrent FDB change after the lookup leaves the memoized entry
	// already stale.
	l2gen := k.l2Gen(br)

	// br_netfilter: with bridge-nf-call-iptables enabled (container hosts
	// set this), bridged IPv4 frames traverse the FORWARD chain too.
	brNF := k.brNFCall.Load() && eth.EtherType == packet.EtherTypeIPv4
	var brMeta *netfilter.Meta
	if brNF {
		if err := packet.DecodeInto(frame, &sc.pkt, &sc.ip, &sc.arp); err == nil && sc.pkt.IPv4 != nil {
			brMeta = k.buildMetaInto(dev, &sc.pkt, &sc.meta)
			if v := k.runHook(netfilter.HookForward, brMeta, m); v == netfilter.VerdictDrop {
				k.countFilterDrop(m)
				return
			}
		}
	}

	d := br.Forward(dev.Index, eth.Dst, vlan, now)
	if d.Drop {
		k.countDropReason(m, d.Reason)
		return
	}
	// br_netfilter's second leg: forwarded bridged frames also traverse
	// POSTROUTING (where kube-proxy's masquerade chains live) before
	// egress. LinuxFP's TC redirect legitimately skips this whole walk —
	// as long as the chain cannot drop (the controller checks).
	if brNF && brMeta != nil && len(d.Egress) > 0 {
		if v := k.runHook(netfilter.HookPostrouting, brMeta, m); v == netfilter.VerdictDrop {
			k.countFilterDrop(m)
			return
		}
	}
	for i, egress := range d.Egress {
		if i > 0 {
			m.Charge(sim.CostBridgeFloodP)
		}
		out, ok := k.DeviceByIndex(egress)
		if !ok {
			continue
		}
		tagged, allowed := br.EgressAllowed(egress, vlan)
		if !allowed {
			continue
		}
		m.Charge(sim.CostDevXmit)
		txFrame := retagFrame(frame, eth, l3off, vlan, tagged)
		out.Transmit(txFrame, m)
		// Memoize: exactly one unicast egress, no netfilter traversal, no
		// retag, not also delivered locally.
		if k.flowCacheOn.Load() && !brNF && !d.Flood && !d.Local &&
			len(d.Egress) == 1 && &txFrame[0] == &frame[0] && !eth.Dst.IsMulticast() {
			if expire, ok := br.FDBExpiry(eth.Dst, vlan); ok {
				k.l2Install(dev, eth, out, expire, l2gen, m)
			}
		}
	}
	if d.Local {
		// Deliver up the stack as if received on the bridge device.
		if brDev, ok := k.DeviceByIndex(br.IfIndex); ok {
			k.l3Input(brDev, frame, m, sc)
		}
	}
}

// retagFrame rewrites the 802.1Q tag to match egress requirements.
func retagFrame(frame []byte, eth packet.Ethernet, l3off int, vlan uint16, tagged bool) []byte {
	hasTag := eth.VLAN != 0
	if hasTag == tagged && (!tagged || eth.VLAN == vlan) {
		return frame
	}
	if tagged {
		eth.VLAN = vlan
	} else {
		eth.VLAN = 0
	}
	return packet.BuildEthernet(eth, frame[l3off:])
}

// l3Input decodes the full frame and demuxes by EtherType: ARP processing
// or IP receive. Frames that fail L3 validation are dropped here, after
// bridging had its chance.
func (k *Kernel) l3Input(dev *netdev.Device, frame []byte, m *sim.Meter, sc *rxScratch) {
	// Flow telemetry, slow-path side: every packet entering the full stack
	// walk is accounted here; the fast paths account their hits themselves.
	if ft := k.flowTab.Load(); ft != nil {
		if t, _, ok := packet.ReadFlowTuple(frame); ok {
			ft.Observe(t, len(frame), false, m)
		}
	}
	if err := packet.DecodeInto(frame, &sc.pkt, &sc.ip, &sc.arp); err != nil {
		k.countDropReason(m, drop.ReasonIPHdrError)
		return
	}
	pkt := &sc.pkt
	switch {
	case pkt.ARP != nil:
		k.arpInput(dev, pkt.ARP, m)
	case pkt.IPv4 != nil:
		k.ipRcv(dev, frame, pkt, m, sc)
	default:
		// Unknown protocol: consumed by taps only.
		k.countDropReason(m, drop.ReasonUnknownL3Proto)
	}
}

// arpInput is arp_rcv: learn the sender, answer requests for local
// addresses, flush the pending queue on replies.
func (k *Kernel) arpInput(dev *netdev.Device, a *packet.ARP, m *sim.Meter) {
	defer k.trace("arp_rcv", m)()
	m.Charge(sim.CostArpProcess)
	now := k.Now()

	queued := k.Neigh.Confirm(a.SenderIP, a.SenderHW, dev.Index, now)
	if len(queued) > 0 {
		// The flushed frames carry their own (parked) flight chains; suspend
		// the ARP reply's chain so an unsampled flushed frame's TerminalTx
		// cannot fall back onto it.
		fr := k.flight.Load()
		var susp *flight.Chain
		if fr != nil {
			susp = fr.SuspendCur(m)
		}
		for _, f := range queued {
			packet.SetEthDst(f, a.SenderHW)
			m.Charge(sim.CostDevXmit)
			dev.Transmit(f, m)
		}
		if fr != nil {
			fr.RestoreCur(susp, m)
		}
	}

	if a.Op == packet.ARPRequest && k.addrIsLocal(a.TargetIP) {
		reply := packet.BuildARP(dev.MAC, a.SenderHW, packet.ARP{
			Op:       packet.ARPReply,
			SenderHW: dev.MAC,
			SenderIP: a.TargetIP,
			TargetHW: a.SenderHW,
			TargetIP: a.SenderIP,
		})
		k.bumpARPTx(m)
		dev.Transmit(reply, m)
	}
}

// addrIsLocal reports whether ip is assigned to any device.
func (k *Kernel) addrIsLocal(ip packet.Addr) bool {
	r, ok := k.FIB.Local().Lookup(ip)
	return ok && r.Local && r.Prefix.Bits == 32 && r.Prefix.Addr == ip
}

// ipRcv is ip_rcv: validation, PREROUTING, routing decision.
func (k *Kernel) ipRcv(dev *netdev.Device, frame []byte, pkt *packet.Packet, m *sim.Meter, sc *rxScratch) {
	defer k.trace("ip_rcv", m)()
	m.Charge(sim.CostIPRcv)
	ip := pkt.IPv4

	// Capture the flow-cache generation before any state is consulted: if
	// anything changes between here and the fill, the stored generation is
	// already stale and the entry can never produce a wrong hit.
	if k.flowCacheOn.Load() {
		sc.fillGen = k.dpGen()
	}
	sc.sockFillOK = k.sockmapOn.Load()
	if sc.sockFillOK {
		sc.sockGen = k.skGen()
	}

	meta := k.buildMetaInto(dev, pkt, &sc.meta)
	if v := k.runHook(netfilter.HookPrerouting, meta, m); v == netfilter.VerdictDrop {
		k.countFilterDrop(m)
		return
	}

	// ipvs intercepts virtual-service traffic ahead of the routing
	// decision (only when services are configured).
	if k.IPVSActive() && k.ipvsInput(dev, frame, pkt, m) {
		return
	}

	k.trace("fib_table_lookup", m)()
	sl, st := k.stageStart(m)
	m.Charge(sim.CostRouteLookup)
	r, ok := k.FIB.Lookup(ip.Dst)
	if sl != nil {
		sl.Observe(StageFIB, m, st)
	}
	k.flightSpan(m, flight.StageFIB, flight.VerdictNone)
	if !ok {
		k.countNoRoute(m)
		k.sendICMPError(dev, pkt, packet.ICMPUnreachable, 0, m)
		return
	}
	if r.Local || ip.Dst.IsBroadcast() {
		k.ipLocalDeliver(dev, frame, pkt, meta, m, sc)
		return
	}
	k.ipForward(dev, frame, pkt, r, meta, m, sc)
}

// buildMeta summarizes the packet for netfilter on the heap (config-path
// callers that have no scratch).
func (k *Kernel) buildMeta(dev *netdev.Device, pkt *packet.Packet) *netfilter.Meta {
	return k.buildMetaInto(dev, pkt, &netfilter.Meta{})
}

// buildMetaInto summarizes the packet for netfilter into caller-owned
// storage. L4 ports are only visible on first fragments.
func (k *Kernel) buildMetaInto(dev *netdev.Device, pkt *packet.Packet, meta *netfilter.Meta) *netfilter.Meta {
	ip := pkt.IPv4
	*meta = netfilter.Meta{
		Src: ip.Src, Dst: ip.Dst, Proto: ip.Proto,
		InIf: dev.Index, Fragment: ip.IsFragment(),
	}
	if (ip.Proto == packet.ProtoTCP || ip.Proto == packet.ProtoUDP) &&
		ip.FragOff == 0 && len(pkt.Payload) >= 4 {
		meta.SrcPort, meta.DstPort = packet.L4Ports(pkt.Payload, 0)
	}
	if k.NF.CTRequired() && !meta.Fragment {
		st, _ := k.NF.Conntrack.Track(netfilter.Tuple{
			Src: meta.Src, Dst: meta.Dst, Proto: meta.Proto,
			SrcPort: meta.SrcPort, DstPort: meta.DstPort,
		}, k.Now())
		meta.CTState = st
	}
	return meta
}

// runHook evaluates a netfilter hook, charging the slow-path cost model.
// It is the single choke point every hook traversal passes through, so the
// netfilter stage histogram is recorded here.
func (k *Kernel) runHook(h netfilter.Hook, meta *netfilter.Meta, m *sim.Meter) netfilter.Verdict {
	sl, start := k.stageStart(m)
	cp := k.NF.Snapshot(h)
	v, st := cp.Evaluate(meta)
	if st.RulesEvaluated > 0 {
		m.Charge(sim.CostNFHookBase +
			sim.Cycles(st.RulesEvaluated)*sim.CostIptRuleSlow +
			sim.Cycles(st.SetProbes)*sim.CostIpsetLookup)
	}
	if cp.CTRequired {
		m.Charge(sim.CostConntrackLookup)
	}
	if sl != nil {
		sl.Observe(StageNetfilter, m, start)
	}
	k.flightSpan(m, flight.StageNetfilter, flight.VerdictNone)
	return v
}

// ipLocalDeliver is ip_local_deliver: reassembly, INPUT hook, L4 demux. A
// nil sc (loopback sends, IPVS re-injection) just disables sockmap
// memoization.
func (k *Kernel) ipLocalDeliver(dev *netdev.Device, frame []byte, pkt *packet.Packet, meta *netfilter.Meta, m *sim.Meter, sc *rxScratch) {
	defer k.trace("ip_local_deliver", m)()
	m.Charge(sim.CostLocalDeliver)
	ip := pkt.IPv4

	payload := pkt.Payload
	if ip.IsFragment() {
		m.Charge(sim.CostDefragFrag)
		full, done := k.defragInsert(ip, payload)
		if !done {
			return
		}
		payload = full
		k.countReassembled(m)
		// Re-derive L4 ports now that the full datagram exists.
		if (ip.Proto == packet.ProtoTCP || ip.Proto == packet.ProtoUDP) && len(payload) >= 4 {
			meta.SrcPort, meta.DstPort = packet.L4Ports(payload, 0)
		}
		meta.Fragment = false
	}

	if v := k.runHook(netfilter.HookInput, meta, m); v == netfilter.VerdictDrop {
		k.countFilterDrop(m)
		return
	}

	switch ip.Proto {
	case packet.ProtoICMP:
		k.icmpInput(dev, ip, payload, m)
	case packet.ProtoUDP, packet.ProtoTCP:
		var sport, dport uint16
		if len(payload) >= 4 {
			sport, dport = packet.L4Ports(payload, 0)
		}
		sock, ok := k.socketFor(ip.Proto, dport)
		if !ok {
			k.countDropReason(m, drop.ReasonNoSocket)
			return
		}
		m.Charge(sim.CostSocketQueue)
		body := payload
		if ip.Proto == packet.ProtoUDP {
			if u, b, err := packet.UnmarshalUDP(payload, ip.Src, ip.Dst); err == nil {
				body = b
				sport, dport = u.SrcPort, u.DstPort
			}
		} else if t, b, err := packet.UnmarshalTCP(payload, ip.Src, ip.Dst); err == nil {
			body = b
			sport, dport = t.SrcPort, t.DstPort
		}
		k.rfsRecord(ip, sport, dport, m)
		// Memoize the demux decision for the sockmap fast path: first
		// delivery walks the full stack, later segments of the flow hit the
		// established-flow table. The generation was captured in ip_rcv.
		if sc != nil && sc.sockFillOK && !ip.IsFragment() && !ip.Dst.IsBroadcast() &&
			k.sockInstallEligible() {
			k.sockInstall(packet.FlowTuple{
				Src: ip.Src, Dst: ip.Dst, SrcPort: sport, DstPort: dport, Proto: ip.Proto,
			}, sock, sc.sockGen, m)
		}
		var msg *SocketMsg
		if sc != nil {
			msg = &sc.smsg
		} else {
			msg = &SocketMsg{}
		}
		*msg = SocketMsg{
			Proto: ip.Proto, Src: ip.Src, Dst: ip.Dst,
			SrcPort: sport, DstPort: dport, Payload: body, InIf: dev.Index, Meter: m,
		}
		k.finishDeliver(sock, msg, m)
	default:
		k.countDropReason(m, drop.ReasonUnknownL4Proto)
	}
}

// icmpInput answers echo requests.
func (k *Kernel) icmpInput(dev *netdev.Device, ip *packet.IPv4, payload []byte, m *sim.Meter) {
	defer k.trace("icmp_rcv", m)()
	ic, body, err := packet.UnmarshalICMP(payload)
	if err != nil || ic.Type != packet.ICMPEchoRequest {
		return
	}
	m.Charge(sim.CostIcmpEcho)
	reply := packet.ICMP{Type: packet.ICMPEchoReply, Rest: ic.Rest}
	k.bumpICMPTx(m)
	k.SendIP(ip.Dst, ip.Src, packet.ProtoICMP, reply.Marshal(nil, body), m)
}

// ipForward is ip_forward: TTL, FORWARD hook, neighbour resolution, rewrite
// and transmit — the slow path LinuxFP's router FPM short-circuits.
func (k *Kernel) ipForward(dev *netdev.Device, frame []byte, pkt *packet.Packet, r fib.Route, meta *netfilter.Meta, m *sim.Meter, sc *rxScratch) {
	defer k.trace("ip_forward", m)()
	if !k.IPForwarding() {
		k.countDropReason(m, drop.ReasonIPForwardingOff)
		return
	}
	ip := pkt.IPv4
	if ip.TTL <= 1 {
		k.countTTLExpired(m)
		k.sendICMPError(dev, pkt, packet.ICMPTimeExceeded, 0, m)
		return
	}
	m.Charge(sim.CostIPForward)

	meta.OutIf = r.OutIf
	if v := k.runHook(netfilter.HookForward, meta, m); v == netfilter.VerdictDrop {
		k.countFilterDrop(m)
		return
	}

	out, ok := k.DeviceByIndex(r.OutIf)
	if !ok {
		k.countNoRoute(m)
		return
	}

	nexthop := r.Gateway
	if nexthop == 0 {
		nexthop = ip.Dst
	}

	// Rewrite in place: decrement TTL (incremental checksum) and stamp the
	// egress source MAC. The frame is our own copy.
	packet.DecTTL(frame, pkt.L3Off)
	packet.SetEthSrc(frame, out.MAC)

	// GRO supersegment: output work runs once on the merged frame, then it
	// is split back into wire frames at the egress device (GSO). The MTU
	// check below applies to the split segments, not the supersegment.
	if sc != nil && sc.gso.segs > 1 {
		if !k.gsoForward(dev, out, nexthop, frame, pkt, sc.gso, m) {
			k.countForwarded(m)
		}
		return
	}

	// Oversized for the egress MTU? Fragment (or bounce with ICMP if DF).
	if int(ip.TotalLen) > out.MTU {
		if ip.DontFragment() {
			k.sendICMPError(dev, pkt, packet.ICMPUnreachable, 4, m) // frag needed
			k.countDropReason(m, drop.ReasonPktTooBig)
			return
		}
		k.fragmentAndSend(out, nexthop, frame, pkt, m)
		return
	}

	if sc != nil {
		sc.fillOK = k.flowCacheOn.Load() && k.flowFillEligible(out)
	}
	k.finishOutput(out, nexthop, frame, m, sc)
	k.countForwarded(m)
}

// finishOutput resolves the next hop and transmits, queueing on the
// neighbour table when the MAC is unknown. When sc requests it, the
// decision is memoized in the flow fast-cache after a successful transmit.
func (k *Kernel) finishOutput(out *netdev.Device, nexthop packet.Addr, frame []byte, m *sim.Meter, sc *rxScratch) {
	defer k.trace("neigh_resolve_output", m)()
	now := k.Now()

	// POSTROUTING runs on every output once rules exist there (NAT
	// plumbing); empty chains cost nothing, like the kernel's static keys.
	if k.NF.Snapshot(netfilter.HookPostrouting).Rules(netfilter.HookPostrouting) > 0 {
		if pkt, err := packet.Decode(frame); err == nil && pkt.IPv4 != nil {
			meta := k.buildMeta(out, pkt)
			meta.OutIf = out.Index
			if v := k.runHook(netfilter.HookPostrouting, meta, m); v == netfilter.VerdictDrop {
				k.countFilterDrop(m)
				return
			}
		}
	}
	sl, nst := k.stageStart(m)
	mac, expire, ok := k.Neigh.ResolvedFull(nexthop, now)
	if !ok {
		// The frame parks on the neighbour queue; its flight chain parks
		// with it — before StartResolution publishes the frame, since the
		// ARP-reply flush can run on another CPU — and resumes when the
		// flush drains it. A full queue never published the frame, so the
		// producer closes the chain itself.
		fr := k.flight.Load()
		if fr != nil {
			fr.ParkFrame(frame, flight.StageNeigh, m)
		}
		first, queued := k.Neigh.StartResolution(nexthop, out.Index, frame)
		if !queued {
			if fr != nil {
				fr.TerminalDropFrame(frame, drop.ReasonNeighQueueFull, m)
			}
			k.countDropReason(m, drop.ReasonNeighQueueFull)
		}
		if first {
			k.sendARPRequest(out, nexthop, m)
		}
		return
	}
	packet.SetEthDst(frame, mac)
	m.Charge(sim.CostNeighOutput)
	if sl != nil {
		sl.Observe(StageNeigh, m, nst)
	}
	k.flightSpan(m, flight.StageNeigh, flight.VerdictNone)

	if h := k.tcEgressFor(out.Index); h != nil {
		if pkt, err := packet.Decode(frame); err == nil {
			skb := &SKB{Data: frame, Dev: out, Pkt: pkt, Meter: m}
			tsl, tst := k.stageStart(m)
			act := h.HandleTC(skb)
			if tsl != nil {
				tsl.Observe(StageTC, m, tst)
			}
			k.flightSpan(m, flight.StageTC, flight.VerdictNone)
			switch act {
			case TCShot:
				k.countDropReason(m, drop.ReasonTCDrop)
				return
			case TCRedirect:
				m.Charge(sim.CostTCRedirect)
				if red, ok := k.DeviceByIndex(skb.RedirectTo); ok {
					red.Transmit(skb.Data, m)
				}
				return
			case TCOk:
				frame = skb.Data
			}
		}
	}

	k.trace("dev_queue_xmit", m)()
	xsl, xst := k.stageStart(m)
	m.Charge(sim.CostDevXmit)
	out.Transmit(frame, m)
	if xsl != nil {
		xsl.Observe(StageXmit, m, xst)
	}
	if sc != nil && sc.fillOK {
		k.flowInstall(frame, out, mac, expire, sc.fillGen, m)
	}
}

// sendARPRequest broadcasts a who-has for ip out the device.
func (k *Kernel) sendARPRequest(out *netdev.Device, ip packet.Addr, m *sim.Meter) {
	var src packet.Addr
	if addrs := out.Addrs(); len(addrs) > 0 {
		src = addrs[0].Addr
	}
	req := packet.BuildARP(out.MAC, packet.BroadcastHW, packet.ARP{
		Op:       packet.ARPRequest,
		SenderHW: out.MAC,
		SenderIP: src,
		TargetIP: ip,
	})
	k.bumpARPTx(m)
	out.Transmit(req, m)
}

func (k *Kernel) tcIngressFor(idx int) TCHandler {
	return k.tc.Load().ingress[idx]
}

func (k *Kernel) tcEgressFor(idx int) TCHandler {
	return k.tc.Load().egress[idx]
}
