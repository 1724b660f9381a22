// Socket-layer fast path: first-class socket objects, a lock-free
// established-flow table, and socket-to-socket splicing — the model of
// BPF_MAP_TYPE_SOCKMAP's kernel side.
//
// The listening-socket table is copy-on-write (one atomic load per demux).
// On top of it sits a per-CPU direct-mapped established-flow table populated
// at first successful delivery: a miss walks the full stack and memoizes the
// (tuple -> socket) decision; a hit charges CostSockmapLookup and jumps the
// frame straight from netif_receive to the socket, skipping ip_rcv, the
// PREROUTING/INPUT netfilter traversal and the route lookup. Coherence
// follows the flow fast-cache rule: every entry records the combined
// generation of everything the skipped walk would have consulted (config,
// FIB, netfilter, socket table), and one unregister or rule change kills
// every memoized decision at once — stale entries fall back to the full walk.
//
// Splicing closes the loop for proxy-style flows: a socket can carry an
// egress binding (where its writes go) and a splice partner (where its
// ingress forwards). With the fast path on, a proxied segment never crosses
// into userspace: table hit -> verdict -> partner's egress, charged as
// lookup + redirect instead of poll + sendmsg + two copies. The egress send
// is the same SendUDP/SendTCPSegment call the userspace relay handler makes,
// so the wire output is byte-identical to the full-stack path.
package kernel

import (
	"encoding/binary"
	"sync/atomic"

	"linuxfp/internal/drop"
	"linuxfp/internal/flight"
	"linuxfp/internal/netdev"
	"linuxfp/internal/netfilter"
	"linuxfp/internal/packet"
	"linuxfp/internal/sim"
)

// --- socket objects ----------------------------------------------------------

// Socket is one bound (proto, port) endpoint — the model's struct sock. The
// handler is immutable after creation; the splice/verdict attachments and the
// closed flag are atomics because the demux fast path reads them lock-free.
type Socket struct {
	proto   uint8
	port    uint16
	handler SocketHandler

	closed atomic.Bool

	// egress is where writes on this socket exit (a connected socket's
	// destination); spliceTo is the sockmap splice partner: ingress payloads
	// forward out the partner's egress without visiting userspace.
	egress   atomic.Pointer[egressBind]
	spliceTo atomic.Pointer[Socket]

	// skskb is the attached sk_skb stream verdict program (via the ebpf
	// package's adapter); nil when no program is attached.
	skskb atomic.Pointer[SKSKBHandler]
}

// Proto returns the socket's bound protocol.
func (s *Socket) Proto() uint8 { return s.proto }

// Port returns the socket's bound port.
func (s *Socket) Port() uint16 { return s.port }

// Closed reports whether the socket has been unregistered (or rebound over).
func (s *Socket) Closed() bool { return s.closed.Load() }

// SetSKSKB attaches an sk_skb stream verdict handler to the socket (nil
// detaches). The sockmap's program attachments install through here.
func (s *Socket) SetSKSKB(h SKSKBHandler) {
	if h == nil {
		s.skskb.Store(nil)
		return
	}
	s.skskb.Store(&h)
}

// SetSplice sets (or clears, nil) the socket's kernel-native splice partner.
func (s *Socket) SetSplice(t *Socket) { s.spliceTo.Store(t) }

// egressBind describes where a socket's writes exit: the remote peer plus the
// source port stamped on egress segments.
type egressBind struct {
	proto            uint8
	dst              packet.Addr
	srcPort, dstPort uint16
}

// --- sk_skb verdict programs -------------------------------------------------

// SKSKBAction is the kernel-visible verdict of an sk_skb stream verdict
// program: SK_PASS, SK_DROP, or SK_REDIRECT.
type SKSKBAction uint8

// sk_skb verdicts.
const (
	SKSKBPass     SKSKBAction = iota // deliver to the owning socket (userspace)
	SKSKBDrop                        // drop the segment
	SKSKBRedirect                    // splice to Target's egress in-kernel
)

// SKSKBResult carries a verdict program's decision. Reason tags SK_DROP
// verdicts (NotSpecified maps to socket_filter, the kernel's reason for
// filter-dropped skbs).
type SKSKBResult struct {
	Action SKSKBAction
	Target *Socket
	Reason drop.Reason
}

// SKSKBHandler is an attached sk_skb stream verdict program. Implemented by
// the ebpf package's adapter (the kernel package defines only the interface,
// mirroring how TCHandler and cpumap programs avoid the import cycle).
type SKSKBHandler interface {
	HandleSKSKB(msg *SocketMsg, m *sim.Meter) SKSKBResult
}

// --- listening-socket table (copy-on-write) ----------------------------------

// sockTable is the read-side snapshot of the listening sockets, replaced
// whole on every bind/unbind so per-packet demux is one atomic load.
type sockTable struct {
	m map[socketKey]*Socket
}

// RegisterSocket binds a handler to (proto, port) — the model's listening
// socket — and returns the socket object (callers that only need delivery
// can ignore it). Rebinding an in-use port closes the previous socket.
func (k *Kernel) RegisterSocket(proto uint8, port uint16, h SocketHandler) *Socket {
	s := &Socket{proto: proto, port: port, handler: h}
	key := socketKey{proto, port}
	k.mu.Lock()
	old := k.socks.Load()
	nt := &sockTable{m: make(map[socketKey]*Socket, len(old.m)+1)}
	for kk, v := range old.m {
		nt.m[kk] = v
	}
	if prev, ok := nt.m[key]; ok {
		prev.closed.Store(true)
		k.sockGen.Add(1)
	}
	nt.m[key] = s
	k.socks.Store(nt)
	k.mu.Unlock()
	return s
}

// UnregisterSocket removes a binding. The socket is marked closed and the
// socket generation bumps, so every memoized delivery decision (established-
// flow entries, RFS placements, sockmap slots) goes stale at once.
func (k *Kernel) UnregisterSocket(proto uint8, port uint16) {
	key := socketKey{proto, port}
	k.mu.Lock()
	old := k.socks.Load()
	s, ok := old.m[key]
	if !ok {
		k.mu.Unlock()
		return
	}
	nt := &sockTable{m: make(map[socketKey]*Socket, len(old.m))}
	for kk, v := range old.m {
		if kk != key {
			nt.m[kk] = v
		}
	}
	k.socks.Store(nt)
	s.closed.Store(true)
	k.sockGen.Add(1)
	k.mu.Unlock()
}

// socketFor is the demux read: one atomic load plus a map probe.
func (k *Kernel) socketFor(proto uint8, port uint16) (*Socket, bool) {
	s, ok := k.socks.Load().m[socketKey{proto, port}]
	return s, ok
}

// LookupSocket is the exported socketFor (sockmap update paths resolve
// members through it).
func (k *Kernel) LookupSocket(proto uint8, port uint16) (*Socket, bool) {
	return k.socketFor(proto, port)
}

// SockGen returns the socket-layer generation counter. External socket maps
// stamp their slots with it to stay coherent with unregistration.
func (k *Kernel) SockGen() uint64 { return k.sockGen.Load() }

// skGen is the combined generation of everything a memoized local-delivery
// decision skips: sysctls/links (cfgGen, which also covers IPVS services),
// local routes (FIB), netfilter chains, and the socket table itself. Each
// term is monotonic, so equal sums imply nothing changed.
func (k *Kernel) skGen() uint64 {
	return k.cfgGen.Load() + k.FIB.Gen() + k.NF.Gen() + k.sockGen.Load()
}

// SockmapEnabled reports whether the socket-layer fast path is on
// (net.core.sockmap sysctl).
func (k *Kernel) SockmapEnabled() bool { return k.sockmapOn.Load() }

// --- established-flow table --------------------------------------------------

// sockCacheSize is entries per CPU shard; direct-mapped, power of two.
// Sized like RFS's sock flow table (rps_sock_flow_entries, commonly 32768
// system-wide) rather than the 4096-entry forwarding flowcache: local
// delivery concentrates on established flows, so the table must hold the
// hot-flow working set to keep collision evictions off the steady state.
const sockCacheSize = 16384

const sockCacheMask = sockCacheSize - 1

// sockEntry memoizes one local-delivery decision (tuple -> socket). The seq
// field is a seqlock: odd while a writer is mid-update.
type sockEntry struct {
	seq   atomic.Uint32
	gen   uint64
	hash  uint32
	tuple packet.FlowTuple
	sock  *Socket
}

// sockShard is one CPU's established-flow table, allocated lazily on the
// first fill.
type sockShard struct {
	entries [sockCacheSize]sockEntry
}

// sockFastPath attempts a memoized local delivery. It returns true when the
// frame was fully consumed (delivered, spliced, or dropped with a reason).
// Validation on every hit: seqlock stability, the tuple (hash collisions),
// and the combined generation; the closed flag catches the unregister that
// has marked the socket but not yet bumped the generation.
func (k *Kernel) sockFastPath(dev *netdev.Device, frame []byte, m *sim.Meter, sc *rxScratch) bool {
	t, l3, ok := packet.ReadFlowTuple(frame)
	if !ok || t.Frag || (t.Proto != packet.ProtoTCP && t.Proto != packet.ProtoUDP) {
		return false
	}
	c := k.ctr(m)
	sh := k.skflows[shardIdx(m)].Load()
	if sh == nil {
		c.sockmapMisses.Add(1)
		return false
	}
	h := flowHash(t)
	e := &sh.entries[h&sockCacheMask]
	seq := e.seq.Load()
	if seq&1 != 0 {
		c.sockmapMisses.Add(1)
		return false
	}
	sock := e.sock
	if e.hash != h || e.tuple != t || sock == nil || e.gen != k.skGen() {
		c.sockmapMisses.Add(1)
		return false
	}
	if e.seq.Load() != seq {
		c.sockmapMisses.Add(1)
		return false
	}

	// Parse the L4 payload exactly as the slow path would, so the delivered
	// bytes are identical. A frame the parsers reject falls back to the full
	// walk (which will also reject it, with its usual accounting).
	b := frame[l3:]
	ihl := int(b[0]&0x0f) * 4
	totalLen := int(binary.BigEndian.Uint16(b[2:4]))
	if totalLen > len(b) || ihl+4 > totalLen {
		c.sockmapMisses.Add(1)
		return false
	}
	l4 := b[ihl:totalLen]
	var body []byte
	var sport, dport uint16
	if t.Proto == packet.ProtoUDP {
		u, pl, err := packet.UnmarshalUDP(l4, t.Src, t.Dst)
		if err != nil {
			c.sockmapMisses.Add(1)
			return false
		}
		body, sport, dport = pl, u.SrcPort, u.DstPort
	} else {
		tc, pl, err := packet.UnmarshalTCP(l4, t.Src, t.Dst)
		if err != nil {
			c.sockmapMisses.Add(1)
			return false
		}
		body, sport, dport = pl, tc.SrcPort, tc.DstPort
	}

	sl, st := k.stageStart(m)
	m.Charge(sim.CostSockmapLookup)
	c.sockmapHits.Add(1)
	k.flightSpan(m, flight.StageSockmap, flight.VerdictNone)
	if ft := k.flowTab.Load(); ft != nil {
		ft.Observe(t, len(frame), true, m)
	}
	if sock.closed.Load() {
		// Unregister marked the socket between our generation check and now:
		// the memoized socket is gone. sk_no_socket, consumed.
		k.countDropReason(m, drop.ReasonSkNoSocket)
		if sl != nil {
			sl.Observe(StageSockmap, m, st)
		}
		return true
	}
	k.rfsRecordTuple(t, m)
	m.Charge(sim.CostSocketQueue)
	msg := &sc.smsg
	*msg = SocketMsg{
		Proto: t.Proto, Src: t.Src, Dst: t.Dst,
		SrcPort: sport, DstPort: dport, Payload: body, InIf: dev.Index, Meter: m,
	}
	k.finishDeliver(sock, msg, m)
	if sl != nil {
		sl.Observe(StageSockmap, m, st)
	}
	return true
}

// sockInstall memoizes the delivery decision the slow path just took: tuple t
// demuxed to sock. gen was captured in ip_rcv before any lookup ran, so a
// concurrent mutation forces a conservative miss. The caller has already
// verified eligibility (sockInstallEligible).
func (k *Kernel) sockInstall(t packet.FlowTuple, sock *Socket, gen uint64, m *sim.Meter) {
	idx := shardIdx(m)
	sh := k.skflows[idx].Load()
	if sh == nil {
		sh = new(sockShard)
		if !k.skflows[idx].CompareAndSwap(nil, sh) {
			sh = k.skflows[idx].Load()
		}
	}
	m.Charge(sim.CostSockmapUpdate)
	h := flowHash(t)
	e := &sh.entries[h&sockCacheMask]
	e.seq.Add(1) // odd: writer in progress
	e.gen = gen
	e.hash = h
	e.tuple = t
	e.sock = sock
	e.seq.Add(1) // even: consistent
}

// sockInstallEligible reports whether local deliveries may currently be
// memoized: nothing on the receive path may filter, track, or rewrite,
// because a hit skips all of it. Any later change bumps a generation folded
// into skGen and evicts.
func (k *Kernel) sockInstallEligible() bool {
	cp := k.NF.Snapshot(netfilter.HookInput)
	if cp.Rules(netfilter.HookPrerouting) > 0 || cp.Rules(netfilter.HookInput) > 0 || cp.CTRequired {
		return false
	}
	return !k.IPVSActive()
}

// --- socket-layer delivery pipeline ------------------------------------------

// finishDeliver runs the delivery pipeline shared by the full stack walk and
// the sockmap fast path: sk_skb verdict program (if attached), kernel-native
// splice binding, then the socket's handler. Exactly one of delivered /
// dropped is counted per call, so conservation holds from either entry.
func (k *Kernel) finishDeliver(sock *Socket, msg *SocketMsg, m *sim.Meter) {
	if hp := sock.skskb.Load(); hp != nil {
		k.ctr(m).l7Verdicts.Add(1)
		res := (*hp).HandleSKSKB(msg, m)
		switch res.Action {
		case SKSKBDrop:
			r := res.Reason
			if r == drop.ReasonNotSpecified {
				r = drop.ReasonSocketFilter
			}
			k.countDropReason(m, r)
			return
		case SKSKBRedirect:
			k.spliceForward(res.Target, msg, m)
			return
		}
		// SKSKBPass falls through to the owning socket (userspace).
	} else if k.sockmapOn.Load() {
		if t := sock.spliceTo.Load(); t != nil {
			m.Charge(sim.CostSockmapRedirect)
			k.spliceForward(t, msg, m)
			return
		}
	}
	k.countDelivered(m)
	if sock.handler != nil {
		sock.handler(k, *msg)
	}
}

// spliceForward writes msg's payload out the target socket's egress binding —
// the model of SK_REDIRECT / native sockmap splicing: the bytes never cross
// into userspace. An empty target is sk_no_socket; a closed or unbound one is
// sockmap_stale (present but no longer usable).
func (k *Kernel) spliceForward(t *Socket, msg *SocketMsg, m *sim.Meter) {
	if t == nil {
		k.countDropReason(m, drop.ReasonSkNoSocket)
		return
	}
	eb := t.egress.Load()
	if t.closed.Load() || eb == nil {
		k.countDropReason(m, drop.ReasonSockmapStale)
		return
	}
	k.countDelivered(m)
	k.ctr(m).sockmapSplices.Add(1)
	// The spliced bytes leave through a freshly built frame; the ingress
	// chain follows them out via the TerminalTx current-chain fallback.
	k.flightSpan(m, flight.StageSplice, flight.VerdictNone)
	k.egressSend(eb, msg.Payload, m)
}

// egressSend emits payload out an egress binding. This is the single send
// call both the splice fast path and the userspace relay handler end in —
// the byte-identity argument for the two paths.
func (k *Kernel) egressSend(eb *egressBind, payload []byte, m *sim.Meter) bool {
	if eb.proto == packet.ProtoUDP {
		return k.SendUDP(0, eb.dst, eb.srcPort, eb.dstPort, payload, m)
	}
	return k.SendTCPSegment(0, eb.dst, eb.srcPort, eb.dstPort, packet.TCPPsh|packet.TCPAck, payload, m)
}

// --- proxy registration ------------------------------------------------------

// ProxyEndpoint describes one leg of a proxied connection: the local port the
// proxy binds on that side and the remote peer the leg talks to.
type ProxyEndpoint struct {
	Proto     uint8
	LocalPort uint16
	Peer      packet.Addr
	PeerPort  uint16
}

// RegisterProxy wires a proxy-style flow pair: the downstream socket accepts
// client traffic and forwards it toward the upstream peer; the upstream
// socket accepts server responses and forwards them back to the client. With
// net.core.sockmap off, every segment takes the full stack plus a modeled
// userspace relay (poll + sendmsg + two copies); with it on, established
// segments splice socket-to-socket in the kernel. Both paths end in the same
// egress send, so the wire bytes are identical.
//
// Returns (upstream, downstream) — the sockets, e.g. for sockmap membership.
func (k *Kernel) RegisterProxy(up, down ProxyEndpoint) (*Socket, *Socket) {
	upEg := &egressBind{proto: up.Proto, dst: up.Peer, srcPort: up.LocalPort, dstPort: up.PeerPort}
	downEg := &egressBind{proto: down.Proto, dst: down.Peer, srcPort: down.LocalPort, dstPort: down.PeerPort}
	downSock := k.RegisterSocket(down.Proto, down.LocalPort, relayHandler(upEg))
	upSock := k.RegisterSocket(up.Proto, up.LocalPort, relayHandler(downEg))
	upSock.egress.Store(upEg)
	downSock.egress.Store(downEg)
	upSock.spliceTo.Store(downSock)
	downSock.spliceTo.Store(upSock)
	return upSock, downSock
}

// relayHandler is the userspace half of the proxy: wake from poll, read the
// segment, write it out the opposite leg — two syscalls and two crossings of
// the user/kernel copy boundary, then the same egress send the splice path
// uses.
func relayHandler(out *egressBind) SocketHandler {
	return func(k *Kernel, msg SocketMsg) {
		msg.Meter.Charge(sim.CostSyscallPoll + sim.CostSyscallSendto)
		msg.Meter.ChargeBytes(2 * len(msg.Payload))
		k.egressSend(out, msg.Payload, msg.Meter)
	}
}
