package kernel

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"linuxfp/internal/fib"
	"linuxfp/internal/flight"
	"linuxfp/internal/netdev"
	"linuxfp/internal/netfilter"
	"linuxfp/internal/packet"
	"linuxfp/internal/sim"
)

// groRig is a forwarding router (newFwdRouter) with a sink kernel hanging off
// eth1 so egress bytes can be captured. The sink has no addresses or routes:
// it only taps.
type groRig struct {
	r        *Kernel
	r0, r1   *netdev.Device
	srcMAC   packet.HWAddr
	sink     *Kernel
	captured [][]byte
}

func newGroRig(t testing.TB) *groRig {
	g := &groRig{}
	g.r, g.r0, g.r1, g.srcMAC, _ = newFwdRouter(t)
	g.sink = New("sink")
	sd := g.sink.CreateDevice("eth0", netdev.Physical)
	sd.SetUp(true)
	netdev.Connect(g.r1, sd)
	sd.Tap = func(f []byte) { g.captured = append(g.captured, append([]byte(nil), f...)) }
	return g
}

// tcpSeg builds one TCP segment addressed at the router for forwarding.
func (g *groRig) tcpSeg(dst packet.Addr, sport, dport uint16, seq uint32, id uint16, flags packet.TCPFlags, payload []byte) []byte {
	src := packet.MustAddr("10.1.0.1")
	tcp := packet.TCP{SrcPort: sport, DstPort: dport, Seq: seq, Ack: 7777, Flags: flags, Window: 512}
	return packet.BuildIPv4(
		packet.Ethernet{Dst: g.r0.MAC, Src: g.srcMAC, EtherType: packet.EtherTypeIPv4},
		packet.IPv4{TTL: 64, ID: id, Flags: packet.IPv4DontFragment, Proto: packet.ProtoTCP, Src: src, Dst: dst},
		tcp.Marshal(nil, src, dst, payload),
	)
}

// poll delivers one NAPI burst into the router.
func (g *groRig) poll(frames ...[]byte) {
	var m sim.Meter
	g.r0.ReceiveBatch(frames, 0, &m)
}

// seg shorthand: an in-order data segment of the canonical test flow.
func (g *groRig) seg(seq uint32, id uint16, flags packet.TCPFlags, payload []byte) []byte {
	return g.tcpSeg(packet.AddrFrom4(10, 2, 0, 1), 4000, 80, seq, id, flags, payload)
}

// flowKeyOf buckets a captured frame by its 5-tuple so worlds with different
// cross-flow emission order (GRO holds flush at poll end) compare per flow.
func flowKeyOf(f []byte) string {
	et, l3 := packet.EtherTypeOf(f)
	if et != packet.EtherTypeIPv4 {
		return fmt.Sprintf("l2:%x", f)
	}
	proto := packet.IPv4Proto(f, l3)
	sport, dport := packet.L4Ports(f, l3+packet.IPv4MinLen)
	return fmt.Sprintf("%d|%v|%v|%d|%d", proto, packet.IPv4Src(f, l3), packet.IPv4Dst(f, l3), sport, dport)
}

// normMAC zeroes both MAC fields: device MACs are globally allocated, so two
// otherwise-identical rigs stamp different addresses.
func normMAC(f []byte) []byte {
	g := append([]byte(nil), f...)
	for i := 0; i < 12 && i < len(g); i++ {
		g[i] = 0
	}
	return g
}

// byFlow groups captured frames per flow in arrival order, MAC-normalized.
func byFlow(frames [][]byte) map[string][][]byte {
	out := make(map[string][][]byte)
	for _, f := range frames {
		k := flowKeyOf(f)
		out[k] = append(out[k], normMAC(f))
	}
	return out
}

// groFlow is per-flow generator state for the randomized workload.
type groFlow struct {
	dst   packet.Addr
	sport uint16
	dport uint16
	seq   uint32
	id    uint16
}

// groWorkload materializes a deterministic mixed workload for one rig: four
// TCP flows with in-order data trains, sprinkled with PSH, pure ACKs, FINs,
// out-of-order segments, corrupt checksums, short tails, and UDP — every
// frame class the GRO rules must route correctly.
func groWorkload(g *groRig, n int, seed int64, dports []uint16) [][]byte {
	rng := rand.New(rand.NewSource(seed))
	if dports == nil {
		dports = []uint16{80, 80, 80, 80}
	}
	flows := make([]*groFlow, len(dports))
	for i := range flows {
		flows[i] = &groFlow{
			dst:   packet.AddrFrom4(10, 2, 0, byte(i%16+1)),
			sport: uint16(4000 + i),
			dport: dports[i],
			seq:   uint32(1000 * (i + 1)),
			id:    uint16(rng.Intn(60000)),
		}
	}
	src := packet.MustAddr("10.1.0.1")
	pl := func(size int) []byte {
		b := make([]byte, size)
		rng.Read(b)
		return b
	}
	frames := make([][]byte, 0, n)
	for len(frames) < n {
		f := flows[rng.Intn(len(flows))]
		switch rng.Intn(12) {
		case 0: // UDP on the same hosts: never merges
			u := packet.UDP{SrcPort: f.sport, DstPort: f.dport}
			frames = append(frames, packet.BuildIPv4(
				packet.Ethernet{Dst: g.r0.MAC, Src: g.srcMAC, EtherType: packet.EtherTypeIPv4},
				packet.IPv4{TTL: 64, ID: f.id, Proto: packet.ProtoUDP, Src: src, Dst: f.dst},
				u.Marshal(nil, src, f.dst, pl(18))))
			f.id++
		case 1: // pure ACK: flushes the flow's hold, passes through
			frames = append(frames, g.tcpSeg(f.dst, f.sport, f.dport, f.seq, f.id, packet.TCPAck, nil))
			f.id++
		case 2: // corrupt TCP checksum: must travel untouched
			fr := g.tcpSeg(f.dst, f.sport, f.dport, f.seq, f.id, packet.TCPAck, pl(64))
			fr[len(fr)-1] ^= 0xff
			frames = append(frames, fr)
			f.seq += 64
			f.id++
		case 3: // out-of-order: an old sequence number reappears
			frames = append(frames, g.tcpSeg(f.dst, f.sport, f.dport, f.seq-640, f.id+500, packet.TCPAck, pl(64)))
		case 4: // FIN: never merged, flushes held data first
			frames = append(frames, g.tcpSeg(f.dst, f.sport, f.dport, f.seq, f.id, packet.TCPAck|packet.TCPFin, nil))
			f.id++
		case 5: // short tail: merges then ends the supersegment
			p := pl(24)
			frames = append(frames, g.tcpSeg(f.dst, f.sport, f.dport, f.seq, f.id, packet.TCPAck, p))
			f.seq += uint32(len(p))
			f.id++
		default: // in-order 64-byte data segment, occasionally PSH
			fl := packet.TCPAck
			if rng.Intn(6) == 0 {
				fl |= packet.TCPPsh
			}
			frames = append(frames, g.tcpSeg(f.dst, f.sport, f.dport, f.seq, f.id, fl, pl(64)))
			f.seq += 64
			f.id++
		}
	}
	return frames
}

// checkForwardWorlds compares what a GRO-on and a GRO-off rig put on the
// egress wire for the same input: the same frames per flow byte for byte,
// every TCP checksum verifying over the bytes actually sent (a carried
// payload sum that went stale between GRO and GSO would fail here even if
// both worlds agreed — checked by the callers that send only valid frames),
// and counters that reconcile exactly — every coalesced frame moves from the
// Forwarded column to GROCoalesced, nothing else changes.
func checkForwardWorlds(t *testing.T, on, off *groRig) {
	t.Helper()
	checkWire(t, on, off)
	sOn, sOff := on.r.Stats(), off.r.Stats()
	if sOn.Forwarded+sOn.GROCoalesced != sOff.Forwarded {
		t.Errorf("forwarded+coalesced = %d+%d, want %d",
			sOn.Forwarded, sOn.GROCoalesced, sOff.Forwarded)
	}
	if sOn.Dropped != sOff.Dropped || sOn.Delivered != sOff.Delivered {
		t.Errorf("dropped/delivered diverged: %d/%d vs %d/%d",
			sOn.Dropped, sOn.Delivered, sOff.Dropped, sOff.Delivered)
	}
}

// checkWire is the on-the-wire half of checkForwardWorlds.
func checkWire(t *testing.T, on, off *groRig) {
	t.Helper()
	if len(on.captured) == 0 {
		t.Fatal("nothing forwarded; test is vacuous")
	}
	if len(on.captured) != len(off.captured) {
		t.Fatalf("captured %d frames with GRO, %d without", len(on.captured), len(off.captured))
	}
	fOn, fOff := byFlow(on.captured), byFlow(off.captured)
	for key, seq := range fOff {
		oseq := fOn[key]
		if len(oseq) != len(seq) {
			t.Fatalf("flow %s: %d frames with GRO, %d without", key, len(oseq), len(seq))
		}
		for i := range seq {
			if !bytes.Equal(oseq[i], seq[i]) {
				t.Fatalf("flow %s frame %d differs:\n gro %x\n off %x", key, i, oseq[i], seq[i])
			}
		}
	}
	if txOn, txOff := on.r1.Stats().TxPackets, off.r1.Stats().TxPackets; txOn != txOff {
		t.Errorf("egress TxPackets %d with GRO, %d without", txOn, txOff)
	}
}

// tcpChecksumOK verifies a captured IPv4/TCP frame's checksum from scratch.
func tcpChecksumOK(f []byte) bool {
	_, l3 := packet.EtherTypeOf(f)
	l4 := l3 + packet.IPv4MinLen
	return packet.ChecksumWithPseudo(packet.IPv4Src(f, l3), packet.IPv4Dst(f, l3), packet.ProtoTCP, f[l4:]) == 0
}

// train builds one flow's in-order data segments with the given payload
// sizes, random bytes from rng, PSH on the last one when psh.
func (g *groRig) train(rng *rand.Rand, dst packet.Addr, sport uint16, psh bool, sizes ...int) [][]byte {
	frames := make([][]byte, len(sizes))
	seq, id := uint32(0xffff_f000), uint16(0xfff8) // both wrap inside a long train
	for i, n := range sizes {
		p := make([]byte, n)
		rng.Read(p)
		fl := packet.TCPAck
		if psh && i == len(sizes)-1 {
			fl |= packet.TCPPsh
		}
		frames[i] = g.tcpSeg(dst, sport, 80, seq, id, fl, p)
		seq += uint32(n)
		id++
	}
	return frames
}

// repeatSize is n copies of size followed by the tail sizes.
func repeatSize(n, size int, tail ...int) []int {
	out := make([]int, 0, n+len(tail))
	for i := 0; i < n; i++ {
		out = append(out, size)
	}
	return append(out, tail...)
}

// masqueradeEgress puts the nearest thing this model has to an SNAT rule
// between GRO and GSO: a POSTROUTING rule that matches the flow (netfilter
// here has no rewriting target; the chain is walked once per supersegment)
// and a TC egress program on eth1 that rewrites the source address with
// RFC 1624 incremental updates of both checksums, as a masquerading program
// would — per frame in the GRO-off world, once per supersegment with GRO on.
func masqueradeEgress(t *testing.T, g *groRig) {
	t.Helper()
	src := packet.MustPrefix("10.1.0.0/24")
	if err := g.r.IptAppend("POSTROUTING", netfilter.Rule{Match: netfilter.Match{Src: &src}, Target: netfilter.VerdictAccept}); err != nil {
		t.Fatal(err)
	}
	to := packet.AddrFrom4(10, 2, 0, 254)
	g.r.AttachTC(g.r1.Index, false, tcFunc(func(s *SKB) TCAction {
		f := s.Data
		et, l3 := packet.EtherTypeOf(f)
		if et != packet.EtherTypeIPv4 || packet.IPv4Proto(f, l3) != packet.ProtoTCP {
			return TCOk
		}
		l4 := l3 + packet.IPv4MinLen
		for i, w := range []uint16{uint16(to >> 16), uint16(to)} {
			at := l3 + 12 + 2*i
			old := uint16(f[at])<<8 | uint16(f[at+1])
			f[at], f[at+1] = byte(w>>8), byte(w)
			for _, c := range []int{l3 + 10, l4 + 16} {
				u := packet.ChecksumUpdate16(uint16(f[c])<<8|uint16(f[c+1]), old, w)
				f[c], f[c+1] = byte(u>>8), byte(u)
			}
		}
		return TCOk
	}))
}

// TestGROForwardEquivalence is the tentpole's central property: with GRO on,
// the router's egress must be byte-identical per flow to the GRO-off world —
// coalescing and resegmentation must be invisible on the wire. The batch*
// cases run the mixed 64-byte workload at several poll sizes; the others aim
// at the carried payload sums: MSS-sized and odd-sized segments (every other
// piece lands at an odd offset and enters byte-swapped), odd tails, the
// 17-segment rollover, interleaved flows, holds that ride across polls, and
// every header rewrite that happens between GRO and GSO.
func TestGROForwardEquivalence(t *testing.T) {
	const frames = 900 // spans many polls at several batch sizes

	for _, batch := range []int{1, 7, 32, 64} {
		t.Run(fmt.Sprintf("batch%d", batch), func(t *testing.T) {
			on := newGroRig(t)
			off := newGroRig(t)
			off.r0.SetGRO(false)

			wOn := groWorkload(on, frames, 42, nil)
			wOff := groWorkload(off, frames, 42, nil)
			for i := 0; i < frames; i += batch {
				end := i + batch
				if end > frames {
					end = frames
				}
				on.poll(wOn[i:end]...)
				off.poll(wOff[i:end]...)
			}
			checkForwardWorlds(t, on, off)
			if sOn := on.r.Stats(); batch > 1 && (sOn.GROCoalesced == 0 || sOn.GROSupersegs == 0) {
				t.Fatal("GRO never coalesced; equivalence is vacuous")
			}
		})
	}

	dst := packet.AddrFrom4(10, 2, 0, 1)
	cases := []struct {
		name      string
		drive     func(t *testing.T, g *groRig, rng *rand.Rand)
		coalesced uint64 // with GRO on
		supersegs uint64
		wireOnly  bool // the path bypasses ip_forward and its counters
	}{
		{"mss1448 rollover at 17", func(t *testing.T, g *groRig, rng *rand.Rand) {
			g.poll(g.train(rng, dst, 4000, false, repeatSize(20, 1448)...)...)
		}, 18, 2, false},
		{"odd mss 1447 with odd tail", func(t *testing.T, g *groRig, rng *rand.Rand) {
			g.poll(g.train(rng, dst, 4000, false, repeatSize(15, 1447, 333)...)...)
		}, 15, 1, false},
		{"odd mss 1447 with even tail and psh", func(t *testing.T, g *groRig, rng *rand.Rand) {
			g.poll(g.train(rng, dst, 4000, true, repeatSize(4, 1447, 1000)...)...)
		}, 4, 1, false},
		{"three one-byte segments", func(t *testing.T, g *groRig, rng *rand.Rand) {
			g.poll(g.train(rng, dst, 4000, false, 1, 1, 1)...)
		}, 2, 1, false},
		{"odd mss rollover at 17", func(t *testing.T, g *groRig, rng *rand.Rand) {
			g.poll(g.train(rng, dst, 4000, true, repeatSize(36, 1447)...)...)
		}, 33, 3, false},
		{"two interleaved flows", func(t *testing.T, g *groRig, rng *rand.Rand) {
			a := g.train(rng, dst, 4000, false, repeatSize(9, 1447, 12)...)
			b := g.train(rng, packet.AddrFrom4(10, 2, 0, 2), 4001, true, repeatSize(10, 1448)...)
			var burst [][]byte
			for i := range a {
				burst = append(burst, a[i], b[i])
			}
			g.poll(burst...)
		}, 18, 2, false},
		{"hold rides across polls", func(t *testing.T, g *groRig, rng *rand.Rand) {
			var now sim.Time
			g.r.SetClock(func() sim.Time { return now })
			g.r.SetSysctl("net.core.gro_flush_timeout", "1000000")
			tr := g.train(rng, dst, 4000, false, repeatSize(7, 1447)...)
			g.poll(tr[0:3]...)
			now = 400_000
			g.poll(tr[3:5]...)
			now = 800_000
			g.poll(tr[5:7]...)
			now = 2_000_000
			g.poll() // the next poll past the deadline flushes the hold
			var m sim.Meter
			g.r.GROFlushAll(nil, &m)
		}, 6, 1, false},
		{"ttl 2 and a masquerading egress", func(t *testing.T, g *groRig, rng *rand.Rand) {
			masqueradeEgress(t, g)
			tr := g.train(rng, dst, 4000, true, repeatSize(6, 1447, 5)...)
			for _, f := range tr { // TTL 2: forwarded with the last hop left
				f[packet.EthHdrLen+8] = 2
				packet.RecomputeIPv4Checksum(f, packet.EthHdrLen)
			}
			g.poll(tr...)
		}, 6, 1, false},
		{"unresolved neighbour queues segments", func(t *testing.T, g *groRig, rng *rand.Rand) {
			nh := packet.AddrFrom4(10, 2, 0, 77) // no neighbour entry: three segments fit the queue
			g.poll(g.train(rng, nh, 4000, false, 1447, 1447, 9)...)
			mac := packet.MustHWAddr("02:00:00:00:02:4d")
			var m sim.Meter
			g.r1.Receive(packet.BuildARP(mac, g.r1.MAC, packet.ARP{
				Op: packet.ARPReply, SenderHW: mac, SenderIP: nh, TargetHW: g.r1.MAC, TargetIP: packet.MustAddr("10.2.0.254"),
			}), &m)
			g.captured = g.captured[1:] // the who-has carries the rig's own MAC
		}, 2, 1, false},
		{"tc ingress redirect", func(t *testing.T, g *groRig, rng *rand.Rand) {
			g.r.AttachTC(g.r0.Index, true, tcFunc(func(s *SKB) TCAction {
				s.RedirectTo = g.r1.Index
				return TCRedirect
			}))
			g.poll(g.train(rng, dst, 4000, true, repeatSize(5, 1447, 2)...)...)
		}, 5, 1, true},
		{"tc ingress vlan push and redirect", func(t *testing.T, g *groRig, rng *rand.Rand) {
			// The tagged supersegment no longer fits the frames it was merged
			// from: GSO splits it into fresh frames instead.
			g.r.AttachTC(g.r0.Index, true, tcFunc(func(s *SKB) TCAction {
				s.Data = append(append(append([]byte(nil), s.Data[:12]...), 0x81, 0x00, 0x00, 0x07), s.Data[12:]...)
				s.RedirectTo = g.r1.Index
				return TCRedirect
			}))
			g.poll(g.train(rng, dst, 4000, true, repeatSize(5, 1447, 2)...)...)
		}, 5, 1, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			on := newGroRig(t)
			off := newGroRig(t)
			off.r0.SetGRO(false)
			tc.drive(t, on, rand.New(rand.NewSource(7)))
			tc.drive(t, off, rand.New(rand.NewSource(7)))
			if tc.wireOnly {
				checkWire(t, on, off)
			} else {
				checkForwardWorlds(t, on, off)
			}
			for i, f := range on.captured {
				if _, l3 := packet.EtherTypeOf(f); packet.IPv4Proto(f, l3) == packet.ProtoTCP && !tcpChecksumOK(f) {
					t.Errorf("egress frame %d: TCP checksum does not verify", i)
				}
			}
			if st := on.r.Stats(); st.GROCoalesced != tc.coalesced || st.GROSupersegs != tc.supersegs {
				t.Errorf("coalesced/supersegs = %d/%d, want %d/%d", st.GROCoalesced, st.GROSupersegs, tc.coalesced, tc.supersegs)
			}
		})
	}
}

// TestGROCorruptSegmentNeverMerges: one flipped payload bit in segment k of
// a train. GRO verifies both checksums of every candidate, so that segment
// is never merged and never counted as coalesced; it flushes the hold in
// front of it and leaves exactly as it leaves without GRO — payload and TCP
// checksum field untouched, still failing verification at the receiver.
func TestGROCorruptSegmentNeverMerges(t *testing.T) {
	const n = 6
	dst := packet.AddrFrom4(10, 2, 0, 1)
	for k := 0; k < n; k++ {
		on := newGroRig(t)
		off := newGroRig(t)
		off.r0.SetGRO(false)
		var bad []byte
		for _, g := range []*groRig{on, off} {
			tr := g.train(rand.New(rand.NewSource(3)), dst, 4000, false, repeatSize(n, 1447)...)
			tr[k][len(tr[k])-700] ^= 0x10
			bad = tr[k]
			g.poll(tr...)
		}
		checkForwardWorlds(t, on, off)
		// k clean segments before the corrupt one, n-1-k after it: each run
		// coalesces all but its first.
		want := uint64(max(k-1, 0) + max(n-2-k, 0))
		if got := on.r.Stats().GROCoalesced; got != want {
			t.Errorf("k=%d: coalesced %d, want %d", k, got, want)
		}
		l4 := packet.EthHdrLen + packet.IPv4MinLen
		got := on.captured[k]
		if !bytes.Equal(got[l4:], bad[l4:]) {
			t.Errorf("k=%d: the corrupt segment's TCP header or payload was modified", k)
		}
		for i, f := range on.captured {
			if ok := tcpChecksumOK(f); ok != (i != k) {
				t.Errorf("k=%d: egress frame %d verifies = %v", k, i, ok)
			}
		}
	}
}

// mallocsPerRun is testing.AllocsPerRun without the rounding down: under the
// race detector sync.Pool drops a quarter of its Puts, so the per-poll
// scratch pools refill at a fractional rate that a floored count turns into
// a flake.
func mallocsPerRun(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.Mallocs
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&ms)
	return float64(ms.Mallocs-before) / float64(runs)
}

// TestGROSupersegmentAllocs pins what one 16-segment supersegment allocates
// on its way through the router: nothing. The hold keeps the RX frames, the
// linear copy lands in a recycled buffer, and GSO writes headers into the RX
// frames, whether they leave by ip_forward, by a TC ingress redirect, or wait
// on the queue of an unresolved neighbour. Each variant is measured against
// the same train with PSH on every frame, which merges nothing but touches
// the same scratch pools, so what those pools refill cancels out.
func TestGROSupersegmentAllocs(t *testing.T) {
	for _, tc := range []struct {
		name string
		dst  packet.Addr
		tc   bool
	}{
		{"forward", packet.AddrFrom4(10, 2, 0, 1), false},
		{"tc redirect", packet.AddrFrom4(10, 2, 0, 1), true},
		{"unresolved neighbour", packet.AddrFrom4(10, 2, 0, 77), false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := &groRig{}
			g.r, g.r0, g.r1, g.srcMAC, _ = newFwdRouter(t) // eth1 unplugged: no capture copies
			if tc.tc {
				g.r.AttachTC(g.r0.Index, true, tcFunc(func(s *SKB) TCAction {
					s.RedirectTo = g.r1.Index
					return TCRedirect
				}))
			}
			merge := g.train(rand.New(rand.NewSource(5)), tc.dst, 4000, false, repeatSize(16, 1448)...)
			single := make([][]byte, len(merge))
			for i, f := range merge {
				single[i] = append([]byte(nil), f...)
				single[i][packet.EthHdrLen+packet.IPv4MinLen+13] |= byte(packet.TCPPsh)
				packet.RecomputeTCPChecksum(single[i], packet.EthHdrLen, packet.EthHdrLen+packet.IPv4MinLen)
			}
			// The router owns what it is given: every poll refills fixed
			// buffers from the templates, as a driver refills its RX ring. The
			// unresolved neighbour's queue keeps its first frames; refilling
			// them under it is harmless here, as the queue is never flushed.
			bufs, batch := make([][]byte, len(merge)), make([][]byte, len(merge))
			for i := range bufs {
				bufs[i] = make([]byte, len(merge[i]))
			}
			var m sim.Meter // one meter for every poll: g.poll's would count as an allocation
			poll := func(tmpl [][]byte) {
				for i, f := range tmpl {
					batch[i] = bufs[i][:copy(bufs[i], f)]
				}
				g.r0.ReceiveBatch(batch, 0, &m)
			}
			for i := 0; i < 3; i++ { // warm the pools and the free list
				poll(merge)
				poll(single)
			}
			const runs = 400
			base := mallocsPerRun(runs, func() { poll(single) })
			before := g.r.Stats()
			got := mallocsPerRun(runs, func() { poll(merge) })
			if st := g.r.Stats(); st.GROSupersegs-before.GROSupersegs != runs || st.GROCoalesced-before.GROCoalesced != runs*15 {
				t.Fatalf("supersegs/coalesced = %d/%d over %d polls, want %d/%d",
					st.GROSupersegs-before.GROSupersegs, st.GROCoalesced-before.GROCoalesced, runs, runs, runs*15)
			}
			t.Logf("allocations per poll: %.3f merging, %.3f not", got, base)
			if got-base >= 0.5 {
				t.Errorf("%.2f allocations per 16-segment supersegment (%.2f per poll, %.2f without merging), want 0",
					got-base, got, base)
			}
		})
	}
}

// txTap consumes every frame a device transmits, keeping each TCP one as
// the slice itself (what it aliases) and as a copy of its bytes.
type txTap struct{ frames, copies [][]byte }

func tapTx(dev *netdev.Device) *txTap {
	tp := &txTap{}
	dev.SetTxHook(func(f []byte, _ *sim.Meter) bool {
		if et, l3 := packet.EtherTypeOf(f); et == packet.EtherTypeIPv4 && packet.IPv4Proto(f, l3) == packet.ProtoTCP {
			tp.frames = append(tp.frames, f)
			tp.copies = append(tp.copies, append([]byte(nil), f...))
		}
		return true
	})
	return tp
}

// resolveNH answers the rig's who-has for nh on eth1, flushing its queue.
func (g *groRig) resolveNH(nh packet.Addr) {
	mac := packet.MustHWAddr("02:00:00:00:02:4d")
	var m sim.Meter
	g.r1.Receive(packet.BuildARP(mac, g.r1.MAC, packet.ARP{
		Op: packet.ARPReply, SenderHW: mac, SenderIP: nh, TargetHW: g.r1.MAC, TargetIP: packet.MustAddr("10.2.0.254"),
	}), &m)
}

// TestGSOReemitsOriginalFrames: a supersegment leaves as the very frames it
// was merged from — every egress slice is the RX frame at the same position
// (&seg[0] == &rx[i][0]) — carrying exactly the bytes the GRO-off router
// sends, on the three ways out: ip_forward, a TC ingress redirect, and the
// queue of an unresolved neighbour flushed by the ARP reply.
func TestGSOReemitsOriginalFrames(t *testing.T) {
	dst, nh := packet.AddrFrom4(10, 2, 0, 1), packet.AddrFrom4(10, 2, 0, 77)
	for _, tc := range []struct {
		name  string
		dst   packet.Addr
		sizes []int
		tc    bool
	}{
		{"forward", dst, repeatSize(16, 1447, 333), false},
		{"tc redirect", dst, repeatSize(5, 1448, 2), true},
		{"unresolved neighbour flush", nh, []int{1447, 1447, 9}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var rx [][]byte
			var taps [2]*txTap
			for w, gro := range []bool{true, false} {
				g := newGroRig(t)
				g.r0.SetGRO(gro)
				if tc.tc {
					g.r.AttachTC(g.r0.Index, true, tcFunc(func(s *SKB) TCAction {
						s.RedirectTo = g.r1.Index
						return TCRedirect
					}))
				}
				taps[w] = tapTx(g.r1)
				frames := g.train(rand.New(rand.NewSource(17)), tc.dst, 4000, true, tc.sizes...)
				if gro {
					rx = append(rx, frames...)
				}
				g.poll(frames...)
				if tc.dst == nh {
					if len(taps[w].frames) != 0 {
						t.Fatal("frames left before the neighbour resolved")
					}
					g.resolveNH(nh)
				}
				if st := g.r.Stats(); gro && st.GROCoalesced != uint64(len(rx)-1) {
					t.Fatalf("coalesced %d of %d frames", st.GROCoalesced, len(rx))
				}
			}
			on, off := taps[0], taps[1]
			if len(on.frames) != len(rx) || len(off.frames) != len(rx) {
				t.Fatalf("%d frames out with GRO, %d without, %d in", len(on.frames), len(off.frames), len(rx))
			}
			for i := range rx {
				if &on.frames[i][0] != &rx[i][0] {
					t.Errorf("egress frame %d is not RX frame %d", i, i)
				}
				if !bytes.Equal(normMAC(on.copies[i]), normMAC(off.copies[i])) {
					t.Errorf("frame %d differs:\n gro %x\n off %x", i, on.copies[i], off.copies[i])
				}
				if !tcpChecksumOK(on.copies[i]) {
					t.Errorf("frame %d: TCP checksum does not verify", i)
				}
			}
		})
	}
}

// TestGROSocketKeepsPayload: a socket handler may keep msg.Payload. A
// supersegment delivered locally is never recycled, so fifty later polls —
// forwarded trains whose supersegments do recycle through the same free
// list, and more local ones — leave every kept payload as it arrived.
func TestGROSocketKeepsPayload(t *testing.T) {
	g := newGroRig(t)
	var kept, want [][]byte
	g.r.RegisterSocket(packet.ProtoTCP, 80, func(_ *Kernel, msg SocketMsg) {
		kept = append(kept, msg.Payload)
		want = append(want, append([]byte(nil), msg.Payload...))
	})
	rng := rand.New(rand.NewSource(23))
	local, fwd := packet.MustAddr("10.1.0.254"), packet.AddrFrom4(10, 2, 0, 1)
	g.poll(g.train(rng, local, 4000, true, repeatSize(8, 1448)...)...)
	for i := 0; i < 50; i++ {
		g.poll(g.train(rng, fwd, 4001, false, repeatSize(16, 1448)...)...)
		if i%10 == 5 { // builds on the buffer the forwarded train just recycled
			g.poll(g.train(rng, local, 4000, true, repeatSize(8, 1448)...)...)
		}
	}
	if len(kept) != 6 {
		t.Fatalf("%d socket messages, want 6", len(kept))
	}
	if free := g.r.groCtxFor(&sim.Meter{}).free; len(free) == 0 {
		t.Fatal("no supersegment was recycled; the test is vacuous")
	}
	for i := range kept {
		if !bytes.Equal(kept[i], want[i]) {
			t.Errorf("message %d changed after delivery", i)
		}
	}
}

// TestGROFlightRecyclingNeverAliases traces every packet of forwarded trains
// while their supersegments recycle, with one train parked on an unresolved
// neighbour in between. The parked chain stays keyed by its supersegment's
// buffer until the ARP reply, so that buffer must not serve a later train:
// every stamp terminates, none is lost to a reused key, nothing stays live.
func TestGROFlightRecyclingNeverAliases(t *testing.T) {
	g := newGroRig(t)
	fr := g.r.EnableFlight(flight.Config{SampleShift: 0, Retain: true})
	defer g.r.DisableFlight()
	rng := rand.New(rand.NewSource(29))
	dst, nh := packet.AddrFrom4(10, 2, 0, 1), packet.AddrFrom4(10, 2, 0, 77)
	sent := 0
	train := func(to packet.Addr, sizes ...int) {
		tr := g.train(rng, to, 4000, false, sizes...)
		sent += len(tr)
		g.poll(tr...)
	}
	for i := 0; i < 8; i++ {
		train(dst, repeatSize(16, 1448)...)
	}
	train(nh, 1447, 1447, 9)
	if live := fr.Live(); live != 1 {
		t.Fatalf("%d chains live with one train parked, want 1", live)
	}
	for i := 0; i < 8; i++ {
		train(dst, repeatSize(16, 1448)...)
	}
	g.resolveNH(nh)

	tl := assertConserved(t, fr)
	if tl.Lost != 0 {
		t.Fatalf("lost=%d: a recycled buffer was still a live chain's key", tl.Lost)
	}
	if tl.Tx != uint64(sent) || g.r.Stats().GROSupersegs != 17 {
		t.Fatalf("trace tx=%d of %d sent, %d supersegments", tl.Tx, sent, g.r.Stats().GROSupersegs)
	}
	if free := g.r.groCtxFor(&sim.Meter{}).free; len(free) == 0 {
		t.Fatal("no supersegment was recycled; the test is vacuous")
	}
}

// TestGROLocalDeliveryEquivalence: a coalesced flow addressed at the router
// itself arrives as one socket message per supersegment carrying the merged
// payload; the byte stream the application reads is identical either way,
// and the delivered counter reconciles through GROCoalesced. Local delivery
// is where a wrong supersegment checksum shows: UnmarshalTCP verifies it, so
// a carried sum misplaced at an odd offset would drop the whole message.
func TestGROLocalDeliveryEquivalence(t *testing.T) {
	run := func(gro bool, sizes []int) (stream []byte, msgs int, st Stats) {
		g := newGroRig(t)
		g.r0.SetGRO(gro)
		g.r.RegisterSocket(packet.ProtoTCP, 80, func(_ *Kernel, msg SocketMsg) {
			stream = append(stream, msg.Payload...)
			msgs++
		})
		g.poll(g.train(rand.New(rand.NewSource(11)), packet.MustAddr("10.1.0.254"), 4000, true, sizes...)...)
		return stream, msgs, g.r.Stats()
	}
	for _, tc := range []struct {
		name   string
		sizes  []int
		onMsgs int
	}{
		{"5x32", repeatSize(5, 32), 1},
		{"20x1448", repeatSize(20, 1448), 2},
		{"odd 1447 odd tail", repeatSize(16, 1447, 333), 1},
		{"odd 1447 even tail", repeatSize(3, 1447, 1446), 1},
		{"1 1 1", []int{1, 1, 1}, 1},
		{"odd rollover", repeatSize(35, 999), 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			onStream, onMsgs, onSt := run(true, tc.sizes)
			offStream, offMsgs, offSt := run(false, tc.sizes)
			if len(offStream) == 0 {
				t.Fatal("nothing delivered; test is vacuous")
			}
			if !bytes.Equal(onStream, offStream) {
				t.Fatalf("payload stream differs: %d bytes with GRO, %d without", len(onStream), len(offStream))
			}
			if onMsgs != tc.onMsgs || offMsgs != len(tc.sizes) {
				t.Errorf("messages = %d gro / %d off, want %d / %d", onMsgs, offMsgs, tc.onMsgs, len(tc.sizes))
			}
			if onSt.Delivered+onSt.GROCoalesced != offSt.Delivered {
				t.Errorf("delivered+coalesced = %d+%d, want %d", onSt.Delivered, onSt.GROCoalesced, offSt.Delivered)
			}
			if onSt.Dropped != 0 || offSt.Dropped != 0 {
				t.Errorf("dropped %d with GRO, %d without", onSt.Dropped, offSt.Dropped)
			}
		})
	}
}

// TestGROMergeRules pins each flush rule individually.
func TestGROMergeRules(t *testing.T) {
	pl := func(size int, b byte) []byte { return bytes.Repeat([]byte{b}, size) }

	t.Run("psh ends supersegment", func(t *testing.T) {
		g := newGroRig(t)
		g.poll(
			g.seg(100, 1, packet.TCPAck, pl(64, 'a')),
			g.seg(164, 2, packet.TCPAck, pl(64, 'b')),
			g.seg(228, 3, packet.TCPAck|packet.TCPPsh, pl(64, 'c')),
		)
		st := g.r.Stats()
		if st.GROCoalesced != 2 || st.GROSupersegs != 1 || st.GROFlushes != 1 {
			t.Fatalf("coalesced/supersegs/flushes = %d/%d/%d, want 2/1/1",
				st.GROCoalesced, st.GROSupersegs, st.GROFlushes)
		}
		if len(g.captured) != 3 {
			t.Fatalf("captured %d segments, want 3", len(g.captured))
		}
		for i, f := range g.captured {
			l4 := packet.EthHdrLen + packet.IPv4MinLen
			psh := packet.TCPRawFlags(f, l4)&packet.TCPPsh != 0
			if want := i == 2; psh != want {
				t.Errorf("segment %d PSH = %v, want %v", i, psh, want)
			}
		}
	})

	t.Run("seventeen segment cap", func(t *testing.T) {
		g := newGroRig(t)
		var frames [][]byte
		for i := 0; i < 20; i++ {
			frames = append(frames, g.seg(100+uint32(i)*64, uint16(1+i), packet.TCPAck, pl(64, byte('a'+i))))
		}
		g.poll(frames...)
		st := g.r.Stats()
		// 17 segments fill the first hold (16 merges); the remaining 3 form a
		// second supersegment flushed at poll end.
		if st.GROCoalesced != 18 || st.GROSupersegs != 2 {
			t.Fatalf("coalesced/supersegs = %d/%d, want 18/2", st.GROCoalesced, st.GROSupersegs)
		}
		if len(g.captured) != 20 {
			t.Fatalf("captured %d segments, want 20", len(g.captured))
		}
		l3, l4 := packet.EthHdrLen, packet.EthHdrLen+packet.IPv4MinLen
		for i, f := range g.captured {
			if got := packet.TCPSeq(f, l4); got != 100+uint32(i)*64 {
				t.Errorf("segment %d seq = %d, want %d", i, got, 100+uint32(i)*64)
			}
			if got := packet.IPv4ID(f, l3); got != uint16(1+i) {
				t.Errorf("segment %d id = %d, want %d", i, got, 1+i)
			}
			if packet.Checksum(f[l3:l4]) != 0 {
				t.Errorf("segment %d IP checksum does not verify", i)
			}
			if packet.ChecksumWithPseudo(packet.IPv4Src(f, l3), packet.IPv4Dst(f, l3), packet.ProtoTCP, f[l4:]) != 0 {
				t.Errorf("segment %d TCP checksum does not verify", i)
			}
		}
	})

	t.Run("fin flushes held data first", func(t *testing.T) {
		g := newGroRig(t)
		g.poll(
			g.seg(100, 1, packet.TCPAck, pl(64, 'a')),
			g.seg(164, 2, packet.TCPAck, pl(64, 'b')),
			g.tcpSeg(packet.AddrFrom4(10, 2, 0, 1), 4000, 80, 228, 3, packet.TCPAck|packet.TCPFin, nil),
		)
		if len(g.captured) != 3 {
			t.Fatalf("captured %d frames, want 3", len(g.captured))
		}
		l4 := packet.EthHdrLen + packet.IPv4MinLen
		// Held data must precede the FIN on the wire.
		if packet.TCPRawFlags(g.captured[2], l4)&packet.TCPFin == 0 {
			t.Error("FIN did not come out last")
		}
		if g.r.Stats().GROSupersegs != 1 {
			t.Errorf("supersegs = %d, want 1", g.r.Stats().GROSupersegs)
		}
	})

	t.Run("ack change never merges", func(t *testing.T) {
		g := newGroRig(t)
		a := g.seg(100, 1, packet.TCPAck, pl(64, 'a'))
		b := g.seg(164, 2, packet.TCPAck, pl(64, 'b'))
		// Bump the ack number on b and fix its checksum so it stays valid.
		l3, l4 := packet.EthHdrLen, packet.EthHdrLen+packet.IPv4MinLen
		b[l4+11]++
		packet.RecomputeTCPChecksum(b, l3, l4)
		g.poll(a, b)
		st := g.r.Stats()
		if st.GROCoalesced != 0 || st.GROSupersegs != 0 {
			t.Fatalf("coalesced/supersegs = %d/%d, want 0/0", st.GROCoalesced, st.GROSupersegs)
		}
		if len(g.captured) != 2 {
			t.Fatalf("captured %d frames, want 2", len(g.captured))
		}
	})

	t.Run("out of order flushes and restarts", func(t *testing.T) {
		g := newGroRig(t)
		g.poll(
			g.seg(100, 1, packet.TCPAck, pl(64, 'a')),
			g.seg(164, 2, packet.TCPAck, pl(64, 'b')),
			g.seg(100, 10, packet.TCPAck, pl(64, 'c')), // retransmit: wrong seq
			g.seg(164, 11, packet.TCPAck, pl(64, 'd')),
		)
		st := g.r.Stats()
		// First pair coalesced and flushed by the mismatch; second pair
		// coalesced and flushed at poll end.
		if st.GROCoalesced != 2 || st.GROSupersegs != 2 {
			t.Fatalf("coalesced/supersegs = %d/%d, want 2/2", st.GROCoalesced, st.GROSupersegs)
		}
		if len(g.captured) != 4 {
			t.Fatalf("captured %d frames, want 4", len(g.captured))
		}
	})

	t.Run("short tail ends supersegment", func(t *testing.T) {
		g := newGroRig(t)
		g.poll(
			g.seg(100, 1, packet.TCPAck, pl(64, 'a')),
			g.seg(164, 2, packet.TCPAck, pl(24, 'b')),
			g.seg(188, 3, packet.TCPAck, pl(64, 'c')), // new hold after the tail
		)
		st := g.r.Stats()
		if st.GROCoalesced != 1 || st.GROSupersegs != 1 {
			t.Fatalf("coalesced/supersegs = %d/%d, want 1/1", st.GROCoalesced, st.GROSupersegs)
		}
	})

	t.Run("oversized segment never appends", func(t *testing.T) {
		g := newGroRig(t)
		g.poll(
			g.seg(100, 1, packet.TCPAck, pl(24, 'a')),
			g.seg(124, 2, packet.TCPAck, pl(64, 'b')), // larger than gso size
		)
		st := g.r.Stats()
		if st.GROCoalesced != 0 || st.GROSupersegs != 0 {
			t.Fatalf("coalesced/supersegs = %d/%d, want 0/0", st.GROCoalesced, st.GROSupersegs)
		}
	})
}

// TestGROConservationParity mirrors the fpm batch counter-parity test through
// the GRO layer: for every burst size 1..200 the frames put in must equal
// forwarded + delivered + dropped + coalesced, and every one must reappear on
// the egress wire.
func TestGROConservationParity(t *testing.T) {
	g := newGroRig(t)
	rng := rand.New(rand.NewSource(9))
	seq, id := uint32(5000), uint16(1)
	total := uint64(0)

	for n := 1; n <= 200; n++ {
		before := g.r.Stats()
		txBefore := g.r1.Stats().TxPackets
		var frames [][]byte
		for i := 0; i < n; i++ {
			if rng.Intn(10) == 0 {
				u := packet.UDP{SrcPort: 4000, DstPort: 2000}
				src, dst := packet.MustAddr("10.1.0.1"), packet.AddrFrom4(10, 2, 0, 2)
				frames = append(frames, packet.BuildIPv4(
					packet.Ethernet{Dst: g.r0.MAC, Src: g.srcMAC, EtherType: packet.EtherTypeIPv4},
					packet.IPv4{TTL: 64, Proto: packet.ProtoUDP, Src: src, Dst: dst},
					u.Marshal(nil, src, dst, make([]byte, 18))))
				continue
			}
			fl := packet.TCPAck
			if rng.Intn(7) == 0 {
				fl |= packet.TCPPsh
			}
			frames = append(frames, g.seg(seq, id, fl, bytes.Repeat([]byte{'x'}, 64)))
			seq += 64
			id++
		}
		g.poll(frames...)
		total += uint64(n)

		st := g.r.Stats()
		in := uint64(n)
		out := (st.Forwarded - before.Forwarded) + (st.Delivered - before.Delivered) +
			(st.Dropped - before.Dropped) + (st.GROCoalesced - before.GROCoalesced)
		if out != in {
			t.Fatalf("n=%d: %d frames in, %d accounted (fwd %d del %d drop %d coal %d)",
				n, in, out,
				st.Forwarded-before.Forwarded, st.Delivered-before.Delivered,
				st.Dropped-before.Dropped, st.GROCoalesced-before.GROCoalesced)
		}
		if tx := g.r1.Stats().TxPackets - txBefore; tx != in {
			t.Fatalf("n=%d: %d frames in, %d on the egress wire", n, in, tx)
		}
	}
	if g.r.Stats().GROCoalesced == 0 {
		t.Fatal("workload never coalesced; parity is vacuous")
	}
	if rx := g.r0.Stats().RxPackets; rx != total {
		t.Fatalf("ingress rx %d, want %d", rx, total)
	}
}

// TestGROFlushTimeout: with net.core.gro_flush_timeout set, holds ride across
// polls and flush only once their virtual-time deadline passes — held bytes
// preceding the triggering burst on the wire. The hold keeps the frames of
// earlier polls (each poll comes in fresh buffers, as the stack owns what it
// was given) and what finally leaves is byte for byte what a GRO-off router
// sends for the same polls.
func TestGROFlushTimeout(t *testing.T) {
	g := newGroRig(t)
	off := newGroRig(t)
	off.r0.SetGRO(false)
	var now sim.Time
	g.r.SetClock(func() sim.Time { return now })
	g.r.SetSysctl("net.core.gro_flush_timeout", "1000000") // 1ms of virtual time
	both := func(frames func(x *groRig) [][]byte) {
		g.poll(frames(g)...)
		off.poll(frames(off)...)
	}

	both(func(x *groRig) [][]byte {
		return [][]byte{
			x.seg(100, 1, packet.TCPAck, bytes.Repeat([]byte{'a'}, 64)),
			x.seg(164, 2, packet.TCPAck, bytes.Repeat([]byte{'b'}, 64)),
		}
	})
	if len(g.captured) != 0 {
		t.Fatalf("hold flushed before timeout: %d frames", len(g.captured))
	}

	// Still inside the window: the next poll merges into the riding hold.
	now = 500_000
	both(func(x *groRig) [][]byte {
		return [][]byte{x.seg(228, 3, packet.TCPAck, bytes.Repeat([]byte{'c'}, 64))}
	})
	if len(g.captured) != 0 {
		t.Fatalf("hold flushed inside timeout window: %d frames", len(g.captured))
	}

	// Past the deadline: an unrelated frame's poll flushes the hold first.
	now = 2_000_000
	u := packet.UDP{SrcPort: 1, DstPort: 2}
	src, dst := packet.MustAddr("10.1.0.1"), packet.AddrFrom4(10, 2, 0, 2)
	both(func(x *groRig) [][]byte {
		return [][]byte{packet.BuildIPv4(
			packet.Ethernet{Dst: x.r0.MAC, Src: x.srcMAC, EtherType: packet.EtherTypeIPv4},
			packet.IPv4{TTL: 64, Proto: packet.ProtoUDP, Src: src, Dst: dst},
			u.Marshal(nil, src, dst, nil))}
	})
	checkWire(t, g, off)
	if len(g.captured) != 4 {
		t.Fatalf("captured %d frames after expiry, want 4", len(g.captured))
	}
	// The three TCP segments precede the UDP frame that triggered the flush.
	l3 := packet.EthHdrLen
	for i := 0; i < 3; i++ {
		if packet.IPv4Proto(g.captured[i], l3) != packet.ProtoTCP {
			t.Errorf("frame %d is not the held TCP data", i)
		}
	}
	if packet.IPv4Proto(g.captured[3], l3) != packet.ProtoUDP {
		t.Error("triggering UDP frame did not come out last")
	}
	if st := g.r.Stats(); st.GROSupersegs != 1 || st.GROCoalesced != 2 {
		t.Errorf("supersegs/coalesced = %d/%d, want 1/2", st.GROSupersegs, st.GROCoalesced)
	}
}

// TestGROFlushAllDrainsHolds: GROFlushAll (the napi_disable analog) pushes
// riding holds into the stack so no segment is ever stranded.
func TestGROFlushAllDrainsHolds(t *testing.T) {
	g := newGroRig(t)
	g.r.SetSysctl("net.core.gro_flush_timeout", "1000000000")
	g.poll(
		g.seg(100, 1, packet.TCPAck, bytes.Repeat([]byte{'a'}, 64)),
		g.seg(164, 2, packet.TCPAck, bytes.Repeat([]byte{'b'}, 64)),
	)
	if len(g.captured) != 0 {
		t.Fatalf("hold flushed early: %d frames", len(g.captured))
	}
	var m sim.Meter
	g.r.GROFlushAll(nil, &m)
	if len(g.captured) != 2 {
		t.Fatalf("captured %d frames after GROFlushAll, want 2", len(g.captured))
	}
	if st := g.r.Stats(); st.Forwarded+st.GROCoalesced != 2 {
		t.Errorf("forwarded+coalesced = %d+%d, want 2", st.Forwarded, st.GROCoalesced)
	}
}

// TestGRORxWorkerDrainOnClose: tearing down per-queue workers flushes each
// queue's GRO context (the drain in the worker loop), so frames held under a
// long gro_flush_timeout still arrive.
func TestGRORxWorkerDrainOnClose(t *testing.T) {
	g := newGroRig(t)
	g.r.SetSysctl("net.core.gro_flush_timeout", "1000000000")
	pool := g.r.StartRxQueues(g.r0, 4, 64)
	const frames = 256
	seq, id := uint32(100), uint16(1)
	for i := 0; i < frames; i++ {
		pool.Steer(g.seg(seq, id, packet.TCPAck, bytes.Repeat([]byte{'x'}, 64)))
		seq += 64
		id++
	}
	pool.Close()
	st := g.r.Stats()
	if got := st.Forwarded + st.GROCoalesced; got != frames {
		t.Fatalf("forwarded+coalesced = %d, want %d", got, frames)
	}
	if len(g.captured) != frames {
		t.Fatalf("captured %d frames, want %d", len(g.captured), frames)
	}
}

// tcBatchFunc adapts a verdict function into a TCBatchHandler.
type tcBatchFunc func(*SKB) TCAction

func (f tcBatchFunc) HandleTC(s *SKB) TCAction { return f(s) }
func (f tcBatchFunc) HandleTCBatch(skbs []*SKB, acts []TCAction) {
	for i, s := range skbs {
		acts[i] = f(s)
	}
}

// TestTCBatchEquivalence: the batched TC ingress runner must be observably
// identical to the per-skb one — same verdicts, same bytes on the wire, same
// counters — across pass, drop, and redirect verdicts, with GRO both on and
// off. Only cycle totals may differ.
func TestTCBatchEquivalence(t *testing.T) {
	verdict := func(r1Index int) func(*SKB) TCAction {
		return func(s *SKB) TCAction {
			if s.Pkt == nil || s.Pkt.IPv4 == nil || len(s.Pkt.Payload) < 4 {
				return TCOk
			}
			_, dport := packet.L4Ports(s.Pkt.Payload, 0)
			switch dport {
			case 9999:
				return TCShot
			case 8888:
				s.RedirectTo = r1Index
				return TCRedirect
			}
			return TCOk
		}
	}
	dports := []uint16{80, 80, 80, 8888, 9999}

	for _, gro := range []bool{true, false} {
		t.Run(fmt.Sprintf("gro=%v", gro), func(t *testing.T) {
			perSkb := newGroRig(t)
			perSkb.r0.SetGRO(gro)
			perSkb.r.AttachTC(perSkb.r0.Index, true, tcFunc(verdict(perSkb.r1.Index)))

			batched := newGroRig(t)
			batched.r0.SetGRO(gro)
			batched.r.AttachTC(batched.r0.Index, true, tcBatchFunc(verdict(batched.r1.Index)))

			const frames = 600
			wA := groWorkload(perSkb, frames, 11, dports)
			wB := groWorkload(batched, frames, 11, dports)
			for i := 0; i < frames; i += 32 {
				end := i + 32
				if end > frames {
					end = frames
				}
				perSkb.poll(wA[i:end]...)
				batched.poll(wB[i:end]...)
			}

			if len(perSkb.captured) == 0 {
				t.Fatal("nothing reached the sink; test is vacuous")
			}
			if len(perSkb.captured) != len(batched.captured) {
				t.Fatalf("captured %d per-skb, %d batched", len(perSkb.captured), len(batched.captured))
			}
			fA, fB := byFlow(perSkb.captured), byFlow(batched.captured)
			for key, seqA := range fA {
				seqB := fB[key]
				if len(seqA) != len(seqB) {
					t.Fatalf("flow %s: %d per-skb, %d batched", key, len(seqA), len(seqB))
				}
				for i := range seqA {
					if !bytes.Equal(seqA[i], seqB[i]) {
						t.Fatalf("flow %s frame %d differs:\n per-skb %x\n batched %x", key, i, seqA[i], seqB[i])
					}
				}
			}
			sA, sB := perSkb.r.Stats(), batched.r.Stats()
			if sA != sB {
				t.Errorf("stats diverged:\n per-skb %+v\n batched %+v", sA, sB)
			}
			if sA.Dropped == 0 {
				t.Error("no TC drops exercised")
			}
			if txA, txB := perSkb.r1.Stats().TxPackets, batched.r1.Stats().TxPackets; txA != txB {
				t.Errorf("egress TxPackets %d per-skb, %d batched", txA, txB)
			}
		})
	}
}

// TestGROToggleRaceHammer drives 8 RX queues of same-flow TCP trains while
// other goroutines toggle device GRO, flip gro_flush_timeout, force
// GROFlushAll, and churn routes — the exact interleavings where a hold could
// be stranded or double-flushed. Run under -race this also proves the GRO
// context locking. The conservation identity at the end proves no frame was
// lost or double-counted.
func TestGROToggleRaceHammer(t *testing.T) {
	r, r0, _, srcMAC, _ := newFwdRouter(t)

	const nflows = 64
	const perFlow = 256

	done := make(chan struct{})
	var mut sync.WaitGroup
	mutate := func(fn func(i int)) {
		mut.Add(1)
		go func() {
			defer mut.Done()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
					fn(i)
				}
			}
		}()
	}
	mutate(func(i int) { // ethtool -K gro off/on under load
		r0.SetGRO(false)
		var m sim.Meter
		m.CPU = 63 // a shard no worker uses: exercises cross-shard flush
		r.GROFlushAll(r0, &m)
		r0.SetGRO(true)
	})
	mutate(func(i int) { // sysctl flips between flush-every-poll and riding holds
		r.SetSysctl("net.core.gro_flush_timeout", "1000000")
		r.SetSysctl("net.core.gro_flush_timeout", "0")
	})
	churn := packet.MustPrefix("10.50.0.0/16")
	mutate(func(i int) { // FIB churn invalidating memoized state
		r.AddRoute(fib.Route{Prefix: churn, Gateway: packet.MustAddr("10.2.0.1"), OutIf: 2})
		r.DelRoute(churn)
	})
	never := packet.MustPrefix("10.99.0.0/24")
	mutate(func(i int) { // netfilter churn that matches nothing
		r.IptAppend("FORWARD", netfilter.Rule{
			Match: netfilter.Match{Dst: &never}, Target: netfilter.VerdictDrop,
		})
		r.IptFlush("FORWARD")
	})

	pool := r.StartRxQueues(r0, 8, 64)
	src := packet.MustAddr("10.1.0.1")
	seqs := make([]uint32, nflows)
	ids := make([]uint16, nflows)
	payload := bytes.Repeat([]byte{'h'}, 64)
	for i := 0; i < perFlow; i++ {
		for f := 0; f < nflows; f++ {
			dst := packet.AddrFrom4(10, 2, 0, byte(f%16+1))
			tcp := packet.TCP{SrcPort: uint16(4000 + f), DstPort: 80, Seq: seqs[f], Ack: 1, Flags: packet.TCPAck, Window: 512}
			pool.Steer(packet.BuildIPv4(
				packet.Ethernet{Dst: r0.MAC, Src: srcMAC, EtherType: packet.EtherTypeIPv4},
				packet.IPv4{TTL: 64, ID: ids[f], Flags: packet.IPv4DontFragment, Proto: packet.ProtoTCP, Src: src, Dst: dst},
				tcp.Marshal(nil, src, dst, payload)))
			seqs[f] += 64
			ids[f]++
		}
	}
	pool.Close() // workers drain their GRO shards on exit
	close(done)
	mut.Wait()
	// Anything a mutator's flush raced into a shard no worker drained.
	var m sim.Meter
	r.GROFlushAll(nil, &m)

	const total = nflows * perFlow
	st := r.Stats()
	got := st.Forwarded + st.GROCoalesced + st.Dropped + st.Delivered
	if got != total {
		t.Fatalf("conservation: %d frames in, %d accounted (fwd %d coal %d drop %d del %d)",
			total, got, st.Forwarded, st.GROCoalesced, st.Dropped, st.Delivered)
	}
	if st.Dropped != 0 {
		t.Errorf("hammer dropped %d frames", st.Dropped)
	}

	// The toggler's flushes above re-emitted other shards' supersegments
	// from CPU 63 while their owners kept polling. Pin where such a release
	// lands: a supersegment held on CPU 0 and flushed from CPU 63 goes back
	// to CPU 0's free list, and CPU 0's next hold is built on it.
	r.SetSysctl("net.core.gro_flush_timeout", "1000000000")
	dst := packet.AddrFrom4(10, 2, 0, 1)
	train := func(seq uint32, id uint16) [][]byte {
		var tr [][]byte
		for i := uint32(0); i < 2; i++ {
			tcp := packet.TCP{SrcPort: 4999, DstPort: 80, Seq: seq + i*64, Ack: 1, Flags: packet.TCPAck, Window: 512}
			tr = append(tr, packet.BuildIPv4(
				packet.Ethernet{Dst: r0.MAC, Src: srcMAC, EtherType: packet.EtherTypeIPv4},
				packet.IPv4{TTL: 64, ID: id + uint16(i), Flags: packet.IPv4DontFragment, Proto: packet.ProtoTCP, Src: src, Dst: dst},
				tcp.Marshal(nil, src, dst, payload)))
		}
		return tr
	}
	var m0, m63 sim.Meter
	m63.CPU = 63
	ctx0 := r.groCtxFor(&m0)
	held := func() *groSuper {
		for i := range ctx0.holds {
			if ctx0.holds[i].segs > 0 {
				return ctx0.holds[i].sup
			}
		}
		t.Fatal("no hold riding on CPU 0")
		return nil
	}
	r0.ReceiveBatch(train(1000, 100), 0, &m0)
	sup := held()
	r.GROFlushAll(nil, &m63)
	if n := len(ctx0.free); n == 0 || ctx0.free[n-1] != sup {
		t.Fatal("a supersegment flushed from CPU 63 did not return to CPU 0's free list")
	}
	r0.ReceiveBatch(train(5000, 200), 0, &m0)
	if held() != sup {
		t.Fatal("CPU 0's next hold was not built on the released supersegment")
	}
	r.GROFlushAll(nil, &m0)
}
