package packet

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"
)

// kat builds the reference segment used by the known-answer tests below:
//
//	IPv4  192.168.0.1 -> 192.168.0.2, ID 0x1234, DF, TTL 64, proto TCP
//	TCP   1024 -> 80, seq 100, ack 200, flags ACK, window 0x2000
//	data  "abcd"
//
// Both checksums are hand-computed in TestChecksumKnownAnswer; every other
// test in this file leans on those constants.
func katFrame(id uint16, seq uint32, payload string) []byte {
	eth := Ethernet{
		Dst:       HWAddr{0x02, 0, 0, 0, 0, 2},
		Src:       HWAddr{0x02, 0, 0, 0, 0, 1},
		EtherType: EtherTypeIPv4,
	}
	ip := IPv4{
		ID: id, Flags: IPv4DontFragment, TTL: 64, Proto: ProtoTCP,
		Src: AddrFrom4(192, 168, 0, 1), Dst: AddrFrom4(192, 168, 0, 2),
	}
	tcp := TCP{SrcPort: 1024, DstPort: 80, Seq: seq, Ack: 200, Flags: TCPAck, Window: 0x2000}
	return BuildTCP(eth, ip, tcp, []byte(payload))
}

// TestChecksumKnownAnswer pins the checksum math to hand-computed values so a
// regression in Checksum/ChecksumWithPseudo (or in the Marshal offsets) cannot
// hide behind "recompute matches recompute".
func TestChecksumKnownAnswer(t *testing.T) {
	f := katFrame(0x1234, 100, "abcd")
	l3, l4 := EthHdrLen, EthHdrLen+IPv4MinLen

	// IP header words: 4500 002c 1234 4000 4006 csum c0a8 0001 c0a8 0002.
	// Sum with csum=0: 4500+002c+1234+4000+4006+c0a8+0001+c0a8+0002
	//   = 0x158bb -> fold carry -> 0x58bb; complement = 0xa744.
	if got := binary.BigEndian.Uint16(f[l3+10 : l3+12]); got != 0xa744 {
		t.Errorf("IP checksum = %#04x, want 0xa744", got)
	}
	// TCP pseudo-header: c0a8 0001 c0a8 0002 0006 0018 (len 24) -> 0x8172.
	// TCP words: 0400 0050 0000 0064 0000 00c8 5010 2000 0000 0000 6162 6364
	//   -> 0x3a53 (carries folded). 0x8172+0x3a53 = 0xbbc5; complement 0x443a.
	if got := binary.BigEndian.Uint16(f[l4+16 : l4+18]); got != 0x443a {
		t.Errorf("TCP checksum = %#04x, want 0x443a", got)
	}
	// Both must verify as zero the way the GRO parser checks them.
	if Checksum(f[l3:l4]) != 0 {
		t.Error("IP header does not verify")
	}
	if ChecksumWithPseudo(IPv4Src(f, l3), IPv4Dst(f, l3), ProtoTCP, f[l4:]) != 0 {
		t.Error("TCP segment does not verify")
	}
}

// TestSetIPv4TotalLenIncremental checks the RFC 1624 incremental update
// against a hand-computed value: growing the KAT frame's total length from
// 44 to 48 moves the sum from 0x58bb to 0x58bf, so the checksum must land on
// 0xa740 — and equal a from-scratch recompute.
func TestSetIPv4TotalLenIncremental(t *testing.T) {
	f := katFrame(0x1234, 100, "abcd")
	l3 := EthHdrLen
	SetIPv4TotalLen(f, l3, 48)
	if got := binary.BigEndian.Uint16(f[l3+10 : l3+12]); got != 0xa740 {
		t.Errorf("incremental IP checksum = %#04x, want 0xa740", got)
	}
	g := append([]byte(nil), f...)
	RecomputeIPv4Checksum(g, l3)
	if !bytes.Equal(f, g) {
		t.Error("incremental update differs from recompute")
	}

	SetIPv4ID(f, l3, 0x1304)
	g = append([]byte(nil), f...)
	RecomputeIPv4Checksum(g, l3)
	if !bytes.Equal(f, g) {
		t.Error("SetIPv4ID incremental update differs from recompute")
	}
}

// TestSupersegmentChecksumKnownAnswer coalesces two KAT segments by hand the
// way the GRO engine does — append the payload, patch the total length,
// recompute the TCP checksum — and pins the resulting checksums.
func TestSupersegmentChecksumKnownAnswer(t *testing.T) {
	l3, l4 := EthHdrLen, EthHdrLen+IPv4MinLen
	super := append([]byte(nil), katFrame(0x1234, 100, "abcd")...)
	super = append(super, "efgh"...)
	SetIPv4TotalLen(super, l3, uint16(len(super)-l3))
	RecomputeTCPChecksum(super, l3, l4)

	if got := binary.BigEndian.Uint16(super[l3+10 : l3+12]); got != 0xa740 {
		t.Errorf("super IP checksum = %#04x, want 0xa740", got)
	}
	// Pseudo-header len grows 24->28: 0x8172+4 = 0x8176. Payload words gain
	// 6566+6768 on top of 0x3a53 -> 0x0722 (carry folded).
	// 0x8176+0x0722 = 0x8898; complement = 0x7767.
	if got := binary.BigEndian.Uint16(super[l4+16 : l4+18]); got != 0x7767 {
		t.Errorf("super TCP checksum = %#04x, want 0x7767", got)
	}
}

// TestSegmentTCPRoundTrip is the byte-parity core of the GRO design: merging
// two wire segments and splitting the supersegment back must reproduce the
// original frames bit for bit — IDs, sequence numbers, flags, checksums.
func TestSegmentTCPRoundTrip(t *testing.T) {
	l3, l4 := EthHdrLen, EthHdrLen+IPv4MinLen
	a := katFrame(0x1234, 100, "abcd")
	b := katFrame(0x1235, 104, "efgh")

	super := append([]byte(nil), a...)
	super = append(super, "efgh"...)
	SetIPv4TotalLen(super, l3, uint16(len(super)-l3))
	RecomputeTCPChecksum(super, l3, l4)

	segs := SegmentTCP(super, l3, l4, 4, false)
	if len(segs) != 2 {
		t.Fatalf("SegmentTCP produced %d segments, want 2", len(segs))
	}
	if !bytes.Equal(segs[0], a) {
		t.Errorf("segment 0 differs:\n got %x\nwant %x", segs[0], a)
	}
	if !bytes.Equal(segs[1], b) {
		t.Errorf("segment 1 differs:\n got %x\nwant %x", segs[1], b)
	}
}

// TestSegmentTCPPshLast: the PSH bit that ended the coalesce must reappear on
// the final split segment and only there.
func TestSegmentTCPPshLast(t *testing.T) {
	l3, l4 := EthHdrLen, EthHdrLen+IPv4MinLen
	super := append([]byte(nil), katFrame(0x1234, 100, "abcd")...)
	super = append(super, "efghijkl"...)
	SetIPv4TotalLen(super, l3, uint16(len(super)-l3))
	super[l4+13] |= byte(TCPPsh)
	RecomputeTCPChecksum(super, l3, l4)

	segs := SegmentTCP(super, l3, l4, 4, true)
	if len(segs) != 3 {
		t.Fatalf("got %d segments, want 3", len(segs))
	}
	for i, s := range segs {
		psh := TCPRawFlags(s, l4)&TCPPsh != 0
		if want := i == len(segs)-1; psh != want {
			t.Errorf("segment %d PSH = %v, want %v", i, psh, want)
		}
		if Checksum(s[l3:l4]) != 0 {
			t.Errorf("segment %d IP checksum does not verify", i)
		}
		if ChecksumWithPseudo(IPv4Src(s, l3), IPv4Dst(s, l3), ProtoTCP, s[l4:]) != 0 {
			t.Errorf("segment %d TCP checksum does not verify", i)
		}
	}
}

// TestSegmentTCPSingle: a single (mss >= payload) passes through as one frame,
// byte-identical.
func TestSegmentTCPSingle(t *testing.T) {
	l3, l4 := EthHdrLen, EthHdrLen+IPv4MinLen
	a := katFrame(0x1234, 100, "abcd")
	segs := SegmentTCP(append([]byte(nil), a...), l3, l4, 1460, false)
	if len(segs) != 1 || !bytes.Equal(segs[0], a) {
		t.Fatalf("single-segment split not identity: %d segs", len(segs))
	}
}

// TestSegmentTCPAfterTTLDec mirrors the forwarding path: decrementing TTL on
// the supersegment then splitting must equal splitting first and decrementing
// each segment — the incremental-vs-recompute equivalence the GRO forward
// path relies on.
func TestSegmentTCPAfterTTLDec(t *testing.T) {
	l3, l4 := EthHdrLen, EthHdrLen+IPv4MinLen
	a := katFrame(0x1234, 100, "abcd")
	b := katFrame(0x1235, 104, "efgh")

	super := append([]byte(nil), a...)
	super = append(super, "efgh"...)
	SetIPv4TotalLen(super, l3, uint16(len(super)-l3))
	RecomputeTCPChecksum(super, l3, l4)
	DecTTL(super, l3)

	want := [][]byte{append([]byte(nil), a...), append([]byte(nil), b...)}
	for _, w := range want {
		DecTTL(w, l3)
	}
	segs := SegmentTCP(super, l3, l4, 4, false)
	for i := range want {
		if !bytes.Equal(segs[i], want[i]) {
			t.Errorf("segment %d differs after TTL decrement:\n got %x\nwant %x", i, segs[i], want[i])
		}
	}
}

// buildSuper coalesces same-flow payload pieces the way the GRO engine does
// and returns the supersegment with the pieces' PartialSums.
func buildSuper(pieces ...string) (super []byte, sums []uint16) {
	l3, l4 := EthHdrLen, EthHdrLen+IPv4MinLen
	super = katFrame(0x1234, 100, pieces[0])
	for i, p := range pieces {
		if i > 0 {
			super = append(super, p...)
		}
		sums = append(sums, PartialSum([]byte(p)))
	}
	SetIPv4TotalLen(super, l3, uint16(len(super)-l3))
	RecomputeTCPChecksum(super, l3, l4)
	return super, sums
}

// TestSegmentTCPSumsMatchesScratch: handing SegmentTCPSums the carried
// payload sums yields the frames SegmentTCP computes from scratch, byte for
// byte — at even and odd segment sizes, with an odd-length tail, and after
// the header rewrites that happen between GRO and GSO (TTL, NAT).
func TestSegmentTCPSumsMatchesScratch(t *testing.T) {
	l3, l4 := EthHdrLen, EthHdrLen+IPv4MinLen
	for _, pieces := range [][]string{
		{"abcd", "efgh", "ijkl"},
		{"abc", "def", "ghi", "j"}, // odd size: every other piece starts at an odd offset
		{"a", "b", "c"},
		{"abcde", "fghij", "klm"},
		{"abcd"},
	} {
		super, sums := buildSuper(pieces...)
		DecTTL(super, l3)
		AddrFrom4(203, 0, 113, 7).PutBytes(super[l3+12 : l3+16]) // SNAT; checksums deliberately left stale
		want := SegmentTCP(super, l3, l4, len(pieces[0]), true)
		got := SegmentTCPSums(super, l3, l4, len(pieces[0]), true, sums)
		if len(got) != len(pieces) || len(want) != len(pieces) {
			t.Fatalf("%q: %d / %d segments, want %d", pieces, len(got), len(want), len(pieces))
		}
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				t.Errorf("%q segment %d:\n sums    %x\n scratch %x", pieces, i, got[i], want[i])
			}
			if ChecksumWithPseudo(IPv4Src(got[i], l3), IPv4Dst(got[i], l3), ProtoTCP, got[i][l4:]) != 0 {
				t.Errorf("%q segment %d TCP checksum does not verify", pieces, i)
			}
		}
		// Sums that do not line up with the split are ignored, not misapplied.
		if len(sums) > 1 {
			got = SegmentTCPSums(super, l3, l4, len(pieces[0]), true, sums[1:])
			for i := range want {
				if !bytes.Equal(got[i], want[i]) {
					t.Errorf("%q segment %d differs with a short sums slice", pieces, i)
				}
			}
		}
	}
}

// mergedTrain is what the GRO engine holds after coalescing one flow's
// in-order train of payload split at mss: the wire frames (IDs and sequence
// numbers wrapping mid-train, PSH on the last one when pshLast), the
// supersegment the merge rules build from them — the first frame plus every
// later payload, total length patched, PSH restored, TCP checksum from the
// carried sums — and the per-segment payload sums.
func mergedTrain(payload []byte, mss int, pshLast bool) (frames [][]byte, super []byte, sums []uint16) {
	l3, l4 := EthHdrLen, EthHdrLen+IPv4MinLen
	eth := Ethernet{Dst: HWAddr{0x02, 0, 0, 0, 0, 2}, Src: HWAddr{0x02, 0, 0, 0, 0, 1}, EtherType: EtherTypeIPv4}
	src, dst := AddrFrom4(192, 168, 0, 1), AddrFrom4(192, 168, 0, 2)
	var total uint32
	for i, off := 0, 0; off < len(payload); i, off = i+1, off+mss {
		piece := payload[off:min(off+mss, len(payload))]
		fl := TCPAck
		if pshLast && off+mss >= len(payload) {
			fl |= TCPPsh
		}
		frames = append(frames, BuildTCP(eth,
			IPv4{ID: 0xfffa + uint16(i), Flags: IPv4DontFragment, TTL: 64, Proto: ProtoTCP, Src: src, Dst: dst},
			TCP{SrcPort: 1024, DstPort: 80, Seq: 0xffff_f000 + uint32(off), Ack: 200, Flags: fl, Window: 0x2000},
			piece))
		sums = append(sums, PartialSum(piece))
		total += uint32(SumAt(sums[i], off))
	}
	super = append([]byte(nil), frames[0]...)
	super[l4+13] &^= byte(TCPPsh)
	for _, f := range frames[1:] {
		super = append(super, f[l4+TCPHdrLen:]...)
	}
	SetIPv4TotalLen(super, l3, uint16(len(super)-l3))
	if pshLast {
		super[l4+13] |= byte(TCPPsh)
	}
	RecomputeTCPChecksumSum(super, l3, l4, total)
	return frames, super, sums
}

// rewriteSuper applies the header rewrites the stack may make between GRO
// and GSO, chosen by the bits of which: TTL decrement, both MACs, then source
// and destination address and port (NAT, checksums left stale — GSO builds
// both from scratch and from the carried sums).
func rewriteSuper(super []byte, which uint8) {
	l3, l4 := EthHdrLen, EthHdrLen+IPv4MinLen
	if which&1 != 0 {
		DecTTL(super, l3)
	}
	if which&2 != 0 {
		SetEthDst(super, HWAddr{0x02, 0xaa, 0, 0, 0, 9})
		SetEthSrc(super, HWAddr{0x02, 0xbb, 0, 0, 0, 3})
	}
	if which&4 != 0 {
		AddrFrom4(203, 0, 113, 7).PutBytes(super[l3+12 : l3+16])
		binary.BigEndian.PutUint16(super[l4:], 61001)
	}
	if which&8 != 0 {
		AddrFrom4(10, 9, 8, 7).PutBytes(super[l3+16 : l3+20])
		binary.BigEndian.PutUint16(super[l4+2:], 8443)
	}
}

// checkResegmentInto applies the rewrites to the super and writes its
// headers into its own train. Two oracles: SegmentTCP's split of the super,
// and — independent of the shared header writer — each original frame given
// the same rewrites on its own, checksums recomputed from scratch, which is
// what the GRO-off path sends. Before the write every header byte of the
// originals is scribbled over, so nothing can survive from them; after it
// each frame must still be the same slice. First, each shape mismatch — a
// frame short or extra, a frame a byte off, sums missing or short — must
// return false and leave the frames alone.
func checkResegmentInto(t *testing.T, frames [][]byte, super []byte, sums []uint16, mss int, pshLast bool, rewrite uint8) {
	t.Helper()
	l3, l4 := EthHdrLen, EthHdrLen+IPv4MinLen
	hdrLen := l4 + TCPHdrLen
	perFrame := make([][]byte, len(frames))
	for i, f := range frames {
		perFrame[i] = append([]byte(nil), f...)
		rewriteSuper(perFrame[i], rewrite)
		RecomputeIPv4Checksum(perFrame[i], l3)
		RecomputeTCPChecksum(perFrame[i], l3, l4)
	}
	rewriteSuper(super, rewrite)
	want := SegmentTCP(super, l3, l4, mss, pshLast)
	snap := func() [][]byte {
		out := make([][]byte, len(frames))
		for i, f := range frames {
			out[i] = append([]byte(nil), f...)
		}
		return out
	}
	for _, bad := range []struct {
		name   string
		frames [][]byte
		sums   []uint16
	}{
		{"one frame short", frames[:len(frames)-1], sums},
		{"one frame extra", append(frames[:len(frames):len(frames)], frames[0]), sums},
		{"last frame a byte short", append(frames[:len(frames)-1:len(frames)-1], frames[len(frames)-1][:len(frames[len(frames)-1])-1]), sums},
		{"first frame a byte long", append([][]byte{append(frames[0][:len(frames[0]):len(frames[0])], 0)}, frames[1:]...), sums},
		{"no sums", frames, nil},
		{"sums short", frames, sums[:len(sums)-1]},
	} {
		before := snap()
		if ResegmentTCPInto(super, l3, l4, mss, pshLast, bad.sums, bad.frames) {
			t.Fatalf("%s: accepted", bad.name)
		}
		for i := range frames {
			if !bytes.Equal(frames[i], before[i]) {
				t.Fatalf("%s: frame %d written although the shape was refused", bad.name, i)
			}
		}
	}

	addrs := make([]*byte, len(frames))
	for i, f := range frames {
		addrs[i] = &f[0]
		for j := 0; j < hdrLen; j++ {
			f[j] = rewrite*37 + byte(j)
		}
	}
	if !ResegmentTCPInto(super, l3, l4, mss, pshLast, sums, frames) {
		t.Fatalf("well-formed train of %d refused", len(frames))
	}
	if len(want) != len(frames) {
		t.Fatalf("SegmentTCP made %d segments of a %d-frame train", len(want), len(frames))
	}
	for i, f := range frames {
		if &f[0] != addrs[i] {
			t.Fatalf("frame %d moved", i)
		}
		if !bytes.Equal(f, want[i]) {
			t.Fatalf("frame %d differs from SegmentTCP:\n into    %x\n scratch %x", i, f, want[i])
		}
		if !bytes.Equal(f, perFrame[i]) {
			t.Fatalf("frame %d differs from the frame rewritten on its own:\n into  %x\n alone %x", i, f, perFrame[i])
		}
	}
}

// TestResegmentTCPIntoMatchesSegmentTCP: over seeded trains built with the
// real merge rules — odd and even segment sizes, odd and even tails, PSH last
// or not, every combination of TTL, MAC and NAT rewrites after the merge —
// writing headers into the original frames yields SegmentTCP's output byte
// for byte, and a mismatched shape is refused untouched.
func TestResegmentTCPIntoMatchesSegmentTCP(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	for iter := 0; iter < 300; iter++ {
		mss := 1 + rng.Intn(1500)
		if iter%3 == 0 {
			mss = 1447 + rng.Intn(2) // one MSS, odd and even
		}
		n := 2 + rng.Intn(16)
		payload := make([]byte, (n-1)*mss+1+rng.Intn(mss))
		rng.Read(payload)
		pshLast := rng.Intn(2) == 0
		frames, super, sums := mergedTrain(payload, mss, pshLast)
		checkResegmentInto(t, frames, super, sums, mss, pshLast, uint8(rng.Intn(16)))
	}
}

// FuzzResegmentInto: for any payload, segment size, PSH bit and set of
// post-merge rewrites, ResegmentTCPInto over the merged train equals
// SegmentTCP and refuses every shape mismatch without writing.
func FuzzResegmentInto(f *testing.F) {
	f.Add([]byte("abcdefghij"), 4, true, uint8(15))
	f.Add([]byte("abcdefg"), 3, false, uint8(1))
	f.Add([]byte("ab"), 1, true, uint8(6))
	f.Add(bytes.Repeat([]byte{0xff}, 3*1447+333), 1447, false, uint8(9))
	f.Add(bytes.Repeat([]byte{0x01, 0xfe}, 2*1448), 1448, true, uint8(0))
	f.Fuzz(func(t *testing.T, payload []byte, mss int, pshLast bool, rewrite uint8) {
		if mss <= 0 || mss >= len(payload) || len(payload) > 60000 || len(payload) > 64*mss {
			return // GSO only ever splits a merged train of two or more
		}
		frames, super, sums := mergedTrain(payload, mss, pshLast)
		checkResegmentInto(t, frames, super, sums, mss, pshLast, rewrite)
	})
}

// TestSegmentTCPMalformed pins the two inputs that used to panic: a
// header-only supersegment (division by a zero mss) and an IP total length
// pointing past the frame (slice out of range).
func TestSegmentTCPMalformed(t *testing.T) {
	l3, l4 := EthHdrLen, EthHdrLen+IPv4MinLen
	bare := katFrame(0x1234, 100, "")
	for _, mss := range []int{0, 4, 1460} {
		segs := SegmentTCP(bare, l3, l4, mss, false)
		if len(segs) != 1 || !bytes.Equal(segs[0], bare) {
			t.Fatalf("header-only frame, mss %d: %d segments, want the frame itself", mss, len(segs))
		}
	}

	long := katFrame(0x1234, 100, "abcdefgh")
	binary.BigEndian.PutUint16(long[l3+2:l3+4], 9000) // claims more than is there
	segs := SegmentTCP(long, l3, l4, 4, false)
	if len(segs) != 2 {
		t.Fatalf("overlong total length: %d segments, want 2", len(segs))
	}
	if got := string(segs[0][l4+TCPHdrLen:]) + string(segs[1][l4+TCPHdrLen:]); got != "abcdefgh" {
		t.Fatalf("overlong total length: payload %q, want the bytes present", got)
	}

	short := katFrame(0x1234, 100, "abcdefgh")
	binary.BigEndian.PutUint16(short[l3+2:l3+4], 10) // claims less than its own headers
	if segs := SegmentTCP(short, l3, l4, 4, false); len(segs) != 1 || len(segs[0]) != l4+TCPHdrLen {
		t.Fatalf("undersized total length: %d segments", len(segs))
	}
	if segs := SegmentTCP(bare[:l4+7], l3, l4, 4, false); len(segs) != 1 {
		t.Fatalf("truncated header: %d segments, want the frame back", len(segs))
	}
}

// FuzzSegmentTCP: SegmentTCP never panics on any bytes; when the frame is a
// well-formed IPv4/TCP segment, the outputs' payloads concatenate to the
// input payload, every output checksum verifies, and carried sums change
// nothing.
func FuzzSegmentTCP(f *testing.F) {
	f.Add(katFrame(0x1234, 100, "abcdefghij"), 4, true)
	f.Add(katFrame(0xffff, 0xffff_fffe, "abcdefg"), 3, false)
	f.Add(katFrame(1, 1, ""), 0, false)
	f.Add(katFrame(1, 1, "x")[:40], 1, true)
	f.Add([]byte{}, -1, false)
	ihl11 := katFrame(1, 1, "abcdefgh")
	ihl11[EthHdrLen] = 0x4b // header length nibble pointing past the frame's headers
	f.Add(ihl11, 3, true)
	f.Fuzz(func(t *testing.T, frame []byte, mss int, pshLast bool) {
		et, l3 := EtherTypeOf(frame)
		l4 := l3 + IPv4MinLen
		hdrLen := l4 + TCPHdrLen
		if et != EtherTypeIPv4 || len(frame) < l3+4 {
			return // callers only split frames EtherTypeOf calls IPv4
		}
		segs := SegmentTCP(frame, l3, l4, mss, pshLast)
		if len(frame) <= hdrLen || frame[l3] != 0x45 || l3+int(IPv4TotalLen(frame, l3)) != len(frame) {
			return // malformed or header-only: not panicking is the property
		}
		var payload []byte
		var sums []uint16
		for i, s := range segs {
			if Checksum(s[l3:l4]) != 0 {
				t.Fatalf("segment %d IP checksum does not verify", i)
			}
			if ChecksumWithPseudo(IPv4Src(s, l3), IPv4Dst(s, l3), ProtoTCP, s[l4:]) != 0 {
				t.Fatalf("segment %d TCP checksum does not verify", i)
			}
			if mss > 0 && len(s)-hdrLen > mss {
				t.Fatalf("segment %d carries %d bytes, mss %d", i, len(s)-hdrLen, mss)
			}
			payload = append(payload, s[hdrLen:]...)
			sums = append(sums, PartialSum(s[hdrLen:]))
		}
		if !bytes.Equal(payload, frame[hdrLen:]) {
			t.Fatalf("payload not preserved: %d bytes in, %d out", len(frame)-hdrLen, len(payload))
		}
		for i, s := range SegmentTCPSums(frame, l3, l4, mss, pshLast, sums) {
			if !bytes.Equal(s, segs[i]) {
				t.Fatalf("segment %d differs with carried sums", i)
			}
		}
	})
}
