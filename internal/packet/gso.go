package packet

import "encoding/binary"

// GRO/GSO helpers: raw in-place readers and writers over wire frames, plus
// SegmentTCP, the GSO-style split that turns a coalesced TCP supersegment
// back into wire frames. The GRO engine in internal/kernel merges same-flow
// segments by appending payload bytes; every header field it merged away was
// required identical-or-consecutive at merge time, so resegmentation here can
// reconstruct the original frames byte for byte.

// IPv4TotalLen reads the total-length field of the IPv4 header at l3.
func IPv4TotalLen(frame []byte, l3 int) uint16 {
	return binary.BigEndian.Uint16(frame[l3+2 : l3+4])
}

// IPv4ID reads the identification field of the IPv4 header at l3.
func IPv4ID(frame []byte, l3 int) uint16 {
	return binary.BigEndian.Uint16(frame[l3+4 : l3+6])
}

// SetIPv4TotalLen patches the total-length field at l3 in place, updating
// the header checksum incrementally (RFC 1624) — the same trick DecTTL uses.
func SetIPv4TotalLen(frame []byte, l3 int, v uint16) {
	old := binary.BigEndian.Uint16(frame[l3+2 : l3+4])
	binary.BigEndian.PutUint16(frame[l3+2:l3+4], v)
	csum := binary.BigEndian.Uint16(frame[l3+10 : l3+12])
	binary.BigEndian.PutUint16(frame[l3+10:l3+12], ChecksumUpdate16(csum, old, v))
}

// SetIPv4ID patches the identification field at l3 in place, updating the
// header checksum incrementally.
func SetIPv4ID(frame []byte, l3 int, v uint16) {
	old := binary.BigEndian.Uint16(frame[l3+4 : l3+6])
	binary.BigEndian.PutUint16(frame[l3+4:l3+6], v)
	csum := binary.BigEndian.Uint16(frame[l3+10 : l3+12])
	binary.BigEndian.PutUint16(frame[l3+10:l3+12], ChecksumUpdate16(csum, old, v))
}

// RecomputeIPv4Checksum rewrites the header checksum at l3 from scratch.
func RecomputeIPv4Checksum(frame []byte, l3 int) {
	ihl := int(frame[l3]&0xf) * 4
	frame[l3+10], frame[l3+11] = 0, 0
	binary.BigEndian.PutUint16(frame[l3+10:l3+12], Checksum(frame[l3:l3+ihl]))
}

// RecomputeTCPChecksum rewrites the TCP checksum of the segment starting at
// l4 from scratch, covering the pseudo-header; the segment extent is taken
// from the IP total length at l3.
func RecomputeTCPChecksum(frame []byte, l3, l4 int) {
	seg := frame[l4 : l3+int(IPv4TotalLen(frame, l3))]
	frame[l4+16], frame[l4+17] = 0, 0
	csum := ChecksumWithPseudo(IPv4Src(frame, l3), IPv4Dst(frame, l3), ProtoTCP, seg)
	binary.BigEndian.PutUint16(frame[l4+16:l4+18], csum)
}

// RecomputeTCPChecksumSum is RecomputeTCPChecksum for a caller that already
// holds paySum, the sum of the payload behind the option-less TCP header at
// l4 (a PartialSum, or a wider total of SumAt-placed PartialSums): only the
// pseudo-header and the 20 header bytes are read.
func RecomputeTCPChecksumSum(frame []byte, l3, l4 int, paySum uint32) {
	hdrEnd := l4 + TCPHdrLen
	frame[l4+16], frame[l4+17] = 0, 0
	csum := ChecksumWithPseudoSum(IPv4Src(frame, l3), IPv4Dst(frame, l3), ProtoTCP,
		frame[l4:hdrEnd], paySum, l3+int(IPv4TotalLen(frame, l3))-hdrEnd)
	binary.BigEndian.PutUint16(frame[l4+16:l4+18], csum)
}

// TCPSeq reads the sequence number of the TCP header at l4.
func TCPSeq(frame []byte, l4 int) uint32 {
	return binary.BigEndian.Uint32(frame[l4+4 : l4+8])
}

// TCPAckNum reads the acknowledgement number of the TCP header at l4.
func TCPAckNum(frame []byte, l4 int) uint32 {
	return binary.BigEndian.Uint32(frame[l4+8 : l4+12])
}

// TCPDataOff reads the header length in bytes of the TCP header at l4.
func TCPDataOff(frame []byte, l4 int) int { return int(frame[l4+12]>>4) * 4 }

// TCPRawFlags reads the control bits of the TCP header at l4.
func TCPRawFlags(frame []byte, l4 int) TCPFlags { return TCPFlags(frame[l4+13]) }

// TCPWindow reads the receive window of the TCP header at l4.
func TCPWindow(frame []byte, l4 int) uint16 {
	return binary.BigEndian.Uint16(frame[l4+14 : l4+16])
}

// TCPUrgent reads the urgent pointer of the TCP header at l4.
func TCPUrgent(frame []byte, l4 int) uint16 {
	return binary.BigEndian.Uint16(frame[l4+18 : l4+20])
}

// SegmentTCP splits a coalesced TCP supersegment back into wire frames:
// each output carries up to mss payload bytes behind a copy of the
// supersegment's L2+L3+L4 headers with the IP ID and TCP sequence advanced
// per segment, the IP total length patched, PSH cleared on all but the last
// segment (set there only when pshLast), and both checksums recomputed from
// scratch. GRO required consecutive IDs, in-order sequence numbers, and
// otherwise identical headers at merge time, so for a supersegment built
// from valid frames this is the exact inverse of coalescing; recomputing a
// valid checksum equals the incremental update the fast path would have
// done, so TTL-decremented supersegments resegment byte-identically too.
// All output frames share one backing array: a single allocation per split.
// A frame with no payload, or too short for its headers, comes back as its
// own single segment; an IP total length past the frame is clamped to the
// bytes present.
func SegmentTCP(super []byte, l3, l4 int, mss int, pshLast bool) [][]byte {
	return SegmentTCPSums(super, l3, l4, mss, pshLast, nil)
}

// SegmentTCPSums is SegmentTCP for a caller that already summed the payload:
// sums[i] is the PartialSum of output segment i's payload bytes, so each TCP
// checksum costs the pseudo-header and the 20 header bytes, not a pass over
// the payload. Headers are always summed as they are now — TTL decrement and
// NAT between coalescing and here are picked up — but the payload bytes must
// be the ones that were summed. sums of any other length than the segment
// count (nil included) are ignored and every payload is summed from scratch.
func SegmentTCPSums(super []byte, l3, l4 int, mss int, pshLast bool, sums []uint16) [][]byte {
	hdrLen := l4 + TCPHdrLen
	if len(super) < hdrLen {
		return [][]byte{super}
	}
	payload, mss, n := segPlan(super, l3, hdrLen, mss)
	backing := make([]byte, n*hdrLen+len(payload))
	out, own := make([][]byte, n), make([]uint16, 0, 32)
	for i := range out {
		out[i] = backing[i*(hdrLen+mss):][:hdrLen+min(mss, len(payload)-i*mss)]
		own = append(own, PartialSum(payload[i*mss:][:copy(out[i][hdrLen:], payload[i*mss:])]))
	}
	if len(sums) != n {
		sums = own
	}
	ResegmentTCPInto(super, l3, l4, mss, pshLast, sums, out)
	return out
}

// ResegmentTCPInto is GSO into the frames the supersegment was coalesced
// from, each holding its payload behind a header of the super's length: it
// writes only headers (SegmentTCP's, checksummed from sums), so frames[i]
// ends up equal to SegmentTCP's segment i. The payload must be what sums was
// taken over. A frame count, frame length or sums length off the super's
// split returns false with frames untouched.
func ResegmentTCPInto(super []byte, l3, l4 int, mss int, pshLast bool, sums []uint16, frames [][]byte) bool {
	hdrLen := l4 + TCPHdrLen
	if len(super) < hdrLen {
		return false
	}
	payload, mss, n := segPlan(super, l3, hdrLen, mss)
	if len(frames) != n || len(sums) != n {
		return false
	}
	for i, f := range frames {
		if len(f) != hdrLen+min(mss, len(payload)-i*mss) {
			return false
		}
	}
	baseSeq, baseID, flags := TCPSeq(super, l4), IPv4ID(super, l3), TCPRawFlags(super, l4)&^TCPPsh
	for i, seg := range frames {
		copy(seg, super[:hdrLen])
		binary.BigEndian.PutUint16(seg[l3+2:l3+4], uint16(len(seg)-l3))
		binary.BigEndian.PutUint16(seg[l3+4:l3+6], baseID+uint16(i))
		binary.BigEndian.PutUint32(seg[l4+4:l4+8], baseSeq+uint32(i*mss))
		seg[l4+13] = byte(flags)
		if i == n-1 && pshLast {
			seg[l4+13] |= byte(TCPPsh)
		}
		// The IP header is the l4-l3 bytes the caller says it is, whatever
		// the frame's IHL nibble claims.
		seg[l3+10], seg[l3+11] = 0, 0
		binary.BigEndian.PutUint16(seg[l3+10:l3+12], Checksum(seg[l3:l4]))
		RecomputeTCPChecksumSum(seg, l3, l4, uint32(sums[i]))
	}
	return true
}

// segPlan splits a super whose headers end at hdrLen: its payload (the IP
// total length clamped to the bytes present), segment size and count.
func segPlan(super []byte, l3, hdrLen, mss int) ([]byte, int, int) {
	payload := super[hdrLen:max(hdrLen, min(len(super), l3+int(IPv4TotalLen(super, l3))))]
	if mss <= 0 || len(payload) <= mss {
		return payload, len(payload), 1
	}
	return payload, mss, (len(payload) + mss - 1) / mss
}
