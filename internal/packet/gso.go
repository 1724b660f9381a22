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
	payload := super[hdrLen:max(hdrLen, min(len(super), l3+int(IPv4TotalLen(super, l3))))]
	if mss <= 0 || len(payload) <= mss {
		mss = len(payload)
	}
	n := 1
	if mss > 0 {
		n = (len(payload) + mss - 1) / mss
	}
	if len(sums) != n {
		sums = nil
	}
	backing := make([]byte, 0, n*hdrLen+len(payload))
	out := make([][]byte, 0, n)
	baseSeq := TCPSeq(super, l4)
	baseID := IPv4ID(super, l3)
	flags := TCPRawFlags(super, l4)
	for i, off := 0, 0; i < n; i, off = i+1, off+mss {
		end := min(off+mss, len(payload))
		start := len(backing)
		backing = append(backing, super[:hdrLen]...)
		backing = append(backing, payload[off:end]...)
		seg := backing[start:]
		binary.BigEndian.PutUint16(seg[l3+2:l3+4], uint16(hdrLen-l3+(end-off)))
		binary.BigEndian.PutUint16(seg[l3+4:l3+6], baseID+uint16(i))
		binary.BigEndian.PutUint32(seg[l4+4:l4+8], baseSeq+uint32(off))
		f := flags &^ TCPPsh
		if i == n-1 && pshLast {
			f |= TCPPsh
		}
		seg[l4+13] = byte(f)
		// The IP header is the l4-l3 bytes the caller says it is, whatever
		// the frame's IHL nibble claims.
		seg[l3+10], seg[l3+11] = 0, 0
		binary.BigEndian.PutUint16(seg[l3+10:l3+12], Checksum(seg[l3:l4]))
		if sums != nil {
			RecomputeTCPChecksumSum(seg, l3, l4, uint32(sums[i]))
		} else {
			RecomputeTCPChecksum(seg, l3, l4)
		}
		out = append(out, seg)
	}
	return out
}
