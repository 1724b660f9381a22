package packet

import (
	"encoding/binary"
	"math/bits"
)

// Checksum computes the Internet checksum (RFC 1071) over b.
func Checksum(b []byte) uint16 {
	return ^uint16(sum(b, 0))
}

// ChecksumWithPseudo computes a transport checksum including the IPv4
// pseudo-header (RFC 793 / RFC 768).
func ChecksumWithPseudo(src, dst Addr, proto uint8, payload []byte) uint16 {
	return ^uint16(sum(payload, pseudoSum(src, dst, proto, len(payload))))
}

// PartialSum returns the folded, not yet complemented sum of b: what
// ChecksumWithPseudoSum takes in place of a second pass over the bytes.
func PartialSum(b []byte) uint16 {
	return uint16(sum(b, 0))
}

// SumAt returns a PartialSum as it counts when its bytes start at offset off
// of the summed data: byte-swapped at an odd offset (RFC 1071 §2(B)).
func SumAt(s uint16, off int) uint16 {
	if off&1 != 0 {
		return bits.ReverseBytes16(s)
	}
	return s
}

// ChecksumWithPseudoSum is ChecksumWithPseudo over a segment whose payload
// was summed earlier: only hdr (of even length) is read; the payLen bytes
// behind it enter as paySum, the PartialSum (or wider running total of
// SumAt-placed PartialSums) of exactly those bytes.
func ChecksumWithPseudoSum(src, dst Addr, proto uint8, hdr []byte, paySum uint32, payLen int) uint16 {
	return ^uint16(sum(hdr, pseudoSum(src, dst, proto, len(hdr)+payLen)+paySum))
}

// pseudoSum is the unfolded sum of the IPv4 pseudo-header's six words.
func pseudoSum(src, dst Addr, proto uint8, l4len int) uint32 {
	return uint32(src>>16) + uint32(src&0xffff) + uint32(dst>>16) + uint32(dst&0xffff) +
		uint32(proto) + uint32(l4len)
}

// sum adds the one's-complement sum of b's big-endian 16-bit words (an odd
// last byte padded with zero) to acc and returns the total folded to 16
// bits. Eight bytes are added per load into a 64-bit accumulator whose
// carry-out is chained into the next add; 2^64, 2^32 and 2^16 are all
// congruent to 1 modulo 0xffff, so folding the halves and the last carry
// together preserves the sum.
func sum(b []byte, acc uint32) uint32 {
	s, c := uint64(acc), uint64(0)
	for len(b) >= 32 {
		s, c = bits.Add64(s, binary.BigEndian.Uint64(b), c)
		s, c = bits.Add64(s, binary.BigEndian.Uint64(b[8:]), c)
		s, c = bits.Add64(s, binary.BigEndian.Uint64(b[16:]), c)
		s, c = bits.Add64(s, binary.BigEndian.Uint64(b[24:]), c)
		b = b[32:]
	}
	for len(b) >= 8 {
		s, c = bits.Add64(s, binary.BigEndian.Uint64(b), c)
		b = b[8:]
	}
	s = s>>32 + s&0xffffffff + c
	if len(b) >= 4 {
		s += uint64(binary.BigEndian.Uint32(b))
		b = b[4:]
	}
	if len(b) >= 2 {
		s += uint64(binary.BigEndian.Uint16(b))
		b = b[2:]
	}
	if len(b) == 1 {
		s += uint64(b[0]) << 8
	}
	// s < 2^34 here: three folds reach 16 bits.
	s = s>>16 + s&0xffff
	s = s>>16 + s&0xffff
	s = s>>16 + s&0xffff
	return uint32(s)
}

// ChecksumUpdate16 incrementally updates checksum hc for a 16-bit field that
// changed from old to new (RFC 1624, eqn. 3: HC' = ~(~HC + ~m + m')).
// This is what the fast path uses for TTL decrement — recomputing the full
// header checksum per packet would defeat the point of a fast path.
func ChecksumUpdate16(hc uint16, old, new uint16) uint16 {
	acc := uint32(^hc) + uint32(^old) + uint32(new)
	for acc>>16 != 0 {
		acc = acc&0xffff + acc>>16
	}
	return ^uint16(acc)
}
