package packet

import (
	"math/rand"
	"testing"
)

// refSum is the 2-bytes-per-iteration loop sum() replaced, kept as the
// reference: with acc = 0 it cannot overflow below 128 KiB of input.
func refSum(b []byte, acc uint32) uint32 {
	n := len(b)
	for i := 0; i+1 < n; i += 2 {
		acc += uint32(b[i])<<8 | uint32(b[i+1])
	}
	if n%2 == 1 {
		acc += uint32(b[n-1]) << 8
	}
	return acc
}

// refChecksum finishes refSum(b, 0) plus a carry-in the way RFC 1071 says:
// end-around carries folded in 64 bits, so no carry-in can be lost.
func refChecksum(b []byte, acc uint32) uint16 {
	s := uint64(refSum(b, 0)) + uint64(acc)
	for s>>16 != 0 {
		s = s&0xffff + s>>16
	}
	return ^uint16(s)
}

// TestChecksumRFC1071 pins the worked example of RFC 1071 §3 and the two
// representations of zero.
func TestChecksumRFC1071(t *testing.T) {
	ex := []byte{0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7}
	if got := PartialSum(ex); got != 0xddf2 {
		t.Errorf("PartialSum(RFC 1071 example) = %#04x, want 0xddf2", got)
	}
	if got := Checksum(ex); got != 0x220d {
		t.Errorf("Checksum(RFC 1071 example) = %#04x, want 0x220d", got)
	}
	// The example with its own checksum appended verifies.
	if got := Checksum(append(ex[:8:8], 0x22, 0x0d)); got != 0 {
		t.Errorf("example + checksum verifies to %#04x, want 0", got)
	}
	// Odd length: the last byte is the high half of a zero-padded word.
	if got := PartialSum([]byte{0x12, 0x34, 0x56}); got != 0x1234+0x5600 {
		t.Errorf("odd-length sum = %#04x, want %#04x", got, 0x1234+0x5600)
	}
	if got := Checksum(nil); got != 0xffff {
		t.Errorf("Checksum(nil) = %#04x, want 0xffff", got)
	}
	// All-ones data sums to negative zero (0xffff), never to 0x0000.
	if got := PartialSum([]byte{0xff, 0xff, 0xff, 0xff}); got != 0xffff {
		t.Errorf("PartialSum(ff ff ff ff) = %#04x, want 0xffff", got)
	}
}

// TestSumMatchesReference holds the word-wide sum() to the old loop over
// every length 0…2100, every start offset 0…7 into an aligned buffer (so
// every alignment of the 8-byte loads and every tail shape occurs), three
// fills, and carry-ins up to the top of the accumulator's range.
func TestSumMatchesReference(t *testing.T) {
	const maxLen = 2100
	rng := rand.New(rand.NewSource(1))
	fills := map[string][]byte{
		"random": make([]byte, maxLen+8),
		"ones":   make([]byte, maxLen+8),
		"zeros":  make([]byte, maxLen+8),
	}
	rng.Read(fills["random"])
	for i := range fills["ones"] {
		fills["ones"][i] = 0xff
	}
	accs := []uint32{0, 1, 0xffff, 0x10000, 0x7fff_ffff, 0xffff_0000, 0xffff_fffe, 0xffff_ffff}
	for name, buf := range fills {
		for off := 0; off < 8; off++ {
			for n := 0; n <= maxLen; n++ {
				b := buf[off : off+n]
				if got, want := Checksum(b), refChecksum(b, 0); got != want {
					t.Fatalf("%s off=%d len=%d: Checksum = %#04x, reference %#04x", name, off, n, got, want)
				}
				acc := accs[(off+n)%len(accs)]
				got := sum(b, acc)
				if got > 0xffff {
					t.Fatalf("%s off=%d len=%d acc=%#x: sum = %#x is not folded", name, off, n, acc, got)
				}
				if want := refChecksum(b, acc); ^uint16(got) != want {
					t.Fatalf("%s off=%d len=%d acc=%#x: sum = %#04x, reference %#04x", name, off, n, acc, ^uint16(got), want)
				}
			}
		}
	}
}

// TestPartialSumsCompose is what GRO and GSO rely on: a checksum built from
// the pieces' PartialSums — each placed with SumAt at its offset — equals
// the checksum over the concatenation, at even and at odd offsets.
func TestPartialSumsCompose(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	src, dst := AddrFrom4(10, 1, 0, 1), AddrFrom4(10, 2, 0, 9)
	for _, piece := range []int{1, 3, 64, 1447, 1448} {
		for pieces := 1; pieces <= 17; pieces++ {
			hdr := make([]byte, TCPHdrLen)
			payload := make([]byte, 0, piece*pieces)
			rng.Read(hdr)
			var total uint32
			for i := 0; i < pieces; i++ {
				n := piece
				if i == pieces-1 {
					n = 1 + rng.Intn(piece) // undersized tail, odd or even
				}
				p := make([]byte, n)
				rng.Read(p)
				total += uint32(SumAt(PartialSum(p), len(payload)))
				payload = append(payload, p...)
			}
			want := ChecksumWithPseudo(src, dst, ProtoTCP, append(hdr[:TCPHdrLen:TCPHdrLen], payload...))
			if got := ChecksumWithPseudoSum(src, dst, ProtoTCP, hdr, total, len(payload)); got != want {
				t.Fatalf("piece=%d pieces=%d: composed %#04x, one pass %#04x", piece, pieces, got, want)
			}
		}
	}
}

// FuzzChecksum: the word-wide sum agrees with the reference loop on any
// bytes at any alignment and with any carry-in.
func FuzzChecksum(f *testing.F) {
	f.Add([]byte{}, uint8(0), uint32(0))
	f.Add([]byte{0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7}, uint8(0), uint32(0))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}, uint8(1), uint32(0xffff_ffff))
	f.Add(katFrame(0x1234, 100, "abcd"), uint8(EthHdrLen), uint32(0x8172))
	f.Add(make([]byte, 1500), uint8(3), uint32(1))
	f.Fuzz(func(t *testing.T, b []byte, off uint8, acc uint32) {
		if int(off) > len(b) {
			off = uint8(len(b))
		}
		b = b[off:]
		if len(b) > 1<<16 {
			b = b[:1<<16]
		}
		if got, want := Checksum(b), refChecksum(b, 0); got != want {
			t.Fatalf("Checksum = %#04x, reference %#04x (len %d)", got, want, len(b))
		}
		if got, want := ^uint16(sum(b, acc)), refChecksum(b, acc); got != want {
			t.Fatalf("sum with acc %#x = %#04x, reference %#04x (len %d)", acc, got, want, len(b))
		}
	})
}
