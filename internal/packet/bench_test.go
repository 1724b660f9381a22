package packet

import "testing"

func benchFrame() []byte {
	u := UDP{SrcPort: 1000, DstPort: 2000}
	src, dst := MustAddr("10.0.1.1"), MustAddr("10.0.2.1")
	return BuildIPv4(
		Ethernet{Dst: MustHWAddr("aa:00:00:00:00:02"), Src: MustHWAddr("aa:00:00:00:00:01"), EtherType: EtherTypeIPv4},
		IPv4{TTL: 64, Proto: ProtoUDP, Src: src, Dst: dst},
		u.Marshal(nil, src, dst, make([]byte, 18)),
	)
}

func BenchmarkDecode(b *testing.B) {
	f := benchFrame()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(f); err != nil {
			b.Fatal(err)
		}
	}
}

var sinkSum uint16

// benchChecksum sums n bytes: 20 is the IPv4 header the fast path verifies on
// every frame, 64 a small-packet L4 checksum, 1448 one MSS of bulk TCP.
func benchChecksum(b *testing.B, n int) {
	buf := make([]byte, n)
	for i := range buf {
		buf[i] = byte(i*7 + 1)
	}
	b.SetBytes(int64(n))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkSum = Checksum(buf)
	}
}

func BenchmarkChecksum20(b *testing.B)   { benchChecksum(b, 20) }
func BenchmarkChecksum64(b *testing.B)   { benchChecksum(b, 64) }
func BenchmarkChecksum1448(b *testing.B) { benchChecksum(b, 1448) }
func BenchmarkChecksum1500(b *testing.B) { benchChecksum(b, 1500) }

// BenchmarkSegmentTCP16x1448 splits the supersegment bulk_gro1448 builds: 16
// full segments, every output checksum computed from scratch.
func BenchmarkSegmentTCP16x1448(b *testing.B) {
	l3, l4 := EthHdrLen, EthHdrLen+IPv4MinLen
	payload := make([]byte, 16*1448)
	for i := range payload {
		payload[i] = byte(i*13 + 5)
	}
	super := katFrame(0x1234, 100, string(payload))
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(SegmentTCP(super, l3, l4, 1448, false)) != 16 {
			b.Fatal("want 16 segments")
		}
	}
}

func BenchmarkDecTTLIncremental(b *testing.B) {
	f := benchFrame()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f[EthHdrLen+8] = 64 // restore TTL so the loop is steady-state
		DecTTL(f, EthHdrLen)
	}
}
