package netfilter

import (
	"fmt"
	"testing"

	"linuxfp/internal/packet"
)

// gatewayChain is the gateway's FORWARD chain at n rules: /24 source drops
// on consecutive blocks of 203.0.0.0/8, the shape of Fig. 8's blacklist.
func gatewayChain(tb testing.TB, n int) *Netfilter {
	nf := New()
	for i := 0; i < n; i++ {
		if err := nf.Append("FORWARD", Rule{Match: Match{Src: gatewayPrefix(i)}, Target: VerdictDrop}); err != nil {
			tb.Fatal(err)
		}
	}
	return nf
}

func gatewayPrefix(i int) *packet.Prefix {
	return &packet.Prefix{Addr: packet.AddrFrom4(203, byte(i>>8), byte(i), 0), Bits: 24}
}

func udpFrom(src packet.Addr) *Meta {
	return &Meta{Src: src, Dst: packet.MustAddr("1.1.1.1"), Proto: packet.ProtoUDP}
}

var sinkVerdict Verdict

// BenchmarkChainEval times one EvaluateHook (generation check, snapshot
// load, walk) against the gateway chain at four sizes: miss/ is clean
// traffic, which no rule matches, and mid/ a packet the middle rule drops.
// A linear walk grows with the rule count on both; the classifier's cost is
// two binary searches plus a row AND of ⌈n/64⌉ words.
func BenchmarkChainEval(b *testing.B) {
	for _, n := range []int{1, 100, 500, 10000} {
		nf := gatewayChain(b, n)
		mid := udpFrom(gatewayPrefix(n/2).Addr + 9)
		for _, c := range []struct {
			name string
			m    *Meta
		}{{"miss", udpFrom(packet.MustAddr("8.8.8.8"))}, {"mid", mid}} {
			b.Run(fmt.Sprintf("rules=%d/%s", n, c.name), func(b *testing.B) {
				nf.EvaluateHook(HookForward, c.m) // the first walk builds the index
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					sinkVerdict, _ = nf.EvaluateHook(HookForward, c.m)
				}
			})
		}
	}
}

// BenchmarkChainEval100RulesParallel walks the whole chain from every P at
// once, the way one evaluation per RX queue does: readers share nothing but
// the snapshot, so ns/op should not grow with -cpu.
func BenchmarkChainEval100RulesParallel(b *testing.B) {
	nf := gatewayChain(b, 100)
	miss := udpFrom(packet.MustAddr("8.8.8.8"))
	nf.EvaluateHook(HookForward, miss)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		m := *miss
		for pb.Next() {
			nf.EvaluateHook(HookForward, &m)
		}
	})
}

// BenchmarkChainIndexBuild times what the first walk after a rule change
// pays: both axes of the gateway chain's index. index_bytes is what the
// index holds; its rows grow as n²/64 words per axis.
func BenchmarkChainIndexBuild(b *testing.B) {
	for _, n := range []int{100, 500, 10000} {
		b.Run(fmt.Sprintf("rules=%d", n), func(b *testing.B) {
			cp := gatewayChain(b, n).Snapshot(HookForward)
			recs := cp.chains[cp.entry]
			b.ReportAllocs()
			b.ResetTimer()
			var ix *chainIndex
			for i := 0; i < b.N; i++ {
				ix = newChainIndex(recs)
			}
			b.ReportMetric(float64(ix.src.bytes()+ix.dst.bytes()), "index_bytes")
		})
	}
}

func BenchmarkIpsetContains(b *testing.B) {
	s, _ := NewIPSet("bl", "hash:net")
	for i := 0; i < 1000; i++ {
		s.Add(packet.Prefix{Addr: packet.AddrFrom4(byte(i), byte(i>>2), 0, 0), Bits: 16})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Contains(packet.Addr(uint32(i) * 2654435761))
	}
}

func BenchmarkConntrackTrack(b *testing.B) {
	ct := NewConntrack()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ct.Track(Tuple{Src: packet.Addr(i % 512), Dst: 2, Proto: packet.ProtoTCP, SrcPort: uint16(i), DstPort: 80}, 0)
	}
}
