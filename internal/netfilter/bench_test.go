package netfilter

import (
	"testing"

	"linuxfp/internal/packet"
)

// bench100 is a 100-rule FORWARD chain of /24 source drops and three packets:
// one the first rule drops, one the last rule drops, one that walks all 100.
func bench100(b *testing.B) (nf *Netfilter, first, last, miss *Meta) {
	nf = New()
	for i := 0; i < 100; i++ {
		p := packet.Prefix{Addr: packet.AddrFrom4(203, 0, byte(i), 0), Bits: 24}
		if err := nf.Append("FORWARD", Rule{Match: Match{Src: &p}, Target: VerdictDrop}); err != nil {
			b.Fatal(err)
		}
	}
	at := func(src string) *Meta {
		return &Meta{Src: packet.MustAddr(src), Dst: packet.MustAddr("1.1.1.1"), Proto: packet.ProtoUDP}
	}
	return nf, at("203.0.0.9"), at("203.0.99.9"), at("8.8.8.8")
}

var sinkVerdict Verdict

// BenchmarkChainEval100Rules times the evaluator through its two entries:
// hook/ is EvaluateHook (slow path and generic helper: generation check and
// snapshot load per packet), compiled/ a snapshot pinned once (the
// specialised op). One evaluator serves both, so the pairs should agree.
func BenchmarkChainEval100Rules(b *testing.B) {
	nf, first, last, miss := bench100(b)
	cp, ok := nf.Compile(HookForward)
	if !ok {
		b.Fatal("compile refused a jump-free chain")
	}
	for _, c := range []struct {
		name string
		m    *Meta
	}{{"first", first}, {"last", last}, {"miss", miss}} {
		b.Run("hook/"+c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sinkVerdict, _ = nf.EvaluateHook(HookForward, c.m)
			}
		})
		b.Run("compiled/"+c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sinkVerdict, _ = cp.Evaluate(c.m)
			}
		})
	}
}

// BenchmarkChainEval100RulesParallel walks the whole chain from every P at
// once, the way one evaluation per RX queue does: readers share nothing but
// the snapshot, so ns/op should not grow with -cpu.
func BenchmarkChainEval100RulesParallel(b *testing.B) {
	nf, _, _, miss := bench100(b)
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		m := *miss
		for pb.Next() {
			nf.EvaluateHook(HookForward, &m)
		}
	})
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
