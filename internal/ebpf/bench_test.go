package ebpf

import (
	"testing"

	"linuxfp/internal/kernel"
	"linuxfp/internal/netdev"
	"linuxfp/internal/sim"
)

func BenchmarkProgramRun8Ops(b *testing.B) {
	p := &Program{Name: "bench", Hook: HookXDP, Default: VerdictPass}
	for i := 0; i < 8; i++ {
		p.Ops = append(p.Ops, NewOp("nop", 4, 0, 8, func(*Ctx) Verdict { return VerdictNext }))
	}
	ctx := &Ctx{Meter: &sim.Meter{}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.run(ctx)
	}
}

func BenchmarkTailCallChain(b *testing.B) {
	pa := NewProgArray("chain", 4)
	final := &Program{Name: "final", Hook: HookXDP, Ops: []Op{
		NewOp("end", 4, 0, 8, func(*Ctx) Verdict { return VerdictPass }),
	}}
	pa.Update(3, final)
	for i := 2; i >= 0; i-- {
		slot := i + 1
		pa.Update(i, &Program{Name: "link", Hook: HookXDP, Ops: []Op{
			NewOp("tail", 0, CapTailCall, 4, func(c *Ctx) Verdict { return c.TailCall(pa, slot) }),
		}})
	}
	entry := pa.Lookup(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx := &Ctx{Meter: &sim.Meter{}}
		entry.run(ctx)
	}
}

func BenchmarkDispatcherSwap(b *testing.B) {
	pa := NewProgArray("d", 1)
	p1 := &Program{Name: "a", Hook: HookXDP}
	p2 := &Program{Name: "b", Hook: HookXDP}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%2 == 0 {
			pa.Update(0, p1)
		} else {
			pa.Update(0, p2)
		}
	}
}

// benchProgram8Ops builds the 8-op bench program with specializer hooks on
// half the ops: four are elided under specialization, so the specialized
// body executes (and meters) half the chain.
func benchProgram8Ops() *Program {
	p := &Program{Name: "bench", Hook: HookXDP, Default: VerdictPass}
	for i := 0; i < 8; i++ {
		op := NewOp("nop", 4, 0, 8, func(*Ctx) Verdict { return VerdictNext })
		if i%2 == 1 {
			op = op.WithSpecializer(func(*SpecEnv) SpecResult { return SpecResult{Elide: true} })
		}
		p.Ops = append(p.Ops, op)
	}
	return p
}

// benchExec runs the program through Program.exec with the jit/spec flags
// set per form — the per-Op dispatch and metering overhead the fusion stage
// removes, and the dead ops the specializer removes on top, isolated from
// packet work.
func benchExec(b *testing.B, jit, spec bool) {
	p := benchProgram8Ops()
	p.jit.Store(fuse(p))
	p.spec.Store(specialize(p, &SpecEnv{Hook: p.Hook}))
	ctx := &Ctx{Meter: &sim.Meter{}, jit: jit, spec: spec}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.exec(ctx)
	}
}

func BenchmarkProgramInterpreted8Ops(b *testing.B) { benchExec(b, false, false) }

func BenchmarkProgramJIT8Ops(b *testing.B) { benchExec(b, true, false) }

func BenchmarkProgramSpecialized8Ops(b *testing.B) { benchExec(b, true, true) }

// TestSpecializedHotPathZeroAlloc pins the specialized fast path at zero
// allocations per packet: a Load-time pass that made the per-packet path
// allocate would trade the win it measures away.
func TestSpecializedHotPathZeroAlloc(t *testing.T) {
	p := benchProgram8Ops()
	p.jit.Store(fuse(p))
	p.spec.Store(specialize(p, &SpecEnv{Hook: p.Hook}))
	ctx := &Ctx{Meter: &sim.Meter{}, jit: true, spec: true}
	if avg := testing.AllocsPerRun(200, func() { p.exec(ctx) }); avg != 0 {
		t.Fatalf("specialized hot path allocates %.1f per exec, want 0", avg)
	}
}

// BenchmarkXDPBatchPerFrame is one 64-frame NAPI poll through a one-op
// program, so the per-frame figure is the batch adapter's own overhead:
// starting each frame's context and mapping its verdict. ns/frame is the
// number to watch.
func BenchmarkXDPBatchPerFrame(b *testing.B) {
	k := kernel.New("bench")
	p := &Program{Name: "pass", Hook: HookXDP, Ops: []Op{
		NewOp("pass", 1, 0, 1, func(*Ctx) Verdict { return VerdictPass }),
	}}
	if _, err := NewLoader(k).Load(p); err != nil {
		b.Fatal(err)
	}
	a := &xdpAdapter{k: k, prog: p}
	const poll = netdev.NAPIBudget
	var m sim.Meter
	frame := make([]byte, 64)
	bufs := make([]*netdev.XDPBuff, poll)
	acts := make([]netdev.XDPAction, poll)
	for i := range bufs {
		bufs[i] = &netdev.XDPBuff{Data: frame, IfIndex: 1, Meter: &m}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.HandleXDPBatch(bufs, acts)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*poll), "ns/frame")
}
