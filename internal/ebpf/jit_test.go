package ebpf

import (
	"fmt"
	"reflect"
	"testing"
	"unsafe"

	"linuxfp/internal/kernel"
	"linuxfp/internal/netdev"
	"linuxfp/internal/packet"
	"linuxfp/internal/sim"
)

// jitParityProg builds a program whose ops exercise every exit shape:
// early termination, a self-metering non-FuncOp, and the fallthrough
// default.
type recordingOp struct{ calls *int }

func (o recordingOp) Name() string     { return "opaque" }
func (o recordingOp) Cost() sim.Cycles { return 7 }
func (o recordingOp) Caps() Cap        { return 0 }
func (o recordingOp) Insns() int       { return 3 }
func (o recordingOp) Run(c *Ctx) Verdict {
	c.Meter.Charge(7)
	*o.calls = *o.calls + 1
	return VerdictNext
}

func TestJITCycleParityWithInterpreter(t *testing.T) {
	// For every terminal position, the fused run must charge byte-identical
	// model cycles to the interpreted walk: the costs model kernel work, not
	// interpreter overhead, and the calibration tests pin exact totals.
	verdicts := []Verdict{VerdictPass, VerdictDrop, VerdictTX, VerdictRedirect, VerdictAborted}
	for term := 0; term <= 4; term++ {
		for _, tv := range verdicts {
			var opaqueCalls int
			mk := func(i int) Op {
				if i == 2 {
					return recordingOp{calls: &opaqueCalls}
				}
				v := VerdictNext
				if i == term {
					v = tv
				}
				return NewOp(fmt.Sprintf("op%d", i), sim.Cycles(10*(i+1)), 0, 4, func(*Ctx) Verdict { return v })
			}
			p := &Program{Name: "parity", Hook: HookXDP, Ops: []Op{mk(0), mk(1), mk(2), mk(3), mk(4)}}
			j := fuse(p)
			p.jit.Store(j)

			mi, mj := &sim.Meter{}, &sim.Meter{}
			vi := p.run(&Ctx{Meter: mi})
			vj := j.run(&Ctx{Meter: mj})
			if vi != vj {
				t.Fatalf("term=%d %v: verdict interpreted=%v jit=%v", term, tv, vi, vj)
			}
			if mi.Total != mj.Total {
				t.Fatalf("term=%d %v: cycles interpreted=%v jit=%v", term, tv, mi.Total, mj.Total)
			}
		}
	}
}

func TestJITFallthroughParity(t *testing.T) {
	for _, def := range []Verdict{VerdictNext, VerdictPass, VerdictDrop} {
		p := &Program{Name: "fall", Hook: HookXDP, Default: def, Ops: []Op{
			NewOp("a", 11, 0, 4, func(*Ctx) Verdict { return VerdictNext }),
			NewOp("b", 13, 0, 4, func(*Ctx) Verdict { return VerdictNext }),
		}}
		j := fuse(p)
		p.jit.Store(j)
		mi, mj := &sim.Meter{}, &sim.Meter{}
		vi, vj := p.run(&Ctx{Meter: mi}), j.run(&Ctx{Meter: mj})
		if vi != vj || mi.Total != mj.Total {
			t.Fatalf("default=%v: interpreted (%v, %v) vs jit (%v, %v)", def, vi, mi.Total, vj, mj.Total)
		}
	}
}

func TestLoadBuildsJITAggregates(t *testing.T) {
	k := kernel.New("t")
	l := NewLoader(k)
	p := &Program{Name: "agg", Hook: HookXDP, Ops: []Op{
		NewOp("a", 100, 0, 10, func(*Ctx) Verdict { return VerdictNext }),
		NewOp("b", 200, 0, 20, func(*Ctx) Verdict { return VerdictNext }),
	}}
	if _, err := l.Load(p); err != nil {
		t.Fatal(err)
	}
	if p.JITInsns() != 30 {
		t.Fatalf("JITInsns = %d, want 30", p.JITInsns())
	}
	if p.JITCost() != 300 {
		t.Fatalf("JITCost = %v, want 300", p.JITCost())
	}
}

func TestBPFJITEnableSysctl(t *testing.T) {
	k := kernel.New("t")
	if !k.BPFJITEnabled() {
		t.Fatal("bpf_jit_enable must default on")
	}
	k.SetSysctl("net.core.bpf_jit_enable", "0")
	if k.BPFJITEnabled() {
		t.Fatal("sysctl off ignored")
	}
	k.SetSysctl("net.core.bpf_jit_enable", "1")
	if !k.BPFJITEnabled() {
		t.Fatal("sysctl on ignored")
	}
}

func TestJITTailCallParity(t *testing.T) {
	// A fused dispatcher must tail-call into the fused callee and produce the
	// same cycles and verdict as the interpreted chain.
	k := kernel.New("t")
	l := NewLoader(k)
	pa := NewProgArray("table", 1)
	callee := &Program{Name: "callee", Hook: HookXDP, Ops: []Op{
		NewOp("body", 77, 0, 8, func(*Ctx) Verdict { return VerdictDrop }),
	}}
	if _, err := l.Load(callee); err != nil {
		t.Fatal(err)
	}
	pa.Update(0, callee)
	entry := &Program{Name: "entry", Hook: HookXDP, Ops: []Op{
		NewOp("tail", 0, CapTailCall, 4, func(c *Ctx) Verdict { return c.TailCall(pa, 0) }),
	}, Default: VerdictPass}
	if _, err := l.Load(entry); err != nil {
		t.Fatal(err)
	}

	mi, mj := &sim.Meter{}, &sim.Meter{}
	vi := entry.exec(&Ctx{Meter: mi, jit: false})
	vj := entry.exec(&Ctx{Meter: mj, jit: true})
	if vi != VerdictDrop || vj != VerdictDrop {
		t.Fatalf("verdicts %v / %v, want drop", vi, vj)
	}
	if mi.Total != mj.Total {
		t.Fatalf("cycles interpreted=%v jit=%v", mi.Total, mj.Total)
	}
}

func TestBatchHandlerMatchesPerPacket(t *testing.T) {
	// The batch adapter must yield the same actions and redirect targets as
	// per-packet HandleXDP, with the reduced entry cost for frames 2..n.
	k := kernel.New("t")
	l := NewLoader(k)
	p := &Program{Name: "mix", Hook: HookXDP, Ops: []Op{
		NewOp("classify", 50, CapRedirect, 16, func(c *Ctx) Verdict {
			switch c.XDP.Data[0] % 4 {
			case 0:
				return VerdictDrop
			case 1:
				return VerdictTX
			case 2:
				c.RedirectIfIndex = 7
				return VerdictRedirect
			default:
				return VerdictPass
			}
		}),
	}}
	if _, err := l.Load(p); err != nil {
		t.Fatal(err)
	}
	a := &xdpAdapter{k: k, prog: p}

	const n = 16
	var m sim.Meter
	bufs := make([]*netdev.XDPBuff, n)
	acts := make([]netdev.XDPAction, n)
	for i := range bufs {
		bufs[i] = &netdev.XDPBuff{Data: []byte{byte(i)}, IfIndex: 1, Meter: &m}
	}
	a.HandleXDPBatch(bufs, acts)

	wantCycles := float64(sim.CostXDPPrologue) + float64(n-1)*float64(sim.CostXDPBatchEntry) + n*50
	if got := float64(m.Total); got != wantCycles {
		t.Fatalf("batch cycles = %v, want %v", got, wantCycles)
	}
	for i := 0; i < n; i++ {
		var pm sim.Meter
		buff := &netdev.XDPBuff{Data: []byte{byte(i)}, IfIndex: 1, Meter: &pm}
		want := a.HandleXDP(buff)
		if acts[i] != want {
			t.Fatalf("frame %d: batch action %v, per-packet %v", i, acts[i], want)
		}
		if want == netdev.XDPRedirect && bufs[i].RedirectTo != buff.RedirectTo {
			t.Fatalf("frame %d: redirect target %d vs %d", i, bufs[i].RedirectTo, buff.RedirectTo)
		}
	}

	// Lane leak: one context serves the whole poll, so nothing a frame's run
	// wrote may be visible to the next frame. Setter frames tail-call into a
	// program that sets every output; the frames after them punt at the
	// first op, which aborts instead if it finds any output already set.
	cm := NewCPUMap("leak_cpumap", k)
	xm := NewXSKMap("leak_xskmap", 4)
	pa := NewProgArray("leak_pa", 1)
	setAll := &Program{Name: "set_all", Hook: HookXDP, Ops: []Op{
		NewOp("set_all", 7, CapRedirect|CapHelperFIB, 16, func(c *Ctx) Verdict {
			c.FIB = FIBResult{EgressIfIndex: 9, SrcMAC: packet.HWAddr{2, 0, 0, 0, 0, 1}, DstMAC: packet.HWAddr{2, 0, 0, 0, 0, 2}}
			c.FIBOk = true
			c.RedirectIfIndex = 9
			c.RedirectCPUMap, c.RedirectCPU = cm, 3
			c.RedirectXSKMap, c.RedirectXSKSlot = xm, 2
			c.IPDst, c.TTL, c.L3Off = 0x0a000001, 64, 14
			return VerdictRedirect
		}),
	}}
	if _, err := l.Load(setAll); err != nil {
		t.Fatal(err)
	}
	pa.Update(0, setAll)
	leak := &Program{Name: "leak", Hook: HookXDP, Ops: []Op{
		NewOp("punt_unless_setter", 5, CapTailCall, 8, func(c *Ctx) Verdict {
			if c.FIBOk || c.FIB != (FIBResult{}) || c.RedirectIfIndex != 0 ||
				c.RedirectCPUMap != nil || c.RedirectCPU != 0 ||
				c.RedirectXSKMap != nil || c.RedirectXSKSlot != 0 ||
				c.depth != 0 || c.IPDst != 0 || c.TTL != 0 || c.L3Off != 0 {
				return VerdictAborted
			}
			if c.XDP.Data[0] == 1 {
				return c.TailCall(pa, 0)
			}
			return VerdictPass
		}),
	}}
	if _, err := l.Load(leak); err != nil {
		t.Fatal(err)
	}
	la := &xdpAdapter{k: k, prog: leak}
	kinds := []byte{1, 0, 0, 1, 1, 0, 1, 0, 0, 0, 1, 0}
	var lm sim.Meter
	bufs, acts = bufs[:0], make([]netdev.XDPAction, len(kinds))
	for _, kind := range kinds {
		bufs = append(bufs, &netdev.XDPBuff{Data: []byte{kind}, IfIndex: 1, Meter: &lm})
	}
	la.HandleXDPBatch(bufs, acts)
	for i, kind := range kinds {
		var pm sim.Meter
		buff := &netdev.XDPBuff{Data: []byte{kind}, IfIndex: 1, Meter: &pm}
		want := la.HandleXDP(buff)
		wantKind := netdev.XDPPass
		if kind == 1 {
			wantKind = netdev.XDPRedirect
		}
		if want != wantKind || acts[i] != want {
			t.Fatalf("frame %d (setter=%v): batch %v, per-packet %v, want %v", i, kind == 1, acts[i], want, wantKind)
		}
		got := *bufs[i]
		got.Meter, buff.Meter = nil, nil
		if !reflect.DeepEqual(got, *buff) {
			t.Fatalf("frame %d: batch buff %+v, per-packet %+v", i, got, *buff)
		}
	}
}

// TestCtxResetClearsPerFrameState fills every field of a Ctx and resets it:
// only the poll-invariant fields that bind sets may survive. A field added
// to Ctx is per-frame state, and reset clears it, unless it is named here
// and kept by reset.
func TestCtxResetClearsPerFrameState(t *testing.T) {
	pollInvariant := map[string]bool{"Kernel": true, "Hook": true, "jit": true, "spec": true}
	var c Ctx
	v := reflect.ValueOf(&c).Elem()
	for i := 0; i < v.NumField(); i++ {
		fillNonZero(t, settable(v.Field(i)))
	}
	filled := c
	c.reset(nil, 0, nil, nil)
	typ := v.Type()
	fv := reflect.ValueOf(&filled).Elem()
	for i := 0; i < v.NumField(); i++ {
		name := typ.Field(i).Name
		if pollInvariant[name] {
			if !reflect.DeepEqual(settable(v.Field(i)).Interface(), settable(fv.Field(i)).Interface()) {
				t.Errorf("poll-invariant field %s changed by reset", name)
			}
			continue
		}
		if !v.Field(i).IsZero() {
			t.Errorf("per-frame field %s survives reset", name)
		}
	}
}

// settable makes an unexported struct field writable through reflection.
func settable(f reflect.Value) reflect.Value {
	return reflect.NewAt(f.Type(), unsafe.Pointer(f.UnsafeAddr())).Elem()
}

// fillNonZero stores a non-zero value of v's type into v.
func fillNonZero(t *testing.T, v reflect.Value) {
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(1)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		v.SetUint(1)
	case reflect.Float32, reflect.Float64:
		v.SetFloat(1)
	case reflect.String:
		v.SetString("x")
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 1, 1))
	case reflect.Map:
		v.Set(reflect.MakeMap(v.Type()))
	case reflect.Array:
		fillNonZero(t, v.Index(0))
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fillNonZero(t, settable(v.Field(i)))
		}
	default:
		t.Fatalf("fillNonZero: no filler for kind %v (%v)", v.Kind(), v.Type())
	}
}

func TestPerCPUArrayMapIsolatesCPUs(t *testing.T) {
	m := NewPerCPUArrayMap("pc", 4)
	m.Add(0, 2, 5)
	m.Add(1, 2, 7)
	m.Add(63, 2, 1)
	if got := m.Lookup(0, 2); got != 5 {
		t.Fatalf("cpu0 = %d, want 5", got)
	}
	if got := m.Lookup(1, 2); got != 7 {
		t.Fatalf("cpu1 = %d, want 7", got)
	}
	if got := m.Sum(2); got != 13 {
		t.Fatalf("sum = %d, want 13", got)
	}
	if got := m.Sum(3); got != 0 {
		t.Fatalf("untouched slot sum = %d", got)
	}
	// Out-of-range slots are ignored/zero, like a missing array element.
	m.Add(0, 99, 1)
	if got := m.Lookup(0, 99); got != 0 {
		t.Fatalf("oob lookup = %d", got)
	}
	if m.Len() != 4 || m.Name() != "pc" {
		t.Fatalf("metadata: len=%d name=%q", m.Len(), m.Name())
	}
	// CPU ids past MapCPUs fold onto a valid shard instead of faulting.
	m.Add(MapCPUs+1, 0, 3)
	if got := m.Lookup(1, 0); got != 3 {
		t.Fatalf("cpu fold: got %d, want 3", got)
	}
}

func TestPerCPUHashMapShardsAndBounds(t *testing.T) {
	h := NewPerCPUHashMap("conns", 2)
	if !h.Update(0, 42, 1) || !h.Update(1, 42, 2) {
		t.Fatal("update failed")
	}
	if v, ok := h.Lookup(0, 42); !ok || v != 1 {
		t.Fatalf("cpu0 lookup = %d/%v", v, ok)
	}
	if v, ok := h.Lookup(1, 42); !ok || v != 2 {
		t.Fatalf("cpu1 lookup = %d/%v", v, ok)
	}
	if got := h.Sum(42); got != 3 {
		t.Fatalf("sum = %d, want 3", got)
	}
	// The bound is per CPU: cpu0 fills at 2 entries, cpu1 still has room.
	h.Update(0, 43, 1)
	if h.Update(0, 44, 1) {
		t.Fatal("cpu0 over bound accepted")
	}
	if !h.Update(1, 44, 1) {
		t.Fatal("cpu1 rejected despite room")
	}
	h.Add(1, 44, 9)
	if v, _ := h.Lookup(1, 44); v != 10 {
		t.Fatalf("add: %d, want 10", v)
	}
	if !h.Delete(1, 44) || h.Delete(1, 44) {
		t.Fatal("delete semantics")
	}
	if h.Len() != 3 {
		t.Fatalf("len = %d, want 3", h.Len())
	}
}
