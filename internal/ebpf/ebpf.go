// Package ebpf models the kernel's eBPF execution environment at the level
// LinuxFP uses it: programs composed of ops (the synthesized snippets),
// XDP and TC attach points with different capability sets, a verifier, maps
// (including the program array that powers atomic tail-call swaps), and the
// kernel helpers — bpf_fib_lookup plus the paper's new bpf_fdb_lookup and
// bpf_ipt_lookup — that read kernel state directly instead of shadow maps.
package ebpf

import (
	"fmt"
	"sync/atomic"

	"linuxfp/internal/kernel"
	"linuxfp/internal/netdev"
	"linuxfp/internal/packet"
	"linuxfp/internal/sim"
)

// Hook is an eBPF attach point.
type Hook int

// Attach points.
const (
	HookXDP Hook = iota + 1
	HookTCIngress
	HookTCEgress
	HookSKSKBParser  // sk_skb stream parser (BPF_SK_SKB_STREAM_PARSER)
	HookSKSKBVerdict // sk_skb stream verdict (BPF_SK_SKB_STREAM_VERDICT)
)

func (h Hook) String() string {
	switch h {
	case HookXDP:
		return "xdp"
	case HookTCIngress:
		return "tc-ingress"
	case HookTCEgress:
		return "tc-egress"
	case HookSKSKBParser:
		return "sk_skb-parser"
	case HookSKSKBVerdict:
		return "sk_skb-verdict"
	default:
		return fmt.Sprintf("hook(%d)", int(h))
	}
}

// Cap is a bitmask of capabilities an op requires from its hook.
type Cap uint32

// Capabilities.
const (
	CapSKB       Cap = 1 << iota // needs sk_buff fields (TC hooks only)
	CapHelperFIB                 // bpf_fib_lookup available
	CapHelperFDB                 // bpf_fdb_lookup (new helper)
	CapHelperIpt                 // bpf_ipt_lookup (new helper)
	CapTailCall
	CapRedirect
	CapAdjustHead // packet headroom manipulation (encap)
	CapHelperIPVS // bpf_ipvs_lookup (new helper, Table I's LB row)
	CapRingbuf    // bpf_ringbuf_output (event stream to userspace)
)

// Verdict is an op outcome inside a program.
type Verdict int

// Verdicts. VerdictNext continues to the following op; the rest terminate
// the program.
const (
	VerdictNext Verdict = iota
	VerdictPass         // hand the packet to the kernel slow path
	VerdictDrop
	VerdictTX       // bounce out the receiving interface
	VerdictRedirect // transmit on ctx.RedirectIfIndex
	VerdictAborted  // runtime fault (bounds violation)
)

func (v Verdict) String() string {
	switch v {
	case VerdictNext:
		return "next"
	case VerdictPass:
		return "pass"
	case VerdictDrop:
		return "drop"
	case VerdictTX:
		return "tx"
	case VerdictRedirect:
		return "redirect"
	case VerdictAborted:
		return "aborted"
	default:
		return fmt.Sprintf("verdict(%d)", int(v))
	}
}

// MaxTailCalls matches the kernel's tail-call depth limit.
const MaxTailCalls = 33

// Ctx is the execution context of one program run: the packet plus scratch
// state the parse ops populate for downstream ops (in real eBPF these are
// registers/stack; here they are typed fields).
//
// A runner keeps one Ctx for a whole NAPI poll, as the kernel's driver loop
// keeps one xdp_buff: bind sets the poll-invariant fields (Kernel, Hook and
// the JIT switches) once, and reset starts each frame. Every other field is
// per-frame state.
type Ctx struct {
	Kernel  *kernel.Kernel
	Meter   *sim.Meter
	Hook    Hook
	IfIndex int

	// Exactly one of these is set, matching the hook.
	XDP *netdev.XDPBuff
	SKB *kernel.SKB

	// Parsed state.
	L3Off     int
	EtherType uint16
	VLAN      uint16
	SrcMAC    packet.HWAddr
	DstMAC    packet.HWAddr
	IPSrc     packet.Addr
	IPDst     packet.Addr
	IPProto   uint8
	TTL       uint8
	Fragment  bool
	Options   bool
	SrcPort   uint16
	DstPort   uint16

	// FIB holds the last HelperFIBLookup result for downstream ops
	// (filter needs the egress ifindex; rewrite needs the MACs).
	FIB   FIBResult
	FIBOk bool

	// Redirect target for VerdictRedirect.
	RedirectIfIndex int

	// Cpumap redirect target, set by HelperRedirectCPU: when RedirectCPUMap
	// is non-nil a VerdictRedirect means "hand the frame to RedirectCPU's
	// kthread in that map" instead of a device transmit.
	RedirectCPUMap *CPUMap
	RedirectCPU    int

	// AF_XDP redirect target, set by HelperRedirectXSK: when RedirectXSKMap
	// is non-nil a VerdictRedirect means "hand the frame to the socket in
	// RedirectXSKSlot of that map" instead of a device transmit.
	RedirectXSKMap  *XSKMap
	RedirectXSKSlot int

	// sk_skb state: Msg is the socket-layer segment a stream parser/verdict
	// program runs over (nil on packet hooks). HelperSKRedirectMap sets the
	// sockmap redirect target; a VerdictRedirect with RedirectSockMap non-nil
	// means SK_REDIRECT to that slot's socket.
	Msg             *kernel.SocketMsg
	RedirectSockMap *SockMap
	RedirectSockKey int

	depth int  // tail-call depth
	jit   bool // run fused (JIT) program bodies, including tail-call targets
	spec  bool // prefer the specialized body when one exists (implies jit)
}

// bind sets the fields that hold for every frame of one poll: the kernel,
// the hook, and the JIT switches, read once.
func (c *Ctx) bind(k *kernel.Kernel, hook Hook) {
	c.Kernel, c.Hook = k, hook
	c.jit, c.spec = k.BPFJITEnabled(), k.BPFSpecEnabled()
}

// reset is what a frame's context starts with: every per-frame field
// (parsed headers, the FIB result, redirect targets, tail-call depth) is
// cleared in place and the frame's inputs are set, while the fields bind set
// keep their values.
func (c *Ctx) reset(m *sim.Meter, ifindex int, xdp *netdev.XDPBuff, skb *kernel.SKB) {
	k, hook, jit, spec := c.Kernel, c.Hook, c.jit, c.spec
	*c = Ctx{}
	c.Kernel, c.Hook, c.jit, c.spec = k, hook, jit, spec
	c.Meter, c.IfIndex, c.XDP, c.SKB = m, ifindex, xdp, skb
}

// CPU reports the virtual core the packet is being processed on (per-CPU
// map variants index their shards by it). A nil meter accounts on CPU 0.
func (c *Ctx) CPU() int {
	if c.Meter == nil {
		return 0
	}
	return c.Meter.CPU
}

// Frame returns the raw packet bytes.
func (c *Ctx) Frame() []byte {
	if c.XDP != nil {
		return c.XDP.Data
	}
	if c.SKB != nil {
		return c.SKB.Data
	}
	return nil
}

// SetFrame replaces the packet bytes (after head adjustment).
func (c *Ctx) SetFrame(b []byte) {
	if c.XDP != nil {
		c.XDP.Data = b
	} else if c.SKB != nil {
		c.SKB.Data = b
	}
}

// Op is one synthesized code snippet inside a program.
type Op interface {
	// Name identifies the snippet in diagnostics and synthesized source.
	Name() string
	// Cost is the op's cycle charge per execution.
	Cost() sim.Cycles
	// Caps reports the capabilities the op requires from its hook.
	Caps() Cap
	// Insns estimates the op's eBPF instruction count (verifier budget).
	Insns() int
	// Run executes the op.
	Run(*Ctx) Verdict
}

// FuncOp is the standard Op implementation the synthesizer instantiates
// from snippet templates: configuration is baked into the closure, exactly
// like the paper's per-configuration code generation.
type FuncOp struct {
	name  string
	cost  sim.Cycles
	caps  Cap
	insns int
	fn    func(*Ctx) Verdict

	// Optional specializer hooks, consumed by the Load-time specialization
	// pass (specialize.go). All are nil for ops with no foldable structure.
	class        SpecClass                 // what this op computes (collapse key)
	spec         func(*SpecEnv) SpecResult // constant-fold against live config
	collapsePrev SpecClass                 // merge with a preceding op of this class
	collapse     func(prev *FuncOp) *FuncOp
}

// NewOp builds an op.
func NewOp(name string, cost sim.Cycles, caps Cap, insns int, fn func(*Ctx) Verdict) *FuncOp {
	return &FuncOp{name: name, cost: cost, caps: caps, insns: insns, fn: fn}
}

// WithSpecClass tags the op with the header-read class it implements, making
// it a candidate for adjacent-read collapsing.
func (o *FuncOp) WithSpecClass(class SpecClass) *FuncOp {
	o.class = class
	return o
}

// WithSpecializer installs the op's constant-folding hook: called once per
// Load with the live configuration environment, it may elide the op entirely
// or replace it with a cheaper form. The hook must be conservative — any
// fold whose precondition can change under a live program must guard on a
// generation counter and punt (VerdictPass) or fall back when stale.
func (o *FuncOp) WithSpecializer(fn func(*SpecEnv) SpecResult) *FuncOp {
	o.spec = fn
	return o
}

// WithCollapse declares that this op can merge with an immediately preceding
// surviving op of class prev, producing a single fused op via merge.
func (o *FuncOp) WithCollapse(prev SpecClass, merge func(prev *FuncOp) *FuncOp) *FuncOp {
	o.collapsePrev = prev
	o.collapse = merge
	return o
}

// Name implements Op.
func (o *FuncOp) Name() string { return o.name }

// Cost implements Op.
func (o *FuncOp) Cost() sim.Cycles { return o.cost }

// Caps implements Op.
func (o *FuncOp) Caps() Cap { return o.caps }

// Insns implements Op.
func (o *FuncOp) Insns() int { return o.insns }

// Run implements Op: charge, then execute.
func (o *FuncOp) Run(c *Ctx) Verdict {
	c.Meter.Charge(o.cost)
	return o.fn(c)
}

// Program is a sequence of ops with a default verdict when the ops run out.
type Program struct {
	Name    string
	Hook    Hook
	Ops     []Op
	Default Verdict // applied if no op terminates; VerdictPass is the safe choice

	id int // assigned by the loader

	// Compiled forms, built at load time and published atomically so a
	// re-Load (controller re-synthesis) can swap bodies under live traffic
	// without a torn read.
	jit  atomic.Pointer[jitProg] // fused form
	spec atomic.Pointer[jitProg] // specialized+fused form
}

// ID reports the loader-assigned program ID (0 if not loaded).
func (p *Program) ID() int { return p.id }

// run executes the program body against a context.
func (p *Program) run(c *Ctx) Verdict {
	for _, op := range p.Ops {
		v := op.Run(c)
		if v != VerdictNext {
			return v
		}
	}
	if p.Default == VerdictNext {
		return VerdictPass
	}
	return p.Default
}

// TailCall jumps from the current program into the target held in a
// program array slot, charging the tail-call cost and enforcing the depth
// limit. It returns the callee's verdict (tail calls never return to the
// caller, as in the kernel).
func (c *Ctx) TailCall(pa *ProgArray, slot int) Verdict {
	c.Meter.Charge(sim.CostTailCall)
	c.depth++
	if c.depth > MaxTailCalls {
		return VerdictAborted
	}
	target := pa.Lookup(slot)
	if target == nil {
		return VerdictAborted
	}
	return target.exec(c)
}
