// Package fpm is LinuxFP's library of fast path modules: the code snippets
// the controller's synthesizer composes into per-configuration eBPF
// programs. Each constructor bakes the current configuration into the ops
// it returns — the Go equivalent of rendering the paper's Jinja templates
// into C — so a data path contains only the logic the active configuration
// needs (no VLAN branch unless VLANs are configured, and so on).
//
// Every module obeys one safety rule: when anything is unusual — unknown
// EtherType, fragments, IP options, FDB/FIB/neighbour misses, MAC moves,
// retagging — the op punts the packet to the slow path (VerdictPass), where
// complete Linux semantics apply. Punting can cost performance, never
// correctness.
package fpm

import (
	"encoding/binary"
	"sync/atomic"

	"linuxfp/internal/bridge"
	"linuxfp/internal/ebpf"
	"linuxfp/internal/netfilter"
	"linuxfp/internal/packet"
	"linuxfp/internal/sim"
)

// ParseEth reads the Ethernet header into the context. Without the VLAN
// snippet a tagged frame keeps EtherType 0x8100 and later snippets punt —
// exactly the minimal-code behaviour the synthesizer wants.
func ParseEth() ebpf.Op {
	return ebpf.NewOp("parse_eth", sim.CostParseEth, 0, 24, func(c *ebpf.Ctx) ebpf.Verdict {
		f := c.Frame()
		if len(f) < packet.EthHdrLen {
			return ebpf.VerdictAborted
		}
		c.DstMAC = packet.EthDst(f)
		c.SrcMAC = packet.EthSrc(f)
		c.EtherType = binary.BigEndian.Uint16(f[12:14])
		c.L3Off = packet.EthHdrLen
		return ebpf.VerdictNext
	})
}

// ParseVLAN unwraps one 802.1Q tag when present. Included only when the
// configuration has VLANs.
func ParseVLAN() ebpf.Op {
	return ebpf.NewOp("parse_vlan", sim.CostParseVLAN, 0, 16, func(c *ebpf.Ctx) ebpf.Verdict {
		if c.EtherType != packet.EtherTypeVLAN {
			return ebpf.VerdictNext
		}
		f := c.Frame()
		if len(f) < packet.EthHdrLen+packet.VLANTagLen {
			return ebpf.VerdictAborted
		}
		tci := binary.BigEndian.Uint16(f[14:16])
		c.VLAN = tci & 0x0fff
		c.EtherType = binary.BigEndian.Uint16(f[16:18])
		c.L3Off = packet.EthHdrLen + packet.VLANTagLen
		return ebpf.VerdictNext
	})
}

// ParseIPv4 validates and reads the IP header. Fragments, options, expiring
// TTLs, and checksum failures all punt: the slow path owns those cases
// (paper Table I). Tagged with its specialization class so a following
// ParseL4 can collapse into it when both survive specialization.
func ParseIPv4() ebpf.Op {
	return parseIPv4Op().WithSpecClass(ebpf.SpecClassParseIPv4)
}

func parseIPv4Op() *ebpf.FuncOp {
	return ebpf.NewOp("parse_ipv4", sim.CostParseIPv4, 0, 48, func(c *ebpf.Ctx) ebpf.Verdict {
		if c.EtherType != packet.EtherTypeIPv4 {
			return ebpf.VerdictPass // ARP, LLDP, tagged frames without the VLAN snippet...
		}
		f := c.Frame()
		l3 := c.L3Off
		if len(f) < l3+packet.IPv4MinLen {
			return ebpf.VerdictAborted
		}
		if f[l3]>>4 != 4 {
			return ebpf.VerdictPass
		}
		if packet.IPv4HasOptions(f, l3) || packet.IPv4IsFragment(f, l3) {
			return ebpf.VerdictPass
		}
		if packet.Checksum(f[l3:l3+packet.IPv4MinLen]) != 0 {
			return ebpf.VerdictPass // slow path will count and drop it
		}
		c.IPSrc = packet.IPv4Src(f, l3)
		c.IPDst = packet.IPv4Dst(f, l3)
		c.IPProto = packet.IPv4Proto(f, l3)
		c.TTL = packet.IPv4TTL(f, l3)
		if c.TTL <= 1 {
			return ebpf.VerdictPass // ICMP time-exceeded is slow-path work
		}
		return ebpf.VerdictNext
	})
}

// ParseL4 reads transport ports; included when filter rules match on them.
// When specialization finds it directly after a surviving ParseIPv4, the two
// collapse into one merged header read.
func ParseL4() ebpf.Op {
	return ebpf.NewOp("parse_l4", sim.CostParseL4, 0, 16, func(c *ebpf.Ctx) ebpf.Verdict {
		if c.IPProto != packet.ProtoTCP && c.IPProto != packet.ProtoUDP {
			return ebpf.VerdictNext
		}
		f := c.Frame()
		l4 := c.L3Off + packet.IPv4MinLen
		if len(f) < l4+4 {
			return ebpf.VerdictAborted
		}
		c.SrcPort, c.DstPort = packet.L4Ports(f, l4)
		return ebpf.VerdictNext
	}).WithSpecClass(ebpf.SpecClassParseL4).
		WithCollapse(ebpf.SpecClassParseIPv4, func(*ebpf.FuncOp) *ebpf.FuncOp {
			return mergedParseIPv4L4()
		})
}

// mergedParseIPv4L4 is the collapsed ParseIPv4+ParseL4 read the specializer
// emits: one frame fetch and one bounds-check cascade cover both headers.
// Verdict behaviour is byte-identical to running the two ops in sequence;
// the merge saves only the duplicated frame access and dispatch overhead
// (sim.CostParseMergeSave).
func mergedParseIPv4L4() *ebpf.FuncOp {
	return ebpf.NewOp("parse_ipv4_l4",
		sim.CostParseIPv4+sim.CostParseL4-sim.CostParseMergeSave, 0, 52,
		func(c *ebpf.Ctx) ebpf.Verdict {
			if c.EtherType != packet.EtherTypeIPv4 {
				return ebpf.VerdictPass
			}
			f := c.Frame()
			l3 := c.L3Off
			if len(f) < l3+packet.IPv4MinLen {
				return ebpf.VerdictAborted
			}
			if f[l3]>>4 != 4 {
				return ebpf.VerdictPass
			}
			if packet.IPv4HasOptions(f, l3) || packet.IPv4IsFragment(f, l3) {
				return ebpf.VerdictPass
			}
			if packet.Checksum(f[l3:l3+packet.IPv4MinLen]) != 0 {
				return ebpf.VerdictPass
			}
			c.IPSrc = packet.IPv4Src(f, l3)
			c.IPDst = packet.IPv4Dst(f, l3)
			c.IPProto = packet.IPv4Proto(f, l3)
			c.TTL = packet.IPv4TTL(f, l3)
			if c.TTL <= 1 {
				return ebpf.VerdictPass
			}
			if c.IPProto != packet.ProtoTCP && c.IPProto != packet.ProtoUDP {
				return ebpf.VerdictNext
			}
			l4 := l3 + packet.IPv4MinLen
			if len(f) < l4+4 {
				return ebpf.VerdictAborted
			}
			c.SrcPort, c.DstPort = packet.L4Ports(f, l4)
			return ebpf.VerdictNext
		})
}

// BridgeConf parameterizes the bridge FPM for the current configuration.
type BridgeConf struct {
	Bridge *bridge.Bridge
	// STP includes the port-state snippet.
	STP bool
	// VLANFiltering includes the VLAN admission snippet.
	VLANFiltering bool
	// LocalNext, when true, continues to the next module (a chained router
	// FPM) for frames addressed to the bridge device itself, instead of
	// punting them.
	LocalNext bool
	// Filter evaluates the FORWARD chain on bridged IPv4 traffic —
	// br_netfilter acceleration for container hosts. Non-IP frames punt.
	Filter bool
}

// BridgeOps builds the bridge FPM: fast L2 forwarding via bpf_fdb_lookup.
// Flooding, learning, BPDUs and aging stay in the slow path.
func BridgeOps(conf BridgeConf) []ebpf.Op {
	br := conf.Bridge
	var ops []ebpf.Op

	ops = append(ops, ebpf.NewOp("bridge_guard", sim.CostBridgeGuard, 0, 16, func(c *ebpf.Ctx) ebpf.Verdict {
		if c.DstMAC.IsMulticast() {
			// Broadcast/multicast (including BPDUs): slow path floods.
			return ebpf.VerdictPass
		}
		if c.DstMAC == br.MAC {
			if conf.LocalNext {
				return ebpf.VerdictNext
			}
			return ebpf.VerdictPass
		}
		return ebpf.VerdictNext
	}).WithSpecializer(func(*ebpf.SpecEnv) ebpf.SpecResult {
		// conf.LocalNext is synthesis-time structure (it reflects the graph,
		// not live kernel state), so the fold needs no generation guard.
		if conf.LocalNext {
			// Local frames continue either way: only multicast punts.
			return ebpf.SpecResult{Replace: ebpf.NewOp("bridge_guard_spec", sim.CostBridgeGuard, 0, 8, func(c *ebpf.Ctx) ebpf.Verdict {
				if c.DstMAC.IsMulticast() {
					return ebpf.VerdictPass
				}
				return ebpf.VerdictNext
			})}
		}
		return ebpf.SpecResult{Replace: ebpf.NewOp("bridge_guard_spec", sim.CostBridgeGuard, 0, 12, func(c *ebpf.Ctx) ebpf.Verdict {
			if c.DstMAC.IsMulticast() || c.DstMAC == br.MAC {
				return ebpf.VerdictPass
			}
			return ebpf.VerdictNext
		})}
	}))

	if conf.STP {
		// stp_port_state deliberately has NO specializer: the obvious fold
		// (elide when STP is off) is unsound — the op also punts frames on
		// Disabled ports, and the only generation that tracks port state
		// (bridge.Gen) is bumped by FDB learning, so a guard on it would
		// invalidate the fold on every new MAC. Port state stays a live read.
		ops = append(ops, ebpf.NewOp("stp_port_state", sim.CostPortState, ebpf.CapHelperFDB, 12, func(c *ebpf.Ctx) ebpf.Verdict {
			p, ok := br.Port(c.IfIndex)
			if !ok || p.State != bridge.Forwarding {
				return ebpf.VerdictPass // blocked/learning ports: slow path decides
			}
			return ebpf.VerdictNext
		}))
	}

	if conf.VLANFiltering {
		ops = append(ops, ebpf.NewOp("vlan_filter", sim.CostPortState, 0, 20, func(c *ebpf.Ctx) ebpf.Verdict {
			vlan, ok := br.IngressVLAN(c.IfIndex, c.VLAN)
			if !ok {
				return ebpf.VerdictPass // slow path drops, keeping counters
			}
			c.VLAN = vlan
			return ebpf.VerdictNext
		}).WithSpecializer(func(*ebpf.SpecEnv) ebpf.SpecResult {
			if br.VLANFiltering() {
				return ebpf.SpecResult{}
			}
			// Live filtering is off: IngressVLAN degenerates to a port-
			// membership check that classifies everything as VLAN 0.
			if !conf.Filter {
				// Nothing runs between here and the FDB decision: the
				// membership check moves into the folded fdb_forward
				// (guarded on ConfGen there) and the op vanishes.
				return ebpf.SpecResult{Elide: true}
			}
			// A filter op sits between this op and the FDB decision. Keep
			// the membership punt in place — eliding it would let rule
			// counters see frames the generic chain punts before filtering.
			g := br.ConfGen()
			return ebpf.SpecResult{Replace: ebpf.NewOp("vlan_member_spec",
				sim.CostBridgeGuard+sim.CostSpecGuard, 0, 12,
				func(c *ebpf.Ctx) ebpf.Verdict {
					if br.ConfGen() != g {
						return ebpf.VerdictPass // stale fold: punt
					}
					if _, ok := br.Port(c.IfIndex); !ok {
						return ebpf.VerdictPass
					}
					c.VLAN = 0
					return ebpf.VerdictNext
				})}
		}))
	}

	if conf.Filter {
		// br_netfilter path: parse to L4 and evaluate FORWARD before the
		// FDB decision, mirroring the slow path's hook placement.
		ops = append(ops, ParseIPv4(), ParseL4(), FilterOp(FilterConf{Hook: netfilter.HookForward}))
	}

	ops = append(ops, ebpf.NewOp("fdb_forward", sim.CostHelperFDB, ebpf.CapHelperFDB|ebpf.CapRedirect, 64, func(c *ebpf.Ctx) ebpf.Verdict {
		if c.DstMAC == br.MAC {
			// Chained local traffic (LocalNext): let the router FPM run.
			return ebpf.VerdictNext
		}
		now := c.Kernel.Now()
		vlan := uint16(0)
		if conf.VLANFiltering {
			vlan = c.VLAN
		}
		// bpf_fdb_lookup checks the source first: unknown or moved MACs
		// punt so the slow path learns (the helper does both lookups in
		// one call; the cost constant covers the pair).
		if srcPort, ok := br.FDBLookup(c.SrcMAC, vlan, now); !ok || srcPort != c.IfIndex {
			return ebpf.VerdictPass
		}
		port, ok := br.FDBLookup(c.DstMAC, vlan, now)
		if !ok || port == c.IfIndex {
			return ebpf.VerdictPass // miss: slow path floods
		}
		p, exists := br.Port(port)
		if !exists || p.State != bridge.Forwarding {
			return ebpf.VerdictPass
		}
		if conf.VLANFiltering {
			tagged, allowed := br.EgressAllowed(port, vlan)
			if !allowed {
				return ebpf.VerdictPass
			}
			if tagged != (c.VLAN != 0 && c.L3Off > packet.EthHdrLen) {
				// Retagging needs head adjustment: punt.
				return ebpf.VerdictPass
			}
		}
		c.RedirectIfIndex = port
		return ebpf.VerdictRedirect
	}).WithSpecializer(func(*ebpf.SpecEnv) ebpf.SpecResult {
		if conf.VLANFiltering && br.VLANFiltering() {
			return ebpf.SpecResult{} // VLAN path live: keep the full walk
		}
		if conf.VLANFiltering {
			// The configuration carries the VLAN snippets but the live
			// bridge has filtering off: everything classifies as VLAN 0 and
			// every egress is allowed untagged. The fold bakes that in —
			// vlan_filter was elided, so its port-membership check moves
			// here — and a ConfGen guard punts the moment STP or VLAN
			// filtering is reconfigured (the slow path is always complete;
			// the controller re-specializes on the next netlink event).
			g := br.ConfGen()
			return ebpf.SpecResult{Replace: ebpf.NewOp("fdb_forward_spec",
				sim.CostHelperFDB+sim.CostSpecGuard, ebpf.CapHelperFDB|ebpf.CapRedirect, 48,
				func(c *ebpf.Ctx) ebpf.Verdict {
					if br.ConfGen() != g {
						return ebpf.VerdictPass // stale fold: punt
					}
					if _, ok := br.Port(c.IfIndex); !ok {
						return ebpf.VerdictPass // was vlan_filter's membership check
					}
					return fdbForwardVLAN0(c, br)
				})}
		}
		// Plain bridge: the conf.VLANFiltering branches are dead by
		// synthesis-time structure alone, so the fold needs no guard.
		return ebpf.SpecResult{Replace: ebpf.NewOp("fdb_forward_spec",
			sim.CostHelperFDB, ebpf.CapHelperFDB|ebpf.CapRedirect, 56,
			func(c *ebpf.Ctx) ebpf.Verdict {
				return fdbForwardVLAN0(c, br)
			})}
	}))
	return ops
}

// fdbForwardVLAN0 is the specialized fdb_forward body with VLAN 0 baked in:
// the source-then-destination lookup pair and port-state check of the
// generic op, minus the VLAN classification and egress-admission branches.
func fdbForwardVLAN0(c *ebpf.Ctx, br *bridge.Bridge) ebpf.Verdict {
	if c.DstMAC == br.MAC {
		return ebpf.VerdictNext // chained local traffic (LocalNext)
	}
	now := c.Kernel.Now()
	if srcPort, ok := br.FDBLookup(c.SrcMAC, 0, now); !ok || srcPort != c.IfIndex {
		return ebpf.VerdictPass
	}
	port, ok := br.FDBLookup(c.DstMAC, 0, now)
	if !ok || port == c.IfIndex {
		return ebpf.VerdictPass // miss: slow path floods
	}
	p, exists := br.Port(port)
	if !exists || p.State != bridge.Forwarding {
		return ebpf.VerdictPass
	}
	c.RedirectIfIndex = port
	return ebpf.VerdictRedirect
}

// RouterConf parameterizes the router FPM.
type RouterConf struct {
	// BridgeForOut maps an egress ifindex to a bridge when the route
	// points at a bridge device; the router FPM then resolves the real
	// port via the FDB instead of punting (next_nf: bridge).
	BridgeForOut func(ifindex int) (*bridge.Bridge, bool)
}

// FIBLookupOp resolves route + neighbour through bpf_fib_lookup, leaving
// the result in the context. Every miss punts.
func FIBLookupOp() ebpf.Op {
	return ebpf.NewOp("fib_lookup", 0, ebpf.CapHelperFIB, 40, func(c *ebpf.Ctx) ebpf.Verdict {
		// Helper charges its own cost.
		if !ebpf.HelperFIBLookup(c, c.IPDst) {
			return ebpf.VerdictPass
		}
		return ebpf.VerdictNext
	})
}

// FilterConf parameterizes the filter FPM.
type FilterConf struct {
	Hook netfilter.Hook // chain to evaluate (FORWARD for gateways)
}

// FilterOp evaluates iptables state through bpf_ipt_lookup. Runs after the
// FIB lookup so out-interface matches see the real egress. Flows the
// helper cannot classify (conntrack miss) punt to the slow path.
//
// Specialization pins the hook's compiled snapshot at Load time
// (netfilter.Compile): packets whose protocol no rule can match skip the
// walk entirely, and the rest are charged the specialised per-rule cost (on
// the host both forms run the same evaluator). A generation guard falls back
// to the generic helper when the ruleset has changed since Load; chains with
// user-chain jumps refuse to compile and keep the generic form.
func FilterOp(conf FilterConf) ebpf.Op {
	return ebpf.NewOp("ipt_filter", 0, ebpf.CapHelperIpt, 72, func(c *ebpf.Ctx) ebpf.Verdict {
		// Helper charges its own cost.
		switch ebpf.HelperIptLookup(c, conf.Hook, c.FIB.EgressIfIndex) {
		case ebpf.IptDeny:
			return ebpf.VerdictDrop
		case ebpf.IptPunt:
			return ebpf.VerdictPass
		default:
			return ebpf.VerdictNext
		}
	}).WithSpecializer(func(env *ebpf.SpecEnv) ebpf.SpecResult {
		comp, ok := env.K.NF.Compile(conf.Hook)
		if !ok {
			return ebpf.SpecResult{} // jumps in the chain: keep the generic helper
		}
		return ebpf.SpecResult{Replace: ebpf.NewOp("ipt_filter_spec", 0, ebpf.CapHelperIpt, 40, func(c *ebpf.Ctx) ebpf.Verdict {
			// Helper charges its own cost (guard + compiled walk, or the
			// full generic cost on a stale-generation fallback).
			switch ebpf.HelperIptLookupCompiled(c, comp, conf.Hook, c.FIB.EgressIfIndex) {
			case ebpf.IptDeny:
				return ebpf.VerdictDrop
			case ebpf.IptPunt:
				return ebpf.VerdictPass
			default:
				return ebpf.VerdictNext
			}
		})}
	})
}

// RewriteOp applies the forwarding rewrite: TTL decrement with incremental
// checksum and MAC rewrite from the FIB result.
func RewriteOp() ebpf.Op {
	return ebpf.NewOp("rewrite_l2l3", sim.CostRewriteL2L3, 0, 32, func(c *ebpf.Ctx) ebpf.Verdict {
		if !c.FIBOk {
			return ebpf.VerdictPass
		}
		f := c.Frame()
		packet.DecTTL(f, c.L3Off)
		packet.SetEthSrc(f, c.FIB.SrcMAC)
		packet.SetEthDst(f, c.FIB.DstMAC)
		return ebpf.VerdictNext
	})
}

// RedirectOp emits the packet on the FIB egress. When the egress is a
// bridge device (next_nf: bridge), it resolves the physical port through
// the FDB; a miss punts so the slow path floods. When no bridge resolver is
// configured — the single-port redirect case — specialization folds the op
// to a direct emit (the branch is synthesis-time structure, no guard
// needed).
func RedirectOp(conf RouterConf) ebpf.Op {
	return ebpf.NewOp("redirect", 0, ebpf.CapRedirect, 16, func(c *ebpf.Ctx) ebpf.Verdict {
		if !c.FIBOk {
			return ebpf.VerdictPass
		}
		egress := c.FIB.EgressIfIndex
		if conf.BridgeForOut != nil {
			if br, ok := conf.BridgeForOut(egress); ok {
				port, hit := ebpf.HelperFDBLookup(c, br, c.FIB.DstMAC, 0)
				if !hit {
					return ebpf.VerdictPass
				}
				egress = port
			}
		}
		c.RedirectIfIndex = egress
		return ebpf.VerdictRedirect
	}).WithSpecializer(func(*ebpf.SpecEnv) ebpf.SpecResult {
		if conf.BridgeForOut != nil {
			return ebpf.SpecResult{}
		}
		return ebpf.SpecResult{Replace: ebpf.NewOp("redirect_direct", 0, ebpf.CapRedirect, 8, func(c *ebpf.Ctx) ebpf.Verdict {
			if !c.FIBOk {
				return ebpf.VerdictPass
			}
			c.RedirectIfIndex = c.FIB.EgressIfIndex
			return ebpf.VerdictRedirect
		})}
	})
}

// RouterOps composes the router FPM: parse → fib → rewrite → redirect.
func RouterOps(conf RouterConf) []ebpf.Op {
	return []ebpf.Op{FIBLookupOp(), RewriteOp(), RedirectOp(conf)}
}

// TrivialOps returns n no-op network functions (the Fig. 10 chain when
// composed with function calls).
func TrivialOps(n int) []ebpf.Op {
	ops := make([]ebpf.Op, n)
	for i := range ops {
		ops[i] = ebpf.NewOp("trivial_nf", sim.CostTrivialNF, 0, 8, func(*ebpf.Ctx) ebpf.Verdict {
			return ebpf.VerdictNext
		})
	}
	return ops
}

// MonitorOp counts packets per IP protocol into an array map — the paper's
// future-work custom monitoring module, insertable at any graph position.
func MonitorOp(counters *ebpf.ArrayMap) ebpf.Op {
	return ebpf.NewOp("monitor", sim.CostMonitorFPM, 0, 24, func(c *ebpf.Ctx) ebpf.Verdict {
		counters.Add(int(c.IPProto), 1)
		return ebpf.VerdictNext
	})
}

// MonitorOpPerCPU is MonitorOp backed by a BPF_MAP_TYPE_PERCPU_ARRAY: each
// RX queue's worker bumps its own CPU's counter row, so the per-packet
// update never bounces a cache line between cores. Readers aggregate with
// Sum, like userspace summing a percpu map lookup.
func MonitorOpPerCPU(counters *ebpf.PerCPUArrayMap) ebpf.Op {
	return ebpf.NewOp("monitor", sim.CostMonitorFPM, 0, 24, func(c *ebpf.Ctx) ebpf.Verdict {
		counters.Add(c.CPU(), int(c.IPProto), 1)
		return ebpf.VerdictNext
	})
}

// TraceConf parameterizes the trace FPM.
type TraceConf struct {
	// Ring receives the events.
	Ring *ebpf.RingBuf
	// SampleShift subsamples: emit one event per 2^SampleShift packets
	// (0 traces every packet). Sampling state is per-op, modelling a
	// per-program counter map.
	SampleShift uint
	// Proto/DstPort restrict tracing to matching traffic (zero means any).
	Proto   uint8
	DstPort uint16
}

// TraceOp emits a fixed-layout EventTrace for matching packets via
// bpf_ringbuf_output — the monitoring FPM's streaming twin. The op itself is
// cost-free (like FIBLookupOp, the helper charges what actually runs), so JIT
// fusion's prefix-summed static costs stay exact whether or not the op
// matches. A full ring silently drops the event (counted on the ring), never
// the packet.
func TraceOp(conf TraceConf) ebpf.Op {
	var seq atomic.Uint64
	mask := uint64(1)<<conf.SampleShift - 1
	return ebpf.NewOp("trace", 0, ebpf.CapRingbuf, 56, func(c *ebpf.Ctx) ebpf.Verdict {
		// Helper charges its own cost.
		if conf.Proto != 0 && c.IPProto != conf.Proto {
			return ebpf.VerdictNext
		}
		if conf.DstPort != 0 && c.DstPort != conf.DstPort {
			return ebpf.VerdictNext
		}
		if (seq.Add(1)-1)&mask != 0 {
			return ebpf.VerdictNext
		}
		ev := ebpf.Event{
			Type:    ebpf.EventTrace,
			CPU:     uint8(c.CPU()),
			IfIndex: uint32(c.IfIndex),
			Cycles:  uint64(c.Meter.Total),
			Aux:     uint64(len(c.Frame())),
		}
		ebpf.HelperRingbufOutputEvent(c, conf.Ring, &ev)
		return ebpf.VerdictNext
	})
}

// AFXDPConf parameterizes the AF_XDP capture module (paper future work):
// matching packets bypass the whole kernel stack and land on a user-space
// socket; everything else continues down the chain untouched.
type AFXDPConf struct {
	// Proto/DstPort select the captured traffic (zero means any).
	Proto   uint8
	DstPort uint16
	// Map and Slot name the XSK binding.
	Map  *ebpf.XSKMap
	Slot int
}

// AFXDPOp builds the capture snippet. The helper only records the map and
// slot on the context: the driver's redirect path resolves the socket at
// enqueue time and stages the frame through the per-queue XSK bulk
// queues, so a matching packet counts as an XDP redirect (or an
// xsk_rx_full / xsk_fill_empty drop when the socket's rings are behind).
func AFXDPOp(conf AFXDPConf) ebpf.Op {
	return ebpf.NewOp("afxdp_capture", 0, ebpf.CapRedirect, 40, func(c *ebpf.Ctx) ebpf.Verdict {
		if conf.Proto != 0 && c.IPProto != conf.Proto {
			return ebpf.VerdictNext
		}
		if conf.DstPort != 0 && c.DstPort != conf.DstPort {
			return ebpf.VerdictNext
		}
		return ebpf.HelperRedirectXSK(c, conf.Map, conf.Slot)
	})
}

// IPVSOp is the controller-synthesized LB module (Table I's last row):
// established virtual-service flows are resolved through bpf_ipvs_lookup
// against the kernel's ipvs connection table — the same single-copy state
// the slow path's scheduler writes — then DNATed and redirected. New flows
// punt so the slow path schedules them; non-VIP traffic continues.
func IPVSOp() ebpf.Op {
	return ebpf.NewOp("ipvs_lb", 0, ebpf.CapHelperIPVS|ebpf.CapHelperFIB|ebpf.CapRedirect, 96, func(c *ebpf.Ctx) ebpf.Verdict {
		backend, vip, ok := ebpf.HelperIPVSLookup(c)
		if !vip {
			return ebpf.VerdictNext
		}
		if !ok {
			return ebpf.VerdictPass // unscheduled flow: slow path schedules
		}
		// Resolve the backend route BEFORE touching the frame, so a punt
		// hands the slow path the original (un-NATed) packet.
		if !ebpf.HelperFIBLookup(c, backend) {
			return ebpf.VerdictPass
		}
		f := c.Frame()
		packet.RewriteIPv4Dst(f, c.L3Off, c.L3Off+packet.IPv4MinLen, backend)
		c.IPDst = backend
		c.Meter.Charge(sim.CostRewriteL2L3)
		packet.DecTTL(f, c.L3Off)
		packet.SetEthSrc(f, c.FIB.SrcMAC)
		packet.SetEthDst(f, c.FIB.DstMAC)
		c.RedirectIfIndex = c.FIB.EgressIfIndex
		return ebpf.VerdictRedirect
	})
}

// LBConf parameterizes the ipvs-style load balancer FPM (paper future
// work, Table I's last row).
type LBConf struct {
	VIP      packet.Addr
	Port     uint16
	Backends []packet.Addr
	// Conns pins flows to backends (flow hash -> backend index). This is
	// the one FPM holding private map state: ipvs connection scheduling is
	// explicitly listed as slow-path/control work in Table I, and this
	// prototype keeps only the established-flow cache in the fast path.
	Conns *ebpf.HashMap
	// PerCPUConns, when set, replaces Conns with a per-CPU conn table:
	// RSS pins every flow to one RX queue, so each queue's shard sees all
	// packets of its flows and the global table lock disappears.
	PerCPUConns *ebpf.PerCPUHashMap
}

// mix64 is a splitmix64 finalizer: a cheap, well-spread flow hash.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}

// LBOp implements the load-balancer fast path: VIP traffic is DNATed to a
// stable backend and re-routed; everything else continues down the chain.
func LBOp(conf LBConf) ebpf.Op {
	return ebpf.NewOp("ipvs_lb", sim.CostLBConnHash, ebpf.CapHelperFIB|ebpf.CapRedirect, 96, func(c *ebpf.Ctx) ebpf.Verdict {
		if c.IPDst != conf.VIP || c.DstPort != conf.Port || len(conf.Backends) == 0 {
			return ebpf.VerdictNext
		}
		flow := uint64(c.IPSrc)<<32 | uint64(c.SrcPort)<<16 | uint64(c.IPProto)
		var idx uint64
		var ok bool
		if conf.PerCPUConns != nil {
			cpu := c.CPU()
			idx, ok = conf.PerCPUConns.Lookup(cpu, flow)
			if !ok {
				idx = mix64(flow) % uint64(len(conf.Backends))
				if !conf.PerCPUConns.Update(cpu, flow, idx) {
					return ebpf.VerdictPass // conn table full: punt
				}
			}
		} else {
			idx, ok = conf.Conns.Lookup(flow)
			if !ok {
				// New connection: scheduling belongs to the slow path in the
				// full design; the prototype spreads by flow hash.
				idx = mix64(flow) % uint64(len(conf.Backends))
				if !conf.Conns.Update(flow, idx) {
					return ebpf.VerdictPass // conn table full: punt
				}
			}
		}
		backend := conf.Backends[idx%uint64(len(conf.Backends))]
		f := c.Frame()
		packet.RewriteIPv4Dst(f, c.L3Off, c.L3Off+packet.IPv4MinLen, backend)
		c.IPDst = backend
		if !ebpf.HelperFIBLookup(c, backend) {
			return ebpf.VerdictPass
		}
		packet.DecTTL(f, c.L3Off)
		packet.SetEthSrc(f, c.FIB.SrcMAC)
		packet.SetEthDst(f, c.FIB.DstMAC)
		c.RedirectIfIndex = c.FIB.EgressIfIndex
		return ebpf.VerdictRedirect
	})
}

// CPUSpreadConf parameterizes the cpumap spreading module: slow-path-bound
// traffic is fanned out across a set of target CPUs instead of being
// processed on the RX core — the cpumap analogue of LBOp's backend spread.
type CPUSpreadConf struct {
	// Map is the cpumap whose entries receive the frames.
	Map *ebpf.CPUMap
	// CPUs are the target CPU indices (must have live entries in Map).
	CPUs []int
	// RoundRobin spreads packet-by-packet instead of by flow hash. Flow
	// hashing is the default: it keeps every flow on one target CPU, which
	// preserves in-order delivery and lets GRO coalesce there.
	RoundRobin bool
	// Proto, when non-zero, restricts spreading to one IP protocol;
	// everything else continues down the chain.
	Proto uint8
	// Picker, when set, overrides the static hash→CPU mapping: the op hands
	// it the flow hash and redirects to whatever CPU it returns. This is the
	// seam a steering controller plugs into — it can shed NEW flows away
	// from overloaded CPUs while a sticky table keeps established flows in
	// place. The implementation must be safe for concurrent PickCPU calls.
	Picker CPUPicker
}

// CPUPicker chooses a target CPU for a flow hash. satisfied by
// steer.Table without fpm importing it.
type CPUPicker interface {
	PickCPU(hash uint64) int
}

// CPUSpreadOp builds the spreading snippet. The flow key hashes (src IP,
// src port, proto) with the same splitmix64 finalizer LBOp uses, so the
// same flow always lands on the same target CPU.
func CPUSpreadOp(conf CPUSpreadConf) ebpf.Op {
	var rr atomic.Uint64
	return ebpf.NewOp("cpu_spread", 0, ebpf.CapRedirect, 48, func(c *ebpf.Ctx) ebpf.Verdict {
		if len(conf.CPUs) == 0 {
			return ebpf.VerdictNext
		}
		if conf.Proto != 0 && c.IPProto != conf.Proto {
			return ebpf.VerdictNext
		}
		var idx uint64
		if conf.RoundRobin {
			idx = rr.Add(1) - 1
		} else {
			flow := uint64(c.IPSrc)<<32 | uint64(c.SrcPort)<<16 | uint64(c.IPProto)
			if conf.Picker != nil {
				return ebpf.HelperRedirectCPU(c, conf.Map, conf.Picker.PickCPU(mix64(flow)))
			}
			idx = mix64(flow)
		}
		return ebpf.HelperRedirectCPU(c, conf.Map, conf.CPUs[idx%uint64(len(conf.CPUs))])
	})
}
