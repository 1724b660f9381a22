// The read side of the ruleset. Every chain is compiled into a flat program
// of fixed-size records and walked by one evaluator; the slow path's
// EvaluateHook, the generic bpf_ipt_lookup helper and the JIT specializer's
// pinned snapshot all run it, so they cannot diverge on match semantics.
//
// Readers are RCU-style: the compiled ruleset is immutable, lives behind an
// atomic pointer, and is valid for the generation it was built at. Writers
// only mutate the locked chains and then bump Gen; the first reader that
// finds the pointer behind Gen rebuilds it (under the lock, so it sees a
// state and the generation that names it together). A reader therefore loads
// the generation first and the data second, and never evaluates rules older
// than the generation it saw.
//
// Set *content* changes (ipset add/del) do not bump Gen and do not need to:
// a record holds the *IPSet the name resolved to, and probes read its live
// contents under its own lock. Records also hold the live *Rule, so hit
// counters land in the memory iptables -L reads, whichever snapshot counted.
package netfilter

import (
	"sync/atomic"

	"linuxfp/internal/packet"
)

// Record flags.
const (
	fPorts  uint8 = 1 << iota // matches an L4 port: never a non-first fragment
	fSrcSet                   // names a source set (a nil srcSet is a missing set: no match)
	fDstSet
)

// rec is one compiled rule, 64 bytes: prefixes are mask/value pairs (a nil
// prefix is mask 0, value 0) and zero means "any" in every other field, as in
// Match. Interface indexes are Linux's 32 bits.
type rec struct {
	srcMask, srcVal  packet.Addr
	dstMask, dstVal  packet.Addr
	srcPort, dstPort uint16
	proto            uint8
	ctState          uint8
	target           uint8 // Verdict; VerdictNone on jump and count-only rules
	flags            uint8
	inIf, outIf      int32
	jump             int32 // index into Compiled.chains; -1 when the rule does not jump
	rule             *Rule // the live rule: counters accumulate in place
	srcSet, dstSet   *IPSet
}

// Compiled is the immutable snapshot of one hook: its built-in chain plus
// every chain it can jump to, as of generation Gen.
type Compiled struct {
	// Gen is the ruleset generation the snapshot was built at. Holders that
	// pin a snapshot compare it against Netfilter.Gen() before every use.
	Gen uint64
	// Policy applies when no rule terminates the walk.
	Policy Verdict
	// CTRequired reports whether any rule of any chain matches on conntrack
	// state — only then does the stack pay for connection tracking (Linux
	// loads nf_conntrack on demand the same way).
	CTRequired bool

	chains [][]rec // every chain of the ruleset, shared by the five hooks
	entry  int32   // the hook's built-in chain
	jumps  bool    // the built-in chain has jump rules
	// protoSkip is true when a packet whose protocol appears in no rule can
	// bypass the walk: every rule names a specific protocol and the policy
	// accepts. protos is the presence bitmap over the 8-bit protocol space.
	protoSkip bool
	protos    [4]uint64

	rules [HookPostrouting + 1]int32 // rule count of every hook's built-in chain
}

// ruleset is what the atomic pointer publishes: one Compiled per hook, and at
// index 0 an empty accepting one for values that are not a hook.
type ruleset struct {
	gen   uint64
	hooks [HookPostrouting + 1]Compiled
}

// current returns the compiled ruleset of the live generation, building it
// if a writer has bumped the generation since the last build.
func (nf *Netfilter) current() *ruleset {
	if rs := nf.compiled.Load(); rs != nil && rs.gen == nf.gen.Load() {
		return rs
	}
	// Writers hold the lock from their first change to their generation bump,
	// so under it the chains and the generation agree.
	nf.mu.Lock()
	defer nf.mu.Unlock()
	gen := nf.gen.Load()
	if rs := nf.compiled.Load(); rs != nil && rs.gen == gen {
		return rs
	}
	rs := nf.compileLocked(gen)
	nf.compiled.Store(rs)
	return rs
}

// compileLocked flattens every chain into one backing array (chains lie back
// to back, rules in order) and derives the five per-hook views.
func (nf *Netfilter) compileLocked(gen uint64) *ruleset {
	index := make(map[string]int32, len(nf.chains))
	order := make([]*Chain, 0, len(nf.chains))
	total := 0
	for name, c := range nf.chains {
		index[name] = int32(len(order))
		order = append(order, c)
		total += len(c.Rules)
	}
	recs := make([]rec, total)
	chains := make([][]rec, len(order)+1) // the last one stays empty, for hooks[0]
	ct := false
	for i, c := range order {
		n := len(c.Rules)
		chains[i], recs = recs[:n:n], recs[n:]
		for j, r := range c.Rules {
			chains[i][j] = nf.compileRule(r, index)
			ct = ct || r.Match.CTState != 0
		}
	}
	var rules [HookPostrouting + 1]int32
	for h := HookPrerouting; h <= HookPostrouting; h++ {
		rules[h] = int32(len(nf.chains[h.String()].Rules))
	}
	rs := &ruleset{gen: gen}
	rs.hooks[0] = Compiled{Gen: gen, Policy: VerdictAccept, CTRequired: ct, rules: rules, chains: chains, entry: int32(len(order))}
	for h := HookPrerouting; h <= HookPostrouting; h++ {
		c := nf.chains[h.String()]
		cp := &rs.hooks[h]
		*cp = Compiled{Gen: gen, Policy: c.Policy, CTRequired: ct, rules: rules,
			chains: chains, entry: index[c.Name], protoSkip: c.Policy != VerdictDrop}
		for _, r := range c.Rules {
			cp.jumps = cp.jumps || r.Jump != ""
			if r.Match.Proto == 0 {
				// A protocol-wildcard rule can match anything: no skipping.
				cp.protoSkip = false
			} else {
				cp.protos[r.Match.Proto>>6] |= 1 << (r.Match.Proto & 63)
			}
		}
	}
	return rs
}

func (nf *Netfilter) compileRule(r *Rule, index map[string]int32) rec {
	mt := &r.Match
	c := rec{
		srcPort: mt.SrcPort, dstPort: mt.DstPort, proto: mt.Proto,
		ctState: uint8(mt.CTState), target: uint8(r.Target),
		inIf: int32(mt.InIf), outIf: int32(mt.OutIf),
		jump: -1, rule: r,
	}
	if mt.Src != nil {
		c.srcMask = mt.Src.Mask()
		c.srcVal = mt.Src.Addr & c.srcMask
	}
	if mt.Dst != nil {
		c.dstMask = mt.Dst.Mask()
		c.dstVal = mt.Dst.Addr & c.dstMask
	}
	if mt.SrcPort != 0 || mt.DstPort != 0 {
		c.flags |= fPorts
	}
	if mt.SrcSet != "" {
		c.flags |= fSrcSet
		c.srcSet = nf.sets[mt.SrcSet]
	}
	if mt.DstSet != "" {
		c.flags |= fDstSet
		c.dstSet = nf.sets[mt.DstSet]
	}
	if r.Jump != "" {
		// A jump ignores Target; a jump to a chain that does not exist counts
		// the hit and moves on, which is what a count-only rule does.
		c.target = uint8(VerdictNone)
		if i, ok := index[r.Jump]; ok {
			c.jump = i
		}
	}
	return c
}

// Snapshot returns the current compiled form of the chain registered at a
// hook. A value that is not one of the five hooks has no chain and gets a
// snapshot that accepts for free.
func (nf *Netfilter) Snapshot(h Hook) *Compiled {
	if !h.valid() {
		h = 0
	}
	return &nf.current().hooks[h]
}

// Compile is Snapshot for the JIT specializer, which folds the chain into a
// straight-line program: it refuses (ok=false) a chain with user-chain jumps
// and a value that is not a hook.
func (nf *Netfilter) Compile(h Hook) (*Compiled, bool) {
	if !h.valid() {
		return nil, false
	}
	cp := nf.Snapshot(h)
	return cp, !cp.jumps
}

// Rules reports how many rules the built-in chain of hook h held at Gen: the
// datapath's RuleCount, read from the snapshot instead of under the lock.
// Every hook's snapshot carries all five counts, as it carries CTRequired.
func (cp *Compiled) Rules(h Hook) int { return int(cp.rules[h]) }

// CanSkipProto reports whether a packet of the given protocol can skip the
// rule walk entirely with the accept outcome: no rule can match it and the
// policy accepts. Counter-identical to a full walk — a rule that cannot
// match never bumps its packet counter.
func (cp *Compiled) CanSkipProto(proto uint8) bool {
	return cp.protoSkip && cp.protos[proto>>6]&(1<<(proto&63)) == 0
}

// Evaluate walks the hook's chain against the packet, returning the final
// verdict and the work counts, so each caller can charge its own cost model.
func (cp *Compiled) Evaluate(m *Meta) (Verdict, EvalStats) {
	var st EvalStats
	v := cp.walk(cp.chains[cp.entry], m, &st, 0)
	if v == VerdictNone || v == VerdictReturn {
		v = cp.Policy
	}
	return v, st
}

// walk checks one chain's rules in order. Set probes come after every other
// criterion and stop at the first miss, so SetProbes counts what a hashed
// lookup was paid for. Hit counters are atomic: walks run concurrently, one
// per RX queue. A jump past maxJumpDepth counts its hit and is not taken.
func (cp *Compiled) walk(chain []rec, m *Meta, st *EvalStats, depth int) Verdict {
	for i := range chain {
		r := &chain[i]
		if m.Src&r.srcMask != r.srcVal || m.Dst&r.dstMask != r.dstVal ||
			(r.proto != 0 && r.proto != m.Proto) {
			continue
		}
		// Port matches never apply to non-first fragments: L4 header is absent.
		if r.flags&fPorts != 0 && (m.Fragment ||
			(r.srcPort != 0 && r.srcPort != m.SrcPort) ||
			(r.dstPort != 0 && r.dstPort != m.DstPort)) {
			continue
		}
		if (r.inIf != 0 && int(r.inIf) != m.InIf) ||
			(r.outIf != 0 && int(r.outIf) != m.OutIf) ||
			(r.ctState != 0 && CTState(r.ctState) != m.CTState) {
			continue
		}
		if r.flags&fSrcSet != 0 {
			st.SetProbes++
			if r.srcSet == nil || !r.srcSet.Contains(m.Src) {
				continue
			}
		}
		if r.flags&fDstSet != 0 {
			st.SetProbes++
			if r.dstSet == nil || !r.dstSet.Contains(m.Dst) {
				continue
			}
		}
		atomic.AddUint64(&r.rule.Packets, 1)
		v := Verdict(r.target)
		if r.jump >= 0 && depth < maxJumpDepth {
			v = cp.walk(cp.chains[r.jump], m, st, depth+1)
			if v == VerdictReturn {
				v = VerdictNone // resume this chain
			}
		}
		if v != VerdictNone {
			st.RulesEvaluated += i + 1
			return v
		}
	}
	st.RulesEvaluated += len(chain)
	return VerdictNone
}
