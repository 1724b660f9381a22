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
//
// A walk does not test every record. Each chain has a bit-vector index over
// its source and destination prefixes (the linear bit-vector search of
// Lakshman and Stiliadis, which pcn-iptables runs): one binary search per
// axis finds the packet's elementary interval, and the AND of the two rows
// names the rules whose prefixes both cover the packet. Only those records
// get the full check, in rule order, so verdicts, work counts and hit
// counters are the linear walk's. The index is built by the first walk of
// its chain, not by compileLocked, whose first caller after a rule change
// is often the controller's reconcile and not a packet.
package netfilter

import (
	"math/bits"
	"slices"
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
	// index[c] is chain c's classifier once a walk has built it; the slice
	// is the ruleset's, so the five hooks share every build.
	index []atomic.Pointer[chainIndex]
	entry int32 // the hook's built-in chain
	jumps bool  // the built-in chain has jump rules
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
	idx := make([]atomic.Pointer[chainIndex], len(chains))
	rs := &ruleset{gen: gen}
	rs.hooks[0] = Compiled{Gen: gen, Policy: VerdictAccept, CTRequired: ct, rules: rules,
		chains: chains, index: idx, entry: int32(len(order))}
	for h := HookPrerouting; h <= HookPostrouting; h++ {
		c := nf.chains[h.String()]
		cp := &rs.hooks[h]
		*cp = Compiled{Gen: gen, Policy: c.Policy, CTRequired: ct, rules: rules,
			chains: chains, index: idx, entry: index[c.Name], protoSkip: c.Policy != VerdictDrop}
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
	v := cp.walk(cp.entry, m, &st, 0)
	if v == VerdictNone || v == VerdictReturn {
		v = cp.Policy
	}
	return v, st
}

// walk checks chain c's rules in order, visiting only the candidates its
// index names; a rule the index rules out could not have passed the prefix
// test below. Work counts stay positional, as in ipt_do_table: a walk that
// ends at rule i has evaluated i+1 rules, and one that falls through has
// evaluated the whole chain. Set probes come after every other criterion and stop at the
// first miss, so SetProbes counts what a hashed lookup was paid for. Hit
// counters are atomic: walks run concurrently, one per RX queue. A jump past
// maxJumpDepth counts its hit and is not taken.
func (cp *Compiled) walk(c int32, m *Meta, st *EvalStats, depth int) Verdict {
	chain := cp.chains[c]
	if len(chain) == 0 {
		return VerdictNone
	}
	ix := cp.index[c].Load()
	if ix == nil {
		ix = cp.buildIndex(c)
	}
	srow, drow := ix.src.row(m.Src, ix.words), ix.dst.row(m.Dst, ix.words)
	for w := range srow {
		for cand := srow[w] & drow[w]; cand != 0; cand &= cand - 1 {
			i := w<<6 | bits.TrailingZeros64(cand)
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
				v = cp.walk(r.jump, m, st, depth+1)
				if v == VerdictReturn {
					v = VerdictNone // resume this chain
				}
			}
			if v != VerdictNone {
				st.RulesEvaluated += i + 1
				return v
			}
		}
	}
	st.RulesEvaluated += len(chain)
	return VerdictNone
}

// chainIndex classifies a packet against one chain: bit i of a row stands
// for rule i, and a row holds ⌈n/64⌉ words.
type chainIndex struct {
	words    int
	src, dst axis
}

// axis cuts the 32-bit space at every prefix boundary of one match field.
// starts holds the first address of each elementary interval, ascending and
// starting at 0; rows[k*words:] is interval k's row, in which a rule is set
// when its prefix covers the interval. A rule without a prefix on the axis
// has mask 0, covers the whole space, and is set in every row.
type axis struct {
	starts []uint32
	rows   []uint64
}

// buildIndex builds chain c's index and publishes it. Walkers that race
// here may each build one; the first to publish wins, and all walk that one.
func (cp *Compiled) buildIndex(c int32) *chainIndex {
	ix := newChainIndex(cp.chains[c])
	if !cp.index[c].CompareAndSwap(nil, ix) {
		ix = cp.index[c].Load()
	}
	return ix
}

func newChainIndex(chain []rec) *chainIndex {
	ix := &chainIndex{words: (len(chain) + 63) / 64}
	edges := make([]uint64, 0, 2*len(chain))
	for i := range chain {
		edges = appendEdges(edges, i, chain[i].srcVal, chain[i].srcMask)
	}
	ix.src = newAxis(edges, ix.words)
	edges = edges[:0]
	for i := range chain {
		edges = appendEdges(edges, i, chain[i].dstVal, chain[i].dstMask)
	}
	ix.dst = newAxis(edges, ix.words)
	return ix
}

// appendEdges appends rule i's two edges on one axis, each packed as
// addr<<32 | i<<1 | remove so that one sort orders a sweep: the rule enters
// at its prefix's first address and leaves one past its last. A prefix that
// ends at 255.255.255.255 never leaves.
func appendEdges(edges []uint64, i int, val, mask packet.Addr) []uint64 {
	r := uint64(i) << 1
	edges = append(edges, uint64(val)<<32|r)
	if end := uint64(val | ^mask); end != 1<<32-1 {
		edges = append(edges, (end+1)<<32|r|1)
	}
	return edges
}

// newAxis sweeps the sorted edges once, emitting the running row at each
// distinct address: at most 2n+1 intervals.
func newAxis(edges []uint64, words int) axis {
	slices.Sort(edges)
	k := 1 // the interval starting at 0, whether or not an edge is there
	for j := range edges {
		if a := edges[j] >> 32; a != 0 && (j == 0 || a != edges[j-1]>>32) {
			k++
		}
	}
	ax := axis{starts: make([]uint32, 1, k), rows: make([]uint64, k*words)}
	cur := ax.rows[:words] // row 0 accumulates the edges at address 0
	for j := 0; j < len(edges); {
		a := edges[j] >> 32
		if a != 0 {
			next := ax.rows[len(ax.starts)*words:][:words]
			copy(next, cur)
			cur = next
			ax.starts = append(ax.starts, uint32(a))
		}
		for ; j < len(edges) && edges[j]>>32 == a; j++ {
			i := uint32(edges[j]) >> 1
			if edges[j]&1 == 0 {
				cur[i>>6] |= 1 << (i & 63)
			} else {
				cur[i>>6] &^= 1 << (i & 63)
			}
		}
	}
	return ax
}

// row returns the row of the interval holding a.
func (ax *axis) row(a packet.Addr, words int) []uint64 {
	lo, hi := 0, len(ax.starts) // starts[lo] <= a < starts[hi]
	for hi-lo > 1 {
		mid := int(uint(lo+hi) >> 1)
		if ax.starts[mid] <= uint32(a) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return ax.rows[lo*words:][:words]
}
