// Package netfilter implements the kernel's iptables-style packet filtering:
// tables of chains evaluated linearly at hook points, user-defined chains
// with jump/return semantics, ipset aggregation, and a connection tracker.
//
// Rule state lives here once: the slow path evaluates chains in ip_rcv /
// ip_forward, and the fast path's bpf_ipt_lookup helper evaluates the very
// same chains (with fewer per-rule cycles — it skips the sk_buff plumbing).
// Evaluation returns work counts so each path can charge its own cost model.
package netfilter

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"linuxfp/internal/drop"
	"linuxfp/internal/packet"
)

// Hook identifies a netfilter evaluation point.
type Hook int

// The five IPv4 netfilter hooks.
const (
	HookPrerouting Hook = iota + 1
	HookInput
	HookForward
	HookOutput
	HookPostrouting
)

func (h Hook) valid() bool { return h >= HookPrerouting && h <= HookPostrouting }

func (h Hook) String() string {
	switch h {
	case HookPrerouting:
		return "PREROUTING"
	case HookInput:
		return "INPUT"
	case HookForward:
		return "FORWARD"
	case HookOutput:
		return "OUTPUT"
	case HookPostrouting:
		return "POSTROUTING"
	default:
		return fmt.Sprintf("hook(%d)", int(h))
	}
}

// Verdict is a rule or chain outcome.
type Verdict int

// Verdicts.
const (
	VerdictNone Verdict = iota // no rule matched; chain policy applies
	VerdictAccept
	VerdictDrop
	VerdictReturn
)

func (v Verdict) String() string {
	switch v {
	case VerdictAccept:
		return "ACCEPT"
	case VerdictDrop:
		return "DROP"
	case VerdictReturn:
		return "RETURN"
	default:
		return "NONE"
	}
}

// DropReason maps a terminal verdict to its skb_drop_reason: a DROP verdict
// at any hook frees the skb with SKB_DROP_REASON_NETFILTER_DROP; every other
// verdict lets the packet continue.
func (v Verdict) DropReason() drop.Reason {
	if v == VerdictDrop {
		return drop.ReasonNetfilterDrop
	}
	return drop.ReasonNotSpecified
}

// Meta is the packet summary rules match against.
type Meta struct {
	Src, Dst packet.Addr
	Proto    uint8
	SrcPort  uint16
	DstPort  uint16
	InIf     int
	OutIf    int
	Fragment bool
	CTState  CTState // set by conntrack when enabled
}

// Match is the conjunction of criteria on one rule. Zero values mean "any".
type Match struct {
	Src     *packet.Prefix
	Dst     *packet.Prefix
	Proto   uint8
	SrcPort uint16
	DstPort uint16
	InIf    int
	OutIf   int
	SrcSet  string // match source against a named ipset
	DstSet  string
	CTState CTState // match conntrack state (0 = any)
}

// Rule is one iptables rule: a match plus a target.
type Rule struct {
	Match   Match
	Target  Verdict // VerdictNone + JumpChain set means a jump
	Jump    string  // user chain to jump to, when Target == VerdictNone
	Packets uint64  // counters, maintained on evaluation
	Bytes   uint64
	Comment string
}

// Chain is an ordered rule list with a policy for built-in chains.
type Chain struct {
	Name    string
	Policy  Verdict // only meaningful for built-in chains
	BuiltIn bool
	Rules   []*Rule
}

// EvalStats counts the work one evaluation performed, so the caller can
// charge the appropriate cost model (slow path vs bpf_ipt_lookup).
type EvalStats struct {
	RulesEvaluated int
	SetProbes      int
	CTLookups      int
}

// maxJumpDepth bounds user-chain recursion (iptables enforces this too).
const maxJumpDepth = 16

// ErrNoChain reports an operation on a chain that does not exist.
var ErrNoChain = errors.New("netfilter: no such chain")

// Netfilter is the filtering state of one namespace: the filter table's
// chains, named ipsets, and the conntrack table.
type Netfilter struct {
	mu       sync.RWMutex
	chains   map[string]*Chain // a hook's built-in chain is chains[hook.String()]
	sets     map[string]*IPSet
	gen      atomic.Uint64           // bumped, under mu, after every ruleset change
	compiled atomic.Pointer[ruleset] // what packets evaluate; see compile.go

	Conntrack *Conntrack
}

// Gen reports the ruleset generation, bumped on any chain, rule, policy or
// set change. The flow fast-cache only memoizes flows while the forward-path
// chains are empty, and a generation bump evicts everything the moment a
// rule appears — filtering decisions are never cached.
func (nf *Netfilter) Gen() uint64 { return nf.gen.Load() }

// New returns a Netfilter with the standard filter-table chains, all with
// ACCEPT policy and no rules — the state of a fresh kernel.
func New() *Netfilter {
	nf := &Netfilter{
		chains:    make(map[string]*Chain),
		sets:      make(map[string]*IPSet),
		Conntrack: NewConntrack(),
	}
	// The model merges the filter and nat tables into one five-chain view:
	// PREROUTING/POSTROUTING exist so kube-proxy-style plumbing has its
	// real per-packet cost.
	for h := HookPrerouting; h <= HookPostrouting; h++ {
		nf.chains[h.String()] = &Chain{Name: h.String(), Policy: VerdictAccept, BuiltIn: true}
	}
	return nf
}

// NewChain creates a user-defined chain (iptables -N).
func (nf *Netfilter) NewChain(name string) error {
	nf.mu.Lock()
	defer nf.mu.Unlock()
	if _, ok := nf.chains[name]; ok {
		return fmt.Errorf("netfilter: chain %q exists", name)
	}
	nf.chains[name] = &Chain{Name: name}
	nf.gen.Add(1)
	return nil
}

// Append adds a rule to the end of a chain (iptables -A).
func (nf *Netfilter) Append(chain string, r Rule) error {
	nf.mu.Lock()
	defer nf.mu.Unlock()
	c, ok := nf.chains[chain]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNoChain, chain)
	}
	rc := r
	c.Rules = append(c.Rules, &rc)
	nf.gen.Add(1)
	return nil
}

// Insert adds a rule at 1-based position pos (iptables -I).
func (nf *Netfilter) Insert(chain string, pos int, r Rule) error {
	nf.mu.Lock()
	defer nf.mu.Unlock()
	c, ok := nf.chains[chain]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNoChain, chain)
	}
	if pos < 1 || pos > len(c.Rules)+1 {
		return fmt.Errorf("netfilter: position %d out of range", pos)
	}
	rc := r
	c.Rules = append(c.Rules, nil)
	copy(c.Rules[pos:], c.Rules[pos-1:])
	c.Rules[pos-1] = &rc
	nf.gen.Add(1)
	return nil
}

// Delete removes the rule at 1-based position pos (iptables -D chain N).
func (nf *Netfilter) Delete(chain string, pos int) error {
	nf.mu.Lock()
	defer nf.mu.Unlock()
	c, ok := nf.chains[chain]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNoChain, chain)
	}
	if pos < 1 || pos > len(c.Rules) {
		return fmt.Errorf("netfilter: position %d out of range", pos)
	}
	c.Rules = append(c.Rules[:pos-1], c.Rules[pos:]...)
	nf.gen.Add(1)
	return nil
}

// Flush removes all rules from a chain (iptables -F chain).
func (nf *Netfilter) Flush(chain string) error {
	nf.mu.Lock()
	defer nf.mu.Unlock()
	c, ok := nf.chains[chain]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNoChain, chain)
	}
	c.Rules = nil
	nf.gen.Add(1)
	return nil
}

// SetPolicy sets a built-in chain's policy (iptables -P).
func (nf *Netfilter) SetPolicy(chain string, v Verdict) error {
	nf.mu.Lock()
	defer nf.mu.Unlock()
	c, ok := nf.chains[chain]
	if !ok || !c.BuiltIn {
		return fmt.Errorf("%w: built-in %q", ErrNoChain, chain)
	}
	c.Policy = v
	nf.gen.Add(1)
	return nil
}

// Chain returns a snapshot copy of a chain's rules.
func (nf *Netfilter) Chain(name string) (Chain, bool) {
	nf.mu.RLock()
	defer nf.mu.RUnlock()
	c, ok := nf.chains[name]
	if !ok {
		return Chain{}, false
	}
	out := Chain{Name: c.Name, Policy: c.Policy, BuiltIn: c.BuiltIn}
	out.Rules = make([]*Rule, len(c.Rules))
	for i, r := range c.Rules {
		rc := *r
		out.Rules[i] = &rc
	}
	return out, true
}

// Chains lists chain names in sorted order.
func (nf *Netfilter) Chains() []string {
	nf.mu.RLock()
	defer nf.mu.RUnlock()
	out := make([]string, 0, len(nf.chains))
	for n := range nf.chains {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// RuleCount reports the number of rules on a chain (0 for unknown chains).
func (nf *Netfilter) RuleCount(chain string) int {
	nf.mu.RLock()
	defer nf.mu.RUnlock()
	c, ok := nf.chains[chain]
	if !ok {
		return 0
	}
	return len(c.Rules)
}

// CTRequired reports whether any rule matches on conntrack state, as of the
// current generation (Compiled.CTRequired).
func (nf *Netfilter) CTRequired() bool {
	return nf.current().hooks[HookPrerouting].CTRequired
}

// HasTerminalDrop reports whether a chain (or a chain it jumps to) can
// drop packets — the controller refuses to skip such a chain in the fast
// path.
func (nf *Netfilter) HasTerminalDrop(chain string) bool {
	nf.mu.RLock()
	defer nf.mu.RUnlock()
	return nf.hasDropLocked(chain, 0)
}

func (nf *Netfilter) hasDropLocked(chain string, depth int) bool {
	c, ok := nf.chains[chain]
	if !ok || depth > maxJumpDepth {
		return false
	}
	if c.BuiltIn && c.Policy == VerdictDrop {
		return true
	}
	for _, r := range c.Rules {
		if r.Target == VerdictDrop {
			return true
		}
		if r.Jump != "" && nf.hasDropLocked(r.Jump, depth+1) {
			return true
		}
	}
	return false
}

// TotalRules reports the number of rules across all chains.
func (nf *Netfilter) TotalRules() int {
	nf.mu.RLock()
	defer nf.mu.RUnlock()
	n := 0
	for _, c := range nf.chains {
		n += len(c.Rules)
	}
	return n
}

// EvaluateHook runs the chain registered at the hook against the packet,
// returning the final verdict and work counts. A value that is not one of
// the five hooks accepts for free.
func (nf *Netfilter) EvaluateHook(h Hook, m *Meta) (Verdict, EvalStats) {
	return nf.Snapshot(h).Evaluate(m)
}
