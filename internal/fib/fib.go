// Package fib implements the kernel's forwarding information base: a
// path-compressed binary trie keyed by IPv4 prefix, supporting multiple
// routing tables, route metrics and scopes, and longest-prefix-match lookup.
// The tries are what writers change; packets resolve against a flat snapshot
// of local and main merged (flat.go), rebuilt after the tries change.
//
// This is the single copy of routing state in the system: the slow path's
// ip_route_input and the fast path's bpf_fib_lookup helper both resolve
// against it — the state-sharing design LinuxFP's correctness depends on.
package fib

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"linuxfp/internal/packet"
)

// Well-known routing table IDs (matching Linux rt_tables).
const (
	TableMain  = 254
	TableLocal = 255
)

// Scope mirrors Linux route scopes.
type Scope int

// Route scopes, from widest to narrowest.
const (
	ScopeUniverse Scope = iota + 1 // via a gateway
	ScopeLink                      // directly connected subnet
	ScopeHost                      // local address
)

func (s Scope) String() string {
	switch s {
	case ScopeUniverse:
		return "global"
	case ScopeLink:
		return "link"
	case ScopeHost:
		return "host"
	default:
		return fmt.Sprintf("scope(%d)", int(s))
	}
}

// Route is one FIB entry.
type Route struct {
	Prefix  packet.Prefix
	Gateway packet.Addr // zero for directly connected routes
	OutIf   int         // egress interface index
	Scope   Scope
	Metric  int
	Local   bool // destination is a local address (deliver up)
}

func (r Route) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s", r.Prefix)
	if r.Gateway != 0 {
		fmt.Fprintf(&b, " via %s", r.Gateway)
	}
	fmt.Fprintf(&b, " dev %d scope %s", r.OutIf, r.Scope)
	if r.Metric != 0 {
		fmt.Fprintf(&b, " metric %d", r.Metric)
	}
	if r.Local {
		b.WriteString(" local")
	}
	return b.String()
}

// node is a path-compressed binary trie node. Lookup reads it without a
// lock: best and child are atomic, prefix never changes, and a node is
// complete before the store that makes it reachable.
type node struct {
	prefix packet.Prefix         // the bits this node covers (masked)
	best   atomic.Pointer[Route] // &routes[0]; nil while no route terminates here
	routes []Route               // sorted by metric, never modified once set; mu guards the field
	child  [2]atomic.Pointer[node]
}

// setRoutes swaps the node's route list whole.
func (n *node) setRoutes(rs []Route) {
	n.routes = rs
	if len(rs) == 0 {
		n.best.Store(nil)
	} else {
		n.best.Store(&rs[0])
	}
}

// Table is one routing table: an LPM trie that is read RCU-style. Writers
// are serialised by mu and make each change visible with one atomic store,
// then bump the generation; Lookup takes no lock.
type Table struct {
	mu   sync.RWMutex
	root atomic.Pointer[node]
	size int
	gen  atomic.Uint64 // bumped after every mutation; caches validate against it
}

// Gen reports the table's generation: a counter bumped on every route
// mutation. Flow caches that memoized a lookup result compare the
// generation they captured *before* the lookup against the current one — any
// change invalidates, which is the coherence rule the fast path relies on.
func (t *Table) Gen() uint64 { return t.gen.Load() }

// NewTable returns an empty routing table.
func NewTable() *Table {
	t := &Table{}
	t.root.Store(&node{})
	return t
}

// Len reports the number of routes in the table.
func (t *Table) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.size
}

// bitAt reports bit i (0 = most significant) of a.
func bitAt(a packet.Addr, i int) int {
	return int(a>>(31-i)) & 1
}

// commonBits reports how many leading bits a and b share, capped at max.
func commonBits(a, b packet.Addr, max int) int {
	n := bits.LeadingZeros32(uint32(a ^ b))
	if n > max {
		return max
	}
	return n
}

// Add inserts a route. Routes with identical prefix and metric replace the
// existing entry (the `ip route replace` behaviour used by config tools).
func (t *Table) Add(r Route) {
	r.Prefix = r.Prefix.Masked()
	t.mu.Lock()
	defer t.mu.Unlock()
	n := t.insertNode(r.Prefix)
	old := n.routes
	at := 0 // routes stay in metric order
	for at < len(old) && old[at].Metric < r.Metric {
		at++
	}
	replace := at < len(old) && old[at].Metric == r.Metric
	rs := make([]Route, 0, len(old)+1)
	rs = append(append(rs, old[:at]...), r)
	if replace {
		rs = append(rs, old[at+1:]...)
	} else {
		rs = append(rs, old[at:]...)
		t.size++
	}
	n.setRoutes(rs)
	t.gen.Add(1)
}

// insertNode finds or creates the trie node for the exact prefix. New nodes
// are linked bottom-up: a split's intermediate node has both children in
// place before the parent's pointer is stored.
func (t *Table) insertNode(p packet.Prefix) *node {
	cur := t.root.Load()
	for {
		if cur.prefix.Bits == p.Bits && cur.prefix.Addr == p.Addr {
			return cur
		}
		slot := &cur.child[bitAt(p.Addr, cur.prefix.Bits)]
		next := slot.Load()
		if next == nil {
			n := &node{prefix: p}
			slot.Store(n)
			return n
		}
		// How much of next's prefix does p share?
		shared := commonBits(p.Addr, next.prefix.Addr, min(p.Bits, next.prefix.Bits))
		if shared == next.prefix.Bits {
			cur = next
			continue
		}
		// Split: create an intermediate node covering the shared bits.
		mid := &node{prefix: packet.Prefix{Addr: p.Addr, Bits: shared}.Masked()}
		mid.child[bitAt(next.prefix.Addr, shared)].Store(next)
		n := mid
		if shared != p.Bits {
			n = &node{prefix: p}
			mid.child[bitAt(p.Addr, shared)].Store(n)
		}
		slot.Store(mid)
		return n
	}
}

// Delete removes the route with the given prefix (and metric, if >= 0;
// metric -1 removes all routes on the prefix). It reports whether anything
// was removed. A node left with no route is unlinked unless it still forks
// the trie, so the trie holds no more nodes than its routes need.
func (t *Table) Delete(p packet.Prefix, metric int) bool {
	p = p.Masked()
	t.mu.Lock()
	defer t.mu.Unlock()
	var up, slot *atomic.Pointer[node] // the pointers to cur's parent and to cur
	var parent *node
	cur := t.root.Load()
	for cur != nil && cur.prefix != p {
		if cur.prefix.Bits >= p.Bits || commonBits(p.Addr, cur.prefix.Addr, cur.prefix.Bits) != cur.prefix.Bits {
			return false
		}
		up, slot, parent = slot, &cur.child[bitAt(p.Addr, cur.prefix.Bits)], cur
		cur = slot.Load()
	}
	if cur == nil || len(cur.routes) == 0 {
		return false
	}
	var rs []Route // what stays on the node
	if metric >= 0 {
		at := 0
		for at < len(cur.routes) && cur.routes[at].Metric != metric {
			at++
		}
		if at == len(cur.routes) {
			return false
		}
		if len(cur.routes) > 1 {
			rs = append(append(make([]Route, 0, len(cur.routes)-1), cur.routes[:at]...), cur.routes[at+1:]...)
		}
	}
	t.size -= len(cur.routes) - len(rs)
	cur.setRoutes(rs)
	if len(rs) == 0 && slot != nil {
		prune(slot, cur)
		if up != nil && len(parent.routes) == 0 {
			prune(up, parent)
		}
	}
	t.gen.Add(1)
	return true
}

// prune unlinks a route-less node that no longer forks the trie: slot, the
// pointer that reaches n, is pointed at n's only child (or nil). One store;
// a reader already inside n still finds the way down.
func prune(slot *atomic.Pointer[node], n *node) {
	l, r := n.child[0].Load(), n.child[1].Load()
	switch {
	case l == nil:
		slot.Store(r)
	case r == nil:
		slot.Store(l)
	}
}

// Lookup returns the longest-prefix-match route for dst (lowest metric on
// ties) and reports whether one exists. It takes no lock. Each writer makes
// one store that changes an answer and then bumps the generation, so a walk
// with the same generation before and after crossed at most one change and
// its answer is that of the state on one side of it; any other walk could
// have combined two changes into a state that never existed, and retries.
func (t *Table) Lookup(dst packet.Addr) (Route, bool) {
	for {
		gen := t.gen.Load()
		var best *Route
		for cur := t.root.Load(); cur != nil; cur = cur.child[bitAt(dst, cur.prefix.Bits)].Load() {
			if commonBits(dst, cur.prefix.Addr, cur.prefix.Bits) != cur.prefix.Bits {
				break
			}
			if r := cur.best.Load(); r != nil {
				best = r
			}
			if cur.prefix.Bits == 32 {
				break
			}
		}
		if t.gen.Load() != gen {
			continue
		}
		if best == nil {
			return Route{}, false
		}
		return *best, true
	}
}

// Routes returns all routes in deterministic (prefix, metric) order.
func (t *Table) Routes() []Route {
	t.mu.RLock()
	defer t.mu.RUnlock()
	var out []Route
	var walk func(n *node)
	walk = func(n *node) {
		if n == nil {
			return
		}
		out = append(out, n.routes...)
		walk(n.child[0].Load())
		walk(n.child[1].Load())
	}
	walk(t.root.Load())
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Prefix.Addr != b.Prefix.Addr {
			return a.Prefix.Addr < b.Prefix.Addr
		}
		if a.Prefix.Bits != b.Prefix.Bits {
			return a.Prefix.Bits < b.Prefix.Bits
		}
		return a.Metric < b.Metric
	})
	return out
}

// Flush removes all routes.
func (t *Table) Flush() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.root.Store(&node{})
	t.size = 0
	t.gen.Add(1)
}

// FIB is the set of routing tables in one network namespace.
type FIB struct {
	mu     sync.RWMutex
	tables map[int]*Table
	// main/local are cached so the per-packet Lookup (and the per-hit
	// generation check of the flow fast-cache) never touch the tables map
	// lock.
	main, local *Table

	flat    atomic.Pointer[flat] // what Lookup reads; see flat.go
	buildMu sync.Mutex           // one reader rebuilds flat at a time
}

// New returns a FIB with empty main and local tables.
func New() *FIB {
	f := &FIB{tables: map[int]*Table{
		TableMain:  NewTable(),
		TableLocal: NewTable(),
	}}
	f.main = f.tables[TableMain]
	f.local = f.tables[TableLocal]
	f.flat.Store(newFlat(f.local, f.main, 0, 0))
	return f
}

// Gen reports the combined generation of the tables Lookup consults (local
// + main). Both counters are monotonic, so the sum is monotonic too: equal
// sums imply neither table changed.
func (f *FIB) Gen() uint64 { return f.main.Gen() + f.local.Gen() }

// Table returns the table with the given ID, creating it on first use.
func (f *FIB) Table(id int) *Table {
	f.mu.RLock()
	t, ok := f.tables[id]
	f.mu.RUnlock()
	if ok {
		return t
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if t, ok = f.tables[id]; ok {
		return t
	}
	t = NewTable()
	f.tables[id] = t
	return t
}

// Main returns the main routing table.
func (f *FIB) Main() *Table { return f.main }

// Local returns the local routing table (host addresses).
func (f *FIB) Local() *Table { return f.local }

// Lookup resolves dst the way ip_route_input does: the local table first
// (host delivery wins), then the main table. It reads the flat snapshot of
// both and takes no lock unless a table changed since the snapshot was built.
func (f *FIB) Lookup(dst packet.Addr) (Route, bool) {
	s := f.flat.Load()
	if s.localGen != f.local.gen.Load() || s.mainGen != f.main.gen.Load() {
		s = f.rebuild()
	}
	return s.lookup(dst)
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
