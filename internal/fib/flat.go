// The read side of the FIB. Every packet resolves against one immutable table
// that merges local and main: a leaf-pushed multibit trie with strides 8-8-8-8
// whose nodes are [256]uint32, indexed by one octet of the destination each.
// An entry is 0 (no route), the index of a route in the snapshot's route
// slice, or, with the top bit set, the index of the child node that covers
// the next octet. A lookup is at most four dependent array loads.
//
// Readers are RCU-style, as netfilter's ruleset is: the table is immutable,
// lives behind an atomic pointer, and is stamped with the generations of both
// tables it was built from. Writers only change the tries and bump their
// table's generation; the first reader that finds the stamps behind rebuilds
// the table under both tables' read locks, where the tries and the
// generations agree by construction.
package fib

import "linuxfp/internal/packet"

// child marks an entry that points at a node rather than a route.
const child = 1 << 31

// flat is one immutable snapshot of local and main, merged.
type flat struct {
	localGen, mainGen uint64
	nodes             [][256]uint32 // nodes[0] is the root, indexed by the first octet
	routes            []Route       // routes[0] is unused: entry 0 is a miss
}

// lookup resolves dst in the snapshot.
func (s *flat) lookup(dst packet.Addr) (Route, bool) {
	e := s.nodes[0][byte(dst>>24)]
	for shift := 16; e&child != 0; shift -= 8 {
		e = s.nodes[e&^child][byte(dst>>shift)]
	}
	if e == 0 {
		return Route{}, false
	}
	return s.routes[e], true
}

// rebuild returns the snapshot of the live generations, building it unless
// another reader did while this one waited for the lock.
func (f *FIB) rebuild() *flat {
	f.buildMu.Lock()
	defer f.buildMu.Unlock()
	// Writers hold their table's lock from their first change to their
	// generation bump, so under both read locks the tries and the generations
	// agree.
	f.local.mu.RLock()
	defer f.local.mu.RUnlock()
	f.main.mu.RLock()
	defer f.main.mu.RUnlock()
	lg, mg := f.local.gen.Load(), f.main.gen.Load()
	if s := f.flat.Load(); s.localGen == lg && s.mainGen == mg {
		return s
	}
	s := newFlat(f.local, f.main, lg, mg)
	f.flat.Store(s)
	return s
}

// newFlat builds the snapshot of local and main; the caller holds both
// tables' read locks. Main is filled first and local second, each in its
// trie's preorder, so a prefix is filled after every prefix that contains it
// (containment is ancestry in the trie). Local overwrites whatever main left
// in its range, however long main's prefixes: ip_route_input consults local
// first.
func newFlat(local, main *Table, lg, mg uint64) *flat {
	routes := bestRoutes(make([]Route, 1, 1+local.size+main.size), main.root.Load())
	nMain := len(routes)
	routes = bestRoutes(routes, local.root.Load())
	s := &flat{
		localGen: lg,
		mainGen:  mg,
		nodes:    make([][256]uint32, 1, countNodes(routes[1:nMain], routes[nMain:])),
		routes:   routes,
	}
	for i := 1; i < len(routes); i++ {
		s.fill(routes[i].Prefix, uint32(i))
	}
	return s
}

// bestRoutes appends the best route of every prefix in n's subtrie, in
// preorder, which is also address order.
func bestRoutes(rs []Route, n *node) []Route {
	if n == nil {
		return rs
	}
	if len(n.routes) > 0 {
		rs = append(rs, n.routes[0])
	}
	return bestRoutes(bestRoutes(rs, n.child[0].Load()), n.child[1].Load())
}

// countNodes reports how many nodes filling a's and b's prefixes creates: the
// root, and one per distinct octet path a prefix continues below. It merges
// the two lists, each in address order, and counts each level's distinct
// keys.
func countNodes(a, b []Route) int {
	n := 1
	for shift := 24; shift > 0; shift -= 8 {
		seen, last := false, packet.Addr(0)
		for i, j := 0, 0; i < len(a) || j < len(b); {
			var p packet.Prefix
			if j == len(b) || i < len(a) && a[i].Prefix.Addr <= b[j].Prefix.Addr {
				p, i = a[i].Prefix, i+1
			} else {
				p, j = b[j].Prefix, j+1
			}
			if k := p.Addr >> shift; p.Bits > 32-shift && (!seen || k != last) {
				n, seen, last = n+1, true, k
			}
		}
	}
	return n
}

// fill writes route index v over every address p covers. It descends to the
// node of p's last octet, creating on the way each missing node as 256
// copies of the entry it replaces, and overwrites the entries p spans there,
// and every entry of every node below them.
func (s *flat) fill(p packet.Prefix, v uint32) {
	n, shift := uint32(0), 24
	for ; p.Bits > 32-shift; shift -= 8 {
		i := byte(p.Addr >> shift)
		e := s.nodes[n][i]
		if e&child == 0 {
			s.nodes = append(s.nodes, [256]uint32{})
			if e != 0 {
				c := &s.nodes[len(s.nodes)-1]
				for j := range c {
					c[j] = e
				}
			}
			e = uint32(len(s.nodes)-1) | child
			s.nodes[n][i] = e
		}
		n = e &^ child
	}
	lo := int(byte(p.Addr >> shift))
	for i := lo; i < lo+1<<(32-shift-p.Bits); i++ {
		s.overwrite(&s.nodes[n][i], v)
	}
}

// overwrite sets the entry e, or every entry below it if it points at a node.
func (s *flat) overwrite(e *uint32, v uint32) {
	if *e&child == 0 {
		*e = v
		return
	}
	c := &s.nodes[*e&^child]
	for j := range c {
		s.overwrite(&c[j], v)
	}
}
