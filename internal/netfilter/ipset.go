package netfilter

import (
	"fmt"
	"sort"
	"sync"

	"linuxfp/internal/packet"
)

// IPSet is a named hash:net set: membership testing probes one hash table
// per distinct prefix length present, like the kernel implementation — so a
// 100-entry /32 blacklist is a single probe, which is exactly why
// aggregating iptables rules into an ipset flattens Fig. 8's scaling curve.
type IPSet struct {
	Name string
	Type string // "hash:ip" or "hash:net"

	mu     sync.RWMutex
	levels []setLevel // one per distinct prefix length, ascending
}

// setLevel is the members of one prefix length, keyed by masked address; the
// netmask is kept so a probe computes nothing but the AND.
type setLevel struct {
	bits    int
	mask    packet.Addr
	members map[packet.Addr]bool
}

// NewIPSet creates a set of the given type ("hash:ip" or "hash:net").
func NewIPSet(name, typ string) (*IPSet, error) {
	if typ != "hash:ip" && typ != "hash:net" {
		return nil, fmt.Errorf("netfilter: unsupported set type %q", typ)
	}
	return &IPSet{Name: name, Type: typ}, nil
}

// level returns the index of the level holding bits-long prefixes, or where
// it would be inserted. Caller holds mu.
func (s *IPSet) level(bits int) (int, bool) {
	i := sort.Search(len(s.levels), func(i int) bool { return s.levels[i].bits >= bits })
	return i, i < len(s.levels) && s.levels[i].bits == bits
}

// Add inserts a prefix (a /32 for hash:ip sets).
func (s *IPSet) Add(p packet.Prefix) error {
	if s.Type == "hash:ip" && p.Bits != 32 {
		return fmt.Errorf("netfilter: hash:ip set %q only holds /32s", s.Name)
	}
	p = p.Masked()
	s.mu.Lock()
	defer s.mu.Unlock()
	i, ok := s.level(p.Bits)
	if !ok {
		s.levels = append(s.levels, setLevel{})
		copy(s.levels[i+1:], s.levels[i:])
		s.levels[i] = setLevel{bits: p.Bits, mask: p.Mask(), members: make(map[packet.Addr]bool)}
	}
	s.levels[i].members[p.Addr] = true
	return nil
}

// Del removes a prefix, reporting whether it was present.
func (s *IPSet) Del(p packet.Prefix) bool {
	p = p.Masked()
	s.mu.Lock()
	defer s.mu.Unlock()
	i, ok := s.level(p.Bits)
	if !ok || !s.levels[i].members[p.Addr] {
		return false
	}
	delete(s.levels[i].members, p.Addr)
	return true
}

// Contains reports whether addr matches any member prefix.
func (s *IPSet) Contains(addr packet.Addr) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	// Probe longest prefixes first, like the kernel (most specific wins;
	// for plain membership any hit suffices).
	for i := len(s.levels) - 1; i >= 0; i-- {
		if l := &s.levels[i]; l.members[addr&l.mask] {
			return true
		}
	}
	return false
}

// Len reports the number of member prefixes.
func (s *IPSet) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	n := 0
	for _, l := range s.levels {
		n += len(l.members)
	}
	return n
}

// Members returns the member prefixes in sorted order.
func (s *IPSet) Members() []packet.Prefix {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []packet.Prefix
	for _, l := range s.levels {
		for a := range l.members {
			out = append(out, packet.Prefix{Addr: a, Bits: l.bits})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Addr != out[j].Addr {
			return out[i].Addr < out[j].Addr
		}
		return out[i].Bits < out[j].Bits
	})
	return out
}

// CreateSet registers a new named set (ipset create).
func (nf *Netfilter) CreateSet(name, typ string) (*IPSet, error) {
	nf.mu.Lock()
	defer nf.mu.Unlock()
	if _, ok := nf.sets[name]; ok {
		return nil, fmt.Errorf("netfilter: set %q exists", name)
	}
	s, err := NewIPSet(name, typ)
	if err != nil {
		return nil, err
	}
	nf.sets[name] = s
	nf.gen.Add(1)
	return s, nil
}

// Set returns a named set.
func (nf *Netfilter) Set(name string) (*IPSet, bool) {
	nf.mu.RLock()
	defer nf.mu.RUnlock()
	s, ok := nf.sets[name]
	return s, ok
}

// DestroySet removes a named set (ipset destroy). Rules that name it stop
// matching: the generation bump retires every snapshot that resolved it.
func (nf *Netfilter) DestroySet(name string) bool {
	nf.mu.Lock()
	defer nf.mu.Unlock()
	_, ok := nf.sets[name]
	delete(nf.sets, name)
	if ok {
		nf.gen.Add(1)
	}
	return ok
}

// Sets lists set names in sorted order.
func (nf *Netfilter) Sets() []string {
	nf.mu.RLock()
	defer nf.mu.RUnlock()
	out := make([]string, 0, len(nf.sets))
	for n := range nf.sets {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
