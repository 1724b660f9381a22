// Package core implements the LinuxFP controller — the paper's primary
// contribution. A daemon continuously introspects kernel configuration
// through netlink (Service Introspection), derives relationships between
// the discovered objects (Topology Manager), models the needed data plane
// as a JSON processing graph, synthesizes per-configuration fast-path
// programs from the FPM library (Fast Path Synthesizer), checks them
// against available kernel features (Capability Manager), and deploys them
// atomically behind tail-call dispatchers (Fast Path Deployer).
//
// Nothing configures LinuxFP directly: users keep using ip, brctl,
// iptables, ipset and sysctl, and the controller reacts.
package core

import (
	"fmt"
	"sort"
	"sync"

	"linuxfp/internal/netlink"
	"linuxfp/internal/packet"
)

// ObjectStore is the controller's mirror of kernel networking state,
// maintained purely from netlink dumps and notifications — the controller
// never peeks at kernel internals directly (the data plane's helpers do,
// but that is the point: state stays in the kernel).
type ObjectStore struct {
	mu     sync.RWMutex
	links  map[int]netlink.LinkMsg
	addrs  map[int]map[packet.Prefix]bool
	routes map[string]netlink.RouteMsg // keyed by prefix string
	chains map[string]netlink.RuleMsg  // keyed by chain name
	sets   map[string]netlink.SetMsg
	ipvs   map[string]netlink.IPVSMsg // keyed by vip:port/proto
	sysctl map[string]string
}

// NewObjectStore returns an empty store.
func NewObjectStore() *ObjectStore {
	return &ObjectStore{
		links:  make(map[int]netlink.LinkMsg),
		addrs:  make(map[int]map[packet.Prefix]bool),
		routes: make(map[string]netlink.RouteMsg),
		chains: make(map[string]netlink.RuleMsg),
		sets:   make(map[string]netlink.SetMsg),
		ipvs:   make(map[string]netlink.IPVSMsg),
		sysctl: make(map[string]string),
	}
}

// Apply folds one netlink message into the store. It reports whether the
// message changed any state (used to skip no-op reconciles).
func (s *ObjectStore) Apply(msg netlink.Message) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch p := msg.Payload.(type) {
	case netlink.LinkMsg:
		if msg.Type == netlink.DelLink {
			delete(s.links, p.Index)
			delete(s.addrs, p.Index)
			return true
		}
		old, had := s.links[p.Index]
		s.links[p.Index] = p
		return !had || !linkEqual(old, p)
	case netlink.AddrMsg:
		set, ok := s.addrs[p.Index]
		if !ok {
			set = make(map[packet.Prefix]bool)
			s.addrs[p.Index] = set
		}
		if msg.Type == netlink.DelAddr {
			had := set[p.Prefix]
			delete(set, p.Prefix)
			return had
		}
		had := set[p.Prefix]
		set[p.Prefix] = true
		return !had
	case netlink.RouteMsg:
		key := p.Prefix.String()
		if msg.Type == netlink.DelRoute {
			_, had := s.routes[key]
			delete(s.routes, key)
			return had
		}
		old, had := s.routes[key]
		s.routes[key] = p
		return !had || old != p
	case netlink.RuleMsg:
		old, had := s.chains[p.Chain]
		s.chains[p.Chain] = p
		return !had || old != p
	case netlink.SetMsg:
		if msg.Type == netlink.DelSet {
			_, had := s.sets[p.Name]
			delete(s.sets, p.Name)
			return had
		}
		old, had := s.sets[p.Name]
		s.sets[p.Name] = p
		return !had || old != p
	case netlink.IPVSMsg:
		key := fmt.Sprintf("%s:%d/%d", p.VIP, p.Port, p.Proto)
		if p.Backends == 0 && p.Services == 0 {
			_, had := s.ipvs[key]
			delete(s.ipvs, key)
			return had
		}
		old, had := s.ipvs[key]
		s.ipvs[key] = p
		return !had || old != p
	case netlink.SysctlMsg:
		old, had := s.sysctl[p.Key]
		s.sysctl[p.Key] = p.Value
		return !had || old != p.Value
	default:
		return false
	}
}

func linkEqual(a, b netlink.LinkMsg) bool {
	if a.Index != b.Index || a.Name != b.Name || a.Kind != b.Kind ||
		a.Up != b.Up || a.Master != b.Master || a.MTU != b.MTU || a.MAC != b.MAC {
		return false
	}
	switch {
	case a.BridgeA == nil && b.BridgeA == nil:
		return true
	case a.BridgeA == nil || b.BridgeA == nil:
		return false
	default:
		return *a.BridgeA == *b.BridgeA
	}
}

// Links returns all known links sorted by ifindex.
func (s *ObjectStore) Links() []netlink.LinkMsg {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]netlink.LinkMsg, 0, len(s.links))
	for _, l := range s.links {
		out = append(out, l)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Index < out[j].Index })
	return out
}

// Link returns one link by ifindex.
func (s *ObjectStore) Link(idx int) (netlink.LinkMsg, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	l, ok := s.links[idx]
	return l, ok
}

// Addrs returns the addresses on one interface.
func (s *ObjectStore) Addrs(idx int) []packet.Prefix {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []packet.Prefix
	for p := range s.addrs[idx] {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Addr < out[j].Addr })
	return out
}

// Routes returns all known routes sorted by prefix.
func (s *ObjectStore) Routes() []netlink.RouteMsg {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]netlink.RouteMsg, 0, len(s.routes))
	for _, r := range s.routes {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Prefix.Addr != out[j].Prefix.Addr {
			return out[i].Prefix.Addr < out[j].Prefix.Addr
		}
		return out[i].Prefix.Bits < out[j].Prefix.Bits
	})
	return out
}

// Chain returns the rule summary for a chain.
func (s *ObjectStore) Chain(name string) (netlink.RuleMsg, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	c, ok := s.chains[name]
	return c, ok
}

// Sysctl returns a sysctl value.
func (s *ObjectStore) Sysctl(key string) string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.sysctl[key]
}

// IPVSServiceCount reports how many virtual services have backends.
func (s *ObjectStore) IPVSServiceCount() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	n := 0
	for _, m := range s.ipvs {
		if m.Backends > 0 {
			n++
		}
	}
	return n
}
