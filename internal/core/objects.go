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
	"cmp"
	"slices"
	"sync"

	"linuxfp/internal/netlink"
	"linuxfp/internal/packet"
)

// ObjectStore is the controller's mirror of kernel networking state,
// maintained purely from netlink dumps and notifications — the controller
// never peeks at kernel internals directly (the data plane's helpers do,
// but that is the point: state stays in the kernel).
//
// Besides the objects themselves it keeps the facts TopologyManager.Build
// derives from them (routes per output ifindex, live IPVS services), updated
// once per message, and a topology generation that advances only when a
// message changes something Build reads. A reconcile whose generation is
// unchanged can reuse the last graph as is.
type ObjectStore struct {
	mu     sync.RWMutex
	links  map[int]netlink.LinkMsg
	addrs  map[int]map[packet.Prefix]bool
	routes map[packet.Prefix]netlink.RouteMsg
	chains map[string]netlink.RuleMsg // keyed by chain name
	sets   map[string]netlink.SetMsg
	ipvs   map[ipvsKey]netlink.IPVSMsg
	sysctl map[string]string

	routedOut map[int]int // routes per output ifindex; no zero entries
	ipvsLive  int         // IPVS services with backends
	topoGen   uint64      // advanced by every change Build can see
}

// ipvsKey identifies one IPVS virtual service.
type ipvsKey struct {
	vip   packet.Addr
	port  uint16
	proto uint8
}

// Topology inputs outside the link, address and route tables: the chains and
// sysctls TopologyManager.Build reads.
const (
	chainForward     = "FORWARD"
	chainPostrouting = "POSTROUTING"
	sysctlForward    = "net.ipv4.ip_forward"
	sysctlBrNF       = "net.bridge.bridge-nf-call-iptables"
)

// NewObjectStore returns an empty store.
func NewObjectStore() *ObjectStore {
	return &ObjectStore{
		links:     make(map[int]netlink.LinkMsg),
		addrs:     make(map[int]map[packet.Prefix]bool),
		routes:    make(map[packet.Prefix]netlink.RouteMsg),
		chains:    make(map[string]netlink.RuleMsg),
		sets:      make(map[string]netlink.SetMsg),
		ipvs:      make(map[ipvsKey]netlink.IPVSMsg),
		sysctl:    make(map[string]string),
		routedOut: make(map[int]int),
	}
}

// Apply folds one netlink message into the store. It reports whether the
// message changed any state (used to skip no-op reconciles); whether the
// change is one the processing graph can see is TopoGen's business.
func (s *ObjectStore) Apply(msg netlink.Message) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	changed, topo := s.applyLocked(msg)
	if topo {
		s.topoGen++
	}
	return changed
}

// applyLocked reports whether msg changed the store and whether it changed a
// topology input.
func (s *ObjectStore) applyLocked(msg netlink.Message) (changed, topo bool) {
	switch p := msg.Payload.(type) {
	case netlink.LinkMsg:
		if msg.Type == netlink.DelLink {
			delete(s.links, p.Index)
			delete(s.addrs, p.Index)
			return true, true
		}
		old, had := s.links[p.Index]
		s.links[p.Index] = p
		changed = !had || !linkEqual(old, p)
		return changed, changed
	case netlink.AddrMsg:
		set, ok := s.addrs[p.Index]
		if !ok {
			set = make(map[packet.Prefix]bool)
			s.addrs[p.Index] = set
		}
		had := set[p.Prefix]
		if msg.Type == netlink.DelAddr {
			delete(set, p.Prefix)
			return had, had
		}
		set[p.Prefix] = true
		return !had, !had
	case netlink.RouteMsg:
		old, had := s.routes[p.Prefix]
		if msg.Type == netlink.DelRoute {
			// A delete names the prefix only: the stored route knows its
			// output interface.
			if !had {
				return false, false
			}
			delete(s.routes, p.Prefix)
			return true, s.unroute(old.OutIf)
		}
		if had && old == p {
			return false, false
		}
		s.routes[p.Prefix] = p
		if had && old.OutIf == p.OutIf {
			return true, false
		}
		topo = s.route(p.OutIf)
		if had {
			topo = s.unroute(old.OutIf) || topo
		}
		return true, topo
	case netlink.RuleMsg:
		old, had := s.chains[p.Chain]
		s.chains[p.Chain] = p
		changed = !had || old != p
		return changed, changed && (p.Chain == chainForward || p.Chain == chainPostrouting)
	case netlink.SetMsg:
		// Sets are matched at run time through the kernel's own tables; a
		// rule that uses one is already flagged on its chain.
		if msg.Type == netlink.DelSet {
			_, had := s.sets[p.Name]
			delete(s.sets, p.Name)
			return had, false
		}
		old, had := s.sets[p.Name]
		s.sets[p.Name] = p
		return !had || old != p, false
	case netlink.IPVSMsg:
		key := ipvsKey{vip: p.VIP, port: p.Port, proto: p.Proto}
		old, had := s.ipvs[key]
		live := s.ipvsLive
		if had && old.Backends > 0 {
			live--
		}
		if p.Backends == 0 && p.Services == 0 {
			delete(s.ipvs, key)
			changed = had
		} else {
			s.ipvs[key] = p
			changed = !had || old != p
			if p.Backends > 0 {
				live++
			}
		}
		topo = live != s.ipvsLive
		s.ipvsLive = live
		return changed, topo
	case netlink.SysctlMsg:
		old, had := s.sysctl[p.Key]
		s.sysctl[p.Key] = p.Value
		changed = !had || old != p.Value
		return changed, changed && (p.Key == sysctlForward || p.Key == sysctlBrNF)
	default:
		return false, false
	}
}

// route counts one more route out of ifindex and reports whether that
// ifindex had none before.
func (s *ObjectStore) route(ifindex int) bool {
	s.routedOut[ifindex]++
	return s.routedOut[ifindex] == 1
}

// unroute counts one route fewer out of ifindex and reports whether that was
// its last.
func (s *ObjectStore) unroute(ifindex int) bool {
	if s.routedOut[ifindex]--; s.routedOut[ifindex] > 0 {
		return false
	}
	delete(s.routedOut, ifindex)
	return true
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

// TopoGen is the topology generation: it advances whenever Apply changes
// something TopologyManager.Build reads, and only then. Build's result is a
// function of the generation.
func (s *ObjectStore) TopoGen() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.topoGen
}

// Links returns all known links sorted by ifindex.
func (s *ObjectStore) Links() []netlink.LinkMsg {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]netlink.LinkMsg, 0, len(s.links))
	for _, l := range s.links {
		out = append(out, l)
	}
	slices.SortFunc(out, func(a, b netlink.LinkMsg) int { return cmp.Compare(a.Index, b.Index) })
	return out
}

// Link returns one link by ifindex.
func (s *ObjectStore) Link(idx int) (netlink.LinkMsg, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	l, ok := s.links[idx]
	return l, ok
}

// HasAddr reports whether an interface has at least one address.
func (s *ObjectStore) HasAddr(idx int) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.addrs[idx]) > 0
}

// RoutedOut returns the ifindexes that at least one route leaves through,
// in ascending order.
func (s *ObjectStore) RoutedOut() []int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]int, 0, len(s.routedOut))
	for idx := range s.routedOut {
		out = append(out, idx)
	}
	slices.Sort(out)
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
	return s.ipvsLive
}
