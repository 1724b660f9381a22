// Package netlink models the kernel↔userspace control channel the LinuxFP
// controller introspects through: typed RTM-style messages, dump requests
// for initial state, and multicast groups that broadcast configuration
// changes. The kernel publishes; the controller's Service Introspection
// subscribes (paper §IV-C1).
//
// Netfilter changes are modeled as messages on their own group even though
// the real controller reads them through libiptc — the observable behaviour
// (controller learns of the change and reacts) is identical, and the
// libiptc read latency is charged in the reaction-time model.
package netlink

import (
	"fmt"
	"sync"

	"linuxfp/internal/packet"
)

// MsgType enumerates the message kinds (RTM_* analogues).
type MsgType int

// Message types.
const (
	NewLink MsgType = iota + 1
	DelLink
	NewAddr
	DelAddr
	NewRoute
	DelRoute
	NewNeigh
	DelNeigh
	NewRule // netfilter rule added (libiptc-observed)
	DelRule
	NewSet // ipset created or modified
	DelSet
	SysctlChange
	NewIPVS // ipvs service/backend change (genl ipvs channel)
)

// msgNames is indexed by MsgType.
var msgNames = [...]string{
	NewLink: "RTM_NEWLINK", DelLink: "RTM_DELLINK",
	NewAddr: "RTM_NEWADDR", DelAddr: "RTM_DELADDR",
	NewRoute: "RTM_NEWROUTE", DelRoute: "RTM_DELROUTE",
	NewNeigh: "RTM_NEWNEIGH", DelNeigh: "RTM_DELNEIGH",
	NewRule: "IPT_NEWRULE", DelRule: "IPT_DELRULE",
	NewSet: "IPSET_NEW", DelSet: "IPSET_DEL",
	SysctlChange: "SYSCTL_CHANGE", NewIPVS: "IPVS_NEW",
}

func (t MsgType) String() string {
	if t > 0 && int(t) < len(msgNames) {
		return msgNames[t]
	}
	return fmt.Sprintf("msg(%d)", int(t))
}

// Group is a multicast subscription bitmask.
type Group uint32

// Multicast groups.
const (
	GroupLink Group = 1 << iota
	GroupAddr
	GroupRoute
	GroupNeigh
	GroupNetfilter
	GroupSysctl

	GroupAll = GroupLink | GroupAddr | GroupRoute | GroupNeigh | GroupNetfilter | GroupSysctl
)

// GroupOf maps a message type to its multicast group.
func GroupOf(t MsgType) Group {
	switch t {
	case NewLink, DelLink:
		return GroupLink
	case NewAddr, DelAddr:
		return GroupAddr
	case NewRoute, DelRoute:
		return GroupRoute
	case NewNeigh, DelNeigh:
		return GroupNeigh
	case NewRule, DelRule, NewSet, DelSet, NewIPVS:
		return GroupNetfilter
	case SysctlChange:
		return GroupSysctl
	default:
		return 0
	}
}

// LinkMsg describes an interface and its bridge-relevant attributes.
type LinkMsg struct {
	Index   int
	Name    string
	Kind    string // "physical", "veth", "bridge", "vxlan", "loopback"
	MAC     packet.HWAddr
	MTU     int
	Up      bool
	Master  int // enslaving bridge ifindex (0 = none)
	BridgeA *BridgeAttrs
}

// BridgeAttrs carries bridge-device configuration.
type BridgeAttrs struct {
	STPEnabled    bool
	VLANFiltering bool
}

// AddrMsg describes an address assignment.
type AddrMsg struct {
	Index  int
	Prefix packet.Prefix
}

// RouteMsg describes a route.
type RouteMsg struct {
	Table   int
	Prefix  packet.Prefix
	Gateway packet.Addr
	OutIf   int
	Metric  int
}

// NeighMsg describes a neighbour entry.
type NeighMsg struct {
	Index int
	IP    packet.Addr
	MAC   packet.HWAddr
	State string
}

// RuleMsg describes an iptables rule change.
type RuleMsg struct {
	Chain    string
	Position int // 0 = appended
	UsesSet  bool
	Rules    int // chain length after the change
}

// SetMsg describes an ipset change.
type SetMsg struct {
	Name    string
	Type    string
	Members int
}

// IPVSMsg describes an ipvs virtual-service change.
type IPVSMsg struct {
	VIP      packet.Addr
	Port     uint16
	Proto    uint8
	Backends int
	Services int // total services after the change
}

// SysctlMsg describes a sysctl write.
type SysctlMsg struct {
	Key   string
	Value string
}

// Message is one notification: a type plus its typed payload.
type Message struct {
	Type    MsgType
	Payload any
}

// Subscription receives messages for the groups it joined. Receive from C.
type Subscription struct {
	C      chan Message
	groups Group
	bus    *Bus

	mu      sync.Mutex
	dropped uint64
	closed  bool
}

// Dropped reports messages lost to a full channel (netlink's ENOBUFS).
func (s *Subscription) Dropped() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dropped
}

// Close leaves all groups and closes the channel.
func (s *Subscription) Close() {
	s.bus.unsubscribe(s)
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.closed {
		s.closed = true
		close(s.C)
	}
}

// subBuffer is the per-subscription channel depth.
const subBuffer = 1024

// Bus is the netlink socket layer: publish/subscribe plus dump handlers.
type Bus struct {
	mu      sync.RWMutex
	subs    []*Subscription
	dumpers map[Group]func() []Message
}

// NewBus returns an empty bus.
func NewBus() *Bus {
	return &Bus{dumpers: make(map[Group]func() []Message)}
}

// Subscribe joins the given multicast groups.
func (b *Bus) Subscribe(groups Group) *Subscription {
	s := &Subscription{C: make(chan Message, subBuffer), groups: groups, bus: b}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.subs = append(b.subs, s)
	return s
}

func (b *Bus) unsubscribe(s *Subscription) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for i, x := range b.subs {
		if x == s {
			b.subs = append(b.subs[:i], b.subs[i+1:]...)
			return
		}
	}
}

// Publish broadcasts a message to every subscription in its group.
// Non-blocking: a subscriber that cannot keep up loses messages (and can
// detect that via Dropped), exactly the failure mode real netlink has.
func (b *Bus) Publish(msg Message) {
	g := GroupOf(msg.Type)
	b.mu.RLock()
	subs := append([]*Subscription(nil), b.subs...)
	b.mu.RUnlock()
	for _, s := range subs {
		if s.groups&g == 0 {
			continue
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			continue
		}
		select {
		case s.C <- msg:
		default:
			s.dropped++
		}
		s.mu.Unlock()
	}
}

// RegisterDumper installs the kernel-side handler answering dump requests
// for a group.
func (b *Bus) RegisterDumper(g Group, fn func() []Message) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.dumpers[g] = fn
}

// Dump performs a synchronous state dump for the requested groups, in group
// bit order — the controller's startup query.
func (b *Bus) Dump(groups Group) []Message {
	b.mu.RLock()
	defer b.mu.RUnlock()
	var out []Message
	for g := Group(1); g <= groups; g <<= 1 {
		if groups&g == 0 {
			continue
		}
		if fn, ok := b.dumpers[g]; ok {
			out = append(out, fn()...)
		}
	}
	return out
}
