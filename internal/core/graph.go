package core

import (
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"linuxfp/internal/netlink"
)

// FPM keys in the processing graph (paper Fig. 3).
const (
	FPMBridge = "bridge"
	FPMRouter = "router"
	FPMFilter = "filter"
	FPMLB     = "lb" // ipvs load balancer (Table I's last row)
)

// Node is one FPM in an interface's processing graph: the key names the
// module, Conf carries its specialization attributes, and NextNF points at
// the module that follows it (paper §IV-C2).
type Node struct {
	FPM    string            `json:"fpm"`
	Conf   map[string]string `json:"conf,omitempty"`
	NextNF string            `json:"next_nf,omitempty"`
}

// IfaceGraph is the data path for one interface.
type IfaceGraph struct {
	IfIndex int     `json:"ifindex"`
	Name    string  `json:"name"`
	Hook    string  `json:"hook"` // "xdp" or "tc"
	Nodes   []*Node `json:"nodes"`
}

// ModuleKeys returns the FPM keys on this interface in order.
func (g *IfaceGraph) ModuleKeys() []string {
	out := make([]string, len(g.Nodes))
	for i, n := range g.Nodes {
		out[i] = n.FPM
	}
	return out
}

// Graph is the complete processing-graph model, serializable to JSON for
// the synthesizer (and for humans: `linuxfpd -graph` prints it).
type Graph struct {
	Interfaces map[string]*IfaceGraph `json:"interfaces"`
}

// JSON renders the model.
func (g *Graph) JSON() ([]byte, error) {
	return json.MarshalIndent(g, "", "  ")
}

// ModuleSet returns the set of "iface/fpm" instance keys, used to compute
// which modules a reconcile added (reaction-time accounting) and whether
// anything changed at all.
func (g *Graph) ModuleSet() map[string]bool {
	out := make(map[string]bool)
	for name, ig := range g.Interfaces {
		for _, n := range ig.Nodes {
			out[name+"/"+n.FPM] = true
		}
	}
	return out
}

// Fingerprint returns a stable string identifying graph content, for
// change detection.
func (g *Graph) Fingerprint() string {
	names := make([]string, 0, len(g.Interfaces))
	for n := range g.Interfaces {
		names = append(names, n)
	}
	sort.Strings(names)
	var fp strings.Builder
	var keys []string
	for _, n := range names {
		ig := g.Interfaces[n]
		fp.WriteString(n + "@" + ig.Hook + "{")
		for _, node := range ig.Nodes {
			fp.WriteString(node.FPM + "(")
			keys = keys[:0]
			for k := range node.Conf {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				fp.WriteString(k + "=" + node.Conf[k] + ",")
			}
			fp.WriteString(")->" + node.NextNF + ";")
		}
		fp.WriteByte('}')
	}
	return fp.String()
}

// TopologyManager derives the processing graph from introspected objects:
// which subsystems are active, on which interfaces, with which
// specializations, in kernel processing order.
type TopologyManager struct {
	store *ObjectStore
	caps  *CapabilityManager
}

// NewTopologyManager wires the manager to its inputs.
func NewTopologyManager(store *ObjectStore, caps *CapabilityManager) *TopologyManager {
	return &TopologyManager{store: store, caps: caps}
}

// Build derives the graph for the current configuration. It reads only the
// store's topology inputs, so its result changes only when ObjectStore.TopoGen
// does.
func (tm *TopologyManager) Build() *Graph {
	g := &Graph{Interfaces: make(map[string]*IfaceGraph)}

	forwarding := tm.store.Sysctl(sysctlForward) == "1"
	routedOut := tm.store.RoutedOut()
	routingActive := forwarding && len(routedOut) > 0

	filterInfo, filterActive := tm.store.Chain(chainForward)
	filterOn := filterActive && filterInfo.Rules > 0
	// Container hosts bridge-filter: bridged frames traverse FORWARD too.
	brNetfilter := filterOn && tm.store.Sysctl(sysctlBrNF) == "1"
	// The fast paths that skip POSTROUTING carry its length, so a rule added
	// there changes the graph and the synthesizer re-checks the chain.
	postrouting, _ := tm.store.Chain(chainPostrouting)

	for _, link := range tm.store.Links() {
		if !link.Up || link.Kind == "loopback" {
			continue
		}
		switch {
		case link.Kind == "bridge" && link.BridgeA != nil:
			// The bridge device itself: accelerates br_dev_xmit for
			// locally originated frames, and anchors the bridge FPM
			// template in the generated data path.
			node := &Node{FPM: FPMBridge, Conf: map[string]string{
				"bridge":         link.Name,
				"stp_enabled":    strconv.FormatBool(link.BridgeA.STPEnabled),
				"vlan_filtering": strconv.FormatBool(link.BridgeA.VLANFiltering),
			}}
			ig := &IfaceGraph{IfIndex: link.Index, Name: link.Name, Hook: "tc", Nodes: []*Node{node}}
			if routingActive && tm.store.HasAddr(link.Index) {
				tm.appendRouter(ig, routedOut, filterOn, filterInfo, postrouting.Rules)
				node.NextNF = ig.Nodes[1].FPM
			}
			g.Interfaces[link.Name] = ig

		case link.Master != 0:
			// A bridged port: bridge FPM first (kernel order: rx_handler
			// before L3).
			br, ok := tm.store.Link(link.Master)
			if !ok || br.BridgeA == nil {
				continue
			}
			node := &Node{FPM: FPMBridge, Conf: map[string]string{
				"bridge":         br.Name,
				"stp_enabled":    strconv.FormatBool(br.BridgeA.STPEnabled),
				"vlan_filtering": strconv.FormatBool(br.BridgeA.VLANFiltering),
				"filter":         strconv.FormatBool(brNetfilter),
			}}
			if brNetfilter {
				setPostrouting(node, postrouting.Rules)
			}
			ig := &IfaceGraph{IfIndex: link.Index, Name: link.Name, Hook: tm.caps.HookFor(link), Nodes: []*Node{node}}
			// Bridge with IPs + routing: routed traffic addressed to the
			// bridge continues into the router FPM (next_nf: router, or lb
			// when ipvs services are configured).
			if routingActive && tm.store.HasAddr(link.Master) {
				tm.appendRouter(ig, routedOut, filterOn, filterInfo, postrouting.Rules)
				node.NextNF = ig.Nodes[1].FPM
			}
			g.Interfaces[link.Name] = ig

		case routingActive && tm.store.HasAddr(link.Index):
			// Plain L3 interface on a router.
			ig := &IfaceGraph{IfIndex: link.Index, Name: link.Name, Hook: tm.caps.HookFor(link)}
			tm.appendRouter(ig, routedOut, filterOn, filterInfo, postrouting.Rules)
			g.Interfaces[link.Name] = ig
		}
	}
	return g
}

// setPostrouting records the POSTROUTING rule count on a node whose fast
// path skips that chain. An empty chain adds nothing, so graphs built
// without POSTROUTING rules fingerprint as they always have.
func setPostrouting(n *Node, rules int) {
	if rules > 0 {
		n.Conf["postrouting"] = strconv.Itoa(rules)
	}
}

// appendRouter adds the router node (and chained lb/filter nodes). routedOut
// lists the ifindexes routes leave through, ascending.
func (tm *TopologyManager) appendRouter(ig *IfaceGraph, routedOut []int, filterOn bool, filterInfo netlink.RuleMsg, postrouting int) {
	// ipvs runs ahead of routing (PREROUTING placement).
	if n := tm.store.IPVSServiceCount(); n > 0 {
		ig.Nodes = append(ig.Nodes, &Node{FPM: FPMLB, Conf: map[string]string{
			"services": strconv.Itoa(n),
		}, NextNF: FPMRouter})
	}
	router := &Node{FPM: FPMRouter, Conf: map[string]string{}}
	setPostrouting(router, postrouting)
	// Routes pointing at bridge devices chain the router back into a
	// bridge FPM (next_nf: bridge, paper §IV-C2). With several, the one
	// with the highest ifindex is named.
	for _, out := range routedOut {
		if l, ok := tm.store.Link(out); ok && l.Kind == "bridge" {
			router.Conf["bridge_out"] = l.Name
			router.NextNF = FPMBridge
		}
	}
	ig.Nodes = append(ig.Nodes, router)
	if filterOn {
		router.NextNF = FPMFilter
		filter := &Node{FPM: FPMFilter, Conf: map[string]string{
			"chain": chainForward,
			"rules": strconv.Itoa(filterInfo.Rules),
			"ipset": strconv.FormatBool(filterInfo.UsesSet),
		}}
		ig.Nodes = append(ig.Nodes, filter)
	}
}

// String renders a short human-readable summary.
func (g *Graph) String() string {
	names := make([]string, 0, len(g.Interfaces))
	for n := range g.Interfaces {
		names = append(names, n)
	}
	sort.Strings(names)
	out := ""
	for _, n := range names {
		ig := g.Interfaces[n]
		out += fmt.Sprintf("%s[%s]:", n, ig.Hook)
		for i, node := range ig.Nodes {
			if i > 0 {
				out += "->"
			}
			out += node.FPM
		}
		out += " "
	}
	return out
}
