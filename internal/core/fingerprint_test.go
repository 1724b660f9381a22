package core

import (
	"fmt"
	"sort"
	"testing"

	"linuxfp/internal/fib"
	"linuxfp/internal/kernel"
	"linuxfp/internal/netdev"
	"linuxfp/internal/netfilter"
	"linuxfp/internal/netlink"
	"linuxfp/internal/packet"
)

// fingerprintReference is Graph.Fingerprint as it was first written, string
// concatenation and all (quadratic in graph size). It is the oracle the
// builder-based Fingerprint must match byte for byte.
func fingerprintReference(g *Graph) string {
	names := make([]string, 0, len(g.Interfaces))
	for n := range g.Interfaces {
		names = append(names, n)
	}
	sort.Strings(names)
	fp := ""
	for _, n := range names {
		ig := g.Interfaces[n]
		fp += n + "@" + ig.Hook + "{"
		for _, node := range ig.Nodes {
			fp += node.FPM + "("
			keys := make([]string, 0, len(node.Conf))
			for k := range node.Conf {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				fp += k + "=" + node.Conf[k] + ","
			}
			fp += ")->" + node.NextNF + ";"
		}
		fp += "}"
	}
	return fp
}

// buildGraph derives the processing graph a controller would build for a
// kernel, without deploying anything.
func buildGraph(k *kernel.Kernel, preferTC bool) *Graph {
	store := NewObjectStore()
	for _, msg := range k.Bus.Dump(netlink.GroupAll) {
		store.Apply(msg)
	}
	return NewTopologyManager(store, NewCapabilityManager(preferTC)).Build()
}

// bridgeKernel is TestControllerBridgeScenario's switch with STP on.
func bridgeKernel() *kernel.Kernel {
	sw := kernel.New("sw")
	sw.CreateBridge("br0")
	sw.SetLinkUp("br0", true)
	for _, name := range []string{"swp0", "swp1"} {
		sw.CreateDevice(name, netdev.Physical).SetUp(true)
		sw.AddBridgePort("br0", name)
	}
	sw.SetBridgeSTP("br0", true)
	return sw
}

// k8sNodeKernel is one flannel node the way internal/k8s wires it: cni0
// with pods, the flannel.1 VTEP, routes to remote pod CIDRs, kube-proxy
// rules and bridge netfilter.
func k8sNodeKernel() *kernel.Kernel {
	k := kernel.New("node1")
	k.CreateDevice("eth0", netdev.Physical).SetUp(true)
	k.AddAddr("eth0", packet.MustPrefix("192.168.0.11/24"))
	k.CreateBridge("cni0")
	k.SetLinkUp("cni0", true)
	k.AddAddr("cni0", packet.MustPrefix("10.244.1.1/24"))
	flannel := k.CreateVXLAN("flannel.1", 1, packet.MustAddr("192.168.0.11"))
	k.SetLinkUp("flannel.1", true)
	k.AddAddr("flannel.1", packet.MustPrefix("10.244.1.0/32"))
	k.SetSysctl("net.ipv4.ip_forward", "1")
	k.SetSysctl("net.bridge.bridge-nf-call-iptables", "1")
	for i := 0; i < 3; i++ {
		k.CreateDevice(fmt.Sprintf("veth%d", i), netdev.Veth).SetUp(true)
		k.AddBridgePort("cni0", fmt.Sprintf("veth%d", i))
	}
	for _, remote := range []byte{0, 2} {
		k.AddRoute(routeVia(packet.Prefix{Addr: packet.AddrFrom4(10, 244, remote, 0), Bits: 24},
			fmt.Sprintf("10.244.%d.0", remote), flannel.Index))
	}
	pods := packet.MustPrefix("10.244.0.0/16")
	k.IptAppend("FORWARD", netfilter.Rule{Match: netfilter.Match{CTState: netfilter.CTEstablished}, Target: netfilter.VerdictAccept})
	k.IptAppend("FORWARD", netfilter.Rule{Match: netfilter.Match{Src: &pods}, Target: netfilter.VerdictAccept})
	return k
}

// bigKernel is the 40-interface router with 1000 routes and 200 rules.
func bigKernel() (*kernel.Kernel, *netdev.Device) {
	k := kernel.New("big")
	for i := 0; i < 40; i++ {
		name := "eth" + string(rune('A'+i/10)) + string(rune('0'+i%10))
		d := k.CreateDevice(name, netdev.Physical)
		d.SetUp(true)
		k.AddAddr(name, packet.Prefix{Addr: packet.AddrFrom4(10, byte(i), 0, 1), Bits: 24})
	}
	k.SetSysctl("net.ipv4.ip_forward", "1")
	out, _ := k.DeviceByName("ethA0")
	for i := 0; i < 1000; i++ {
		k.AddRoute(fib.Route{
			Prefix:  packet.Prefix{Addr: packet.AddrFrom4(172, 16+byte(i/256), byte(i%256), 0), Bits: 24},
			Gateway: packet.MustAddr("10.0.0.2"), OutIf: out.Index,
		})
	}
	for i := 0; i < 200; i++ {
		p := packet.Prefix{Addr: packet.AddrFrom4(203, 0, byte(i), 0), Bits: 24}
		k.IptAppend("FORWARD", netfilter.Rule{Match: netfilter.Match{Src: &p}, Target: netfilter.VerdictDrop})
	}
	return k, out
}

func TestFingerprintMatchesReference(t *testing.T) {
	gateway, _, _ := lbWorld(t)
	gateway.dut.IpsetCreate("blocked", "hash:net")
	gateway.dut.IpsetAdd("blocked", packet.MustPrefix("198.51.100.0/24"))
	gateway.dut.IptAppend("FORWARD", netfilter.Rule{Match: netfilter.Match{SrcSet: "blocked"}, Target: netfilter.VerdictDrop})
	big, _ := bigKernel()

	for _, tc := range []struct {
		name     string
		k        *kernel.Kernel
		preferTC bool
	}{
		{"router", newRouterWorld(t).dut, false},
		{"bridge", bridgeKernel(), false},
		{"gateway", gateway.dut, false},
		{"k8s-node", k8sNodeKernel(), true},
		{"40-interface", big, false},
	} {
		g := buildGraph(tc.k, tc.preferTC)
		if len(g.Interfaces) == 0 {
			t.Fatalf("%s: empty graph; the comparison is vacuous", tc.name)
		}
		if got, want := g.Fingerprint(), fingerprintReference(g); got != want {
			t.Errorf("%s: fingerprint\n got %q\nwant %q", tc.name, got, want)
		}
	}
}
