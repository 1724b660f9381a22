package core

import (
	"encoding/json"
	"strings"
	"testing"
	"time"

	"linuxfp/internal/ebpf"
	"linuxfp/internal/fib"
	"linuxfp/internal/kernel"
	"linuxfp/internal/netdev"
	"linuxfp/internal/netfilter"
	"linuxfp/internal/netlink"
	"linuxfp/internal/packet"
	"linuxfp/internal/sim"
)

// routerWorld: src -- dut -- sink with 50 routed prefixes, forwarding on.
type routerWorld struct {
	src, dut, sink *kernel.Kernel
	srcDev, in     *netdev.Device
	out, sinkDev   *netdev.Device
	captured       int
}

func newRouterWorld(t testing.TB) *routerWorld {
	t.Helper()
	w := &routerWorld{src: kernel.New("src"), dut: kernel.New("dut"), sink: kernel.New("sink")}
	w.srcDev = w.src.CreateDevice("eth0", netdev.Physical)
	w.in = w.dut.CreateDevice("eth0", netdev.Physical)
	w.out = w.dut.CreateDevice("eth1", netdev.Physical)
	w.sinkDev = w.sink.CreateDevice("eth0", netdev.Physical)
	netdev.Connect(w.srcDev, w.in)
	netdev.Connect(w.out, w.sinkDev)
	for _, d := range []*netdev.Device{w.srcDev, w.in, w.out, w.sinkDev} {
		d.SetUp(true)
	}
	w.src.AddAddr("eth0", packet.MustPrefix("10.1.0.1/24"))
	w.dut.AddAddr("eth0", packet.MustPrefix("10.1.0.254/24"))
	w.dut.AddAddr("eth1", packet.MustPrefix("10.2.0.254/24"))
	w.sink.AddAddr("eth0", packet.MustPrefix("10.2.0.1/24"))
	w.dut.SetSysctl("net.ipv4.ip_forward", "1")
	w.src.AddRoute(fib.Route{Prefix: packet.MustPrefix("0.0.0.0/0"), Gateway: packet.MustAddr("10.1.0.254"), OutIf: w.srcDev.Index})
	for i := 0; i < 50; i++ {
		w.dut.AddRoute(fib.Route{
			Prefix:  packet.Prefix{Addr: packet.AddrFrom4(10, 100+byte(i), 0, 0), Bits: 16},
			Gateway: packet.MustAddr("10.2.0.1"), OutIf: w.out.Index,
		})
	}
	w.sinkDev.Tap = func([]byte) { w.captured++ }
	// Resolve neighbours.
	var m sim.Meter
	w.src.Ping(packet.MustAddr("10.100.0.1"), 1, 1, nil, &m)
	w.captured = 0
	return w
}

func (w *routerWorld) sendUDP(dst packet.Addr) {
	gwMAC, _ := w.src.Neigh.Resolved(packet.MustAddr("10.1.0.254"), 0)
	srcIP := packet.MustAddr("10.1.0.1")
	u := packet.UDP{SrcPort: 1000, DstPort: 2000}
	frame := packet.BuildIPv4(
		packet.Ethernet{Dst: gwMAC, Src: w.srcDev.MAC, EtherType: packet.EtherTypeIPv4},
		packet.IPv4{TTL: 64, Proto: packet.ProtoUDP, Src: srcIP, Dst: dst},
		u.Marshal(nil, srcIP, dst, nil),
	)
	var m sim.Meter
	w.srcDev.Transmit(frame, &m)
}

// startController starts a controller and syncs it once.
func startController(t *testing.T, k *kernel.Kernel, opts Options) *Controller {
	t.Helper()
	c := New(k, opts)
	c.Start()
	t.Cleanup(c.Stop)
	c.Sync()
	return c
}

func TestControllerAcceleratesRouterTransparently(t *testing.T) {
	w := newRouterWorld(t)
	c := startController(t, w.dut, Options{})

	graph := c.Graph()
	if graph == nil {
		t.Fatal("no graph built")
	}
	// Both DUT interfaces carry a router FPM at XDP.
	for _, name := range []string{"eth0", "eth1"} {
		ig, ok := graph.Interfaces[name]
		if !ok {
			t.Fatalf("interface %s not in graph: %s", name, graph)
		}
		if ig.Hook != "xdp" {
			t.Errorf("%s hook %q, want xdp", name, ig.Hook)
		}
		if keys := ig.ModuleKeys(); len(keys) != 1 || keys[0] != FPMRouter {
			t.Errorf("%s modules %v", name, keys)
		}
	}
	if ok, _ := w.in.XDPAttached(); !ok {
		t.Fatal("no XDP program attached by controller")
	}
	// Traffic now takes the fast path.
	redirBefore := w.in.Stats().XDPRedirects
	w.sendUDP(packet.MustAddr("10.100.5.5"))
	if w.captured != 1 {
		t.Fatal("packet lost under acceleration")
	}
	if w.in.Stats().XDPRedirects != redirBefore+1 {
		t.Fatal("packet did not use the fast path")
	}
}

func TestControllerReactsToIptables(t *testing.T) {
	w := newRouterWorld(t)
	c := startController(t, w.dut, Options{})

	blocked := packet.MustPrefix("10.100.7.0/24")
	w.dut.IptAppend("FORWARD", netfilter.Rule{Match: netfilter.Match{Dst: &blocked}, Target: netfilter.VerdictDrop})
	c.Sync()

	ig := c.Graph().Interfaces["eth0"]
	if ig == nil || findNode(ig, FPMFilter) == nil {
		t.Fatalf("filter FPM missing after iptables change: %s", c.Graph())
	}
	// Blocked traffic dies in the fast path; allowed traffic flows.
	w.sendUDP(packet.MustAddr("10.100.7.1"))
	if w.captured != 0 {
		t.Fatal("blocked packet delivered")
	}
	if w.in.Stats().XDPDrops == 0 {
		t.Fatal("drop did not happen at XDP")
	}
	w.sendUDP(packet.MustAddr("10.100.8.1"))
	if w.captured != 1 {
		t.Fatal("allowed packet lost")
	}
	// Reaction for the netfilter trigger includes the libiptc read: it is
	// the slowest reconcile class (Table VI's iptables row).
	last, ok := c.LastReaction()
	if !ok || last.Virtual < 900*sim.Millisecond || last.Virtual > 1200*sim.Millisecond {
		t.Fatalf("iptables reaction %v, want ≈1.0s", last.Virtual)
	}
	// Removing the rules removes the filter FPM again.
	w.dut.IptFlush("FORWARD")
	c.Sync()
	if findNode(c.Graph().Interfaces["eth0"], FPMFilter) != nil {
		t.Fatal("filter FPM not removed after flush")
	}
	w.sendUDP(packet.MustAddr("10.100.7.1"))
	if w.captured != 2 {
		t.Fatal("traffic still blocked after flush")
	}
}

func TestControllerRemovesAccelerationWhenRoutingStops(t *testing.T) {
	w := newRouterWorld(t)
	c := startController(t, w.dut, Options{})
	if len(c.Deployer().Deployed()) == 0 {
		t.Fatal("nothing deployed")
	}
	w.dut.SetSysctl("net.ipv4.ip_forward", "0")
	c.Sync()
	if n := len(c.Deployer().Deployed()); n != 0 {
		t.Fatalf("still %d deployments with forwarding off: %s", n, c.Graph())
	}
	if ok, _ := w.in.XDPAttached(); ok {
		t.Fatal("XDP program still attached")
	}
	// And back on.
	w.dut.SetSysctl("net.ipv4.ip_forward", "1")
	c.Sync()
	if ok, _ := w.in.XDPAttached(); !ok {
		t.Fatal("acceleration did not return")
	}
}

func TestControllerBridgeScenario(t *testing.T) {
	sw := kernel.New("sw")
	sw.CreateBridge("br0")
	sw.SetLinkUp("br0", true)
	p0 := sw.CreateDevice("swp0", netdev.Physical)
	p1 := sw.CreateDevice("swp1", netdev.Physical)
	p0.SetUp(true)
	p1.SetUp(true)
	sw.AddBridgePort("br0", "swp0")
	sw.AddBridgePort("br0", "swp1")

	c := startController(t, sw, Options{})
	g := c.Graph()
	for _, name := range []string{"swp0", "swp1"} {
		ig := g.Interfaces[name]
		if ig == nil || ig.ModuleKeys()[0] != FPMBridge {
			t.Fatalf("bridge FPM missing on %s: %s", name, g)
		}
		if ig.Hook != "xdp" {
			t.Fatalf("%s hook %s", name, ig.Hook)
		}
	}
	// The bridge device itself is in the graph too (br_dev_xmit).
	if g.Interfaces["br0"] == nil || g.Interfaces["br0"].Hook != "tc" {
		t.Fatalf("bridge device missing: %s", g)
	}
	if ok, _ := p0.XDPAttached(); !ok {
		t.Fatal("no program on bridge port")
	}
	// STP toggle is reflected in the synthesized conf.
	sw.SetBridgeSTP("br0", true)
	c.Sync()
	ig := c.Graph().Interfaces["swp0"]
	if ig.Nodes[0].Conf["stp_enabled"] != "true" {
		t.Fatalf("stp not in conf: %v", ig.Nodes[0].Conf)
	}
}

func TestControllerPreferTCAttachesAtTC(t *testing.T) {
	w := newRouterWorld(t)
	fwdBase := w.dut.Stats().Forwarded
	c := startController(t, w.dut, Options{PreferTC: true})
	ig := c.Graph().Interfaces["eth0"]
	if ig == nil || ig.Hook != "tc" {
		t.Fatalf("hook %v, want tc", ig)
	}
	if !w.dut.TCAttached(w.in.Index, true) {
		t.Fatal("no TC program attached")
	}
	if ok, _ := w.in.XDPAttached(); ok {
		t.Fatal("XDP attached despite PreferTC")
	}
	// Traffic still accelerated (via TC redirect), still correct.
	w.sendUDP(packet.MustAddr("10.100.5.5"))
	if w.captured != 1 {
		t.Fatal("packet lost at TC")
	}
	if w.dut.Stats().Forwarded != fwdBase {
		t.Fatal("TC fast path leaked into ip_forward")
	}
}

func TestControllerWithoutHelperFallsBackToSlowPath(t *testing.T) {
	w := newRouterWorld(t)
	fwdBase := w.dut.Stats().Forwarded
	c := startController(t, w.dut, Options{DisabledHelpers: ebpf.CapHelperFIB})
	if n := len(c.Deployer().Deployed()); n != 0 {
		t.Fatalf("deployed %d programs without the FIB helper", n)
	}
	// Unaccelerated but fully functional.
	w.sendUDP(packet.MustAddr("10.100.5.5"))
	if w.captured != 1 {
		t.Fatal("slow-path traffic lost")
	}
	if w.dut.Stats().Forwarded != fwdBase+1 {
		t.Fatal("slow path did not forward")
	}
}

func TestControllerFilterWithoutIptHelperStaysSlow(t *testing.T) {
	// With rules present but no ipt helper, accelerating just the router
	// would bypass the firewall — the controller must not accelerate.
	w := newRouterWorld(t)
	blocked := packet.MustPrefix("10.100.7.0/24")
	w.dut.IptAppend("FORWARD", netfilter.Rule{Match: netfilter.Match{Dst: &blocked}, Target: netfilter.VerdictDrop})
	c := startController(t, w.dut, Options{DisabledHelpers: ebpf.CapHelperIpt})
	if n := len(c.Deployer().Deployed()); n != 0 {
		t.Fatalf("deployed %d programs; would bypass filtering", n)
	}
	w.sendUDP(packet.MustAddr("10.100.7.1"))
	if w.captured != 0 {
		t.Fatal("filtering bypassed")
	}
}

func TestReactionTimesMatchTableVI(t *testing.T) {
	w := newRouterWorld(t)
	c := startController(t, w.dut, Options{})

	// "ip addr add" class: link/addr trigger on a 2-interface router.
	w.dut.DelAddr("eth0", packet.MustPrefix("10.1.0.254/24"))
	c.Sync()
	w.dut.AddAddr("eth0", packet.MustPrefix("10.1.0.254/24"))
	c.Sync()
	addr, _ := c.LastReaction()
	if addr.Virtual < 450*sim.Millisecond || addr.Virtual > 750*sim.Millisecond {
		t.Errorf("ip addr reaction %v, want ≈0.6s", addr.Virtual)
	}
	// iptables class is slower than addr class (libiptc dump).
	blocked := packet.MustPrefix("10.100.7.0/24")
	w.dut.IptAppend("FORWARD", netfilter.Rule{Match: netfilter.Match{Dst: &blocked}, Target: netfilter.VerdictDrop})
	c.Sync()
	ipt, _ := c.LastReaction()
	if ipt.Virtual <= addr.Virtual {
		t.Errorf("iptables (%v) should react slower than ip addr (%v)", ipt.Virtual, addr.Virtual)
	}
	if ipt.Virtual < 800*sim.Millisecond || ipt.Virtual > 1300*sim.Millisecond {
		t.Errorf("iptables reaction %v, want ≈1.0s", ipt.Virtual)
	}
}

func TestControllerAsyncLoop(t *testing.T) {
	w := newRouterWorld(t)
	c := New(w.dut, Options{})
	c.Start()
	defer c.Stop()

	// Poke the kernel and wait for the daemon to react on its own.
	blocked := packet.MustPrefix("10.100.9.0/24")
	w.dut.IptAppend("FORWARD", netfilter.Rule{Match: netfilter.Match{Dst: &blocked}, Target: netfilter.VerdictDrop})

	deadline := time.After(2 * time.Second)
	for {
		g := c.Graph()
		if g != nil {
			if ig := g.Interfaces["eth0"]; ig != nil && findNode(ig, FPMFilter) != nil {
				break
			}
		}
		select {
		case <-deadline:
			t.Fatal("daemon did not react to iptables change")
		case <-time.After(time.Millisecond):
		}
	}
	// Double Start is a no-op; Stop then restart works.
	c.Start()
}

func TestGraphJSONSerialization(t *testing.T) {
	w := newRouterWorld(t)
	blocked := packet.MustPrefix("10.100.7.0/24")
	w.dut.IptAppend("FORWARD", netfilter.Rule{Match: netfilter.Match{Dst: &blocked}, Target: netfilter.VerdictDrop})
	c := startController(t, w.dut, Options{})

	raw, err := c.Graph().JSON()
	if err != nil {
		t.Fatal(err)
	}
	var parsed Graph
	if err := json.Unmarshal(raw, &parsed); err != nil {
		t.Fatal(err)
	}
	ig := parsed.Interfaces["eth0"]
	if ig == nil || len(ig.Nodes) != 2 {
		t.Fatalf("parsed graph: %s", raw)
	}
	if ig.Nodes[0].FPM != FPMRouter || ig.Nodes[0].NextNF != FPMFilter {
		t.Fatalf("node chain: %+v", ig.Nodes[0])
	}
	if ig.Nodes[1].Conf["chain"] != "FORWARD" {
		t.Fatalf("filter conf: %+v", ig.Nodes[1].Conf)
	}
	if !strings.Contains(c.Graph().String(), "router->filter") {
		t.Fatalf("string render: %s", c.Graph())
	}
}

func TestObjectStoreApplySemantics(t *testing.T) {
	s := NewObjectStore()
	link := netlink.Message{Type: netlink.NewLink, Payload: netlink.LinkMsg{
		Index: 3, Name: "eth0", Kind: "physical", Up: true,
	}}
	if !s.Apply(link) {
		t.Fatal("new link should change store")
	}
	if s.Apply(link) {
		t.Fatal("identical link re-apply should be a no-op")
	}
	links := s.Links()
	if len(links) != 1 || links[0].Name != "eth0" {
		t.Fatalf("links: %+v", links)
	}
	// Addr add / duplicate / delete.
	addrMsg := netlink.Message{Type: netlink.NewAddr, Payload: netlink.AddrMsg{
		Index: 3, Prefix: packet.MustPrefix("10.0.0.1/24"),
	}}
	if !s.Apply(addrMsg) || s.Apply(addrMsg) {
		t.Fatal("addr apply semantics")
	}
	if !s.HasAddr(3) {
		t.Fatal("addr missing")
	}
	del := addrMsg
	del.Type = netlink.DelAddr
	if !s.Apply(del) || s.Apply(del) {
		t.Fatal("addr delete semantics")
	}
	// Route add / replace / delete.
	routeMsg := netlink.Message{Type: netlink.NewRoute, Payload: netlink.RouteMsg{
		Prefix: packet.MustPrefix("10.5.0.0/16"), OutIf: 3,
	}}
	if !s.Apply(routeMsg) || s.Apply(routeMsg) {
		t.Fatal("route apply semantics")
	}
	if out := s.RoutedOut(); len(out) != 1 || out[0] != 3 {
		t.Fatalf("routed ifindexes %v, want [3]", out)
	}
	routeDel := routeMsg
	routeDel.Type = netlink.DelRoute
	if !s.Apply(routeDel) || s.Apply(routeDel) {
		t.Fatal("route delete semantics")
	}
	// Link delete clears addresses.
	s.Apply(addrMsg)
	linkDel := link
	linkDel.Type = netlink.DelLink
	s.Apply(linkDel)
	if len(s.Links()) != 0 || s.HasAddr(3) {
		t.Fatal("link delete did not cascade")
	}
	// Unknown payloads change nothing.
	if s.Apply(netlink.Message{Type: netlink.NewLink, Payload: 42}) {
		t.Fatal("bogus payload changed store")
	}
}

// routeVia builds a gateway route for tests.
func routeVia(p packet.Prefix, gw string, outIf int) fib.Route {
	return fib.Route{Prefix: p, Gateway: packet.MustAddr(gw), OutIf: outIf}
}

func TestFastPathStats(t *testing.T) {
	w := newRouterWorld(t)
	c := startController(t, w.dut, Options{})
	slowBase := c.FastPathStats().SlowPath
	for i := 0; i < 5; i++ {
		w.sendUDP(packet.MustAddr("10.100.5.5"))
	}
	st := c.FastPathStats()
	if st.Interfaces == 0 {
		t.Fatal("no accelerated interfaces counted")
	}
	if st.Redirects != 5 {
		t.Fatalf("redirects %d, want 5", st.Redirects)
	}
	if st.SlowPath != slowBase {
		t.Fatal("fast-path traffic counted as slow path")
	}
}
