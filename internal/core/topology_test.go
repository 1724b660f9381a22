package core

import (
	"fmt"
	"math/rand"
	"testing"

	"linuxfp/internal/fib"
	"linuxfp/internal/kernel"
	"linuxfp/internal/netdev"
	"linuxfp/internal/netfilter"
	"linuxfp/internal/netlink"
	"linuxfp/internal/packet"
	"linuxfp/internal/sim"
)

// TestPostroutingDropTakesInterfaceSlow: the router fast path skips the
// POSTROUTING walk, so a DROP rule added there after deployment must take
// the interface back to the slow path (where Linux drops the frame), and
// flushing the chain must accelerate it again.
func TestPostroutingDropTakesInterfaceSlow(t *testing.T) {
	w := newRouterWorld(t)
	c := startController(t, w.dut, Options{})
	dst := packet.MustAddr("10.100.5.5")

	w.sendUDP(dst)
	if w.captured != 1 {
		t.Fatalf("before the rule: captured=%d, want 1", w.captured)
	}
	if err := w.dut.IptAppend("POSTROUTING", netfilter.Rule{Target: netfilter.VerdictDrop}); err != nil {
		t.Fatal(err)
	}
	c.Sync()
	if got := c.Graph().Interfaces["eth0"].Nodes[0].Conf["postrouting"]; got != "1" {
		t.Fatalf("router conf postrouting=%q, want 1", got)
	}
	if ok, _ := w.in.XDPAttached(); ok {
		t.Fatal("fast path still attached over a POSTROUTING drop")
	}
	w.captured = 0
	w.sendUDP(dst)
	if w.captured != 0 {
		t.Fatal("frame forwarded past a POSTROUTING drop")
	}

	if err := w.dut.IptFlush("POSTROUTING"); err != nil {
		t.Fatal(err)
	}
	c.Sync()
	if _, ok := c.Graph().Interfaces["eth0"].Nodes[0].Conf["postrouting"]; ok {
		t.Fatal("an empty POSTROUTING still in the router conf")
	}
	redirects := w.in.Stats().XDPRedirects
	w.captured = 0
	w.sendUDP(dst)
	if w.captured != 1 || w.in.Stats().XDPRedirects != redirects+1 {
		t.Fatalf("after the flush: captured=%d, fast-path redirects +%d; want 1, +1",
			w.captured, w.in.Stats().XDPRedirects-redirects)
	}
}

// TestPostroutingInBridgeFilterConf: a bridge port whose frames traverse
// br_netfilter carries the POSTROUTING length too; one that does not, does
// not.
func TestPostroutingInBridgeFilterConf(t *testing.T) {
	k := k8sNodeKernel()
	k.IptAppend("POSTROUTING", netfilter.Rule{Target: netfilter.VerdictAccept})
	if got := buildGraph(k, true).Interfaces["veth0"].Nodes[0].Conf["postrouting"]; got != "1" {
		t.Fatalf("br_netfilter port: postrouting=%q, want 1", got)
	}
	k.SetSysctl("net.bridge.bridge-nf-call-iptables", "0")
	if got, ok := buildGraph(k, true).Interfaces["veth0"].Nodes[0].Conf["postrouting"]; ok {
		t.Fatalf("port without br_netfilter: postrouting=%q, want none", got)
	}
}

// topoWorld is a kernel with routed interfaces, a bridge with one port, and
// every object kind the controller introspects. Its store is fed by
// notifications alone, from before the first device: a dump would also
// report the connected routes, and with one out of every interface no route
// command could ever empty an ifindex's entry.
type topoWorld struct {
	k     *kernel.Kernel
	sub   *netlink.Subscription
	store *ObjectStore
	rng   *rand.Rand
	outs  []string // route output devices
	ipvs  kernel.IPVSKey
}

func newTopoWorld(seed int64) *topoWorld {
	k := kernel.New("topo")
	w := &topoWorld{
		k: k, sub: k.Bus.Subscribe(netlink.GroupAll), store: NewObjectStore(),
		rng:  rand.New(rand.NewSource(seed)),
		outs: []string{"eth0", "eth1", "eth2", "br0"},
		ipvs: kernel.IPVSKey{VIP: packet.MustAddr("10.99.0.1"), Port: 80, Proto: packet.ProtoTCP},
	}
	// eth2's address comes and goes with the commands.
	for i, name := range []string{"eth0", "eth1", "eth2"} {
		k.CreateDevice(name, netdev.Physical).SetUp(true)
		if name != "eth2" {
			k.AddAddr(name, packet.Prefix{Addr: packet.AddrFrom4(10, byte(i), 0, 254), Bits: 24})
		}
	}
	k.CreateBridge("br0")
	k.SetLinkUp("br0", true)
	k.AddAddr("br0", packet.MustPrefix("10.9.0.254/24"))
	k.CreateDevice("swp0", netdev.Veth).SetUp(true)
	k.AddBridgePort("br0", "swp0")
	k.SetSysctl("net.ipv4.ip_forward", "1")
	k.IpsetCreate("s0", "hash:net")
	for drained := false; !drained; {
		select {
		case msg := <-w.sub.C:
			w.store.Apply(msg)
		default:
			drained = true
		}
	}
	return w
}

// step issues one random configuration command.
func (w *topoWorld) step() {
	k, rng := w.k, w.rng
	chains := []string{"FORWARD", "POSTROUTING", "INPUT", "OUTPUT"}
	switch op := rng.Intn(20); {
	case op < 6: // routes over several output ifindexes; re-adding moves one
		name := w.outs[rng.Intn(len(w.outs))]
		d, _ := k.DeviceByName(name)
		k.AddRoute(fib.Route{
			Prefix:  packet.Prefix{Addr: packet.AddrFrom4(172, 16, byte(rng.Intn(12)), 0), Bits: 24},
			Gateway: packet.AddrFrom4(10, byte(d.Index), 0, 1), OutIf: d.Index,
		})
	case op < 10:
		k.DelRoute(packet.Prefix{Addr: packet.AddrFrom4(172, 16, byte(rng.Intn(12)), 0), Bits: 24})
	case op < 12:
		chain := chains[rng.Intn(len(chains))]
		if rng.Intn(2) == 0 || k.NF.RuleCount(chain) == 0 {
			p := packet.Prefix{Addr: packet.AddrFrom4(198, 18, byte(rng.Intn(256)), 0), Bits: 24}
			m := netfilter.Match{Src: &p}
			if rng.Intn(4) == 0 {
				m = netfilter.Match{SrcSet: "s0"}
			}
			k.IptAppend(chain, netfilter.Rule{Match: m, Target: netfilter.VerdictAccept})
		} else if rng.Intn(4) == 0 {
			k.IptFlush(chain)
		} else {
			k.IptDelete(chain, 1)
		}
	case op < 14:
		if rng.Intn(4) == 0 {
			k.IpsetCreate(fmt.Sprintf("s%d", 1+rng.Intn(3)), "hash:net")
		} else {
			k.IpsetAdd("s0", packet.Prefix{Addr: packet.AddrFrom4(198, 19, byte(rng.Intn(256)), 0), Bits: 24})
		}
	case op < 16:
		keys := []string{"net.ipv4.ip_forward", "net.bridge.bridge-nf-call-iptables", "net.ipv4.conf.all.rp_filter", "net.core.somaxconn"}
		k.SetSysctl(keys[rng.Intn(len(keys))], fmt.Sprint(rng.Intn(2)))
	case op < 17: // link state, bridge ports, bridge devices
		switch rng.Intn(4) {
		case 0:
			k.SetLinkUp("eth2", rng.Intn(2) == 0)
		case 1:
			if d, _ := k.DeviceByName("swp0"); d.Master() != 0 {
				k.DelBridgePort("br0", "swp0")
			} else {
				k.AddBridgePort("br0", "swp0")
			}
		case 2:
			if _, ok := k.BridgeByName("br1"); ok {
				k.DeleteBridge("br1")
			} else {
				k.CreateBridge("br1")
				k.SetLinkUp("br1", true)
			}
		case 3:
			k.SetBridgeSTP("br0", rng.Intn(2) == 0)
		}
	case op < 18: // addresses
		p := packet.MustPrefix("10.2.0.254/24")
		if k.DelAddr("eth2", p) != nil {
			k.AddAddr("eth2", p)
		}
	default: // IPVS
		switch rng.Intn(3) {
		case 0:
			k.IPVSAddService(w.ipvs, "rr")
		case 1:
			k.IPVSAddBackend(w.ipvs, packet.AddrFrom4(10, 0, 0, byte(1+rng.Intn(200))))
		case 2:
			k.IPVSDelService(w.ipvs)
		}
	}
}

// checkFacts recounts the store's derived facts from its tables.
func checkFacts(t *testing.T, s *ObjectStore) {
	t.Helper()
	routed := make(map[int]int)
	for _, r := range s.routes {
		routed[r.OutIf]++
	}
	if fmt.Sprint(routed) != fmt.Sprint(s.routedOut) {
		t.Fatalf("routes per ifindex %v, recount %v", s.routedOut, routed)
	}
	live := 0
	for _, m := range s.ipvs {
		if m.Backends > 0 {
			live++
		}
	}
	if live != s.ipvsLive {
		t.Fatalf("live IPVS services %d, recount %d", s.ipvsLive, live)
	}
}

// TestTopoGenSkipIsSound is the property the reconcile skip rests on: over
// seeded random command sequences, every message that leaves the topology
// generation unchanged leaves the built graph's fingerprint unchanged too.
// The sequences must take the skip often enough for that to mean something.
func TestTopoGenSkipIsSound(t *testing.T) {
	const steps = 1500
	for seed := int64(1); seed <= 4; seed++ {
		w := newTopoWorld(seed)
		store := w.store
		topo := NewTopologyManager(store, NewCapabilityManager(false))
		prev := topo.Build().Fingerprint()
		applied, skipped := 0, 0
		for i := 0; i < steps; i++ {
			w.step()
			for drained := false; !drained; {
				select {
				case msg := <-w.sub.C:
					gen := store.TopoGen()
					store.Apply(msg)
					checkFacts(t, store)
					fp := topo.Build().Fingerprint()
					applied++
					if store.TopoGen() == gen {
						skipped++
						if fp != prev {
							t.Fatalf("seed %d step %d: %s %+v left the generation at %d but changed the graph:\n was %s\n now %s",
								seed, i, msg.Type, msg.Payload, gen, prev, fp)
						}
					}
					prev = fp
				default:
					drained = true
				}
			}
		}
		w.sub.Close()
		if n := w.sub.Dropped(); n != 0 {
			t.Fatalf("seed %d: %d messages dropped", seed, n)
		}
		if skipped*4 < applied {
			t.Fatalf("seed %d: %d of %d messages kept the generation; under 25 %%, the property is near vacuous", seed, skipped, applied)
		}
		t.Logf("seed %d: %d of %d messages kept the generation", seed, skipped, applied)
	}
}

// TestTopologyNeutralCommandSkipsRebuild: a command that changes no
// topology input still reconciles, behind the Sync fence, with a fresh graph
// pointer and the reaction an unchanged rebuild records, but builds and
// deploys nothing. A topology change and a restart rebuild.
func TestTopologyNeutralCommandSkipsRebuild(t *testing.T) {
	w := newRouterWorld(t)
	c := startController(t, w.dut, Options{})
	loader := c.Deployer().Loader()
	g0 := c.Graph()
	loads0, _, _ := loader.LoadStats()
	reconciles := c.ReconcileStats().Reconciles

	neutral := []struct {
		name    string
		run     func()
		trigger string
		virtual sim.Duration
	}{
		{"route to a routed ifindex", func() {
			w.dut.AddRoute(routeVia(packet.MustPrefix("10.200.0.0/16"), "10.2.0.1", w.out.Index))
		}, "RTM_NEWROUTE", sim.LatNetlinkNotify + sim.LatGraphBuild},
		{"ipset", func() {
			w.dut.IpsetCreate("neutral", "hash:net")
		}, "IPSET_NEW", sim.LatNetlinkNotify + sim.LatGraphBuild + sim.LatIptcDump},
		{"other sysctl", func() {
			w.dut.SetSysctl("net.ipv4.conf.all.rp_filter", "1")
		}, "SYSCTL_CHANGE", sim.LatNetlinkNotify + sim.LatGraphBuild},
		{"unrelated chain", func() {
			w.dut.IptAppend("INPUT", netfilter.Rule{Target: netfilter.VerdictAccept})
		}, "IPT_NEWRULE", sim.LatNetlinkNotify + sim.LatGraphBuild + sim.LatIptcDump},
	}
	prev := g0
	for _, tc := range neutral {
		tc.run()
		c.Sync()
		g := c.Graph()
		if g == prev {
			t.Fatalf("%s: no fresh graph published", tc.name)
		}
		if g.Interfaces["eth0"] != g0.Interfaces["eth0"] {
			t.Fatalf("%s: graph rebuilt", tc.name)
		}
		r, _ := c.LastReaction()
		if r.Trigger != tc.trigger || r.Virtual != tc.virtual || r.Modules != 2 || r.NewModules != 0 ||
			r.Deployed || r.IfDeployed+r.SynthRejected+r.LoadFailed != 0 {
			t.Fatalf("%s: reaction %+v, want trigger %s, virtual %v, 2 modules and no deploy",
				tc.name, r, tc.trigger, tc.virtual)
		}
		prev = g
	}
	if got := c.ReconcileStats().Reconciles - reconciles; got != uint64(len(neutral)) {
		t.Fatalf("%d reconciles for %d commands", got, len(neutral))
	}
	if loads, _, _ := loader.LoadStats(); loads != loads0 {
		t.Fatalf("neutral commands loaded %d programs", loads-loads0)
	}

	// A topology input: rebuilt and redeployed.
	if err := w.dut.IptAppend("FORWARD", netfilter.Rule{Target: netfilter.VerdictAccept}); err != nil {
		t.Fatal(err)
	}
	c.Sync()
	if c.Graph().Interfaces["eth0"] == g0.Interfaces["eth0"] {
		t.Fatal("FORWARD rule did not rebuild the graph")
	}
	if r, _ := c.LastReaction(); r.IfDeployed != 2 {
		t.Fatalf("FORWARD rule: reaction %+v, want 2 interfaces deployed", r)
	}

	// A restart starts from scratch, and redeploys what Stop withdrew.
	c.Stop()
	if ok, _ := w.in.XDPAttached(); ok {
		t.Fatal("Stop left the fast path attached")
	}
	c.Start()
	if r, _ := c.LastReaction(); r.Trigger != "startup" || r.IfDeployed != 2 {
		t.Fatalf("restart: reaction %+v, want 2 interfaces deployed", r)
	}
	if ok, _ := w.in.XDPAttached(); !ok {
		t.Fatal("restart did not redeploy")
	}
}
