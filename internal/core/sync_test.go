package core

import (
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"linuxfp/internal/kernel"
	"linuxfp/internal/netdev"
	"linuxfp/internal/netfilter"
	"linuxfp/internal/packet"
	"linuxfp/internal/sim"
)

// TestSyncIsAFence: whatever a command published before Sync is in the
// controller's view, and reconciled, when Sync returns. Each case is a
// command shape that sends more than one message, or whose reaction the
// caller reads right after Sync.
func TestSyncIsAFence(t *testing.T) {
	const rounds = 200

	t.Run("pod-veth", func(t *testing.T) {
		// k8s.AddPod: the veth is announced down and unenslaved, then set up
		// (no message of its own) and enslaved; the last message carries both.
		k := kernel.New("node")
		k.CreateBridge("cni0")
		k.SetLinkUp("cni0", true)
		c := startController(t, k, Options{})
		for i := 0; i < rounds; i++ {
			name := fmt.Sprintf("veth%d", i)
			k.CreateDevice(name, netdev.Veth).SetUp(true)
			if err := k.AddBridgePort("cni0", name); err != nil {
				t.Fatal(err)
			}
			c.Sync()
			if ig := c.Graph().Interfaces[name]; ig == nil || ig.Nodes[0].FPM != FPMBridge {
				t.Fatalf("round %d: %s missing after Sync: %s", i, name, c.Graph())
			}
			// Unplug it again so the graph stays small.
			k.DelBridgePort("cni0", name)
			k.SetLinkUp(name, false)
			c.Sync()
			if ig := c.Graph().Interfaces[name]; ig != nil {
				t.Fatalf("round %d: %s still in the graph after removal", i, name)
			}
		}
	})

	t.Run("ipset", func(t *testing.T) {
		k := kernel.New("fw")
		c := startController(t, k, Options{})
		for i := 0; i < rounds; i++ {
			name := fmt.Sprintf("set%d", i)
			if _, err := k.IpsetCreate(name, "hash:net"); err != nil {
				t.Fatal(err)
			}
			if err := k.IpsetAdd(name, packet.Prefix{Addr: packet.AddrFrom4(198, 51, byte(i), 0), Bits: 24}); err != nil {
				t.Fatal(err)
			}
			c.Sync()
			c.store.mu.RLock()
			set, ok := c.store.sets[name]
			c.store.mu.RUnlock()
			if !ok || set.Members != 1 {
				t.Fatalf("round %d: store holds %s as %+v (present %v), want 1 member", i, name, set, ok)
			}
		}
	})

	t.Run("iptables", func(t *testing.T) {
		// Table VI's iptables row: a route change first, so reading the
		// previous reaction would show no libiptc dump.
		w := newRouterWorld(t)
		c := startController(t, w.dut, Options{})
		for i := 0; i < rounds; i++ {
			w.dut.AddRoute(routeVia(packet.Prefix{Addr: packet.AddrFrom4(172, 16, byte(i), 0), Bits: 24}, "10.2.0.1", w.out.Index))
			c.Sync()
			if r, _ := c.LastReaction(); r.Trigger != "RTM_NEWROUTE" || r.Virtual != sim.LatNetlinkNotify+sim.LatGraphBuild {
				t.Fatalf("round %d: route reaction %+v", i, r)
			}
			blocked := packet.Prefix{Addr: packet.AddrFrom4(10, 100, byte(i), 0), Bits: 24}
			w.dut.IptAppend("FORWARD", netfilter.Rule{Match: netfilter.Match{Dst: &blocked}, Target: netfilter.VerdictDrop})
			c.Sync()
			r, _ := c.LastReaction()
			// The rule count is in the filter's conf, so every append redeploys.
			want := sim.LatNetlinkNotify + sim.LatGraphBuild + sim.LatIptcDump +
				sim.Duration(r.Modules)*sim.LatSynthPerFPM + sim.Duration(r.NewModules)*sim.LatCompilePerFPM +
				sim.LatCompileBase + sim.LatVerifyLoad + sim.LatAttachSwap + sim.LatSynthIptExtra
			if r.Trigger != "IPT_NEWRULE" || r.Virtual != want {
				t.Fatalf("round %d: iptables reaction %v (%s), want %v including the libiptc dump", i, r.Virtual, r.Trigger, want)
			}
		}
	})
}

// TestSyncFenceUnderGraphReaders: a goroutine spinning on Graph() neither
// races the daemon nor delays it, and after every Sync the graph reflects the
// command before it. The FORWARD chain climbs to 50 rules and back, so a
// graph one command stale carries a different rule count.
func TestSyncFenceUnderGraphReaders(t *testing.T) {
	w := newRouterWorld(t)
	c := startController(t, w.dut, Options{})
	var stop atomic.Bool
	var reads atomic.Int64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			if g := c.Graph(); g != nil && g.Fingerprint() != "" {
				reads.Add(1)
			}
		}
	}()
	defer func() {
		stop.Store(true)
		wg.Wait()
	}()

	blocked := packet.MustPrefix("10.100.40.0/24")
	rules := 0
	for i := 0; i < 500; i++ {
		if (i/50)%2 == 0 {
			w.dut.IptAppend("FORWARD", netfilter.Rule{Match: netfilter.Match{Dst: &blocked}, Target: netfilter.VerdictDrop})
			rules++
		} else {
			w.dut.IptDelete("FORWARD", 1)
			rules--
		}
		c.Sync()
		filter := findNode(c.Graph().Interfaces["eth0"], FPMFilter)
		switch {
		case rules == 0 && filter != nil:
			t.Fatalf("command %d: filter FPM survived an empty chain", i)
		case rules > 0 && (filter == nil || filter.Conf["rules"] != strconv.Itoa(rules)):
			t.Fatalf("command %d: graph does not show %d rules: %s", i, rules, c.Graph())
		}
	}
	if reads.Load() == 0 {
		t.Fatal("the reader never saw a graph")
	}
}

// within fails the test unless fn returns within a second.
func within(t *testing.T, what string, fn func()) {
	t.Helper()
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		fn()
	}()
	select {
	case <-finished:
	case <-time.After(time.Second):
		t.Fatalf("%s did not return within 1s", what)
	}
}

func TestSyncReturnsOnAStoppedController(t *testing.T) {
	w := newRouterWorld(t)
	c := New(w.dut, Options{})
	within(t, "Sync before Start", c.Sync)
	c.Start()
	c.Stop()
	within(t, "Sync after Stop", c.Sync)
}

func TestStopReleasesBlockedSync(t *testing.T) {
	k, _ := bigKernel()
	c := New(k, Options{})
	c.Start()
	// Keep the daemon busy redeploying 40 interfaces while Syncs queue up
	// behind it, then stop it under them.
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		k.SetSysctl("net.ipv4.ip_forward", strconv.Itoa(i%2))
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.Sync()
		}()
	}
	c.Stop()
	within(t, "Sync blocked across Stop", wg.Wait)
}

func TestReactionLogIsBounded(t *testing.T) {
	c := New(kernel.New("idle"), Options{})
	for i := 0; i < 10000; i++ {
		c.reconcile(strconv.Itoa(i), false)
	}
	rs := c.Reactions()
	if len(rs) != 64 {
		t.Fatalf("log holds %d reactions, want 64", len(rs))
	}
	for j, r := range rs {
		if want := strconv.Itoa(10000 - 64 + j); r.Trigger != want {
			t.Fatalf("Reactions()[%d] is %q, want %q (oldest first)", j, r.Trigger, want)
		}
	}
	if last, ok := c.LastReaction(); !ok || last.Trigger != "9999" {
		t.Fatalf("LastReaction is %q, want the newest", last.Trigger)
	}
}
