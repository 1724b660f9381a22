package core

import (
	"testing"

	"linuxfp/internal/kernel"
	"linuxfp/internal/netfilter"
	"linuxfp/internal/packet"
)

// BenchmarkReconcile times one configuration command through a running
// controller up to its Sync fence: the notification, the store update, the
// reconcile and whatever it deploys. Commands alternate between adding and
// removing, so the configuration returns to where it was every two ops.
//
//   - route: `ip route add` / `ip route del` of a prefix out of an interface
//     that already has routes, which changes no topology input, so the
//     reconcile reuses the last graph;
//   - forward-rule: `iptables -I FORWARD 1` / `iptables -D FORWARD 1`, which
//     changes the filter node, so the reconcile rebuilds, synthesizes and
//     redeploys every interface.
//
// on the 50-route router and on the 40-interface, 1000-route bigKernel.
func BenchmarkReconcile(b *testing.B) {
	worlds := []struct {
		name  string
		build func(testing.TB) (*kernel.Kernel, int)
	}{
		{"router", func(tb testing.TB) (*kernel.Kernel, int) {
			w := newRouterWorld(tb)
			return w.dut, w.out.Index
		}},
		{"big", func(testing.TB) (*kernel.Kernel, int) {
			k, out := bigKernel()
			return k, out.Index
		}},
	}
	prefix := packet.MustPrefix("10.250.0.0/24")
	blocked := packet.MustPrefix("198.18.0.0/24")
	for _, world := range worlds {
		commands := []struct {
			name string
			run  func(k *kernel.Kernel, out, i int)
		}{
			{"route", func(k *kernel.Kernel, out, i int) {
				if i%2 == 0 {
					k.AddRoute(routeVia(prefix, "10.2.0.1", out))
				} else {
					k.DelRoute(prefix)
				}
			}},
			{"forward-rule", func(k *kernel.Kernel, _, i int) {
				if i%2 == 0 {
					k.IptInsert("FORWARD", 1, netfilter.Rule{Match: netfilter.Match{Src: &blocked}, Target: netfilter.VerdictDrop})
				} else {
					k.IptDelete("FORWARD", 1)
				}
			}},
		}
		for _, cmd := range commands {
			b.Run(world.name+"/"+cmd.name, func(b *testing.B) {
				k, out := world.build(b)
				c := New(k, Options{})
				c.Start()
				defer c.Stop()
				before := c.ReconcileStats().Reconciles
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					cmd.run(k, out, i)
					c.Sync()
				}
				b.StopTimer()
				if got := c.ReconcileStats().Reconciles - before; got != uint64(b.N) {
					b.Fatalf("%d reconciles for %d commands", got, b.N)
				}
			})
		}
	}
}
