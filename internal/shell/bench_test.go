package shell

import (
	"fmt"
	"testing"

	"linuxfp/internal/testbed"
)

// BenchmarkShellExecPlainLinux times the command alone: one op is the seven
// commands that take a configured router through a route, a rule and a set
// change and back (bench/'s churn script), through Exec on a PlatformLinux
// testbed — no controller, so nothing but parsing and the kernel's mutating
// verbs is on the clock. Run with -benchmem: allocs/op is the figure a
// read-side change must not raise.
func BenchmarkShellExecPlainLinux(b *testing.B) {
	d, err := testbed.Build(testbed.PlatformLinux, testbed.Scenario{Gateway: true, Rules: 100})
	if err != nil {
		b.Fatal(err)
	}
	s := New(d.Kern)
	if _, err := s.Exec("ipset create churn hash:net"); err != nil {
		b.Fatal(err)
	}
	// The texts are built outside the timed loop; 10 240 routes as in churn.
	steps := make([][7]string, 1024)
	for i := range steps {
		route := fmt.Sprintf("10.%d.%d.0/24", 200+i%40, i/40*10%256)
		pos := 1 + i%101
		steps[i] = [7]string{
			"ip route add " + route + " via 10.2.0.1",
			fmt.Sprintf("iptables -I FORWARD %d -s 198.18.%d.0/24 -j DROP", pos, i%256),
			fmt.Sprintf("ipset add churn 198.19.%d.0/24", i%256),
			"ip route del " + route,
			fmt.Sprintf("iptables -D FORWARD %d", pos),
			"ipset destroy churn",
			"ipset create churn hash:net",
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, cmd := range steps[i%len(steps)] {
			if _, err := s.Exec(cmd); err != nil {
				b.Fatalf("%q: %v", cmd, err)
			}
		}
	}
}
