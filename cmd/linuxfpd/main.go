// Command linuxfpd runs the LinuxFP controller daemon against a simulated
// kernel. The kernel is configured from a script of plain Linux commands
// (one per line: ip/brctl/iptables/ipset/sysctl); the daemon introspects
// the result, synthesizes the fast path, and reports what it deployed.
//
//	linuxfpd -script router.cfg -graph
//	echo "sysctl -w net.ipv4.ip_forward=1" | linuxfpd -graph
//
// Without a script, a demonstration virtual-router configuration is used.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"linuxfp"
	"linuxfp/internal/metrics"
)

const demoConfig = `ip link add eth0 type phys
ip link add eth1 type phys
ip link set eth0 up
ip link set eth1 up
ip addr add 10.1.0.254/24 dev eth0
ip addr add 10.2.0.254/24 dev eth1
ip route add 10.100.0.0/16 via 10.2.0.1 dev eth1
sysctl -w net.ipv4.ip_forward=1
iptables -A FORWARD -d 10.100.40.0/24 -j DROP`

func main() {
	script := flag.String("script", "", "configuration script (default: stdin if piped, else a demo router)")
	graph := flag.Bool("graph", false, "print the synthesized processing graph as JSON")
	preferTC := flag.Bool("tc", false, "attach fast paths at the TC hook")
	metricsOut := flag.Bool("metrics", false, "print a Prometheus text-format observability snapshot on exit")
	flag.Parse()

	if err := run(*script, *graph, *preferTC, *metricsOut); err != nil {
		fmt.Fprintln(os.Stderr, "linuxfpd:", err)
		os.Exit(1)
	}
}

func run(script string, graph, preferTC, metricsOut bool) error {
	cfg := demoConfig
	switch {
	case script != "":
		raw, err := os.ReadFile(script)
		if err != nil {
			return err
		}
		cfg = string(raw)
	default:
		if st, err := os.Stdin.Stat(); err == nil && st.Mode()&os.ModeCharDevice == 0 {
			raw, err := io.ReadAll(os.Stdin)
			if err != nil {
				return err
			}
			if len(raw) > 0 {
				cfg = string(raw)
			}
		}
	}

	sys := linuxfp.New("linuxfpd")
	defer sys.Close()
	if metricsOut {
		// Attach the latency instrumentation before any traffic so the
		// snapshot carries stage quantiles, not just counters.
		sys.Kernel.EnableStageLat()
	}
	if _, err := sys.Exec("# config"); err != nil {
		return err
	}
	for _, line := range splitLines(cfg) {
		if _, err := sys.Exec(line); err != nil {
			return fmt.Errorf("config %q: %w", line, err)
		}
	}

	ctrl := sys.Accelerate(linuxfp.Options{PreferTC: preferTC})
	fmt.Println("linuxfpd: controller started")
	fmt.Printf("linuxfpd: deployed fast paths on %v\n", ctrl.Deployer().Deployed())
	for _, r := range ctrl.Reactions() {
		fmt.Printf("linuxfpd: reaction trigger=%s modules=%d new=%d virtual=%.3fs load=%s swap=%s\n",
			r.Trigger, r.Modules, r.NewModules, r.Virtual.Seconds(), r.LoadWall, r.SwapWall)
	}
	if graph {
		fmt.Println(sys.GraphJSON())
	}
	if metricsOut {
		metrics.WriteKernel(os.Stdout, sys.Kernel)
		metrics.WritePrograms(os.Stdout, ctrl.Deployer().Loader())
		metrics.WriteReconcile(os.Stdout, ctrl.ReconcileStats())
	}
	return nil
}

func splitLines(s string) []string {
	var out []string
	start := 0
	for i := 0; i <= len(s); i++ {
		if i == len(s) || s[i] == '\n' {
			if i > start {
				out = append(out, s[start:i])
			}
			start = i + 1
		}
	}
	return out
}
