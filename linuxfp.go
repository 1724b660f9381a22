// Package linuxfp is the public API of the LinuxFP reproduction: a
// transparently accelerated Linux networking stack (ICDCS 2024).
//
// A System is one simulated Linux host. Configure it exactly as you would
// configure Linux — typed calls on System.Kernel, or iproute2/brctl/
// iptables/ipset/sysctl command strings through Exec — and call Accelerate
// to start the LinuxFP controller. The controller introspects the kernel
// over netlink, synthesizes minimal eBPF fast paths for the configuration
// it finds, and keeps them current as configuration changes. No LinuxFP-
// specific configuration exists: that is the paper's point.
//
//	sys := linuxfp.New("router")
//	sys.MustExec("ip link add eth0 type phys")
//	sys.MustExec("ip addr add 10.1.0.254/24 dev eth0")
//	sys.MustExec("sysctl -w net.ipv4.ip_forward=1")
//	sys.Accelerate(linuxfp.Options{})
//	defer sys.Close()
//
// See examples/ for complete scenarios and internal/testbed for the
// harness that regenerates the paper's evaluation.
package linuxfp

import (
	"linuxfp/internal/core"
	"linuxfp/internal/ebpf"
	"linuxfp/internal/kernel"
	"linuxfp/internal/shell"
	"linuxfp/internal/sim"
)

// System is one simulated Linux host: its kernel and, once Accelerate has
// been called, the LinuxFP controller daemon.
type System struct {
	Kernel     *kernel.Kernel
	Controller *core.Controller

	sh *shell.Shell
}

// Options configures acceleration.
type Options struct {
	// PreferTC attaches fast paths at the TC hook instead of XDP
	// (container hosts, where the sk_buff is allocated anyway).
	PreferTC bool
	// WithoutHelpers models an unpatched kernel missing the given
	// helpers; affected subsystems stay on the slow path.
	WithoutHelpers ebpf.Cap
}

// New creates a host with a fresh kernel (loopback only).
func New(name string) *System {
	k := kernel.New(name)
	return &System{Kernel: k, sh: shell.New(k)}
}

// Exec runs one Linux configuration command (ip / brctl / iptables /
// ipset / sysctl) against the kernel and returns its output.
func (s *System) Exec(cmd string) (string, error) {
	return s.sh.Exec(cmd)
}

// MustExec runs a command and panics on error — for example setup code.
func (s *System) MustExec(cmd string) string {
	out, err := s.sh.Exec(cmd)
	if err != nil {
		panic(err)
	}
	return out
}

// Accelerate starts the LinuxFP controller and returns once the data path
// for the current configuration is deployed. Later changes are picked up
// by the controller's daemon on its own; Sync waits until they have been.
func (s *System) Accelerate(opts Options) *core.Controller {
	if s.Controller != nil {
		return s.Controller
	}
	s.Controller = core.New(s.Kernel, core.Options{
		PreferTC:        opts.PreferTC,
		DisabledHelpers: opts.WithoutHelpers,
	})
	s.Controller.Start()
	s.Controller.Sync()
	return s.Controller
}

// Sync is a fence: it returns once the controller has absorbed, and
// reconciled, every kernel change made before the call. Without a running
// controller it returns at once.
func (s *System) Sync() {
	if s.Controller != nil {
		s.Controller.Sync()
	}
}

// GraphJSON returns the controller's current processing-graph model.
func (s *System) GraphJSON() string {
	if s.Controller == nil || s.Controller.Graph() == nil {
		return "{}"
	}
	raw, err := s.Controller.Graph().JSON()
	if err != nil {
		return "{}"
	}
	return string(raw)
}

// Close stops the controller, returning all traffic to the slow path.
func (s *System) Close() {
	if s.Controller != nil {
		s.Controller.Stop()
		s.Controller = nil
	}
}

// Meter allocates a cost meter for packet injection through the public
// API (see Device.Receive in internal/netdev).
func Meter() *sim.Meter { return &sim.Meter{} }
