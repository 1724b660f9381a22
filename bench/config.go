package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"linuxfp/internal/core"
	"linuxfp/internal/kernel"
	"linuxfp/internal/shell"
)

// convergeTimeout is how long a command may take to converge before it is a
// failed op. With two Ps on this shared 2-vCPU host the thread running the
// reconcile was descheduled for 5-12 ms about once in 150 commands, so 10 ms
// would fail commands the program handled correctly.
const convergeTimeout = 100 * time.Millisecond

// cfgPlane issues Linux configuration commands to one kernel and waits for
// that kernel's LinuxFP controller, if it runs one, to converge on each.
type cfgPlane struct {
	exec func(string) (string, error)
	ctrl *core.Controller // nil on un-accelerated Linux: nothing to converge
	// routeVia and baseRules parameterize the probe script for this kernel.
	routeVia  string
	baseRules int

	cmds, failed int
	syncWaits    int // looks at the controller that found the reconcile not yet visible
	execTime     time.Duration

	// keep, when set, receives the controller's own record of each reconcile
	// (traced runs only).
	keep func(core.Reaction)
}

func newCfgPlane(k *kernel.Kernel, ctrl *core.Controller, routeVia string) *cfgPlane {
	return &cfgPlane{exec: shell.New(k).Exec, ctrl: ctrl, routeVia: routeVia, baseRules: k.NF.RuleCount("FORWARD")}
}

// command is one line of a config script. A quiet command publishes no
// netlink message, so there is no reconcile to wait for.
type command struct {
	line  string
	quiet bool
}

// apply runs one command and returns the host time from the Exec call until
// the controller has converged on it. Every reconcile publishes a fresh
// *core.Graph, so pointer identity detects it in O(1); Controller.Reactions()
// would copy a slice that grows with every command.
func (c *cfgPlane) apply(cmd command) time.Duration {
	c.cmds++
	var before *core.Graph
	if c.ctrl != nil {
		before = c.ctrl.Graph()
	}
	start := time.Now()
	_, err := c.exec(cmd.line)
	c.execTime += time.Since(start)
	if err != nil {
		c.failed++
		return time.Since(start)
	}
	if c.ctrl == nil || cmd.quiet {
		return time.Since(start)
	}
	// Wait for the daemon goroutine; do not call Controller.Sync. Sync is a
	// second consumer of the notification channel, not a barrier (ROADMAP
	// item 1): whichever of the two dequeues a message applies it whenever it
	// next runs, so two messages can be applied out of order, and which one
	// reconciles decides how long it takes. On the benchmark's single P,
	// yielding hands the processor to the daemon, which the netlink publish
	// made runnable.
	for runtime.Gosched(); c.ctrl.Graph() == before; runtime.Gosched() {
		if time.Since(start) > convergeTimeout {
			c.failed++
			return time.Since(start)
		}
		c.syncWaits++
	}
	took := time.Since(start)
	if c.keep != nil {
		if r, ok := c.ctrl.LastReaction(); ok {
			c.keep(r)
		}
	}
	return took
}

// engage re-Syncs every controller of the workload until the fast path it
// predicts is attached, counting the extra rounds.
func engage(w workload) error {
	err := w.engaged()
	for round := 0; err != nil && round < 64; round++ {
		w.config().syncWaits++
		for _, c := range w.controllers() {
			c.Sync()
		}
		time.Sleep(100 * time.Microsecond)
		err = w.engaged()
	}
	return err
}

const churnSet = "churn"

// churnScript is an endless seeded script in which every command changes
// kernel state and every six commands return it to where it was:
//
//	ip route add · iptables -I FORWARD · ipset add · ip route del · iptables -D FORWARD · ipset destroy+create
//
// The seed picks the prefixes and the rule position. With toggles on, every
// 64th call also flips net.ipv4.ip_forward off and on again, which empties
// the processing graph and forces synth → load → swap from scratch.
type churnScript struct {
	rng       *rand.Rand
	routeVia  string
	baseRules int
	toggles   bool

	calls int
	phase int
	route string
	pos   int
}

func newChurnScript(rng *rand.Rand, routeVia string, baseRules int, toggles bool) *churnScript {
	return &churnScript{rng: rng, routeVia: routeVia, baseRules: baseRules, toggles: toggles}
}

// next returns the commands of one step.
func (s *churnScript) next() []command {
	s.calls++
	if s.toggles && s.calls%64 == 0 {
		return []command{
			{line: "sysctl -w net.ipv4.ip_forward=0"},
			{line: "sysctl -w net.ipv4.ip_forward=1"},
		}
	}
	var c command
	switch s.phase {
	case 0:
		s.route = fmt.Sprintf("10.%d.%d.0/24", 200+s.rng.Intn(40), s.rng.Intn(256)) // clear of 10.244/16
		c.line = fmt.Sprintf("ip route add %s %s", s.route, s.routeVia)
	case 1:
		s.pos = 1 + s.rng.Intn(s.baseRules+1)
		c.line = fmt.Sprintf("iptables -I FORWARD %d -s 198.18.%d.0/24 -j DROP", s.pos, s.rng.Intn(256))
	case 2:
		c.line = fmt.Sprintf("ipset add %s 198.19.%d.0/24", churnSet, s.rng.Intn(256))
	case 3:
		c.line = "ip route del " + s.route
	case 4:
		c.line = fmt.Sprintf("iptables -D FORWARD %d", s.pos)
	case 5:
		// Neither `ipset del` nor `ipset destroy` publishes a netlink message,
		// so the controller's copy of the set goes stale and would not see the
		// next add either (noted in README.md). Destroy and re-create: the
		// create is published and brings the controller back in step.
		s.phase = 0
		return []command{
			{line: "ipset destroy " + churnSet, quiet: true},
			{line: "ipset create " + churnSet + " hash:net"},
		}
	}
	s.phase = (s.phase + 1) % 6
	return []command{c}
}

// probe measures reconcile time on a kernel that is otherwise idle: batches
// of the churn script (no toggles), one figure per batch, in microseconds.
func (c *cfgPlane) probe(rng *rand.Rand, batches, perBatch int) ([]float64, error) {
	// Start from a collected heap: a collection still marking the timed run's
	// garbage would be billed to these microsecond commands.
	runtime.GC()
	// Waited for like every other command: a message still in flight when the
	// next command is issued can be applied after it, and the controller's
	// copy of the set would then be stale for the rest of the run.
	if c.apply(command{line: "ipset create " + churnSet + " hash:net"}); c.failed > 0 {
		return nil, fmt.Errorf("ipset create %s failed or did not converge", churnSet)
	}
	script := newChurnScript(rng, c.routeVia, c.baseRules, false)
	out := make([]float64, batches)
	took := make([]float64, 0, perBatch+1)
	for b := range out {
		took = took[:0]
		for len(took) < perBatch {
			for _, cmd := range script.next() {
				took = append(took, float64(c.apply(cmd).Nanoseconds())/1e3)
			}
		}
		out[b] = trimmedMean(took)
	}
	return out, nil
}

// trimmedMean is the mean without the slowest 5 %. Reconcile time is bimodal
// (Sync runs it inline, or the daemon goroutine got there first and Sync's
// caller waits), which a mean averages and a median would hide; the trim
// drops only the millisecond stalls of the host's scheduler.
func trimmedMean(v []float64) float64 {
	s := sorted(v)
	return mean(s[:len(s)-len(s)/20])
}
