package core

import (
	"sync"
	"sync/atomic"
	"time"

	"linuxfp/internal/ebpf"
	"linuxfp/internal/kernel"
	"linuxfp/internal/netlink"
	"linuxfp/internal/sim"
)

// Options configures a controller.
type Options struct {
	// PreferTC attaches all fast paths at the TC hook (container hosts).
	PreferTC bool
	// DisabledHelpers models an unpatched kernel missing some helpers.
	DisabledHelpers ebpf.Cap
}

// Reaction records one reconcile: what triggered it and how long the
// pipeline took, in the virtual latency model (Table VI) and on the wall
// clock of this reproduction.
type Reaction struct {
	Trigger    string
	Virtual    sim.Duration
	Wall       time.Duration
	LoadWall   time.Duration // verify + specialize + fuse, summed over deploys
	SwapWall   time.Duration // dispatcher attach/swap, summed over deploys
	Modules    int           // module instances synthesized
	NewModules int           // module instances not present before
	Deployed   bool

	// Per-interface outcomes; all zero when the graph was unchanged and
	// nothing was synthesized.
	IfDeployed    int // program loaded, then attached or swapped in
	SynthRejected int // synthesis declined or failed: the interface stays slow
	LoadFailed    int // the program failed to load or attach: it stays slow
}

// ReconcileStats are the controller's reconcile outcomes summed over every
// reaction, including those the reaction log has since overwritten.
type ReconcileStats struct {
	Reconciles    uint64
	IfDeployed    uint64
	SynthRejected uint64
	LoadFailed    uint64
}

// reactionLog is how many reactions the controller retains.
const reactionLog = 64

// Controller is the LinuxFP daemon. One goroutine, started by Start, is the
// only reader of its netlink subscription and the only caller of reconcile;
// everything else talks to it through Sync or reads what it published.
type Controller struct {
	K *kernel.Kernel

	store    *ObjectStore
	topo     *TopologyManager
	synth    *Synthesizer
	deployer *Deployer

	// The daemon goroutine owns these while it runs; Start and Stop own them
	// while it does not. lastGraph was built at topology generation lastGen;
	// nil means the next reconcile builds from scratch.
	lastPrint   string
	lastModules map[string]bool
	lastGraph   *Graph
	lastGen     uint64

	syncReq chan chan struct{}    // Sync's ack channels, served by the daemon
	graph   atomic.Pointer[Graph] // published by every reconcile

	// deploy is deployer.Deploy; tests wrap it to inject load failures.
	deploy func(*IfaceGraph, *ebpf.Program) error

	mu         sync.Mutex // guards the lifecycle, the reaction log and totals
	started    bool
	stop, done chan struct{}
	reactions  []Reaction // ring of reactionLog; oldest at reactNext once full
	reactNext  int
	totals     ReconcileStats
}

// New builds a controller for a kernel.
func New(k *kernel.Kernel, opts Options) *Controller {
	store := NewObjectStore()
	caps := NewCapabilityManager(opts.PreferTC)
	if opts.DisabledHelpers != 0 {
		caps.DisableHelper(opts.DisabledHelpers)
	}
	c := &Controller{
		K:        k,
		store:    store,
		topo:     NewTopologyManager(store, caps),
		synth:    NewSynthesizer(k, caps),
		deployer: NewDeployer(ebpf.NewLoader(k)),
		syncReq:  make(chan chan struct{}),
	}
	c.deploy = c.deployer.Deploy
	return c
}

// Start launches the daemon, which subscribes to kernel notifications,
// dumps the current state and reconciles it. Start returns once that first
// reconcile has deployed its data path.
func (c *Controller) Start() {
	c.mu.Lock()
	if c.started {
		c.mu.Unlock()
		return
	}
	c.started = true
	// Fresh lifecycle channels so a controller can be restarted.
	c.stop, c.done = make(chan struct{}), make(chan struct{})
	go c.run(c.stop, c.done)
	c.mu.Unlock()
	c.Sync()
}

// Stop shuts the daemon down and waits for it to exit.
func (c *Controller) Stop() {
	c.mu.Lock()
	if !c.started {
		c.mu.Unlock()
		return
	}
	c.started = false
	stop, done := c.stop, c.done
	c.mu.Unlock()
	close(stop)
	<-done
	// Clean shutdown withdraws the fast paths: the host returns to stock
	// Linux behaviour. (Real eBPF programs would survive the daemon; a
	// deliberate teardown detaches them, which is what Stop models.)
	for _, name := range c.deployer.Deployed() {
		c.deployer.Undeploy(name)
	}
	// Forget the deployed graph so a restart synthesizes from scratch.
	c.lastPrint, c.lastModules, c.lastGraph = "", nil, nil
}

// Sync is a fence: it returns once the daemon has applied every
// notification published before Sync was called and, if they changed the
// controller's view, finished the one reconcile that covers them. Publish
// enqueues synchronously, so those notifications are already queued when the
// daemon serves the request; lost ones (ENOBUFS) are recovered by a dump
// first. Sync returns at once on a controller that is not running, and
// returns if the controller is stopped while it waits.
func (c *Controller) Sync() {
	c.mu.Lock()
	started, done := c.started, c.done
	c.mu.Unlock()
	if !started {
		return
	}
	ack := make(chan struct{})
	select {
	case c.syncReq <- ack:
		select {
		case <-ack:
		case <-done:
		}
	case <-done:
	}
}

// run is the daemon. Each wakeup — a notification or a Sync request —
// drains everything queued and reconciles at most once.
func (c *Controller) run(stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	// Subscribe before dumping so no change can fall between them.
	sub := c.K.Bus.Subscribe(netlink.GroupAll)
	defer sub.Close()
	c.applyDump()
	c.reconcile("startup", true)
	var dropped uint64 // sub.Dropped() at the last dump
	for {
		b := batch{trigger: "resync"}
		var ack chan struct{}
		select {
		case <-stop:
			return
		case ack = <-c.syncReq:
		case msg := <-sub.C:
			b.add(c.store, msg)
		}
	drain:
		for {
			select {
			case msg := <-sub.C:
				b.add(c.store, msg)
			default:
				break drain
			}
		}
		// A burst overflowed the subscription (netlink's ENOBUFS): recover
		// the lost notifications the way real daemons do, with a full dump.
		if n := sub.Dropped(); n != dropped {
			dropped = n
			b.changed = c.applyDump() || b.changed
		}
		if b.changed {
			c.reconcile(b.trigger, b.netfilter)
		}
		if ack != nil {
			close(ack)
		}
	}
}

// batch is what one wakeup of the daemon drained. The first message that
// changed the store names the reconcile; any netfilter message charges the
// libiptc dump.
type batch struct {
	trigger   string
	changed   bool
	netfilter bool
}

func (b *batch) add(store *ObjectStore, msg netlink.Message) {
	if store.Apply(msg) && !b.changed {
		b.trigger, b.changed = msg.Type.String(), true
	}
	b.netfilter = b.netfilter || netlink.GroupOf(msg.Type) == netlink.GroupNetfilter
}

// applyDump folds a full state dump into the store and reports whether it
// changed anything.
func (c *Controller) applyDump() bool {
	changed := false
	for _, msg := range c.K.Bus.Dump(netlink.GroupAll) {
		changed = c.store.Apply(msg) || changed
	}
	return changed
}

// reconcile rebuilds the graph, synthesizes what changed and deploys it,
// recording the reaction time under the Table VI latency model. When no
// topology input changed since the last reconcile, the graph cannot have
// changed either: build, fingerprint and synthesis are skipped, and the
// reaction is the one an unchanged rebuild would have recorded.
func (c *Controller) reconcile(trigger string, netfilterTouched bool) {
	start := time.Now()

	gen := c.store.TopoGen()
	if c.lastGraph != nil && gen == c.lastGen {
		c.record(Reaction{
			Trigger: trigger, Virtual: reactionBase(netfilterTouched), Wall: time.Since(start),
			Modules: len(c.lastModules),
		})
		// A fresh pointer all the same: a new pointer means a reconcile
		// finished. The interface graphs are immutable and can be shared.
		c.graph.Store(&Graph{Interfaces: c.lastGraph.Interfaces})
		return
	}

	graph := c.topo.Build()
	modules := graph.ModuleSet()
	newCount := 0
	for m := range modules {
		if !c.lastModules[m] {
			newCount++
		}
	}
	fp := graph.Fingerprint()
	changed := fp != c.lastPrint

	var ifDeployed, synthRejected, loadFailed int
	filterInvolved := false
	var loadWall, swapWall time.Duration
	if changed {
		// Synthesize and deploy every interface in the new graph (the
		// controller regenerates the whole data path, paper §III-C). An
		// interface that cannot be accelerated falls back to the slow path
		// and is counted, never silently skipped.
		for _, ig := range graph.Interfaces {
			prog, err := c.synth.Synthesize(ig)
			if err != nil || prog == nil {
				c.deployer.Undeploy(ig.Name)
				synthRejected++
				continue
			}
			if findNode(ig, FPMFilter) != nil {
				filterInvolved = true
			}
			if err := c.deploy(ig, prog); err != nil {
				c.deployer.Undeploy(ig.Name)
				loadFailed++
				continue
			}
			lw, sw := c.deployer.LastTiming()
			loadWall += lw
			swapWall += sw
			ifDeployed++
		}
		// Interfaces that dropped out of the graph go back to slow path.
		for _, name := range c.deployer.Deployed() {
			if _, ok := graph.Interfaces[name]; !ok {
				c.deployer.Undeploy(name)
			}
		}
	}

	// Virtual reaction-time model (Table VI), beyond the base: template
	// rendering per module instance, the clang compile of the generated data
	// path (base + per new module), verifier+load, and the dispatcher swap.
	virtual := reactionBase(netfilterTouched)
	if changed {
		virtual += sim.Duration(len(modules)) * sim.LatSynthPerFPM
		virtual += sim.Duration(newCount) * sim.LatCompilePerFPM
		virtual += sim.LatCompileBase + sim.LatVerifyLoad + sim.LatAttachSwap
		if filterInvolved && netfilterTouched {
			virtual += sim.LatSynthIptExtra
		}
	}

	c.lastPrint, c.lastModules, c.lastGraph, c.lastGen = fp, modules, graph, gen
	c.record(Reaction{
		Trigger: trigger, Virtual: virtual, Wall: time.Since(start),
		LoadWall: loadWall, SwapWall: swapWall,
		Modules: len(modules), NewModules: newCount, Deployed: ifDeployed > 0,
		IfDeployed: ifDeployed, SynthRejected: synthRejected, LoadFailed: loadFailed,
	})
	// After the reaction: whoever sees the new graph also sees its reaction.
	c.graph.Store(graph)
}

// reactionBase is the part of the Table VI reaction-time model every
// reconcile pays, whether or not the graph changed: notification latency,
// graph build, and the libiptc dump when netfilter state had to be re-read.
func reactionBase(netfilterTouched bool) sim.Duration {
	virtual := sim.LatNetlinkNotify + sim.LatGraphBuild
	if netfilterTouched {
		virtual += sim.LatIptcDump
	}
	return virtual
}

// record appends a reaction to the log, overwriting the oldest once the log
// holds reactionLog of them, and adds its outcomes to the totals.
func (c *Controller) record(r Reaction) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.totals.Reconciles++
	c.totals.IfDeployed += uint64(r.IfDeployed)
	c.totals.SynthRejected += uint64(r.SynthRejected)
	c.totals.LoadFailed += uint64(r.LoadFailed)
	if len(c.reactions) < reactionLog {
		c.reactions = append(c.reactions, r)
		return
	}
	c.reactions[c.reactNext] = r
	c.reactNext = (c.reactNext + 1) % reactionLog
}

// FastPathStats aggregates data-plane counters across every accelerated
// interface — the operational "how much is the fast path actually
// carrying" view.
type FastPathStats struct {
	Interfaces int
	Redirects  uint64 // packets fully handled by the fast path
	Drops      uint64 // packets dropped by fast-path filtering
	SlowPath   uint64 // packets the kernel handled (punts + unaccelerated)
}

// FastPathStats snapshots the current acceleration counters.
func (c *Controller) FastPathStats() FastPathStats {
	var out FastPathStats
	for _, name := range c.deployer.Deployed() {
		dev, ok := c.K.DeviceByName(name)
		if !ok {
			continue
		}
		st := dev.Stats()
		out.Interfaces++
		out.Redirects += st.XDPRedirects + st.XDPTx
		out.Drops += st.XDPDrops
	}
	ks := c.K.Stats()
	out.SlowPath = ks.Forwarded + ks.Delivered
	return out
}

// Graph returns the processing graph built by the most recent reconcile, or
// nil before the first. It takes no lock. Every reconcile publishes a fresh
// *Graph, even one equal to its predecessor, so a change of pointer means a
// reconcile finished (and its reaction is already logged). A reconcile that
// changed no topology input publishes a graph sharing its predecessor's
// interface graphs; a published graph is never modified.
func (c *Controller) Graph() *Graph {
	return c.graph.Load()
}

// Reactions returns the last reactionLog reactions, oldest first.
func (c *Controller) Reactions() []Reaction {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append(append([]Reaction(nil), c.reactions[c.reactNext:]...), c.reactions[:c.reactNext]...)
}

// ReconcileStats returns the cumulative reconcile outcomes.
func (c *Controller) ReconcileStats() ReconcileStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.totals
}

// LastReaction returns the most recent reaction, if any.
func (c *Controller) LastReaction() (Reaction, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := len(c.reactions)
	if n == 0 {
		return Reaction{}, false
	}
	return c.reactions[(c.reactNext+n-1)%n], true
}

// Deployer exposes deployment state for inspection.
func (c *Controller) Deployer() *Deployer { return c.deployer }
