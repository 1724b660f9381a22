// Package kernel models the Linux networking stack that LinuxFP uses as its
// slow path: device management, the receive path (bridge input, IP receive,
// forwarding, local delivery), ARP and ICMP handling, IP fragmentation and
// reassembly, netfilter hook traversal, VXLAN encapsulation, sysctl state,
// and netlink event publication.
//
// Every subsystem's state (FIB, neighbour table, bridge FDB, iptables
// chains, ipsets, conntrack) lives in exactly one place here. The fast
// path's helpers read and write the same objects, which is LinuxFP's
// correctness argument: a packet taking either path observes identical
// state.
//
// The receive path is multi-queue: frames are steered to RX queues by the
// netdev package's RSS hash, and each queue runs on its own virtual CPU
// with per-CPU counter shards and flow caches. Everything a packet touches
// per-hop is read through atomic snapshots (device table, TC attachments,
// sysctls, clock), so queues scale without shared locks; the kernel lock
// only serializes configuration.
package kernel

import (
	"fmt"
	"maps"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"linuxfp/internal/bridge"
	"linuxfp/internal/drop"
	"linuxfp/internal/fib"
	"linuxfp/internal/flight"
	"linuxfp/internal/neigh"
	"linuxfp/internal/netdev"
	"linuxfp/internal/netfilter"
	"linuxfp/internal/netlink"
	"linuxfp/internal/packet"
	"linuxfp/internal/sim"
)

// TCAction is a TC program verdict.
type TCAction int

// TC verdicts.
const (
	TCOk TCAction = iota // continue normal stack processing
	TCShot
	TCRedirect
)

// SKB is the socket-buffer context a TC program (and the rest of the stack)
// operates on: the raw frame plus parsed metadata the kernel has already
// populated — richer than an XDPBuff, but paid for with the allocation
// prologue.
type SKB struct {
	Data       []byte
	Dev        *netdev.Device
	Pkt        *packet.Packet
	VLAN       uint16
	RedirectTo int
	Meter      *sim.Meter
}

// TCHandler is a TC classifier program attachment.
type TCHandler interface {
	HandleTC(*SKB) TCAction
}

// TCBatchHandler is a TC program that can run over a whole NAPI poll's worth
// of skbs at once — the sch_handle_ingress/egress twin of the XDP batch
// runner: program setup is paid once and every later skb enters with warm
// I-cache. HandleTCBatch fills acts[i] with the verdict for skbs[i]; both
// slices have equal length.
type TCBatchHandler interface {
	TCHandler
	HandleTCBatch(skbs []*SKB, acts []TCAction)
}

// SocketMsg is a datagram delivered to a registered socket.
type SocketMsg struct {
	Proto            uint8
	Src, Dst         packet.Addr
	SrcPort, DstPort uint16
	Payload          []byte
	InIf             int
	Meter            *sim.Meter
}

// SocketHandler consumes datagrams for a bound (proto, port).
type SocketHandler func(k *Kernel, m SocketMsg)

// Stats counts stack-level events.
type Stats struct {
	Forwarded     uint64
	Delivered     uint64
	Dropped       uint64
	NoRoute       uint64
	TTLExpired    uint64
	FilterDropped uint64
	ARPTx         uint64
	ICMPTx        uint64
	STPTx         uint64
	FragsSent     uint64
	Reassembled   uint64
	FlowHits      uint64 // flow fast-cache hits (L3 + L2)
	FlowMisses    uint64 // fast-cache probes that fell through to the slow path
	GROCoalesced  uint64 // frames merged into an existing GRO hold (absorbed at ingress)
	GROFlushes    uint64 // GRO holds flushed into the stack (supersegments + singles)
	GROSupersegs  uint64 // flushed holds that carried 2+ coalesced segments

	CpumapEnqueued    uint64 // frames spilled into a cpumap entry's ring
	CpumapDrops       uint64 // frames lost to ring overflow or a torn-down entry
	CpumapKthreadRuns uint64 // kthread wakeups that found frames (one drain loop each)

	RPSSteered      uint64 // frames handed to another CPU's RPS backlog
	RPSBacklogDrops uint64 // frames lost to a full RPS backlog ring
	RPSIPIs         uint64 // backlog doorbells (modeled net_rps_send_ipi calls)
	RFSHits         uint64 // steering decisions taken from the sock flow table
	RFSMigrations   uint64 // flows moved to a new CPU after their qtail drained

	SockmapHits    uint64 // established-flow socket table hits (full stack walk skipped)
	SockmapMisses  uint64 // probes that fell through to the full walk
	SockmapSplices uint64 // segments forwarded socket-to-socket (native splice or SK_REDIRECT)
	L7Verdicts     uint64 // sk_skb verdict program runs at the socket layer
}

// socketKey binds a protocol and port.
type socketKey struct {
	proto uint8
	port  uint16
}

// devTable is the read-side snapshot of the device registry, replaced
// whole on every change so per-packet lookups are a single atomic load.
// byIdx is dense: slot i holds the device with ifindex i, nil where there is
// none, so DeviceByIndex is a bounds check and a load.
type devTable struct {
	byIdx  []*netdev.Device
	byName map[string]*netdev.Device
}

// tcTables is the read-side snapshot of TC attachments.
type tcTables struct {
	ingress map[int]TCHandler
	egress  map[int]TCHandler
}

// Kernel is one network namespace's stack instance.
type Kernel struct {
	Name string

	FIB   *fib.FIB
	Neigh *neigh.Table
	NF    *netfilter.Netfilter
	Bus   *netlink.Bus

	// Copy-on-write snapshots the per-packet path reads lock-free.
	devs  atomic.Pointer[devTable]
	tc    atomic.Pointer[tcTables]
	clock atomic.Pointer[func() sim.Time]

	// Cached hot sysctls (the kernel's static-key equivalents).
	fwdEnabled  atomic.Bool // net.ipv4.ip_forward
	brNFCall    atomic.Bool // net.bridge.bridge-nf-call-iptables
	flowCacheOn atomic.Bool // net.core.flow_cache
	jitEnabled  atomic.Bool // net.core.bpf_jit_enable (default on)
	specEnabled atomic.Bool // net.core.bpf_jit_specialize (default on)
	sockmapOn   atomic.Bool // net.core.sockmap (socket-layer fast path)

	// cfgGen is bumped on any configuration change outside the generation-
	// counted subsystems (sysctls, TC attachments, link state, bridge
	// membership, IPVS services). The flow fast-cache folds it into its
	// combined generation.
	cfgGen atomic.Uint64

	// Per-CPU state: counter shards, flow caches, and GRO hold tables,
	// indexed by Meter.CPU.
	shards  [NumRxShards]shardCounters
	flows   [NumRxShards]atomic.Pointer[flowShard]
	l2cache [NumRxShards]atomic.Pointer[l2Shard]
	gro     [NumRxShards]atomic.Pointer[groCtx]
	skflows [NumRxShards]atomic.Pointer[sockShard]

	// socks is the listening-socket table, copy-on-write like the device
	// table: the demux path reads it with one atomic load. sockGen counts
	// socket unregistrations (and rebinds that close a previous socket) —
	// the socket-layer share of the established-flow table's generation.
	socks   atomic.Pointer[sockTable]
	sockGen atomic.Uint64

	// dropReasons shadows the shards' dropped counter, split by
	// drop.Reason: every countDrop* helper tags its reason here, so
	// drop.Total(DropReasons()) always equals Stats().Dropped. Each shard
	// is its own cache-line-aligned counter block (drop.Counters).
	dropReasons [NumRxShards]drop.Counters

	// groFlushTO mirrors net.core.gro_flush_timeout (nanoseconds of virtual
	// time): 0 flushes all holds at the end of every NAPI poll; >0 lets
	// holds ride across polls until their deadline.
	groFlushTO atomic.Int64

	// rps is the software steering plane (RPS backlogs, RFS sock flow
	// table); nil means steering is off and the receive path pays nothing.
	// rfsEntries mirrors net.core.rps_sock_flow_entries.
	rps        atomic.Pointer[rpsState]
	rfsEntries atomic.Uint32

	mu      sync.RWMutex
	bridges map[int]*bridge.Bridge // keyed by bridge device ifindex
	vxlans  map[int]*vxlanState
	sysctl  map[string]string
	nextIdx int
	ipIDSeq uint32
	defrag  map[fragKey]*fragQueue

	ipvs *ipvsState

	tracer     atomic.Pointer[Tracer]
	stageLat   atomic.Pointer[StageLat]
	dropNotify atomic.Pointer[DropNotify]
	flight     atomic.Pointer[flight.Recorder]
	flowTab    atomic.Pointer[flight.FlowTable]
}

var (
	_ netdev.Stack      = (*Kernel)(nil)
	_ netdev.BatchStack = (*Kernel)(nil)
)

// New returns a fresh namespace with default sysctls (forwarding off) and a
// loopback device.
func New(name string) *Kernel {
	k := &Kernel{
		Name:    name,
		FIB:     fib.New(),
		Neigh:   neigh.NewTable(),
		NF:      netfilter.New(),
		Bus:     netlink.NewBus(),
		bridges: make(map[int]*bridge.Bridge),
		vxlans:  make(map[int]*vxlanState),
		sysctl: map[string]string{
			"net.ipv4.ip_forward":            "0",
			"net.core.bpf_jit_enable":        "1",
			"net.core.bpf_jit_specialize":    "1",
			"net.core.gro_flush_timeout":     "0",
			"net.core.rps_sock_flow_entries": "0",
			"net.core.sockmap":               "0",
		},
		defrag: make(map[fragKey]*fragQueue),
		ipvs:   newIPVSState(),
	}
	k.jitEnabled.Store(true)
	k.specEnabled.Store(true)
	k.socks.Store(&sockTable{m: map[socketKey]*Socket{}})
	k.devs.Store(&devTable{byName: map[string]*netdev.Device{}})
	k.tc.Store(&tcTables{ingress: map[int]TCHandler{}, egress: map[int]TCHandler{}})
	zero := func() sim.Time { return 0 }
	k.clock.Store(&zero)
	k.registerDumpers()
	lo := k.CreateDevice("lo", netdev.Loopback)
	lo.SetUp(true)
	return k
}

// SetClock injects the virtual time source (aging, conntrack, reaction
// timing all read it).
func (k *Kernel) SetClock(fn func() sim.Time) {
	k.clock.Store(&fn)
}

// Now reports the kernel's current virtual time.
func (k *Kernel) Now() sim.Time {
	return (*k.clock.Load())()
}

// Stats returns a snapshot of stack counters, summed across the per-CPU
// shards. The sum is not an atomic cut across all shards, but each counter
// is monotonic, so a quiesced datapath always sums exactly.
func (k *Kernel) Stats() Stats {
	var s Stats
	for i := range k.shards {
		c := &k.shards[i]
		s.Forwarded += c.forwarded.Load()
		s.Delivered += c.delivered.Load()
		s.Dropped += c.dropped.Load()
		s.NoRoute += c.noRoute.Load()
		s.TTLExpired += c.ttlExpired.Load()
		s.FilterDropped += c.filterDropped.Load()
		s.ARPTx += c.arpTx.Load()
		s.ICMPTx += c.icmpTx.Load()
		s.STPTx += c.stpTx.Load()
		s.FragsSent += c.fragsSent.Load()
		s.Reassembled += c.reassembled.Load()
		s.FlowHits += c.flowHits.Load()
		s.FlowMisses += c.flowMisses.Load()
		s.GROCoalesced += c.groCoalesced.Load()
		s.GROFlushes += c.groFlushes.Load()
		s.GROSupersegs += c.groSupersegs.Load()
		s.CpumapEnqueued += c.cpumapEnqueued.Load()
		s.CpumapDrops += c.cpumapDrops.Load()
		s.CpumapKthreadRuns += c.cpumapKthreadRuns.Load()
		s.RPSSteered += c.rpsSteered.Load()
		s.RPSBacklogDrops += c.rpsBacklogDrops.Load()
		s.RPSIPIs += c.rpsIPIs.Load()
		s.RFSHits += c.rfsHits.Load()
		s.RFSMigrations += c.rfsMigrations.Load()
		s.SockmapHits += c.sockmapHits.Load()
		s.SockmapMisses += c.sockmapMisses.Load()
		s.SockmapSplices += c.sockmapSplices.Load()
		s.L7Verdicts += c.l7Verdicts.Load()
	}
	return s
}

// --- device management -----------------------------------------------------

// macSeq allocates locally administered MAC addresses. It is process-wide
// so devices in different namespaces never collide on a shared segment.
var macSeq atomic.Uint64

// allocMAC returns the next unique 02:xx MAC.
func allocMAC() packet.HWAddr {
	n := macSeq.Add(1)
	var mac packet.HWAddr
	mac[0] = 0x02
	for i := 1; i < 6; i++ {
		mac[i] = byte(n >> (8 * uint(5-i)))
	}
	return mac
}

// storeDevsLocked publishes a new device-table snapshot in which ifindex
// idx and name map to d, or to nothing when d is nil. The old snapshot is
// never written: readers holding it keep a consistent table. Must hold k.mu.
func (k *Kernel) storeDevsLocked(idx int, name string, d *netdev.Device) {
	old := k.devs.Load()
	nt := &devTable{
		byIdx:  make([]*netdev.Device, max(len(old.byIdx), idx+1)),
		byName: make(map[string]*netdev.Device, len(old.byName)+1),
	}
	copy(nt.byIdx, old.byIdx)
	maps.Copy(nt.byName, old.byName)
	nt.byIdx[idx] = d
	if d != nil {
		nt.byName[name] = d
	} else {
		delete(nt.byName, name)
	}
	k.devs.Store(nt)
	k.cfgGen.Add(1)
}

// CreateDevice creates and registers a device of the given type.
func (k *Kernel) CreateDevice(name string, typ netdev.Type) *netdev.Device {
	k.mu.Lock()
	k.nextIdx++
	idx := k.nextIdx
	d := netdev.New(name, idx, typ, allocMAC(), k)
	k.storeDevsLocked(idx, name, d)
	k.mu.Unlock()
	if fr := k.flight.Load(); fr != nil {
		d.SetFlight(fr)
	}
	k.publishLink(d)
	return d
}

// CreateVethPair creates two cross-connected veth devices.
func (k *Kernel) CreateVethPair(a, b string) (*netdev.Device, *netdev.Device) {
	da := k.CreateDevice(a, netdev.Veth)
	db := k.CreateDevice(b, netdev.Veth)
	netdev.Connect(da, db)
	return da, db
}

// CreateBridge creates a bridge device and its bridging state
// (brctl addbr).
func (k *Kernel) CreateBridge(name string) (*netdev.Device, *bridge.Bridge) {
	d := k.CreateDevice(name, netdev.BridgeDev)
	br := bridge.New(name, d.Index, d.MAC)
	k.mu.Lock()
	k.bridges[d.Index] = br
	k.mu.Unlock()
	// br_dev_xmit: frames transmitted on the bridge device itself are
	// forwarded through the bridge, not onto a wire.
	d.SetTxHook(func(frame []byte, m *sim.Meter) bool {
		k.bridgeDevXmit(br, frame, m)
		return true
	})
	k.publishLink(d)
	return d, br
}

// bridgeDevXmit forwards a locally originated frame out the bridge's ports:
// FDB hit goes out one port, otherwise it floods all forwarding ports.
func (k *Kernel) bridgeDevXmit(br *bridge.Bridge, frame []byte, m *sim.Meter) {
	defer k.trace("br_dev_xmit", m)()
	eth, _, err := packet.UnmarshalEthernet(frame)
	if err != nil {
		k.countDropReason(m, drop.ReasonL2HdrError)
		return
	}
	now := k.Now()
	vlan := uint16(0)
	if br.VLANFiltering() {
		vlan = eth.VLAN
	}
	if !eth.Dst.IsMulticast() {
		if port, ok := br.FDBLookup(eth.Dst, vlan, now); ok {
			if p, exists := br.Port(port); exists && p.State == bridge.Forwarding {
				if out, ok := k.DeviceByIndex(port); ok {
					m.Charge(sim.CostDevXmit)
					out.Transmit(frame, m)
					return
				}
			}
			k.countDropReason(m, drop.ReasonBridgeNoFwd)
			return
		}
	}
	first := true
	for _, port := range br.Ports() {
		p, exists := br.Port(port)
		if !exists || p.State != bridge.Forwarding {
			continue
		}
		if _, allowed := br.EgressAllowed(port, vlan); !allowed {
			continue
		}
		if out, ok := k.DeviceByIndex(port); ok {
			if !first {
				m.Charge(sim.CostBridgeFloodP)
			}
			first = false
			m.Charge(sim.CostDevXmit)
			out.Transmit(frame, m)
		}
	}
}

// DeleteBridge removes a bridge device (brctl delbr). Enslaved ports are
// released first.
func (k *Kernel) DeleteBridge(name string) error {
	d, ok := k.DeviceByName(name)
	if !ok {
		return fmt.Errorf("kernel: no bridge %q", name)
	}
	k.mu.Lock()
	br, isBr := k.bridges[d.Index]
	if !isBr {
		k.mu.Unlock()
		return fmt.Errorf("kernel: %q is not a bridge", name)
	}
	delete(k.bridges, d.Index)
	k.storeDevsLocked(d.Index, name, nil)
	k.mu.Unlock()
	for _, p := range br.Ports() {
		if pd, ok := k.DeviceByIndex(p); ok {
			pd.SetMaster(0)
		}
	}
	k.Bus.Publish(netlink.Message{Type: netlink.DelLink, Payload: k.linkMsg(d)})
	return nil
}

// Bridge returns the bridging state behind a bridge device ifindex.
func (k *Kernel) Bridge(ifindex int) (*bridge.Bridge, bool) {
	k.mu.RLock()
	defer k.mu.RUnlock()
	br, ok := k.bridges[ifindex]
	return br, ok
}

// BridgeByName returns the bridging state by device name.
func (k *Kernel) BridgeByName(name string) (*bridge.Bridge, bool) {
	d, ok := k.DeviceByName(name)
	if !ok {
		return nil, false
	}
	return k.Bridge(d.Index)
}

// AddBridgePort enslaves a device to a bridge (brctl addif).
func (k *Kernel) AddBridgePort(brName, devName string) error {
	br, ok := k.BridgeByName(brName)
	if !ok {
		return fmt.Errorf("kernel: no bridge %q", brName)
	}
	d, ok := k.DeviceByName(devName)
	if !ok {
		return fmt.Errorf("kernel: no device %q", devName)
	}
	br.AddPort(d.Index)
	br.StartSTPPort(d.Index, k.Now())
	d.SetMaster(br.IfIndex)
	k.cfgGen.Add(1)
	k.publishLink(d)
	return nil
}

// DelBridgePort releases a device from its bridge (brctl delif).
func (k *Kernel) DelBridgePort(brName, devName string) error {
	br, ok := k.BridgeByName(brName)
	if !ok {
		return fmt.Errorf("kernel: no bridge %q", brName)
	}
	d, ok := k.DeviceByName(devName)
	if !ok {
		return fmt.Errorf("kernel: no device %q", devName)
	}
	if !br.DelPort(d.Index) {
		return fmt.Errorf("kernel: %q is not a port of %q", devName, brName)
	}
	d.SetMaster(0)
	k.cfgGen.Add(1)
	k.publishLink(d)
	return nil
}

// SetBridgeSTP toggles spanning tree (brctl stp <br> on|off).
func (k *Kernel) SetBridgeSTP(brName string, on bool) error {
	br, ok := k.BridgeByName(brName)
	if !ok {
		return fmt.Errorf("kernel: no bridge %q", brName)
	}
	br.SetSTP(on)
	if d, ok := k.DeviceByName(brName); ok {
		k.publishLink(d)
	}
	return nil
}

// SetBridgeVLANFiltering toggles VLAN-aware bridging.
func (k *Kernel) SetBridgeVLANFiltering(brName string, on bool) error {
	br, ok := k.BridgeByName(brName)
	if !ok {
		return fmt.Errorf("kernel: no bridge %q", brName)
	}
	br.SetVLANFiltering(on)
	if d, ok := k.DeviceByName(brName); ok {
		k.publishLink(d)
	}
	return nil
}

// STPHello runs one hello-timer round for every bridge (the slow path's
// br_hello_timer): advance port-state timers and emit configuration BPDUs
// on designated ports. Call it every bridge.HelloTime of virtual time.
func (k *Kernel) STPHello(m *sim.Meter) {
	now := k.Now()
	k.mu.RLock()
	brs := make([]*bridge.Bridge, 0, len(k.bridges))
	for _, br := range k.bridges {
		brs = append(brs, br)
	}
	k.mu.RUnlock()
	for _, br := range brs {
		br.TickSTP(now)
		for port, bpdu := range br.GenerateBPDUs() {
			dev, ok := k.DeviceByIndex(port)
			if !ok {
				continue
			}
			frame := packet.BuildEthernet(packet.Ethernet{
				Dst: bridge.STPDestMAC, Src: dev.MAC, EtherType: 0x0027,
			}, bpdu.Marshal())
			k.bumpSTPTx(m)
			dev.Transmit(frame, m)
		}
	}
}

// DeviceByIndex implements netdev.Stack.
func (k *Kernel) DeviceByIndex(idx int) (*netdev.Device, bool) {
	byIdx := k.devs.Load().byIdx
	if uint(idx) >= uint(len(byIdx)) {
		return nil, false
	}
	d := byIdx[idx]
	return d, d != nil
}

// DeviceByName resolves a device by name.
func (k *Kernel) DeviceByName(name string) (*netdev.Device, bool) {
	d, ok := k.devs.Load().byName[name]
	return d, ok
}

// Devices returns all devices in ifindex order.
func (k *Kernel) Devices() []*netdev.Device {
	t := k.devs.Load()
	out := make([]*netdev.Device, 0, len(t.byName))
	for _, d := range t.byIdx {
		if d != nil {
			out = append(out, d)
		}
	}
	return out
}

// SetLinkUp changes administrative state (ip link set <dev> up/down).
func (k *Kernel) SetLinkUp(name string, up bool) error {
	d, ok := k.DeviceByName(name)
	if !ok {
		return fmt.Errorf("kernel: no device %q", name)
	}
	d.SetUp(up)
	k.cfgGen.Add(1)
	k.publishLink(d)
	return nil
}

// AddAddr assigns an address and, like Linux, installs the implied local
// (/32, local table) and connected-subnet (main table, scope link) routes.
func (k *Kernel) AddAddr(devName string, p packet.Prefix) error {
	d, ok := k.DeviceByName(devName)
	if !ok {
		return fmt.Errorf("kernel: no device %q", devName)
	}
	d.AddAddr(p)
	k.FIB.Local().Add(fib.Route{
		Prefix: packet.Prefix{Addr: p.Addr, Bits: 32},
		OutIf:  d.Index, Scope: fib.ScopeHost, Local: true,
	})
	if p.Bits < 32 {
		k.FIB.Main().Add(fib.Route{
			Prefix: p.Masked(), OutIf: d.Index, Scope: fib.ScopeLink,
		})
	}
	k.Bus.Publish(netlink.Message{Type: netlink.NewAddr, Payload: netlink.AddrMsg{Index: d.Index, Prefix: p}})
	return nil
}

// DelAddr removes an address and its implied routes.
func (k *Kernel) DelAddr(devName string, p packet.Prefix) error {
	d, ok := k.DeviceByName(devName)
	if !ok {
		return fmt.Errorf("kernel: no device %q", devName)
	}
	if !d.DelAddr(p) {
		return fmt.Errorf("kernel: %s not assigned to %q", p, devName)
	}
	k.FIB.Local().Delete(packet.Prefix{Addr: p.Addr, Bits: 32}, -1)
	if p.Bits < 32 {
		k.FIB.Main().Delete(p.Masked(), -1)
	}
	k.Bus.Publish(netlink.Message{Type: netlink.DelAddr, Payload: netlink.AddrMsg{Index: d.Index, Prefix: p}})
	return nil
}

// AddRoute installs a route in the main table (ip route add).
func (k *Kernel) AddRoute(r fib.Route) {
	if r.Scope == 0 {
		r.Scope = fib.ScopeUniverse
		if r.Gateway == 0 {
			r.Scope = fib.ScopeLink
		}
	}
	k.FIB.Main().Add(r)
	k.Bus.Publish(netlink.Message{Type: netlink.NewRoute, Payload: netlink.RouteMsg{
		Table: fib.TableMain, Prefix: r.Prefix, Gateway: r.Gateway, OutIf: r.OutIf, Metric: r.Metric,
	}})
}

// DelRoute removes a route from the main table (ip route del).
func (k *Kernel) DelRoute(p packet.Prefix) bool {
	ok := k.FIB.Main().Delete(p, -1)
	if ok {
		k.Bus.Publish(netlink.Message{Type: netlink.DelRoute, Payload: netlink.RouteMsg{
			Table: fib.TableMain, Prefix: p,
		}})
	}
	return ok
}

// AddNeigh installs a permanent neighbour entry (ip neigh add).
func (k *Kernel) AddNeigh(devName string, ip packet.Addr, mac packet.HWAddr) error {
	d, ok := k.DeviceByName(devName)
	if !ok {
		return fmt.Errorf("kernel: no device %q", devName)
	}
	k.Neigh.AddPermanent(ip, mac, d.Index)
	k.Bus.Publish(netlink.Message{Type: netlink.NewNeigh, Payload: netlink.NeighMsg{
		Index: d.Index, IP: ip, MAC: mac, State: "PERMANENT",
	}})
	return nil
}

// --- sysctl ------------------------------------------------------------------

// SetSysctl writes a sysctl key and notifies observers. Hot-path keys are
// mirrored into atomic flags so the datapath never reads the map.
func (k *Kernel) SetSysctl(key, value string) {
	k.mu.Lock()
	k.sysctl[key] = value
	k.mu.Unlock()
	on := value == "1"
	switch key {
	case "net.ipv4.ip_forward":
		k.fwdEnabled.Store(on)
	case "net.bridge.bridge-nf-call-iptables":
		k.brNFCall.Store(on)
	case "net.core.flow_cache":
		k.flowCacheOn.Store(on)
	case "net.core.sockmap":
		k.sockmapOn.Store(on)
	case "net.core.bpf_jit_enable":
		k.jitEnabled.Store(on)
	case "net.core.bpf_jit_specialize":
		k.specEnabled.Store(on)
	case "net.core.gro_flush_timeout":
		// Nanoseconds of virtual time; unparseable writes fall back to 0
		// (flush every poll), the kernel default.
		ns, err := strconv.ParseInt(value, 10, 64)
		if err != nil || ns < 0 {
			ns = 0
		}
		k.groFlushTO.Store(ns)
	case "net.core.rps_sock_flow_entries":
		// RFS table size; rounded up to a power of two like the kernel's
		// rps_sock_flow_sysctl. 0 (the default) disables RFS: RPS then
		// spreads purely by flow hash. If steering is already enabled the
		// tables are rebuilt live (the kernel reallocates them the same way).
		n, err := strconv.ParseUint(value, 10, 32)
		if err != nil {
			n = 0
		}
		k.rfsEntries.Store(uint32(n))
		k.resizeRFSTables(uint32(n))
	}
	k.cfgGen.Add(1)
	k.Bus.Publish(netlink.Message{Type: netlink.SysctlChange, Payload: netlink.SysctlMsg{Key: key, Value: value}})
}

// Sysctl reads a sysctl key.
func (k *Kernel) Sysctl(key string) string {
	k.mu.RLock()
	defer k.mu.RUnlock()
	return k.sysctl[key]
}

// BPFJITEnabled reports whether net.core.bpf_jit_enable is on: loaded eBPF
// programs then execute their fused (JIT-compiled) bodies instead of the
// interpreted per-op walk. On by default, like modern kernels; turning it
// off exists for A/B measurement, exactly like the real knob.
func (k *Kernel) BPFJITEnabled() bool { return k.jitEnabled.Load() }

// BPFSpecEnabled reports whether net.core.bpf_jit_specialize is on: loaded
// programs then execute their config-specialized bodies (built at Load time
// against the live configuration) instead of the generic fused form. Only
// meaningful when the JIT is also enabled — the interpreted path never
// specializes. On by default; the off position exists for A/B measurement of
// the specialization win in isolation.
func (k *Kernel) BPFSpecEnabled() bool { return k.specEnabled.Load() }

// IPForwarding reports whether net.ipv4.ip_forward is enabled.
func (k *Kernel) IPForwarding() bool {
	if k.fwdEnabled.Load() {
		return true
	}
	// Non-"1" truthy values (e.g. "2") still count, as in Linux.
	v, err := strconv.Atoi(k.Sysctl("net.ipv4.ip_forward"))
	return err == nil && v != 0
}

// --- netfilter config wrappers (what iptables/ipset binaries call) ----------

// IptAppend appends a rule and notifies observers (iptables -A).
func (k *Kernel) IptAppend(chain string, r netfilter.Rule) error {
	if err := k.NF.Append(chain, r); err != nil {
		return err
	}
	k.Bus.Publish(netlink.Message{Type: netlink.NewRule, Payload: netlink.RuleMsg{
		Chain: chain, UsesSet: r.Match.SrcSet != "" || r.Match.DstSet != "", Rules: k.NF.RuleCount(chain),
	}})
	return nil
}

// IptInsert inserts a rule at 1-based position pos (iptables -I).
func (k *Kernel) IptInsert(chain string, pos int, r netfilter.Rule) error {
	if err := k.NF.Insert(chain, pos, r); err != nil {
		return err
	}
	k.Bus.Publish(netlink.Message{Type: netlink.NewRule, Payload: netlink.RuleMsg{
		Chain: chain, Position: pos,
		UsesSet: r.Match.SrcSet != "" || r.Match.DstSet != "", Rules: k.NF.RuleCount(chain),
	}})
	return nil
}

// IptDelete removes rule pos from chain (iptables -D).
func (k *Kernel) IptDelete(chain string, pos int) error {
	if err := k.NF.Delete(chain, pos); err != nil {
		return err
	}
	k.Bus.Publish(netlink.Message{Type: netlink.DelRule, Payload: netlink.RuleMsg{
		Chain: chain, Position: pos, Rules: k.NF.RuleCount(chain),
	}})
	return nil
}

// IptFlush clears a chain (iptables -F).
func (k *Kernel) IptFlush(chain string) error {
	if err := k.NF.Flush(chain); err != nil {
		return err
	}
	k.Bus.Publish(netlink.Message{Type: netlink.DelRule, Payload: netlink.RuleMsg{Chain: chain, Rules: 0}})
	return nil
}

// IpsetCreate registers a set (ipset create).
func (k *Kernel) IpsetCreate(name, typ string) (*netfilter.IPSet, error) {
	s, err := k.NF.CreateSet(name, typ)
	if err != nil {
		return nil, err
	}
	k.Bus.Publish(netlink.Message{Type: netlink.NewSet, Payload: netlink.SetMsg{Name: name, Type: typ}})
	return s, nil
}

// IpsetAdd adds a member to a set (ipset add).
func (k *Kernel) IpsetAdd(name string, p packet.Prefix) error {
	s, ok := k.NF.Set(name)
	if !ok {
		return fmt.Errorf("kernel: no ipset %q", name)
	}
	if err := s.Add(p); err != nil {
		return err
	}
	k.Bus.Publish(netlink.Message{Type: netlink.NewSet, Payload: netlink.SetMsg{Name: name, Type: s.Type, Members: s.Len()}})
	return nil
}

// --- TC hooks ----------------------------------------------------------------

// AttachTC installs a TC classifier program on a device's ingress or egress.
// The attachment table is copy-on-write: per-packet reads are one atomic
// load, and replacement never disturbs in-flight packets.
func (k *Kernel) AttachTC(ifindex int, ingress bool, h TCHandler) {
	k.mu.Lock()
	old := k.tc.Load()
	nt := &tcTables{
		ingress: make(map[int]TCHandler, len(old.ingress)+1),
		egress:  make(map[int]TCHandler, len(old.egress)+1),
	}
	for i, v := range old.ingress {
		nt.ingress[i] = v
	}
	for i, v := range old.egress {
		nt.egress[i] = v
	}
	m := nt.egress
	if ingress {
		m = nt.ingress
	}
	if h == nil {
		delete(m, ifindex)
	} else {
		m[ifindex] = h
	}
	k.tc.Store(nt)
	k.cfgGen.Add(1)
	k.mu.Unlock()
}

// TCAttached reports whether a TC program is installed.
func (k *Kernel) TCAttached(ifindex int, ingress bool) bool {
	t := k.tc.Load()
	if ingress {
		_, ok := t.ingress[ifindex]
		return ok
	}
	_, ok := t.egress[ifindex]
	return ok
}

// --- netlink dump handlers -----------------------------------------------------

func (k *Kernel) linkMsg(d *netdev.Device) netlink.LinkMsg {
	m := netlink.LinkMsg{
		Index: d.Index, Name: d.Name, Kind: d.Type.String(),
		MAC: d.MAC, MTU: d.MTU, Up: d.IsUp(), Master: d.Master(),
	}
	if br, ok := k.Bridge(d.Index); ok {
		m.BridgeA = &netlink.BridgeAttrs{STPEnabled: br.STPEnabled(), VLANFiltering: br.VLANFiltering()}
	}
	return m
}

func (k *Kernel) publishLink(d *netdev.Device) {
	k.Bus.Publish(netlink.Message{Type: netlink.NewLink, Payload: k.linkMsg(d)})
}

func (k *Kernel) registerDumpers() {
	k.Bus.RegisterDumper(netlink.GroupLink, func() []netlink.Message {
		var out []netlink.Message
		for _, d := range k.Devices() {
			out = append(out, netlink.Message{Type: netlink.NewLink, Payload: k.linkMsg(d)})
		}
		return out
	})
	k.Bus.RegisterDumper(netlink.GroupAddr, func() []netlink.Message {
		var out []netlink.Message
		for _, d := range k.Devices() {
			for _, a := range d.Addrs() {
				out = append(out, netlink.Message{Type: netlink.NewAddr, Payload: netlink.AddrMsg{Index: d.Index, Prefix: a}})
			}
		}
		return out
	})
	k.Bus.RegisterDumper(netlink.GroupRoute, func() []netlink.Message {
		var out []netlink.Message
		for _, r := range k.FIB.Main().Routes() {
			out = append(out, netlink.Message{Type: netlink.NewRoute, Payload: netlink.RouteMsg{
				Table: fib.TableMain, Prefix: r.Prefix, Gateway: r.Gateway, OutIf: r.OutIf, Metric: r.Metric,
			}})
		}
		return out
	})
	k.Bus.RegisterDumper(netlink.GroupNeigh, func() []netlink.Message {
		var out []netlink.Message
		for _, e := range k.Neigh.Entries(k.Now()) {
			out = append(out, netlink.Message{Type: netlink.NewNeigh, Payload: netlink.NeighMsg{
				Index: e.IfIndex, IP: e.IP, MAC: e.MAC, State: e.State.String(),
			}})
		}
		return out
	})
	k.Bus.RegisterDumper(netlink.GroupNetfilter, func() []netlink.Message {
		var out []netlink.Message
		for _, name := range k.NF.Chains() {
			c, _ := k.NF.Chain(name)
			usesSet := false
			for _, r := range c.Rules {
				if r.Match.SrcSet != "" || r.Match.DstSet != "" {
					usesSet = true
				}
			}
			out = append(out, netlink.Message{Type: netlink.NewRule, Payload: netlink.RuleMsg{
				Chain: name, UsesSet: usesSet, Rules: len(c.Rules),
			}})
		}
		for _, name := range k.NF.Sets() {
			s, _ := k.NF.Set(name)
			out = append(out, netlink.Message{Type: netlink.NewSet, Payload: netlink.SetMsg{
				Name: name, Type: s.Type, Members: s.Len(),
			}})
		}
		services := k.IPVSServices()
		for _, svc := range services {
			out = append(out, netlink.Message{Type: netlink.NewIPVS, Payload: netlink.IPVSMsg{
				VIP: svc.Key.VIP, Port: svc.Key.Port, Proto: svc.Key.Proto,
				Backends: len(svc.Backends), Services: len(services),
			}})
		}
		return out
	})
	k.Bus.RegisterDumper(netlink.GroupSysctl, func() []netlink.Message {
		k.mu.RLock()
		defer k.mu.RUnlock()
		keys := make([]string, 0, len(k.sysctl))
		for key := range k.sysctl {
			keys = append(keys, key)
		}
		sort.Strings(keys)
		out := make([]netlink.Message, 0, len(keys))
		for _, key := range keys {
			out = append(out, netlink.Message{Type: netlink.SysctlChange, Payload: netlink.SysctlMsg{Key: key, Value: k.sysctl[key]}})
		}
		return out
	})
}
