package main

import (
	"fmt"
	"math/rand"
	"time"

	"linuxfp"
	"linuxfp/internal/core"
	"linuxfp/internal/drop"
	"linuxfp/internal/k8s"
	"linuxfp/internal/kernel"
	"linuxfp/internal/netdev"
	"linuxfp/internal/packet"
	"linuxfp/internal/sim"
	"linuxfp/internal/testbed"
)

// A workload is one built topology plus the seeded inputs that drive it. The
// DUT sees only generated frames and command lines: never the seed, never the
// workload name.
type workload interface {
	// shape reports how a round is cut: segments per round, ops per segment.
	shape() (segsPerRound, opsPerSeg int)
	// runSeg drives one segment through the DUT from the calling goroutine
	// (closed loop). It returns the host time spent on the segment's ops and,
	// when config commands were interleaved with them, the reconcile time per
	// command in µs (trimmed mean), else 0.
	runSeg(seg int) (ops time.Duration, reconcileUs float64)
	// genSeg is runSeg with the DUT call stubbed out: the generator's share.
	genSeg(seg int) time.Duration
	// takeCycles returns the sum of sim.Meter.Total over every DUT-side
	// meter since the last call and zeroes the meters, so that every round
	// accumulates from zero and equal work sums to bit-equal totals.
	takeCycles() sim.Cycles
	// observed snapshots the outcome counters expectedPerSeg predicts.
	observed() counts
	expectedPerSeg() counts
	// ledgers returns one line per conservation ledger that does not balance.
	ledgers() []string
	// engaged reports whether the fast path the workload predicts is attached.
	engaged() error
	// capture switches egress capture on or off and returns what was captured
	// since the last call, one canonical (device, bytes) string per frame.
	capture(on bool) []string
	// oracleOps runs ops [from, from+n) of the corpus, for the twin comparison.
	oracleOps(from, n int)
	config() *cfgPlane
	controllers() []*core.Controller
	// kernels lists every DUT-side kernel (traffic sources and sinks that are
	// plain hooks are not kernels).
	kernels() []*kernel.Kernel
	close()
}

// counts are named outcome counters; expectations and observations use the
// same keys.
type counts map[string]int64

func (c counts) sub(o counts) counts {
	out := counts{}
	for k, v := range c {
		out[k] = v - o[k]
	}
	return out
}

// workloadSpec names one workload and how to build it. accelerated=false
// builds the un-accelerated twin the oracle and the slow-path replay use.
// tracedRounds is how many rounds the traced run drives at -seconds 10: about
// an eighth of what the untraced run gets through on the reference box.
type workloadSpec struct {
	name         string
	build        func(seed int64, accelerated bool) (workload, error)
	tracedRounds int
}

var workloads = []workloadSpec{
	{"router64", buildRouter64, 16},
	{"gateway_punt64", buildGatewayPunt64, 12},
	{"bulk_gro1448", buildBulkGRO, 10},
	{"pod_rr", buildPodRR, 8},
	{"churn", buildChurn, 20},
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

const (
	burstSize   = netdev.NAPIBudget // frames per ReceiveBatch call
	segFrames   = 16384             // frames per timed segment
	segTx       = 1024              // pod_rr transactions per timed segment
	churnStep   = 256               // frames after each churn command
	routedCount = testbed.RoutedPrefixes
	gwRules     = 100 // blacklist size (Fig. 7 / Table IV)
)

// Traffic classes of the gateway mix.
const (
	classClean uint8 = iota
	classBlack
	classTTL
	classFrag
	classOpts
)

// classGroup names the class as the per-class replays report it: the three
// kinds of punt are one group.
func classGroup(c uint8) string {
	switch c {
	case classClean:
		return "clean"
	case classBlack:
		return "blacklisted"
	default:
		return "punt"
	}
}

// --- router-shaped workloads ---------------------------------------------------

// routerLoad is a two-port router DUT (ingress eth0, egress eth1) fed NAPI
// bursts from a pre-generated corpus. router64, gateway_punt64,
// bulk_gro1448 and churn are all this shape.
type routerLoad struct {
	kern    *kernel.Kernel
	in, out *netdev.Device
	// MACs of the hosts behind in and out: egress frames must carry them.
	peerIn, peerOut packet.HWAddr
	cfg             *cfgPlane
	wantXDP         bool
	segsPerRound    int
	stop            func()

	meter     sim.Meter
	templates [][]byte
	class     []uint8
	bufs      [][]byte
	batch     [][]byte

	inTx, outTx int64
	txBase      uint64 // device tx counters when the hooks went in (set-up ARP and pings)
	capturing   bool
	captured    []string

	churn *churnScript // non-nil: a command precedes every churnStep frames
	cmdUs []float64    // scratch: reconcile time of each command of a segment
}

func (w *routerLoad) shape() (int, int) { return w.segsPerRound, segFrames }

// hookTx counts (and optionally captures) every frame a device transmits and
// consumes it: nothing crosses a wire.
func (w *routerLoad) hookTx() {
	hook := func(dev *netdev.Device, peer packet.HWAddr, n *int64) func([]byte, *sim.Meter) bool {
		return func(frame []byte, _ *sim.Meter) bool {
			*n++
			if w.capturing {
				w.captured = append(w.captured, canonFrame(dev, peer, frame))
			}
			return true
		}
	}
	w.txBase = w.in.Stats().TxPackets + w.out.Stats().TxPackets
	w.in.SetTxHook(hook(w.in, w.peerIn, &w.inTx))
	w.out.SetTxHook(hook(w.out, w.peerOut, &w.outTx))
}

// canonFrame renders an egress frame so that two worlds with different
// (process-wide allocated) MACs compare equal exactly when the frames are
// equal: device name, whether the MACs are the right ones for that world,
// then every byte after the MACs.
func canonFrame(dev *netdev.Device, peer packet.HWAddr, frame []byte) string {
	if len(frame) < packet.EthHdrLen {
		return dev.Name + "|short|" + string(frame)
	}
	macs := "ok"
	if packet.EthDst(frame) != peer || packet.EthSrc(frame) != dev.MAC {
		macs = fmt.Sprintf("dst=%s src=%s", packet.EthDst(frame), packet.EthSrc(frame))
	}
	return dev.Name + "|" + macs + "|" + string(frame[12:])
}

func (w *routerLoad) setCorpus(templates [][]byte, class []uint8) {
	w.templates, w.class = templates, class
	max := 0
	for _, t := range templates {
		if len(t) > max {
			max = len(t)
		}
	}
	w.bufs = make([][]byte, burstSize)
	for i := range w.bufs {
		w.bufs[i] = make([]byte, max)
	}
	w.batch = make([][]byte, burstSize)
}

// fill restores templates [base, base+n) into the burst buffers: the
// datapath rewrites headers in place, so every burst starts from a copy.
func (w *routerLoad) fill(base, n int) [][]byte {
	for i := 0; i < n; i++ {
		t := w.templates[(base+i)%len(w.templates)]
		w.batch[i] = w.bufs[i][:copy(w.bufs[i], t)]
	}
	return w.batch[:n]
}

func (w *routerLoad) bursts(base, frames int, deliver bool) {
	for off := 0; off < frames; off += burstSize {
		b := w.fill(base+off, burstSize)
		if deliver {
			w.in.ReceiveBatch(b, 0, &w.meter)
		}
	}
}

func (w *routerLoad) runSeg(seg int) (time.Duration, float64) {
	base := seg * segFrames
	if w.churn == nil {
		start := time.Now()
		w.bursts(base, segFrames, true)
		return time.Since(start), 0
	}
	var pkt time.Duration
	w.cmdUs = w.cmdUs[:0]
	for step := 0; step < segFrames/churnStep; step++ {
		for _, c := range w.churn.next() {
			w.cmdUs = append(w.cmdUs, float64(w.cfg.apply(c).Nanoseconds())/1e3)
		}
		start := time.Now()
		w.bursts(base+step*churnStep, churnStep, true)
		pkt += time.Since(start)
	}
	return pkt, trimmedMean(w.cmdUs)
}

func (w *routerLoad) genSeg(seg int) time.Duration {
	start := time.Now()
	w.bursts(seg*segFrames, segFrames, false)
	return time.Since(start)
}

func (w *routerLoad) oracleOps(from, n int) { w.bursts(from, n, true) }

func (w *routerLoad) takeCycles() sim.Cycles {
	c := w.meter.Total
	w.meter.Reset()
	return c
}

func (w *routerLoad) observed() counts {
	ks, in := w.kern.Stats(), w.in.Stats()
	return counts{
		"out_tx":         w.outTx,
		"in_tx":          w.inTx,
		"filter_dropped": int64(ks.FilterDropped + in.XDPDrops),
		"ttl_expired":    int64(ks.TTLExpired),
		"icmp_tx":        int64(ks.ICMPTx),
	}
}

func (w *routerLoad) expectedPerSeg() counts {
	c := counts{"out_tx": 0, "in_tx": 0, "filter_dropped": 0, "ttl_expired": 0, "icmp_tx": 0}
	for _, cl := range w.class {
		switch cl {
		case classBlack:
			c["filter_dropped"]++
		case classTTL:
			// Time-exceeded goes back out the ingress device.
			c["ttl_expired"]++
			c["icmp_tx"]++
			c["in_tx"]++
		default: // clean, first fragments and IP options are all forwarded
			c["out_tx"]++
		}
	}
	reps := int64(segFrames / len(w.class))
	for k := range c {
		c[k] *= reps
	}
	return c
}

func (w *routerLoad) ledgers() []string {
	var bad []string
	in, out := w.in.Stats(), w.out.Stats()
	if attached, _ := w.in.XDPAttached(); attached {
		if got := in.XDPRedirects + in.XDPDrops + in.XDPTx + in.XDPPass + in.RxDropped; got != in.RxPackets {
			bad = append(bad, fmt.Sprintf("eth0: rx %d != redirects+drops+tx+pass+rxdropped %d", in.RxPackets, got))
		}
	}
	if got := in.TxPackets + out.TxPackets - w.txBase; got != uint64(w.inTx+w.outTx) {
		bad = append(bad, fmt.Sprintf("egress: device tx %d != frames seen by the tx hooks %d", got, w.inTx+w.outTx))
	}
	if in.TxDropped+out.TxDropped != 0 {
		bad = append(bad, fmt.Sprintf("egress: %d tx drops", in.TxDropped+out.TxDropped))
	}
	bad = append(bad, dropLedger(w.kern, w.in, w.out)...)
	return bad
}

// dropLedger checks Σ drop.<reason> == total drops at the kernel and at each
// device.
func dropLedger(k *kernel.Kernel, devs ...*netdev.Device) []string {
	var bad []string
	if got, want := drop.Total(k.DropReasons()), k.Stats().Dropped; got != want {
		bad = append(bad, fmt.Sprintf("%s: Σ drop reasons %d != dropped %d", k.Name, got, want))
	}
	for _, d := range devs {
		st := d.Stats()
		if got, want := drop.Total(d.DropReasons()), st.RxDropped+st.TxDropped+st.XDPDrops; got != want {
			bad = append(bad, fmt.Sprintf("%s/%s: Σ drop reasons %d != drops %d", k.Name, d.Name, got, want))
		}
	}
	return bad
}

func (w *routerLoad) engaged() error {
	attached, _ := w.in.XDPAttached()
	if attached != w.wantXDP {
		return fmt.Errorf("eth0: XDP attached=%v, workload needs %v", attached, w.wantXDP)
	}
	return nil
}

func (w *routerLoad) capture(on bool) []string {
	w.capturing = on
	out := w.captured
	w.captured = nil
	return out
}

func (w *routerLoad) config() *cfgPlane { return w.cfg }
func (w *routerLoad) close()            { w.stop() }

func (w *routerLoad) kernels() []*kernel.Kernel { return []*kernel.Kernel{w.kern} }

func (w *routerLoad) controllers() []*core.Controller {
	if w.cfg.ctrl == nil {
		return nil
	}
	return []*core.Controller{w.cfg.ctrl}
}

// fromTestbed wraps a testbed DUT. Its wires stay plugged but carry nothing:
// the tx hooks consume every egress frame.
func fromTestbed(platform string, sc testbed.Scenario, segsPerRound int) (*routerLoad, error) {
	d, err := testbed.Build(platform, sc)
	if err != nil {
		return nil, err
	}
	w := &routerLoad{
		kern: d.Kern, in: d.In, out: d.Out,
		peerIn: d.SrcDev.MAC, peerOut: d.SinkDev.MAC,
		wantXDP: d.Controller != nil, segsPerRound: segsPerRound,
		stop: d.Close,
	}
	w.cfg = newCfgPlane(d.Kern, d.Controller, "via 10.2.0.1")
	w.hookTx()
	return w, nil
}

// --- seeded frame generators ---------------------------------------------------

// flow is one seeded 5-tuple toward a routed prefix.
type flow struct {
	src, dst     packet.Addr
	sport, dport uint16
}

func seededFlow(rng *rand.Rand, i int) flow {
	return flow{
		src:   packet.AddrFrom4(10, 1, 0, byte(2+rng.Intn(249))),
		dst:   packet.AddrFrom4(10, 100+byte(i%routedCount), byte(rng.Intn(256)), byte(1+rng.Intn(254))),
		sport: uint16(1024 + rng.Intn(64512)),
		dport: uint16(1 + rng.Intn(65535)),
	}
}

// udp64 builds one 64-byte UDP frame; mod adjusts the IP header before it is
// marshalled (TTL, fragment bits, options) and the payload shrinks to keep
// the frame at 64 bytes.
func udp64(rng *rand.Rand, eth packet.Ethernet, f flow, mod func(*packet.IPv4)) []byte {
	ip := packet.IPv4{TTL: 64, Proto: packet.ProtoUDP, Src: f.src, Dst: f.dst, ID: uint16(rng.Intn(65536))}
	if mod != nil {
		mod(&ip)
	}
	payload := make([]byte, 64-packet.EthHdrLen-ip.HeaderLen()-packet.UDPHdrLen)
	rng.Read(payload)
	u := packet.UDP{SrcPort: f.sport, DstPort: f.dport}
	return packet.BuildIPv4(eth, ip, u.Marshal(nil, f.src, f.dst, payload))
}

// cleanFrames is the router64 corpus: n flows spread over the 50 routed
// /16s, in seeded order, every one fast-path eligible.
func cleanFrames(rng *rand.Rand, eth packet.Ethernet, n int) ([][]byte, []uint8) {
	frames := make([][]byte, n)
	for i := range frames {
		frames[i] = udp64(rng, eth, seededFlow(rng, i), nil)
	}
	rng.Shuffle(n, func(i, j int) { frames[i], frames[j] = frames[j], frames[i] })
	return frames, make([]uint8, n)
}

// gatewayFrames is one segment of the gateway mix: 80 % clean, 10 % from a
// blacklisted source (rule position uniform), 10 % punts in equal parts
// TTL=1, first fragment and IP options; seeded order.
func gatewayFrames(rng *rand.Rand, eth packet.Ethernet) ([][]byte, []uint8) {
	const n = segFrames
	black, punt := n/10, n/10/3
	class := make([]uint8, n) // zero value: classClean
	at := 0
	for _, c := range []struct {
		class uint8
		n     int
	}{{classBlack, black}, {classTTL, punt}, {classFrag, punt}, {classOpts, punt}} {
		for i := 0; i < c.n; i++ {
			class[at] = c.class
			at++
		}
	}
	rng.Shuffle(n, func(i, j int) { class[i], class[j] = class[j], class[i] })

	frames := make([][]byte, n)
	for i, c := range class {
		f := seededFlow(rng, i)
		var mod func(*packet.IPv4)
		switch c {
		case classBlack:
			rule := rng.Intn(gwRules)
			f.src = packet.AddrFrom4(203, byte(rule/256), byte(rule%256), byte(1+rng.Intn(254)))
		case classTTL:
			// The time-exceeded reply needs a resolved neighbour.
			f.src = packet.MustAddr("10.1.0.1")
			mod = func(ip *packet.IPv4) { ip.TTL = 1 }
		case classFrag:
			mod = func(ip *packet.IPv4) { ip.Flags |= packet.IPv4MoreFrags }
		case classOpts:
			mod = func(ip *packet.IPv4) { ip.Options = []byte{1, 1, 1, 0} }
		}
		frames[i] = udp64(rng, eth, f, mod)
	}
	return frames, class
}

const (
	bulkMSS   = 1448
	bulkFlows = 4
	bulkSegs  = burstSize / bulkFlows
)

// bulkFrames is 64 burst templates of 4 in-order TCP flows × 16 full-MSS
// segments, round-robin as a NIC would deliver them. One burst in 64 carries
// a PSH in mid-train and a swapped (out-of-order) pair to force early GRO
// flushes.
func bulkFrames(rng *rand.Rand, eth packet.Ethernet) ([][]byte, []uint8) {
	const nBursts = 64
	payload := make([]byte, bulkMSS)
	rng.Read(payload)
	odd := rng.Intn(nBursts)
	frames := make([][]byte, 0, nBursts*burstSize)
	for b := 0; b < nBursts; b++ {
		var flows [bulkFlows]flow
		var seq [bulkFlows]uint32
		var id [bulkFlows]uint16
		for f := range flows {
			flows[f] = seededFlow(rng, rng.Intn(routedCount))
			seq[f], id[f] = rng.Uint32(), uint16(rng.Intn(65536))
		}
		pshFlow, pshSeg := rng.Intn(bulkFlows), 1+rng.Intn(bulkSegs-2)
		oooFlow, oooSeg := (pshFlow+1)%bulkFlows, rng.Intn(bulkSegs-1)
		burst := make([][]byte, burstSize)
		for s := 0; s < bulkSegs; s++ {
			for f, fl := range flows {
				flags := packet.TCPAck
				if b == odd && f == pshFlow && s == pshSeg {
					flags |= packet.TCPPsh
				}
				tcp := packet.TCP{SrcPort: fl.sport, DstPort: fl.dport, Seq: seq[f] + uint32(s*bulkMSS),
					Ack: 1, Flags: flags, Window: 512}
				burst[s*bulkFlows+f] = packet.BuildIPv4(eth,
					packet.IPv4{TTL: 64, ID: id[f] + uint16(s), Flags: packet.IPv4DontFragment,
						Proto: packet.ProtoTCP, Src: fl.src, Dst: fl.dst},
					tcp.Marshal(nil, fl.src, fl.dst, payload))
			}
		}
		if b == odd {
			i, j := oooSeg*bulkFlows+oooFlow, (oooSeg+1)*bulkFlows+oooFlow
			burst[i], burst[j] = burst[j], burst[i]
		}
		frames = append(frames, burst...)
	}
	return frames, make([]uint8, len(frames))
}

// --- the five builders ----------------------------------------------------------

func platformFor(accelerated bool) string {
	if accelerated {
		return testbed.PlatformLinuxFP
	}
	return testbed.PlatformLinux
}

func (w *routerLoad) ingressEth() packet.Ethernet {
	return packet.Ethernet{Dst: w.in.MAC, Src: w.peerIn, EtherType: packet.EtherTypeIPv4}
}

func buildRouter64(seed int64, accelerated bool) (workload, error) {
	w, err := fromTestbed(platformFor(accelerated), testbed.Scenario{}, 16)
	if err != nil {
		return nil, err
	}
	w.setCorpus(cleanFrames(rand.New(rand.NewSource(seed)), w.ingressEth(), 4096))
	return w, nil
}

func buildGatewayPunt64(seed int64, accelerated bool) (workload, error) {
	w, err := fromTestbed(platformFor(accelerated), testbed.Scenario{Gateway: true, Rules: gwRules}, 8)
	if err != nil {
		return nil, err
	}
	w.setCorpus(gatewayFrames(rand.New(rand.NewSource(seed)), w.ingressEth()))
	return w, nil
}

// buildBulkGRO is the un-accelerated router with GRO on; its twin is the
// same router with GRO off, whose per-frame output GSO must reproduce.
func buildBulkGRO(seed int64, gro bool) (workload, error) {
	w, err := fromTestbed(testbed.PlatformLinux, testbed.Scenario{}, 2)
	if err != nil {
		return nil, err
	}
	w.in.SetGRO(gro)
	w.setCorpus(bulkFrames(rand.New(rand.NewSource(seed)), w.ingressEth()))
	return w, nil
}

// buildChurn builds the gateway through Linux commands alone and interleaves
// a state-changing command with every 256 clean frames.
func buildChurn(seed int64, accelerated bool) (workload, error) {
	sys := linuxfp.New("dut")
	peerIn, peerOut := packet.MustHWAddr("02:bb:00:00:00:01"), packet.MustHWAddr("02:bb:00:00:00:02")
	cmds := []string{
		"ip link add eth0 type phys", "ip link add eth1 type phys",
		"ip link set eth0 up", "ip link set eth1 up",
		"ip addr add 10.1.0.254/24 dev eth0", "ip addr add 10.2.0.254/24 dev eth1",
		"sysctl -w net.ipv4.ip_forward=1",
		fmt.Sprintf("ip neigh add 10.1.0.1 lladdr %s dev eth0", peerIn),
		fmt.Sprintf("ip neigh add 10.2.0.1 lladdr %s dev eth1", peerOut),
		"ipset create " + churnSet + " hash:net",
	}
	for i := 0; i < routedCount; i++ {
		cmds = append(cmds, fmt.Sprintf("ip route add 10.%d.0.0/16 via 10.2.0.1", 100+i))
	}
	for i := 0; i < gwRules; i++ {
		cmds = append(cmds, fmt.Sprintf("iptables -A FORWARD -s 203.%d.%d.0/24 -j DROP", i/256, i%256))
	}
	for _, c := range cmds {
		if _, err := sys.Exec(c); err != nil {
			return nil, fmt.Errorf("churn set-up %q: %w", c, err)
		}
	}
	var ctrl *core.Controller
	if accelerated {
		ctrl = sys.Accelerate(linuxfp.Options{})
	}
	in, _ := sys.Kernel.DeviceByName("eth0")
	out, _ := sys.Kernel.DeviceByName("eth1")
	w := &routerLoad{
		kern: sys.Kernel, in: in, out: out, peerIn: peerIn, peerOut: peerOut,
		wantXDP: accelerated, stop: sys.Close,
		// An even number of segments: the script's six-command cycle closes
		// every two, so every round meets the same configurations.
		segsPerRound: 4,
	}
	w.cfg = &cfgPlane{exec: sys.Exec, ctrl: ctrl}
	w.hookTx()
	rng := rand.New(rand.NewSource(seed))
	w.setCorpus(cleanFrames(rng, w.ingressEth(), 4096))
	w.churn = newChurnScript(rng, "via 10.2.0.1", gwRules, true)
	return w, nil
}

// --- pod_rr ----------------------------------------------------------------------

const clientPort = 45001

// podLoad is one client pod and one server pod on different nodes of a
// three-node flannel cluster, exchanging closed-loop TCP request/response
// transactions as k8s.RRProbe does.
type podLoad struct {
	cluster        *k8s.Cluster
	client, server *k8s.Pod
	cfg            *cfgPlane
	accelerated    bool

	meter    sim.Meter
	payloads [][]byte

	responses int64 // responses seen by the client socket
	corrupt   int64 // responses whose payload is not the request's
	want      []byte

	capturing bool
	captured  []string
}

func buildPodRR(seed int64, accelerated bool) (workload, error) {
	c, err := k8s.NewCluster(k8s.Config{Nodes: 3, Accelerated: accelerated, KubeProxyRules: k8s.DefaultKubeProxyRules})
	if err != nil {
		return nil, err
	}
	w := &podLoad{cluster: c, accelerated: accelerated}
	if w.client, err = c.AddPod(c.Nodes[1]); err != nil {
		w.close()
		return nil, err
	}
	if w.server, err = c.AddPod(c.Nodes[2]); err != nil {
		w.close()
		return nil, err
	}
	// AddPod publishes several messages about one veth while the controller's
	// daemon goroutine and AddPod's own Sync both consume them; applied out of
	// order they leave the controller's view of the link stale for good
	// (ROADMAP item 1). Restarting the daemons makes them start from a dump of
	// what the kernels hold now.
	for _, c := range w.controllers() {
		c.Stop()
		c.Start()
	}
	w.server.StartNetserver()
	w.client.K.RegisterSocket(packet.ProtoTCP, clientPort, func(_ *kernel.Kernel, msg kernel.SocketMsg) {
		w.responses++
		if string(msg.Payload) != string(w.want) {
			w.corrupt++
		}
	})
	// The pods' taps see every frame a pod receives: the request as the
	// server gets it, the response as the client gets it.
	for _, p := range []*k8s.Pod{w.client, w.server} {
		p := p
		p.Eth0.Tap = func(frame []byte) {
			if w.capturing && len(frame) >= packet.EthHdrLen {
				w.captured = append(w.captured, p.Name+"|"+string(frame[12:]))
			}
		}
	}
	rng := rand.New(rand.NewSource(seed))
	w.payloads = make([][]byte, segTx)
	for i := range w.payloads {
		w.payloads[i] = make([]byte, 1+rng.Intn(64))
		rng.Read(w.payloads[i])
	}
	node := c.Nodes[1]
	w.cfg = newCfgPlane(node.K, node.Controller, "dev eth0")
	return w, nil
}

func (w *podLoad) shape() (int, int) { return 8, segTx }

func (w *podLoad) transact(i int) {
	w.want = w.payloads[i%len(w.payloads)]
	w.client.K.SendTCPSegment(w.client.IP, w.server.IP, clientPort, k8s.NetperfPort,
		packet.TCPPsh|packet.TCPAck, w.want, &w.meter)
}

func (w *podLoad) runSeg(seg int) (time.Duration, float64) {
	start := time.Now()
	for i := 0; i < segTx; i++ {
		w.transact(seg*segTx + i)
	}
	return time.Since(start), 0
}

var sinkPayload []byte

func (w *podLoad) genSeg(seg int) time.Duration {
	start := time.Now()
	for i := 0; i < segTx; i++ {
		sinkPayload = w.payloads[(seg*segTx+i)%len(w.payloads)]
	}
	return time.Since(start)
}

func (w *podLoad) oracleOps(from, n int) {
	for i := from; i < from+n; i++ {
		w.transact(i)
	}
}

func (w *podLoad) takeCycles() sim.Cycles {
	c := w.meter.Total
	w.meter.Reset()
	return c
}

func (w *podLoad) observed() counts {
	return counts{"responses": w.responses, "corrupt_responses": w.corrupt}
}

func (w *podLoad) expectedPerSeg() counts {
	return counts{"responses": segTx, "corrupt_responses": 0}
}

func (w *podLoad) kernels() []*kernel.Kernel {
	ks := []*kernel.Kernel{w.client.K, w.server.K}
	for _, n := range w.cluster.Nodes {
		ks = append(ks, n.K)
	}
	return ks
}

func (w *podLoad) ledgers() []string {
	var bad []string
	for _, k := range w.kernels() {
		bad = append(bad, dropLedger(k, k.Devices()...)...)
		for _, d := range k.Devices() {
			if st := d.Stats(); st.TxDropped != 0 {
				bad = append(bad, fmt.Sprintf("%s/%s: %d tx drops", k.Name, d.Name, st.TxDropped))
			}
		}
	}
	return bad
}

// engaged checks the fast path on the two nodes the transaction crosses: TC
// ingress on the pod-facing veth, XDP on the underlay NIC.
func (w *podLoad) engaged() error {
	for _, p := range []*k8s.Pod{w.client, w.server} {
		n, veth := p.Node, p.Eth0.Peer()
		if got := n.K.TCAttached(veth.Index, true); got != w.accelerated {
			return fmt.Errorf("%s/%s: TC ingress attached=%v, workload needs %v", n.Name, veth.Name, got, w.accelerated)
		}
		if got, _ := n.Eth0.XDPAttached(); got != w.accelerated {
			return fmt.Errorf("%s/eth0: XDP attached=%v, workload needs %v", n.Name, got, w.accelerated)
		}
	}
	return nil
}

func (w *podLoad) controllers() []*core.Controller {
	var cs []*core.Controller
	for _, n := range w.cluster.Nodes {
		if n.Controller != nil {
			cs = append(cs, n.Controller)
		}
	}
	return cs
}

func (w *podLoad) capture(on bool) []string {
	w.capturing = on
	out := w.captured
	w.captured = nil
	return out
}

func (w *podLoad) config() *cfgPlane { return w.cfg }

func (w *podLoad) close() {
	for _, c := range w.controllers() {
		c.Stop()
	}
}
