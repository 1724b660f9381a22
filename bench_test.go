// Benchmarks regenerating the paper's evaluation. Two kinds live here:
//
//   - BenchmarkReal*: honest Go benchmarks of the packet pipelines — b.N
//     packets through each platform's data path, wall-clock ns/op and
//     allocations. At steady state the big orderings hold even in raw Go
//     time (Linux slowest, the LinuxFP fast path ≈2× faster, VPP fastest)
//     because the fast path genuinely executes less code; fine-grained
//     ratios (e.g. LinuxFP vs Polycube) reflect this model's Go
//     implementation, not the paper's hardware. The `modelcycles/op`
//     metric — the calibrated cost model attached to the same executed
//     work — is the paper-comparable quantity; see EXPERIMENTS.md.
//
//   - Benchmark{FigN,TableN}*: one per table and figure of §VI. Each runs
//     its experiment once (cached across harness reruns) and reports the
//     paper's quantities as custom benchmark metrics.
//
// Run everything:  go test -bench=. -benchmem
package linuxfp

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"linuxfp/internal/k8s"
	"linuxfp/internal/netdev"
	"linuxfp/internal/packet"
	"linuxfp/internal/sim"
	"linuxfp/internal/testbed"
	"linuxfp/internal/traffic"
)

// mkDUT builds a testbed DUT and fails the benchmark on error.
func mkDUT(b *testing.B, platform string, sc testbed.Scenario) *testbed.DUT {
	b.Helper()
	d, err := testbed.Build(platform, sc)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(d.Close)
	return d
}

// benchPlatformForward measures real ns/op for one platform's forwarding
// path, DUT work only (sink unplugged).
func benchPlatformForward(b *testing.B, platform string, sc testbed.Scenario) {
	d := mkDUT(b, platform, sc)
	gen := traffic.Pktgen{
		SrcMAC: d.SrcDev.MAC, DstMAC: d.In.MAC,
		SrcIP:    mustAddr("10.1.0.1"),
		Prefixes: benchPrefixes(),
		Size:     traffic.MinFrameSize,
	}
	// Pre-build templates; each iteration gets a fresh copy because the
	// pipeline rewrites headers in place.
	templates := make([][]byte, 64)
	for i := range templates {
		templates[i] = gen.Frame(i)
	}
	netdev.Disconnect(d.In)
	netdev.Disconnect(d.Out)
	// One scratch buffer sized to the actual template (not MinFrameSize):
	// the pipeline rewrites headers in place, so each iteration restores the
	// template into the same storage — zero harness allocations per op.
	buf := make([]byte, len(templates[0]))
	var m sim.Meter
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(buf, templates[i%len(templates)])
		d.In.Receive(buf, &m)
	}
	b.StopTimer()
	b.ReportMetric(float64(m.Total)/float64(b.N), "modelcycles/op")
}

func BenchmarkRealLinuxSlowPath(b *testing.B) {
	benchPlatformForward(b, testbed.PlatformLinux, testbed.Scenario{})
}

// benchLinuxFPBatch drives the LinuxFP fast path through the NAPI batch
// entry point: b.N counts frames, delivered in ReceiveBatch bursts of
// batchSize. Each burst restores the frame templates into fixed backing
// storage, so the steady state allocates nothing.
func benchLinuxFPBatch(b *testing.B, batchSize int, jit bool) {
	d := mkDUT(b, testbed.PlatformLinuxFP, testbed.Scenario{})
	if !jit {
		d.Kern.SetSysctl("net.core.bpf_jit_enable", "0")
	}
	gen := traffic.Pktgen{
		SrcMAC: d.SrcDev.MAC, DstMAC: d.In.MAC,
		SrcIP:    mustAddr("10.1.0.1"),
		Prefixes: benchPrefixes(),
		Size:     traffic.MinFrameSize,
	}
	templates := make([][]byte, 64)
	for i := range templates {
		templates[i] = gen.Frame(i)
	}
	netdev.Disconnect(d.In)
	netdev.Disconnect(d.Out)
	bufs := make([][]byte, batchSize)
	for i := range bufs {
		bufs[i] = make([]byte, len(templates[0]))
	}
	batch := make([][]byte, batchSize)
	fill := func(base, n int) {
		for i := 0; i < n; i++ {
			copy(bufs[i], templates[(base+i)%len(templates)])
			batch[i] = bufs[i]
		}
	}
	var m sim.Meter
	fill(0, batchSize)
	d.In.ReceiveBatch(batch[:batchSize], 0, &m) // warm: devmap + scratch pools
	m.Reset()
	b.ReportAllocs()
	b.ResetTimer()
	for done := 0; done < b.N; {
		n := batchSize
		if rem := b.N - done; rem < n {
			n = rem
		}
		fill(done, n)
		d.In.ReceiveBatch(batch[:n], 0, &m)
		done += n
	}
	b.StopTimer()
	b.ReportMetric(float64(m.Total)/float64(b.N), "modelcycles/op")
}

// BenchmarkRealLinuxFPFastPath is the headline fast-path number: fused
// (JIT) programs run over full NAPI batches with bulk redirect flushing —
// the configuration the datapath actually uses.
func BenchmarkRealLinuxFPFastPath(b *testing.B) {
	benchLinuxFPBatch(b, netdev.NAPIBudget, true)
}

// BenchmarkRealLinuxFPFastPathPerPacket is the pre-batching entry point —
// one Receive per frame — kept for the batched-vs-per-packet A/B.
func BenchmarkRealLinuxFPFastPathPerPacket(b *testing.B) {
	benchPlatformForward(b, testbed.PlatformLinuxFP, testbed.Scenario{})
}

// BenchmarkRealLinuxFPFastPathInterpreted disables the fusion stage
// (net.core.bpf_jit_enable=0) but keeps batching — the JIT-vs-interpreted
// A/B at equal batch size.
func BenchmarkRealLinuxFPFastPathInterpreted(b *testing.B) {
	benchLinuxFPBatch(b, netdev.NAPIBudget, false)
}

func BenchmarkRealLinuxFPFastPathBatchSweep(b *testing.B) {
	for _, n := range []int{1, 8, 16, 32, 64} {
		b.Run(fmt.Sprintf("batch=%d", n), func(b *testing.B) {
			benchLinuxFPBatch(b, n, true)
		})
	}
}

// BenchmarkRealLinuxFPFastPathParallel scales the batched fast path across
// RSS queues: one goroutine per RX queue, each running its own NAPI poll
// loop with a private meter on its own virtual CPU. b.N frames are split
// across the queues; aggregate_Mpps is total frames over the busiest
// queue's cycles, as in BenchmarkRealForwardParallel.
func BenchmarkRealLinuxFPFastPathParallel(b *testing.B) {
	for _, queues := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("queues=%d", queues), func(b *testing.B) {
			d := mkDUT(b, testbed.PlatformLinuxFP, testbed.Scenario{})
			d.In.SetRxQueues(queues)
			gen := traffic.Pktgen{
				SrcMAC: d.SrcDev.MAC, DstMAC: d.In.MAC,
				SrcIP:    mustAddr("10.1.0.1"),
				Prefixes: benchPrefixes(),
				Size:     traffic.MinFrameSize,
			}
			templates := gen.Burst(256)
			netdev.Disconnect(d.In)
			netdev.Disconnect(d.Out)

			queueCycles := make([]sim.Cycles, queues)
			per := b.N / queues
			b.ReportAllocs()
			b.ResetTimer()
			var wg sync.WaitGroup
			for q := 0; q < queues; q++ {
				count := per
				if q == 0 {
					count += b.N % queues
				}
				wg.Add(1)
				go func(q, count int) {
					defer wg.Done()
					m := sim.Meter{CPU: q}
					bufs := make([][]byte, netdev.NAPIBudget)
					for i := range bufs {
						bufs[i] = make([]byte, len(templates[0]))
					}
					batch := make([][]byte, netdev.NAPIBudget)
					for done := 0; done < count; {
						n := netdev.NAPIBudget
						if rem := count - done; rem < n {
							n = rem
						}
						for i := 0; i < n; i++ {
							copy(bufs[i], templates[(done+i)%len(templates)])
							batch[i] = bufs[i]
						}
						d.In.ReceiveBatch(batch[:n], q, &m)
						done += n
					}
					queueCycles[q] = m.Total
				}(q, count)
			}
			wg.Wait()
			b.StopTimer()

			var busiest sim.Cycles
			for _, c := range queueCycles {
				if c > busiest {
					busiest = c
				}
			}
			if busiest > 0 {
				b.ReportMetric(float64(b.N)*sim.ClockHz/float64(busiest)/1e6, "aggregate_Mpps")
			}
		})
	}
}

// benchLinuxGRO drives a same-flow in-order TCP train through the stock
// Linux slow path in NAPI bursts with GRO on or off — the real-execution
// A/B behind the modelcycle numbers in BENCH_gro.json. Templates carry
// advancing seq/IP-ID so every burst is one mergeable train.
func benchLinuxGRO(b *testing.B, gro bool, batchSize, payloadLen int) {
	d := mkDUT(b, testbed.PlatformLinux, testbed.Scenario{})
	d.In.SetGRO(gro)
	src, dst := mustAddr("10.1.0.1"), packet.AddrFrom4(10, 100+3, 0, 9)
	payload := make([]byte, payloadLen)
	templates := make([][]byte, batchSize)
	for i := range templates {
		tcp := packet.TCP{SrcPort: 4000, DstPort: 80, Seq: uint32(i) * uint32(len(payload)),
			Ack: 1, Flags: packet.TCPAck, Window: 512}
		templates[i] = packet.BuildIPv4(
			packet.Ethernet{Dst: d.In.MAC, Src: d.SrcDev.MAC, EtherType: packet.EtherTypeIPv4},
			packet.IPv4{TTL: 64, ID: uint16(i), Flags: packet.IPv4DontFragment,
				Proto: packet.ProtoTCP, Src: src, Dst: dst},
			tcp.Marshal(nil, src, dst, payload))
	}
	netdev.Disconnect(d.In)
	netdev.Disconnect(d.Out)
	bufs := make([][]byte, batchSize)
	for i := range bufs {
		bufs[i] = make([]byte, len(templates[i]))
	}
	batch := make([][]byte, batchSize)
	fill := func(n int) {
		for i := 0; i < n; i++ {
			copy(bufs[i], templates[i])
			batch[i] = bufs[i]
		}
	}
	var m sim.Meter
	fill(batchSize)
	d.In.ReceiveBatch(batch[:batchSize], 0, &m) // warm: neighbor + scratch pools
	m.Reset()
	b.ReportAllocs()
	b.ResetTimer()
	for done := 0; done < b.N; {
		n := batchSize
		if rem := b.N - done; rem < n {
			n = rem
		}
		fill(n)
		d.In.ReceiveBatch(batch[:n], 0, &m)
		done += n
	}
	b.StopTimer()
	b.ReportMetric(float64(m.Total)/float64(b.N), "modelcycles/op")
}

// BenchmarkRealLinuxGROSameFlow is the slow-path GRO headline: 32-frame
// NAPI bursts of one TCP flow, coalesced to two supersegments per burst
// before IP input. Compare against BenchmarkRealLinuxGROOffSameFlow for
// the per-frame stack-walk savings.
func BenchmarkRealLinuxGROSameFlow(b *testing.B)    { benchLinuxGRO(b, true, 32, 128) }
func BenchmarkRealLinuxGROOffSameFlow(b *testing.B) { benchLinuxGRO(b, false, 32, 128) }

// BenchmarkRealLinuxGROBulk1448 is the same train at one MSS per segment,
// where summing, copying and allocating bytes dominate the stack walk GRO
// saves: the host-time side of the GRO inversion, which the 128 B pair hides.
func BenchmarkRealLinuxGROBulk1448(b *testing.B)    { benchLinuxGRO(b, true, 32, 1448) }
func BenchmarkRealLinuxGROOffBulk1448(b *testing.B) { benchLinuxGRO(b, false, 32, 1448) }

func BenchmarkRealPolycube(b *testing.B) {
	benchPlatformForward(b, testbed.PlatformPolycube, testbed.Scenario{})
}

func BenchmarkRealVPP(b *testing.B) {
	benchPlatformForward(b, testbed.PlatformVPP, testbed.Scenario{})
}

func BenchmarkRealLinuxFPGateway(b *testing.B) {
	benchPlatformForward(b, testbed.PlatformLinuxFP, testbed.Scenario{Gateway: true, Rules: 100})
}

// BenchmarkRealLinuxFlowCache measures the slow-path kernel with the
// per-CPU flow fast-cache enabled and a repeating flow: after the first
// packet installs the entry, every iteration is a cache hit — the number to
// compare against BenchmarkRealLinuxSlowPath's full lookup walk.
func BenchmarkRealLinuxFlowCache(b *testing.B) {
	d := mkDUT(b, testbed.PlatformLinux, testbed.Scenario{})
	d.Kern.SetSysctl("net.core.flow_cache", "1")
	gen := traffic.Pktgen{
		SrcMAC: d.SrcDev.MAC, DstMAC: d.In.MAC,
		SrcIP:    mustAddr("10.1.0.1"),
		Prefixes: benchPrefixes(),
		Size:     traffic.MinFrameSize,
	}
	template := gen.Frame(0) // one flow, so every packet after the first hits
	netdev.Disconnect(d.In)
	netdev.Disconnect(d.Out)
	buf := make([]byte, len(template))
	var m sim.Meter
	copy(buf, template)
	d.In.Receive(buf, &m) // warm: install the entry
	m.Reset()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(buf, template)
		d.In.Receive(buf, &m)
	}
	b.StopTimer()
	b.ReportMetric(float64(m.Total)/float64(b.N), "modelcycles/op")
	hits, misses := d.Kern.Stats().FlowHits, d.Kern.Stats().FlowMisses
	b.ReportMetric(float64(hits)/float64(hits+misses), "hit_ratio")
}

// BenchmarkRealForwardParallel drives the plain-Linux DUT from concurrent
// goroutines (b.RunParallel with SetParallelism), each metering on its own
// virtual CPU, with the device configured for N RSS queues. Every packet's
// cycles are attributed to the queue the Toeplitz hash steers it to — the
// NIC's job — and the aggregate_Mpps metric is total packets over the
// busiest queue's cycles: with one core per queue, the burst is done when
// the slowest core goes idle. Compare shards=4 against shards=1 for the
// scaling factor; the gap from 4.0× is real RSS hash imbalance.
func BenchmarkRealForwardParallel(b *testing.B) {
	for _, shards := range []int{1, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			d := mkDUT(b, testbed.PlatformLinux, testbed.Scenario{})
			d.In.SetRxQueues(shards)
			gen := traffic.Pktgen{
				SrcMAC: d.SrcDev.MAC, DstMAC: d.In.MAC,
				SrcIP:    mustAddr("10.1.0.1"),
				Prefixes: benchPrefixes(),
				Size:     traffic.MinFrameSize,
			}
			templates := gen.Burst(1024)
			netdev.Disconnect(d.In)
			netdev.Disconnect(d.Out)

			var nextCPU atomic.Int64
			var mu sync.Mutex
			queueCycles := make([]sim.Cycles, shards)
			var total int64

			b.SetParallelism(shards) // goroutines = shards × GOMAXPROCS
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				m := sim.Meter{CPU: int(nextCPU.Add(1) - 1)}
				local := make([]sim.Cycles, shards)
				buf := make([]byte, len(templates[0]))
				var i, n int64
				for pb.Next() {
					copy(buf, templates[i%int64(len(templates))])
					q := d.In.QueueFor(buf) // steer before headers are rewritten
					before := m.Total
					d.In.Receive(buf, &m)
					local[q] += m.Total - before
					i++
					n++
				}
				mu.Lock()
				for q, c := range local {
					queueCycles[q] += c
				}
				total += n
				mu.Unlock()
			})
			b.StopTimer()

			var busiest sim.Cycles
			for _, c := range queueCycles {
				if c > busiest {
					busiest = c
				}
			}
			if busiest > 0 {
				b.ReportMetric(float64(total)*sim.ClockHz/float64(busiest)/1e6, "aggregate_Mpps")
			}
		})
	}
}

// --- one bench per figure/table -------------------------------------------------

// cached runs fn once per process and returns its cached result, so the
// benchmark harness's b.N growth does not re-run whole experiments.
var benchCache sync.Map

func cached[T any](b *testing.B, key string, fn func() (T, error)) T {
	b.Helper()
	if v, ok := benchCache.Load(key); ok {
		return v.(T)
	}
	v, err := fn()
	if err != nil {
		b.Fatal(err)
	}
	benchCache.Store(key, v)
	return v
}

func spin(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = i
	}
}

func BenchmarkFig1FlameGraph(b *testing.B) {
	type result struct{ stacks int }
	r := cached(b, "fig1", func() (result, error) {
		d, err := testbed.Build(testbed.PlatformLinux, testbed.Scenario{})
		if err != nil {
			return result{}, err
		}
		defer d.Close()
		tr := d.Kern.EnableTracing()
		gen := traffic.Pktgen{SrcMAC: d.SrcDev.MAC, DstMAC: d.In.MAC,
			SrcIP: mustAddr("10.1.0.1"), Prefixes: benchPrefixes(), Size: 64}
		for i := 0; i < 500; i++ {
			var m sim.Meter
			d.In.Receive(gen.Frame(i), &m)
		}
		d.Kern.DisableTracing()
		return result{stacks: len(tr.Report())}, nil
	})
	b.ReportMetric(float64(r.stacks), "distinct_stacks")
	spin(b)
}

func BenchmarkFig5RouterThroughput(b *testing.B) {
	series := cached(b, "fig5", func() ([]testbed.Series, error) {
		return testbed.Fig5RouterThroughput(6)
	})
	for _, s := range series {
		b.ReportMetric(s.Y[0], metricName(s.Platform)+"_Mpps_1core")
	}
	spin(b)
}

func BenchmarkFig6PacketSize(b *testing.B) {
	series := cached(b, "fig6", func() ([]testbed.Series, error) {
		return testbed.Fig6PacketSize([]int{64, 1500})
	})
	for _, s := range series {
		b.ReportMetric(s.Y[len(s.Y)-1], metricName(s.Platform)+"_Gbps_1500B")
	}
	spin(b)
}

func BenchmarkFig7GatewayThroughput(b *testing.B) {
	series := cached(b, "fig7", func() ([]testbed.Series, error) {
		return testbed.Fig7GatewayThroughput(6)
	})
	for _, s := range series {
		b.ReportMetric(s.Y[0], metricName(s.Platform)+"_Mpps_1core")
	}
	spin(b)
}

func BenchmarkFig8RuleScaling(b *testing.B) {
	series := cached(b, "fig8", func() ([]testbed.Series, error) {
		return testbed.Fig8RuleScaling([]int{1, 500})
	})
	for _, s := range series {
		b.ReportMetric(s.Y[len(s.Y)-1], metricName(s.Platform)+"_Mpps_500rules")
	}
	spin(b)
}

func BenchmarkFig9PodThroughput(b *testing.B) {
	type fig9 struct{ intra, inter []k8s.Fig9Point }
	r := cached(b, "fig9", func() (fig9, error) {
		intra, err := k8s.Fig9PodThroughput(10, true)
		if err != nil {
			return fig9{}, err
		}
		inter, err := k8s.Fig9PodThroughput(10, false)
		if err != nil {
			return fig9{}, err
		}
		return fig9{intra, inter}, nil
	})
	last := len(r.intra) - 1
	b.ReportMetric(r.intra[last].LinuxTPS, "Linux_intra_tps_10pairs")
	b.ReportMetric(r.intra[last].LinuxFPTPS, "LinuxFP_intra_tps_10pairs")
	b.ReportMetric(r.inter[last].LinuxTPS, "Linux_inter_tps_10pairs")
	b.ReportMetric(r.inter[last].LinuxFPTPS, "LinuxFP_inter_tps_10pairs")
	spin(b)
}

func BenchmarkFig10CallChaining(b *testing.B) {
	rows := cached(b, "fig10", func() ([]testbed.Fig10Row, error) {
		return testbed.Fig10CallChaining(16)
	})
	last := rows[len(rows)-1]
	b.ReportMetric(last.FuncCallMpps, "funccall_Mpps_16nfs")
	b.ReportMetric(last.TailCallMpps, "tailcall_Mpps_16nfs")
	spin(b)
}

func BenchmarkTable3RouterLatency(b *testing.B) {
	rows := cached(b, "table3", func() ([]testbed.LatencyRow, error) {
		return testbed.Table3RouterLatency()
	})
	for _, r := range rows {
		b.ReportMetric(r.Avg, metricName(r.Platform)+"_avg_us")
		b.ReportMetric(r.P99, metricName(r.Platform)+"_p99_us")
	}
	spin(b)
}

func BenchmarkTable4GatewayLatency(b *testing.B) {
	rows := cached(b, "table4", func() ([]testbed.LatencyRow, error) {
		return testbed.Table4GatewayLatency()
	})
	for _, r := range rows {
		b.ReportMetric(r.Avg, metricName(r.Platform)+"_avg_us")
	}
	spin(b)
}

func BenchmarkTable5PodLatency(b *testing.B) {
	rows := cached(b, "table5", func() ([]k8s.Table5Row, error) {
		return k8s.Table5PodLatency()
	})
	for _, r := range rows {
		b.ReportMetric(r.AvgMs, metricName(r.Config)+"_avg_ms")
	}
	spin(b)
}

func BenchmarkTable6ReactionTime(b *testing.B) {
	rows := cached(b, "table6", func() ([]testbed.Table6Row, error) {
		return testbed.Table6ReactionTime()
	})
	for i, r := range rows {
		b.ReportMetric(r.Seconds, fmt.Sprintf("cmd%d_seconds", i+1))
	}
	spin(b)
}

func BenchmarkTable7HookComparison(b *testing.B) {
	rows := cached(b, "table7", func() ([]testbed.Table7Row, error) {
		return testbed.Table7HookComparison()
	})
	for _, r := range rows {
		b.ReportMetric(r.XDPpps/1e6, r.Function+"_xdp_Mpps")
		b.ReportMetric(r.TCpps/1e6, r.Function+"_tc_Mpps")
	}
	spin(b)
}

// --- helpers --------------------------------------------------------------------

func mustAddr(s string) packet.Addr { return packet.MustAddr(s) }

func benchPrefixes() []packet.Prefix {
	out := make([]packet.Prefix, testbed.RoutedPrefixes)
	for i := range out {
		out[i] = packet.Prefix{Addr: packet.AddrFrom4(10, 100+byte(i), 0, 0), Bits: 16}
	}
	return out
}

func metricName(platform string) string {
	out := make([]byte, 0, len(platform))
	for i := 0; i < len(platform); i++ {
		switch c := platform[i]; {
		case c == ' ' || c == '(' || c == ')':
			// drop
		default:
			out = append(out, c)
		}
	}
	return string(out)
}
