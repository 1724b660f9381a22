package metrics

import (
	"bufio"
	"bytes"
	"fmt"
	"strings"
	"testing"

	"linuxfp/internal/core"
	"linuxfp/internal/drop"
	"linuxfp/internal/ebpf"
	"linuxfp/internal/flight"
	"linuxfp/internal/fpm"
	"linuxfp/internal/kernel"
	"linuxfp/internal/netdev"
	"linuxfp/internal/packet"
	"linuxfp/internal/sim"
)

// scrapeHost builds a host with every observer attached, drives a small
// mixed workload (deliveries, forwards off, drops), and returns the kernel
// plus the ring its recorder emits into.
func scrapeHost(t *testing.T) (*kernel.Kernel, *ebpf.RingBuf) {
	t.Helper()
	k := kernel.New("scrape")
	d := k.CreateDevice("eth0", netdev.Physical)
	d.SetUp(true)
	if err := k.AddAddr("eth0", packet.MustPrefix("10.0.0.2/24")); err != nil {
		t.Fatal(err)
	}
	k.RegisterSocket(packet.ProtoUDP, 7, func(*kernel.Kernel, kernel.SocketMsg) {})
	k.EnableStageLat()
	rb := ebpf.NewRingBuf("scrape_events", 1<<14)
	k.EnableFlight(flight.Config{SampleShift: 0, Ring: rb})
	k.EnableFlowTelemetry(0)

	src := packet.MustAddr("10.0.0.1")
	dst := packet.MustAddr("10.0.0.2")
	var m sim.Meter
	for i := 0; i < 8; i++ {
		u := packet.UDP{SrcPort: uint16(4000 + i%2), DstPort: 7}
		d.Receive(packet.BuildIPv4(
			packet.Ethernet{Dst: d.MAC, Src: packet.MustHWAddr("02:00:00:00:00:01"), EtherType: packet.EtherTypeIPv4},
			packet.IPv4{TTL: 64, Proto: packet.ProtoUDP, Src: src, Dst: dst},
			u.Marshal(nil, src, dst, make([]byte, 24))), &m)
	}
	for i := 0; i < 3; i++ { // forwarding off: these drop
		u := packet.UDP{SrcPort: 5000, DstPort: 7}
		off := packet.MustAddr("10.99.0.1")
		d.Receive(packet.BuildIPv4(
			packet.Ethernet{Dst: d.MAC, Src: packet.MustHWAddr("02:00:00:00:00:01"), EtherType: packet.EtherTypeIPv4},
			packet.IPv4{TTL: 64, Proto: packet.ProtoUDP, Src: src, Dst: off},
			u.Marshal(nil, src, off, make([]byte, 24))), &m)
	}
	return k, rb
}

// TestDropReasonAudit is the exhaustive drop.Reason audit: every enum member
// has a unique non-empty name, and every one of them — zeros included —
// appears as a reason label in the kernel scrape. A reason that loses its
// name or its series fails here, not in a dashboard.
func TestDropReasonAudit(t *testing.T) {
	seen := map[string]drop.Reason{}
	for _, r := range drop.Reasons() {
		name := r.String()
		if name == "" {
			t.Fatalf("drop reason %d has an empty name", r)
		}
		if strings.ContainsAny(name, " \"\n") {
			t.Fatalf("drop reason %d name %q is not label-safe", r, name)
		}
		if prev, dup := seen[name]; dup {
			t.Fatalf("drop reasons %d and %d share the name %q", prev, r, name)
		}
		seen[name] = r
	}

	k, _ := scrapeHost(t)
	var buf bytes.Buffer
	WriteKernel(&buf, k)
	out := buf.String()
	for name := range seen {
		series := fmt.Sprintf("linuxfp_drop_reason_total{kernel=\"scrape\",reason=%q}", name)
		if !strings.Contains(out, series) {
			t.Errorf("scrape is missing the %s series", series)
		}
	}
}

// TestPromExpositionLint composes every writer into one scrape and lints it
// against the Prometheus text format: exactly one HELP and one TYPE per
// family, TYPE before any sample, all of a family's samples contiguous,
// every sample owned by a declared family (summaries own their _count and
// _sum children), and no duplicate series.
func TestPromExpositionLint(t *testing.T) {
	k, rb := scrapeHost(t)
	loader := ebpf.NewLoader(k)
	if _, err := loader.Load(&ebpf.Program{
		Name: "lint_parse", Hook: ebpf.HookXDP,
		Ops:     []ebpf.Op{fpm.ParseEth(), fpm.ParseIPv4(), fpm.ParseL4()},
		Default: ebpf.VerdictPass,
	}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	WriteKernel(&buf, k)
	WriteRingBuf(&buf, rb)
	WriteXSKMap(&buf, ebpf.NewXSKMap("lint_xsk", 4))
	WritePrograms(&buf, loader)
	WriteReconcile(&buf, core.ReconcileStats{Reconciles: 3, IfDeployed: 2, SynthRejected: 1, LoadFailed: 1})
	for _, series := range []string{
		"linuxfp_reconciles_total 3",
		`linuxfp_reconcile_interfaces_total{outcome="deployed"} 2`,
		`linuxfp_reconcile_interfaces_total{outcome="synth_rejected"} 1`,
		`linuxfp_reconcile_interfaces_total{outcome="load_failed"} 1`,
	} {
		if !strings.Contains(buf.String(), series+"\n") {
			t.Errorf("scrape is missing %s", series)
		}
	}

	helps := map[string]int{}
	types := map[string]string{}
	families := []string{}
	curFamily := ""
	closed := map[string]bool{}
	series := map[string]bool{}

	// owner resolves a sample name to its declared family.
	owner := func(name string) string {
		if _, ok := types[name]; ok {
			return name
		}
		for _, suf := range []string{"_count", "_sum"} {
			base := strings.TrimSuffix(name, suf)
			if base != name && types[base] == "summary" {
				return base
			}
		}
		return ""
	}

	sc := bufio.NewScanner(&buf)
	for ln := 1; sc.Scan(); ln++ {
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			f := strings.Fields(line)[2]
			helps[f]++
			if helps[f] > 1 {
				t.Errorf("line %d: duplicate HELP for family %s", ln, f)
			}
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line)
			f, typ := parts[2], parts[3]
			if _, dup := types[f]; dup {
				t.Errorf("line %d: duplicate TYPE for family %s", ln, f)
			}
			switch typ {
			case "counter", "gauge", "summary", "histogram", "untyped":
			default:
				t.Errorf("line %d: family %s has invalid type %q", ln, f, typ)
			}
			types[f] = typ
			families = append(families, f)
			continue
		}
		if strings.HasPrefix(line, "#") {
			t.Errorf("line %d: unexpected comment %q", ln, line)
			continue
		}
		// Sample line: name{labels} value
		name := line
		if i := strings.IndexAny(line, "{ "); i >= 0 {
			name = line[:i]
		}
		fam := owner(name)
		if fam == "" {
			t.Errorf("line %d: sample %s has no declared family", ln, name)
			continue
		}
		if fam != curFamily {
			if closed[fam] {
				t.Errorf("line %d: family %s samples are not contiguous", ln, fam)
			}
			if curFamily != "" {
				closed[curFamily] = true
			}
			curFamily = fam
		}
		id := line[:strings.LastIndex(line, " ")]
		if series[id] {
			t.Errorf("line %d: duplicate series %s", ln, id)
		}
		series[id] = true
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	for _, f := range families {
		if helps[f] == 0 {
			t.Errorf("family %s has TYPE but no HELP", f)
		}
	}
	for f := range helps {
		if _, ok := types[f]; !ok {
			t.Errorf("family %s has HELP but no TYPE", f)
		}
	}
	// The composed scrape must actually include the new telemetry families.
	for _, f := range []string{
		"linuxfp_trace_chains_total", "linuxfp_trace_spans_total",
		"linuxfp_trace_live_chains", "linuxfp_flow_tracked",
		"linuxfp_flow_packets_total", "linuxfp_flow_fastpath_ratio",
		"linuxfp_stage_latency_cycles", "linuxfp_stage_latency_cycles_mean",
	} {
		if _, ok := types[f]; !ok {
			t.Errorf("composed scrape is missing family %s", f)
		}
	}
}

// TestWriteFlightConservationVisible checks the scrape carries the trace
// ledger in reconcilable form: the sampled series equals the sum of the
// terminal series once quiesced.
func TestWriteFlightConservationVisible(t *testing.T) {
	k, _ := scrapeHost(t)
	var buf bytes.Buffer
	WriteFlight(&buf, "scrape", k.Flight())
	vals := map[string]uint64{}
	for _, line := range strings.Split(buf.String(), "\n") {
		if !strings.HasPrefix(line, "linuxfp_trace_chains_total") {
			continue
		}
		var term string
		var v uint64
		if _, err := fmt.Sscanf(line, "linuxfp_trace_chains_total{kernel=\"scrape\",terminal=%q} %d", &term, &v); err != nil {
			t.Fatalf("unparseable series %q: %v", line, err)
		}
		vals[term] = v
	}
	if vals["sampled"] == 0 {
		t.Fatal("no sampled chains in the scrape")
	}
	sum := vals["drop"] + vals["tx"] + vals["redirect"] + vals["pass"] + vals["lost"]
	if vals["sampled"] != sum {
		t.Fatalf("scrape ledger violated: sampled=%d, terminals sum to %d (%v)", vals["sampled"], sum, vals)
	}
}
