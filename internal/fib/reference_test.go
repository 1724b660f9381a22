package fib

import (
	"math/rand"
	"testing"

	"linuxfp/internal/packet"
)

// refLookup is what FIB.Lookup did before it read a flat snapshot: a
// lock-free walk of the local trie, then of the main trie. Kept as the
// reference the snapshot is checked against.
func (f *FIB) refLookup(dst packet.Addr) (Route, bool) {
	if r, ok := f.local.Lookup(dst); ok {
		return r, true
	}
	return f.main.Lookup(dst)
}

// scriptBits are the prefix lengths an op script draws from: both ends, and
// each side of every stride boundary.
var scriptBits = [...]int{0, 1, 7, 8, 9, 15, 16, 17, 23, 24, 25, 31, 32}

// poolAddr maps a byte to one of 256 addresses whose octets differ in the
// bits the lengths above cut at (10 vs 11 vs 138 in the first octet, 0 vs 1
// vs 128 vs 255 in the inner ones, 0 vs 1 vs 127 vs 255 in the last), so the
// prefixes of a script nest inside and around one another.
func poolAddr(b byte) packet.Addr {
	return packet.AddrFrom4(
		[4]byte{10, 11, 138, 0}[b&3],
		[4]byte{0, 1, 128, 255}[b>>2&3],
		[4]byte{0, 1, 128, 255}[b>>4&3],
		[4]byte{0, 1, 127, 255}[b>>6&3])
}

type routeKey struct {
	p      packet.Prefix
	metric int
}

// fibModel drives a FIB with three-byte ops and keeps the routes each table
// should hold. An op is
//
//	b0: bit 0 the table (local or main), bits 1-3 the verb, bits 4-5 the metric
//	b1: the prefix length, scriptBits[b1 % 13]
//	b2: the prefix address, poolAddr(b2)
//
// Verbs 0-3 add (replacing a route of equal prefix and metric), 4 and 5
// delete by metric, 6 deletes every metric, and 7 flushes the table when
// b1 is a multiple of 8 and adds otherwise.
type fibModel struct {
	f     *FIB
	model [2]map[routeKey]Route // local, main
	ops   int
}

func newFIBModel() *fibModel {
	return &fibModel{f: New(), model: [2]map[routeKey]Route{{}, {}}}
}

func (m *fibModel) table(i int) *Table {
	if i == 0 {
		return m.f.Local()
	}
	return m.f.Main()
}

// apply runs one op, checks Delete's result against the model, and returns
// a description for failure messages.
func (m *fibModel) apply(t testing.TB, b0, b1, b2 byte) string {
	t.Helper()
	m.ops++
	ti, verb, metric := int(b0&1), b0>>1&7, int(b0>>4&3)*10
	tbl, model := m.table(ti), m.model[ti]
	p := packet.Prefix{Addr: poolAddr(b2), Bits: scriptBits[int(b1)%len(scriptBits)]}
	name := [2]string{"local", "main"}[ti]
	switch {
	case verb == 7 && b1%8 == 0:
		tbl.Flush()
		m.model[ti] = map[routeKey]Route{}
		return name + " flush"
	case verb <= 3 || verb == 7:
		r := Route{Prefix: p, OutIf: m.ops, Metric: metric, Local: ti == 0, Scope: ScopeUniverse}
		tbl.Add(r) // unmasked on purpose: Add masks
		r.Prefix = p.Masked()
		model[routeKey{r.Prefix, metric}] = r
		return name + " add " + r.String()
	case verb <= 5:
		k := routeKey{p.Masked(), metric}
		_, had := model[k]
		if got := tbl.Delete(p, metric); got != had {
			t.Fatalf("%s: Delete(%v, %d) = %v, model had it: %v", name, p, metric, got, had)
		}
		delete(model, k)
		return name + " del " + p.Masked().String()
	default:
		had := false
		for k := range model {
			if k.p == p.Masked() {
				had = true
				delete(model, k)
			}
		}
		if got := tbl.Delete(p, -1); got != had {
			t.Fatalf("%s: Delete(%v, -1) = %v, model had it: %v", name, p, got, had)
		}
		return name + " del-all " + p.Masked().String()
	}
}

// check compares FIB.Lookup, the two-trie reference and the brute force
// (the longest local match, else the longest main match) on every probe.
func (m *fibModel) check(t testing.TB, what string, probes []packet.Addr) {
	t.Helper()
	var tables [2][]Route
	for i, model := range m.model {
		for _, r := range model {
			tables[i] = append(tables[i], r)
		}
	}
	for _, dst := range probes {
		wr, wok := bruteLookup(tables[0], dst)
		if !wok {
			wr, wok = bruteLookup(tables[1], dst)
		}
		rr, rok := m.f.refLookup(dst)
		gr, gok := m.f.Lookup(dst)
		if rok != wok || rr != wr {
			t.Fatalf("after %s: reference Lookup(%v) = %v %v, brute force %v %v", what, dst, rr, rok, wr, wok)
		}
		if gok != wok || gr != wr {
			t.Fatalf("after %s: Lookup(%v) = %v %v, brute force %v %v", what, dst, gr, gok, wr, wok)
		}
	}
	if s := m.f.flat.Load(); len(s.nodes) != cap(s.nodes) {
		t.Fatalf("after %s: the snapshot uses %d nodes of the %d counted", what, len(s.nodes), cap(s.nodes))
	}
}

// TestFlatMatchesReference drives random add / replace / delete-by-metric /
// delete-all / flush on both tables over the nested pool, and after every
// step holds FIB.Lookup, the two-trie reference and the local-first brute
// force to the same answer on 50 probes.
func TestFlatMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m := newFIBModel()
		probes := make([]packet.Addr, 50)
		for step := 0; step < 400; step++ {
			what := m.apply(t, byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256)))
			for i := range probes {
				switch dst := poolAddr(byte(rng.Intn(256))); rng.Intn(8) {
				case 0:
					probes[i] = packet.Addr(rng.Uint32())
				case 1, 2:
					probes[i] = dst ^ packet.Addr(1)<<rng.Intn(32)
				default:
					probes[i] = dst
				}
			}
			m.check(t, what, probes)
		}
	}
}

// FuzzFIBLookup runs a byte-encoded op script (see fibModel) and probes every
// pool address, and one address beside it, after every op.
func FuzzFIBLookup(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x01, 0, 0})                                           // main /0
	f.Add([]byte{0x00, 0, 0, 0x01, 3, 1})                               // local /0, main /8
	f.Add([]byte{0x01, 9, 0x06, 0x00, 12, 0x86, 0x0d, 9, 0x06})         // main /24, local /32 in it, delete the /24
	f.Add([]byte{0x01, 4, 0x08, 0x01, 7, 0x28, 0x00, 3, 0, 0x0f, 8, 0}) // /9 and /17 in main, local /8, flush main
	f.Add([]byte{0x21, 6, 0x05, 0x11, 6, 0x05, 0x29, 6, 0x05})          // one prefix at metrics 20 and 10, delete 20
	probes := make([]packet.Addr, 0, 512)
	for b := 0; b < 256; b++ {
		probes = append(probes, poolAddr(byte(b)), poolAddr(byte(b))^packet.Addr(1)<<(b%32))
	}
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 3*64 {
			script = script[:3*64]
		}
		m := newFIBModel()
		for i := 0; i+2 < len(script); i += 3 {
			m.check(t, m.apply(t, script[i], script[i+1], script[i+2]), probes)
		}
	})
}

// TestFlatDegeneratePrefixes pins the fill rules at their edges: a default
// route in either table or both, a /32 at the last level, prefixes straddling
// a stride boundary, a prefix whose only route changes metric, and a flushed
// main under a populated local. Every step is checked against the two-trie
// reference, and the named probes against the OutIf they must resolve to
// (0: no route).
func TestFlatDegeneratePrefixes(t *testing.T) {
	type probe struct {
		dst   string
		outIf int
	}
	main := func(f *FIB) *Table { return f.Main() }
	local := func(f *FIB) *Table { return f.Local() }
	type step struct {
		tbl    func(*FIB) *Table
		add    string // the prefix to add, or
		del    string // the prefix to delete
		metric int
		outIf  int
	}
	cases := []struct {
		name   string
		steps  []step
		probes []probe
	}{
		{"default in main only",
			[]step{{tbl: main, add: "0.0.0.0/0", outIf: 1}, {tbl: main, add: "10.0.0.0/8", outIf: 2}},
			[]probe{{"8.8.8.8", 1}, {"10.1.2.3", 2}, {"255.255.255.255", 1}, {"0.0.0.0", 1}}},
		{"default in local only",
			[]step{{tbl: local, add: "0.0.0.0/0", outIf: 1}, {tbl: main, add: "10.1.2.0/24", outIf: 2}},
			[]probe{{"8.8.8.8", 1}, {"10.1.2.3", 1}, {"255.255.255.255", 1}}},
		{"default in both",
			[]step{{tbl: main, add: "0.0.0.0/0", outIf: 1}, {tbl: main, add: "10.1.2.0/24", outIf: 2},
				{tbl: local, add: "0.0.0.0/0", outIf: 3}, {tbl: local, add: "10.1.2.3/32", outIf: 4}},
			[]probe{{"8.8.8.8", 3}, {"10.1.2.4", 3}, {"10.1.2.3", 4}}},
		{"/32 at the last level",
			[]step{{tbl: main, add: "10.0.0.0/24", outIf: 1}, {tbl: main, add: "10.0.0.7/32", outIf: 2},
				{tbl: main, add: "10.0.0.255/32", outIf: 3}},
			[]probe{{"10.0.0.7", 2}, {"10.0.0.6", 1}, {"10.0.0.8", 1}, {"10.0.0.255", 3}, {"10.0.1.0", 0}}},
		{"/9 and /17 straddling a stride boundary",
			[]step{{tbl: main, add: "10.128.0.0/9", outIf: 1}, {tbl: main, add: "10.128.128.0/17", outIf: 2},
				{tbl: local, add: "10.0.0.0/9", outIf: 3}},
			[]probe{{"10.127.255.255", 3}, {"10.128.0.1", 1}, {"10.128.127.255", 1}, {"10.128.128.1", 2},
				{"10.128.255.255", 2}, {"10.129.0.0", 1}, {"10.255.255.255", 1}, {"11.0.0.0", 0}}},
		{"the only route of a prefix at a lower metric",
			[]step{{tbl: main, add: "10.1.0.0/16", metric: 10, outIf: 1}, {tbl: main, add: "10.1.0.0/16", metric: 5, outIf: 2},
				{tbl: main, del: "10.1.0.0/16", metric: 10}},
			[]probe{{"10.1.2.3", 2}, {"10.2.0.0", 0}}},
		{"flush of main under a populated local",
			[]step{{tbl: main, add: "10.0.0.0/8", outIf: 1}, {tbl: main, add: "10.1.2.0/24", outIf: 2},
				{tbl: local, add: "10.1.2.3/32", outIf: 3}, {tbl: local, add: "10.1.0.0/16", outIf: 4},
				{tbl: main}},
			[]probe{{"10.1.2.3", 3}, {"10.1.9.9", 4}, {"10.1.2.4", 4}, {"10.2.0.0", 0}}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			f := New()
			check := func(what string) {
				for _, p := range c.probes {
					dst := packet.MustAddr(p.dst)
					got, gok := f.Lookup(dst)
					want, wok := f.refLookup(dst)
					if gok != wok || got != want {
						t.Fatalf("after %s: Lookup(%s) = %v %v, reference %v %v", what, p.dst, got, gok, want, wok)
					}
				}
			}
			for _, s := range c.steps {
				switch {
				case s.add != "":
					s.tbl(f).Add(Route{Prefix: packet.MustPrefix(s.add), OutIf: s.outIf, Metric: s.metric})
					check("add " + s.add)
				case s.del != "":
					if !s.tbl(f).Delete(packet.MustPrefix(s.del), s.metric) {
						t.Fatalf("delete %s metric %d found nothing", s.del, s.metric)
					}
					check("del " + s.del)
				default:
					s.tbl(f).Flush()
					check("flush")
				}
			}
			for _, p := range c.probes {
				got, ok := f.Lookup(packet.MustAddr(p.dst))
				if ok != (p.outIf != 0) || got.OutIf != p.outIf {
					t.Errorf("Lookup(%s) = %v %v, want out if %d", p.dst, got, ok, p.outIf)
				}
			}
		})
	}
}
