package neigh

import (
	"testing"

	"linuxfp/internal/packet"
	"linuxfp/internal/sim"
)

var (
	ip1  = packet.MustAddr("10.0.0.1")
	mac1 = packet.MustHWAddr("02:00:00:00:00:01")
	mac2 = packet.MustHWAddr("02:00:00:00:00:02")
)

func TestConfirmAndLookup(t *testing.T) {
	tb := NewTable()
	if _, ok := tb.Lookup(ip1, 0); ok {
		t.Fatal("empty table hit")
	}
	tb.Confirm(ip1, mac1, 3, 100)
	e, ok := tb.Lookup(ip1, 101)
	if !ok || e.MAC != mac1 || e.IfIndex != 3 || e.State != Reachable {
		t.Fatalf("lookup: %+v ok=%v", e, ok)
	}
	if tb.Len() != 1 {
		t.Fatalf("len %d", tb.Len())
	}
}

func TestAgingToStale(t *testing.T) {
	tb := NewTable()
	tb.Confirm(ip1, mac1, 1, 0)
	e, _ := tb.Lookup(ip1, sim.Time(ReachableTime)-1)
	if e.State != Reachable {
		t.Fatalf("should still be reachable: %v", e.State)
	}
	// The boundary itself is still inside the window.
	if e, _ = tb.Lookup(ip1, sim.Time(ReachableTime)); e.State != Reachable {
		t.Fatalf("at exactly ReachableTime: %v", e.State)
	}
	if _, exp, ok := tb.ResolvedFull(ip1, sim.Time(ReachableTime)); !ok || exp != sim.Time(ReachableTime) {
		t.Fatalf("expiry %v ok=%v, want the boundary", exp, ok)
	}
	e, _ = tb.Lookup(ip1, sim.Time(ReachableTime)+1)
	if e.State != Stale {
		t.Fatalf("should be stale: %v", e.State)
	}
	// Ageing is computed, not stored: an earlier clock still sees REACHABLE.
	if e, _ = tb.Lookup(ip1, 5); e.State != Reachable {
		t.Fatalf("a read aged the stored entry: %v", e.State)
	}
	// Stale entries are not usable by the fast path.
	if _, ok := tb.Resolved(ip1, sim.Time(ReachableTime)+1); ok {
		t.Fatal("fast path must not use stale entry")
	}
	// Reconfirmation restores reachability.
	tb.Confirm(ip1, mac1, 1, sim.Time(ReachableTime)+2)
	if _, ok := tb.Resolved(ip1, sim.Time(ReachableTime)+3); !ok {
		t.Fatal("reconfirmed entry should be usable")
	}
}

func TestPermanentNeverAges(t *testing.T) {
	tb := NewTable()
	tb.AddPermanent(ip1, mac1, 2)
	mac, ok := tb.Resolved(ip1, sim.Time(100*ReachableTime))
	if !ok || mac != mac1 {
		t.Fatal("permanent entry should always resolve")
	}
	// Dynamic confirmation must not overwrite a permanent entry.
	tb.Confirm(ip1, mac2, 2, 0)
	mac, _ = tb.Resolved(ip1, 0)
	if mac != mac1 {
		t.Fatal("confirm overwrote permanent entry")
	}
}

func TestResolutionQueue(t *testing.T) {
	tb := NewTable()
	f1, f2 := []byte{1}, []byte{2}
	first, queued1 := tb.StartResolution(ip1, 1, f1)
	if !first {
		t.Fatal("first resolution should request ARP")
	}
	second, queued2 := tb.StartResolution(ip1, 1, f2)
	if second {
		t.Fatal("second resolution should not re-request")
	}
	if !queued1 || !queued2 {
		t.Fatal("both frames should queue under MaxPending")
	}
	e, ok := tb.Lookup(ip1, 0)
	if !ok || e.State != Incomplete {
		t.Fatalf("state: %+v", e)
	}
	queued := tb.Confirm(ip1, mac1, 1, 10)
	if len(queued) != 2 || queued[0][0] != 1 || queued[1][0] != 2 {
		t.Fatalf("queued: %v", queued)
	}
	// Queue is drained exactly once.
	if q := tb.Confirm(ip1, mac1, 1, 11); len(q) != 0 {
		t.Fatalf("second confirm returned %d frames", len(q))
	}
}

func TestResolutionQueueBounded(t *testing.T) {
	tb := NewTable()
	for i := 0; i < MaxPending+5; i++ {
		_, q := tb.StartResolution(ip1, 1, []byte{byte(i)})
		if want := i < MaxPending; q != want {
			t.Fatalf("frame %d: queued=%v, want %v", i, q, want)
		}
	}
	queued := tb.Confirm(ip1, mac1, 1, 0)
	if len(queued) != MaxPending {
		t.Fatalf("queue length %d, want %d", len(queued), MaxPending)
	}
}

func TestDelete(t *testing.T) {
	tb := NewTable()
	tb.Confirm(ip1, mac1, 1, 0)
	if !tb.Delete(ip1) {
		t.Fatal("delete failed")
	}
	if tb.Delete(ip1) {
		t.Fatal("double delete succeeded")
	}
	if _, ok := tb.Lookup(ip1, 0); ok {
		t.Fatal("entry survived delete")
	}
}

func TestEntriesSnapshot(t *testing.T) {
	tb := NewTable()
	tb.Confirm(ip1, mac1, 1, 0)
	tb.AddPermanent(packet.MustAddr("10.0.0.2"), mac2, 1)
	es := tb.Entries(0)
	if len(es) != 2 {
		t.Fatalf("entries %d", len(es))
	}
	// Mutating the snapshot must not affect the table.
	es[0].MAC = packet.HWAddr{}
	found := 0
	for _, e := range tb.Entries(0) {
		if e.MAC == mac1 || e.MAC == mac2 {
			found++
		}
	}
	if found != 2 {
		t.Fatal("snapshot aliased table state")
	}
}

func TestStateStrings(t *testing.T) {
	for s, want := range map[State]string{
		Incomplete: "INCOMPLETE", Reachable: "REACHABLE", Stale: "STALE", Permanent: "PERMANENT",
	} {
		if s.String() != want {
			t.Errorf("state %d string %q", s, s.String())
		}
	}
	if State(99).String() == "" {
		t.Error("unknown state should still format")
	}
}
