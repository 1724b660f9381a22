package netlink

import (
	"fmt"
	"sync"
	"testing"

	"linuxfp/internal/packet"
)

func TestPublishReachesMatchingGroups(t *testing.T) {
	b := NewBus()
	routes := b.Subscribe(GroupRoute)
	links := b.Subscribe(GroupLink)
	all := b.Subscribe(GroupAll)

	b.Publish(Message{Type: NewRoute, Payload: RouteMsg{Table: 254}})

	if len(routes.C) != 1 || len(all.C) != 1 {
		t.Fatalf("route sub %d, all sub %d", len(routes.C), len(all.C))
	}
	if len(links.C) != 0 {
		t.Fatal("link subscriber received route message")
	}
	msg := <-routes.C
	if msg.Type != NewRoute || msg.Payload.(RouteMsg).Table != 254 {
		t.Fatalf("message %+v", msg)
	}
}

func TestGroupOfCoversAllTypes(t *testing.T) {
	for _, typ := range []MsgType{
		NewLink, DelLink, NewAddr, DelAddr, NewRoute, DelRoute,
		NewNeigh, DelNeigh, NewRule, DelRule, NewSet, DelSet, SysctlChange,
	} {
		if GroupOf(typ) == 0 {
			t.Errorf("type %v has no group", typ)
		}
		if typ.String() == "" {
			t.Errorf("type %v has no name", typ)
		}
	}
	if GroupOf(MsgType(999)) != 0 {
		t.Error("unknown type should have no group")
	}
}

// TestMsgTypeNames pins every message type's name, which reactions carry as
// their trigger, and the fallback for a type without one.
func TestMsgTypeNames(t *testing.T) {
	want := map[MsgType]string{
		NewLink: "RTM_NEWLINK", DelLink: "RTM_DELLINK",
		NewAddr: "RTM_NEWADDR", DelAddr: "RTM_DELADDR",
		NewRoute: "RTM_NEWROUTE", DelRoute: "RTM_DELROUTE",
		NewNeigh: "RTM_NEWNEIGH", DelNeigh: "RTM_DELNEIGH",
		NewRule: "IPT_NEWRULE", DelRule: "IPT_DELRULE",
		NewSet: "IPSET_NEW", DelSet: "IPSET_DEL",
		SysctlChange: "SYSCTL_CHANGE", NewIPVS: "IPVS_NEW",
	}
	for typ := NewLink; typ <= NewIPVS; typ++ {
		if got := typ.String(); got != want[typ] {
			t.Errorf("MsgType(%d).String() = %q, want %q", int(typ), got, want[typ])
		}
	}
	for _, typ := range []MsgType{0, -1, NewIPVS + 1, 999} {
		if got, want := typ.String(), fmt.Sprintf("msg(%d)", int(typ)); got != want {
			t.Errorf("unknown type: got %q, want %q", got, want)
		}
	}
}

func TestSlowSubscriberDropsNotBlocks(t *testing.T) {
	b := NewBus()
	s := b.Subscribe(GroupSysctl)
	for i := 0; i < subBuffer+50; i++ {
		b.Publish(Message{Type: SysctlChange, Payload: SysctlMsg{Key: "net.ipv4.ip_forward"}})
	}
	if s.Dropped() != 50 {
		t.Fatalf("dropped %d, want 50", s.Dropped())
	}
	if len(s.C) != subBuffer {
		t.Fatalf("buffered %d", len(s.C))
	}
}

func TestCloseStopsDelivery(t *testing.T) {
	b := NewBus()
	s := b.Subscribe(GroupLink)
	s.Close()
	b.Publish(Message{Type: NewLink, Payload: LinkMsg{Index: 1}})
	// Channel closed and empty: receive yields zero value immediately.
	if _, ok := <-s.C; ok {
		t.Fatal("received on closed subscription")
	}
	s.Close() // double close must be safe
}

func TestDumpCallsRegisteredDumpers(t *testing.T) {
	b := NewBus()
	b.RegisterDumper(GroupLink, func() []Message {
		return []Message{{Type: NewLink, Payload: LinkMsg{Index: 1, Name: "eth0"}}}
	})
	b.RegisterDumper(GroupRoute, func() []Message {
		return []Message{
			{Type: NewRoute, Payload: RouteMsg{Prefix: packet.MustPrefix("10.0.0.0/8")}},
			{Type: NewRoute, Payload: RouteMsg{Prefix: packet.MustPrefix("10.1.0.0/16")}},
		}
	})
	msgs := b.Dump(GroupLink | GroupRoute)
	if len(msgs) != 3 {
		t.Fatalf("dump %d messages", len(msgs))
	}
	// Link group (lower bit) comes first.
	if msgs[0].Type != NewLink {
		t.Fatalf("first %v", msgs[0].Type)
	}
	// Dump of only one group filters.
	if got := b.Dump(GroupRoute); len(got) != 2 {
		t.Fatalf("filtered dump %d", len(got))
	}
	// Group with no dumper contributes nothing.
	if got := b.Dump(GroupNeigh); len(got) != 0 {
		t.Fatalf("empty dump %d", len(got))
	}
}

func TestConcurrentPublishSubscribe(t *testing.T) {
	b := NewBus()
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 500; j++ {
				b.Publish(Message{Type: NewNeigh, Payload: NeighMsg{Index: j}})
			}
		}()
	}
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				s := b.Subscribe(GroupNeigh)
				s.Close()
			}
		}()
	}
	wg.Wait() // run under -race
}

func TestPublishAfterCloseDoesNotPanic(t *testing.T) {
	b := NewBus()
	s := b.Subscribe(GroupAddr)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 1000; i++ {
			b.Publish(Message{Type: NewAddr, Payload: AddrMsg{Index: i}})
		}
	}()
	s.Close()
	<-done
}
