package netdev

import (
	"reflect"
	"sync"
	"testing"

	"linuxfp/internal/packet"
	"linuxfp/internal/sim"
)

// fakeStack records delivered frames.
type fakeStack struct {
	mu      sync.Mutex
	frames  [][]byte
	devices map[int]*Device
}

func newFakeStack() *fakeStack { return &fakeStack{devices: make(map[int]*Device)} }

func (s *fakeStack) DeliverFrame(dev *Device, frame []byte, m *sim.Meter) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.frames = append(s.frames, frame)
}

func (s *fakeStack) DeviceByIndex(i int) (*Device, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	d, ok := s.devices[i]
	return d, ok
}

func (s *fakeStack) delivered() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.frames)
}

// xdpFunc adapts a func to XDPHandler.
type xdpFunc func(*XDPBuff) XDPAction

func (f xdpFunc) HandleXDP(b *XDPBuff) XDPAction { return f(b) }

var testMAC = packet.MustHWAddr("02:00:00:00:00:01")

func frameTo(dst packet.HWAddr) []byte {
	return packet.BuildEthernet(packet.Ethernet{Dst: dst, Src: testMAC, EtherType: packet.EtherTypeIPv4}, []byte{1, 2, 3})
}

func pair(t *testing.T) (*Device, *Device, *fakeStack, *fakeStack) {
	t.Helper()
	sa, sb := newFakeStack(), newFakeStack()
	a := New("a0", 1, Physical, testMAC, sa)
	b := New("b0", 1, Physical, packet.MustHWAddr("02:00:00:00:00:02"), sb)
	a.SetUp(true)
	b.SetUp(true)
	Connect(a, b)
	return a, b, sa, sb
}

func TestTransmitReachesPeerStack(t *testing.T) {
	a, b, _, sb := pair(t)
	var m sim.Meter
	a.Transmit(frameTo(b.MAC), &m)
	if sb.delivered() != 1 {
		t.Fatalf("delivered %d", sb.delivered())
	}
	if st := a.Stats(); st.TxPackets != 1 || st.TxBytes == 0 {
		t.Fatalf("tx stats %+v", st)
	}
	if st := b.Stats(); st.RxPackets != 1 {
		t.Fatalf("rx stats %+v", st)
	}
	if m.Total == 0 {
		t.Fatal("per-byte cost not charged")
	}
}

func TestFrameCopiedAcrossWire(t *testing.T) {
	a, _, _, sb := pair(t)
	f := frameTo(packet.BroadcastHW)
	a.Transmit(f, nil)
	f[0] = 0xEE // mutate sender's buffer after transmit
	sb.mu.Lock()
	defer sb.mu.Unlock()
	if sb.frames[0][0] == 0xEE {
		t.Fatal("frame aliased across the wire")
	}
}

func TestDownDeviceDrops(t *testing.T) {
	a, b, _, sb := pair(t)
	a.SetUp(false)
	a.Transmit(frameTo(b.MAC), nil)
	if st := a.Stats(); st.TxDropped != 1 {
		t.Fatalf("tx drop not counted: %+v", st)
	}
	a.SetUp(true)
	b.SetUp(false)
	a.Transmit(frameTo(b.MAC), nil)
	if st := b.Stats(); st.RxDropped != 1 {
		t.Fatalf("rx drop not counted: %+v", st)
	}
	if sb.delivered() != 0 {
		t.Fatal("down device delivered frames")
	}
}

func TestUnpluggedDeviceDrops(t *testing.T) {
	s := newFakeStack()
	a := New("a0", 1, Physical, testMAC, s)
	a.SetUp(true)
	a.Transmit(frameTo(packet.BroadcastHW), nil)
	if st := a.Stats(); st.TxDropped != 1 {
		t.Fatalf("unplugged tx should drop: %+v", st)
	}
	b := New("b0", 2, Physical, testMAC, s)
	b.SetUp(true)
	Connect(a, b)
	Disconnect(a)
	if a.Peer() != nil || b.Peer() != nil {
		t.Fatal("disconnect left peers")
	}
}

func TestXDPDrop(t *testing.T) {
	a, b, _, sb := pair(t)
	b.AttachXDP(xdpFunc(func(*XDPBuff) XDPAction { return XDPDrop }), "driver")
	a.Transmit(frameTo(b.MAC), nil)
	if sb.delivered() != 0 {
		t.Fatal("dropped frame reached stack")
	}
	if st := b.Stats(); st.XDPDrops != 1 {
		t.Fatalf("xdp drop not counted: %+v", st)
	}
	if ok, mode := b.XDPAttached(); !ok || mode != "driver" {
		t.Fatalf("attached: %v %q", ok, mode)
	}
}

func TestXDPPassChargesAndDelivers(t *testing.T) {
	a, b, _, sb := pair(t)
	b.AttachXDP(xdpFunc(func(*XDPBuff) XDPAction { return XDPPass }), "driver")
	var m sim.Meter
	a.Transmit(frameTo(b.MAC), &m)
	if sb.delivered() != 1 {
		t.Fatal("passed frame lost")
	}
	if m.Total < sim.CostXDPPass {
		t.Fatalf("pass cost not charged: %v", m.Total)
	}
}

func TestXDPTxBouncesFrame(t *testing.T) {
	a, b, sa, sb := pair(t)
	b.AttachXDP(xdpFunc(func(buf *XDPBuff) XDPAction {
		// Swap MACs and bounce — a tiny XDP reflector.
		src := packet.EthSrc(buf.Data)
		packet.SetEthSrc(buf.Data, packet.EthDst(buf.Data))
		packet.SetEthDst(buf.Data, src)
		return XDPTx
	}), "driver")
	a.Transmit(frameTo(b.MAC), nil)
	if sa.delivered() != 1 {
		t.Fatal("bounced frame did not return")
	}
	if sb.delivered() != 0 {
		t.Fatal("bounced frame also delivered")
	}
	if st := b.Stats(); st.XDPTx != 1 || st.TxPackets != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestXDPRedirect(t *testing.T) {
	// a --- b [XDP redirect to c] ,  c --- d
	sa, sb := newFakeStack(), newFakeStack()
	a := New("a", 1, Physical, testMAC, sa)
	b := New("b", 2, Physical, testMAC, sb)
	c := New("c", 3, Physical, testMAC, sb) // same host as b
	dStack := newFakeStack()
	d := New("d", 4, Physical, testMAC, dStack)
	for _, dev := range []*Device{a, b, c, d} {
		dev.SetUp(true)
	}
	Connect(a, b)
	Connect(c, d)
	sb.devices[3] = c
	b.AttachXDP(xdpFunc(func(buf *XDPBuff) XDPAction {
		buf.RedirectTo = 3
		return XDPRedirect
	}), "driver")
	var m sim.Meter
	a.Transmit(frameTo(b.MAC), &m)
	if dStack.delivered() != 1 {
		t.Fatal("redirected frame did not arrive at d")
	}
	if sb.delivered() != 0 {
		t.Fatal("redirected frame leaked into b's stack")
	}
	if st := b.Stats(); st.XDPRedirects != 1 {
		t.Fatalf("redirect not counted: %+v", st)
	}
	if m.Total < sim.CostXDPRedirect {
		t.Fatalf("redirect cost not charged: %v", m.Total)
	}
	// Redirect to a nonexistent ifindex silently drops.
	b.AttachXDP(xdpFunc(func(buf *XDPBuff) XDPAction {
		buf.RedirectTo = 99
		return XDPRedirect
	}), "driver")
	a.Transmit(frameTo(b.MAC), nil)
	if dStack.delivered() != 1 {
		t.Fatal("bogus redirect delivered somewhere")
	}
}

func TestXDPAtomicSwapUnderTraffic(t *testing.T) {
	a, b, _, sb := pair(t)
	drop := xdpFunc(func(*XDPBuff) XDPAction { return XDPDrop })
	pass := xdpFunc(func(*XDPBuff) XDPAction { return XDPPass })
	b.AttachXDP(drop, "driver")

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				b.AttachXDP(pass, "driver")
				b.AttachXDP(drop, "driver")
			}
		}
	}()
	for i := 0; i < 2000; i++ {
		a.Transmit(frameTo(b.MAC), nil)
	}
	close(stop)
	wg.Wait()
	st := b.Stats()
	// Every packet either dropped or delivered — none lost or double-counted.
	if int(st.XDPDrops)+sb.delivered() != 2000 {
		t.Fatalf("drops %d + delivered %d != 2000", st.XDPDrops, sb.delivered())
	}
}

func TestDetachXDP(t *testing.T) {
	a, b, _, sb := pair(t)
	b.AttachXDP(xdpFunc(func(*XDPBuff) XDPAction { return XDPDrop }), "driver")
	b.DetachXDP()
	if ok, _ := b.XDPAttached(); ok {
		t.Fatal("still attached after detach")
	}
	a.Transmit(frameTo(b.MAC), nil)
	if sb.delivered() != 1 {
		t.Fatal("frame lost after detach")
	}
	// Attaching nil is equivalent to detach.
	b.AttachXDP(nil, "driver")
	if ok, _ := b.XDPAttached(); ok {
		t.Fatal("nil attach left a program")
	}
}

func TestAddrManagement(t *testing.T) {
	d := New("eth0", 1, Physical, testMAC, nil)
	p1 := packet.MustPrefix("10.0.0.1/24")
	d.AddAddr(p1)
	d.AddAddr(p1) // idempotent
	d.AddAddr(packet.MustPrefix("10.0.1.1/24"))
	if len(d.Addrs()) != 2 {
		t.Fatalf("addrs %v", d.Addrs())
	}
	if !d.HasAddr(packet.MustAddr("10.0.0.1")) || d.HasAddr(packet.MustAddr("10.0.0.2")) {
		t.Fatal("HasAddr wrong")
	}
	if !d.DelAddr(p1) || d.DelAddr(p1) {
		t.Fatal("DelAddr semantics wrong")
	}
}

func TestMasterAssignment(t *testing.T) {
	d := New("veth0", 5, Veth, testMAC, nil)
	if d.Master() != 0 {
		t.Fatal("fresh device has master")
	}
	d.SetMaster(10)
	if d.Master() != 10 {
		t.Fatal("master not set")
	}
	d.SetMaster(0)
	if d.Master() != 0 {
		t.Fatal("master not cleared")
	}
}

func TestTapObservesFrames(t *testing.T) {
	a, b, _, _ := pair(t)
	var seen [][]byte
	b.Tap = func(f []byte) { seen = append(seen, f) }
	b.AttachXDP(xdpFunc(func(*XDPBuff) XDPAction { return XDPDrop }), "driver")
	a.Transmit(frameTo(b.MAC), nil)
	if len(seen) != 1 {
		t.Fatal("tap should see frames even when XDP drops them")
	}
}

func TestSwitchLearnsAndForwards(t *testing.T) {
	sw := NewSwitch()
	stacks := make([]*fakeStack, 3)
	devs := make([]*Device, 3)
	for i := range devs {
		stacks[i] = newFakeStack()
		mac := packet.HWAddr{2, 0, 0, 0, 0, byte(i + 1)}
		devs[i] = New("n", i+1, Physical, mac, stacks[i])
		devs[i].SetUp(true)
		sw.Attach(devs[i])
	}
	// Unknown destination floods to the other two ports.
	devs[0].Transmit(packet.BuildEthernet(packet.Ethernet{
		Dst: devs[2].MAC, Src: devs[0].MAC, EtherType: packet.EtherTypeIPv4}, nil), nil)
	if stacks[1].delivered() != 1 || stacks[2].delivered() != 1 {
		t.Fatalf("flood: %d %d", stacks[1].delivered(), stacks[2].delivered())
	}
	// Reply teaches the switch; next frame is unicast only.
	devs[2].Transmit(packet.BuildEthernet(packet.Ethernet{
		Dst: devs[0].MAC, Src: devs[2].MAC, EtherType: packet.EtherTypeIPv4}, nil), nil)
	devs[0].Transmit(packet.BuildEthernet(packet.Ethernet{
		Dst: devs[2].MAC, Src: devs[0].MAC, EtherType: packet.EtherTypeIPv4}, nil), nil)
	if stacks[1].delivered() != 1 {
		t.Fatal("learned unicast still flooded")
	}
	if stacks[2].delivered() != 2 {
		t.Fatalf("unicast lost: %d", stacks[2].delivered())
	}
	// Runt frames are ignored.
	sw.Send(devs[0], []byte{1, 2}, nil)
}

func TestDeviceTypeStrings(t *testing.T) {
	for typ, want := range map[Type]string{
		Physical: "physical", Veth: "veth", BridgeDev: "bridge", VXLAN: "vxlan", Loopback: "loopback",
	} {
		if typ.String() != want {
			t.Errorf("%d -> %q", typ, typ.String())
		}
	}
	for act, want := range map[XDPAction]string{
		XDPDrop: "XDP_DROP", XDPPass: "XDP_PASS", XDPTx: "XDP_TX", XDPRedirect: "XDP_REDIRECT", XDPAborted: "XDP_ABORTED",
	} {
		if act.String() != want {
			t.Errorf("%d -> %q", act, act.String())
		}
	}
}

// redirectSink is a do-nothing cpumap and xskmap redirect target.
type redirectSink struct{}

func (redirectSink) EnqueueCPU(int, int, *Device, []byte, *sim.Meter) (int, bool) { return 0, true }
func (redirectSink) FlushCPU(int, *sim.Meter) int                                 { return 0 }
func (redirectSink) EnqueueXSK(int, int, []byte, *sim.Meter) (int, int, bool)     { return 0, 0, true }
func (redirectSink) FlushXSK(int, *sim.Meter) (int, int)                          { return 0, 0 }

// TestXDPBuffResetClearsEveryField fills every field of an XDPBuff, as a
// program run on the previous frame might have, and resets it with zero
// inputs: every field must come back zero, so a reused buff carries nothing
// from one frame into the next. A field added to XDPBuff fails here until
// Reset sets or clears it.
func TestXDPBuffResetClearsEveryField(t *testing.T) {
	var b XDPBuff
	v := reflect.ValueOf(&b).Elem()
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		switch f.Kind() {
		case reflect.Int:
			f.SetInt(7)
		case reflect.Slice:
			f.Set(reflect.MakeSlice(f.Type(), 1, 1))
		case reflect.Pointer:
			f.Set(reflect.New(f.Type().Elem()))
		case reflect.Interface:
			f.Set(reflect.ValueOf(redirectSink{}))
		default:
			t.Fatalf("no filler for field %s of kind %v", v.Type().Field(i).Name, f.Kind())
		}
	}
	b.Reset(nil, 0, 0, nil)
	for i := 0; i < v.NumField(); i++ {
		if !v.Field(i).IsZero() {
			t.Errorf("field %s survives Reset", v.Type().Field(i).Name)
		}
	}
	frame := []byte{1, 2, 3}
	m := new(sim.Meter)
	b.Reset(frame, 4, 2, m)
	if &b.Data[0] != &frame[0] || b.IfIndex != 4 || b.RxQueue != 2 || b.Meter != m {
		t.Fatalf("Reset inputs not set: %+v", b)
	}
}
