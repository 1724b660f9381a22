package kernel

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"linuxfp/internal/netdev"
)

// TestDeviceByIndexReadersSeeSomeGeneration hammers the dense device table:
// readers look up every ifindex the writer will ever hand out while the
// writer creates and deletes devices. Each reader must see either no device
// or the device with exactly the ifindex it asked for, never a neighbour's
// slot or a torn table.
func TestDeviceByIndexReadersSeeSomeGeneration(t *testing.T) {
	k := New("t")
	const rounds = 200
	maxIdx := 2 * (rounds + 2)
	var stop atomic.Bool
	var reads atomic.Int64
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				for idx := -1; idx <= maxIdx; idx++ {
					reads.Add(1)
					d, ok := k.DeviceByIndex(idx)
					if ok != (d != nil) || (ok && d.Index != idx) {
						errs <- fmt.Errorf("DeviceByIndex(%d) = %v, %v", idx, d, ok)
						return
					}
				}
			}
		}()
	}
	for i := 0; i < rounds; i++ {
		k.CreateDevice(fmt.Sprintf("eth%d", i), netdev.Physical)
		name := fmt.Sprintf("br%d", i)
		k.CreateBridge(name)
		if i%2 == 0 {
			if err := k.DeleteBridge(name); err != nil {
				t.Fatal(err)
			}
		}
	}
	stop.Store(true)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if reads.Load() == 0 {
		t.Fatal("readers never ran")
	}
	// Every other bridge was deleted and reads as absent; Devices walks the
	// table in ifindex order.
	devs := k.Devices()
	for i := 1; i < len(devs); i++ {
		if devs[i-1].Index >= devs[i].Index {
			t.Fatalf("Devices not in ifindex order: %d before %d", devs[i-1].Index, devs[i].Index)
		}
	}
	if want := 1 + rounds + rounds/2; len(devs) != want {
		t.Fatalf("%d devices, want %d", len(devs), want)
	}
	for _, d := range devs {
		if got, ok := k.DeviceByIndex(d.Index); !ok || got != d {
			t.Fatalf("DeviceByIndex(%d) = %v, %v", d.Index, got, ok)
		}
		if got, ok := k.DeviceByName(d.Name); !ok || got != d {
			t.Fatalf("DeviceByName(%q) = %v, %v", d.Name, got, ok)
		}
	}
	if _, ok := k.DeviceByName("br0"); ok {
		t.Fatal("deleted bridge still resolves by name")
	}
}
