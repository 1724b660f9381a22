// Package neigh implements the kernel neighbour subsystem (the ARP cache):
// per-interface IPv4→MAC bindings with a reachability state machine and a
// queue of packets awaiting resolution.
//
// Like the FIB, this table is shared state: the slow path populates it from
// ARP traffic and the fast path's bpf_fib_lookup helper reads it to fill in
// the next hop's MAC — if the entry is missing or stale, the fast path must
// punt the packet to the slow path, which performs resolution.
package neigh

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"linuxfp/internal/packet"
	"linuxfp/internal/sim"
)

// State is the reachability state of a neighbour entry.
type State int

// Neighbour states (a condensed version of the kernel's NUD_* set).
const (
	Incomplete State = iota + 1 // resolution in flight, no MAC yet
	Reachable                   // confirmed recently
	Stale                       // usable but due for revalidation
	Permanent                   // statically configured, never ages
)

func (s State) String() string {
	switch s {
	case Incomplete:
		return "INCOMPLETE"
	case Reachable:
		return "REACHABLE"
	case Stale:
		return "STALE"
	case Permanent:
		return "PERMANENT"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// ReachableTime is how long a confirmed entry stays REACHABLE.
const ReachableTime = 30 * sim.Second

// MaxPending bounds the number of packets queued per unresolved neighbour
// (the kernel queues 3).
const MaxPending = 3

// Entry is one neighbour binding.
type Entry struct {
	IP        packet.Addr
	MAC       packet.HWAddr
	IfIndex   int
	State     State
	Confirmed sim.Time // last confirmation time
}

// aged returns the entry as it stands at now: a REACHABLE binding last
// confirmed more than ReachableTime ago is STALE. Ageing is a function of the
// stored entry and the clock, never a write, so readers need no lock.
func (e Entry) aged(now sim.Time) Entry {
	if e.State == Reachable && now.Sub(e.Confirmed) > sim.Duration(ReachableTime) {
		e.State = Stale
	}
	return e
}

// Table is the neighbour table for one namespace. It is safe for concurrent
// use. Writers update the locked map and then bump the generation; Lookup
// and the Resolved pair read a by-value copy of the map, which the first
// reader after a bump rebuilds, and take no lock otherwise.
type Table struct {
	mu      sync.RWMutex
	entries map[packet.Addr]*Entry
	pending map[packet.Addr][][]byte // frames awaiting resolution
	gen     atomic.Uint64            // bumped, under mu, after every binding change
	snap    atomic.Pointer[view]     // what Lookup reads
}

// view is an immutable copy of the bindings as of one generation.
type view struct {
	gen     uint64
	entries map[packet.Addr]Entry
}

// Gen reports the table generation, bumped whenever a binding is installed,
// rebound, or deleted. Flow caches that copied a resolved MAC validate
// against it (plus the entry's own expiry) before reusing the binding.
func (t *Table) Gen() uint64 { return t.gen.Load() }

// NewTable returns an empty neighbour table.
func NewTable() *Table {
	return &Table{
		entries: make(map[packet.Addr]*Entry),
		pending: make(map[packet.Addr][][]byte),
	}
}

// current returns the view of the live generation, copying the map if a
// writer has bumped the generation since the last copy.
func (t *Table) current() *view {
	if v := t.snap.Load(); v != nil && v.gen == t.gen.Load() {
		return v
	}
	// Writers bump under the lock, so under it map and generation agree.
	t.mu.Lock()
	defer t.mu.Unlock()
	gen := t.gen.Load()
	if v := t.snap.Load(); v != nil && v.gen == gen {
		return v
	}
	v := &view{gen: gen, entries: make(map[packet.Addr]Entry, len(t.entries))}
	for ip, e := range t.entries {
		v.entries[ip] = *e
	}
	t.snap.Store(v)
	return v
}

// Lookup returns the entry for ip as it stands at now (see Entry.aged).
func (t *Table) Lookup(ip packet.Addr, now sim.Time) (Entry, bool) {
	e, ok := t.current().entries[ip]
	return e.aged(now), ok
}

// Resolved returns the usable MAC for ip if the entry is in a state the fast
// path may use (REACHABLE or PERMANENT). STALE entries are usable by the
// slow path but force the fast path to punt so revalidation happens.
func (t *Table) Resolved(ip packet.Addr, now sim.Time) (packet.HWAddr, bool) {
	e, ok := t.Lookup(ip, now)
	if !ok || (e.State != Reachable && e.State != Permanent) {
		return packet.HWAddr{}, false
	}
	return e.MAC, true
}

// NeverExpires is the expiry ResolvedFull reports for permanent entries.
const NeverExpires = sim.Time(math.MaxInt64)

// ResolvedFull is Resolved plus the virtual time at which the binding stops
// being usable by a fast path (REACHABLE entries age out after
// ReachableTime; PERMANENT entries never do). A flow cache storing the MAC
// must re-validate once now passes the expiry — the same ageing Resolved
// applies.
func (t *Table) ResolvedFull(ip packet.Addr, now sim.Time) (packet.HWAddr, sim.Time, bool) {
	e, ok := t.Lookup(ip, now)
	if !ok {
		return packet.HWAddr{}, 0, false
	}
	switch e.State {
	case Permanent:
		return e.MAC, NeverExpires, true
	case Reachable:
		return e.MAC, e.Confirmed.Add(sim.Duration(ReachableTime)), true
	default:
		return packet.HWAddr{}, 0, false
	}
}

// Confirm installs or refreshes a dynamic binding (called on ARP traffic).
// It returns any frames that were queued awaiting this resolution.
func (t *Table) Confirm(ip packet.Addr, mac packet.HWAddr, ifIndex int, now sim.Time) [][]byte {
	t.mu.Lock()
	defer t.mu.Unlock()
	e, ok := t.entries[ip]
	if ok && e.State == Permanent {
		return nil
	}
	if !ok {
		e = &Entry{IP: ip}
		t.entries[ip] = e
	}
	e.MAC = mac
	e.IfIndex = ifIndex
	e.State = Reachable
	e.Confirmed = now
	t.gen.Add(1)
	queued := t.pending[ip]
	delete(t.pending, ip)
	return queued
}

// AddPermanent installs a static binding (ip neigh add ... nud permanent).
func (t *Table) AddPermanent(ip packet.Addr, mac packet.HWAddr, ifIndex int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.entries[ip] = &Entry{IP: ip, MAC: mac, IfIndex: ifIndex, State: Permanent}
	delete(t.pending, ip)
	t.gen.Add(1)
}

// Delete removes a binding and drops any queued frames.
func (t *Table) Delete(ip packet.Addr) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	_, ok := t.entries[ip]
	delete(t.entries, ip)
	delete(t.pending, ip)
	if ok {
		t.gen.Add(1)
	}
	return ok
}

// StartResolution marks ip INCOMPLETE and queues frame for transmission once
// the MAC is learned. first reports whether an ARP request should be sent
// (true only for the first packet that triggers resolution; the kernel
// rate-limits retransmits, which the model elides). queued reports whether
// the frame made it onto the pending queue — past MaxPending the frame is
// discarded, the kernel's NEIGH_QUEUEFULL drop, and the caller must count
// it.
func (t *Table) StartResolution(ip packet.Addr, ifIndex int, frame []byte) (first, queued bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	e, ok := t.entries[ip]
	if !ok || e.State != Incomplete {
		t.entries[ip] = &Entry{IP: ip, IfIndex: ifIndex, State: Incomplete}
		t.gen.Add(1)
		first = true
	}
	q := t.pending[ip]
	if len(q) < MaxPending {
		t.pending[ip] = append(q, frame)
		queued = true
	}
	return first, queued
}

// Entries returns a snapshot of all bindings as they stand at now, in
// unspecified order.
func (t *Table) Entries(now sim.Time) []Entry {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make([]Entry, 0, len(t.entries))
	for _, e := range t.entries {
		out = append(out, e.aged(now))
	}
	return out
}

// Len reports the number of entries.
func (t *Table) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.entries)
}
