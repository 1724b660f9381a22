// BPF_MAP_TYPE_SOCKMAP / SOCKHASH and the sk_skb program attach points.
//
// A sockmap is an array of socket references; attaching a stream
// parser/verdict program pair to the map runs the verdict program on every
// segment queued to a member socket, and bpf_sk_redirect_map lets the
// verdict splice the segment to another member — L7 steering without a
// userspace round trip. Slots are single atomic pointers (update/delete are
// lock-free and never disturb in-flight verdicts) stamped with the kernel's
// socket generation: an unregistered member reads as stale, and lookups
// self-heal the stamp for members that are still live.
package ebpf

import (
	"fmt"
	"sync/atomic"

	"linuxfp/internal/drop"
	"linuxfp/internal/kernel"
	"linuxfp/internal/sim"
)

// sockSlot is one occupied sockmap slot: the member socket and the socket
// generation at insert time.
type sockSlot struct {
	sock *kernel.Socket
	gen  uint64
	hash uint32 // SockHash only: the full flow hash (collision check)
}

// SockMap is a BPF_MAP_TYPE_SOCKMAP: integer-keyed socket references that
// sk_skb verdict programs redirect between.
type SockMap struct {
	name  string
	kern  *kernel.Kernel
	slots []atomic.Pointer[sockSlot]

	// The attached sk_skb program pair, shared by all members (attaching a
	// program to a sockmap attaches it to every member socket, as in the
	// kernel). parser may be nil; a nil verdict means nothing is attached.
	parser  atomic.Pointer[Program]
	verdict atomic.Pointer[Program]
}

// NewSockMap allocates a sockmap with n slots bound to the kernel whose
// sockets it will hold.
func NewSockMap(name string, k *kernel.Kernel, n int) *SockMap {
	return &SockMap{name: name, kern: k, slots: make([]atomic.Pointer[sockSlot], n)}
}

// Name returns the map name.
func (sm *SockMap) Name() string { return sm.name }

// Len reports the slot count.
func (sm *SockMap) Len() int { return len(sm.slots) }

// Update installs a socket in a slot (nil clears it, like Delete). A new
// member immediately runs the map's attached verdict program, if any.
// Reports whether the key was valid.
func (sm *SockMap) Update(key int, s *kernel.Socket) bool {
	if key < 0 || key >= len(sm.slots) {
		return false
	}
	if s == nil {
		sm.slots[key].Store(nil)
		return true
	}
	sm.slots[key].Store(&sockSlot{sock: s, gen: sm.kern.SockGen()})
	if sm.verdict.Load() != nil {
		s.SetSKSKB(&skskbAdapter{k: sm.kern, sm: sm})
	}
	return true
}

// Delete clears a slot and detaches the map's program from the member (a
// socket belongs to at most one sockmap, as in the kernel's psock model).
// Reports whether a member was removed.
func (sm *SockMap) Delete(key int) bool {
	if key < 0 || key >= len(sm.slots) {
		return false
	}
	old := sm.slots[key].Swap(nil)
	if old == nil {
		return false
	}
	old.sock.SetSKSKB(nil)
	return true
}

// UpdateBatch installs socks[i] at keys[i] (BPF_MAP_UPDATE_BATCH), returning
// how many slots were written.
func (sm *SockMap) UpdateBatch(keys []int, socks []*kernel.Socket) int {
	n := 0
	for i, key := range keys {
		if i >= len(socks) {
			break
		}
		if sm.Update(key, socks[i]) {
			n++
		}
	}
	return n
}

// DeleteBatch clears every listed slot (BPF_MAP_DELETE_BATCH), returning how
// many members were removed.
func (sm *SockMap) DeleteBatch(keys []int) int {
	n := 0
	for _, key := range keys {
		if sm.Delete(key) {
			n++
		}
	}
	return n
}

// Lookup returns the live socket in a slot, or nil (empty, or stale).
func (sm *SockMap) Lookup(key int) *kernel.Socket {
	s, _ := sm.LookupSlot(key)
	return s
}

// LookupSlot distinguishes the two kinds of miss a redirect cares about:
// (nil, false) is an empty slot (sk_no_socket); (nil, true) is a member that
// has gone stale — unregistered since insert (sockmap_stale). A live member
// whose generation stamp has lapsed self-heals: the slot is re-stamped and
// the socket returned.
func (sm *SockMap) LookupSlot(key int) (s *kernel.Socket, stale bool) {
	if key < 0 || key >= len(sm.slots) {
		return nil, false
	}
	p := sm.slots[key].Load()
	if p == nil {
		return nil, false
	}
	if p.sock.Closed() {
		return nil, true
	}
	if g := sm.kern.SockGen(); p.gen != g {
		// Some socket churned since this slot was stamped, but this member
		// survived it: refresh the stamp (racing refreshes both write the
		// same socket, so either winning is fine).
		sm.slots[key].CompareAndSwap(p, &sockSlot{sock: p.sock, gen: g})
	}
	return p.sock, false
}

// Gen reports the socket generation the map's kernel is at — slots stamped
// below it are revalidated on their next lookup.
func (sm *SockMap) Gen() uint64 { return sm.kern.SockGen() }

// members returns every live member socket (attach-time program install).
func (sm *SockMap) members() []*kernel.Socket {
	var out []*kernel.Socket
	for i := range sm.slots {
		if p := sm.slots[i].Load(); p != nil && !p.sock.Closed() {
			out = append(out, p.sock)
		}
	}
	return out
}

// SockHash is a BPF_MAP_TYPE_SOCKHASH keyed by flow hash: direct-mapped
// atomic-pointer slots with the full hash stored for collision detection —
// the shape LinuxFP's established-flow tables share.
type SockHash struct {
	name  string
	kern  *kernel.Kernel
	mask  uint32
	slots []atomic.Pointer[sockSlot]
}

// NewSockHash allocates a sockhash with n slots (rounded up to a power of
// two).
func NewSockHash(name string, k *kernel.Kernel, n int) *SockHash {
	size := 1
	for size < n {
		size <<= 1
	}
	return &SockHash{name: name, kern: k, mask: uint32(size - 1), slots: make([]atomic.Pointer[sockSlot], size)}
}

// Name returns the map name.
func (sh *SockHash) Name() string { return sh.name }

// Len reports the slot count.
func (sh *SockHash) Len() int { return len(sh.slots) }

// Update installs a socket under a flow hash (direct-mapped: a colliding
// hash evicts the previous occupant, which revalidation tolerates).
func (sh *SockHash) Update(hash uint32, s *kernel.Socket) {
	if s == nil {
		sh.Delete(hash)
		return
	}
	sh.slots[hash&sh.mask].Store(&sockSlot{sock: s, gen: sh.kern.SockGen(), hash: hash})
}

// Delete removes the entry for a flow hash if it is the occupant.
func (sh *SockHash) Delete(hash uint32) bool {
	slot := &sh.slots[hash&sh.mask]
	p := slot.Load()
	if p == nil || p.hash != hash {
		return false
	}
	return slot.CompareAndSwap(p, nil)
}

// Lookup returns the live socket for a flow hash, with the same stale
// semantics as SockMap.LookupSlot.
func (sh *SockHash) Lookup(hash uint32) (s *kernel.Socket, stale bool) {
	slot := &sh.slots[hash&sh.mask]
	p := slot.Load()
	if p == nil || p.hash != hash {
		return nil, false
	}
	if p.sock.Closed() {
		return nil, true
	}
	if g := sh.kern.SockGen(); p.gen != g {
		slot.CompareAndSwap(p, &sockSlot{sock: p.sock, gen: g, hash: hash})
	}
	return p.sock, false
}

// --- sk_skb attachment -------------------------------------------------------

// AttachSKSKB attaches a stream parser/verdict program pair to a sockmap
// (bpf_prog_attach with BPF_SK_SKB_STREAM_PARSER / _VERDICT). The parser is
// optional; the verdict program is what renders SK_PASS/SK_DROP/SK_REDIRECT.
// Programs must be loaded on the matching hooks. Existing members get the
// programs immediately; future Updates install them on new members.
func (l *Loader) AttachSKSKB(sm *SockMap, parser, verdict *Program) error {
	if verdict == nil {
		return fmt.Errorf("ebpf: AttachSKSKB needs a verdict program")
	}
	if verdict.Hook != HookSKSKBVerdict {
		return fmt.Errorf("ebpf: program %q is for %v, not %v", verdict.Name, verdict.Hook, HookSKSKBVerdict)
	}
	if parser != nil && parser.Hook != HookSKSKBParser {
		return fmt.Errorf("ebpf: program %q is for %v, not %v", parser.Name, parser.Hook, HookSKSKBParser)
	}
	sm.parser.Store(parser)
	sm.verdict.Store(verdict)
	ad := &skskbAdapter{k: l.K, sm: sm}
	for _, s := range sm.members() {
		s.SetSKSKB(ad)
	}
	return nil
}

// DetachSKSKB removes the map's program pair from the map and every member.
func (l *Loader) DetachSKSKB(sm *SockMap) {
	sm.parser.Store(nil)
	sm.verdict.Store(nil)
	for _, s := range sm.members() {
		s.SetSKSKB(nil)
	}
}

// skskbAdapter runs a sockmap's parser/verdict pair on a member socket's
// ingress segments — the kernel.SKSKBHandler the socket layer calls. The
// verdict mapping mirrors sk_psock_verdict_apply: SK_PASS delivers to the
// owning socket, SK_DROP frees the segment, SK_REDIRECT splices it to the
// resolved target's egress.
type skskbAdapter struct {
	k  *kernel.Kernel
	sm *SockMap
}

// HandleSKSKB implements kernel.SKSKBHandler.
func (a *skskbAdapter) HandleSKSKB(msg *kernel.SocketMsg, m *sim.Meter) kernel.SKSKBResult {
	verdict := a.sm.verdict.Load()
	if verdict == nil {
		return kernel.SKSKBResult{Action: kernel.SKSKBPass}
	}
	ctx := ctxPool.Get().(*Ctx)
	ctx.bind(a.k, HookSKSKBVerdict)
	ctx.reset(m, 0, nil, nil)
	ctx.Msg = msg
	ctx.IPSrc, ctx.IPDst, ctx.IPProto = msg.Src, msg.Dst, msg.Proto
	ctx.SrcPort, ctx.DstPort = msg.SrcPort, msg.DstPort
	// Stream parser first (strparser framing); a parser drop frees the
	// segment before the verdict program sees it.
	if parser := a.sm.parser.Load(); parser != nil {
		ctx.Hook = HookSKSKBParser
		if pv := parser.exec(ctx); pv == VerdictDrop || pv == VerdictAborted {
			ctxPool.Put(ctx)
			return kernel.SKSKBResult{Action: kernel.SKSKBDrop, Reason: drop.ReasonSocketFilter}
		}
		ctx.Hook = HookSKSKBVerdict
	}
	v := verdict.exec(ctx)
	rmap, rkey := ctx.RedirectSockMap, ctx.RedirectSockKey
	ctxPool.Put(ctx)
	switch v {
	case VerdictDrop, VerdictAborted:
		return kernel.SKSKBResult{Action: kernel.SKSKBDrop, Reason: drop.ReasonSocketFilter}
	case VerdictRedirect:
		if rmap == nil {
			// SK_REDIRECT without a recorded target is a program bug; the
			// kernel frees the skb.
			return kernel.SKSKBResult{Action: kernel.SKSKBDrop, Reason: drop.ReasonSkNoSocket}
		}
		target, stale := rmap.LookupSlot(rkey)
		if target == nil {
			r := drop.ReasonSkNoSocket
			if stale {
				r = drop.ReasonSockmapStale
			}
			return kernel.SKSKBResult{Action: kernel.SKSKBDrop, Reason: r}
		}
		return kernel.SKSKBResult{Action: kernel.SKSKBRedirect, Target: target}
	default:
		// SK_PASS (and VerdictPass/TX): deliver to the owning socket.
		return kernel.SKSKBResult{Action: kernel.SKSKBPass}
	}
}

// HelperSKRedirectMap is bpf_sk_redirect_map: record the redirect target on
// the context and render SK_REDIRECT. Resolution happens at apply time
// (sk_psock_verdict_apply), so an empty or stale slot surfaces there, as in
// the kernel's late lookup.
func HelperSKRedirectMap(c *Ctx, sm *SockMap, key int) Verdict {
	c.Meter.Charge(sim.CostSockmapRedirect)
	if sm == nil || key < 0 || key >= len(sm.slots) {
		return VerdictAborted
	}
	c.RedirectSockMap = sm
	c.RedirectSockKey = key
	return VerdictRedirect
}
