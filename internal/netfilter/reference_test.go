package netfilter

import "sync/atomic"

// The interpreter that evaluated chains before they were compiled into flat
// programs: it walks the live *Chain / *Rule / *Prefix structures under the
// lock and resolves sets and jump targets by name at every rule. Kept as the
// reference the compiled evaluator is checked against.

func (nf *Netfilter) refEvaluateHook(h Hook, m *Meta) (Verdict, EvalStats) {
	nf.mu.RLock()
	defer nf.mu.RUnlock()
	c, ok := nf.chains[h.String()]
	if !ok {
		return VerdictAccept, EvalStats{}
	}
	var st EvalStats
	v := nf.evalChainLocked(c, m, &st, 0)
	if v == VerdictNone || v == VerdictReturn {
		v = c.Policy
	}
	return v, st
}

func (nf *Netfilter) refCTRequired() bool {
	nf.mu.RLock()
	defer nf.mu.RUnlock()
	for _, c := range nf.chains {
		for _, r := range c.Rules {
			if r.Match.CTState != 0 {
				return true
			}
		}
	}
	return false
}

func (nf *Netfilter) evalChainLocked(c *Chain, m *Meta, st *EvalStats, depth int) Verdict {
	if c == nil || depth > maxJumpDepth {
		return VerdictNone
	}
	for _, r := range c.Rules {
		st.RulesEvaluated++
		if !nf.matchLocked(&r.Match, m, st) {
			continue
		}
		atomic.AddUint64(&r.Packets, 1)
		if r.Jump != "" {
			v := nf.evalChainLocked(nf.chains[r.Jump], m, st, depth+1)
			if v == VerdictAccept || v == VerdictDrop {
				return v
			}
			continue // RETURN or fell off the end: resume this chain
		}
		if r.Target == VerdictReturn {
			return VerdictReturn
		}
		if r.Target != VerdictNone {
			return r.Target
		}
	}
	return VerdictNone
}

func (nf *Netfilter) matchLocked(mt *Match, m *Meta, st *EvalStats) bool {
	if !matchMeta(mt, m) {
		return false
	}
	if mt.SrcSet != "" {
		st.SetProbes++
		s, ok := nf.sets[mt.SrcSet]
		if !ok || !s.Contains(m.Src) {
			return false
		}
	}
	if mt.DstSet != "" {
		st.SetProbes++
		s, ok := nf.sets[mt.DstSet]
		if !ok || !s.Contains(m.Dst) {
			return false
		}
	}
	return true
}

// matchMeta checks every non-set criterion of mt against m.
func matchMeta(mt *Match, m *Meta) bool {
	if mt.Proto != 0 && mt.Proto != m.Proto {
		return false
	}
	if mt.Src != nil && !mt.Src.Contains(m.Src) {
		return false
	}
	if mt.Dst != nil && !mt.Dst.Contains(m.Dst) {
		return false
	}
	// Port matches never apply to non-first fragments: L4 header is absent.
	if (mt.SrcPort != 0 || mt.DstPort != 0) && m.Fragment {
		return false
	}
	if mt.SrcPort != 0 && mt.SrcPort != m.SrcPort {
		return false
	}
	if mt.DstPort != 0 && mt.DstPort != m.DstPort {
		return false
	}
	if mt.InIf != 0 && mt.InIf != m.InIf {
		return false
	}
	if mt.OutIf != 0 && mt.OutIf != m.OutIf {
		return false
	}
	if mt.CTState != 0 && mt.CTState != m.CTState {
		return false
	}
	return true
}
