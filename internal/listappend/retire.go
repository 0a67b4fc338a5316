package listappend

import (
	"slices"

	"repro/internal/history"
	"repro/internal/op"
	"repro/internal/workload"
)

// This file is the session's memory-budget half: with a budget
// configured (workload.Opts.MemoryBudget), per-key inference state is
// kept only for keys touched within the window, and the incremental
// graph drops the nodes no live key pins. Mid-stream findings from a
// budgeted session are a subset of the unbudgeted session's — evidence
// that was retired cannot be cited — which the workload.Delta contract
// permits; the definitive analysis comes from Finish's full re-analysis
// of the rehydrated stream.

// note records one completion with the key tracker. Ops touching no
// keys are unpinned immediately: nothing can ever cite them.
func (s *session) note(o op.Op) {
	if s.rt != nil && !s.rt.NoteOp(o, s.a.in) {
		delete(s.a.ops, o.Index)
		delete(s.a.spanOf, o.Index)
	}
}

// sweep retires every key quiescent for a full window — dropping its
// one per-key state (element table, reads, trace, edge cache) and its
// version order — and, once no live key pins them, its ops, then drops
// the graph region those ops spanned. A retired key seen again is
// re-analyzed as brand new.
func (s *session) sweep() {
	dead, deadOps := s.rt.Sweep()
	if len(dead) == 0 && len(deadOps) == 0 {
		return
	}
	a := s.a
	for _, k := range dead {
		if int(k) < len(a.keyst) {
			a.keyst[k] = nil
		}
		if int(k) < len(s.orders) {
			s.orders[k] = nil
		}
	}
	s.keys = slices.DeleteFunc(s.keys, func(k history.KeyID) bool { return a.keyst[k] == nil })
	for _, i := range deadOps {
		delete(a.ops, i)
		delete(a.spanOf, i)
	}
	// Drop the settled graph region: nodes no live key pins can gain no
	// further edges from maintained state. The sweep runs right after a
	// scan, so their components' witnesses have already been searched
	// and surfaced.
	s.incr.Retire(s.rt.LiveOp)
}

// RetireStats implements workload.Retirer.
func (s *session) RetireStats() workload.RetireStats {
	st := workload.RetireStats{Stream: s.hs.RetireStats()}
	if s.rt != nil {
		st.RetiredKeys = s.rt.RetiredKeys()
	}
	return st
}
