package rwregister

import (
	"repro/internal/op"
	"repro/internal/workload"
)

// This file is the register session's memory-budget half: with a budget
// configured (workload.Opts.MemoryBudget), per-key state is kept only
// for keys touched within the window. Register inference has no
// cross-key graph to retire — dependencies are exploded per key — so
// retiring a key drops its one keyState; the op stream's own segment
// retirement (history.Stream) bounds op storage. Mid-stream findings
// from a budgeted session are a subset of the unbudgeted session's; the
// definitive analysis is Finish's full re-analysis of the rehydrated
// stream.

// note records one completion with the key tracker. Ops touching no
// keys are unpinned immediately: nothing can ever cite them.
func (s *session) note(o op.Op) {
	if s.rt != nil && !s.rt.NoteOp(o, s.a.in) {
		delete(s.a.ops, o.Index)
	}
}

// sweep retires every key quiescent for a full window — dropping its
// one per-key state (value table, transaction footprints, inference
// result) — and, once no live key pins them, its ops. It runs right
// after a scan, so no retiring key is awaiting a refresh. A retired key
// seen again is re-analyzed as brand new.
func (s *session) sweep() {
	dead, deadOps := s.rt.Sweep()
	for _, k := range dead {
		// Keys only failed or unknown reads touched never got a state.
		if int(k) < len(s.a.keyst) {
			s.a.keyst[k] = nil
		}
	}
	for _, i := range deadOps {
		delete(s.a.ops, i)
	}
}

// RetireStats implements workload.Retirer.
func (s *session) RetireStats() workload.RetireStats {
	st := workload.RetireStats{Stream: s.hs.RetireStats()}
	if s.rt != nil {
		st.RetiredKeys = s.rt.RetiredKeys()
	}
	return st
}
