package rwregister

import (
	"repro/internal/history"
	"repro/internal/op"
	"repro/internal/workload"
)

// This file is the register session's memory-budget half: with a budget
// configured (workload.Opts.MemoryBudget), per-key inference caches are
// kept only for keys touched within the window. Register inference has
// no cross-key graph to retire — dependencies are exploded per key — so
// retirement here is purely map and slice eviction; the op stream's own
// segment retirement (history.Stream) bounds op storage. Mid-stream
// findings from a budgeted session are a subset of the unbudgeted
// session's; the definitive analysis is Finish's full re-analysis of
// the rehydrated stream.

// note records one completion with the key tracker. Ops touching no
// keys are unpinned immediately: nothing can ever cite them.
func (s *session) note(o op.Op) {
	if s.rt != nil && !s.rt.NoteOp(o, s.a.in) {
		delete(s.a.ops, o.Index)
		delete(s.a.spanOf, o.Index)
	}
}

// sweep retires every key quiescent for a full window: its op grouping,
// cached inference result, per-value write and reader indices, and —
// once no live key pins them — its ops. A retired key seen again is
// re-analyzed as brand new.
func (s *session) sweep() {
	dead, deadOps := s.rt.Sweep()
	if len(dead) == 0 && len(deadOps) == 0 {
		return
	}
	a := s.a
	deadSet := make(map[history.KeyID]bool, len(dead))
	for _, k := range dead {
		deadSet[k] = true
		if int(k) < len(a.byKey) {
			a.byKey[k] = nil
		}
		delete(s.cache, k)
		delete(s.keySet, k)
	}
	if len(dead) > 0 {
		// The per-value maps are keyed by (key, value); one full
		// iteration per sweep frees every entry of every dead key.
		for vk := range a.writer {
			if deadSet[vk.key] {
				delete(a.writer, vk)
			}
		}
		for vk := range a.failedWriter {
			if deadSet[vk.key] {
				delete(a.failedWriter, vk)
			}
		}
		for vk := range a.writeCount {
			if deadSet[vk.key] {
				delete(a.writeCount, vk)
			}
		}
		for vk := range a.readers {
			if deadSet[vk.key] {
				delete(a.readers, vk)
			}
		}
	}
	for _, i := range deadOps {
		delete(a.ops, i)
		delete(a.spanOf, i)
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
