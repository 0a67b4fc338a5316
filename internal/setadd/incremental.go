package setadd

import (
	"fmt"

	"repro/internal/history"
	"repro/internal/op"
	"repro/internal/workload"
)

// stream is set-add's workload.Hooks: it maintains exactly what the
// batch analyzer builds up front (every key's element table and reads),
// so Finish is the same phase sequence (analyzer.finish) over the same
// state and the Analysis is byte-identical. Mid-stream it surfaces only what the table already
// proves when an op arrives — internal inconsistencies, duplicate adds,
// and aborted reads whose failed add arrived first. An abort that lands
// after its readers, garbage reads (the element may yet be added) and
// cycles wait for Finish.
type stream struct {
	a *analyzer // a.keyst is the per-key maintained state
}

func begin(opts workload.Opts, keys *history.Interner, ops history.Lookup) workload.Hooks {
	return stream{&analyzer{opts: opts, in: keys, ops: ops}}
}

// Ingest indexes one completion and surfaces its per-op findings.
func (s stream) Ingest(o op.Op, _ int, out *workload.Findings) {
	a := s.a
	a.addOp(o)
	for _, m := range o.Mops {
		if m.F != op.FAdd {
			continue
		}
		k := a.kid(m.Key)
		if es := a.keyst[k].find(m.Arg); es.attempts == 2 {
			out.Emit(fmt.Sprintf("dup|%d|%d", k, m.Arg), dupAnomaly(m.Key, es))
		}
	}
	if o.Type != op.OK {
		return
	}
	for _, m := range o.Mops {
		if !m.ListKnown() {
			continue
		}
		k := a.kid(m.Key)
		ks := a.keyst[k]
		// Reads are filed and checked in the same order, so the key's
		// first unchecked read is this mop's.
		r := &ks.reads[ks.checked]
		ks.checked++
		for _, e := range m.List {
			es := ks.elem(e)
			es.seen = r.serial
			if es.attempts == 1 && es.failed {
				out.Emit(fmt.Sprintf("g1a|%d|%d|%d", k, e, o.Index), g1aAnomaly(o, m.Key, e, a.op(es.first)))
			}
		}
		if e, ok := ks.missing(o, r); ok {
			out.Add(internalAnomaly(o, m.Key, e))
		}
	}
}

// Scan has nothing to bring up to date: set-add derives nothing in
// batches. Whether it should search cycles mid-stream waits on whether
// graph.Incr survives the streaming work (docs/STREAMING.md).
func (s stream) Scan(*workload.Findings) {}

// Retire drops each quiescent key's element table and reads.
func (s stream) Retire(keys []history.KeyID) {
	for _, k := range keys {
		// Keys only failed or unknown reads touched never got a state.
		if int(k) < len(s.a.keyst) {
			s.a.keyst[k] = nil
		}
	}
}

// Finish runs the shared phase sequence over the maintained state.
func (s stream) Finish(h *history.History) workload.Analysis {
	return s.a.finish(h)
}
