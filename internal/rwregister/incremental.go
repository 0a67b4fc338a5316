package rwregister

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/history"
	"repro/internal/op"
	"repro/internal/workload"
)

// stream is rw-register's workload.Hooks. Register inference is per-key
// and the rules are monotone — version graphs only gain edges as the
// history grows — so it maintains exactly what the batch analyzer builds
// up front (every key's state: value table, transaction footprints,
// inference result) and re-runs the per-key pipeline only
// for keys touched since the last scan. At Finish every untouched key's
// result is what the batch analyzer would compute, and the same phase
// sequence (analyzer.finish) merges them, so the Analysis is
// byte-identical.
//
// The dependency edges a version order explodes into are not monotone:
// transitive reduction of a growing order retracts ww and rw edges, so
// no cycle search runs before Finish (docs/STREAMING.md).
type stream struct {
	a *analyzer // a.keyst is the per-key maintained state
}

func begin(opts workload.Opts, keys *history.Interner, ops history.Lookup) workload.Hooks {
	return stream{&analyzer{opts: opts, in: keys, ops: ops}}
}

// Ingest indexes one completion and surfaces its per-op findings
// (internal inconsistencies, aborted reads, duplicate writes) on the
// feed that proves them.
func (s stream) Ingest(o op.Op, invoke int, out *workload.Findings) {
	a := s.a
	a.addOp(o, invoke)

	for _, m := range o.Mops {
		if m.F != op.FWrite {
			continue
		}
		k := a.kid(m.Key)
		switch vs := a.find(k, m.Arg); vs.writes {
		case 1:
			if o.Type == op.Fail {
				// Readers that already observed this value read state
				// that is now known to be aborted.
				for _, r := range vs.readers {
					out.Emit(fmt.Sprintf("g1a|%d|%d|%d|%d", k, m.Arg, r, o.Index),
						g1aAnomaly(a.op(r), m.Key, m.Arg, o))
				}
			}
		case 2:
			out.Emit(fmt.Sprintf("dup|%d|%d", k, m.Arg), dupAnomaly(m.Key, vs))
		}
	}
	if o.Type != op.OK {
		return
	}
	for m, w := range a.abortedReads(o) {
		out.Emit(fmt.Sprintf("g1a|%d|%d|%d|%d", a.kid(m.Key), m.Reg, o.Index, w),
			g1aAnomaly(o, m.Key, m.Reg, a.op(w)))
	}
	out.Add(a.internalAnomalies(o)...)
}

// Scan refreshes the per-key inference of every touched key, surfacing
// newly cyclic version orders.
func (s stream) Scan(out *workload.Findings) {
	for _, k := range s.a.refresh() {
		if cyc := s.a.keyst[k].res.cyclic; cyc != nil {
			kname := s.a.in.Key(k)
			out.Emit("cvo|"+kname, cvoAnomaly(kname, cyc))
		}
	}
}

// Retire drops each quiescent key's one per-key state (value table,
// transaction footprints, inference result). There is no cross-key graph
// to retire — dependencies are exploded per key — and the scan just
// before left no retiring key awaiting a refresh.
func (s stream) Retire(keys []history.KeyID) { history.DropKeyed(s.a.keyst, keys) }

// Finish runs the shared phase sequence over the maintained state; it
// refreshes the keys touched since the last scan first. rw-register
// emits no edges, so the session hands it no graph.
func (s stream) Finish(h *history.History, _ *graph.Graph) workload.Analysis {
	return s.a.finish(h)
}
