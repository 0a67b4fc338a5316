package setadd

import (
	"fmt"
	"slices"

	"repro/internal/explain"
	"repro/internal/graph"
	"repro/internal/history"
	"repro/internal/op"
	"repro/internal/workload"
)

// begin opens set-add's workload.EdgeHooks: the analyzer itself,
// maintaining exactly what Analyze builds up front (every key's element
// table and reads), so Finish is the same phase sequence
// (analyzer.finish) over the same state and the Analysis is
// byte-identical. Mid-stream it surfaces what the table already proves
// when an op arrives — internal inconsistencies, duplicate adds, and
// aborted reads whose failed add arrived first — and emits keyFindings'
// edges as their second endpoint arrives, for the session's cycle
// search. An abort that lands after its readers, and garbage reads (the
// element may yet be added), wait for Finish.
func begin(opts workload.Opts, keys *history.Interner, ops history.Lookup) workload.Hooks {
	return &analyzer{opts: opts, in: keys, ops: ops}
}

// Ingest indexes one completion, surfaces its per-op findings and emits
// the edges it completes.
func (a *analyzer) Ingest(o op.Op, _ int, out *workload.Findings) {
	a.addOp(o)
	for _, m := range o.Mops {
		if m.F != op.FAdd {
			continue
		}
		k := a.kid(m.Key)
		ks := a.keyst[k]
		switch es := ks.find(m.Arg); {
		case es.attempts == 1:
			added(ks, es, out)
		case es.first != o.Index && !es.failed && len(ks.reads) > 0:
			// A second attempt evicts a writer whose edges the graph may
			// hold.
			out.Retract()
		}
		delete(ks.pending, m.Arg) // an element with an adder pends no more
		if es := ks.find(m.Arg); es.attempts == 2 {
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
		ri := ks.checked
		r := &ks.reads[ri]
		ks.checked++
		for _, e := range m.List {
			es := ks.elem(e)
			es.seen = r.serial
			switch {
			case es.attempts == 1 && es.failed:
				out.Emit(fmt.Sprintf("g1a|%d|%d|%d", k, e, o.Index), g1aAnomaly(o, m.Key, e, a.op(es.first)))
			case es.attempts == 1 && es.first != o.Index:
				out.Edge(es.first, o.Index, graph.WR)
			case es.attempts == 0:
				if ks.pending == nil {
					ks.pending = map[int][]int32{}
				}
				ks.pending[e] = append(ks.pending[e], int32(ri))
			}
		}
		if e, ok := ks.missing(o, r); ok {
			out.Add(internalAnomaly(o, m.Key, e))
		}
		for i := range ks.tab {
			if es := &ks.tab[i]; es.attempts == 1 && es.ok && es.seen != r.serial && es.first != o.Index {
				out.Edge(o.Index, es.first, graph.RW)
			}
		}
	}
}

// added emits what es's sole adder, just arrived, completes: a wr edge to
// each read that already held the element and, when the adder
// committed, an rw edge from each other earlier read of the key, which
// lacks it. The reads of the adder's own op are not checked yet.
func added(ks *keyState, es *elemState, out *workload.Findings) {
	held := ks.pending[es.elem]
	if !es.failed {
		for _, i := range held {
			out.Edge(es.first, ks.reads[i].index, graph.WR)
		}
	}
	if !es.ok {
		return
	}
	for i := range ks.checked {
		if !slices.Contains(held, int32(i)) {
			out.Edge(ks.reads[i].index, es.first, graph.RW)
		}
	}
}

// Scan has nothing to bring up to date: edges go out as ops arrive.
func (a *analyzer) Scan(*workload.Findings) {}

// Edges hands add the edges keyFindings infers over every key's current
// state.
func (a *analyzer) Edges(add func(from, to int, k graph.Kind)) {
	for k, ks := range a.keyst {
		if ks == nil {
			continue
		}
		for _, f := range a.keyFindings(history.KeyID(k), true) {
			for _, e := range f.edges {
				add(e.From, e.To, e.Kind)
			}
		}
	}
}

// Explainer renders cycles against the ops the session still resolves.
func (a *analyzer) Explainer() *explain.Explainer { return &explain.Explainer{Ops: a.ops} }

// Retire drops each quiescent key's element table and reads.
func (a *analyzer) Retire(keys []history.KeyID) { history.DropKeyed(a.keyst, keys) }

// Finish runs the shared phase sequence over the maintained state and,
// when the session hands one over, its graph.
func (a *analyzer) Finish(h *history.History, g *graph.Graph) workload.Analysis {
	return a.finish(h, g)
}
