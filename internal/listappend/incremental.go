package listappend

import (
	"fmt"
	"slices"

	"repro/internal/explain"
	"repro/internal/graph"
	"repro/internal/history"
	"repro/internal/op"
	"repro/internal/workload"
)

// begin opens list-append's workload.EdgeHooks: the analyzer itself,
// maintaining across feeds the per-key state Analyze builds up front —
// each key's element table, reads, and trace (replaced only by a
// strictly longer clean read) — and citing ops through the session. Per
// key it adds the writer of each trace position and the compatible reads
// by length. Those let Ingest emit each dependency edge once, the moment
// its second endpoint is known (the rules are keyEdges's, read off as
// deltas); the session keeps them in its graph and searches the
// components they dirtied. Finish runs the phase sequence Analyze runs
// (analyzer.finish), so its Analysis is byte-identical to Analyze over
// the concatenated chunks.
func begin(opts workload.Opts, keys *history.Interner, ops history.Lookup) workload.Hooks {
	return &analyzer{opts: opts, in: keys, ops: ops}
}

// placed emits what trace position p's writer, just learned, completes
// towards the positions before it: the ww from its predecessor, the rw
// of every read that stopped short of p and the wr to every read that
// ended on it.
func placed(ks *keyState, p int, out *workload.Findings) {
	w := ks.writers
	if p > 0 && w[p-1] >= 0 {
		out.Edge(w[p-1], w[p], graph.WW)
	}
	for i := *ks.group(p); i > 0; i = ks.reads[i-1].next {
		out.Edge(ks.reads[i-1].index, w[p], graph.RW)
	}
	for i := *ks.group(p + 1); i > 0; i = ks.reads[i-1].next {
		out.Edge(w[p], ks.reads[i-1].index, graph.WR)
	}
}

// file adds ks.reads[i], compatible with the trace, to its length's
// group and emits its edges to the writers already known; placed emits
// the rest as they become known.
func file(ks *keyState, i int, out *workload.Findings) {
	r, w := &ks.reads[i], ks.writers
	n := len(r.list)
	head := ks.group(n)
	r.next, *head = *head, int32(i+1)
	if n > 0 && w[n-1] >= 0 {
		out.Edge(w[n-1], r.index, graph.WR)
	}
	if n < len(w) && w[n] >= 0 {
		out.Edge(r.index, w[n], graph.RW)
	}
}

// Ingest indexes one completion and surfaces its per-op findings
// (internal inconsistencies, duplicate elements, aborted reads, duplicate
// appends, incompatible orders) on the feed that proves them.
func (a *analyzer) Ingest(o op.Op, invoke int, out *workload.Findings) {
	a.addOp(o, invoke)

	for _, m := range o.Mops {
		if m.F != op.FAppend {
			continue
		}
		k := a.kid(m.Key)
		ks := a.keyst[k]
		es := ks.find(m.Arg)
		switch p := int(es.pos); {
		case es.attempts > 1:
			// The evicted writer's edges may already be in the
			// session's graph; they are no longer evidence. Past the
			// second attempt there is a writer left to evict only when
			// one op brought both.
			if es.attempts == 2 || p >= 0 && ks.writers[p] >= 0 {
				out.Retract()
			}
			if p >= 0 {
				ks.writers[p] = -1
			}
			if key := fmt.Sprintf("dup|%d|%d", k, m.Arg); !out.Emitted(key) {
				out.Emit(key, a.duplicateAppend(m.Key, m.Arg, ks.dups[m.Arg]))
			}
		case o.Type != op.Fail:
			// The writer of a position reads reached first. Its ww
			// successor is the one edge placed leaves to the later position.
			if w := ks.writers; p >= 0 {
				w[p] = o.Index
				placed(ks, p, out)
				if p+1 < len(w) && w[p+1] >= 0 {
					out.Edge(w[p], w[p+1], graph.WW)
				}
			}
		case es.observed:
			// Readers that already observed this element read state that
			// is now known to be aborted: the key's reads holding it, in
			// ingestion order. A reader is cited once, with its first such
			// read: the emitted-set drops its later ones.
			if p >= 0 {
				ks.aborted = append(ks.aborted, p)
				slices.Sort(ks.aborted)
			}
			for _, r := range ks.reads {
				if slices.Contains(r.list, m.Arg) {
					out.Emit(fmt.Sprintf("g1a|%d|%d|%d|%d", k, m.Arg, r.index, o.Index),
						g1aAnomaly(a.op(r.index), m.Key, r.list, m.Arg, o))
				}
			}
		}
	}
	if o.Type != op.OK {
		return
	}

	// Per-op checks whose evidence is already complete.
	out.Add(a.internalAnomalies(o)...)
	for _, m := range o.Mops {
		if m.ListKnown() {
			a.ingestRead(o, m, out)
		}
	}
}

// ingestRead folds one committed read, filed by addOp, into its key's
// trace (see keyState.observe) and surfaces what it proves: duplicate
// elements, aborted reads, and incompatible orders as they become
// provable.
func (a *analyzer) ingestRead(o op.Op, m op.Mop, out *workload.Findings) {
	k := a.kid(m.Key)
	ks := a.keyst[k]
	// Reads are filed and folded in the same order, so the key's first
	// unfolded read is this mop's.
	ri := ks.folded
	r := &ks.reads[ri]
	ks.folded++
	old := ks.longest
	change := ks.observe(r)
	if change == duplicated {
		dup, _ := duplicateElements(o, m)
		out.Add(dup)
	}
	for e, w := range ks.abortedReads(m.List) {
		out.Emit(fmt.Sprintf("g1a|%d|%d|%d|%d", k, e, o.Index, w),
			g1aAnomaly(o, m.Key, m.List, e, a.op(w)))
	}
	switch change {
	case duplicated:
		return // not a clean read; contributes no version order
	case incompatible:
		lr := ks.longest
		out.Emit(fmt.Sprintf("incompat|%s|%d|%d", m.Key, o.Index, lr.index),
			incompatAnomaly(new(explain.Text), m.Key, o, r.list, a.op(lr.index), op.FormatList(lr.list)))
		return // and no edges
	case replaced:
		// Replacing the trace retracts the edges inferred from it, and
		// regroups the key's reads around the new one.
		out.Retract()
		out.Emit(fmt.Sprintf("incompat|%s|%d|%d", m.Key, old.index, o.Index),
			incompatAnomaly(new(explain.Text), m.Key, a.op(old.index), old.list, o, op.FormatList(r.list)))
		ks.writers, ks.byLen = ks.writers[:0], ks.byLen[:0]
	}
	// The positions the trace gained, in order: each sees its predecessor
	// and the reads that stopped just short of it.
	for p := len(ks.writers); p < len(r.list); p++ {
		w, ok := ks.sole(r.list[p], false)
		if !ok {
			w = -1
		}
		ks.writers = append(ks.writers, w)
		if ok {
			placed(ks, p, out)
		}
	}
	if change == replaced {
		for i := range ks.reads[:ri] {
			if op.IsPrefix(ks.reads[i].list, r.list) {
				file(ks, i, out)
			}
		}
	}
	file(ks, ri, out)
}

// Scan has nothing to bring up to date: edges go out as ops arrive.
func (a *analyzer) Scan(*workload.Findings) {}

// Edges hands add what keyEdges infers over every traced key: the
// maintained writers are the ones index would derive, so this is the
// batch rule over the current state.
func (a *analyzer) Edges(add func(from, to int, k graph.Kind)) {
	for _, k := range a.tracedKeys() {
		keyEdges(a.keyst[k], add)
	}
}

// Explainer renders cycles against the maintained version orders.
func (a *analyzer) Explainer() *explain.Explainer {
	return &explain.Explainer{Ops: a.ops, Keys: a.in, ListOrders: a.versionOrders()}
}

// Retire drops each quiescent key's one per-key state (element table,
// reads, trace, writers and read groups).
func (a *analyzer) Retire(keys []history.KeyID) { history.DropKeyed(a.keyst, keys) }

// Finish runs the shared phase sequence over the maintained state. The
// version orders are the maintained ones, and so is the graph unless
// evidence was retracted since the last scan. The checks whose evidence
// is inherently global (garbage reads, G1a/G1b against the final writer
// index, dirty and lost updates) run over the whole history there, each
// read costing one comparison against its key's trace.
func (a *analyzer) Finish(h *history.History, g *graph.Graph) workload.Analysis {
	return a.finish(h, g)
}
