package listappend

import (
	"fmt"
	"slices"

	"repro/internal/anomaly"
	"repro/internal/explain"
	"repro/internal/graph"
	"repro/internal/history"
	"repro/internal/op"
	"repro/internal/workload"
)

// stream is list-append's workload.Hooks: the state a streaming session
// maintains across feeds and the four steps the session drives. It keeps
// the per-key state the batch analyzer builds up front — each key's
// element table, reads, and trace (replaced only by a strictly longer
// clean read) — and cites ops through the session. Per key it adds the
// writer of each trace position and the compatible reads by length. Those let
// Ingest hand a graph.Incr each dependency edge once, the moment its
// second endpoint is known (the rules are keyEdges's, read off as
// deltas); Scan only drains the components the new edges dirtied and
// re-searches them for new cycle witnesses.
//
// Finish hands the maintained state and graph to the same phase
// sequence Analyze runs (analyzer.finish), so its Analysis is
// byte-identical to Analyze over the concatenated chunks.
type stream struct {
	a *analyzer // a.keyst is the per-key maintained state

	incr      *graph.Incr
	offered   int  // edges handed to incr one by one, for the cost test
	explained int  // cycles Scan rendered, likewise
	poisoned  bool // evidence was retracted; rebuild incr at next scan
}

func begin(opts workload.Opts, keys *history.Interner, ops history.Lookup) workload.Hooks {
	return &stream{a: &analyzer{opts: opts, in: keys, ops: ops}, incr: graph.NewIncr(graph.New())}
}

// emit offers incr one edge. A poisoned graph is about to be rebuilt
// from the state the edge was read off.
func (s *stream) emit(from, to int, k graph.Kind) {
	if !s.poisoned {
		s.offered++
		s.incr.AddEdge(from, to, k)
	}
}

// placed emits what trace position p's writer, just learned, completes
// towards the positions before it: the ww from its predecessor, the rw
// of every read that stopped short of p and the wr to every read that
// ended on it.
func (s *stream) placed(ks *keyState, p int) {
	w := ks.writers
	if p > 0 && w[p-1] >= 0 {
		s.emit(w[p-1], w[p], graph.WW)
	}
	for i := *ks.group(p); i > 0; i = ks.reads[i-1].next {
		s.emit(ks.reads[i-1].index, w[p], graph.RW)
	}
	for i := *ks.group(p + 1); i > 0; i = ks.reads[i-1].next {
		s.emit(w[p], ks.reads[i-1].index, graph.WR)
	}
}

// file adds ks.reads[i], compatible with the trace, to its length's
// group and emits its edges to the writers already known; placed emits
// the rest as they become known.
func (s *stream) file(ks *keyState, i int) {
	r, w := &ks.reads[i], ks.writers
	n := len(r.list)
	head := ks.group(n)
	r.next, *head = *head, int32(i+1)
	if n > 0 && w[n-1] >= 0 {
		s.emit(w[n-1], r.index, graph.WR)
	}
	if n < len(w) && w[n] >= 0 {
		s.emit(r.index, w[n], graph.RW)
	}
}

// Ingest indexes one completion and surfaces its per-op findings
// (internal inconsistencies, duplicate elements, aborted reads, duplicate
// appends, incompatible orders) on the feed that proves them.
func (s *stream) Ingest(o op.Op, invoke int, out *workload.Findings) {
	a := s.a
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
			// incremental graph; they are no longer evidence. Past the
			// second attempt there is a writer left to evict only when
			// one op brought both.
			if es.attempts == 2 || p >= 0 && ks.writers[p] >= 0 {
				s.poisoned = true
			}
			if key := fmt.Sprintf("dup|%d|%d", k, m.Arg); !out.Emitted(key) {
				out.Emit(key, a.duplicateAppend(m.Key, m.Arg, ks.dups[m.Arg]))
			}
		case o.Type != op.Fail:
			// The writer of a position reads reached first. Its ww
			// successor is the one edge placed leaves to the later position.
			if w := ks.writers; p >= 0 {
				w[p] = o.Index
				s.placed(ks, p)
				if p+1 < len(w) && w[p+1] >= 0 {
					s.emit(w[p], w[p+1], graph.WW)
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
			s.ingestRead(o, m, out)
		}
	}
}

// ingestRead folds one committed read, filed by addOp, into its key's
// trace (see keyState.observe) and surfaces what it proves: duplicate
// elements, aborted reads, and incompatible orders as they become
// provable.
func (s *stream) ingestRead(o op.Op, m op.Mop, out *workload.Findings) {
	k := s.a.kid(m.Key)
	ks := s.a.keyst[k]
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
			g1aAnomaly(o, m.Key, m.List, e, s.a.op(w)))
	}
	switch change {
	case duplicated:
		return // not a clean read; contributes no version order
	case incompatible:
		lr := ks.longest
		out.Emit(fmt.Sprintf("incompat|%s|%d|%d", m.Key, o.Index, lr.index),
			incompatAnomaly(new(explain.Text), m.Key, o, r.list, s.a.op(lr.index), op.FormatList(lr.list)))
		return // and no edges
	case replaced:
		// Replacing the trace retracts the edges inferred from it, and
		// regroups the key's reads around the new one.
		s.poisoned = true
		out.Emit(fmt.Sprintf("incompat|%s|%d|%d", m.Key, old.index, o.Index),
			incompatAnomaly(new(explain.Text), m.Key, s.a.op(old.index), old.list, o, op.FormatList(r.list)))
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
			s.placed(ks, p)
		}
	}
	if change == replaced {
		for i := range ks.reads[:ri] {
			if op.IsPrefix(ks.reads[i].list, r.list) {
				s.file(ks, i)
			}
		}
	}
	s.file(ks, ri)
}

// Scan re-searches the components the edges emitted since the last scan
// dirtied.
func (s *stream) Scan(out *workload.Findings) {
	if s.poisoned {
		// Evidence was retracted since the last scan — a duplicate
		// append evicted a writer, or an incompatible read replaced a
		// trace — and the append-only graph would keep the stale edges
		// alive, seeding phantom provisional cycles. Rebuild it from
		// the current state, by the batch rules; only structurally broken
		// histories pay this, and the emitted-set keeps prior findings
		// from resurfacing.
		s.poisoned = false
		g := graph.New()
		for _, k := range s.a.tracedKeys() {
			ks := s.a.keyst[k]
			ks.index()
			keyEdges(ks, g.AddEdge)
		}
		s.incr = graph.NewIncr(g)
	}
	// A re-searched component mostly yields the witnesses it did before:
	// only a cycle not yet surfaced is worth an explanation, and the
	// explainer's version orders are built for the first such cycle.
	var expl *explain.Explainer
	for _, c := range s.incr.DirtyCycles(s.a.opts.Parallelism) {
		key := "cycle|" + graph.CycleKey(c)
		if out.Emitted(key) {
			continue
		}
		if expl == nil {
			expl = &explain.Explainer{Ops: s.a.ops, Keys: s.a.in, ListOrders: s.a.versionOrders()}
		}
		s.explained++
		out.Emit(key, anomaly.Anomaly{Type: anomaly.CycleType(c), Cycle: c, Explanation: expl.Cycle(c)})
	}
}

// Retire drops each quiescent key's one per-key state (element table,
// reads, trace, writers and read groups), then the graph region of the
// ops no live key pins any longer: nodes the session no longer resolves
// can gain no further edges from maintained state, and the scan just
// before searched and surfaced their components' witnesses.
func (s *stream) Retire(keys []history.KeyID) {
	a := s.a
	for _, k := range keys {
		// Keys only failed or unknown reads touched never got a state.
		if int(k) < len(a.keyst) {
			a.keyst[k] = nil
		}
	}
	s.incr.Retire(func(n int) bool { _, pinned := a.ops.Op(n); return pinned })
}

// Finish runs the shared phase sequence over the maintained state. The
// version orders are the maintained ones, and so is the graph unless
// evidence was retracted since the last scan: it holds exactly the edges
// keyEdges infers. The component index over it goes. The checks whose
// evidence is inherently global (garbage reads, G1a/G1b against the
// final writer index, dirty and lost updates) run over the whole history
// there, each read costing one comparison against its key's trace.
func (s *stream) Finish(h *history.History) workload.Analysis {
	var g *graph.Graph
	if !s.poisoned {
		g = s.incr.Graph()
	}
	s.incr = nil
	return s.a.finish(h, g)
}
