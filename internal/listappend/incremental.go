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

// scanEvery is how many completions a session ingests between edge
// syncs and incremental cycle scans. Per-op anomalies (internal
// inconsistencies, duplicate elements, aborted reads, duplicate
// appends, incompatible orders) surface on the feed that proves them;
// cycle witnesses surface at the next scan point, so the per-feed cost
// of a hot key's edge rebuild is amortized over a batch of ops.
const scanEvery = 128

// session is the native incremental analysis for list-append histories
// (workload.Session). Across feeds it maintains every index the batch
// analyzer builds up front — the op/span maps and the per-key state:
// each key's element table, reads, and trace (replaced only by a
// strictly longer clean read), plus a per-key dependency-edge cache that
// is rebuilt only for keys the last chunk touched. A graph.Incr ingests
// the refreshed edges and yields the dirty components, which are
// re-searched for new cycle witnesses.
//
// Finish hands the maintained state to the same phase sequence Analyze
// runs (analyzer.finish), so its Analysis is byte-identical to Analyze
// over the concatenated chunks.
type session struct {
	a  *analyzer // a.keyst is the per-key maintained state
	hs *history.Stream

	keys   []history.KeyID // keys with a trace, insertion order (sorted on demand)
	orders [][]int         // current version orders: each key's trace

	incr      *graph.Incr
	touched   map[history.KeyID]bool // keys whose edge caches are stale
	emitted   map[string]bool        // mid-stream findings already surfaced
	poisoned  bool                   // evidence was retracted; rebuild incr at next scan
	sinceScan int
	done      bool

	// rt tracks key quiescence under a memory budget (nil without one);
	// see retire.go.
	rt *workload.KeyTracker
}

func beginSession(opts workload.Opts) workload.Session {
	hs := history.NewStream()
	s := &session{
		a:       newAnalyzer(opts, hs.Keys()),
		hs:      hs,
		incr:    graph.NewIncr(graph.KSDep),
		touched: map[history.KeyID]bool{},
		emitted: map[string]bool{},
	}
	if opts.MemoryBudget > 0 {
		hs.SetBudget(workload.StreamBudget(opts))
		s.rt = workload.NewKeyTracker(opts.MemoryBudget)
		s.a.windowed = true
	}
	return s
}

// Feed ingests one chunk, updating every maintained index, and returns
// the anomalies the chunk made provable (see workload.Delta for the
// provisional-findings contract).
func (s *session) Feed(ops []op.Op) (workload.Delta, error) {
	if s.done {
		return workload.Delta{}, workload.ErrSessionFinished
	}
	var d workload.Delta
	for _, o := range ops {
		if err := s.hs.Add(o); err != nil {
			return workload.Delta{}, err
		}
		if o.Type == op.Invoke {
			continue
		}
		s.sinceScan++
		s.ingest(o, &d)
	}
	if s.sinceScan >= scanEvery {
		s.scan(&d)
		if s.rt != nil {
			// Sweep after the scan: the dirty components the retiring ops
			// participated in have been searched, so their witnesses are
			// out before the state backing them goes.
			s.sweep()
		}
	}
	d.Ops = s.hs.Completions()
	return d, nil
}

// ingest indexes one completion and surfaces its per-op findings.
func (s *session) ingest(o op.Op, d *workload.Delta) {
	a := s.a
	a.addOp(o, s.hs.SpanOf(o.Index))
	s.note(o)

	for _, m := range o.Mops {
		if m.F != op.FAppend {
			continue
		}
		k := a.kid(m.Key)
		s.touched[k] = true
		ks := a.keyst[k]
		switch es := ks.find(m.Arg); es.attempts {
		case 1:
			if o.Type != op.Fail || !es.observed {
				break
			}
			// Readers that already observed this element read state that
			// is now known to be aborted: the key's reads holding it, in
			// ingestion order.
			if es.pos >= 0 {
				ks.aborted = append(ks.aborted, int(es.pos))
				slices.Sort(ks.aborted)
			}
			for _, r := range ks.reads {
				if slices.Contains(r.list, m.Arg) {
					s.emit(d, fmt.Sprintf("g1a|%d|%d|%d|%d", k, m.Arg, r.o.Index, o.Index),
						g1aAnomaly(r.o, m.Key, readListOf(r.o, m.Key, m.Arg), m.Arg, o))
				}
			}
		case 2:
			// The evicted writer's edges may already be in the
			// incremental graph; they are no longer evidence.
			s.poisoned = true
			s.emit(d, fmt.Sprintf("dup|%d|%d", k, m.Arg), anomaly.Anomaly{
				Type: anomaly.DuplicateAppends,
				Ops:  []op.Op{a.ops[es.first], o},
				Key:  m.Key,
				Explanation: fmt.Sprintf(
					"element %d was appended to key %s by %d distinct transactions; appends must be unique for versions to be recoverable",
					m.Arg, m.Key, es.attempts),
			})
		}
	}
	if o.Type != op.OK {
		return
	}

	// Per-op checks whose evidence is already complete.
	d.Anomalies = append(d.Anomalies, a.internalAnomalies(o)...)
	for _, m := range o.Mops {
		if m.ListKnown() {
			s.ingestRead(o, m, d)
		}
	}
}

// ingestRead folds one committed read into its key's trace (see
// keyState.observe) and surfaces what it proves: duplicate elements,
// aborted reads, and incompatible orders as they become provable.
func (s *session) ingestRead(o op.Op, m op.Mop, d *workload.Delta) {
	k := s.a.kid(m.Key)
	ks, r := s.a.addRead(o, m)
	old := ks.longest
	change := ks.observe(r)
	if change == duplicated {
		dup, _ := duplicateElements(o, m)
		d.Anomalies = append(d.Anomalies, dup)
	}
	// Suspects are only candidates (a second append since may have made
	// an aborted position unrecoverable): the table has the last word.
	for e := range ks.suspects(m.List) {
		if w, ok := ks.sole(e, true); ok {
			s.emit(d, fmt.Sprintf("g1a|%d|%d|%d|%d", k, e, o.Index, w),
				g1aAnomaly(o, m.Key, m.List, e, s.a.ops[w]))
		}
	}
	if change == duplicated {
		return // not a clean read; contributes no version order
	}
	s.touched[k] = true
	s.orders = history.GrowKeyed(s.orders, k)
	s.orders[k] = ks.longest.list
	switch {
	case old.list == nil:
		s.keys = append(s.keys, k)
	case change == replaced:
		// Replacing the trace retracts the edges inferred from it.
		s.poisoned = true
		s.emit(d, fmt.Sprintf("incompat|%s|%d|%d", m.Key, old.o.Index, o.Index),
			incompatAnomaly(m.Key, old, *r))
	case change == incompatible:
		s.emit(d, fmt.Sprintf("incompat|%s|%d|%d", m.Key, o.Index, ks.longest.o.Index),
			incompatAnomaly(m.Key, *r, ks.longest))
	}
}

// scan syncs the edge caches of every touched key into the incremental
// graph and re-searches only the components the new edges dirtied.
func (s *session) scan(d *workload.Delta) {
	s.sinceScan = 0
	for _, k := range s.drainTouched() {
		ks := s.a.keyst[k]
		ks.edges = keyEdges(ks)
		if !s.poisoned {
			s.incr.AddEdges(ks.edges)
		}
	}
	if s.poisoned {
		// Evidence was retracted since the last scan — a duplicate
		// append evicted a writer, or an incompatible read replaced a
		// trace — and the append-only graph would keep the stale edges
		// alive, seeding phantom provisional cycles. Rebuild it from
		// the current caches; only structurally broken histories pay
		// this, and the emitted-set keeps prior findings from
		// resurfacing.
		s.poisoned = false
		s.incr = graph.NewIncr(graph.KSDep)
		keys := append([]history.KeyID(nil), s.keys...)
		s.a.in.SortKeyIDs(keys)
		for _, k := range keys {
			s.incr.AddEdges(s.a.keyst[k].edges)
		}
	}
	dirty := s.incr.DirtySCCs()
	if len(dirty) == 0 {
		return
	}
	var nodes []int
	for _, scc := range dirty {
		nodes = append(nodes, scc...)
	}
	// Search the induced subgraph: walked from the dirty node list, so
	// the cost is O(edges incident to the dirty components), not O(graph).
	cycles := s.incr.Graph().Subgraph(nodes).AnomalousCycles(0, s.a.opts.Parallelism)
	if len(cycles) == 0 {
		return
	}
	expl := &explain.Explainer{Ops: s.a.ops, Keys: s.a.in, ListOrders: s.orders}
	for _, c := range cycles {
		s.emit(d, "cycle|"+graph.CycleKey(c), anomaly.Anomaly{
			Type:        anomaly.CycleType(c),
			Cycle:       c,
			Explanation: expl.Cycle(c),
		})
	}
}

func (s *session) drainTouched() []history.KeyID {
	keys := make([]history.KeyID, 0, len(s.touched))
	for k := range s.touched {
		keys = append(keys, k)
	}
	s.a.in.SortKeyIDs(keys)
	s.touched = map[history.KeyID]bool{}
	return keys
}

// emit surfaces one finding unless an earlier feed already did.
func (s *session) emit(d *workload.Delta, key string, an anomaly.Anomaly) {
	if s.emitted[key] {
		return
	}
	s.emitted[key] = true
	d.Anomalies = append(d.Anomalies, an)
}

// Finish completes the stream by running the shared phase sequence over
// the maintained state. The version orders are the maintained ones; the
// checks whose evidence is inherently global (garbage reads, G1a/G1b
// against the final writer index, dirty and lost updates) run over the
// whole history there, each read costing one comparison against its
// key's trace.
func (s *session) Finish() (workload.Analysis, error) {
	if s.done {
		return workload.Analysis{}, workload.ErrSessionFinished
	}
	s.done = true
	if err := s.hs.Err(); err != nil {
		// A chunk was rejected; finishing anyway would bless a history
		// the batch validator refuses.
		return workload.Analysis{}, err
	}
	if s.rt != nil {
		// Budgeted sessions retired analyzer state along the way, so the
		// maintained indices are windows, not the whole history. Rehydrate
		// the stream (History decodes every retired segment) and run the
		// batch analyzer over it, at the documented O(history) finish cost.
		return Analyze(s.hs.History(), s.a.opts).workloadAnalysis(), nil
	}
	s.a.h = s.hs.History()
	keys := append([]history.KeyID(nil), s.keys...)
	s.a.in.SortKeyIDs(keys)
	return s.a.finish(keys).workloadAnalysis(), nil
}

// History returns the session's validated accumulation; call after
// Finish (it aliases live state).
func (s *session) History() *history.History { return s.hs.History() }

// readListOf recovers the list value with which reader observed
// element elem of key — for the late-abort G1a path, where the read
// arrived before its writer's failure.
func readListOf(reader op.Op, key string, elem int) []int {
	for _, m := range reader.Mops {
		if !m.ListKnown() || m.Key != key {
			continue
		}
		for _, e := range m.List {
			if e == elem {
				return m.List
			}
		}
	}
	return nil
}
