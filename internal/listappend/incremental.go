package listappend

import (
	"fmt"

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
// analyzer builds up front — the op/span maps, the per-element attempt
// and writer indices — plus the per-key version orders (the longest
// clean read, replaced only by a strictly longer one) and a per-key
// dependency-edge cache that is rebuilt only for keys the last chunk
// touched. A graph.Incr ingests the refreshed edges and yields the
// dirty components, which are re-searched for new cycle witnesses.
//
// Finish hands the maintained indices and per-key state to the same
// phase sequence Analyze runs (analyzer.finish), so its Analysis is
// byte-identical to Analyze over the concatenated chunks.
type session struct {
	a  *analyzer
	hs *history.Stream

	keyst  []*keyState     // per-key maintained state, indexed by KeyID
	keys   []history.KeyID // keys with clean reads, insertion order (sorted on demand)
	orders [][]int         // current version orders: longest clean read per key

	readersOf map[elemKey][]int // committed readers of each element, for late-abort G1a

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
		a:         newAnalyzer(opts, hs.Keys()),
		hs:        hs,
		readersOf: map[elemKey][]int{},
		incr:      graph.NewIncr(graph.KSDep),
		touched:   map[history.KeyID]bool{},
		emitted:   map[string]bool{},
	}
	if opts.MemoryBudget > 0 {
		hs.SetBudget(workload.StreamBudget(opts))
		s.rt = workload.NewKeyTracker(opts.MemoryBudget)
		s.a.windowed = true
	}
	return s
}

// keystAt reads the KeyID-indexed state slice, which grows on demand as
// the stream interns new keys.
func (s *session) keystAt(k history.KeyID) *keyState {
	if int(k) < len(s.keyst) {
		return s.keyst[k]
	}
	return nil
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
		ek := elemKey{k, m.Arg}
		switch len(a.attempts[ek]) {
		case 1:
			if o.Type == op.Fail {
				// Readers that already observed this element read state
				// that is now known to be aborted.
				for _, r := range s.readersOf[ek] {
					ro := a.ops[r]
					s.emit(d, fmt.Sprintf("g1a|%d|%d|%d|%d", ek.key, ek.elem, r, o.Index),
						g1aAnomaly(ro, m.Key, readListOf(ro, m.Key, ek.elem), ek.elem, o))
				}
			}
		case 2:
			// The evicted writer's edges may already be in the
			// incremental graph; they are no longer evidence.
			s.poisoned = true
			s.emit(d, fmt.Sprintf("dup|%d|%d", ek.key, ek.elem), anomaly.Anomaly{
				Type: anomaly.DuplicateAppends,
				Ops:  []op.Op{a.ops[a.attempts[ek][0]], o},
				Key:  m.Key,
				Explanation: fmt.Sprintf(
					"element %d was appended to key %s by %d distinct transactions; appends must be unique for versions to be recoverable",
					ek.elem, m.Key, len(a.attempts[ek])),
			})
		}
	}
	if o.Type != op.OK {
		return
	}

	// Per-op checks whose evidence is already complete.
	d.Anomalies = append(d.Anomalies, a.internalAnomalies(o)...)
	for _, m := range o.Mops {
		if !m.ListKnown() {
			continue
		}
		if dup, ok := duplicateElements(o, m); ok {
			d.Anomalies = append(d.Anomalies, dup)
		}
		k := a.kid(m.Key)
		for _, e := range m.List {
			ek := elemKey{k, e}
			s.readersOf[ek] = append(s.readersOf[ek], o.Index)
			if w, ok := a.failedWriter[ek]; ok {
				s.emit(d, fmt.Sprintf("g1a|%d|%d|%d|%d", ek.key, e, o.Index, w),
					g1aAnomaly(o, m.Key, m.List, e, a.ops[w]))
			}
		}
		if hasDuplicates(m.List) {
			continue // not a clean read; contributes no version order
		}
		s.ingestCleanRead(o, m, d)
	}
}

// ingestCleanRead folds one clean committed read into the key's
// maintained version order, surfacing incompatible orders as they
// become provable.
func (s *session) ingestCleanRead(o op.Op, m op.Mop, d *workload.Delta) {
	k := s.a.kid(m.Key)
	s.touched[k] = true
	s.keyst = history.GrowKeyed(s.keyst, k)
	s.orders = history.GrowKeyed(s.orders, k)
	ks := s.keyst[k]
	if ks == nil {
		ks = &keyState{}
		s.keyst[k] = ks
		s.keys = append(s.keys, k)
	}
	r := cleanRead{o, m.List}
	ks.reads = append(ks.reads, r)
	switch {
	case len(ks.reads) == 1:
		ks.longest = r
		s.orders[k] = m.List
	case len(m.List) > len(ks.longest.list):
		// The trace grows; the displaced read keeps its edges only if it
		// is a prefix of the new trace.
		if !op.IsPrefix(ks.longest.list, m.List) {
			// Replacing the trace retracts the edges inferred from it.
			s.poisoned = true
			old := ks.longest
			s.emit(d, fmt.Sprintf("incompat|%s|%d|%d", m.Key, old.o.Index, o.Index),
				incompatAnomaly(m.Key, old, r))
		}
		ks.longest = r
		s.orders[k] = m.List
	case !op.IsPrefix(m.List, ks.longest.list):
		s.emit(d, fmt.Sprintf("incompat|%s|%d|%d", m.Key, o.Index, ks.longest.o.Index),
			incompatAnomaly(m.Key, r, ks.longest))
	}
}

// scan syncs the edge caches of every touched key into the incremental
// graph and re-searches only the components the new edges dirtied.
func (s *session) scan(d *workload.Delta) {
	s.sinceScan = 0
	for _, k := range s.drainTouched() {
		ks := s.keystAt(k)
		if ks == nil {
			continue // appends without clean reads: no trace, no edges
		}
		ks.edges = s.a.keyEdges(k, ks.reads, s.orders[k])
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
			s.incr.AddEdges(s.keyst[k].edges)
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

// Finish completes the stream: it refreshes the edge caches of keys
// still pending since the last scan, then runs the shared phase
// sequence over the maintained indices. Only the checks whose evidence
// is inherently global (garbage reads, G1a/G1b against the final writer
// index, dirty and lost updates) run over the whole history there;
// version orders and dependency edges are the maintained ones.
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
	a := s.a
	a.h = s.hs.History()
	for k := range s.touched {
		if ks := s.keystAt(k); ks != nil {
			ks.edges = a.keyEdges(k, ks.reads, ks.longest.list)
		}
	}
	keys := append([]history.KeyID(nil), s.keys...)
	a.in.SortKeyIDs(keys)
	return a.finish(keys, s.keyst).workloadAnalysis(), nil
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
