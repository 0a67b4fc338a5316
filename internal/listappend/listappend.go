// Package listappend implements Elle's most powerful analysis (§3–§4 of
// the paper): inference of an Adya-style dependency graph from observed
// transactions over append-only lists.
//
// Lists are traceable: a read of [1 2 3] proves the object took on the
// versions [], [1], [1 2], [1 2 3] in exactly that order. When every
// appended element is unique, versions are also recoverable: each observed
// version maps to exactly one write in exactly one observed transaction.
// Together these let us reconstruct a prefix of the version order ≪x for
// every object from the longest committed read, and from it the
// write-write, write-read, and read-write dependencies of every
// transaction whose writes were observed.
//
// The analyzer also detects every non-cycle anomaly of §4.3.1 and §6.1:
// aborted reads (G1a), intermediate reads (G1b), dirty updates, garbage
// reads, duplicate writes, internal inconsistencies, and inconsistent
// observations (incompatible orders).
//
// Inference is embarrassingly parallel: version orders and dependency
// edges are per-key, and the per-transaction checks are independent per
// transaction. Analyze therefore fans both out across Opts.Parallelism
// workers, collecting results in index-addressed slots so the analysis —
// anomalies, their order, and the dependency graph — is byte-identical at
// every parallelism level.
package listappend

import (
	"fmt"
	"sort"

	"repro/internal/anomaly"
	"repro/internal/explain"
	"repro/internal/graph"
	"repro/internal/history"
	"repro/internal/op"
	"repro/internal/par"
	"repro/internal/rel"
	"repro/internal/workload"
)

// Analysis is the result of dependency inference over one history.
type Analysis struct {
	// Graph holds the inferred ww, wr, and rw edges (the IDSG of §4.3.2,
	// before process/real-time augmentation).
	Graph *graph.Graph
	// Anomalies are the non-cycle anomalies discovered during inference.
	Anomalies []anomaly.Anomaly
	// Keys is the history's key interner; VersionOrders is indexed by
	// its KeyIDs.
	Keys *history.Interner
	// VersionOrders holds, per KeyID, the inferred order of the key's
	// elements: the trace of the longest committed read, a prefix of ≪x.
	// The initial (empty) version is implicit; keys without clean reads
	// have a nil entry.
	VersionOrders [][]int
	// Ops indexes every analyzed completion op by op index.
	Ops map[int]op.Op
}

// VersionOrder returns the inferred element order for key, or nil.
func (a *Analysis) VersionOrder(key string) []int {
	id, ok := a.Keys.ID(key)
	if !ok || int(id) >= len(a.VersionOrders) {
		return nil
	}
	return a.VersionOrders[id]
}

type elemKey struct {
	key  history.KeyID
	elem int
}

// cleanRead is one committed read of a well-formed (duplicate-free) list
// value, the unit of per-key inference.
type cleanRead struct {
	o    op.Op
	list []int
}

// analyzer carries the indices built over one history. Per-key state is
// keyed by the history interner's dense KeyIDs (see history.Interner),
// so the hot inference loops hash small fixed-size structs, never key
// strings.
type analyzer struct {
	opts workload.Opts
	h    *history.History
	in   *history.Interner

	ops      map[int]op.Op // completion ops by index
	oks      []op.Op
	spanOf   map[int][2]int // op index -> [invoke index, complete index]
	attempts map[elemKey][]int
	// writer maps each recoverable element to the op index of the unique
	// non-aborted attempt that wrote it. Aborted writers are tracked
	// separately for G1a / dirty-update detection.
	writer       map[elemKey]int
	failedWriter map[elemKey]int
	anomalies    []anomaly.Anomaly

	// failedIx indexes failed_append(key, elem, writer) tuples — the
	// aborted writers — for the relational G1a scan, which probes it
	// in one lookup join over the whole history. Built once by
	// finishAnomalies; immutable thereafter.
	failedIx *rel.Index

	// windowed marks a memory-budgeted streaming session: oks is not
	// accumulated (it would grow with the history, and the budgeted
	// Finish re-analyzes the rehydrated history from scratch instead of
	// reading it).
	windowed bool
}

// newAnalyzer returns an analyzer with empty indices over the given
// interner (the history's in batch runs, the stream's in sessions); the
// history itself is attached by Analyze (batch) or at Finish (streaming
// sessions).
func newAnalyzer(opts workload.Opts, in *history.Interner) *analyzer {
	return &analyzer{
		opts:         opts,
		in:           in,
		ops:          map[int]op.Op{},
		spanOf:       map[int][2]int{},
		attempts:     map[elemKey][]int{},
		writer:       map[elemKey]int{},
		failedWriter: map[elemKey]int{},
	}
}

// kid resolves an interned key (see history.Interner.MustID).
func (a *analyzer) kid(k string) history.KeyID { return a.in.MustID(k) }

// keyState is one key's inference state: its clean reads in op order,
// the longest of them (whose trace is the key's version order), and the
// dependency edges the two imply. Analyze computes it for every key at
// once; a streaming session maintains it across feeds.
type keyState struct {
	reads   []cleanRead
	longest cleanRead
	edges   []graph.Edge
}

// Analyze infers the dependency graph and non-cycle anomalies for h.
// Of the shared options it consumes Parallelism and DetectLostUpdates
// (see workload.Opts).
func Analyze(h *history.History, opts workload.Opts) *Analysis {
	a := newAnalyzer(opts, h.Keys())
	a.h = h
	for pos, o := range h.Ops {
		if o.Type == op.Invoke {
			continue
		}
		inv, comp := h.Span(pos)
		a.addOp(o, [2]int{inv, comp})
	}
	// Per-key inference: the version order, then the dependency edges it
	// implies (§4.3.2) from the recoverable-writer index.
	keys, byKey := a.cleanReadsByKey()
	states := par.Map(opts.Parallelism, len(keys), func(i int) keyState {
		k := keys[i]
		longest := longestRead(byKey[k])
		return keyState{reads: byKey[k], longest: longest, edges: a.keyEdges(k, byKey[k], longest.list)}
	})
	keyst := make([]*keyState, a.in.Len())
	for i, k := range keys {
		keyst[k] = &states[i]
	}
	return a.finish(keys, keyst)
}

// finish is the analysis's one phase sequence, shared by the batch
// Analyze and the streaming session's Finish so the two agree by
// construction: over the indices addOp built and the per-key inference
// state (keys name-sorted, keyst indexed by KeyID) it runs the
// per-transaction checks, merges per-key findings and edges in key
// order, and ends with the checks that need the final write indices and
// version orders.
func (a *analyzer) finish(keys []history.KeyID, keyst []*keyState) *Analysis {
	p := a.opts.Parallelism
	a.anomalies = append(a.anomalies, a.duplicateAppendAnomalies()...)

	// Per-transaction checks: every committed op is validated against its
	// own reads and writes, and against the write indices, independently.
	a.collect(par.Map(p, len(a.oks), func(i int) []anomaly.Anomaly {
		return a.internalAnomalies(a.oks[i])
	}))
	a.collect(par.Map(p, len(a.oks), func(i int) []anomaly.Anomaly {
		return a.readStructureAnomalies(a.oks[i])
	}))
	a.collect(par.Map(p, len(keys), func(i int) []anomaly.Anomaly {
		ks := keyst[keys[i]]
		return a.incompatAnomalies(keys[i], ks.reads, ks.longest)
	}))

	// Every transaction that may have committed is a vertex, even if it
	// has no edges; cycle search ignores isolated vertices.
	g := graph.New()
	for _, o := range a.oks {
		g.Ensure(o.Index)
	}
	orders := make([][]int, a.in.Len())
	for _, k := range keys {
		orders[k] = keyst[k].longest.list
		g.AddEdges(keyst[k].edges)
	}

	a.finishAnomalies(keys, orders)
	return &Analysis{
		Graph:         g,
		Anomalies:     a.anomalies,
		Keys:          a.in,
		VersionOrders: orders,
		Ops:           a.ops,
	}
}

// workloadAnalysis is the registry-facing view of an Analysis.
func (an *Analysis) workloadAnalysis() workload.Analysis {
	return workload.Analysis{
		Graph:     an.Graph,
		Anomalies: an.Anomalies,
		Explainer: &explain.Explainer{Ops: an.Ops, Keys: an.Keys, ListOrders: an.VersionOrders},
	}
}

// finishAnomalies runs the checks that need the final write indices and
// version orders: G1a/G1b, dirty updates, lost updates.
func (a *analyzer) finishAnomalies(keys []history.KeyID, orders [][]int) {
	p := a.opts.Parallelism
	a.failedIx = rel.BuildIndex(a.failedAppends(), "key", "elem")
	a.anomalies = append(a.anomalies, a.abortedReadAnomalies()...)
	a.collect(par.Map(p, len(a.oks), func(i int) []anomaly.Anomaly {
		return a.intermediateReadAnomalies(a.oks[i])
	}))
	a.collect(par.Map(p, len(keys), func(i int) []anomaly.Anomaly {
		return a.dirtyUpdateAnomalies(keys[i], orders[keys[i]])
	}))
	if a.opts.DetectLostUpdates {
		a.checkLostUpdates(orders)
	}
}

func (a *analyzer) collect(groups [][]anomaly.Anomaly) {
	a.anomalies = anomaly.AppendGroups(a.anomalies, groups)
}

// addOp indexes one completion op: the op and span indices every check
// reads, and the per-element attempt index with its recoverability
// transitions — the first attempt on an element claims the writer slot,
// a second attempt destroys recoverability (§4.2.3) and evicts it.
// Ops must be added in ascending index order.
func (a *analyzer) addOp(o op.Op, span [2]int) {
	a.ops[o.Index] = o
	a.spanOf[o.Index] = span
	if o.Type == op.OK && !a.windowed {
		a.oks = append(a.oks, o)
	}
	for _, m := range o.Mops {
		if m.F != op.FAppend {
			continue
		}
		ek := elemKey{a.in.Intern(m.Key), m.Arg}
		a.attempts[ek] = append(a.attempts[ek], o.Index)
		switch len(a.attempts[ek]) {
		case 1:
			if o.Type == op.Fail {
				a.failedWriter[ek] = o.Index
			} else {
				a.writer[ek] = o.Index
			}
		case 2:
			delete(a.writer, ek)
			delete(a.failedWriter, ek)
		}
	}
}

// duplicateAppendAnomalies reports every element appended more than
// once, in sorted (key, element) order.
func (a *analyzer) duplicateAppendAnomalies() []anomaly.Anomaly {
	var keys []elemKey
	for ek, idxs := range a.attempts {
		if len(idxs) > 1 {
			keys = append(keys, ek)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].key != keys[j].key {
			return a.in.Less(keys[i].key, keys[j].key)
		}
		return keys[i].elem < keys[j].elem
	})
	var out []anomaly.Anomaly
	for _, ek := range keys {
		idxs := a.attempts[ek]
		sort.Ints(idxs)
		ops := make([]op.Op, len(idxs))
		for i, ix := range idxs {
			ops[i] = a.ops[ix]
		}
		kname := a.in.Key(ek.key)
		out = append(out, anomaly.Anomaly{
			Type: anomaly.DuplicateAppends,
			Ops:  ops,
			Key:  kname,
			Explanation: fmt.Sprintf(
				"element %d was appended to key %s by %d distinct transactions; appends must be unique for versions to be recoverable",
				ek.elem, kname, len(idxs)),
		})
	}
	return out
}

// readStructureAnomalies validates each committed read value of one
// transaction: no duplicate elements, and no garbage elements that were
// never appended by any attempted transaction.
func (a *analyzer) readStructureAnomalies(o op.Op) []anomaly.Anomaly {
	var out []anomaly.Anomaly
	for _, m := range o.Mops {
		if !m.ListKnown() {
			continue
		}
		if dup, ok := duplicateElements(o, m); ok {
			out = append(out, dup)
		}
		k := a.kid(m.Key)
		for _, e := range m.List {
			if !a.attempted(elemKey{k, e}) {
				out = append(out, anomaly.Anomaly{
					Type: anomaly.GarbageRead,
					Ops:  []op.Op{o},
					Key:  m.Key,
					Explanation: fmt.Sprintf(
						"%s read key %s as %s, but element %d was never appended by any transaction",
						o.Name(), m.Key, op.FormatList(m.List), e),
				})
				break
			}
		}
	}
	return out
}

// duplicateElements reports a read value containing the same element
// more than once — shared by readStructureAnomalies and the streaming
// session, whose evidence for it is complete the moment the read is
// observed.
func duplicateElements(o op.Op, m op.Mop) (anomaly.Anomaly, bool) {
	seen := make(map[int]bool, len(m.List))
	for _, e := range m.List {
		if seen[e] {
			return anomaly.Anomaly{
				Type: anomaly.DuplicateElements,
				Ops:  []op.Op{o},
				Key:  m.Key,
				Explanation: fmt.Sprintf(
					"%s read key %s as %s, which contains element %d more than once: some append was applied multiple times",
					o.Name(), m.Key, op.FormatList(m.List), e),
			}, true
		}
		seen[e] = true
	}
	return anomaly.Anomaly{}, false
}

// attempted reports whether any op (including unpaired invocations from
// crashed clients) tried to append ek.elem to ek.key.
func (a *analyzer) attempted(ek elemKey) bool {
	if len(a.attempts[ek]) > 0 {
		return true
	}
	kname := a.in.Key(ek.key)
	// Crashed clients leave an invoke with no completion; their appends
	// may still have taken effect and are not garbage.
	for _, o := range a.h.Ops {
		if o.Type != op.Invoke {
			continue
		}
		if _, done := a.ops[o.Index]; done {
			continue
		}
		for _, m := range o.Mops {
			if m.F == op.FAppend && m.Key == kname && m.Arg == ek.elem {
				return true
			}
		}
	}
	return false
}

// cleanReadsByKey groups every committed duplicate-free list read by
// key — a dense KeyID-indexed slice, preserving op order within each
// key — and returns the name-sorted list of keys with clean reads, the
// per-key work items of version-order and edge inference.
func (a *analyzer) cleanReadsByKey() ([]history.KeyID, [][]cleanRead) {
	byKey := make([][]cleanRead, a.in.Len())
	var keys []history.KeyID
	for _, o := range a.oks {
		for _, m := range o.Mops {
			if !m.ListKnown() || hasDuplicates(m.List) {
				continue
			}
			k := a.kid(m.Key)
			if len(byKey[k]) == 0 {
				keys = append(keys, k)
			}
			byKey[k] = append(byKey[k], cleanRead{o, m.List})
		}
	}
	a.in.SortKeyIDs(keys)
	return keys, byKey
}

// longestRead returns the first read of maximal length: its trace is
// the inferred version order ≪x of the key (§4.3.2). The streaming
// session maintains the same value across feeds by replacing only on a
// strictly longer read.
func longestRead(reads []cleanRead) cleanRead {
	longest := reads[0]
	for _, r := range reads[1:] {
		if len(r.list) > len(longest.list) {
			longest = r
		}
	}
	return longest
}

// incompatAnomalies reports incompatible orders against the longest
// read of key k: pairs of committed reads neither of which is a prefix
// of the other, which imply an aborted read in every interpretation
// (§4.3.1, "Inconsistent Observations").
func (a *analyzer) incompatAnomalies(k history.KeyID, reads []cleanRead, longest cleanRead) []anomaly.Anomaly {
	var out []anomaly.Anomaly
	kname := a.in.Key(k)
	for _, r := range reads {
		if !op.IsPrefix(r.list, longest.list) {
			out = append(out, incompatAnomaly(kname, r, longest))
		}
	}
	return out
}

// incompatAnomaly renders one incompatible-order finding; the streaming
// session uses the same rendering for mid-stream surfacing.
func incompatAnomaly(k string, r, longest cleanRead) anomaly.Anomaly {
	return anomaly.Anomaly{
		Type: anomaly.IncompatibleOrder,
		Ops:  []op.Op{r.o, longest.o},
		Key:  k,
		Explanation: fmt.Sprintf(
			"%s read key %s as %s but %s read it as %s; neither is a prefix of the other, so at least one observed an aborted version",
			r.o.Name(), k, op.FormatList(r.list),
			longest.o.Name(), op.FormatList(longest.list)),
	}
}

// keyEdges infers every dependency edge key k contributes.
func (a *analyzer) keyEdges(k history.KeyID, reads []cleanRead, elems []int) []graph.Edge {
	var out []graph.Edge
	// ww: consecutive recoverable writers along the version order.
	for i := 0; i+1 < len(elems); i++ {
		wi, oki := a.writer[elemKey{k, elems[i]}]
		wj, okj := a.writer[elemKey{k, elems[i+1]}]
		if oki && okj {
			out = append(out, graph.Edge{From: wi, To: wj, Kind: graph.WW})
		}
	}
	for _, r := range reads {
		if !op.IsPrefix(r.list, elems) {
			// Incompatible reads were already reported; don't let them
			// seed bogus edges.
			continue
		}
		// wr: the writer of the last element of the observed version
		// installed the version this read observed.
		if n := len(r.list); n > 0 {
			if w, ok := a.writer[elemKey{k, r.list[n-1]}]; ok {
				out = append(out, graph.Edge{From: w, To: r.o.Index, Kind: graph.WR})
			}
		}
		// rw: the writer of the next element in ≪x overwrote the
		// version this read observed.
		if len(r.list) < len(elems) {
			next := elems[len(r.list)]
			if w, ok := a.writer[elemKey{k, next}]; ok {
				out = append(out, graph.Edge{From: r.o.Index, To: w, Kind: graph.RW})
			}
		}
	}
	return out
}

// failedAppends is the relation failed_append(key, elem, writer): one
// tuple per recoverable element whose only writer aborted. Build order
// over the map is arbitrary, but every (key, elem) bucket holds exactly
// one tuple, so index probes are deterministic regardless.
func (a *analyzer) failedAppends() rel.Relation {
	fw := a.failedWriter
	return rel.NewRelation([]string{"key", "elem", "writer"}, func(yield func(rel.Tuple) bool) {
		t := make(rel.Tuple, 3)
		for ek, w := range fw {
			t[0], t[1], t[2] = rel.Int(int(ek.key)), rel.Int(ek.elem), rel.Int(w)
			if !yield(t) {
				return
			}
		}
	})
}

// allReadElems is the relation read_elem(key, elem, txn, mop) over
// every committed transaction: every element of every known list read,
// in transaction, program, and list order — the probe side of the
// relational G1a scan. One relation spans the whole history so the
// join pipeline is constructed once per analysis, not once per
// transaction.
func (a *analyzer) allReadElems() rel.Relation {
	return rel.NewRelation([]string{"key", "elem", "txn", "mop"}, func(yield func(rel.Tuple) bool) {
		t := make(rel.Tuple, 4)
		for oi, o := range a.oks {
			for pos, m := range o.Mops {
				if !m.ListKnown() {
					continue
				}
				k := rel.Int(int(a.kid(m.Key)))
				for _, e := range m.List {
					t[0], t[1], t[2], t[3] = k, rel.Int(e), rel.Int(oi), rel.Int(pos)
					if !yield(t) {
						return
					}
				}
			}
		}
	})
}

// abortedReadAnomalies finds G1a — reads of versions containing
// elements written by aborted transactions — in one relational pass
// over the whole history: read_elem(key, elem, txn, mop) ⋈ the
// prebuilt failed_append(key, elem, writer) index, each joined row one
// aborted read. The lookup join streams reads in
// transaction-then-program-and-list order, exactly the order the old
// per-transaction scans merged to, so the report is unchanged;
// evaluating the pipeline once instead of per transaction keeps its
// setup cost off the hot path.
func (a *analyzer) abortedReadAnomalies() []anomaly.Anomaly {
	if a.failedIx.Len() == 0 {
		// A lookup join against an empty failed_append index is empty
		// by definition.
		return nil
	}
	var out []anomaly.Anomaly
	a.allReadElems().LookupJoin(a.failedIx).Each(func(t rel.Tuple) bool {
		o := a.oks[t[2].Num()]
		m := o.Mops[t[3].Num()]
		out = append(out, g1aAnomaly(o, m.Key, m.List, int(t[1].Num()), a.ops[int(t[4].Num())]))
		return true
	})
	return out
}

// intermediateReadAnomalies finds G1b (reads whose final element was
// an intermediate write) for one committed transaction. Its sibling
// G1a scan runs once for the whole history in abortedReadAnomalies;
// the final report survives the split because classification
// stable-sorts by (severity, type), separating the two types however
// they interleave in the raw list.
func (a *analyzer) intermediateReadAnomalies(o op.Op) []anomaly.Anomaly {
	var out []anomaly.Anomaly
	for _, m := range o.Mops {
		if !m.ListKnown() {
			continue
		}
		k := a.kid(m.Key)
		if n := len(m.List); n > 0 {
			last := m.List[n-1]
			if w, ok := a.writer[elemKey{k, last}]; ok && w != o.Index {
				wo := a.ops[w]
				if finalAppend(wo, m.Key) != last {
					out = append(out, anomaly.Anomaly{
						Type: anomaly.G1b,
						Ops:  []op.Op{o, wo},
						Key:  m.Key,
						Explanation: fmt.Sprintf(
							"%s read key %s as %s, whose final element %d was an intermediate append of %s (its final append to %s was %d): an intermediate read",
							o.Name(), m.Key, op.FormatList(m.List), last, wo.Name(), m.Key, finalAppend(wo, m.Key)),
					})
				}
			}
		}
	}
	return out
}

// dirtyUpdateAnomalies reports dirty updates along key k's trace: an
// element from an aborted transaction followed by an element from a
// committed one means committed state incorporates aborted state (§4.1.5,
// "Via Traces").
func (a *analyzer) dirtyUpdateAnomalies(k history.KeyID, elems []int) []anomaly.Anomaly {
	var out []anomaly.Anomaly
	for i := 0; i+1 < len(elems); i++ {
		fw, failed := a.failedWriter[elemKey{k, elems[i]}]
		if !failed {
			continue
		}
		for j := i + 1; j < len(elems); j++ {
			if cw, ok := a.writer[elemKey{k, elems[j]}]; ok && a.ops[cw].Type == op.OK {
				kname := a.in.Key(k)
				out = append(out, anomaly.Anomaly{
					Type: anomaly.DirtyUpdate,
					Ops:  []op.Op{a.ops[fw], a.ops[cw]},
					Key:  kname,
					Explanation: fmt.Sprintf(
						"key %s's version history %s includes element %d from aborted %s, later built upon by committed %s: a dirty update",
						kname, op.FormatList(elems), elems[i], a.ops[fw].Name(), a.ops[cw].Name()),
				})
				break
			}
		}
	}
	return out
}

// checkLostUpdates reports committed appends that are absent from a
// longest read invoked strictly after the append's transaction
// completed. The per-key scan is relational: the key's committed
// appends, σ-filtered to those that completed before the long read was
// invoked, anti-joined (▷) against the elements the read observed —
// every surviving append is a lost update.
func (a *analyzer) checkLostUpdates(orders [][]int) {
	// Locate the longest read op per key (the one whose value is the
	// version order) and its invocation index. Both indices are dense
	// KeyID-indexed slices: by the time this runs (batch Analyze or a
	// session's Finish) the interner is complete.
	type longRead struct {
		o      op.Op
		invoke int
		elems  []int
		ok     bool
	}
	longReads := make([]longRead, a.in.Len())
	for _, o := range a.oks {
		for _, m := range o.Mops {
			if !m.ListKnown() {
				continue
			}
			k := a.kid(m.Key)
			elems := orders[k]
			if elems == nil || len(m.List) != len(elems) || !op.IsPrefix(m.List, elems) {
				continue
			}
			if longReads[k].ok {
				continue
			}
			longReads[k] = longRead{o: o, invoke: a.spanOf[o.Index][0], elems: elems, ok: true}
		}
	}
	// Index committed appends by key once; scanning all transactions per
	// key would make this check quadratic in history length.
	type keyAppend struct {
		o         op.Op
		elem      int
		completed int
	}
	appendsByKey := make([][]keyAppend, a.in.Len())
	for _, w := range a.oks {
		for _, m := range w.Mops {
			if m.F == op.FAppend {
				k := a.kid(m.Key)
				appendsByKey[k] = append(appendsByKey[k],
					keyAppend{o: w, elem: m.Arg, completed: a.spanOf[w.Index][1]})
			}
		}
	}
	var keys []history.KeyID
	for k := range longReads {
		if longReads[k].ok {
			keys = append(keys, history.KeyID(k))
		}
	}
	a.in.SortKeyIDs(keys)
	a.collect(par.Map(a.opts.Parallelism, len(keys), func(i int) []anomaly.Anomaly {
		k := keys[i]
		kname := a.in.Key(k)
		lr := longReads[k]
		kas := appendsByKey[k]

		// observed(elem): the elements of the long read's value.
		observedIx := rel.BuildIndex(rel.NewRelation([]string{"elem"},
			func(yield func(rel.Tuple) bool) {
				t := make(rel.Tuple, 1)
				for _, e := range lr.elems {
					t[0] = rel.Int(e)
					if !yield(t) {
						return
					}
				}
			}), "elem")
		// committed_append(pos, elem, completed, txn) for this key, in
		// completion order.
		appends := rel.NewRelation([]string{"pos", "elem", "completed", "txn"},
			func(yield func(rel.Tuple) bool) {
				t := make(rel.Tuple, 4)
				for pos, ka := range kas {
					t[0], t[1], t[2], t[3] = rel.Int(pos), rel.Int(ka.elem), rel.Int(ka.completed), rel.Int(ka.o.Index)
					if !yield(t) {
						return
					}
				}
			})

		var out []anomaly.Anomaly
		appends.
			Select(func(t rel.Tuple) bool {
				return int(t[3].Num()) != lr.o.Index && int(t[2].Num()) < lr.invoke
			}).
			AntiJoin(observedIx).
			Each(func(t rel.Tuple) bool {
				ka := kas[t[0].Num()]
				out = append(out, anomaly.Anomaly{
					Type: anomaly.LostUpdate,
					Ops:  []op.Op{ka.o, lr.o},
					Key:  kname,
					Explanation: fmt.Sprintf(
						"%s committed an append of %d to key %s before %s began, yet %s read %s without it: the update was lost",
						ka.o.Name(), ka.elem, kname, lr.o.Name(), lr.o.Name(), op.FormatList(lr.o.Mops[readPos(lr.o, kname)].List)),
				})
				return true
			})
		return out
	}))
}

// g1aAnomaly renders one aborted-read finding: reader observed list for
// key, whose element e was appended by the aborted writer. The
// streaming session uses the same rendering for mid-stream surfacing.
func g1aAnomaly(reader op.Op, key string, list []int, e int, writer op.Op) anomaly.Anomaly {
	return anomaly.Anomaly{
		Type: anomaly.G1a,
		Ops:  []op.Op{reader, writer},
		Key:  key,
		Explanation: fmt.Sprintf(
			"%s read key %s as %s, but element %d was appended by %s, which aborted: an aborted read",
			reader.Name(), key, op.FormatList(list), e, writer.Name()),
	}
}

func readPos(o op.Op, key string) int {
	for i, m := range o.Mops {
		if m.F == op.FRead && m.Key == key && m.List != nil {
			return i
		}
	}
	return 0
}

// finalAppend returns the last element o appended to key, or the zero
// value if o never appended to key.
func finalAppend(o op.Op, key string) int {
	last := 0
	for _, m := range o.Mops {
		if m.F == op.FAppend && m.Key == key {
			last = m.Arg
		}
	}
	return last
}

func hasDuplicates(v []int) bool {
	seen := make(map[int]bool, len(v))
	for _, e := range v {
		if seen[e] {
			return true
		}
		seen[e] = true
	}
	return false
}
