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
	"iter"
	"maps"
	"slices"

	"repro/internal/anomaly"
	"repro/internal/explain"
	"repro/internal/graph"
	"repro/internal/history"
	"repro/internal/op"
	"repro/internal/par"
	"repro/internal/workload"
)

// keyRead is one committed read of a known list value, filed under its
// key in op order. It names its op by index: a finding resolves it
// through the analyzer's op lookup when it renders.
type keyRead struct {
	index  int // the reading op's
	invoke int // index of its invocation
	list   []int
	dup    bool  // the value repeats an element: it contributes no version order
	next   int32 // a session's chain of same-length compatible reads (keyState.byLen)
}

// analyzer carries the indices built over one history. Everything known
// about a key — its element table, its reads, its trace — lives in one
// keyState indexed by the history interner's dense KeyID (see
// history.Interner), so the hot inference loops hash small ints within
// one key, never key strings or (key, element) pairs.
type analyzer struct {
	opts workload.Opts
	in   *history.Interner

	ops       history.Lookup   // the ops findings cite: the history, or a session's
	h         *history.History // the whole history, once finish has it
	oks       []int32          // positions in h.Ops of the committed ops, likewise
	keyst     []*keyState      // per-key state by KeyID; nil for keys never appended to or read
	anomalies []anomaly.Anomaly
}

// op is the completion op with index i.
func (a *analyzer) op(i int) op.Op {
	o, _ := a.ops.Op(i)
	return o
}

// ok is the i'th committed op, once finish has the whole history.
func (a *analyzer) ok(i int) op.Op { return a.h.Ops[a.oks[i]] }

// kid resolves an interned key (see history.Interner.MustID).
func (a *analyzer) kid(k string) history.KeyID { return a.in.MustID(k) }

// key returns k's state, creating it on first use.
func (a *analyzer) key(k history.KeyID) *keyState {
	a.keyst = history.GrowKeyed(a.keyst, k)
	if a.keyst[k] == nil {
		a.keyst[k] = &keyState{ix: map[int]int32{}}
	}
	return a.keyst[k]
}

// elemState is one row of a key's element table: who tried to append
// the element, and where the key's reads saw it.
type elemState struct {
	elem     int
	first    int   // op index of the first completed attempt, once attempts > 0
	attempts int32 // completed append attempts; exactly one keeps it recoverable (§4.2.3)
	pos      int32 // position in the key's trace, -1 while the trace lacks it
	failed   bool  // the first attempt aborted
	observed bool  // some committed read contained it
	crashed  bool  // an invocation that never completed tried to append it
}

// attempted reports whether anyone — crashed clients included, whose
// appends may still have taken effect — tried to append the element.
func (es *elemState) attempted() bool {
	return es != nil && (es.attempts > 0 || es.crashed)
}

// keyState is one key's inference state: its element table, its
// committed reads in op order, the trace — the first duplicate-free read
// of maximal length, whose value is the key's version order — and what
// the two imply. Almost every read of a key is a prefix of its trace
// (§3, traceability), so element-level facts are computed once per trace
// position and shared by every read that compares as a prefix; only the
// others are examined element by element. Analyze builds it for every
// key at once; a streaming session maintains it across feeds.
type keyState struct {
	ix   map[int]int32 // element -> row of tab
	tab  []elemState
	dups map[int][]int // every attempt on an element appended more than once

	reads   []keyRead
	folded  int     // reads a streaming session has folded into the trace so far
	longest keyRead // the trace; longest.list is nil until a clean read exists

	// Per trace position, rebuilt by index from the element table: the
	// recoverable writer's op index or -1 (a session keeps it current
	// between rebuilds, to emit each edge as its writer becomes known);
	// the ascending positions whose only writer aborted (a session also
	// grows it between rebuilds, so entries are re-verified against the
	// table before use); the first position nobody attempted to append,
	// len(trace) if none.
	writers []int
	aborted []int
	garbage int

	// A session's compatible reads grouped by length: byLen[n] is 1 + the
	// index in reads of the newest one of length n, chained through
	// keyRead.next; 0 ends a chain.
	byLen []int32
}

// group returns the head of the chain of compatible reads of length n.
func (ks *keyState) group(n int) *int32 {
	for len(ks.byLen) <= n {
		ks.byLen = append(ks.byLen, 0)
	}
	return &ks.byLen[n]
}

// find returns e's row, or nil if the key has never met e. The pointer
// is valid until the next elem call.
func (ks *keyState) find(e int) *elemState {
	if i, ok := ks.ix[e]; ok {
		return &ks.tab[i]
	}
	return nil
}

// elem returns e's row, adding it on first sight.
func (ks *keyState) elem(e int) *elemState {
	i, ok := ks.ix[e]
	if !ok {
		i = int32(len(ks.tab))
		ks.ix[e] = i
		ks.tab = append(ks.tab, elemState{elem: e, pos: -1})
	}
	return &ks.tab[i]
}

// sole returns the op index of e's only attempt when there is exactly
// one and it aborted (failed) or did not (!failed): the element's
// recoverable writer, tracked apart by outcome for G1a and dirty-update
// detection.
func (ks *keyState) sole(e int, failed bool) (int, bool) {
	if es := ks.find(e); es != nil && es.attempts == 1 && es.failed == failed {
		return es.first, true
	}
	return 0, false
}

// traceChange is what one read did to its key's trace.
type traceChange int

const (
	compatible   traceChange = iota // a prefix of the trace: nothing new
	extended                        // the trace, plus new elements: it becomes the trace
	replaced                        // clean and longer, but not an extension: it displaces the trace
	incompatible                    // clean, neither a prefix of the trace nor longer
	duplicated                      // repeats an element
)

// observe folds r, the key's newest read, into the trace. A prefix of
// the trace costs one comparison; an extension is duplicate-checked
// against the element table over its new suffix only; anything else is
// examined element by element. Replacing the trace only on a strictly
// longer clean read keeps it the first clean read of maximal length.
func (ks *keyState) observe(r *keyRead) traceChange {
	trace := ks.longest.list
	if trace != nil && op.IsPrefix(r.list, trace) {
		return compatible
	}
	grows := op.IsPrefix(trace, r.list)
	if grows && ks.extend(r.list, len(trace)) {
		ks.longest = *r
		return extended
	}
	for _, e := range r.list {
		ks.elem(e).observed = true
	}
	switch {
	case grows || hasDuplicates(r.list): // an extension that failed repeats an element
		r.dup = true
		return duplicated
	case len(r.list) <= len(trace):
		return incompatible
	}
	for _, e := range trace {
		ks.elem(e).pos = -1
	}
	ks.aborted = ks.aborted[:0]
	ks.extend(r.list, 0)
	ks.longest = *r
	return replaced
}

// extend gives list[from:] — the part of a new trace beyond the old —
// its trace positions, and reports whether those elements are distinct
// from the trace and from each other. On a repeat it changes nothing.
func (ks *keyState) extend(list []int, from int) bool {
	aborted := len(ks.aborted)
	for p := from; p < len(list); p++ {
		es := ks.elem(list[p])
		if es.pos >= 0 {
			for _, e := range list[from:p] {
				ks.elem(e).pos = -1
			}
			ks.aborted = ks.aborted[:aborted]
			return false
		}
		es.pos, es.observed = int32(p), true
		if es.attempts == 1 && es.failed {
			ks.aborted = append(ks.aborted, p)
		}
	}
	return true
}

// index rebuilds the per-position facts from the element table: one
// probe per trace element, however many reads share them.
func (ks *keyState) index() {
	trace := ks.longest.list
	ks.writers, ks.aborted, ks.garbage = ks.writers[:0], ks.aborted[:0], len(trace)
	for p, e := range trace {
		es, w := ks.find(e), -1
		switch {
		case es.attempts == 1 && es.failed:
			ks.aborted = append(ks.aborted, p)
		case es.attempts == 1:
			w = es.first
		case !es.attempted() && ks.garbage == len(trace):
			ks.garbage = p
		}
		ks.writers = append(ks.writers, w)
	}
}

// abortedReads yields, in list order, each element of list — a committed
// read of the key — whose only append attempt aborted, with that
// attempt's op index: an aborted read (G1a). In a prefix of the trace
// only the trace's aborted positions can qualify; any other read is
// examined element by element. Either way the table has the last word:
// a session grows ks.aborted between rebuilds, and a second append may
// since have made a position unrecoverable.
func (ks *keyState) abortedReads(list []int) iter.Seq2[int, int] {
	return func(yield func(e, w int) bool) {
		check := func(e int) bool {
			w, ok := ks.sole(e, true)
			return !ok || yield(e, w)
		}
		if !op.IsPrefix(list, ks.longest.list) {
			for _, e := range list {
				if !check(e) {
					return
				}
			}
			return
		}
		for _, p := range ks.aborted {
			if p >= len(list) || !check(list[p]) {
				return
			}
		}
	}
}

// Analyze infers the dependency graph and non-cycle anomalies for h.
// Of the shared options it consumes Parallelism and DetectLostUpdates
// (see workload.Opts).
func Analyze(h *history.History, opts workload.Opts) workload.Analysis {
	a := &analyzer{opts: opts, in: h.Keys(), ops: h}
	for pos, o := range h.Ops {
		if o.Type != op.Invoke {
			inv, _ := h.Span(pos)
			a.addOp(o, inv)
		}
	}
	// Per-key inference: each key's reads fold into its trace, the
	// version order (§4.3.2).
	par.Do(opts.Parallelism, len(a.keyst), func(k int) {
		if ks := a.keyst[k]; ks != nil {
			for i := range ks.reads {
				ks.observe(&ks.reads[i])
			}
		}
	})
	return a.finish(h)
}

// versionOrders returns each key's trace, indexed by KeyID: the version
// orders (§4.3.2). A key without a trace has none.
func (a *analyzer) versionOrders() [][]int {
	orders := make([][]int, a.in.Len())
	for k, ks := range a.keyst {
		if ks != nil {
			orders[k] = ks.longest.list
		}
	}
	return orders
}

// tracedKeys names the keys with a trace, in name order.
func (a *analyzer) tracedKeys() []history.KeyID {
	var keys []history.KeyID
	for k, ks := range a.keyst {
		if ks != nil && ks.longest.list != nil {
			keys = append(keys, history.KeyID(k))
		}
	}
	a.in.SortKeyIDs(keys)
	return keys
}

// finish is the analysis's one phase sequence, shared by the batch
// Analyze and the streaming session's Finish so the two agree by
// construction: over the per-key state addOp and observe built it derives
// each traced key's per-position facts, runs the per-transaction checks,
// feeds each key's dependency edges straight into the graph in key-name
// order, and ends with the checks that need the final write indices and
// version orders. The per-key state is complete before the first
// per-transaction fan-out and immutable from then on.
func (a *analyzer) finish(h *history.History) workload.Analysis {
	p, keys := a.opts.Parallelism, a.tracedKeys()
	a.ops, a.h, a.oks = h, h, h.OKPositions()
	a.markCrashed(h)
	par.Do(p, len(keys), func(i int) { a.keyst[keys[i]].index() })
	a.anomalies = append(a.anomalies, a.duplicateAppendAnomalies()...)

	// Per-transaction checks: every committed op is validated against its
	// own reads and writes, and against the write indices, independently.
	a.collect(par.Map(p, len(a.oks), func(i int) []anomaly.Anomaly {
		return a.internalAnomalies(a.ok(i))
	}))
	a.collect(par.Map(p, len(a.oks), func(i int) []anomaly.Anomaly {
		return a.readStructureAnomalies(a.ok(i))
	}))
	a.collect(par.Map(p, len(keys), func(i int) []anomaly.Anomaly {
		return a.incompatAnomalies(keys[i])
	}))

	// Every transaction that may have committed is a vertex, even if it
	// has no edges; cycle search ignores isolated vertices.
	g := graph.New()
	for i := range a.oks {
		g.Ensure(a.ok(i).Index)
	}
	for _, k := range keys {
		keyEdges(a.keyst[k], g.AddEdge)
	}

	a.finishAnomalies(keys)
	return workload.Analysis{
		Graph:     g,
		Anomalies: a.anomalies,
		Explainer: &explain.Explainer{Ops: h, Keys: a.in, ListOrders: a.versionOrders()},
	}
}

// finishAnomalies runs the checks that need the final write indices and
// version orders: G1a/G1b, dirty updates, lost updates.
func (a *analyzer) finishAnomalies(keys []history.KeyID) {
	p := a.opts.Parallelism
	a.anomalies = append(a.anomalies, a.abortedReadAnomalies()...)
	a.collect(par.Map(p, len(a.oks), func(i int) []anomaly.Anomaly {
		return a.intermediateReadAnomalies(a.ok(i))
	}))
	a.collect(par.Map(p, len(keys), func(i int) []anomaly.Anomaly {
		return a.dirtyUpdateAnomalies(keys[i])
	}))
	if a.opts.DetectLostUpdates {
		a.checkLostUpdates(keys)
	}
}

func (a *analyzer) collect(groups [][]anomaly.Anomaly) {
	a.anomalies = anomaly.AppendGroups(a.anomalies, groups)
}

// addOp indexes one completion op: each committed read of a known list
// value filed under its key, and each appended element's row in its
// key's table with its recoverability transitions — the first attempt on
// an element is its writer, a second destroys recoverability (§4.2.3).
// Ops must be added in ascending index order; invoke is the index of o's
// invocation.
func (a *analyzer) addOp(o op.Op, invoke int) {
	for _, m := range o.Mops {
		if o.Type == op.OK && m.ListKnown() {
			ks := a.key(a.kid(m.Key))
			ks.reads = append(ks.reads, keyRead{index: o.Index, invoke: invoke, list: m.List})
		}
		if m.F != op.FAppend {
			continue
		}
		ks := a.key(a.in.Intern(m.Key))
		es := ks.elem(m.Arg)
		if es.attempts++; es.attempts == 1 {
			es.first, es.failed = o.Index, o.Type == op.Fail
			continue
		}
		// Only a repeated element keeps its full attempt list.
		if ks.dups == nil {
			ks.dups = map[int][]int{}
		}
		if es.attempts == 2 {
			ks.dups[m.Arg] = []int{es.first}
		}
		ks.dups[m.Arg] = append(ks.dups[m.Arg], o.Index)
	}
}

// markCrashed records the appends of invocations that never completed.
// Crashed clients leave an invoke with no completion; their appends may
// still have taken effect and are not garbage.
func (a *analyzer) markCrashed(h *history.History) {
	for _, o := range h.Crashed() {
		for _, m := range o.Mops {
			if m.F == op.FAppend {
				a.key(a.kid(m.Key)).elem(m.Arg).crashed = true
			}
		}
	}
}

// duplicateAppendAnomalies reports every element appended more than
// once, in sorted (key, element) order.
func (a *analyzer) duplicateAppendAnomalies() []anomaly.Anomaly {
	var keys []history.KeyID
	for k, ks := range a.keyst {
		if ks != nil && len(ks.dups) > 0 {
			keys = append(keys, history.KeyID(k))
		}
	}
	a.in.SortKeyIDs(keys)
	var out []anomaly.Anomaly
	for _, k := range keys {
		dups, kname := a.keyst[k].dups, a.in.Key(k)
		for _, e := range slices.Sorted(maps.Keys(dups)) {
			out = append(out, a.duplicateAppend(kname, e, dups[e]))
		}
	}
	return out
}

// duplicateAppend renders the finding for element e of key k, given its
// append attempts' op indices in ascending order. It cites and counts
// each transaction once, however many times that transaction appended e.
// The streaming session uses the same rendering for mid-stream
// surfacing.
func (a *analyzer) duplicateAppend(k string, e int, attempts []int) anomaly.Anomaly {
	var ops []op.Op
	for i, ix := range attempts {
		if i == 0 || ix != attempts[i-1] {
			ops = append(ops, a.op(ix))
		}
	}
	by := fmt.Sprintf("by %d distinct transactions", len(ops))
	if len(ops) == 1 {
		by = "more than once by one transaction"
	}
	return anomaly.Anomaly{
		Type: anomaly.DuplicateAppends,
		Ops:  ops,
		Key:  k,
		Explanation: fmt.Sprintf(
			"element %d was appended to key %s %s; appends must be unique for versions to be recoverable",
			e, k, by),
	}
}

// readStructureAnomalies validates each committed read value of one
// transaction: no duplicate elements, and no garbage elements that were
// never appended by any attempted transaction. A prefix of its key's
// trace repeats nothing and holds a never-appended element exactly
// where the trace does; only other reads are scanned.
func (a *analyzer) readStructureAnomalies(o op.Op) []anomaly.Anomaly {
	var out []anomaly.Anomaly
	for _, m := range o.Mops {
		if !m.ListKnown() {
			continue
		}
		ks := a.keyst[a.kid(m.Key)]
		garbage := len(m.List) // position of the first never-appended element
		if op.IsPrefix(m.List, ks.longest.list) {
			garbage = min(garbage, ks.garbage)
		} else {
			if dup, ok := duplicateElements(o, m); ok {
				out = append(out, dup)
			}
			for i, e := range m.List {
				if !ks.find(e).attempted() {
					garbage = i
					break
				}
			}
		}
		if garbage < len(m.List) {
			out = append(out, anomaly.Anomaly{
				Type: anomaly.GarbageRead,
				Ops:  []op.Op{o},
				Key:  m.Key,
				Explanation: fmt.Sprintf(
					"%s read key %s as %s, but element %d was never appended by any transaction",
					o.Name(), m.Key, op.FormatList(m.List), m.List[garbage]),
			})
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

// incompatAnomalies reports incompatible orders against key k's trace:
// pairs of committed reads neither of which is a prefix of the other,
// which imply an aborted read in every interpretation (§4.3.1,
// "Inconsistent Observations").
func (a *analyzer) incompatAnomalies(k history.KeyID) []anomaly.Anomaly {
	var out []anomaly.Anomaly
	var buf explain.Text
	ks, kname := a.keyst[k], a.in.Key(k)
	trace := "" // rendered once, for the key's first finding
	for _, r := range ks.reads {
		if !r.dup && !op.IsPrefix(r.list, ks.longest.list) {
			if trace == "" {
				trace = op.FormatList(ks.longest.list)
			}
			out = append(out, incompatAnomaly(&buf, kname, a.op(r.index), r.list, a.op(ks.longest.index), trace))
		}
	}
	return out
}

// incompatAnomaly renders one incompatible-order finding: reader's read
// of k as list against the trace, read by holder, whose value trace
// renders. buf is scratch the caller may reuse across findings. The
// streaming session uses the same rendering for mid-stream surfacing.
func incompatAnomaly(buf *explain.Text, k string, reader op.Op, list []int, holder op.Op, trace string) anomaly.Anomaly {
	*buf = (*buf)[:0].Name(reader.Index).Str(" read key ").Str(k).Str(" as ").List(list).
		Str(" but ").Name(holder.Index).Str(" read it as ").Str(trace).
		Str("; neither is a prefix of the other, so at least one observed an aborted version")
	return anomaly.Anomaly{
		Type:        anomaly.IncompatibleOrder,
		Ops:         []op.Op{reader, holder},
		Key:         k,
		Explanation: string(*buf),
	}
}

// keyEdges is the edge rule: it passes add every dependency edge key
// ks contributes, read off the per-position facts index last rebuilt.
// add is where the edges go — the graph itself, in finish and in a
// session's rebuild — so no key holds a list of them.
func keyEdges(ks *keyState, add func(from, to int, k graph.Kind)) {
	w := ks.writers
	// ww: consecutive recoverable writers along the version order.
	for i := 0; i+1 < len(w); i++ {
		if w[i] >= 0 && w[i+1] >= 0 {
			add(w[i], w[i+1], graph.WW)
		}
	}
	for _, r := range ks.reads {
		n := len(r.list)
		if !op.IsPrefix(r.list, ks.longest.list) {
			// Incompatible reads were already reported; don't let them
			// seed bogus edges.
			continue
		}
		// wr: the writer of the last element of the observed version
		// installed the version this read observed.
		if n > 0 && w[n-1] >= 0 {
			add(w[n-1], r.index, graph.WR)
		}
		// rw: the writer of the next element in ≪x overwrote the
		// version this read observed.
		if n < len(w) && w[n] >= 0 {
			add(r.index, w[n], graph.RW)
		}
	}
}

// abortedReadAnomalies finds G1a — reads of versions containing
// elements written by aborted transactions — in transaction, then
// program and list order.
func (a *analyzer) abortedReadAnomalies() []anomaly.Anomaly {
	var out []anomaly.Anomaly
	for i := range a.oks {
		o := a.ok(i)
		for _, m := range o.Mops {
			if !m.ListKnown() {
				continue
			}
			for e, w := range a.keyst[a.kid(m.Key)].abortedReads(m.List) {
				out = append(out, g1aAnomaly(o, m.Key, m.List, e, a.op(w)))
			}
		}
	}
	return out
}

// intermediateReadAnomalies finds G1b (reads whose final element was
// an intermediate write) for one committed transaction. G1a is
// abortedReadAnomalies' pass; classification stable-sorts by (severity,
// type), so the report separates the two however they interleave in the
// raw list.
func (a *analyzer) intermediateReadAnomalies(o op.Op) []anomaly.Anomaly {
	var out []anomaly.Anomaly
	for _, m := range o.Mops {
		if !m.ListKnown() {
			continue
		}
		if n := len(m.List); n > 0 {
			last := m.List[n-1]
			if w, ok := a.keyst[a.kid(m.Key)].sole(last, false); ok && w != o.Index {
				wo := a.op(w)
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
func (a *analyzer) dirtyUpdateAnomalies(k history.KeyID) []anomaly.Anomaly {
	var out []anomaly.Anomaly
	var buf explain.Text
	ks := a.keyst[k]
	elems := ks.longest.list
	trace := "" // rendered once, for the key's first finding
	for _, i := range ks.aborted {
		fw, _ := ks.sole(elems[i], true)
		for _, cw := range ks.writers[i+1:] {
			if cw >= 0 && a.op(cw).Type == op.OK {
				kname := a.in.Key(k)
				if trace == "" {
					trace = op.FormatList(elems)
				}
				buf = buf[:0].Str("key ").Str(kname).Str("'s version history ").Str(trace).
					Str(" includes element ").Int(elems[i]).Str(" from aborted ").Name(a.op(fw).Index).
					Str(", later built upon by committed ").Name(a.op(cw).Index).Str(": a dirty update")
				out = append(out, anomaly.Anomaly{
					Type:        anomaly.DirtyUpdate,
					Ops:         []op.Op{a.op(fw), a.op(cw)},
					Key:         kname,
					Explanation: string(buf),
				})
				break
			}
		}
	}
	return out
}

// checkLostUpdates reports committed appends that are absent from a
// longest read invoked strictly after the append's transaction
// completed, per key in completion order.
func (a *analyzer) checkLostUpdates(keys []history.KeyID) {
	// Index committed appends by key once; scanning all transactions per
	// key would make this check quadratic in history length. The index is
	// one slice in KeyID order, op order within a key — key k's appends
	// are appends[start[k]:start[k+1]] — filled by a counting sort rather
	// than grown key by key: by the time this runs (batch Analyze or a
	// session's Finish) the interner is complete.
	type keyAppend struct {
		index int // the appending op's
		elem  int
	}
	start := make([]int, a.in.Len()+1)
	var kids []history.KeyID // each committed append's key, in op order
	for _, pos := range a.oks {
		for _, m := range a.h.Ops[pos].Mops {
			if m.F == op.FAppend {
				k := a.kid(m.Key)
				kids = append(kids, k)
				start[k+1]++
			}
		}
	}
	for k := 1; k < len(start); k++ {
		start[k] += start[k-1]
	}
	appends, next := make([]keyAppend, len(kids)), slices.Clone(start)
	i := 0
	for _, pos := range a.oks {
		w := &a.h.Ops[pos]
		for _, m := range w.Mops {
			if m.F == op.FAppend {
				k := kids[i]
				appends[next[k]] = keyAppend{index: w.Index, elem: m.Arg}
				next[k]++
				i++
			}
		}
	}
	a.collect(par.Map(a.opts.Parallelism, len(keys), func(i int) []anomaly.Anomaly {
		k := keys[i]
		ks, kname := a.keyst[k], a.in.Key(k)
		// The long read is the trace: the key's first read of its version
		// order's full length. A transaction completes at its own index,
		// and an element is in the trace exactly when it has a position.
		lr := ks.longest
		var out []anomaly.Anomaly
		var buf explain.Text
		var lo op.Op // the long read's op and value, resolved for the key's first finding
		read := ""
		for _, ka := range appends[start[k]:start[k+1]] {
			if ka.index < lr.invoke && ks.find(ka.elem).pos < 0 {
				if read == "" {
					lo = a.op(lr.index)
					read = op.FormatList(lo.Mops[readPos(lo, kname)].List)
				}
				wo := a.op(ka.index)
				buf = buf[:0].Name(wo.Index).Str(" committed an append of ").Int(ka.elem).Str(" to key ").Str(kname).
					Str(" before ").Name(lo.Index).Str(" began, yet ").Name(lo.Index).Str(" read ").Str(read).
					Str(" without it: the update was lost")
				out = append(out, anomaly.Anomaly{
					Type:        anomaly.LostUpdate,
					Ops:         []op.Op{wo, lo},
					Key:         kname,
					Explanation: string(buf),
				})
			}
		}
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
