// Package setadd implements Elle's analysis for grow-only sets (§3 of the
// paper). Sets sit between counters and lists in inferential power:
// unique elements make versions recoverable — every observed element maps
// to the one transaction that added it — so write-read dependencies are
// exact, and a read that misses a committed element anti-depends on its
// writer. But sets are order-free, so write-write dependencies between
// two adds are unknowable (the paper's T1/T2 example), and no total
// version order exists.
//
// The paper's §3 example, reproduced by this analyzer:
//
//	T0: read(x, {0})
//	T1: add(x, 1)
//	T2: add(x, 2)
//	T3: read(x, {0, 1, 2})
//
// yields T1 <wr T3, T2 <wr T3 (their elements were visible to T3) and
// T0 <rw T1, T0 <rw T2 (T0's read of {0} did not include 1 or 2).
package setadd

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/anomaly"
	"repro/internal/explain"
	"repro/internal/graph"
	"repro/internal/history"
	"repro/internal/op"
	"repro/internal/par"
	"repro/internal/workload"
)

// analyzer carries the indices built over one history. Everything known
// about a key — its element table and its reads — lives in one keyState
// indexed by the history interner's dense KeyID (see history.Interner),
// so the inference loops hash small ints within one key, never (key,
// element) pairs.
type analyzer struct {
	opts workload.Opts
	in   *history.Interner

	ops   history.Lookup // the ops findings cite: the history, or a session's
	keyst []*keyState    // per-key state by KeyID; nil for keys never added to or read
	reads int            // reads filed so far, over all keys
}

// op is the completion op with index i.
func (a *analyzer) op(i int) op.Op {
	o, _ := a.ops.Op(i)
	return o
}

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

// elemState is one row of a key's element table: who tried to add the
// element, and the last read to contain it.
type elemState struct {
	elem     int
	first    int   // op index of the first completed attempt, once attempts > 0
	attempts int32 // completed add attempts; exactly one keeps the element recoverable
	failed   bool  // the first attempt aborted
	crashed  bool  // an invocation that never completed tried to add it: not garbage when read, but nobody's writer
	seen     int   // serial of the last read marked as containing it
}

// keyRead is one committed read of a known set value — mop pos of the
// op with that index — filed under its key in op order.
type keyRead struct {
	index int
	pos   int
	// serial is the read's 1-based rank among all the history's reads, in
	// op then mop order: its mark on the rows of the elements it holds,
	// and its findings' place in the report.
	serial int
}

// keyState is one key's inference state: its element table and its
// committed reads in op order. A read is tested against the table, not
// against a set of its own: marking its elements' rows with its serial
// makes "does this read hold e" one comparison on e's row. Analyze
// builds it for every key at once; a streaming session maintains it
// across feeds.
type keyState struct {
	ix      map[int]int32 // element -> row of tab
	tab     []elemState
	reads   []keyRead
	checked int // reads a streaming session has marked and checked so far
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
		ks.tab = append(ks.tab, elemState{elem: e})
	}
	return &ks.tab[i]
}

// Analyze infers dependencies and anomalies for a set-add history.
// Set reads are carried in Mop.List; element order is ignored. Of the
// shared options only Parallelism applies.
func Analyze(h *history.History, opts workload.Opts) workload.Analysis {
	a := &analyzer{opts: opts, in: h.Keys(), ops: h}
	for _, o := range h.Ops {
		if o.Type != op.Invoke {
			a.addOp(o)
		}
	}
	return a.finish(h)
}

// addOp indexes one completion op: each added element's row in its
// key's table with its recoverability transitions — the first attempt on
// an element is its writer, a second destroys recoverability — and each
// committed read filed under its key. Ops must be added in ascending
// index order.
func (a *analyzer) addOp(o op.Op) {
	for pos, m := range o.Mops {
		switch {
		case m.F == op.FAdd:
			es := a.key(a.kid(m.Key)).elem(m.Arg)
			if es.attempts++; es.attempts == 1 {
				es.first, es.failed = o.Index, o.Type == op.Fail
			}
		case o.Type == op.OK && m.ListKnown():
			ks := a.key(a.kid(m.Key))
			a.reads++
			ks.reads = append(ks.reads, keyRead{index: o.Index, pos: pos, serial: a.reads})
		}
	}
}

// readFindings is what one read contributes to the analysis, collected
// by serial so the report and the graph keep op-then-mop order however
// the per-key work was scheduled.
type readFindings struct {
	internal []anomaly.Anomaly
	anoms    []anomaly.Anomaly
	edges    []graph.Edge
}

// finish is the analysis's one phase sequence, shared by the batch
// Analyze and the streaming session's Finish so the two agree by
// construction: over the per-key state addOp built it reports duplicate
// adds in (key name, element) order, checks and explodes every read —
// independently per key, across opts.Parallelism workers — and merges
// the per-read results in op order, so the graph and anomaly list are
// identical at every parallelism level.
func (a *analyzer) finish(h *history.History) workload.Analysis {
	a.ops = h
	// An add whose invocation never completed may still have taken
	// effect: reading it is not garbage. It gains no writer and no edge.
	for _, o := range h.Crashed() {
		for _, m := range o.Mops {
			if m.F == op.FAdd {
				a.key(a.kid(m.Key)).elem(m.Arg).crashed = true
			}
		}
	}
	var keys []history.KeyID
	for k, ks := range a.keyst {
		if ks != nil {
			keys = append(keys, history.KeyID(k))
		}
	}
	a.in.SortKeyIDs(keys)

	var anomalies []anomaly.Anomaly
	for _, k := range keys {
		var dups []*elemState
		for i := range a.keyst[k].tab {
			if es := &a.keyst[k].tab[i]; es.attempts > 1 {
				dups = append(dups, es)
			}
		}
		slices.SortFunc(dups, func(x, y *elemState) int { return cmp.Compare(x.elem, y.elem) })
		for _, es := range dups {
			anomalies = append(anomalies, dupAnomaly(a.in.Key(k), es))
		}
	}

	res := make([]readFindings, a.reads)
	par.Do(a.opts.Parallelism, len(keys), func(i int) { a.keyFindings(keys[i], res) })

	// Every committed transaction is a vertex, even if it has no edges.
	g := graph.New()
	for _, o := range h.Ops {
		if o.Type == op.OK {
			g.Ensure(o.Index)
		}
	}
	for i := range res {
		anomalies = append(anomalies, res[i].internal...)
	}
	for i := range res {
		anomalies = append(anomalies, res[i].anoms...)
		g.AddEdges(res[i].edges)
		res[i].edges = nil // merged: the graph holds them now
	}
	return workload.Analysis{Graph: g, Anomalies: anomalies, Explainer: &explain.Explainer{Ops: h}}
}

// keyFindings checks every read of key k against the key's element
// table and explodes it into edges, filing the results under the read's
// serial. Per element in read order: an aborted sole adder is a G1a, any
// other sole adder a wr edge, and an element nobody attempted to add —
// crashed clients included — a garbage read.
func (a *analyzer) keyFindings(k history.KeyID, res []readFindings) {
	ks, kname := a.keyst[k], a.in.Key(k)
	// Committed elements, ascending: any element added by a committed
	// transaction is eventually in the set (grow-only), so a committed
	// read that misses it anti-depends on its writer.
	var committed []int32
	for i := range ks.tab {
		if es := &ks.tab[i]; es.attempts == 1 && !es.failed && a.op(es.first).Type == op.OK {
			committed = append(committed, int32(i))
		}
	}
	slices.SortFunc(committed, func(x, y int32) int { return cmp.Compare(ks.tab[x].elem, ks.tab[y].elem) })

	for i := range ks.reads {
		r := &ks.reads[i]
		o, out := a.op(r.index), &res[r.serial-1]
		for _, e := range o.Mops[r.pos].List {
			es := ks.elem(e)
			es.seen = r.serial
			switch {
			case es.attempts == 1 && es.failed:
				out.anoms = append(out.anoms, g1aAnomaly(o, kname, e, a.op(es.first)))
			case es.attempts == 1:
				out.edges = append(out.edges, graph.Edge{From: es.first, To: o.Index, Kind: graph.WR})
			case es.attempts == 0 && !es.crashed:
				out.anoms = append(out.anoms, anomaly.Anomaly{
					Type: anomaly.GarbageRead,
					Ops:  []op.Op{o},
					Key:  kname,
					Explanation: fmt.Sprintf(
						"%s read set %s containing element %d, which no transaction ever added",
						o.Name(), kname, e),
				})
			}
		}
		if e, ok := ks.missing(o, r); ok {
			out.internal = []anomaly.Anomaly{internalAnomaly(o, kname, e)}
		}
		// Anti-dependencies: committed elements missing from the read.
		// Skip the transaction's own adds: a read before its own add is
		// not an anti-dependency on itself.
		for _, row := range committed {
			if es := &ks.tab[row]; es.seen != r.serial && es.first != o.Index {
				out.edges = append(out.edges, graph.Edge{From: o.Index, To: es.first, Kind: graph.RW})
			}
		}
	}
}

// missing verifies grow-only set semantics within r's transaction o: r —
// whose elements are marked — must hold every element the transaction
// itself added to the key before it, and everything its earlier reads of
// the key observed. It returns the smallest element r lacks, so the
// rendered explanation is deterministic.
func (ks *keyState) missing(o op.Op, r *keyRead) (missing int, found bool) {
	lacks := func(e int) {
		if ks.find(e).seen != r.serial && (!found || e < missing) {
			missing, found = e, true
		}
	}
	key := o.Mops[r.pos].Key
	for _, m := range o.Mops[:r.pos] {
		if m.Key != key {
			continue
		}
		switch {
		case m.F == op.FAdd:
			lacks(m.Arg)
		case m.ListKnown():
			for _, e := range m.List {
				lacks(e)
			}
		}
	}
	return missing, found
}

// dupAnomaly renders one duplicate-add finding; the streaming session
// uses the same rendering for mid-stream surfacing.
func dupAnomaly(k string, es *elemState) anomaly.Anomaly {
	return anomaly.Anomaly{
		Type: anomaly.DuplicateAppends,
		Key:  k,
		Explanation: fmt.Sprintf(
			"element %d was added to set %s by %d transactions; adds must be unique for versions to be recoverable",
			es.elem, k, es.attempts),
	}
}

// internalAnomaly renders one internal inconsistency: o read key without
// element e, which its own prior operations guarantee.
func internalAnomaly(o op.Op, key string, e int) anomaly.Anomaly {
	return anomaly.Anomaly{
		Type: anomaly.Internal,
		Ops:  []op.Op{o},
		Key:  key,
		Explanation: fmt.Sprintf(
			"%s read set %s without element %d, which its own prior operations guarantee: an internal inconsistency",
			o.Name(), key, e),
	}
}

// g1aAnomaly renders one aborted-read finding: reader observed element e
// of key, added by the aborted writer.
func g1aAnomaly(reader op.Op, key string, e int, writer op.Op) anomaly.Anomaly {
	return anomaly.Anomaly{
		Type: anomaly.G1a,
		Ops:  []op.Op{reader, writer},
		Key:  key,
		Explanation: fmt.Sprintf(
			"%s read set %s containing element %d added by aborted %s: an aborted read",
			reader.Name(), key, e, writer.Name()),
	}
}
