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
	"fmt"
	"sort"

	"repro/internal/anomaly"
	"repro/internal/graph"
	"repro/internal/history"
	"repro/internal/op"
	"repro/internal/par"
	"repro/internal/workload"
)

// Analysis is the result of set dependency inference.
type Analysis struct {
	// Graph holds wr and rw transaction dependencies.
	Graph *graph.Graph
	// Anomalies are the non-cycle anomalies found during inference.
	Anomalies []anomaly.Anomaly
	// Ops indexes analyzed completion ops by index.
	Ops map[int]op.Op
}

type elemKey struct {
	key  history.KeyID
	elem int
}

// Analyze infers dependencies and anomalies for a set-add history.
// Set reads are carried in Mop.List; element order is ignored. Of the
// shared options only Parallelism applies.
//
// Inference is independent per committed transaction once the element
// indices are built, so the per-transaction checks and edge emission fan
// out across opts.Parallelism workers with ordered collection.
func Analyze(h *history.History, opts workload.Opts) *Analysis {
	a := &analyzer{
		opts:         opts,
		in:           h.Keys(),
		ops:          map[int]op.Op{},
		writer:       map[elemKey]int{},
		failedWriter: map[elemKey]int{},
		attempts:     map[elemKey]int{},
		crashed:      map[elemKey]bool{},
	}
	for _, o := range h.Completions() {
		a.ops[o.Index] = o
		if o.Type == op.OK {
			a.oks = append(a.oks, o)
		}
	}
	for _, o := range h.Crashed() {
		for _, m := range o.Mops {
			if m.F == op.FAdd {
				a.crashed[elemKey{a.kid(m.Key), m.Arg}] = true
			}
		}
	}
	a.indexAdds()
	a.collect(par.Map(opts.Parallelism, len(a.oks), func(i int) []anomaly.Anomaly {
		return a.internalAnomalies(a.oks[i])
	}))
	g := a.buildGraph()
	return &Analysis{Graph: g, Anomalies: a.anomalies, Ops: a.ops}
}

type analyzer struct {
	opts         workload.Opts
	in           *history.Interner
	ops          map[int]op.Op
	oks          []op.Op
	writer       map[elemKey]int
	failedWriter map[elemKey]int
	attempts     map[elemKey]int
	crashed      map[elemKey]bool // adds of invocations that never completed: not garbage when read, but nobody's writer
	anomalies    []anomaly.Anomaly
}

func (a *analyzer) collect(groups [][]anomaly.Anomaly) {
	a.anomalies = anomaly.AppendGroups(a.anomalies, groups)
}

// kid resolves an interned key (see history.Interner.MustID).
func (a *analyzer) kid(k string) history.KeyID { return a.in.MustID(k) }

func (a *analyzer) indexAdds() {
	var dups []elemKey
	for _, o := range a.ops {
		for _, m := range o.Mops {
			if m.F != op.FAdd {
				continue
			}
			ek := elemKey{a.kid(m.Key), m.Arg}
			a.attempts[ek]++
			if a.attempts[ek] > 1 {
				if a.attempts[ek] == 2 {
					dups = append(dups, ek)
				}
				continue
			}
			if o.Type == op.Fail {
				a.failedWriter[ek] = o.Index
			} else {
				a.writer[ek] = o.Index
			}
		}
	}
	sort.Slice(dups, func(i, j int) bool {
		if dups[i].key != dups[j].key {
			return a.in.Less(dups[i].key, dups[j].key)
		}
		return dups[i].elem < dups[j].elem
	})
	for _, ek := range dups {
		delete(a.writer, ek)
		delete(a.failedWriter, ek)
		kname := a.in.Key(ek.key)
		a.anomalies = append(a.anomalies, anomaly.Anomaly{
			Type: anomaly.DuplicateAppends,
			Key:  kname,
			Explanation: fmt.Sprintf(
				"element %d was added to set %s by %d transactions; adds must be unique for versions to be recoverable",
				ek.elem, kname, a.attempts[ek]),
		})
	}
}

// internalAnomalies verifies grow-only set semantics within one committed
// transaction: reads must include every element the transaction itself
// added, and repeated reads must never shrink.
func (a *analyzer) internalAnomalies(o op.Op) []anomaly.Anomaly {
	var out []anomaly.Anomaly
	have := map[history.KeyID]map[int]bool{} // lower bound per key
	ensure := func(k string) map[int]bool {
		id := a.kid(k)
		s, ok := have[id]
		if !ok {
			s = map[int]bool{}
			have[id] = s
		}
		return s
	}
	for _, m := range o.Mops {
		switch m.F {
		case op.FAdd:
			ensure(m.Key)[m.Arg] = true
		case op.FRead:
			if m.List == nil {
				continue
			}
			got := map[int]bool{}
			for _, e := range m.List {
				got[e] = true
			}
			// Report the smallest missing element so the rendered
			// explanation is deterministic.
			for _, e := range sortedElems(ensure(m.Key)) {
				if !got[e] {
					out = append(out, anomaly.Anomaly{
						Type: anomaly.Internal,
						Ops:  []op.Op{o},
						Key:  m.Key,
						Explanation: fmt.Sprintf(
							"%s read set %s without element %d, which its own prior operations guarantee: an internal inconsistency",
							o.Name(), m.Key, e),
					})
					break
				}
			}
			// Everything observed is now a lower bound.
			for e := range got {
				ensure(m.Key)[e] = true
			}
		}
	}
	return out
}

func (a *analyzer) buildGraph() *graph.Graph {
	g := graph.New()
	for _, o := range a.oks {
		g.Ensure(o.Index)
	}
	// Committed elements per key: any element added by a committed
	// transaction is eventually in the set (grow-only), so a committed
	// read that misses it anti-depends on its writer. The index is a
	// dense KeyID-indexed slice.
	committed := make([][]elemKey, a.in.Len())
	var vks []elemKey
	for ek, w := range a.writer {
		if a.ops[w].Type == op.OK {
			vks = append(vks, ek)
		}
	}
	sort.Slice(vks, func(i, j int) bool {
		if vks[i].key != vks[j].key {
			return a.in.Less(vks[i].key, vks[j].key)
		}
		return vks[i].elem < vks[j].elem
	})
	for _, ek := range vks {
		committed[ek.key] = append(committed[ek.key], ek)
	}

	// Each committed transaction's reads are checked and exploded into
	// edges independently; results merge in index order.
	type okResult struct {
		anoms []anomaly.Anomaly
		edges []graph.Edge
	}
	perOK := par.Map(a.opts.Parallelism, len(a.oks), func(i int) okResult {
		o := a.oks[i]
		var r okResult
		for _, m := range o.Mops {
			if m.F != op.FRead || m.List == nil {
				continue
			}
			k := a.kid(m.Key)
			got := map[int]bool{}
			for _, e := range m.List {
				got[e] = true
			}
			ownAdds := map[int]bool{}
			for _, mm := range o.Mops {
				if mm.F == op.FAdd && mm.Key == m.Key {
					ownAdds[mm.Arg] = true
				}
			}
			for _, e := range m.List {
				ek := elemKey{k, e}
				if w, ok := a.failedWriter[ek]; ok {
					r.anoms = append(r.anoms, anomaly.Anomaly{
						Type: anomaly.G1a,
						Ops:  []op.Op{o, a.ops[w]},
						Key:  m.Key,
						Explanation: fmt.Sprintf(
							"%s read set %s containing element %d added by aborted %s: an aborted read",
							o.Name(), m.Key, e, a.ops[w].Name()),
					})
					continue
				}
				w, ok := a.writer[ek]
				if !ok {
					if a.attempts[ek] == 0 && !a.crashed[ek] {
						r.anoms = append(r.anoms, anomaly.Anomaly{
							Type: anomaly.GarbageRead,
							Ops:  []op.Op{o},
							Key:  m.Key,
							Explanation: fmt.Sprintf(
								"%s read set %s containing element %d, which no transaction ever added",
								o.Name(), m.Key, e),
						})
					}
					continue
				}
				r.edges = append(r.edges, graph.Edge{From: w, To: o.Index, Kind: graph.WR})
			}
			// Anti-dependencies: committed elements missing from the
			// read. Skip the transaction's own adds: a read before its
			// own add is not an anti-dependency on itself.
			for _, ek := range committed[k] {
				if !got[ek.elem] && !ownAdds[ek.elem] {
					r.edges = append(r.edges, graph.Edge{From: o.Index, To: a.writer[ek], Kind: graph.RW})
				}
			}
		}
		return r
	})
	for _, r := range perOK {
		a.anomalies = append(a.anomalies, r.anoms...)
		g.AddEdges(r.edges)
	}
	return g
}

func sortedElems(s map[int]bool) []int {
	out := make([]int, 0, len(s))
	for e := range s {
		out = append(out, e)
	}
	sort.Ints(out)
	return out
}
