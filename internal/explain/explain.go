// Package explain renders anomaly witnesses as human-readable
// counterexamples, reproducing the paper's Figure 2 (a textual explanation
// of each dependency edge around a cycle and why the cycle is a
// contradiction) and Figure 3 (the same cycle as a Graphviz plot with
// wr / rw / ww / rt / process edge labels).
package explain

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"

	"repro/internal/graph"
	"repro/internal/history"
	"repro/internal/op"
	"repro/internal/rel"
)

// Explainer renders cycles against the ops and version orders of one
// analysis. Version orders arrive in the analyzers' compact KeyID-
// indexed form: Keys translates ids to names, and the order slices are
// indexed by history.KeyID (entries may be nil; the slices may be
// shorter than the key space).
type Explainer struct {
	// Ops maps transaction ids to their completion ops.
	Ops map[int]op.Op
	// Keys is the history's key interner; nil when the analysis carries
	// no version orders.
	Keys *history.Interner
	// ListOrders holds inferred element orders (list-append), indexed by
	// KeyID.
	ListOrders [][]int
	// RegOrders holds the direct edges of the inferred register version
	// order, indexed by KeyID, as "u" -> "v" value strings with "nil"
	// for the initial version (rw-register and bank workloads).
	RegOrders [][][2]string

	// sortedIDs caches Keys.SortedIDs(): the interner is immutable by
	// the time an Explainer exists, and cycle rendering (parallel across
	// cycles) walks the sorted key list once per ww witness.
	sortedOnce sync.Once
	sortedIDs  []history.KeyID
}

// keyIDsByName returns every KeyID ordered by key name, computed once.
func (e *Explainer) keyIDsByName() []history.KeyID {
	e.sortedOnce.Do(func() { e.sortedIDs = e.Keys.SortedIDs() })
	return e.sortedIDs
}

// ListOrder returns the inferred element order for key, or nil if none
// was inferred.
func (e *Explainer) ListOrder(key string) []int {
	if e.Keys == nil {
		return nil
	}
	id, ok := e.Keys.ID(key)
	if !ok || int(id) >= len(e.ListOrders) {
		return nil
	}
	return e.ListOrders[id]
}

// RegOrder returns the direct version edges inferred for key, or nil.
func (e *Explainer) RegOrder(key string) [][2]string {
	if e.Keys == nil {
		return nil
	}
	id, ok := e.Keys.ID(key)
	if !ok || int(id) >= len(e.RegOrders) {
		return nil
	}
	return e.RegOrders[id]
}

// ListOrderKeys returns the keys with a non-empty inferred element
// order, sorted by name.
func (e *Explainer) ListOrderKeys() []string {
	var out []string
	if e.Keys == nil {
		return out
	}
	for _, id := range e.keyIDsByName() {
		if int(id) < len(e.ListOrders) && len(e.ListOrders[id]) > 0 {
			out = append(out, e.Keys.Key(id))
		}
	}
	return out
}

// Cycle renders a Figure 2-style explanation: the transactions involved,
// then one line per edge justifying the dependency, ending with the
// contradiction.
func (e *Explainer) Cycle(c graph.Cycle) string {
	var b strings.Builder
	b.WriteString("Let:\n")
	for _, n := range c.Nodes() {
		fmt.Fprintf(&b, "  %s\n", e.Ops[n].String())
	}
	b.WriteString("\nThen:\n")
	for i, s := range c.Steps {
		reason := e.edgeReason(s)
		if i == len(c.Steps)-1 {
			fmt.Fprintf(&b, "  - However, %s < %s, because %s: a contradiction!\n",
				e.name(s.From), e.name(s.To), reason)
		} else {
			fmt.Fprintf(&b, "  - %s < %s, because %s.\n",
				e.name(s.From), e.name(s.To), reason)
		}
	}
	return b.String()
}

func (e *Explainer) name(n int) string {
	if o, ok := e.Ops[n]; ok {
		return o.Name()
	}
	return fmt.Sprintf("T%d", n)
}

// edgeReason justifies one dependency edge in terms of the values the
// transactions read and wrote.
func (e *Explainer) edgeReason(s graph.Step) string {
	from, to := e.Ops[s.From], e.Ops[s.To]
	switch s.Via {
	case graph.WR:
		if key, elem, ok := e.wrWitness(from, to); ok {
			return fmt.Sprintf("%s observed %s's append of %d to key %s",
				to.Name(), from.Name(), elem, key)
		}
		if key, v, ok := e.wrRegWitness(from, to); ok {
			return fmt.Sprintf("%s observed %s's write of %d to key %s",
				to.Name(), from.Name(), v, key)
		}
		return fmt.Sprintf("%s read a version %s installed", to.Name(), from.Name())
	case graph.RW:
		if key, elem, ok := e.rwWitness(from, to); ok {
			return fmt.Sprintf("%s did not observe %s's append of %d to key %s",
				from.Name(), to.Name(), elem, key)
		}
		if key, prev, next, ok := e.rwRegWitness(from, to); ok {
			return fmt.Sprintf("%s read key %s = %s, which %s overwrote with %s",
				from.Name(), key, prev, to.Name(), next)
		}
		return fmt.Sprintf("%s read a version which %s overwrote", from.Name(), to.Name())
	case graph.WW:
		if key, e1, e2, ok := e.wwWitness(from, to); ok {
			return fmt.Sprintf("%s appended %d after %s appended %d to key %s",
				to.Name(), e2, from.Name(), e1, key)
		}
		if key, prev, next, ok := e.wwRegWitness(from, to); ok {
			return fmt.Sprintf("%s wrote key %s = %s, replacing %s's write of %s",
				to.Name(), key, next, from.Name(), prev)
		}
		return fmt.Sprintf("%s overwrote a version %s installed", to.Name(), from.Name())
	case graph.Process:
		return fmt.Sprintf("process %d executed %s before %s",
			from.Process, from.Name(), to.Name())
	case graph.Realtime:
		return fmt.Sprintf("%s completed before %s was invoked", from.Name(), to.Name())
	case graph.Timestamp:
		return fmt.Sprintf("the database's own timestamps say %s committed before %s began",
			from.Name(), to.Name())
	default:
		return fmt.Sprintf("%s precedes %s in the inferred version order", from.Name(), to.Name())
	}
}

// Witness scans are relational semijoins over internal/rel: the probe
// side streams candidate facts in the order the old nested loops
// visited them, the build side is an index over one transaction's
// writes, and the first joined row is exactly the witness the
// sequential scan produced. The probes carry every output column, and
// the indexes key on all their columns, so each join filters without
// widening the tuple.

// firstRow evaluates r just far enough to return its first tuple.
func firstRow(r rel.Relation) (rel.Tuple, bool) {
	var out rel.Tuple
	r.Each(func(t rel.Tuple) bool {
		out = t.Clone()
		return false
	})
	return out, out != nil
}

// appendIx indexes append(key, <col>) over o's list appends; the
// caller names the element column so the index binds against the
// matching probe column (e.g. a version pair's e1 vs e2).
func appendIx(o op.Op, col string) *rel.Index {
	r := rel.NewRelation([]string{"key", col}, func(yield func(rel.Tuple) bool) {
		t := make(rel.Tuple, 2)
		for _, m := range o.Mops {
			if m.F != op.FAppend {
				continue
			}
			t[0], t[1] = rel.Str(m.Key), rel.Int(m.Arg)
			if !yield(t) {
				return
			}
		}
	})
	return rel.BuildIndex(r, "key", col)
}

// setWriteIx indexes o's non-register writes (append and add mops) on
// (key, elem) — the build side of the set-add wr fallback.
func setWriteIx(o op.Op) *rel.Index {
	r := rel.NewRelation([]string{"key", "elem"}, func(yield func(rel.Tuple) bool) {
		t := make(rel.Tuple, 2)
		for _, m := range o.Mops {
			if !m.IsWrite() || m.F == op.FWrite {
				continue
			}
			t[0], t[1] = rel.Str(m.Key), rel.Int(m.Arg)
			if !yield(t) {
				return
			}
		}
	})
	return rel.BuildIndex(r, "key", "elem")
}

// regWriteIx indexes write(key, <col>) over o's register writes, the
// value rendered as a decimal string exactly as version-order edges
// store versions.
func regWriteIx(o op.Op, col string) *rel.Index {
	r := rel.NewRelation([]string{"key", col}, func(yield func(rel.Tuple) bool) {
		t := make(rel.Tuple, 2)
		for _, m := range o.Mops {
			if m.F != op.FWrite {
				continue
			}
			t[0], t[1] = rel.Str(m.Key), rel.Str(strconv.Itoa(m.Arg))
			if !yield(t) {
				return
			}
		}
	})
	return rel.BuildIndex(r, "key", col)
}

// wrWitness finds a key and element proving a list (or set) wr edge:
// preferentially the final element of a read `from` appended (the
// list-append wr definition), falling back to any observed element (the
// set-add definition).
func (e *Explainer) wrWitness(from, to op.Op) (string, int, bool) {
	finals := rel.NewRelation([]string{"key", "elem"}, func(yield func(rel.Tuple) bool) {
		t := make(rel.Tuple, 2)
		for _, m := range to.Mops {
			if !m.ListKnown() || len(m.List) == 0 {
				continue
			}
			t[0], t[1] = rel.Str(m.Key), rel.Int(m.List[len(m.List)-1])
			if !yield(t) {
				return
			}
		}
	})
	if t, ok := firstRow(finals.LookupJoin(appendIx(from, "elem"))); ok {
		return t[0].Text(), int(t[1].Num()), true
	}
	observed := rel.NewRelation([]string{"key", "elem"}, func(yield func(rel.Tuple) bool) {
		t := make(rel.Tuple, 2)
		for _, m := range to.Mops {
			if !m.ListKnown() {
				continue
			}
			for _, elem := range m.List {
				t[0], t[1] = rel.Str(m.Key), rel.Int(elem)
				if !yield(t) {
					return
				}
			}
		}
	})
	if t, ok := firstRow(observed.LookupJoin(setWriteIx(from))); ok {
		return t[0].Text(), int(t[1].Num()), true
	}
	return "", 0, false
}

func (e *Explainer) wrRegWitness(from, to op.Op) (string, int, bool) {
	reads := rel.NewRelation([]string{"key", "reg", "value"}, func(yield func(rel.Tuple) bool) {
		t := make(rel.Tuple, 3)
		for _, m := range to.Mops {
			if m.F != op.FRead || !m.RegKnown || m.RegNil {
				continue
			}
			t[0], t[1], t[2] = rel.Str(m.Key), rel.Int(m.Reg), rel.Str(strconv.Itoa(m.Reg))
			if !yield(t) {
				return
			}
		}
	})
	if t, ok := firstRow(reads.LookupJoin(regWriteIx(from, "value"))); ok {
		return t[0].Text(), int(t[1].Num()), true
	}
	return "", 0, false
}

// rwWitness finds a key and element proving an rw edge: `from` read a
// version of key k that did not yet include `to`'s append.
func (e *Explainer) rwWitness(from, to op.Op) (string, int, bool) {
	nexts := rel.NewRelation([]string{"key", "elem"}, func(yield func(rel.Tuple) bool) {
		t := make(rel.Tuple, 2)
		for _, m := range from.Mops {
			if !m.ListKnown() {
				continue
			}
			order := e.ListOrder(m.Key)
			if len(m.List) >= len(order) {
				continue
			}
			t[0], t[1] = rel.Str(m.Key), rel.Int(order[len(m.List)])
			if !yield(t) {
				return
			}
		}
	})
	if t, ok := firstRow(nexts.LookupJoin(appendIx(to, "elem"))); ok {
		return t[0].Text(), int(t[1].Num()), true
	}
	return "", 0, false
}

// rwRegWitness proves a register rw edge: `from` read version prev of a
// key whose inferred successor next was written by `to`.
func (e *Explainer) rwRegWitness(from, to op.Op) (key, prev, next string, ok bool) {
	succs := rel.NewRelation([]string{"key", "prev", "next"}, func(yield func(rel.Tuple) bool) {
		t := make(rel.Tuple, 3)
		for _, m := range from.Mops {
			if m.F != op.FRead || !m.RegKnown {
				continue
			}
			observed := "nil"
			if !m.RegNil {
				observed = strconv.Itoa(m.Reg)
			}
			for _, edge := range e.RegOrder(m.Key) {
				if edge[0] != observed {
					continue
				}
				t[0], t[1], t[2] = rel.Str(m.Key), rel.Str(observed), rel.Str(edge[1])
				if !yield(t) {
					return
				}
			}
		}
	})
	if t, found := firstRow(succs.LookupJoin(regWriteIx(to, "next"))); found {
		return t[0].Text(), t[1].Text(), t[2].Text(), true
	}
	return "", "", "", false
}

// wwRegWitness proves a register ww edge: an inferred version edge
// prev -> next where `from` wrote prev and `to` wrote next. Keys are
// tried in sorted order so the witness is deterministic.
func (e *Explainer) wwRegWitness(from, to op.Op) (key, prev, next string, ok bool) {
	if e.Keys == nil {
		return "", "", "", false
	}
	pairs := rel.NewRelation([]string{"key", "prev", "next"}, func(yield func(rel.Tuple) bool) {
		t := make(rel.Tuple, 3)
		for _, id := range e.keyIDsByName() {
			if int(id) >= len(e.RegOrders) {
				continue
			}
			k := rel.Str(e.Keys.Key(id))
			for _, edge := range e.RegOrders[id] {
				t[0], t[1], t[2] = k, rel.Str(edge[0]), rel.Str(edge[1])
				if !yield(t) {
					return
				}
			}
		}
	})
	r := pairs.LookupJoin(regWriteIx(from, "prev")).LookupJoin(regWriteIx(to, "next"))
	if t, found := firstRow(r); found {
		return t[0].Text(), t[1].Text(), t[2].Text(), true
	}
	return "", "", "", false
}

// wwWitness finds a key and adjacent elements proving a ww edge. Only a
// key both transactions appended to can join, so that selection runs
// below the joins: adjacent pairs are generated for those keys alone,
// not for every version order of the analysis. Keys are tried in sorted
// order so the same edge always gets the same witness, whatever order
// the analyzer stored them in.
func (e *Explainer) wwWitness(from, to op.Op) (string, int, int, bool) {
	if e.Keys == nil {
		return "", 0, 0, false
	}
	var shared []history.KeyID
	for _, m := range from.Mops {
		id, ok := e.Keys.ID(m.Key)
		if ok && m.F == op.FAppend && int(id) < len(e.ListOrders) && !slices.Contains(shared, id) &&
			slices.ContainsFunc(to.Mops, func(w op.Mop) bool { return w.F == op.FAppend && w.Key == m.Key }) {
			shared = append(shared, id)
		}
	}
	e.Keys.SortKeyIDs(shared)
	pairs := rel.NewRelation([]string{"key", "e1", "e2"}, func(yield func(rel.Tuple) bool) {
		t := make(rel.Tuple, 3)
		for _, id := range shared {
			key := rel.Str(e.Keys.Key(id))
			order := e.ListOrders[id]
			for i := 0; i+1 < len(order); i++ {
				t[0], t[1], t[2] = key, rel.Int(order[i]), rel.Int(order[i+1])
				if !yield(t) {
					return
				}
			}
		}
	})
	r := pairs.LookupJoin(appendIx(from, "e1")).LookupJoin(appendIx(to, "e2"))
	if t, found := firstRow(r); found {
		return t[0].Text(), int(t[1].Num()), int(t[2].Num()), true
	}
	return "", 0, 0, false
}

// DOT renders the cycle as a Graphviz digraph in the style of Figure 3:
// one node per transaction (labeled with its ops) and one arrow per
// dependency, labeled wr, rw, ww, rt, or process.
func (e *Explainer) DOT(c graph.Cycle) string {
	var b strings.Builder
	b.WriteString("digraph elle {\n")
	b.WriteString("  rankdir=LR;\n")
	b.WriteString("  node [shape=box, fontname=\"monospace\"];\n")
	for _, n := range c.Nodes() {
		o := e.Ops[n]
		label := strings.ReplaceAll(o.String(), `"`, `\"`)
		fmt.Fprintf(&b, "  t%d [label=\"%s\"];\n", n, label)
	}
	for _, s := range c.Steps {
		fmt.Fprintf(&b, "  t%d -> t%d [label=\"%s\"];\n", s.From, s.To, s.Via)
	}
	b.WriteString("}\n")
	return b.String()
}
