// Package explain renders anomaly witnesses as human-readable
// counterexamples, reproducing the paper's Figure 2 (a textual explanation
// of each dependency edge around a cycle and why the cycle is a
// contradiction) and Figure 3 (the same cycle as a Graphviz plot with
// wr / rw / ww / rt / process edge labels).
//
// An edge's justification is searched for in the two transactions' own
// micro-ops and the version orders of the keys they touch, in a fixed
// order, so a report cites the same witness for the same edge at every
// parallelism and on every surface.
package explain

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"repro/internal/graph"
	"repro/internal/history"
	"repro/internal/op"
)

// Explainer renders cycles against the ops and version orders of one
// analysis. Version orders arrive in the analyzers' compact KeyID-
// indexed form: Keys translates ids to names, and the order slices are
// indexed by history.KeyID (entries may be nil; the slices may be
// shorter than the key space).
type Explainer struct {
	// Ops finds each transaction's completion op by its id, the op's
	// index.
	Ops history.Lookup
	// Keys is the history's key interner; nil when the analysis carries
	// no version orders.
	Keys *history.Interner
	// ListOrders holds inferred element orders (list-append), indexed by
	// KeyID.
	ListOrders [][]int
	// RegOrders holds the direct edges of the inferred register version
	// order, indexed by KeyID, as (u, v) value pairs with op.NilVersion
	// for the initial version (rw-register and bank workloads);
	// op.FormatVersion renders one.
	RegOrders [][][2]int
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
func (e *Explainer) RegOrder(key string) [][2]int {
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
	for _, id := range e.Keys.SortedIDs() {
		if int(id) < len(e.ListOrders) && len(e.ListOrders[id]) > 0 {
			out = append(out, e.Keys.Key(id))
		}
	}
	return out
}

// Cycle renders a Figure 2-style explanation: the transactions involved,
// then one line per edge justifying the dependency, ending with the
// contradiction. It is built in one buffer with strconv appends, no fmt:
// a faulted history's report renders thousands of these.
func (e *Explainer) Cycle(c graph.Cycle) string {
	t := make(Text, 0, 256).Str("Let:\n")
	for _, n := range c.Nodes() {
		o, _ := e.Ops.Op(n)
		t = t.Str("  ").Op(o).Str("\n")
	}
	t = t.Str("\nThen:\n")
	for i, s := range c.Steps {
		last := i == len(c.Steps)-1
		t = t.Str("  - ")
		if last {
			t = t.Str("However, ")
		}
		t = e.edgeReason(t.Name(s.From).Str(" < ").Name(s.To).Str(", because "), s)
		if last {
			t = t.Str(": a contradiction!\n")
		} else {
			t = t.Str(".\n")
		}
	}
	return string(t)
}

// edgeReason appends the justification of one dependency edge, in terms
// of the values the transactions read and wrote.
func (e *Explainer) edgeReason(t Text, s graph.Step) Text {
	from, _ := e.Ops.Op(s.From)
	to, _ := e.Ops.Op(s.To)
	f, g := from.Index, to.Index
	switch s.Via {
	case graph.WR:
		if key, elem, ok := e.wrWitness(from, to); ok {
			return t.Name(g).Str(" observed ").Name(f).Str("'s append of ").Int(elem).Str(" to key ").Str(key)
		}
		if key, v, ok := e.wrRegWitness(from, to); ok {
			return t.Name(g).Str(" observed ").Name(f).Str("'s write of ").Int(v).Str(" to key ").Str(key)
		}
		return t.Name(g).Str(" read a version ").Name(f).Str(" installed")
	case graph.RW:
		if key, elem, ok := e.rwWitness(from, to); ok {
			return t.Name(f).Str(" did not observe ").Name(g).Str("'s append of ").Int(elem).Str(" to key ").Str(key)
		}
		if key, prev, next, ok := e.rwRegWitness(from, to); ok {
			return t.Name(f).Str(" read key ").Str(key).Str(" = ").Version(prev).
				Str(", which ").Name(g).Str(" overwrote with ").Version(next)
		}
		return t.Name(f).Str(" read a version which ").Name(g).Str(" overwrote")
	case graph.WW:
		if key, e1, e2, ok := e.wwWitness(from, to); ok {
			return t.Name(g).Str(" appended ").Int(e2).Str(" after ").Name(f).Str(" appended ").Int(e1).
				Str(" to key ").Str(key)
		}
		if key, prev, next, ok := e.wwRegWitness(from, to); ok {
			return t.Name(g).Str(" wrote key ").Str(key).Str(" = ").Version(next).
				Str(", replacing ").Name(f).Str("'s write of ").Version(prev)
		}
		return t.Name(g).Str(" overwrote a version ").Name(f).Str(" installed")
	case graph.Process:
		return t.Str("process ").Int(from.Process).Str(" executed ").Name(f).Str(" before ").Name(g)
	case graph.Realtime:
		return t.Name(f).Str(" completed before ").Name(g).Str(" was invoked")
	case graph.Timestamp:
		return t.Str("the database's own timestamps say ").Name(f).Str(" committed before ").Name(g).Str(" began")
	default:
		return t.Name(f).Str(" precedes ").Name(g).Str(" in the inferred version order")
	}
}

// Text is an explanation under construction: strings, numbers and op
// renderings are appended straight into one buffer, which a caller may
// reuse across its findings, so a finding costs the one allocation of
// its final string rather than fmt's formatting and growth.
type Text []byte

// Str appends s.
func (t Text) Str(s string) Text { return append(t, s...) }

// Int appends n in decimal.
func (t Text) Int(n int) Text { return strconv.AppendInt(t, int64(n), 10) }

// Name appends the label op.Op.Name gives the op at index: "T42".
func (t Text) Name(index int) Text { return op.AppendName(t, index) }

// Version appends a register version as op.FormatVersion renders it.
func (t Text) Version(v int) Text { return op.AppendVersion(t, v) }

// List appends a list value as op.FormatList renders it: "[1 2 3]".
func (t Text) List(v []int) Text { return op.AppendList(t, v) }

// Op appends o as op.Op.String renders it.
func (t Text) Op(o op.Op) Text { return o.AppendTo(t) }

// A witness search walks the facts one transaction offers — its reads in
// program order, or the version orders of the keys both transactions
// wrote, by key name — and cites the first one the other transaction's
// writes match, so the same edge gets the same witness in every report.

// wrote reports whether o holds the micro-op fun(key, arg).
func wrote(o op.Op, fun op.Fun, key string, arg int) bool {
	for i := range o.Mops {
		if m := &o.Mops[i]; m.F == fun && m.Arg == arg && m.Key == key {
			return true
		}
	}
	return false
}

// sharedKeys returns, in name order, the keys both transactions wrote
// with fun: only those can witness a ww edge.
func (e *Explainer) sharedKeys(from, to op.Op, fun op.Fun) []history.KeyID {
	if e.Keys == nil {
		return nil
	}
	var shared []history.KeyID
	for _, m := range from.Mops {
		id, ok := e.Keys.ID(m.Key)
		if ok && m.F == fun && !slices.Contains(shared, id) &&
			slices.ContainsFunc(to.Mops, func(w op.Mop) bool { return w.F == fun && w.Key == m.Key }) {
			shared = append(shared, id)
		}
	}
	e.Keys.SortKeyIDs(shared)
	return shared
}

// wrWitness finds a key and element proving a list (or set) wr edge:
// preferentially the final element of a read `from` appended (the
// list-append wr definition), falling back to any observed element (the
// set-add definition).
func (e *Explainer) wrWitness(from, to op.Op) (string, int, bool) {
	for _, m := range to.Mops {
		if n := len(m.List); m.ListKnown() && n > 0 && wrote(from, op.FAppend, m.Key, m.List[n-1]) {
			return m.Key, m.List[n-1], true
		}
	}
	for _, m := range to.Mops {
		if !m.ListKnown() {
			continue
		}
		for _, elem := range m.List {
			if wrote(from, op.FAppend, m.Key, elem) || wrote(from, op.FAdd, m.Key, elem) {
				return m.Key, elem, true
			}
		}
	}
	return "", 0, false
}

// wrRegWitness proves a register wr edge: `to` read a value `from` wrote.
func (e *Explainer) wrRegWitness(from, to op.Op) (string, int, bool) {
	for _, m := range to.Mops {
		if m.F == op.FRead && m.RegKnown && m.Reg != op.NilVersion && wrote(from, op.FWrite, m.Key, m.Reg) {
			return m.Key, m.Reg, true
		}
	}
	return "", 0, false
}

// rwWitness finds a key and element proving an rw edge: `from` read a
// version of key k that did not yet include `to`'s append, the next in
// k's element order.
func (e *Explainer) rwWitness(from, to op.Op) (string, int, bool) {
	for _, m := range from.Mops {
		if !m.ListKnown() {
			continue
		}
		order := e.ListOrder(m.Key)
		if n := len(m.List); n < len(order) && wrote(to, op.FAppend, m.Key, order[n]) {
			return m.Key, order[n], true
		}
	}
	return "", 0, false
}

// rwRegWitness proves a register rw edge: `from` read version prev of a
// key whose inferred successor next was written by `to`.
func (e *Explainer) rwRegWitness(from, to op.Op) (key string, prev, next int, ok bool) {
	for _, m := range from.Mops {
		if m.F != op.FRead || !m.RegKnown {
			continue
		}
		observed := m.Reg
		for _, edge := range e.RegOrder(m.Key) {
			if edge[0] == observed && wrote(to, op.FWrite, m.Key, edge[1]) {
				return m.Key, observed, edge[1], true
			}
		}
	}
	return "", 0, 0, false
}

// wwRegWitness proves a register ww edge: an inferred version edge
// prev -> next where `from` wrote prev and `to` wrote next.
func (e *Explainer) wwRegWitness(from, to op.Op) (key string, prev, next int, ok bool) {
	for _, id := range e.sharedKeys(from, to, op.FWrite) {
		if int(id) >= len(e.RegOrders) {
			continue
		}
		key := e.Keys.Key(id)
		for _, edge := range e.RegOrders[id] {
			if wrote(from, op.FWrite, key, edge[0]) && wrote(to, op.FWrite, key, edge[1]) {
				return key, edge[0], edge[1], true
			}
		}
	}
	return "", 0, 0, false
}

// wwWitness finds a key and two elements adjacent in its order proving
// a ww edge: `from` appended the first and `to` the second.
func (e *Explainer) wwWitness(from, to op.Op) (string, int, int, bool) {
	for _, id := range e.sharedKeys(from, to, op.FAppend) {
		if int(id) >= len(e.ListOrders) {
			continue
		}
		key, order := e.Keys.Key(id), e.ListOrders[id]
		for i := 0; i+1 < len(order); i++ {
			if wrote(from, op.FAppend, key, order[i]) && wrote(to, op.FAppend, key, order[i+1]) {
				return key, order[i], order[i+1], true
			}
		}
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
		o, _ := e.Ops.Op(n)
		label := strings.ReplaceAll(o.String(), `"`, `\"`)
		fmt.Fprintf(&b, "  t%d [label=\"%s\"];\n", n, label)
	}
	for _, s := range c.Steps {
		fmt.Fprintf(&b, "  t%d -> t%d [label=\"%s\"];\n", s.From, s.To, s.Via)
	}
	b.WriteString("}\n")
	return b.String()
}
