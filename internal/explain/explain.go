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
	for _, id := range e.Keys.SortedIDs() {
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

// wroteVersion is wrote for a register version as version orders spell
// it: a decimal value, or "nil" — the initial version, nobody's write.
func wroteVersion(o op.Op, key, version string) bool {
	v, err := strconv.Atoi(version)
	return err == nil && wrote(o, op.FWrite, key, v)
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
		if m.F == op.FRead && m.RegKnown && !m.RegNil && wrote(from, op.FWrite, m.Key, m.Reg) {
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
func (e *Explainer) rwRegWitness(from, to op.Op) (key, prev, next string, ok bool) {
	for _, m := range from.Mops {
		if m.F != op.FRead || !m.RegKnown {
			continue
		}
		observed := "nil"
		if !m.RegNil {
			observed = strconv.Itoa(m.Reg)
		}
		for _, edge := range e.RegOrder(m.Key) {
			if edge[0] == observed && wroteVersion(to, m.Key, edge[1]) {
				return m.Key, observed, edge[1], true
			}
		}
	}
	return "", "", "", false
}

// wwRegWitness proves a register ww edge: an inferred version edge
// prev -> next where `from` wrote prev and `to` wrote next.
func (e *Explainer) wwRegWitness(from, to op.Op) (key, prev, next string, ok bool) {
	for _, id := range e.sharedKeys(from, to, op.FWrite) {
		if int(id) >= len(e.RegOrders) {
			continue
		}
		key := e.Keys.Key(id)
		for _, edge := range e.RegOrders[id] {
			if wroteVersion(from, key, edge[0]) && wroteVersion(to, key, edge[1]) {
				return key, edge[0], edge[1], true
			}
		}
	}
	return "", "", "", false
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
