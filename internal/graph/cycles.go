package graph

import (
	"cmp"
	"slices"
	"strings"
)

// Step is one edge of a cycle witness: From depends-on... To via the kinds
// in Label; Via is the single kind the search actually used, which is what
// classification and explanation report.
type Step struct {
	From, To int
	Label    KindSet
	Via      Kind
}

// Cycle is a closed walk witnessing an anomaly: Steps[i].To ==
// Steps[i+1].From and the last step returns to Steps[0].From.
type Cycle struct {
	Steps []Step
}

// Nodes returns the transaction ids around the cycle, starting at
// Steps[0].From, without repeating the first node at the end.
func (c Cycle) Nodes() []int {
	out := make([]int, len(c.Steps))
	for i, s := range c.Steps {
		out[i] = s.From
	}
	return out
}

// CountVia returns how many steps were traversed via kind k.
func (c Cycle) CountVia(k Kind) int {
	n := 0
	for _, s := range c.Steps {
		if s.Via == k {
			n++
		}
	}
	return n
}

// String renders the cycle as "T1 -ww-> T2 -rw-> T1".
func (c Cycle) String() string {
	if len(c.Steps) == 0 {
		return "(empty cycle)"
	}
	var b strings.Builder
	for _, s := range c.Steps {
		b.WriteString("T")
		b.WriteString(itoa(s.From))
		b.WriteString(" -")
		b.WriteString(s.Via.String())
		b.WriteString("-> ")
	}
	b.WriteString("T")
	b.WriteString(itoa(c.Steps[0].From))
	return b.String()
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	neg := n < 0
	if neg {
		n = -n
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}

// FindCycles searches the subgraph of edges intersecting mask and returns
// one short cycle per strongly connected component, found by breadth-first
// search from that component's smallest node. This implements the plain
// cycle searches of §6 (G0 with mask=ww; G1c with mask=ww|wr; G2 candidates
// with the full mask).
func (g *Graph) FindCycles(mask KindSet) []Cycle {
	return search(g.views(mask), func(v *view) foundCycle { return v.loop(mask) })
}

// FindCyclesWithExactlyOne returns, per SCC, a cycle containing exactly one
// edge traversed via kind one, with every other step traversed via rest.
// This is the paper's G-single search: partition the graph, follow exactly
// one read-write edge, then complete the cycle using only write-write and
// write-read edges.
func (g *Graph) FindCyclesWithExactlyOne(one Kind, rest KindSet) []Cycle {
	return search(g.views(one.Mask()|rest), func(v *view) foundCycle { return v.through(one, rest) })
}

// FindCyclesWithAtLeastOne returns, per SCC of the masked graph, a cycle
// containing at least one edge of kind req (the G2 search: one or more
// anti-dependency edges, with any other dependencies completing the cycle).
func (g *Graph) FindCyclesWithAtLeastOne(req Kind, mask KindSet) []Cycle {
	full := req.Mask() | mask
	return search(g.views(full), func(v *view) foundCycle { return v.through(req, full) })
}

// foundCycle is one per-SCC search outcome.
type foundCycle struct {
	c  Cycle
	ok bool
}

// search runs find over views in order and keeps the hits.
func search(views []*view, find func(*view) foundCycle) []Cycle {
	var out []Cycle
	for _, v := range views {
		if f := find(v); f.ok {
			out = append(out, f.c)
		}
	}
	return out
}

// view is one strongly connected component as a graph of its own: local
// ids number the members in ascending external order, and each member's
// out-edges — only those to members and intersecting the mask the view
// was cut with, each keeping its full label — are sorted by target. A
// search therefore visits neighbours in ascending external order with no
// map probe, filter or sort per visit, and keeps its state in slices.
type view struct {
	nodes []int        // local id -> external id, ascending
	adj   [][]halfEdge // per local id; targets are local ids
	bfs   []visit      // breadth-first search state, by local id
	gen   uint32       // the current search's visit stamp
	queue []int32
}

// visit is one node's breadth-first search state: reached in the search
// stamped seen, from parent, over an edge labeled label.
type visit struct {
	seen   uint32
	parent int32
	label  KindSet
}

// views cuts g's components over mask into views, in order of their
// smallest node.
func (g *Graph) views(mask KindSet) []*view {
	return split(g.nodes, g.adj, tarjan(g.adj, mask), mask)
}

// split cuts the components comps of a graph — nodes maps its ids to
// external ids, adj is its adjacency — into views over edges
// intersecting mask, ordered by smallest member. It serves the whole
// graph and, one level down, a view itself.
func split(nodes []int, adj [][]halfEdge, comps [][]int32, mask KindSet) []*view {
	if len(comps) == 0 {
		return nil
	}
	byNode := func(a, b int32) int { return cmp.Compare(nodes[a], nodes[b]) }
	for _, comp := range comps {
		slices.SortFunc(comp, byNode)
	}
	slices.SortFunc(comps, func(a, b []int32) int { return byNode(a[0], b[0]) })
	// Each node's component (1-based; 0 for none) and local id in it.
	type locus struct{ comp, local int32 }
	where := make([]locus, len(nodes))
	for ci, comp := range comps {
		for li, v := range comp {
			where[v] = locus{int32(ci + 1), int32(li)}
		}
	}
	views := make([]*view, len(comps))
	for ci, comp := range comps {
		v := &view{nodes: make([]int, len(comp)), adj: make([][]halfEdge, len(comp)), bfs: make([]visit, len(comp))}
		ends := make([]int, len(comp))
		var edges []halfEdge
		for li, u := range comp {
			v.nodes[li] = nodes[u]
			for _, e := range adj[u] {
				if at := where[e.to]; at.comp == int32(ci+1) && e.ks.Intersects(mask) {
					edges = append(edges, halfEdge{to: at.local, ks: e.ks})
				}
			}
			ends[li] = len(edges)
		}
		start := 0
		for li, end := range ends {
			out := edges[start:end:end]
			slices.SortFunc(out, func(a, b halfEdge) int { return cmp.Compare(a.to, b.to) })
			v.adj[li], start = out, end
		}
		views[ci] = v
	}
	return views
}

// loop searches for a shortest cycle over mask through the view's
// smallest node.
func (v *view) loop(mask KindSet) foundCycle {
	c, ok := v.path(0, 0, mask, Step{})
	return foundCycle{c, ok}
}

// through searches for a cycle whose first step is an edge of kind one,
// closed by a shortest path over mask: the first such edge out of each
// member in ascending (member, target) order that any path closes. With
// mask excluding one it is the exactly-one search; with mask the full
// mask, the at-least-one search.
func (v *view) through(one Kind, mask KindSet) foundCycle {
	for u, out := range v.adj {
		for _, e := range out {
			if !e.ks.Has(one) {
				continue
			}
			first := Step{From: v.nodes[u], To: v.nodes[e.to], Label: e.ks, Via: one}
			if c, ok := v.path(e.to, int32(u), mask, first); ok {
				return foundCycle{c, true}
			}
		}
	}
	return foundCycle{}
}

// path finds a shortest path from start to goal over edges intersecting
// mask, breadth first in ascending order, and closes it into a cycle
// behind first, if first has a label. When start == goal the search
// looks for a non-trivial loop back to goal.
func (v *view) path(start, goal int32, mask KindSet, first Step) (Cycle, bool) {
	v.gen++
	bfs, gen := v.bfs, v.gen
	bfs[start].seen = gen
	v.queue = append(v.queue[:0], start)
	for head := 0; head < len(v.queue); head++ {
		u := v.queue[head]
		for _, e := range v.adj[u] {
			if !e.ks.Intersects(mask) {
				continue
			}
			if e.to == goal {
				bfs[goal].parent, bfs[goal].label = u, e.ks
				return v.cycle(start, goal, mask, first), true
			}
			if bfs[e.to].seen != gen {
				bfs[e.to] = visit{seen: gen, parent: u, label: e.ks}
				v.queue = append(v.queue, e.to)
			}
		}
	}
	return Cycle{}, false
}

// cycle reads the path path found back from goal to start, behind first
// if first has a label.
func (v *view) cycle(start, goal int32, mask KindSet, first Step) Cycle {
	lead := 0
	if first.Label != 0 {
		lead = 1
	}
	n := lead + 1
	for at := v.bfs[goal].parent; at != start; at = v.bfs[at].parent {
		n++
	}
	steps := make([]Step, n)
	steps[0] = first // the path's own first step overwrites it when lead is 0
	for i, at := n-1, goal; i >= lead; i-- {
		b := v.bfs[at]
		steps[i] = Step{From: v.nodes[b.parent], To: v.nodes[at], Label: b.label, Via: firstKind(b.label, mask)}
		at = b.parent
	}
	return Cycle{Steps: steps}
}

// firstKind picks the lowest-numbered kind present in both label and mask.
// Dependency kinds are declared before ordering kinds, so explanations
// prefer ww/wr/rw labels over process/realtime when an edge carries both.
func firstKind(label, mask KindSet) Kind {
	for k := Kind(0); k < numKinds; k++ {
		if label.Has(k) && mask.Has(k) {
			return k
		}
	}
	return 0
}
