// Package graph provides the labeled dependency-graph substrate Elle
// searches for anomalies (§6 of the paper): a directed multigraph over
// observed transactions whose edges carry dependency kinds (ww, wr, rw,
// process, realtime, version), strongly connected components via an
// iterative Tarjan, and breadth-first searches for short cycles with
// particular edge-kind properties.
package graph

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"sync"
)

// Kind is a single dependency relationship between two transactions.
type Kind uint8

const (
	// WW: Tj installed the version of some object following Ti's (§4.1.4).
	WW Kind = iota
	// WR: Tj read a version Ti installed.
	WR
	// RW: Ti read a version and Tj installed its successor
	// (an anti-dependency).
	RW
	// Process: Ti and Tj were executed, in that order, by the same
	// single-threaded client process (§5.1).
	Process
	// Realtime: Ti completed before Tj was invoked (§5.1).
	Realtime
	// Version: an object-version ordering edge used by the register
	// analyzer's version graphs (§5.2), not a transaction dependency.
	Version
	// Timestamp: the database's own claimed transaction ordering — Ti's
	// exposed commit timestamp preceded Tj's start timestamp (§5.1,
	// the time-precedes order of Adya's snapshot-isolation
	// formalization).
	Timestamp
	numKinds = 7
)

// String returns the short edge label used in explanations and DOT output.
func (k Kind) String() string {
	switch k {
	case WW:
		return "ww"
	case WR:
		return "wr"
	case RW:
		return "rw"
	case Process:
		return "process"
	case Realtime:
		return "rt"
	case Version:
		return "version"
	case Timestamp:
		return "ts"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// KindSet is a bitmask of Kinds.
type KindSet uint8

// Mask returns the singleton set {k}.
func (k Kind) Mask() KindSet { return 1 << k }

// Has reports whether k ∈ s.
func (s KindSet) Has(k Kind) bool { return s&(1<<k) != 0 }

// Intersects reports whether s ∩ t is non-empty.
func (s KindSet) Intersects(t KindSet) bool { return s&t != 0 }

// Kinds lists the members of s in declaration order.
func (s KindSet) Kinds() []Kind {
	var out []Kind
	for k := Kind(0); k < numKinds; k++ {
		if s.Has(k) {
			out = append(out, k)
		}
	}
	return out
}

// String renders s as "ww|rw".
func (s KindSet) String() string {
	parts := make([]string, 0, numKinds)
	for _, k := range s.Kinds() {
		parts = append(parts, k.String())
	}
	return strings.Join(parts, "|")
}

// Dependency edge-set shorthands used by the anomaly definitions of §6.
var (
	// KSWW is the G0 search mask: write dependencies only.
	KSWW = WW.Mask()
	// KSWWWR is the G1c search mask: write and read dependencies.
	KSWWWR = WW.Mask() | WR.Mask()
	// KSDep is the full Adya dependency mask.
	KSDep = WW.Mask() | WR.Mask() | RW.Mask()
	// KSOrders is the additional-orders mask (§5.1).
	KSOrders = Process.Mask() | Realtime.Mask()
)

// halfEdge is one adjacency entry: the target's dense id plus the set
// of kinds the edge carries. Per-node adjacency is a slice of these,
// sorted by target id — a compact CSR-style layout that replaces the
// map-per-node representation, eliminating a map allocation per node
// and hashing on every edge visit.
type halfEdge struct {
	to int32
	ks KindSet
}

// Graph is a directed multigraph over int-identified nodes (transaction
// indices). Parallel edges of different kinds between the same pair are
// merged into one adjacency entry with a KindSet label.
//
// Node ids, nearly dense, resolve through a direct table over a window of
// ids (n-base wraps, so a window may run past MaxInt). The window grows
// either way only while it spans at most 4 entries per node plus 4096, so
// memory is linear in nodes for any ids; ids outside it live in far, and
// move in when it reaches them.
type Graph struct {
	base  int           // the external id tab[0] stands for
	tab   []int32       // id n - base -> dense id + 1, 0 if absent
	far   map[int]int32 // external ids outside the window -> dense id
	nodes []int         // dense id -> external node id
	adj   [][]halfEdge  // per-node out-edges, sorted by target dense id
	edges int
}

// New returns an empty graph.
func New() *Graph { return &Graph{} }

// lookup returns n's dense id, if n is a node.
func (g *Graph) lookup(n int) (int32, bool) {
	if i := uint(n - g.base); i < uint(len(g.tab)) {
		return g.tab[i] - 1, g.tab[i] != 0
	}
	id, ok := g.far[n]
	return id, ok
}

// place records node n's dense id in the window, growing it to reach n
// if the bound allows (by at least doubling, so growth is amortized), or
// else in far.
func (g *Graph) place(n int, id int32) {
	if len(g.tab) == 0 {
		g.base = n
	}
	size, limit := uint(len(g.tab)), uint(4*len(g.nodes)+4096)
	if up := uint(n - g.base); up < limit {
		if up >= size {
			g.tab = append(g.tab, make([]int32, max(up+1, min(limit, 2*size))-size)...)
			g.adopt()
		}
		g.tab[up] = id + 1
	} else if down := uint(g.base - n); down <= limit-size {
		grow := max(down, min(limit-size, size))
		tab := make([]int32, size+grow)
		copy(tab[grow:], g.tab)
		g.base, g.tab = g.base-int(grow), tab
		g.adopt()
		g.tab[grow-down] = id + 1
	} else {
		if g.far == nil {
			g.far = map[int]int32{}
		}
		g.far[n] = id
	}
}

// adopt moves into the window every far id it now covers.
func (g *Graph) adopt() {
	for n, id := range g.far {
		if i := uint(n - g.base); i < uint(len(g.tab)) {
			g.tab[i] = id + 1
			delete(g.far, n)
		}
	}
}

// searchHalf returns the position of to in out, or the insertion point
// keeping out sorted if absent.
func searchHalf(out []halfEdge, to int32) int {
	lo, hi := 0, len(out)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if out[mid].to < to {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Ensure adds node n if absent and returns its dense id.
func (g *Graph) Ensure(n int) int32 {
	if id, ok := g.lookup(n); ok {
		return id
	}
	id := int32(len(g.nodes))
	g.nodes = append(g.nodes, n)
	g.adj = append(g.adj, nil)
	g.place(n, id)
	return id
}

// Edge is one labeled edge. Analyzers assemble per-shard []Edge lists in
// parallel and merge them with AddEdges in a deterministic shard order.
type Edge struct {
	From, To int
	Kind     Kind
}

// AddEdges records every edge in order.
func (g *Graph) AddEdges(edges []Edge) {
	for _, e := range edges {
		g.AddEdge(e.From, e.To, e.Kind)
	}
}

// AddEdge records a dependency of the given kind from node a to node b,
// creating the nodes as needed. Self-edges are ignored: per Adya's
// footnote, a transaction never depends on itself in a serialization graph.
func (g *Graph) AddEdge(a, b int, k Kind) { g.addMask(a, b, k.Mask()) }

// addMask records an edge carrying every kind in ks at once.
func (g *Graph) addMask(a, b int, ks KindSet) {
	if a == b {
		g.Ensure(a)
		return
	}
	ai, bi := g.Ensure(a), g.Ensure(b)
	out := g.adj[ai]
	i := searchHalf(out, bi)
	if i < len(out) && out[i].to == bi {
		out[i].ks |= ks
		return
	}
	out = append(out, halfEdge{})
	copy(out[i+1:], out[i:])
	out[i] = halfEdge{to: bi, ks: ks}
	g.adj[ai] = out
	g.edges++
}

// addKindDense records kind k on edge ai→bi (dense ids, ai != bi) and
// returns the edge's label before, 0 for a new edge — the fused
// lookup-or-insert graph.Incr drives: only a new kind can change the
// components, and only an edge's first KSDep kind enters an in-list.
func (g *Graph) addKindDense(ai, bi int32, k Kind) KindSet {
	out := g.adj[ai]
	i := searchHalf(out, bi)
	if i < len(out) && out[i].to == bi {
		was := out[i].ks
		out[i].ks |= k.Mask()
		return was
	}
	out = append(out, halfEdge{})
	copy(out[i+1:], out[i:])
	out[i] = halfEdge{to: bi, ks: k.Mask()}
	g.adj[ai] = out
	g.edges++
	return 0
}

// Merge adds every node and edge of o into g.
func (g *Graph) Merge(o *Graph) {
	for ai, out := range o.adj {
		a := o.nodes[ai]
		g.Ensure(a)
		for _, e := range out {
			g.addMask(a, o.nodes[e.to], e.ks)
		}
	}
	for _, n := range o.nodes {
		g.Ensure(n)
	}
}

// NumNodes returns the node count.
func (g *Graph) NumNodes() int { return len(g.nodes) }

// NumEdges returns the count of distinct (a, b) adjacencies.
func (g *Graph) NumEdges() int { return g.edges }

// Nodes returns the external node ids in insertion order.
func (g *Graph) Nodes() []int {
	out := make([]int, len(g.nodes))
	copy(out, g.nodes)
	return out
}

// HasNode reports whether n is in the graph.
func (g *Graph) HasNode(n int) bool {
	_, ok := g.lookup(n)
	return ok
}

// Label returns the kind set on edge a→b, or 0 if absent.
func (g *Graph) Label(a, b int) KindSet {
	ai, ok := g.lookup(a)
	if !ok {
		return 0
	}
	bi, ok := g.lookup(b)
	if !ok {
		return 0
	}
	out := g.adj[ai]
	if i := searchHalf(out, bi); i < len(out) && out[i].to == bi {
		return out[i].ks
	}
	return 0
}

// Out calls f for every out-edge of node a whose label intersects mask.
// Iteration order is unspecified.
func (g *Graph) Out(a int, mask KindSet, f func(b int, label KindSet)) {
	ai, ok := g.lookup(a)
	if !ok {
		return
	}
	for _, e := range g.adj[ai] {
		if e.ks.Intersects(mask) {
			f(g.nodes[e.to], e.ks)
		}
	}
}

// scratchPool recycles the per-call target buffers of OutSorted; without
// it each call allocates a fresh slice.
var scratchPool = sync.Pool{New: func() any { return new([]halfEdge) }}

// OutSorted is Out with callbacks in ascending node order; used where
// deterministic traversal matters (the relational catalog, tests). The
// callback may re-enter OutSorted (nested walks each draw their own
// scratch buffer from the pool).
func (g *Graph) OutSorted(a int, mask KindSet, f func(b int, label KindSet)) {
	ai, ok := g.lookup(a)
	if !ok {
		return
	}
	bufp := scratchPool.Get().(*[]halfEdge)
	targets := (*bufp)[:0]
	for _, e := range g.adj[ai] {
		if e.ks.Intersects(mask) {
			targets = append(targets, e)
		}
	}
	slices.SortFunc(targets, func(x, y halfEdge) int {
		return cmp.Compare(g.nodes[x.to], g.nodes[y.to])
	})
	for _, e := range targets {
		f(g.nodes[e.to], e.ks)
	}
	*bufp = targets[:0]
	scratchPool.Put(bufp)
}
