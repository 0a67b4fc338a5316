package graph

import (
	"slices"
	"sort"
)

// Incr maintains the strongly connected components of a growing
// dependency graph under append-only edge insertion — the graph half of
// the streaming checker. It is an index over one Graph, which holds the
// edges; beside it Incr keeps
//
//   - a union-find partition of the nodes into components over the
//     edges intersecting KSDep,
//   - each node's in-list, the sources of its KSDep edges: the graph's
//     adjacency reversed, so a component's edges can be walked both
//     ways through its members, and
//   - a topological order of the components, maintained with the
//     Pearce-Kelly dynamic topological-sort algorithm.
//
// The condensation (the DAG of components) is implicit: an edge whose
// ends lie in two components is a condensation edge, and no second
// adjacency records it.
//
// The order is what bounds the work. An inserted edge a -> b whose
// components already satisfy ord(a) < ord(b) cannot create a cycle and
// costs O(1). Only an order-violating edge triggers searches, and those
// are restricted to the affected region — the components whose order
// lies between b's and a's — after which either the region is locally
// reordered (still acyclic) or the components on the new cycle collapse
// into one. Either way, untouched parts of the graph are never visited.
//
// DirtyCycles drains the components touched since the last call, which
// are exactly the work-list for limited cycle recomputation, and runs
// the batch searches over them in place.
type Incr struct {
	g *Graph

	parent []int32
	rank   []int32
	ord    []int64   // topological position; meaningful for roots only
	in     [][]int32 // per node, the sources of its KSDep edges, once each

	members map[int32][]int32 // root -> member dense ids (only for size >= 2)
	dirty   map[int32]bool    // roots whose components changed since the last drain

	restores int // order-violating inserts so far: what seeding ord from node ids avoids
}

// NewIncr takes g over and indexes it over edges whose kind is in
// KSDep, in one Tarjan pass: each component's members share a root, and
// the components take, in the reverse of Tarjan's emission order (a
// topological order), g's smallest node ids ascending as positions. A
// node ensured later is seeded with its own id, which no loaded node
// holds, so positions never collide. Every cyclic component starts
// dirty, as it would had g's edges been added one by one.
func NewIncr(g *Graph) *Incr {
	n := len(g.nodes)
	x := &Incr{g: g, parent: make([]int32, n), rank: make([]int32, n), ord: make([]int64, n),
		in: make([][]int32, n), members: map[int32][]int32{}, dirty: map[int32]bool{}}
	var roots []int32 // one per component, sinks first
	components(g.adj, KSDep, func(comp []int32) {
		r := comp[0]
		for _, v := range comp {
			x.parent[v] = r
		}
		if len(comp) >= 2 {
			x.rank[r] = 1
			x.members[r] = slices.Clone(comp)
			x.dirty[r] = true
		}
		roots = append(roots, r)
	})
	ids := slices.Clone(g.nodes)
	slices.Sort(ids)
	for i, r := range roots {
		x.ord[r] = int64(ids[len(roots)-1-i])
	}
	for a, out := range g.adj {
		for _, e := range out {
			if e.ks.Intersects(KSDep) {
				x.in[e.to] = append(x.in[e.to], int32(a))
			}
		}
	}
	return x
}

// Graph returns the underlying graph. It grows monotonically until
// Retire replaces it: the caller may read it but must add edges through
// Incr so the component index stays consistent.
func (x *Incr) Graph() *Graph { return x.g }

// ensure adds node n if absent. Its topological position starts at its
// own id — unique by construction, and Pearce-Kelly is indifferent to
// where an edgeless node starts. Callers number transactions by
// completion, the order a serializable history's dependencies already
// follow, so on clean input edges arrive order-respecting and restore
// never runs.
func (x *Incr) ensure(n int) int32 {
	id := x.g.Ensure(n)
	if int(id) == len(x.parent) {
		x.parent = append(x.parent, id)
		x.rank = append(x.rank, 0)
		x.ord = append(x.ord, int64(n))
		x.in = append(x.in, nil)
	}
	return id
}

func (x *Incr) find(v int32) int32 {
	for x.parent[v] != v {
		x.parent[v] = x.parent[x.parent[v]] // path halving
		v = x.parent[v]
	}
	return v
}

// AddEdge inserts one edge, updating the component partition. An edge
// the graph already holds is a no-op: two keys, or two reads in one
// transaction, can imply the same dependency.
func (x *Incr) AddEdge(a, b int, k Kind) {
	ai, bi := x.ensure(a), x.ensure(b)
	if a == b {
		return
	}
	was := x.g.addKindDense(ai, bi, k)
	if was.Has(k) || !KSDep.Has(k) {
		return // the graph already held this edge kind, or it joins no components
	}
	if !was.Intersects(KSDep) {
		x.in[bi] = append(x.in[bi], ai)
	}
	ra, rb := x.find(ai), x.find(bi)
	if ra == rb {
		// A new edge inside a cyclic component: structure unchanged, but
		// new witnesses may exist.
		x.dirty[ra] = true
		return
	}
	if x.ord[ra] < x.ord[rb] {
		return // topological order undisturbed: no cycle possible
	}
	x.restore(ra, rb)
}

// neighbours calls f with the root of the component at the far end of
// every KSDep edge leaving component c (fwd) or entering it, walked
// through c's members — forward over the graph's adjacency, backward
// over the in-lists — and skipping the edges inside c. A component
// several edges reach is passed once per edge.
func (x *Incr) neighbours(c int32, fwd bool, f func(int32)) {
	mem := x.members[c]
	if mem == nil {
		mem = []int32{c}
	}
	for _, m := range mem {
		if !fwd {
			for _, u := range x.in[m] {
				if r := x.find(u); r != c {
					f(r)
				}
			}
			continue
		}
		for _, e := range x.g.adj[m] {
			if r := x.find(e.to); r != c && e.ks.Intersects(KSDep) {
				f(r)
			}
		}
	}
}

// restore repairs the topological order after inserting the
// order-violating condensation edge from -> to (ord[to] < ord[from]),
// following Pearce & Kelly: search forward from "to" and backward from
// "from", both restricted to the affected window of the order; if the
// searches meet, the components on the new cycle collapse into one;
// either way the affected components are reassigned the same order
// slots so every condensation edge points forward again.
func (x *Incr) restore(from, to int32) {
	x.restores++
	lb, ub := x.ord[to], x.ord[from]

	// Forward from "to", visiting only components ordered before "from".
	seenF := map[int32]bool{to: true}
	deltaF := []int32{to}
	cycle := false
	stack := []int32{to}
	for len(stack) > 0 {
		c := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		x.neighbours(c, true, func(nb int32) {
			if nb == from {
				cycle = true
			} else if !seenF[nb] && x.ord[nb] < ub {
				seenF[nb] = true
				deltaF = append(deltaF, nb)
				stack = append(stack, nb)
			}
		})
	}
	// Backward from "from", visiting only components ordered after "to".
	seenB := map[int32]bool{from: true}
	deltaB := []int32{from}
	stack = append(stack[:0], from)
	for len(stack) > 0 {
		c := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		x.neighbours(c, false, func(nb int32) {
			if !seenB[nb] && x.ord[nb] > lb {
				seenB[nb] = true
				deltaB = append(deltaB, nb)
				stack = append(stack, nb)
			}
		})
	}

	// The affected components' order slots, redistributed below. A
	// component can appear in both searches only when there is a cycle;
	// collect slots from the union.
	var slots []int64
	for c := range seenF {
		slots = append(slots, x.ord[c])
	}
	for c := range seenB {
		if !seenF[c] {
			slots = append(slots, x.ord[c])
		}
	}
	sort.Slice(slots, func(i, j int) bool { return slots[i] < slots[j] })
	byOrd := func(list []int32) {
		sort.Slice(list, func(i, j int) bool { return x.ord[list[i]] < x.ord[list[j]] })
	}

	if !cycle {
		// Everything reaching "from" moves before everything reachable
		// from "to", each side keeping its internal order.
		byOrd(deltaB)
		byOrd(deltaF)
		i := 0
		for _, c := range deltaB {
			x.ord[c] = slots[i]
			i++
		}
		for _, c := range deltaF {
			x.ord[c] = slots[i]
			i++
		}
		return
	}

	// A cycle: every component both reachable from "to" and reaching
	// "from" (the searches' intersection, plus the endpoints) collapses.
	inS := map[int32]bool{from: true, to: true}
	for _, c := range deltaF {
		if seenB[c] {
			inS[c] = true
		}
	}
	var bSide, fSide []int32
	for _, c := range deltaB {
		if !inS[c] {
			bSide = append(bSide, c)
		}
	}
	for _, c := range deltaF {
		if !inS[c] {
			fSide = append(fSide, c)
		}
	}
	byOrd(bSide)
	byOrd(fSide)
	roots := make([]int32, 0, len(inS))
	for c := range inS {
		roots = append(roots, c)
	}
	nr := x.merge(roots)
	// Backward side keeps the bottom slots (components only ever move
	// down), forward side the top slots (only ever up) — exactly as in
	// the acyclic reorder — and the merged component takes a slot
	// strictly between the blocks; the >= 2 collapsed components
	// guarantee one exists. Compacting instead would drag forward-side
	// components below unaffected ones.
	i := 0
	for _, c := range bSide {
		x.ord[c] = slots[i]
		i++
	}
	x.ord[nr] = slots[i]
	top := len(slots) - len(fSide)
	for j, c := range fSide {
		x.ord[c] = slots[top+j]
	}
}

// merge collapses the given component roots into one and marks the
// survivor dirty. It returns the survivor. The merged component's edges
// need no bookkeeping: they stay where they are, on its members.
func (x *Incr) merge(roots []int32) int32 {
	// Pick the highest-rank root as the survivor.
	nr := roots[0]
	for _, r := range roots[1:] {
		if x.rank[r] > x.rank[nr] {
			nr = r
		}
	}
	x.rank[nr]++
	var ms []int32
	for _, r := range roots {
		if mem := x.members[r]; mem != nil {
			ms = append(ms, mem...)
			delete(x.members, r)
		} else {
			ms = append(ms, r)
		}
		delete(x.dirty, r)
		x.parent[r] = nr
	}
	x.members[nr] = ms
	x.dirty[nr] = true
	return nr
}

// DirtyCycles drains the components touched since the last call and
// returns what AnomalousCycles(0, p) would find on the subgraph they
// induce. A component of the graph is a component of every induced
// subgraph holding it, so each is cut straight from the graph's
// adjacency into the view the batch searches walk, with no Tarjan pass.
func (x *Incr) DirtyCycles(p int) []Cycle {
	comps := make([][]int32, 0, len(x.dirty))
	for r := range x.dirty {
		comps = append(comps, x.members[r])
	}
	clear(x.dirty)
	return anomalous(split(x.g.nodes, x.g.adj, comps, KSDep), 0, p)
}

// Retire drops every node for which keep returns false, with all its
// edges, and rebuilds the Incr in place over the survivors. Edges
// crossing the boundary are discarded; callers choose the keep
// predicate so that can't lose findings (a retired transaction's edges
// to live ones would only matter for cycles through the live region,
// and sessions only retire nodes whose keys can gain no further edges,
// making such cycles impossible by the time Retire runs — any that did
// exist were searched and surfaced before retirement).
func (x *Incr) Retire(keep func(int) bool) {
	old, g := x.g, New()
	id := make([]int32, len(old.nodes)) // old dense id -> new, -1 if retired
	for ai, n := range old.nodes {
		id[ai] = -1
		if keep(n) {
			id[ai] = g.Ensure(n) // survivors keep their nodes even when isolated
		}
	}
	// Survivors keep their relative dense order, so each adjacency stays
	// sorted by target.
	for ai, out := range old.adj {
		for _, e := range out {
			if a, b := id[ai], id[e.to]; a >= 0 && b >= 0 {
				g.adj[a] = append(g.adj[a], halfEdge{to: b, ks: e.ks})
				g.edges++
			}
		}
	}
	*x = *NewIncr(g)
}
