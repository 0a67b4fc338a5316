package graph

import (
	"slices"
	"sort"
)

// Incr maintains the strongly connected components of a growing
// dependency graph under append-only edge insertion — the graph half of
// the streaming checker. Instead of re-running Tarjan over the whole
// graph after every chunk, it keeps three structures in lockstep:
//
//   - a union-find partition of the nodes into components,
//   - the condensation (the DAG of components) with adjacency in both
//     directions, and
//   - a topological order of the condensation, maintained with the
//     Pearce-Kelly dynamic topological-sort algorithm.
//
// The order is what bounds the work. An inserted edge a -> b whose
// components already satisfy ord(a) < ord(b) cannot create a cycle and
// costs O(1). Only an order-violating edge triggers searches, and those
// are restricted to the affected region — the components whose order
// lies between b's and a's — after which either the region is locally
// reordered (still acyclic) or the components on the new cycle collapse
// into one. Either way, untouched parts of the graph are never visited.
//
// DirtySCCs drains the components touched since the last call, which is
// exactly the work-list for limited cycle recomputation: the caller
// re-runs the (parallel) cycle searches on the induced subgraph of the
// dirty components only, reusing the same machinery as the batch path.
type Incr struct {
	g    *Graph
	mask KindSet

	parent []int32
	rank   []int32
	ord    []int64 // topological position; meaningful for roots only

	// Condensation edges by root, both directions. An entry names the
	// root its component had when the edge arrived — resolve it through
	// find — and repeats when several node pairs span the same two
	// components; searches visit a component once either way.
	out, in [][]int32

	members map[int32][]int32 // root -> member dense ids (only for size >= 2)
	dirty   map[int32]bool    // roots whose components changed since the last drain

	restores int // order-violating inserts so far: what seeding ord from node ids avoids
}

// NewIncr returns an empty incremental SCC maintainer over edges whose
// kind intersects mask.
func NewIncr(mask KindSet) *Incr {
	return &Incr{
		g:       New(),
		mask:    mask,
		members: map[int32][]int32{},
		dirty:   map[int32]bool{},
	}
}

// Graph returns the underlying graph. It grows monotonically until
// Retire replaces it: the caller may read it (searches, subgraphs) but
// must add edges through Incr so the component index stays consistent.
func (x *Incr) Graph() *Graph { return x.g }

// Ensure adds node n if absent.
func (x *Incr) Ensure(n int) {
	x.ensure(n)
}

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
		x.out, x.in = append(x.out, nil), append(x.in, nil)
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

// AddEdges inserts every edge in order.
func (x *Incr) AddEdges(edges []Edge) {
	for _, e := range edges {
		x.AddEdge(e.From, e.To, e.Kind)
	}
}

// AddEdge inserts one edge, updating the component partition. An edge
// the graph already holds is a no-op: two keys, or two reads in one
// transaction, can imply the same dependency.
func (x *Incr) AddEdge(a, b int, k Kind) {
	ai, bi := x.ensure(a), x.ensure(b)
	if a == b {
		return
	}
	if !x.g.addKindDense(ai, bi, k) {
		return // the graph already held this edge kind
	}
	if !x.mask.Has(k) {
		return
	}
	ra, rb := x.find(ai), x.find(bi)
	if ra == rb {
		// A new edge inside a cyclic component: structure unchanged, but
		// new witnesses may exist.
		x.dirty[ra] = true
		return
	}
	x.out[ra], x.in[rb] = append(x.out[ra], rb), append(x.in[rb], ra)
	if x.ord[ra] < x.ord[rb] {
		return // topological order undisturbed: no cycle possible
	}
	x.restore(ra, rb)
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
		for _, nb := range x.out[c] {
			if nb = x.find(nb); nb == from {
				cycle = true
				continue
			}
			if !seenF[nb] && x.ord[nb] < ub {
				seenF[nb] = true
				deltaF = append(deltaF, nb)
				stack = append(stack, nb)
			}
		}
	}
	// Backward from "from", visiting only components ordered after "to".
	seenB := map[int32]bool{from: true}
	deltaB := []int32{from}
	stack = append(stack[:0], from)
	for len(stack) > 0 {
		c := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, nb := range x.in[c] {
			if nb = x.find(nb); !seenB[nb] && x.ord[nb] > lb {
				seenB[nb] = true
				deltaB = append(deltaB, nb)
				stack = append(stack, nb)
			}
		}
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

// merge collapses the given component roots into one, which inherits
// their edges to the components left outside, and marks the survivor
// dirty. It returns the survivor.
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
		if r != nr {
			x.out[nr], x.in[nr] = append(x.out[nr], x.out[r]...), append(x.in[nr], x.in[r]...)
			x.out[r], x.in[r] = nil, nil
		}
	}
	x.members[nr] = ms
	internal := func(nb int32) bool { return x.find(nb) == nr }
	x.out[nr], x.in[nr] = slices.DeleteFunc(x.out[nr], internal), slices.DeleteFunc(x.in[nr], internal)
	x.dirty[nr] = true
	return nr
}

// SCCs returns every current component of size >= 2 as sorted node
// slices in sorted order, without touching the dirty set — the full
// partition, for inspection and for differential tests against the
// batch Tarjan.
func (x *Incr) SCCs() [][]int {
	var out [][]int
	for r, mem := range x.members {
		if x.find(r) != r || len(mem) < 2 {
			continue
		}
		scc := make([]int, len(mem))
		for i, m := range mem {
			scc[i] = x.g.nodes[m]
		}
		sort.Ints(scc)
		out = append(out, scc)
	}
	sort.Slice(out, func(i, j int) bool { return out[i][0] < out[j][0] })
	return out
}

// DirtySCCs drains and returns the components (of size >= 2, the only
// ones that can contain a cycle) touched since the last call: each as a
// sorted slice of external node ids, the slices sorted by first node.
// This is the work-list for limited cycle recomputation after a chunk
// of edge insertions.
func (x *Incr) DirtySCCs() [][]int {
	if len(x.dirty) == 0 {
		return nil
	}
	var out [][]int
	for r := range x.dirty {
		mem := x.members[r]
		if len(mem) < 2 {
			continue
		}
		scc := make([]int, len(mem))
		for i, m := range mem {
			scc[i] = x.g.nodes[m]
		}
		sort.Ints(scc)
		out = append(out, scc)
	}
	x.dirty = map[int32]bool{}
	sort.Slice(out, func(i, j int) bool { return out[i][0] < out[j][0] })
	return out
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
	old := x.g
	// Survivors re-enter in the old topological order of their components
	// (ties broken by dense id, which keeps each old SCC contiguous) and
	// take, in that order, the survivors' own ids ascending as positions:
	// the identity unless restore had reordered something, and a set no
	// later node's seed can collide with. Re-fed that way, every
	// cross-component edge is order-respecting — an O(1) insert for
	// Pearce-Kelly — and only within-SCC edges pay for restoration, which
	// re-merges exactly the components that must collapse anyway; left at
	// their seeds, survivors would replay every reordering the old graph
	// had already paid for.
	type survivor struct {
		ai  int32
		ord int64
	}
	var survivors []survivor
	var ids []int
	for ai, n := range old.nodes {
		if keep(n) {
			survivors = append(survivors, survivor{int32(ai), x.ord[x.find(int32(ai))]})
			ids = append(ids, n)
		}
	}
	sort.Slice(survivors, func(i, j int) bool {
		if survivors[i].ord != survivors[j].ord {
			return survivors[i].ord < survivors[j].ord
		}
		return survivors[i].ai < survivors[j].ai
	})
	sort.Ints(ids)

	*x = *NewIncr(x.mask)
	for i, s := range survivors {
		// Survivors keep their nodes even when isolated.
		x.ord[x.ensure(old.nodes[s.ai])] = int64(ids[i])
	}
	for _, s := range survivors {
		a := old.nodes[s.ai]
		for _, e := range old.adj[s.ai] {
			b := old.nodes[e.to]
			if !keep(b) {
				continue
			}
			for _, k := range e.ks.Kinds() {
				x.AddEdge(a, b, k)
			}
		}
	}
}

// Subgraph returns the subgraph of g induced by the given nodes,
// preserving every edge kind among them. Nodes absent from g are
// ignored. The streaming checker searches induced subgraphs of dirty
// components: any cycle found there is a cycle of the full graph.
func (g *Graph) Subgraph(nodes []int) *Graph {
	out := New()
	in := make(map[int]bool, len(nodes))
	for _, n := range nodes {
		if g.HasNode(n) {
			in[n] = true
			out.Ensure(n)
		}
	}
	for _, n := range nodes {
		ai, ok := g.ids[n]
		if !ok {
			continue
		}
		for _, e := range g.adj[ai] {
			b := g.nodes[e.to]
			if !in[b] {
				continue
			}
			out.addMask(n, b, e.ks)
		}
	}
	return out
}
