package graph

import "slices"

// SCCs computes the strongly connected components of the subgraph induced
// by edges whose label intersects mask, using an iterative Tarjan so that
// histories of hundreds of thousands of transactions don't overflow the
// goroutine stack. Components are returned as slices of external node ids;
// only components that can contain a cycle (size ≥ 2) are returned, since
// self-edges are never stored.
//
// Tarjan's algorithm runs in O(nodes + edges) time (§2 of the paper cites
// this as the reason cycle detection is tractable).
func (g *Graph) SCCs(mask KindSet) [][]int {
	comps := tarjan(g.adj, mask)
	sccs := make([][]int, len(comps))
	for i, comp := range comps {
		sccs[i] = make([]int, len(comp))
		for j, v := range comp {
			sccs[i][j] = g.nodes[v]
		}
	}
	return sccs
}

// tarjan returns the components of size ≥ 2 of the adjacency adj over
// edges intersecting mask, as slices of adj's indices. It serves both
// the whole graph and the component views the cycle searches split it
// into.
func tarjan(adj [][]halfEdge, mask KindSet) [][]int32 {
	var sccs [][]int32
	components(adj, mask, func(comp []int32) {
		if len(comp) >= 2 {
			sccs = append(sccs, slices.Clone(comp))
		}
	})
	return sccs
}

// components calls emit with every component of adj over edges
// intersecting mask, singletons included, in Tarjan's emission order: a
// component is emitted only after every component it reaches, so the
// order is a reverse topological order of the condensation. comp is
// valid only during the call.
func components(adj [][]halfEdge, mask KindSet, emit func(comp []int32)) {
	n := len(adj)
	const unvisited = -1
	index := make([]int32, n)
	low := make([]int32, n)
	onStack := make([]bool, n)
	for i := range index {
		index[i] = unvisited
	}
	var (
		next    int32
		stack   []int32 // Tarjan's component stack
		callers []frame // explicit DFS stack
	)

	for root := 0; root < n; root++ {
		if index[root] != unvisited {
			continue
		}
		callers = callers[:0]
		callers = append(callers, frame{v: int32(root)})
		for len(callers) > 0 {
			f := &callers[len(callers)-1]
			v := f.v
			if !f.started {
				// First visit. The frame walks the node's adjacency slice
				// directly, filtering by mask inline — no neighbor list is
				// materialized.
				f.started = true
				index[v] = next
				low[v] = next
				next++
				stack = append(stack, v)
				onStack[v] = true
				f.out = adj[v]
			}
			descended := false
			for f.i < len(f.out) {
				e := f.out[f.i]
				f.i++
				if !e.ks.Intersects(mask) {
					continue
				}
				w := e.to
				if index[w] == unvisited {
					// Descend; the append may relocate callers, so f must
					// not be touched again this iteration.
					callers = append(callers, frame{v: w})
					descended = true
					break
				}
				if onStack[w] && index[w] < low[v] {
					low[v] = index[w]
				}
			}
			if descended {
				continue
			}
			// All neighbors done: maybe emit a component, then return.
			if low[v] == index[v] {
				top := len(stack) - 1
				for stack[top] != v {
					top--
				}
				for _, w := range stack[top:] {
					onStack[w] = false
				}
				emit(stack[top:])
				stack = stack[:top]
			}
			callers = callers[:len(callers)-1]
			if len(callers) > 0 {
				p := callers[len(callers)-1].v
				if low[v] < low[p] {
					low[p] = low[v]
				}
			}
		}
	}
}

type frame struct {
	v       int32
	out     []halfEdge
	i       int
	started bool
}
