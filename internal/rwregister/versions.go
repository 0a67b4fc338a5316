package rwregister

import (
	"cmp"
	"slices"

	"repro/internal/graph"
	"repro/internal/history"
	"repro/internal/op"
)

// This file is the per-key pipeline. Inside it a version is its rank:
// the position of its table row when the key's rows are sorted by
// value, nil (row 0, value op.NilVersion) first. Version graphs are sorted,
// duplicate-free adjacency slices over ranks, so every walk in rank
// order is a walk in the ascending value order the reports are pinned
// to.

// keyResult is one key's inference outcome: either a cyclic-version-order
// witness, or the reduced version order plus the dependency edges it
// implies.
type keyResult struct {
	order    []int32 // rank -> table row
	cyclic   []int   // the witness's values
	verEdges [][2]int
	edges    []graph.Edge
}

// analyzeKey runs the whole per-key pipeline over ks: rank the versions,
// build the version graph from the enabled rules, reject it if cyclic,
// otherwise reduce it and explode it into transaction dependencies.
func (a *analyzer) analyzeKey(ks *keyState) keyResult {
	order := make([]int32, len(ks.tab))
	for row := range order {
		order[row] = int32(row)
	}
	slices.SortFunc(order, func(x, y int32) int { return cmp.Compare(ks.tab[x].val, ks.tab[y].val) })
	rank := make([]int32, len(order)) // table row -> rank
	for r, row := range order {
		rank[row] = int32(r)
	}

	vg := a.versionGraph(ks, rank)
	cyc, post := cyclicWitness(vg)
	if cyc != nil {
		vals := make([]int, len(cyc))
		for i, r := range cyc {
			vals[i] = ks.tab[order[r]].val
		}
		return keyResult{order: order, cyclic: vals}
	}
	reduce(vg, post)
	verEdges, edges := emitEdges(ks, order, vg)
	return keyResult{order: order, verEdges: verEdges, edges: edges}
}

// versionGraph builds the key's partial version order from the enabled
// inference rules. rank maps the table rows the rules speak of to the
// graph's nodes.
func (a *analyzer) versionGraph(ks *keyState, rank []int32) [][]int32 {
	vg := make([][]int32, len(rank))
	addEdge := func(u, v int32) {
		if u != v {
			vg[rank[u]] = append(vg[rank[u]], rank[v])
		}
	}
	if a.opts.InitialState {
		for row := range ks.tab {
			addEdge(0, int32(row))
		}
	}
	if a.opts.WritesFollowReads {
		for _, e := range ks.wfr {
			addEdge(e[0], e[1])
		}
	}
	if a.opts.LinearizableKeys {
		linearizableEdges(ks.ops, addEdge)
	}
	if a.opts.SequentialKeys {
		sequentialEdges(ks.ops, addEdge)
	}
	for u := range vg {
		slices.Sort(vg[u])
		vg[u] = slices.Compact(vg[u])
	}
	return vg
}

// sequentialEdges infers vi <x vj whenever one committed process touched
// the key at version vi in one transaction and at vj in a later one: the
// session's view of a sequentially consistent key must be monotone.
func sequentialEdges(ops []keyOp, addEdge func(u, v int32)) {
	last := map[int]int32{} // process -> the last version its latest transaction touched
	// ops is in index order, so per-process iteration follows the
	// session order.
	for _, o := range ops {
		if prev, ok := last[o.process]; ok {
			addEdge(prev, o.first)
		}
		last[o.process] = o.last
	}
}

// linearizableEdges infers vi <x vj whenever a committed transaction A
// finished touching the key at version vi strictly before a committed
// transaction B began and first touched it at version vj. The sweep
// mirrors the real-time transitive reduction: it maintains the frontier
// of completed transactions not yet transitively covered.
func linearizableEdges(ops []keyOp, addEdge func(u, v int32)) {
	byInvoke := slices.Clone(ops)
	slices.SortFunc(byInvoke, func(x, y keyOp) int { return cmp.Compare(x.invoke, y.invoke) })
	var frontier []keyOp
	ci := 0 // ops itself is in completion order
	for _, t := range byInvoke {
		for ci < len(ops) && ops[ci].index < t.invoke {
			c := ops[ci]
			ci++
			kept := frontier[:0]
			for _, f := range frontier {
				if f.index >= c.invoke {
					kept = append(kept, f)
				}
			}
			frontier = append(kept, c)
		}
		for _, f := range frontier {
			addEdge(f.last, t.first)
		}
	}
}

// cyclicWitness searches the version graph depth-first, roots and
// successors in ascending order. It returns the first cycle it meets, in
// forward order, or — the graph being acyclic — every version in
// postorder: each one after all its descendants.
func cyclicWitness(vg [][]int32) (cycle, post []int32) {
	const (
		white = iota
		gray
		black
	)
	color := make([]uint8, len(vg))
	parent := make([]int32, len(vg))
	type frame struct {
		v int32
		i int
	}
	var stack []frame
	for root := range vg {
		if color[root] != white {
			continue
		}
		color[root] = gray
		stack = append(stack, frame{v: int32(root)})
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			if f.i == len(vg[f.v]) {
				color[f.v] = black
				post = append(post, f.v)
				stack = stack[:len(stack)-1]
				continue
			}
			w := vg[f.v][f.i]
			f.i++
			switch color[w] {
			case white:
				color[w] = gray
				parent[w] = f.v
				stack = append(stack, frame{v: w})
			case gray:
				// Found a back edge f.v -> w: reconstruct the cycle.
				cyc := []int32{w}
				for at := f.v; at != w; at = parent[at] {
					cyc = append(cyc, at)
				}
				slices.Reverse(cyc)
				return cyc, nil
			}
		}
	}
	return nil, post
}

// reduce removes transitively implied edges from an acyclic version
// graph in place, so that direct edges mean "next version". post lists
// the versions descendants-first; one pass in that order keeps a
// descendant bitset per version, and u -> v is implied exactly when v
// is already a descendant of u through a topologically earlier
// successor.
func reduce(vg [][]int32, post []int32) {
	n := len(vg)
	words := (n + 63) / 64
	desc := make([]uint64, n*words)
	at := make([]int32, n) // position in post; topologically earlier is higher
	for i, v := range post {
		at[v] = int32(i)
	}
	keep := make([]bool, n)
	var succ []int32
	for _, u := range post {
		du := desc[int(u)*words:][:words]
		succ = append(succ[:0], vg[u]...)
		slices.SortFunc(succ, func(x, y int32) int { return cmp.Compare(at[y], at[x]) })
		for _, v := range succ {
			if du[v/64]&(1<<(v%64)) != 0 {
				continue
			}
			keep[v] = true
			du[v/64] |= 1 << (v % 64)
			for i, w := range desc[int(v)*words:][:words] {
				du[i] |= w
			}
		}
		vg[u] = slices.DeleteFunc(vg[u], func(v int32) bool {
			kept := keep[v]
			keep[v] = false
			return !kept
		})
	}
}

// emitEdges explodes the key's reduced version order into ww and rw
// transaction dependencies, returning the direct version edges, as
// value pairs, for reporting alongside the dependency edges.
func emitEdges(ks *keyState, order []int32, vg [][]int32) ([][2]int, []graph.Edge) {
	var edges [][2]int
	var deps []graph.Edge
	for u, outs := range vg {
		vu := &ks.tab[order[u]]
		for _, v := range outs {
			vv := &ks.tab[order[v]]
			edges = append(edges, [2]int{vu.val, vv.val})
			wv, ok := vv.sole(false)
			if !ok {
				continue
			}
			// ww: writer of u installed the version v's writer replaced.
			if wu, ok := vu.sole(false); ok && u != 0 {
				deps = append(deps, graph.Edge{From: wu, To: wv, Kind: graph.WW})
			}
			// rw: every reader of u anti-depends on the writer of its
			// successor v.
			for _, r := range vu.readers {
				deps = append(deps, graph.Edge{From: r, To: wv, Kind: graph.RW})
			}
		}
	}
	return edges, deps
}

// emitWR adds write-read dependencies, which need no version order: a
// reader of value v depends on v's unique writer. Keys go in name
// order, values ascending, readers in index order.
func (a *analyzer) emitWR(g *graph.Graph, keys []history.KeyID) {
	for _, k := range keys {
		ks := a.keyst[k]
		for _, row := range ks.res.order {
			vs := &ks.tab[row]
			if w, ok := vs.sole(false); ok {
				for _, r := range vs.readers {
					g.AddEdge(w, r, graph.WR)
				}
			}
		}
	}
}

// formatVersionCycle renders a cyclic version order as "1 < 2 < nil < 1".
func formatVersionCycle(cyc []int) string {
	var b []byte
	for i := range len(cyc) + 1 {
		if i > 0 {
			b = append(b, " < "...)
		}
		b = op.AppendVersion(b, cyc[i%len(cyc)])
	}
	return string(b)
}
