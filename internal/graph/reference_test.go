package graph

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// This file keeps the map-based cycle search the dense component views
// replaced, as a test-only reference: every search walks the whole
// graph's adjacency through OutSorted, tests membership in a map, and
// keeps its BFS state in maps. The differential tests below require the
// production searches to return exactly its cycles — steps, labels, Via
// and order — on random graphs of every shape.

func (g *Graph) sortedSCCs(mask KindSet) [][]int {
	sccs := g.SCCs(mask)
	for _, scc := range sccs {
		sort.Ints(scc)
	}
	sort.Slice(sccs, func(i, j int) bool { return sccs[i][0] < sccs[j][0] })
	return sccs
}

// subgraph returns the subgraph of g induced by the given nodes, as a
// graph of its own, preserving every edge kind among them. Nodes absent
// from g are ignored. Streaming scans once copied the dirty components
// out this way before searching them; Incr.DirtyCycles is held to it.
func (g *Graph) subgraph(nodes []int) *Graph {
	out := New()
	in := make(map[int]bool, len(nodes))
	for _, n := range nodes {
		if g.HasNode(n) {
			in[n] = true
			out.Ensure(n)
		}
	}
	for _, n := range nodes {
		ai, ok := g.lookup(n)
		if !ok {
			continue
		}
		for _, e := range g.adj[ai] {
			if b := g.nodes[e.to]; in[b] {
				out.addMask(n, b, e.ks)
			}
		}
	}
	return out
}

func memberSet(nodes []int) map[int]bool {
	in := make(map[int]bool, len(nodes))
	for _, n := range nodes {
		in[n] = true
	}
	return in
}

func (g *Graph) refFindCycles(mask KindSet) []Cycle {
	var out []Cycle
	for _, scc := range g.sortedSCCs(mask) {
		if c, ok := g.refBFSCycle(scc[0], scc[0], mask, memberSet(scc), Step{}); ok {
			out = append(out, c)
		}
	}
	return out
}

// refCycleThrough is the exactly-one search with mask = rest and the
// at-least-one search with mask = the full mask: the first edge of kind
// one out of each member, in ascending (member, target) order, closed by
// a shortest path over mask.
func (g *Graph) refCycleThrough(one Kind, full, mask KindSet) []Cycle {
	var out []Cycle
	for _, scc := range g.sortedSCCs(full) {
		in := memberSet(scc)
		var found Cycle
		ok := false
		for _, u := range scc {
			g.OutSorted(u, one.Mask(), func(v int, label KindSet) {
				if ok || !in[v] {
					return
				}
				first := Step{From: u, To: v, Label: label, Via: one}
				if c, hit := g.refBFSCycle(v, u, mask, in, first); hit {
					found, ok = c, true
				}
			})
			if ok {
				break
			}
		}
		if ok {
			out = append(out, found)
		}
	}
	return out
}

func (g *Graph) refFindCyclesWithExactlyOne(one Kind, rest KindSet) []Cycle {
	return g.refCycleThrough(one, one.Mask()|rest, rest)
}

func (g *Graph) refFindCyclesWithAtLeastOne(req Kind, mask KindSet) []Cycle {
	return g.refCycleThrough(req, req.Mask()|mask, req.Mask()|mask)
}

func (g *Graph) refAnomalousCycles(extra KindSet) []Cycle {
	found := [][]Cycle{
		g.refFindCycles(KSWW | extra),
		g.refFindCycles(KSWWWR | extra),
		g.refFindCyclesWithExactlyOne(RW, KSWWWR|extra),
		g.refFindCyclesWithAtLeastOne(RW, KSDep|extra),
	}
	seen := map[string]bool{}
	var out []Cycle
	for _, cs := range found {
		for _, c := range cs {
			if k := CycleKey(c); !seen[k] {
				seen[k] = true
				out = append(out, c)
			}
		}
	}
	return out
}

// refBFSCycle finds a shortest path from start to goal using edges
// intersecting mask and restricted to nodes in the member set, then
// closes it into a cycle behind prefix, if prefix is a non-zero Step.
// When start == goal the search looks for a non-trivial loop back to goal.
func (g *Graph) refBFSCycle(start, goal int, mask KindSet, in map[int]bool, prefix Step) (Cycle, bool) {
	type cameFrom struct {
		prev int
		via  Kind
		lab  KindSet
	}
	parent := map[int]cameFrom{}
	queue := []int{start}
	visited := map[int]bool{start: true}
	reached := false
	for len(queue) > 0 && !reached {
		u := queue[0]
		queue = queue[1:]
		g.OutSorted(u, mask, func(v int, label KindSet) {
			if reached || !in[v] {
				return
			}
			if v == goal {
				parent[goal] = cameFrom{prev: u, via: firstKind(label, mask), lab: label}
				reached = true
				return
			}
			if !visited[v] {
				visited[v] = true
				parent[v] = cameFrom{prev: u, via: firstKind(label, mask), lab: label}
				queue = append(queue, v)
			}
		})
	}
	if !reached {
		return Cycle{}, false
	}
	var rev []Step
	at := goal
	for {
		cf := parent[at]
		rev = append(rev, Step{From: cf.prev, To: at, Label: cf.lab, Via: cf.via})
		at = cf.prev
		if at == start {
			break
		}
	}
	steps := make([]Step, 0, len(rev)+1)
	if prefix.From != prefix.To || prefix.Label != 0 {
		steps = append(steps, prefix)
	}
	for i := len(rev) - 1; i >= 0; i-- {
		steps = append(steps, rev[i])
	}
	return Cycle{Steps: steps}, true
}

// randomGraph builds one of the shapes the differential tests cover.
// Node ids are scattered (not dense, not insertion-ordered) so that
// external order, insertion order and dense ids all disagree.
func randomGraph(rng *rand.Rand, shape string) *Graph {
	g := New()
	kinds := []Kind{WW, WR, RW, Process, Realtime, Timestamp, Version}
	kind := func() Kind {
		if rng.Intn(3) == 0 {
			return kinds[3+rng.Intn(4)]
		}
		return kinds[rng.Intn(3)]
	}
	id := func(i int) int { return (i*7919)%1009 - 300 }
	edge := func(a, b int) {
		g.AddEdge(id(a), id(b), kind())
		if rng.Intn(4) == 0 {
			g.AddEdge(id(a), id(b), kind()) // a second kind on the same pair
		}
	}
	switch shape {
	case "dense":
		n := 2 + rng.Intn(10)
		for e := rng.Intn(n * n); e > 0; e-- {
			edge(rng.Intn(n), rng.Intn(n))
		}
	case "sparse":
		n := 5 + rng.Intn(60)
		for e := rng.Intn(n + n/2); e > 0; e-- {
			edge(rng.Intn(n), rng.Intn(n))
		}
	case "nested":
		// Rings of ww inside rings of wr inside a ring closed by rw, with
		// chords: the per-mask components nest inside the full one.
		n := 4 + rng.Intn(20)
		for i := 0; i < n; i++ {
			g.AddEdge(id(i), id((i+1)%n), []Kind{WW, WR, RW}[rng.Intn(3)])
			if i%3 == 0 {
				g.AddEdge(id((i+2)%n), id(i), []Kind{WW, WR}[rng.Intn(2)])
			}
		}
		for e := rng.Intn(n); e > 0; e-- {
			edge(rng.Intn(n), rng.Intn(n))
		}
	case "disjoint":
		// Several small components, inserted interleaved, plus bridges
		// that leave them separate components.
		parts := 2 + rng.Intn(5)
		size := 2 + rng.Intn(5)
		for e := rng.Intn(parts * size * 3); e > 0; e-- {
			p := rng.Intn(parts)
			edge(p*size+rng.Intn(size), p*size+rng.Intn(size))
		}
		for p := 0; p+1 < parts; p++ {
			g.AddEdge(id(p*size), id((p+1)*size), kind())
		}
	}
	return g
}

var graphShapes = []string{"dense", "sparse", "nested", "disjoint"}

// extras are the ordering-kind sets the checker passes AnomalousCycles.
var extras = []KindSet{
	0, Process.Mask(), Realtime.Mask(), KSOrders,
	Timestamp.Mask(), KSOrders | Timestamp.Mask(),
}

func sameCycles(t *testing.T, what string, got, want []Cycle) {
	t.Helper()
	if len(got) == 0 && len(want) == 0 {
		return
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s:\n got  %v\n want %v", what, got, want)
	}
}

// checkAgainstReference runs every search on g, AnomalousCycles at p 1
// and 4, and requires the reference's exact cycles.
func checkAgainstReference(t *testing.T, g *Graph, what string) {
	t.Helper()
	masks := []KindSet{KSWW, KSWWWR, KSDep, KSDep | KSOrders, KSWW | Timestamp.Mask(), RW.Mask() | Process.Mask()}
	for _, m := range masks {
		sameCycles(t, fmt.Sprintf("%s: FindCycles(%v)", what, m), g.FindCycles(m), g.refFindCycles(m))
	}
	for _, extra := range extras {
		rest := KSWWWR | extra
		sameCycles(t, fmt.Sprintf("%s: FindCyclesWithExactlyOne(rw, %v)", what, rest),
			g.FindCyclesWithExactlyOne(RW, rest), g.refFindCyclesWithExactlyOne(RW, rest))
		sameCycles(t, fmt.Sprintf("%s: FindCyclesWithAtLeastOne(rw, %v)", what, KSDep|extra),
			g.FindCyclesWithAtLeastOne(RW, KSDep|extra), g.refFindCyclesWithAtLeastOne(RW, KSDep|extra))
		for _, p := range []int{1, 4} {
			sameCycles(t, fmt.Sprintf("%s: AnomalousCycles(%v, %d)", what, extra, p),
				g.AnomalousCycles(extra, p), g.refAnomalousCycles(extra))
		}
		if _, n := g.AnomalousComponents(extra, 1); n != len(g.sortedSCCs(KSDep|extra)) {
			t.Fatalf("%s: AnomalousComponents(%v) counts %d components, Tarjan finds %d",
				what, extra, n, len(g.sortedSCCs(KSDep|extra)))
		}
	}
	// A kind outside the rest mask, and one inside it.
	sameCycles(t, what+": FindCyclesWithExactlyOne(wr, ww)", g.FindCyclesWithExactlyOne(WR, KSWW), g.refFindCyclesWithExactlyOne(WR, KSWW))
	sameCycles(t, what+": FindCyclesWithAtLeastOne(ww, dep)", g.FindCyclesWithAtLeastOne(WW, KSDep), g.refFindCyclesWithAtLeastOne(WW, KSDep))
}

func TestCycleSearchMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	for _, shape := range graphShapes {
		found := 0
		for trial := 0; trial < 150; trial++ {
			g := randomGraph(rng, shape)
			checkAgainstReference(t, g, fmt.Sprintf("%s trial %d", shape, trial))
			found += len(g.refAnomalousCycles(KSOrders))
		}
		// Dozens to hundreds per shape: the comparison is not vacuous.
		if found < 50 {
			t.Fatalf("%s: only %d cycles over 150 graphs", shape, found)
		}
	}
}

// TestCycleSearchMatchesReferenceOnSubgraphs searches induced subgraphs
// the way a streaming scan does: the nodes of some components, listed
// in an order of their own.
func TestCycleSearchMatchesReferenceOnSubgraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	for _, shape := range graphShapes {
		for trial := 0; trial < 80; trial++ {
			g := randomGraph(rng, shape)
			var nodes []int
			for _, scc := range g.SCCs(KSDep | KSOrders) {
				if rng.Intn(3) > 0 {
					nodes = append(nodes, scc...)
				}
			}
			rng.Shuffle(len(nodes), func(i, j int) { nodes[i], nodes[j] = nodes[j], nodes[i] })
			checkAgainstReference(t, g.subgraph(nodes), fmt.Sprintf("%s subgraph trial %d", shape, trial))
		}
	}
}
