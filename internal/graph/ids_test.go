package graph

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// This file keeps the node addressing the direct table replaced, as a
// test-only reference: mapGraph resolves external ids through one
// map[int]int32, as Graph once did. The tests below require Graph to
// agree with it on every id distribution the window must survive —
// dense, descending, strided, negative, near the ends of int, and a
// second window far from the first.

// mapGraph is Graph with map-based addressing.
type mapGraph struct {
	ids   map[int]int32
	nodes []int
	adj   [][]halfEdge
	edges int
}

func newMapGraph() *mapGraph { return &mapGraph{ids: map[int]int32{}} }

func (g *mapGraph) ensure(n int) int32 {
	if id, ok := g.ids[n]; ok {
		return id
	}
	id := int32(len(g.nodes))
	g.ids[n] = id
	g.nodes = append(g.nodes, n)
	g.adj = append(g.adj, nil)
	return id
}

func (g *mapGraph) addEdge(a, b int, k Kind) {
	if a == b {
		g.ensure(a)
		return
	}
	ai, bi := g.ensure(a), g.ensure(b)
	out := g.adj[ai]
	i := searchHalf(out, bi)
	if i < len(out) && out[i].to == bi {
		out[i].ks |= k.Mask()
		return
	}
	g.adj[ai] = slices.Insert(out, i, halfEdge{to: bi, ks: k.Mask()})
	g.edges++
}

func (g *mapGraph) label(a, b int) KindSet {
	ai, ok := g.ids[a]
	bi, ok2 := g.ids[b]
	if !ok || !ok2 {
		return 0
	}
	out := g.adj[ai]
	if i := searchHalf(out, bi); i < len(out) && out[i].to == bi {
		return out[i].ks
	}
	return 0
}

// outSorted is OutSorted's sequence over every kind.
func (g *mapGraph) outSorted(a int) []labeled {
	ai, ok := g.ids[a]
	if !ok {
		return nil
	}
	var out []labeled
	for _, e := range g.adj[ai] {
		out = append(out, labeled{g.nodes[e.to], e.ks})
	}
	slices.SortFunc(out, func(x, y labeled) int { return cmp.Compare(x.n, y.n) })
	return out
}

type labeled struct {
	n  int
	ks KindSet
}

// idOp is one step of an id stream: Ensure(a), or, if edge is set,
// AddEdge(a, b, k).
type idOp struct {
	a, b int
	k    Kind
	edge bool
}

// idSegments name the i'th id of a run of each distribution; x varies
// the run.
var idSegments = []struct {
	name string
	id   func(i, x int) int
}{
	{"dense", func(i, _ int) int { return i }},
	{"descending", func(i, _ int) int { return 200_000 - i }},
	{"stride", func(i, x int) int { return x + 7919*i }},
	{"negative", func(i, x int) int { return -1 - i*(1+x%5) }},
	{"extreme", func(i, x int) int {
		return [...]int{math.MaxInt - i, math.MinInt + i, 1<<62 + i, -(1 << 62) - i}[x%4]
	}},
	{"late", func(i, _ int) int { return 1e9 + i }},
}

// randomIDOps mixes a few runs of random distributions and lengths. Each
// id is ensured or joined by an edge, either way, to an id seen before.
func randomIDOps(rng *rand.Rand, maxRun int) []idOp {
	var ops []idOp
	var seen []int
	next := make([]int, len(idSegments)) // each distribution resumes where it stopped
	for run := 1 + rng.Intn(6); run > 0; run-- {
		s, x := rng.Intn(len(idSegments)), rng.Intn(100)
		for n := 1 + rng.Intn(maxRun); n > 0; n-- {
			id := idSegments[s].id(next[s], x)
			next[s]++
			ops = append(ops, streamOp(id, seen, rng.Intn(3), rng.Intn(len(seen)+1), Kind(rng.Intn(numKinds))))
			seen = append(seen, id)
		}
	}
	return ops
}

// streamOp makes id's step: an Ensure (how 0), or an edge from it (1)
// or to it (2) with the seen id at peer, if there is one.
func streamOp(id int, seen []int, how, peer int, k Kind) idOp {
	if how == 0 || peer >= len(seen) {
		return idOp{a: id}
	}
	if how == 1 {
		return idOp{a: id, b: seen[peer], k: k, edge: true}
	}
	return idOp{a: seen[peer], b: id, k: k, edge: true}
}

// checkAgainstMap replays ops into a Graph and a mapGraph and requires
// the same dense ids from every Ensure, a window within its bound after
// every step, and, at the end, the same Nodes order, node and edge
// counts, HasNode and Label answers and OutSorted sequences over the
// ids the stream named and their neighbours. Label is compared over all
// pairs of those ids, or against a sample of them for long streams.
func checkAgainstMap(t *testing.T, what string, ops []idOp) {
	t.Helper()
	g, ref := New(), newMapGraph()
	probes := []int{0, 1, -1, math.MinInt, math.MaxInt}
	for i, o := range ops {
		if o.edge {
			g.AddEdge(o.a, o.b, o.k)
			ref.addEdge(o.a, o.b, o.k)
			probes = append(probes, o.b)
		} else if got, want := g.Ensure(o.a), ref.ensure(o.a); got != want {
			t.Fatalf("%s: step %d: Ensure(%d) = %d, want %d", what, i, o.a, got, want)
		}
		if len(g.tab) > 4*g.NumNodes()+4096 {
			t.Fatalf("%s: step %d: window of %d for %d nodes", what, i, len(g.tab), g.NumNodes())
		}
		probes = append(probes, o.a, o.a+1, o.a-1)
	}
	slices.Sort(probes)
	probes = slices.Compact(probes)
	if !slices.Equal(g.Nodes(), ref.nodes) {
		t.Fatalf("%s: Nodes %v, want %v", what, g.Nodes(), ref.nodes)
	}
	if g.NumNodes() != len(ref.nodes) || g.NumEdges() != ref.edges {
		t.Fatalf("%s: %d nodes and %d edges, want %d and %d", what, g.NumNodes(), g.NumEdges(), len(ref.nodes), ref.edges)
	}
	sample := probes
	if len(probes) > 400 {
		sample = make([]int, 64)
		for i := range sample {
			sample[i] = probes[i*len(probes)/len(sample)]
		}
	}
	for _, a := range probes {
		if _, ok := ref.ids[a]; g.HasNode(a) != ok {
			t.Fatalf("%s: HasNode(%d) = %v, want %v", what, a, !ok, ok)
		}
		want := ref.outSorted(a)
		var got []labeled
		g.OutSorted(a, ^KindSet(0), func(b int, ks KindSet) { got = append(got, labeled{b, ks}) })
		if !slices.Equal(got, want) {
			t.Fatalf("%s: OutSorted(%d) = %v, want %v", what, a, got, want)
		}
		for _, l := range want {
			if g.Label(a, l.n) != l.ks {
				t.Fatalf("%s: Label(%d, %d) = %v, want %v", what, a, l.n, g.Label(a, l.n), l.ks)
			}
		}
		for _, b := range sample {
			if got, want := g.Label(a, b), ref.label(a, b); got != want {
				t.Fatalf("%s: Label(%d, %d) = %v, want %v", what, a, b, got, want)
			}
		}
	}
}

// ensureAll is a stream of bare Ensures.
func ensureAll(ids ...[]int) []idOp {
	var ops []idOp
	for _, run := range ids {
		for _, n := range run {
			ops = append(ops, idOp{a: n})
		}
	}
	return ops
}

func TestGraphMatchesMapReference(t *testing.T) {
	for _, s := range idSegments {
		run := make([]int, 5000)
		for i := range run {
			run[i] = s.id(i, 3)
		}
		checkAgainstMap(t, s.name, ensureAll(run))
	}
	// An id far ahead of the window lands in far; the window grows over
	// it as the dense ids catch up, and takes it in. The same again
	// below the window, and an edge from each.
	up, down := ids(60_000, func(i int) int { return i + 1 }), ids(60_000, func(i int) int { return -1 - i })
	adopt := ensureAll([]int{0, 50_000}, up, []int{-50_000}, down)
	adopt = append(adopt, idOp{a: 50_000, b: -50_000, k: WW, edge: true})
	checkAgainstMap(t, "adopted", adopt)

	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		checkAgainstMap(t, fmt.Sprintf("seed %d", seed), randomIDOps(rng, []int{20, 300, 3000}[seed%3]))
	}
}

// TestDenseIDsStayInWindow: ids that ascend densely from 0, or from 10⁹
// in a fresh graph, are all addressed by the table; far is never made.
func TestDenseIDsStayInWindow(t *testing.T) {
	for _, base := range []int{0, 1e9} {
		n := 100_000
		if base != 0 {
			n = 10_000
		}
		g := New()
		for i := 0; i < n; i++ {
			g.AddEdge(base+i, base+i/2, WW)
		}
		if g.far != nil || g.NumNodes() != n {
			t.Errorf("ids %d..%d: far %v, %d nodes", base, base+n-1, g.far, g.NumNodes())
		}
	}
}

// FuzzGraphIDs reads a stream of id steps from the input, three bytes
// each: which distribution the id comes from and whether it is ensured
// or joined by an edge to an id seen before, a parameter for the
// distribution and the kind, and which id it joins.
func FuzzGraphIDs(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 6, 1, 0, 12, 2, 1, 4, 3, 0, 10, 0, 2, 17, 9, 1, 5, 0, 0, 11, 7, 4})
	f.Add([]byte("dense, then descending and extreme ids; strided, late and negative ones"))
	f.Fuzz(func(t *testing.T, data []byte) {
		var ops []idOp
		var seen []int
		next := make([]int, len(idSegments))
		for i := 0; i+2 < len(data); i += 3 {
			s, x, y := int(data[i]), int(data[i+1]), int(data[i+2])
			seg := s % len(idSegments)
			id := idSegments[seg].id(next[seg], x)
			next[seg]++
			ops = append(ops, streamOp(id, seen, s/len(idSegments)%3, y%(len(seen)+1), Kind(x%numKinds)))
			seen = append(seen, id)
		}
		checkAgainstMap(t, fmt.Sprintf("%d steps", len(ops)), ops)
	})
}
