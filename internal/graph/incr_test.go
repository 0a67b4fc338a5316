package graph

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"repro/internal/gen"
	"repro/internal/memdb"
	"repro/internal/op"
)

// sccSetsEqual compares two component partitions (each a list of sorted
// node slices) as sets of sets.
func sccSetsEqual(a, b [][]int) bool {
	if len(a) != len(b) {
		return false
	}
	key := func(scc []int) string {
		s := ""
		for _, n := range scc {
			s += fmt.Sprintf("%d,", n)
		}
		return s
	}
	set := map[string]bool{}
	for _, scc := range a {
		set[key(scc)] = true
	}
	for _, scc := range b {
		if !set[key(scc)] {
			return false
		}
	}
	return true
}

// SCCs returns every current component of size >= 2 as sorted node
// slices in sorted order, without touching the dirty set — the full
// partition, for differential tests against the batch Tarjan.
func (x *Incr) SCCs() [][]int {
	var out [][]int
	for r := range x.members {
		if x.find(r) == r {
			out = append(out, x.component(r))
		}
	}
	return sortComponents(out)
}

// drainSCCs drains the dirty set as DirtyCycles does and returns the
// components it held, in the form SCCs returns.
func drainSCCs(x *Incr) [][]int {
	var out [][]int
	for r := range x.dirty {
		out = append(out, x.component(r))
	}
	clear(x.dirty)
	return sortComponents(out)
}

// component returns root r's members as sorted external ids.
func (x *Incr) component(r int32) []int {
	var scc []int
	for _, m := range x.members[r] {
		scc = append(scc, x.g.nodes[m])
	}
	sort.Ints(scc)
	return scc
}

func sortComponents(sccs [][]int) [][]int {
	sort.Slice(sccs, func(i, j int) bool { return sccs[i][0] < sccs[j][0] })
	return sccs
}

// checkOrder verifies the maintained invariants over the implicit
// condensation: every KSDep edge between two components points forward
// in the topological order, and the in-lists mirror the graph's KSDep
// adjacency, one entry per edge.
func checkOrder(t *testing.T, x *Incr) {
	t.Helper()
	type edge struct{ from, to int32 }
	fwd, back := map[edge]bool{}, map[edge]bool{}
	for a, out := range x.g.adj {
		for _, e := range out {
			if !e.ks.Intersects(KSDep) {
				continue
			}
			fwd[edge{int32(a), e.to}] = true
			if ra, rb := x.find(int32(a)), x.find(e.to); ra != rb && x.ord[ra] >= x.ord[rb] {
				t.Fatalf("order violated: edge %d->%d joins components ordered %d >= %d",
					x.g.nodes[a], x.g.nodes[e.to], x.ord[ra], x.ord[rb])
			}
		}
	}
	for b, in := range x.in {
		for _, a := range in {
			e := edge{a, int32(b)}
			if back[e] {
				t.Fatalf("in-list of %d names %d twice", x.g.nodes[b], x.g.nodes[a])
			}
			back[e] = true
		}
	}
	if !reflect.DeepEqual(fwd, back) {
		t.Fatalf("KSDep out-edges %v, in-list edges %v", fwd, back)
	}
}

// idAssignments are ways to name the i'th of n nodes: the seeded order
// must hold its invariant for any of them, not just ids that ascend in
// arrival order.
var idAssignments = map[string]func(rng *rand.Rand, n int) []int{
	"dense":      func(_ *rand.Rand, n int) []int { return ids(n, func(i int) int { return i }) },
	"sparse":     func(_ *rand.Rand, n int) []int { return ids(n, func(i int) int { return 1000 + 7919*i }) },
	"descending": func(_ *rand.Rand, n int) []int { return ids(n, func(i int) int { return 3 * (n - i) }) },
	"shuffled": func(rng *rand.Rand, n int) []int {
		out := ids(n, func(i int) int { return 5 * i })
		rng.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
		return out
	},
	// Negative ids and ids near MaxInt: one side lies outside the
	// graph's direct-table window, in far.
	"extreme": func(_ *rand.Rand, n int) []int {
		return ids(n, func(i int) int {
			if i%2 == 0 {
				return -1 - 3*i
			}
			return math.MaxInt - 5*i
		})
	},
}

func ids(n int, f func(int) int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = f(i)
	}
	return out
}

// TestIncrMatchesTarjan inserts random edges one at a time and checks
// the incrementally maintained partition against a fresh Tarjan run —
// and the Pearce-Kelly order invariant — after every insertion. Sparse
// and dense regimes both: the sparse one exercises long merge chains,
// the dense one repeated intra-component insertion.
func TestIncrMatchesTarjan(t *testing.T) {
	for name, assign := range idAssignments {
		for _, nodes := range []int{20, 60, 200} {
			for seed := int64(0); seed < 3; seed++ {
				rng := rand.New(rand.NewSource(seed))
				id := assign(rng, nodes)
				x := NewIncr(New())
				for i := 0; i < 500; i++ {
					a, b := id[rng.Intn(nodes)], id[rng.Intn(nodes)]
					k := Kind(rng.Intn(3)) // WW, WR, RW
					x.AddEdge(a, b, k)
					got := x.SCCs()
					want := x.Graph().sortedSCCs(KSDep)
					if !sccSetsEqual(got, want) {
						t.Fatalf("%s ids, nodes %d seed %d, after %d edges (+%d->%d): incr %v, tarjan %v",
							name, nodes, seed, i+1, a, b, got, want)
					}
					checkOrder(t, x)
				}
			}
		}
	}
}

// TestIncrDirtyTracking checks that the dirty set holds exactly the
// components new edges touched, and that DirtyCycles drains it.
func TestIncrDirtyTracking(t *testing.T) {
	x := NewIncr(New())
	x.AddEdge(1, 2, WW)
	x.AddEdge(2, 1, WW)
	dirty := drainSCCs(x)
	if len(dirty) != 1 || len(dirty[0]) != 2 {
		t.Fatalf("expected one dirty 2-cycle, got %v", dirty)
	}
	if d := drainSCCs(x); d != nil {
		t.Fatalf("dirty set should drain, got %v", d)
	}
	// An unrelated acyclic edge dirties nothing.
	x.AddEdge(3, 4, WR)
	if d := drainSCCs(x); d != nil {
		t.Fatalf("acyclic insertion should not dirty, got %v", d)
	}
	// Re-adding an existing edge is a no-op.
	x.AddEdge(1, 2, WW)
	if d := drainSCCs(x); d != nil {
		t.Fatalf("idempotent insertion should not dirty, got %v", d)
	}
	// A new edge kind inside the cyclic component re-dirties it.
	x.AddEdge(1, 2, RW)
	if d := drainSCCs(x); len(d) != 1 {
		t.Fatalf("intra-component edge should dirty its component, got %v", d)
	}
	// Closing a long path merges every component on it.
	x.AddEdge(4, 5, WW)
	x.AddEdge(5, 6, WW)
	x.AddEdge(6, 3, WW)
	dirty = drainSCCs(x)
	if len(dirty) != 1 || len(dirty[0]) != 4 {
		t.Fatalf("expected merged 4-node component, got %v", dirty)
	}
	// DirtyCycles searches what is dirty once, and drains it.
	x.AddEdge(2, 1, RW)
	if c := x.DirtyCycles(1); len(c) == 0 {
		t.Fatal("DirtyCycles found no cycle in a dirty 2-cycle")
	}
	if c := x.DirtyCycles(1); c != nil {
		t.Fatalf("DirtyCycles should drain, got %v", c)
	}
}

// TestDirtyCyclesMatchesInducedSubgraph: what DirtyCycles finds in place
// is what the batch search finds on the subgraph the dirty components
// induce, copied out as a graph of its own — at every drain point of
// random insert sequences, under every way of naming nodes.
func TestDirtyCyclesMatchesInducedSubgraph(t *testing.T) {
	kinds := []Kind{WW, WR, RW, WW, WR, RW, Process, Realtime}
	found := 0
	for name, assign := range idAssignments {
		for seed := int64(0); seed < 25; seed++ {
			rng := rand.New(rand.NewSource(seed))
			nodes := 8 + rng.Intn(40)
			id := assign(rng, nodes)
			x := NewIncr(New())
			for i := 0; i < 300; i++ {
				x.AddEdge(id[rng.Intn(nodes)], id[rng.Intn(nodes)], kinds[rng.Intn(len(kinds))])
				if rng.Intn(15) != 0 {
					continue
				}
				var dirty []int
				for r := range x.dirty {
					dirty = append(dirty, x.component(r)...)
				}
				want := x.Graph().subgraph(dirty).AnomalousCycles(0, 1)
				p := 1 + 3*rng.Intn(2)
				sameCycles(t, fmt.Sprintf("%s ids, seed %d, drain after %d edges at p=%d", name, seed, i+1, p),
					x.DirtyCycles(p), want)
				found += len(want)
			}
		}
	}
	if found < 200 {
		t.Fatalf("only %d cycles over every drain: the comparison is close to vacuous", found)
	}
	t.Logf("%d cycles compared", found)
}

// TestIncrMergesThroughIntermediates exercises the condensation
// reachability: closing a cycle through components that are themselves
// multi-node must swallow them all.
func TestIncrMergesThroughIntermediates(t *testing.T) {
	x := NewIncr(New())
	// Two 2-cycles linked by a path, then close the loop.
	x.AddEdge(0, 1, WW)
	x.AddEdge(1, 0, WW)
	x.AddEdge(10, 11, WW)
	x.AddEdge(11, 10, WW)
	x.AddEdge(1, 10, WR)
	drainSCCs(x)
	x.AddEdge(11, 0, RW)
	sccs := x.SCCs()
	if len(sccs) != 1 || len(sccs[0]) != 4 {
		t.Fatalf("expected one 4-node component, got %v", sccs)
	}
	want := x.Graph().sortedSCCs(KSDep)
	if !sccSetsEqual(sccs, want) {
		t.Fatalf("incr %v != tarjan %v", sccs, want)
	}
}

// randomEdges builds a reproducible random edge list over n nodes.
func randomEdges(r *rand.Rand, n, m int) []Edge {
	out := make([]Edge, 0, m)
	for i := 0; i < m; i++ {
		a, b := r.Intn(n), r.Intn(n)
		if a == b {
			continue
		}
		out = append(out, Edge{From: a, To: b, Kind: Kind(r.Intn(3))}) // ww/wr/rw
	}
	return out
}

// TestIncrRetire: after Retire the Incr behaves like a fresh one fed
// only the live edges, no retired node left in its graph, and goes on
// behaving like it through further insertions — among live nodes, nodes
// it has never seen, and retired nodes coming back.
func TestIncrRetire(t *testing.T) {
	for name, assign := range idAssignments {
		r := rand.New(rand.NewSource(23))
		for trial := 0; trial < 10; trial++ {
			id := assign(r, 32)
			rename := func(edges []Edge) []Edge {
				for i, e := range edges {
					edges[i].From, edges[i].To = id[e.From], id[e.To]
				}
				return edges
			}
			before := rename(randomEdges(r, 24, 80))
			after := rename(randomEdges(r, 32, 80))
			retired := map[int]bool{}
			for _, n := range id[:8] {
				retired[n] = true
			}
			keep := func(n int) bool { return !retired[n] }

			x := NewIncr(New())
			for _, e := range before {
				x.AddEdge(e.From, e.To, e.Kind)
			}
			x.DirtyCycles(1) // drain, as a session would before retiring
			x.Retire(keep)

			fresh := NewIncr(New())
			for _, e := range before {
				if keep(e.From) && keep(e.To) {
					fresh.AddEdge(e.From, e.To, e.Kind)
				}
			}
			if !sccSetsEqual(x.SCCs(), fresh.SCCs()) {
				t.Fatalf("%s ids, trial %d: retired incr SCCs diverge from fresh rebuild", name, trial)
			}
			checkOrder(t, x)
			for _, n := range x.Graph().Nodes() {
				if !keep(n) {
					t.Fatalf("%s ids, trial %d: retired node %d still in live graph", name, trial, n)
				}
			}
			// A retired node that comes back is brand new.
			for _, e := range after {
				x.AddEdge(e.From, e.To, e.Kind)
				fresh.AddEdge(e.From, e.To, e.Kind)
				checkOrder(t, x)
			}
			if !sccSetsEqual(x.SCCs(), fresh.SCCs()) {
				t.Fatalf("%s ids, trial %d: retired incr SCCs diverge from fresh rebuild after further inserts", name, trial)
			}
		}
	}
}

// TestIncrSeededOrderSkipsRestore pins what seeding a node's position
// from its id buys. Transactions are numbered by completion, and a
// strict-serializable history's dependencies overwhelmingly follow that
// order, so list-append's edges over a clean history — fed as a session
// meets them, each once both its ends have completed — arrive
// order-respecting: restore runs for the few that race, not for every
// reader that meets an already-placed writer.
func TestIncrSeededOrderSkipsRestore(t *testing.T) {
	h := memdb.Run(memdb.RunConfig{
		Clients: 10, Txns: 3000, Isolation: memdb.StrictSerializable,
		Source: gen.New(gen.Config{ActiveKeys: 10, MaxWritesPerKey: 100}, 3), Seed: 3,
		Workload: memdb.WorkloadList,
	})
	// List-append's inference, as far as a clean history needs it (the
	// analyzer itself imports this package): a key's longest read is its
	// version order, an element's appender its writer.
	type elem struct {
		key string
		e   int
	}
	writer, order := map[elem]int{}, map[string][]int{}
	for _, pos := range h.OKPositions() {
		o := h.Ops[pos]
		for _, m := range o.Mops {
			if m.F == op.FAppend {
				writer[elem{m.Key, m.Arg}] = o.Index
			} else if len(m.List) > len(order[m.Key]) {
				order[m.Key] = m.List
			}
		}
	}
	var edges []Edge
	edge := func(from, to int, fromOK, toOK bool, k Kind) {
		if fromOK && toOK && from != to {
			edges = append(edges, Edge{From: from, To: to, Kind: k})
		}
	}
	for _, pos := range h.OKPositions() {
		o := h.Ops[pos]
		for _, m := range o.Mops {
			if m.F == op.FAppend {
				continue
			}
			n, trace := len(m.List), order[m.Key]
			if n > 0 {
				w, ok := writer[elem{m.Key, trace[n-1]}]
				edge(w, o.Index, ok, true, WR)
			}
			if n < len(trace) {
				w, ok := writer[elem{m.Key, trace[n]}]
				edge(o.Index, w, true, ok, RW)
			}
			if n == len(trace) {
				for i := 0; i+1 < n; i++ {
					a, aok := writer[elem{m.Key, trace[i]}]
					b, bok := writer[elem{m.Key, trace[i+1]}]
					edge(a, b, aok, bok, WW)
				}
			}
		}
	}
	sort.SliceStable(edges, func(i, j int) bool {
		return max(edges[i].From, edges[i].To) < max(edges[j].From, edges[j].To)
	})

	x := NewIncr(New())
	for _, e := range edges {
		x.AddEdge(e.From, e.To, e.Kind)
	}
	if len(x.SCCs()) != 0 {
		t.Fatalf("a strict-serializable history has dependency cycles: %v", x.SCCs())
	}
	if len(edges) < 3000 || x.restores*20 >= len(edges) {
		t.Errorf("%d of %d edges arrived against the seeded order", x.restores, len(edges))
	}
}

// TestIncrRetireKeepsOrder: what restore reordered, Retire keeps. The
// survivors of a graph that is acyclic against the order of its ids
// re-enter without a single restore.
func TestIncrRetireKeepsOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	topo := rng.Perm(200)
	x := NewIncr(New())
	for i := 0; i < 600; i++ {
		a, b := rng.Intn(len(topo)), rng.Intn(len(topo))
		x.AddEdge(topo[min(a, b)], topo[max(a, b)], Kind(rng.Intn(3)))
	}
	if len(x.SCCs()) != 0 || x.restores == 0 {
		t.Fatalf("want an acyclic graph that took restores to order: %d SCCs, %d restores", len(x.SCCs()), x.restores)
	}
	x.Retire(func(n int) bool { return n%4 != 0 })
	if n := x.Graph().NumNodes(); n == 0 || x.restores != 0 {
		t.Errorf("re-entering %d acyclic survivors took %d restores", n, x.restores)
	}
	checkOrder(t, x)
}

// TestNewIncrMatchesAddEdge: indexing a graph in one pass with NewIncr
// gives the Incr its edges build one AddEdge at a time. Both have the
// same partition, every cyclic component dirty and no other, and a valid
// order. They stay equal through a second batch of inserts that brings
// nodes the loaded graph never held, with ids below and above its own.
func TestNewIncrMatchesAddEdge(t *testing.T) {
	const nodes = 60
	for name, assign := range idAssignments {
		for _, m := range []int{30, 90, 400} {
			for seed := int64(0); seed < 4; seed++ {
				rng := rand.New(rand.NewSource(seed))
				id := assign(rng, nodes)
				g, fed := New(), NewIncr(New())
				for _, e := range randomEdges(rng, nodes, m) {
					g.AddEdge(id[e.From], id[e.To], e.Kind)
					fed.AddEdge(id[e.From], id[e.To], e.Kind)
				}
				loaded := NewIncr(g)
				check := func(phase string) {
					t.Helper()
					where := fmt.Sprintf("%s ids, %d edges, seed %d, %s", name, m, seed, phase)
					if got, want := loaded.SCCs(), fed.SCCs(); !sccSetsEqual(got, want) {
						t.Fatalf("%s: loaded %v, fed %v", where, got, want)
					}
					for _, x := range []*Incr{loaded, fed} {
						for r := range x.members {
							if !x.dirty[r] {
								t.Fatalf("%s: cyclic component %v not dirty", where, x.component(r))
							}
						}
						if len(x.dirty) != len(x.members) {
							t.Fatalf("%s: %d dirty roots, %d cyclic components", where, len(x.dirty), len(x.members))
						}
						checkOrder(t, x)
					}
				}
				check("after the load")

				// The smallest free ids lie below sparse loaded ones, and
				// collide with any position not taken from the graph's ids.
				all := slices.Clone(id)
				for n := 0; len(all) < nodes+5; n++ {
					if !slices.Contains(id, n) {
						all = append(all, n)
					}
				}
				top := slices.Max(id)
				for j := 1; j <= 5; j++ {
					all = append(all, top+7*j)
				}
				for _, e := range randomEdges(rng, len(all), m) {
					loaded.AddEdge(all[e.From], all[e.To], e.Kind)
					fed.AddEdge(all[e.From], all[e.To], e.Kind)
				}
				check("after a second batch")
			}
		}
	}
}

// FuzzIncr drives an Incr through every way it is built: edges over at
// most 32 nodes one at a time, a rebuild by NewIncr from its own graph at
// a fuzzed cut, the remaining edges, a Retire of the nodes a fuzzed mask
// names, and the first edges again, bringing retired nodes back. After
// each phase the partition is Tarjan's over the graph and the order
// holds.
func FuzzIncr(f *testing.F) {
	f.Add(uint8(0), uint32(0), []byte{})
	f.Add(uint8(2), uint32(0b1010), []byte{1, 2, 2, 3, 3, 1, 3, 4, 4, 3, 0, 1})
	f.Add(uint8(5), uint32(0xf0f0f0f0), []byte("the quick brown fox jumps over the lazy dog, twice: the quick brown fox"))
	f.Fuzz(func(t *testing.T, cut uint8, mask uint32, data []byte) {
		var edges []Edge
		for i := 0; i+1 < len(data); i += 2 {
			edges = append(edges, Edge{From: int(data[i] % 32), To: int(data[i+1] % 32), Kind: Kind(data[i] / 32 % 3)})
		}
		c := int(cut) % (len(edges) + 1)
		x := NewIncr(New())
		feed := func(es []Edge) {
			for _, e := range es {
				x.AddEdge(e.From, e.To, e.Kind)
			}
		}
		check := func(phase string) {
			t.Helper()
			if got, want := x.SCCs(), x.Graph().sortedSCCs(KSDep); !sccSetsEqual(got, want) {
				t.Fatalf("%s: incr %v, tarjan %v", phase, got, want)
			}
			checkOrder(t, x)
		}
		feed(edges[:c])
		check("before the cut")
		x = NewIncr(x.Graph())
		check("rebuilt at the cut")
		feed(edges[c:])
		check("after the cut")
		keep := func(n int) bool { return mask&(1<<n) == 0 }
		x.Retire(keep)
		check("retired")
		for _, n := range x.Graph().Nodes() {
			if !keep(n) {
				t.Fatalf("retired node %d still in the graph", n)
			}
		}
		feed(edges[:c])
		check("re-fed after retiring")
	})
}
