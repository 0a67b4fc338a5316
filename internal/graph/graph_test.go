package graph

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestKindSet(t *testing.T) {
	s := WW.Mask() | RW.Mask()
	if !s.Has(WW) || !s.Has(RW) || s.Has(WR) {
		t.Errorf("KindSet membership wrong: %v", s)
	}
	if s.String() != "ww|rw" {
		t.Errorf("KindSet.String() = %q", s.String())
	}
	if !s.Intersects(RW.Mask()) || s.Intersects(Process.Mask()) {
		t.Error("Intersects wrong")
	}
	kinds := s.Kinds()
	if len(kinds) != 2 || kinds[0] != WW || kinds[1] != RW {
		t.Errorf("Kinds() = %v", kinds)
	}
}

func TestKindStrings(t *testing.T) {
	want := map[Kind]string{
		WW: "ww", WR: "wr", RW: "rw",
		Process: "process", Realtime: "rt", Version: "version",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), s)
		}
	}
}

func TestAddEdgeAndLabels(t *testing.T) {
	g := New()
	g.AddEdge(1, 2, WW)
	g.AddEdge(1, 2, WR)
	g.AddEdge(2, 3, RW)
	if g.NumNodes() != 3 {
		t.Errorf("NumNodes = %d", g.NumNodes())
	}
	if g.NumEdges() != 2 {
		t.Errorf("NumEdges = %d (parallel kinds should merge)", g.NumEdges())
	}
	if l := g.Label(1, 2); !l.Has(WW) || !l.Has(WR) {
		t.Errorf("Label(1,2) = %v", l)
	}
	if l := g.Label(3, 1); l != 0 {
		t.Errorf("Label(3,1) = %v, want empty", l)
	}
}

func TestSelfEdgesIgnored(t *testing.T) {
	g := New()
	g.AddEdge(1, 1, WW)
	if g.NumEdges() != 0 {
		t.Error("self edges must be ignored")
	}
	if g.NumNodes() != 1 {
		t.Error("self edge should still ensure the node")
	}
}

func TestOutFiltering(t *testing.T) {
	g := New()
	g.AddEdge(1, 2, WW)
	g.AddEdge(1, 3, RW)
	var got []int
	g.OutSorted(1, WW.Mask(), func(b int, _ KindSet) { got = append(got, b) })
	if len(got) != 1 || got[0] != 2 {
		t.Errorf("Out(ww) = %v", got)
	}
	got = nil
	g.OutSorted(1, KSDep, func(b int, _ KindSet) { got = append(got, b) })
	if len(got) != 2 {
		t.Errorf("Out(all) = %v", got)
	}
	// Unknown node: no callbacks, no panic.
	g.Out(99, KSDep, func(int, KindSet) { t.Error("unexpected callback") })
}

func TestMerge(t *testing.T) {
	a := New()
	a.AddEdge(1, 2, WW)
	b := New()
	b.AddEdge(2, 3, Process)
	b.AddEdge(1, 2, RW)
	b.Ensure(9)
	a.Merge(b)
	if !a.Label(1, 2).Has(RW) || !a.Label(1, 2).Has(WW) {
		t.Error("merge should union labels")
	}
	if !a.Label(2, 3).Has(Process) {
		t.Error("merge should carry new edges")
	}
	if !a.HasNode(9) {
		t.Error("merge should carry isolated nodes")
	}
}

func TestSCCsSimple(t *testing.T) {
	g := New()
	// Cycle 1-2-3, plus a tail 3->4.
	g.AddEdge(1, 2, WW)
	g.AddEdge(2, 3, WW)
	g.AddEdge(3, 1, WW)
	g.AddEdge(3, 4, WW)
	sccs := g.SCCs(KSWW)
	if len(sccs) != 1 {
		t.Fatalf("SCCs = %v", sccs)
	}
	got := sccs[0]
	sort.Ints(got)
	if len(got) != 3 || got[0] != 1 || got[2] != 3 {
		t.Errorf("SCC = %v", got)
	}
}

func TestSCCsRespectMask(t *testing.T) {
	g := New()
	g.AddEdge(1, 2, WW)
	g.AddEdge(2, 1, RW) // cycle only if rw edges allowed
	if sccs := g.SCCs(KSWW); len(sccs) != 0 {
		t.Errorf("ww-only SCCs = %v", sccs)
	}
	if sccs := g.SCCs(KSDep); len(sccs) != 1 {
		t.Errorf("full SCCs = %v", sccs)
	}
}

func TestSCCsLargeChainNoOverflow(t *testing.T) {
	// A 200k-node cycle exercises the iterative Tarjan; a recursive
	// implementation would blow the stack.
	g := New()
	const n = 200000
	for i := 0; i < n; i++ {
		g.AddEdge(i, (i+1)%n, WW)
	}
	sccs := g.SCCs(KSWW)
	if len(sccs) != 1 || len(sccs[0]) != n {
		t.Fatalf("giant cycle not found: %d components", len(sccs))
	}
}

func TestFindCyclesWW(t *testing.T) {
	g := New()
	g.AddEdge(1, 2, WW)
	g.AddEdge(2, 1, WW)
	g.AddEdge(5, 6, WW) // acyclic part
	cycles := g.FindCycles(KSWW)
	if len(cycles) != 1 {
		t.Fatalf("cycles = %d", len(cycles))
	}
	c := cycles[0]
	if len(c.Steps) != 2 {
		t.Errorf("cycle length = %d", len(c.Steps))
	}
	for _, s := range c.Steps {
		if s.Via != WW {
			t.Errorf("step via %v", s.Via)
		}
	}
	// The cycle must be closed.
	if c.Steps[len(c.Steps)-1].To != c.Steps[0].From {
		t.Error("cycle not closed")
	}
}

func TestFindCyclesFindsShortWitness(t *testing.T) {
	g := New()
	// Big cycle 1..5, with a chord making a short cycle 1-2-1.
	for i := 1; i <= 5; i++ {
		g.AddEdge(i, i%5+1, WW)
	}
	g.AddEdge(2, 1, WW)
	cycles := g.FindCycles(KSWW)
	if len(cycles) != 1 {
		t.Fatalf("cycles = %d", len(cycles))
	}
	if len(cycles[0].Steps) != 2 {
		t.Errorf("expected the short witness, got %d steps", len(cycles[0].Steps))
	}
}

func TestFindCyclesWithExactlyOne(t *testing.T) {
	g := New()
	// G-single shape: 1 -rw-> 2 -ww-> 1.
	g.AddEdge(1, 2, RW)
	g.AddEdge(2, 1, WW)
	cycles := g.FindCyclesWithExactlyOne(RW, KSWWWR)
	if len(cycles) != 1 {
		t.Fatalf("cycles = %d", len(cycles))
	}
	c := cycles[0]
	if c.CountVia(RW) != 1 {
		t.Errorf("rw steps = %d", c.CountVia(RW))
	}
}

func TestFindCyclesWithExactlyOneRejectsTwoRW(t *testing.T) {
	g := New()
	// Write-skew shape: both edges are rw; no cycle uses exactly one.
	g.AddEdge(1, 2, RW)
	g.AddEdge(2, 1, RW)
	if cycles := g.FindCyclesWithExactlyOne(RW, KSWWWR); len(cycles) != 0 {
		t.Errorf("found %d cycles, want 0", len(cycles))
	}
	// But the at-least-one search must find it.
	cycles := g.FindCyclesWithAtLeastOne(RW, KSDep)
	if len(cycles) != 1 {
		t.Fatalf("at-least-one found %d", len(cycles))
	}
	if cycles[0].CountVia(RW) != 2 {
		t.Errorf("rw steps = %d, want 2", cycles[0].CountVia(RW))
	}
}

func TestFindCyclesWithExactlyOnePrefersLongWayRound(t *testing.T) {
	g := New()
	// 1 -rw-> 2 -wr-> 3 -ww-> 1 : exactly one rw in a 3-cycle.
	g.AddEdge(1, 2, RW)
	g.AddEdge(2, 3, WR)
	g.AddEdge(3, 1, WW)
	cycles := g.FindCyclesWithExactlyOne(RW, KSWWWR)
	if len(cycles) != 1 {
		t.Fatalf("cycles = %d", len(cycles))
	}
	c := cycles[0]
	if len(c.Steps) != 3 || c.CountVia(RW) != 1 {
		t.Errorf("cycle = %v", c)
	}
}

func TestCycleString(t *testing.T) {
	g := New()
	g.AddEdge(3, 7, RW)
	g.AddEdge(7, 3, WW)
	c := g.FindCyclesWithExactlyOne(RW, KSWW)[0]
	want := "T3 -rw-> T7 -ww-> T3"
	if got := c.String(); got != want {
		t.Errorf("Cycle.String() = %q, want %q", got, want)
	}
}

func TestCycleNodes(t *testing.T) {
	c := Cycle{Steps: []Step{
		{From: 1, To: 2, Via: WW},
		{From: 2, To: 1, Via: WW},
	}}
	nodes := c.Nodes()
	if len(nodes) != 2 || nodes[0] != 1 || nodes[1] != 2 {
		t.Errorf("Nodes() = %v", nodes)
	}
}

// TestCycleClosureProperty: every cycle any search returns is genuinely
// closed, uses only permitted kinds, and every step corresponds to a real
// edge of the graph.
func TestCycleClosureProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 100; trial++ {
		g := New()
		n := 2 + rng.Intn(20)
		edges := 1 + rng.Intn(60)
		for i := 0; i < edges; i++ {
			a, b := rng.Intn(n), rng.Intn(n)
			k := Kind(rng.Intn(3)) // ww, wr, rw
			g.AddEdge(a, b, k)
		}
		checkCycles := func(cs []Cycle, mask KindSet) {
			for _, c := range cs {
				if len(c.Steps) < 2 {
					t.Fatalf("trial %d: degenerate cycle %v", trial, c)
				}
				for i, s := range c.Steps {
					if !g.Label(s.From, s.To).Has(s.Via) {
						t.Fatalf("trial %d: phantom edge %v", trial, s)
					}
					if !mask.Has(s.Via) {
						t.Fatalf("trial %d: kind %v outside mask %v", trial, s.Via, mask)
					}
					next := c.Steps[(i+1)%len(c.Steps)]
					if s.To != next.From {
						t.Fatalf("trial %d: cycle not closed at step %d", trial, i)
					}
				}
			}
		}
		checkCycles(g.FindCycles(KSWW), KSWW)
		checkCycles(g.FindCycles(KSWWWR), KSWWWR)
		checkCycles(g.FindCycles(KSDep), KSDep)
		for _, c := range g.FindCyclesWithExactlyOne(RW, KSWWWR) {
			if c.CountVia(RW) != 1 {
				t.Fatalf("trial %d: exactly-one returned %d rw steps", trial, c.CountVia(RW))
			}
		}
		checkCycles(g.FindCyclesWithExactlyOne(RW, KSWWWR), KSDep)
		for _, c := range g.FindCyclesWithAtLeastOne(RW, KSDep) {
			if c.CountVia(RW) < 1 {
				t.Fatalf("trial %d: at-least-one returned no rw step", trial)
			}
		}
	}
}

// TestSCCAgainstNaive cross-checks Tarjan against a reachability-based
// SCC computation on small random graphs.
func TestSCCAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 60; trial++ {
		g := New()
		n := 1 + rng.Intn(12)
		for i := 0; i < n; i++ {
			g.Ensure(i)
		}
		for e := 0; e < rng.Intn(30); e++ {
			g.AddEdge(rng.Intn(n), rng.Intn(n), WW)
		}
		want := naiveSCCs(g, n)
		got := map[string]bool{}
		for _, scc := range g.SCCs(KSWW) {
			sort.Ints(scc)
			got[fmtInts(scc)] = true
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: got %d sccs, want %d", trial, len(got), len(want))
		}
		for sig := range want {
			if !got[sig] {
				t.Fatalf("trial %d: missing scc %s", trial, sig)
			}
		}
	}
}

func naiveSCCs(g *Graph, n int) map[string]bool {
	reach := make([][]bool, n)
	for i := range reach {
		reach[i] = make([]bool, n)
		// DFS from i.
		stack := []int{i}
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			g.Out(u, KSWW, func(v int, _ KindSet) {
				if !reach[i][v] {
					reach[i][v] = true
					stack = append(stack, v)
				}
			})
		}
	}
	comps := map[string]bool{}
	assigned := make([]bool, n)
	for i := 0; i < n; i++ {
		if assigned[i] {
			continue
		}
		var comp []int
		for j := 0; j < n; j++ {
			if i == j || (reach[i][j] && reach[j][i]) {
				comp = append(comp, j)
			}
		}
		keep := comp[:0]
		for _, j := range comp {
			if j == i || (reach[i][j] && reach[j][i]) {
				keep = append(keep, j)
				assigned[j] = true
			}
		}
		if len(keep) >= 2 {
			sort.Ints(keep)
			comps[fmtInts(keep)] = true
		}
	}
	return comps
}

func fmtInts(xs []int) string {
	out := ""
	for _, x := range xs {
		out += itoa(x) + ","
	}
	return out
}

func TestItoa(t *testing.T) {
	prop := func(n int) bool {
		want := fmtStd(n)
		return itoa(n) == want
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func fmtStd(n int) string {
	// strconv-free reference for itoa.
	if n == 0 {
		return "0"
	}
	neg := n < 0
	u := n
	if neg {
		u = -u
	}
	s := ""
	for u > 0 {
		s = string(rune('0'+u%10)) + s
		u /= 10
	}
	if neg {
		s = "-" + s
	}
	return s
}

// TestMergeProperties: merging a graph into an empty graph reproduces it;
// merge is idempotent.
func TestMergeProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	allKinds := KSDep | KSOrders | Version.Mask() | Timestamp.Mask()
	for trial := 0; trial < 40; trial++ {
		g := New()
		n := 2 + rng.Intn(10)
		for e := 0; e < rng.Intn(40); e++ {
			g.AddEdge(rng.Intn(n), rng.Intn(n), Kind(rng.Intn(int(numKinds))))
		}
		same := func(a, b *Graph) bool {
			if a.NumNodes() != b.NumNodes() || a.NumEdges() != b.NumEdges() {
				return false
			}
			for _, u := range a.Nodes() {
				ok := true
				a.Out(u, allKinds, func(v int, ks KindSet) {
					if b.Label(u, v) != ks {
						ok = false
					}
				})
				if !ok {
					return false
				}
			}
			return true
		}
		m := New()
		m.Merge(g)
		if !same(g, m) {
			t.Fatalf("trial %d: Merge into empty differs", trial)
		}
		m.Merge(g)
		if !same(g, m) {
			t.Fatalf("trial %d: Merge is not idempotent", trial)
		}
	}
}
