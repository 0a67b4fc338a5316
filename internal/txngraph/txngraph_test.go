package txngraph

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/history"
	"repro/internal/op"
)

func TestProcessGraphChainsPerProcess(t *testing.T) {
	h := history.MustNew([]op.Op{
		op.Txn(0, 0, op.OK),
		op.Txn(1, 1, op.OK),
		op.Txn(2, 0, op.OK),
		op.Txn(3, 0, op.OK),
	})
	g := ProcessGraph(h)
	if !g.Label(0, 2).Has(graph.Process) || !g.Label(2, 3).Has(graph.Process) {
		t.Error("process chain broken")
	}
	if g.Label(0, 3) != 0 {
		t.Error("process graph should be a reduction (no transitive edge)")
	}
	if g.Label(0, 1) != 0 {
		t.Error("edges must not cross processes")
	}
}

func TestProcessGraphSkipsAborted(t *testing.T) {
	h := history.MustNew([]op.Op{
		op.Txn(0, 0, op.OK),
		op.Txn(1, 0, op.Fail),
		op.Txn(2, 0, op.OK),
	})
	g := ProcessGraph(h)
	if !g.Label(0, 2).Has(graph.Process) {
		t.Error("aborted op should be skipped, chaining its neighbors")
	}
	if g.Label(0, 1) != 0 && g.Label(1, 2) != 0 {
		t.Error("aborted op should have no process edges")
	}
}

func TestRealtimeGraphCompactHistoryIsChain(t *testing.T) {
	h := history.MustNew([]op.Op{
		op.Txn(0, 0, op.OK),
		op.Txn(1, 1, op.OK),
		op.Txn(2, 2, op.OK),
	})
	g := RealtimeGraph(h)
	if !g.Label(0, 1).Has(graph.Realtime) || !g.Label(1, 2).Has(graph.Realtime) {
		t.Error("compact history should realtime-chain")
	}
	if g.Label(0, 2) != 0 {
		t.Error("transitive edge should be reduced away")
	}
}

func TestRealtimeGraphConcurrentOpsUnordered(t *testing.T) {
	// Two overlapping transactions: no realtime edge either way.
	h := history.MustNew([]op.Op{
		{Index: 0, Process: 0, Type: op.Invoke},
		{Index: 1, Process: 1, Type: op.Invoke},
		{Index: 2, Process: 0, Type: op.OK},
		{Index: 3, Process: 1, Type: op.OK},
	})
	g := RealtimeGraph(h)
	if g.Label(2, 3) != 0 || g.Label(3, 2) != 0 {
		t.Error("concurrent transactions must not be realtime-ordered")
	}
}

func TestRealtimeGraphSequentialOpsOrdered(t *testing.T) {
	h := history.MustNew([]op.Op{
		{Index: 0, Process: 0, Type: op.Invoke},
		{Index: 1, Process: 0, Type: op.OK},
		{Index: 2, Process: 1, Type: op.Invoke},
		{Index: 3, Process: 1, Type: op.OK},
	})
	g := RealtimeGraph(h)
	if !g.Label(1, 3).Has(graph.Realtime) {
		t.Error("sequential transactions must be realtime-ordered")
	}
}

func TestRealtimeGraphFrontierEviction(t *testing.T) {
	// A completes; B completes after A (B invoked after A completed);
	// C invoked after B completed should link only from B.
	h := history.MustNew([]op.Op{
		{Index: 0, Process: 0, Type: op.Invoke},
		{Index: 1, Process: 0, Type: op.OK}, // A
		{Index: 2, Process: 1, Type: op.Invoke},
		{Index: 3, Process: 1, Type: op.OK}, // B
		{Index: 4, Process: 2, Type: op.Invoke},
		{Index: 5, Process: 2, Type: op.OK}, // C
	})
	g := RealtimeGraph(h)
	if !g.Label(1, 3).Has(graph.Realtime) {
		t.Error("A -> B missing")
	}
	if !g.Label(3, 5).Has(graph.Realtime) {
		t.Error("B -> C missing")
	}
	if g.Label(1, 5) != 0 {
		t.Error("A -> C should be transitively reduced")
	}
}

func TestRealtimeGraphSkipsFailed(t *testing.T) {
	h := history.MustNew([]op.Op{
		{Index: 0, Process: 0, Type: op.Invoke},
		{Index: 1, Process: 0, Type: op.Fail},
		{Index: 2, Process: 1, Type: op.Invoke},
		{Index: 3, Process: 1, Type: op.OK},
	})
	g := RealtimeGraph(h)
	if g.Label(1, 3) != 0 {
		t.Error("failed transactions should not emit realtime edges")
	}
}

// TestRealtimeReductionCorrect cross-checks the frontier sweep against the
// full O(n²) precedence relation on random histories, over both clocks:
// the real-time reduction, and the timestamp reduction wherever every
// transaction claims to start no later than it commits, must have
// exactly the relation's transitive closure. Where a claimed start
// follows its own commit, the claimed relation is not transitive and the
// sweep may miss some of it, but every timestamp edge it adds is still
// one the claims imply.
func TestRealtimeReductionCorrect(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, clock := range clockNames {
		for trial := 0; trial < 40; trial++ {
			b := history.NewBuilder()
			const procs = 4
			outstanding := map[int]bool{}
			for step := 0; step < 60; step++ {
				p := rng.Intn(procs)
				if outstanding[p] {
					b.Complete(p, op.OK, nil)
					outstanding[p] = false
				} else {
					b.Invoke(p, nil)
					outstanding[p] = true
				}
			}
			h := b.MustHistory()
			for i := range h.Ops {
				h.Ops[i].Time = clocks[clock](rng, i, h.Ops[i].Process)
			}
			g := graph.New()
			AddOrders(g, h, graph.Realtime.Mask()|graph.Timestamp.Mask())

			// Full relations.
			type txn struct {
				inv, comp     int
				start, commit int64
			}
			var txns []txn
			honest := true
			for pos, o := range h.Ops {
				if o.Type == op.Invoke {
					continue
				}
				inv, comp := h.Span(pos)
				start := h.Ops[slices.IndexFunc(h.Ops, func(x op.Op) bool { return x.Index == inv })].Time
				txns = append(txns, txn{inv, comp, start, o.Time})
				honest = honest && start <= o.Time
			}
			rt := reachability(g, graph.Realtime)
			ts := reachability(g, graph.Timestamp)
			for i, a := range txns {
				for j, c := range txns {
					if i == j {
						continue
					}
					if want, got := a.comp < c.inv, rt[[2]int{a.comp, c.comp}]; want != got {
						t.Fatalf("%s trial %d: realtime(%d -> %d): closure=%v, want %v",
							clock, trial, a.comp, c.comp, got, want)
					}
					want, got := a.commit < c.start, ts[[2]int{a.comp, c.comp}]
					if honest && want != got {
						t.Fatalf("%s trial %d: timestamp(%d -> %d): closure=%v, want %v",
							clock, trial, a.comp, c.comp, got, want)
					}
					if edge := g.Label(a.comp, c.comp).Has(graph.Timestamp); edge && !want {
						t.Fatalf("%s trial %d: timestamp edge %d -> %d, but %d does not precede %d",
							clock, trial, a.comp, c.comp, a.commit, c.start)
					}
				}
			}
			if clock != "skewed" && !honest {
				t.Fatalf("%s trial %d: a transaction claims to start after it commits", clock, trial)
			}
		}
	}
}

func reachability(g *graph.Graph, k graph.Kind) map[[2]int]bool {
	out := map[[2]int]bool{}
	for _, n := range g.Nodes() {
		stack := []int{n}
		seen := map[int]bool{n: true}
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			g.Out(u, k.Mask(), func(v int, _ graph.KindSet) {
				if !seen[v] {
					seen[v] = true
					out[[2]int{n, v}] = true
					stack = append(stack, v)
				}
			})
		}
	}
	return out
}
