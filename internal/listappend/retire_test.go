package listappend

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/history"
	"repro/internal/op"
	"repro/internal/workload"
)

// TestBudgetedSessionDropsSettledCycles feeds a history with one
// write-skew (G2) cycle per scan interval through a session whose
// window is far smaller than the interval, so every sweep retires the
// cycle's members. The provisional cycle must surface on the feed whose
// scan finds it — the same feed that then sweeps its ops away — the
// incremental graph must afterwards hold only ops a live key still pins
// (graph regions are dropped, not kept), and Finish must equal Analyze.
func TestBudgetedSessionDropsSettledCycles(t *testing.T) {
	const window = 16
	var ops []op.Op
	txn := func(mops ...op.Mop) int {
		ops = append(ops, op.Txn(len(ops), len(ops)%4, op.OK, mops...))
		return len(ops) - 1
	}
	var skews [][2]int
	for round := 0; round < 3; round++ {
		x, y := fmt.Sprintf("x%d", round), fmt.Sprintf("y%d", round)
		a := txn(op.ReadList(x, []int{}), op.Append(y, 1))
		b := txn(op.ReadList(y, []int{}), op.Append(x, 1))
		txn(op.ReadList(x, []int{1}), op.ReadList(y, []int{1}))
		skews = append(skews, [2]int{a, b})
		// Filler up to the next scan point: writer/reader pairs on fresh
		// keys, so the graph keeps gaining wr-linked nodes to drop.
		for i := 0; len(ops) < (round+1)*workload.ScanEvery; i++ {
			f := fmt.Sprintf("f%d.%d", round, i/2)
			if i%2 == 0 {
				txn(op.Append(f, 1))
			} else {
				txn(op.ReadList(f, []int{1}))
			}
		}
	}

	opts := workload.Opts{Parallelism: 1, MemoryBudget: window}
	// The session under test is the registered one; the test keeps a
	// handle on its hooks to inspect the state they maintain.
	var st *analyzer
	s := workload.BeginSession(hookedInfo(t, func(s *analyzer) workload.Hooks { st = s; return s }), opts)
	for _, o := range ops {
		d, err := s.Feed([]op.Op{o})
		if err != nil {
			t.Fatalf("feed %d: %v", o.Index, err)
		}
		if (o.Index+1)%workload.ScanEvery != 0 {
			continue
		}
		// This feed scanned, then swept.
		skew := skews[o.Index/workload.ScanEvery]
		surfaced := false
		for _, an := range d.Anomalies {
			if nodes := an.Cycle.Nodes(); len(nodes) == 2 &&
				(nodes[0] == skew[0] && nodes[1] == skew[1] || nodes[0] == skew[1] && nodes[1] == skew[0]) {
				surfaced = true
			}
		}
		if !surfaced {
			t.Fatalf("scan at op %d did not surface the T%d/T%d cycle: %v", o.Index, skew[0], skew[1], d.Anomalies)
		}
		g := s.Graph()
		if g.HasNode(skew[0]) || g.HasNode(skew[1]) {
			t.Fatalf("sweep at op %d kept the settled cycle's nodes", o.Index)
		}
		for _, n := range g.Nodes() {
			if _, pinned := st.ops.Op(n); !pinned {
				t.Fatalf("sweep at op %d kept node %d, which no live key pins", o.Index, n)
			}
		}
		if n := g.NumNodes(); n == 0 || n > pinned(st.ops, o.Index) || n > 2*window {
			t.Fatalf("after the sweep at op %d the graph holds %d nodes; %d ops are pinned, window %d",
				o.Index, n, pinned(st.ops, o.Index), window)
		}
	}
	if st := s.RetireStats(); st.RetiredKeys == 0 || st.Stream.RetiredOps == 0 {
		t.Fatalf("nothing retired: %+v", st)
	}

	got, err := s.Finish()
	if err != nil {
		t.Fatal(err)
	}
	want := Analyze(history.MustNew(ops), opts)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("budgeted Finish diverges from Analyze:\n got %+v\nwant %+v", got, want)
	}
	if cycles := got.Graph.AnomalousCycles(0, 1); len(cycles) != len(skews) {
		t.Fatalf("final graph has %d cycles, want %d", len(cycles), len(skews))
	}
}

// pinned counts the ops with index 0 through last that ops still finds.
func pinned(ops history.Lookup, last int) int {
	n := 0
	for i := 0; i <= last; i++ {
		if _, ok := ops.Op(i); ok {
			n++
		}
	}
	return n
}
