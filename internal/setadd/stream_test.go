package setadd

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/anomaly"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/history"
	"repro/internal/memdb"
	"repro/internal/op"
	"repro/internal/workload"
)

// hookedInfo is set-add's registration with its session hooks handed to
// keep as they open, so a test can inspect the state they maintain.
func hookedInfo(keep func(*analyzer)) workload.Info {
	info, ok := workload.Lookup(string(workload.SetAdd))
	if !ok {
		panic("set-add is not registered")
	}
	info.Incremental = func(opts workload.Opts, keys *history.Interner, ops history.Lookup) workload.Hooks {
		h := begin(opts, keys, ops)
		keep(h.(*analyzer))
		return h
	}
	return info
}

// skewRounds builds rounds write skews over sets, one per scan interval:
// T0 reads x without 1 and adds 1 to y, T1 reads y without 1 and adds 1
// to x, and a later read sees both. Filler adds and reads on fresh keys
// pad each round to the next scan point, so the graph keeps gaining
// wr-linked nodes. It returns the ops and each round's skewed pair.
func skewRounds(rounds int) ([]op.Op, [][2]int) {
	var ops []op.Op
	txn := func(mops ...op.Mop) int {
		ops = append(ops, op.Txn(len(ops), len(ops)%4, op.OK, mops...))
		return len(ops) - 1
	}
	var skews [][2]int
	for round := 0; round < rounds; round++ {
		x, y := fmt.Sprintf("x%d", round), fmt.Sprintf("y%d", round)
		a := txn(op.ReadList(x, []int{}), op.Add(y, 1))
		b := txn(op.ReadList(y, []int{}), op.Add(x, 1))
		txn(op.ReadList(x, []int{1}), op.ReadList(y, []int{1}))
		skews = append(skews, [2]int{a, b})
		for i := 0; len(ops) < (round+1)*workload.ScanEvery; i++ {
			f := fmt.Sprintf("f%d.%d", round, i/2)
			if i%2 == 0 {
				txn(op.Add(f, 1))
			} else {
				txn(op.ReadList(f, []int{1}))
			}
		}
	}
	return ops, skews
}

// surfaced reports whether d holds the G2-item cycle between the pair.
func surfaced(d workload.Delta, pair [2]int) bool {
	for _, an := range d.Anomalies {
		if nodes := an.Cycle.Nodes(); an.Type == anomaly.G2Item && len(nodes) == 2 &&
			(nodes[0] == pair[0] && nodes[1] == pair[1] || nodes[0] == pair[1] && nodes[1] == pair[0]) {
			return true
		}
	}
	return false
}

// TestSessionSurfacesWriteSkew: a set-add session searches cycles
// mid-stream. Each round's write skew surfaces as a G2-item on the feed
// whose scan finds it, not before, and the graph Finish adopts holds the
// cycle for the final report.
func TestSessionSurfacesWriteSkew(t *testing.T) {
	ops, skews := skewRounds(1)
	opts := workload.Opts{Parallelism: 1}
	s := workload.BeginSession(hookedInfo(func(*analyzer) {}), opts)
	for _, o := range ops {
		d, err := s.Feed([]op.Op{o})
		if err != nil {
			t.Fatalf("feed %d: %v", o.Index, err)
		}
		if scanned := (o.Index+1)%workload.ScanEvery == 0; surfaced(d, skews[0]) != scanned {
			t.Fatalf("feed %d (scan point: %v) surfaced the G2-item: %v", o.Index, scanned, !scanned)
		}
	}
	maintained := s.Graph()
	if maintained == nil {
		t.Fatal("a clean stream left the session's graph stale")
	}
	fin, err := s.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if fin.Graph != maintained {
		t.Error("Finish did not adopt the session's graph")
	}
	cycles := fin.Graph.AnomalousCycles(0, 1)
	if len(cycles) != 1 || anomaly.CycleType(cycles[0]) != anomaly.G2Item {
		t.Fatalf("final graph's cycles %v, want the one G2-item", cycles)
	}
	if want := Analyze(history.MustNew(ops), opts); !reflect.DeepEqual(fin.Anomalies, want.Anomalies) ||
		!reflect.DeepEqual(setEdges(fin.Graph), setEdges(want.Graph)) {
		t.Fatalf("Finish diverges from Analyze:\n got %+v\nwant %+v", fin, want)
	}
}

// TestBudgetedSessionDropsSettledCycles: under a window far smaller than
// the scan interval every sweep retires a round's write skew. The cycle
// must surface on the feed whose scan finds it — the feed that then
// sweeps its ops away — the graph must afterwards hold only ops a live
// key still pins, and Finish must equal Analyze.
func TestBudgetedSessionDropsSettledCycles(t *testing.T) {
	const window = 16
	ops, skews := skewRounds(3)
	opts := workload.Opts{Parallelism: 1, MemoryBudget: window}
	var st *analyzer
	s := workload.BeginSession(hookedInfo(func(h *analyzer) { st = h }), opts)
	for _, o := range ops {
		d, err := s.Feed([]op.Op{o})
		if err != nil {
			t.Fatalf("feed %d: %v", o.Index, err)
		}
		if (o.Index+1)%workload.ScanEvery != 0 {
			continue
		}
		skew := skews[o.Index/workload.ScanEvery]
		if !surfaced(d, skew) {
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
		if n := g.NumNodes(); n > 2*window {
			t.Fatalf("after the sweep at op %d the graph holds %d nodes; window %d", o.Index, n, window)
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

// TestSessionEdgeWorkMatchesBatch: on a clean stream a set-add session
// offers its graph each edge the batch rule infers once — when its
// second endpoint arrives — and Finish, adopting that graph, builds none:
// a streamed check does no more edge work than Analyze.
func TestSessionEdgeWorkMatchesBatch(t *testing.T) {
	h := memdb.Run(memdb.RunConfig{
		Clients: 10, Txns: 2000, Isolation: memdb.StrictSerializable,
		Source: gen.New(gen.Config{Workload: gen.Set, ActiveKeys: 10, MaxWritesPerKey: 50}, 3), Seed: 3,
		Workload: memdb.WorkloadSet,
	})
	var st *analyzer
	s := workload.BeginSession(hookedInfo(func(h *analyzer) { st = h }), workload.Opts{Parallelism: 1})
	for ops := h.Ops; len(ops) > 0; {
		n := min(100, len(ops))
		if _, err := s.Feed(ops[:n]); err != nil {
			t.Fatal(err)
		}
		ops = ops[n:]
	}
	inferred := 0
	st.Edges(func(from, to int, _ graph.Kind) {
		if from != to {
			inferred++
		}
	})
	if _, err := s.Finish(); err != nil {
		t.Fatal(err)
	}
	batch := 0
	for _, es := range setEdges(Analyze(h, workload.Opts{Parallelism: 1}).Graph) {
		batch += len(es.Kinds())
	}
	offered, _ := s.EdgeWork()
	if offered != inferred {
		t.Errorf("%d edges offered, the batch rule infers %d", offered, inferred)
	}
	// What the rule infers beyond the graph's edges: dependencies two
	// elements or two keys both imply.
	if batch == 0 || float64(offered) > 1.25*float64(batch) {
		t.Errorf("%d edges offered for a batch graph of %d", offered, batch)
	}
}

// setEdges lists g's dependency edges with their kinds.
func setEdges(g *graph.Graph) map[[2]int]graph.KindSet {
	out := map[[2]int]graph.KindSet{}
	for _, a := range g.Nodes() {
		g.Out(a, graph.KSDep, func(b int, label graph.KindSet) { out[[2]int{a, b}] = label })
	}
	return out
}
