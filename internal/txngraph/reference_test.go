package txngraph

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/graph"
	"repro/internal/history"
	"repro/internal/op"
)

// This file keeps the three order builders AddOrders replaced, as
// test-only references: process order from ByProcess's per-process
// slices, real-time order as a sweep over invoke/complete indices, and
// timestamp order as a sweep over claimed times that finds each
// completion's invocation by scanning back through the ops. Each built a
// graph of its own, which the checker merged into the dependency graph.
// The differential test below requires AddOrders, for every subset of
// the three orders, to give the merged union's exact nodes and labels.

func refProcessGraph(h *history.History) *graph.Graph {
	g := graph.New()
	for _, ops := range h.ByProcess() {
		var prev *op.Op
		for i := range ops {
			if !ops[i].MayHaveCommitted() {
				continue
			}
			if prev != nil {
				g.AddEdge(prev.Index, ops[i].Index, graph.Process)
			}
			prev = &ops[i]
		}
	}
	return g
}

func refRealtimeGraph(h *history.History) *graph.Graph {
	g := graph.New()
	type txn struct{ opIndex, invoke, complete int }
	var txns []txn
	for pos, o := range h.Ops {
		if o.Type == op.Invoke || !o.MayHaveCommitted() {
			continue
		}
		inv, comp := h.Span(pos)
		txns = append(txns, txn{opIndex: o.Index, invoke: inv, complete: comp})
	}
	sort.Slice(txns, func(i, j int) bool { return txns[i].invoke < txns[j].invoke })
	var frontier []txn
	byComplete := make([]txn, len(txns))
	copy(byComplete, txns)
	sort.Slice(byComplete, func(i, j int) bool { return byComplete[i].complete < byComplete[j].complete })
	ci := 0
	for _, t := range txns {
		for ci < len(byComplete) && byComplete[ci].complete < t.invoke {
			c := byComplete[ci]
			ci++
			kept := frontier[:0]
			for _, f := range frontier {
				if f.complete >= c.invoke {
					kept = append(kept, f)
				}
			}
			frontier = append(kept, c)
		}
		for _, f := range frontier {
			g.AddEdge(f.opIndex, t.opIndex, graph.Realtime)
		}
		g.Ensure(t.opIndex)
	}
	return g
}

func refTimestampGraph(h *history.History) *graph.Graph {
	g := graph.New()
	type txn struct {
		opIndex       int
		start, commit int64
	}
	var txns []txn
	for pos, o := range h.Ops {
		if o.Type == op.Invoke || !o.MayHaveCommitted() {
			continue
		}
		invPos := -1
		inv, _ := h.Span(pos)
		for p := pos; p >= 0; p-- {
			if h.Ops[p].Index == inv {
				invPos = p
				break
			}
		}
		start := o.Time
		if invPos >= 0 {
			start = h.Ops[invPos].Time
		}
		txns = append(txns, txn{opIndex: o.Index, start: start, commit: o.Time})
	}
	sort.Slice(txns, func(i, j int) bool { return txns[i].start < txns[j].start })
	byCommit := make([]txn, len(txns))
	copy(byCommit, txns)
	sort.Slice(byCommit, func(i, j int) bool { return byCommit[i].commit < byCommit[j].commit })
	var frontier []txn
	ci := 0
	for _, t := range txns {
		for ci < len(byCommit) && byCommit[ci].commit < t.start {
			c := byCommit[ci]
			ci++
			kept := frontier[:0]
			for _, f := range frontier {
				if f.commit >= c.start {
					kept = append(kept, f)
				}
			}
			frontier = append(kept, c)
		}
		for _, f := range frontier {
			g.AddEdge(f.opIndex, t.opIndex, graph.Timestamp)
		}
		g.Ensure(t.opIndex)
	}
	return g
}

// clocks assign each op's Time from its position i in the history, its
// process p and rng. "index" is the Builder's logical clock. "coarse"
// repeats each time for several ops, so many claims tie. "offset" skews
// each process's clock by a constant, so processes disagree but every
// transaction starts no later than it commits. "skewed" jitters every
// op, so a claimed start can follow its own commit.
var clocks = map[string]func(rng *rand.Rand, i, p int) int64{
	"index":  func(_ *rand.Rand, i, _ int) int64 { return int64(i) },
	"coarse": func(_ *rand.Rand, i, _ int) int64 { return int64(i / 4) },
	"offset": func(_ *rand.Rand, i, p int) int64 { return int64(i + 7*(p%5) - 14) },
	"skewed": func(rng *rand.Rand, i, _ int) int64 { return int64(i + rng.Intn(13) - 6) },
}

var clockNames = []string{"index", "coarse", "offset", "skewed"}

// randomHistory builds a complete history — invocations interleaved with
// OK, Fail and Info completions, some invocations crashed (their process
// retires and a fresh one takes its slot) — or a compact one, over gappy
// indices from origin on, with times from clock.
func randomHistory(rng *rand.Rand, compact bool, clock string, origin int) *history.History {
	outcomes := []op.Type{op.OK, op.OK, op.OK, op.Fail, op.Info}
	slots := 1 + rng.Intn(5)
	procs := make([]int, slots)
	for i := range procs {
		procs[i] = i
	}
	nextProc := slots
	open := map[int]bool{}
	var ops []op.Op
	index := origin + rng.Intn(3)
	for step, n := 0, rng.Intn(50); step < n; step++ {
		slot := rng.Intn(slots)
		p := procs[slot]
		o := op.Op{Index: index, Process: p, Time: clocks[clock](rng, len(ops), p)}
		switch {
		case compact || open[p]:
			o.Type = outcomes[rng.Intn(len(outcomes))]
			open[p] = false
		default:
			o.Type = op.Invoke
			open[p] = true
			if rng.Intn(8) == 0 { // the client crashes mid-transaction
				procs[slot] = nextProc
				nextProc++
			}
		}
		ops = append(ops, o)
		index += 1 + rng.Intn(2)
	}
	return history.MustNew(ops)
}

var orderKinds = []graph.Kind{graph.Process, graph.Realtime, graph.Timestamp}

var refBuilders = map[graph.Kind]func(*history.History) *graph.Graph{
	graph.Process:   refProcessGraph,
	graph.Realtime:  refRealtimeGraph,
	graph.Timestamp: refTimestampGraph,
}

var allKinds = graph.KSDep | graph.KSOrders | graph.Timestamp.Mask() | graph.Version.Mask()

// sameGraph requires got and want to have the same node set and the
// same label on every edge.
func sameGraph(t *testing.T, what string, got, want *graph.Graph) {
	t.Helper()
	gn, wn := got.Nodes(), want.Nodes()
	slices.Sort(gn)
	slices.Sort(wn)
	if !slices.Equal(gn, wn) {
		t.Fatalf("%s: nodes\n got  %v\n want %v", what, gn, wn)
	}
	if got.NumEdges() != want.NumEdges() {
		t.Fatalf("%s: %d edges, want %d", what, got.NumEdges(), want.NumEdges())
	}
	for _, u := range wn {
		want.Out(u, allKinds, func(v int, ks graph.KindSet) {
			if l := got.Label(u, v); l != ks {
				t.Fatalf("%s: %d -> %d labeled %v, want %v", what, u, v, l, ks)
			}
		})
	}
}

// dependencies returns a graph holding a few ww edges between
// consecutive completions, so that order edges land on pairs that
// already carry a label. Its first node is 0, so at an index origin far
// from 0 every transaction lies outside the graph's direct-table window.
func dependencies(h *history.History) *graph.Graph {
	g := graph.New()
	g.Ensure(0)
	prev, chained := 0, false
	for _, o := range h.Ops {
		if o.Type == op.Invoke {
			continue
		}
		if chained && o.Index%3 == 0 {
			g.AddEdge(prev, o.Index, graph.WW)
		}
		prev, chained = o.Index, true
	}
	return g
}

func TestAddOrdersMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	edges := map[graph.Kind]int{}
	for _, origin := range []int{0, -1 << 40, 1 << 40} {
		for _, compact := range []bool{false, true} {
			for _, clock := range clockNames {
				for trial := 0; trial < 150; trial++ {
					h := randomHistory(rng, compact, clock, origin)
					for subset := 0; subset < 1<<len(orderKinds); subset++ {
						var kinds graph.KindSet
						want := dependencies(h)
						for i, k := range orderKinds {
							if subset&(1<<i) != 0 {
								kinds |= k.Mask()
								ref := refBuilders[k](h)
								edges[k] += ref.NumEdges()
								want.Merge(ref)
							}
						}
						got := dependencies(h)
						AddOrders(got, h, kinds)
						sameGraph(t, fmt.Sprintf("origin=%d compact=%v clock=%s trial %d kinds %v", origin, compact, clock, trial, kinds), got, want)
					}
				}
			}
		}
	}
	// Thousands per kind: the comparison is not vacuous.
	for _, k := range orderKinds {
		if edges[k] < 1000 {
			t.Fatalf("only %d %v edges over every trial", edges[k], k)
		}
	}
}

// TestAddOrdersNodes: real-time and timestamp order add every
// participating transaction, even one no edge touches; process order
// adds only the transactions it links; aborted transactions take no
// part.
func TestAddOrdersNodes(t *testing.T) {
	// Two overlapping transactions, with equal claimed times, and an
	// aborted one after both.
	h := history.MustNew([]op.Op{
		{Index: 0, Process: 0, Type: op.Invoke, Time: 5},
		{Index: 1, Process: 1, Type: op.Invoke, Time: 5},
		{Index: 2, Process: 0, Type: op.OK, Time: 5},
		{Index: 3, Process: 1, Type: op.Info, Time: 5},
		{Index: 4, Process: 0, Type: op.Invoke, Time: 6},
		{Index: 5, Process: 0, Type: op.Fail, Time: 6},
	})
	for _, tc := range []struct {
		kinds graph.KindSet
		nodes []int
	}{
		{graph.Process.Mask(), nil},
		{graph.Realtime.Mask(), []int{2, 3}},
		{graph.Timestamp.Mask(), []int{2, 3}},
		{graph.KSOrders | graph.Timestamp.Mask(), []int{2, 3}},
	} {
		g := graph.New()
		AddOrders(g, h, tc.kinds)
		nodes := g.Nodes()
		slices.Sort(nodes)
		if !slices.Equal(nodes, tc.nodes) || g.NumEdges() != 0 {
			t.Errorf("%v: nodes %v and %d edges, want nodes %v and none", tc.kinds, nodes, g.NumEdges(), tc.nodes)
		}
	}
}
