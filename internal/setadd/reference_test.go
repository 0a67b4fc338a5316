package setadd_test

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"repro/internal/anomaly"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/history"
	"repro/internal/memdb"
	"repro/internal/nemesis"
	"repro/internal/op"
	"repro/internal/setadd"
	"repro/internal/workload"
	"repro/internal/workload/workloadtest"
)

// This file is the element-wise reference oracle for the set analyzer.
// The analyzer keeps one element table per key and tests each read
// against its rows; the reference below knows only the history, treats
// every read as an unrelated bag of elements held in a map of its own,
// and indexes adds with (key name, element) maps. The two must agree
// exactly — anomalies (type, ops, key, rendered explanation, order) and
// dependency edges.

type refElem struct {
	key  string
	elem int
}

type refFindings struct {
	anomalies []anomaly.Anomaly
	edges     map[[2]int]graph.KindSet
}

// reference computes refFindings element by element.
func reference(h *history.History) refFindings {
	attempts := map[refElem][]op.Op{}
	paired := map[int]bool{} // invoke indices that have a completion
	var oks []op.Op
	for pos, o := range h.Ops {
		if o.Type == op.Invoke {
			continue
		}
		if inv, _ := h.Span(pos); inv != o.Index {
			paired[inv] = true
		}
		if o.Type == op.OK {
			oks = append(oks, o)
		}
		for _, m := range o.Mops {
			if m.F == op.FAdd {
				ek := refElem{m.Key, m.Arg}
				attempts[ek] = append(attempts[ek], o)
			}
		}
	}
	// Crashed clients leave an invoke with no completion; their adds may
	// still have taken effect and are not garbage.
	crashed := map[refElem]bool{}
	for _, o := range h.Ops {
		if o.Type != op.Invoke || paired[o.Index] {
			continue
		}
		for _, m := range o.Mops {
			if m.F == op.FAdd {
				crashed[refElem{m.Key, m.Arg}] = true
			}
		}
	}

	out := refFindings{edges: map[[2]int]graph.KindSet{}}
	edge := func(from, to int, k graph.Kind) {
		if from != to { // a transaction does not depend on itself
			out.edges[[2]int{from, to}] |= k.Mask()
		}
	}

	// Duplicate adds, in (key, element) order; every other element with an
	// attempt is recoverable.
	var dups []refElem
	for ek, as := range attempts {
		if len(as) > 1 {
			dups = append(dups, ek)
		}
	}
	sort.Slice(dups, func(i, j int) bool {
		if dups[i].key != dups[j].key {
			return dups[i].key < dups[j].key
		}
		return dups[i].elem < dups[j].elem
	})
	for _, ek := range dups {
		out.anomalies = append(out.anomalies, anomaly.Anomaly{
			Type: anomaly.DuplicateAppends, Key: ek.key,
			Explanation: fmt.Sprintf(
				"element %d was added to set %s by %d transactions; adds must be unique for versions to be recoverable",
				ek.elem, ek.key, len(attempts[ek])),
		})
	}

	// Internal consistency, per transaction and read: everything the
	// transaction added or observed so far is a lower bound.
	for _, o := range oks {
		have := map[refElem]bool{}
		for _, m := range o.Mops {
			switch {
			case m.F == op.FAdd:
				have[refElem{m.Key, m.Arg}] = true
			case m.ListKnown():
				got := map[int]bool{}
				for _, e := range m.List {
					got[e] = true
				}
				var lacks []int
				for ek := range have {
					if ek.key == m.Key && !got[ek.elem] {
						lacks = append(lacks, ek.elem)
					}
				}
				if sort.Ints(lacks); len(lacks) > 0 {
					out.anomalies = append(out.anomalies, anomaly.Anomaly{
						Type: anomaly.Internal, Ops: []op.Op{o}, Key: m.Key,
						Explanation: fmt.Sprintf(
							"%s read set %s without element %d, which its own prior operations guarantee: an internal inconsistency",
							o.Name(), m.Key, lacks[0]),
					})
				}
				for e := range got {
					have[refElem{m.Key, e}] = true
				}
			}
		}
	}

	// G1a, garbage reads and edges, per transaction, read and element.
	for _, o := range oks {
		for _, m := range o.Mops {
			if !m.ListKnown() {
				continue
			}
			got := map[int]bool{}
			for _, e := range m.List {
				got[e] = true
				ek := refElem{m.Key, e}
				switch as := attempts[ek]; {
				case len(as) == 1 && as[0].Type == op.Fail:
					out.anomalies = append(out.anomalies, anomaly.Anomaly{
						Type: anomaly.G1a, Ops: []op.Op{o, as[0]}, Key: m.Key,
						Explanation: fmt.Sprintf(
							"%s read set %s containing element %d added by aborted %s: an aborted read",
							o.Name(), m.Key, e, as[0].Name()),
					})
				case len(as) == 1:
					edge(as[0].Index, o.Index, graph.WR)
				case len(as) == 0 && !crashed[ek]:
					out.anomalies = append(out.anomalies, anomaly.Anomaly{
						Type: anomaly.GarbageRead, Ops: []op.Op{o}, Key: m.Key,
						Explanation: fmt.Sprintf(
							"%s read set %s containing element %d, which no transaction ever added",
							o.Name(), m.Key, e),
					})
				}
			}
			// A committed element the read lacks was added after it.
			for ek, as := range attempts {
				if ek.key == m.Key && len(as) == 1 && as[0].Type == op.OK && !got[ek.elem] {
					edge(o.Index, as[0].Index, graph.RW)
				}
			}
		}
	}
	return out
}

// graphEdges lists g's dependency edges as the reference does.
func graphEdges(g *graph.Graph) map[[2]int]graph.KindSet {
	out := map[[2]int]graph.KindSet{}
	for _, a := range g.Nodes() {
		g.Out(a, graph.KSDep, func(b int, label graph.KindSet) { out[[2]int{a, b}] = label })
	}
	return out
}

var setInfo = func() workload.Info {
	info, ok := workload.Lookup(string(workload.SetAdd))
	if !ok {
		panic("set-add is not registered")
	}
	return info
}()

// checkAgainstReference asserts reference ≡ Analyze on h, and
// session.Finish ≡ Analyze at each chunk size, with a memory budget and
// without.
func checkAgainstReference(t *testing.T, h *history.History, chunks ...int) workload.Analysis {
	t.Helper()
	opts := workload.Opts{Parallelism: 1}
	an := setadd.Analyze(h, opts)
	want := reference(h)
	if !reflect.DeepEqual(an.Anomalies, want.anomalies) {
		t.Errorf("anomalies diverge from the element-wise reference:\n got %v\nwant %v", an.Anomalies, want.anomalies)
	}
	if got := graphEdges(an.Graph); !reflect.DeepEqual(got, want.edges) {
		t.Errorf("edges diverge from the reference:\n got %v\nwant %v", got, want.edges)
	}

	batch := setInfo.Analyzer.Analyze(h, opts)
	budgeted := opts
	budgeted.MemoryBudget = 8
	for i, chunk := range chunks {
		for _, o := range []workload.Opts{opts, budgeted} {
			// The edge-set oracle costs the whole graph per op: it rides
			// on the first chunk size's unbudgeted session only.
			if diff := analysisDiff(streamed(t, h.Ops, o, chunk, i == 0), batch); diff != "" {
				t.Errorf("session.Finish at chunk size %d, budget %d diverges from Analyze: %s", chunk, o.MemoryBudget, diff)
			}
		}
	}
	return an
}

// analysisDiff describes how got differs from want, or returns "". A
// session's graph is the one it maintained, so graphs compare by their
// nodes and edges, not their layout.
func analysisDiff(got, want workload.Analysis) string {
	sortedNodes := func(g *graph.Graph) []int { n := g.Nodes(); sort.Ints(n); return n }
	switch {
	case !reflect.DeepEqual(got.Anomalies, want.Anomalies):
		return fmt.Sprintf("anomalies\n got %v\nwant %v", got.Anomalies, want.Anomalies)
	case !reflect.DeepEqual(got.Explainer, want.Explainer):
		return fmt.Sprintf("explainer\n got %+v\nwant %+v", got.Explainer, want.Explainer)
	case !reflect.DeepEqual(graphEdges(got.Graph), graphEdges(want.Graph)):
		return fmt.Sprintf("edges\n got %v\nwant %v", graphEdges(got.Graph), graphEdges(want.Graph))
	case !reflect.DeepEqual(sortedNodes(got.Graph), sortedNodes(want.Graph)):
		return fmt.Sprintf("nodes\n got %v\nwant %v", sortedNodes(got.Graph), sortedNodes(want.Graph))
	}
	return ""
}

// streamed feeds ops through a set-add session in chunks, with the
// edge-set oracle riding along if asked. Every finding surfaced on the way must be
// confirmed by the final analysis — same type on the same key, or for a
// cycle every step an edge of the final graph — or superseded by a
// duplicate add (see workload.Delta).
func streamed(t *testing.T, ops []op.Op, opts workload.Opts, chunk int, oracle bool) workload.Analysis {
	t.Helper()
	s := workload.BeginSession(setInfo, opts)
	if oracle {
		s = workloadtest.Begin(t, setInfo, opts)
	}
	var surfaced []anomaly.Anomaly
	for len(ops) > 0 {
		n := min(max(chunk, 1), len(ops))
		d, err := s.Feed(ops[:n])
		if err != nil {
			t.Fatalf("feed: %v", err)
		}
		surfaced = append(surfaced, d.Anomalies...)
		ops = ops[n:]
	}
	fin, err := s.Finish()
	if err != nil {
		t.Fatalf("finish: %v", err)
	}
	final := graphEdges(fin.Graph)
	for _, p := range surfaced {
		confirmed := len(p.Cycle.Steps) > 0
		for _, st := range p.Cycle.Steps {
			confirmed = confirmed && final[[2]int{st.From, st.To}].Has(st.Via)
		}
		for _, f := range fin.Anomalies {
			if f.Type == anomaly.DuplicateAppends && (f.Key == p.Key || len(p.Cycle.Steps) > 0) ||
				f.Key == p.Key && f.Type == p.Type {
				confirmed = true
			}
		}
		if !confirmed {
			t.Errorf("chunk size %d, budget %d: mid-stream finding neither confirmed nor superseded: %v", chunk, opts.MemoryBudget, p)
		}
	}
	return fin
}

// TestReferenceOnEngineHistories: memdb set histories, clean and under
// every internal/nemesis fault, at the two isolation levels that between
// them let every fault show (read-uncommitted keeps aborted adds: G1a).
func TestReferenceOnEngineHistories(t *testing.T) {
	plans := map[string]nemesis.Plan{"clean": {}}
	for _, f := range nemesis.FaultCatalog() {
		var p nemesis.Plan
		f.Apply(&p)
		plans[f.Name] = p
	}
	for name, plan := range plans {
		for _, iso := range []memdb.Isolation{memdb.ReadUncommitted, memdb.SnapshotIsolation} {
			t.Run(fmt.Sprintf("%s/%s", name, iso), func(t *testing.T) {
				h := memdb.Run(memdb.RunConfig{
					Clients: 8, Txns: 300, Isolation: iso, Faults: plan.Faults,
					Source: gen.New(gen.Config{Workload: gen.Set, ActiveKeys: 4, MaxWritesPerKey: 30}, 7), Seed: 7,
					AbortProb: plan.AbortProb, InfoProb: plan.InfoProb, CrashProb: plan.CrashProb,
					Workload: memdb.WorkloadSet,
				})
				checkAgainstReference(t, h, 1, 2, len(h.Ops))
			})
		}
	}
}

// explanations lists an analysis's anomalies as "type: explanation".
func explanations(an workload.Analysis) []string {
	var out []string
	for _, a := range an.Anomalies {
		out = append(out, fmt.Sprintf("%s: %s", a.Type, a.Explanation))
	}
	return out
}

// TestReferenceOnHandWrittenHistories covers the shapes the engine does
// not produce on demand, with the findings pinned.
func TestReferenceOnHandWrittenHistories(t *testing.T) {
	ok, fail, info := op.OK, op.Fail, op.Info
	set := func(key string, v ...int) op.Mop { return op.ReadList(key, append([]int{}, v...)) }
	cases := []struct {
		name  string
		ops   []op.Op
		want  []string // anomalies, in report order
		edges map[[2]int]graph.KindSet
	}{
		{
			name: "a crashed client's add is read beside an element nobody added",
			ops: []op.Op{
				{Index: 0, Process: 0, Type: op.Invoke, Mops: []op.Mop{op.Add("x", 1)}},
				{Index: 1, Process: 1, Type: op.Invoke, Mops: []op.Mop{op.Read("x")}},
				{Index: 2, Process: 1, Type: ok, Mops: []op.Mop{set("x", 1, 2)}},
			},
			want:  []string{"garbage-read: T2 read set x containing element 2, which no transaction ever added"},
			edges: map[[2]int]graph.KindSet{},
		},
		{
			name: "the crashed client's element is also added by a completed transaction: one writer, no duplicate",
			ops: []op.Op{
				{Index: 0, Process: 0, Type: op.Invoke, Mops: []op.Mop{op.Add("x", 1)}},
				{Index: 1, Process: 1, Type: op.Invoke, Mops: []op.Mop{op.Add("x", 1)}},
				{Index: 2, Process: 1, Type: ok, Mops: []op.Mop{op.Add("x", 1)}},
				{Index: 3, Process: 2, Type: op.Invoke, Mops: []op.Mop{op.Read("x")}},
				{Index: 4, Process: 2, Type: ok, Mops: []op.Mop{set("x", 1)}},
				{Index: 5, Process: 2, Type: op.Invoke, Mops: []op.Mop{op.Read("x")}},
				{Index: 6, Process: 2, Type: ok, Mops: []op.Mop{set("x")}},
			},
			edges: map[[2]int]graph.KindSet{{2, 4}: graph.WR.Mask(), {6, 2}: graph.RW.Mask()},
		},
		{
			name: "duplicate adds — by two transactions, and twice by one — leave their elements without a writer",
			ops: []op.Op{
				op.Txn(0, 0, ok, op.Add("x", 1), op.Add("y", 5), op.Add("y", 5)),
				op.Txn(1, 1, fail, op.Add("x", 1)),
				op.Txn(2, 2, ok, op.Add("x", 2)),
				op.Txn(3, 0, ok, set("x", 1), set("y")),
				op.Txn(4, 1, ok, op.Add("x", 1)),
			},
			want: []string{
				"duplicate-appends: element 1 was added to set x by 3 transactions; adds must be unique for versions to be recoverable",
				"duplicate-appends: element 5 was added to set y by 2 transactions; adds must be unique for versions to be recoverable",
			},
			// T3 lacks only 2: elements 1 and 5 have no writer to depend on.
			edges: map[[2]int]graph.KindSet{{3, 2}: graph.RW.Mask()},
		},
		{
			name: "aborted and indeterminate adds: G1a per occurrence, a wr edge from the info writer, rw only toward committed ones",
			ops: []op.Op{
				op.Txn(0, 0, fail, op.Add("x", 1)),
				op.Txn(1, 1, info, op.Add("x", 2)),
				op.Txn(2, 2, ok, op.Add("x", 3)),
				op.Txn(3, 0, ok, set("x", 1, 2, 1)),
				op.Txn(4, 1, ok, set("x")),
			},
			want: []string{
				"G1a: T3 read set x containing element 1 added by aborted T0: an aborted read",
				"G1a: T3 read set x containing element 1 added by aborted T0: an aborted read",
			},
			edges: map[[2]int]graph.KindSet{{1, 3}: graph.WR.Mask(), {3, 2}: graph.RW.Mask(), {4, 2}: graph.RW.Mask()},
		},
		{
			name: "internal consistency: the smallest missing element is named, per read, across adds and earlier reads",
			ops: []op.Op{
				op.Txn(0, 0, ok, op.Add("x", 7), op.Add("x", 3), op.Add("y", 1)),
				op.Txn(1, 1, ok, op.Add("x", 9), op.Add("x", 8), set("x", 3), set("y", 1), set("x", 7, 9), op.Add("x", 4), set("x", 3, 7, 8, 9)),
			},
			want: []string{
				"internal: T1 read set x without element 8, which its own prior operations guarantee: an internal inconsistency",
				"internal: T1 read set x without element 3, which its own prior operations guarantee: an internal inconsistency",
				"internal: T1 read set x without element 4, which its own prior operations guarantee: an internal inconsistency",
			},
			edges: map[[2]int]graph.KindSet{{0, 1}: graph.WR.Mask(), {1, 0}: graph.RW.Mask()},
		},
		{
			name: "a read before the transaction's own add does not anti-depend on itself; reading it back is no edge either",
			ops: []op.Op{
				op.Txn(0, 0, ok, set("x"), op.Add("x", 1), set("x", 1)),
				op.Txn(1, 1, fail, set("x", 5)),
				op.Txn(2, 1, ok, op.Read("x")),
			},
			edges: map[[2]int]graph.KindSet{},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			an := checkAgainstReference(t, history.MustNew(c.ops), 1, 2, len(c.ops))
			if got := explanations(an); !reflect.DeepEqual(got, c.want) {
				t.Errorf("anomalies:\n got %q\nwant %q", got, c.want)
			}
			if got := graphEdges(an.Graph); !reflect.DeepEqual(got, c.edges) {
				t.Errorf("edges:\n got %v\nwant %v", got, c.edges)
			}
		})
	}
}

// TestMidStreamFindings pins what a set-add session surfaces before
// Finish, and when: a duplicate add on the feed that carries the second
// attempt, an internal inconsistency and an aborted read whose failed add
// arrived first on the reader's feed — and nothing for an abort that
// lands after its reader, or for a garbage read, which wait for Finish.
func TestMidStreamFindings(t *testing.T) {
	ops := []op.Op{
		op.Txn(0, 0, op.Fail, op.Add("x", 1)),
		op.Txn(1, 1, op.OK, op.ReadList("x", []int{1, 2, 99})),
		op.Txn(2, 2, op.Fail, op.Add("x", 2)), // a late abort: T1 already read 2
		op.Txn(3, 0, op.OK, op.Add("x", 3), op.ReadList("x", []int{})),
		op.Txn(4, 1, op.OK, op.Add("x", 3)),
		op.Txn(5, 2, op.OK, op.Add("x", 3)),
	}
	opts := workload.Opts{Parallelism: 1}
	s := workload.BeginSession(setInfo, opts)
	want := [][]string{
		nil,
		{"G1a: T1 read set x containing element 1 added by aborted T0: an aborted read"},
		nil,
		{"internal: T3 read set x without element 3, which its own prior operations guarantee: an internal inconsistency"},
		{"duplicate-appends: element 3 was added to set x by 2 transactions; adds must be unique for versions to be recoverable"},
		nil, // the third attempt is the same finding
	}
	for i, o := range ops {
		d, err := s.Feed([]op.Op{o})
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, a := range d.Anomalies {
			got = append(got, fmt.Sprintf("%s: %s", a.Type, a.Explanation))
		}
		if !reflect.DeepEqual(got, want[i]) {
			t.Errorf("delta of T%d:\n got %q\nwant %q", i, got, want[i])
		}
	}
	fin, err := s.Finish()
	if err != nil {
		t.Fatal(err)
	}
	h := history.MustNew(ops)
	if batch := setInfo.Analyzer.Analyze(h, opts); !reflect.DeepEqual(fin, batch) {
		t.Fatalf("Finish diverges from Analyze:\n got %+v\nwant %+v", fin, batch)
	}
	an := checkAgainstReference(t, h, 1, 2, len(ops))
	if got, want := explanations(an), []string{
		"duplicate-appends: element 3 was added to set x by 3 transactions; adds must be unique for versions to be recoverable",
		"internal: T3 read set x without element 3, which its own prior operations guarantee: an internal inconsistency",
		"G1a: T1 read set x containing element 1 added by aborted T0: an aborted read",
		"G1a: T1 read set x containing element 2 added by aborted T2: an aborted read",
		"garbage-read: T1 read set x containing element 99, which no transaction ever added",
	}; !reflect.DeepEqual(got, want) {
		t.Errorf("final anomalies:\n got %q\nwant %q", got, want)
	}
}
