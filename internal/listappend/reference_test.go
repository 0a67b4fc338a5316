package listappend_test

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"repro/internal/anomaly"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/history"
	"repro/internal/listappend"
	"repro/internal/memdb"
	"repro/internal/nemesis"
	"repro/internal/op"
	"repro/internal/workload"
)

// This file is the element-wise reference oracle for the analyzer's
// trace index. The analyzer classifies each read by one prefix compare
// against its key's trace and shares element-level facts per trace
// position; the reference below treats every read as an unrelated bag
// of elements and pushes each element through a hashed lookup, the way
// the analyzer itself did before the index. The two must agree exactly —
// anomalies (type, ops, key, rendered explanation, order), version
// orders (nil vs empty included) and dependency edges.

// refFindings are the five findings the trace index computes: which
// reads are clean and which of them is the trace (orders), and the
// DuplicateElements, GarbageRead, IncompatibleOrder and G1a anomalies in
// the analyzer's report order; plus the edges the orders imply.
type refFindings struct {
	anomalies []anomaly.Anomaly
	orders    [][]int
	edges     map[[2]int]graph.KindSet
}

type refElem struct {
	key  string
	elem int
}

type refRead struct {
	o    op.Op
	list []int
}

func refHasDuplicates(v []int) bool {
	seen := map[int]bool{}
	for _, e := range v {
		if seen[e] {
			return true
		}
		seen[e] = true
	}
	return false
}

// reference computes refFindings element by element.
func reference(h *history.History) refFindings {
	in := h.Keys()
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
			if m.F == op.FAppend {
				ek := refElem{m.Key, m.Arg}
				attempts[ek] = append(attempts[ek], o)
			}
		}
	}
	// Crashed clients leave an invoke with no completion; their appends
	// may still have taken effect and are not garbage.
	crashed := map[refElem]bool{}
	for _, o := range h.Ops {
		if o.Type != op.Invoke || paired[o.Index] {
			continue
		}
		for _, m := range o.Mops {
			if m.F == op.FAppend {
				crashed[refElem{m.Key, m.Arg}] = true
			}
		}
	}
	// sole returns the element's only attempt when it has exactly one
	// and that attempt aborted (failed) or did not.
	sole := func(ek refElem, failed bool) (op.Op, bool) {
		if as := attempts[ek]; len(as) == 1 && (as[0].Type == op.Fail) == failed {
			return as[0], true
		}
		return op.Op{}, false
	}

	var out refFindings
	// Read structure, per transaction and mop: duplicates, then garbage.
	for _, o := range oks {
		for _, m := range o.Mops {
			if !m.ListKnown() {
				continue
			}
			seen := map[int]bool{}
			for _, e := range m.List {
				if seen[e] {
					out.anomalies = append(out.anomalies, anomaly.Anomaly{
						Type: anomaly.DuplicateElements, Ops: []op.Op{o}, Key: m.Key,
						Explanation: fmt.Sprintf(
							"%s read key %s as %s, which contains element %d more than once: some append was applied multiple times",
							o.Name(), m.Key, op.FormatList(m.List), e),
					})
					break
				}
				seen[e] = true
			}
			for _, e := range m.List {
				if ek := (refElem{m.Key, e}); len(attempts[ek]) == 0 && !crashed[ek] {
					out.anomalies = append(out.anomalies, anomaly.Anomaly{
						Type: anomaly.GarbageRead, Ops: []op.Op{o}, Key: m.Key,
						Explanation: fmt.Sprintf(
							"%s read key %s as %s, but element %d was never appended by any transaction",
							o.Name(), m.Key, op.FormatList(m.List), e),
					})
					break
				}
			}
		}
	}

	// Clean reads per key, and the first of maximal length: the trace.
	clean := map[string][]refRead{}
	for _, o := range oks {
		for _, m := range o.Mops {
			if m.ListKnown() && !refHasDuplicates(m.List) {
				clean[m.Key] = append(clean[m.Key], refRead{o, m.List})
			}
		}
	}
	keys := make([]string, 0, len(clean))
	for k := range clean {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out.orders = make([][]int, in.Len())
	out.edges = map[[2]int]graph.KindSet{}
	edge := func(from, to int, k graph.Kind) {
		if from != to { // a transaction does not depend on itself
			out.edges[[2]int{from, to}] |= k.Mask()
		}
	}
	for _, k := range keys {
		longest := clean[k][0]
		for _, r := range clean[k][1:] {
			if len(r.list) > len(longest.list) {
				longest = r
			}
		}
		out.orders[in.MustID(k)] = longest.list
		for _, r := range clean[k] {
			if !op.IsPrefix(r.list, longest.list) {
				out.anomalies = append(out.anomalies, anomaly.Anomaly{
					Type: anomaly.IncompatibleOrder, Ops: []op.Op{r.o, longest.o}, Key: k,
					Explanation: fmt.Sprintf(
						"%s read key %s as %s but %s read it as %s; neither is a prefix of the other, so at least one observed an aborted version",
						r.o.Name(), k, op.FormatList(r.list), longest.o.Name(), op.FormatList(longest.list)),
				})
				continue
			}
			if n := len(r.list); n > 0 {
				if w, ok := sole(refElem{k, r.list[n-1]}, false); ok {
					edge(w.Index, r.o.Index, graph.WR)
				}
			}
			if n := len(r.list); n < len(longest.list) {
				if w, ok := sole(refElem{k, longest.list[n]}, false); ok {
					edge(r.o.Index, w.Index, graph.RW)
				}
			}
		}
		for i := 0; i+1 < len(longest.list); i++ {
			wi, oki := sole(refElem{k, longest.list[i]}, false)
			wj, okj := sole(refElem{k, longest.list[i+1]}, false)
			if oki && okj {
				edge(wi.Index, wj.Index, graph.WW)
			}
		}
	}

	// G1a, per transaction, mop and element.
	for _, o := range oks {
		for _, m := range o.Mops {
			if !m.ListKnown() {
				continue
			}
			for _, e := range m.List {
				if w, ok := sole(refElem{m.Key, e}, true); ok {
					out.anomalies = append(out.anomalies, anomaly.Anomaly{
						Type: anomaly.G1a, Ops: []op.Op{o, w}, Key: m.Key,
						Explanation: fmt.Sprintf(
							"%s read key %s as %s, but element %d was appended by %s, which aborted: an aborted read",
							o.Name(), m.Key, op.FormatList(m.List), e, w.Name()),
					})
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

var listInfo = func() workload.Info {
	info, ok := workload.Lookup(string(workload.ListAppend))
	if !ok {
		panic("list-append is not registered")
	}
	return info
}()

// checkAgainstReference asserts reference ≡ Analyze on h, and at each
// chunk size session.Finish ≡ Analyze and, step by step, the session's
// emitted edges ≡ keyEdges (see oracle_test.go).
func checkAgainstReference(t *testing.T, h *history.History, chunks ...int) {
	t.Helper()
	opts := workload.Opts{Parallelism: 1, DetectLostUpdates: true}
	an := listappend.Analyze(h, opts)
	want := reference(h)

	var got []anomaly.Anomaly
	for _, a := range an.Anomalies {
		switch a.Type {
		case anomaly.DuplicateElements, anomaly.GarbageRead, anomaly.IncompatibleOrder, anomaly.G1a:
			got = append(got, a)
		}
	}
	if !reflect.DeepEqual(got, want.anomalies) {
		t.Errorf("anomalies diverge from the element-wise reference:\n got %v\nwant %v", got, want.anomalies)
	}
	if !reflect.DeepEqual(an.Explainer.ListOrders, want.orders) {
		t.Errorf("version orders diverge from the reference:\n got %#v\nwant %#v", an.Explainer.ListOrders, want.orders)
	}
	if got := graphEdges(an.Graph); !reflect.DeepEqual(got, want.edges) {
		t.Errorf("edges diverge from the reference:\n got %v\nwant %v", got, want.edges)
	}

	batch := listInfo.Analyzer.Analyze(h, opts)
	for _, chunk := range chunks {
		if fin := streamed(t, h.Ops, opts, chunk); !reflect.DeepEqual(fin, batch) {
			t.Errorf("session.Finish at chunk size %d diverges from Analyze:\n got %+v\nwant %+v", chunk, fin, batch)
		}
	}
}

// streamed feeds ops through a list-append session in chunks, the
// edge-set oracle riding along.
func streamed(t *testing.T, ops []op.Op, opts workload.Opts, chunk int) workload.Analysis {
	t.Helper()
	s := workload.BeginSession(listappend.OracleInfo(t), opts)
	for len(ops) > 0 {
		n := min(max(chunk, 1), len(ops))
		if _, err := s.Feed(ops[:n]); err != nil {
			t.Fatalf("feed: %v", err)
		}
		ops = ops[n:]
	}
	fin, err := s.Finish()
	if err != nil {
		t.Fatalf("finish: %v", err)
	}
	return fin
}

// TestReferenceOnEngineHistories: memdb histories, clean and under every
// internal/nemesis fault, at the two isolation levels that between them
// let every fault show (read-uncommitted keeps aborted writes: G1a,
// dirty updates, incompatible orders).
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
					Source: gen.New(gen.Config{ActiveKeys: 4, MaxWritesPerKey: 30}, 7), Seed: 7,
					AbortProb: plan.AbortProb, InfoProb: plan.InfoProb, CrashProb: plan.CrashProb,
					Workload: memdb.WorkloadList,
				})
				checkAgainstReference(t, h, 1, 2, 7, len(h.Ops))
			})
		}
	}
}

// TestReferenceOnHandWrittenHistories covers the shapes the engine does
// not produce on demand.
func TestReferenceOnHandWrittenHistories(t *testing.T) {
	ok, fail := op.OK, op.Fail
	txns := func(rows ...[]op.Mop) []op.Op {
		var ops []op.Op
		for i, mops := range rows {
			ops = append(ops, op.Txn(i, i%3, ok, mops...))
		}
		return ops
	}
	appends := func(key string, elems ...int) []op.Mop {
		var mops []op.Mop
		for _, e := range elems {
			mops = append(mops, op.Append(key, e))
		}
		return mops
	}
	r := func(key string, v ...int) []op.Mop { return []op.Mop{op.ReadList(key, v)} }

	cases := map[string][]op.Op{
		"maximal-length read has a duplicate: the trace falls to the next candidate": txns(
			appends("x", 1, 2, 3), r("x", 1), r("x", 1, 2, 2), r("x", 1, 2), r("x", 2, 1, 2)),
		"first maximal-length read has a duplicate, the second is clean": txns(
			appends("x", 1, 2, 3), r("x", 1, 2, 2), r("x", 1, 2, 3), r("x", 1, 2)),
		"never-attempted element in the trace, compatible reads straddle it": txns(
			appends("x", 1, 2, 4), r("x", 1, 2), r("x", 1, 2, 3, 4), r("x", 1, 2, 3), r("x", 1, 2, 3, 4), r("x")),
		"clean but incompatible read holding an aborted element": {
			op.Txn(0, 0, ok, appends("x", 1, 2, 3)...),
			op.Txn(1, 1, fail, op.Append("x", 9)),
			op.Txn(2, 2, ok, r("x", 1, 2, 3)...),
			op.Txn(3, 0, ok, r("x", 1, 9)...),
			op.Txn(4, 1, ok, r("x", 9, 9)...),
		},
		"key read only as []": txns(appends("x", 1), r("x"), r("x")),
		"every read of the key has duplicates": txns(
			appends("x", 1, 2), r("x", 1, 1), r("x", 1, 2, 1), r("y", 5, 5)),
		"trace replaced by a longer incompatible read, twice": txns(
			appends("x", 1, 2, 3, 4, 5, 6), r("x", 1, 2), r("x", 1), r("x", 1, 3, 4), r("x", 1, 2, 5, 6), r("x", 1, 3)),
		"equal-length divergent reads and an element with two writers": txns(
			appends("x", 1, 2), appends("x", 2, 3), r("x", 1, 2, 3), r("x", 1, 3, 2), r("x", 1, 2)),
	}
	// Two aborted-writer elements in one trace, with reads of every length.
	aborted := []op.Op{
		op.Txn(0, 0, ok, appends("x", 1, 3, 5)...),
		op.Txn(1, 1, fail, op.Append("x", 2)),
		op.Txn(2, 2, fail, op.Append("x", 4)),
	}
	for n, full := 0, []int{1, 2, 3, 4, 5}; n <= len(full); n++ {
		aborted = append(aborted, op.Txn(len(aborted), n%3, ok, op.ReadList("x", full[:n]), op.ReadList("x", full[:len(full)-n])))
	}
	cases["two aborted-writer elements in one trace, reads of every length"] = aborted
	// A crashed client's append sits in the trace: not garbage for the
	// reads past it, while 7 — appended by nobody — is.
	cases["crashed client's append in the trace"] = []op.Op{
		{Index: 0, Process: 0, Type: op.Invoke, Mops: appends("x", 1)},
		{Index: 1, Process: 0, Type: ok, Mops: appends("x", 1)},
		{Index: 2, Process: 1, Type: op.Invoke, Mops: appends("x", 2)},
		{Index: 3, Process: 2, Type: op.Invoke, Mops: []op.Mop{op.Read("x"), op.Read("x")}},
		{Index: 4, Process: 2, Type: ok, Mops: []op.Mop{op.ReadList("x", []int{1, 2}), op.ReadList("x", []int{1, 2, 7})}},
		{Index: 5, Process: 0, Type: op.Invoke, Mops: []op.Mop{op.Read("x")}},
		{Index: 6, Process: 0, Type: ok, Mops: r("x", 1)},
	}
	// The shapes the session's edge emitter meets evidence in an order
	// keyEdges never sees (every one also runs the edge-set oracle).
	cases["writers learned after their elements were read, between known neighbours and at the end"] = txns(
		appends("x", 1), r("x", 1, 2, 3), r("x", 1, 2), appends("x", 3), r("x", 1), appends("x", 2), r("x", 1, 2, 3, 4), appends("x", 4))
	cases["late fail on an observed element"] = []op.Op{
		op.Txn(0, 0, ok, appends("x", 1)...),
		op.Txn(1, 1, ok, r("x", 1, 2, 3)...),
		op.Txn(2, 2, ok, appends("x", 3)...),
		op.Txn(3, 0, fail, op.Append("x", 2)),
		op.Txn(4, 1, ok, r("x", 1, 2)...),
	}
	cases["info writer, before and after its element is read"] = []op.Op{
		op.Txn(0, 0, op.Info, op.Append("x", 1)),
		op.Txn(1, 1, ok, r("x", 1, 2)...),
		op.Txn(2, 2, op.Info, op.Append("x", 2)),
		op.Txn(3, 0, ok, r("x", 1)...),
	}
	cases["readers that are their own writers"] = txns(
		appends("x", 1), append(appends("x", 2), r("x", 1, 2)...), r("x", 1, 2, 3), append(r("x", 1, 2, 3), appends("x", 3)...),
		append(r("x", 1, 2, 3), appends("x", 4)...), r("x", 1, 2, 3, 4))
	cases["reads of the empty list before the first append"] = txns(
		r("x"), r("x"), appends("x", 1), r("x"), r("x", 1), r("y"), r("y", 5), appends("y", 5))
	cases["one transaction brings an element's second and third append"] = txns(
		appends("x", 1, 2), r("x", 1, 2), appends("x", 2, 2), r("x", 1), r("x", 1, 2))
	// Evidence retracted mid-stream, then a scan point: the rebuilt graph
	// has to pick the deltas up again where the rebuild left them.
	for name, c := range map[string]struct{ retract, after [][]op.Mop }{
		"duplicate append, then a scan and more of the key": {
			[][]op.Mop{appends("x", 2)},
			[][]op.Mop{appends("x", 4), r("x", 1), r("x", 1, 2, 3, 4, 5), appends("x", 5), r("x", 1, 2, 3, 4)}},
		"replaced trace, then a scan and more of the key": {
			[][]op.Mop{r("x", 1, 3, 2, 4)},
			[][]op.Mop{appends("x", 4), r("x", 1), r("x", 1, 3, 2, 4, 5), appends("x", 5), r("x", 1, 3), r("x", 1, 2, 3)}},
	} {
		rows := append([][]op.Mop{appends("x", 1, 2), appends("x", 3), r("x", 1, 2, 3), r("x", 1, 2)}, c.retract...)
		var filler []int
		for i := 0; i < workload.ScanEvery; i++ {
			filler = append(filler, i)
			rows = append(rows, appends("filler", i), r("filler", filler...))
		}
		cases[name] = txns(append(rows, c.after...)...)
	}
	for name, ops := range cases {
		t.Run(name, func(t *testing.T) { checkAgainstReference(t, history.MustNew(ops), 1, 2, 7, len(ops)) })
	}
}

// TestLateAbortDelta pins the mid-stream rendering of a G1a whose abort
// arrives after its readers: one finding per reader in ingestion order —
// a prefix of the trace, a reader whose first read of the key lacks the
// element and whose second holds it (cited with the second), and an
// incompatible read — each surfaced once, on the feed that proves it.
func TestLateAbortDelta(t *testing.T) {
	ops := []op.Op{
		op.Txn(0, 0, op.OK, op.Append("x", 1)),
		op.Txn(1, 1, op.OK, op.ReadList("x", []int{1, 2, 3})),
		op.Txn(2, 2, op.OK, op.ReadList("x", []int{1}), op.ReadList("x", []int{1, 2})),
		op.Txn(3, 0, op.OK, op.ReadList("x", []int{2, 1})),
		op.Txn(4, 1, op.OK, op.ReadList("x", []int{1})),
		op.Txn(5, 2, op.Fail, op.Append("x", 2)),
		op.Txn(6, 0, op.OK, op.ReadList("x", []int{1, 2})),
	}
	opts := workload.Opts{Parallelism: 1}
	s := workload.BeginSession(listInfo, opts)
	d, err := s.Feed(ops[:5])
	if err != nil {
		t.Fatal(err)
	}
	// T2's two reads of x disagree, and T3's order is incompatible; no
	// aborted read is provable before the abort.
	if len(d.Anomalies) != 2 || d.Anomalies[0].Type != anomaly.Internal || d.Anomalies[1].Type != anomaly.IncompatibleOrder {
		t.Fatalf("delta before the abort: %+v", d.Anomalies)
	}
	d, err = s.Feed(ops[5:6])
	if err != nil {
		t.Fatal(err)
	}
	g1a := func(reader int, list string) anomaly.Anomaly {
		return anomaly.Anomaly{
			Type: anomaly.G1a, Ops: []op.Op{ops[reader], ops[5]}, Key: "x",
			Explanation: fmt.Sprintf("T%d read key x as %s, but element 2 was appended by T5, which aborted: an aborted read", reader, list),
		}
	}
	want := []anomaly.Anomaly{g1a(1, "[1 2 3]"), g1a(2, "[1 2]"), g1a(3, "[2 1]")}
	if !reflect.DeepEqual(d.Anomalies, want) {
		t.Fatalf("late-abort delta:\n got %+v\nwant %+v", d.Anomalies, want)
	}
	// A reader arriving after the abort is an early-abort finding.
	d, err = s.Feed(ops[6:])
	if err != nil {
		t.Fatal(err)
	}
	if want := []anomaly.Anomaly{g1a(6, "[1 2]")}; !reflect.DeepEqual(d.Anomalies, want) {
		t.Fatalf("early-abort delta after the late abort:\n got %+v\nwant %+v", d.Anomalies, want)
	}
	fin, err := s.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if want := listInfo.Analyzer.Analyze(history.MustNew(ops), opts); !reflect.DeepEqual(fin, want) {
		t.Fatalf("Finish diverges from Analyze:\n got %+v\nwant %+v", fin, want)
	}
}

// TestDuplicateAppendCountsTransactions pins what a duplicate-append
// finding counts and cites: transactions, each once, not append
// attempts. T1 appends x's element 1 twice after T0 did, and T2 appends
// y's element 2 twice on its own. The session surfaces the same findings
// mid-stream, and its Finish equals Analyze.
func TestDuplicateAppendCountsTransactions(t *testing.T) {
	ops := []op.Op{
		op.Txn(0, 0, op.OK, op.Append("x", 1)),
		op.Txn(1, 1, op.OK, op.Append("x", 1), op.Append("x", 1)),
		op.Txn(2, 2, op.OK, op.Append("y", 2), op.Append("y", 2)),
	}
	const unique = "; appends must be unique for versions to be recoverable"
	want := []anomaly.Anomaly{{
		Type: anomaly.DuplicateAppends, Ops: []op.Op{ops[0], ops[1]}, Key: "x",
		Explanation: "element 1 was appended to key x by 2 distinct transactions" + unique,
	}, {
		Type: anomaly.DuplicateAppends, Ops: []op.Op{ops[2]}, Key: "y",
		Explanation: "element 2 was appended to key y more than once by one transaction" + unique,
	}}
	opts := workload.Opts{Parallelism: 1}
	batch := listInfo.Analyzer.Analyze(history.MustNew(ops), opts)
	if !reflect.DeepEqual(batch.Anomalies, want) {
		t.Fatalf("batch:\n got %+v\nwant %+v", batch.Anomalies, want)
	}
	for _, chunk := range []int{1, len(ops)} {
		s := workload.BeginSession(listInfo, opts)
		var surfaced []anomaly.Anomaly
		for rest := ops; len(rest) > 0; rest = rest[chunk:] {
			d, err := s.Feed(rest[:chunk])
			if err != nil {
				t.Fatal(err)
			}
			surfaced = append(surfaced, d.Anomalies...)
		}
		if !reflect.DeepEqual(surfaced, want) {
			t.Errorf("chunk %d: surfaced mid-stream:\n got %+v\nwant %+v", chunk, surfaced, want)
		}
		fin, err := s.Finish()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(fin, batch) {
			t.Errorf("chunk %d: Finish diverges from Analyze:\n got %+v\nwant %+v", chunk, fin, batch)
		}
	}
	checkAgainstReference(t, history.MustNew(ops), 1, 2)
}

// TestReadCostIndependentOfLength pins the structure the trace index
// buys: on a clean history a read is one comparison against its key's
// trace, so allocations follow transactions and distinct elements, not
// the length of what was read. At equal transaction count, keys four
// times as long make reads about four times as long; the element-wise
// analyzer allocated two maps per read sized by its length.
func TestReadCostIndependentOfLength(t *testing.T) {
	allocs := func(writesPerKey int) float64 {
		h := memdb.Run(memdb.RunConfig{
			Clients: 10, Txns: 3000, Isolation: memdb.StrictSerializable,
			Source: gen.New(gen.Config{ActiveKeys: 10, MaxWritesPerKey: writesPerKey}, 3), Seed: 3,
			Workload: memdb.WorkloadList,
		})
		opts := workload.Opts{Parallelism: 1}
		if an := listappend.Analyze(h, opts); len(an.Anomalies) != 0 {
			t.Fatalf("clean history reported %v", an.Anomalies)
		}
		return testing.AllocsPerRun(3, func() { listappend.Analyze(h, opts) })
	}
	short, long := allocs(50), allocs(200)
	if long > 1.10*short {
		t.Errorf("Analyze allocates %.0f times at 200 writes per key against %.0f at 50: reads cost by their length", long, short)
	}
}

// TestAbortedReadAndLostUpdateOrder pins the report order of the two
// findings read straight off the per-key tables. G1a follows the reader:
// transactions in completion order, their reads in program order, each
// read's aborted elements in list order — a prefix of the trace (T6, T8)
// and a read that is not (T7) alike — and an element whose aborted
// append was followed by a second one (5) is nobody's recoverable write,
// so reading it is no G1a. Lost updates follow the key's committed
// appends in completion, then program, order. A session, however it is
// chunked, surfaces the same aborted reads provisionally, citing a
// reader once per element.
func TestAbortedReadAndLostUpdateOrder(t *testing.T) {
	ok, fail := op.OK, op.Fail
	ops := []op.Op{
		op.Txn(0, 0, ok, op.Append("x", 1), op.Append("x", 3), op.Append("y", 10)),
		op.Txn(1, 1, fail, op.Append("x", 2)),
		op.Txn(2, 2, fail, op.Append("x", 4)),
		op.Txn(3, 0, fail, op.Append("y", 11)),
		op.Txn(4, 1, fail, op.Append("x", 5)),
		op.Txn(5, 2, ok, op.Append("x", 5)),
		op.Txn(6, 0, ok, op.ReadList("x", []int{1, 2, 3, 4, 5}), op.ReadList("y", []int{10, 11}), op.ReadList("x", []int{1, 2})),
		op.Txn(7, 1, ok, op.ReadList("x", []int{2, 1, 4, 5})),
		op.Txn(8, 2, ok, op.ReadList("x", []int{1, 2, 3})),
		op.Txn(9, 0, ok, op.Append("z", 1), op.Append("z", 4)),
		op.Txn(10, 1, ok, op.Append("z", 2)),
		op.Txn(11, 2, ok, op.Append("z", 3)),
		op.Txn(12, 0, ok, op.ReadList("z", []int{2})),
	}
	g1a := func(reader int, key, list string, e, writer int) string {
		return fmt.Sprintf("T%d read key %s as %s, but element %d was appended by T%d, which aborted: an aborted read", reader, key, list, e, writer)
	}
	lost := func(writer, e int) string {
		return fmt.Sprintf("T%d committed an append of %d to key z before T12 began, yet T12 read [2] without it: the update was lost", writer, e)
	}
	want := []string{
		g1a(6, "x", "[1 2 3 4 5]", 2, 1), g1a(6, "x", "[1 2 3 4 5]", 4, 2), g1a(6, "y", "[10 11]", 11, 3), g1a(6, "x", "[1 2]", 2, 1),
		g1a(7, "x", "[2 1 4 5]", 2, 1), g1a(7, "x", "[2 1 4 5]", 4, 2),
		g1a(8, "x", "[1 2 3]", 2, 1),
		lost(9, 1), lost(9, 4), lost(11, 3),
	}
	h := history.MustNew(ops)
	cited := map[string]bool{} // key, reader, aborted writer
	for _, p := range []int{1, 4} {
		var got []string
		for _, a := range listappend.Analyze(h, workload.Opts{Parallelism: p, DetectLostUpdates: true}).Anomalies {
			switch a.Type {
			case anomaly.G1a:
				cited[fmt.Sprint(a.Key, a.Ops[0].Index, a.Ops[1].Index)] = true
				fallthrough
			case anomaly.LostUpdate:
				got = append(got, a.Explanation)
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("G1a and lost updates at parallelism %d:\n got %q\nwant %q", p, got, want)
		}
	}

	chunks := []int{1, 2, 7, len(ops)}
	checkAgainstReference(t, h, chunks...)
	for _, chunk := range chunks {
		s := workload.BeginSession(listInfo, workload.Opts{Parallelism: 1, DetectLostUpdates: true})
		provisional := map[string]bool{}
		for rest := ops; len(rest) > 0; rest = rest[min(chunk, len(rest)):] {
			d, err := s.Feed(rest[:min(chunk, len(rest))])
			if err != nil {
				t.Fatalf("feed: %v", err)
			}
			for _, a := range d.Anomalies {
				if a.Type == anomaly.G1a {
					provisional[fmt.Sprint(a.Key, a.Ops[0].Index, a.Ops[1].Index)] = true
				}
			}
		}
		if !reflect.DeepEqual(provisional, cited) {
			t.Errorf("chunk size %d: provisional aborted reads %v, the report cites %v", chunk, provisional, cited)
		}
	}
}
