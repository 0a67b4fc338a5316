package rwregister_test

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/anomaly"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/history"
	"repro/internal/memdb"
	"repro/internal/nemesis"
	"repro/internal/op"
	"repro/internal/rwregister"
	"repro/internal/workload"
)

// This file holds two oracles for the register analyzer that share none
// of its code. The analyzer keeps one value table per key and works
// over dense version ranks; the oracles know only the history and the
// Analysis it produced, and index both with string-keyed maps.
//
//   - The explosion oracle recomputes every ww, wr and rw edge from the
//     reported version orders and a naive writer/reader index, and
//     requires exactly the analyzer's graph.
//   - The order oracle requires every reported version order to be
//     acyclic, transitively reduced, and about that key's values only.
//   - The initial-state oracle requires nil to precede, in every acyclic
//     reported order, each value written to or read from that key.

type refVer struct {
	key string
	val string // "nil" for the initial version
}

// refIndex is the naive index: every write of every value with the op
// that made it, and the committed readers of every version.
type refIndex struct {
	writes  map[refVer][]op.Op
	readers map[refVer][]int
}

func index(h *history.History) refIndex {
	ix := refIndex{writes: map[refVer][]op.Op{}, readers: map[refVer][]int{}}
	for _, o := range h.Completions() {
		for _, m := range o.Mops {
			switch {
			case m.F == op.FWrite:
				v := refVer{m.Key, fmt.Sprint(m.Arg)}
				ix.writes[v] = append(ix.writes[v], o)
			case m.F == op.FRead && o.Type == op.OK && m.RegKnown:
				v := refVer{m.Key, "nil"}
				if !m.RegNil {
					v.val = fmt.Sprint(m.Reg)
				}
				ix.readers[v] = append(ix.readers[v], o.Index)
			}
		}
	}
	return ix
}

// regOrders spells the analysis's version orders as the oracles do:
// each version rendered through op.FormatVersion, the one place outside
// the oracles that names a version.
func regOrders(an workload.Analysis) [][][2]string {
	out := make([][][2]string, len(an.Explainer.RegOrders))
	for k, order := range an.Explainer.RegOrders {
		for _, e := range order {
			out[k] = append(out[k], [2]string{op.FormatVersion(e[0]), op.FormatVersion(e[1])})
		}
	}
	return out
}

// regOrder is regOrders' order of one key, nil if it has none.
func regOrder(an workload.Analysis, key string) [][2]string {
	if id, ok := an.Explainer.Keys.ID(key); ok && int(id) < len(an.Explainer.RegOrders) {
		return regOrders(an)[id]
	}
	return nil
}

// writer returns the version's recoverable writer: the op behind its
// only write, unless that op aborted.
func (ix refIndex) writer(v refVer) (int, bool) {
	if ws := ix.writes[v]; len(ws) == 1 && ws[0].Type != op.Fail {
		return ws[0].Index, true
	}
	return 0, false
}

// explode derives the dependency edges the version orders imply.
func explode(h *history.History, an workload.Analysis) map[[2]int]graph.KindSet {
	ix := index(h)
	edges := map[[2]int]graph.KindSet{}
	edge := func(from, to int, k graph.Kind) {
		if from != to { // a transaction does not depend on itself
			edges[[2]int{from, to}] |= k.Mask()
		}
	}
	for k, order := range regOrders(an) {
		key := an.Explainer.Keys.Key(history.KeyID(k))
		for _, e := range order {
			wv, ok := ix.writer(refVer{key, e[1]})
			if !ok {
				continue
			}
			if wu, ok := ix.writer(refVer{key, e[0]}); ok {
				edge(wu, wv, graph.WW)
			}
			for _, r := range ix.readers[refVer{key, e[0]}] {
				edge(r, wv, graph.RW)
			}
		}
	}
	// wr needs no version order: cyclic keys keep theirs.
	for v, rs := range ix.readers {
		if w, ok := ix.writer(v); ok {
			for _, r := range rs {
				edge(w, r, graph.WR)
			}
		}
	}
	return edges
}

// graphEdges lists g's dependency edges as explode does.
func graphEdges(g *graph.Graph) map[[2]int]graph.KindSet {
	out := map[[2]int]graph.KindSet{}
	for _, a := range g.Nodes() {
		g.Out(a, graph.KSDep, func(b int, label graph.KindSet) { out[[2]int{a, b}] = label })
	}
	return out
}

// checkOrders is the order oracle.
func checkOrders(t *testing.T, h *history.History, an workload.Analysis) {
	t.Helper()
	ix := index(h)
	for k, order := range regOrders(an) {
		key := an.Explainer.Keys.Key(history.KeyID(k))
		ids := map[string]int{}
		id := func(v string) int {
			if _, ok := ids[v]; !ok {
				ids[v] = len(ids)
			}
			return ids[v]
		}
		seen := map[[2]string]bool{}
		for _, e := range order {
			for _, v := range e {
				if rv := (refVer{key, v}); v != "nil" && ix.writes[rv] == nil && ix.readers[rv] == nil {
					t.Errorf("key %s: version order mentions %s, which nobody wrote to or read from it", key, v)
				}
			}
			if seen[e] {
				t.Errorf("key %s: version edge %v reported twice", key, e)
			}
			seen[e] = true
			id(e[0])
			id(e[1])
		}
		// Floyd–Warshall over the reported edges.
		n := len(ids)
		reach := make([][]bool, n)
		for i := range reach {
			reach[i] = make([]bool, n)
		}
		for _, e := range order {
			reach[id(e[0])][id(e[1])] = true
		}
		for m := 0; m < n; m++ {
			for u := 0; u < n; u++ {
				for v := 0; v < n; v++ {
					reach[u][v] = reach[u][v] || reach[u][m] && reach[m][v]
				}
			}
		}
		for v := 0; v < n; v++ {
			if reach[v][v] {
				t.Errorf("key %s: the reported version order is cyclic: %v", key, order)
				break
			}
		}
		for _, e := range order {
			for m := 0; m < n; m++ {
				if reach[id(e[0])][m] && reach[m][id(e[1])] {
					t.Errorf("key %s: version edge %v is implied by the others: %v", key, e, order)
					break
				}
			}
		}
	}
}

// checkInitialState is the initial-state oracle. The rule applies to
// every key under every claim; keys reported cyclic keep no order.
func checkInitialState(t *testing.T, h *history.History, an workload.Analysis) {
	t.Helper()
	cyclic := map[string]bool{}
	for _, a := range an.Anomalies {
		if a.Type == anomaly.CyclicVersionOrder {
			cyclic[a.Key] = true
		}
	}
	ix := index(h)
	observed := map[refVer]bool{}
	for v := range ix.writes {
		observed[v] = true
	}
	for v := range ix.readers {
		observed[v] = true
	}
	after := map[string]map[string]bool{} // key -> versions reachable from nil
	for v := range observed {
		if cyclic[v.key] || v.val == "nil" {
			continue
		}
		reach, ok := after[v.key]
		if !ok {
			order := regOrder(an, v.key)
			reach = map[string]bool{"nil": true}
			for grew := true; grew; {
				grew = false
				for _, e := range order {
					if reach[e[0]] && !reach[e[1]] {
						reach[e[1]], grew = true, true
					}
				}
			}
			after[v.key] = reach
		}
		if !reach[v.val] {
			t.Errorf("key %s: %s is not ordered after the initial nil: %v", v.key, v.val, regOrder(an, v.key))
		}
	}
}

var registerInfo = func() workload.Info {
	info, ok := workload.Lookup(string(workload.RWRegister))
	if !ok {
		panic("rw-register is not registered")
	}
	return info
}()

// checkAgainstOracles asserts both oracles on Analyze(h), and
// session.Finish ≡ Analyze at each chunk size.
func checkAgainstOracles(t *testing.T, h *history.History, opts workload.Opts, chunks ...int) workload.Analysis {
	t.Helper()
	an := rwregister.Analyze(h, opts)
	if got, want := graphEdges(an.Graph), explode(h, an); !reflect.DeepEqual(got, want) {
		t.Errorf("edges diverge from the version orders' explosion:\n got %v\nwant %v", got, want)
	}
	checkOrders(t, h, an)
	batch := registerInfo.Analyzer.Analyze(h, opts)
	for _, chunk := range chunks {
		if fin := streamed(t, h.Ops, opts, chunk); !reflect.DeepEqual(fin, batch) {
			t.Errorf("session.Finish at chunk size %d diverges from Analyze:\n got %+v\nwant %+v", chunk, fin, batch)
		}
	}
	return an
}

// streamed feeds ops through a register session in chunks.
func streamed(t *testing.T, ops []op.Op, opts workload.Opts, chunk int) workload.Analysis {
	t.Helper()
	s := workload.BeginSession(registerInfo, opts)
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

// ruleSets are BenchmarkAblationRegisterRules' three: one per per-key
// claim.
var ruleSets = map[string]workload.Opts{
	"init+wfr":     {},
	"init+wfr+seq": {KeyConsistency: workload.SequentialKeys},
	"all":          {KeyConsistency: workload.LinearizableKeys},
}

// TestOraclesOnEngineHistories: memdb register histories, clean and
// under every internal/nemesis fault, at the two isolation levels that
// between them let every fault show, under each rule set. The initial-
// state rule always runs beside writes-follow-reads, so init-only holds
// its oracle alone to the analysis without a per-key claim.
func TestOraclesOnEngineHistories(t *testing.T) {
	plans := map[string]nemesis.Plan{"clean": {}}
	for _, f := range nemesis.FaultCatalog() {
		var p nemesis.Plan
		f.Apply(&p)
		plans[f.Name] = p
	}
	for name, plan := range plans {
		for _, iso := range []memdb.Isolation{memdb.ReadUncommitted, memdb.SnapshotIsolation} {
			h := memdb.Run(memdb.RunConfig{
				Clients: 8, Txns: 300, Isolation: iso, Faults: plan.Faults,
				Source: gen.New(gen.Config{Workload: gen.Register, ActiveKeys: 4, MaxWritesPerKey: 30}, 7), Seed: 7,
				AbortProb: plan.AbortProb, InfoProb: plan.InfoProb, CrashProb: plan.CrashProb,
				Workload: memdb.WorkloadRegister,
			})
			for rules, opts := range ruleSets {
				t.Run(fmt.Sprintf("%s/%s/%s", name, iso, rules), func(t *testing.T) {
					opts.Parallelism = 1
					checkAgainstOracles(t, h, opts, 1, 2, len(h.Ops))
				})
			}
			t.Run(fmt.Sprintf("%s/%s/init-only", name, iso), func(t *testing.T) {
				checkInitialState(t, h, rwregister.Analyze(h, workload.Opts{Parallelism: 1}))
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

// paired spells a complete history: each transaction's invocation (reads
// unknown) immediately followed by its completion, so every transaction
// finishes before the next begins.
func paired(txns ...op.Op) []op.Op {
	var ops []op.Op
	for _, o := range txns {
		inv := op.Op{Index: len(ops), Process: o.Process, Type: op.Invoke}
		for _, m := range o.Mops {
			if m.F == op.FRead {
				m = op.Read(m.Key)
			}
			inv.Mops = append(inv.Mops, m)
		}
		o.Index = len(ops) + 1
		ops = append(ops, inv, o)
	}
	return ops
}

// TestOraclesOnHandWrittenHistories covers the shapes the engine does
// not produce on demand, with the findings pinned.
func TestOraclesOnHandWrittenHistories(t *testing.T) {
	ok := op.OK
	cases := []struct {
		name   string
		ops    []op.Op
		opts   workload.Opts
		want   []string    // anomalies, in report order
		orders [][2]string // key x's version order
		edges  map[[2]int]graph.KindSet
	}{
		{
			name: "a value read but never written beside a crashed writer of another value",
			ops: []op.Op{
				{Index: 0, Process: 0, Type: op.Invoke, Mops: []op.Mop{op.Write("x", 1)}},
				{Index: 1, Process: 1, Type: op.Invoke, Mops: []op.Mop{op.Read("x"), op.Read("x")}},
				{Index: 2, Process: 1, Type: ok, Mops: []op.Mop{op.ReadReg("x", 1), op.ReadReg("x", 2)}},
			},
			opts: workload.Opts{KeyConsistency: workload.LinearizableKeys},
			want: []string{
				"internal: T2 read key x = 2, but its own prior operations imply the value must be 1: an internal inconsistency",
				"garbage-read: T2 read key x = 2, but no transaction ever wrote 2 to x",
			},
			orders: [][2]string{{"nil", "1"}, {"nil", "2"}},
			edges:  map[[2]int]graph.KindSet{},
		},
		{
			name: "a nil read after a write under LinearizableKeys",
			ops: paired(
				op.Txn(0, 0, ok, op.Write("x", 1)),
				op.Txn(0, 1, ok, op.ReadReg("x", 1), op.Write("x", 2)),
				op.Txn(0, 2, ok, op.ReadNil("x")),
			),
			opts: workload.Opts{KeyConsistency: workload.LinearizableKeys},
			want: []string{
				"cyclic-version-order: the inferred version order for key x is cyclic (1 < 2 < nil < 1); its version edges are discarded to avoid trivial transaction cycles",
			},
			// The cyclic key keeps its wr edge: T1 wrote the 1 T3 read.
			edges: map[[2]int]graph.KindSet{{1, 3}: graph.WR.Mask()},
		},
		{
			name: "one transaction touching a key in three mops: read, write, write",
			ops: []op.Op{
				op.Txn(0, 0, ok, op.Write("x", 1)),
				op.Txn(1, 1, ok, op.ReadReg("x", 1), op.Write("x", 2), op.Write("x", 3)),
				op.Txn(2, 2, ok, op.ReadReg("x", 2)),
				op.Txn(3, 0, ok, op.ReadReg("x", 3)),
			},
			opts: workload.Opts{},
			want: []string{
				"G1b: T2 read key x = 2, an intermediate write of T1 (whose final write was 3): an intermediate read",
			},
			orders: [][2]string{{"nil", "1"}, {"1", "2"}, {"2", "3"}},
			edges: map[[2]int]graph.KindSet{
				{0, 1}: graph.WW.Mask() | graph.WR.Mask(), // 1 < 2, and T1 read T0's 1
				{1, 2}: graph.WR.Mask(),
				{2, 1}: graph.RW.Mask(), // T2 read 2; T1 itself overwrote it with 3
				{1, 3}: graph.WR.Mask(),
			},
		},
		{
			name: "a duplicate write evicting a writer that already has readers",
			ops: []op.Op{
				op.Txn(0, 0, ok, op.Write("x", 1)),
				op.Txn(1, 1, ok, op.ReadReg("x", 1), op.Write("x", 2)),
				op.Txn(2, 2, ok, op.ReadReg("x", 1)),
				op.Txn(3, 0, ok, op.Write("x", 1)),
			},
			opts: workload.Opts{},
			want: []string{
				"duplicate-appends: value 1 was written to key x by 2 transactions; writes must be unique for versions to be recoverable",
			},
			orders: [][2]string{{"nil", "1"}, {"1", "2"}},
			// 1 has no writer any more: its readers keep only their
			// anti-dependency on the writer of its successor.
			edges: map[[2]int]graph.KindSet{{2, 1}: graph.RW.Mask()},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			c.opts.Parallelism = 1
			an := checkAgainstOracles(t, history.MustNew(c.ops), c.opts, 1, 2, len(c.ops))
			if got := explanations(an); !reflect.DeepEqual(got, c.want) {
				t.Errorf("anomalies:\n got %q\nwant %q", got, c.want)
			}
			if got := regOrder(an, "x"); !reflect.DeepEqual(got, c.orders) {
				t.Errorf("version order of x:\n got %v\nwant %v", got, c.orders)
			}
			if got := graphEdges(an.Graph); !reflect.DeepEqual(got, c.edges) {
				t.Errorf("edges:\n got %v\nwant %v", got, c.edges)
			}
		})
	}
}

// TestCrashedClientWriteIsNotGarbage: a write whose invocation never
// completed — a crashed client, or simply the tail of a log still being
// written — may have taken effect, so reading its value is not a
// garbage read. It gains no writer, edge or duplicate count; and the
// same read is garbage once nothing, crashed or not, wrote the value.
func TestCrashedClientWriteIsNotGarbage(t *testing.T) {
	crashed := []op.Op{
		{Index: 0, Process: 0, Type: op.Invoke, Mops: []op.Mop{op.Write("x", 1)}},
		{Index: 1, Process: 1, Type: op.Invoke, Mops: []op.Mop{op.Read("x")}},
		{Index: 2, Process: 1, Type: op.OK, Mops: []op.Mop{op.ReadReg("x", 1)}},
	}
	// Enough quiet traffic on other keys for a budgeted session to scan
	// and sweep x away before Finish.
	for i := 0; i < 300; i++ {
		k := fmt.Sprintf("f%d", i)
		crashed = append(crashed,
			op.Op{Index: len(crashed), Process: 2, Type: op.Invoke, Mops: []op.Mop{op.Write(k, 1)}},
			op.Op{Index: len(crashed) + 1, Process: 2, Type: op.OK, Mops: []op.Mop{op.Write(k, 1)}})
	}
	opts := workload.Opts{KeyConsistency: workload.LinearizableKeys}
	opts.Parallelism = 1
	budgeted := opts
	budgeted.MemoryBudget = 16

	batch := rwregister.Analyze(history.MustNew(crashed), opts)
	if len(batch.Anomalies) != 0 {
		t.Errorf("batch: a crashed client's write misreported: %v", batch.Anomalies)
	}
	if got, want := regOrder(batch, "x"), [][2]string{{"nil", "1"}}; !reflect.DeepEqual(got, want) {
		t.Errorf("version order of x = %v, want %v", got, want)
	}
	if batch.Graph.HasNode(0) || batch.Graph.NumEdges() != 0 {
		t.Errorf("the crashed write became a writer: node %v, %d edges", batch.Graph.HasNode(0), batch.Graph.NumEdges())
	}
	for name, o := range map[string]workload.Opts{"session at chunk size 1": opts, "budgeted session": budgeted} {
		if fin := streamed(t, crashed, o, 1); len(fin.Anomalies) != 0 {
			t.Errorf("%s: a crashed client's write misreported: %v", name, fin.Anomalies)
		}
	}

	// The invocation gone, the value is nobody's: garbage again.
	for name, an := range map[string][]anomaly.Anomaly{
		"batch":                   rwregister.Analyze(history.MustNew(crashed[1:]), opts).Anomalies,
		"session at chunk size 1": streamed(t, crashed[1:], opts, 1).Anomalies,
		"budgeted session":        streamed(t, crashed[1:], budgeted, 1).Anomalies,
	} {
		if len(an) != 1 || an[0].Type != anomaly.GarbageRead {
			t.Errorf("%s: want one garbage read without the crashed invocation, got %v", name, an)
		}
	}
}

// TestAbortedReadDeltaOrder pins the mid-stream rendering of a G1a whose
// abort arrives after some of its readers and before others: the late
// abort surfaces one finding per earlier reader, in index order and once
// each (T2 read the value twice), on the feed that carries the failure;
// a reader arriving afterwards surfaces its own on arrival.
func TestAbortedReadDeltaOrder(t *testing.T) {
	ops := []op.Op{
		op.Txn(0, 0, op.OK, op.Write("x", 1)),
		op.Txn(1, 1, op.OK, op.ReadReg("x", 7)),
		op.Txn(2, 2, op.OK, op.ReadReg("x", 7), op.ReadReg("x", 7)),
		op.Txn(3, 0, op.OK, op.ReadReg("x", 1)),
		op.Txn(4, 1, op.Fail, op.Write("x", 7)),
		op.Txn(5, 2, op.OK, op.ReadReg("x", 7)),
	}
	opts := workload.Opts{KeyConsistency: workload.LinearizableKeys}
	opts.Parallelism = 1
	s := workload.BeginSession(registerInfo, opts)
	d, err := s.Feed(ops[:4])
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Anomalies) != 0 {
		t.Fatalf("delta before the abort: %+v", d.Anomalies)
	}
	g1a := func(reader int) anomaly.Anomaly {
		return anomaly.Anomaly{
			Type: anomaly.G1a, Ops: []op.Op{ops[reader], ops[4]}, Key: "x",
			Explanation: fmt.Sprintf("T%d read key x = 7, which was written by T4, which aborted: an aborted read", reader),
		}
	}
	d, err = s.Feed(ops[4:5])
	if err != nil {
		t.Fatal(err)
	}
	if want := []anomaly.Anomaly{g1a(1), g1a(2)}; !reflect.DeepEqual(d.Anomalies, want) {
		t.Fatalf("late-abort delta:\n got %+v\nwant %+v", d.Anomalies, want)
	}
	d, err = s.Feed(ops[5:])
	if err != nil {
		t.Fatal(err)
	}
	if want := []anomaly.Anomaly{g1a(5)}; !reflect.DeepEqual(d.Anomalies, want) {
		t.Fatalf("early-abort delta after the late abort:\n got %+v\nwant %+v", d.Anomalies, want)
	}
	fin, err := s.Finish()
	if err != nil {
		t.Fatal(err)
	}
	h := history.MustNew(ops)
	if want := registerInfo.Analyzer.Analyze(h, opts); !reflect.DeepEqual(fin, want) {
		t.Fatalf("Finish diverges from Analyze:\n got %+v\nwant %+v", fin, want)
	}
	checkAgainstOracles(t, h, opts, 1, 2, len(ops))
}

// TestAbortedReadOrder pins the report order of G1a, read straight off
// the per-key value tables: transactions in completion order, their
// reads in program order, one finding per read — T5 reads x = 2 twice
// and is cited twice — wherever the abort falls relative to the reader
// (T9's comes after T8). A value whose aborted write was followed by a
// second write (x = 3) is nobody's recoverable write, so reading it is
// no G1a. A session, however it is chunked, surfaces the same aborted
// reads provisionally, citing a reader once per value.
func TestAbortedReadOrder(t *testing.T) {
	ok, fail := op.OK, op.Fail
	ops := []op.Op{
		op.Txn(0, 0, ok, op.Write("x", 1)),
		op.Txn(1, 1, fail, op.Write("x", 2)),
		op.Txn(2, 2, fail, op.Write("y", 5)),
		op.Txn(3, 0, fail, op.Write("x", 3)),
		op.Txn(4, 1, ok, op.Write("x", 3)),
		op.Txn(5, 2, ok, op.ReadReg("x", 2), op.ReadReg("y", 5), op.ReadReg("x", 2)),
		op.Txn(6, 0, ok, op.ReadReg("x", 3)),
		op.Txn(7, 1, ok, op.ReadReg("x", 2)),
		op.Txn(8, 2, ok, op.ReadReg("y", 6), op.ReadReg("x", 1)),
		op.Txn(9, 0, fail, op.Write("y", 6)),
	}
	g1a := func(reader int, key string, v, writer int) string {
		return fmt.Sprintf("T%d read key %s = %d, which was written by T%d, which aborted: an aborted read", reader, key, v, writer)
	}
	want := []string{g1a(5, "x", 2, 1), g1a(5, "y", 5, 2), g1a(5, "x", 2, 1), g1a(7, "x", 2, 1), g1a(8, "y", 6, 9)}
	h := history.MustNew(ops)
	cited := map[string]bool{} // key, reader, aborted writer
	for _, p := range []int{1, 4} {
		opts := workload.Opts{KeyConsistency: workload.LinearizableKeys}
		opts.Parallelism = p
		var got []string
		for _, a := range rwregister.Analyze(h, opts).Anomalies {
			if a.Type == anomaly.G1a {
				cited[fmt.Sprint(a.Key, a.Ops[0].Index, a.Ops[1].Index)] = true
				got = append(got, a.Explanation)
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("G1a at parallelism %d:\n got %q\nwant %q", p, got, want)
		}
	}

	opts := workload.Opts{KeyConsistency: workload.LinearizableKeys}
	opts.Parallelism = 1
	chunks := []int{1, 2, 7, len(ops)}
	checkAgainstOracles(t, h, opts, chunks...)
	for _, chunk := range chunks {
		s := workload.BeginSession(registerInfo, opts)
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
