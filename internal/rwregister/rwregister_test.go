package rwregister

import (
	"testing"

	"repro/internal/anomaly"
	"repro/internal/graph"
	"repro/internal/history"
	"repro/internal/op"
	"repro/internal/workload"
)

func analyze(t *testing.T, opts workload.Opts, ops ...op.Op) workload.Analysis {
	t.Helper()
	return Analyze(history.MustNew(ops), opts)
}

func hasAnomaly(a workload.Analysis, typ anomaly.Type) bool {
	for _, an := range a.Anomalies {
		if an.Type == typ {
			return true
		}
	}
	return false
}

// TestDgraphInternalInconsistency reproduces §7.4: a transaction sets key
// 10 to 2, then reads an earlier value 1.
func TestDgraphInternalInconsistency(t *testing.T) {
	a := analyze(t, workload.Opts{KeyConsistency: workload.LinearizableKeys},
		op.Txn(0, 0, op.OK, op.Write("1", 1)), // writer of 1, so the read isn't garbage
		op.Txn(1, 1, op.OK, op.Write("10", 2), op.ReadReg("10", 1)),
		op.Txn(2, 2, op.OK, op.Write("10", 1)),
	)
	if !hasAnomaly(a, anomaly.Internal) {
		t.Fatalf("expected internal anomaly, got %v", a.Anomalies)
	}
}

// TestDgraphReadSkew reproduces the §7.4 read-skew trio:
//
//	T1: r(2432, 10), r(2434, nil)
//	T2: w(2434, 10)
//	T3: w(2432, 10), r(2434, 10)
//
// With init-state inference alone: T1 -rw-> T2 (read nil, T2 wrote its
// successor), T2 -wr-> T3, T3 -wr-> T1: a G-single cycle.
func TestDgraphReadSkew(t *testing.T) {
	// Distinct write values per key keep recoverability; the paper's keys
	// map values 10 to separate registers.
	opts := workload.Opts{}
	a := analyze(t, opts,
		op.Txn(1, 1, op.OK, op.ReadReg("2432", 10), op.ReadNil("2434")),
		op.Txn(2, 2, op.OK, op.Write("2434", 10)),
		op.Txn(3, 3, op.OK, op.Write("2432", 10), op.ReadReg("2434", 10)),
	)
	if len(a.Anomalies) != 0 {
		t.Fatalf("unexpected anomalies: %v", a.Anomalies)
	}
	if !a.Graph.Label(1, 2).Has(graph.RW) {
		t.Error("T1 (read 2434=nil) should rw-depend on T2")
	}
	if !a.Graph.Label(2, 3).Has(graph.WR) {
		t.Error("T3 observed T2's write: wr edge missing")
	}
	if !a.Graph.Label(3, 1).Has(graph.WR) {
		t.Error("T1 observed T3's write of 2432: wr edge missing")
	}
	cycles := a.Graph.FindCyclesWithExactlyOne(graph.RW, graph.KSWWWR)
	if len(cycles) != 1 {
		t.Fatalf("expected G-single, found %d cycles", len(cycles))
	}
}

// TestDgraphCyclicVersionOrder reproduces the §7.4 stale-nil example: T1
// finished writing key 540 before T2 began, yet T2 read nil. Per-key
// linearizability then infers 2 < nil while initial-state infers nil < 2:
// a cyclic version order, reported and discarded.
func TestDgraphCyclicVersionOrder(t *testing.T) {
	b := history.NewBuilder()
	m1 := []op.Mop{op.ReadNil("541"), op.Write("540", 2)}
	b.Invoke(1, m1)
	b.Complete(1, op.OK, m1)
	m2 := []op.Mop{op.ReadNil("540"), op.Write("544", 1)}
	b.Invoke(2, m2)
	b.Complete(2, op.OK, m2)
	h := b.MustHistory()

	a := Analyze(h, workload.Opts{KeyConsistency: workload.LinearizableKeys})
	if !hasAnomaly(a, anomaly.CyclicVersionOrder) {
		t.Fatalf("expected cyclic version order, got %v", a.Anomalies)
	}
	// The cyclic key's edges are discarded: no transaction cycle follows.
	if cycles := a.Graph.FindCycles(graph.KSDep); len(cycles) != 0 {
		t.Fatalf("discarded version order still seeded cycles: %v", cycles)
	}
}

func TestWritesFollowReadsOrdersVersions(t *testing.T) {
	opts := workload.Opts{}
	a := analyze(t, opts,
		op.Txn(0, 0, op.OK, op.Write("x", 1)),
		op.Txn(1, 1, op.OK, op.ReadReg("x", 1), op.Write("x", 2)),
		op.Txn(2, 2, op.OK, op.ReadReg("x", 2)),
	)
	if len(a.Anomalies) != 0 {
		t.Fatalf("unexpected anomalies: %v", a.Anomalies)
	}
	if !a.Graph.Label(0, 1).Has(graph.WW) {
		t.Error("wfr should give ww edge T0 -> T1")
	}
	if !a.Graph.Label(1, 2).Has(graph.WR) {
		t.Error("missing wr edge T1 -> T2")
	}
	// T0's version 1 precedes version 2; a reader of 1 anti-depends on T1.
	a2 := analyze(t, opts,
		op.Txn(0, 0, op.OK, op.Write("x", 1)),
		op.Txn(1, 1, op.OK, op.ReadReg("x", 1), op.Write("x", 2)),
		op.Txn(2, 2, op.OK, op.ReadReg("x", 1)),
	)
	if !a2.Graph.Label(2, 1).Has(graph.RW) {
		t.Error("reader of 1 should rw-depend on writer of 2")
	}
}

func TestG1aRegister(t *testing.T) {
	a := analyze(t, workload.Opts{KeyConsistency: workload.LinearizableKeys},
		op.Txn(0, 0, op.Fail, op.Write("x", 1)),
		op.Txn(1, 1, op.OK, op.ReadReg("x", 1)),
	)
	if !hasAnomaly(a, anomaly.G1a) {
		t.Fatalf("expected G1a, got %v", a.Anomalies)
	}
}

func TestG1bRegister(t *testing.T) {
	a := analyze(t, workload.Opts{KeyConsistency: workload.LinearizableKeys},
		op.Txn(0, 0, op.OK, op.Write("x", 1), op.Write("x", 2)),
		op.Txn(1, 1, op.OK, op.ReadReg("x", 1)),
	)
	if !hasAnomaly(a, anomaly.G1b) {
		t.Fatalf("expected G1b, got %v", a.Anomalies)
	}
}

func TestGarbageReadRegister(t *testing.T) {
	a := analyze(t, workload.Opts{KeyConsistency: workload.LinearizableKeys},
		op.Txn(0, 0, op.OK, op.ReadReg("x", 42)),
	)
	if !hasAnomaly(a, anomaly.GarbageRead) {
		t.Fatalf("expected garbage read, got %v", a.Anomalies)
	}
}

func TestDuplicateWritesRegister(t *testing.T) {
	a := analyze(t, workload.Opts{KeyConsistency: workload.LinearizableKeys},
		op.Txn(0, 0, op.OK, op.Write("x", 7)),
		op.Txn(1, 1, op.OK, op.Write("x", 7)),
	)
	if !hasAnomaly(a, anomaly.DuplicateAppends) {
		t.Fatalf("expected duplicate writes, got %v", a.Anomalies)
	}
	// Unrecoverable values seed no wr edges.
	a2 := analyze(t, workload.Opts{KeyConsistency: workload.LinearizableKeys},
		op.Txn(0, 0, op.OK, op.Write("x", 7)),
		op.Txn(1, 1, op.OK, op.Write("x", 7)),
		op.Txn(2, 2, op.OK, op.ReadReg("x", 7)),
	)
	if a2.Graph.Label(0, 2) != 0 || a2.Graph.Label(1, 2) != 0 {
		t.Error("duplicate writes must not be recovered to a writer")
	}
}

func TestLinearizableKeysRealtimeInference(t *testing.T) {
	// T0 writes x=1 and completes; then T1 writes x=2; then T2 reads 2.
	// Per-key linearizability gives 1 < 2 even with wfr disabled.
	b := history.NewBuilder()
	m0 := []op.Mop{op.Write("x", 1)}
	b.Invoke(0, m0)
	b.Complete(0, op.OK, m0)
	m1 := []op.Mop{op.Write("x", 2)}
	b.Invoke(1, m1)
	b.Complete(1, op.OK, m1)
	m2 := []op.Mop{op.ReadReg("x", 2)}
	b.Invoke(2, []op.Mop{op.Read("x")})
	b.Complete(2, op.OK, m2)
	h := b.MustHistory()

	a := Analyze(h, workload.Opts{KeyConsistency: workload.LinearizableKeys})
	if len(a.Anomalies) != 0 {
		t.Fatalf("unexpected anomalies: %v", a.Anomalies)
	}
	// Completion indices are 1 and 3 for the two writers.
	if !a.Graph.Label(1, 3).Has(graph.WW) {
		t.Error("linearizable-keys should order the writes as ww")
	}
}

func TestStaleNilReadMakesCycleWithLinearizableKeys(t *testing.T) {
	// T0 writes x=1 and completes; T1 then reads x=nil. Initial-state
	// says nil < 1; linearizability says 1 < nil: cyclic version order.
	b := history.NewBuilder()
	m0 := []op.Mop{op.Write("x", 1)}
	b.Invoke(0, m0)
	b.Complete(0, op.OK, m0)
	m1 := []op.Mop{op.ReadNil("x")}
	b.Invoke(1, []op.Mop{op.Read("x")})
	b.Complete(1, op.OK, m1)
	h := b.MustHistory()

	a := Analyze(h, workload.Opts{KeyConsistency: workload.LinearizableKeys})
	if !hasAnomaly(a, anomaly.CyclicVersionOrder) {
		t.Fatalf("expected cyclic version order, got %v", a.Anomalies)
	}
}

func TestCleanRegisterHistoryNoAnomalies(t *testing.T) {
	b := history.NewBuilder()
	seq := [][]op.Mop{
		{op.Write("x", 1)},
		{op.ReadReg("x", 1), op.Write("x", 2)},
		{op.ReadReg("x", 2), op.Write("y", 1)},
		{op.ReadReg("y", 1), op.ReadReg("x", 2)},
	}
	for i, mops := range seq {
		b.Invoke(i, mops)
		b.Complete(i, op.OK, mops)
	}
	a := Analyze(b.MustHistory(), workload.Opts{KeyConsistency: workload.LinearizableKeys})
	if len(a.Anomalies) != 0 {
		t.Fatalf("clean history produced anomalies: %v", a.Anomalies)
	}
	if cycles := a.Graph.FindCycles(graph.KSDep); len(cycles) != 0 {
		t.Fatalf("clean history produced cycles: %v", cycles)
	}
}

func TestVersionOrdersReported(t *testing.T) {
	a := analyze(t, workload.Opts{},
		op.Txn(0, 0, op.OK, op.Write("x", 5)),
	)
	edges := a.Explainer.RegOrder("x")
	if len(edges) != 1 {
		t.Fatalf("version order edges = %v", edges)
	}
	if edges[0] != [2]int{op.NilVersion, 5} {
		t.Errorf("edge = %v, want nil -> 5", edges[0])
	}
}
