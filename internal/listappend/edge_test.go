package listappend

import (
	"testing"
	"unsafe"

	"repro/internal/anomaly"
	"repro/internal/graph"
	"repro/internal/history"
	"repro/internal/op"
	"repro/internal/workload"
)

// Edge-case coverage for the list-append analyzer.

func TestEmptyHistory(t *testing.T) {
	a := Analyze(history.MustNew(nil), workload.Opts{})
	if len(a.Anomalies) != 0 || a.Graph.NumNodes() != 0 {
		t.Errorf("empty history produced output: %v", a.Anomalies)
	}
}

func TestWriteOnlyHistory(t *testing.T) {
	// No reads: no version orders, no edges, no anomalies.
	a := analyze(t,
		op.Txn(0, 0, op.OK, op.Append("x", 1)),
		op.Txn(1, 1, op.OK, op.Append("x", 2)),
	)
	if len(a.Anomalies) != 0 {
		t.Errorf("anomalies: %v", a.Anomalies)
	}
	if a.Graph.NumEdges() != 0 {
		t.Error("write-only history should have no edges")
	}
	if len(a.Explainer.ListOrder("x")) != 0 {
		t.Error("no reads should mean no version order")
	}
}

func TestReadOnlyHistoryOfUnwrittenKey(t *testing.T) {
	// Reading [] from a key nobody wrote is fine.
	a := analyze(t,
		op.Txn(0, 0, op.OK, op.ReadList("ghost", []int{})),
	)
	if len(a.Anomalies) != 0 {
		t.Errorf("anomalies: %v", a.Anomalies)
	}
}

func TestInfoOnlyHistory(t *testing.T) {
	// All outcomes unknown: nothing to infer, nothing to report.
	a := analyze(t,
		op.Txn(0, 0, op.Info, op.Append("x", 1)),
		op.Txn(1, 1, op.Info, op.Append("x", 2), op.Read("x")),
	)
	if len(a.Anomalies) != 0 {
		t.Errorf("anomalies: %v", a.Anomalies)
	}
	if a.Graph.NumEdges() != 0 {
		t.Error("info-only history should have no edges")
	}
}

func TestSameTxnDuplicateAppendArgument(t *testing.T) {
	// One transaction appending the same element twice still breaks
	// recoverability.
	a := analyze(t,
		op.Txn(0, 0, op.OK, op.Append("x", 1), op.Append("x", 1)),
	)
	if !hasAnomaly(a, anomaly.DuplicateAppends) {
		t.Fatalf("expected duplicate appends, got %v", a.Anomalies)
	}
}

func TestUnrecoverableElementBreaksChain(t *testing.T) {
	// Element 2 is written twice, so it is unrecoverable; ww chains
	// through it must break rather than guess.
	a := analyze(t,
		op.Txn(0, 0, op.OK, op.Append("x", 1)),
		op.Txn(1, 1, op.OK, op.Append("x", 2)),
		op.Txn(2, 2, op.OK, op.Append("x", 2)),
		op.Txn(3, 3, op.OK, op.Append("x", 3)),
		op.Txn(4, 4, op.OK, op.ReadList("x", []int{1, 2, 3})),
	)
	if !hasAnomaly(a, anomaly.DuplicateAppends) {
		t.Fatal("duplicate appends not reported")
	}
	// No ww edge may touch the ambiguous element's writers.
	for _, pair := range [][2]int{{0, 1}, {0, 2}, {1, 3}, {2, 3}} {
		if a.Graph.Label(pair[0], pair[1]).Has(graph.WW) {
			t.Errorf("ww edge %d->%d built through unrecoverable element", pair[0], pair[1])
		}
	}
}

func TestLongestReadByFirstEncounter(t *testing.T) {
	// Two equally long, identical reads: either serves as the version
	// order; no incompatibility.
	a := analyze(t,
		op.Txn(0, 0, op.OK, op.Append("x", 1)),
		op.Txn(1, 1, op.OK, op.ReadList("x", []int{1})),
		op.Txn(2, 2, op.OK, op.ReadList("x", []int{1})),
	)
	if hasAnomaly(a, anomaly.IncompatibleOrder) {
		t.Fatalf("identical reads reported incompatible: %v", a.Anomalies)
	}
}

func TestEqualLengthDivergentReads(t *testing.T) {
	// Two equally long reads that disagree: incompatible both ways.
	a := analyze(t,
		op.Txn(0, 0, op.OK, op.Append("x", 1)),
		op.Txn(1, 1, op.OK, op.Append("x", 2)),
		op.Txn(2, 2, op.OK, op.ReadList("x", []int{1})),
		op.Txn(3, 3, op.OK, op.ReadList("x", []int{2})),
	)
	if !hasAnomaly(a, anomaly.IncompatibleOrder) {
		t.Fatalf("divergent reads not reported: %v", a.Anomalies)
	}
}

func TestChainedWWAcrossManyTxns(t *testing.T) {
	// A long committed chain yields exactly n-1 ww edges.
	const n = 10
	var ops []op.Op
	elems := make([]int, n)
	for i := 0; i < n; i++ {
		ops = append(ops, op.Txn(i, i, op.OK, op.Append("x", i+1)))
		elems[i] = i + 1
	}
	ops = append(ops, op.Txn(n, n, op.OK, op.ReadList("x", elems)))
	a := analyze(t, ops...)
	if len(a.Anomalies) != 0 {
		t.Fatalf("anomalies: %v", a.Anomalies)
	}
	for i := 0; i+1 < n; i++ {
		if !a.Graph.Label(i, i+1).Has(graph.WW) {
			t.Errorf("missing ww edge %d -> %d", i, i+1)
		}
	}
	if a.Graph.Label(0, 2).Has(graph.WW) {
		t.Error("non-adjacent ww edge emitted")
	}
}

func TestReadsInsideWriterTxn(t *testing.T) {
	// A transaction reading its own final state generates no self edges.
	a := analyze(t,
		op.Txn(0, 0, op.OK, op.Append("x", 1), op.ReadList("x", []int{1})),
	)
	if len(a.Anomalies) != 0 {
		t.Fatalf("anomalies: %v", a.Anomalies)
	}
	if a.Graph.Label(0, 0) != 0 {
		t.Error("self edge emitted")
	}
}

func TestG1bOnlyForFinalElementOfRead(t *testing.T) {
	// A read passing *through* an intermediate element (not ending on it)
	// is not an intermediate read.
	a := analyze(t,
		op.Txn(0, 0, op.OK, op.Append("x", 1), op.Append("x", 2)),
		op.Txn(1, 1, op.OK, op.ReadList("x", []int{1, 2})),
	)
	if hasAnomaly(a, anomaly.G1b) {
		t.Fatalf("complete read misreported as G1b: %v", a.Anomalies)
	}
}

func TestFailedWriteNeverObservedIsFine(t *testing.T) {
	// An aborted append nobody read: no anomaly (the rollback worked).
	a := analyze(t,
		op.Txn(0, 0, op.Fail, op.Append("x", 1)),
		op.Txn(1, 1, op.OK, op.Append("x", 2)),
		op.Txn(2, 2, op.OK, op.ReadList("x", []int{2})),
	)
	if len(a.Anomalies) != 0 {
		t.Fatalf("anomalies: %v", a.Anomalies)
	}
}

func TestMixedMopsIgnoredGracefully(t *testing.T) {
	// Register/set/counter mops inside a list-append history are ignored
	// rather than crashing the analyzer.
	a := analyze(t,
		op.Txn(0, 0, op.OK, op.Append("x", 1), op.Write("r", 5), op.Increment("c", 1)),
		op.Txn(1, 1, op.OK, op.ReadList("x", []int{1}), op.ReadReg("r", 5)),
	)
	if !a.Graph.Label(0, 1).Has(graph.WR) {
		t.Error("list edges should still be inferred")
	}
}

// TestKeyReadSize pins a filed read to its op's index, not a copy of
// the op: a history files one keyRead per committed list read.
func TestKeyReadSize(t *testing.T) {
	if got := unsafe.Sizeof(keyRead{}); got != 48 {
		t.Errorf("unsafe.Sizeof(keyRead{}) = %d, want 48", got)
	}
}
