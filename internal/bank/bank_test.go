package bank

import (
	"strings"
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

// run analyzes ops and also returns the analyzer, whose inferred total
// and account set the analysis does not carry.
func run(t *testing.T, opts workload.Opts, ops ...op.Op) (*analyzer, workload.Analysis) {
	t.Helper()
	h := history.MustNew(ops)
	a := newAnalyzer(h, opts)
	return a, a.run(h)
}

func hasType(a workload.Analysis, typ anomaly.Type) bool {
	for _, an := range a.Anomalies {
		if an.Type == typ {
			return true
		}
	}
	return false
}

func hasEdge(g *graph.Graph, from, to int, kind graph.Kind) bool {
	return g.Label(from, to)&kind.Mask() != 0
}

// deposit is the opening transaction: 100 in each of a and b.
func deposit(index int) op.Op {
	return op.Txn(index, 0, op.OK, op.Write("a", 100), op.Write("b", 100))
}

func TestCleanTransferHistory(t *testing.T) {
	b, a := run(t, workload.Opts{},
		deposit(0),
		// Transfer 5 from a to b.
		op.Txn(1, 1, op.OK,
			op.ReadReg("a", 100), op.ReadReg("b", 100),
			op.Write("a", 95), op.Write("b", 105)),
		// Read-all snapshot after the transfer.
		op.Txn(2, 2, op.OK, op.ReadReg("a", 95), op.ReadReg("b", 105)),
	)
	if len(a.Anomalies) != 0 {
		t.Fatalf("clean history produced %v", a.Anomalies)
	}
	if !b.totalKnown || b.total != 200 {
		t.Fatalf("total = %d known=%v, want 200", b.total, b.totalKnown)
	}
	if got := b.accounts; len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("accounts = %v", got)
	}
	// wr: T1 read the deposit's balances; T2 read T1's.
	if !hasEdge(a.Graph, 0, 1, graph.WR) || !hasEdge(a.Graph, 1, 2, graph.WR) {
		t.Error("missing wr edges")
	}
	// ww: T1 directly overwrote the deposit's versions.
	if !hasEdge(a.Graph, 0, 1, graph.WW) {
		t.Error("missing ww edge deposit -> transfer")
	}
}

func TestTotalMismatchAndReadSkew(t *testing.T) {
	a := analyze(t, workload.Opts{},
		deposit(0),
		op.Txn(1, 1, op.OK,
			op.ReadReg("a", 100), op.ReadReg("b", 100),
			op.Write("a", 95), op.Write("b", 105)),
		// Torn observation: a after the transfer, b before it.
		op.Txn(2, 2, op.OK, op.ReadReg("a", 95), op.ReadReg("b", 100)),
	)
	if !hasType(a, anomaly.TotalMismatch) {
		t.Fatalf("no total-mismatch in %v", a.Anomalies)
	}
	// The torn read also anti-depends on the transfer that overwrote
	// b=100 while depending on its write of a=95: a G-single seed.
	if !hasEdge(a.Graph, 2, 1, graph.RW) || !hasEdge(a.Graph, 1, 2, graph.WR) {
		t.Error("missing rw/wr witness edges for the torn read")
	}
}

func TestNegativeBalance(t *testing.T) {
	a := analyze(t, workload.Opts{},
		deposit(0),
		op.Txn(1, 1, op.OK,
			op.ReadReg("a", 100), op.ReadReg("b", 100),
			op.Write("a", -3), op.Write("b", 203)),
	)
	if !hasType(a, anomaly.NegativeBalance) {
		t.Fatalf("no negative-balance in %v", a.Anomalies)
	}
}

func TestGarbageBalance(t *testing.T) {
	a := analyze(t, workload.Opts{},
		deposit(0),
		op.Txn(1, 1, op.OK, op.ReadReg("a", 42), op.ReadReg("b", 100)),
	)
	if !hasType(a, anomaly.GarbageRead) {
		t.Fatalf("no garbage-read in %v", a.Anomalies)
	}
}

func TestInternalInconsistency(t *testing.T) {
	a := analyze(t, workload.Opts{},
		deposit(0),
		op.Txn(1, 1, op.OK, op.ReadReg("a", 100), op.ReadReg("a", 95)),
	)
	if !hasType(a, anomaly.Internal) {
		t.Fatalf("no internal anomaly in %v", a.Anomalies)
	}
}

// TestDuplicateBalancesStayQuiet: repeated balance values are normal in
// bank histories (a random walk revisits values); they must disable
// inference for those versions, not raise duplicate-write anomalies.
func TestDuplicateBalancesStayQuiet(t *testing.T) {
	a := analyze(t, workload.Opts{},
		deposit(0),
		// a: 100 -> 95 -> 100 — balance 100 written twice overall.
		op.Txn(1, 1, op.OK,
			op.ReadReg("a", 100), op.ReadReg("b", 100),
			op.Write("a", 95), op.Write("b", 105)),
		op.Txn(2, 1, op.OK,
			op.ReadReg("b", 105), op.ReadReg("a", 95),
			op.Write("b", 100), op.Write("a", 100)),
		op.Txn(3, 2, op.OK, op.ReadReg("a", 100), op.ReadReg("b", 100)),
	)
	if hasType(a, anomaly.DuplicateAppends) {
		t.Fatalf("duplicate balances reported as anomalies: %v", a.Anomalies)
	}
	for _, an := range a.Anomalies {
		t.Fatalf("unexpected anomaly %v", an)
	}
}

// TestFailedTransfersIgnored: a failed transfer's write mops carry
// unresolved deltas; they must not be indexed as balances.
func TestFailedTransfersIgnored(t *testing.T) {
	a := analyze(t, workload.Opts{},
		deposit(0),
		// A failed transfer whose template delta (+3) collides with a
		// plausible balance value.
		op.Txn(1, 1, op.Fail, op.Read("a"), op.Read("b"), op.Write("a", -3), op.Write("b", 3)),
		op.Txn(2, 2, op.OK, op.ReadReg("a", 100), op.ReadReg("b", 100)),
	)
	if len(a.Anomalies) != 0 {
		t.Fatalf("failed transfer leaked into analysis: %v", a.Anomalies)
	}
}

// invoke is the invocation of a transaction by process p.
func invoke(index, p int, mops ...op.Mop) op.Op {
	return op.Op{Index: index, Process: p, Type: op.Invoke, Mops: mops}
}

// transferInvoke is the invocation of a transfer of amt from one account
// to another: reads of both, then both writes as deltas.
func transferInvoke(index, p int, from, to string, amt int) op.Op {
	return invoke(index, p, op.Read(from), op.Read(to), op.Write(from, -amt), op.Write(to, amt))
}

// TestCrashedTransferIsNotGarbage: a transfer whose invocation never
// completed may have taken effect, and the balances it installed are
// unknowable, so reading them is not garbage.
func TestCrashedTransferIsNotGarbage(t *testing.T) {
	a := analyze(t, workload.Opts{},
		invoke(0, 0, op.Write("a", 10), op.Write("b", 10)),
		op.Txn(1, 0, op.OK, op.Write("a", 10), op.Write("b", 10)),
		transferInvoke(2, 1, "a", "b", 3),
		invoke(3, 2, op.Read("a"), op.Read("b")),
		op.Txn(4, 2, op.OK, op.ReadReg("a", 7), op.ReadReg("b", 13)),
	)
	if len(a.Anomalies) != 0 {
		t.Fatalf("a crashed transfer's balances read as garbage: %v", a.Anomalies)
	}
}

// TestCrashedTransferSeedsNoEdges: a crashed transfer can install a
// balance another transfer also wrote, so on an account it wrote no
// balance names its writer — no wr, ww or rw edge comes from them.
func TestCrashedTransferSeedsNoEdges(t *testing.T) {
	a := analyze(t, workload.Opts{},
		invoke(0, 0, op.Write("a", 10), op.Write("b", 10)),
		op.Txn(1, 0, op.OK, op.Write("a", 10), op.Write("b", 10)),
		// a: 10 -> 7 -> 10, then the crashed transfer takes it to 7 again.
		transferInvoke(2, 1, "a", "b", 3),
		op.Txn(3, 1, op.OK, op.ReadReg("a", 10), op.ReadReg("b", 10), op.Write("a", 7), op.Write("b", 13)),
		transferInvoke(4, 1, "b", "a", 3),
		op.Txn(5, 1, op.OK, op.ReadReg("a", 7), op.ReadReg("b", 13), op.Write("a", 10), op.Write("b", 10)),
		transferInvoke(6, 2, "a", "b", 3),
		invoke(7, 3, op.Read("a"), op.Read("b")),
		op.Txn(8, 3, op.OK, op.ReadReg("a", 7), op.ReadReg("b", 13)),
	)
	if len(a.Anomalies) != 0 {
		t.Fatalf("anomalies: %v", a.Anomalies)
	}
	if n := a.Graph.NumEdges(); n != 0 {
		t.Fatalf("balances a crashed transfer may have installed seeded %d edges", n)
	}
}

// TestExplainerRendersBankCycle: a lost-update pair produces a cycle the
// explainer can justify with balance witnesses.
func TestExplainerRendersBankCycle(t *testing.T) {
	an := analyze(t, workload.Opts{},
		deposit(0),
		// Two transfers both resolve against the deposit's a=100: the
		// second erases the first (lost update).
		op.Txn(1, 1, op.OK,
			op.ReadReg("a", 100), op.ReadReg("b", 100),
			op.Write("a", 95), op.Write("b", 105)),
		op.Txn(2, 2, op.OK,
			op.ReadReg("a", 100), op.ReadReg("b", 105),
			op.Write("a", 97), op.Write("b", 108)),
	)
	// T1 read a=100 which T2 overwrote, and vice versa: rw both ways.
	if !hasEdge(an.Graph, 1, 2, graph.RW) || !hasEdge(an.Graph, 2, 1, graph.RW) {
		t.Fatalf("missing rw edges for the lost update")
	}
	if len(an.Explainer.RegOrder("a")) == 0 {
		t.Fatal("no version edges recorded for account a")
	}
	text := an.Explainer.Cycle(graph.Cycle{Steps: []graph.Step{
		{From: 1, To: 2, Via: graph.RW},
		{From: 2, To: 1, Via: graph.RW},
	}})
	if !strings.Contains(text, "overwrote") && !strings.Contains(text, "wrote") {
		t.Errorf("explanation lacks balance witness:\n%s", text)
	}
}
