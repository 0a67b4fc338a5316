package core

import (
	"strings"
	"testing"

	"repro/internal/anomaly"
	"repro/internal/consistency"
	"repro/internal/graph"
	"repro/internal/history"
	"repro/internal/op"
	"repro/internal/workload"
)

func TestCleanHistoryValid(t *testing.T) {
	h := history.MustNew([]op.Op{
		op.Txn(0, 0, op.OK, op.Append("x", 1)),
		op.Txn(1, 0, op.OK, op.Append("x", 2)),
		op.Txn(2, 0, op.OK, op.ReadList("x", []int{1, 2})),
	})
	r := Check(h, OptsFor(ListAppend, consistency.StrictSerializable))
	if !r.Valid {
		t.Fatalf("clean history invalid: %s", r.Summary())
	}
	if len(r.Anomalies) != 0 {
		t.Fatalf("anomalies: %v", r.Anomalies)
	}
	if len(r.Strongest) != 1 || r.Strongest[0] != consistency.StrictSerializable {
		t.Errorf("Strongest = %v", r.Strongest)
	}
}

// TestFigure2GSingle builds the paper's Figure 2 history (augmented with
// the setup writes its elided transactions performed) and checks that the
// checker finds a G-single cycle and renders a Figure 2-style explanation.
//
//	T1 = append(250, 10), r(253, [1 3 4]), r(255, [2 3 4 5]), append(256, 3)
//	T2 = append(255, 8), r(253, [1 3 4])
//	T3 = append(256, 4), r(255, [2 3 4 5 8]), r(256, [1 2 4]), r(253, [1 3 4])
func TestFigure2GSingle(t *testing.T) {
	ops := []op.Op{
		// Setup writers for the elements the paper's history observes.
		op.Txn(0, 0, op.OK, op.Append("253", 1), op.Append("253", 3), op.Append("253", 4)),
		op.Txn(1, 0, op.OK, op.Append("255", 2), op.Append("255", 3), op.Append("255", 4), op.Append("255", 5)),
		op.Txn(2, 0, op.OK, op.Append("256", 1), op.Append("256", 2)),
		// The paper's transactions.
		op.Txn(10, 1, op.OK,
			op.Append("250", 10), op.ReadList("253", []int{1, 3, 4}),
			op.ReadList("255", []int{2, 3, 4, 5}), op.Append("256", 3)),
		op.Txn(11, 2, op.OK,
			op.Append("255", 8), op.ReadList("253", []int{1, 3, 4})),
		op.Txn(12, 3, op.OK,
			op.Append("256", 4), op.ReadList("255", []int{2, 3, 4, 5, 8}),
			op.ReadList("256", []int{1, 2, 4}), op.ReadList("253", []int{1, 3, 4})),
		// A later read establishing that T1's append of 3 to 256 followed
		// T3's append of 4 (the ww edge closing the cycle).
		op.Txn(13, 4, op.OK, op.ReadList("256", []int{1, 2, 4, 3})),
	}
	h := history.MustNew(ops)
	r := Check(h, Opts{Workload: ListAppend, Model: consistency.Serializable})
	if r.Valid {
		t.Fatalf("Figure 2 history checked as serializable:\n%s", r.Summary())
	}
	if !r.HasAnomaly(anomaly.GSingle) {
		t.Fatalf("expected G-single, found %v", r.AnomalyTypes())
	}
	var expl string
	for _, a := range r.Anomalies {
		if a.Type == anomaly.GSingle {
			expl = a.Explanation
		}
	}
	// The explanation must mention the three dependencies of Figure 2.
	for _, want := range []string{
		"did not observe", // T1 < T2: rw, missed append of 8 to 255
		"observed",        // T2 < T3: wr, T3 saw 8
		"contradiction",
	} {
		if !strings.Contains(expl, want) {
			t.Errorf("explanation missing %q:\n%s", want, expl)
		}
	}
}

func TestRegisterWorkloadDispatch(t *testing.T) {
	h := history.MustNew([]op.Op{
		op.Txn(1, 1, op.OK, op.ReadReg("2432", 10), op.ReadNil("2434")),
		op.Txn(2, 2, op.OK, op.Write("2434", 10)),
		op.Txn(3, 3, op.OK, op.Write("2432", 10), op.ReadReg("2434", 10)),
	})
	opts := OptsFor(Register, consistency.SnapshotIsolation)
	r := Check(h, opts)
	if r.Valid {
		t.Fatal("Dgraph read-skew history checked as SI")
	}
	if !r.HasAnomaly(anomaly.GSingle) {
		t.Fatalf("expected G-single, found %v", r.AnomalyTypes())
	}
}

// TestLongForkTaggedAsG2: the paper's long-fork example (§1) is detected,
// tagged as G2 (its Future Work notes it is not specialized further).
func TestLongForkTaggedAsG2(t *testing.T) {
	h := history.MustNew([]op.Op{
		op.Txn(0, 0, op.OK, op.Append("x", 1)),
		op.Txn(1, 1, op.OK, op.Append("y", 1)),
		// Reader A sees x but not y; reader B sees y but not x.
		op.Txn(2, 2, op.OK, op.ReadList("x", []int{1}), op.ReadList("y", []int{})),
		op.Txn(3, 3, op.OK, op.ReadList("y", []int{1}), op.ReadList("x", []int{})),
	})
	r := Check(h, Opts{Workload: ListAppend, Model: consistency.Serializable})
	if r.Valid {
		t.Fatal("long fork checked as serializable")
	}
	if !r.HasAnomaly(anomaly.G2Item) {
		t.Fatalf("expected G2-item, found %v", r.AnomalyTypes())
	}
}

// TestProcessCycleDetection: a single process observing, then
// un-observing, a write violates strong-session models.
func TestProcessCycleDetection(t *testing.T) {
	h := history.MustNew([]op.Op{
		op.Txn(0, 0, op.OK, op.Append("x", 1)),
		// Process 1 reads [1], then later reads [].
		op.Txn(1, 1, op.OK, op.ReadList("x", []int{1})),
		op.Txn(2, 1, op.OK, op.ReadList("x", []int{})),
	})
	r := Check(h, OptsFor(ListAppend, consistency.StrongSessionSI))
	if r.Valid {
		t.Fatalf("monotonicity violation checked as strong-session SI:\n%s", r.Summary())
	}
	types := r.AnomalyTypes()
	found := false
	for _, typ := range types {
		if strings.HasSuffix(string(typ), "-process") || strings.HasSuffix(string(typ), "-realtime") {
			found = true
		}
	}
	if !found {
		t.Fatalf("expected a session/realtime cycle, found %v", types)
	}
	// Without session edges, the same history passes SI.
	r2 := Check(h, OptsFor(ListAppend, consistency.SnapshotIsolation))
	if !r2.Valid {
		t.Fatalf("history should pass plain SI: %v", r2.AnomalyTypes())
	}
}

// TestRealtimeCycleDetection: a stale read that is legal under
// serializability but not under strict serializability.
func TestRealtimeCycleDetection(t *testing.T) {
	b := history.NewBuilder()
	m0 := []op.Mop{op.Append("x", 1)}
	b.Invoke(0, m0)
	b.Complete(0, op.OK, m0)
	m1 := []op.Mop{op.ReadList("x", []int{})}
	b.Invoke(1, []op.Mop{op.Read("x")})
	b.Complete(1, op.OK, m1)
	m2 := []op.Mop{op.ReadList("x", []int{1})}
	b.Invoke(2, []op.Mop{op.Read("x")})
	b.Complete(2, op.OK, m2)
	h := b.MustHistory()

	r := Check(h, OptsFor(ListAppend, consistency.StrictSerializable))
	if r.Valid {
		t.Fatalf("stale read checked as strict-serializable:\n%s", r.Summary())
	}
	// The anomaly must be a realtime variant: the plain dependency graph
	// is acyclic.
	foundRT := false
	for _, typ := range r.AnomalyTypes() {
		if strings.HasSuffix(string(typ), "-realtime") {
			foundRT = true
		}
	}
	if !foundRT {
		t.Fatalf("expected realtime cycle, found %v", r.AnomalyTypes())
	}
	// The same history is fine under plain serializability.
	r2 := Check(h, OptsFor(ListAppend, consistency.Serializable))
	if !r2.Valid {
		t.Fatalf("history should pass serializable: %v", r2.AnomalyTypes())
	}
}

func TestSummaryRendering(t *testing.T) {
	h := history.MustNew([]op.Op{
		op.Txn(0, 0, op.Fail, op.Append("x", 1)),
		op.Txn(1, 1, op.OK, op.ReadList("x", []int{1})),
	})
	r := Check(h, Opts{Workload: ListAppend, Model: consistency.ReadCommitted})
	if r.Valid {
		t.Fatal("G1a history checked as read committed")
	}
	s := r.Summary()
	if !strings.Contains(s, "INVALID") || !strings.Contains(s, "G1a") {
		t.Errorf("summary missing content:\n%s", s)
	}
	if !strings.Contains(s, "may satisfy") {
		t.Errorf("summary missing model report:\n%s", s)
	}
}

func TestAnomalySortingStructuralFirst(t *testing.T) {
	h := history.MustNew([]op.Op{
		// Garbage read (structural) and a G1a (dirty).
		op.Txn(0, 0, op.Fail, op.Append("x", 1)),
		op.Txn(1, 1, op.OK, op.ReadList("x", []int{1}), op.ReadList("y", []int{9})),
	})
	r := Check(h, Opts{Workload: ListAppend})
	if len(r.Anomalies) < 2 {
		t.Fatalf("expected ≥ 2 anomalies, got %v", r.AnomalyTypes())
	}
	if r.Anomalies[0].Type.Severity() < r.Anomalies[1].Type.Severity() {
		t.Error("anomalies not sorted most-severe first")
	}
}

func TestOptsForModels(t *testing.T) {
	h := history.MustNew([]op.Op{op.Txn(0, 0, op.OK, op.Append("x", 1))})
	rt, proc := graph.Realtime.Mask(), graph.Process.Mask()
	for m, want := range map[consistency.Model]graph.KindSet{
		consistency.StrictSerializable:  rt | proc,
		consistency.StrongSessionSI:     proc,
		consistency.StrongSessionSerial: proc,
		consistency.Serializable:        0,
		consistency.SnapshotIsolation:   0,
	} {
		if got := Check(h, OptsFor(ListAppend, m)).Stats.ExtraKind; got != want {
			t.Errorf("%s: orders %v, want %v", m, got, want)
		}
		if got := Check(h, Opts{Model: m}).Stats.ExtraKind; got != want {
			t.Errorf("%s without OptsFor: orders %v, want %v", m, got, want)
		}
	}
	for m, want := range map[consistency.Model]workload.KeyConsistency{
		consistency.StrictSerializable:  workload.LinearizableKeys,
		consistency.StrongSessionSI:     workload.SequentialKeys,
		consistency.StrongSessionSerial: workload.SequentialKeys,
		consistency.Serializable:        0,
		consistency.SnapshotIsolation:   0,
	} {
		if got := OptsFor(Register, m).KeyConsistency; got != want {
			t.Errorf("%s: key consistency %d, want %d", m, got, want)
		}
	}
}

// TestModelAloneAddsOrders: a stale read — T2 invoked after T0's append
// of 1 completed, and T1 already observed it, yet T2 reads x empty — is
// a cycle only through real time. The model decides the orders, so a
// check that names strict serializability, or no model at all, finds it
// as OptsFor's does.
func TestModelAloneAddsOrders(t *testing.T) {
	h := StaleRead()
	for name, opts := range map[string]Opts{
		"Opts{Model: strict}": {Model: consistency.StrictSerializable},
		"Opts{}":              {},
		"OptsFor(strict)":     OptsFor(ListAppend, consistency.StrictSerializable),
	} {
		if r := Check(h, opts); r.Valid || !r.HasAnomaly(anomaly.GSingleRealtime) {
			t.Errorf("%s: valid %v, anomalies %v; want G-single-realtime", name, r.Valid, r.AnomalyTypes())
		}
	}
	if r := Check(h, Opts{Model: consistency.Serializable}); !r.Valid {
		t.Errorf("serializable: a stale read is no cycle without real time, got %v", r.AnomalyTypes())
	}
}

// TestSequentialKeysOnlyWithSessions: inferring a key's version order
// from each process's session order is sound only where sessions are
// guaranteed. T0 T3 T1 T2 is a serial order of this history, so it is
// valid from read-uncommitted through serializable; p1 reading x = 1 and
// then x = 2, while T1 overwrote T0's 2 with 1, is what the
// strong-session models rule out.
func TestSequentialKeysOnlyWithSessions(t *testing.T) {
	h := SessionRegression()
	for _, m := range []consistency.Model{
		consistency.ReadUncommitted, consistency.ReadCommitted, consistency.RepeatableRead,
		consistency.SnapshotIsolation, consistency.Serializable,
	} {
		if r := Check(h, OptsFor(Register, m)); !r.Valid {
			t.Errorf("%s: a serializable history checked invalid: %v", m, r.AnomalyTypes())
		}
	}
	for _, m := range []consistency.Model{consistency.StrongSessionSI, consistency.StrongSessionSerial} {
		if r := Check(h, OptsFor(Register, m)); r.Valid {
			t.Errorf("%s: p1's reads of x go back in the version order, yet the history checked valid", m)
		}
	}
	// A database that claims more per key than its model is held to
	// the claim. Claiming sequential keys under SI orders p1's reads, so
	// the history is invalid. Claiming linearizable keys makes x's
	// version order cyclic (real time puts 1 after 2, p1 reads 2 after
	// 1): cyclic-version-order refutes the claim, and x's edges, which
	// carried the session violation, are dropped, so SI itself holds.
	si := Opts{Workload: Register, Model: consistency.SnapshotIsolation}
	si.KeyConsistency = workload.SequentialKeys
	if r := Check(h, si); r.Valid {
		t.Errorf("snapshot-isolation claiming sequential keys: the history checked valid")
	}
	si.KeyConsistency = workload.LinearizableKeys
	if r := Check(h, si); !r.HasAnomaly(anomaly.CyclicVersionOrder) {
		t.Errorf("snapshot-isolation claiming linearizable keys: %v, want cyclic-version-order", r.AnomalyTypes())
	}
}

// StaleRead is TestModelAloneAddsOrders' history, and SessionRegression
// TestSequentialKeysOnlyWithSessions'; both are exported for the
// external TestModelAloneDecidesInference.
func StaleRead() *history.History {
	return history.MustNew([]op.Op{
		{Index: 0, Process: 0, Type: op.Invoke, Mops: []op.Mop{op.Append("x", 1)}},
		{Index: 1, Process: 0, Type: op.OK, Mops: []op.Mop{op.Append("x", 1)}},
		{Index: 2, Process: 1, Type: op.Invoke, Mops: []op.Mop{op.Read("x")}},
		{Index: 3, Process: 1, Type: op.OK, Mops: []op.Mop{op.ReadList("x", []int{1})}},
		{Index: 4, Process: 2, Type: op.Invoke, Mops: []op.Mop{op.Read("x")}},
		{Index: 5, Process: 2, Type: op.OK, Mops: []op.Mop{op.ReadList("x", []int{})}},
	})
}

func SessionRegression() *history.History {
	return history.MustNew([]op.Op{
		op.Txn(0, 0, op.OK, op.Write("x", 2), op.Write("y", 1)),
		op.Txn(1, 2, op.OK, op.ReadReg("y", 1), op.Write("x", 1)),
		op.Txn(2, 1, op.OK, op.ReadReg("x", 1)),
		op.Txn(3, 1, op.OK, op.ReadReg("x", 2)),
	})
}

func TestCheckDefaultsToStrictSerializable(t *testing.T) {
	h := history.MustNew([]op.Op{op.Txn(0, 0, op.OK, op.Append("x", 1))})
	r := Check(h, Opts{})
	if r.Expected != consistency.StrictSerializable {
		t.Errorf("default model = %s", r.Expected)
	}
}

func TestWorkloadString(t *testing.T) {
	if ListAppend.String() != "list-append" || Register.String() != "rw-register" {
		t.Error("workload names wrong")
	}
}
