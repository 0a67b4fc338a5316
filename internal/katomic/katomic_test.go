package katomic

import (
	"reflect"
	"testing"

	"repro/internal/anomaly"
	"repro/internal/gen"
	"repro/internal/history"
	"repro/internal/memdb"
	"repro/internal/op"
)

func analyze(t *testing.T, ops ...op.Op) *result {
	t.Helper()
	return check(history.MustNew(ops))
}

func hasAnomaly(a *result, typ anomaly.Type) bool {
	for _, an := range a.Anomalies {
		if an.Type == typ {
			return true
		}
	}
	return false
}

// TestAtomicSequential: strictly sequential register traffic is atomic.
func TestAtomicSequential(t *testing.T) {
	a := analyze(t,
		op.Txn(0, 0, op.OK, op.Write("x", 1)),
		op.Txn(1, 1, op.OK, op.ReadReg("x", 1)),
		op.Txn(2, 0, op.OK, op.Write("x", 2)),
		op.Txn(3, 1, op.OK, op.ReadReg("x", 2)),
	)
	if len(a.Anomalies) != 0 {
		t.Fatalf("unexpected anomalies: %v", a.Anomalies)
	}
	if a.K != 1 {
		t.Fatalf("K = %d, want 1", a.K)
	}
	kr := a.PerKey["x"]
	if kr.K != 1 || kr.Conflicts != 0 || kr.Writes != 2 || kr.Reads != 2 {
		t.Fatalf("per-key result %+v", kr)
	}
}

// TestStaleReadK2: a read returning the previous value after a newer
// write completed is exactly 2-atomic.
func TestStaleReadK2(t *testing.T) {
	a := analyze(t,
		op.Txn(0, 0, op.OK, op.Write("x", 1)),
		op.Txn(1, 0, op.OK, op.Write("x", 2)),
		op.Txn(2, 1, op.OK, op.ReadReg("x", 1)),
	)
	if !hasAnomaly(a, anomaly.KAtomicViolation) {
		t.Fatalf("expected %s, got %v", anomaly.KAtomicViolation, a.Anomalies)
	}
	if a.K != 2 {
		t.Fatalf("K = %d, want 2", a.K)
	}
	kr := a.PerKey["x"]
	if kr.K != 2 || kr.LowerBound != 2 || kr.Conflicts == 0 {
		t.Fatalf("per-key result %+v", kr)
	}
	if a.Anomalies[0].K != 2 {
		t.Fatalf("anomaly K = %d, want 2", a.Anomalies[0].K)
	}
}

// TestThreeDeepK3: in a compact (totally ordered) history the only
// linear extension is index order, so a read three writes back is
// exactly 3-atomic.
func TestThreeDeepK3(t *testing.T) {
	a := analyze(t,
		op.Txn(0, 0, op.OK, op.Write("x", 1)),
		op.Txn(1, 0, op.OK, op.Write("x", 2)),
		op.Txn(2, 0, op.OK, op.Write("x", 3)),
		op.Txn(3, 1, op.OK, op.ReadReg("x", 1)),
	)
	if a.K != 3 {
		t.Fatalf("K = %d, want 3", a.K)
	}
}

// TestNilStaleK2: reading the initial nil state strictly after a write
// completed is a violation — the virtual initial write's backward zone
// conflicts with the real write's.
func TestNilStaleK2(t *testing.T) {
	a := analyze(t,
		op.Op{Index: 0, Process: 0, Type: op.Invoke, Mops: []op.Mop{op.Write("x", 5)}},
		op.Op{Index: 1, Process: 0, Type: op.OK, Mops: []op.Mop{op.Write("x", 5)}},
		op.Op{Index: 2, Process: 1, Type: op.Invoke, Mops: []op.Mop{op.Read("x")}},
		op.Op{Index: 3, Process: 1, Type: op.OK, Mops: []op.Mop{op.ReadNil("x")}},
	)
	if !hasAnomaly(a, anomaly.KAtomicViolation) || a.K != 2 {
		t.Fatalf("K = %d, anomalies %v; want K=2 with a violation", a.K, a.Anomalies)
	}
}

// TestConcurrentNilReadClean: a nil read concurrent with the first
// write is legal — the read may linearize before the write.
func TestConcurrentNilReadClean(t *testing.T) {
	a := analyze(t,
		op.Op{Index: 0, Process: 1, Type: op.Invoke, Mops: []op.Mop{op.Read("x")}},
		op.Op{Index: 1, Process: 0, Type: op.Invoke, Mops: []op.Mop{op.Write("x", 5)}},
		op.Op{Index: 2, Process: 1, Type: op.OK, Mops: []op.Mop{op.ReadNil("x")}},
		op.Op{Index: 3, Process: 0, Type: op.OK, Mops: []op.Mop{op.Write("x", 5)}},
	)
	if len(a.Anomalies) != 0 || a.K != 1 {
		t.Fatalf("K = %d, anomalies %v; want clean K=1", a.K, a.Anomalies)
	}
}

// TestConcurrentStaleReadClean: a read overlapping both a write and its
// successor may return either value — no violation.
func TestConcurrentStaleReadClean(t *testing.T) {
	a := analyze(t,
		op.Op{Index: 0, Process: 0, Type: op.Invoke, Mops: []op.Mop{op.Write("x", 1)}},
		op.Op{Index: 1, Process: 0, Type: op.OK, Mops: []op.Mop{op.Write("x", 1)}},
		op.Op{Index: 2, Process: 1, Type: op.Invoke, Mops: []op.Mop{op.Write("x", 2)}},
		op.Op{Index: 3, Process: 2, Type: op.Invoke, Mops: []op.Mop{op.Read("x")}},
		op.Op{Index: 4, Process: 1, Type: op.OK, Mops: []op.Mop{op.Write("x", 2)}},
		op.Op{Index: 5, Process: 2, Type: op.OK, Mops: []op.Mop{op.ReadReg("x", 1)}},
	)
	if len(a.Anomalies) != 0 || a.K != 1 {
		t.Fatalf("K = %d, anomalies %v; want clean K=1", a.K, a.Anomalies)
	}
}

// TestInfoWriteReadClean: an indeterminate write whose value a later
// read observes joins its cluster with an unbounded completion; the
// reader pins it and nothing conflicts.
func TestInfoWriteReadClean(t *testing.T) {
	a := analyze(t,
		op.Txn(0, 0, op.Info, op.Write("x", 1)),
		op.Txn(1, 1, op.OK, op.ReadReg("x", 1)),
		op.Txn(2, 2, op.OK, op.Write("x", 2)),
	)
	if len(a.Anomalies) != 0 || a.K != 1 {
		t.Fatalf("K = %d, anomalies %v; want clean K=1", a.K, a.Anomalies)
	}
}

// TestCrashedWriterRead: a crashed client's open write invocation may
// have committed; a read observing its value is not garbage.
func TestCrashedWriterRead(t *testing.T) {
	a := analyze(t,
		op.Op{Index: 0, Process: 0, Type: op.Invoke, Mops: []op.Mop{op.Write("x", 1)}},
		op.Op{Index: 1, Process: 1, Type: op.Invoke, Mops: []op.Mop{op.Read("x")}},
		op.Op{Index: 2, Process: 1, Type: op.OK, Mops: []op.Mop{op.ReadReg("x", 1)}},
	)
	if len(a.Anomalies) != 0 || a.K != 1 {
		t.Fatalf("K = %d, anomalies %v; want clean K=1", a.K, a.Anomalies)
	}
}

// TestGarbageRead: a value nobody wrote.
func TestGarbageRead(t *testing.T) {
	a := analyze(t,
		op.Txn(0, 0, op.OK, op.ReadReg("x", 99)),
	)
	if !hasAnomaly(a, anomaly.GarbageRead) {
		t.Fatalf("expected %s, got %v", anomaly.GarbageRead, a.Anomalies)
	}
	if a.K != 1 {
		t.Fatalf("K = %d, want 1 (no zones to conflict)", a.K)
	}
}

// TestFutureRead: a read that completed before its value's only write
// was invoked cannot have come from it — reported and excluded.
func TestFutureRead(t *testing.T) {
	a := analyze(t,
		op.Txn(0, 1, op.OK, op.ReadReg("x", 1)),
		op.Txn(1, 0, op.OK, op.Write("x", 1)),
	)
	if !hasAnomaly(a, anomaly.GarbageRead) {
		t.Fatalf("expected %s, got %v", anomaly.GarbageRead, a.Anomalies)
	}
	if a.K != 1 {
		t.Fatalf("K = %d, want 1 after excluding the impossible read", a.K)
	}
}

// TestAbortedRead: reading a value whose only writer aborted is G1a.
func TestAbortedRead(t *testing.T) {
	a := analyze(t,
		op.Txn(0, 0, op.Fail, op.Write("x", 7)),
		op.Txn(1, 1, op.OK, op.ReadReg("x", 7)),
	)
	if !hasAnomaly(a, anomaly.G1a) {
		t.Fatalf("expected %s, got %v", anomaly.G1a, a.Anomalies)
	}
}

// TestDuplicateWrite: two committed writes of the same value destroy
// cluster recoverability; the key's k analysis is skipped.
func TestDuplicateWrite(t *testing.T) {
	a := analyze(t,
		op.Txn(0, 0, op.OK, op.Write("x", 1)),
		op.Txn(1, 1, op.OK, op.Write("x", 1)),
	)
	if !hasAnomaly(a, anomaly.DuplicateAppends) {
		t.Fatalf("expected %s, got %v", anomaly.DuplicateAppends, a.Anomalies)
	}
	kr := a.PerKey["x"]
	if !kr.Skipped || kr.K != 0 {
		t.Fatalf("per-key result %+v, want skipped", kr)
	}
}

// TestMultiKey: keys are independent; result.K is the worst key.
func TestMultiKey(t *testing.T) {
	a := analyze(t,
		op.Txn(0, 0, op.OK, op.Write("x", 1)),
		op.Txn(1, 0, op.OK, op.Write("y", 1)),
		op.Txn(2, 0, op.OK, op.Write("x", 2)),
		op.Txn(3, 1, op.OK, op.ReadReg("x", 1)),
		op.Txn(4, 1, op.OK, op.ReadReg("y", 1)),
	)
	if a.PerKey["y"].K != 1 || a.PerKey["x"].K != 2 || a.K != 2 {
		t.Fatalf("per-key x=%+v y=%+v K=%d", a.PerKey["x"], a.PerKey["y"], a.K)
	}
}

// TestEmptyHistory honors the analyzer contract: non-nil result, no
// anomalies.
func TestEmptyHistory(t *testing.T) {
	a := analyze(t)
	if a.K != 0 || len(a.Anomalies) != 0 {
		t.Fatalf("empty history: %+v", a)
	}
}

// TestDeterminism: identical inputs produce identical analyses.
func TestDeterminism(t *testing.T) {
	ops := []op.Op{
		op.Txn(0, 0, op.OK, op.Write("x", 1)),
		op.Txn(1, 0, op.OK, op.Write("x", 2)),
		op.Txn(2, 1, op.OK, op.ReadReg("x", 1)),
		op.Txn(3, 2, op.OK, op.ReadReg("x", 99)),
	}
	a := check(history.MustNew(ops))
	b := check(history.MustNew(ops))
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("nondeterministic analysis:\n%+v\n%+v", a, b)
	}
}

// engineHistory runs the katomic workload against the in-memory engine.
func engineHistory(t *testing.T, iso memdb.Isolation, faults memdb.Faults, seed int64) *history.History {
	t.Helper()
	return memdb.Run(memdb.RunConfig{
		Clients:   8,
		Txns:      400,
		Isolation: iso,
		Faults:    faults,
		Source:    gen.New(gen.Config{Workload: gen.KAtomic}, seed),
		Seed:      seed,
		Workload:  memdb.WorkloadRegister,
	})
}

// TestEngineCleanSerializable: the engine's serializable level commits
// in real-time order, so clean runs must be atomic at every seed.
func TestEngineCleanSerializable(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		h := engineHistory(t, memdb.Serializable, memdb.Faults{}, seed)
		a := check(h)
		if len(a.Anomalies) != 0 || a.K > 1 {
			t.Fatalf("seed %d: K = %d, anomalies %v; want clean", seed, a.K, a.Anomalies)
		}
	}
}

// TestEngineStaleReads: the stale-read fault rewinds read snapshots a
// few commits back; real-time analysis must convict it.
func TestEngineStaleReads(t *testing.T) {
	h := engineHistory(t, memdb.Serializable, memdb.Faults{StaleReadProb: 0.5}, 1)
	a := check(h)
	if !hasAnomaly(a, anomaly.KAtomicViolation) {
		t.Fatalf("expected %s, got %v", anomaly.KAtomicViolation, a.Anomalies)
	}
	if a.K < 2 {
		t.Fatalf("K = %d, want >= 2", a.K)
	}
}
