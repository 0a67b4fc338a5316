package counter

import (
	"testing"

	"repro/internal/anomaly"
	"repro/internal/history"
	"repro/internal/op"
	"repro/internal/workload"
)

func hasAnomaly(a *result, typ anomaly.Type) bool {
	for _, an := range a.Anomalies {
		if an.Type == typ {
			return true
		}
	}
	return false
}

func TestCleanCounterHistory(t *testing.T) {
	a := check(history.MustNew([]op.Op{
		op.Txn(0, 0, op.OK, op.Increment("c", 1)),
		op.Txn(1, 0, op.OK, op.Increment("c", 2)),
		op.Txn(2, 0, op.OK, op.ReadReg("c", 3)),
	}), workload.Opts{})
	if len(a.Anomalies) != 0 {
		t.Fatalf("anomalies: %v", a.Anomalies)
	}
	if b := a.Bounds["c"]; b[0] != 0 || b[1] != 3 {
		t.Errorf("bounds = %v", b)
	}
}

func TestReadAboveEnvelope(t *testing.T) {
	a := check(history.MustNew([]op.Op{
		op.Txn(0, 0, op.OK, op.Increment("c", 1)),
		op.Txn(1, 1, op.OK, op.ReadReg("c", 5)),
	}), workload.Opts{})
	if !hasAnomaly(a, anomaly.GarbageRead) {
		t.Fatalf("expected garbage read, got %v", a.Anomalies)
	}
}

func TestReadBelowEnvelope(t *testing.T) {
	a := check(history.MustNew([]op.Op{
		op.Txn(0, 0, op.OK, op.Increment("c", -2)),
		op.Txn(1, 1, op.OK, op.ReadReg("c", -5)),
	}), workload.Opts{})
	if !hasAnomaly(a, anomaly.GarbageRead) {
		t.Fatalf("expected garbage read, got %v", a.Anomalies)
	}
}

func TestAbortedIncrementsExcluded(t *testing.T) {
	// A failed increment never counts toward the envelope.
	a := check(history.MustNew([]op.Op{
		op.Txn(0, 0, op.Fail, op.Increment("c", 10)),
		op.Txn(1, 1, op.OK, op.ReadReg("c", 10)),
	}), workload.Opts{})
	if !hasAnomaly(a, anomaly.GarbageRead) {
		t.Fatalf("aborted increment should not justify the read: %v", a.Anomalies)
	}
}

func TestIndeterminateIncrementsIncluded(t *testing.T) {
	// An info increment may have committed; reads including it are fine.
	a := check(history.MustNew([]op.Op{
		op.Txn(0, 0, op.Info, op.Increment("c", 10)),
		op.Txn(1, 1, op.OK, op.ReadReg("c", 10)),
	}), workload.Opts{})
	if len(a.Anomalies) != 0 {
		t.Fatalf("anomalies: %v", a.Anomalies)
	}
}

func TestSessionMonotonicity(t *testing.T) {
	// A single process observing 5 then 3 with only positive increments.
	a := check(history.MustNew([]op.Op{
		op.Txn(0, 0, op.OK, op.Increment("c", 5)),
		op.Txn(1, 1, op.OK, op.ReadReg("c", 5)),
		op.Txn(2, 1, op.OK, op.ReadReg("c", 3)),
	}), workload.Opts{})
	if !hasAnomaly(a, anomaly.Internal) {
		t.Fatalf("expected non-monotonic session read, got %v", a.Anomalies)
	}
}

func TestMonotonicityNotAppliedAcrossProcesses(t *testing.T) {
	a := check(history.MustNew([]op.Op{
		op.Txn(0, 0, op.OK, op.Increment("c", 5)),
		op.Txn(1, 1, op.OK, op.ReadReg("c", 5)),
		op.Txn(2, 2, op.OK, op.ReadReg("c", 3)),
	}), workload.Opts{})
	// Different processes: no session constraint. The read of 3 is within
	// the envelope [0, 5].
	if len(a.Anomalies) != 0 {
		t.Fatalf("anomalies: %v", a.Anomalies)
	}
}

func TestMonotonicitySkippedWithNegativeIncrements(t *testing.T) {
	a := check(history.MustNew([]op.Op{
		op.Txn(0, 0, op.OK, op.Increment("c", 5), op.Increment("c", -1)),
		op.Txn(1, 1, op.OK, op.ReadReg("c", 5)),
		op.Txn(2, 1, op.OK, op.ReadReg("c", 4)),
	}), workload.Opts{})
	if len(a.Anomalies) != 0 {
		t.Fatalf("decrements make non-monotonic reads legal: %v", a.Anomalies)
	}
}

func TestNilReadIsZero(t *testing.T) {
	// Counters start at 0; a nil read is treated as 0.
	a := check(history.MustNew([]op.Op{
		op.Txn(0, 0, op.OK, op.Increment("c", 1)),
		op.Txn(1, 1, op.OK, op.ReadNil("c")),
	}), workload.Opts{})
	if len(a.Anomalies) != 0 {
		t.Fatalf("anomalies: %v", a.Anomalies)
	}
}

// TestCrashedIncrementWidensEnvelope: an increment whose invocation
// never completed may have taken effect, and its delta is known, so a
// read that includes it is no garbage read.
func TestCrashedIncrementWidensEnvelope(t *testing.T) {
	a := check(history.MustNew([]op.Op{
		{Index: 0, Process: 0, Type: op.Invoke, Mops: []op.Mop{op.Increment("c", 5)}},
		{Index: 1, Process: 1, Type: op.Invoke, Mops: []op.Mop{op.Read("c")}},
		op.Txn(2, 1, op.OK, op.ReadReg("c", 5)),
	}), workload.Opts{})
	if len(a.Anomalies) != 0 {
		t.Fatalf("a crashed increment's effect read as garbage: %v", a.Anomalies)
	}
	if b := a.Bounds["c"]; b != [2]int{0, 5} {
		t.Errorf("bounds = %v, want [0 5]", b)
	}
}
