package rwregister

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/anomaly"
	"repro/internal/history"
	"repro/internal/op"
	"repro/internal/workload"
)

// TestBudgetedSessionRetiresQuiescentKeys feeds a write and a read of
// key x, then filler on fresh keys up to the first scan point, through a
// session whose window is far smaller than the scan interval. The sweep
// that follows the scan must drop x's whole state and unpin its ops; x
// touched again must start from an empty table yet still surface its
// per-op findings; and Finish must equal Analyze.
func TestBudgetedSessionRetiresQuiescentKeys(t *testing.T) {
	const window = 16
	var ops []op.Op
	txn := func(typ op.Type, mops ...op.Mop) {
		ops = append(ops, op.Txn(len(ops), len(ops)%4, typ, mops...))
	}
	txn(op.OK, op.Write("x", 1))
	txn(op.OK, op.ReadReg("x", 1))
	for len(ops) < workload.ScanEvery {
		txn(op.OK, op.Write(fmt.Sprintf("f%d", len(ops)), 1))
	}
	txn(op.Fail, op.Write("x", 7))
	abort := len(ops) - 1
	txn(op.OK, op.ReadReg("x", 7))

	opts := workload.Opts{Parallelism: 1, MemoryBudget: window}
	// The session under test is the registered one; the test keeps a
	// handle on its hooks to inspect the state they maintain.
	info, _ := workload.Lookup(string(workload.RWRegister))
	var a *analyzer
	info.Incremental = func(opts workload.Opts, keys *history.Interner, ops history.Lookup) workload.Hooks {
		st := begin(opts, keys, ops).(stream)
		a = st.a
		return st
	}
	s := workload.BeginSession(info, opts)
	feed := func(o op.Op) workload.Delta {
		t.Helper()
		d, err := s.Feed([]op.Op{o})
		if err != nil {
			t.Fatalf("feed %d: %v", o.Index, err)
		}
		return d
	}
	for _, o := range ops[:workload.ScanEvery-1] {
		feed(o)
	}
	x := a.kid("x")
	if ks := a.keyst[x]; ks == nil || len(ks.tab) != 2 || len(ks.tab[1].readers) != 1 {
		t.Fatalf("before the sweep x's table should hold nil and 1 with one reader: %+v", ks)
	}
	if st := s.RetireStats(); st.RetiredKeys != 0 {
		t.Fatalf("retired %d keys before the first sweep", st.RetiredKeys)
	}

	feed(ops[workload.ScanEvery-1]) // scans, then sweeps
	if a.keyst[x] != nil {
		t.Fatalf("the sweep kept quiescent x's state: %+v", a.keyst[x])
	}
	for _, i := range []int{0, 1} {
		if _, pinned := a.ops.Op(i); pinned {
			t.Fatalf("the sweep kept op %d, which only retired x pinned", i)
		}
	}
	gone := 0
	for _, ks := range a.keyst {
		if ks == nil {
			gone++
		}
	}
	if st := s.RetireStats(); gone < workload.ScanEvery-2*window || st.RetiredKeys != gone {
		t.Fatalf("RetiredKeys = %d with %d of %d key states dropped", st.RetiredKeys, gone, len(a.keyst))
	}
	pinned := 0
	for _, o := range ops[:workload.ScanEvery] {
		if _, ok := a.ops.Op(o.Index); ok {
			pinned++
		}
	}
	if pinned > 2*window {
		t.Fatalf("%d ops stay pinned after the sweep, window %d", pinned, window)
	}

	// x again: brand new, and the aborted read still surfaces.
	if d := feed(ops[abort]); len(d.Anomalies) != 0 {
		t.Fatalf("delta of the failed write: %v", d.Anomalies)
	}
	d := feed(ops[abort+1])
	if len(d.Anomalies) != 1 || d.Anomalies[0].Type != anomaly.G1a {
		t.Fatalf("retired x touched again did not surface its aborted read: %v", d.Anomalies)
	}
	ks := a.keyst[x]
	if _, met := ks.ix[1]; met || len(ks.tab) != 2 || ks.tab[1].val != 7 {
		t.Fatalf("retired x did not restart from an empty table: %+v", ks)
	}

	got, err := s.Finish()
	if err != nil {
		t.Fatal(err)
	}
	want := Analyze(history.MustNew(ops), opts)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("budgeted Finish diverges from Analyze:\n got %+v\nwant %+v", got, want)
	}
}
