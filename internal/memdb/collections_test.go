package memdb

import (
	"sync"
	"testing"

	"repro/internal/op"
)

func TestSetBasics(t *testing.T) {
	db := New(Serializable, Faults{}, 1)
	t1 := db.Begin()
	t1.AddSet("s", 2)
	t1.AddSet("s", 1)
	if got := t1.ReadSet("s"); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("own adds = %v", got)
	}
	if err := t1.Commit(); err != nil {
		t.Fatal(err)
	}
	t2 := db.Begin()
	if got := t2.ReadSet("s"); len(got) != 2 {
		t.Fatalf("committed set = %v", got)
	}
}

func TestSetAddsCommute(t *testing.T) {
	// Two concurrent adders to the same set never conflict.
	db := New(SnapshotIsolation, Faults{}, 1)
	t1 := db.Begin()
	t2 := db.Begin()
	t1.AddSet("s", 1)
	t2.AddSet("s", 2)
	if err := t1.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := t2.Commit(); err != nil {
		t.Fatalf("commutative add conflicted: %v", err)
	}
	t3 := db.Begin()
	if got := t3.ReadSet("s"); len(got) != 2 {
		t.Fatalf("merged set = %v", got)
	}
}

func TestCounterBasics(t *testing.T) {
	db := New(Serializable, Faults{}, 1)
	t1 := db.Begin()
	t1.Inc("c", 3)
	t1.Inc("c", 4)
	if got := t1.ReadCounter("c"); got != 7 {
		t.Fatalf("own increments = %d", got)
	}
	if err := t1.Commit(); err != nil {
		t.Fatal(err)
	}
	t2 := db.Begin()
	if got := t2.ReadCounter("c"); got != 7 {
		t.Fatalf("committed counter = %d", got)
	}
}

func TestCounterIncrementsCommute(t *testing.T) {
	db := New(SnapshotIsolation, Faults{}, 1)
	t1 := db.Begin()
	t2 := db.Begin()
	t1.Inc("c", 1)
	t2.Inc("c", 2)
	if err := t1.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := t2.Commit(); err != nil {
		t.Fatalf("commutative increment conflicted: %v", err)
	}
	t3 := db.Begin()
	if got := t3.ReadCounter("c"); got != 3 {
		t.Fatalf("merged counter = %d, want 3", got)
	}
}

func TestSerializableValidatesSetReads(t *testing.T) {
	// A transaction that read a set must abort if the set changed before
	// it commits (otherwise write skew leaks through sets even at
	// serializable).
	db := New(Serializable, Faults{}, 1)
	t1 := db.Begin()
	_ = t1.ReadSet("s")
	t2 := db.Begin()
	t2.AddSet("s", 1)
	if err := t2.Commit(); err != nil {
		t.Fatal(err)
	}
	t1.AddSet("other", 9)
	if err := t1.Commit(); err != ErrConflict {
		t.Fatalf("stale set read committed: %v", err)
	}
}

func TestSnapshotSetReads(t *testing.T) {
	db := New(SnapshotIsolation, Faults{}, 1)
	t1 := db.Begin()
	if got := t1.ReadSet("s"); len(got) != 0 {
		t.Fatalf("initial set = %v", got)
	}
	t2 := db.Begin()
	t2.AddSet("s", 1)
	if err := t2.Commit(); err != nil {
		t.Fatal(err)
	}
	// t1's snapshot predates t2's commit.
	if got := t1.ReadSet("s"); len(got) != 0 {
		t.Fatalf("snapshot set read saw later commit: %v", got)
	}
}

// TestConcurrentGoroutineClients exercises the engine under real
// goroutine concurrency (the deterministic runner serializes steps; this
// test checks the DB's own locking).
func TestConcurrentGoroutineClients(t *testing.T) {
	db := New(Serializable, Faults{}, 1)
	const workers = 8
	const txnsEach = 100
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < txnsEach; i++ {
				tx := db.Begin()
				tx.Append("k", w*txnsEach+i)
				tx.Inc("c", 1)
				tx.AddSet("s", w*txnsEach+i)
				_ = tx.ReadList("k")
				_ = tx.Commit() // conflicts are fine; no torn state allowed
			}
		}(w)
	}
	wg.Wait()
	tx := db.Begin()
	list := tx.ReadList("k")
	ctr := tx.ReadCounter("c")
	set := tx.ReadSet("s")
	// Every commit appended exactly one element to each; all three
	// datatypes must agree on how many transactions committed... except
	// lists conflict under FCW while sets/counters commute, so list
	// commits ≤ set commits. Check internal consistency instead:
	seen := map[int]bool{}
	for _, e := range list {
		if seen[e] {
			t.Fatalf("duplicate element %d in list", e)
		}
		seen[e] = true
	}
	if ctr < len(list) {
		t.Fatalf("counter %d < list length %d", ctr, len(list))
	}
	if len(set) < len(list) {
		t.Fatalf("set size %d < list length %d", len(set), len(list))
	}
}

// TestRunnerSetWorkload drives the full runner with set mops.
func TestRunnerSetWorkload(t *testing.T) {
	src := &fixedSource{bodies: [][]op.Mop{
		{op.Add("s", 1), op.Read("s")},
		{op.Add("s", 2), op.Read("s")},
		{op.Read("s")},
	}}
	h := Run(RunConfig{
		Clients: 3, Txns: 3, Isolation: Serializable, Source: src,
		Seed: 4, Workload: WorkloadSet,
	})
	for _, pos := range h.OKPositions() {
		o := h.Ops[pos]
		for _, m := range o.Mops {
			if m.F == op.FRead && !m.ListKnown() {
				t.Fatalf("set read unknown in ok op: %v", o)
			}
		}
	}
}

// TestRunnerCounterWorkload drives the full runner with counter mops.
func TestRunnerCounterWorkload(t *testing.T) {
	src := &fixedSource{bodies: [][]op.Mop{
		{op.Increment("c", 2), op.Read("c")},
		{op.Read("c")},
	}}
	h := Run(RunConfig{
		Clients: 2, Txns: 4, Isolation: Serializable, Source: src,
		Seed: 4, Workload: WorkloadCounter,
	})
	for _, pos := range h.OKPositions() {
		o := h.Ops[pos]
		for _, m := range o.Mops {
			if m.F == op.FRead && !m.RegKnown {
				t.Fatalf("counter read unknown in ok op: %v", o)
			}
		}
	}
}
