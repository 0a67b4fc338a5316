package memdb

import (
	"testing"

	"repro/internal/gen"

	"repro/internal/op"
)

func TestSerializableBasicRMW(t *testing.T) {
	db := New(Serializable, Faults{}, 1)
	t1 := db.Begin()
	t1.Append("x", 1)
	if err := t1.Commit(); err != nil {
		t.Fatalf("commit: %v", err)
	}
	t2 := db.Begin()
	if got := t2.ReadList("x"); len(got) != 1 || got[0] != 1 {
		t.Fatalf("read = %v", got)
	}
	t2.Append("x", 2)
	if got := t2.ReadList("x"); len(got) != 2 {
		t.Fatalf("own append invisible: %v", got)
	}
	if err := t2.Commit(); err != nil {
		t.Fatalf("commit: %v", err)
	}
	t3 := db.Begin()
	if got := t3.ReadList("x"); len(got) != 2 || got[1] != 2 {
		t.Fatalf("final read = %v", got)
	}
}

func TestSnapshotReadsIgnoreLaterCommits(t *testing.T) {
	db := New(SnapshotIsolation, Faults{}, 1)
	t1 := db.Begin()
	// Pin x's snapshot before anyone writes.
	if got := t1.ReadList("x"); len(got) != 0 {
		t.Fatalf("initial read = %v", got)
	}
	t2 := db.Begin()
	t2.Append("x", 1)
	if err := t2.Commit(); err != nil {
		t.Fatal(err)
	}
	// T1 still sees its snapshot.
	if got := t1.ReadList("x"); len(got) != 0 {
		t.Fatalf("snapshot read saw later commit: %v", got)
	}
}

func TestFirstCommitterWins(t *testing.T) {
	db := New(SnapshotIsolation, Faults{}, 1)
	t1 := db.Begin()
	t2 := db.Begin()
	t1.Append("x", 1)
	t2.Append("x", 2)
	if err := t1.Commit(); err != nil {
		t.Fatalf("first committer should win: %v", err)
	}
	if err := t2.Commit(); err != ErrConflict {
		t.Fatalf("second committer should conflict, got %v", err)
	}
	t3 := db.Begin()
	if got := t3.ReadList("x"); len(got) != 1 || got[0] != 1 {
		t.Fatalf("state after conflict = %v", got)
	}
}

func TestSnapshotIsolationAllowsWriteSkew(t *testing.T) {
	db := New(SnapshotIsolation, Faults{}, 1)
	t1 := db.Begin()
	t2 := db.Begin()
	_ = t1.ReadList("x")
	_ = t2.ReadList("y")
	t1.Append("y", 1)
	t2.Append("x", 2)
	if err := t1.Commit(); err != nil {
		t.Fatalf("t1: %v", err)
	}
	if err := t2.Commit(); err != nil {
		t.Fatalf("write skew must be allowed under SI: %v", err)
	}
}

func TestSerializableForbidsWriteSkew(t *testing.T) {
	db := New(Serializable, Faults{}, 1)
	// Seed both keys so the reads have something to validate against.
	t0 := db.Begin()
	t0.Append("x", 100)
	t0.Append("y", 200)
	if err := t0.Commit(); err != nil {
		t.Fatal(err)
	}
	t1 := db.Begin()
	t2 := db.Begin()
	_ = t1.ReadList("x")
	_ = t2.ReadList("y")
	t1.Append("y", 1)
	t2.Append("x", 2)
	if err := t1.Commit(); err != nil {
		t.Fatalf("t1: %v", err)
	}
	if err := t2.Commit(); err != ErrConflict {
		t.Fatalf("serializable must reject write skew, got %v", err)
	}
}

func TestRetryOnConflictLosesUpdates(t *testing.T) {
	db := New(SnapshotIsolation, Faults{RetryStompProb: 1}, 1)
	t1 := db.Begin()
	t2 := db.Begin()
	t1.Append("x", 1)
	t2.Append("x", 2)
	if err := t1.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := t2.Commit(); err != nil {
		t.Fatalf("retry-on-conflict should commit anyway: %v", err)
	}
	t3 := db.Begin()
	got := t3.ReadList("x")
	// T2's stale buffer [2] overwrote [1]: the update was lost.
	if len(got) != 1 || got[0] != 2 {
		t.Fatalf("expected lost update [2], got %v", got)
	}
}

func TestReadCommittedSeesLatest(t *testing.T) {
	db := New(ReadCommitted, Faults{}, 1)
	t1 := db.Begin()
	t2 := db.Begin()
	t2.Append("x", 1)
	if err := t2.Commit(); err != nil {
		t.Fatal(err)
	}
	// Read committed sees the commit even though t1 began first.
	if got := t1.ReadList("x"); len(got) != 1 {
		t.Fatalf("read committed should see latest commit: %v", got)
	}
}

func TestReadUncommittedDirtyReads(t *testing.T) {
	db := New(ReadUncommitted, Faults{}, 1)
	t1 := db.Begin()
	t1.Append("x", 1)
	t2 := db.Begin()
	if got := t2.ReadList("x"); len(got) != 1 {
		t.Fatalf("dirty read missing: %v", got)
	}
	// Abort does not roll back: the aborted write stays visible.
	t1.Abort()
	t3 := db.Begin()
	if got := t3.ReadList("x"); len(got) != 1 {
		t.Fatalf("aborted write should remain visible under RU: %v", got)
	}
}

func TestRegisters(t *testing.T) {
	db := New(Serializable, Faults{}, 1)
	t1 := db.Begin()
	if _, isNil := t1.ReadReg("r"); !isNil {
		t.Fatal("unwritten register should read nil")
	}
	t1.WriteReg("r", 5)
	if v, isNil := t1.ReadReg("r"); isNil || v != 5 {
		t.Fatalf("own write invisible: %d, %v", v, isNil)
	}
	if err := t1.Commit(); err != nil {
		t.Fatal(err)
	}
	t2 := db.Begin()
	if v, _ := t2.ReadReg("r"); v != 5 {
		t.Fatalf("committed register read = %d", v)
	}
}

func TestSkipOwnWriteFault(t *testing.T) {
	db := New(Serializable, Faults{SkipOwnWriteProb: 1}, 1)
	t1 := db.Begin()
	t1.Append("x", 1)
	if got := t1.ReadList("x"); len(got) != 0 {
		t.Fatalf("skip-own-write fault should hide the append, got %v", got)
	}
}

func TestNilReadFault(t *testing.T) {
	db := New(Serializable, Faults{NilReadProb: 1}, 1)
	t0 := db.Begin()
	t0.WriteReg("r", 9)
	if err := t0.Commit(); err != nil {
		t.Fatal(err)
	}
	t1 := db.Begin()
	if _, isNil := t1.ReadReg("r"); !isNil {
		t.Fatal("nil-read fault should return nil")
	}
}

func TestDuplicateAppendFault(t *testing.T) {
	db := New(Serializable, Faults{DuplicateAppendProb: 1}, 1)
	t1 := db.Begin()
	t1.Append("x", 7)
	if err := t1.Commit(); err != nil {
		t.Fatal(err)
	}
	t2 := db.Begin()
	got := t2.ReadList("x")
	if len(got) != 2 || got[0] != 7 || got[1] != 7 {
		t.Fatalf("expected duplicated element, got %v", got)
	}
}

func TestStaleReadFault(t *testing.T) {
	db := New(Serializable, Faults{StaleReadProb: 1}, 1)
	for i := 1; i <= 5; i++ {
		tx := db.Begin()
		tx.Append("x", i)
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	tx := db.Begin()
	got := tx.ReadList("x")
	if len(got) >= 5 {
		t.Fatalf("stale read should miss recent commits, got %v", got)
	}
}

func TestIsolationStrings(t *testing.T) {
	want := map[Isolation]string{
		ReadUncommitted:    "read-uncommitted",
		ReadCommitted:      "read-committed",
		SnapshotIsolation:  "snapshot-isolation",
		Serializable:       "serializable",
		StrictSerializable: "strict-serializable",
	}
	for iso, s := range want {
		if iso.String() != s {
			t.Errorf("%d.String() = %q, want %q", iso, iso.String(), s)
		}
	}
}

func TestCommitIdempotent(t *testing.T) {
	db := New(Serializable, Faults{}, 1)
	t1 := db.Begin()
	t1.Append("x", 1)
	if err := t1.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := t1.Commit(); err != nil {
		t.Fatalf("double commit should be a no-op: %v", err)
	}
	t2 := db.Begin()
	if got := t2.ReadList("x"); len(got) != 1 {
		t.Fatalf("double commit double-applied: %v", got)
	}
}

// fixedSource replays a fixed sequence of transaction bodies.
type fixedSource struct {
	bodies [][]op.Mop
	i      int
}

func (f *fixedSource) Next() []op.Mop {
	b := f.bodies[f.i%len(f.bodies)]
	f.i++
	return b
}

func TestRunProducesWellFormedHistory(t *testing.T) {
	src := &fixedSource{bodies: [][]op.Mop{
		{op.Append("x", 1), op.Read("x")},
		{op.Read("x"), op.Append("x", 2)},
		{op.Read("x")},
	}}
	h := Run(RunConfig{
		Clients: 3, Txns: 3, Isolation: Serializable, Source: src, Seed: 9,
	})
	if h.Compact() {
		t.Fatal("runner histories should have invoke/completion pairs")
	}
	comps := h.Completions()
	if len(comps) != 3 {
		t.Fatalf("expected 3 completions, got %d", len(comps))
	}
	for _, o := range comps {
		if o.Type == op.OK {
			for _, m := range o.Mops {
				if m.F == op.FRead && !m.ListKnown() {
					t.Errorf("ok op has unknown read: %v", o)
				}
			}
		}
	}
}

func TestRunDeterministic(t *testing.T) {
	mk := func() *fixedSource {
		return &fixedSource{bodies: [][]op.Mop{
			{op.Append("x", 1), op.Read("y")},
			{op.Append("y", 2), op.Read("x")},
			{op.Read("x"), op.Append("x", 3)},
		}}
	}
	h1 := Run(RunConfig{Clients: 4, Txns: 9, Isolation: SnapshotIsolation, Source: mk(), Seed: 42})
	h2 := Run(RunConfig{Clients: 4, Txns: 9, Isolation: SnapshotIsolation, Source: mk(), Seed: 42})
	if len(h1.Ops) != len(h2.Ops) {
		t.Fatalf("lengths differ: %d vs %d", len(h1.Ops), len(h2.Ops))
	}
	for i := range h1.Ops {
		a, b := h1.Ops[i], h2.Ops[i]
		if a.Type != b.Type || a.Process != b.Process || len(a.Mops) != len(b.Mops) {
			t.Fatalf("op %d differs: %v vs %v", i, a, b)
		}
	}
}

func TestRunInfoSpawnsNewProcess(t *testing.T) {
	src := &fixedSource{bodies: [][]op.Mop{{op.Append("x", 1)}}}
	h := Run(RunConfig{
		Clients: 1, Txns: 5, Isolation: Serializable, Source: src,
		Seed: 3, InfoProb: 1,
	})
	// Every attempt is an info; each one moves the client to a fresh
	// process, so we should see 5 distinct processes.
	procs := map[int]bool{}
	for _, o := range h.Completions() {
		if o.Type != op.Info {
			t.Fatalf("expected info, got %v", o.Type)
		}
		procs[o.Process] = true
	}
	if len(procs) != 5 {
		t.Errorf("expected 5 distinct processes, got %d", len(procs))
	}
}

func TestRunAbortProbProducesFails(t *testing.T) {
	src := &fixedSource{bodies: [][]op.Mop{{op.Append("x", 1)}}}
	h := Run(RunConfig{
		Clients: 1, Txns: 10, Isolation: Serializable, Source: src,
		Seed: 3, AbortProb: 1,
	})
	for _, o := range h.Completions() {
		if o.Type != op.Fail {
			t.Fatalf("expected fail, got %v", o.Type)
		}
	}
}

func TestSkipReadValidationFault(t *testing.T) {
	// With the YugaByte fault forced on, a serializable engine admits
	// write skew: both transactions' read sets go unvalidated.
	db := New(Serializable, Faults{SkipReadValidationProb: 1}, 1)
	t0 := db.Begin()
	t0.Append("x", 100)
	t0.Append("y", 200)
	if err := t0.Commit(); err != nil {
		t.Fatal(err)
	}
	t1 := db.Begin()
	t2 := db.Begin()
	_ = t1.ReadList("x")
	_ = t2.ReadList("y")
	t1.Append("y", 1)
	t2.Append("x", 2)
	if err := t1.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := t2.Commit(); err != nil {
		t.Fatalf("skip-read-validation should admit write skew: %v", err)
	}
}

func TestRetryRebasePreservesConcurrentAppends(t *testing.T) {
	// A rebased retry keeps the other transaction's element (read skew,
	// not lost update).
	db := New(SnapshotIsolation, Faults{RetryRebaseProb: 1}, 1)
	t1 := db.Begin()
	t2 := db.Begin()
	t1.Append("x", 1)
	t2.Append("x", 2)
	if err := t1.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := t2.Commit(); err != nil {
		t.Fatalf("rebase retry should commit: %v", err)
	}
	t3 := db.Begin()
	got := t3.ReadList("x")
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("rebased state = %v, want [1 2]", got)
	}
}

func TestFinalListsGroundTruth(t *testing.T) {
	db := New(Serializable, Faults{}, 1)
	tx := db.Begin()
	tx.Append("k", 1)
	tx.Append("k", 2)
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	truth := db.FinalLists()
	if got := truth["k"]; len(got) != 2 || got[1] != 2 {
		t.Fatalf("FinalLists = %v", truth)
	}
	// The dump must be a copy, not an alias.
	truth["k"][0] = 99
	tx2 := db.Begin()
	if got := tx2.ReadList("k"); got[0] != 1 {
		t.Fatal("FinalLists aliased engine state")
	}
}

// TestBankRunConservesMoney: under the correct serializable engine the
// bank workload's ground truth holds — the opening deposit's total is
// conserved and no account ever ends negative — and the recorded
// history's committed writes are absolute balances, not deltas.
func TestBankRunConservesMoney(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		g := gen.New(gen.Config{Workload: gen.Bank, ActiveKeys: 4}, seed)
		h, db := RunOnDB(RunConfig{
			Clients: 8, Txns: 300, Isolation: StrictSerializable,
			Source: g, Seed: seed, Workload: WorkloadBank,
		})
		regs := db.FinalRegs()
		total := 0
		for k, v := range regs {
			if v < 0 {
				t.Fatalf("seed %d: account %s ends at %d", seed, k, v)
			}
			total += v
		}
		if want := 4 * 100; total != want {
			t.Fatalf("seed %d: final total %d, want %d", seed, total, want)
		}
		for _, pos := range h.OKPositions() {
			o := h.Ops[pos]
			for _, m := range o.Mops {
				if m.F == op.FWrite && m.Arg < 0 {
					t.Fatalf("seed %d: committed %s recorded a delta, not a balance: %v",
						seed, o.Name(), m)
				}
			}
		}
	}
}
