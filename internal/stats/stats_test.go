package stats

import (
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/history"
	"repro/internal/memdb"
	"repro/internal/op"
)

func TestComputeCompact(t *testing.T) {
	h := history.MustNew([]op.Op{
		op.Txn(0, 0, op.OK, op.Append("x", 1), op.Read("x")),
		op.Txn(1, 1, op.Fail, op.Append("y", 2)),
		op.Txn(2, 0, op.Info, op.Append("x", 3)),
	})
	s := Compute(h)
	if s.Ops != 3 || s.Attempts != 3 {
		t.Errorf("ops=%d attempts=%d", s.Ops, s.Attempts)
	}
	if s.Committed != 1 || s.Aborted != 1 || s.Indeterminate != 1 {
		t.Errorf("outcomes: %d/%d/%d", s.Committed, s.Aborted, s.Indeterminate)
	}
	if s.Processes != 2 || s.Keys != 2 {
		t.Errorf("procs=%d keys=%d", s.Processes, s.Keys)
	}
	if s.Reads != 1 || s.Writes != 3 {
		t.Errorf("reads=%d writes=%d", s.Reads, s.Writes)
	}
	if s.MinTxnLen != 1 || s.MaxTxnLen != 2 {
		t.Errorf("txn len %d–%d", s.MinTxnLen, s.MaxTxnLen)
	}
	if s.MaxConcurrent != 1 {
		t.Errorf("compact concurrency = %d", s.MaxConcurrent)
	}
}

func TestComputeConcurrency(t *testing.T) {
	h := history.MustNew([]op.Op{
		{Index: 0, Process: 0, Type: op.Invoke},
		{Index: 1, Process: 1, Type: op.Invoke},
		{Index: 2, Process: 2, Type: op.Invoke},
		{Index: 3, Process: 0, Type: op.OK},
		{Index: 4, Process: 1, Type: op.OK},
		{Index: 5, Process: 2, Type: op.OK},
	})
	s := Compute(h)
	if s.MaxConcurrent != 3 {
		t.Errorf("peak concurrency = %d, want 3", s.MaxConcurrent)
	}
}

// TestComputeKeysCountInvocations: a key only a crashed invocation
// touched still counts.
func TestComputeKeysCountInvocations(t *testing.T) {
	h := history.MustNew([]op.Op{
		{Index: 0, Process: 0, Type: op.Invoke, Mops: []op.Mop{op.Append("x", 1)}},
		{Index: 1, Process: 0, Type: op.OK, Mops: []op.Mop{op.Append("x", 1)}},
		{Index: 2, Process: 1, Type: op.Invoke, Mops: []op.Mop{op.Append("y", 2)}},
	})
	if s := Compute(h); s.Keys != 2 {
		t.Errorf("keys = %d, want 2", s.Keys)
	}
}

func TestComputeEmptyHistory(t *testing.T) {
	s := Compute(history.MustNew(nil))
	if s.Ops != 0 || s.MinTxnLen != 0 || s.MaxConcurrent != 0 {
		t.Errorf("empty stats = %+v", s)
	}
}

func TestComputeGeneratedRun(t *testing.T) {
	g := gen.New(gen.Config{MinOps: 2, MaxOps: 4}, 6)
	h := memdb.Run(memdb.RunConfig{
		Clients: 7, Txns: 300, Isolation: memdb.Serializable,
		Source: g, Seed: 6, AbortProb: 0.1, InfoProb: 0.1,
	})
	s := Compute(h)
	if s.Attempts != 300 {
		t.Errorf("attempts = %d", s.Attempts)
	}
	if s.Committed+s.Aborted+s.Indeterminate != 300 {
		t.Error("outcome counts don't sum")
	}
	if s.MaxConcurrent < 2 || s.MaxConcurrent > 7 {
		t.Errorf("peak concurrency = %d, want within [2, 7]", s.MaxConcurrent)
	}
	if s.MinTxnLen < 2 || s.MaxTxnLen > 4 {
		t.Errorf("txn length %d–%d outside generator bounds", s.MinTxnLen, s.MaxTxnLen)
	}
	// Crashed clients mint fresh process ids, so processes ≥ clients.
	if s.Processes < 7 {
		t.Errorf("processes = %d", s.Processes)
	}
}

func TestStringRendering(t *testing.T) {
	h := history.MustNew([]op.Op{op.Txn(0, 0, op.OK, op.Append("x", 1))})
	out := Compute(h).String()
	for _, want := range []string{"attempts", "processes", "micro-ops"} {
		if !strings.Contains(out, want) {
			t.Errorf("stats string missing %q:\n%s", want, out)
		}
	}
}
