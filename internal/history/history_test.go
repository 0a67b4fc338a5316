package history

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/op"
)

func TestCompactHistory(t *testing.T) {
	h := MustNew([]op.Op{
		op.Txn(0, 0, op.OK, op.Append("x", 1)),
		op.Txn(1, 1, op.Fail, op.Append("x", 2)),
		op.Txn(2, 0, op.Info, op.Append("x", 3)),
	})
	if !h.Compact() {
		t.Error("history with no invokes should be compact")
	}
	if got := len(h.Completions()); got != 3 {
		t.Errorf("Completions() = %d ops", got)
	}
	if got := len(h.OKPositions()); got != 1 {
		t.Errorf("OKPositions() = %d ops", got)
	}
	inv, comp := h.Span(1)
	if inv != 1 || comp != 1 {
		t.Errorf("compact Span = (%d, %d)", inv, comp)
	}
	if h.MaxIndex() != 2 {
		t.Errorf("MaxIndex = %d", h.MaxIndex())
	}
}

func TestCompleteHistoryPairing(t *testing.T) {
	mops := []op.Mop{op.Append("x", 1)}
	h := MustNew([]op.Op{
		{Index: 0, Process: 0, Type: op.Invoke, Mops: mops},
		{Index: 1, Process: 1, Type: op.Invoke, Mops: mops[:0]},
		{Index: 2, Process: 0, Type: op.OK, Mops: mops},
		{Index: 3, Process: 1, Type: op.Info, Mops: nil},
	})
	if h.Compact() {
		t.Error("history with invokes should not be compact")
	}
	// Position 2 is process 0's OK; its invoke is index 0.
	inv, comp := h.Span(2)
	if inv != 0 || comp != 2 {
		t.Errorf("Span(2) = (%d, %d), want (0, 2)", inv, comp)
	}
	inv, comp = h.Span(3)
	if inv != 1 || comp != 3 {
		t.Errorf("Span(3) = (%d, %d), want (1, 3)", inv, comp)
	}
	if got := len(h.Completions()); got != 2 {
		t.Errorf("Completions() = %d", got)
	}
}

func TestDoubleInvokeRejected(t *testing.T) {
	_, err := New([]op.Op{
		{Index: 0, Process: 0, Type: op.Invoke},
		{Index: 1, Process: 0, Type: op.Invoke},
	})
	if err == nil {
		t.Fatal("expected error for double invoke")
	}
}

func TestOrphanCompletionRejected(t *testing.T) {
	_, err := New([]op.Op{
		{Index: 0, Process: 0, Type: op.Invoke},
		{Index: 1, Process: 1, Type: op.OK},
	})
	if err == nil {
		t.Fatal("expected error for completion with no invocation")
	}
}

func TestDuplicateIndexRejected(t *testing.T) {
	_, err := New([]op.Op{
		op.Txn(7, 0, op.OK),
		op.Txn(7, 1, op.OK),
	})
	if err == nil {
		t.Fatal("expected error for duplicate index")
	}
}

func TestUnpairedTailTolerated(t *testing.T) {
	// A crashed client may leave a dangling invoke at the end of the
	// history; that is tolerated.
	h, err := New([]op.Op{
		{Index: 0, Process: 0, Type: op.Invoke},
		{Index: 1, Process: 1, Type: op.Invoke},
		{Index: 2, Process: 0, Type: op.OK},
	})
	if err != nil {
		t.Fatalf("dangling invoke rejected: %v", err)
	}
	if got := len(h.Completions()); got != 1 {
		t.Errorf("Completions() = %d", got)
	}
	// The dangling invoke is the history's one crashed invocation; the
	// completed one is not.
	if got := h.Crashed(); len(got) != 1 || got[0].Index != 1 {
		t.Errorf("Crashed() = %v, want the invocation at index 1", got)
	}
}

func TestSortsOutOfOrderInput(t *testing.T) {
	h := MustNew([]op.Op{
		op.Txn(2, 0, op.OK),
		op.Txn(0, 1, op.OK),
		op.Txn(1, 2, op.OK),
	})
	for i, o := range h.Ops {
		if o.Index != i {
			t.Errorf("Ops[%d].Index = %d", i, o.Index)
		}
	}
}

func TestByProcess(t *testing.T) {
	h := MustNew([]op.Op{
		op.Txn(0, 0, op.OK),
		op.Txn(1, 1, op.OK),
		op.Txn(2, 0, op.Fail),
		op.Txn(3, 0, op.OK),
	})
	by := h.ByProcess()
	if len(by[0]) != 3 || len(by[1]) != 1 {
		t.Errorf("ByProcess sizes: %d, %d", len(by[0]), len(by[1]))
	}
	if by[0][2].Index != 3 {
		t.Error("per-process order should follow index order")
	}
}

func TestBuilder(t *testing.T) {
	b := NewBuilder()
	mops := []op.Mop{op.Append("x", 1)}
	i0 := b.Invoke(5, mops)
	i1 := b.Complete(5, op.OK, mops)
	if i0 != 0 || i1 != 1 {
		t.Errorf("builder indices = %d, %d", i0, i1)
	}
	h := b.MustHistory()
	if h.Compact() {
		t.Error("builder history with invoke should be complete")
	}
	inv, comp := h.Span(1)
	if inv != 0 || comp != 1 {
		t.Errorf("Span = (%d, %d)", inv, comp)
	}
	if h.Ops[0].Time != 0 || h.Ops[1].Time != 1 {
		t.Errorf("builder times = %d, %d", h.Ops[0].Time, h.Ops[1].Time)
	}
}

func TestEmptyHistory(t *testing.T) {
	h := MustNew(nil)
	if h.Len() != 0 || h.MaxIndex() != -1 {
		t.Errorf("empty history: len=%d max=%d", h.Len(), h.MaxIndex())
	}
	if got := h.Completions(); len(got) != 0 {
		t.Errorf("Completions on empty = %v", got)
	}
}

// TestRandomWellFormedHistories drives the builder with random
// interleavings of p processes and verifies pairing invariants hold.
func TestRandomWellFormedHistories(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		b := NewBuilder()
		const procs = 5
		outstanding := map[int]bool{}
		for step := 0; step < 200; step++ {
			p := rng.Intn(procs)
			if outstanding[p] {
				types := []op.Type{op.OK, op.Fail, op.Info}
				b.Complete(p, types[rng.Intn(3)], nil)
				outstanding[p] = false
			} else {
				b.Invoke(p, nil)
				outstanding[p] = true
			}
		}
		h, err := b.History()
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for pos, o := range h.Ops {
			if o.Type == op.Invoke {
				continue
			}
			inv, comp := h.Span(pos)
			if inv > comp {
				t.Fatalf("trial %d: invoke %d after completion %d", trial, inv, comp)
			}
			if h.Ops[inv].Type != op.Invoke && inv != comp {
				t.Fatalf("trial %d: span start %d is not an invoke", trial, inv)
			}
		}
	}
}

// TestFiltersAllocateOnce pins Completions, OKPositions and Crashed to one
// exact-size allocation each, and their contents to a plain filter.
func TestFiltersAllocateOnce(t *testing.T) {
	var ops []op.Op
	types := []op.Type{op.OK, op.Fail, op.Info, op.OK}
	for i := 0; i < 200; i++ {
		p := i % 7
		ops = append(ops, op.Op{Index: 2 * i, Process: p + 10*(i/7), Type: op.Invoke})
		if i%13 != 0 { // every thirteenth invocation never completes
			ops = append(ops, op.Op{Index: 2*i + 1, Process: p + 10*(i/7), Type: types[i%len(types)]})
		}
	}
	h := MustNew(ops)
	var wantComp, wantOK, wantCrashed []int
	for i, o := range h.Ops {
		switch {
		case o.Type == op.OK:
			wantOK = append(wantOK, o.Index)
			fallthrough
		case o.Type != op.Invoke:
			wantComp = append(wantComp, o.Index)
		case i+1 == len(h.Ops) || h.Ops[i+1].Type == op.Invoke:
			wantCrashed = append(wantCrashed, o.Index)
		}
	}
	for _, c := range []struct {
		name string
		f    func() []op.Op
		want []int
	}{
		{"Completions", h.Completions, wantComp},
		{"Crashed", h.Crashed, wantCrashed},
	} {
		got := c.f()
		if len(got) != len(c.want) || cap(got) != len(got) {
			t.Fatalf("%s: len %d cap %d, want %d", c.name, len(got), cap(got), len(c.want))
		}
		for i, o := range got {
			if o.Index != c.want[i] {
				t.Fatalf("%s[%d] = op %d, want %d", c.name, i, o.Index, c.want[i])
			}
		}
		if allocs := testing.AllocsPerRun(100, func() { c.f() }); allocs != 1 {
			t.Errorf("%s allocates %v times, want 1", c.name, allocs)
		}
	}
	empty := MustNew(nil)
	if empty.Crashed() != nil || empty.Completions() == nil {
		t.Error("an empty history: Crashed must be nil, Completions empty")
	}
	// OKPositions is the committed ops as positions in Ops, allocated once likewise.
	pos := h.OKPositions()
	if len(pos) != len(wantOK) || cap(pos) != len(pos) {
		t.Fatalf("OKPositions: len %d cap %d, want %d", len(pos), cap(pos), len(wantOK))
	}
	for i, p := range pos {
		if h.Ops[p].Index != wantOK[i] {
			t.Fatalf("OKPositions[%d] = op %d, want %d", i, h.Ops[p].Index, wantOK[i])
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { h.OKPositions() }); allocs != 1 {
		t.Errorf("OKPositions allocates %v times, want 1", allocs)
	}
	if empty.OKPositions() != nil {
		t.Error("an empty history: OKPositions must be nil")
	}
}

// TestAdoptKeepsTheSlice: Adopt is New without the copy. It builds the
// same history over the slice it is given, sorted in place when out of
// order, and an empty history's Ops is empty, not nil, either way.
func TestAdoptKeepsTheSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var ops []op.Op
	for i := 0; i < 50; i++ {
		p := i % 5
		ops = append(ops, op.Op{Index: 2 * i, Process: p + 5*(i/5), Type: op.Invoke, Mops: []op.Mop{op.Append("x", i)}},
			op.Op{Index: 2*i + 1, Process: p + 5*(i/5), Type: op.OK, Mops: []op.Mop{op.Append("x", i)}})
	}
	rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	want := MustNew(ops)
	got, err := Adopt(ops)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("Adopt and New build different histories")
	}
	if &got.Ops[0] != &ops[0] {
		t.Error("Adopt copied the ops it was given")
	}
	if empty, _ := Adopt(nil); empty.Ops == nil || !reflect.DeepEqual(empty, MustNew(nil)) {
		t.Error("Adopt(nil) differs from New(nil)")
	}
	if empty := NewStream().History(); !reflect.DeepEqual(empty, MustNew(nil)) {
		t.Error("an empty stream's History differs from New(nil)")
	}
}
