package history

import (
	"reflect"
	"testing"

	"repro/internal/op"
)

// TestStreamMatchesNew feeds valid complete and compact histories
// through the Stream and checks the result is indistinguishable from
// New over the same ops: same pairing, same spans, same derived views.
func TestStreamMatchesNew(t *testing.T) {
	complete := []op.Op{
		{Index: 0, Process: 0, Type: op.Invoke, Mops: []op.Mop{op.Append("x", 1)}},
		{Index: 1, Process: 1, Type: op.Invoke, Mops: []op.Mop{op.Read("x")}},
		{Index: 2, Process: 0, Type: op.OK, Mops: []op.Mop{op.Append("x", 1)}},
		{Index: 3, Process: 1, Type: op.OK, Mops: []op.Mop{op.ReadList("x", []int{1})}},
		{Index: 4, Process: 0, Type: op.Invoke, Mops: []op.Mop{op.Append("x", 2)}},
		{Index: 5, Process: 0, Type: op.Fail, Mops: []op.Mop{op.Append("x", 2)}},
		{Index: 6, Process: 2, Type: op.Invoke, Mops: []op.Mop{op.Read("x")}},
		// Process 2 crashes: no completion.
	}
	compact := []op.Op{
		op.Txn(0, 0, op.OK, op.Append("x", 1)),
		op.Txn(1, 1, op.OK, op.ReadList("x", []int{1})),
		op.Txn(2, 0, op.Fail, op.Append("x", 2)),
	}
	for name, ops := range map[string][]op.Op{"complete": complete, "compact": compact} {
		t.Run(name, func(t *testing.T) {
			want := MustNew(ops)
			s := NewStream()
			// Feed in two chunks to cross a chunk boundary mid-pairing.
			if err := s.AddAll(ops[:3]); err != nil {
				t.Fatal(err)
			}
			if err := s.AddAll(ops[3:]); err != nil {
				t.Fatal(err)
			}
			got := s.History()
			if got.Compact() != want.Compact() {
				t.Fatalf("compact = %v, want %v", got.Compact(), want.Compact())
			}
			if got.Len() != want.Len() {
				t.Fatalf("len = %d, want %d", got.Len(), want.Len())
			}
			for pos := range want.Ops {
				if want.Ops[pos].Type == op.Invoke {
					continue
				}
				wi, wc := want.Span(pos)
				gi, gc := got.Span(pos)
				if wi != gi || wc != gc {
					t.Fatalf("span at pos %d: stream (%d,%d), batch (%d,%d)", pos, gi, gc, wi, wc)
				}
			}
			if len(got.Completions()) != len(want.Completions()) {
				t.Fatal("completions diverge")
			}
			// Only the complete layout can hold a crashed invocation:
			// process 2's.
			crashed := map[string]int{"complete": 1, "compact": 0}[name]
			if !reflect.DeepEqual(got.Crashed(), want.Crashed()) || len(want.Crashed()) != crashed {
				t.Fatalf("Crashed() = %v, batch %v, want %d", got.Crashed(), want.Crashed(), crashed)
			}
			if s.Completions() != len(want.Completions()) {
				t.Fatalf("Completions() = %d, want %d", s.Completions(), len(want.Completions()))
			}
		})
	}
}

// TestStreamErrors checks the structural rejections: each names the
// defect it should, New reports it byte for byte (New validates through
// a Stream), plus the streaming-only ordering rule, and errors are sticky.
func TestStreamErrors(t *testing.T) {
	invoke := func(idx, proc int) op.Op {
		return op.Op{Index: idx, Process: proc, Type: op.Invoke, Mops: []op.Mop{op.Read("x")}}
	}
	okOp := func(idx, proc int) op.Op {
		return op.Op{Index: idx, Process: proc, Type: op.OK, Mops: []op.Mop{op.ReadNil("x")}}
	}

	for _, tc := range []struct {
		name string
		ops  []op.Op
		want string
	}{
		{"duplicate index", []op.Op{okOp(0, 0), okOp(0, 1)},
			"history: op index 0: duplicate index"},
		{"out of order", []op.Op{okOp(5, 0), okOp(2, 1)},
			"history: op index 2: arrived after index 5: a stream must be index-ordered"},
		{"double invocation", []op.Op{invoke(0, 3), invoke(1, 3)},
			"history: op index 1: process 3 invoked while op index 0 is outstanding"},
		{"completion without invocation", []op.Op{invoke(0, 1), okOp(1, 1), okOp(2, 2)},
			"history: op index 2: completion for process 2 with no outstanding invocation"},
		// A completion accepted in compact mode becomes invalid the moment
		// an invoke appears.
		{"retroactive compact violation", []op.Op{okOp(0, 0), invoke(1, 1)},
			"history: op index 0: completion for process 0 with no outstanding invocation"},
		// Of two defects, the first in index order is the one reported —
		// by New too, which once checked every index before any pairing.
		{"pairing defect before duplicate index", []op.Op{invoke(0, 1), okOp(1, 2), okOp(3, 1), okOp(3, 1)},
			"history: op index 1: completion for process 2 with no outstanding invocation"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := NewStream()
			err := s.AddAll(tc.ops)
			if err == nil || err.Error() != tc.want {
				t.Fatalf("stream error %v, want %q", err, tc.want)
			}
			if tc.name == "out of order" {
				return // New sorts a batch first
			}
			if _, werr := New(tc.ops); werr == nil || werr.Error() != err.Error() {
				t.Fatalf("stream error %q != batch error %v", err, werr)
			}
		})
	}
	t.Run("sticky", func(t *testing.T) {
		s := NewStream()
		first := s.AddAll([]op.Op{okOp(0, 0), okOp(0, 1)})
		if first == nil {
			t.Fatal("expected error")
		}
		if again := s.Add(okOp(9, 9)); again == nil || again.Error() != first.Error() {
			t.Fatalf("error not sticky: %v then %v", first, again)
		}
		if s.Err() == nil {
			t.Fatal("Err() should report the sticky error")
		}
	})
}
