package workload_test

import (
	"reflect"
	"testing"

	"repro/internal/history"
	"repro/internal/op"
	"repro/internal/workload"
)

// TestKeyTracker walks the quiescence bookkeeping the budgeted sessions
// share: a key untouched for a window retires, an op pinned by two keys
// dies only with the second, a re-touched key is tracked from zero, and
// Sweep does nothing inside a window. Op finds exactly the pinned ops,
// as noted.
func TestKeyTracker(t *testing.T) {
	in := history.NewInterner()
	x, y := in.Intern("x"), in.Intern("y")
	in.Intern("z")
	tr := workload.NewKeyTracker(4)
	index := 1
	var noted []op.Op
	note := func(keys ...string) int {
		t.Helper()
		o := op.Op{Index: index, Type: op.OK}
		for _, k := range keys {
			o.Mops = append(o.Mops, op.Mop{F: op.FAppend, Key: k, Arg: index})
		}
		index += 2
		if pinned := tr.NoteOp(o, in); pinned != (len(keys) > 0) {
			t.Fatalf("NoteOp(%v) = %v", keys, pinned)
		}
		if got, ok := tr.Op(o.Index); ok != (len(keys) > 0) || ok && !reflect.DeepEqual(got, o) {
			t.Fatalf("Op(%d) = %v, %v after noting it", o.Index, got, ok)
		}
		noted = append(noted, o)
		return o.Index
	}
	// sweep checks the keys a Sweep retires and the ops it releases:
	// those Op found before it and no longer finds.
	sweep := func(wantDead []history.KeyID, wantOps []int) {
		t.Helper()
		var before []op.Op
		for _, o := range noted {
			if got, ok := tr.Op(o.Index); ok {
				if !reflect.DeepEqual(got, o) {
					t.Fatalf("Op(%d) = %v, want %v", o.Index, got, o)
				}
				before = append(before, o)
			}
		}
		dead := tr.Sweep()
		var ops []int
		for _, o := range before {
			if _, ok := tr.Op(o.Index); !ok {
				ops = append(ops, o.Index)
			}
		}
		if !reflect.DeepEqual(dead, wantDead) || !reflect.DeepEqual(ops, wantOps) {
			t.Fatalf("Sweep = %v, releasing %v; want %v, %v", dead, ops, wantDead, wantOps)
		}
	}

	both := note("x", "y", "x") // the repeated key pins once
	xs := []int{both, note("x")}
	note() // key-less: never pinned, and no progress toward the window
	sweep(nil, nil)
	xs = append(xs, note("x"), note("x"), note("x"))

	// Five completions in, y has sat untouched for a full window; x has
	// not, and still pins the op they share.
	sweep([]history.KeyID{y}, nil)
	sweep(nil, nil) // a window has not elapsed since the last sweep

	for i := 0; i < 4; i++ {
		note("z")
	}
	sweep([]history.KeyID{x}, xs) // xs[0] is the shared op: dead with its second key

	// y returns: tracked as a brand-new key whose only op is the new one.
	again := note("y")
	for i := 0; i < 3; i++ {
		note("z")
	}
	sweep(nil, nil)
	for i := 0; i < 4; i++ {
		note("z")
	}
	sweep([]history.KeyID{y}, []int{again})
	if got := tr.RetiredKeys(); got != 3 {
		t.Fatalf("RetiredKeys = %d, want 3 (y, x, y again)", got)
	}
}
