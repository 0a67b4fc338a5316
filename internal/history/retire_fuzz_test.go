package history_test

import (
	"reflect"
	"slices"
	"testing"

	"repro/internal/history"
	"repro/internal/op"
	"repro/internal/workload"
)

// retireOpsFromBytes derives an op sequence from fuzz input, the same
// way FuzzHistoryNew does: 3-byte groups drive completion type, process,
// index spacing, and body, so the corpus explores compact and paired
// streams, pairing violations, duplicate indices, and mixed mop shapes.
// Ops are constructor-built (canonical field encodings), so a codec
// round-trip of a retired segment must reproduce them exactly.
func retireOpsFromBytes(data []byte) []op.Op {
	var ops []op.Op
	index := 0
	elem := 0
	for i := 0; i+2 < len(data); i += 3 {
		t := op.Type(data[i] & 3)
		if data[i]&16 != 0 {
			t = op.Invoke
		}
		process := int(data[i] >> 2 & 3)
		index += int(data[i+1] & 3)
		var mops []op.Mop
		switch data[i+2] & 3 {
		case 0:
			elem++
			mops = []op.Mop{op.Append("x", elem)}
		case 1:
			mops = []op.Mop{op.Read("y")}
		case 2:
			elem++
			mops = []op.Mop{op.Append("y", elem), op.Read("x")}
		}
		ops = append(ops, op.Op{Index: index, Process: process, Type: t, Mops: mops})
	}
	return ops
}

// lookupMatches checks l against the completions of want: probing each
// of probe's indices, it must find exactly those, field for field.
func lookupMatches(t *testing.T, name string, l history.Lookup, probe, want []op.Op) {
	t.Helper()
	for _, p := range probe {
		w := slices.IndexFunc(want, func(o op.Op) bool { return o.Index == p.Index && o.Type != op.Invoke })
		got, ok := l.Op(p.Index)
		if ok != (w >= 0) || ok && !reflect.DeepEqual(got, want[w]) {
			t.Fatalf("%s: Op(%d) = %v, %v; want found=%v", name, p.Index, got, ok, w >= 0)
		}
	}
}

// FuzzStreamRetirement: a stream under a tiny retirement budget must be
// observationally identical to an unbudgeted stream fed the same ops —
// same acceptance or rejection at the same op, same rehydrated history
// (ops, spans, compactness), and a Replay that reproduces exactly the
// accepted sequence. The budget only changes where bytes live, never
// what the stream means. Its op lookups find what each holds: every
// completion, the resident tail's, and those a budgeted session's live
// keys pin.
func FuzzStreamRetirement(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{1, 0, 1, 0, 1, 1, 2, 1, 2, 3, 1, 0})            // compact mix
	f.Add([]byte{0, 16, 1, 0, 1, 1, 1, 16, 1, 0, 5, 1, 1})       // paired spans
	f.Add([]byte{2, 16, 1, 0, 20, 1, 1, 0, 1, 1, 16, 1, 2})      // interleaved processes
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0})                           // duplicate indices
	f.Add([]byte{3, 1, 1, 2, 16, 1, 0, 1, 1, 1, 16, 1, 0, 1, 1}) // compact turning complete
	f.Add([]byte{0, 1, 1, 2, 1, 1, 1})                           // an op outlives one of its keys

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		window := 1 + int(data[0]&3)
		spill := ""
		if data[0]&4 != 0 {
			spill = t.TempDir()
		}
		ops := retireOpsFromBytes(data[1:])

		plain := history.NewStream()
		var perr error
		accepted := 0
		for _, o := range ops {
			if perr = plain.Add(o); perr != nil {
				break
			}
			accepted++
		}

		budgeted := history.NewStream()
		budgeted.SetBudget(budget(window, spill))
		var berr error
		for _, o := range ops {
			if berr = budgeted.Add(o); berr != nil {
				break
			}
		}

		if (perr == nil) != (berr == nil) || (perr != nil && perr.Error() != berr.Error()) {
			t.Fatalf("acceptance diverged: plain err=%v, budgeted err=%v", perr, berr)
		}

		st := budgeted.RetireStats()
		if st.Degraded != "" {
			t.Fatalf("retirement degraded: %s", st.Degraded)
		}
		if st.ResidentOps+st.RetiredOps != accepted {
			t.Fatalf("resident %d + retired %d != accepted %d",
				st.ResidentOps, st.RetiredOps, accepted)
		}

		// The lookup: an unbudgeted stream finds every accepted
		// completion, a budgeted one those of its resident tail.
		lookupMatches(t, "plain stream", plain, ops[:accepted], ops[:accepted])
		lookupMatches(t, "budgeted stream", budgeted, ops[:accepted], ops[accepted-st.ResidentOps:accepted])
		// A budgeted session resolves what its hooks cite through a
		// KeyTracker fed every completion and swept as it goes: it finds
		// each op a live key pins, however much of the stream retired,
		// and nothing for a dead one.
		tracker := workload.NewKeyTracker(window)
		pinnedBy := map[string][]int{} // live key -> the ops it pins
		var noted []op.Op
		for _, o := range ops[:accepted] {
			if o.Type == op.Invoke {
				continue
			}
			tracker.NoteOp(o, budgeted.Keys())
			noted = append(noted, o)
			for i, m := range o.Mops {
				if !slices.ContainsFunc(o.Mops[:i], func(p op.Mop) bool { return p.Key == m.Key }) {
					pinnedBy[m.Key] = append(pinnedBy[m.Key], o.Index)
				}
			}
			for _, k := range tracker.Sweep() {
				delete(pinnedBy, budgeted.Keys().Key(k))
			}
			live := map[int]bool{}
			for _, idx := range pinnedBy {
				for _, i := range idx {
					live[i] = true
				}
			}
			var pinned []op.Op
			for _, n := range noted {
				if live[n.Index] {
					pinned = append(pinned, n)
				}
			}
			lookupMatches(t, "key tracker", tracker, noted, pinned)
		}

		// Replay must reproduce exactly the accepted prefix, segment
		// decode included.
		var replayed []op.Op
		if err := budgeted.Replay(func(o op.Op) error {
			replayed = append(replayed, o)
			return nil
		}); err != nil {
			t.Fatalf("Replay: %v", err)
		}
		if !reflect.DeepEqual(replayed, ops[:accepted]) {
			t.Fatalf("replay diverged: %d ops, want %d (or contents differ)", len(replayed), accepted)
		}

		if perr != nil {
			return
		}
		ph, bh := plain.History(), budgeted.History()
		if !reflect.DeepEqual(ph.Ops, bh.Ops) {
			t.Fatalf("rehydrated ops diverged: %d vs %d", len(bh.Ops), len(ph.Ops))
		}
		if ph.Compact() != bh.Compact() {
			t.Fatalf("compactness diverged: plain %v, budgeted %v", ph.Compact(), bh.Compact())
		}
		for pos := range ph.Ops {
			pi, pc := ph.Span(pos)
			bi, bc := bh.Span(pos)
			if pi != bi || pc != bc {
				t.Fatalf("span(%d) diverged: plain [%d %d], budgeted [%d %d]", pos, pi, pc, bi, bc)
			}
		}
	})
}
