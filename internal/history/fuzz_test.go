package history

import (
	"math"
	"reflect"
	"sort"
	"testing"

	"repro/internal/op"
)

// opsFromBytes deterministically derives an op sequence from fuzz
// input: each 3-byte group becomes one op whose completion type,
// process, index spacing, and body are driven by the bytes. Index
// deltas of zero produce duplicate indices, odd process/type mixes
// produce pairing violations — exactly the error paths New and Stream
// must agree on.
func opsFromBytes(data []byte) []op.Op {
	var ops []op.Op
	index := 0
	elem := 0
	for i := 0; i+2 < len(data); i += 3 {
		t := op.Type(data[i] & 3)
		process := int(data[i] >> 2 & 3)
		index += int(data[i+1] & 3) // 0 keeps the previous index: a duplicate
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

// referenceSpans is New's former two-pass check, kept here as a statement
// of the rules that shares no code with Stream: sorted must hold unique
// indices and, unless no op is an invocation, pair each completion with
// its process's one outstanding invocation. It returns the first bound
// History.Span should report at each position, or false on rejection.
func referenceSpans(sorted []op.Op) ([]int, bool) {
	hasInvoke := false
	for i, o := range sorted {
		if i > 0 && o.Index == sorted[i-1].Index {
			return nil, false
		}
		hasInvoke = hasInvoke || o.Type == op.Invoke
	}
	starts := make([]int, len(sorted))
	open := map[int]int{} // process -> index of its outstanding invoke
	for i, o := range sorted {
		starts[i] = o.Index
		if !hasInvoke {
			continue
		}
		inv, ok := open[o.Process]
		if ok == (o.Type == op.Invoke) {
			return nil, false // a second invocation, or a completion with none
		}
		if o.Type == op.Invoke {
			open[o.Process] = o.Index
		} else {
			delete(open, o.Process)
			starts[i] = inv
		}
	}
	return starts, true
}

// FuzzHistoryNew: New must never panic, must report exactly the error a
// Stream fed the same ops in sorted order reports, and must accept
// exactly what referenceSpans accepts, pairing as it does. This is the
// batch/stream parity contract the incremental checker rests on.
func FuzzHistoryNew(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 0, 1, 1, 1, 2, 1, 2})          // ok/ok/fail compact
	f.Add([]byte{0, 0, 0})                            // duplicate index
	f.Add([]byte{4, 1, 0, 1, 1, 1})                   // invoke then ok
	f.Add([]byte{1, 1, 0, 4, 1, 1, 1, 1, 2})          // completion before invoke
	f.Add([]byte{4, 1, 0, 4, 1, 1})                   // double invoke, one process
	f.Add([]byte{0, 1, 1, 4, 1, 0, 1, 1, 1, 2, 1, 2}) // compact turning complete
	f.Add([]byte{1, 1, 0, 1, 1, 1, 1, 1, 2})          // dense compact
	f.Add([]byte{0, 1, 0, 1, 2, 0, 0, 3, 1, 2, 1, 1}) // gapped, paired

	f.Fuzz(func(t *testing.T, data []byte) {
		ops := opsFromBytes(data)
		h, err := New(ops)

		sorted := make([]op.Op, len(ops))
		copy(sorted, ops)
		sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Index < sorted[j].Index })
		s := NewStream()
		serr := s.AddAll(sorted)
		if (err == nil) != (serr == nil) || err != nil && err.Error() != serr.Error() {
			t.Fatalf("New err=%v, Stream err=%v", err, serr)
		}
		starts, ok := referenceSpans(sorted)
		if ok != (err == nil) {
			t.Fatalf("New err=%v, but the reference accepts=%v", err, ok)
		}
		if err != nil {
			return
		}
		sh := s.History()
		if h.Len() != sh.Len() || h.Compact() != sh.Compact() {
			t.Fatalf("shape diverged: New len=%d compact=%v, Stream len=%d compact=%v",
				h.Len(), h.Compact(), sh.Len(), sh.Compact())
		}
		for pos := range h.Ops {
			if h.Ops[pos].Index != sh.Ops[pos].Index {
				t.Fatalf("op order diverged at position %d", pos)
			}
			hi, hc := h.Span(pos)
			si, sc := sh.Span(pos)
			if hi != starts[pos] || si != starts[pos] || hc != h.Ops[pos].Index || sc != hc {
				t.Fatalf("span at position %d: New [%d,%d], Stream [%d,%d], reference starts at %d",
					pos, hi, hc, si, sc, starts[pos])
			}
		}
		// The interners must assign identical IDs: analyzers index
		// KeyID-keyed state interchangeably across batch and stream.
		if h.Keys().Len() != sh.Keys().Len() {
			t.Fatalf("interner diverged: %d vs %d keys", h.Keys().Len(), sh.Keys().Len())
		}
		for id := 0; id < h.Keys().Len(); id++ {
			if h.Keys().Key(KeyID(id)) != sh.Keys().Key(KeyID(id)) {
				t.Fatalf("key id %d diverged: %q vs %q",
					id, h.Keys().Key(KeyID(id)), sh.Keys().Key(KeyID(id)))
			}
		}
		// Op must equal a map of the completions by index, with the
		// indices as generated (dense or gapped), and again shifted
		// negative with the input reversed.
		opMatchesMap(t, h, ops)
		moved := make([]op.Op, len(ops))
		for i, o := range ops {
			o.Index -= 1 << 40
			moved[len(ops)-1-i] = o
		}
		opMatchesMap(t, MustNew(moved), moved)
	})
}

// opMatchesMap checks h.Op against a map of ops' completions, probing
// every index from two below the least to two above the greatest, and
// the ends of the int range.
func opMatchesMap(t *testing.T, h *History, ops []op.Op) {
	t.Helper()
	want := map[int]op.Op{}
	lo, hi := 0, 0
	for i, o := range ops {
		if o.Type != op.Invoke {
			want[o.Index] = o
		}
		if i == 0 || o.Index < lo {
			lo = o.Index
		}
		if i == 0 || o.Index > hi {
			hi = o.Index
		}
	}
	probe := func(i int) {
		got, ok := h.Op(i)
		w, wok := want[i]
		if ok != wok || !reflect.DeepEqual(got, w) {
			t.Fatalf("Op(%d) = %v, %v; the map holds %v, %v", i, got, ok, w, wok)
		}
	}
	for i := lo - 2; i <= hi+2; i++ {
		probe(i)
	}
	probe(math.MinInt)
	probe(math.MaxInt)
}
