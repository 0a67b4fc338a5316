package setadd_test

import (
	"slices"
	"testing"

	"repro/internal/history"
	"repro/internal/op"
)

// fuzzHistory interprets data as a program against a two-key set store,
// one byte per micro-op: bits 0–2 pick the action, bit 3 the key, bits
// 4–6 an argument, and bit 7 keeps the transaction open for the next
// byte. The history is well formed — every completion follows its
// invocation and mirrors its adds, and a transaction whose last argument
// is odd is invoked before its predecessor completes, so spans overlap —
// while the reads are as broken as the program asks: stale subsets,
// repeated elements, elements nobody added, permuted orders, elements of
// aborted, crashed and duplicated adds.
func fuzzHistory(data []byte) []op.Op {
	keys := [2]string{"x", "y"}
	var db [2][]int // what a read of each key returns
	b := history.NewBuilder()
	next, txns, crashes := 1, 0, 0
	var mops []op.Mop
	typ := op.OK
	var pending func() // completes the transaction left open
	settle := func() {
		if pending != nil {
			pending()
			pending = nil
		}
	}
	flush := func(overlap bool) {
		if len(mops) == 0 {
			return
		}
		inv := slices.Clone(mops)
		for i, m := range inv {
			if m.F == op.FRead {
				inv[i] = op.Read(m.Key)
			}
		}
		p, t, ms := txns%5, typ, mops
		if !overlap {
			settle()
		}
		b.Invoke(p, inv)
		settle()
		pending = func() { b.Complete(p, t, ms) }
		txns++
		mops, typ = nil, op.OK
	}
	for _, c := range data {
		k, arg := int(c>>3)&1, int(c>>4)&7
		key, set := keys[k], db[k]
		switch c & 7 {
		case 0: // committed add
			mops = append(mops, op.Add(key, next))
			db[k] = append(db[k], next)
			next++
		case 1, 7: // an add that aborted (1), crashed or lost its ack (7): applied when arg is odd
			flush(false)
			mops = []op.Mop{op.Add(key, next)}
			if arg&1 == 1 {
				db[k] = append(db[k], next)
			}
			next++
			switch {
			case c&7 == 1:
				typ = op.Fail
			case arg&2 == 0:
				typ = op.Info
			default: // a crashed client: the invocation never completes
				settle()
				b.Invoke(100+crashes, mops)
				crashes++
				mops = nil
			}
			flush(false)
			continue
		case 2: // read of a subset, usually the whole set
			mops = append(mops, op.ReadList(key, slices.Clone(set[:len(set)-min(arg&3, len(set))])))
		case 3: // read repeating an element
			v := slices.Clone(set)
			if len(v) > 0 {
				v = append(v, v[arg%len(v)])
			}
			mops = append(mops, op.ReadList(key, v))
		case 4: // read holding an element nobody added
			mops = append(mops, op.ReadList(key, slices.Insert(slices.Clone(set), arg%(len(set)+1), 1000+arg)))
		case 5: // read in the opposite order, less its first element
			v := slices.Clone(set[min(arg&1, len(set)):])
			slices.Reverse(v)
			mops = append(mops, op.ReadList(key, v))
		case 6: // second add of an element the key already holds
			if len(set) > 0 {
				mops = append(mops, op.Add(key, set[arg%len(set)]))
			}
		}
		if c&0x80 == 0 || len(mops) >= 4 {
			flush(arg&1 == 1)
		}
	}
	flush(false)
	settle()
	return b.MustHistory().Ops
}

// FuzzSetAddSession: on any such history the element-wise reference, the
// batch analyzer and sessions fed at a fuzzed chunk size — budgeted and
// not — agree, every mid-stream finding is confirmed or superseded, and
// nothing panics.
func FuzzSetAddSession(f *testing.F) {
	f.Add([]byte{3, 0x00, 0x00, 0x02, 0x11, 0x02, 0x21, 0x02, 0x05, 0x12})                   // aborted adds, applied or not, and reads of them
	f.Add([]byte{1, 0x00, 0x00, 0x00, 0x03, 0x02, 0x04, 0x32, 0x05, 0x46, 0x02})             // repeated, garbage, permuted reads; a second add
	f.Add([]byte{7, 0x80, 0x82, 0x00, 0x17, 0x37, 0x02, 0x08, 0x8a, 0x0a, 0x27, 0x02, 0x0d}) // multi-mop txns, info and crashed adds, both keys
	f.Add([]byte{2, 0x80, 0x92, 0x80, 0xb2, 0x15, 0x12, 0x80, 0x86, 0x02})                   // add-then-stale-read and shrinking reads in one txn, overlapping spans
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			t.Skip()
		}
		ops := fuzzHistory(data[1:min(len(data), 200)])
		checkAgainstReference(t, history.MustNew(ops), 1+int(data[0])%16)
	})
}
