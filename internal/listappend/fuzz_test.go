package listappend_test

import (
	"slices"
	"testing"

	"repro/internal/history"
	"repro/internal/op"
)

// fuzzHistory interprets data as a program against a two-key list
// store, one byte per micro-op: bits 0–2 pick the action, bit 3 the key,
// bits 4–6 an argument, and bit 7 keeps the transaction open for the
// next byte. The history is well formed — every completion follows its
// invocation and mirrors its appends — while the reads are as broken as
// the program asks: stale prefixes, repeated elements, elements nobody
// appended, reversed orders, elements of aborted, crashed and duplicated
// appends.
func fuzzHistory(data []byte) []op.Op {
	keys := [2]string{"x", "y"}
	var db [2][]int // what a read of each key returns
	b := history.NewBuilder()
	next, txns, crashes := 1, 0, 0
	var mops []op.Mop
	typ := op.OK
	invocation := func() []op.Mop {
		inv := slices.Clone(mops)
		for i, m := range inv {
			if m.F == op.FRead {
				inv[i] = op.Read(m.Key)
			}
		}
		return inv
	}
	flush := func() {
		if len(mops) > 0 {
			b.Invoke(txns%5, invocation())
			b.Complete(txns%5, typ, mops)
			txns++
		}
		mops, typ = nil, op.OK
	}
	for _, c := range data {
		k, arg := int(c>>3)&1, int(c>>4)&7
		key, list := keys[k], db[k]
		switch c & 7 {
		case 0: // committed append
			mops = append(mops, op.Append(key, next))
			db[k] = append(db[k], next)
			next++
		case 1, 7: // an append that aborted (1), crashed or lost its ack (7): applied when arg is odd
			flush()
			mops = []op.Mop{op.Append(key, next)}
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
				b.Invoke(100+crashes, mops)
				crashes++
				mops = nil
			}
			flush()
			continue
		case 2: // read of a prefix, usually the whole list
			mops = append(mops, op.ReadList(key, slices.Clone(list[:len(list)-min(arg&3, len(list))])))
		case 3: // read repeating an element
			v := slices.Clone(list)
			if len(v) > 0 {
				v = append(v, v[arg%len(v)])
			}
			mops = append(mops, op.ReadList(key, v))
		case 4: // read holding an element nobody appended
			mops = append(mops, op.ReadList(key, slices.Insert(slices.Clone(list), arg%(len(list)+1), 1000+arg)))
		case 5: // read in the opposite order
			v := slices.Clone(list)
			slices.Reverse(v)
			mops = append(mops, op.ReadList(key, v))
		case 6: // second append of an element the key already holds
			if len(list) > 0 {
				e := list[arg%len(list)]
				mops = append(mops, op.Append(key, e))
				if arg&4 != 0 {
					db[k] = append(db[k], e)
				}
			}
		}
		if c&0x80 == 0 || len(mops) >= 4 {
			flush()
		}
	}
	flush()
	return b.MustHistory().Ops
}

// FuzzListAppendSession: on any such history the element-wise reference,
// the batch analyzer and a session fed at a fuzzed chunk size agree, and
// nothing panics.
func FuzzListAppendSession(f *testing.F) {
	f.Add([]byte{3, 0x00, 0x00, 0x02, 0x11, 0x02, 0x21, 0x02, 0x05, 0x12})                   // aborted appends, applied or not, and reads of them
	f.Add([]byte{1, 0x00, 0x00, 0x00, 0x03, 0x02, 0x04, 0x32, 0x05, 0x46, 0x02})             // duplicate, garbage, reversed reads; a second append
	f.Add([]byte{7, 0x80, 0x82, 0x00, 0x17, 0x37, 0x02, 0x08, 0x8a, 0x0a, 0x27, 0x02, 0x0d}) // multi-mop txns, info and crashed appends, both keys
	f.Add([]byte{2, 0x02, 0x0a, 0x02})                                                       // keys read only as []
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			t.Skip()
		}
		ops := fuzzHistory(data[1:min(len(data), 200)])
		checkAgainstReference(t, history.MustNew(ops), 1+int(data[0])%16)
	})
}
