package rwregister_test

import (
	"testing"

	"repro/internal/history"
	"repro/internal/op"
	"repro/internal/workload"
)

// fuzzHistory interprets data as a program against a two-key register
// store, one byte per micro-op: bits 0–2 pick the action, bit 3 the key,
// bits 4–6 an argument, and bit 7 keeps the transaction open for the
// next byte. The history is well formed — every completion follows its
// invocation and mirrors its writes, and a transaction whose last
// argument is odd is invoked before its predecessor completes, so spans
// overlap — while the observations are as broken as the program asks:
// values of failed, duplicated, indeterminate and crashed writes, values
// nobody wrote, stale values, and nil after a write.
func fuzzHistory(data []byte) []op.Op {
	keys := [2]string{"x", "y"}
	type reg struct {
		written []int // every value a completed or crashed op wrote
		cur     int   // what a read returns; 0 is the initial nil
	}
	var db [2]reg
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
		inv := make([]op.Mop, len(mops))
		for i, m := range mops {
			if inv[i] = m; m.F == op.FRead {
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
	read := func(key string, v int) op.Mop {
		if v == 0 {
			return op.ReadNil(key)
		}
		return op.ReadReg(key, v)
	}
	for _, c := range data {
		k, arg := int(c>>3)&1, int(c>>4)&7
		key, r := keys[k], &db[k]
		switch c & 7 {
		case 0: // committed write
			mops = append(mops, op.Write(key, next))
			r.written, r.cur = append(r.written, next), next
			next++
		case 1, 7: // a write that aborted (1), crashed or lost its ack (7): applied when arg is odd
			flush(false)
			mops = []op.Mop{op.Write(key, next)}
			r.written = append(r.written, next)
			if arg&1 == 1 {
				r.cur = next
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
		case 2: // read of the current value
			mops = append(mops, read(key, r.cur))
		case 3: // read of nil, whatever was written
			mops = append(mops, op.ReadNil(key))
		case 4: // read of a value nobody wrote
			mops = append(mops, op.ReadReg(key, 1000+arg))
		case 5: // second write of a value the key already took
			if len(r.written) > 0 {
				v := r.written[arg%len(r.written)]
				mops = append(mops, op.Write(key, v))
				r.cur = v
			}
		case 6: // read of a stale value
			if len(r.written) > 0 {
				mops = append(mops, op.ReadReg(key, r.written[arg%len(r.written)]))
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

// FuzzRegisterSession: on any such history the explosion and order
// oracles hold, the batch analyzer and a session fed at a fuzzed chunk
// size agree, and nothing panics.
func FuzzRegisterSession(f *testing.F) {
	f.Add([]byte{3, 0x00, 0x02, 0x11, 0x02, 0x01, 0x06, 0x12})                   // failed writes, applied or not, read before and after
	f.Add([]byte{1, 0x00, 0x00, 0x05, 0x02, 0x42, 0x04, 0x16, 0x03})             // duplicate, never-written, stale and nil-after-write reads
	f.Add([]byte{7, 0x80, 0x82, 0x00, 0x17, 0x37, 0x02, 0x08, 0x8a, 0x0a, 0x27}) // multi-mop txns, info and crashed writes, both keys
	f.Add([]byte{2, 0x92, 0x10, 0x92, 0x80, 0x90, 0x12, 0x03, 0x0b})             // overlapping spans, read-write-write in one txn
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			t.Skip()
		}
		ops := fuzzHistory(data[1:min(len(data), 200)])
		opts := workload.Opts{KeyConsistency: workload.LinearizableKeys}
		opts.Parallelism = 1
		checkAgainstOracles(t, history.MustNew(ops), opts, 1+int(data[0])%16)
	})
}
