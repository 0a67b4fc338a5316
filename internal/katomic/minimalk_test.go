package katomic

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/anomaly"
	"repro/internal/history"
	"repro/internal/op"
)

// decodeCommittedHistory turns raw bytes into a single-register history
// of at most six committed ops over three processes: each byte picks a
// process, which invokes a read or a write (of the next unique value)
// when idle and completes its open op otherwise. A read completes with
// nil or with the value of a write invoked before it. Ops still open
// when the bytes run out complete in process order, reads with the
// latest value invoked, so every op commits.
func decodeCommittedHistory(data []byte) []op.Op {
	const procs, maxOps = 3, 6
	type pending struct {
		active, write bool
		val           int
	}
	var open [procs]pending
	var ops []op.Op
	invoked, writes := 0, 0
	emit := func(p int, typ op.Type, m op.Mop) {
		ops = append(ops, op.Op{Index: len(ops), Process: p, Type: typ, Mops: []op.Mop{m}})
	}
	complete := func(p, v int) {
		m := op.ReadNil("x")
		switch {
		case open[p].write:
			m = op.Write("x", open[p].val)
		case v > 0:
			m = op.ReadReg("x", v)
		}
		emit(p, op.OK, m)
		open[p] = pending{}
	}
	for _, b := range data {
		p := int(b) % procs
		switch {
		case open[p].active:
			complete(p, int(b>>3)%(writes+1))
		case invoked < maxOps:
			invoked++
			if b&4 != 0 {
				writes++
				open[p] = pending{active: true, write: true, val: writes}
				emit(p, op.Invoke, op.Write("x", writes))
			} else {
				open[p] = pending{active: true}
				emit(p, op.Invoke, op.Read("x"))
			}
		}
	}
	for p := range open {
		if open[p].active {
			complete(p, writes)
		}
	}
	return ops
}

// bruteMinimalK returns the least k for which some linear extension of
// the history's real-time precedence, with every read placed after its
// value's write, serves each read one of the k most recent writes (the
// initial nil counting as a write before all others). It enumerates
// every such schedule; ok is false when there is none.
func bruteMinimalK(ops []op.Op) (k int, ok bool) {
	type regOp struct {
		start, end   int
		write, isNil bool
		val          int
	}
	invokedAt := map[int]int{}
	var rs []regOp
	for _, o := range ops {
		if o.Type == op.Invoke {
			invokedAt[o.Process] = o.Index
			continue
		}
		m := o.Mops[0]
		r := regOp{start: invokedAt[o.Process], end: o.Index, write: m.F == op.FWrite, isNil: m.RegNil, val: m.Reg}
		if r.write {
			r.val = m.Arg
		}
		rs = append(rs, r)
	}
	placed := make([]bool, len(rs))
	ordinal := map[int]int{} // written value -> its write's place among the writes
	best := math.MaxInt
	var place func(n, writes, worst int)
	place = func(n, writes, worst int) {
		if worst >= best {
			return
		}
		if n == len(rs) {
			best = worst
			return
		}
	next:
		for i, r := range rs {
			if placed[i] {
				continue
			}
			for j, q := range rs {
				if !placed[j] && q.end < r.start {
					continue next // q precedes r in real time
				}
			}
			w, stale := writes, 0
			switch {
			case r.write:
				w++
				ordinal[r.val] = w
			case r.isNil:
				stale = writes + 1
			default:
				at, seen := ordinal[r.val]
				if !seen {
					continue // its write is not placed yet
				}
				stale = writes - at + 1
			}
			placed[i] = true
			place(n+1, w, max(worst, stale))
			placed[i] = false
			if r.write {
				delete(ordinal, r.val)
			}
		}
	}
	place(0, 0, 1)
	return best, best != math.MaxInt
}

// checkMinimalK holds the analyzer's k claim for one history to the
// brute-force minimum: wherever it reports no structural anomaly, the
// minimal k lies in [LowerBound, K], and is 1 exactly when K is.
func checkMinimalK(t *testing.T, ops []op.Op) {
	t.Helper()
	if len(ops) == 0 {
		return
	}
	a := check(history.MustNew(ops))
	for _, an := range a.Anomalies {
		if an.Type != anomaly.KAtomicViolation {
			return // a structural anomaly: the analysis makes no k claim
		}
	}
	kr := a.PerKey["x"]
	minK, ok := bruteMinimalK(ops)
	if !ok {
		t.Fatalf("no schedule places every read after its write, yet no structural anomaly: %+v\n%v", kr, ops)
	}
	if minK < kr.LowerBound || minK > kr.K {
		t.Fatalf("minimal k = %d outside the analyzer's [%d, %d]\n%v", minK, kr.LowerBound, kr.K, ops)
	}
	if (minK == 1) != (kr.K == 1) {
		t.Fatalf("minimal k = %d but the analyzer's K = %d\n%v", minK, kr.K, ops)
	}
}

// FuzzKAtomicMinimalK checks the analyzer's k claim against brute force
// on small committed single-register histories.
func FuzzKAtomicMinimalK(f *testing.F) {
	// TestStaleReadK2: write 1, write 2, then a read of 1.
	f.Add([]byte{0x0c, 0x00, 0x0c, 0x00, 0x01, 0x0a})
	// TestThreeDeepK3: three writes, then a read of the first.
	f.Add([]byte{0x0c, 0x00, 0x0c, 0x00, 0x0c, 0x00, 0x01, 0x0a})
	// TestNilStaleK2: a nil read strictly after a completed write.
	f.Add([]byte{0x0c, 0x00, 0x01, 0x01})
	f.Fuzz(func(t *testing.T, data []byte) {
		checkMinimalK(t, decodeCommittedHistory(data))
	})
}

// TestKAtomicMinimalKSeeded runs FuzzKAtomicMinimalK's property over a
// fixed-seed sample of histories, so every test run covers thousands of
// shapes rather than the seed corpus alone.
func TestKAtomicMinimalKSeeded(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	data := make([]byte, 16)
	for i := 0; i < 5000; i++ {
		n := 4 + rng.Intn(len(data)-3)
		rng.Read(data[:n])
		checkMinimalK(t, decodeCommittedHistory(data[:n]))
	}
}
