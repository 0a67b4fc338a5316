package katomic

import (
	"reflect"
	"testing"

	"repro/internal/anomaly"
	"repro/internal/history"
	"repro/internal/op"
)

// decodeFuzzHistory turns raw bytes into a well-formed (possibly
// truncated) register history over one key and four processes. Each
// byte pair is one event: if the selected process has no outstanding
// invocation the pair invokes a read or a write, otherwise it completes
// the outstanding op with an OK/Fail/Info outcome. Values are folded
// into a small space so duplicate writes, garbage reads, and nil
// observations all occur; invocations left open at the end model
// crashed clients.
func decodeFuzzHistory(data []byte) []op.Op {
	const procs = 4
	type pending struct {
		active bool
		write  bool
		val    int
	}
	var open [procs]pending
	var ops []op.Op
	idx := 0
	for i := 0; i+1 < len(data); i += 2 {
		b, v := data[i], int(data[i+1]%6)
		p := int(b % procs)
		if !open[p].active {
			m := op.Read("x")
			if b&4 != 0 {
				m = op.Write("x", v)
			}
			ops = append(ops, op.Op{Index: idx, Process: p, Type: op.Invoke, Mops: []op.Mop{m}})
			open[p] = pending{active: true, write: b&4 != 0, val: v}
			idx++
			continue
		}
		var typ op.Type
		switch (b >> 3) % 4 {
		case 2:
			typ = op.Fail
		case 3:
			typ = op.Info
		default:
			typ = op.OK
		}
		var m op.Mop
		switch {
		case open[p].write:
			m = op.Write("x", open[p].val)
		case v == 0:
			m = op.ReadNil("x")
		default:
			m = op.ReadReg("x", v)
		}
		ops = append(ops, op.Op{Index: idx, Process: p, Type: typ, Mops: []op.Mop{m}})
		open[p] = pending{}
		idx++
	}
	return ops
}

// FuzzKAtomicCheck drives the zone analysis with arbitrary histories
// and checks its invariants: no panics, determinism, the lower bound
// never exceeds the certified K, K >= 2 exactly when a violation is
// reported (per key, with the anomaly carrying that K).
func FuzzKAtomicCheck(f *testing.F) {
	f.Add([]byte{})
	// Sequential write 1, write 2, then a stale read of 1.
	f.Add([]byte{0x04, 0x01, 0x00, 0x00, 0x04, 0x02, 0x00, 0x00, 0x01, 0x00, 0x01, 0x01})
	// Two committed writes of the same value.
	f.Add([]byte{0x04, 0x01, 0x00, 0x00, 0x04, 0x01, 0x00, 0x00})
	// A nil read strictly after a committed write.
	f.Add([]byte{0x04, 0x01, 0x00, 0x00, 0x01, 0x00, 0x01, 0x00})
	// A crashed writer whose value a later read observes.
	f.Add([]byte{0x04, 0x01, 0x01, 0x00, 0x01, 0x01})

	f.Fuzz(func(t *testing.T, data []byte) {
		ops := decodeFuzzHistory(data)
		h := history.MustNew(ops)
		a := check(h)
		b := check(history.MustNew(ops))
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("nondeterministic analysis:\n%+v\n%+v", a, b)
		}

		violations := map[string]int{} // key -> reported K
		for _, an := range a.Anomalies {
			if an.Type == anomaly.KAtomicViolation {
				if _, dup := violations[an.Key]; dup {
					t.Fatalf("two violations for key %s", an.Key)
				}
				if an.K < 2 {
					t.Fatalf("violation with K = %d", an.K)
				}
				violations[an.Key] = an.K
			}
		}

		maxK := 0
		for key, kr := range a.PerKey {
			if kr.Skipped {
				if kr.K != 0 {
					t.Fatalf("key %s skipped but K = %d", key, kr.K)
				}
				if _, has := violations[key]; has {
					t.Fatalf("key %s skipped yet reported a violation", key)
				}
				continue
			}
			if kr.K < 1 || kr.LowerBound < 1 || kr.LowerBound > kr.K {
				t.Fatalf("key %s bounds out of order: %+v", key, kr)
			}
			vk, has := violations[key]
			if (kr.K >= 2) != has {
				t.Fatalf("key %s K = %d but violation reported = %v", key, kr.K, has)
			}
			if has && vk != kr.K {
				t.Fatalf("key %s anomaly K %d != result K %d", key, vk, kr.K)
			}
			if kr.K > maxK {
				maxK = kr.K
			}
		}
		if a.K != maxK {
			t.Fatalf("result.K = %d, want max per-key %d", a.K, maxK)
		}
	})
}
