package gen

import (
	"testing"

	"repro/internal/op"
)

func TestUniqueWriteArguments(t *testing.T) {
	g := New(Config{ActiveKeys: 3, MaxWritesPerKey: 10}, 1)
	seen := map[int]bool{}
	for i := 0; i < 2000; i++ {
		for _, m := range g.Next() {
			if !m.IsWrite() {
				continue
			}
			if seen[m.Arg] {
				t.Fatalf("write argument %d repeated", m.Arg)
			}
			seen[m.Arg] = true
		}
	}
	if len(seen) == 0 {
		t.Fatal("generator produced no writes")
	}
}

func TestTxnLengthBounds(t *testing.T) {
	g := New(Config{MinOps: 2, MaxOps: 6}, 2)
	for i := 0; i < 1000; i++ {
		n := len(g.Next())
		if n < 2 || n > 6 {
			t.Fatalf("transaction length %d outside [2, 6]", n)
		}
	}
}

func TestKeyRotation(t *testing.T) {
	g := New(Config{ActiveKeys: 2, MaxWritesPerKey: 3, MinOps: 1, MaxOps: 1}, 3)
	writes := map[string]int{}
	for i := 0; i < 500; i++ {
		for _, m := range g.Next() {
			if m.IsWrite() {
				writes[m.Key]++
			}
		}
	}
	if len(writes) < 10 {
		t.Fatalf("keys never rotated: %d distinct keys", len(writes))
	}
	for k, n := range writes {
		if n > 3 {
			t.Errorf("key %s received %d writes, cap is 3", k, n)
		}
	}
}

func TestRegisterWorkload(t *testing.T) {
	g := New(Config{Workload: Register}, 4)
	sawWrite := false
	for i := 0; i < 100; i++ {
		for _, m := range g.Next() {
			if m.IsWrite() {
				sawWrite = true
				if m.F != op.FWrite {
					t.Fatalf("register workload emitted %v", m.F)
				}
			}
		}
	}
	if !sawWrite {
		t.Fatal("no writes generated")
	}
}

func TestListWorkloadEmitsAppends(t *testing.T) {
	g := New(Config{}, 5)
	for i := 0; i < 100; i++ {
		for _, m := range g.Next() {
			if m.IsWrite() && m.F != op.FAppend {
				t.Fatalf("list workload emitted %v", m.F)
			}
		}
	}
}

func TestDeterministicForSeed(t *testing.T) {
	a, b := New(Config{}, 7), New(Config{}, 7)
	for i := 0; i < 200; i++ {
		ma, mb := a.Next(), b.Next()
		if len(ma) != len(mb) {
			t.Fatalf("lengths diverge at txn %d", i)
		}
		for j := range ma {
			if ma[j].F != mb[j].F || ma[j].Key != mb[j].Key || ma[j].Arg != mb[j].Arg {
				t.Fatalf("mop %d/%d diverges: %v vs %v", i, j, ma[j], mb[j])
			}
		}
	}
}

func TestActiveKeyCountStable(t *testing.T) {
	g := New(Config{ActiveKeys: 7, MaxWritesPerKey: 2}, 8)
	for i := 0; i < 300; i++ {
		g.Next()
		if got := len(g.Keys()); got != 7 {
			t.Fatalf("active key count drifted to %d", got)
		}
	}
}

func TestDefaults(t *testing.T) {
	g := New(Config{}, 9)
	if len(g.Keys()) != 5 {
		t.Errorf("default active keys = %d, want 5", len(g.Keys()))
	}
	for i := 0; i < 100; i++ {
		if n := len(g.Next()); n < 1 || n > 5 {
			t.Errorf("default txn length %d outside [1, 5]", n)
		}
	}
}

func TestSetWorkloadEmitsAdds(t *testing.T) {
	g := New(Config{Workload: Set}, 10)
	saw := false
	for i := 0; i < 100; i++ {
		for _, m := range g.Next() {
			if m.IsWrite() {
				saw = true
				if m.F != op.FAdd {
					t.Fatalf("set workload emitted %v", m.F)
				}
			}
		}
	}
	if !saw {
		t.Fatal("no adds generated")
	}
}

func TestCounterWorkloadEmitsIncrements(t *testing.T) {
	g := New(Config{Workload: Counter}, 11)
	saw := false
	for i := 0; i < 100; i++ {
		for _, m := range g.Next() {
			if m.IsWrite() {
				saw = true
				if m.F != op.FIncrement {
					t.Fatalf("counter workload emitted %v", m.F)
				}
				if m.Arg < 1 || m.Arg > 3 {
					t.Fatalf("increment delta %d outside [1, 3]", m.Arg)
				}
			}
		}
	}
	if !saw {
		t.Fatal("no increments generated")
	}
}

func TestNoReadAfterWrite(t *testing.T) {
	g := New(Config{NoReadAfterWrite: true, MinOps: 4, MaxOps: 8}, 12)
	for i := 0; i < 500; i++ {
		written := map[string]bool{}
		for _, m := range g.Next() {
			if m.IsWrite() {
				written[m.Key] = true
			} else if written[m.Key] {
				t.Fatalf("txn %d reads key %s after writing it", i, m.Key)
			}
		}
	}
}

func TestBankWorkloadShapes(t *testing.T) {
	g := New(Config{Workload: Bank, ActiveKeys: 4}, 9)
	accounts := map[string]bool{}
	for _, k := range g.Keys() {
		accounts[k] = true
	}
	sawTransfer, sawReadAll := false, false
	for i := 0; i < 500; i++ {
		mops := g.Next()
		writes := 0
		deltaSum := 0
		for _, m := range mops {
			if !accounts[m.Key] {
				t.Fatalf("txn %d touches unknown account %q (accounts never retire)", i, m.Key)
			}
			if m.IsWrite() {
				if m.F != op.FWrite {
					t.Fatalf("bank workload emitted %v", m.F)
				}
				writes++
				deltaSum += m.Arg
			}
		}
		switch writes {
		case 0:
			// Read-all: one read per account.
			sawReadAll = true
			if len(mops) != len(accounts) {
				t.Fatalf("txn %d reads %d of %d accounts", i, len(mops), len(accounts))
			}
		case 2:
			// Transfer: deltas conserve money and follow two reads.
			sawTransfer = true
			if deltaSum != 0 {
				t.Fatalf("txn %d deltas sum to %d, money not conserved", i, deltaSum)
			}
			if len(mops) != 4 || !mops[0].IsRead() || !mops[1].IsRead() {
				t.Fatalf("txn %d is not read-read-write-write: %v", i, mops)
			}
		default:
			t.Fatalf("txn %d has %d writes", i, writes)
		}
	}
	if !sawTransfer || !sawReadAll {
		t.Fatalf("missing shapes: transfer=%v readAll=%v", sawTransfer, sawReadAll)
	}
}
