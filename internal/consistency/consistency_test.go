package consistency

import (
	"reflect"
	"testing"

	"repro/internal/anomaly"
)

func TestImpliesReflexiveAndTransitive(t *testing.T) {
	for _, m := range All {
		if !Implies(m, m) {
			t.Errorf("%s should imply itself", m)
		}
	}
	if !Implies(StrictSerializable, ReadUncommitted) {
		t.Error("strict-serializable should imply read-uncommitted")
	}
	if !Implies(Serializable, SnapshotIsolation) {
		t.Error("serializable should imply snapshot isolation")
	}
	if !Implies(Serializable, RepeatableRead) {
		t.Error("serializable should imply repeatable read")
	}
	if Implies(SnapshotIsolation, RepeatableRead) {
		t.Error("SI must not imply repeatable read (they are incomparable)")
	}
	if Implies(RepeatableRead, SnapshotIsolation) {
		t.Error("repeatable read must not imply SI")
	}
	if Implies(Serializable, StrictSerializable) {
		t.Error("serializable must not imply strict serializability")
	}
}

func TestG0ViolatesEverything(t *testing.T) {
	v := Violated([]anomaly.Type{anomaly.G0})
	if len(v) != len(All) {
		t.Errorf("G0 should violate all %d models, violated %d: %v", len(All), len(v), v)
	}
}

func TestG1cViolations(t *testing.T) {
	types := []anomaly.Type{anomaly.G1c}
	if Holds(ReadUncommitted, types) == false {
		t.Error("G1c alone should not rule out read-uncommitted")
	}
	for _, m := range []Model{ReadCommitted, RepeatableRead, SnapshotIsolation, Serializable, StrictSerializable} {
		if Holds(m, types) {
			t.Errorf("G1c should rule out %s", m)
		}
	}
}

func TestGSingleViolations(t *testing.T) {
	types := []anomaly.Type{anomaly.GSingle}
	if !Holds(ReadCommitted, types) {
		t.Error("G-single should not rule out read committed")
	}
	if Holds(SnapshotIsolation, types) {
		t.Error("G-single (read skew) should rule out SI")
	}
	if Holds(RepeatableRead, types) {
		t.Error("G-single should rule out repeatable read")
	}
	if Holds(Serializable, types) {
		t.Error("G-single should rule out serializability")
	}
}

func TestG2ItemViolations(t *testing.T) {
	types := []anomaly.Type{anomaly.G2Item}
	// Write skew is legal under SI.
	if !Holds(SnapshotIsolation, types) {
		t.Error("G2-item alone should not rule out SI")
	}
	if Holds(Serializable, types) {
		t.Error("G2-item should rule out serializability")
	}
	if Holds(RepeatableRead, types) {
		t.Error("G2-item should rule out repeatable read")
	}
	if !Holds(ReadCommitted, types) {
		t.Error("G2-item should not rule out read committed")
	}
}

func TestRealtimeCycleViolatesOnlyStrict(t *testing.T) {
	types := []anomaly.Type{anomaly.G2ItemRealtime}
	if Holds(StrictSerializable, types) {
		t.Error("realtime G2 should rule out strict serializability")
	}
	if !Holds(Serializable, types) {
		t.Error("realtime G2 should not rule out plain serializability")
	}
	if !Holds(SnapshotIsolation, types) {
		t.Error("realtime G2 should not rule out SI")
	}
}

func TestProcessCycleViolatesStrongSession(t *testing.T) {
	types := []anomaly.Type{anomaly.GSingleProcess}
	if Holds(StrongSessionSI, types) {
		t.Error("process G-single should rule out strong-session SI")
	}
	if Holds(StrictSerializable, types) {
		t.Error("process G-single should rule out strict serializability")
	}
	if !Holds(SnapshotIsolation, types) {
		t.Error("process G-single should not rule out plain SI")
	}
}

func TestMaySatisfyAndStrongest(t *testing.T) {
	// With no anomalies everything may hold; the strongest is
	// strict-serializable alone.
	s := Strongest(nil)
	if len(s) != 1 || s[0] != StrictSerializable {
		t.Errorf("Strongest(nil) = %v", s)
	}
	// After G-single, RC survives but SI and RR do not.
	may := MaySatisfy([]anomaly.Type{anomaly.GSingle})
	for _, m := range may {
		if m == SnapshotIsolation || m == RepeatableRead || m == Serializable {
			t.Errorf("MaySatisfy contains violated model %s", m)
		}
	}
	st := Strongest([]anomaly.Type{anomaly.GSingle})
	if len(st) != 1 || st[0] != ReadCommitted {
		t.Errorf("Strongest after G-single = %v, want [read-committed]", st)
	}
}

func TestStrongestAfterG2Item(t *testing.T) {
	// Write skew leaves SI as the strongest surviving model (strong
	// session variants fall with their base? no: they imply SI only).
	st := Strongest([]anomaly.Type{anomaly.G2Item})
	// G2-item violates RR, serializable, and everything implying them,
	// leaving strong-session SI as the maximal survivor.
	if len(st) != 1 || st[0] != StrongSessionSI {
		t.Errorf("Strongest after G2-item = %v, want [strong-session-snapshot-isolation]", st)
	}
}

func TestViolatedIsMonotone(t *testing.T) {
	// Adding anomalies can only grow the violated set.
	a := Violated([]anomaly.Type{anomaly.G2Item})
	b := Violated([]anomaly.Type{anomaly.G2Item, anomaly.G1a})
	if len(b) < len(a) {
		t.Errorf("violated set shrank: %d -> %d", len(a), len(b))
	}
	inA := map[Model]bool{}
	for _, m := range a {
		inA[m] = true
	}
	for _, m := range a {
		found := false
		for _, n := range b {
			if n == m {
				found = true
			}
		}
		if !found {
			t.Errorf("model %s lost when adding anomalies", m)
		}
	}
	_ = inA
}

func TestEveryAnomalyTypeHasAMapping(t *testing.T) {
	types := []anomaly.Type{
		anomaly.G0, anomaly.G1a, anomaly.G1b, anomaly.G1c,
		anomaly.GSingle, anomaly.G2Item,
		anomaly.G0Process, anomaly.G1cProcess, anomaly.GSingleProcess, anomaly.G2ItemProcess,
		anomaly.G0Realtime, anomaly.G1cRealtime, anomaly.GSingleRealtime, anomaly.G2ItemRealtime,
		anomaly.G0Timestamp, anomaly.G1cTimestamp, anomaly.GSingleTimestamp, anomaly.G2ItemTimestamp,
		anomaly.DirtyUpdate, anomaly.LostUpdate, anomaly.GarbageRead,
		anomaly.DuplicateElements, anomaly.DuplicateAppends,
		anomaly.Internal, anomaly.IncompatibleOrder, anomaly.CyclicVersionOrder,
	}
	for _, typ := range types {
		if v := Violated([]anomaly.Type{typ}); len(v) == 0 {
			t.Errorf("anomaly %s rules out no models", typ)
		}
	}
}

// TestRepeatedTypesFoldOnce: the checker hands the lattice one type per
// anomaly instance, so a faulted history is tens of thousands of entries
// over a handful of distinct types, in runs (the report is sorted) or
// not. The verdict is that of the deduplicated slice.
func TestRepeatedTypesFoldOnce(t *testing.T) {
	distinct := []anomaly.Type{anomaly.GSingleRealtime, anomaly.LostUpdate, anomaly.G2ItemProcess, anomaly.CyclicVersionOrder}
	var runs, mixed []anomaly.Type
	for i := 0; i < 20000; i++ {
		runs = append(runs, distinct[i*len(distinct)/20000])
		mixed = append(mixed, distinct[i*7%len(distinct)])
	}
	for name, repeated := range map[string][]anomaly.Type{"runs": runs, "interleaved": mixed} {
		if got, want := Violated(repeated), Violated(distinct); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: Violated = %v, want %v", name, got, want)
		}
		if got, want := Strongest(repeated), Strongest(distinct); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: Strongest = %v, want %v", name, got, want)
		}
		for _, m := range All {
			if got, want := Holds(m, repeated), Holds(m, distinct); got != want {
				t.Errorf("%s: Holds(%s) = %v, want %v", name, m, got, want)
			}
		}
	}
	if v := Violated(distinct); len(v) == 0 || len(v) == len(All) {
		t.Fatalf("the fixture should rule out some models and leave some: %v", v)
	}
}
