package core

import (
	"testing"

	"repro/internal/anomaly"
	"repro/internal/consistency"
	"repro/internal/gen"
	"repro/internal/memdb"
)

// These integration tests exercise the paper's Theorem 1 (soundness) and
// §7's effectiveness claims end-to-end: histories generated against the
// in-memory database at a given isolation level must check clean at that
// level, and each injected bug family must surface its case-study anomaly
// signature.

func runList(seed int64, clients, txns int, iso memdb.Isolation, f memdb.Faults, abortProb, infoProb float64) *CheckResult {
	g := gen.New(gen.Config{ActiveKeys: 5, MaxWritesPerKey: 40, MinOps: 1, MaxOps: 5}, seed)
	h := memdb.Run(memdb.RunConfig{
		Clients: clients, Txns: txns, Isolation: iso, Faults: f,
		Source: g, Seed: seed, AbortProb: abortProb, InfoProb: infoProb,
	})
	model := consistency.Serializable
	switch iso {
	case memdb.StrictSerializable:
		model = consistency.StrictSerializable
	case memdb.SnapshotIsolation:
		model = consistency.SnapshotIsolation
	case memdb.ReadCommitted:
		model = consistency.ReadCommitted
	case memdb.ReadUncommitted:
		model = consistency.ReadUncommitted
	}
	return Check(h, OptsFor(ListAppend, model))
}

// TestSoundnessSerializable: across many seeds, a faultless serializable
// database never triggers any anomaly — Elle has no false positives.
func TestSoundnessSerializable(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		r := runList(seed, 8, 300, memdb.Serializable, memdb.Faults{}, 0, 0)
		if len(r.Anomalies) != 0 {
			t.Fatalf("seed %d: false positives on serializable history:\n%s\n%s",
				seed, r.Summary(), r.Anomalies[0].Explanation)
		}
	}
}

// TestSoundnessStrictSerializable: the same holds with realtime and
// session edges enabled, and with aborts and indeterminate results in the
// mix.
func TestSoundnessStrictSerializable(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		r := runList(seed, 10, 300, memdb.StrictSerializable, memdb.Faults{}, 0.1, 0.05)
		if len(r.Anomalies) != 0 {
			t.Fatalf("seed %d: false positives on strict-serializable history:\n%s\n%s",
				seed, r.Summary(), r.Anomalies[0].Explanation)
		}
	}
}

// TestSoundnessSnapshotIsolation: a faultless SI database may exhibit
// write skew (G2-item), which SI permits — but never G-single, G1, G0, or
// non-cycle anomalies. The SI check must pass.
func TestSoundnessSnapshotIsolation(t *testing.T) {
	sawWriteSkew := false
	for seed := int64(0); seed < 40; seed++ {
		r := runList(seed, 10, 400, memdb.SnapshotIsolation, memdb.Faults{}, 0, 0)
		if !r.Valid {
			t.Fatalf("seed %d: SI database failed its own level:\n%s\n%s",
				seed, r.Summary(), r.Anomalies[0].Explanation)
		}
		for _, typ := range r.AnomalyTypes() {
			switch typ {
			case anomaly.G2Item:
				sawWriteSkew = true
			default:
				t.Fatalf("seed %d: SI database produced %s", seed, typ)
			}
		}
	}
	if !sawWriteSkew {
		t.Error("no write skew in 40 SI runs; contention too low to be a meaningful test")
	}
}

// TestEffectivenessReadCommitted: read committed's unvalidated
// read-modify-writes lose updates, which Elle reports (as the paper notes
// for TiDB, lost updates manifest as inconsistent observations implying
// aborted reads, alongside cycles). Serializability must be refuted.
func TestEffectivenessReadCommitted(t *testing.T) {
	refuted := false
	for seed := int64(0); seed < 10; seed++ {
		r := runList(seed, 10, 400, memdb.ReadCommitted, memdb.Faults{}, 0, 0)
		if !consistency.Holds(consistency.Serializable, r.AnomalyTypes()) {
			refuted = true
			break
		}
	}
	if !refuted {
		t.Fatal("read-committed database passed serializability in all 10 runs")
	}
}

// TestEffectivenessReadUncommitted: immediate visibility plus aborts that
// fail to roll back yield aborted reads (G1a) and dirty updates.
func TestEffectivenessReadUncommitted(t *testing.T) {
	var types []anomaly.Type
	for seed := int64(0); seed < 10; seed++ {
		r := runList(seed, 10, 300, memdb.ReadUncommitted, memdb.Faults{}, 0.3, 0)
		types = append(types, r.AnomalyTypes()...)
	}
	has := func(want anomaly.Type) bool {
		for _, typ := range types {
			if typ == want {
				return true
			}
		}
		return false
	}
	if !has(anomaly.G1a) {
		t.Errorf("no G1a across RU runs; found %v", types)
	}
	if !has(anomaly.DirtyUpdate) {
		t.Errorf("no dirty updates across RU runs; found %v", types)
	}
}

// TestSoundnessRegisterWorkload: a faultless strict-serializable database
// under the register workload checks clean, including per-key
// linearizability inference.
func TestSoundnessRegisterWorkload(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		g := gen.New(gen.Config{Workload: gen.Register, ActiveKeys: 5, MaxWritesPerKey: 40}, seed)
		h := memdb.Run(memdb.RunConfig{
			Clients: 8, Txns: 300, Isolation: memdb.StrictSerializable,
			Source: g, Seed: seed, Workload: memdb.WorkloadRegister,
		})
		r := Check(h, OptsFor(Register, consistency.StrictSerializable))
		if len(r.Anomalies) != 0 {
			t.Fatalf("seed %d: register false positives:\n%s\n%s",
				seed, r.Summary(), r.Anomalies[0].Explanation)
		}
	}
}

// TestIndeterminateResultsStaySound: heavy info/abort injection must not
// create false positives on a serializable engine.
func TestIndeterminateResultsStaySound(t *testing.T) {
	for seed := int64(0); seed < 15; seed++ {
		r := runList(seed, 10, 300, memdb.StrictSerializable, memdb.Faults{}, 0.2, 0.3)
		if len(r.Anomalies) != 0 {
			t.Fatalf("seed %d: info-heavy run has false positives:\n%s\n%s",
				seed, r.Summary(), r.Anomalies[0].Explanation)
		}
	}
}
