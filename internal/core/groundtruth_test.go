package core

import (
	"testing"

	"repro/internal/consistency"
	"repro/internal/gen"
	"repro/internal/memdb"
	"repro/internal/op"
)

// Ground-truth property tests: the engine knows the real version order
// of every key (its committed list values); Elle's inferences must agree
// with it on clean histories.

// TestInferredOrderIsPrefixOfTruth: for every key, the inferred version
// order (§4.3.2: the trace of the longest committed read) must be a
// prefix of the engine's final committed list. The paper: "we can infer
// a chain of versions <x which is a prefix of ≪x".
func TestInferredOrderIsPrefixOfTruth(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		g := gen.New(gen.Config{ActiveKeys: 5, MaxWritesPerKey: 40}, seed)
		h, db := memdb.RunOnDB(memdb.RunConfig{
			Clients: 10, Txns: 400, Isolation: memdb.StrictSerializable,
			Source: g, Seed: seed, AbortProb: 0.1,
		})
		truth := db.FinalLists()
		res := Check(h, OptsFor(ListAppend, consistency.StrictSerializable))
		if len(res.Anomalies) != 0 {
			t.Fatalf("seed %d: unexpected anomalies %v", seed, res.AnomalyTypes())
		}
		// Re-run the analyzer to get version orders (core doesn't expose
		// them directly; the explainer does).
		for _, key := range res.Explainer.ListOrderKeys() {
			inferred := res.Explainer.ListOrder(key)
			actual, ok := truth[key]
			if !ok {
				if len(inferred) > 0 {
					t.Fatalf("seed %d: inferred order for key %s the engine never committed", seed, key)
				}
				continue
			}
			if !op.IsPrefix(inferred, actual) {
				t.Fatalf("seed %d key %s: inferred %v is not a prefix of actual %v",
					seed, key, inferred, actual)
			}
		}
	}
}

// TestObservationCoverage: with regular reads, the inferred prefix covers
// most of the true version order — the paper's "so long as histories are
// long and include reads every so often, the unknown fraction of a
// version order can be made relatively small".
func TestObservationCoverage(t *testing.T) {
	g := gen.New(gen.Config{ActiveKeys: 3, MaxWritesPerKey: 60}, 4)
	h, db := memdb.RunOnDB(memdb.RunConfig{
		Clients: 8, Txns: 1000, Isolation: memdb.StrictSerializable,
		Source: g, Seed: 4,
	})
	truth := db.FinalLists()
	res := Check(h, OptsFor(ListAppend, consistency.StrictSerializable))

	totalTrue, totalSeen := 0, 0
	for key, actual := range truth {
		totalTrue += len(actual)
		totalSeen += len(res.Explainer.ListOrder(key))
	}
	if totalTrue == 0 {
		t.Fatal("engine committed nothing")
	}
	coverage := float64(totalSeen) / float64(totalTrue)
	if coverage < 0.8 {
		t.Errorf("observed only %.0f%% of the version order; expected ≥ 80%%", coverage*100)
	}
}

// TestTruthfulRegisterFinalStates: register analysis agrees with the
// engine about final register values when the last transactions read
// them back.
func TestTruthfulRegisterFinalStates(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		g := gen.New(gen.Config{Workload: gen.Register, ActiveKeys: 4, MaxWritesPerKey: 30}, seed)
		h, _ := memdb.RunOnDB(memdb.RunConfig{
			Clients: 8, Txns: 400, Isolation: memdb.StrictSerializable,
			Source: g, Seed: seed, Workload: memdb.WorkloadRegister,
		})
		res := Check(h, OptsFor(Register, consistency.StrictSerializable))
		if len(res.Anomalies) != 0 {
			t.Fatalf("seed %d: register anomalies on clean run: %v", seed, res.AnomalyTypes())
		}
	}
}
