package rwregister_test

import (
	"runtime"
	"testing"

	"repro/internal/gen"
	"repro/internal/memdb"
	"repro/internal/rwregister"
	"repro/internal/workload"
)

// TestAnalyzeAllocsPerOp pins how often register inference allocates
// per history op on a fixed clean history, under every inference rule.
// Analyze draws on no pool, so the count repeats run to run; the budget
// is the measured figure plus 5%. A version is carried as its value
// from inference to explanation: spelling each reported version edge
// as a pair of decimal strings instead costs more than that headroom:
// the analyzer that did measured 3.18 allocations per op here, where
// the typed pairs measure 2.21.
func TestAnalyzeAllocsPerOp(t *testing.T) {
	h := memdb.Run(memdb.RunConfig{
		Clients: 10, Txns: 3000, Isolation: memdb.StrictSerializable,
		Source: gen.New(gen.Config{Workload: gen.Register, ActiveKeys: 10, MaxWritesPerKey: 50}, 3), Seed: 3,
		Workload: memdb.WorkloadRegister,
	})
	opts := workload.Opts{KeyConsistency: workload.LinearizableKeys}
	opts.Parallelism = 1
	if an := rwregister.Analyze(h, opts); len(an.Anomalies) != 0 {
		t.Fatalf("clean history reported %v", an.Anomalies)
	}
	const runs = 3
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		rwregister.Analyze(h, opts)
	}
	runtime.ReadMemStats(&after)
	perOp := float64(after.Mallocs-before.Mallocs) / runs / float64(len(h.Ops))
	const budget = 2.21 * 1.05
	t.Logf("Analyze makes %.2f allocations per op over %d ops (budget %.2f)", perOp, len(h.Ops), budget)
	if perOp > budget {
		t.Errorf("Analyze makes %.2f allocations per op; budget %.2f", perOp, budget)
	}
}
