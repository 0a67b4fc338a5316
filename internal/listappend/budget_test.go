package listappend_test

import (
	"runtime"
	"testing"

	"repro/internal/gen"
	"repro/internal/listappend"
	"repro/internal/memdb"
	"repro/internal/workload"
)

// TestAnalyzeBytesPerOp pins what list-append allocates per history op
// on a fixed clean history. Analyze draws on no pool, so the figure
// repeats run to run; the budget is the measured 208 bytes plus 5%. Each
// way the analyzer used to hold a fact twice costs more than that
// headroom: per-key edge lists kept beside the graph they were merged
// into (~29 bytes per op here), or a copy of the committed ops instead
// of their positions in the history (56 bytes per committed op, 28 per
// op). With both, it measured 265.
func TestAnalyzeBytesPerOp(t *testing.T) {
	h := memdb.Run(memdb.RunConfig{
		Clients: 10, Txns: 3000, Isolation: memdb.StrictSerializable,
		Source: gen.New(gen.Config{ActiveKeys: 10, MaxWritesPerKey: 50}, 3), Seed: 3,
		Workload: memdb.WorkloadList,
	})
	opts := workload.Opts{Parallelism: 1}
	if an := listappend.Analyze(h, opts); len(an.Anomalies) != 0 {
		t.Fatalf("clean history reported %v", an.Anomalies)
	}
	const runs = 3
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		listappend.Analyze(h, opts)
	}
	runtime.ReadMemStats(&after)
	perOp := float64(after.TotalAlloc-before.TotalAlloc) / runs / float64(len(h.Ops))
	const budget = 208 * 1.05
	t.Logf("Analyze allocates %.1f bytes per op over %d ops (budget %.1f)", perOp, len(h.Ops), budget)
	if perOp > budget {
		t.Errorf("Analyze allocates %.1f bytes per op; budget %.1f", perOp, budget)
	}
}
