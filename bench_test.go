// Package repro_test holds the benchmark harness that regenerates every
// figure in the paper's evaluation (§7), and runs the stable suite:
//
//   - BenchmarkSuite: internal/bench's cases, the suite cmd/ellebench
//     records and CI gates on allocs/op (docs/BENCHMARKS.md). They are
//     defined there, once; this runs them under `go test -bench`.
//   - BenchmarkFigure4Elle / BenchmarkFigure4Knossos: runtime vs history
//     length for various concurrencies (Figure 4). Run the full sweep
//     with `go run ./cmd/elleperf`; these benches cover the same grid at
//     benchmark-friendly sizes.
//   - BenchmarkCase*: the §7.1–§7.4 case-study campaigns (history
//     generation + checking).
//   - BenchmarkFigure2Explain: rendering a Figure 2-style counterexample.
//   - BenchmarkAblation*: costs of the design choices DESIGN.md calls
//     out — per-analyzer inference, cycle-search masks, and the
//     real-time transitive reduction.
package repro_test

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/casestudy"
	"repro/internal/consistency"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/history"
	"repro/internal/memdb"
	"repro/internal/op"
	"repro/internal/perf"
	"repro/internal/rwregister"
	"repro/internal/serialcheck"
	"repro/internal/txngraph"
	"repro/internal/workload"
)

// BenchmarkSuite runs every internal/bench case as a sub-benchmark under
// its BENCH_*.json name.
func BenchmarkSuite(b *testing.B) {
	for _, c := range bench.Cases() {
		b.Run(c.Name, c.F)
	}
}

// BenchmarkFigure4Elle measures Elle's checking time across the Figure 4
// grid. Elle is near-linear in history length and effectively constant in
// concurrency.
func BenchmarkFigure4Elle(b *testing.B) {
	for _, c := range []int{1, 5, 10, 20, 40, 100} {
		for _, n := range []int{1000, 5000, 20000} {
			h := perf.GenerateHistory(n, c, 1)
			opts := core.OptsFor(core.ListAppend, consistency.StrictSerializable)
			b.Run(fmt.Sprintf("n=%d/c=%d", n, c), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					r := core.Check(h, opts)
					if !r.Valid {
						b.Fatalf("clean history invalid: %v", r.AnomalyTypes())
					}
				}
			})
		}
	}
}

// BenchmarkFigure4Knossos measures the baseline on the same workloads.
// Note how runtime rises with concurrency at fixed n — the c! search
// space — where Elle's does not. Sizes are kept small so the benchmark
// suite terminates; the paper capped Knossos at 100 s and still saw
// timeouts at c ≥ 40.
func BenchmarkFigure4Knossos(b *testing.B) {
	for _, c := range []int{1, 5, 10} {
		for _, n := range []int{200, 1000} {
			h := perf.GenerateHistory(n, c, 1)
			b.Run(fmt.Sprintf("n=%d/c=%d", n, c), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					r := serialcheck.Check(h, serialcheck.Opts{Timeout: 30 * time.Second})
					if r.Outcome == serialcheck.NotSerializable {
						b.Fatal("clean history rejected")
					}
				}
			})
		}
	}
}

// BenchmarkCase* regenerate the four §7 campaigns end to end (workload
// execution with fault injection, then checking).
func benchmarkCase(b *testing.B, name string) {
	s, ok := casestudy.Find(name)
	if !ok {
		b.Fatalf("unknown scenario %s", name)
	}
	cfg := casestudy.Config{Clients: 10, Txns: 1000, Seed: 1}
	for i := 0; i < b.N; i++ {
		r := casestudy.Run(s, cfg)
		if !r.Reproduced {
			b.Fatalf("%s signature not reproduced: missing %v, forbidden %v",
				name, r.MissingExpected, r.FoundForbidden)
		}
	}
}

func BenchmarkCaseTiDB(b *testing.B)     { benchmarkCase(b, "tidb") }
func BenchmarkCaseYugaByte(b *testing.B) { benchmarkCase(b, "yugabyte") }
func BenchmarkCaseFauna(b *testing.B)    { benchmarkCase(b, "fauna") }
func BenchmarkCaseDgraph(b *testing.B)   { benchmarkCase(b, "dgraph") }

// BenchmarkFigure2Explain measures producing a Figure 2-style textual
// counterexample plus the Figure 3 DOT rendering for a detected cycle.
func BenchmarkFigure2Explain(b *testing.B) {
	h := figure2History()
	opts := core.OptsFor(core.ListAppend, consistency.Serializable)
	res := core.Check(h, opts)
	if res.Valid {
		b.Fatal("figure 2 history should have a cycle")
	}
	var cyc graph.Cycle
	for _, a := range res.Anomalies {
		if len(a.Cycle.Steps) > 0 {
			cyc = a.Cycle
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = res.Explainer.Cycle(cyc)
		_ = res.Explainer.DOT(cyc)
	}
}

func figure2History() *history.History {
	return history.MustNew([]op.Op{
		op.Txn(0, 0, op.OK, op.Append("253", 1), op.Append("253", 3), op.Append("253", 4)),
		op.Txn(1, 0, op.OK, op.Append("255", 2), op.Append("255", 3), op.Append("255", 4), op.Append("255", 5)),
		op.Txn(2, 0, op.OK, op.Append("256", 1), op.Append("256", 2)),
		op.Txn(10, 1, op.OK,
			op.Append("250", 10), op.ReadList("253", []int{1, 3, 4}),
			op.ReadList("255", []int{2, 3, 4, 5}), op.Append("256", 3)),
		op.Txn(11, 2, op.OK,
			op.Append("255", 8), op.ReadList("253", []int{1, 3, 4})),
		op.Txn(12, 3, op.OK,
			op.Append("256", 4), op.ReadList("255", []int{2, 3, 4, 5, 8}),
			op.ReadList("256", []int{1, 2, 4}), op.ReadList("253", []int{1, 3, 4})),
		op.Txn(13, 4, op.OK, op.ReadList("256", []int{1, 2, 4, 3})),
	})
}

// BenchmarkAblationWorkloads compares the cost of dependency inference
// per workload type on equal-size histories: list-append (traceable,
// full inference) vs registers (partial version orders) vs sets
// (recoverable but order-free: wr and rw edges only).
func BenchmarkAblationWorkloads(b *testing.B) {
	const n, c = 5000, 10
	b.Run("list-append", func(b *testing.B) {
		g := gen.New(gen.Config{ActiveKeys: 20, MaxWritesPerKey: 100}, 1)
		h := memdb.Run(memdb.RunConfig{
			Clients: c, Txns: n, Isolation: memdb.StrictSerializable,
			Source: g, Seed: 1,
		})
		opts := core.OptsFor(core.ListAppend, consistency.StrictSerializable)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			core.Check(h, opts)
		}
	})
	b.Run("rw-register", func(b *testing.B) {
		g := gen.New(gen.Config{Workload: gen.Register, ActiveKeys: 20, MaxWritesPerKey: 100}, 1)
		h := memdb.Run(memdb.RunConfig{
			Clients: c, Txns: n, Isolation: memdb.StrictSerializable,
			Source: g, Seed: 1, Register: true,
		})
		opts := core.OptsFor(core.Register, consistency.StrictSerializable)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			core.Check(h, opts)
		}
	})
	b.Run("set-add", func(b *testing.B) {
		g := gen.New(gen.Config{Workload: gen.Set, ActiveKeys: 20, MaxWritesPerKey: 100}, 1)
		h := memdb.Run(memdb.RunConfig{
			Clients: c, Txns: n, Isolation: memdb.StrictSerializable,
			Source: g, Seed: 1, Workload: memdb.WorkloadSet,
		})
		opts := core.OptsFor(core.SetAdd, consistency.StrictSerializable)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			core.Check(h, opts)
		}
	})
}

// BenchmarkAblationCycleSearch isolates the §6 cycle searches on a large
// dependency graph with injected write skew, by search mask.
func BenchmarkAblationCycleSearch(b *testing.B) {
	g := gen.New(gen.Config{ActiveKeys: 10, MaxWritesPerKey: 100}, 3)
	h := memdb.Run(memdb.RunConfig{
		Clients: 20, Txns: 10000, Isolation: memdb.SnapshotIsolation,
		Source: g, Seed: 3,
	})
	res := core.Check(h, core.OptsFor(core.ListAppend, consistency.SnapshotIsolation))
	dep := res.Graph
	b.Run("G0-ww-only", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			dep.FindCycles(graph.KSWW)
		}
	})
	b.Run("G1c-ww-wr", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			dep.FindCycles(graph.KSWWWR)
		}
	})
	b.Run("G-single-one-rw", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			dep.FindCyclesWithExactlyOne(graph.RW, graph.KSWWWR)
		}
	})
	b.Run("G2-at-least-one-rw", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			dep.FindCyclesWithAtLeastOne(graph.RW, graph.KSDep)
		}
	})
}

// BenchmarkAblationRealtimeReduction measures the O(n·p) transitive
// reduction of the real-time order (§5.1) on large histories.
func BenchmarkAblationRealtimeReduction(b *testing.B) {
	for _, c := range []int{10, 100} {
		h := perf.GenerateHistory(20000, c, 1)
		b.Run(fmt.Sprintf("n=20000/p=%d", c), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				txngraph.RealtimeGraph(h)
			}
		})
	}
}

// BenchmarkHistoryGeneration isolates the cost of the workload substrate
// itself (generator + engine + recorder), to separate it from checking
// time in the Figure 4 numbers.
func BenchmarkHistoryGeneration(b *testing.B) {
	for _, n := range []int{1000, 10000} {
		b.Run(fmt.Sprintf("n=%d/c=10", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				perf.GenerateHistory(n, 10, int64(i))
			}
		})
	}
}

// BenchmarkAblationWritesPerKey sweeps the paper's writes-per-object
// dimension (1 to 1024): narrow keys stress object creation; wide keys
// grow version histories and read values, which dominates checking cost.
func BenchmarkAblationWritesPerKey(b *testing.B) {
	for _, width := range []int{1, 10, 100, 1024} {
		g := gen.New(gen.Config{ActiveKeys: 5, MaxWritesPerKey: width}, 1)
		h := memdb.Run(memdb.RunConfig{
			Clients: 10, Txns: 5000, Isolation: memdb.StrictSerializable,
			Source: g, Seed: 1,
		})
		opts := core.OptsFor(core.ListAppend, consistency.StrictSerializable)
		b.Run(fmt.Sprintf("width=%d", width), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				core.Check(h, opts)
			}
		})
	}
}

// BenchmarkAblationRegisterRules isolates the cost of each §5.2 register
// inference rule on the same history.
func BenchmarkAblationRegisterRules(b *testing.B) {
	g := gen.New(gen.Config{Workload: gen.Register, ActiveKeys: 10, MaxWritesPerKey: 50}, 2)
	h := memdb.Run(memdb.RunConfig{
		Clients: 10, Txns: 5000, Isolation: memdb.StrictSerializable,
		Source: g, Seed: 2, Workload: memdb.WorkloadRegister,
	})
	cases := []struct {
		name string
		opts workload.Opts
	}{
		{"init-only", workload.Opts{InitialState: true}},
		{"init+wfr", workload.Opts{InitialState: true, WritesFollowReads: true}},
		{"init+wfr+seq", workload.Opts{InitialState: true, WritesFollowReads: true, SequentialKeys: true}},
		{"all", workload.DefaultOpts()},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rwregister.Analyze(h, c.opts)
			}
		})
	}
}
