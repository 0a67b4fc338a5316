// Package perf regenerates the paper's Figure 4: runtime versus history
// length, for various client concurrencies, comparing Elle against the
// Knossos-style search baseline.
//
// Following §7.5, histories are composed of randomly generated
// transactions performing one to five operations each, over 100 possible
// objects with 100 appends per object, produced by simulated clients
// against the in-memory serializable-snapshot-isolated database. Baseline
// runs are capped (the paper used 100 seconds); capped runs report
// "unknown", which is how Knossos's timeouts appear in Figure 4.
package perf

import (
	"fmt"
	"io"
	"time"

	"repro/internal/consistency"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/history"
	"repro/internal/memdb"
	"repro/internal/serialcheck"
	"repro/internal/workload"

	// Populate the workload registry so Config.Workload resolves every
	// built-in analyzer.
	_ "repro/internal/workload/all"
)

// Point is one measurement.
type Point struct {
	Checker     string // "elle" or "knossos"
	Ops         int    // transactions in the history
	Concurrency int    // client threads
	Seconds     float64
	Outcome     string // "valid", "invalid", "serializable", "unknown", ...
	Anomalies   int    // elle only
	// Workload is the resolved workload the point measured — always the
	// registry's canonical name, so a fallback from an unknown
	// Config.Workload is visible in the output.
	Workload string
}

// Config parameterizes the sweep.
type Config struct {
	// Lengths is the series of history lengths (transactions).
	Lengths []int
	// Concurrencies is the series of client counts (the paper's c).
	Concurrencies []int
	// BaselineCap bounds each baseline search (paper: 100 s).
	BaselineCap time.Duration
	// BaselineMaxOps skips baseline runs longer than this; the paper's
	// Knossos plots stop well short of 100k ops for high concurrency.
	BaselineMaxOps int
	// Seed drives history generation.
	Seed int64
	// Elle and Baseline toggle the two checkers.
	Elle, Baseline bool
	// Parallelism is Elle's worker count per check (<= 0 one per CPU,
	// 1 sequential) — the knob the parallel-speedup sweeps vary.
	Parallelism int
	// Workload selects any registered workload by name or alias
	// (default list-append). The Knossos baseline only understands
	// list histories, so it is skipped for every other workload.
	Workload string
}

// GenerateHistory builds one Figure 4 workload history: n list-append
// transactions at concurrency c against the serializable engine.
func GenerateHistory(n, c int, seed int64) *history.History {
	return GenerateWorkloadHistory(workload.Info{}, n, c, seed)
}

// GenerateWorkloadHistory is GenerateHistory for any registered
// workload: info carries the generator and engine semantics (the zero
// Info generates list-append).
func GenerateWorkloadHistory(info workload.Info, n, c int, seed int64) *history.History {
	g := gen.New(gen.Config{
		Workload:        info.Gen,
		ActiveKeys:      100,
		MaxWritesPerKey: 100,
		MinOps:          1,
		MaxOps:          5,
	}, seed)
	return memdb.Run(memdb.RunConfig{
		Clients:   c,
		Txns:      n,
		Isolation: memdb.StrictSerializable,
		Source:    g,
		Seed:      seed,
		Workload:  info.DB,
		// A small rate of lost commit acknowledgements, as fault-injection
		// tests produce: each one moves its client to a fresh logical
		// process, so logical concurrency grows over time — the paper
		// notes tens of thousands of logically concurrent transactions
		// are not uncommon, and this is what defeats the search baseline.
		InfoProb: 0.02,
	})
}

// Sweep runs the measurement grid, invoking report (if non-nil) after
// each point. An unknown Config.Workload falls back to list-append.
func Sweep(cfg Config, report func(Point)) []Point {
	name := cfg.Workload
	if name == "" {
		name = string(workload.ListAppend)
	}
	info, ok := workload.Lookup(name)
	if !ok {
		info, _ = workload.Lookup(string(workload.ListAppend))
	}
	var out []Point
	emit := func(p Point) {
		p.Workload = string(info.Name)
		out = append(out, p)
		if report != nil {
			report(p)
		}
	}
	baseline := cfg.Baseline && info.Name == workload.ListAppend
	for _, c := range cfg.Concurrencies {
		for _, n := range cfg.Lengths {
			h := GenerateWorkloadHistory(info, n, c, cfg.Seed)
			if cfg.Elle {
				opts := core.OptsFor(core.Workload(info.Name), consistency.StrictSerializable)
				opts.Parallelism = cfg.Parallelism
				start := time.Now()
				r := core.Check(h, opts)
				sec := time.Since(start).Seconds()
				outcome := "valid"
				if !r.Valid {
					outcome = "invalid"
				}
				emit(Point{
					Checker: "elle", Ops: n, Concurrency: c,
					Seconds: sec, Outcome: outcome, Anomalies: len(r.Anomalies),
				})
			}
			if baseline && (cfg.BaselineMaxOps == 0 || n <= cfg.BaselineMaxOps) {
				start := time.Now()
				r := serialcheck.Check(h, serialcheck.Opts{Timeout: cfg.BaselineCap})
				sec := time.Since(start).Seconds()
				emit(Point{
					Checker: "knossos", Ops: n, Concurrency: c,
					Seconds: sec, Outcome: r.Outcome.String(),
				})
			}
		}
	}
	return out
}

// WriteCSV renders points as CSV with a header, the format the paper's
// Figure 4 was plotted from.
func WriteCSV(w io.Writer, points []Point) error {
	row, err := StartCSV(w)
	for i := 0; err == nil && i < len(points); i++ {
		err = row(points[i])
	}
	return err
}

// StartCSV writes WriteCSV's header to w and returns the writer of its
// rows, one point per call, so a sweep can print each point as it
// completes.
func StartCSV(w io.Writer) (row func(Point) error, err error) {
	row = func(p Point) error {
		_, err := fmt.Fprintf(w, "%s,%d,%d,%.6f,%s,%d,%s\n",
			p.Checker, p.Ops, p.Concurrency, p.Seconds, p.Outcome, p.Anomalies, p.Workload)
		return err
	}
	_, err = fmt.Fprintln(w, "checker,ops,concurrency,seconds,outcome,anomalies,workload")
	return row, err
}
