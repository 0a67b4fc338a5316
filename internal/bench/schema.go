package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"
)

// SchemaVersion identifies the BENCH_*.json format.
const SchemaVersion = "elle-bench/v1"

// Point is one benchmark's measured result: the minimum ns/op across
// runs (the least-noisy estimator on shared CI runners) and the
// allocation figures, which are effectively deterministic at p=1.
type Point struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	MBPerS      float64 `json:"mb_per_s,omitempty"`
}

// Result is the machine-readable output of one harness invocation —
// the schema of BENCH_*.json. Previous optionally carries points from
// before a change for the PR record; the gate ignores it.
type Result struct {
	Schema     string  `json:"schema"`
	GoVersion  string  `json:"go"`
	GOOS       string  `json:"goos"`
	GOARCH     string  `json:"goarch"`
	CPUs       int     `json:"cpus"`
	Runs       int     `json:"runs"`
	Date       string  `json:"date,omitempty"`
	Benchmarks []Point `json:"benchmarks"`
	Previous   []Point `json:"previous,omitempty"`
}

// Run executes each case runs times via testing.Benchmark, keeping the
// fastest run per case (allocation figures likewise take the minimum:
// one-off runtime growth in early runs is noise, not workload cost).
func Run(cases []Case, runs int, log io.Writer) Result {
	res := Result{
		Schema:    SchemaVersion,
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		CPUs:      runtime.NumCPU(),
		Runs:      runs,
		Date:      time.Now().UTC().Format(time.RFC3339),
	}
	for _, c := range cases {
		var best Point
		for r := 0; r < runs; r++ {
			br := testing.Benchmark(c.F)
			p := Point{
				Name:        c.Name,
				Iterations:  br.N,
				NsPerOp:     float64(br.T.Nanoseconds()) / float64(br.N),
				AllocsPerOp: br.AllocsPerOp(),
				BytesPerOp:  br.AllocedBytesPerOp(),
			}
			if br.Bytes > 0 && br.T > 0 {
				p.MBPerS = (float64(br.Bytes) * float64(br.N) / 1e6) / br.T.Seconds()
			}
			if r == 0 {
				best = p
				continue
			}
			if p.NsPerOp < best.NsPerOp {
				best.NsPerOp, best.Iterations, best.MBPerS = p.NsPerOp, p.Iterations, p.MBPerS
			}
			if p.AllocsPerOp < best.AllocsPerOp {
				best.AllocsPerOp = p.AllocsPerOp
			}
			if p.BytesPerOp < best.BytesPerOp {
				best.BytesPerOp = p.BytesPerOp
			}
		}
		if log != nil {
			fmt.Fprintf(log, "%-32s %12.0f ns/op %10d B/op %9d allocs/op\n",
				best.Name, best.NsPerOp, best.BytesPerOp, best.AllocsPerOp)
		}
		res.Benchmarks = append(res.Benchmarks, best)
	}
	return res
}

// Encode writes r as indented JSON.
func (r Result) Encode(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// DecodeResult reads a BENCH_*.json.
func DecodeResult(r io.Reader) (Result, error) {
	var out Result
	if err := json.NewDecoder(r).Decode(&out); err != nil {
		return Result{}, err
	}
	if out.Schema != SchemaVersion {
		return Result{}, fmt.Errorf("bench: unsupported schema %q (want %q)", out.Schema, SchemaVersion)
	}
	return out, nil
}

// Regression is one gate violation.
type Regression struct {
	Name   string
	Metric string // "ns/op" or "allocs/op"
	Base   float64
	New    float64
}

func (r Regression) String() string {
	return fmt.Sprintf("%s: %s regressed %.0f -> %.0f (%+.1f%%)",
		r.Name, r.Metric, r.Base, r.New, 100*(r.New-r.Base)/r.Base)
}

// Compare gates cur against base: any benchmark present in both whose
// ns/op or allocs/op grew by more than threshold (0.20 = 20%) is a
// regression, except allocs/op of a case whose AllocsUngated gives the
// reason they do not repeat. Benchmarks present only on one side are
// reported in missing (gate-neutral: the suite may gain cases before the
// baseline is refreshed).
func Compare(base, cur Result, threshold float64) (regs []Regression, missing []string) {
	baseBy := map[string]Point{}
	for _, p := range base.Benchmarks {
		baseBy[p.Name] = p
	}
	seen := map[string]bool{}
	for _, p := range cur.Benchmarks {
		seen[p.Name] = true
		b, ok := baseBy[p.Name]
		if !ok {
			missing = append(missing, "baseline lacks "+p.Name)
			continue
		}
		if b.NsPerOp > 0 && p.NsPerOp > b.NsPerOp*(1+threshold) {
			regs = append(regs, Regression{Name: p.Name, Metric: "ns/op", Base: b.NsPerOp, New: p.NsPerOp})
		}
		if b.AllocsPerOp > 0 && float64(p.AllocsPerOp) > float64(b.AllocsPerOp)*(1+threshold) && !allocsUngated(p.Name) {
			regs = append(regs, Regression{
				Name: p.Name, Metric: "allocs/op",
				Base: float64(b.AllocsPerOp), New: float64(p.AllocsPerOp),
			})
		}
	}
	for name := range baseBy {
		if !seen[name] {
			missing = append(missing, "run lacks "+name)
		}
	}
	sort.Strings(missing)
	return regs, missing
}

// allocsUngated reports whether the named case's allocs/op stay out of
// the gate.
func allocsUngated(name string) bool {
	c, ok := Find(name)
	return ok && c.AllocsUngated != ""
}

// Table renders the comparison side by side for the CI log.
func Table(base, cur Result) string {
	baseBy := map[string]Point{}
	for _, p := range base.Benchmarks {
		baseBy[p.Name] = p
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-32s %14s %14s %8s | %12s %12s %8s\n",
		"benchmark", "base ns/op", "new ns/op", "Δ", "base allocs", "new allocs", "Δ")
	for _, p := range cur.Benchmarks {
		bp, ok := baseBy[p.Name]
		if !ok {
			fmt.Fprintf(&b, "%-32s %14s %14.0f %8s | %12s %12d %8s\n",
				p.Name, "-", p.NsPerOp, "-", "-", p.AllocsPerOp, "-")
			continue
		}
		allocsDelta := fmt.Sprintf("%+7.1f%%", 100*float64(p.AllocsPerOp-bp.AllocsPerOp)/float64(bp.AllocsPerOp))
		if allocsUngated(p.Name) {
			allocsDelta = "ungated"
		}
		fmt.Fprintf(&b, "%-32s %14.0f %14.0f %+7.1f%% | %12d %12d %8s\n",
			p.Name, bp.NsPerOp, p.NsPerOp, 100*(p.NsPerOp-bp.NsPerOp)/bp.NsPerOp,
			bp.AllocsPerOp, p.AllocsPerOp, allocsDelta)
	}
	return b.String()
}
