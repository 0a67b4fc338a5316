package main

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/history"
	"repro/internal/op"
	"repro/internal/par"
	"repro/internal/workload"
)

// panicWorkload is registered by this test binary alone: its batch
// analyzer panics always, its session on the first op touching the key
// "boom". It stands in for a checker bug. Each panic is planted inside a
// par.Do at the run's parallelism, so above 1 it starts on a worker
// goroutine.
const panicWorkload = "panic-for-tests"

func init() {
	workload.Register(workload.Info{
		Name: panicWorkload,
		Analyzer: workload.AnalyzerFunc(func(_ *history.History, opts workload.Opts) workload.Analysis {
			plant(opts.Parallelism, "analyzer panic planted by the test")
			return workload.Analysis{} // unreachable: plant panics
		}),
		Incremental: func(opts workload.Opts, _ *history.Interner, _ history.Lookup) workload.Hooks {
			return panicHooks{opts.Parallelism}
		},
	})
}

// plant panics with msg on the second of two par.Do items.
func plant(p int, msg string) {
	par.Do(p, 2, func(i int) {
		if i == 1 {
			panic(msg)
		}
	})
}

type panicHooks struct{ p int }

func (x panicHooks) Ingest(o op.Op, _ int, _ *workload.Findings) {
	for _, m := range o.Mops {
		if m.Key == "boom" {
			plant(x.p, "ingest panic planted by the test")
		}
	}
}
func (panicHooks) Scan(*workload.Findings) {}
func (panicHooks) Retire([]history.KeyID)  {}
func (x panicHooks) Finish(*history.History, *graph.Graph) workload.Analysis {
	plant(x.p, "finish panic planted by the test")
	return workload.Analysis{} // unreachable: plant panics
}

// TestCheckerPanicExitsFour: a panic inside the checker, batch or
// -follow, on the caller's goroutine or a worker's, exits 4 with
// "internal error", its value and a stack on stderr, and nothing on
// stdout.
func TestCheckerPanicExitsFour(t *testing.T) {
	const boom = `{"index":0,"type":"ok","process":0,"value":[["append","calm",1]]}
{"index":1,"type":"ok","process":1,"value":[["append","boom",1]]}
`
	for _, mode := range [][]string{{}, {"-follow"}, {"-follow", "-mem-budget", "1"}, {"-json"}} {
		for _, p := range []string{"1", "4"} {
			mode := append([]string{"-parallelism", p}, mode...)
			var out, errb bytes.Buffer
			args := append(append([]string{"-workload", panicWorkload}, mode...), "-")
			code := run(args, strings.NewReader(boom), &out, &errb)
			stderr := errb.String()
			if code != 4 {
				t.Fatalf("%v: exit %d, want 4; stderr:\n%s", mode, code, stderr)
			}
			if !strings.HasPrefix(stderr, "elle: internal error: ") || !strings.Contains(stderr, "planted by the test") ||
				!strings.Contains(stderr, "goroutine ") {
				t.Errorf("%v: stderr lacks the internal error and its stack:\n%s", mode, stderr)
			}
			if out.Len() != 0 {
				t.Errorf("%v: stdout not empty after a panic:\n%s", mode, out.String())
			}
		}
	}
}
