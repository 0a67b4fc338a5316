package main

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/history"
	"repro/internal/op"
	"repro/internal/workload"
)

// panicWorkload is registered by this test binary alone: its batch
// analyzer panics always, its session on the first op touching the key
// "boom". It stands in for a checker bug.
const panicWorkload = "panic-for-tests"

func init() {
	workload.Register(workload.Info{
		Name: panicWorkload,
		Analyzer: workload.AnalyzerFunc(func(*history.History, workload.Opts) workload.Analysis {
			panic("analyzer panic planted by the test")
		}),
		Incremental: func(workload.Opts, *history.Interner) workload.Hooks { return panicHooks{} },
	})
}

type panicHooks struct{}

func (panicHooks) Ingest(o op.Op, _ int, _ *workload.Findings) {
	for _, m := range o.Mops {
		if m.Key == "boom" {
			panic("ingest panic planted by the test")
		}
	}
}
func (panicHooks) Scan(*workload.Findings)       {}
func (panicHooks) Retire([]history.KeyID, []int) {}
func (panicHooks) Finish(*history.History) workload.Analysis {
	panic("finish panic planted by the test")
}

// TestCheckerPanicExitsFour: a panic inside the checker, batch or
// -follow, exits 4 with "internal error", its value and a stack on
// stderr, and nothing on stdout.
func TestCheckerPanicExitsFour(t *testing.T) {
	const boom = `{"index":0,"type":"ok","process":0,"value":[["append","calm",1]]}
{"index":1,"type":"ok","process":1,"value":[["append","boom",1]]}
`
	for _, mode := range [][]string{{}, {"-follow"}, {"-follow", "-mem-budget", "1"}, {"-json"}} {
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
