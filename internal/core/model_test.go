package core_test

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/consistency"
	"repro/internal/core"
	"repro/internal/history"
	"repro/internal/nemesis"
	"repro/internal/report"
)

// TestModelAloneDecidesInference: the model a check names decides its
// whole inference, so Opts{Workload: w, Model: m}, checked in batch or
// streamed, reports byte for byte what OptsFor(w, m) does, under every
// model, over the hand-written histories of TestModelAloneAddsOrders
// and TestSequentialKeysOnlyWithSessions and every campaign's history.
func TestModelAloneDecidesInference(t *testing.T) {
	type input struct {
		name string
		w    core.Workload
		h    *history.History
	}
	inputs := []input{
		{"stale-read", core.ListAppend, core.StaleRead()},
		{"session-regression", core.Register, core.SessionRegression()},
	}
	for _, c := range nemesis.Campaigns() {
		h, err := nemesis.Generate(c, nemesis.Config{Seed: 1})
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		inputs = append(inputs, input{c.Name, c.Workload, h})
	}
	render := func(h *history.History, w core.Workload, res *core.CheckResult) string {
		var b bytes.Buffer
		if err := report.New(h, w, res).Write(&b); err != nil {
			t.Fatal(err)
		}
		report.Prose(&b, res, report.ProseOpts{})
		return b.String()
	}
	for _, in := range inputs {
		for _, m := range consistency.All {
			want := render(in.h, in.w, core.Check(in.h, core.OptsFor(in.w, m)))
			opts := core.Opts{Workload: in.w, Model: m}
			if got := render(in.h, in.w, core.Check(in.h, opts)); got != want {
				t.Errorf("%s under %s: Check(Opts{...}) differs from Check(OptsFor(...)): %s", in.name, m, firstDiff(got, want))
			}
			st := core.CheckStream(opts)
			for ops := in.h.Ops; len(ops) > 0; {
				n := min(len(ops), 500)
				if _, err := st.Feed(ops[:n]); err != nil {
					t.Fatalf("%s under %s: feed: %v", in.name, m, err)
				}
				ops = ops[n:]
			}
			res, err := st.Finish()
			if err != nil {
				t.Fatalf("%s under %s: finish: %v", in.name, m, err)
			}
			if got := render(st.History(), in.w, res); got != want {
				t.Errorf("%s under %s: CheckStream(Opts{...}) differs from Check(OptsFor(...)): %s", in.name, m, firstDiff(got, want))
			}
		}
	}
}

// firstDiff names the first line at which two reports differ.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := range min(len(g), len(w)) {
		if g[i] != w[i] {
			return fmt.Sprintf("line %d:\n got %s\nwant %s", i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf("%d lines, want %d", len(g), len(w))
}
