package workload_test

import (
	"testing"

	"repro/internal/history"
	"repro/internal/workload"

	_ "repro/internal/workload/all"
)

// TestBuiltinsRegistered: every built-in analyzer is present under its
// canonical name, and the canonical list is sorted.
func TestBuiltinsRegistered(t *testing.T) {
	want := []workload.Name{
		workload.ListAppend, workload.RWRegister, workload.SetAdd,
		workload.Counter, workload.Bank,
	}
	for _, n := range want {
		info, ok := workload.Lookup(string(n))
		if !ok {
			t.Fatalf("workload %q not registered", n)
		}
		if info.Name != n {
			t.Errorf("Lookup(%q).Name = %q", n, info.Name)
		}
		if info.Analyzer == nil {
			t.Errorf("workload %q has no analyzer", n)
		}
	}
	names := workload.Names()
	if len(names) < len(want) {
		t.Fatalf("Names() = %v, want at least %d entries", names, len(want))
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Errorf("Names() not sorted: %v", names)
		}
	}
}

// TestAliasesResolve: the CLI spellings map to canonical entries.
func TestAliasesResolve(t *testing.T) {
	cases := map[string]workload.Name{
		"list":     workload.ListAppend,
		"register": workload.RWRegister,
		"set":      workload.SetAdd,
		"counter":  workload.Counter,
		"bank":     workload.Bank,
	}
	for alias, want := range cases {
		info, ok := workload.Lookup(alias)
		if !ok || info.Name != want {
			t.Errorf("Lookup(%q) = (%q, %v), want %q", alias, info.Name, ok, want)
		}
	}
	if _, ok := workload.Lookup("bogus"); ok {
		t.Error("Lookup accepted an unregistered name")
	}
}

// TestRegisterRejectsDuplicates: re-registering a taken name or alias
// panics, as does registering without an analyzer.
func TestRegisterRejectsDuplicates(t *testing.T) {
	mustPanic := func(name string, info workload.Info) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: Register did not panic", name)
			}
		}()
		workload.Register(info)
	}
	noop := workload.AnalyzerFunc(func(h *history.History, opts workload.Opts) workload.Analysis {
		return workload.Analysis{}
	})
	mustPanic("dup name", workload.Info{Name: workload.Bank, Analyzer: noop})
	mustPanic("dup alias", workload.Info{Name: "fresh", Aliases: []string{"list"}, Analyzer: noop})
	mustPanic("nil analyzer", workload.Info{Name: "fresh2"})
}

// TestAnalyzersHonorTheContract: every registered analyzer accepts an
// empty history and returns a non-nil graph and explainer.
func TestAnalyzersHonorTheContract(t *testing.T) {
	h := history.MustNew(nil)
	for _, info := range workload.All() {
		an := info.Analyzer.Analyze(h, workload.Opts{KeyConsistency: workload.LinearizableKeys})
		if an.Graph == nil {
			t.Errorf("%s: nil graph on empty history", info.Name)
		}
		if an.Explainer == nil {
			t.Errorf("%s: nil explainer on empty history", info.Name)
		}
		if len(an.Anomalies) != 0 {
			t.Errorf("%s: anomalies on empty history: %v", info.Name, an.Anomalies)
		}
	}
}

// TestSessionsHonorTheContract: every registered workload opens a
// streaming session (native or adapter) whose empty run matches the
// batch contract, and sessions reject use after Finish.
func TestSessionsHonorTheContract(t *testing.T) {
	for _, info := range workload.All() {
		sess := workload.BeginSession(info, workload.Opts{KeyConsistency: workload.LinearizableKeys})
		if d, err := sess.Feed(nil); err != nil || d.Ops != 0 {
			t.Errorf("%s: empty feed: %+v, %v", info.Name, d, err)
		}
		an, err := sess.Finish()
		if err != nil {
			t.Errorf("%s: Finish: %v", info.Name, err)
			continue
		}
		if an.Graph == nil || an.Explainer == nil {
			t.Errorf("%s: session Finish returned nil graph or explainer", info.Name)
		}
		if len(an.Anomalies) != 0 {
			t.Errorf("%s: anomalies on empty stream: %v", info.Name, an.Anomalies)
		}
		if _, err := sess.Feed(nil); err == nil {
			t.Errorf("%s: Feed after Finish should fail", info.Name)
		}
		if _, err := sess.Finish(); err == nil {
			t.Errorf("%s: double Finish should fail", info.Name)
		}
	}
}
