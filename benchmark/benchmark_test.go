package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for the benchmark binary when
// run() re-executes itself as the launcher.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == launchFlag {
		os.Exit(launch(os.Args[2:]))
	}
	os.Exit(m.Run())
}

// Which layer metrics each kind of workload must report — and no others.
var (
	batchLayers = []string{
		"jsonhist.decode_s", "jsonhist.decode_mb_per_s", "jsonhist.decode_allocs_per_op",
		"binhist.decode_s", "history.new_s", "txngraph.process_s", "txngraph.realtime_s",
		"graph.merge_s", "graph.scc_s", "graph.cycles_s", "graph.nodes", "graph.edges",
		"graph.sccs", "graph.cycles", "explain.cycle_s", "explain.bytes", "consistency.eval_s",
		"report.json_s", "report.bytes", "rel.query_s", "rel.rows", "core.pipeline_s",
		"core.check_s", "core.check_allocs_per_op", "core.check_bytes_per_op",
		"core.unattributed_share", "par.speedup", "memdb.gen_s", "jsonhist.encode_s",
		"trace.overhead_share",
	}
	listLayers     = []string{"listappend.analyze_s", "listappend.analyze_ns_per_op", "listappend.analyze_allocs_per_op", "listappend.edges"}
	registerLayers = []string{"rwregister.analyze_s", "rwregister.analyze_ns_per_op", "rwregister.analyze_allocs_per_op", "rwregister.edges"}
	serviceLayers  = []string{
		"jsonhist.chunk_decode_s", "binhist.decode_s", "history.stream_add_s", "graph.nodes",
		"graph.edges", "graph.sccs", "report.json_s", "report.bytes", "rel.query_s", "rel.rows",
		"core.pipeline_s", "core.check_s", "core.check_allocs_per_op", "core.check_bytes_per_op",
		"core.unattributed_share", "core.stream_feed_s", "core.stream_finish_s",
		"core.stream_over_batch", "par.speedup", "wal.append_s", "wal.append_mb_per_s",
		"wal.replay_s", "wal.fsyncs", "service.handler_s", "service.overhead_share",
		"service.chunk_ack_p99_ms", "service.refused", "service.shards_used", "memdb.gen_s",
		"jsonhist.encode_s", "trace.overhead_share",
	}
)

func wantLayers(name string) []string {
	switch name {
	case "register-batch":
		return append(slices.Clone(batchLayers), registerLayers...)
	case "service-stream":
		return slices.Clone(serviceLayers)
	}
	return append(slices.Clone(batchLayers), listLayers...)
}

func sortedKeys(m map[string]stat) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// TestQuickRun drives the whole benchmark at smoke scale: same code
// paths as a full run — build, generate, child processes, traced pass.
func TestQuickRun(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the programs under test")
	}
	out := t.TempDir()
	var stdout bytes.Buffer
	res, err := run(context.Background(), options{root: "..", out: out, seed: 1, seconds: 1, quick: true, stdout: &stdout})
	if err != nil {
		t.Fatal(err)
	}
	if res.Comparable || !res.Quick {
		t.Error("a quick run must be marked non-comparable")
	}
	if res.Seed != 1 || res.NProc < 1 || res.Procs < 1 || res.GoVersion == "" || res.Commit == "" {
		t.Errorf("run metadata incomplete: %+v", res)
	}
	if len(res.Workloads) != 4 {
		t.Fatalf("ran %d workloads, want 4", len(res.Workloads))
	}

	seen := map[string]bool{}
	for _, w := range res.Workloads {
		if w.Failed != 0 || w.Attempted < 1 || w.EndToEnd[failedShare].Value != 0 {
			t.Errorf("%s: attempted %d, failed %d: %v", w.Name, w.Attempted, w.Failed, w.Failures)
		}
		if w.Input.Txns == 0 || w.Input.Ops == 0 || w.Input.Bytes == 0 || w.ReportBytes == 0 {
			t.Errorf("%s: input or report size missing: %+v, report %d", w.Name, w.Input, w.ReportBytes)
		}
		service := w.Name == "service-stream"
		for _, m := range endToEnd {
			s, ok := w.EndToEnd[m.Name]
			if want := m.Contract || service; ok != want {
				t.Errorf("%s: end-to-end %s present=%t, want %t", w.Name, m.Name, ok, want)
			}
			if ok && !(s.Value > 0) {
				t.Errorf("%s: end-to-end %s = %v, want > 0", w.Name, m.Name, s.Value)
			}
			if ok && m.Best && s.Value != s.Min && s.Value != s.Max {
				t.Errorf("%s: end-to-end %s = %v is not the run's best sample: %+v", w.Name, m.Name, s.Value, s)
			}
		}
		want := wantLayers(w.Name)
		sort.Strings(want)
		if got := sortedKeys(w.PerLayer); !slices.Equal(got, want) {
			t.Errorf("%s: layer metrics\n got  %v\n want %v", w.Name, got, want)
		}
		for _, group := range []map[string]stat{w.EndToEnd, w.PerLayer} {
			for name, s := range group {
				seen[name] = true
				def, ok := findMetric(name)
				if name == failedShare {
					def, ok = metricDef{Unit: "share"}, true
				}
				if !ok || s.Unit != def.Unit || s.N < 1 {
					t.Errorf("%s: %s: unit %q n=%d, catalogue %+v", w.Name, name, s.Unit, s.N, def)
				}
				for _, v := range []float64{s.Value, s.Median, s.Q1, s.Q3, s.Min, s.Max} {
					if math.IsNaN(v) || math.IsInf(v, 0) {
						t.Errorf("%s: %s is not finite: %+v", w.Name, name, s)
					}
				}
			}
		}
		// Σ stage self times within 10 % of the root span.
		if u := w.PerLayer["core.unattributed_share"]; u.Max > 0.10 || u.Min < 0 {
			t.Errorf("%s: stages leave %v of the root span unattributed", w.Name, u)
		}

		raw, err := os.ReadFile(filepath.Join(out, "trace-"+w.Name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		var tr struct {
			Spans []span `json:"spans"`
		}
		if err := json.Unmarshal(raw, &tr); err != nil || len(tr.Spans) == 0 {
			t.Fatalf("%s: trace file: %v, %d spans", w.Name, err, len(tr.Spans))
		}
		for i, s := range tr.Spans {
			if s.ID != i || s.Parent >= i || s.End < s.Start || s.Trace == "" || s.Name == "" {
				t.Fatalf("%s: malformed span %+v", w.Name, s)
			}
		}
	}
	for _, list := range [][]metricDef{endToEnd, perLayer} {
		for _, m := range list {
			if !seen[m.Name] {
				t.Errorf("metric %s is in the catalogue but no workload reported it", m.Name)
			}
		}
	}

	if _, err := loadResult(filepath.Join(out, "result.json")); err != nil {
		t.Error(err)
	}
	// The last lines are the driver's: one object per workload, every
	// contract metric present by name with its unit.
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	for i, w := range res.Workloads {
		var obj map[string]json.RawMessage
		line := lines[len(lines)-len(res.Workloads)+i]
		if err := json.Unmarshal([]byte(line), &obj); err != nil {
			t.Fatalf("%s: contract line: %v", w.Name, err)
		}
		if len(obj) != 4 || string(obj["correct"]) != "true" || string(obj["failed"]) != "0" {
			t.Errorf("%s: contract line %s", w.Name, line)
		}
		var metrics map[string]struct {
			Value *float64
			Unit  string
		}
		if err := json.Unmarshal(obj["metrics"], &metrics); err != nil {
			t.Fatal(err)
		}
		n := 0
		for _, m := range append(slices.Clone(endToEnd), perLayer...) {
			if got, ok := metrics[m.Name]; !ok || got.Value == nil || got.Unit != m.Unit {
				t.Errorf("%s: contract line lacks %s [%s]", w.Name, m.Name, m.Unit)
			}
			n++
		}
		if len(metrics) != n {
			t.Errorf("%s: contract line has %d metrics, want %d", w.Name, len(metrics), n)
		}
	}
}

// TestCorruptedAnswerFails checks the known answers are live: with a
// wrong expected verdict the same run must fail.
func TestCorruptedAnswerFails(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the programs under test")
	}
	defs := workloads()
	defs[0].Expect = expect{Valid: false, MustHave: []string{"lost-update"}}
	var stdout bytes.Buffer
	res, err := run(context.Background(), options{root: "..", out: t.TempDir(), seed: 1, seconds: 1,
		quick: true, trace: "0", only: defs[0].Name, defs: defs, stdout: &stdout})
	if err != nil {
		t.Fatal(err)
	}
	if res.correct() || res.Workloads[0].Failed == 0 || res.Workloads[0].EndToEnd[failedShare].Value == 0 {
		t.Errorf("a clean history passed a check that expects anomalies: %+v", res.Workloads[0])
	}
	if !strings.Contains(stdout.String(), `"correct":false`) {
		t.Error("contract line does not report the failure")
	}
}

// TestManifestInSync pins BENCHMARK.json to the workload table and the
// metric catalogue it is generated from (`benchmark -manifest`).
func TestManifestInSync(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, manifestJSON()) {
		t.Error("BENCHMARK.json is stale: regenerate it with `go run . -manifest > ../BENCHMARK.json`")
	}
}

func TestExpectCheck(t *testing.T) {
	faulted := workloads()[2].Expect
	set := func(types ...string) map[string]bool {
		m := map[string]bool{}
		for _, t := range types {
			m[t] = true
		}
		return m
	}
	for _, tc := range []struct {
		name  string
		e     expect
		valid bool
		types map[string]bool
		ok    bool
	}{
		{"clean", clean, true, nil, true},
		{"clean but invalid", clean, false, set("G1c"), false},
		{"faulted signature", faulted, false, set("lost-update", "G-single-realtime"), true},
		{"faulted without lost update", faulted, false, set("G2-item"), false},
		{"faulted without a cycle class", faulted, false, set("lost-update"), false},
		{"faulted with G0", faulted, false, set("lost-update", "G-single", "G0"), false},
		{"faulted reported valid", faulted, true, nil, false},
	} {
		if err := tc.e.check(tc.valid, tc.types); (err == nil) != tc.ok {
			t.Errorf("%s: check = %v, want ok=%t", tc.name, err, tc.ok)
		}
	}
}

func TestSummarizeMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	s := summarize("s", []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if s.Q1 != 2.75 || s.Median != 5.5 || s.Q3 != 8.25 || s.Min != 1 || s.Max != 10 || s.N != 10 {
		t.Errorf("summarize = %+v", s)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if s := summarize("s", []float64{4, 1, 2}); s.Q1 != 1 || s.Median != 2 || s.Q3 != 4 {
		t.Errorf("summarize of three = %+v", s)
	}
	if s := summarize("s", []float64{3}); s.Q1 != 3 || s.Median != 3 || s.Q3 != 3 || s.spread(metricDef{}) != 0 {
		t.Errorf("summarize of one = %+v", s)
	}
	// A Best metric's value is the fastest time or the highest rate.
	samples := []float64{4, 1, 2}
	for _, tc := range []struct {
		m    metricDef
		want float64
	}{
		{metricDef{Better: "lower"}, 2},
		{metricDef{Better: "lower", Best: true}, 1},
		{metricDef{Better: "higher", Best: true}, 4},
	} {
		st := summarizeMetric(tc.m, samples)
		if st.Value != tc.want {
			t.Errorf("summarizeMetric(%+v).Value = %v, want %v", tc.m, st.Value, tc.want)
		}
		// Quartiles of 1, 2, 4 are 1, 2, 4: a median spreads over the
		// quartiles, a best sample over its own quarter, which is empty here.
		if want := map[bool]float64{false: 1.5, true: 0}[tc.m.Best]; st.spread(tc.m) != want {
			t.Errorf("spread(%+v) = %v, want %v", tc.m, st.spread(tc.m), want)
		}
	}
}

func TestSplitLines(t *testing.T) {
	raw := []byte("a\nb\nc\nd\ne")
	got := splitLines(raw, 2)
	if len(got) != 3 || string(got[0]) != "a\nb\n" || string(got[2]) != "e" || !bytes.Equal(bytes.Join(got, nil), raw) {
		t.Errorf("splitLines = %q", got)
	}
}

func TestSelfTimes(t *testing.T) {
	r := &recorder{}
	r.spans = []span{
		{ID: 0, Parent: -1, Name: "root", Start: 0, End: 100e9},
		{ID: 1, Parent: 0, Name: "a", Start: 0, End: 30e9},
		{ID: 2, Parent: 1, Name: "b", Start: 10e9, End: 20e9},
		{ID: 3, Parent: 0, Name: "a", Start: 40e9, End: 60e9},
	}
	self := r.selfTimes(0)
	if self["root"] != 50 || self["a"] != 40 || self["b"] != 10 {
		t.Errorf("selfTimes = %v", self)
	}
}

func TestCompareMarks(t *testing.T) {
	mk := func(verdict, q1 float64, failed float64) *result {
		return &result{Schema: schema, Comparable: true, Seed: 1, Procs: 2, Workloads: []workloadResult{{
			Name: "list-batch",
			EndToEnd: map[string]stat{
				"verdict_s":  {Unit: "s", Value: verdict, Min: verdict, Q1: q1, N: 9},
				failedShare:  {Unit: "share", Value: failed, N: 1},
				"ops_per_s":  {Unit: "1/s", Value: 1000, Q3: 1000, Max: 1000, N: 9},
				"unlisted_s": {Unit: "s", Value: 1},
			},
			PerLayer: map[string]stat{"graph.edges": {Unit: "count", Median: 5, Min: 5, Max: 5, N: 2}},
		}}}
	}
	for _, tc := range []struct {
		name string
		a, b *result
		mark string
		code int
	}{
		{"same", mk(2, 2.02, 0), mk(2.1, 2.12, 0), " ok", 0},
		{"slower beyond the bound", mk(2, 2.02, 0), mk(2.8, 2.82, 0), "exceeds", 1},
		{"spread wider than the bound", mk(2, 2.6, 0), mk(2.1, 2.7, 0), "unresolved", 0},
		{"any failure", mk(2, 2.02, 0), mk(2, 2.02, 0.1), "exceeds", 1},
	} {
		var out bytes.Buffer
		if code := compare(tc.a, tc.b, &out); code != tc.code || !strings.Contains(out.String(), tc.mark) {
			t.Errorf("%s: code %d, want %d, output:\n%s", tc.name, code, tc.code, out.String())
		}
		if !strings.Contains(out.String(), "1 layer counters repeat exactly") {
			t.Errorf("%s: counts not compared:\n%s", tc.name, out.String())
		}
	}
}
