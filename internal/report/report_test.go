package report

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/anomaly"
	"repro/internal/consistency"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/history"
	"repro/internal/nemesis"
	"repro/internal/op"
	"repro/internal/stats"
)

// jsonReport is the JSON shape of one check as tagged structs: what
// encoding/json encodes for the oracle, and what the tests decode a
// written report into.
type jsonReport struct {
	Valid     bool          `json:"valid"`
	Expected  string        `json:"expected_model"`
	Workload  string        `json:"workload"`
	Violated  []string      `json:"violated_models"`
	Strongest []string      `json:"strongest_models"`
	Anomalies []jsonAnomaly `json:"anomalies"`
	History   jsonHistory   `json:"history"`
	Graph     jsonGraph     `json:"graph"`
}

type jsonAnomaly struct {
	Type        string `json:"type"`
	Key         string `json:"key,omitempty"`
	Txns        []int  `json:"txns,omitempty"`
	Cycle       string `json:"cycle,omitempty"`
	K           int    `json:"k,omitempty"`
	Explanation string `json:"explanation,omitempty"`
}

type jsonHistory struct {
	Ops           int `json:"ops"`
	Attempts      int `json:"attempts"`
	Committed     int `json:"committed"`
	Aborted       int `json:"aborted"`
	Indeterminate int `json:"indeterminate"`
	Processes     int `json:"processes"`
	Keys          int `json:"keys"`
	MaxConcurrent int `json:"max_concurrent"`
}

type jsonGraph struct {
	Nodes int `json:"nodes"`
	Edges int `json:"edges"`
	SCCs  int `json:"cyclic_components"`
}

// shapeOf builds r's JSON shape by its own statement of the rules: an
// empty model or anomaly list is nil, a cycle's nodes are its txns and
// otherwise its ops' indices are.
func shapeOf(r Report) jsonReport {
	res := r.res
	out := jsonReport{
		Valid:    res.Valid,
		Expected: string(res.Expected),
		Workload: string(r.workload),
		History: jsonHistory{
			Ops: r.hist.Ops, Attempts: r.hist.Attempts, Committed: r.hist.Committed,
			Aborted: r.hist.Aborted, Indeterminate: r.hist.Indeterminate,
			Processes: r.hist.Processes, Keys: r.hist.Keys, MaxConcurrent: r.hist.MaxConcurrent,
		},
		Graph: jsonGraph{Nodes: res.Stats.Nodes, Edges: res.Stats.Edges, SCCs: res.Stats.SCCs},
	}
	for _, m := range res.Violated {
		out.Violated = append(out.Violated, string(m))
	}
	for _, m := range res.Strongest {
		out.Strongest = append(out.Strongest, string(m))
	}
	for _, a := range res.Anomalies {
		out.Anomalies = append(out.Anomalies, shapeOfAnomaly(a))
	}
	return out
}

func shapeOfAnomaly(a anomaly.Anomaly) jsonAnomaly {
	ja := jsonAnomaly{Type: string(a.Type), Key: a.Key, K: a.K, Explanation: a.Explanation}
	if len(a.Cycle.Steps) > 0 {
		ja.Cycle = a.Cycle.String()
		ja.Txns = a.Cycle.Nodes()
	} else {
		for _, o := range a.Ops {
			ja.Txns = append(ja.Txns, o.Index)
		}
	}
	return ja
}

// written renders r and decodes the bytes back into its JSON shape.
func written(t *testing.T, r Report) (jsonReport, []byte) {
	t.Helper()
	var buf bytes.Buffer
	if err := r.Write(&buf); err != nil {
		t.Fatal(err)
	}
	var back jsonReport
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	return back, buf.Bytes()
}

func TestReportShape(t *testing.T) {
	h := history.MustNew([]op.Op{
		op.Txn(0, 0, op.Fail, op.Append("x", 1)),
		op.Txn(1, 1, op.OK, op.ReadList("x", []int{1})),
	})
	res := core.Check(h, core.OptsFor(core.ListAppend, consistency.ReadCommitted))
	r, _ := written(t, New(h, core.ListAppend, res))

	if r.Valid {
		t.Error("G1a history reported valid")
	}
	if r.Expected != "read-committed" || r.Workload != "list-append" {
		t.Errorf("expected=%q workload=%q", r.Expected, r.Workload)
	}
	if len(r.Anomalies) == 0 {
		t.Fatal("no anomalies in report")
	}
	found := false
	for _, a := range r.Anomalies {
		if a.Type == "G1a" {
			found = true
			if len(a.Txns) == 0 || a.Explanation == "" {
				t.Errorf("G1a entry incomplete: %+v", a)
			}
		}
	}
	if !found {
		t.Error("G1a missing from report")
	}
	if r.History.Attempts != 2 || r.History.Committed != 1 || r.History.Aborted != 1 {
		t.Errorf("history stats: %+v", r.History)
	}
	if len(r.Violated) == 0 || len(r.Strongest) == 0 {
		t.Error("model lists empty")
	}
}

func TestReportJSONRoundTrip(t *testing.T) {
	h := history.MustNew([]op.Op{
		// Write skew: cycle witness should serialize.
		op.Txn(0, 0, op.OK, op.ReadList("x", []int{}), op.Append("y", 1)),
		op.Txn(1, 1, op.OK, op.ReadList("y", []int{}), op.Append("x", 1)),
		op.Txn(2, 2, op.OK, op.ReadList("x", []int{1}), op.ReadList("y", []int{1})),
	})
	res := core.Check(h, core.OptsFor(core.ListAppend, consistency.Serializable))
	back, raw := written(t, New(h, core.ListAppend, res))
	if back.Valid {
		t.Error("write skew reported valid")
	}
	hasCycle := false
	for _, a := range back.Anomalies {
		if a.Cycle != "" && len(a.Txns) >= 2 {
			hasCycle = true
		}
	}
	if !hasCycle {
		t.Errorf("cycle witness missing: %s", raw)
	}
	if back.Graph.Nodes != 3 {
		t.Errorf("graph nodes = %d", back.Graph.Nodes)
	}
}

func TestCleanReport(t *testing.T) {
	h := history.MustNew([]op.Op{
		op.Txn(0, 0, op.OK, op.Append("x", 1)),
	})
	res := core.Check(h, core.OptsFor(core.ListAppend, consistency.StrictSerializable))
	r, raw := written(t, New(h, core.ListAppend, res))
	if !r.Valid || r.Anomalies != nil {
		t.Errorf("clean report: %s", raw)
	}
	if len(r.Strongest) != 1 || r.Strongest[0] != "strict-serializable" {
		t.Errorf("strongest = %v", r.Strongest)
	}
}

// TestAppendAnomalyMatchesEncodingJSON: the bytes elled stores for a
// provisional finding are the ones encoding/json writes for its shape,
// once encoding/json compacts them as a json.RawMessage.
func TestAppendAnomalyMatchesEncodingJSON(t *testing.T) {
	for _, a := range []anomaly.Anomaly{
		{},
		{Type: "G1a", Key: "x", Ops: []op.Op{{Index: 4}, {Index: 9}}, Explanation: "e <&> \u2028"},
		{Type: "G-single", Cycle: cycleOf(3, 4), Ops: []op.Op{{Index: 1}}, K: 2},
	} {
		got, err := json.Marshal(json.RawMessage(AppendAnomaly([]byte("prefix"), a)[len("prefix"):]))
		if err != nil {
			t.Fatalf("AppendAnomaly(%v) is not JSON: %v", a, err)
		}
		want, err := json.Marshal(shapeOfAnomaly(a))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("AppendAnomaly(%v) = %s, want %s", a, got, want)
		}
	}
}

// encodeOracle is what Write replaced: encoding/json's reflection and
// indentation over the JSON shape, with HTML escaping on.
func encodeOracle(t testing.TB, r Report) []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(shapeOf(r)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func checkWrite(t testing.TB, what string, r Report) {
	var got bytes.Buffer
	if err := r.Write(&got); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	if want := encodeOracle(t, r); !bytes.Equal(got.Bytes(), want) {
		i := 0
		for i < len(want) && i < got.Len() && want[i] == got.Bytes()[i] {
			i++
		}
		from := max(i-40, 0)
		t.Fatalf("%s: Write differs from encoding/json at byte %d\n got  %q\n want %q",
			what, i, got.Bytes()[from:min(i+40, got.Len())], want[from:min(i+40, len(want))])
	}
}

// awkward are strings encoding/json escapes: HTML and JSON specials,
// every control byte, invalid UTF-8, the line and paragraph separators,
// and non-ASCII text that passes through.
var awkward = []string{
	"", "x", `<a href="q">&amp;</a>`, `back\slash "quoted"`,
	"\x00\x01\x07\b\t\n\v\f\r\x0e\x1f\x7f",
	"bad \xff\xfe utf8 \xc3", "truncated \xe2\x80", "sep \u2028 and \u2029 end",
	"\u00fcn\u00efc\u00f8d\u00e9 \u2603 \U0001F600 \u65e5\u672c", "\ufffd literal replacement char",
}

// models converts names to the result's model list type.
func models(names ...string) []consistency.Model {
	out := make([]consistency.Model, len(names))
	for i, n := range names {
		out[i] = consistency.Model(n)
	}
	return out
}

// opsAt returns ops carrying only the given indices.
func opsAt(indices ...int) []op.Op {
	out := make([]op.Op, len(indices))
	for i, n := range indices {
		out[i] = op.Op{Index: n}
	}
	return out
}

// cycleOf returns the cycle through nodes, alternating rw and ww steps.
func cycleOf(nodes ...int) graph.Cycle {
	var c graph.Cycle
	for i, n := range nodes {
		via := graph.RW
		if i%2 == 1 {
			via = graph.WW
		}
		c.Steps = append(c.Steps, graph.Step{From: n, To: nodes[(i+1)%len(nodes)], Via: via})
	}
	return c
}

// reportOf is a report of res with the given workload and history
// statistics.
func reportOf(res core.CheckResult, workload string, hist stats.Stats) Report {
	return Report{res: &res, workload: core.Workload(workload), hist: hist}
}

func TestWriteMatchesEncodingJSON(t *testing.T) {
	full := anomaly.Anomaly{Type: "G-single", Key: "k", Cycle: cycleOf(3, 4), Ops: opsAt(8), K: 2, Explanation: "because"}
	cases := map[string]Report{
		"zero": {res: &core.CheckResult{}},
		"empty": reportOf(core.CheckResult{
			Violated: []consistency.Model{}, Strongest: []consistency.Model{}, Anomalies: []anomaly.Anomaly{},
		}, "", stats.Stats{}),
		"lists": reportOf(core.CheckResult{Valid: true, Expected: "serializable",
			Violated: models("a"), Strongest: models("b", "c")}, "list-append", stats.Stats{}),
		"omitempty-empty": reportOf(core.CheckResult{Anomalies: []anomaly.Anomaly{
			{}, {Type: "G0", Ops: []op.Op{}}, {Type: "G1c", Cycle: graph.Cycle{Steps: []graph.Step{}}},
		}}, "", stats.Stats{}),
		"omitempty-set": reportOf(core.CheckResult{Anomalies: []anomaly.Anomaly{
			full, {Type: "k-atomicity", K: 1}, {Type: "G1a", Ops: opsAt(7)}, {Type: "G0", Cycle: cycleOf(0, 1, 2)},
		}}, "", stats.Stats{}),
		"ints": reportOf(core.CheckResult{
			Anomalies: []anomaly.Anomaly{{Type: "x", Ops: opsAt(math.MinInt64, math.MaxInt64, -42), K: math.MinInt64}},
			Stats:     core.Stats{Nodes: math.MinInt64, Edges: 12345678901, SCCs: -7},
		}, "", stats.Stats{Ops: math.MaxInt64, Attempts: -1, Committed: 1 << 40, Aborted: -1 << 40, MaxConcurrent: 9}),
	}
	for i, s := range awkward {
		cases[fmt.Sprintf("strings-%d", i)] = reportOf(core.CheckResult{
			Expected: consistency.Model(s), Violated: models(s, s), Strongest: models(s),
			Anomalies: []anomaly.Anomaly{{Type: anomaly.Type(s), Key: s, Cycle: cycleOf(i, i+1), Explanation: s}},
		}, s, stats.Stats{})
	}
	// Each kind of byte the escaper stops at, at every offset of a plain
	// run, so both its eight-byte groups and its byte loop meet it.
	for _, special := range []string{"\x00", "\x1f", "\"", "\\", "<", ">", "&", "\x7f", "\xff", "é", " "} {
		for at := 0; at <= 17; at++ {
			s := strings.Repeat("a", at) + special + strings.Repeat("b", 17-at)
			cases[fmt.Sprintf("special-%q-at-%d", special, at)] = reportOf(core.CheckResult{
				Expected: consistency.Model(s), Anomalies: []anomaly.Anomaly{{Type: anomaly.Type(s)}},
			}, "", stats.Stats{})
		}
	}
	// More anomalies than one buffer holds, so Write flushes mid-list.
	var big core.CheckResult
	for i := 0; i < 4000; i++ {
		big.Anomalies = append(big.Anomalies, anomaly.Anomaly{Type: "G2-item", Ops: opsAt(i, i+1), Explanation: awkward[i%len(awkward)]})
	}
	cases["flushes"] = reportOf(big, "", stats.Stats{})
	for name, r := range cases {
		checkWrite(t, name, r)
	}

	// The reports of every nemesis campaign.
	for _, c := range nemesis.Campaigns() {
		h, res, err := nemesis.Check(c, nemesis.Config{Seed: 1, Txns: 300})
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		checkWrite(t, c.Name, New(h, core.Workload(c.Workload), res))
	}
}

// failingWriter accepts n bytes, then fails every write.
type failingWriter struct{ n int }

var errFull = errors.New("device full")

func (w *failingWriter) Write(p []byte) (int, error) {
	if len(p) > w.n {
		return w.n, errFull
	}
	w.n -= len(p)
	return len(p), nil
}

func TestWriteReportsWriterError(t *testing.T) {
	var big core.CheckResult
	for i := 0; i < 4000; i++ {
		big.Anomalies = append(big.Anomalies, anomaly.Anomaly{Type: "G0", Explanation: "an explanation of some length"})
	}
	for _, n := range []int{0, 10, flushAt + 100} {
		if err := reportOf(big, "", stats.Stats{}).Write(&failingWriter{n: n}); !errors.Is(err, errFull) {
			t.Errorf("writer failing after %d bytes: Write returned %v", n, err)
		}
	}
}

func FuzzReportWrite(f *testing.F) {
	for i, s := range awkward {
		f.Add(s, s, int64(i), int64(-i))
	}
	f.Add("", "", int64(math.MinInt64), int64(math.MaxInt64))
	f.Fuzz(func(t *testing.T, s1, s2 string, n1, n2 int64) {
		a, b := int(n1), int(n2)
		checkWrite(t, "fuzz", reportOf(core.CheckResult{
			Valid: a < b, Expected: consistency.Model(s1),
			Violated: models(s1, s2), Strongest: models(s2),
			Anomalies: []anomaly.Anomaly{
				{Type: anomaly.Type(s1), Key: s2, Ops: opsAt(a, b), K: a, Explanation: s1 + s2},
				{Type: anomaly.Type(s2), Cycle: cycleOf(int(uint32(a)), int(uint32(b))), K: b},
			},
			Stats: core.Stats{Nodes: b, SCCs: a},
		}, s2, stats.Stats{Ops: a, Keys: b}))
	})
}
