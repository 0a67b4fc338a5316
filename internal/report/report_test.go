package report

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/consistency"
	"repro/internal/core"
	"repro/internal/history"
	"repro/internal/nemesis"
	"repro/internal/op"
)

func TestReportShape(t *testing.T) {
	h := history.MustNew([]op.Op{
		op.Txn(0, 0, op.Fail, op.Append("x", 1)),
		op.Txn(1, 1, op.OK, op.ReadList("x", []int{1})),
	})
	res := core.Check(h, core.OptsFor(core.ListAppend, consistency.ReadCommitted))
	r := New(h, core.ListAppend, res)

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
	var buf bytes.Buffer
	if err := New(h, core.ListAppend, res).Write(&buf); err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
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
		t.Errorf("cycle witness missing: %s", buf.String())
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
	r := New(h, core.ListAppend, res)
	if !r.Valid || len(r.Anomalies) != 0 {
		t.Errorf("clean report: %+v", r)
	}
	if len(r.Strongest) != 1 || r.Strongest[0] != "strict-serializable" {
		t.Errorf("strongest = %v", r.Strongest)
	}
}

// encodeOracle is what Write replaced: encoding/json's reflection and
// indentation, with HTML escaping on.
func encodeOracle(t testing.TB, r Report) []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(r); err != nil {
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

func TestWriteMatchesEncodingJSON(t *testing.T) {
	full := Anomaly{Type: "G-single", Key: "k", Txns: []int{3, -1, 0}, Cycle: "T3 -rw-> T4 -ww-> T3", K: 2, Explanation: "because"}
	cases := map[string]Report{
		"zero":  {},
		"empty": {Violated: []string{}, Strongest: []string{}, Anomalies: []Anomaly{}},
		"lists": {Valid: true, Expected: "serializable", Workload: "list-append",
			Violated: []string{"a"}, Strongest: []string{"b", "c"}},
		"omitempty-empty": {Anomalies: []Anomaly{{}, {Type: "G0", Txns: []int{}}}},
		"omitempty-set":   {Anomalies: []Anomaly{full, {Type: "k-atomicity", K: 1}, {Type: "G1a", Txns: []int{7}}}},
		"ints": {
			Anomalies: []Anomaly{{Type: "x", Txns: []int{math.MinInt64, math.MaxInt64, -42}, K: math.MinInt64}},
			History:   History{Ops: math.MaxInt64, Attempts: -1, Committed: 1 << 40, Aborted: -1 << 40, MaxConcurrent: 9},
			Graph:     Graph{Nodes: math.MinInt64, Edges: 12345678901, SCCs: -7},
		},
	}
	for i, s := range awkward {
		cases[fmt.Sprintf("strings-%d", i)] = Report{
			Expected: s, Workload: s, Violated: []string{s, s}, Strongest: []string{s},
			Anomalies: []Anomaly{{Type: s, Key: s, Cycle: s, Explanation: s}},
		}
	}
	// Each kind of byte the escaper stops at, at every offset of a plain
	// run, so both its eight-byte groups and its byte loop meet it.
	for _, special := range []string{"\x00", "\x1f", "\"", "\\", "<", ">", "&", "\x7f", "\xff", "é", " "} {
		for at := 0; at <= 17; at++ {
			s := strings.Repeat("a", at) + special + strings.Repeat("b", 17-at)
			cases[fmt.Sprintf("special-%q-at-%d", special, at)] = Report{Expected: s, Anomalies: []Anomaly{{Type: s}}}
		}
	}
	// More anomalies than one buffer holds, so Write flushes mid-list.
	big := Report{}
	for i := 0; i < 4000; i++ {
		big.Anomalies = append(big.Anomalies, Anomaly{Type: "G2-item", Txns: []int{i, i + 1}, Explanation: awkward[i%len(awkward)]})
	}
	cases["flushes"] = big
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
	big := Report{}
	for i := 0; i < 4000; i++ {
		big.Anomalies = append(big.Anomalies, Anomaly{Type: "G0", Explanation: "an explanation of some length"})
	}
	for _, n := range []int{0, 10, flushAt + 100} {
		if err := big.Write(&failingWriter{n: n}); !errors.Is(err, errFull) {
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
		checkWrite(t, "fuzz", Report{
			Valid: a < b, Expected: s1, Workload: s2,
			Violated: []string{s1, s2}, Strongest: []string{s2},
			Anomalies: []Anomaly{
				{Type: s1, Key: s2, Txns: []int{a, b}, Cycle: s2, K: a, Explanation: s1 + s2},
				{Type: s2, K: b},
			},
			History: History{Ops: a, Keys: b},
			Graph:   Graph{Nodes: b, SCCs: a},
		})
	})
}
