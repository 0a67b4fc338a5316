package main

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/jsonhist"
	"repro/internal/memdb"
	"repro/internal/workload"
)

func write(t *testing.T, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "history.jsonl")
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

const cleanHistory = `{"index":0,"type":"ok","process":0,"value":[["append","x",1]]}
{"index":1,"type":"ok","process":1,"value":[["append","x",2]]}
{"index":2,"type":"ok","process":2,"value":[["r","x",[1,2]]]}
`

const g1aHistory = `{"index":0,"type":"fail","process":0,"value":[["append","x",1]]}
{"index":1,"type":"ok","process":1,"value":[["r","x",[1]]]}
`

func TestCleanHistoryExitsZero(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{write(t, cleanHistory)}, strings.NewReader(""), &out, &errb)
	if code != 0 {
		t.Fatalf("exit = %d, stderr: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "OK") {
		t.Errorf("output missing verdict:\n%s", out.String())
	}
}

func TestAnomalousHistoryExitsOne(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-model", "read-committed", write(t, g1aHistory)},
		strings.NewReader(""), &out, &errb)
	if code != 1 {
		t.Fatalf("exit = %d, want 1; stderr: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "G1a") {
		t.Errorf("output missing G1a:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "aborted") {
		t.Errorf("output missing explanation:\n%s", out.String())
	}
}

func TestStdinInput(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-"}, strings.NewReader(cleanHistory), &out, &errb)
	if code != 0 {
		t.Fatalf("exit = %d, stderr: %s", code, errb.String())
	}
}

func TestQuietSuppressesExplanations(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-q", "-model", "read-committed", write(t, g1aHistory)},
		strings.NewReader(""), &out, &errb)
	if code != 1 {
		t.Fatalf("exit = %d", code)
	}
	if strings.Contains(out.String(), "--- anomaly") {
		t.Errorf("quiet mode printed explanations:\n%s", out.String())
	}
}

func TestDOTOutput(t *testing.T) {
	// A write-skew history whose cycle should render as DOT.
	h := `{"index":0,"type":"ok","process":0,"value":[["r","x",[]],["append","y",1]]}
{"index":1,"type":"ok","process":1,"value":[["r","y",[]],["append","x",1]]}
{"index":2,"type":"ok","process":2,"value":[["r","x",[1]],["r","y",[1]]]}
`
	var out, errb bytes.Buffer
	code := run([]string{"-dot", "-model", "serializable", write(t, h)},
		strings.NewReader(""), &out, &errb)
	if code != 1 {
		t.Fatalf("exit = %d, stderr: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "digraph elle") {
		t.Errorf("missing DOT output:\n%s", out.String())
	}
}

func TestRegisterWorkloadFlag(t *testing.T) {
	h := `{"index":0,"type":"ok","process":0,"value":[["w","x",2],["r","x",1]]}
{"index":1,"type":"ok","process":1,"value":[["w","x",1]]}
`
	var out, errb bytes.Buffer
	code := run([]string{"-workload", "register", "-model", "snapshot-isolation", write(t, h)},
		strings.NewReader(""), &out, &errb)
	if code != 1 {
		t.Fatalf("exit = %d, stderr: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "internal") {
		t.Errorf("register internal anomaly missing:\n%s", out.String())
	}
}

// writeBankHistory generates a bank history against the engine with the
// given faults and writes it as JSON lines, the way ellegen does.
func writeBankHistory(t *testing.T, faults memdb.Faults, iso memdb.Isolation, txns int) string {
	t.Helper()
	g := gen.New(gen.Config{Workload: gen.Bank, ActiveKeys: 5}, 7)
	h := memdb.Run(memdb.RunConfig{
		Clients: 10, Txns: txns, Isolation: iso, Faults: faults,
		Source: g, Seed: 7, Workload: memdb.WorkloadBank,
	})
	var buf bytes.Buffer
	if err := jsonhist.Encode(&buf, h); err != nil {
		t.Fatal(err)
	}
	return write(t, buf.String())
}

// TestBankWorkloadClean: a clean serializable bank history checks OK
// through the CLI.
func TestBankWorkloadClean(t *testing.T) {
	path := writeBankHistory(t, memdb.Faults{}, memdb.StrictSerializable, 300)
	var out, errb bytes.Buffer
	code := run([]string{"-workload", "bank", path}, strings.NewReader(""), &out, &errb)
	if code != 0 {
		t.Fatalf("exit = %d, stderr: %s\n%s", code, errb.String(), out.String())
	}
	if !strings.Contains(out.String(), "OK") {
		t.Errorf("output missing verdict:\n%s", out.String())
	}
}

// TestBankWorkloadFaultedDeterministic is the acceptance check for the
// bank seam: a faulted bank history reports at least one anomaly with
// an explanation, and the full report is byte-identical at
// parallelism 1 and 8.
func TestBankWorkloadFaultedDeterministic(t *testing.T) {
	path := writeBankHistory(t, memdb.Faults{StaleReadProb: 0.3}, memdb.SnapshotIsolation, 800)
	reports := map[string]string{}
	for _, p := range []string{"1", "8"} {
		var out, errb bytes.Buffer
		code := run([]string{"-workload", "bank", "-model", "snapshot-isolation", "-parallelism", p, path},
			strings.NewReader(""), &out, &errb)
		if code != 1 {
			t.Fatalf("p=%s: exit = %d, want 1; stderr: %s\n%s", p, code, errb.String(), out.String())
		}
		reports[p] = out.String()
	}
	if reports["1"] != reports["8"] {
		t.Fatalf("reports diverge between parallelism 1 and 8:\n--- p=1 ---\n%s\n--- p=8 ---\n%s",
			reports["1"], reports["8"])
	}
	if !strings.Contains(reports["1"], "--- anomaly 1:") {
		t.Errorf("no anomaly reported:\n%s", reports["1"])
	}
	if !strings.Contains(reports["1"], "total") && !strings.Contains(reports["1"], "because") {
		t.Errorf("anomaly lacks an explanation:\n%s", reports["1"])
	}
}

// TestUnknownWorkloadListsRegistry: a bad -workload prints every
// registered name.
func TestUnknownWorkloadListsRegistry(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-workload", "bogus", "x.jsonl"}, strings.NewReader(""), &out, &errb); code != 2 {
		t.Fatalf("exit = %d, want 2", code)
	}
	for _, name := range workload.Names() {
		if !strings.Contains(errb.String(), name) {
			t.Errorf("error message missing workload %q:\n%s", name, errb.String())
		}
	}
}

func TestUsageErrors(t *testing.T) {
	cases := [][]string{
		{},                                // no file
		{"-workload", "bogus", "x.jsonl"}, // bad workload
		{"-model", "bogus", "x.jsonl"},    // bad model
		{"/nonexistent/path.jsonl"},       // missing file
	}
	for _, args := range cases {
		var out, errb bytes.Buffer
		if code := run(args, strings.NewReader(""), &out, &errb); code != 2 {
			t.Errorf("run(%v) exit = %d, want 2", args, code)
		}
	}
}

// TestMemoryFlagErrors: a memory flag elle would ignore or misread is a
// usage error, and a refused -mem-spill creates no directory.
func TestMemoryFlagErrors(t *testing.T) {
	path := write(t, cleanHistory)
	spill := filepath.Join(t.TempDir(), "spill")
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-follow", "-mem-budget", "-5"}, "-mem-budget must be >= 0"},
		{[]string{"-mem-budget", "-5"}, "-mem-budget must be >= 0"},
		{[]string{"-mem-budget", "64"}, "require -follow"},
		{[]string{"-mem-budget", "64", "-mem-spill", spill}, "require -follow"},
		{[]string{"-mem-spill", spill}, "require -follow"},
		{[]string{"-follow", "-mem-spill", spill}, "-mem-spill requires -mem-budget"},
	}
	for _, c := range cases {
		var out, errb bytes.Buffer
		if code := run(append(c.args, path), strings.NewReader(""), &out, &errb); code != 2 {
			t.Errorf("%v: exit = %d, want 2", c.args, code)
		}
		if !strings.Contains(errb.String(), c.want) {
			t.Errorf("%v: stderr = %q, want %q", c.args, errb.String(), c.want)
		}
		if _, err := os.Stat(spill); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("%v: refused -mem-spill left %s behind (%v)", c.args, spill, err)
		}
	}
}

func TestMalformedInputExitsTwo(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{write(t, "not json\n")}, strings.NewReader(""), &out, &errb)
	if code != 2 {
		t.Fatalf("exit = %d, want 2", code)
	}
}

func TestJSONReport(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-json", "-model", "read-committed", write(t, g1aHistory)},
		strings.NewReader(""), &out, &errb)
	if code != 1 {
		t.Fatalf("exit = %d", code)
	}
	if !strings.Contains(out.String(), `"valid": false`) ||
		!strings.Contains(out.String(), `"G1a"`) {
		t.Errorf("JSON report wrong:\n%s", out.String())
	}
}

func TestStatsFlag(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-stats", write(t, cleanHistory)}, strings.NewReader(""), &out, &errb)
	if code != 0 {
		t.Fatalf("exit = %d", code)
	}
	if !strings.Contains(out.String(), "attempts") {
		t.Errorf("stats missing:\n%s", out.String())
	}
}

// fullWriter fails every write, as stdout redirected to /dev/full does.
type fullWriter struct{ writes int }

var errNoSpace = errors.New("no space left on device")

func (w *fullWriter) Write(p []byte) (int, error) {
	w.writes++
	return 0, errNoSpace
}

// TestFailedStdoutWriteExitsTwo: in every mode, output that never
// reached stdout is an error, reported once on stderr with exit 2 — the
// prose report as much as the JSON one — and stdout sees one write, not
// one per line of the report.
func TestFailedStdoutWriteExitsTwo(t *testing.T) {
	faulted := write(t, encodeFaultedListHistory(t, 300))
	cases := map[string][]string{
		"prose":          {faulted},
		"quiet":          {"-q", faulted},
		"stats":          {"-stats", write(t, cleanHistory)},
		"json":           {"-json", faulted},
		"json-small":     {"-json", write(t, cleanHistory)},
		"follow":         {"-follow", "-"},
		"follow-json":    {"-follow", "-json", "-"},
		"query":          {"-query", "(cycle ?c _ ?t _)", faulted},
		"query-explain":  {"-query", "(cycle ?c _ ?t _)", "-explain", faulted},
		"convert-json":   {"-convert", "json", faulted},
		"convert-binary": {"-convert", "binary", faulted},
	}
	for name, args := range cases {
		stdin := strings.NewReader("")
		if args[len(args)-1] == "-" {
			stdin = strings.NewReader(encodeFaultedListHistory(t, 300))
		}
		var w fullWriter
		var errb bytes.Buffer
		if code := run(args, stdin, &w, &errb); code != 2 {
			t.Errorf("%s: exit = %d, want 2; stderr: %s", name, code, errb.String())
			continue
		}
		if n := strings.Count(errb.String(), errNoSpace.Error()); n != 1 {
			t.Errorf("%s: stderr names the write error %d times, want once:\n%s", name, n, errb.String())
		}
		if w.writes != 1 {
			t.Errorf("%s: %d writes to stdout, want 1 (buffered, and none after the failure)", name, w.writes)
		}
	}
}

// TestStdoutBuffered: a successful run's stdout is unchanged by the
// buffer, and arrives in few writes.
func TestStdoutBuffered(t *testing.T) {
	path := write(t, encodeFaultedListHistory(t, 300))
	var direct bytes.Buffer
	if code := run([]string{path}, strings.NewReader(""), &direct, io.Discard); code != 1 {
		t.Fatalf("exit = %d, want 1", code)
	}
	var counted countingWriter
	if code := run([]string{path}, strings.NewReader(""), &counted, io.Discard); code != 1 {
		t.Fatalf("exit = %d, want 1", code)
	}
	if counted.buf.String() != direct.String() {
		t.Fatal("output differs between runs")
	}
	if max := direct.Len()/4096 + 1; counted.writes > max {
		t.Errorf("%d writes for %d bytes, want at most %d", counted.writes, direct.Len(), max)
	}
}

type countingWriter struct {
	buf    bytes.Buffer
	writes int
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.writes++
	return w.buf.Write(p)
}
