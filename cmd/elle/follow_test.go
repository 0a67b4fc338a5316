package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/jsonhist"
	"repro/internal/memdb"
)

// encodeFaultedListHistory produces a JSON-lines list-append history
// with planted anomalies, the follow-mode acceptance fixture.
func encodeFaultedListHistory(t *testing.T, txns int) string {
	t.Helper()
	g := gen.New(gen.Config{Workload: gen.ListAppend, ActiveKeys: 5, MaxWritesPerKey: 40}, 11)
	h := memdb.Run(memdb.RunConfig{
		Clients: 10, Txns: txns, Isolation: memdb.SnapshotIsolation,
		Faults: memdb.Faults{RetryStompProb: 0.5, RetryRebaseProb: 1},
		Source: g, Seed: 11, Workload: memdb.WorkloadList, InfoProb: 0.02,
	})
	var buf bytes.Buffer
	if err := jsonhist.Encode(&buf, h); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestFollowMatchesBatch is the follow-mode acceptance test: `elle
// -follow` on a file written in bursts emits, on stdout, exactly what a
// batch `elle` run on the completed file emits — at parallelism 1 and
// 8 — while surfacing provisional findings on stderr as the file grows.
func TestFollowMatchesBatch(t *testing.T) {
	content := encodeFaultedListHistory(t, 400)
	path := filepath.Join(t.TempDir(), "history.jsonl")

	var batch bytes.Buffer
	{
		full := write(t, content)
		var errb bytes.Buffer
		if code := run([]string{"-model", "serializable", full}, strings.NewReader(""), &batch, &errb); code != 1 {
			t.Fatalf("batch run: exit = %d, stderr: %s", code, errb.String())
		}
	}

	lines := strings.SplitAfter(strings.TrimSuffix(content, "\n"), "\n")
	for _, p := range []string{"1", "8"} {
		// Write the history in bursts while -follow tails it.
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan struct{})
		go func() {
			defer close(done)
			defer f.Close()
			for i := 0; i < len(lines); i += 100 {
				end := i + 100
				if end > len(lines) {
					end = len(lines)
				}
				if _, err := f.WriteString(strings.Join(lines[i:end], "")); err != nil {
					t.Error(err)
					return
				}
				if err := f.Sync(); err != nil {
					t.Error(err)
					return
				}
				time.Sleep(30 * time.Millisecond)
			}
		}()

		var out, errb bytes.Buffer
		code := run([]string{"-follow", "-follow-idle", "500ms", "-model", "serializable", "-parallelism", p, path},
			strings.NewReader(""), &out, &errb)
		<-done
		if code != 1 {
			t.Fatalf("p=%s: exit = %d, want 1; stderr: %s", p, code, errb.String())
		}
		if out.String() != batch.String() {
			t.Fatalf("p=%s: follow stdout diverges from batch:\n--- batch ---\n%s\n--- follow ---\n%s",
				p, batch.String(), out.String())
		}
		if !strings.Contains(errb.String(), "stream complete") {
			t.Errorf("p=%s: stderr missing completion line:\n%s", p, errb.String())
		}
		if !strings.Contains(errb.String(), "provisional") {
			t.Errorf("p=%s: no provisional findings surfaced while following:\n%s", p, errb.String())
		}
	}
}

// TestFollowPartialLineIdle is the regression test for idle expiry
// landing mid-line: the writer emits the final line in two timed
// halves, with a pause longer than the idle window between them. The
// follow run must keep waiting for the newline — not hand the truncated
// fragment to the decoder as if it were final — and still produce the
// batch report.
func TestFollowPartialLineIdle(t *testing.T) {
	content := encodeFaultedListHistory(t, 60)
	path := filepath.Join(t.TempDir(), "history.jsonl")

	var batch bytes.Buffer
	{
		var errb bytes.Buffer
		if code := run([]string{"-model", "serializable", write(t, content)},
			strings.NewReader(""), &batch, &errb); code != 1 {
			t.Fatalf("batch run: exit = %d, stderr: %s", code, errb.String())
		}
	}

	lines := strings.SplitAfter(strings.TrimSuffix(content, "\n"), "\n")
	last := lines[len(lines)-1]
	head := strings.Join(lines[:len(lines)-1], "")
	half := len(last) / 2

	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	const idle = 400 * time.Millisecond
	go func() {
		defer close(done)
		defer f.Close()
		// Everything but the final line's second half lands at once;
		// then the writer stalls mid-line for longer than the idle
		// window (but inside the partial-line grace). The old reader
		// declared the stream complete during that stall and fed the
		// fragment to the decoder.
		for _, part := range []string{head + last[:half], last[half:]} {
			if _, err := f.WriteString(part); err != nil {
				t.Error(err)
				return
			}
			if err := f.Sync(); err != nil {
				t.Error(err)
				return
			}
			time.Sleep(2 * idle)
		}
	}()

	var out, errb bytes.Buffer
	code := run([]string{"-follow", "-follow-idle", idle.String(), "-model", "serializable", path},
		strings.NewReader(""), &out, &errb)
	<-done
	if code != 1 {
		t.Fatalf("exit = %d, want 1; stderr: %s", code, errb.String())
	}
	if out.String() != batch.String() {
		t.Fatalf("follow stdout diverges from batch:\n--- batch ---\n%s\n--- follow ---\n%s",
			batch.String(), out.String())
	}
}

// TestFollowTruncated: shrinking the followed file mid-run (log
// rotation) must fail loudly with exit status 3, not end the run with a
// short report.
func TestFollowTruncated(t *testing.T) {
	content := encodeFaultedListHistory(t, 100)
	path := filepath.Join(t.TempDir(), "history.jsonl")
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		// Let the follow run consume the whole file, then rotate it out
		// from under the checker before the idle window can elapse.
		time.Sleep(400 * time.Millisecond)
		if err := os.Truncate(path, 10); err != nil {
			t.Error(err)
		}
	}()

	var out, errb bytes.Buffer
	code := run([]string{"-follow", "-follow-idle", "2s", "-model", "serializable", path},
		strings.NewReader(""), &out, &errb)
	<-done
	if code != 3 {
		t.Fatalf("exit = %d, want 3; stderr: %s", code, errb.String())
	}
	if !strings.Contains(errb.String(), "shrank") {
		t.Errorf("stderr does not name the truncation:\n%s", errb.String())
	}
}

// TestFollowStdin: on stdin, follow mode streams to pipe EOF with no
// idle heuristic, and still matches the batch report.
func TestFollowStdin(t *testing.T) {
	var batch, out, errb bytes.Buffer
	if code := run([]string{"-model", "read-committed", write(t, g1aHistory)},
		strings.NewReader(""), &batch, &errb); code != 1 {
		t.Fatalf("batch: exit %d", code)
	}
	errb.Reset()
	code := run([]string{"-follow", "-model", "read-committed", "-"},
		strings.NewReader(g1aHistory), &out, &errb)
	if code != 1 {
		t.Fatalf("exit = %d, stderr: %s", code, errb.String())
	}
	if out.String() != batch.String() {
		t.Fatalf("follow stdout diverges from batch:\n%s\nvs\n%s", out.String(), batch.String())
	}
	if !strings.Contains(errb.String(), "G1a") {
		t.Errorf("G1a not surfaced mid-stream:\n%s", errb.String())
	}
}

// TestFollowMemBudget: `-follow -mem-budget` retires settled prefixes
// while streaming, reports the retirement counters at completion, and
// still renders the exact batch report — the bounded-memory mode's
// byte-identical contract, exercised through the CLI.
func TestFollowMemBudget(t *testing.T) {
	content := encodeFaultedListHistory(t, 400)

	var batch, errb bytes.Buffer
	if code := run([]string{"-model", "serializable", write(t, content)},
		strings.NewReader(""), &batch, &errb); code != 1 {
		t.Fatalf("batch run: exit = %d, stderr: %s", code, errb.String())
	}

	var out bytes.Buffer
	errb.Reset()
	code := run([]string{"-follow", "-model", "serializable",
		"-mem-budget", "64", "-mem-spill", t.TempDir(), "-"},
		strings.NewReader(content), &out, &errb)
	if code != 1 {
		t.Fatalf("exit = %d, want 1; stderr: %s", code, errb.String())
	}
	if out.String() != batch.String() {
		t.Fatalf("budgeted follow stdout diverges from batch:\n--- batch ---\n%s\n--- follow ---\n%s",
			batch.String(), out.String())
	}
	if !strings.Contains(errb.String(), "memory budget:") {
		t.Errorf("stderr missing retirement counters:\n%s", errb.String())
	}
}

// TestFollowMalformedInput: a bad line fails the stream with the usual
// decoder error and exit 2.
func TestFollowMalformedInput(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-follow", "-"}, strings.NewReader("not json\n"), &out, &errb)
	if code != 2 {
		t.Fatalf("exit = %d, want 2; stderr: %s", code, errb.String())
	}
	if !strings.Contains(errb.String(), "line 1") {
		t.Errorf("error lacks line number:\n%s", errb.String())
	}
}

// TestFollowMalformedAfterGoodLines: the well-formed lines read with a
// bad one are checked before the stream fails, so their provisional
// findings print ahead of the decoder error and exit 2.
func TestFollowMalformedAfterGoodLines(t *testing.T) {
	bad := strings.Count(g1aHistory, "\n") + 1
	var out, errb bytes.Buffer
	code := run([]string{"-follow", "-model", "read-committed", "-"},
		strings.NewReader(g1aHistory+"not json\n"), &out, &errb)
	if code != 2 {
		t.Fatalf("exit = %d, want 2; stderr: %s", code, errb.String())
	}
	stderr := errb.String()
	g1a, failed := strings.Index(stderr, "provisional: G1a"), strings.Index(stderr, "line "+strconv.Itoa(bad)+":")
	if g1a < 0 || failed < 0 || g1a > failed {
		t.Fatalf("want the prefix's provisional G1a, then the error naming line %d:\n%s", bad, stderr)
	}
}
