package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/binhist"
	"repro/internal/core"
	"repro/internal/jsonhist"
	"repro/internal/report"
	"repro/internal/wal"
	"repro/internal/workload"
)

// startServer is newTestServer without the shared cleanup assumptions:
// restart tests stop and re-create services mid-test. The returned
// stop func is idempotent.
func startServer(t *testing.T, cfg Config) (*Service, *httptest.Server, func()) {
	t.Helper()
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(svc)
	stop := func() { srv.Close(); svc.Close() }
	t.Cleanup(stop)
	return svc, srv, stop
}

// walFile returns the path of a job's journal.
func walFile(cfg Config, id string) string { return filepath.Join(cfg.WALDir, id+".wal") }

// TestWALReplayTable is the replay acceptance table: each case mutates
// (or doesn't) the on-disk journals between a stop and a restart and
// pins what the reborn service must expose.
func TestWALReplayTable(t *testing.T) {
	g1aLines := strings.SplitAfter(strings.TrimSuffix(g1aHistory, "\n"), "\n")

	t.Run("clean-restart", func(t *testing.T) {
		cfg := Config{WALDir: t.TempDir()}
		_, srv, stop := startServer(t, cfg)
		id := createJob(t, srv.Client(), srv.URL, `{"model":"read-committed","parallelism":1}`)
		feedChunks(t, srv.Client(), srv.URL, id, g1aHistory, 1)
		stop()

		_, srv2, _ := startServer(t, cfg)
		var st jobJSON
		if code, raw := do(t, srv2.Client(), "GET", srv2.URL+"/v1/jobs/"+id, "", &st); code != http.StatusOK {
			t.Fatalf("status after restart: %d: %s", code, raw)
		}
		if !st.Resumed || st.State != stateAccepting || st.Chunks != len(g1aLines) || st.Ops != 2 {
			t.Fatalf("replayed status: %+v", st)
		}
		// The replayed session picked up the provisional findings too.
		if types := anomalyTypes(t, st.Anomalies); len(types) == 0 || types[0] != "G1a" {
			t.Fatalf("replay lost provisional anomalies: %s", st.Anomalies)
		}
		// And it finalizes normally.
		if code, body := do(t, srv2.Client(), "GET", srv2.URL+"/v1/jobs/"+id+"/report", "", nil); code != http.StatusOK || !strings.Contains(body, "G1a") {
			t.Fatalf("report after restart: %d: %s", code, body)
		}
	})

	t.Run("torn-trailing-record", func(t *testing.T) {
		cfg := Config{WALDir: t.TempDir()}
		_, srv, stop := startServer(t, cfg)
		id := createJob(t, srv.Client(), srv.URL, `{"model":"read-committed","parallelism":1}`)
		feedChunks(t, srv.Client(), srv.URL, id, g1aHistory, 1)
		stop()

		raw, err := os.ReadFile(walFile(cfg, id))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(walFile(cfg, id), raw[:len(raw)-2], 0o644); err != nil {
			t.Fatal(err)
		}

		_, srv2, _ := startServer(t, cfg)
		var st jobJSON
		do(t, srv2.Client(), "GET", srv2.URL+"/v1/jobs/"+id, "", &st)
		if st.Chunks != len(g1aLines)-1 || st.State != stateAccepting {
			t.Fatalf("after torn tail: %+v, want %d chunks", st, len(g1aLines)-1)
		}
		// Re-feeding the dropped chunk completes the stream on the frame
		// boundary.
		code, _ := do(t, srv2.Client(), "POST", srv2.URL+"/v1/jobs/"+id+"/chunks", g1aLines[len(g1aLines)-1], nil)
		if code != http.StatusOK {
			t.Fatalf("re-feed after tear: %d", code)
		}
		if code, body := do(t, srv2.Client(), "GET", srv2.URL+"/v1/jobs/"+id+"/report", "", nil); code != http.StatusOK || !strings.Contains(body, "G1a") {
			t.Fatalf("report after tear+resume: %d: %s", code, body)
		}
	})

	t.Run("altered-chunk", func(t *testing.T) {
		cfg := Config{WALDir: t.TempDir()}
		_, srv, stop := startServer(t, cfg)
		id := createJob(t, srv.Client(), srv.URL, `{"model":"read-committed","parallelism":1}`)
		feedChunks(t, srv.Client(), srv.URL, id, g1aHistory, 1)
		stop()

		// One byte of the last chunk's body, altered in place: its
		// checksum fails, and replay stops before it as at a tear.
		raw, err := os.ReadFile(walFile(cfg, id))
		if err != nil {
			t.Fatal(err)
		}
		raw[len(raw)-3] ^= 0x20
		if err := os.WriteFile(walFile(cfg, id), raw, 0o644); err != nil {
			t.Fatal(err)
		}

		_, srv2, _ := startServer(t, cfg)
		var st jobJSON
		do(t, srv2.Client(), "GET", srv2.URL+"/v1/jobs/"+id, "", &st)
		if st.Chunks != len(g1aLines)-1 || st.State != stateAccepting {
			t.Fatalf("after altered chunk: %+v, want %d chunks", st, len(g1aLines)-1)
		}
		code, _ := do(t, srv2.Client(), "POST", srv2.URL+"/v1/jobs/"+id+"/chunks", g1aLines[len(g1aLines)-1], nil)
		if code != http.StatusOK {
			t.Fatalf("re-feed after altered chunk: %d", code)
		}
		if code, body := do(t, srv2.Client(), "GET", srv2.URL+"/v1/jobs/"+id+"/report", "", nil); code != http.StatusOK || !strings.Contains(body, "G1a") {
			t.Fatalf("report after altered chunk+resume: %d: %s", code, body)
		}
	})

	t.Run("version-1", func(t *testing.T) {
		cfg := Config{WALDir: t.TempDir()}
		_, srv, stop := startServer(t, cfg)
		id := createJob(t, srv.Client(), srv.URL, `{}`)
		stop()

		raw, err := os.ReadFile(walFile(cfg, id))
		if err != nil {
			t.Fatal(err)
		}
		raw[7] = 1 // the header's version byte
		if err := os.WriteFile(walFile(cfg, id), raw, 0o644); err != nil {
			t.Fatal(err)
		}

		svc2, _, _ := startServer(t, cfg)
		if sk := svc2.SkippedWALs(); svc2.Jobs() != 0 || len(sk) != 1 || sk[0] != walFile(cfg, id) {
			t.Fatalf("a version-1 journal: %d jobs, skipped %v", svc2.Jobs(), sk)
		}
	})

	t.Run("truncated-header", func(t *testing.T) {
		cfg := Config{WALDir: t.TempDir()}
		_, srv, stop := startServer(t, cfg)
		id := createJob(t, srv.Client(), srv.URL, `{}`)
		stop()

		if err := os.Truncate(walFile(cfg, id), 4); err != nil {
			t.Fatal(err)
		}

		svc2, srv2, _ := startServer(t, cfg)
		if svc2.Jobs() != 0 {
			t.Fatalf("unreadable journal produced %d jobs", svc2.Jobs())
		}
		if sk := svc2.SkippedWALs(); len(sk) != 1 || sk[0] != walFile(cfg, id) {
			t.Fatalf("skipped = %v", sk)
		}
		if code, _ := do(t, srv2.Client(), "GET", srv2.URL+"/v1/jobs/"+id, "", nil); code != http.StatusNotFound {
			t.Fatalf("corrupt-journal job resolves: %d", code)
		}
	})

	t.Run("missing-dict-segment", func(t *testing.T) {
		// A binary job whose journal lost its first chunk — the one
		// carrying the ellebin header and key dictionary — must fail
		// loudly on replay, never silently report on a fragment.
		info, _ := workload.Lookup("list-append")
		h, err := jsonhist.DecodeWith(strings.NewReader(g1aHistory), jsonhist.DecodeOpts{Register: info.RegisterReads})
		if err != nil {
			t.Fatal(err)
		}
		var bin bytes.Buffer
		if err := binhist.Encode(&bin, h); err != nil {
			t.Fatal(err)
		}
		cfg := Config{WALDir: t.TempDir()}
		j, err := wal.Create(cfg.WALDir, wal.Options{}, wal.Meta{
			ID: "j1", Seq: 1, Workload: "list-append", Model: "read-committed",
			Parallelism: 1, CreatedAt: time.Now().UTC(),
		})
		if err != nil {
			t.Fatal(err)
		}
		// Journal only the tail half: the dict segment never made it.
		if err := j.AppendChunk(wal.FormatBinary, bin.Bytes()[bin.Len()/2:]); err != nil {
			t.Fatal(err)
		}
		j.Close()

		_, srv, _ := startServer(t, cfg)
		var st jobJSON
		if code, raw := do(t, srv.Client(), "GET", srv.URL+"/v1/jobs/j1", "", &st); code != http.StatusOK {
			t.Fatalf("status: %d: %s", code, raw)
		}
		if st.State != stateFailed || st.Error == "" {
			t.Fatalf("dict-less replay did not fail the job: %+v", st)
		}
	})

	t.Run("concurrent-jobs", func(t *testing.T) {
		cfg := Config{WALDir: t.TempDir()}
		_, srv, stop := startServer(t, cfg)
		ids := make([]string, 3)
		for i := range ids {
			ids[i] = createJob(t, srv.Client(), srv.URL, `{"model":"read-committed","parallelism":1}`)
			// Job i gets i+1 chunks of the two-line history (capped at 2).
			feedChunks(t, srv.Client(), srv.URL, ids[i], g1aLines[0], 1)
			if i > 0 {
				feedChunks(t, srv.Client(), srv.URL, ids[i], g1aLines[1], 1)
			}
		}
		stop()

		_, srv2, _ := startServer(t, cfg)
		for i, id := range ids {
			var st jobJSON
			if code, raw := do(t, srv2.Client(), "GET", srv2.URL+"/v1/jobs/"+id, "", &st); code != http.StatusOK {
				t.Fatalf("job %s lost in restart: %d: %s", id, code, raw)
			}
			want := 1
			if i > 0 {
				want = 2
			}
			if st.Chunks != want || !st.Resumed {
				t.Fatalf("job %s: %+v, want %d chunks", id, st, want)
			}
		}
		// The id allocator resumed past the survivors: no collisions.
		fresh := createJob(t, srv2.Client(), srv2.URL, `{}`)
		for _, id := range ids {
			if fresh == id {
				t.Fatalf("new job reused resumed id %s", id)
			}
		}
	})
}

// TestReplayKeepsCreateParameters: a job created with every create
// parameter set comes back from its journal as it was — the same
// status, apart from resumed, and the report of a job that never
// restarted.
func TestReplayKeepsCreateParameters(t *testing.T) {
	const body = `{"workload":"bank","model":"snapshot-isolation","parallelism":2,"memory_budget":64}`
	jsonl := faultedHistory(t, "bank", 5, 400)

	_, ref, _ := startServer(t, Config{SpillDir: t.TempDir()})
	refID := createJob(t, ref.Client(), ref.URL, body)
	feedChunks(t, ref.Client(), ref.URL, refID, jsonl, 50)
	code, want := do(t, ref.Client(), "GET", ref.URL+"/v1/jobs/"+refID+"/report", "", nil)
	if code != http.StatusOK {
		t.Fatalf("report of the job that never restarted: %d: %s", code, want)
	}

	cfg := Config{WALDir: t.TempDir(), SpillDir: t.TempDir()}
	_, srv, stop := startServer(t, cfg)
	id := createJob(t, srv.Client(), srv.URL, body)
	feedChunks(t, srv.Client(), srv.URL, id, jsonl, 50)
	var before jobJSON
	do(t, srv.Client(), "GET", srv.URL+"/v1/jobs/"+id, "", &before)
	stop()

	_, srv2, _ := startServer(t, cfg)
	var after jobJSON
	do(t, srv2.Client(), "GET", srv2.URL+"/v1/jobs/"+id, "", &after)
	if before.Workload != "bank" || before.Model != "snapshot-isolation" || before.Memory == nil || before.Resumed || !after.Resumed {
		t.Fatalf("status before the restart %+v, after %+v", before, after)
	}
	after.Resumed = false
	b, _ := json.Marshal(before)
	a, _ := json.Marshal(after)
	if !bytes.Equal(a, b) {
		t.Fatalf("status changed across the restart:\n%s\n%s", b, a)
	}
	if code, got := do(t, srv2.Client(), "GET", srv2.URL+"/v1/jobs/"+id+"/report", "", nil); code != http.StatusOK || got != want {
		t.Fatalf("report after the restart (%d) differs from the job that never restarted:\n%s\n--- want ---\n%s", code, got, want)
	}
}

// TestWALLifecycle: the journal lives exactly as long as its job —
// DELETE removes it, the reaper removes it, and a finished job keeps
// it (a crash after the report must not orphan the client).
func TestWALLifecycle(t *testing.T) {
	cfg := Config{WALDir: t.TempDir(), IdleTimeout: 80 * time.Millisecond}
	svc, srv, _ := startServer(t, cfg)

	// DELETE removes the journal file.
	id := createJob(t, srv.Client(), srv.URL, `{}`)
	if _, err := os.Stat(walFile(cfg, id)); err != nil {
		t.Fatalf("journal missing while job lives: %v", err)
	}
	if code, _ := do(t, srv.Client(), "DELETE", srv.URL+"/v1/jobs/"+id, "", nil); code != http.StatusNoContent {
		t.Fatalf("delete: %d", code)
	}
	if _, err := os.Stat(walFile(cfg, id)); !os.IsNotExist(err) {
		t.Fatalf("journal survived DELETE: %v", err)
	}

	// The reaper removes the journal with the job.
	id2 := createJob(t, srv.Client(), srv.URL, `{}`)
	deadline := time.Now().Add(5 * time.Second)
	for svc.Jobs() > 0 {
		if time.Now().After(deadline) {
			t.Fatal("idle job was never reaped")
		}
		time.Sleep(20 * time.Millisecond)
	}
	if _, err := os.Stat(walFile(cfg, id2)); !os.IsNotExist(err) {
		t.Fatalf("journal survived reaping: %v", err)
	}

	// A finished job's journal stays until the job goes: status shows
	// its size.
	id3 := createJob(t, srv.Client(), srv.URL, `{"model":"read-committed","parallelism":1}`)
	feedChunks(t, srv.Client(), srv.URL, id3, g1aHistory, 2)
	do(t, srv.Client(), "GET", srv.URL+"/v1/jobs/"+id3+"/report", "", nil)
	var st jobJSON
	do(t, srv.Client(), "GET", srv.URL+"/v1/jobs/"+id3, "", &st)
	if st.WALBytes == 0 {
		t.Fatalf("finished job lost its journal: %+v", st)
	}
	if _, err := os.Stat(walFile(cfg, id3)); err != nil {
		t.Fatalf("finished job's journal missing: %v", err)
	}
}

// TestErrorEnvelope pins the wire shape of every error path: one
// envelope, a stable code, and Retry-After mirrored into the body for
// 429s.
func TestErrorEnvelope(t *testing.T) {
	_, srv, _ := startServer(t, Config{MaxJobs: 1, MaxChunkBytes: 128})
	c := srv.Client()

	expect := func(method, url, body string, wantStatus int, wantCode string) ErrorBody {
		t.Helper()
		var env ErrorEnvelope
		code, raw := do(t, c, method, url, body, &env)
		if code != wantStatus || env.Err.Code != wantCode || env.Err.Message == "" {
			t.Fatalf("%s %s: status %d code %q, want %d %q: %s",
				method, url, code, env.Err.Code, wantStatus, wantCode, raw)
		}
		return env.Err
	}

	expect("POST", srv.URL+"/v1/jobs", `{"workload":"nope"}`, 400, CodeUnknownWorkload)
	expect("POST", srv.URL+"/v1/jobs", `{"model":"nope"}`, 400, CodeUnknownModel)
	expect("POST", srv.URL+"/v1/jobs", `{"memory_budget":-1}`, 400, CodeInvalidMemoryBudget)
	expect("POST", srv.URL+"/v1/jobs", `{bad json`, 400, CodeBadRequest)
	expect("GET", srv.URL+"/v1/jobs/j999", "", 404, CodeJobNotFound)
	expect("POST", srv.URL+"/v1/jobs/j999/chunks", "x", 404, CodeJobNotFound)
	expect("DELETE", srv.URL+"/v1/jobs/j999", "", 404, CodeJobNotFound)
	expect("GET", srv.URL+"/v1/jobs?state=bogus", "", 400, CodeBadRequest)
	expect("GET", srv.URL+"/v1/jobs?limit=-1", "", 400, CodeBadRequest)
	expect("GET", srv.URL+"/v1/jobs?next=zzz", "", 400, CodeBadCursor)

	id := createJob(t, c, srv.URL, `{"model":"read-committed","parallelism":1}`)
	// 429 carries retry_after_s in the body and the Retry-After header.
	env := expect("POST", srv.URL+"/v1/jobs", `{}`, 429, CodeAtCapacity)
	if env.RetryAfterS < 1 {
		t.Fatalf("429 envelope without retry_after_s: %+v", env)
	}
	req, _ := http.NewRequest("POST", srv.URL+"/v1/jobs", strings.NewReader(`{}`))
	resp, err := c.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After header")
	}

	expect("POST", srv.URL+"/v1/jobs/"+id+"/chunks",
		strings.Repeat("x", 300), 413, CodeChunkTooLarge)
	feedChunks(t, c, srv.URL, id, g1aHistory, 2)
	do(t, c, "GET", srv.URL+"/v1/jobs/"+id+"/report", "", nil)
	expect("POST", srv.URL+"/v1/jobs/"+id+"/chunks", g1aHistory, 409, CodeJobDone)

	// A checker panic answers 500 internal (panic_test.go plants it).
	do(t, c, "DELETE", srv.URL+"/v1/jobs/"+id, "", nil)
	pid := createJob(t, c, srv.URL, `{"workload":"`+panicWorkload+`"}`)
	expect("POST", srv.URL+"/v1/jobs/"+pid+"/chunks", boomChunk, 500, CodeInternal)
}

// TestListFilterAndPagination: ?state= filters, limit/next pages in
// creation order, and the cursor survives deletions between pages.
func TestListFilterAndPagination(t *testing.T) {
	_, srv, _ := startServer(t, Config{MaxJobs: 10})
	c := srv.Client()

	ids := make([]string, 5)
	for i := range ids {
		ids[i] = createJob(t, c, srv.URL, `{"model":"read-committed","parallelism":1}`)
	}
	// Finish two so the state filter has something to split.
	for _, id := range ids[:2] {
		feedChunks(t, c, srv.URL, id, g1aHistory, 2)
		do(t, c, "GET", srv.URL+"/v1/jobs/"+id+"/report", "", nil)
	}

	list := func(query string) listJSON {
		t.Helper()
		var page listJSON
		if code, raw := do(t, c, "GET", srv.URL+"/v1/jobs"+query, "", &page); code != http.StatusOK {
			t.Fatalf("list%s: %d: %s", query, code, raw)
		}
		return page
	}

	page := list("?limit=2")
	if len(page.Jobs) != 2 || page.Jobs[0].ID != ids[0] || page.Jobs[1].ID != ids[1] || page.Next != ids[1] {
		t.Fatalf("page 1: %+v", page)
	}
	page = list("?limit=2&next=" + page.Next)
	if len(page.Jobs) != 2 || page.Jobs[0].ID != ids[2] || page.Next != ids[3] {
		t.Fatalf("page 2: %+v", page)
	}
	page = list("?limit=2&next=" + page.Next)
	if len(page.Jobs) != 1 || page.Jobs[0].ID != ids[4] || page.Next != "" {
		t.Fatalf("page 3: %+v", page)
	}

	if page = list("?state=done"); len(page.Jobs) != 2 {
		t.Fatalf("state=done: %+v", page.Jobs)
	}
	if page = list("?state=accepting"); len(page.Jobs) != 3 {
		t.Fatalf("state=accepting: %+v", page.Jobs)
	}

	// Deleting a job between pages skips it without invalidating the
	// cursor.
	page = list("?limit=2")
	do(t, c, "DELETE", srv.URL+"/v1/jobs/"+ids[2], "", nil)
	page = list("?limit=2&next=" + page.Next)
	if len(page.Jobs) != 2 || page.Jobs[0].ID != ids[3] {
		t.Fatalf("page after deletion: %+v", page)
	}
}

// TestMetricsExposition: /metrics serves parseable Prometheus text
// with the families the catalog promises, and the hot counters track
// actual ingest.
func TestMetricsExposition(t *testing.T) {
	cfg := Config{WALDir: t.TempDir(), Shards: 2}
	_, srv, _ := startServer(t, cfg)
	c := srv.Client()

	id := createJob(t, c, srv.URL, `{"model":"read-committed","parallelism":1}`)
	feedChunks(t, c, srv.URL, id, g1aHistory, 1)
	do(t, c, "POST", srv.URL+"/v1/jobs/"+id+"/chunks", strings.Repeat("x", int(9<<20)), nil) // 413

	code, body := do(t, c, "GET", srv.URL+"/metrics", "", nil)
	if code != http.StatusOK {
		t.Fatalf("metrics: %d", code)
	}
	for _, family := range []string{
		"elled_jobs{state=\"accepting\"} 1",
		"elled_jobs_created_total 1",
		"elled_chunks_total 2",
		"elled_ingest_ops_total 2",
		"elled_refused_total{code=\"chunk_too_large\"} 1",
		"elled_wal_fsync_seconds_count",
		"elled_wal_appends_total 3", // meta + 2 chunks
		"elled_shard_queue_depth{shard=\"0\"} 0",
		"elled_shard_queue_depth{shard=\"1\"} 0",
		"elled_memory_resident_ops 0",
		"elled_jobs_resumed_total 0",
	} {
		if !strings.Contains(body, family) {
			t.Errorf("exposition missing %q", family)
		}
	}
	// Every sample line matches the exposition grammar.
	sample := regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? [-+0-9.eEInf]+$`)
	for _, line := range strings.Split(strings.TrimSuffix(body, "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if !sample.MatchString(line) {
			t.Errorf("malformed sample line: %q", line)
		}
	}
	// Ingest bytes counted exactly the accepted bodies.
	var total int
	for _, ln := range strings.SplitAfter(strings.TrimSuffix(g1aHistory, "\n"), "\n") {
		total += len(ln)
	}
	if !strings.Contains(body, fmt.Sprintf("elled_ingest_bytes_total %d", total)) {
		t.Errorf("ingest bytes drifted from accepted bodies (%d):\n%s", total, grepLines(body, "ingest_bytes"))
	}
}

func grepLines(s, substr string) string {
	var out []string
	for _, ln := range strings.Split(s, "\n") {
		if strings.Contains(ln, substr) {
			out = append(out, ln)
		}
	}
	return strings.Join(out, "\n")
}

// TestShardBusy: a wedged shard queue refuses the chunk with 429
// shard_busy, and the job survives to accept the retry once the queue
// drains.
func TestShardBusy(t *testing.T) {
	svc, srv, _ := startServer(t, Config{Shards: 1, shardQueue: 1})
	c := srv.Client()
	id := createJob(t, c, srv.URL, `{"model":"read-committed","parallelism":1}`)

	// Wedge the lone shard: one task holds the worker, a second fills
	// the single queue slot.
	block := make(chan struct{})
	started := make(chan struct{})
	go svc.pool.run(0, func() { close(started); <-block })
	<-started
	drained := make(chan struct{})
	go func() { svc.pool.run(0, func() {}); close(drained) }()
	deadline := time.Now().Add(2 * time.Second)
	for svc.pool.depth(0) != 1 {
		if time.Now().After(deadline) {
			t.Fatal("queue slot never filled")
		}
		time.Sleep(time.Millisecond)
	}

	line := strings.SplitAfter(g1aHistory, "\n")[0]
	req, _ := http.NewRequest("POST", srv.URL+"/v1/jobs/"+id+"/chunks", strings.NewReader(line))
	resp, err := c.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var env ErrorEnvelope
	json.NewDecoder(resp.Body).Decode(&env)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests || env.Err.Code != CodeShardBusy {
		t.Fatalf("wedged shard: %d %+v, want 429 %s", resp.StatusCode, env, CodeShardBusy)
	}
	if resp.Header.Get("Retry-After") == "" || env.Err.RetryAfterS < 1 {
		t.Fatalf("shard_busy without retry advice: header=%q body=%+v",
			resp.Header.Get("Retry-After"), env.Err)
	}

	// Drain and retry: the refused chunk was never journaled or fed, so
	// the stream continues exactly where it left off.
	close(block)
	<-drained
	feedChunks(t, c, srv.URL, id, g1aHistory, 1)
	if code, body := do(t, c, "GET", srv.URL+"/v1/jobs/"+id+"/report", "", nil); code != http.StatusOK || !strings.Contains(body, "G1a") {
		t.Fatalf("report after shard_busy retry: %d: %s", code, body)
	}
}

// key0History is a list-append history whose first key is "0", the
// first key of every ellegen history at its default -keys: a committed
// read of an aborted append, provable as G1a.
const key0History = `{"index":0,"type":"ok","process":0,"value":[["append","0",1]]}
{"index":1,"type":"ok","process":1,"value":[["r","0",[1]],["append","1",1]]}
{"index":2,"type":"fail","process":0,"value":[["append","1",2]]}
{"index":3,"type":"ok","process":2,"value":[["r","1",[1,2]]]}
`

// wedgeShard occupies shard i of svc's pool: one task holds its worker
// and a second fills its single queue slot. The returned func releases
// both and waits for them to finish.
func wedgeShard(t *testing.T, svc *Service, i int) (release func()) {
	t.Helper()
	block := make(chan struct{})
	started := make(chan struct{})
	go svc.pool.run(i, func() { close(started); <-block })
	<-started
	drained := make(chan struct{})
	go func() { svc.pool.run(i, func() {}); close(drained) }()
	deadline := time.Now().Add(2 * time.Second)
	for svc.pool.depth(i) != 1 {
		if time.Now().After(deadline) {
			t.Fatal("queue slot never filled")
		}
		time.Sleep(time.Millisecond)
	}
	return func() { close(block); <-drained }
}

// TestShardIsCreationOrder: a job's shard is its creation sequence
// modulo the shard count, whatever keys its history holds. Two jobs
// whose histories both begin with key "0" sit on shards 1 and 0, so
// wedging the first job's shard refuses only the first job's chunks:
// the second streams to the end and reports what batch reports.
func TestShardIsCreationOrder(t *testing.T) {
	svc, srv, _ := startServer(t, Config{Shards: 2, shardQueue: 1})
	c := srv.Client()
	const body = `{"model":"serializable","parallelism":1}`
	lines := strings.SplitAfter(key0History, "\n")
	first, rest := lines[0], strings.Join(lines[1:], "")

	j1 := createJob(t, c, srv.URL, body) // seq 1: shard 1
	j2 := createJob(t, c, srv.URL, body) // seq 2: shard 0
	feedChunks(t, c, srv.URL, j1, first, 1)
	feedChunks(t, c, srv.URL, j2, first, 1)

	release := wedgeShard(t, svc, 1)
	var env ErrorEnvelope
	if code, raw := do(t, c, "POST", srv.URL+"/v1/jobs/"+j1+"/chunks", rest, &env); code != http.StatusTooManyRequests || env.Err.Code != CodeShardBusy {
		t.Fatalf("%s on the wedged shard: %d %s, want 429 %s", j1, code, raw, CodeShardBusy)
	}
	feedChunks(t, c, srv.URL, j2, rest, 1)

	h, err := jsonhist.DecodeWith(strings.NewReader(key0History), jsonhist.DecodeOpts{})
	if err != nil {
		t.Fatal(err)
	}
	var batch bytes.Buffer
	report.Prose(&batch, core.Check(h, core.OptsFor(core.ListAppend, "serializable")), report.ProseOpts{})
	if code, got := do(t, c, "GET", srv.URL+"/v1/jobs/"+j2+"/report", "", nil); code != http.StatusOK || got != batch.String() {
		t.Fatalf("%s beside the wedged shard: status %d, report:\n%s\nwant batch:\n%s", j2, code, got, batch.String())
	}

	// Once the shard drains, the refused chunk goes through on retry.
	release()
	feedChunks(t, c, srv.URL, j1, rest, 1)
	if code, got := do(t, c, "GET", srv.URL+"/v1/jobs/"+j1+"/report", "", nil); code != http.StatusOK || got != batch.String() {
		t.Fatalf("%s after the shard drained: status %d, report:\n%s", j1, code, got)
	}
}

// TestShardPool: the pool itself — FIFO per shard, refusal when full,
// drain on stop.
func TestShardPool(t *testing.T) {
	p := newShardPool(2, 4)
	var order []int
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for {
				if p.run(0, func() {
					mu.Lock()
					order = append(order, i)
					mu.Unlock()
				}) {
					return
				}
				time.Sleep(time.Millisecond)
			}
		}(i)
	}
	wg.Wait()
	if len(order) != 16 {
		t.Fatalf("ran %d tasks, want 16", len(order))
	}
	if p.size() != 2 || p.depth(0) != 0 {
		t.Fatalf("pool state: size %d depth %d", p.size(), p.depth(0))
	}
	p.stop()

	// A full queue refuses instead of blocking.
	p2 := newShardPool(1, 1)
	block := make(chan struct{})
	started := make(chan struct{})
	go p2.run(0, func() { close(started); <-block })
	<-started // the lone worker is now wedged on the blocker
	filled := make(chan struct{})
	go func() { p2.run(0, func() {}); close(filled) }() // occupies the queue slot
	deadline := time.Now().Add(2 * time.Second)
	for p2.depth(0) != 1 {
		if time.Now().After(deadline) {
			t.Fatal("queue slot never filled")
		}
		time.Sleep(time.Millisecond)
	}
	if p2.run(0, func() {}) {
		t.Fatal("full queue accepted a task")
	}
	close(block)
	<-filled
	p2.stop()
}

// TestJSONStatusFields: created_at/wal_bytes/resumed ride the status
// wire shape as documented.
func TestJSONStatusFields(t *testing.T) {
	cfg := Config{WALDir: t.TempDir()}
	_, srv, stop := startServer(t, cfg)
	id := createJob(t, srv.Client(), srv.URL, `{"model":"read-committed","parallelism":1}`)
	feedChunks(t, srv.Client(), srv.URL, id, g1aHistory, 2)

	var raw map[string]json.RawMessage
	do(t, srv.Client(), "GET", srv.URL+"/v1/jobs/"+id, "", &raw)
	for _, field := range []string{"created_at", "wal_bytes", "chunks"} {
		if _, ok := raw[field]; !ok {
			t.Errorf("status missing %q: %v", field, raw)
		}
	}
	var before jobJSON
	do(t, srv.Client(), "GET", srv.URL+"/v1/jobs/"+id, "", &before)
	stop()

	_, srv2, _ := startServer(t, cfg)
	var after jobJSON
	do(t, srv2.Client(), "GET", srv2.URL+"/v1/jobs/"+id, "", &after)
	if !after.Resumed {
		t.Fatal("restarted job not marked resumed")
	}
	if !after.CreatedAt.Equal(before.CreatedAt) {
		t.Fatalf("created_at drifted across restart: %v → %v", before.CreatedAt, after.CreatedAt)
	}
}
