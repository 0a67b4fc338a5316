package service

import (
	"bytes"
	"net/http"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/history"
	"repro/internal/jsonhist"
	"repro/internal/op"
	"repro/internal/report"
	"repro/internal/workload"
)

// panicWorkload is registered by this test binary alone: its hooks panic
// on any op touching the key "boom", and its Finish and batch analyzer
// panic always. It stands in for an analyzer bug.
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

const (
	boomChunk = `{"index":0,"type":"ok","process":0,"value":[["append","boom",1]]}` + "\n"
	calmChunk = `{"index":0,"type":"ok","process":0,"value":[["append","calm",1]]}` + "\n"
)

// TestPanicContained: a checker panic fails its job with 500 internal at
// the chunk, report or query that hit it, and nothing else: a list-append
// job on the same single shard still reports byte-equal to batch, and a
// WAL-backed service restarted over the panicking job's journal starts,
// lists that job as failed, and serves new jobs.
func TestPanicContained(t *testing.T) {
	cfg := Config{WALDir: t.TempDir(), Shards: 1}
	_, srv, stop := startServer(t, cfg)
	c := srv.Client()
	body := `{"workload":"` + panicWorkload + `","model":"serializable","parallelism":1}`

	expectInternal := func(method, url, body string) {
		t.Helper()
		var env ErrorEnvelope
		code, raw := do(t, c, method, url, body, &env)
		if code != http.StatusInternalServerError || env.Err.Code != CodeInternal ||
			!strings.Contains(env.Err.Message, "planted by the test") {
			t.Fatalf("%s %s: %d %+v, want 500 %s: %s", method, url, code, env.Err, CodeInternal, raw)
		}
	}
	expectFailed := func(id string) {
		t.Helper()
		var st jobJSON
		do(t, c, "GET", srv.URL+"/v1/jobs/"+id, "", &st)
		if st.State != stateFailed || !strings.HasPrefix(st.Error, "internal error: ") {
			t.Fatalf("job %s after a panic: state %q error %q", id, st.State, st.Error)
		}
	}

	// The chunk endpoint: Ingest panics.
	boom := createJob(t, c, srv.URL, body)
	expectInternal("POST", srv.URL+"/v1/jobs/"+boom+"/chunks", boomChunk)
	expectFailed(boom)
	if code, raw := do(t, c, "POST", srv.URL+"/v1/jobs/"+boom+"/chunks", calmChunk, nil); code != http.StatusConflict {
		t.Fatalf("chunk to a panicked job: %d, want 409: %s", code, raw)
	}

	// The report and query endpoints: Finish panics.
	for _, endpoint := range []string{"/report", "/query?q=(dep%20?a%20?b%20_)"} {
		id := createJob(t, c, srv.URL, body)
		feedChunks(t, c, srv.URL, id, calmChunk, 1)
		expectInternal("GET", srv.URL+"/v1/jobs/"+id+endpoint, "")
		expectFailed(id)
	}

	// A list-append job on the same shard is untouched.
	jsonl := faultedHistory(t, "list-append", 5, 200)
	h, err := jsonhist.DecodeWith(strings.NewReader(jsonl), jsonhist.DecodeOpts{})
	if err != nil {
		t.Fatal(err)
	}
	var batch bytes.Buffer
	report.Prose(&batch, core.Check(h, core.OptsFor(core.ListAppend, "serializable")), report.ProseOpts{})
	list := createJob(t, c, srv.URL, `{"model":"serializable","parallelism":1}`)
	feedChunks(t, c, srv.URL, list, jsonl, 40)
	if code, got := do(t, c, "GET", srv.URL+"/v1/jobs/"+list+"/report", "", nil); code != http.StatusOK || got != batch.String() {
		t.Fatalf("list-append job beside the panics: status %d, report equal to batch: %t", code, got == batch.String())
	}

	if _, metrics := do(t, c, "GET", srv.URL+"/metrics", "", nil); !strings.Contains(metrics, "elled_panics_total 3\n") {
		t.Errorf("exposition does not count three panics:\n%s", grepLines(metrics, "panics"))
	}
	stop()

	// The panicking chunk was journaled before it was fed, so replay
	// meets the panic again: the restart survives it.
	_, srv2, _ := startServer(t, cfg)
	c = srv2.Client()
	var page listJSON
	if code, raw := do(t, c, "GET", srv2.URL+"/v1/jobs?state=failed", "", &page); code != http.StatusOK {
		t.Fatalf("list after restart: %d: %s", code, raw)
	}
	found := false
	for _, st := range page.Jobs {
		if st.ID == boom {
			found = st.Resumed && strings.HasPrefix(st.Error, "internal error: ")
		}
	}
	if !found {
		t.Fatalf("restarted service does not list %s as a failed resumed job: %+v", boom, page.Jobs)
	}
	if _, metrics := do(t, c, "GET", srv2.URL+"/metrics", "", nil); !strings.Contains(metrics, "elled_panics_total 1\n") {
		t.Errorf("replay's panic not counted:\n%s", grepLines(metrics, "panics"))
	}
	fresh := createJob(t, c, srv2.URL, `{"model":"read-committed","parallelism":1}`)
	feedChunks(t, c, srv2.URL, fresh, g1aHistory, 1)
	if code, got := do(t, c, "GET", srv2.URL+"/v1/jobs/"+fresh+"/report", "", nil); code != http.StatusOK || !strings.Contains(got, "G1a") {
		t.Fatalf("new job after the restart: %d: %s", code, got)
	}
}
