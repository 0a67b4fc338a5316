package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/history"
	"repro/internal/jsonhist"
	"repro/internal/op"
	"repro/internal/par"
	"repro/internal/promtext"
	"repro/internal/report"
	"repro/internal/workload"
)

// panicWorkload is registered by this test binary alone: its hooks panic
// on any op touching the key "boom", and its Finish and batch analyzer
// panic always. It stands in for an analyzer bug. Each panic is planted
// inside a par.Do at the job's parallelism, so above 1 it starts on a
// worker goroutine.
const panicWorkload = "panic-for-tests"

func init() {
	workload.Register(workload.Info{
		Name: panicWorkload,
		Analyzer: workload.AnalyzerFunc(func(_ *history.History, opts workload.Opts) workload.Analysis {
			plant(opts.Parallelism, "analyzer panic planted by the test")
			return workload.Analysis{} // unreachable: plant panics
		}),
		Incremental: func(opts workload.Opts, _ *history.Interner, _ history.Lookup) workload.Hooks {
			return panicHooks{opts.Parallelism}
		},
	})
}

// plant panics with msg on the second of two par.Do items.
func plant(p int, msg string) {
	par.Do(p, 2, func(i int) {
		if i == 1 {
			panic(msg)
		}
	})
}

type panicHooks struct{ p int }

func (x panicHooks) Ingest(o op.Op, _ int, _ *workload.Findings) {
	for _, m := range o.Mops {
		if m.Key == "boom" {
			plant(x.p, "ingest panic planted by the test")
		}
	}
}
func (panicHooks) Scan(*workload.Findings) {}
func (panicHooks) Retire([]history.KeyID)  {}
func (x panicHooks) Finish(*history.History, *graph.Graph) workload.Analysis {
	plant(x.p, "finish panic planted by the test")
	return workload.Analysis{} // unreachable: plant panics
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

// TestWorkerPanicContained: at parallelism 4 the planted panics start on
// par.Do worker goroutines, and are contained all the same: the chunk
// and the report that hit them fail their jobs with 500 internal, the
// service keeps serving, and elled_panics_total counts both.
func TestWorkerPanicContained(t *testing.T) {
	_, srv, _ := startServer(t, Config{Shards: 1})
	c := srv.Client()
	body := `{"workload":"` + panicWorkload + `","model":"serializable","parallelism":4}`
	expectInternal := func(method, url, body string) {
		t.Helper()
		var env ErrorEnvelope
		code, raw := do(t, c, method, url, body, &env)
		if code != http.StatusInternalServerError || env.Err.Code != CodeInternal ||
			!strings.Contains(env.Err.Message, "planted by the test") {
			t.Fatalf("%s %s: %d %+v, want 500 %s: %s", method, url, code, env.Err, CodeInternal, raw)
		}
	}
	boom := createJob(t, c, srv.URL, body)
	expectInternal("POST", srv.URL+"/v1/jobs/"+boom+"/chunks", boomChunk)
	calm := createJob(t, c, srv.URL, body)
	feedChunks(t, c, srv.URL, calm, calmChunk, 1)
	expectInternal("GET", srv.URL+"/v1/jobs/"+calm+"/report", "")

	fresh := createJob(t, c, srv.URL, `{"model":"read-committed","parallelism":4}`)
	feedChunks(t, c, srv.URL, fresh, g1aHistory, 1)
	if code, got := do(t, c, "GET", srv.URL+"/v1/jobs/"+fresh+"/report", "", nil); code != http.StatusOK || !strings.Contains(got, "G1a") {
		t.Fatalf("list-append job after the panics: %d: %s", code, got)
	}
	if _, metrics := do(t, c, "GET", srv.URL+"/metrics", "", nil); !strings.Contains(metrics, "elled_panics_total 2\n") {
		t.Errorf("exposition does not count two panics:\n%s", grepLines(metrics, "panics"))
	}
}

// TestRenderPanicContained: a panic in rendering a finished job's report
// (prose or JSON) or in evaluating a query against it is contained as a
// checker panic is: the job fails, the panic is counted, and the request
// that hit it gets 500 internal. No checker output reaches a renderer
// that can panic, so the test plants the defect in the job itself: a
// done job whose result is gone.
func TestRenderPanicContained(t *testing.T) {
	svc, srv, _ := startServer(t, Config{Shards: 1})
	c := srv.Client()
	endpoints := []string{"/report", "/report?format=json", "/query?q=(dep%20?a%20?b%20_)"}
	for _, endpoint := range endpoints {
		id := createJob(t, c, srv.URL, `{"model":"read-committed","parallelism":1}`)
		feedChunks(t, c, srv.URL, id, g1aHistory, 1)
		if code, raw := do(t, c, "GET", srv.URL+"/v1/jobs/"+id+endpoint, "", nil); code != http.StatusOK {
			t.Fatalf("%s before the plant: %d: %s", endpoint, code, raw)
		}
		j, _ := svc.lookup(id)
		j.mu.Lock()
		j.result = nil
		j.mu.Unlock()

		resp, err := c.Get(srv.URL + "/v1/jobs/" + id + endpoint)
		if err != nil {
			t.Fatal(err)
		}
		var env ErrorEnvelope
		if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
			t.Fatalf("%s: decoding the error envelope: %v", endpoint, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusInternalServerError || env.Err.Code != CodeInternal ||
			resp.Header.Get("X-Elle-Valid") != "" {
			t.Fatalf("%s: %d %+v, X-Elle-Valid %q; want 500 %s and no verdict header",
				endpoint, resp.StatusCode, env.Err, resp.Header.Get("X-Elle-Valid"), CodeInternal)
		}
		var st jobJSON
		do(t, c, "GET", srv.URL+"/v1/jobs/"+id, "", &st)
		if st.State != stateFailed || !strings.HasPrefix(st.Error, "internal error: ") {
			t.Fatalf("%s: job after a render panic: state %q error %q", endpoint, st.State, st.Error)
		}
		if code, raw := do(t, c, "GET", srv.URL+"/v1/jobs/"+id+endpoint, "", nil); code != http.StatusConflict {
			t.Fatalf("%s: asked again: %d, want 409: %s", endpoint, code, raw)
		}
	}
	if _, metrics := do(t, c, "GET", srv.URL+"/metrics", "", nil); !strings.Contains(metrics, "elled_panics_total 3\n") {
		t.Errorf("exposition does not count three panics:\n%s", grepLines(metrics, "panics"))
	}
}

// TestRespondPanicMidBody: a panic after the response began cannot
// change its status; the job still fails and the panic is counted.
func TestRespondPanicMidBody(t *testing.T) {
	j := &job{id: "mid-body", panics: new(promtext.Counter)}
	rec := httptest.NewRecorder()
	j.respondLocked(rec, func(w http.ResponseWriter) {
		w.Write([]byte("partial")) //nolint:errcheck
		panic("render panic planted by the test")
	})
	if rec.Code != http.StatusOK || rec.Body.String() != "partial" {
		t.Fatalf("response %d %q, want the 200 and the bytes already sent", rec.Code, rec.Body.String())
	}
	if j.state != stateFailed || !strings.Contains(j.errMsg, "planted by the test") || j.panics.Value() != 1 {
		t.Fatalf("job state %q error %q panics %d", j.state, j.errMsg, j.panics.Value())
	}
}

// TestShardPoolTaskPanic: a panicking task re-panics on run's caller
// with its value, where recover contains it, and its shard's worker
// lives on to run the next task.
func TestShardPoolTaskPanic(t *testing.T) {
	p := newShardPool(1, 1)
	defer p.stop()
	got := func() (v any) {
		defer func() { v = recover() }()
		p.run(0, func() { panic("task panic planted by the test") })
		return nil
	}()
	if got != "task panic planted by the test" {
		t.Fatalf("run's caller recovered %v, want the task's panic value", got)
	}
	ran := false
	if !p.run(0, func() { ran = true }) || !ran {
		t.Fatal("the shard did not run the task after a panic")
	}
}
