package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/jsonhist"
	"repro/internal/memdb"
	"repro/internal/report"
	"repro/internal/workload"
)

// g1aHistory has a committed read of an aborted write: one provisional
// G1a, provable the moment the second line is fed.
const g1aHistory = `{"index":0,"type":"fail","process":0,"value":[["append","x",1]]}
{"index":1,"type":"ok","process":1,"value":[["r","x",[1]]]}
`

// faultedHistory generates a JSON-lines history with planted anomalies
// for the given workload.
func faultedHistory(t *testing.T, w string, seed int64, txns int) string {
	t.Helper()
	cfg := memdb.RunConfig{Clients: 10, Txns: txns, Isolation: memdb.SnapshotIsolation, Seed: seed}
	switch w {
	case "list-append":
		cfg.Source = gen.New(gen.Config{Workload: gen.ListAppend, ActiveKeys: 5, MaxWritesPerKey: 40}, seed)
		cfg.Workload = memdb.WorkloadList
		cfg.Faults = memdb.Faults{RetryStompProb: 0.5, RetryRebaseProb: 1}
	case "bank":
		cfg.Source = gen.New(gen.Config{Workload: gen.Bank, ActiveKeys: 5}, seed)
		cfg.Workload = memdb.WorkloadBank
		cfg.Faults = memdb.Faults{StaleReadProb: 0.3}
	default:
		t.Fatalf("faultedHistory: unsupported workload %q", w)
	}
	h := memdb.Run(cfg)
	var buf bytes.Buffer
	if err := jsonhist.Encode(&buf, h); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// do issues one request and decodes a JSON response into v (when v is
// non-nil and the body is JSON).
func do(t *testing.T, client *http.Client, method, url, body string, v any) (int, string) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if v != nil {
		if err := json.Unmarshal(raw, v); err != nil {
			t.Fatalf("decoding %s %s response %q: %v", method, url, raw, err)
		}
	}
	return resp.StatusCode, string(raw)
}

// anomalyTypes decodes the type of each finding in a status or chunk
// response.
func anomalyTypes(t *testing.T, raws []json.RawMessage) []string {
	t.Helper()
	var types []string
	for _, raw := range raws {
		var a struct {
			Type string `json:"type"`
		}
		if err := json.Unmarshal(raw, &a); err != nil {
			t.Fatalf("decoding finding %s: %v", raw, err)
		}
		types = append(types, a.Type)
	}
	return types
}

// createJob posts a job and returns its id.
func createJob(t *testing.T, client *http.Client, base, body string) string {
	t.Helper()
	var st jobJSON
	code, raw := do(t, client, "POST", base+"/v1/jobs", body, &st)
	if code != http.StatusCreated {
		t.Fatalf("create: status %d: %s", code, raw)
	}
	if st.State != stateAccepting {
		t.Fatalf("create: state %q, want %q", st.State, stateAccepting)
	}
	return st.ID
}

// feedChunks uploads the history in chunks of n lines, sequentially.
func feedChunks(t *testing.T, client *http.Client, base, id, jsonl string, n int) []deltaJSON {
	t.Helper()
	lines := strings.SplitAfter(strings.TrimSuffix(jsonl, "\n"), "\n")
	var deltas []deltaJSON
	for i := 0; i < len(lines); i += n {
		end := min(i+n, len(lines))
		var d deltaJSON
		code, raw := do(t, client, "POST", base+"/v1/jobs/"+id+"/chunks",
			strings.Join(lines[i:end], ""), &d)
		if code != http.StatusOK {
			t.Fatalf("chunk: status %d: %s", code, raw)
		}
		deltas = append(deltas, d)
	}
	return deltas
}

func newTestServer(t *testing.T, cfg Config) (*Service, *httptest.Server) {
	t.Helper()
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(svc)
	t.Cleanup(func() { srv.Close(); svc.Close() })
	return svc, srv
}

// TestServiceConcurrentJobs drives N concurrent jobs — mixed workloads,
// chunked uploads — to completion and asserts every service report is
// byte-identical to its batch equivalent, at every inference shard
// count: sharding changes how much inference runs in parallel, never
// what a job reports. Run under -race this is the concurrency
// acceptance test for the job manager and the shard pool.
func TestServiceConcurrentJobs(t *testing.T) {
	const n = 6

	type tc struct {
		workload string
		jsonl    string
		batch    string
	}
	cases := make([]tc, n)
	for i := range cases {
		w := "list-append"
		if i%2 == 1 {
			w = "bank"
		}
		jsonl := faultedHistory(t, w, int64(20+i), 150)
		info, ok := workload.Lookup(w)
		if !ok {
			t.Fatalf("workload %q not registered", w)
		}
		h, err := jsonhist.DecodeWith(strings.NewReader(jsonl), jsonhist.DecodeOpts{Register: info.RegisterReads})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		report.Prose(&buf, core.Check(h, core.OptsFor(core.Workload(w), "serializable")), report.ProseOpts{})
		cases[i] = tc{workload: w, jsonl: jsonl, batch: buf.String()}
	}

	for _, shards := range []int{1, 4, 8} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			_, srv := newTestServer(t, Config{MaxJobs: n, Shards: shards})
			var wg sync.WaitGroup
			for i, c := range cases {
				wg.Add(1)
				go func(i int, c tc) {
					defer wg.Done()
					body := fmt.Sprintf(`{"workload":%q,"model":"serializable","parallelism":1}`, c.workload)
					id := createJob(t, srv.Client(), srv.URL, body)
					feedChunks(t, srv.Client(), srv.URL, id, c.jsonl, 40)
					code, got := do(t, srv.Client(), "GET", srv.URL+"/v1/jobs/"+id+"/report", "", nil)
					if code != http.StatusOK {
						t.Errorf("job %d: report status %d: %s", i, code, got)
						return
					}
					if got != c.batch {
						t.Errorf("job %d (%s): service report diverges from batch:\n--- batch ---\n%s\n--- service ---\n%s",
							i, c.workload, c.batch, got)
					}
				}(i, c)
			}
			wg.Wait()
		})
	}
}

// TestServiceProvisionalDeltas: a mid-stream-provable anomaly surfaces
// in the chunk's delta and on the status endpoint before the report is
// requested, and the final report confirms it.
func TestServiceProvisionalDeltas(t *testing.T) {
	_, srv := newTestServer(t, Config{})
	id := createJob(t, srv.Client(), srv.URL, `{"model":"read-committed","parallelism":1}`)

	deltas := feedChunks(t, srv.Client(), srv.URL, id, g1aHistory, 1)
	found := false
	for _, d := range deltas {
		for _, typ := range anomalyTypes(t, d.Anomalies) {
			if typ == "G1a" {
				found = true
			}
		}
	}
	if !found {
		t.Fatalf("no provisional G1a in chunk deltas: %+v", deltas)
	}

	var st jobJSON
	if code, raw := do(t, srv.Client(), "GET", srv.URL+"/v1/jobs/"+id, "", &st); code != http.StatusOK {
		t.Fatalf("status: %d: %s", code, raw)
	}
	if st.State != stateAccepting || len(st.Anomalies) == 0 {
		t.Fatalf("status before report: %+v", st)
	}

	code, body := do(t, srv.Client(), "GET", srv.URL+"/v1/jobs/"+id+"/report", "", nil)
	if code != http.StatusOK || !strings.Contains(body, "G1a") {
		t.Fatalf("report (status %d) does not confirm G1a:\n%s", code, body)
	}
}

// TestServiceReportJSON: the report endpoint's JSON format matches
// report.New over the stream's result.
func TestServiceReportJSON(t *testing.T) {
	_, srv := newTestServer(t, Config{})
	id := createJob(t, srv.Client(), srv.URL, `{"model":"read-committed","parallelism":1}`)
	feedChunks(t, srv.Client(), srv.URL, id, g1aHistory, 1)

	var rep struct {
		Valid     bool   `json:"valid"`
		Workload  string `json:"workload"`
		Anomalies []struct {
			Type string `json:"type"`
		} `json:"anomalies"`
	}
	code, raw := do(t, srv.Client(), "GET", srv.URL+"/v1/jobs/"+id+"/report?format=json", "", &rep)
	if code != http.StatusOK {
		t.Fatalf("report: %d: %s", code, raw)
	}
	if rep.Valid || rep.Workload != "list-append" || len(rep.Anomalies) == 0 {
		t.Fatalf("unexpected JSON report: %s", raw)
	}
	// The second fetch re-renders the same finished job.
	if code, again := do(t, srv.Client(), "GET", srv.URL+"/v1/jobs/"+id+"/report?format=json", "", nil); code != http.StatusOK || again != raw {
		t.Fatalf("report not stable across fetches (status %d)", code)
	}
}

// TestServiceJobLimit: creation beyond MaxJobs is refused with 429
// until a slot frees up.
func TestServiceJobLimit(t *testing.T) {
	_, srv := newTestServer(t, Config{MaxJobs: 1})
	id := createJob(t, srv.Client(), srv.URL, `{}`)

	if code, raw := do(t, srv.Client(), "POST", srv.URL+"/v1/jobs", `{}`, nil); code != http.StatusTooManyRequests {
		t.Fatalf("second create: status %d, want 429: %s", code, raw)
	}
	if code, _ := do(t, srv.Client(), "DELETE", srv.URL+"/v1/jobs/"+id, "", nil); code != http.StatusNoContent {
		t.Fatalf("delete failed")
	}
	createJob(t, srv.Client(), srv.URL, `{}`)
}

// TestServiceFinishedReap is the regression test for finished jobs
// pinning the job table: a done job holds its slot, so at MaxJobs: 1 a
// harness that fetches its report but never DELETEs sees 429 on the
// next create — until FinishedTTL reaps the finished job and creation
// recovers without any client action.
func TestServiceFinishedReap(t *testing.T) {
	_, srv := newTestServer(t, Config{
		MaxJobs:     1,
		FinishedTTL: 60 * time.Millisecond,
		IdleTimeout: time.Hour, // isolate the finished-TTL path
	})
	c := srv.Client()

	id := createJob(t, c, srv.URL, `{"model":"read-committed"}`)
	feedChunks(t, c, srv.URL, id, g1aHistory, 2)
	if code, raw := do(t, c, "GET", srv.URL+"/v1/jobs/"+id+"/report", "", nil); code != http.StatusOK {
		t.Fatalf("report: %d: %s", code, raw)
	}

	// The finished job still counts against MaxJobs: creation is refused.
	if code, raw := do(t, c, "POST", srv.URL+"/v1/jobs", `{}`, nil); code != http.StatusTooManyRequests {
		t.Fatalf("create while finished job resident: status %d, want 429: %s", code, raw)
	}

	// Polling must not keep the finished job alive past its TTL.
	deadline := time.Now().Add(5 * time.Second)
	for {
		do(t, c, "GET", srv.URL+"/v1/jobs/"+id, "", nil)
		if code, _ := do(t, c, "POST", srv.URL+"/v1/jobs", `{}`, nil); code == http.StatusCreated {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("creation never recovered after the finished job's TTL")
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestServiceMemoryBudget: a job created with memory_budget retires
// settled history while accepting, surfaces resident/retired counters
// on the status endpoint, and still reports byte-identically to an
// unbudgeted job over the same history.
func TestServiceMemoryBudget(t *testing.T) {
	_, srv := newTestServer(t, Config{SpillDir: t.TempDir()})
	c := srv.Client()
	jsonl := faultedHistory(t, "list-append", 33, 400)

	plain := createJob(t, c, srv.URL, `{"model":"serializable","parallelism":1}`)
	feedChunks(t, c, srv.URL, plain, jsonl, 50)
	code, want := do(t, c, "GET", srv.URL+"/v1/jobs/"+plain+"/report", "", nil)
	if code != http.StatusOK {
		t.Fatalf("unbudgeted report: %d: %s", code, want)
	}

	id := createJob(t, c, srv.URL, `{"model":"serializable","parallelism":1,"memory_budget":64}`)
	feedChunks(t, c, srv.URL, id, jsonl, 50)

	var st jobJSON
	code, raw := do(t, c, "GET", srv.URL+"/v1/jobs/"+id, "", &st)
	if code != http.StatusOK {
		t.Fatalf("status: %d: %s", code, raw)
	}
	if st.Memory == nil {
		t.Fatal("budgeted job's status has no memory counters")
	}
	if st.Memory.Budget != 64 || st.Memory.RetiredOps == 0 || st.Memory.SpilledBytes == 0 {
		t.Fatalf("memory counters show no retirement: %+v", *st.Memory)
	}
	if st.Memory.Degraded != "" {
		t.Fatalf("unexpected degradation: %s", st.Memory.Degraded)
	}
	// The wire shape of the memory object is pinned: these keys, always,
	// plus "degraded" only when a fallback was taken.
	var wire struct {
		Memory map[string]json.RawMessage `json:"memory"`
	}
	if err := json.Unmarshal([]byte(raw), &wire); err != nil {
		t.Fatal(err)
	}
	wantKeys := []string{"budget", "resident_ops", "retired_ops", "segments", "retired_bytes", "spilled_bytes", "retired_keys"}
	for _, k := range wantKeys {
		if _, ok := wire.Memory[k]; !ok {
			t.Errorf("status memory object lacks %q: %s", k, raw)
		}
	}
	if len(wire.Memory) != len(wantKeys) {
		t.Errorf("status memory object has keys beyond %v: %s", wantKeys, raw)
	}
	if b, _ := json.Marshal(memoryJSON{Degraded: "spill failed"}); !strings.Contains(string(b), `"degraded":"spill failed"`) {
		t.Errorf("a degraded job's memory object lacks \"degraded\": %s", b)
	}

	code, got := do(t, c, "GET", srv.URL+"/v1/jobs/"+id+"/report", "", nil)
	if code != http.StatusOK {
		t.Fatalf("budgeted report: %d: %s", code, got)
	}
	if got != want {
		t.Fatalf("budgeted report diverges from unbudgeted:\n--- unbudgeted ---\n%s\n--- budgeted ---\n%s", want, got)
	}

	// The unbudgeted job, by contrast, reports no memory counters.
	var pst jobJSON
	do(t, c, "GET", srv.URL+"/v1/jobs/"+plain, "", &pst)
	if pst.Memory != nil {
		t.Fatalf("unbudgeted job grew memory counters: %+v", *pst.Memory)
	}

	if code, raw := do(t, c, "POST", srv.URL+"/v1/jobs", `{"memory_budget":-1}`, nil); code != http.StatusBadRequest {
		t.Fatalf("negative memory_budget: status %d, want 400: %s", code, raw)
	}
}

// TestServiceChunkLimit: an oversized chunk with a declared length is
// refused with 413 and leaves the job intact.
func TestServiceChunkLimit(t *testing.T) {
	_, srv := newTestServer(t, Config{MaxChunkBytes: 128})
	id := createJob(t, srv.Client(), srv.URL, `{"model":"read-committed","parallelism":1}`)

	big := strings.Repeat(`{"index":0,"type":"ok","process":0,"value":[["append","x",1]]}`+"\n", 10)
	code, raw := do(t, srv.Client(), "POST", srv.URL+"/v1/jobs/"+id+"/chunks", big, nil)
	if code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized chunk: status %d, want 413: %s", code, raw)
	}
	// The job was untouched: small chunks still flow and the report works.
	feedChunks(t, srv.Client(), srv.URL, id, g1aHistory, 1)
	if code, raw := do(t, srv.Client(), "GET", srv.URL+"/v1/jobs/"+id+"/report", "", nil); code != http.StatusOK {
		t.Fatalf("report after refused chunk: %d: %s", code, raw)
	}
}

// TestServiceErrors covers the remaining failure modes: bad create
// requests, unknown jobs, malformed chunks, and feeding after the
// report.
func TestServiceErrors(t *testing.T) {
	_, srv := newTestServer(t, Config{})
	c := srv.Client()

	if code, _ := do(t, c, "POST", srv.URL+"/v1/jobs", `{"workload":"nope"}`, nil); code != http.StatusBadRequest {
		t.Errorf("unknown workload: %d, want 400", code)
	}
	if code, _ := do(t, c, "POST", srv.URL+"/v1/jobs", `{"model":"nope"}`, nil); code != http.StatusBadRequest {
		t.Errorf("unknown model: %d, want 400", code)
	}
	for _, u := range []string{"/v1/jobs/j999", "/v1/jobs/j999/report"} {
		if code, _ := do(t, c, "GET", srv.URL+u, "", nil); code != http.StatusNotFound {
			t.Errorf("GET %s: %d, want 404", u, code)
		}
	}
	if code, _ := do(t, c, "POST", srv.URL+"/v1/jobs/j999/chunks", "x", nil); code != http.StatusNotFound {
		t.Errorf("chunk to unknown job: want 404")
	}
	if code, _ := do(t, c, "DELETE", srv.URL+"/v1/jobs/j999", "", nil); code != http.StatusNotFound {
		t.Errorf("delete unknown job: want 404")
	}

	// A malformed chunk fails the job terminally.
	id := createJob(t, c, srv.URL, `{}`)
	if code, raw := do(t, c, "POST", srv.URL+"/v1/jobs/"+id+"/chunks", "not json\n", nil); code != http.StatusBadRequest {
		t.Fatalf("malformed chunk: %d, want 400: %s", code, raw)
	}
	var st jobJSON
	do(t, c, "GET", srv.URL+"/v1/jobs/"+id, "", &st)
	if st.State != stateFailed {
		t.Errorf("state after malformed chunk = %q, want %q", st.State, stateFailed)
	}
	if code, _ := do(t, c, "GET", srv.URL+"/v1/jobs/"+id+"/report", "", nil); code != http.StatusConflict {
		t.Errorf("report of failed job: want 409")
	}
	if code, _ := do(t, c, "POST", srv.URL+"/v1/jobs/"+id+"/chunks", g1aHistory, nil); code != http.StatusConflict {
		t.Errorf("chunk to failed job: want 409")
	}

	// Feeding after the report has finalized the stream is refused.
	id2 := createJob(t, c, srv.URL, `{"model":"read-committed"}`)
	feedChunks(t, c, srv.URL, id2, g1aHistory, 2)
	do(t, c, "GET", srv.URL+"/v1/jobs/"+id2+"/report", "", nil)
	if code, _ := do(t, c, "POST", srv.URL+"/v1/jobs/"+id2+"/chunks", g1aHistory, nil); code != http.StatusConflict {
		t.Errorf("chunk after report: want 409")
	}
}

// TestServiceIdleReap: jobs nobody touches are reaped after the idle
// timeout, freeing their slot.
func TestServiceIdleReap(t *testing.T) {
	svc, srv := newTestServer(t, Config{IdleTimeout: 60 * time.Millisecond})
	id := createJob(t, srv.Client(), srv.URL, `{}`)
	deadline := time.Now().Add(5 * time.Second)
	for svc.Jobs() > 0 {
		if time.Now().After(deadline) {
			t.Fatal("idle job was never reaped")
		}
		time.Sleep(20 * time.Millisecond)
	}
	if code, _ := do(t, srv.Client(), "GET", srv.URL+"/v1/jobs/"+id, "", nil); code != http.StatusNotFound {
		t.Errorf("reaped job still resolves: %d, want 404", code)
	}
}

// TestServiceListAndWorkloads: the listing endpoints report resident
// jobs in creation order and the registered workload names.
func TestServiceListAndWorkloads(t *testing.T) {
	_, srv := newTestServer(t, Config{})
	a := createJob(t, srv.Client(), srv.URL, `{}`)
	b := createJob(t, srv.Client(), srv.URL, `{"workload":"bank"}`)

	var list struct {
		Jobs []jobJSON `json:"jobs"`
	}
	if code, raw := do(t, srv.Client(), "GET", srv.URL+"/v1/jobs", "", &list); code != http.StatusOK {
		t.Fatalf("list: %d: %s", code, raw)
	}
	if len(list.Jobs) != 2 || list.Jobs[0].ID != a || list.Jobs[1].ID != b {
		t.Fatalf("list = %+v, want [%s %s]", list.Jobs, a, b)
	}

	var wl struct {
		Workloads []string `json:"workloads"`
	}
	do(t, srv.Client(), "GET", srv.URL+"/v1/workloads", "", &wl)
	found := false
	for _, w := range wl.Workloads {
		if w == "bank" {
			found = true
		}
	}
	if !found {
		t.Fatalf("workloads missing bank: %v", wl.Workloads)
	}

	if code, _ := do(t, srv.Client(), "GET", srv.URL+"/healthz", "", nil); code != http.StatusOK {
		t.Errorf("healthz: want 200")
	}
}
