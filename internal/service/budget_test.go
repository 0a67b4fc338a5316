package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/jsonhist"
	"repro/internal/memdb"
)

// TestIngestBytesPerOp pins what a streamed job allocates per history
// op, end to end: create, every 1000-line chunk, and the JSON report of
// a fixed clean list-append history, served in process at parallelism
// 1. The budget is the measured 1,203 bytes plus 5%. Before each job
// kept one JSON decoder and its Finish took over the session's graph,
// and before each body was read into one buffer of its size, it
// measured 1,690: the chunks' list reads copied again per chunk, a
// second dependency graph, and a body regrown from 512 bytes.
func TestIngestBytesPerOp(t *testing.T) {
	h := memdb.Run(memdb.RunConfig{
		Clients: 10, Txns: 5000, Isolation: memdb.StrictSerializable,
		Source: gen.New(gen.Config{ActiveKeys: 10, MaxWritesPerKey: 50}, 3), Seed: 3,
		Workload: memdb.WorkloadList,
	})
	var buf bytes.Buffer
	if err := jsonhist.Encode(&buf, h); err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(strings.TrimSuffix(buf.String(), "\n"), "\n")
	svc, err := New(Config{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	call := func(method, path, body string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		svc.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
		return rec
	}
	job := func() {
		var st jobJSON
		if err := json.Unmarshal(call("POST", "/v1/jobs", `{"parallelism":1}`).Body.Bytes(), &st); err != nil {
			t.Fatal(err)
		}
		id := st.ID
		for i := 0; i < len(lines); i += 1000 {
			if rec := call("POST", "/v1/jobs/"+id+"/chunks", strings.Join(lines[i:min(i+1000, len(lines))], "")); rec.Code != http.StatusOK {
				t.Fatalf("chunk: %d %s", rec.Code, rec.Body)
			}
		}
		if rec := call("GET", "/v1/jobs/"+id+"/report?format=json", ""); rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"valid": true`) {
			t.Fatalf("report: %d %.200s", rec.Code, rec.Body)
		}
		call("DELETE", "/v1/jobs/"+id, "")
	}
	job() // warm the pools
	const runs = 3
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		job()
	}
	runtime.ReadMemStats(&after)
	perOp := float64(after.TotalAlloc-before.TotalAlloc) / runs / float64(len(h.Ops))
	const budget = 1203 * 1.05
	t.Logf("a streamed job allocates %.1f bytes per op over %d ops (budget %.1f)", perOp, len(h.Ops), budget)
	if perOp > budget {
		t.Errorf("a streamed job allocates %.1f bytes per op; budget %.1f", perOp, budget)
	}
}
