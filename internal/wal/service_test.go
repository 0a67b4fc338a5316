package wal_test

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/service"
	"repro/internal/wal"
)

// TestServiceRetriesFailedAppendOnce drives the checking service over
// journals that fail on cue. A chunk whose append fails — an fsync
// after a full write, a short write — gets 500 wal_write and the job
// keeps accepting; the client's retry leaves exactly one record, so a
// restarted service replays every chunk once and the resumed job
// reports. A failure the journal cannot undo fails the job.
func TestServiceRetriesFailedAppendOnce(t *testing.T) {
	fs := wal.InjectFaults(t)
	cfg := service.Config{WALDir: t.TempDir(), Shards: 1}
	lines := []string{
		`{"index":0,"type":"invoke","process":0,"value":[["append","x",1]]}` + "\n",
		`{"index":1,"type":"ok","process":0,"value":[["append","x",1]]}` + "\n",
		`{"index":2,"type":"invoke","process":1,"value":[["r","x",null]]}` + "\n",
		`{"index":3,"type":"ok","process":1,"value":[["r","x",[1]]]}` + "\n",
	}
	var svc *service.Service
	// call serves one request in process and decodes the reply's JSON.
	call := func(method, path, body string) (int, map[string]any) {
		t.Helper()
		rec := httptest.NewRecorder()
		svc.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
		var v map[string]any
		json.Unmarshal(rec.Body.Bytes(), &v)
		return rec.Code, v
	}
	errCode := func(v map[string]any) any { e, _ := v["error"].(map[string]any); return e["code"] }
	start := func() {
		t.Helper()
		var err error
		if svc, err = service.New(cfg); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(svc.Close)
	}

	start()
	_, st := call("POST", "/v1/jobs", `{"model":"serializable"}`)
	id, _ := st["id"].(string)
	chunks := "/v1/jobs/" + id + "/chunks"
	for i, arm := range []func(){nil, fs.FailNextSync, func() { fs.FailNextWrite(7) }, fs.FailNextSync} {
		if arm != nil {
			arm()
			if code, v := call("POST", chunks, lines[i]); code != http.StatusInternalServerError || errCode(v) != service.CodeWALWrite {
				t.Fatalf("chunk %d with a failing journal: %d %v", i, code, v)
			}
		}
		if code, v := call("POST", chunks, lines[i]); code != http.StatusOK {
			t.Fatalf("chunk %d: %d %v", i, code, v)
		}
	}
	r, err := wal.ReadFile(filepath.Join(cfg.WALDir, id+".wal"))
	if err != nil {
		t.Fatal(err)
	}
	if r.Torn != 0 || len(r.Chunks) != len(lines) {
		t.Fatalf("journal holds %d chunks and %d torn bytes, want %d chunks", len(r.Chunks), r.Torn, len(lines))
	}
	for i, c := range r.Chunks {
		if string(c.Body) != lines[i] {
			t.Fatalf("journaled chunk %d is %q, want %q", i, c.Body, lines[i])
		}
	}

	svc.Close()
	start()
	if _, st := call("GET", "/v1/jobs/"+id, ""); st["state"] != "accepting" || st["chunks"] != float64(len(lines)) {
		t.Fatalf("resumed job: %v", st)
	}
	if code, v := call("GET", "/v1/jobs/"+id+"/report?format=json", ""); code != http.StatusOK {
		t.Fatalf("report of the resumed job: %d %v", code, v)
	}

	_, st = call("POST", "/v1/jobs", `{"model":"serializable"}`)
	id, _ = st["id"].(string)
	fs.FailNextSync()
	fs.FailTruncate()
	if code, v := call("POST", "/v1/jobs/"+id+"/chunks", lines[0]); code != http.StatusInternalServerError || errCode(v) != service.CodeWALWrite {
		t.Fatalf("chunk with a journal that cannot be undone: %d %v", code, v)
	}
	if _, st := call("GET", "/v1/jobs/"+id, ""); st["state"] != "failed" {
		t.Fatalf("a journal that cannot be undone leaves the job %v", st["state"])
	}
}
