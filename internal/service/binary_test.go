package service

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

	"repro/internal/binhist"
	"repro/internal/jsonhist"
)

// binHistory re-encodes a JSON-lines history as an ellebin stream.
func binHistory(t testing.TB, jsonl string) []byte {
	t.Helper()
	h, err := jsonhist.Decode(strings.NewReader(jsonl), false)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := binhist.Encode(&buf, h); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// doBin posts one ellebin chunk, returning the status and raw body.
func doBin(t *testing.T, client *http.Client, url string, body []byte) (int, string) {
	t.Helper()
	return postChunk(t, client, url, binhist.ContentType, body)
}

// postChunk posts one chunk with the given Content-Type, returning the
// status and raw body.
func postChunk(t *testing.T, client *http.Client, url, contentType string, body []byte) (int, string) {
	t.Helper()
	req, err := http.NewRequest("POST", url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", contentType)
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(raw)
}

// TestBinaryChunksMatchJSON is the elled leg of the cross-format parity
// contract: the same history streamed as JSON-lines chunks and as
// ellebin chunks — the latter split at arbitrary byte offsets, well
// inside records — produces byte-identical reports in both renderings.
func TestBinaryChunksMatchJSON(t *testing.T) {
	_, srv := newTestServer(t, Config{})
	client := srv.Client()
	jsonl := faultedHistory(t, "list-append", 11, 300)
	bin := binHistory(t, jsonl)

	jid := createJob(t, client, srv.URL, `{"model":"serializable"}`)
	feedChunks(t, client, srv.URL, jid, jsonl, 50)

	bid := createJob(t, client, srv.URL, `{"model":"serializable"}`)
	var last deltaJSON
	for i := 0; i < len(bin); i += 997 {
		end := min(i+997, len(bin))
		code, raw := doBin(t, client, srv.URL+"/v1/jobs/"+bid+"/chunks", bin[i:end])
		if code != http.StatusOK {
			t.Fatalf("binary chunk [%d:%d): status %d: %s", i, end, code, raw)
		}
		if err := json.Unmarshal([]byte(raw), &last); err != nil {
			t.Fatal(err)
		}
	}

	var jst, bst jobJSON
	do(t, client, "GET", srv.URL+"/v1/jobs/"+jid, "", &jst)
	do(t, client, "GET", srv.URL+"/v1/jobs/"+bid, "", &bst)
	if jst.Ops != bst.Ops || bst.Ops == 0 {
		t.Fatalf("op counts diverge: json job %d, binary job %d", jst.Ops, bst.Ops)
	}
	if last.Ops != bst.Ops {
		t.Fatalf("final delta ops %d, status ops %d", last.Ops, bst.Ops)
	}

	for _, format := range []string{"", "?format=json"} {
		_, jrep := do(t, client, "GET", srv.URL+"/v1/jobs/"+jid+"/report"+format, "", nil)
		_, brep := do(t, client, "GET", srv.URL+"/v1/jobs/"+bid+"/report"+format, "", nil)
		if jrep != brep {
			t.Fatalf("reports diverge between formats (%q):\n--- json chunks ---\n%s\n--- ellebin chunks ---\n%s",
				format, jrep, brep)
		}
	}
}

// TestBinaryPendingFailsReport: a job whose ellebin uploads stop
// mid-record must refuse to report — the history's tail never arrived.
func TestBinaryPendingFailsReport(t *testing.T) {
	_, srv := newTestServer(t, Config{})
	client := srv.Client()
	bin := binHistory(t, g1aHistory)

	// Find a cut that lands strictly inside a record.
	cut := len(bin) - 1
	for ; cut > 0; cut-- {
		var c binhist.ChunkDecoder
		if _, err := c.Feed(bin[:cut]); err == nil && c.Pending() > 0 {
			break
		}
	}
	if cut == 0 {
		t.Fatal("no mid-record cut found")
	}

	id := createJob(t, client, srv.URL, `{"model":"read-committed"}`)
	if code, raw := doBin(t, client, srv.URL+"/v1/jobs/"+id+"/chunks", bin[:cut]); code != http.StatusOK {
		t.Fatalf("chunk: status %d: %s", code, raw)
	}
	code, raw := do(t, client, "GET", srv.URL+"/v1/jobs/"+id+"/report", "", nil)
	if code != http.StatusConflict {
		t.Fatalf("report on a mid-record stream: status %d, want 409: %s", code, raw)
	}
	if !strings.Contains(raw, "into a record") {
		t.Errorf("error does not name the cut: %s", raw)
	}
	var st jobJSON
	do(t, client, "GET", srv.URL+"/v1/jobs/"+id, "", &st)
	if st.State != stateFailed {
		t.Errorf("job state %q after refused report, want %q", st.State, stateFailed)
	}
}

// TestMixedFormatChunksRejected: one job, one format. A chunk in the
// other format is refused without failing the job, so the client can
// correct the Content-Type and continue.
func TestMixedFormatChunksRejected(t *testing.T) {
	_, srv := newTestServer(t, Config{})
	client := srv.Client()
	bin := binHistory(t, g1aHistory)

	id := createJob(t, client, srv.URL, `{"model":"read-committed"}`)
	if code, raw := doBin(t, client, srv.URL+"/v1/jobs/"+id+"/chunks", bin[:len(bin)/2]); code != http.StatusOK {
		t.Fatalf("first chunk: status %d: %s", code, raw)
	}
	code, raw := do(t, client, "POST", srv.URL+"/v1/jobs/"+id+"/chunks", g1aHistory, nil)
	if code != http.StatusBadRequest {
		t.Fatalf("JSON chunk on a binary job: status %d, want 400: %s", code, raw)
	}
	if !strings.Contains(raw, "one job, one format") {
		t.Errorf("rejection does not explain itself: %s", raw)
	}
	// The stream is intact: the rest of the binary upload completes the
	// job and the report covers the full history.
	if code, raw := doBin(t, client, srv.URL+"/v1/jobs/"+id+"/chunks", bin[len(bin)/2:]); code != http.StatusOK {
		t.Fatalf("resumed chunk: status %d: %s", code, raw)
	}
	code, raw = do(t, client, "GET", srv.URL+"/v1/jobs/"+id+"/report", "", nil)
	if code != http.StatusOK {
		t.Fatalf("report: status %d: %s", code, raw)
	}
	if !strings.Contains(raw, "G1a") {
		t.Errorf("report missing the planted anomaly:\n%s", raw)
	}
}

// TestBinaryGarbageFailsJob: a structurally broken ellebin chunk fails
// the job with a framing error, like a malformed JSON line does.
func TestBinaryGarbageFailsJob(t *testing.T) {
	_, srv := newTestServer(t, Config{})
	client := srv.Client()
	id := createJob(t, client, srv.URL, "")
	code, raw := doBin(t, client, srv.URL+"/v1/jobs/"+id+"/chunks", []byte("not ellebin at all"))
	if code != http.StatusBadRequest {
		t.Fatalf("garbage chunk: status %d, want 400: %s", code, raw)
	}
	var st jobJSON
	do(t, client, "GET", srv.URL+"/v1/jobs/"+id, "", &st)
	if st.State != stateFailed {
		t.Errorf("job state %q, want %q", st.State, stateFailed)
	}
}
