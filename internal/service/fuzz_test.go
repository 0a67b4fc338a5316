package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"testing"

	"repro/internal/binhist"
	"repro/internal/core"
	"repro/internal/history"
	"repro/internal/jsonhist"
	"repro/internal/report"
)

// documentedCodes are the v1 error codes docs/SERVICE.md lists.
var documentedCodes = map[string]bool{
	CodeBadRequest: true, CodeUnknownWorkload: true, CodeUnknownModel: true,
	CodeInvalidMemoryBudget: true, CodeAtCapacity: true, CodeShardBusy: true,
	CodeChunkTooLarge: true, CodeJobNotFound: true, CodeJobDone: true,
	CodeJobFailed: true, CodeFormatMismatch: true, CodeChunkRejected: true,
	CodeBadCursor: true, CodeBadQuery: true, CodeWALWrite: true, CodeInternal: true,
}

// FuzzChunkUpload uploads one small faulted list-append history — JSON
// lines or ellebin, as binary picks — in chunks cut at fuzzed offsets,
// each sent with one of two fuzzed Content-Types. Byte i of cuts closes
// chunk i: its low seven bits scale the chunk's length, its high bit
// picks the second Content-Type; the last chunk takes the rest. Every
// chunk and the report must be answered with 200 or a v1 error envelope
// carrying a documented code, never a 5xx; and when every chunk was
// accepted, the job's JSON report must be byte-equal to report.Write
// over core.Check of the same bytes.
func FuzzChunkUpload(f *testing.F) {
	jsonl := faultedHistory(f, "list-append", 3, 40)
	bodies := [2][]byte{[]byte(jsonl), binHistory(f, jsonl)}
	opts := core.OptsFor(core.ListAppend, "serializable")
	var want [2][]byte
	for i, body := range bodies {
		var h *history.History
		var err error
		if i == 0 {
			h, err = jsonhist.Decode(bytes.NewReader(body), false)
		} else {
			h, err = binhist.Decode(bytes.NewReader(body))
		}
		if err != nil {
			f.Fatal(err)
		}
		var buf bytes.Buffer
		if err := report.New(h, core.ListAppend, core.Check(h, opts)).Write(&buf); err != nil {
			f.Fatal(err)
		}
		want[i] = buf.Bytes()
	}
	_, srv := newTestServer(f, Config{})

	f.Add(false, "", "", []byte{})
	f.Add(true, binhist.ContentType, binhist.ContentType+"; v=1", []byte{3, 0x85, 0, 17, 0x80, 90, 1, 1, 2})
	f.Add(false, "application/json", binhist.ContentType, []byte{10, 0x8a, 20})
	f.Add(true, "application/json", "text/plain", []byte{64})
	f.Fuzz(func(t *testing.T, binary bool, ctA, ctB string, cuts []byte) {
		for _, ct := range []string{ctA, ctB} {
			for i := 0; i < len(ct); i++ {
				if b := ct[i]; b < ' ' && b != '\t' || b == 0x7f {
					t.Skip("not a valid header value")
				}
			}
		}
		c := srv.Client()
		answered := func(what string, code int, raw string) {
			t.Helper()
			if code == http.StatusOK {
				return
			}
			var env ErrorEnvelope
			if code >= 500 || json.Unmarshal([]byte(raw), &env) != nil || !documentedCodes[env.Err.Code] {
				t.Fatalf("%s: status %d, not a documented v1 error: %s", what, code, raw)
			}
		}

		b := 0
		if binary {
			b = 1
		}
		body := bodies[b]
		id := createJob(t, c, srv.URL, `{"model":"serializable","parallelism":1}`)
		defer do(t, c, "DELETE", srv.URL+"/v1/jobs/"+id, "", nil)
		accepted := true
		for i, rest := 0, body; len(rest) > 0; i++ {
			n, ct := len(rest), ctA
			if i < len(cuts) {
				n = min(n, 1+int(cuts[i]&0x7f)*len(body)/128)
				if cuts[i]&0x80 != 0 {
					ct = ctB
				}
			}
			code, raw := postChunk(t, c, srv.URL+"/v1/jobs/"+id+"/chunks", ct, rest[:n])
			answered("chunk", code, raw)
			accepted = accepted && code == http.StatusOK
			rest = rest[n:]
		}
		code, raw := do(t, c, "GET", srv.URL+"/v1/jobs/"+id+"/report?format=json", "", nil)
		answered("report", code, raw)
		if accepted && raw != string(want[b]) {
			t.Fatalf("every chunk accepted, but the report differs from batch:\n--- elled ---\n%s\n--- batch ---\n%s", raw, want[b])
		}
	})
}
