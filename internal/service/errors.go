package service

import (
	"encoding/json"
	"net/http"
	"strconv"
)

// Stable machine-readable error codes, one per failure mode the API can
// express. Every non-2xx response carries exactly one of these in its
// envelope; the strings are part of the v1 wire contract and never
// change meaning (see docs/SERVICE.md for the full table). They are
// re-exported from the elle facade and mapped to typed errors by
// elleclient.
const (
	// CodeBadRequest: the request body or query string is malformed.
	CodeBadRequest = "bad_request"
	// CodeUnknownWorkload: the create request names an unregistered
	// workload.
	CodeUnknownWorkload = "unknown_workload"
	// CodeUnknownModel: the create request names an unknown consistency
	// model.
	CodeUnknownModel = "unknown_model"
	// CodeInvalidMemoryBudget: memory_budget is negative.
	CodeInvalidMemoryBudget = "invalid_memory_budget"
	// CodeAtCapacity: MaxJobs resident jobs exist; retry after a slot
	// frees (the envelope carries retry_after_s).
	CodeAtCapacity = "at_capacity"
	// CodeShardBusy: the job's inference shard has a full queue; the
	// chunk was not ingested — retry it (retry_after_s set).
	CodeShardBusy = "shard_busy"
	// CodeChunkTooLarge: one chunk body exceeds MaxChunkBytes; split it.
	CodeChunkTooLarge = "chunk_too_large"
	// CodeJobNotFound: no resident job has that id (never created,
	// deleted, or reaped).
	CodeJobNotFound = "job_not_found"
	// CodeJobDone: the job already finalized; it accepts no more chunks.
	CodeJobDone = "job_done"
	// CodeJobFailed: the job is in the terminal failed state (a chunk
	// was rejected, or finalizing found the stream cut mid-record).
	CodeJobFailed = "job_failed"
	// CodeFormatMismatch: the chunk's format differs from the format the
	// job's first chunk fixed. The job is intact; resend with the right
	// Content-Type.
	CodeFormatMismatch = "format_mismatch"
	// CodeChunkRejected: the chunk failed decoding or validation, and
	// the job is now failed — the same terminal outcome a malformed line
	// has in elle -follow.
	CodeChunkRejected = "chunk_rejected"
	// CodeBadCursor: the jobs listing's next cursor is not one this
	// service issued.
	CodeBadCursor = "bad_cursor"
	// CodeBadQuery: the query endpoint's q parameter is missing or not a
	// well-formed docs/QUERY.md pattern; the message carries the 1-based
	// position of the parse fault.
	CodeBadQuery = "bad_query"
	// CodeWALWrite: journaling the job or chunk to the WAL failed (disk
	// full, permissions). For chunks the job is intact and the chunk was
	// not ingested — nothing unjournaled ever reaches a session.
	CodeWALWrite = "wal_write"
	// CodeInternal: the checker panicked on this job's chunk, report or
	// query. The job is now failed; every other job is unaffected.
	CodeInternal = "internal"
)

// ErrorBody is the one machine-readable error shape every non-2xx
// response carries, wrapped in ErrorEnvelope. RetryAfterS mirrors the
// Retry-After header when the failure is transient (429s).
type ErrorBody struct {
	Code        string `json:"code"`
	Message     string `json:"message"`
	RetryAfterS int    `json:"retry_after_s,omitempty"`
}

// ErrorEnvelope is the wire frame: {"error":{...}}.
type ErrorEnvelope struct {
	Err ErrorBody `json:"error"`
}

// writeErr sends one enveloped error.
func writeErr(w http.ResponseWriter, status int, code, msg string) {
	writeJSON(w, status, ErrorEnvelope{Err: ErrorBody{Code: code, Message: msg}})
}

// writeErrRetry sends an enveloped error with both the Retry-After
// header and its JSON mirror, for 429-style pushback.
func writeErrRetry(w http.ResponseWriter, status int, code, msg string, retryAfterS int) {
	w.Header().Set("Retry-After", strconv.Itoa(retryAfterS))
	writeJSON(w, status, ErrorEnvelope{Err: ErrorBody{Code: code, Message: msg, RetryAfterS: retryAfterS}})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}
