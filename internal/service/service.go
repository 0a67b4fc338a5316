// Package service runs the checker as a long-lived HTTP job service —
// the engine behind cmd/elled. Where cmd/elle is one check per process,
// the service manages many concurrent checking jobs, each one a
// core.Stream session fed by chunked history uploads: a test harness
// (or a fleet of them) streams histories over HTTP as it produces them,
// polls provisional findings mid-run, and fetches a final report that
// is byte-identical to what `elle` prints for the same history and
// options — the stream/batch equivalence contract, exposed as a
// network service.
//
// Chunks are JSON lines by default, or ellebin (docs/FORMATS.md) when
// uploaded with Content-Type application/x-ellebin. A job's first chunk
// fixes its format; ellebin chunks may split records at arbitrary byte
// offsets — the per-job decoder carries the partial record (and the key
// dictionary) across uploads, and a job whose stream is still mid-record
// at report time fails rather than reporting on a silently truncated
// history.
//
// Three subsystems sit between the HTTP handlers and the sessions:
//
//   - Durability (internal/wal): with Config.WALDir set, every job's
//     create parameters and every accepted chunk are journaled to a
//     per-job WAL before the session sees a byte — acked ⇒ journaled.
//     On startup the service replays surviving journals, re-feeding each
//     job's chunks, so a killed elled comes back with its in-flight
//     streams resumable: clients compare their sent-chunk count against
//     the status endpoint's accepted count and re-send the difference
//     (the resume protocol in docs/SERVICE.md).
//
//   - Inference sharding (shards.go): chunk ingest runs on a pool of N
//     single-goroutine shard workers with bounded queues, decoupling
//     handler goroutines from decode/feed work. A job runs on one
//     shard — its creation sequence modulo the shard count, so N jobs
//     created in a row occupy N shards — and its chunks stay FIFO, so
//     reports are byte-identical to batch at any shard count; a full
//     queue is 429 shard_busy, not an unbounded queue.
//
//   - Metrics (metrics.go, internal/promtext): GET /metrics serves
//     Prometheus text exposition — jobs by state, chunk/byte/op ingest
//     counters, refusals by code, WAL append volume and fsync latency,
//     shard queue depths, and the bounded-memory session counters.
//
// The HTTP surface (see docs/SERVICE.md for the full reference):
//
//	POST   /v1/jobs              create a job (workload, model, parallelism)
//	GET    /v1/jobs              list resident jobs (?state=, limit/next paging)
//	GET    /v1/jobs/{id}         status + provisional findings so far
//	POST   /v1/jobs/{id}/chunks  feed the next chunk of JSON-lines ops
//	GET    /v1/jobs/{id}/report  finalize (first call) and render the report
//	DELETE /v1/jobs/{id}         cancel a job and delete its WAL journal
//	GET    /v1/workloads         registered workload names
//	GET    /metrics              Prometheus text exposition
//	GET    /healthz              liveness probe
//
// Every non-2xx response carries one machine-readable error envelope,
// {"error":{"code":...,"message":...,"retry_after_s":...}} — the codes
// are stable API (errors.go) and elleclient maps them to typed errors.
//
// Limits bound the service (Config): a cap on resident jobs (creation
// beyond it is refused with 429 at_capacity — backpressure, not
// queueing), a per-chunk body cap (413 chunk_too_large), bounded shard
// queues (429 shard_busy), an idle timeout after which jobs nobody has
// touched are reaped, and a finished-job TTL after which done and
// failed jobs are reaped even if clients keep polling them — finished
// jobs hold their histories and count against the job cap, so without
// the TTL a harness that never DELETEs its jobs would drive the service
// to permanent 429. Chunks of one job must be uploaded sequentially, in
// history index order — the same restriction core.Stream imposes on
// every caller; different jobs are fully independent and may be driven
// concurrently.
//
// A job created with "memory_budget": N checks with bounded resident
// memory: roughly the last N completions stay decoded, earlier settled
// history retires to compact segments spilled to disk, and analyzer
// caches for quiescent keys are released (see docs/STREAMING.md). The
// status endpoint then reports resident/retired counters, and the final
// report is still byte-identical to an unbudgeted check.
package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"mime"
	"net/http"
	"os"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/binhist"
	"repro/internal/consistency"
	"repro/internal/core"
	"repro/internal/jsonhist"
	"repro/internal/op"
	"repro/internal/par"
	"repro/internal/promtext"
	"repro/internal/report"
	"repro/internal/wal"
	"repro/internal/workload"
)

// Config bounds a Service. The zero value means: 8 resident jobs, 8 MiB
// per chunk, 10 minute idle reaping, 1 minute finished-job reaping, one
// inference shard per CPU with 32-deep queues, and no WAL.
type Config struct {
	// MaxJobs caps resident jobs — accepting and finished alike, since a
	// finished job still holds its history until fetched and deleted (or
	// reaped). Creation beyond the cap returns 429 at_capacity. Replayed
	// WAL jobs are always admitted, even past the cap: journaled work is
	// not dropped to honor a tuning knob.
	MaxJobs int
	// MaxChunkBytes caps one chunk upload's body. Oversized chunks are
	// refused with 413 chunk_too_large; split the history instead.
	MaxChunkBytes int64
	// IdleTimeout reaps jobs that no request has touched for this long,
	// so abandoned streams cannot hold their histories forever.
	IdleTimeout time.Duration
	// FinishedTTL reaps done and failed jobs this long after they
	// finish, even when clients keep polling them. Finished jobs count
	// against MaxJobs — their histories are still resident — so without
	// this a harness that fetches reports but never DELETEs its jobs
	// drives the service to permanent 429; with it, capacity recovers on
	// its own. The report and error have already been delivered by the
	// time a job enters a finished state, so reaping loses nothing a
	// client has not had FinishedTTL to re-fetch.
	FinishedTTL time.Duration
	// SpillDir is the directory where jobs created with a memory budget
	// spill retired history segments (as unlinked temporary files).
	// Default: the OS temp dir.
	SpillDir string

	// Shards is the inference pool's worker count — the bound on chunks
	// decoding and feeding concurrently, whatever the HTTP concurrency.
	// Any shard count yields byte-identical reports; it only changes how
	// much inference runs in parallel. Default: one per CPU.
	Shards int

	// WALDir, when set, enables the job WAL: every job journals its
	// create parameters and accepted chunks to <WALDir>/<id>.wal before
	// feeding, and New replays surviving journals so jobs outlive
	// crashes. Empty (the default) disables journaling.
	WALDir string
	// WALSync selects fsync policy for the WAL: "always" (default —
	// every acked chunk survives any crash), "interval" (bounded
	// staleness), or "none" (the OS flushes; crashes lose more acked
	// chunks, which clients re-send via the resume protocol).
	WALSync string

	// shardQueue, when > 0, replaces shardQueueDepth, so that tests can
	// wedge a shard with one task.
	shardQueue int
}

// shardQueueDepth is each shard's queue depth: a chunk arriving at a
// full queue is refused with 429 shard_busy.
const shardQueueDepth = 32

func (c Config) withDefaults() Config {
	if c.MaxJobs <= 0 {
		c.MaxJobs = 8
	}
	if c.MaxChunkBytes <= 0 {
		c.MaxChunkBytes = 8 << 20
	}
	if c.IdleTimeout <= 0 {
		c.IdleTimeout = 10 * time.Minute
	}
	if c.FinishedTTL <= 0 {
		c.FinishedTTL = time.Minute
	}
	if c.SpillDir == "" {
		c.SpillDir = os.TempDir()
	}
	if c.Shards <= 0 {
		c.Shards = par.Procs(0)
	}
	if c.shardQueue <= 0 {
		c.shardQueue = shardQueueDepth
	}
	return c
}

// Service is the HTTP checking service: an http.Handler plus the job
// table, inference pool, and WAL behind it. Create one with New and
// Close it when done. Close stops the reaper and the shard workers and
// closes (but keeps) WAL journals; call it only after the enclosing
// http.Server has drained in-flight requests (its Shutdown does that).
type Service struct {
	cfg     Config
	mux     *http.ServeMux
	done    chan struct{}
	stop    sync.Once
	pool    *shardPool
	met     *metrics
	walOpts wal.Options

	mu      sync.Mutex
	jobs    map[string]*job
	seq     int
	skipped []string // WAL files present but not replayable
}

// New builds a Service under cfg, replays any WAL journals in
// cfg.WALDir, and starts the idle reaper and shard workers. It errors
// when the WAL directory cannot be created or listed, or cfg.WALSync is
// not a sync mode; individual unreadable journals are skipped (see
// SkippedWALs), not fatal.
func New(cfg Config) (*Service, error) {
	s := &Service{
		cfg:  cfg.withDefaults(),
		mux:  http.NewServeMux(),
		done: make(chan struct{}),
		jobs: make(map[string]*job),
	}
	s.pool = newShardPool(s.cfg.Shards, s.cfg.shardQueue)
	s.met = newMetrics(s)
	mode, err := wal.ParseSyncMode(s.cfg.WALSync)
	if err != nil {
		return nil, err
	}
	s.walOpts = wal.Options{
		Mode:    mode,
		OnFsync: func(d time.Duration) { s.met.walFsync.Observe(d.Seconds()) },
	}
	if s.cfg.WALDir != "" {
		if err := os.MkdirAll(s.cfg.WALDir, 0o755); err != nil {
			return nil, fmt.Errorf("service: wal dir: %w", err)
		}
		if err := s.replayWALs(); err != nil {
			return nil, err
		}
	}
	s.mux.HandleFunc("POST /v1/jobs", s.handleCreate)
	s.mux.HandleFunc("GET /v1/jobs", s.handleList)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	s.mux.HandleFunc("POST /v1/jobs/{id}/chunks", s.handleChunk)
	s.mux.HandleFunc("GET /v1/jobs/{id}/report", s.handleReport)
	s.mux.HandleFunc("GET /v1/jobs/{id}/query", s.handleQuery)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	s.mux.HandleFunc("GET /v1/workloads", s.handleWorkloads)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		io.WriteString(w, "ok\n")
	})
	go s.reap()
	return s, nil
}

// ServeHTTP dispatches to the service's routes.
func (s *Service) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Close stops the reaper and shard workers and closes open WAL
// journals (leaving them on disk for the next start's replay). Call
// after the enclosing server has drained. Safe to call more than once.
func (s *Service) Close() {
	s.stop.Do(func() {
		close(s.done)
		s.pool.stop()
		for _, j := range s.snapshot() {
			j.mu.Lock()
			if j.wal != nil {
				j.wal.Close()
			}
			j.mu.Unlock()
		}
	})
}

// Jobs returns the number of resident jobs, for monitoring and tests.
func (s *Service) Jobs() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.jobs)
}

// SkippedWALs returns the paths of WAL files found at startup that were
// not replayable (corrupt, or naming an unknown workload or model).
// They are left on disk for inspection.
func (s *Service) SkippedWALs() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.skipped...)
}

// replayWALs reconstructs jobs from the WAL directory: for each
// readable journal, a fresh session is created from the journaled
// create parameters and every journaled chunk is re-fed, in order —
// the same path a live upload takes, minus the re-journaling. A job
// whose replayed chunk fails to decode lands in the failed state, just
// as it would have before the crash. Torn trailing records were
// truncated by the journal reader; the client re-sends whatever it
// never got an ack for.
func (s *Service) replayWALs() error {
	replayed, skipped, err := wal.ReplayDir(s.cfg.WALDir)
	if err != nil {
		return fmt.Errorf("service: wal replay: %w", err)
	}
	s.skipped = skipped
	for _, r := range replayed {
		info, ok := workload.Lookup(r.Meta.Workload)
		if !ok || !consistency.Known(consistency.Model(r.Meta.Model)) || r.Meta.ID == "" {
			s.skipped = append(s.skipped, r.Path)
			continue
		}
		j := s.newJob(r.Meta, info)
		j.resumed = true
		j.mu.Lock()
		for _, c := range r.Chunks {
			if j.format == 0 {
				j.format = c.Format
			}
			var delta deltaJSON
			if err := j.ingestLocked(c.Format, c.Body, &delta); err != nil {
				break // job is failed; it stays resident so the client learns why
			}
			j.chunks++
		}
		jw, err := r.OpenAppend(s.walOpts)
		if err != nil {
			// The job is resumed but its journal cannot reopen; keep it
			// resident (the fed history is real) without further journaling.
			s.skipped = append(s.skipped, r.Path)
		} else {
			j.wal = jw
		}
		j.mu.Unlock()
		s.jobs[j.id] = j
		if r.Meta.Seq > s.seq {
			s.seq = r.Meta.Seq
		}
		s.met.jobsResumed.Inc()
	}
	return nil
}

// reap deletes jobs nobody has touched for IdleTimeout and finished
// jobs older than FinishedTTL, checking a few times per window. A
// reaped job's WAL journal is deleted with it — there is nothing left
// to resume.
func (s *Service) reap() {
	window := s.cfg.IdleTimeout
	if s.cfg.FinishedTTL < window {
		window = s.cfg.FinishedTTL
	}
	interval := window / 4
	if interval < 10*time.Millisecond {
		interval = 10 * time.Millisecond
	}
	if interval > 30*time.Second {
		interval = 30 * time.Second
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-s.done:
			return
		case now := <-t.C:
			var victims []*job
			s.mu.Lock()
			for id, j := range s.jobs {
				idle := now.Sub(j.touched()) > s.cfg.IdleTimeout
				fin := j.finishedAt()
				expired := !fin.IsZero() && now.Sub(fin) > s.cfg.FinishedTTL
				if idle || expired {
					delete(s.jobs, id)
					victims = append(victims, j)
				}
			}
			s.mu.Unlock()
			for _, j := range victims {
				j.discardWAL()
				s.met.jobsReaped.Inc()
			}
		}
	}
}

// newJob builds a job from its create parameters, the ones its journal
// records: a created job and one replayed from its journal are built
// alike. The caller has checked m's workload (info) and model.
func (s *Service) newJob(m wal.Meta, info workload.Info) *job {
	opts := core.OptsFor(core.Workload(info.Name), consistency.Model(m.Model))
	opts.Parallelism = m.Parallelism
	if m.MemoryBudget > 0 {
		opts.MemoryBudget = m.MemoryBudget
		opts.SpillDir = s.cfg.SpillDir
	}
	j := &job{
		id:        m.ID,
		seq:       m.Seq,
		info:      info,
		opts:      opts,
		stream:    core.CheckStream(opts),
		state:     stateAccepting,
		createdAt: m.CreatedAt,
		panics:    s.met.panics,
	}
	j.touch()
	return j
}

// Job lifecycle states.
const (
	stateAccepting = "accepting" // chunks may be fed
	stateDone      = "done"      // finalized; report available
	stateFailed    = "failed"    // a chunk was rejected; terminal
)

// job is one in-progress check: a core.Stream plus the bookkeeping the
// endpoints expose. Its mutex serializes stream access — core.Stream is
// single-goroutine — so concurrent requests against one job are safe,
// if pointless: chunk order across racing uploads is the client's
// responsibility.
type job struct {
	id        string
	seq       int
	info      workload.Info
	opts      core.Opts
	createdAt time.Time
	resumed   bool
	panics    *promtext.Counter // the service's elled_panics_total
	active    atomic.Int64      // unix nanos of the last request that touched the job
	fin       atomic.Int64      // unix nanos of entering a finished state; 0 while accepting

	mu     sync.Mutex
	stream *core.Stream
	state  string
	ops    int
	chunks int               // accepted chunk uploads — the resume protocol's cursor
	anoms  []json.RawMessage // provisional findings as report.AppendAnomaly writes them
	result *core.CheckResult
	errMsg string
	wal    *wal.Journal // nil when the service runs without a WAL

	// format is fixed by the first chunk (wal.FormatJSON or
	// wal.FormatBinary; 0 before it); mixing formats within one job is
	// refused — an ellebin decoder mid-record cannot make sense of JSON
	// bytes, and vice versa.
	format byte
	// dec carries decode state across chunk uploads: interned keys, the
	// traces a key's list reads share, and for ellebin any partial
	// trailing record, which lets clients split at any byte offset.
	dec interface{ Feed([]byte) ([]op.Op, error) }
}

func (j *job) touch()             { j.active.Store(time.Now().UnixNano()) }
func (j *job) touched() time.Time { return time.Unix(0, j.active.Load()) }

// discardWAL removes the job's journal, if any: the job is gone and has
// nothing to resume.
func (j *job) discardWAL() {
	j.mu.Lock()
	if j.wal != nil {
		j.wal.Remove()
		j.wal = nil
	}
	j.mu.Unlock()
}

// finishedAt returns when the job entered a finished state (done or
// failed), or the zero time while it is still accepting.
func (j *job) finishedAt() time.Time {
	n := j.fin.Load()
	if n == 0 {
		return time.Time{}
	}
	return time.Unix(0, n)
}

// fail records a terminal error; the job accepts no further chunks.
func (j *job) fail(err error) {
	j.state = stateFailed
	j.errMsg = err.Error()
	j.fin.Store(time.Now().UnixNano())
}

// internalError is a checker panic, recovered into a failed job.
type internalError struct{ v any }

func (e internalError) Error() string { return fmt.Sprintf("internal error: %v", e.v) }

// contain recovers a checker panic into a failed job, so that one bad
// analyzer run costs its job and not the process with every resident
// job in it: the job fails with an internalError, which becomes *err,
// the stack goes to the log, and elled_panics_total counts it. The
// session may be half-updated, which is why the job accepts nothing
// more. ingestLocked and finalizeLocked defer it, and respondLocked
// runs rendering and queries under it.
func (j *job) contain(err *error) {
	if v := recover(); v != nil {
		*err = j.failPanic(v)
	}
}

// failPanic fails the job with the recovered panic value v, logging the
// stack and counting it. Callers hold j.mu.
func (j *job) failPanic(v any) error {
	log.Printf("elled: job %s: panic: %v\n%s", j.id, v, debug.Stack())
	j.panics.Inc()
	ie := internalError{v}
	j.fail(ie)
	return ie
}

// isInternal reports whether err is a recovered checker panic.
func isInternal(err error) bool { return errors.As(err, new(internalError)) }

// jobJSON is the wire shape of a job's status.
type jobJSON struct {
	ID        string    `json:"id"`
	State     string    `json:"state"`
	Workload  string    `json:"workload"`
	Model     string    `json:"model"`
	CreatedAt time.Time `json:"created_at"`
	// Ops counts completion ops ingested so far.
	Ops int `json:"ops"`
	// Chunks counts accepted chunk uploads. After a crash and restart it
	// equals the journaled chunks that replayed — a resuming client
	// compares it against its own sent count and re-sends the difference.
	Chunks int `json:"chunks"`
	// WALBytes is the job's journal size on disk; 0 without a WAL.
	WALBytes int64 `json:"wal_bytes,omitempty"`
	// Resumed marks a job reconstructed from its journal at startup.
	Resumed bool `json:"resumed,omitempty"`
	// Memory reports the bounded-memory session's resident/retired
	// counters; present only for jobs created with memory_budget > 0.
	Memory *memoryJSON `json:"memory,omitempty"`
	// Anomalies are the provisional mid-stream findings surfaced so far
	// (see workload.Delta for their contract); the report endpoint has
	// the definitive set.
	Anomalies []json.RawMessage `json:"anomalies,omitempty"`
	Error     string            `json:"error,omitempty"`
}

// memoryJSON is the wire shape of a budgeted job's memory counters.
type memoryJSON struct {
	// Budget is the configured window, in completions.
	Budget int `json:"budget"`
	// ResidentOps is the live-tail length: ops still held decoded.
	ResidentOps int `json:"resident_ops"`
	// RetiredOps counts ops released into encoded segments, Segments the
	// segment count, RetiredBytes the encoded bytes held in memory, and
	// SpilledBytes the encoded bytes written to the spill file.
	RetiredOps   int   `json:"retired_ops"`
	Segments     int   `json:"segments"`
	RetiredBytes int   `json:"retired_bytes"`
	SpilledBytes int64 `json:"spilled_bytes"`
	// RetiredKeys counts keys whose analyzer caches were released after
	// a full window of quiescence.
	RetiredKeys int `json:"retired_keys"`
	// Degraded names any fallback taken (spill I/O failure, codec
	// failure); retirement degrades rather than corrupting.
	Degraded string `json:"degraded,omitempty"`
}

// statusLocked snapshots a job; callers hold j.mu.
func (j *job) statusLocked() jobJSON {
	st := jobJSON{
		ID:        j.id,
		State:     j.state,
		Workload:  string(j.info.Name),
		Model:     string(j.opts.Model),
		CreatedAt: j.createdAt,
		Ops:       j.ops,
		Chunks:    j.chunks,
		Resumed:   j.resumed,
		Anomalies: append([]json.RawMessage(nil), j.anoms...),
		Error:     j.errMsg,
	}
	if j.wal != nil {
		st.WALBytes = j.wal.Size()
	}
	if j.opts.MemoryBudget > 0 {
		rs := j.stream.RetireStats()
		st.Memory = &memoryJSON{
			Budget:       j.opts.MemoryBudget,
			ResidentOps:  rs.Stream.ResidentOps,
			RetiredOps:   rs.Stream.RetiredOps,
			Segments:     rs.Stream.Segments,
			RetiredBytes: rs.Stream.RetiredBytes,
			SpilledBytes: rs.Stream.SpilledBytes,
			RetiredKeys:  rs.RetiredKeys,
			Degraded:     rs.Stream.Degraded,
		}
	}
	return st
}

// deltaJSON is the wire shape of one chunk's outcome.
type deltaJSON struct {
	Ops       int               `json:"ops"`
	Chunks    int               `json:"chunks"`
	Anomalies []json.RawMessage `json:"anomalies,omitempty"`
}

// createRequest is the body of POST /v1/jobs. Omitted fields default
// exactly as cmd/elle's flags do: list-append, strict-serializable,
// one decode/check worker per CPU.
type createRequest struct {
	Workload    string `json:"workload"`
	Model       string `json:"model"`
	Parallelism int    `json:"parallelism"`
	// MemoryBudget > 0 bounds the job's resident memory to roughly the
	// last MemoryBudget completions: settled history prefixes retire to
	// encoded segments spilled under Config.SpillDir, and analyzer caches
	// for quiescent keys are released. The final report is byte-identical
	// to an unbudgeted job's. 0 (the default) keeps everything resident.
	MemoryBudget int `json:"memory_budget"`
}

func (s *Service) handleCreate(w http.ResponseWriter, r *http.Request) {
	var req createRequest
	body := http.MaxBytesReader(w, r.Body, 4096)
	if err := json.NewDecoder(body).Decode(&req); err != nil && !errors.Is(err, io.EOF) {
		writeErr(w, http.StatusBadRequest, CodeBadRequest, fmt.Sprintf("bad request body: %v", err))
		return
	}
	if req.Workload == "" {
		req.Workload = string(workload.ListAppend)
	}
	info, ok := workload.Lookup(req.Workload)
	if !ok {
		writeErr(w, http.StatusBadRequest, CodeUnknownWorkload,
			fmt.Sprintf("unknown workload %q; choose from: %s", req.Workload, workload.NameList()))
		return
	}
	if req.Model == "" {
		req.Model = string(consistency.StrictSerializable)
	}
	model := consistency.Model(req.Model)
	if !consistency.Known(model) {
		writeErr(w, http.StatusBadRequest, CodeUnknownModel, fmt.Sprintf("unknown model %q", req.Model))
		return
	}

	if req.MemoryBudget < 0 {
		writeErr(w, http.StatusBadRequest, CodeInvalidMemoryBudget, "memory_budget must be >= 0")
		return
	}
	meta := wal.Meta{
		Workload:     string(info.Name),
		Model:        string(model),
		Parallelism:  req.Parallelism,
		MemoryBudget: req.MemoryBudget,
		CreatedAt:    time.Now().UTC(),
	}

	s.mu.Lock()
	if len(s.jobs) >= s.cfg.MaxJobs {
		s.mu.Unlock()
		s.met.refused.With(CodeAtCapacity).Inc()
		writeErrRetry(w, http.StatusTooManyRequests, CodeAtCapacity,
			fmt.Sprintf("at capacity: %d resident jobs; finish, delete, or wait for reaping", s.cfg.MaxJobs), 1)
		return
	}
	s.seq++
	meta.ID, meta.Seq = fmt.Sprintf("j%d", s.seq), s.seq
	j := s.newJob(meta, info)
	s.jobs[j.id] = j
	s.mu.Unlock()

	if s.cfg.WALDir != "" {
		jw, err := wal.Create(s.cfg.WALDir, s.walOpts, meta)
		if err != nil {
			// No journal, no job: a create the WAL cannot record would
			// silently lose the job on restart — refuse instead.
			s.mu.Lock()
			delete(s.jobs, j.id)
			s.mu.Unlock()
			writeErr(w, http.StatusInternalServerError, CodeWALWrite,
				fmt.Sprintf("journaling job failed: %v", err))
			return
		}
		j.mu.Lock()
		j.wal = jw
		j.mu.Unlock()
		s.met.walAppends.Inc() // header + meta record
		s.met.walBytes.Add(int(jw.Size()))
	}
	s.met.jobsCreated.Inc()

	j.mu.Lock()
	st := j.statusLocked()
	j.mu.Unlock()
	writeJSON(w, http.StatusCreated, st)
}

func (s *Service) lookup(id string) (*job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

func (s *Service) handleChunk(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(r.PathValue("id"))
	if !ok {
		writeErr(w, http.StatusNotFound, CodeJobNotFound, "no such job")
		return
	}
	j.touch()
	defer j.touch()
	if r.ContentLength > s.cfg.MaxChunkBytes {
		s.met.refused.With(CodeChunkTooLarge).Inc()
		writeErr(w, http.StatusRequestEntityTooLarge, CodeChunkTooLarge,
			fmt.Sprintf("chunk of %d bytes exceeds the %d-byte limit; split it", r.ContentLength, s.cfg.MaxChunkBytes))
		return
	}
	// Drain the (bounded) body before dispatching to the job's shard: a
	// slow or stalled uploader must not occupy a shard worker — or hold
	// j.mu — across a network read. It also means an oversized chunk is
	// always refused before the stream sees a byte, so the job survives
	// and the client can re-split and resend.
	body, err := readBody(w, r, s.cfg.MaxChunkBytes)
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			s.met.refused.With(CodeChunkTooLarge).Inc()
			writeErr(w, http.StatusRequestEntityTooLarge, CodeChunkTooLarge, err.Error())
			return
		}
		writeErr(w, http.StatusBadRequest, CodeBadRequest, err.Error())
		return
	}

	format := chunkFormat(r.Header.Get("Content-Type"))

	// The whole ingest — state check, WAL append, decode, feed — runs as
	// one task on the job's home shard; the handler just waits for the
	// verdict. One job, one shard, one worker goroutine: feed order is
	// upload order, whatever the shard count.
	var delta deltaJSON
	status, code, msg, ran := s.ingestChunk(j, format, body, &delta)
	if !ran {
		s.met.refused.With(CodeShardBusy).Inc()
		writeErrRetry(w, http.StatusTooManyRequests, CodeShardBusy,
			"inference shard queue is full; retry this chunk", 1)
		return
	}
	if status != http.StatusOK {
		writeErr(w, status, code, msg)
		return
	}
	writeJSON(w, http.StatusOK, delta)
}

// readBody reads a chunk body of at most limit bytes, into one buffer of
// its declared Content-Length when it has one.
func readBody(w http.ResponseWriter, r *http.Request, limit int64) ([]byte, error) {
	if r.ContentLength < 0 {
		return io.ReadAll(http.MaxBytesReader(w, r.Body, limit))
	}
	buf := make([]byte, r.ContentLength) // the caller refused one over limit
	_, err := io.ReadFull(r.Body, buf)
	return buf, err
}

// ingestChunk runs processChunk as a task on j's home shard — its
// creation sequence, modulo the shard count — and returns its verdict;
// ran is false when the shard's queue refused the task. A panic
// processChunk did not contain itself — ingestLocked contains the
// checker's, so this is the WAL append around it — reaches this
// goroutine through shardPool.run and fails the job as contain would,
// with 500 internal; the shard's worker lives on.
func (s *Service) ingestChunk(j *job, format byte, body []byte, delta *deltaJSON) (status int, code, msg string, ran bool) {
	defer func() {
		if v := recover(); v != nil {
			j.mu.Lock()
			defer j.mu.Unlock()
			status, code, msg, ran = http.StatusInternalServerError, CodeInternal, j.failPanic(v).Error(), true
		}
	}()
	ran = s.pool.run(j.seq, func() {
		status, code, msg = s.processChunk(j, format, body, delta)
	})
	return status, code, msg, ran
}

// processChunk ingests one chunk body on the job's shard: journal
// first (acked ⇒ journaled), then decode and feed. It returns the HTTP
// status plus error code/message for non-200s.
func (s *Service) processChunk(j *job, format byte, body []byte, delta *deltaJSON) (int, string, string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != stateAccepting {
		code := CodeJobDone
		if j.state == stateFailed {
			code = CodeJobFailed
		}
		return http.StatusConflict, code, fmt.Sprintf("job is %s", j.state)
	}
	if j.format != 0 && j.format != format {
		// Not a job failure: the stream is intact, the chunk just never
		// reached it. The client can resend with the right Content-Type.
		return http.StatusBadRequest, CodeFormatMismatch,
			fmt.Sprintf("job is a %s stream; this chunk is %s — one job, one format", formatName(j.format), formatName(format))
	}
	if j.wal != nil {
		before := j.wal.Size()
		if err := j.wal.AppendChunk(format, body); err != nil {
			// The chunk is not journaled, so it must not be fed: replay
			// would silently drop it. The job survives and the client
			// retries, unless the journal still holds part of the chunk.
			err = fmt.Errorf("journaling chunk failed: %v", err)
			if j.wal.Size() != before {
				j.fail(err)
			}
			return http.StatusInternalServerError, CodeWALWrite, err.Error()
		}
		s.met.walAppends.Inc()
		s.met.walBytes.Add(int(j.wal.Size() - before))
	}
	j.format = format
	prevOps := j.ops
	if err := j.ingestLocked(format, body, delta); err != nil {
		if isInternal(err) {
			return http.StatusInternalServerError, CodeInternal, err.Error()
		}
		return http.StatusBadRequest, CodeChunkRejected, err.Error()
	}
	j.chunks++
	delta.Ops = j.ops
	delta.Chunks = j.chunks
	s.met.chunks.Inc()
	s.met.ingestBytes.Add(len(body))
	s.met.ingestOps.Add(j.ops - prevOps)
	return http.StatusOK, "", ""
}

// ingestLocked decodes one chunk body and feeds the results into the
// job's stream, failing the job on decode or stream errors. It is the
// shared ingest path: live uploads run it on the job's shard after the
// WAL append; startup replay runs it directly on already-journaled
// chunks, so a chunk that panics the checker fails its job on replay
// too instead of the restart. Callers hold j.mu.
func (j *job) ingestLocked(format byte, body []byte, delta *deltaJSON) (err error) {
	defer j.contain(&err)
	if j.dec == nil {
		if format == wal.FormatBinary {
			j.dec = new(binhist.ChunkDecoder)
		} else {
			j.dec = &jsonhist.ChunkDecoder{Register: j.info.RegisterReads}
		}
	}
	ops, err := j.dec.Feed(body)
	if err != nil {
		j.fail(err)
		return err
	}
	return j.feedLocked(ops, delta)
}

// chunkFormat maps a chunk upload's Content-Type to its history format,
// as the journal records it. Anything that is not ellebin's type —
// including absent or unparseable values — is read as JSON lines, the
// format every pre-ellebin client sends without a Content-Type.
func chunkFormat(contentType string) byte {
	if mt, _, err := mime.ParseMediaType(contentType); err == nil && mt == binhist.ContentType {
		return wal.FormatBinary
	}
	return wal.FormatJSON
}

// formatName names a chunk format in a format_mismatch message.
func formatName(format byte) string {
	if format == wal.FormatBinary {
		return "binary"
	}
	return "json"
}

// feedLocked feeds one batch of decoded ops into the job's stream and
// accumulates the provisional findings it surfaces, failing the job on
// a stream error. Callers hold j.mu.
func (j *job) feedLocked(ops []op.Op, delta *deltaJSON) error {
	if len(ops) == 0 {
		return nil // a chunk may complete no record
	}
	d, err := j.stream.Feed(ops)
	if err != nil {
		j.fail(err)
		return err
	}
	j.ops = d.Ops
	for _, a := range d.Anomalies {
		// Bytes, not the anomaly: its Ops would pin their mops for the
		// life of a budgeted job. encoding/json compacts and re-indents
		// them, so the wire bytes are the report's for the same finding.
		ra := json.RawMessage(report.AppendAnomaly(nil, a))
		j.anoms = append(j.anoms, ra)
		delta.Anomalies = append(delta.Anomalies, ra)
	}
	return nil
}

func (s *Service) handleStatus(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(r.PathValue("id"))
	if !ok {
		writeErr(w, http.StatusNotFound, CodeJobNotFound, "no such job")
		return
	}
	j.touch()
	j.mu.Lock()
	st := j.statusLocked()
	j.mu.Unlock()
	writeJSON(w, http.StatusOK, st)
}

func (s *Service) handleReport(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(r.PathValue("id"))
	if !ok {
		writeErr(w, http.StatusNotFound, CodeJobNotFound, "no such job")
		return
	}
	j.touch()
	defer j.touch()
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.finalizeLocked(); err != nil {
		writeFinalizeErr(w, err)
		return
	}
	asJSON := r.URL.Query().Get("format") == "json"
	j.respondLocked(w, func(w http.ResponseWriter) {
		w.Header().Set("X-Elle-Valid", fmt.Sprintf("%t", j.result.Valid))
		if asJSON {
			w.Header().Set("Content-Type", "application/json")
			report.New(j.stream.History(), core.Workload(j.info.Name), j.result).Write(w) //nolint:errcheck // mid-body; too late for a status code
			return
		}
		// The default rendering is exactly cmd/elle's stdout for the
		// same history and options: same CheckResult (stream/batch
		// equivalence), same report.Prose.
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		report.Prose(w, j.result, report.ProseOpts{})
	})
}

// respondLocked runs respond, which answers from a finished job, under
// the job's containment: a panic in rendering or in a query fails the
// job, is logged and counted as a checker panic is, and is answered 500
// internal if respond had sent nothing yet (after that the status line
// is out, and the client sees a cut body). Callers hold j.mu.
func (j *job) respondLocked(w http.ResponseWriter, respond func(http.ResponseWriter)) {
	sw := &sentWriter{ResponseWriter: w}
	err := func() (err error) {
		defer j.contain(&err)
		respond(sw)
		return nil
	}()
	if err != nil && !sw.sent {
		w.Header().Del("X-Elle-Valid")
		writeErr(w, http.StatusInternalServerError, CodeInternal, err.Error())
	}
}

// sentWriter records whether a response's status line has gone out.
type sentWriter struct {
	http.ResponseWriter
	sent bool
}

func (s *sentWriter) WriteHeader(code int) {
	s.sent = true
	s.ResponseWriter.WriteHeader(code)
}

func (s *sentWriter) Write(p []byte) (int, error) {
	s.sent = true
	return s.ResponseWriter.Write(p)
}

// finalizeLocked drives an accepting job to its terminal state, shared
// by the report and query endpoints: close a pending ellebin decode,
// finish the stream, and store the result. An ellebin job whose
// uploads stopped mid-record must not finalize — the tail of the
// history never arrived, and a report or query now would silently
// cover a prefix; the framing error names the cut and fails the job.
// A checker panic fails the job with an internalError. Callers hold
// j.mu. On nil return the job is done and j.result set.
func (j *job) finalizeLocked() (err error) {
	defer j.contain(&err)
	if j.state == stateFailed {
		return fmt.Errorf("job failed: %s", j.errMsg)
	}
	if j.state != stateAccepting {
		return nil
	}
	if c, ok := j.dec.(io.Closer); ok { // an ellebin decoder
		if err := c.Close(); err != nil {
			j.fail(err)
			return fmt.Errorf("job failed: %s", j.errMsg)
		}
	}
	res, err := j.stream.Finish()
	if err != nil {
		j.fail(err)
		return fmt.Errorf("job failed: %s", j.errMsg)
	}
	j.state = stateDone
	j.result = res
	j.fin.Store(time.Now().UnixNano())
	return nil
}

// writeFinalizeErr answers a job that could not finalize: 500 internal
// when the checker panicked, 409 job_failed otherwise.
func writeFinalizeErr(w http.ResponseWriter, err error) {
	if isInternal(err) {
		writeErr(w, http.StatusInternalServerError, CodeInternal, err.Error())
		return
	}
	writeErr(w, http.StatusConflict, CodeJobFailed, err.Error())
}

// handleQuery evaluates a docs/QUERY.md pattern query against a job's
// finished analysis: GET /v1/jobs/{id}/query?q=PATTERN. Asking for a
// query finalizes an accepting job exactly as asking for its report
// does. The body is the query's canonical tab-separated row set —
// byte-identical to `elle -query` over the same history and options.
func (s *Service) handleQuery(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(r.PathValue("id"))
	if !ok {
		writeErr(w, http.StatusNotFound, CodeJobNotFound, "no such job")
		return
	}
	j.touch()
	defer j.touch()
	q := r.URL.Query().Get("q")
	if q == "" {
		writeErr(w, http.StatusBadRequest, CodeBadQuery, "missing query parameter q")
		return
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.finalizeLocked(); err != nil {
		writeFinalizeErr(w, err)
		return
	}
	j.respondLocked(w, func(w http.ResponseWriter) {
		res, err := j.result.Query(j.stream.History(), q)
		if err != nil {
			writeErr(w, http.StatusBadRequest, CodeBadQuery, err.Error())
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		res.WriteTo(w) //nolint:errcheck // mid-body write; too late for a status code
	})
}

func (s *Service) handleCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	j, ok := s.jobs[id]
	delete(s.jobs, id)
	s.mu.Unlock()
	if !ok {
		writeErr(w, http.StatusNotFound, CodeJobNotFound, "no such job")
		return
	}
	j.discardWAL()
	w.WriteHeader(http.StatusNoContent)
}

// listJSON is the wire shape of GET /v1/jobs: one status page plus the
// cursor for the next one (absent on the last page).
type listJSON struct {
	Jobs []jobJSON `json:"jobs"`
	Next string    `json:"next,omitempty"`
}

func (s *Service) handleList(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	stateFilter := q.Get("state")
	switch stateFilter {
	case "", stateAccepting, stateDone, stateFailed:
	default:
		writeErr(w, http.StatusBadRequest, CodeBadRequest,
			fmt.Sprintf("unknown state %q (accepting, done, failed)", stateFilter))
		return
	}
	limit := 0
	if raw := q.Get("limit"); raw != "" {
		n, err := strconv.Atoi(raw)
		if err != nil || n < 1 {
			writeErr(w, http.StatusBadRequest, CodeBadRequest, "limit must be a positive integer")
			return
		}
		limit = n
	}
	// The cursor is the last-seen job id; listing resumes strictly after
	// its sequence number. Jobs deleted between pages are simply skipped
	// — ids never reorder, so the cursor stays valid.
	afterSeq := 0
	if cur := q.Get("next"); cur != "" {
		n, err := strconv.Atoi(strings.TrimPrefix(cur, "j"))
		if !strings.HasPrefix(cur, "j") || err != nil || n < 1 {
			writeErr(w, http.StatusBadRequest, CodeBadCursor,
				fmt.Sprintf("cursor %q is not a job id this service issued", cur))
			return
		}
		afterSeq = n
	}

	jobs := s.snapshot()
	sort.Slice(jobs, func(i, k int) bool { return jobs[i].seq < jobs[k].seq })
	out := listJSON{Jobs: make([]jobJSON, 0, len(jobs))}
	for _, j := range jobs {
		if j.seq <= afterSeq {
			continue
		}
		j.mu.Lock()
		st := j.statusLocked()
		j.mu.Unlock()
		if stateFilter != "" && st.State != stateFilter {
			continue
		}
		if limit > 0 && len(out.Jobs) == limit {
			out.Next = out.Jobs[limit-1].ID
			break
		}
		out.Jobs = append(out.Jobs, st)
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Service) handleWorkloads(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		Workloads []string `json:"workloads"`
	}{Workloads: workload.Names()})
}
