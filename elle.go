// Package repro is the public API of this reproduction of Elle, the
// black-box transactional isolation checker of Kingsbury & Alvaro,
// "Elle: Inferring Isolation Anomalies from Experimental Observations"
// (VLDB 2020).
//
// The package re-exports the library's stable surface from the internal
// implementation packages, so downstream users interact with one import:
//
//	import elle "repro"
//
//	h := elle.MustHistory([]elle.Op{
//	    elle.Txn(0, 0, elle.OK, elle.Append("x", 1)),
//	    elle.Txn(1, 1, elle.OK, elle.ReadList("x", []int{1})),
//	})
//	res := elle.Check(h, elle.OptsFor(elle.ListAppend, elle.Serializable))
//	fmt.Print(res.Summary())
//
// The five building blocks:
//
//   - Histories (Op, Mop, History): observations of a database, either
//     compact (completions only) or complete (invoke/ok/fail/info pairs,
//     as a real test harness records them).
//   - Check: dependency inference + cycle search + anomaly
//     classification against a claimed consistency model. CheckStream
//     is its incremental counterpart: feed the history in chunks and
//     anomalies surface as they become provable, with a Finish result
//     byte-identical to the batch Check.
//   - Workload generation (GenConfig, NewGen) and the in-memory engine
//     (DB, Run) for producing histories to check.
//   - The search baseline (CheckSerializable) used by the paper's
//     Figure 4 comparison.
//   - Serialization: DecodeHistory / EncodeHistory in a JSON-lines
//     format close to Jepsen's, and DecodeHistoryBinary /
//     EncodeHistoryBinary in ellebin, the compact length-prefixed
//     binary format (docs/FORMATS.md) the CLI tools auto-detect.
//
// Checking is parallel by default: Check shards per-key dependency
// inference, per-transaction anomaly checks, and per-SCC cycle search
// across one worker per CPU, and DecodeHistoryWith parses JSON lines the
// same way. Set CheckOpts.Parallelism (or DecodeHistoryOpts.Parallelism)
// to 1 for a fully sequential run; results are byte-identical at every
// setting.
package repro

import (
	"io"
	"time"

	"repro/internal/anomaly"
	"repro/internal/binhist"
	"repro/internal/consistency"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/history"
	"repro/internal/jsonhist"
	"repro/internal/memdb"
	"repro/internal/op"
	"repro/internal/serialcheck"
	"repro/internal/service"
	"repro/internal/workload"
)

// Micro-operations and operations.
type (
	// Mop is one micro-operation: a read, write, append, add, or
	// increment on a single object. A decoded Mop's List is read-only
	// (see DecodeHistory).
	Mop = op.Mop
	// Op is one observed operation: a transaction attempt or completion.
	Op = op.Op
	// OpType is the completion type of an observed operation.
	OpType = op.Type
	// History is a validated observation. Its Op method finds a
	// completion by index; a check's explanations cite ops through it.
	History = history.History
)

// Completion types.
const (
	Invoke = op.Invoke
	OK     = op.OK
	Fail   = op.Fail
	Info   = op.Info
)

// Micro-op constructors.
var (
	Append    = op.Append
	Add       = op.Add
	Increment = op.Increment
	Write     = op.Write
	Read      = op.Read
	ReadList  = op.ReadList
	ReadReg   = op.ReadReg
	ReadNil   = op.ReadNil
	Txn       = op.Txn
)

// NewHistory validates ops and builds a History; MustHistory panics on
// error. NewHistoryBuilder incrementally assembles complete histories.
var (
	NewHistory        = history.New
	MustHistory       = history.MustNew
	NewHistoryBuilder = history.NewBuilder
)

// Checking.
type (
	// CheckOpts configures a check. Its Model alone decides the orders
	// added to the dependency graph: process order under the
	// strong-session and strict models, real time under strict
	// serializability. See OptsFor for the inference options each model
	// makes sound.
	CheckOpts = core.Opts
	// CheckResult is a check's outcome: verdict, anomalies with
	// explanations, and the violated / surviving consistency models.
	CheckResult = core.CheckResult
	// Workload selects the dependency-inference strategy.
	Workload = core.Workload
	// Anomaly is one detected phenomenon.
	Anomaly = anomaly.Anomaly
	// AnomalyType names an anomaly family (G0, G1a, G-single, ...).
	AnomalyType = anomaly.Type
	// Model is an isolation / consistency model.
	Model = consistency.Model
)

// Workloads. These are the built-in registered names; Workloads()
// returns the full live set, including any analyzer registered outside
// this list.
const (
	ListAppend = core.ListAppend
	Register   = core.Register
	SetAdd     = core.SetAdd
	Counter    = core.Counter
	Bank       = core.Bank
	KAtomic    = core.KAtomic
)

// Workloads returns the name of every registered workload analyzer,
// sorted. The set is derived from the internal workload registry, so it
// always matches what Check accepts.
func Workloads() []Workload {
	names := workload.Names()
	out := make([]Workload, len(names))
	for i, n := range names {
		out[i] = Workload(n)
	}
	return out
}

// Models, weakest to strongest.
const (
	ReadUncommitted     = consistency.ReadUncommitted
	ReadCommitted       = consistency.ReadCommitted
	RepeatableRead      = consistency.RepeatableRead
	SnapshotIsolation   = consistency.SnapshotIsolation
	Serializable        = consistency.Serializable
	StrongSessionSI     = consistency.StrongSessionSI
	StrongSessionSerial = consistency.StrongSessionSerial
	StrictSerializable  = consistency.StrictSerializable
)

// Check analyzes a history under the given options.
//
// A panic inside the checker (a checker defect) propagates to the
// caller: the library has no recover boundary, so a caller that must
// survive one recovers it itself. The elle CLI turns it into exit
// status 4, and elled into a failed job (500 internal).
func Check(h *History, opts CheckOpts) *CheckResult { return core.Check(h, opts) }

// Streaming.
type (
	// Stream is an in-progress incremental check: feed the history in
	// index-ordered chunks, read provisional findings from each Delta,
	// and Finish for the definitive result — byte-identical to Check
	// over the concatenated chunks. See CheckStream.
	Stream = core.Stream
	// Delta is what one Stream.Feed returns: the anomalies the chunk
	// made provable (provisional — the final report confirms them) and
	// the running op count.
	Delta = workload.Delta
)

// CheckStream begins an incremental check: the streaming counterpart of
// Check, for histories that are still being produced — a live test run,
// a tailed log — or too large to hold before analyzing. Workloads
// registered with streaming hooks (list-append, rw-register, set-add)
// maintain their per-key inference state across feeds and surface
// anomalies as chunks prove them; every other workload is validated and
// buffered as it streams and reports everything at Finish.
//
// A checker panic inside Feed or Finish propagates to the caller, as
// it does from Check.
func CheckStream(opts CheckOpts) *Stream { return core.CheckStream(opts) }

// OptsFor returns the options the paper's methodology implies for
// checking workload w against claimed model m.
func OptsFor(w Workload, m Model) CheckOpts { return core.OptsFor(w, m) }

// The checking service.
type (
	// Service is the checker as a long-lived HTTP job service — the
	// engine behind cmd/elled. It implements http.Handler: jobs are
	// created, fed JSON-lines chunks, polled for provisional findings,
	// and asked for a final report that is byte-identical to a batch
	// Check (and to `elle`'s stdout) over the same history and options.
	// See docs/SERVICE.md for the endpoint reference.
	Service = service.Service
	// ServiceConfig bounds a Service: resident jobs, per-chunk body
	// bytes, the idle window after which untouched jobs are reaped, the
	// inference shard count, and the WAL directory and fsync policy.
	ServiceConfig = service.Config
	// ServiceError is the machine-readable error envelope every non-2xx
	// service response carries: {"error":{"code","message","retry_after_s"}}.
	ServiceError = service.ErrorEnvelope
)

// The service's stable error codes — the envelope's "code" field. See
// docs/SERVICE.md for the full table.
const (
	ServiceCodeBadRequest          = service.CodeBadRequest
	ServiceCodeUnknownWorkload     = service.CodeUnknownWorkload
	ServiceCodeUnknownModel        = service.CodeUnknownModel
	ServiceCodeInvalidMemoryBudget = service.CodeInvalidMemoryBudget
	ServiceCodeAtCapacity          = service.CodeAtCapacity
	ServiceCodeShardBusy           = service.CodeShardBusy
	ServiceCodeChunkTooLarge       = service.CodeChunkTooLarge
	ServiceCodeJobNotFound         = service.CodeJobNotFound
	ServiceCodeJobDone             = service.CodeJobDone
	ServiceCodeJobFailed           = service.CodeJobFailed
	ServiceCodeFormatMismatch      = service.CodeFormatMismatch
	ServiceCodeChunkRejected       = service.CodeChunkRejected
	ServiceCodeBadCursor           = service.CodeBadCursor
	ServiceCodeWALWrite            = service.CodeWALWrite
	ServiceCodeInternal            = service.CodeInternal
)

// NewService builds the HTTP checking service under cfg, replays any
// WAL journals in cfg.WALDir, and starts its idle reaper and inference
// shards; mount it on any http.Server and Close it when done. The zero
// ServiceConfig means 8 resident jobs, 8 MiB chunks, 10 minute idle
// reaping, one shard per CPU, and no WAL. It errors only on an unusable
// WAL configuration.
func NewService(cfg ServiceConfig) (*Service, error) { return service.New(cfg) }

// Workload generation and the in-memory engine.
type (
	// GenConfig parameterizes random transaction generation.
	GenConfig = gen.Config
	// Gen produces transaction bodies with unique write arguments.
	Gen = gen.Gen
	// DB is the in-memory MVCC engine used as the system under test.
	DB = memdb.DB
	// DBTxn is one interactive transaction against a DB.
	DBTxn = memdb.Txn
	// Isolation selects the engine's concurrency control.
	Isolation = memdb.Isolation
	// Faults configures the engine's bug injection.
	Faults = memdb.Faults
	// RunConfig drives a simulated multi-client run.
	RunConfig = memdb.RunConfig
)

// NewGen builds a generator; NewDB an engine; Run a seeded multi-client
// simulation returning the observed history.
var (
	NewGen = gen.New
	NewDB  = memdb.New
	Run    = memdb.Run
)

// Engine isolation levels.
const (
	EngineReadUncommitted    = memdb.ReadUncommitted
	EngineReadCommitted      = memdb.ReadCommitted
	EngineSnapshotIsolation  = memdb.SnapshotIsolation
	EngineSerializable       = memdb.Serializable
	EngineStrictSerializable = memdb.StrictSerializable
)

// SerialCheckResult is the baseline checker's outcome.
type SerialCheckResult = serialcheck.Result

// CheckSerializable runs the Knossos-style search baseline with the
// given time budget (zero = unbounded).
func CheckSerializable(h *History, timeout time.Duration) *SerialCheckResult {
	return serialcheck.Check(h, serialcheck.Opts{Timeout: timeout})
}

// DecodeHistory reads a JSON-lines history; register selects register
// read decoding. EncodeHistory writes one.
//
// A decoded list read (Mop.List) is read-only: it may share memory with
// other reads of the same key, so writing into it changes those reads
// too. Copy a list (slices.Clone) before sorting or otherwise changing
// it. The same holds for DecodeHistoryWith and DecodeHistoryBinary.
func DecodeHistory(r io.Reader, register bool) (*History, error) {
	return jsonhist.Decode(r, register)
}

// DecodeHistoryOpts configures DecodeHistoryWith: register read decoding
// and the parse worker count.
type DecodeHistoryOpts = jsonhist.DecodeOpts

// DecodeHistoryWith reads a JSON-lines history, streaming the input in
// chunks and parsing them across opts.Parallelism workers (<= 0 meaning
// one per CPU); the result is identical to DecodeHistory's. Its lists
// are read-only, as DecodeHistory's are.
func DecodeHistoryWith(r io.Reader, opts DecodeHistoryOpts) (*History, error) {
	return jsonhist.DecodeWith(r, opts)
}

// EncodeHistory writes h as JSON lines.
func EncodeHistory(w io.Writer, h *History) error { return jsonhist.Encode(w, h) }

// DecodeHistoryBinary reads an ellebin history — the compact binary
// format (docs/FORMATS.md); no register flag is needed, the format
// records each read's kind explicitly. EncodeHistoryBinary writes one.
// Decode errors from a structurally broken stream — a truncated file, a
// bad length prefix — wrap ErrBinaryFraming. Its lists are read-only,
// as DecodeHistory's are.
func DecodeHistoryBinary(r io.Reader) (*History, error) { return binhist.Decode(r) }

// EncodeHistoryBinary writes h as an ellebin stream.
func EncodeHistoryBinary(w io.Writer, h *History) error { return binhist.Encode(w, h) }

// ErrBinaryFraming tags every ellebin record-structure violation; test
// with errors.Is to distinguish a truncated or corrupt stream from
// ordinary I/O errors.
var ErrBinaryFraming = binhist.ErrFraming
