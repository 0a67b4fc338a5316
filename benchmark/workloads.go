package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/history"
	"repro/internal/jsonhist"
	"repro/internal/memdb"
)

// chunkLines is the upload size of the service-stream clients: 1000
// history lines per POST, the shape CI's service-smoke and ellebench's
// check-service-shard case feed.
const chunkLines = 1000

// expect is a workload's hand-written known answer. It holds for every
// seed: it is derived from what the engine and fault campaign guarantee,
// never from a previous run of the checker.
type expect struct {
	Valid bool
	// MustHave lists anomaly types the report must contain.
	MustHave []string
	// AnyPrefix, when set, requires at least one anomaly type starting
	// with one of these prefixes.
	AnyPrefix []string
	// MustNotHave lists anomaly types the report must not contain.
	MustNotHave []string
}

// workloadDef is one benchmark workload: how its input is generated,
// how the program under test is driven, and what the verdict must be.
type workloadDef struct {
	Name string
	// Why records why the workload was chosen (README and BENCHMARK.json).
	Why string
	// Service selects the elled streaming path; otherwise the workload is
	// one `elle -json` batch run per iteration.
	Service bool
	// Txns is the transaction count per history (per job for service).
	Txns, QuickTxns int
	Gen             gen.Config
	Clients         int
	Isolation       memdb.Isolation
	Faults          memdb.Faults
	InfoProb        float64
	DB              memdb.Workload
	// Analyzer is the registered checker workload; ElleArgs the flags
	// `elle` gets before the file name.
	Analyzer core.Workload
	ElleArgs []string
	Expect   expect
}

// clean is the verdict of every history that comes from the
// strict-serializable engine with no faults injected.
var clean = expect{Valid: true}

// figure4 is the paper's §7.5 generator setting, the one
// perf.GenerateHistory uses.
var figure4 = gen.Config{ActiveKeys: 100, MaxWritesPerKey: 100, MinOps: 1, MaxOps: 5}

// workloads returns the benchmark's four workloads. Later issues refer
// to them by these names. The sizes make one iteration about a second of
// one core, so a 28 s run takes some twenty-five samples: a metric that is
// the best sample of a run needs many to find an undisturbed one, and on a
// shared host a quiet second is far likelier than a quiet three.
func workloads() []*workloadDef {
	return []*workloadDef{
		{
			Name: "list-batch",
			Why:  "clean list-append at the paper's Figure-4 shape; inference-bound, where decode, interning, per-key inference and order graphs show",
			Txns: 50000, QuickTxns: 2000,
			Gen: figure4, Clients: 20, Isolation: memdb.StrictSerializable, InfoProb: 0.02,
			DB: memdb.WorkloadList, Analyzer: core.ListAppend,
			ElleArgs: []string{"-json"},
			Expect:   clean,
		},
		{
			Name: "register-batch",
			Why:  "clean rw-register; the same core/graph/history layers driven by the other analyzer, so a list-append or decode change must leave it flat",
			Txns: 15000, QuickTxns: 2000,
			Gen:     gen.Config{Workload: gen.Register, ActiveKeys: 100, MaxWritesPerKey: 100},
			Clients: 20, Isolation: memdb.StrictSerializable,
			DB: memdb.WorkloadRegister, Analyzer: core.Register,
			ElleArgs: []string{"-json", "-workload", "rw-register"},
			Expect:   clean,
		},
		{
			Name: "list-faulted",
			Why:  "list-append under the TiDB retry campaign; about one anomaly per txn, so cycle search, explain and report rendering dominate instead of inference",
			Txns: 20000, QuickTxns: 2000,
			Gen:     gen.Config{ActiveKeys: 10, MaxWritesPerKey: 50},
			Clients: 20, Isolation: memdb.SnapshotIsolation,
			Faults: memdb.Faults{RetryStompProb: 0.4, RetryRebaseProb: 1},
			DB:     memdb.WorkloadList, Analyzer: core.ListAppend,
			ElleArgs: []string{"-json"},
			Expect: expect{
				Valid:       false,
				MustHave:    []string{"lost-update"},
				AnyPrefix:   []string{"G-single", "G2-item"},
				MustNotHave: []string{"G0", "G1a"},
			},
		},
		{
			Name: "service-stream", Service: true,
			Why:  "the durable streaming path: elled with a synced WAL fed 1000-line chunks by closed-loop clients; exercises service, wal, chunk decode and the incremental session, which the batch workloads bypass",
			Txns: 25000, QuickTxns: 2000,
			Gen: figure4, Clients: 20, Isolation: memdb.StrictSerializable, InfoProb: 0.02,
			DB: memdb.WorkloadList, Analyzer: core.ListAppend,
			ElleArgs: []string{"-json"},
			Expect:   clean,
		},
	}
}

// job is one generated history: a batch workload has one, service-stream
// has one per client.
type job struct {
	Seed   int64
	Path   string   // the JSON-lines file the programs under test read
	Raw    []byte   // the file's bytes
	Chunks [][]byte // Raw split into chunkLines-line uploads (service only)
	Lines  int      // history ops: invoke + completion lines
	// FirstKey is the first keyed micro-op's key: elled pins a job's
	// home shard to FNV-1a(FirstKey) mod shards.
	FirstKey string
}

// input is everything one workload's runs read.
type input struct {
	Jobs []*job
	Txns int // per job
}

func (in *input) lines() (n int) {
	for _, j := range in.Jobs {
		n += j.Lines
	}
	return n
}

func (in *input) bytes() (n int) {
	for _, j := range in.Jobs {
		n += len(j.Raw)
	}
	return n
}

func (in *input) chunks() (n int) {
	for _, j := range in.Jobs {
		n += len(j.Chunks)
	}
	return n
}

// shardFor is the service's documented job placement: FNV-1a of the
// job's first key, modulo the shard count.
func shardFor(key string, shards int) int {
	h := fnv.New32a()
	h.Write([]byte(key))
	return int(h.Sum32()) % shards
}

// shardsUsed is how many distinct home shards the jobs hash to.
func (in *input) shardsUsed(shards int) int {
	used := map[int]bool{}
	for _, j := range in.Jobs {
		used[shardFor(j.FirstKey, shards)] = true
	}
	return len(used)
}

// generate runs the in-memory engine for one history of w.
func (w *workloadDef) generate(txns int, seed int64) *history.History {
	return memdb.Run(memdb.RunConfig{
		Clients: w.Clients, Txns: txns, Isolation: w.Isolation, Faults: w.Faults,
		Source: gen.New(w.Gen, seed), Seed: seed, Workload: w.DB, InfoProb: w.InfoProb,
	})
}

// prepare generates, encodes and writes w's input under dir, returning
// how long generation and encoding took. Service job k takes the first
// unused seed from seed on whose history lands on shard k: with seeds
// taken blindly, whether two jobs share a shard — and so how parallel
// the whole run is — would depend on -seed. A one-transaction run of the
// generator is enough to learn a seed's first key.
func (w *workloadDef) prepare(dir string, seed int64, quick bool, procs int) (in *input, genTime, encTime time.Duration, err error) {
	txns, jobs := w.Txns, 1
	if quick {
		txns = w.QuickTxns
	}
	if w.Service {
		jobs = procs
	}
	in = &input{Txns: txns}
	for i := 0; i < jobs; i++ {
		t := time.Now()
		for w.Service && shardFor(firstKey(w.generate(1, seed)), procs) != i {
			seed++
		}
		j := &job{Seed: seed, Path: filepath.Join(dir, fmt.Sprintf("%s-%d.jsonl", w.Name, i))}
		seed++
		h := w.generate(txns, j.Seed)
		genTime += time.Since(t)

		t = time.Now()
		var buf bytes.Buffer
		if err := jsonhist.Encode(&buf, h); err != nil {
			return nil, 0, 0, fmt.Errorf("%s: encode: %w", w.Name, err)
		}
		encTime += time.Since(t)

		j.Raw, j.Lines = buf.Bytes(), h.Len()
		j.FirstKey = firstKey(h)
		if w.Service {
			j.Chunks = splitLines(j.Raw, chunkLines)
		}
		if err := os.WriteFile(j.Path, j.Raw, 0o644); err != nil {
			return nil, 0, 0, err
		}
		in.Jobs = append(in.Jobs, j)
	}
	return in, genTime, encTime, nil
}

// firstKey mirrors the service's shard pinning: the first keyed micro-op.
func firstKey(h *history.History) string {
	for _, o := range h.Ops {
		for _, m := range o.Mops {
			if m.Key != "" {
				return m.Key
			}
		}
	}
	return ""
}

// splitLines cuts raw into consecutive pieces of n whole lines.
func splitLines(raw []byte, n int) [][]byte {
	var out [][]byte
	for len(raw) > 0 {
		end, lines := 0, 0
		for lines < n && end < len(raw) {
			i := bytes.IndexByte(raw[end:], '\n')
			if i < 0 {
				end = len(raw)
			} else {
				end += i + 1
			}
			lines++
		}
		out = append(out, raw[:end])
		raw = raw[end:]
	}
	return out
}

// exitCode is elle's documented status for the verdict: 0 consistent, 1
// anomalies found.
func (e expect) exitCode() int {
	if e.Valid {
		return 0
	}
	return 1
}

// check compares a report's verdict against the known answer.
func (e expect) check(valid bool, types map[string]bool) error {
	if valid != e.Valid {
		return fmt.Errorf("verdict valid=%t, want %t", valid, e.Valid)
	}
	if e.Valid && len(types) > 0 {
		return fmt.Errorf("clean history reported anomalies: %s", joinKeys(types))
	}
	for _, t := range e.MustHave {
		if !types[t] {
			return fmt.Errorf("anomaly type %s missing (found: %s)", t, joinKeys(types))
		}
	}
	for _, t := range e.MustNotHave {
		if types[t] {
			return fmt.Errorf("anomaly type %s must not appear", t)
		}
	}
	if len(e.AnyPrefix) > 0 {
		ok := false
		for t := range types {
			for _, p := range e.AnyPrefix {
				ok = ok || strings.HasPrefix(t, p)
			}
		}
		if !ok {
			return fmt.Errorf("no anomaly type with prefix %v (found: %s)", e.AnyPrefix, joinKeys(types))
		}
	}
	return nil
}
