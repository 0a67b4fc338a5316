// Package bench defines the checker's stable benchmark suite and the
// machine-readable result format consumed by the CI perf-regression
// gate (see cmd/ellebench and docs/BENCHMARKS.md).
//
// The cases cover the hot path end to end at p=1 — batch check,
// streaming check, register and bank inference, a faulted check with
// its report, JSON-lines decode — so a regression in allocation
// behavior or single-core throughput anywhere in the pipeline moves at
// least one number. Parallel speedup
// is deliberately not gated: it depends on the runner's core count,
// where ns/op at p=1 and allocs/op at any p are stable properties of
// the code.
package bench

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http/httptest"
	"sync"
	"testing"

	"repro/internal/binhist"
	"repro/internal/consistency"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/history"
	"repro/internal/jsonhist"
	"repro/internal/memdb"
	"repro/internal/perf"
	"repro/internal/report"
	"repro/internal/service"
	"repro/internal/workload"
)

// Case is one named benchmark the harness can run.
type Case struct {
	// Name identifies the case in BENCH_*.json; it is stable across
	// releases so baselines stay comparable.
	Name string
	// F is the benchmark body, in testing.Benchmark form.
	F func(b *testing.B)
	// AllocsUngated, when set, says why the case's allocs/op do not
	// repeat from run to run; Compare then gates it on ns/op alone.
	AllocsUngated string
}

// Histories are generated once per process, not once per testing.B
// calibration round.
var (
	listHistory = sync.OnceValue(func() *history.History {
		return perf.GenerateHistory(100000, 20, 1)
	})
	listEncoded = sync.OnceValue(func() []byte {
		var buf bytes.Buffer
		if err := jsonhist.Encode(&buf, listHistory()); err != nil {
			panic(err)
		}
		return buf.Bytes()
	})
	listBinEncoded = sync.OnceValue(func() []byte {
		var buf bytes.Buffer
		if err := binhist.Encode(&buf, listHistory()); err != nil {
			panic(err)
		}
		return buf.Bytes()
	})
	registerHistory = sync.OnceValue(func() *history.History {
		g := gen.New(gen.Config{Workload: gen.Register, ActiveKeys: 100, MaxWritesPerKey: 100}, 1)
		return memdb.Run(memdb.RunConfig{
			Clients: 20, Txns: 50000, Isolation: memdb.StrictSerializable,
			Source: g, Seed: 1, Workload: memdb.WorkloadRegister,
		})
	})
	// listChunks is listEncoded pre-split into 1000-line uploads, the
	// shape the service benchmark feeds.
	listChunks = sync.OnceValue(func() [][]byte {
		lines := bytes.SplitAfter(bytes.TrimSuffix(listEncoded(), []byte("\n")), []byte("\n"))
		var chunks [][]byte
		for i := 0; i < len(lines); i += 1000 {
			end := min(i+1000, len(lines))
			chunks = append(chunks, bytes.Join(lines[i:end], nil))
		}
		return chunks
	})
	// faultedListHistory plants retry-stomp and stale-read faults so the
	// analysis carries findings and cycles for the faulted checks, batch
	// and streaming, and the query benchmark.
	faultedListHistory = sync.OnceValue(func() *history.History {
		g := gen.New(gen.Config{ActiveKeys: 10, MaxWritesPerKey: 50}, 1)
		return memdb.Run(memdb.RunConfig{
			Clients: 20, Txns: 20000, Isolation: memdb.SnapshotIsolation,
			Faults: memdb.Faults{RetryStompProb: 0.5, StaleReadProb: 0.3},
			Source: g, Seed: 1, Workload: memdb.WorkloadList,
		})
	})
	bankHistory = sync.OnceValue(func() *history.History {
		info, ok := workload.Lookup(string(workload.Bank))
		if !ok {
			panic("bench: bank workload not registered")
		}
		g := gen.New(gen.Config{Workload: info.Gen, ActiveKeys: 10}, 1)
		return memdb.Run(memdb.RunConfig{
			Clients: 20, Txns: 20000, Isolation: memdb.StrictSerializable,
			Source: g, Seed: 1, Workload: info.DB,
		})
	})
)

func checkOpts(w core.Workload) core.Opts {
	opts := core.OptsFor(w, consistency.StrictSerializable)
	opts.Parallelism = 1
	return opts
}

// Cases returns the benchmark suite in its canonical order.
func Cases() []Case {
	return []Case{
		{Name: "check-parallel/n=100000/p=1", F: func(b *testing.B) {
			h := listHistory()
			opts := checkOpts(core.ListAppend)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r := core.Check(h, opts)
				if !r.Valid {
					b.Fatalf("clean history invalid: %v", r.AnomalyTypes())
				}
			}
		}},
		{Name: "check-stream/n=100000/p=1", F: func(b *testing.B) {
			h := listHistory()
			opts := checkOpts(core.ListAppend)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				st := core.CheckStream(opts)
				ops := h.Ops
				for len(ops) > 0 {
					n := 1000
					if n > len(ops) {
						n = len(ops)
					}
					if _, err := st.Feed(ops[:n]); err != nil {
						b.Fatal(err)
					}
					ops = ops[n:]
				}
				r, err := st.Finish()
				if err != nil {
					b.Fatal(err)
				}
				if !r.Valid {
					b.Fatalf("clean history invalid: %v", r.AnomalyTypes())
				}
			}
		}},
		{Name: "check-stream-bounded/n=100000/w=4096/p=1", F: func(b *testing.B) {
			// The streaming check under a memory budget: settled prefixes
			// retire to encoded segments as the stream is fed, and Finish
			// rehydrates them. Gates the whole retire/rehydrate cycle —
			// encode, sweep, drop, decode — on top of the plain
			// streaming cost.
			h := listHistory()
			opts := checkOpts(core.ListAppend)
			opts.MemoryBudget = 4096
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				st := core.CheckStream(opts)
				ops := h.Ops
				for len(ops) > 0 {
					n := 1000
					if n > len(ops) {
						n = len(ops)
					}
					if _, err := st.Feed(ops[:n]); err != nil {
						b.Fatal(err)
					}
					ops = ops[n:]
				}
				r, err := st.Finish()
				if err != nil {
					b.Fatal(err)
				}
				if !r.Valid {
					b.Fatalf("clean history invalid: %v", r.AnomalyTypes())
				}
			}
		}},
		{Name: "check-stream-faulted/n=20000/p=1", F: func(b *testing.B) {
			// The streaming check where its graph half works: on a faulted
			// history edges arrive against the seeded order, so restore
			// runs and scans re-search dirty components, explaining each
			// new cycle — none of which a clean stream ever does.
			h := faultedListHistory()
			opts := checkOpts(core.ListAppend)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				st := core.CheckStream(opts)
				for ops := h.Ops; len(ops) > 0; {
					n := min(1000, len(ops))
					if _, err := st.Feed(ops[:n]); err != nil {
						b.Fatal(err)
					}
					ops = ops[n:]
				}
				r, err := st.Finish()
				if err != nil {
					b.Fatal(err)
				}
				if r.Valid {
					b.Fatal("faulted history checked valid")
				}
			}
		}},
		{Name: "check-register/n=50000/p=1", F: func(b *testing.B) {
			h := registerHistory()
			opts := checkOpts(core.Register)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				core.Check(h, opts)
			}
		}},
		{Name: "check-bank/n=20000/p=1", F: func(b *testing.B) {
			h := bankHistory()
			opts := checkOpts(core.Bank)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r := core.Check(h, opts)
				if !r.Valid {
					b.Fatalf("clean bank history invalid: %v", r.AnomalyTypes())
				}
			}
		}},
		{Name: "check-service-shard/n=100000/s=4/p=1", F: func(b *testing.B) {
			// The full elled request path in-process: create a job, feed
			// the history as 1000-line chunk uploads through the sharded
			// inference pool, fetch the report, delete. Gates the service
			// overhead on top of the raw streaming check — routing, chunk
			// draining, shard dispatch, decode, feed.
			chunks := listChunks()
			svc, err := service.New(service.Config{Shards: 4, MaxJobs: 2})
			if err != nil {
				b.Fatal(err)
			}
			defer svc.Close()
			b.SetBytes(int64(len(listEncoded())))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rec := httptest.NewRecorder()
				svc.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/jobs",
					bytes.NewReader([]byte(`{"parallelism":1}`))))
				if rec.Code != 201 {
					b.Fatalf("create: %d: %s", rec.Code, rec.Body)
				}
				var job struct {
					ID string `json:"id"`
				}
				if err := json.Unmarshal(rec.Body.Bytes(), &job); err != nil {
					b.Fatal(err)
				}
				for _, chunk := range chunks {
					rec = httptest.NewRecorder()
					svc.ServeHTTP(rec, httptest.NewRequest("POST",
						"/v1/jobs/"+job.ID+"/chunks", bytes.NewReader(chunk)))
					if rec.Code != 200 {
						b.Fatalf("chunk: %d: %s", rec.Code, rec.Body)
					}
				}
				rec = httptest.NewRecorder()
				svc.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/jobs/"+job.ID+"/report", nil))
				if rec.Code != 200 || rec.Header().Get("X-Elle-Valid") != "true" {
					b.Fatalf("report: %d valid=%q", rec.Code, rec.Header().Get("X-Elle-Valid"))
				}
				rec = httptest.NewRecorder()
				svc.ServeHTTP(rec, httptest.NewRequest("DELETE", "/v1/jobs/"+job.ID, nil))
				if rec.Code != 204 {
					b.Fatalf("delete: %d", rec.Code)
				}
			}
		}},
		{Name: "check-faulted/n=20000/p=1", F: func(b *testing.B) {
			// The anomaly-heavy path: a faulted check carrying thousands
			// of findings and hundreds of cycles, then the JSON report
			// rendered from it. Gates cycle search, explanation and report
			// writing, which a clean history barely exercises.
			h := faultedListHistory()
			opts := checkOpts(core.ListAppend)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res := core.Check(h, opts)
				if res.Valid {
					b.Fatal("faulted history checked valid")
				}
				if err := report.New(h, core.ListAppend, res).Write(io.Discard); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{Name: "query-cycles/n=20000/p=1", F: func(b *testing.B) {
			// The relational layer end to end: derive the catalog from a
			// faulted analysis and evaluate the docs/QUERY.md join of
			// cycle participants against their outgoing anti-dependency
			// edges — a full dep scan plus the σ/⋈/sort pipeline. Gates
			// the query engine's throughput and allocation behavior.
			h := faultedListHistory()
			res := core.Check(h, checkOpts(core.ListAppend))
			const q = `(cycle ?c _ ?t _) (dep ?t ?u rw)`
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r, err := res.Query(h, q)
				if err != nil {
					b.Fatal(err)
				}
				if len(r.Rows) == 0 {
					b.Fatal("faulted history yielded no cycle rows")
				}
			}
		}},
		{Name: "decode/n=100000/p=1", AllocsUngated: decodeAllocsVary, F: func(b *testing.B) {
			raw := listEncoded()
			b.SetBytes(int64(len(raw)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := jsonhist.DecodeWith(bytes.NewReader(raw),
					jsonhist.DecodeOpts{Parallelism: 1}); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{Name: "decode-binary/n=100000", F: func(b *testing.B) {
			raw := listBinEncoded()
			b.SetBytes(int64(len(raw)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := binhist.Decode(bytes.NewReader(raw)); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{Name: "tarjan/n=100000", F: func(b *testing.B) {
			res := core.Check(listHistory(), checkOpts(core.ListAppend))
			g := res.Graph
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g.SCCs(graph.KSDep | graph.KSOrders)
			}
		}},
	}
}

// decodeAllocsVary is why decode's allocs/op stay out of the gate.
const decodeAllocsVary = "the decoder recycles chunk buffers, parsers and their key caches " +
	"through a sync.Pool, which a GC empties and which keeps one item per P; " +
	"how many chunks a round finds cold depends on GC timing and scheduling, " +
	"so the count varies between rounds of one build by more than the gate's threshold"

// Find returns the named case.
func Find(name string) (Case, bool) {
	for _, c := range Cases() {
		if c.Name == name {
			return c, true
		}
	}
	return Case{}, false
}
