package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http/httptest"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/anomaly"
	"repro/internal/binhist"
	"repro/internal/consistency"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/history"
	"repro/internal/jsonhist"
	"repro/internal/op"
	"repro/internal/report"
	"repro/internal/service"
	"repro/internal/txngraph"
	"repro/internal/wal"
	"repro/internal/workload"
)

// relQuery is the docs/QUERY.md join ellebench's query-cycles case
// evaluates: cycle participants against their outgoing anti-dependencies.
const relQuery = `(cycle ?c _ ?t _) (dep ?t ?u rw)`

// layerSample is one traced iteration's per-layer values, by metric name.
type layerSample map[string]float64

// analyzerLayer names the layer an analyzer's spans are recorded under.
func analyzerLayer(w core.Workload) string {
	if w == core.Register {
		return "rwregister"
	}
	return "listappend"
}

func checkOpts(w *workloadDef, p int) core.Opts {
	opts := core.OptsFor(w.Analyzer, consistency.StrictSerializable)
	opts.Parallelism = p
	return opts
}

func decodeOpts(w *workloadDef, p int) jsonhist.DecodeOpts {
	info, _ := workload.Lookup(string(w.Analyzer))
	return jsonhist.DecodeOpts{Register: info.RegisterReads, Parallelism: p}
}

func renderReport(h *history.History, w *workloadDef, res *core.CheckResult) ([]byte, error) {
	var buf bytes.Buffer
	err := report.New(h, w.Analyzer, res).Write(&buf)
	return buf.Bytes(), err
}

// untracedBatch is what `elle -json` does in one process, with no spans:
// the baseline the traced replica's overhead and the p=procs speedup are
// measured against.
func untracedBatch(w *workloadDef, in *input, _ string, p int) (time.Duration, [][]byte, error) {
	t := time.Now()
	h, err := jsonhist.DecodeWith(bytes.NewReader(in.Jobs[0].Raw), decodeOpts(w, p))
	if err != nil {
		return 0, nil, err
	}
	rep, err := renderReport(h, w, core.Check(h, checkOpts(w, p)))
	return time.Since(t), [][]byte{rep}, err
}

// stagedBatch replays one batch history through the layers' public
// functions one stage at a time at Parallelism 1 — core.Check unrolled,
// between the decode loop and the report writer that cmd/elle puts
// around it — so stages never overlap and self times add up. It returns
// the report the replica rendered and the iteration's layer values.
func stagedBatch(r *recorder, w *workloadDef, in *input, _ string, _ int) ([][]byte, layerSample, error) {
	j := in.Jobs[0]
	from := len(r.spans)
	layer := analyzerLayer(w.Analyzer)
	info, _ := workload.Lookup(string(w.Analyzer))
	opts := checkOpts(w, 1)
	extra := graph.Process.Mask() | graph.Realtime.Mask()

	var (
		h        *history.History
		res      *core.CheckResult
		rep      []byte
		err      error
		decodeID []int
		analyze  int
		checkID  int
		explainN int
		ncycles  int
	)
	r.do("pipeline", false, func() {
		dec := jsonhist.NewStreamDecoder(bytes.NewReader(j.Raw), decodeOpts(w, 1))
		ops := make([]op.Op, 0, j.Lines)
		for {
			var chunk []op.Op
			id := r.do("jsonhist.decode", true, func() { chunk, err = dec.Next() })
			decodeID = append(decodeID, id)
			if errors.Is(err, io.EOF) {
				break
			}
			if err != nil {
				return
			}
			ops = append(ops, chunk...)
		}
		r.do("history.new", false, func() { h, err = history.New(ops) })
		if err != nil {
			return
		}

		checkID = r.do("core.check", true, func() {
			var proc, rt *graph.Graph
			r.do("txngraph.process", false, func() { proc = txngraph.ProcessGraph(h) })
			r.do("txngraph.realtime", false, func() { rt = txngraph.RealtimeGraph(h) })
			var an workload.Analysis
			analyze = r.do(layer+".analyze", true, func() { an = info.Analyzer.Analyze(h, opts.Opts) })
			r.count(analyze, "edges", an.Graph.NumEdges())

			g, anoms, expl := an.Graph, an.Anomalies, an.Explainer
			r.do("graph.merge", false, func() {
				g.Merge(proc)
				g.Merge(rt)
			})
			var cycles []graph.Cycle
			id := r.do("graph.cycles", false, func() { cycles = g.AnomalousCycles(extra, 1) })
			ncycles = len(cycles)
			r.count(id, "cycles", ncycles)
			for _, c := range cycles {
				id := r.do("explain.cycle", false, func() {
					anoms = append(anoms, anomaly.Anomaly{
						Type: anomaly.CycleType(c), Cycle: c, Explanation: expl.Cycle(c),
					})
				})
				n := len(anoms[len(anoms)-1].Explanation)
				r.count(id, "bytes", n)
				explainN += n
			}
			var types []anomaly.Type
			r.do("consistency.eval", false, func() {
				sort.SliceStable(anoms, func(i, j int) bool {
					if si, sj := anoms[i].Type.Severity(), anoms[j].Type.Severity(); si != sj {
						return si > sj
					}
					return anoms[i].Type < anoms[j].Type
				})
				types = make([]anomaly.Type, len(anoms))
				for i, a := range anoms {
					types[i] = a.Type
				}
				res = &core.CheckResult{
					Valid:     consistency.Holds(opts.Model, types),
					Expected:  opts.Model,
					Anomalies: anoms,
					Violated:  consistency.Violated(types),
					Strongest: consistency.Strongest(types),
					Graph:     g,
					Explainer: expl,
				}
			})
			var sccs int
			id = r.do("graph.scc", false, func() { sccs = len(g.SCCs(graph.KSDep | extra)) })
			r.count(id, "sccs", sccs)
			res.Stats = core.Stats{
				Ops: len(h.Completions()), Nodes: g.NumNodes(), Edges: g.NumEdges(),
				SCCs: sccs, ExtraKind: extra,
			}
		})
		id := r.do("report.json", false, func() { rep, err = renderReport(h, w, res) })
		r.count(id, "bytes", len(rep))
	})
	if err != nil {
		return nil, nil, fmt.Errorf("%s: staged replica: %w", w.Name, err)
	}

	m := layerSample{}
	self := r.selfTimes(from)
	root := r.spans[from]
	check := r.spans[checkID]
	lines := float64(j.Lines)

	var decodeAllocs uint64
	for _, id := range decodeID {
		decodeAllocs += r.spans[id].Allocs
	}
	m["core.pipeline_s"] = root.seconds()
	m["jsonhist.decode_s"] = self["jsonhist.decode"]
	m["jsonhist.decode_mb_per_s"] = float64(len(j.Raw)) / 1e6 / self["jsonhist.decode"]
	m["jsonhist.decode_allocs_per_op"] = float64(decodeAllocs) / lines
	m["history.new_s"] = self["history.new"]
	an := r.spans[analyze]
	m[layer+".analyze_s"] = an.seconds()
	m[layer+".analyze_ns_per_op"] = an.seconds() * 1e9 / lines
	m[layer+".analyze_allocs_per_op"] = float64(an.Allocs) / lines
	m[layer+".edges"] = float64(an.Counts["edges"])
	m["txngraph.process_s"] = self["txngraph.process"]
	m["txngraph.realtime_s"] = self["txngraph.realtime"]
	m["graph.merge_s"] = self["graph.merge"]
	m["graph.scc_s"] = self["graph.scc"]
	m["graph.cycles_s"] = self["graph.cycles"]
	m["graph.nodes"] = float64(res.Stats.Nodes)
	m["graph.edges"] = float64(res.Stats.Edges)
	m["graph.sccs"] = float64(res.Stats.SCCs)
	m["graph.cycles"] = float64(ncycles)
	m["explain.cycle_s"] = self["explain.cycle"]
	m["explain.bytes"] = float64(explainN)
	m["consistency.eval_s"] = self["consistency.eval"]
	m["report.json_s"] = self["report.json"]
	m["report.bytes"] = float64(len(rep))
	m["core.check_s"] = check.seconds()
	m["core.check_allocs_per_op"] = float64(check.Allocs) / lines
	m["core.check_bytes_per_op"] = float64(check.Bytes) / lines
	m["core.unattributed_share"] = (self["pipeline"] + self["core.check"]) / root.seconds()

	if err := leafQuery(r, m, res, h); err != nil {
		return nil, nil, err
	}
	if err := leafBinary(r, m, h); err != nil {
		return nil, nil, err
	}
	return [][]byte{rep}, m, nil
}

// leafQuery times the relational query surface over a finished check.
func leafQuery(r *recorder, m layerSample, res *core.CheckResult, h *history.History) error {
	var rows int
	var err error
	id := r.do("rel.query", false, func() {
		q, qerr := res.Query(h, relQuery)
		if err = qerr; err == nil {
			rows = len(q.Rows)
		}
	})
	if err != nil {
		return fmt.Errorf("rel query: %w", err)
	}
	r.count(id, "rows", rows)
	m["rel.query_s"] += r.spans[id].seconds()
	m["rel.rows"] += float64(rows)
	return nil
}

// leafBinary times the ellebin decoder on the same history. No workload
// ingests ellebin, so this moves no end-to-end metric.
func leafBinary(r *recorder, m layerSample, h *history.History) error {
	var buf bytes.Buffer
	if err := binhist.Encode(&buf, h); err != nil {
		return err
	}
	var err error
	id := r.do("binhist.decode", false, func() { _, err = binhist.Decode(bytes.NewReader(buf.Bytes())) })
	m["binhist.decode_s"] += r.spans[id].seconds()
	return err
}

// streamJob pushes one job's chunks through what elled does per job
// minus HTTP — journal, decode, feed, finish, render — at parallelism p.
// A nil recorder runs it bare (the untraced baseline). It returns the
// report, the decoded batches and the finished history.
func streamJob(r *recorder, w *workloadDef, j *job, dir string, p int, fsyncs *int) ([]byte, [][]op.Op, *history.History, string, error) {
	do := func(name string, mem bool, f func()) {
		if r == nil {
			f()
			return
		}
		r.do(name, mem, f)
	}
	var err error
	var jr *wal.Journal
	meta := wal.Meta{ID: fmt.Sprintf("bench-%d", j.Seed), Workload: string(w.Analyzer),
		Model: string(consistency.StrictSerializable), Parallelism: p}
	do("wal.append", false, func() {
		jr, err = wal.Create(dir, wal.Options{Mode: wal.SyncAlways, OnFsync: func(time.Duration) { *fsyncs++ }}, meta)
	})
	if err != nil {
		return nil, nil, nil, "", err
	}
	defer jr.Close()

	st := core.CheckStream(checkOpts(w, p))
	var batches [][]op.Op
	for _, chunk := range j.Chunks {
		do("wal.append", false, func() { err = jr.AppendChunk(wal.FormatJSON, chunk) })
		if err != nil {
			return nil, nil, nil, "", err
		}
		dec := jsonhist.NewStreamDecoder(bytes.NewReader(chunk), decodeOpts(w, p))
		for {
			var ops []op.Op
			do("jsonhist.chunk_decode", false, func() { ops, err = dec.Next() })
			if errors.Is(err, io.EOF) {
				break
			}
			if err != nil {
				return nil, nil, nil, "", err
			}
			batches = append(batches, ops)
			do("core.stream_feed", false, func() { _, err = st.Feed(ops) })
			if err != nil {
				return nil, nil, nil, "", err
			}
		}
	}
	var res *core.CheckResult
	do("core.stream_finish", false, func() { res, err = st.Finish() })
	if err != nil {
		return nil, nil, nil, "", err
	}
	var rep []byte
	do("report.json", false, func() { rep, err = renderReport(st.History(), w, res) })
	return rep, batches, st.History(), jr.Path(), err
}

// untracedStream runs every job of in through streamJob bare.
func untracedStream(w *workloadDef, in *input, dir string, p int) (time.Duration, [][]byte, error) {
	var reps [][]byte
	var fsyncs int
	t := time.Now()
	for _, j := range in.Jobs {
		rep, _, _, _, err := streamJob(nil, w, j, dir, p, &fsyncs)
		if err != nil {
			return 0, nil, err
		}
		reps = append(reps, rep)
	}
	return time.Since(t), reps, nil
}

// stagedStream replays every service-stream job through the stream-side
// layers at Parallelism 1 under a "pipeline" root span, then measures the
// leaves on the same job: WAL replay, history.Stream ingest, the batch
// core.Check the stream cost is compared against, the query surface, and
// the whole job once through the in-process HTTP handler. Values are
// summed over the jobs of the iteration. It returns each job's streamed
// report, and fails if the batch check renders anything different.
func stagedStream(r *recorder, w *workloadDef, in *input, dir string, procs int) ([][]byte, layerSample, error) {
	m := layerSample{}
	var reps [][]byte
	var fsyncs, walBytes int
	var pipeline, unattributed float64
	for _, j := range in.Jobs {
		from := len(r.spans)
		var rep []byte
		var batches [][]op.Op
		var h *history.History
		var path string
		var err error
		r.do("pipeline", false, func() { rep, batches, h, path, err = streamJob(r, w, j, dir, 1, &fsyncs) })
		if err != nil {
			return nil, nil, fmt.Errorf("%s: staged stream replica: %w", w.Name, err)
		}
		reps = append(reps, rep)
		self := r.selfTimes(from)
		pipeline += r.spans[from].seconds()
		unattributed += self["pipeline"]
		m["wal.append_s"] += self["wal.append"]
		m["jsonhist.chunk_decode_s"] += self["jsonhist.chunk_decode"]
		m["core.stream_feed_s"] += self["core.stream_feed"]
		m["core.stream_finish_s"] += self["core.stream_finish"]
		m["report.json_s"] += self["report.json"]
		m["report.bytes"] += float64(len(rep))

		var replayed *wal.Replayed
		id := r.do("wal.replay", false, func() { replayed, err = wal.ReadFile(path) })
		if err != nil {
			return nil, nil, err
		}
		if len(replayed.Chunks) != len(j.Chunks) {
			return nil, nil, fmt.Errorf("%s: wal replay returned %d chunks, appended %d", w.Name, len(replayed.Chunks), len(j.Chunks))
		}
		for _, c := range replayed.Chunks {
			walBytes += len(c.Body)
		}
		m["wal.replay_s"] += r.spans[id].seconds()

		id = r.do("history.stream_add", false, func() {
			hs := history.NewStream()
			for _, ops := range batches {
				if err = hs.AddAll(ops); err != nil {
					return
				}
			}
		})
		if err != nil {
			return nil, nil, err
		}
		m["history.stream_add_s"] += r.spans[id].seconds()

		var res *core.CheckResult
		id = r.do("core.check", true, func() { res = core.Check(h, checkOpts(w, 1)) })
		check := r.spans[id]
		m["core.check_s"] += check.seconds()
		m["core.check_allocs_per_op"] += float64(check.Allocs)
		m["core.check_bytes_per_op"] += float64(check.Bytes)
		m["graph.nodes"] += float64(res.Stats.Nodes)
		m["graph.edges"] += float64(res.Stats.Edges)
		m["graph.sccs"] += float64(res.Stats.SCCs)
		batchRep, err := renderReport(h, w, res)
		if err != nil {
			return nil, nil, err
		}
		if !bytes.Equal(batchRep, rep) {
			return nil, nil, fmt.Errorf("%s: streamed report differs from core.Check's on the same history", w.Name)
		}
		if err := leafQuery(r, m, res, h); err != nil {
			return nil, nil, err
		}
		if err := leafBinary(r, m, h); err != nil {
			return nil, nil, err
		}
	}
	handler, err := handlerJobs(r, w, in, dir, procs)
	if err != nil {
		return nil, nil, err
	}

	lines := float64(in.lines())
	m["core.pipeline_s"] = pipeline
	m["core.unattributed_share"] = unattributed / pipeline
	m["core.check_allocs_per_op"] /= lines
	m["core.check_bytes_per_op"] /= lines
	m["core.stream_over_batch"] = (m["core.stream_feed_s"] + m["core.stream_finish_s"]) / m["core.check_s"]
	m["wal.append_mb_per_s"] = float64(walBytes) / 1e6 / m["wal.append_s"]
	m["wal.fsyncs"] = float64(fsyncs)
	m["service.handler_s"] = handler
	m["service.overhead_share"] = (handler - m["wal.append_s"] - m["jsonhist.chunk_decode_s"] -
		m["core.stream_feed_s"] - m["core.stream_finish_s"] - m["report.json_s"]) / handler
	return reps, m, nil
}

// handlerJobs drives every job once through an in-process service with
// the child's WAL settings — create, chunks, JSON report, delete — and
// returns the seconds spent inside ServeHTTP.
func handlerJobs(r *recorder, w *workloadDef, in *input, dir string, procs int) (float64, error) {
	// Its own journal directory: New replays whatever journals it finds.
	svc, err := service.New(service.Config{Shards: procs, WALDir: filepath.Join(dir, "handler"), WALSync: "always"})
	if err != nil {
		return 0, err
	}
	defer svc.Close()
	var total float64
	for _, j := range in.Jobs {
		id := r.do("service.handler", false, func() { err = handlerJob(svc, w, j) })
		if err != nil {
			return 0, fmt.Errorf("%s: in-process handler: %w", w.Name, err)
		}
		total += r.spans[id].seconds()
	}
	return total, nil
}

func handlerJob(svc *service.Service, w *workloadDef, j *job) error {
	call := func(method, path string, body []byte, want int) (*httptest.ResponseRecorder, error) {
		rec := httptest.NewRecorder()
		svc.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
		if rec.Code != want {
			return nil, fmt.Errorf("%s %s: HTTP %d: %s", method, path, rec.Code, rec.Body)
		}
		return rec, nil
	}
	create, _ := json.Marshal(map[string]any{"workload": string(w.Analyzer), "parallelism": 1})
	rec, err := call("POST", "/v1/jobs", create, 201)
	if err != nil {
		return err
	}
	var made struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &made); err != nil {
		return err
	}
	for _, chunk := range j.Chunks {
		if _, err := call("POST", "/v1/jobs/"+made.ID+"/chunks", chunk, 200); err != nil {
			return err
		}
	}
	if _, err := call("GET", "/v1/jobs/"+made.ID+"/report?format=json", nil, 200); err != nil {
		return err
	}
	_, err = call("DELETE", "/v1/jobs/"+made.ID, nil, 204)
	return err
}
