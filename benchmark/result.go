package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// result is one invocation's output, written as result.json: the run's
// metadata and, per workload, its input, its checks and every metric's
// value, median, quartiles, extremes and sample count.
type result struct {
	Schema    string  `json:"schema"`
	Started   string  `json:"started"`
	Seed      int64   `json:"seed"`
	NProc     int     `json:"nproc"`
	Procs     int     `json:"procs"`
	Par       int     `json:"par"`
	GoVersion string  `json:"go_version"`
	Commit    string  `json:"commit"`
	Seconds   float64 `json:"seconds"`
	Quick     bool    `json:"quick"`
	// Comparable is false for quick runs: same code paths, but numbers
	// that must not be compared with full-scale ones.
	Comparable bool             `json:"comparable"`
	Trace      string           `json:"trace"`
	Workloads  []workloadResult `json:"workloads"`
}

type inputInfo struct {
	Jobs   int `json:"jobs"`
	Txns   int `json:"txns"`
	Ops    int `json:"ops"`
	Bytes  int `json:"bytes"`
	Chunks int `json:"chunks"`
}

type workloadResult struct {
	Name         string          `json:"name"`
	Input        inputInfo       `json:"input"`
	ReportBytes  int             `json:"report_bytes"`
	ReportSHA256 string          `json:"report_sha256"`
	Attempted    int             `json:"attempted"`
	Failed       int             `json:"failed"`
	Failures     []string        `json:"failures,omitempty"`
	EndToEnd     map[string]stat `json:"end_to_end"`
	PerLayer     map[string]stat `json:"per_layer"`
}

func (r *result) correct() bool {
	for _, w := range r.Workloads {
		if w.Failed > 0 {
			return false
		}
	}
	return true
}

// result folds a workload's samples into its metrics. Metrics that do
// not apply to the workload are absent, never 0.
func (s *state) result(env *runEnv, setup stat) workloadResult {
	w := workloadResult{
		Name: s.def.Name,
		Input: inputInfo{Jobs: len(s.in.Jobs), Txns: s.in.Txns * len(s.in.Jobs),
			Ops: s.in.lines(), Bytes: s.in.bytes(), Chunks: s.in.chunks()},
		ReportSHA256: s.firstSHA,
		Attempted:    s.attempts, Failed: s.failed, Failures: s.failures,
		EndToEnd: map[string]stat{}, PerLayer: map[string]stat{},
	}
	put := func(dst map[string]stat, name string, samples []float64) {
		if m, ok := findMetric(name); ok && len(samples) > 0 {
			dst[name] = summarizeMetric(m, samples)
		}
	}

	var wall, ops, cpu, rss, acks, finish []float64
	for _, it := range s.iters {
		wall = append(wall, it.Wall)
		ops = append(ops, float64(s.in.lines())/it.Wall)
		cpu = append(cpu, it.CPU)
		rss = append(rss, it.RSSMB)
		acks = append(acks, it.AckMS...)
		finish = append(finish, it.FinishS...)
		w.ReportBytes = it.ReportBytes
	}
	if len(s.iters) > 0 && s.def.Service {
		put(w.EndToEnd, "chunk_ack_p50_ms", acks)
		put(w.EndToEnd, "finish_s", finish)
		put(w.PerLayer, "service.chunk_ack_p99_ms", []float64{percentile(acks, 99)})
		put(w.PerLayer, "service.refused", []float64{s.refused})
		put(w.PerLayer, "service.shards_used", []float64{float64(s.in.shardsUsed(env.procs))})
	}
	if !s.smoke {
		// A traced-only run times the service at smoke length for its
		// client-side layer metrics; that is not an end-to-end sample.
		put(w.EndToEnd, "verdict_s", wall)
		put(w.EndToEnd, "ops_per_s", ops)
		put(w.EndToEnd, "cpu_s", cpu)
		put(w.EndToEnd, "peak_rss_mb", rss)
	}
	w.EndToEnd["setup_s"] = setup
	share := 0.0
	if s.attempts > 0 {
		share = float64(s.failed) / float64(s.attempts)
	}
	w.EndToEnd[failedShare] = summarize("share", []float64{share})

	put(w.PerLayer, "memdb.gen_s", s.genS)
	put(w.PerLayer, "jsonhist.encode_s", s.encS)
	names := map[string]bool{}
	for _, m := range s.layers {
		for name := range m {
			names[name] = true
		}
	}
	for name := range names {
		var samples []float64
		for _, m := range s.layers {
			samples = append(samples, m[name])
		}
		put(w.PerLayer, name, samples)
		if name == "report.bytes" && w.ReportBytes == 0 {
			w.ReportBytes = int(samples[0])
		}
	}
	put(w.PerLayer, "par.speedup", s.speedup)
	put(w.PerLayer, "trace.overhead_share", s.overhead)
	return w
}

// contractLine renders the one-line JSON object the acceptance driver
// reads: with trace "0" the end-to-end metrics every workload has, with
// "1" every layer metric (0 where the layer is not on this workload's
// path), and both otherwise.
func (w *workloadResult) contractLine(trace string) string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	if trace != "1" {
		for _, m := range endToEnd {
			if m.Contract {
				metrics[m.Name] = value{w.EndToEnd[m.Name].Value, m.Unit}
			}
		}
	}
	if trace != "0" {
		for _, m := range contractLayers() {
			st, ok := w.PerLayer[m.Name]
			if !ok {
				st = w.EndToEnd[m.Name]
			}
			metrics[m.Name] = value{st.Value, m.Unit}
		}
	}
	raw, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{w.Failed == 0, w.Attempted, w.Failed, metrics})
	if err != nil {
		panic(err) // finite floats and strings always marshal
	}
	return string(raw)
}

// print writes the human-readable tables: every metric by name with its
// unit, value, median, quartiles, extremes and sample count.
func (r *result) print(out io.Writer) {
	fmt.Fprintf(out, "%s  seed=%d nproc=%d procs=%d par=%d %s commit=%s seconds=%g\n",
		r.Schema, r.Seed, r.NProc, r.Procs, r.Par, r.GoVersion, r.Commit, r.Seconds)
	if r.Quick {
		fmt.Fprintln(out, "QUICK SCALE: these numbers are not comparable with full-scale runs")
	}
	row := func(name string, s stat) {
		fmt.Fprintf(out, "  %-34s %14.6g %-9s median %-12.6g q1 %-12.6g q3 %-12.6g min %-12.6g max %-12.6g n=%d\n",
			name, s.Value, s.Unit, s.Median, s.Q1, s.Q3, s.Min, s.Max, s.N)
	}
	for _, w := range r.Workloads {
		fmt.Fprintf(out, "\n== %s: %d job(s), %d txns, %d ops, %d bytes, %d chunks; report %d bytes\n",
			w.Name, w.Input.Jobs, w.Input.Txns, w.Input.Ops, w.Input.Bytes, w.Input.Chunks, w.ReportBytes)
		fmt.Fprintln(out, " end-to-end")
		for _, m := range endToEnd {
			if s, ok := w.EndToEnd[m.Name]; ok {
				row(m.Name, s)
			}
		}
		row(failedShare, w.EndToEnd[failedShare])
		if len(w.PerLayer) > 0 {
			fmt.Fprintln(out, " per-layer")
		}
		for _, m := range perLayer {
			if s, ok := w.PerLayer[m.Name]; ok {
				row(m.Name, s)
			}
		}
		for _, f := range w.Failures {
			fmt.Fprintf(out, "  FAILED: %s\n", f)
		}
	}
	fmt.Fprintln(out)
}

// manifestJSON renders BENCHMARK.json from the workload table and the
// metric catalogue, so the manifest cannot drift from the code.
func manifestJSON() []byte {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	m := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: defaultSeconds,
	}
	for _, w := range workloads() {
		m.Workloads = append(m.Workloads, wl{w.Name, w.Why})
	}
	for _, d := range endToEnd {
		if d.Contract {
			m.EndToEnd = append(m.EndToEnd, e2e{d.Name, d.Unit, d.Better, d.Bound})
		}
	}
	for _, d := range contractLayers() {
		m.PerLayer = append(m.PerLayer, layer{d.Name, d.Unit, d.Better})
	}
	raw, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		panic(err)
	}
	return append(raw, '\n')
}

func loadResult(path string) (*result, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r result
	if err := json.Unmarshal(raw, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if r.Schema != schema {
		return nil, fmt.Errorf("%s: not an %s result file", path, schema)
	}
	return &r, nil
}

// runCompare prints, per workload and end-to-end metric, both values,
// how much worse B is than A, and the metric's bound, marking each pair
// ok, exceeds, or unresolved — the latter when the spread of either side
// (see stat.spread) is wider than the bound, so a difference of that
// size could not be told from noise. It returns 1 on any exceeds.
func runCompare(a, b string, stdout, stderr io.Writer) int {
	ra, err := loadResult(a)
	if err == nil {
		var rb *result
		if rb, err = loadResult(b); err == nil {
			return compare(ra, rb, stdout)
		}
	}
	fmt.Fprintf(stderr, "benchmark: %v\n", err)
	return 2
}

func compare(a, b *result, out io.Writer) int {
	if !a.Comparable || !b.Comparable {
		fmt.Fprintln(out, "note: a quick-scale result is not comparable; the marks below mean nothing")
	}
	byName := map[string]workloadResult{}
	for _, w := range b.Workloads {
		byName[w.Name] = w
	}
	code := 0
	fmt.Fprintf(out, "%-15s %-17s %13s %13s %9s %7s %8s  %s\n",
		"workload", "metric", "A", "B", "worse by", "bound", "spread", "mark")
	for _, wa := range a.Workloads {
		wb, ok := byName[wa.Name]
		if !ok {
			continue
		}
		for _, m := range endToEnd {
			sa, oka := wa.EndToEnd[m.Name]
			sb, okb := wb.EndToEnd[m.Name]
			if !oka || !okb || sa.Value == 0 {
				continue
			}
			worse := (sb.Value - sa.Value) / sa.Value
			if m.Better == "higher" {
				worse = -worse
			}
			spread := max(sa.spread(m), sb.spread(m))
			mark := "ok"
			switch {
			case worse > m.Bound && worse > spread:
				mark, code = "exceeds", 1
			case spread > m.Bound:
				mark = "unresolved"
			}
			fmt.Fprintf(out, "%-15s %-17s %13.6g %13.6g %+8.1f%% %6.0f%% %7.1f%%  %s\n",
				wa.Name, m.Name, sa.Value, sb.Value, 100*worse, 100*m.Bound, 100*spread, mark)
		}
		fa, fb := wa.EndToEnd[failedShare].Value, wb.EndToEnd[failedShare].Value
		mark := "ok"
		if fb > 0 || fa > 0 {
			mark, code = "exceeds", 1
		}
		fmt.Fprintf(out, "%-15s %-17s %13.6g %13.6g %9s %7s %8s  %s\n", wa.Name, failedShare, fa, fb, "", "0 abs", "", mark)
	}
	return max(code, compareCounts(a, b, byName, out))
}

// countMetrics are the layer counters that must repeat exactly between
// two runs of one commit on one seed.
var countMetrics = []string{"graph.nodes", "graph.edges", "graph.sccs", "graph.cycles",
	"listappend.edges", "rwregister.edges", "report.bytes", "explain.bytes", "rel.rows", "wal.fsyncs"}

func compareCounts(a, b *result, byName map[string]workloadResult, out io.Writer) int {
	if a.Seed != b.Seed || a.Procs != b.Procs {
		fmt.Fprintln(out, "counts: not compared (the runs differ in seed or procs)")
		return 0
	}
	var diffs []string
	n := 0
	for _, wa := range a.Workloads {
		wb := byName[wa.Name]
		for _, name := range countMetrics {
			sa, oka := wa.PerLayer[name]
			sb, okb := wb.PerLayer[name]
			if !oka || !okb {
				continue
			}
			n++
			if sa.Median != sb.Median || sa.Min != sa.Max || sb.Min != sb.Max {
				diffs = append(diffs, fmt.Sprintf("%s %s: A %v B %v", wa.Name, name, sa.Median, sb.Median))
			}
		}
	}
	sort.Strings(diffs)
	if len(diffs) == 0 {
		fmt.Fprintf(out, "counts: %d layer counters repeat exactly\n", n)
		return 0
	}
	for _, d := range diffs {
		fmt.Fprintf(out, "count differs: %s\n", d)
	}
	return 1
}
