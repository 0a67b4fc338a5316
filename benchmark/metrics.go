package main

// metricDef names one metric the benchmark prints. The catalogue below is
// the single list BENCHMARK.json, the printed tables, -compare and the
// tests are all derived from.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the base value by which an end-to-end metric
	// may worsen before -compare reports a regression; 0 for layer metrics.
	Bound float64
	// Best makes the metric's value the best sample of a run — the fastest
	// time, the highest rate — instead of the median. The hosts this runs on
	// are shared: interference from other tenants only ever adds time, in
	// bursts longer than a run, and over ten minutes of identical `elle`
	// runs the fastest of each 25 s window moved by 5 % where the window's
	// median moved by 20 %. The median and quartiles are still printed.
	Best bool
	// Contract marks the end-to-end metrics every workload reports, the
	// ones BENCHMARK.json lists under end_to_end. The two service-only
	// user-visible latencies are end-to-end here but cannot be there,
	// because that list must be reported, non-zero, by every workload.
	Contract bool
}

// endToEnd is what a user of the checker sees.
var endToEnd = []metricDef{
	{Name: "verdict_s", Unit: "s", Better: "lower", Bound: 0.25, Best: true, Contract: true},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25, Best: true, Contract: true},
	{Name: "cpu_s", Unit: "s", Better: "lower", Bound: 0.25, Best: true, Contract: true},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25, Contract: true},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, Contract: true},
	{Name: "chunk_ack_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "finish_s", Unit: "s", Better: "lower", Bound: 0.25, Best: true},
}

// failedShare is the eighth end-to-end metric: its bound is absolute (it
// must be 0), so it lives outside the relative-bound table.
const failedShare = "failed_share"

// perLayer lists the layer metrics in the order of the README's
// layer → end-to-end table.
var perLayer = []metricDef{
	{Name: "jsonhist.decode_s", Unit: "s", Better: "lower"},
	{Name: "jsonhist.decode_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "jsonhist.decode_allocs_per_op", Unit: "allocs/op", Better: "lower"},
	{Name: "jsonhist.chunk_decode_s", Unit: "s", Better: "lower"},
	{Name: "binhist.decode_s", Unit: "s", Better: "lower"},
	{Name: "history.new_s", Unit: "s", Better: "lower"},
	{Name: "history.stream_add_s", Unit: "s", Better: "lower"},
	{Name: "listappend.analyze_s", Unit: "s", Better: "lower"},
	{Name: "listappend.analyze_ns_per_op", Unit: "ns/op", Better: "lower"},
	{Name: "listappend.analyze_allocs_per_op", Unit: "allocs/op", Better: "lower"},
	{Name: "listappend.edges", Unit: "count", Better: "lower"},
	{Name: "rwregister.analyze_s", Unit: "s", Better: "lower"},
	{Name: "rwregister.analyze_ns_per_op", Unit: "ns/op", Better: "lower"},
	{Name: "rwregister.analyze_allocs_per_op", Unit: "allocs/op", Better: "lower"},
	{Name: "rwregister.edges", Unit: "count", Better: "lower"},
	{Name: "txngraph.process_s", Unit: "s", Better: "lower"},
	{Name: "txngraph.realtime_s", Unit: "s", Better: "lower"},
	{Name: "graph.merge_s", Unit: "s", Better: "lower"},
	{Name: "graph.scc_s", Unit: "s", Better: "lower"},
	{Name: "graph.cycles_s", Unit: "s", Better: "lower"},
	{Name: "graph.nodes", Unit: "count", Better: "lower"},
	{Name: "graph.edges", Unit: "count", Better: "lower"},
	{Name: "graph.sccs", Unit: "count", Better: "lower"},
	{Name: "graph.cycles", Unit: "count", Better: "lower"},
	{Name: "explain.cycle_s", Unit: "s", Better: "lower"},
	{Name: "explain.bytes", Unit: "B", Better: "lower"},
	{Name: "consistency.eval_s", Unit: "s", Better: "lower"},
	{Name: "report.json_s", Unit: "s", Better: "lower"},
	{Name: "report.bytes", Unit: "B", Better: "lower"},
	{Name: "rel.query_s", Unit: "s", Better: "lower"},
	{Name: "rel.rows", Unit: "count", Better: "lower"},
	{Name: "core.pipeline_s", Unit: "s", Better: "lower"},
	{Name: "core.check_s", Unit: "s", Better: "lower"},
	{Name: "core.check_allocs_per_op", Unit: "allocs/op", Better: "lower"},
	{Name: "core.check_bytes_per_op", Unit: "B/op", Better: "lower"},
	{Name: "core.unattributed_share", Unit: "share", Better: "lower"},
	{Name: "core.stream_feed_s", Unit: "s", Better: "lower"},
	{Name: "core.stream_finish_s", Unit: "s", Better: "lower"},
	{Name: "core.stream_over_batch", Unit: "ratio", Better: "lower"},
	{Name: "par.speedup", Unit: "ratio", Better: "higher"},
	{Name: "wal.append_s", Unit: "s", Better: "lower"},
	{Name: "wal.append_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "wal.replay_s", Unit: "s", Better: "lower"},
	{Name: "wal.fsyncs", Unit: "count", Better: "lower"},
	{Name: "service.handler_s", Unit: "s", Better: "lower"},
	{Name: "service.overhead_share", Unit: "share", Better: "lower"},
	{Name: "service.chunk_ack_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "service.refused", Unit: "count", Better: "lower"},
	{Name: "service.shards_used", Unit: "count", Better: "higher"},
	{Name: "memdb.gen_s", Unit: "s", Better: "lower"},
	{Name: "jsonhist.encode_s", Unit: "s", Better: "lower"},
	{Name: "trace.overhead_share", Unit: "share", Better: "lower"},
}

// contractLayers is BENCHMARK.json's per_layer list: every layer metric,
// plus the two service-only latencies (see metricDef.Contract).
func contractLayers() []metricDef {
	var out []metricDef
	for _, m := range endToEnd {
		if !m.Contract {
			out = append(out, m)
		}
	}
	return append(out, perLayer...)
}

func findMetric(name string) (metricDef, bool) {
	for _, list := range [][]metricDef{endToEnd, perLayer} {
		for _, m := range list {
			if m.Name == name {
				return m, true
			}
		}
	}
	return metricDef{}, false
}
