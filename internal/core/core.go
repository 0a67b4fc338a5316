// Package core is the public face of the Elle checker: it accepts an
// observed history and an expected consistency model, runs the
// workload-appropriate dependency inference, augments the graph with
// process and real-time orders where the model warrants them, searches for
// cycles, classifies every anomaly, and reports which isolation models the
// observation rules out — each with a human-readable explanation in the
// style of the paper's Figure 2.
package core

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/anomaly"
	"repro/internal/consistency"
	"repro/internal/explain"
	"repro/internal/graph"
	"repro/internal/history"
	"repro/internal/op"
	"repro/internal/par"
	"repro/internal/txngraph"
	"repro/internal/workload"

	// Populate the workload registry with every built-in analyzer.
	_ "repro/internal/workload/all"
)

// Workload selects the dependency-inference strategy by registered
// name; see the workload package for the registry.
type Workload = workload.Name

// The built-in workloads.
const (
	// ListAppend analyzes histories over append-only lists — the paper's
	// traceable, recoverable workload, and its most precise analysis.
	ListAppend = workload.ListAppend
	// Register analyzes histories over read-write registers with the
	// partial version-order inference of §5.2.
	Register = workload.RWRegister
	// SetAdd analyzes histories over grow-only sets: exact wr and rw
	// dependencies, but no write-write inference (§3).
	SetAdd = workload.SetAdd
	// Counter analyzes histories over increment-only counters: bounds
	// and session-monotonicity checks only (§3).
	Counter = workload.Counter
	// Bank analyzes transfer histories over fixed accounts with a
	// total-balance invariant.
	Bank = workload.Bank
	// KAtomic analyzes single-object register histories for atomicity
	// and k-atomicity in real time — the one workload checked by
	// interval analysis rather than dependency inference.
	KAtomic = workload.KAtomic
)

// Opts configures a check.
type Opts struct {
	// Workload selects the analyzer by registered name; default
	// ListAppend. Check panics on a name no analyzer registered under.
	Workload Workload
	// Model is the consistency model the database under test claims.
	// Default: strict-serializable. It alone decides the §5.1 orders
	// added to the dependency graph before cycle search: per-process
	// session order under the strong-session and strict models, and
	// real-time precedence under strict serializability.
	Model consistency.Model
	// TimestampEdges adds the order the database's own claimed
	// transaction timestamps imply (carried in Op.Time, §5.1) to the
	// dependency graph. Only meaningful when the system under test
	// exposes start/commit timestamps; off by default.
	TimestampEdges bool
	// Opts carries the analyzer options shared by every workload —
	// inference rules, workload parameters, and Parallelism, which caps
	// the worker pools used throughout the check: per-key dependency
	// inference, per-transaction anomaly checks, per-SCC cycle search,
	// and explanation rendering. Values <= 0 mean one worker per CPU
	// (runtime.GOMAXPROCS(0)), the default; 1 runs the whole pipeline
	// sequentially on the calling goroutine. The ordering edges are
	// added in one sequential pass between inference and cycle search.
	// Results are byte-identical at every setting.
	workload.Opts
}

// OptsFor returns the options the paper's methodology implies for
// checking workload w against model m: lost-update detection for strict
// models, and the register inference rules the model makes sound: the
// initial-state and writes-follow-reads rules always, sequential keys
// only where sessions are guaranteed (strong-session and strict models),
// linearizable keys only for strict ones. A caller that knows the
// database claims per-key linearizability may enable both key rules on
// top of a weaker model. The orders the model implies (see Opts.Model)
// are added whatever the other options say.
func OptsFor(w Workload, m consistency.Model) Opts {
	strict, session := orders(m)
	wo := workload.DefaultOpts()
	wo.LinearizableKeys = strict
	wo.SequentialKeys = session
	wo.DetectLostUpdates = strict
	return Opts{Workload: w, Model: m, Opts: wo}
}

// orders reports which of the §5.1 orders model m implies: real time
// under strict serializability, and process (session) order under the
// strong-session and strict models.
func orders(m consistency.Model) (realtime, process bool) {
	realtime = m == consistency.StrictSerializable
	process = realtime ||
		m == consistency.StrongSessionSerial ||
		m == consistency.StrongSessionSI
	return realtime, process
}

func (o Opts) withDefaults() Opts {
	if o.Model == "" {
		o.Model = consistency.StrictSerializable
	}
	if o.Workload == "" {
		o.Workload = ListAppend
	}
	return o
}

// Stats summarizes the analysis for reporting and benchmarks.
type Stats struct {
	Ops       int // completion ops analyzed
	Nodes     int // transactions in the dependency graph
	Edges     int // distinct dependency adjacencies
	SCCs      int // strongly connected components with ≥ 2 transactions
	ExtraKind graph.KindSet
}

// CheckResult is the outcome of a check.
type CheckResult struct {
	// Valid reports whether the observation is consistent with Expected:
	// no detected anomaly rules it out.
	Valid bool
	// Expected is the model the check was performed against.
	Expected consistency.Model
	// Anomalies lists every detected anomaly, structural first, then
	// dirty phenomena, then cycles, each with an explanation.
	Anomalies []anomaly.Anomaly
	// Violated lists every model the detected anomalies rule out.
	Violated []consistency.Model
	// Strongest lists the maximal models the observation may satisfy.
	Strongest []consistency.Model
	// Graph is the final dependency graph searched for cycles.
	Graph *graph.Graph
	// Explainer renders additional cycles against this analysis.
	Explainer *explain.Explainer
	Stats     Stats
}

// AnomalyTypes returns the distinct anomaly types found, sorted.
func (r *CheckResult) AnomalyTypes() []anomaly.Type {
	set := map[anomaly.Type]bool{}
	for _, a := range r.Anomalies {
		set[a.Type] = true
	}
	out := make([]anomaly.Type, 0, len(set))
	for t := range set {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// HasAnomaly reports whether any anomaly of type t was found.
func (r *CheckResult) HasAnomaly(t anomaly.Type) bool {
	for _, a := range r.Anomalies {
		if a.Type == t {
			return true
		}
	}
	return false
}

// Summary renders a short multi-line report.
func (r *CheckResult) Summary() string {
	var b strings.Builder
	if r.Valid {
		fmt.Fprintf(&b, "OK: no anomalies rule out %s\n", r.Expected)
	} else {
		fmt.Fprintf(&b, "INVALID under %s\n", r.Expected)
	}
	fmt.Fprintf(&b, "  %d ops, %d nodes, %d edges, %d cyclic components\n",
		r.Stats.Ops, r.Stats.Nodes, r.Stats.Edges, r.Stats.SCCs)
	if len(r.Anomalies) > 0 {
		counts := map[anomaly.Type]int{}
		for _, a := range r.Anomalies {
			counts[a.Type]++
		}
		b.WriteString("  anomalies:")
		for _, t := range r.AnomalyTypes() {
			fmt.Fprintf(&b, " %s×%d", t, counts[t])
		}
		b.WriteByte('\n')
		fmt.Fprintf(&b, "  may satisfy: %s\n", joinModels(r.Strongest))
	}
	return b.String()
}

func joinModels(ms []consistency.Model) string {
	if len(ms) == 0 {
		return "(nothing)"
	}
	parts := make([]string, len(ms))
	for i, m := range ms {
		parts[i] = string(m)
	}
	return strings.Join(parts, ", ")
}

// Check analyzes h under opts. It never modifies h.
//
// Inference shards per key and per transaction inside the workload
// analyzer, and cycle search fans out per strongly connected component
// (see Opts.Parallelism); the ordering edges the model asks for go into
// the analyzer's graph in one sequential pass between the two. Every
// parallel stage merges its results in a deterministic order, so two
// checks of the same history produce identical reports at any
// parallelism level.
//
// A panic inside the checker (an analyzer or hook defect) propagates
// to the caller: core has no recover boundary of its own. The elle CLI
// turns it into exit status 4, and elled into a failed job (500
// internal, counted by elled_panics_total).
func Check(h *history.History, opts Opts) *CheckResult {
	opts = opts.withDefaults()

	// The analyzer comes from the registry: core neither knows nor
	// cares which datatype it is checking. Every analyzer receives the
	// same shared options (including Parallelism) and returns a graph,
	// its non-cycle anomalies, and an explainer.
	info := lookup(opts.Workload)
	an := info.Analyzer.Analyze(h, opts.Opts)
	return classify(h, opts, an)
}

// lookup resolves a workload name or panics with the registered set; a
// bad name is a programming error at this layer (the CLIs validate).
func lookup(w Workload) workload.Info {
	info, ok := workload.Lookup(string(w))
	if !ok {
		panic(fmt.Sprintf("core: unknown workload %q (registered: %s)",
			w, workload.NameList()))
	}
	return info
}

// classify is the back half of a check, shared by the batch Check and
// the streaming Stream.Finish: add the §5.1 orders the model implies
// (and the timestamp order, if opts claims one) to the inferred
// dependency graph, search for anomalous cycles, classify every
// anomaly, and evaluate the consistency lattice.
func classify(h *history.History, opts Opts, an workload.Analysis) *CheckResult {
	p := opts.Parallelism
	g, anoms, expl := an.Graph, an.Anomalies, an.Explainer

	var extra graph.KindSet
	realtime, process := orders(opts.Model)
	if process {
		extra |= graph.Process.Mask()
	}
	if realtime {
		extra |= graph.Realtime.Mask()
	}
	if opts.TimestampEdges {
		extra |= graph.Timestamp.Mask()
	}
	txngraph.AddOrders(g, h, extra)

	cycles, sccs := g.AnomalousComponents(extra, p)
	anoms = append(anoms, par.Map(p, len(cycles), func(i int) anomaly.Anomaly {
		c := cycles[i]
		return anomaly.Anomaly{
			Type:        anomaly.CycleType(c),
			Cycle:       c,
			Explanation: expl.Cycle(c),
		}
	})...)
	sortAnomalies(anoms)

	types := make([]anomaly.Type, len(anoms))
	for i, a := range anoms {
		types[i] = a.Type
	}
	completions := 0
	for i := range h.Ops {
		if h.Ops[i].Type != op.Invoke {
			completions++
		}
	}
	return &CheckResult{
		Valid:     consistency.Holds(opts.Model, types),
		Expected:  opts.Model,
		Anomalies: anoms,
		Violated:  consistency.Violated(types),
		Strongest: consistency.Strongest(types),
		Graph:     g,
		Explainer: expl,
		Stats: Stats{
			Ops:       completions,
			Nodes:     g.NumNodes(),
			Edges:     g.NumEdges(),
			SCCs:      sccs,
			ExtraKind: extra,
		},
	}
}

func sortAnomalies(as []anomaly.Anomaly) {
	sort.SliceStable(as, func(i, j int) bool {
		if as[i].Type.Severity() != as[j].Type.Severity() {
			return as[i].Type.Severity() > as[j].Type.Severity()
		}
		return as[i].Type < as[j].Type
	})
}
