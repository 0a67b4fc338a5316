// Package workload is the pluggable-analyzer seam of the checker: it
// defines the one interface every workload analyzer implements, the one
// options struct they all consume, and a name-keyed registry the core
// checker and the CLIs drive instead of hard-coded workload enums.
//
// The paper's architecture (§3–§5) treats workloads — list-append,
// rw-register, set-add, counter, bank — as interchangeable sources of
// version-order inference feeding a single dependency-graph/cycle-search
// core. This package makes that interchangeability literal: an analyzer
// turns a history into a dependency graph, a list of non-cycle
// anomalies, and an explainer for rendering cycle witnesses; the core
// neither knows nor cares which datatype produced them.
//
// Adding a workload is a one-package change: implement Analyzer, call
// Register from an init function, and blank-import the package from
// internal/workload/all. Registration carries the hooks the tooling
// needs alongside the analyzer itself — which generator and engine
// semantics produce histories for the workload, and how its JSON reads
// decode — so `elle`, `ellegen`, and the test harnesses all discover
// new workloads without edits.
package workload

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/anomaly"
	"repro/internal/explain"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/history"
	"repro/internal/memdb"
)

// Name identifies a registered workload. The canonical names of the
// built-in analyzers are exported below for convenience; third-party
// workloads need no constant here — any Name a package registers under
// is immediately checkable.
type Name string

// Canonical names of the built-in workloads.
const (
	ListAppend Name = "list-append"
	RWRegister Name = "rw-register"
	SetAdd     Name = "set-add"
	Counter    Name = "counter"
	Bank       Name = "bank"
	KAtomic    Name = "katomic"
)

// String returns the canonical name.
func (n Name) String() string { return string(n) }

// Opts is the single options struct shared by every analyzer. Each
// analyzer consumes the fields that apply to its datatype and ignores
// the rest, so one value configures a check regardless of workload.
type Opts struct {
	// Parallelism caps the worker pool used for per-key inference and
	// per-transaction checks: <= 0 means one worker per CPU, 1 runs
	// fully sequentially. Every analyzer is byte-identical at every
	// setting.
	Parallelism int

	// KeyConsistency is the per-key claim the version-order inference
	// may rest on. core raises it to the level the checked model
	// implies; a caller states a stronger claim the database makes that
	// its model does not, such as Dgraph's per-key linearizability (§7.4).
	KeyConsistency KeyConsistency

	// MemoryBudget, when > 0, bounds a streaming session's resident
	// memory during Feed: roughly the last MemoryBudget completions stay
	// fully resident, while settled prefixes are retired — closed spans
	// behind the window into compact encoded segments, quiescent keys'
	// caches and the graph regions only they pinned dropped. Finish
	// still returns an Analysis byte-identical to the batch analyzer: it
	// rehydrates the retired segments and pays the batch analyzer's
	// O(history) cost, so the budget bounds the feed phase, not the
	// finish. Batch analyzers ignore it.
	MemoryBudget int
	// SpillDir, when non-empty and MemoryBudget > 0, spills retired
	// segments to an unlinked temporary file in that directory instead
	// of holding their encoded bytes in memory. Empty keeps segments in
	// memory.
	SpillDir string
}

// KeyConsistency is an ordered per-key claim: each level implies the
// ones below it. The zero value claims nothing per key.
type KeyConsistency uint8

const (
	// SequentialKeys claims each process sees every key's versions in
	// order: a process's later transaction observes a later version of
	// the key. rw-register orders versions by it.
	SequentialKeys KeyConsistency = iota + 1
	// LinearizableKeys claims each key is linearizable, which implies
	// SequentialKeys: rw-register also orders versions by real time,
	// and list-append reports a committed append missing from a longest
	// read invoked after its transaction completed as a lost update.
	LinearizableKeys
)

// Analysis is what every analyzer produces: the inferred dependency
// graph, the non-cycle anomalies discovered during inference, and the
// explainer that renders cycle witnesses found later by the core's
// cycle search.
type Analysis struct {
	// Graph holds the inferred ww, wr, and rw transaction
	// dependencies. Analyzers that cannot infer dependencies (counter)
	// return an empty graph, never nil.
	Graph *graph.Graph
	// Anomalies are the non-cycle anomalies found during inference, in
	// the analyzer's deterministic report order.
	Anomalies []anomaly.Anomaly
	// Explainer renders cycles against this analysis's ops and version
	// orders.
	Explainer *explain.Explainer
}

// Analyzer turns one observed history into an Analysis. Implementations
// must be deterministic: the same history and options produce the same
// Analysis (graph, anomaly order, explanations) at every Parallelism.
type Analyzer interface {
	Analyze(h *history.History, opts Opts) Analysis
}

// AnalyzerFunc adapts a function to the Analyzer interface.
type AnalyzerFunc func(h *history.History, opts Opts) Analysis

// Analyze calls f.
func (f AnalyzerFunc) Analyze(h *history.History, opts Opts) Analysis { return f(h, opts) }

// Info is one registry entry: the analyzer plus the hooks the
// surrounding tooling (generator, engine runner, JSON decoder, CLIs)
// uses to produce and parse histories for the workload.
type Info struct {
	// Name is the canonical workload name, e.g. "list-append".
	Name Name
	// Aliases are accepted alternative spellings on CLI flags, e.g.
	// "list".
	Aliases []string
	// Analyzer performs dependency inference for the workload.
	Analyzer Analyzer
	// Incremental, when non-nil, opens the Hooks that make the workload's
	// streaming sessions natively incremental. Leaving it nil is a
	// decision, not a default: it registers the workload as one that
	// finishes in batch — its sessions validate and buffer the stream,
	// surface nothing mid-stream, and run Analyzer at Finish.
	Incremental Incremental
	// RegisterReads selects register decoding for JSON read values
	// (scalar rather than list observations).
	RegisterReads bool
	// Gen selects the generator semantics that produce transaction
	// bodies for this workload.
	Gen gen.Workload
	// DB selects the engine read/execution semantics for this workload.
	DB memdb.Workload
}

var (
	mu       sync.RWMutex
	registry = map[string]Info{}
	byAlias  = map[string]Name{}
)

// Register adds a workload to the registry. It panics on a duplicate
// name or alias, or a nil analyzer: registration happens in package
// init functions, where a conflict is a programming error.
func Register(info Info) {
	mu.Lock()
	defer mu.Unlock()
	if info.Name == "" || info.Analyzer == nil {
		panic("workload: Register requires a name and an analyzer")
	}
	if _, dup := registry[string(info.Name)]; dup {
		panic(fmt.Sprintf("workload: %q registered twice", info.Name))
	}
	if _, dup := byAlias[string(info.Name)]; dup {
		panic(fmt.Sprintf("workload: %q already registered as an alias", info.Name))
	}
	for _, a := range info.Aliases {
		if _, dup := byAlias[a]; dup {
			panic(fmt.Sprintf("workload: alias %q registered twice", a))
		}
	}
	registry[string(info.Name)] = info
	byAlias[string(info.Name)] = info.Name
	for _, a := range info.Aliases {
		byAlias[a] = info.Name
	}
}

// Lookup resolves a canonical name or alias to its registry entry.
func Lookup(name string) (Info, bool) {
	mu.RLock()
	defer mu.RUnlock()
	canonical, ok := byAlias[name]
	if !ok {
		return Info{}, false
	}
	return registry[string(canonical)], true
}

// All returns every registered workload, sorted by canonical name.
func All() []Info {
	mu.RLock()
	defer mu.RUnlock()
	out := make([]Info, 0, len(registry))
	for _, info := range registry {
		out = append(out, info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Names returns the canonical names of every registered workload,
// sorted — what the CLIs print when handed an unknown workload.
func Names() []string {
	all := All()
	out := make([]string, len(all))
	for i, info := range all {
		out[i] = string(info.Name)
	}
	return out
}

// NameList renders the registered names as one comma-separated string
// for error messages and flag help.
func NameList() string { return strings.Join(Names(), ", ") }
