package workload

import (
	"errors"

	"repro/internal/anomaly"
	"repro/internal/explain"
	"repro/internal/graph"
	"repro/internal/history"
	"repro/internal/op"
)

// Delta is the outcome of one Feed: what the chunk made visible.
//
// Mid-stream anomalies are provisional findings: each one is evidence
// the final analysis will normally confirm (same Type on the same
// Key), though its exact witness may still grow — a duplicate write
// can gain a third writer, a version order can extend. Anomalies whose
// provability is not monotone under history extension (a garbage read's
// element may be appended later; a lost update needs the final version
// order) are never surfaced mid-stream.
//
// One caveat keeps the contract honest: a finding's evidence can
// itself be destroyed by a later chunk when the history is structurally
// broken. A provisional G1a leans on a value having a unique, aborted
// writer; if a later transaction writes the same supposedly-unique
// value, recoverability is gone, and the final report carries the
// duplicate-write anomaly instead of the G1a it superseded. Likewise a
// provisional cycle can lean on a version order a later incompatible
// read replaces. In those cases the finding is superseded by the
// structural anomaly that destroyed its evidence, not confirmed. The
// definitive set, in the definitive order, is always the one Finish
// returns.
type Delta struct {
	// Anomalies newly surfaced by this chunk, deduplicated against
	// everything surfaced by earlier feeds of the same session.
	Anomalies []anomaly.Anomaly
	// Ops is the total number of completion ops ingested so far.
	Ops int
}

// ScanEvery is how many completions a session ingests between scans.
// Per-op findings surface on the feed that proves them; whatever an
// analyzer derives in batches surfaces at the next scan: rw-register
// re-infers a hot key once per batch of ops; for list-append and set-add,
// which emit edges as ops arrive, it only paces cycle search.
const ScanEvery = 128

// Hooks is the per-analyzer half of a streaming session: what a
// workload must supply to be natively incremental. The Session owns
// everything workloads have in common — the validated stream, the scan
// clock, the emitted-set, key quiescence, the budget decision, the graph
// of EdgeHooks — and calls the hooks, from one goroutine, with each
// completion in ascending index order. The state a hook set maintains is
// its own.
type Hooks interface {
	// Ingest indexes one completion op — invoke is the index of its
	// invocation — and surfaces the findings the op itself proves.
	Ingest(o op.Op, invoke int, out *Findings)
	// Scan brings what the analyzer derives in batches up to date with
	// the ops ingested so far, and surfaces what that proves.
	Scan(out *Findings)
	// Retire drops the state of keys quiescent for a full budget window;
	// the ops only they pinned are already gone from the lookup. A retired
	// key seen again is brand new. It runs only under a budget, and only
	// right after a Scan, so whatever the retiring state could prove is
	// already out.
	Retire(keys []history.KeyID)
	// Finish completes an unbudgeted stream from the maintained state.
	// h is the whole history; the result must equal the workload's
	// Analyzer's over h, byte for byte. g is the session's graph for
	// EdgeHooks no retraction has left stale, otherwise nil.
	Finish(h *history.History, g *graph.Graph) Analysis
}

// EdgeHooks also emit dependency edges (Findings.Edge). The session
// keeps them in a graph.Incr, searches the components they dirty at each
// scan, rebuilds the graph by Edges after a Findings.Retract, retires
// the nodes no live key pins, and hands the graph to Finish.
type EdgeHooks interface {
	Hooks
	// Edges hands add every edge the batch rule infers now.
	Edges(add func(from, to int, k graph.Kind))
	// Explainer renders the cycles a scan surfaces.
	Explainer() *explain.Explainer
}

// Incremental opens a workload's Hooks for one session, over the
// session's options, its stream's live key interner, and the lookup of
// the ops the hooks may cite: under a budget the KeyTracker's, which
// holds the ops live keys pin, otherwise the stream's.
type Incremental func(opts Opts, keys *history.Interner, ops history.Lookup) Hooks

// Findings is where hooks surface provisional anomalies and edges: the
// session's one emitted-set, the Feed's anomalies so far, its graph.
type Findings struct {
	emitted map[string]bool
	fresh   []anomaly.Anomaly

	incr      *graph.Incr // nil unless the hooks are EdgeHooks
	stale     bool        // a retraction left incr stale until the next scan
	offered   int         // edges handed to incr, for the cost tests
	explained int         // cycles the scans rendered, likewise
}

// Emit surfaces one finding unless an earlier Emit under the same key —
// in this feed or any before it — already did. Evidence that outlives
// the op that completed it (a late abort's readers, a cycle, a key's
// version order) is re-derived by later ingests and scans; the key is
// what keeps it from resurfacing.
func (f *Findings) Emit(key string, an anomaly.Anomaly) {
	if f.emitted[key] {
		return
	}
	f.emitted[key] = true
	f.fresh = append(f.fresh, an)
}

// Emitted reports whether a finding under key has already surfaced, so
// a hook can skip rendering one Emit would drop.
func (f *Findings) Emitted(key string) bool { return f.emitted[key] }

// Add surfaces findings that cannot repeat: the ones an op proves by
// itself, on the one Ingest that sees it.
func (f *Findings) Add(ans ...anomaly.Anomaly) { f.fresh = append(f.fresh, ans...) }

// Edge offers the graph one dependency edge, the moment its second
// endpoint is known; a stale graph, about to be rebuilt, drops it.
func (f *Findings) Edge(from, to int, k graph.Kind) {
	if !f.stale {
		f.offered++
		f.incr.AddEdge(from, to, k)
	}
}

// Retract withdraws evidence emitted edges may rest on: lest the stale
// edges seed phantom cycles, the next scan rebuilds the graph by Edges.
func (f *Findings) Retract() { f.stale = true }

// searchCycles re-searches the components new edges dirtied, rebuilding
// a stale graph first; only a cycle not yet surfaced is explained.
func (f *Findings) searchCycles(h EdgeHooks, p int) {
	if f.stale {
		f.stale = false
		g := graph.New()
		h.Edges(g.AddEdge)
		f.incr = graph.NewIncr(g)
	}
	var expl *explain.Explainer
	for _, c := range f.incr.DirtyCycles(p) {
		key := "cycle|" + graph.CycleKey(c)
		if f.Emitted(key) {
			continue
		}
		if expl == nil {
			expl = h.Explainer()
		}
		f.explained++
		f.Emit(key, anomaly.Anomaly{Type: anomaly.CycleType(c), Cycle: c, Explanation: expl.Cycle(c)})
	}
}

// Session is one in-progress streaming analysis, the same type for
// every workload. Ops are fed in chunks, in ascending index order
// across all feeds; each feed validates the chunk and, for a workload
// with Hooks, updates the analyzer's per-key state rather than
// recomputing it and reports the anomalies the chunk made provable.
// Finish completes the stream and returns the full Analysis —
// byte-identical to running the batch Analyzer over the concatenation
// of every chunk. History exposes the session's validated accumulation,
// so callers (core.Stream) need not keep — and re-validate — a second
// copy of the ops; call it once feeding is over.
//
// Memory budgets (Opts.MemoryBudget) bound the feed phase. The op stream
// retires settled prefixes into compact segments for every workload;
// with Hooks, the state of keys untouched for a full window goes too, as
// do the ops only they pinned, held once by the KeyTracker; so
// mid-stream findings are a subset of the unbudgeted session's —
// retired evidence cannot be cited, which the Delta contract permits.
// Finish then rehydrates the stream and pays the batch analyzer's
// O(history) cost.
//
// Sessions are single-goroutine: Feed and Finish must not be called
// concurrently. Internally they may fan work out across
// Opts.Parallelism workers, with the same determinism contract as the
// batch analyzers.
type Session struct {
	analyzer Analyzer
	opts     Opts
	hs       *history.Stream
	hooks    Hooks       // nil: the workload finishes in batch
	edges    EdgeHooks   // hooks, when they emit edges
	rt       *KeyTracker // key quiescence; nil without both hooks and a budget
	out      Findings

	sinceScan int
	done      bool
}

// BeginSession opens a streaming session for a registered workload.
func BeginSession(info Info, opts Opts) *Session {
	hs := history.NewStream()
	hs.SetBudget(StreamBudget(opts))
	s := &Session{analyzer: info.Analyzer, opts: opts, hs: hs}
	if info.Incremental != nil {
		s.out.emitted = map[string]bool{}
		var ops history.Lookup = hs
		if opts.MemoryBudget > 0 {
			s.rt = NewKeyTracker(opts.MemoryBudget)
			ops = s.rt
		}
		s.hooks = info.Incremental(opts, hs.Keys(), ops)
		if s.edges, _ = s.hooks.(EdgeHooks); s.edges != nil {
			s.out.incr = graph.NewIncr(graph.New())
		}
	}
	return s
}

// ErrSessionFinished is returned by Feed and Finish after Finish.
var ErrSessionFinished = errors.New("workload: session already finished")

// Feed validates and ingests one chunk and returns the anomalies it
// made provable (see Delta for the provisional-findings contract). A
// rejected op fails this and every later call; the hooks never see it.
func (s *Session) Feed(ops []op.Op) (Delta, error) {
	if s.done {
		return Delta{}, ErrSessionFinished
	}
	s.out.fresh = nil
	for _, o := range ops {
		if err := s.hs.Add(o); err != nil {
			return Delta{}, err
		}
		if o.Type == op.Invoke || s.hooks == nil {
			continue
		}
		s.sinceScan++
		// An op touching no keys pins nothing and can never be cited: a
		// budgeted session does not index what it would drop at once.
		if s.rt != nil && !s.rt.NoteOp(o, s.hs.Keys()) {
			continue
		}
		s.hooks.Ingest(o, s.hs.LastInvoke(), &s.out)
	}
	if s.sinceScan >= ScanEvery {
		s.sinceScan = 0
		s.hooks.Scan(&s.out)
		if s.edges != nil {
			s.out.searchCycles(s.edges, s.opts.Parallelism)
		}
		if s.rt != nil {
			// Sweep after the scan: what the retiring keys and ops could
			// prove, cycles through the graph's unpinned nodes included, is
			// out before the state backing it goes.
			if keys := s.rt.Sweep(); len(keys) > 0 {
				s.hooks.Retire(keys)
				if s.edges != nil {
					s.out.incr.Retire(func(n int) bool { _, pinned := s.rt.Op(n); return pinned })
				}
			}
		}
	}
	return Delta{Anomalies: s.out.fresh, Ops: s.hs.Completions()}, nil
}

// Finish completes the stream. A session without hooks has only
// buffered: it runs the batch analyzer now. So does a budgeted one — its
// hooks hold a window, not the history — over the rehydrated stream.
func (s *Session) Finish() (Analysis, error) {
	if s.done {
		return Analysis{}, ErrSessionFinished
	}
	s.done = true
	if err := s.hs.Err(); err != nil {
		// A chunk was rejected; finishing anyway would bless a history
		// the batch validator refuses.
		return Analysis{}, err
	}
	h := s.hs.History()
	if s.hooks == nil || s.rt != nil {
		return s.analyzer.Analyze(h, s.opts), nil
	}
	g := s.Graph()
	s.out.incr = nil // Finish takes the graph; its component index goes
	return s.hooks.Finish(h, g), nil
}

// Graph returns the session's dependency graph, or nil without
// EdgeHooks, after Finish, and while a retraction has left it stale.
func (s *Session) Graph() *graph.Graph {
	if s.out.incr == nil || s.out.stale {
		return nil
	}
	return s.out.incr.Graph()
}

// EdgeWork returns how many edges the graph was offered while current,
// and how many cycles the scans explained.
func (s *Session) EdgeWork() (offered, explained int) { return s.out.offered, s.out.explained }

// History returns the session's validated accumulation, rehydrating any
// retired prefix. It aliases live state: call it once feeding is over.
func (s *Session) History() *history.History { return s.hs.History() }

// RetireStats reports how much of the session is resident and how much
// has been retired; nothing retires without a budget.
func (s *Session) RetireStats() RetireStats {
	st := RetireStats{Stream: s.hs.RetireStats()}
	if s.rt != nil {
		st.RetiredKeys = s.rt.RetiredKeys()
	}
	return st
}
