package listappend

import (
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/history"
	"repro/internal/memdb"
	"repro/internal/op"
	"repro/internal/workload"
)

// This file ties the session's emitter to the batch rules. A session
// never calls keyEdges on its way to a provisional finding — Ingest emits
// each edge as a delta — so the two rule sets could drift apart unseen:
// Finish's byte-identity oracles only ever look at the batch graph. The
// edge-set oracle closes that: whenever the session is not waiting on a
// rebuild, the edges its incremental graph holds are exactly the union
// of keyEdges over its traced keys, kind for kind.

// oracleHooks is list-append's stream, checked against keyEdges after
// every step. Finish scans once more first, so a history too short to
// reach a scan point still drives Scan — and the rebuild of a session
// that ended poisoned — past the oracle.
type oracleHooks struct {
	*stream
	t   testing.TB
	out *workload.Findings
}

func (h *oracleHooks) Ingest(o op.Op, invoke int, out *workload.Findings) {
	h.out = out
	h.stream.Ingest(o, invoke, out)
	h.check("Ingest", o.Index)
}

func (h *oracleHooks) Scan(out *workload.Findings) {
	h.stream.Scan(out)
	if h.poisoned {
		h.t.Errorf("Scan left the session poisoned")
	}
	h.check("Scan", -1)
}

func (h *oracleHooks) Finish(hist *history.History) workload.Analysis {
	if h.out != nil {
		h.Scan(h.out)
	}
	return h.stream.Finish(hist)
}

// check compares the incremental graph with keyEdges, collected through
// its sink over a fresh index. Re-indexing would paper over a writer the
// session failed to maintain: the per-position facts are compared, then
// put back.
func (h *oracleHooks) check(step string, at int) {
	h.t.Helper()
	if h.poisoned {
		return // stale until the next scan rebuilds it
	}
	want := map[graph.Edge]bool{}
	for _, k := range h.a.tracedKeys() {
		ks := h.a.keyst[k]
		writers, aborted, garbage := slices.Clone(ks.writers), slices.Clone(ks.aborted), ks.garbage
		ks.index()
		keyEdges(ks, func(from, to int, k graph.Kind) {
			if from != to { // a transaction does not depend on itself
				want[graph.Edge{From: from, To: to, Kind: k}] = true
			}
		})
		if !slices.Equal(writers, ks.writers) {
			h.t.Errorf("after %s %d: key %s has writers %v, keyEdges indexes %v", step, at, h.a.in.Key(k), writers, ks.writers)
		}
		ks.writers, ks.aborted, ks.garbage = writers, aborted, garbage
	}
	got := map[graph.Edge]bool{}
	g := h.incr.Graph()
	for _, a := range g.Nodes() {
		g.Out(a, graph.KSDep, func(b int, label graph.KindSet) {
			for _, k := range label.Kinds() {
				got[graph.Edge{From: a, To: b, Kind: k}] = true
			}
		})
	}
	for e := range want {
		if !got[e] {
			h.t.Errorf("after %s %d: keyEdges infers %d -%s-> %d, the session never emitted it", step, at, e.From, e.Kind, e.To)
		}
	}
	for e := range got {
		if !want[e] {
			h.t.Errorf("after %s %d: the session emitted %d -%s-> %d, keyEdges does not infer it", step, at, e.From, e.Kind, e.To)
		}
	}
}

// hookedInfo is list-append's registration with each session's hooks
// passed through wrap, so a test can watch, or keep a handle on, the
// state the registered session maintains.
func hookedInfo(t testing.TB, wrap func(*stream) workload.Hooks) workload.Info {
	info, ok := workload.Lookup(string(workload.ListAppend))
	if !ok {
		t.Fatal("list-append is not registered")
	}
	info.Incremental = func(opts workload.Opts, keys *history.Interner, ops history.Lookup) workload.Hooks {
		return wrap(begin(opts, keys, ops).(*stream))
	}
	return info
}

// OracleInfo is list-append's registration with the edge-set oracle
// riding on its session hooks, for the reference and fuzz tests.
func OracleInfo(t testing.TB) workload.Info {
	return hookedInfo(t, func(s *stream) workload.Hooks { return &oracleHooks{stream: s, t: t} })
}

// TestScanCostIndependentOfKeyAge pins what emitting deltas buys: across
// a whole session every (read, position) pair is offered to the
// incremental graph once, so the edges offered are the edges keyEdges
// infers at the end — about the final graph's — however many scans a
// key lives through and however many reads it has collected by each.
// Re-deriving touched keys per scan offered each key's whole list at
// every scan point it was live for.
func TestScanCostIndependentOfKeyAge(t *testing.T) {
	run := func(writesPerKey int) (offered, inferred, kinds int) {
		h := memdb.Run(memdb.RunConfig{
			Clients: 10, Txns: 3000, Isolation: memdb.StrictSerializable,
			Source: gen.New(gen.Config{ActiveKeys: 10, MaxWritesPerKey: writesPerKey}, 3), Seed: 3,
			Workload: memdb.WorkloadList,
		})
		var st *stream
		info := hookedInfo(t, func(s *stream) workload.Hooks { st = s; return s })
		s := workload.BeginSession(info, workload.Opts{Parallelism: 1})
		for ops := h.Ops; len(ops) > 0; {
			n := min(100, len(ops))
			if _, err := s.Feed(ops[:n]); err != nil {
				t.Fatal(err)
			}
			ops = ops[n:]
		}
		fin, err := s.Finish()
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range st.a.tracedKeys() {
			keyEdges(st.a.keyst[k], func(int, int, graph.Kind) { inferred++ })
		}
		for _, a := range fin.Graph.Nodes() {
			fin.Graph.Out(a, graph.KSDep, func(_ int, label graph.KindSet) { kinds += len(label.Kinds()) })
		}
		return st.offered, inferred, kinds
	}
	for _, writesPerKey := range []int{50, 200} {
		offered, inferred, kinds := run(writesPerKey)
		if offered != inferred {
			t.Errorf("%d writes per key: %d edges offered, keyEdges infers %d", writesPerKey, offered, inferred)
		}
		// What keyEdges infers beyond the graph's edges: a transaction
		// reading its own append, and dependencies two keys both imply.
		if kinds == 0 || float64(offered) > 1.25*float64(kinds) {
			t.Errorf("%d writes per key: %d edges offered for a final graph of %d", writesPerKey, offered, kinds)
		}
	}
}

// TestScanExplainsOnlyNewCycles pins what checking the emitted-set first
// buys: a component a scan re-searches mostly yields the witnesses an
// earlier scan surfaced, and Scan renders an explanation only for the
// cycles it surfaces — across a faulted session, exactly as many.
func TestScanExplainsOnlyNewCycles(t *testing.T) {
	h := memdb.Run(memdb.RunConfig{
		Clients: 10, Txns: 3000, Isolation: memdb.SnapshotIsolation,
		Faults: memdb.Faults{RetryStompProb: 0.5, StaleReadProb: 0.3},
		Source: gen.New(gen.Config{ActiveKeys: 10, MaxWritesPerKey: 50}, 1), Seed: 1,
		Workload: memdb.WorkloadList,
	})
	var st *stream
	info := hookedInfo(t, func(s *stream) workload.Hooks { st = s; return s })
	s := workload.BeginSession(info, workload.Opts{Parallelism: 1})
	surfaced := 0
	for ops := h.Ops; len(ops) > 0; {
		n := min(100, len(ops))
		d, err := s.Feed(ops[:n])
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range d.Anomalies {
			if len(a.Cycle.Steps) > 0 {
				surfaced++
			}
		}
		ops = ops[n:]
	}
	if surfaced < 20 || st.explained != surfaced {
		t.Errorf("Scan explained %d cycles and surfaced %d", st.explained, surfaced)
	}
}
