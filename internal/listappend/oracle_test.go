package listappend

import (
	"maps"
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/history"
	"repro/internal/memdb"
	"repro/internal/op"
	"repro/internal/workload"
)

// The edge-set oracle (workloadtest.Begin) holds the session's graph to
// keyEdges over the traced keys, which reads the writers the session
// maintains per trace position. writersHooks holds those writers to what
// index derives from the element table, after every Ingest, on copies:
// re-indexing the session's own state would paper over a writer it
// failed to maintain.
type writersHooks struct {
	*analyzer
	t testing.TB
}

func (h writersHooks) Ingest(o op.Op, invoke int, out *workload.Findings) {
	h.analyzer.Ingest(o, invoke, out)
	for _, k := range h.tracedKeys() {
		ks := *h.keyst[k]
		ks.writers, ks.aborted = nil, nil
		ks.index()
		if !slices.Equal(h.keyst[k].writers, ks.writers) {
			h.t.Errorf("after Ingest %d: key %s has writers %v, index derives %v", o.Index, h.in.Key(k), h.keyst[k].writers, ks.writers)
		}
	}
}

// hookedInfo is list-append's registration with each session's hooks
// passed through wrap, so a test can watch, or keep a handle on, the
// state the registered session maintains.
func hookedInfo(t testing.TB, wrap func(*analyzer) workload.Hooks) workload.Info {
	info, ok := workload.Lookup(string(workload.ListAppend))
	if !ok {
		t.Fatal("list-append is not registered")
	}
	info.Incremental = func(opts workload.Opts, keys *history.Interner, ops history.Lookup) workload.Hooks {
		return wrap(begin(opts, keys, ops).(*analyzer))
	}
	return info
}

// OracleInfo is list-append's registration with its maintained writers
// checked after every Ingest, for the reference and fuzz tests to open
// through workloadtest.Begin.
func OracleInfo(t testing.TB) workload.Info {
	return hookedInfo(t, func(s *analyzer) workload.Hooks { return writersHooks{analyzer: s, t: t} })
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
		var st *analyzer
		info := hookedInfo(t, func(s *analyzer) workload.Hooks { st = s; return s })
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
		for _, k := range st.tracedKeys() {
			keyEdges(st.keyst[k], func(int, int, graph.Kind) { inferred++ })
		}
		for _, a := range fin.Graph.Nodes() {
			fin.Graph.Out(a, graph.KSDep, func(_ int, label graph.KindSet) { kinds += len(label.Kinds()) })
		}
		offered, _ = s.EdgeWork()
		return offered, inferred, kinds
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
	s := workload.BeginSession(hookedInfo(t, func(s *analyzer) workload.Hooks { return s }), workload.Opts{Parallelism: 1})
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
	if _, explained := s.EdgeWork(); surfaced < 20 || explained != surfaced {
		t.Errorf("Scan explained %d cycles and surfaced %d", explained, surfaced)
	}
}

// TestFinishAdoptsSessionGraph pins what Finish keeps: a session that is
// not waiting on a rebuild hands finish the graph it maintained, and
// drops the component index over it; one poisoned after its last scan
// hands over nothing, and finish builds the graph by the batch rules.
// Either way the edges are batch's.
func TestFinishAdoptsSessionGraph(t *testing.T) {
	clean := memdb.Run(memdb.RunConfig{
		Clients: 5, Txns: 500, Isolation: memdb.StrictSerializable,
		Source: gen.New(gen.Config{ActiveKeys: 5, MaxWritesPerKey: 50}, 2), Seed: 2,
		Workload: memdb.WorkloadList,
	}).Ops
	// A last transaction appending an element already appended: a
	// duplicate append, which retracts its writer's edges.
	var dup op.Mop
	for _, o := range clean {
		if o.Type == op.OK && o.Mops[0].F == op.FAppend {
			dup = o.Mops[0]
			break
		}
	}
	last := clean[len(clean)-1].Index
	poisoned := append(slices.Clone(clean),
		op.Op{Index: last + 1, Process: 99, Type: op.Invoke, Mops: []op.Mop{dup}},
		op.Op{Index: last + 2, Process: 99, Type: op.OK, Mops: []op.Mop{dup}})

	edges := func(g *graph.Graph) map[graph.Edge]bool {
		out := map[graph.Edge]bool{}
		for _, a := range g.Nodes() {
			g.Out(a, graph.KSDep, func(b int, label graph.KindSet) {
				for _, k := range label.Kinds() {
					out[graph.Edge{From: a, To: b, Kind: k}] = true
				}
			})
		}
		return out
	}
	for _, c := range []struct {
		name  string
		ops   []op.Op
		adopt bool
	}{{"clean", clean, true}, {"poisoned", poisoned, false}} {
		s := workload.BeginSession(hookedInfo(t, func(s *analyzer) workload.Hooks { return s }), workload.Opts{Parallelism: 1})
		if _, err := s.Feed(c.ops[:len(clean)]); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Feed(c.ops[len(clean):]); err != nil {
			t.Fatal(err)
		}
		maintained := s.Graph()
		if poisoned := maintained == nil; poisoned == c.adopt {
			t.Fatalf("%s: poisoned is %v before Finish", c.name, poisoned)
		}
		fin, err := s.Finish()
		if err != nil {
			t.Fatal(err)
		}
		if (fin.Graph == maintained) != c.adopt {
			t.Errorf("%s: Finish took the session's graph over: %v, want %v", c.name, fin.Graph == maintained, c.adopt)
		}
		if s.Graph() != nil {
			t.Errorf("%s: the component index outlives Finish", c.name)
		}
		batch := Analyze(history.MustNew(c.ops), workload.Opts{Parallelism: 1})
		if got, want := edges(fin.Graph), edges(batch.Graph); !maps.Equal(got, want) {
			t.Errorf("%s: Finish's graph has %d edges, batch's %d", c.name, len(got), len(want))
		}
	}
}
