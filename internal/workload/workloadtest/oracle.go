// Package workloadtest holds the edge-set oracle the workloads' session
// tests share. A session never calls a workload's batch edge rule on its
// way to a provisional finding — the hooks emit each edge as a delta —
// so the two rule sets could drift apart unseen: Finish's byte-identity
// oracles only ever look at the final graph. The oracle closes that.
package workloadtest

import (
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/history"
	"repro/internal/op"
	"repro/internal/workload"
)

// Begin opens a session for info under opts. When its hooks emit edges
// and no budget retires state (the graph keeps the edges retired keys
// gave the ops live keys still pin), the session's graph is checked
// after every Ingest and Scan: unless a retraction has left it stale, it
// holds exactly the edges the hooks' batch rule (Edges) infers over
// their current state, kind for kind. At Finish a stale graph is rebuilt
// by that rule and handed over, so a history too short to reach a scan
// point still drives the rebuild past Finish's checks.
func Begin(t testing.TB, info workload.Info, opts workload.Opts) *workload.Session {
	var s *workload.Session
	open := info.Incremental
	info.Incremental = func(o workload.Opts, keys *history.Interner, ops history.Lookup) workload.Hooks {
		h := open(o, keys, ops)
		if eh, ok := h.(workload.EdgeHooks); ok && opts.MemoryBudget == 0 {
			return &oracle{EdgeHooks: eh, t: t, s: &s}
		}
		return h
	}
	s = workload.BeginSession(info, opts)
	return s
}

type oracle struct {
	workload.EdgeHooks
	t testing.TB
	s **workload.Session

	got, rule []uint64 // packed edges, reused across checks
}

func (h *oracle) Ingest(o op.Op, invoke int, out *workload.Findings) {
	h.EdgeHooks.Ingest(o, invoke, out)
	h.check("Ingest", o.Index)
}

func (h *oracle) Scan(out *workload.Findings) {
	h.EdgeHooks.Scan(out)
	h.check("Scan", -1)
}

func (h *oracle) Finish(hist *history.History, g *graph.Graph) workload.Analysis {
	if g == nil {
		g = graph.New()
		h.Edges(g.AddEdge)
	}
	return h.EdgeHooks.Finish(hist, g)
}

// check compares the edge sets as sorted packed slices: a session
// checked after every op makes this the tests' hot loop.
func (h *oracle) check(step string, at int) {
	h.t.Helper()
	g := (*h.s).Graph()
	if g == nil {
		return // stale until the next scan rebuilds it
	}
	h.got = h.got[:0]
	for _, a := range g.Nodes() {
		g.Out(a, graph.KSDep, func(b int, label graph.KindSet) {
			for k := graph.Kind(0); label>>k != 0; k++ {
				if label.Has(k) {
					h.got = append(h.got, h.pack(a, b, k))
				}
			}
		})
	}
	h.rule = h.rule[:0]
	h.Edges(func(from, to int, k graph.Kind) {
		if from != to { // a transaction does not depend on itself
			h.rule = append(h.rule, h.pack(from, to, k))
		}
	})
	slices.Sort(h.got)
	slices.Sort(h.rule)
	h.rule = slices.Compact(h.rule)
	if slices.Equal(h.got, h.rule) {
		return
	}
	for _, e := range h.rule {
		if _, ok := slices.BinarySearch(h.got, e); !ok {
			from, to, k := unpack(e)
			h.t.Errorf("after %s %d: the batch rule infers %d -%s-> %d, the session never emitted it", step, at, from, k, to)
		}
	}
	for _, e := range h.got {
		if _, ok := slices.BinarySearch(h.rule, e); !ok {
			from, to, k := unpack(e)
			h.t.Errorf("after %s %d: the session emitted %d -%s-> %d, the batch rule does not infer it", step, at, from, k, to)
		}
	}
}

// pack orders edges by source, target and kind in one word; the test
// histories' op indices fit in 28 bits.
func (h *oracle) pack(from, to int, k graph.Kind) uint64 {
	if uint(from) >= 1<<28 || uint(to) >= 1<<28 {
		h.t.Fatalf("edge %d -> %d: op index beyond the oracle's 28 bits", from, to)
	}
	return uint64(from)<<36 | uint64(to)<<8 | uint64(k)
}

func unpack(e uint64) (from, to int, k graph.Kind) {
	return int(e >> 36), int(e >> 8 & (1<<28 - 1)), graph.Kind(e)
}
