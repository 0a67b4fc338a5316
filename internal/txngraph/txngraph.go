// Package txngraph derives the transaction orderings of §5.1 that do not
// depend on object values: the per-process (session) order, the
// real-time precedence order, and the order the database's own exposed
// timestamps claim.
//
// Process order encodes a constraint akin to sequential consistency: each
// single-threaded client should observe a logically monotonic view of the
// database. Real-time order is what strict serializability adds on top of
// serializability: if T1 completes before T2 begins, T2 must appear to take
// effect after T1.
package txngraph

import (
	"slices"
	"sort"

	"repro/internal/graph"
	"repro/internal/history"
	"repro/internal/op"
)

// AddOrders adds the orders kinds names — any of graph.Process,
// graph.Realtime and graph.Timestamp — to g, in one pass over h's ops.
// Only completions that may have committed (OK or Info) participate: a
// definitely-aborted transaction imposes no order on the versions other
// transactions observe.
//
// Process order links consecutive participating completions of each
// process. Real-time order links A to B whenever A's completion precedes
// B's invocation in the history. Timestamp order links A to B whenever
// A's completion carries a commit timestamp (its Op.Time) earlier than
// the start timestamp on B's invocation: the time-precedes order of
// Adya's snapshot-isolation formalization. The last two are one
// relation, interval precedence, over two clocks; they differ exactly
// when the database's clock claims contradict what the history observed.
// Both add every participating transaction as a node, even one no edge
// touches. Compact histories invoke and complete each op at its own
// index and time, so their real-time order is a chain. Where a
// transaction claims to start after it commits, the claimed relation is
// not transitive and the timestamp order may miss some of it; every
// edge it adds is still one the claims imply.
func AddOrders(g *graph.Graph, h *history.History, kinds graph.KindSet) {
	if kinds == 0 {
		return
	}
	type session struct {
		invoke  int   // the open invocation's index
		start   int64 // and its Time
		last    int   // the last participating completion's index
		chained bool  // whether last is set
	}
	sessions := map[int]*session{}
	var rt, ts []interval
	for i := range h.Ops {
		o := &h.Ops[i]
		s := sessions[o.Process]
		if s == nil {
			s = &session{}
			sessions[o.Process] = s
		}
		if o.Type == op.Invoke || h.Compact() {
			s.invoke, s.start = o.Index, o.Time
		}
		if !o.MayHaveCommitted() {
			continue
		}
		if s.chained && kinds.Has(graph.Process) {
			g.AddEdge(s.last, o.Index, graph.Process)
		}
		s.last, s.chained = o.Index, true
		if kinds.Has(graph.Realtime) {
			rt = append(rt, interval{o.Index, int64(s.invoke), int64(o.Index)})
		}
		if kinds.Has(graph.Timestamp) {
			ts = append(ts, interval{o.Index, s.start, o.Time})
		}
	}
	// rt intervals end at their own, ascending, index: rt is in end order.
	precedence(g, rt, slices.Clone(rt), graph.Realtime)
	precedence(g, ts, nil, graph.Timestamp)
}

// interval is one transaction on one clock: node began at start and
// ended at end.
type interval struct {
	node       int
	start, end int64
}

// precedence adds to g, as edges of kind k, a transitive reduction of
// interval precedence over txns: A precedes B when A ended before B
// started, and equal bounds are concurrent. The sweep is O(n·p) for n
// transactions and p concurrent processes, as in the paper: it visits
// starts in order against the frontier of ended transactions no later
// one covers. Each start depends on exactly the frontier, and each end
// evicts every frontier member that ended before the new one started.
// byEnd is txns in end order, or nil to sort a copy of txns, whose ties
// then fall as the start sort left them. It reorders txns.
func precedence(g *graph.Graph, txns, byEnd []interval, k graph.Kind) {
	sort.Slice(txns, func(i, j int) bool { return txns[i].start < txns[j].start })
	if byEnd == nil {
		byEnd = slices.Clone(txns)
		sort.Slice(byEnd, func(i, j int) bool { return byEnd[i].end < byEnd[j].end })
	}

	var frontier []interval
	ei := 0
	for _, t := range txns {
		for ei < len(byEnd) && byEnd[ei].end < t.start {
			c := byEnd[ei]
			ei++
			kept := frontier[:0]
			for _, f := range frontier {
				if f.end >= c.start {
					kept = append(kept, f)
				}
			}
			frontier = append(kept, c)
		}
		for _, f := range frontier {
			g.AddEdge(f.node, t.node, k)
		}
		g.Ensure(t.node)
	}
}

// ProcessGraph returns the process order alone, as a graph of its own.
func ProcessGraph(h *history.History) *graph.Graph {
	g := graph.New()
	AddOrders(g, h, graph.Process.Mask())
	return g
}

// RealtimeGraph returns the real-time order alone, as a graph of its own.
func RealtimeGraph(h *history.History) *graph.Graph {
	g := graph.New()
	AddOrders(g, h, graph.Realtime.Mask())
	return g
}
