// Package counter implements Elle's (deliberately weak) analysis for
// increment-only counters (§3 of the paper). Counters are traceable in
// the trivial sense that their version history is (0, 1, 2, ...) under
// unit increments, but they are *not recoverable*: no read can tell which
// increment produced a given value, so no write-read, write-write, or
// read-write dependencies can be inferred. What remains checkable:
//
//   - Bounds: every committed read must lie between the sum of definitely
//     committed increments visible in some interpretation and the sum of
//     all possibly-committed increments, those of invocations that never
//     completed included. Reads outside those bounds are impossible in
//     every interpretation.
//   - Session monotonicity: with only non-negative increments, a single
//     process must never observe the counter go backwards.
//
// These checks find real bugs (stale or garbage reads) but cannot
// discriminate cycle anomalies — which is exactly the paper's argument
// for richer datatypes.
package counter

import (
	"fmt"
	"sort"

	"repro/internal/anomaly"
	"repro/internal/explain"
	"repro/internal/graph"
	"repro/internal/history"
	"repro/internal/op"
	"repro/internal/par"
	"repro/internal/workload"
)

// result is the outcome of counter checking.
type result struct {
	// Anomalies found (garbage reads, non-monotonic session reads).
	Anomalies []anomaly.Anomaly
	// Bounds per key: the [lo, hi] envelope of possible counter values
	// over the whole history.
	Bounds map[string][2]int
}

// Analyze checks a counter history. Of the shared options only
// Parallelism applies.
func Analyze(h *history.History, opts workload.Opts) workload.Analysis {
	r := check(h, opts)
	// Counters are unrecoverable (§3): no dependencies can be inferred,
	// so the graph is empty and only the bounds and session checks'
	// anomalies flow out.
	return workload.Analysis{
		Graph:     graph.New(),
		Anomalies: r.Anomalies,
		Explainer: &explain.Explainer{Ops: h},
	}
}

// check runs the bounds and session-monotonicity checks.
func check(h *history.History, opts workload.Opts) *result {
	// Possible value envelope per key, over all interpretations: an
	// increment by a committed or indeterminate transaction may or may
	// not be visible to any given read (we have no ordering), so the
	// envelope spans from the sum of negative deltas to the sum of
	// positive deltas among possibly-committed increments. All per-key
	// state is dense, indexed by the history interner's KeyIDs.
	in := h.Keys()
	n := in.Len()
	lo := make([]int, n)
	hi := make([]int, n)
	incremented := make([]bool, n)
	nonNegative := make([]bool, n)
	kid := in.MustID
	// attempt notes o's increments; those that may have taken effect
	// widen the envelope.
	attempt := func(o op.Op, mayHaveTakenEffect bool) {
		for _, m := range o.Mops {
			if m.F != op.FIncrement {
				continue
			}
			k := kid(m.Key)
			if !incremented[k] {
				incremented[k] = true
				nonNegative[k] = true
			}
			if m.Arg < 0 {
				nonNegative[k] = false
			}
			if !mayHaveTakenEffect {
				continue
			}
			if m.Arg >= 0 {
				hi[k] += m.Arg
			} else {
				lo[k] += m.Arg
			}
		}
	}
	for _, o := range h.Ops {
		if o.Type != op.Invoke {
			attempt(o, o.MayHaveCommitted())
		}
	}
	// An increment whose invocation never completed (a crashed client,
	// or the tail of a log still being written) may have taken effect
	// all the same, and its delta is known: it widens the envelope as an
	// indeterminate one does.
	for _, o := range h.Crashed() {
		attempt(o, true)
	}

	a := &result{Bounds: map[string][2]int{}}
	for _, k := range in.SortedIDs() {
		if incremented[k] {
			a.Bounds[in.Key(k)] = [2]int{lo[k], hi[k]}
		}
	}

	// Bounds check on every committed read; each transaction is
	// independent, so fan out with ordered collection.
	oks := h.OKPositions()
	a.Anomalies = anomaly.AppendGroups(a.Anomalies, par.Map(opts.Parallelism, len(oks), func(i int) []anomaly.Anomaly {
		o := h.Ops[oks[i]]
		var out []anomaly.Anomaly
		for _, m := range o.Mops {
			if m.F != op.FRead || !m.RegKnown {
				continue
			}
			v := m.Reg
			if v == op.NilVersion {
				v = 0 // a nil read counts as 0
			}
			k := kid(m.Key)
			l, hb := lo[k], hi[k]
			if v < l || v > hb {
				out = append(out, anomaly.Anomaly{
					Type: anomaly.GarbageRead,
					Ops:  []op.Op{o},
					Key:  m.Key,
					Explanation: fmt.Sprintf(
						"%s read counter %s = %d, outside the possible envelope [%d, %d] of all attempted increments",
						o.Name(), m.Key, v, l, hb),
				})
			}
		}
		return out
	}))

	// Session monotonicity for non-negative counters: a process's
	// successive observations must not decrease. Sessions are independent
	// per process; walk them in sorted process order so reports don't
	// inherit map iteration order.
	byProcess := h.ByProcess()
	procs := make([]int, 0, len(byProcess))
	for p := range byProcess {
		procs = append(procs, p)
	}
	sort.Ints(procs)
	a.Anomalies = anomaly.AppendGroups(a.Anomalies, par.Map(opts.Parallelism, len(procs), func(i int) []anomaly.Anomaly {
		var out []anomaly.Anomaly
		last := map[history.KeyID][2]int{} // per key: the last value read, and its reader's index
		for _, o := range byProcess[procs[i]] {
			if o.Type != op.OK {
				continue
			}
			for _, m := range o.Mops {
				if m.F != op.FRead || !m.RegKnown {
					continue
				}
				k := kid(m.Key)
				if !incremented[k] || !nonNegative[k] {
					continue
				}
				v := m.Reg
				if v == op.NilVersion {
					v = 0
				}
				if prev, seen := last[k]; seen && v < prev[0] {
					po, _ := h.Op(prev[1])
					out = append(out, anomaly.Anomaly{
						Type: anomaly.Internal,
						Ops:  []op.Op{po, o},
						Key:  m.Key,
						Explanation: fmt.Sprintf(
							"process %d observed counter %s fall from %d (%s) to %d (%s) despite only non-negative increments: a non-monotonic session read",
							o.Process, m.Key, prev[0], po.Name(), v, o.Name()),
					})
				}
				last[k] = [2]int{v, o.Index}
			}
		}
		return out
	}))
	return a
}
