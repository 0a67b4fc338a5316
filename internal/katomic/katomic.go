// Package katomic implements the real-time register analysis of the
// katomic workload: atomicity and k-atomicity checking of single-object
// read/write registers ordered by invocation/completion intervals,
// after Golab, Hurwitz & Li, "On the k-Atomicity-Verification Problem"
// (see PAPERS.md), whose zone-based test generalizes Gibbons & Korach's
// classic atomicity verification.
//
// This is the one workload whose model is real time, not dependency
// graphs: instead of inferring ww/wr/rw edges from version orders, the
// analysis asks whether some linearization of the observed intervals
// serves every read an acceptably fresh value. Transactions are single
// operations (one read or one blind write of a unique value), so an
// op's interval is its transaction's interval.
//
// Model. Each write of value v opens a cluster C_v = {w_v} ∪ {committed
// reads returning v}; reads of the initial nil state join a virtual
// cluster whose write precedes the history. A cluster's zone is
// (t_min, t_max): t_min the earliest completion and t_max the latest
// invocation among its ops. After well-formedness (unique writes, no
// reads of unwritten values, no read completing before its value's
// write was invoked), the history is atomic — 1-atomic — iff no two
// zones conflict, where zones u ≠ v conflict when
//
//	t_min(u) < t_max(v)  and  t_min(v) < t_max(u).
//
// (For two "forward" zones this is interval overlap; the symmetric form
// also catches conflicts involving backward zones, and a short
// telescoping argument shows any longer cycle of the t_min/t_max
// relation implies such a 2-cycle, so the pairwise test is exact.)
//
// For non-atomic histories exact minimal-k verification is open for
// k >= 3, so the analyzer reports a certified value instead: an
// explicit witness linearization — every op placed at the earliest
// completion among its cluster's ops, writes before reads on ties,
// which is provably a linear extension of real-time precedence —
// certifies the history k-atomic for the schedule's worst read
// staleness, and the maximum number of pairwise-overlapping stale
// intervals [write completion, last read invocation] proves a lower
// bound. The reported K is the certified (witnessed) value; the true
// minimum lies in [LowerBound, K].
//
// Writes whose outcome is unknown (info ops, crashed invocations) may
// have committed at any later time: they enter their cluster with an
// unbounded completion, which keeps the analysis sound — an unread
// indeterminate write constrains nothing, and one whose value was read
// is pinned by its readers.
package katomic

import (
	"fmt"
	"math"
	"sort"
	"strconv"

	"repro/internal/anomaly"
	"repro/internal/explain"
	"repro/internal/graph"
	"repro/internal/history"
	"repro/internal/op"
	"repro/internal/workload"
)

const (
	negInf = math.MinInt64 / 4 // the virtual initial write's interval
	posInf = math.MaxInt64 / 4 // completion of indeterminate writes
)

// keyResult is the per-register outcome.
type keyResult struct {
	Key string
	// Writes counts the committed and indeterminate writes analyzed;
	// Reads the committed reads (nil observations included).
	Writes, Reads int
	// K is the certified minimal k: 1 means atomic, k >= 2 means the
	// witness schedule serves every read within the k freshest values
	// and the zone test proves no schedule achieves 1. 0 means the
	// analysis was skipped (see Skipped).
	K int
	// LowerBound is the proven lower bound on the true minimal k.
	LowerBound int
	// Conflicts counts the conflicting zone pairs.
	Conflicts int
	// Skipped reports that duplicate writes destroyed recoverability
	// for this key, so no k claim is made.
	Skipped bool
}

// result is the outcome of k-atomicity checking.
type result struct {
	// K is the largest certified minimal k across keys: 1 means every
	// analyzed register is atomic, 0 means no register data was
	// analyzed (or every key was skipped). Meaningful only when no
	// structural anomalies were reported.
	K int
	// PerKey holds each analyzed register's result.
	PerKey map[string]keyResult
	// Anomalies in deterministic report order.
	Anomalies []anomaly.Anomaly
}

// obs is one committed read observation.
type obs struct {
	start, end int64
	o          op.Op
}

// cluster is one value's write plus the reads returning it.
type cluster struct {
	value        int
	isNil        bool
	hasW         bool
	wStart, wEnd int64
	w            op.Op
	dup          []op.Op // every writer, when more than one wrote value
	reads        []obs
	tMin, tMax   int64
	placed       int // 1-based write position in the witness schedule
}

func (c *cluster) valueName() string {
	if c.isNil {
		return "nil"
	}
	return strconv.Itoa(c.value)
}

// keyAgg accumulates one register's ops in history order.
type keyAgg struct {
	clusters map[int]*cluster
	order    []*cluster
	nilReads []obs
	aborted  map[int]op.Op // value -> first known-aborted writer
	writes   int
	reads    int
}

func (a *keyAgg) cluster(v int) *cluster {
	c, ok := a.clusters[v]
	if !ok {
		c = &cluster{value: v}
		a.clusters[v] = c
		a.order = append(a.order, c)
	}
	return c
}

func (a *keyAgg) addWrite(v int, start, end int64, o op.Op) {
	a.writes++
	c := a.cluster(v)
	if c.hasW {
		if len(c.dup) == 0 {
			c.dup = append(c.dup, c.w)
		}
		c.dup = append(c.dup, o)
		return
	}
	c.hasW = true
	c.w = o
	c.wStart, c.wEnd = start, end
}

func (a *keyAgg) addRead(v int, start, end int64, o op.Op) {
	a.reads++
	c := a.cluster(v)
	c.reads = append(c.reads, obs{start: start, end: end, o: o})
}

// Analyze checks a register history for atomicity and k-atomicity. The
// analysis is sequential and deterministic; of the shared options none
// apply (Parallelism is honored trivially).
func Analyze(h *history.History, opts workload.Opts) workload.Analysis {
	r := check(h)
	// The k-atomicity test is a real-time interval analysis, not a
	// dependency inference: there are no ww/wr/rw edges to hand the
	// cycle search, so the graph is empty and the verdict flows out
	// entirely through anomalies (KAtomicViolation carries the certified
	// minimal k).
	return workload.Analysis{
		Graph:     graph.New(),
		Anomalies: r.Anomalies,
		Explainer: &explain.Explainer{Ops: h},
	}
}

// check runs the zone test over every register of h.
func check(h *history.History) *result {
	in := h.Keys()
	aggs := make([]*keyAgg, in.Len())
	agg := func(id history.KeyID) *keyAgg {
		if aggs[id] == nil {
			aggs[id] = &keyAgg{clusters: map[int]*cluster{}, aborted: map[int]op.Op{}}
		}
		return aggs[id]
	}
	kid := in.MustID

	for pos, o := range h.Ops {
		if o.Type == op.Invoke {
			continue
		}
		start64, end64 := spanOf(h, pos)
		switch o.Type {
		case op.OK:
			for _, m := range o.Mops {
				switch {
				case m.F == op.FWrite:
					agg(kid(m.Key)).addWrite(m.Arg, start64, end64, o)
				case m.F == op.FRead && m.RegKnown && m.Reg == op.NilVersion:
					a := agg(kid(m.Key))
					a.reads++
					a.nilReads = append(a.nilReads, obs{start: start64, end: end64, o: o})
				case m.F == op.FRead && m.RegKnown:
					agg(kid(m.Key)).addRead(m.Reg, start64, end64, o)
				}
			}
		case op.Info:
			for _, m := range o.Mops {
				if m.F == op.FWrite {
					agg(kid(m.Key)).addWrite(m.Arg, start64, posInf, o)
				}
			}
		case op.Fail:
			for _, m := range o.Mops {
				if m.F == op.FWrite {
					a := agg(kid(m.Key))
					if _, seen := a.aborted[m.Arg]; !seen {
						a.aborted[m.Arg] = o
					}
				}
			}
		}
	}
	// Invocations that never completed are crashed clients: their writes
	// may have committed, so they must join their clusters as
	// indeterminate rather than vanish.
	for _, o := range h.Crashed() {
		for _, m := range o.Mops {
			if m.F == op.FWrite {
				agg(kid(m.Key)).addWrite(m.Arg, int64(o.Index), posInf, o)
			}
		}
	}

	out := &result{PerKey: map[string]keyResult{}}
	for _, id := range in.SortedIDs() {
		a := aggs[id]
		if a == nil {
			continue
		}
		kr, anoms := analyzeKey(in.Key(id), a)
		out.PerKey[kr.Key] = kr
		out.Anomalies = append(out.Anomalies, anoms...)
		if kr.K > out.K {
			out.K = kr.K
		}
	}
	return out
}

// spanOf returns the invoke/completion indices of the completion at
// position pos as int64 times.
func spanOf(h *history.History, pos int) (int64, int64) {
	s, e := h.Span(pos)
	return int64(s), int64(e)
}

// analyzeKey runs the zone test over one register's accumulated ops.
func analyzeKey(key string, a *keyAgg) (keyResult, []anomaly.Anomaly) {
	var anoms []anomaly.Anomaly
	res := keyResult{Key: key, Writes: a.writes, Reads: a.reads}

	// Well-formedness: reads of unwritten values are aborted reads when
	// the only known writer aborted, garbage otherwise; reads completing
	// before their value's write was invoked cannot have come from it.
	var zones []*cluster
	skipped := false
	for _, c := range a.order {
		if !c.hasW {
			for _, r := range c.reads {
				if ab, ok := a.aborted[c.value]; ok {
					anoms = append(anoms, anomaly.Anomaly{
						Type: anomaly.G1a, Key: key, Ops: []op.Op{ab, r.o},
						Explanation: fmt.Sprintf(
							"%s read %s = %d, a value written only by %s, which aborted",
							r.o.Name(), key, c.value, ab.Name()),
					})
					continue
				}
				anoms = append(anoms, anomaly.Anomaly{
					Type: anomaly.GarbageRead, Key: key, Ops: []op.Op{r.o},
					Explanation: fmt.Sprintf(
						"%s read %s = %d, a value no transaction wrote",
						r.o.Name(), key, c.value),
				})
			}
			continue
		}
		if len(c.dup) > 0 {
			writers := make([]string, len(c.dup))
			for i, w := range c.dup {
				writers[i] = w.Name()
			}
			anoms = append(anoms, anomaly.Anomaly{
				Type: anomaly.DuplicateAppends, Key: key, Ops: c.dup,
				Explanation: fmt.Sprintf(
					"value %d of register %s was written by %d transactions (%s); unique write arguments are what make value clusters recoverable, so the k-atomicity analysis is skipped for this key",
					c.value, key, len(c.dup), joinNames(writers)),
			})
			skipped = true
			continue
		}
		kept := c.reads[:0:0]
		for _, r := range c.reads {
			if r.end < c.wStart {
				anoms = append(anoms, anomaly.Anomaly{
					Type: anomaly.GarbageRead, Key: key, Ops: []op.Op{r.o, c.w},
					Explanation: fmt.Sprintf(
						"%s read %s = %d and completed before %s, the only write of that value, was invoked — the value cannot have come from it",
						r.o.Name(), key, c.value, c.w.Name()),
				})
				continue
			}
			kept = append(kept, r)
		}
		c.reads = kept
		zones = append(zones, c)
	}
	if skipped {
		res.Skipped = true
		return res, anoms
	}
	if len(a.nilReads) > 0 {
		nilC := &cluster{isNil: true, hasW: true, wStart: negInf, wEnd: negInf, reads: a.nilReads}
		zones = append([]*cluster{nilC}, zones...)
	}

	// Zones and the pairwise conflict test.
	for _, c := range zones {
		c.tMin, c.tMax = c.wEnd, c.wStart
		for _, r := range c.reads {
			if r.end < c.tMin {
				c.tMin = r.end
			}
			if r.start > c.tMax {
				c.tMax = r.start
			}
		}
	}
	conflicts := 0
	var witU, witV *cluster
	for i := 0; i < len(zones); i++ {
		for j := i + 1; j < len(zones); j++ {
			u, v := zones[i], zones[j]
			if u.tMin < v.tMax && v.tMin < u.tMax {
				if conflicts == 0 {
					witU, witV = u, v
				}
				conflicts++
			}
		}
	}
	res.Conflicts = conflicts
	if conflicts == 0 {
		res.K, res.LowerBound = 1, 1
		return res, anoms
	}

	// Witness schedule: every cluster op placed at the earliest
	// completion among the cluster's ops (which is a linear extension of
	// real-time precedence; writes first on ties), certifying the
	// schedule's worst read staleness as an achieved k.
	type item struct {
		key   int64
		write bool
		idx   int
		c     *cluster
		r     obs
	}
	var items []item
	for _, c := range zones {
		k := c.wEnd
		for _, r := range c.reads {
			if r.end < k {
				k = r.end
			}
		}
		wIdx := -1
		if !c.isNil {
			wIdx = c.w.Index
		}
		items = append(items, item{key: k, write: true, idx: wIdx, c: c})
		for _, r := range c.reads {
			items = append(items, item{key: r.end, idx: r.o.Index, c: c, r: r})
		}
	}
	sort.Slice(items, func(i, j int) bool {
		if items[i].key != items[j].key {
			return items[i].key < items[j].key
		}
		if items[i].write != items[j].write {
			return items[i].write
		}
		return items[i].idx < items[j].idx
	})
	writeCount, kUp := 0, 1
	var witRead obs
	var witCl *cluster
	for _, it := range items {
		if it.write {
			writeCount++
			it.c.placed = writeCount
			continue
		}
		if kr := writeCount - it.c.placed + 1; kr > kUp {
			kUp, witRead, witCl = kr, it.r, it.c
		}
	}

	// Lower bound: d pairwise-overlapping intervals [write completion,
	// last read invocation] of distinct values mean d completed writes
	// all real-time-precede d reads of d distinct values; in any
	// linearization the earliest-placed of those values is read at
	// staleness >= d. Any zone conflict independently proves k >= 2.
	type ev struct {
		t int64
		d int
	}
	var evs []ev
	for _, c := range zones {
		last := int64(negInf)
		for _, r := range c.reads {
			if r.start > last {
				last = r.start
			}
		}
		if len(c.reads) == 0 || last < c.wEnd {
			continue
		}
		evs = append(evs, ev{c.wEnd, +1}, ev{last, -1})
	}
	sort.Slice(evs, func(i, j int) bool {
		if evs[i].t != evs[j].t {
			return evs[i].t < evs[j].t
		}
		return evs[i].d > evs[j].d
	})
	depth, kLo := 0, 2
	for _, e := range evs {
		depth += e.d
		if depth > kLo {
			kLo = depth
		}
	}
	res.LowerBound = kLo
	res.K = kUp
	if res.K < kLo {
		res.K = kLo
	}

	witOps := []op.Op{witRead.o}
	if witCl != nil && !witCl.isNil {
		witOps = append(witOps, witCl.w)
	}
	anoms = append(anoms, anomaly.Anomaly{
		Type: anomaly.KAtomicViolation, Key: key, K: res.K, Ops: witOps,
		Explanation: fmt.Sprintf(
			"register %s is not atomic but is %d-atomic: %d conflicting zone pair(s) among %d value(s), e.g. the zones of %s and %s overlap in real time; witness: %s observed %s = %s, %d write(s) stale in the certifying schedule; proven lower bound: k >= %d",
			key, res.K, conflicts, len(zones), witU.valueName(), witV.valueName(),
			witRead.o.Name(), key, witCl.valueName(), kUp-1, kLo),
	})
	return res, anoms
}

func joinNames(names []string) string {
	out := ""
	for i, n := range names {
		if i > 0 {
			out += ", "
		}
		out += n
	}
	return out
}
