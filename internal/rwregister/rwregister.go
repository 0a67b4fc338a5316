// Package rwregister implements Elle's analysis for read-write registers
// (§5.2 and the Dgraph case study, §7.4 of the paper).
//
// Blind register writes destroy history: a read of x=3 says nothing about
// which versions preceded 3. The analyzer therefore infers a *partial*
// version order per key from small, independent assumptions:
//
//   - Initial state: the initial version nil is never reachable via any
//     write, so nil <x v for every other observed version v.
//   - Writes follow reads: if a transaction reads x=v and later writes
//     x=v', then v <x v' (and consecutive writes in one transaction order
//     their versions likewise).
//   - Per-key linearizability (optional): if the database claims each key
//     is independently linearizable, then when transaction A finishes
//     reading or writing x at vi before transaction B begins and observes
//     vj, we infer vi <x vj from the real-time order.
//
// Inferred per-key version orders can be cyclic when the database
// misbehaves (Dgraph returned nil for keys written seconds earlier). Such
// keys are reported as cyclic-version-order anomalies and discarded, so
// they cannot seed trivial transaction cycles — exactly the behavior the
// paper describes. Acyclic orders are transitively reduced and exploded
// into ww / wr / rw transaction dependencies using recoverability (every
// written value unique).
package rwregister

import (
	"fmt"
	"iter"

	"repro/internal/anomaly"
	"repro/internal/explain"
	"repro/internal/graph"
	"repro/internal/history"
	"repro/internal/op"
	"repro/internal/par"
	"repro/internal/workload"
)

// analyzer carries the indices built over one history. Everything known
// about a key — its value table, the transactions that touched it, its
// inferred version order — lives in one keyState indexed by the history
// interner's dense KeyID (see history.Interner), so the inference loops
// hash small ints within one key, never (key, value) pairs.
type analyzer struct {
	opts workload.Opts
	in   *history.Interner

	ops       history.Lookup   // the ops findings cite: the history, or a session's
	h         *history.History // the whole history, once finish has it
	oks       []int32          // positions in h.Ops of the committed ops, likewise
	keyst     []*keyState      // per-key state by KeyID; nil for keys never written or read
	stale     []history.KeyID  // keys whose tables changed since their last inference
	anomalies []anomaly.Anomaly
}

// op is the completion op with index i.
func (a *analyzer) op(i int) op.Op {
	o, _ := a.ops.Op(i)
	return o
}

// ok is the i'th committed op, once finish has the whole history.
func (a *analyzer) ok(i int) op.Op { return a.h.Ops[a.oks[i]] }

// kid resolves an interned key (see history.Interner.MustID).
func (a *analyzer) kid(k string) history.KeyID { return a.in.MustID(k) }

// key returns k's state, creating it on first use.
func (a *analyzer) key(k history.KeyID) *keyState {
	a.keyst = history.GrowKeyed(a.keyst, k)
	if a.keyst[k] == nil {
		a.keyst[k] = &keyState{ix: map[int]int32{op.NilVersion: 0}, tab: []verState{{val: op.NilVersion}}}
	}
	return a.keyst[k]
}

// find returns the row for value v of key k, or nil if no completed op
// wrote v to it or read v from it. The pointer is valid until the next
// addOp.
func (a *analyzer) find(k history.KeyID, v int) *verState {
	if int(k) < len(a.keyst) && a.keyst[k] != nil {
		if i, ok := a.keyst[k].ix[v]; ok {
			return &a.keyst[k].tab[i]
		}
	}
	return nil
}

// verState is one row of a key's value table: one version of the
// register — the initial nil, or a value somebody wrote or read — with
// who wrote it and who read it.
type verState struct {
	val     int
	first   int   // op index of the first completed write, once writes > 0
	writes  int32 // completed writes; exactly one keeps the version recoverable
	failed  bool  // the first write aborted
	crashed bool  // an invocation that never completed wrote it
	readers []int // committed transactions that read it, ascending op index
}

// sole returns the op index of the version's only write when there is
// exactly one and it aborted (failed) or did not (!failed): the
// recoverable writer, tracked apart by outcome for G1a detection.
func (vs *verState) sole(failed bool) (int, bool) {
	return vs.first, vs.writes == 1 && vs.failed == failed
}

// keyOp is one committed transaction's footprint on a key: when it ran,
// and the table rows of the first and last versions it touched (wrote,
// or read with a known result). Its completion index is its op index.
type keyOp struct {
	index, process, invoke int
	first, last            int32
}

// keyState is one key's inference state: its value table, the committed
// transactions that touched it, and the version order inferred from the
// two. Analyze builds it for every key at once; a streaming session
// maintains it across feeds.
type keyState struct {
	ix  map[int]int32 // value -> row of tab
	tab []verState    // row 0 is the initial nil version
	ops []keyOp       // index order
	// wfr holds the writes-follow-reads pairs: the version a transaction
	// had last touched, then the one it wrote over it.
	wfr [][2]int32

	res   keyResult // inference over the above, current unless stale
	stale bool
}

// row returns the index of v's row, adding it on first sight.
func (ks *keyState) row(v int) int32 {
	i, ok := ks.ix[v]
	if !ok {
		i = int32(len(ks.tab))
		ks.ix[v] = i
		ks.tab = append(ks.tab, verState{val: v})
	}
	return i
}

// Analyze infers dependencies and anomalies for a register history. Of
// the shared options it consumes Parallelism and KeyConsistency, which
// decides whether session and real-time order constrain each key's
// versions (see versionGraph).
func Analyze(h *history.History, opts workload.Opts) workload.Analysis {
	a := &analyzer{opts: opts, in: h.Keys(), ops: h}
	for pos, o := range h.Ops {
		if o.Type != op.Invoke {
			inv, _ := h.Span(pos)
			a.addOp(o, inv)
		}
	}
	return a.finish(h)
}

// finish is the analysis's one phase sequence, shared by the batch
// Analyze and the streaming session's Finish so the two agree by
// construction: over the per-key state addOp built it brings every
// stale key's inference up to date, runs the per-transaction checks,
// then merges per-key findings and edges in key-name order, so the
// graph and anomaly list are identical at every parallelism level. The
// per-key state is complete before the first per-transaction fan-out
// and read-only from then on.
func (a *analyzer) finish(h *history.History) workload.Analysis {
	p := a.opts.Parallelism
	a.ops, a.h, a.oks = h, h, h.OKPositions()
	a.refresh()
	// A write whose invocation never completed may still have taken
	// effect: reading it is not garbage. It gains no writer and no edge.
	for _, o := range h.Crashed() {
		for _, m := range o.Mops {
			if m.F != op.FWrite {
				continue
			}
			if vs := a.find(a.kid(m.Key), m.Arg); vs != nil {
				vs.crashed = true
			}
		}
	}
	var keys []history.KeyID
	for k, ks := range a.keyst {
		if ks != nil {
			keys = append(keys, history.KeyID(k))
		}
	}
	a.in.SortKeyIDs(keys)
	a.anomalies = append(a.anomalies, a.duplicateWriteAnomalies(keys)...)

	// Per-transaction checks are independent per committed op; fan them
	// out with ordered collection so the report order matches the
	// sequential one.
	a.collect(par.Map(p, len(a.oks), func(i int) []anomaly.Anomaly {
		return a.internalAnomalies(a.ok(i))
	}))
	a.anomalies = append(a.anomalies, a.abortedReadAnomalies()...)
	a.collect(par.Map(p, len(a.oks), func(i int) []anomaly.Anomaly {
		return a.readAnomalies(a.ok(i))
	}))

	g := graph.New()
	for i := range a.oks {
		g.Ensure(a.ok(i).Index)
	}
	orders := make([][][2]int, a.in.Len())
	for _, k := range keys {
		r := a.keyst[k].res
		if r.cyclic != nil {
			a.anomalies = append(a.anomalies, cvoAnomaly(a.in.Key(k), r.cyclic))
			continue
		}
		orders[k] = r.verEdges
		g.AddEdges(r.edges)
		a.keyst[k].res.edges = nil // merged: the graph holds them now
	}
	a.emitWR(g, keys)
	return workload.Analysis{
		Graph:     g,
		Anomalies: a.anomalies,
		Explainer: &explain.Explainer{Ops: h, Keys: a.in, RegOrders: orders},
	}
}

// refresh re-runs per-key inference — building, cycle-checking, reducing
// and exploding the version order, independent per key — for every key
// whose table changed since its last result, and returns those keys in
// name order.
func (a *analyzer) refresh() []history.KeyID {
	keys := a.stale
	a.stale = nil
	a.in.SortKeyIDs(keys)
	par.Do(a.opts.Parallelism, len(keys), func(i int) {
		ks := a.keyst[keys[i]]
		ks.res, ks.stale = a.analyzeKey(ks), false
	})
	return keys
}

func (a *analyzer) collect(groups [][]anomaly.Anomaly) {
	a.anomalies = anomaly.AppendGroups(a.anomalies, groups)
}

// addOp indexes one completion op: per touched key the value-table rows
// of its writes — with their recoverability transitions: the first write
// of a value is its writer, a second destroys recoverability — and of
// its committed reads, plus the transaction's footprint on the key. Ops
// must be added in ascending index order; invoke is the index of o's
// invocation.
func (a *analyzer) addOp(o op.Op, invoke int) {
	for _, m := range o.Mops {
		write := m.F == op.FWrite
		if !write && !(m.F == op.FRead && o.Type == op.OK && m.RegKnown) {
			continue
		}
		k := a.kid(m.Key)
		ks := a.key(k)
		var row int32
		if write {
			row = ks.row(m.Arg)
			vs := &ks.tab[row]
			if vs.writes++; vs.writes == 1 {
				vs.first, vs.failed = o.Index, o.Type == op.Fail
			}
		} else {
			row = ks.row(m.Reg) // a nil read touches row 0
		}
		if !ks.stale {
			ks.stale = true
			a.stale = append(a.stale, k)
		}
		if o.Type != op.OK {
			continue
		}
		// Ops arrive in ascending index order, so trailing-element checks
		// dedupe a transaction's repeated reads and repeated keys.
		if vs := &ks.tab[row]; !write && (len(vs.readers) == 0 || vs.readers[len(vs.readers)-1] != o.Index) {
			vs.readers = append(vs.readers, o.Index)
		}
		if n := len(ks.ops); n > 0 && ks.ops[n-1].index == o.Index {
			ko := &ks.ops[n-1]
			if write && ko.last != row {
				ks.wfr = append(ks.wfr, [2]int32{ko.last, row})
			}
			ko.last = row
		} else {
			ks.ops = append(ks.ops, keyOp{index: o.Index, process: o.Process, invoke: invoke, first: row, last: row})
		}
	}
}

// duplicateWriteAnomalies reports every value written more than once,
// in (key name, value) order.
func (a *analyzer) duplicateWriteAnomalies(keys []history.KeyID) []anomaly.Anomaly {
	var out []anomaly.Anomaly
	for _, k := range keys {
		ks, kname := a.keyst[k], a.in.Key(k)
		for _, row := range ks.res.order {
			if vs := &ks.tab[row]; vs.writes > 1 {
				out = append(out, dupAnomaly(kname, vs))
			}
		}
	}
	return out
}

// dupAnomaly renders one duplicate-write finding; the streaming session
// uses the same rendering for mid-stream surfacing.
func dupAnomaly(k string, vs *verState) anomaly.Anomaly {
	return anomaly.Anomaly{
		Type: anomaly.DuplicateAppends,
		Key:  k,
		Explanation: fmt.Sprintf(
			"value %d was written to key %s by %d transactions; writes must be unique for versions to be recoverable",
			vs.val, k, vs.writes),
	}
}

// cvoAnomaly renders one cyclic-version-order finding; the streaming
// session uses the same rendering for mid-stream surfacing.
func cvoAnomaly(k string, cyc []int) anomaly.Anomaly {
	return anomaly.Anomaly{
		Type: anomaly.CyclicVersionOrder,
		Key:  k,
		Explanation: fmt.Sprintf(
			"the inferred version order for key %s is cyclic (%s); its version edges are discarded to avoid trivial transaction cycles",
			k, formatVersionCycle(cyc)),
	}
}

// abortedReads yields, in program order, each read of committed o that
// observed a value whose only write aborted, with that write's op index:
// an aborted read (G1a).
func (a *analyzer) abortedReads(o op.Op) iter.Seq2[op.Mop, int] {
	return func(yield func(op.Mop, int) bool) {
		for _, m := range o.Mops {
			if m.F != op.FRead || !m.RegKnown || m.Reg == op.NilVersion {
				continue
			}
			if w, ok := a.find(a.kid(m.Key), m.Reg).sole(true); ok && !yield(m, w) {
				return
			}
		}
	}
}

// abortedReadAnomalies finds G1a — reads of values written by aborted
// transactions — in transaction, then program order.
func (a *analyzer) abortedReadAnomalies() []anomaly.Anomaly {
	var out []anomaly.Anomaly
	for i := range a.oks {
		o := a.ok(i)
		for m, w := range a.abortedReads(o) {
			out = append(out, g1aAnomaly(o, m.Key, m.Reg, a.op(w)))
		}
	}
	return out
}

// readAnomalies detects garbage reads (values nobody wrote, crashed
// clients included) and G1b (intermediate values) in one committed
// transaction. G1a is abortedReadAnomalies' pass; classification
// stable-sorts by (severity, type), so the report separates garbage
// reads, G1a and G1b however they interleave in the raw list.
func (a *analyzer) readAnomalies(o op.Op) []anomaly.Anomaly {
	var out []anomaly.Anomaly
	for _, m := range o.Mops {
		if m.F != op.FRead || !m.RegKnown || m.Reg == op.NilVersion {
			continue
		}
		vs := a.find(a.kid(m.Key), m.Reg)
		if vs.writes == 0 {
			if !vs.crashed {
				out = append(out, anomaly.Anomaly{
					Type: anomaly.GarbageRead,
					Ops:  []op.Op{o},
					Key:  m.Key,
					Explanation: fmt.Sprintf(
						"%s read key %s = %d, but no transaction ever wrote %d to %s",
						o.Name(), m.Key, m.Reg, m.Reg, m.Key),
				})
			}
			continue
		}
		if w, ok := vs.sole(false); ok && w != o.Index {
			wo := a.op(w)
			if fin, has := finalWrite(wo, m.Key); has && fin != m.Reg {
				out = append(out, anomaly.Anomaly{
					Type: anomaly.G1b,
					Ops:  []op.Op{o, wo},
					Key:  m.Key,
					Explanation: fmt.Sprintf(
						"%s read key %s = %d, an intermediate write of %s (whose final write was %d): an intermediate read",
						o.Name(), m.Key, m.Reg, wo.Name(), fin),
				})
			}
		}
	}
	return out
}

// internalAnomalies verifies register semantics within one transaction:
// after writing v, reads of the key must return v; after reading v,
// subsequent reads must return v until overwritten.
func (a *analyzer) internalAnomalies(o op.Op) []anomaly.Anomaly {
	var out []anomaly.Anomaly
	// What the transaction must believe about each key it has touched. A
	// transaction touches a handful of keys: a small slice searched
	// linearly.
	type view struct {
		key   string
		known bool
		ver   int
	}
	var buf [4]view
	views := buf[:0]
	for _, m := range o.Mops {
		i := 0
		for i < len(views) && views[i].key != m.Key {
			i++
		}
		if i == len(views) {
			views = append(views, view{key: m.Key})
		}
		s := &views[i]
		switch m.F {
		case op.FWrite:
			s.known, s.ver = true, m.Arg
		case op.FRead:
			if !m.RegKnown {
				continue
			}
			v := m.Reg
			if s.known && s.ver != v {
				out = append(out, anomaly.Anomaly{
					Type: anomaly.Internal,
					Ops:  []op.Op{o},
					Key:  m.Key,
					Explanation: fmt.Sprintf(
						"%s read key %s = %s, but its own prior operations imply the value must be %s: an internal inconsistency",
						o.Name(), m.Key, op.FormatVersion(v), op.FormatVersion(s.ver)),
				})
			}
			s.known, s.ver = true, v
		}
	}
	return out
}

// g1aAnomaly renders one aborted-read finding: reader observed value v
// of key, written by the aborted writer. The streaming session uses the
// same rendering for mid-stream surfacing.
func g1aAnomaly(reader op.Op, key string, v int, writer op.Op) anomaly.Anomaly {
	return anomaly.Anomaly{
		Type: anomaly.G1a,
		Ops:  []op.Op{reader, writer},
		Key:  key,
		Explanation: fmt.Sprintf(
			"%s read key %s = %d, which was written by %s, which aborted: an aborted read",
			reader.Name(), key, v, writer.Name()),
	}
}

// finalWrite returns the last value o wrote to key.
func finalWrite(o op.Op, key string) (int, bool) {
	v, has := 0, false
	for _, m := range o.Mops {
		if m.F == op.FWrite && m.Key == key {
			v, has = m.Arg, true
		}
	}
	return v, has
}
