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
	"math"
	"sort"

	"repro/internal/anomaly"
	"repro/internal/explain"
	"repro/internal/graph"
	"repro/internal/history"
	"repro/internal/op"
	"repro/internal/par"
	"repro/internal/rel"
	"repro/internal/workload"
)

// nilVer encodes the initial version in per-key version graphs.
const nilVer = math.MinInt64

// Analysis is the result of register dependency inference.
type Analysis struct {
	// Graph holds inferred ww, wr, and rw transaction dependencies.
	Graph *graph.Graph
	// Anomalies are non-cycle anomalies found during inference.
	Anomalies []anomaly.Anomaly
	// Keys is the history's key interner; VersionOrders is indexed by
	// its KeyIDs.
	Keys *history.Interner
	// VersionOrders holds, per KeyID, the direct edges of the reduced
	// version order actually used for inference (nil encoded as "nil");
	// keys with a cyclic or empty order have a nil entry.
	VersionOrders [][][2]string
	// Ops indexes analyzed completion ops by index.
	Ops map[int]op.Op
}

// VersionOrder returns the direct version edges inferred for key, or
// nil.
func (a *Analysis) VersionOrder(key string) [][2]string {
	id, ok := a.Keys.ID(key)
	if !ok || int(id) >= len(a.VersionOrders) {
		return nil
	}
	return a.VersionOrders[id]
}

type verKey struct {
	key history.KeyID
	val int
}

type analyzer struct {
	opts workload.Opts
	in   *history.Interner

	ops          map[int]op.Op
	oks          []op.Op
	byKey        [][]op.Op // committed ops touching each key, in index order
	spanOf       map[int][2]int
	writer       map[verKey]int // recoverable committed/indeterminate writer
	failedWriter map[verKey]int
	writeCount   map[verKey]int
	readers      map[verKey][]int // ok transactions that read (key, val)
	anomalies    []anomaly.Anomaly

	// failedIx indexes failed_write(key, value, writer) tuples — the
	// build side of the relational G1a scan, which probes it in one
	// lookup join over the whole history. It is constructed once
	// (buildRelIndexes), after ingestion, and is immutable from then
	// on.
	failedIx *rel.Index

	// windowed marks a memory-budgeted streaming session: oks is not
	// accumulated (the budgeted Finish re-analyzes the rehydrated
	// history instead of reading it).
	windowed bool
}

// newAnalyzer returns an analyzer with empty indices over the given
// interner (the history's in batch runs, the stream's in sessions).
func newAnalyzer(opts workload.Opts, in *history.Interner) *analyzer {
	return &analyzer{
		opts:         opts,
		in:           in,
		ops:          map[int]op.Op{},
		spanOf:       map[int][2]int{},
		writer:       map[verKey]int{},
		failedWriter: map[verKey]int{},
		writeCount:   map[verKey]int{},
		readers:      map[verKey][]int{},
	}
}

// kid resolves an interned key (see history.Interner.MustID).
func (a *analyzer) kid(k string) history.KeyID { return a.in.MustID(k) }

// byKeyAt reads the KeyID-indexed op grouping, which streaming sessions
// grow on demand.
func (a *analyzer) byKeyAt(k history.KeyID) []op.Op {
	if int(k) < len(a.byKey) {
		return a.byKey[k]
	}
	return nil
}

// Analyze infers dependencies and anomalies for a register history. Of
// the shared options it consumes Parallelism and the four version-order
// inference rules (InitialState, WritesFollowReads, LinearizableKeys,
// SequentialKeys); workload.DefaultOpts enables every rule, matching
// the paper's Dgraph analysis.
func Analyze(h *history.History, opts workload.Opts) *Analysis {
	a := newAnalyzer(opts, h.Keys())
	for pos, o := range h.Ops {
		if o.Type == op.Invoke {
			continue
		}
		inv, comp := h.Span(pos)
		a.addOp(o, [2]int{inv, comp})
	}
	// Per-key version-graph inference — building, cycle-checking,
	// reducing, and exploding each key's version order into transaction
	// dependencies — is independent per key.
	keys := a.keys()
	return a.finish(keys, par.Map(opts.Parallelism, len(keys), func(i int) keyResult {
		return a.analyzeKey(keys[i], a.byKeyAt(keys[i]))
	}))
}

// finish is the analysis's one phase sequence, shared by the batch
// Analyze and the streaming session's Finish so the two agree by
// construction: over the indices addOp built and the per-key inference
// results (keys name-sorted, perKey parallel to it) it runs the
// per-transaction checks, then merges per-key findings and edges in
// key order, so the graph and anomaly list are identical at every
// parallelism level.
func (a *analyzer) finish(keys []history.KeyID, perKey []keyResult) *Analysis {
	p := a.opts.Parallelism
	a.anomalies = append(a.anomalies, a.duplicateWriteAnomalies()...)

	// Per-transaction checks are independent per committed op; fan them
	// out with ordered collection so the report order matches the
	// sequential one.
	a.collect(par.Map(p, len(a.oks), func(i int) []anomaly.Anomaly {
		return a.internalAnomalies(a.oks[i])
	}))
	a.buildRelIndexes()
	a.anomalies = append(a.anomalies, a.abortedReadAnomalies()...)
	a.collect(par.Map(p, len(a.oks), func(i int) []anomaly.Anomaly {
		return a.readAnomalies(a.oks[i])
	}))

	g := graph.New()
	for _, o := range a.oks {
		g.Ensure(o.Index)
	}
	orders := make([][][2]string, a.in.Len())
	for i, k := range keys {
		r := perKey[i]
		if r.cyclic != nil {
			a.report(cvoAnomaly(a.in.Key(k), r.cyclic))
			continue
		}
		orders[k] = r.verEdges
		g.AddEdges(r.edges)
	}
	a.emitWR(g)
	return &Analysis{Graph: g, Anomalies: a.anomalies, Keys: a.in, VersionOrders: orders, Ops: a.ops}
}

// workloadAnalysis is the registry-facing view of an Analysis.
func (an *Analysis) workloadAnalysis() workload.Analysis {
	return workload.Analysis{
		Graph:     an.Graph,
		Anomalies: an.Anomalies,
		Explainer: &explain.Explainer{Ops: an.Ops, Keys: an.Keys, RegOrders: an.VersionOrders},
	}
}

// keyResult is one key's inference outcome: either a cyclic-version-order
// witness, or the reduced version order plus the dependency edges it
// implies.
type keyResult struct {
	cyclic   []int
	verEdges [][2]string
	edges    []graph.Edge
}

// analyzeKey runs the whole per-key pipeline for key k: build the version
// graph from the enabled rules, reject it if cyclic, otherwise reduce it
// and explode it into transaction dependencies. oks is the key's own
// committed-op list (analyzer.byKey), maintained identically by the
// batch ingestion loop and the streaming sessions; the rules filter by
// key, so scanning only the ops that touch it changes nothing but cost.
func (a *analyzer) analyzeKey(k history.KeyID, oks []op.Op) keyResult {
	vg := a.versionGraph(k, oks)
	if cyc := cyclicWitness(vg); cyc != nil {
		return keyResult{cyclic: cyc}
	}
	reduce(vg)
	verEdges, edges := a.emitEdges(k, vg, oks)
	return keyResult{verEdges: verEdges, edges: edges}
}

func (a *analyzer) collect(groups [][]anomaly.Anomaly) {
	a.anomalies = anomaly.AppendGroups(a.anomalies, groups)
}

// addOp indexes one completion op: the op and span maps, the per-value
// write index with its recoverability transitions (first write claims
// the writer slot, a second write evicts it), and the reader index.
// Ops must be added in ascending index order.
func (a *analyzer) addOp(o op.Op, span [2]int) {
	a.ops[o.Index] = o
	a.spanOf[o.Index] = span
	if o.Type == op.OK && !a.windowed {
		a.oks = append(a.oks, o)
	}
	for _, m := range o.Mops {
		k := a.in.Intern(m.Key)
		if o.Type == op.OK {
			// Group the op under each distinct key it touches, in index
			// order — the per-key work lists analyzeKey scans. Ops arrive
			// in ascending index order, so a trailing-element check
			// dedupes repeated keys within one transaction.
			a.byKey = history.GrowKeyed(a.byKey, k)
			if n := len(a.byKey[k]); n == 0 || a.byKey[k][n-1].Index != o.Index {
				a.byKey[k] = append(a.byKey[k], o)
			}
		}
		switch {
		case m.F == op.FWrite:
			vk := verKey{k, m.Arg}
			a.writeCount[vk]++
			switch a.writeCount[vk] {
			case 1:
				if o.Type == op.Fail {
					a.failedWriter[vk] = o.Index
				} else {
					a.writer[vk] = o.Index
				}
			case 2:
				delete(a.writer, vk)
				delete(a.failedWriter, vk)
			}
		case m.F == op.FRead && o.Type == op.OK && m.RegKnown && !m.RegNil:
			vk := verKey{k, m.Reg}
			a.readers[vk] = append(a.readers[vk], o.Index)
		}
	}
}

// duplicateWriteAnomalies reports every value written more than once,
// in sorted (key, value) order.
func (a *analyzer) duplicateWriteAnomalies() []anomaly.Anomaly {
	var vks []verKey
	for vk, n := range a.writeCount {
		if n > 1 {
			vks = append(vks, vk)
		}
	}
	sort.Slice(vks, func(i, j int) bool {
		if vks[i].key != vks[j].key {
			return a.in.Less(vks[i].key, vks[j].key)
		}
		return vks[i].val < vks[j].val
	})
	var out []anomaly.Anomaly
	for _, vk := range vks {
		kname := a.in.Key(vk.key)
		out = append(out, anomaly.Anomaly{
			Type: anomaly.DuplicateAppends,
			Key:  kname,
			Explanation: fmt.Sprintf(
				"value %d was written to key %s by %d transactions; writes must be unique for versions to be recoverable",
				vk.val, kname, a.writeCount[vk]),
		})
	}
	return out
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

// buildRelIndexes prepares the immutable relational indexes the G1a
// scan probes, once, after ingestion and before abortedReadAnomalies.
func (a *analyzer) buildRelIndexes() {
	a.failedIx = rel.BuildIndex(a.failedWrites(), "key", "value")
}

// failedWrites is the relation failed_write(key, value, writer): one
// tuple per recoverable value whose only writer aborted. Build order
// over the map is arbitrary, but every (key, value) bucket holds
// exactly one tuple, so index probes are deterministic regardless.
func (a *analyzer) failedWrites() rel.Relation {
	fw := a.failedWriter
	return rel.NewRelation([]string{"key", "value", "writer"}, func(yield func(rel.Tuple) bool) {
		t := make(rel.Tuple, 3)
		for vk, w := range fw {
			t[0], t[1], t[2] = rel.Int(int(vk.key)), rel.Int(vk.val), rel.Int(w)
			if !yield(t) {
				return
			}
		}
	})
}

// allReadRegs is the relation read_reg(key, value, txn, mop) over
// every committed transaction: every known non-nil register read, in
// transaction and program order — the probe side of the relational
// G1a scan. One relation spans the whole history so the join pipeline
// is constructed once per analysis, not once per transaction.
func (a *analyzer) allReadRegs() rel.Relation {
	return rel.NewRelation([]string{"key", "value", "txn", "mop"}, func(yield func(rel.Tuple) bool) {
		t := make(rel.Tuple, 4)
		for oi, o := range a.oks {
			for pos, m := range o.Mops {
				if m.F != op.FRead || !m.RegKnown || m.RegNil {
					continue
				}
				t[0], t[1], t[2], t[3] = rel.Int(int(a.kid(m.Key))), rel.Int(m.Reg), rel.Int(oi), rel.Int(pos)
				if !yield(t) {
					return
				}
			}
		}
	})
}

// abortedReadAnomalies finds G1a — reads of values written by aborted
// transactions — in one relational pass over the whole history:
// read_reg(key, value, txn, mop) ⋈ the prebuilt failed_write(key,
// value, writer) index, each joined row one aborted read. The lookup
// join streams reads in transaction-then-program order, exactly the
// order the old per-transaction scans merged to, so the report is
// unchanged; evaluating the pipeline once instead of per transaction
// keeps its setup cost off the hot path.
func (a *analyzer) abortedReadAnomalies() []anomaly.Anomaly {
	if a.failedIx.Len() == 0 {
		// A lookup join against an empty failed_write index is empty
		// by definition.
		return nil
	}
	var out []anomaly.Anomaly
	a.allReadRegs().LookupJoin(a.failedIx).Each(func(t rel.Tuple) bool {
		o := a.oks[t[2].Num()]
		m := o.Mops[t[3].Num()]
		out = append(out, g1aAnomaly(o, m.Key, m.Reg, a.ops[int(t[4].Num())]))
		return true
	})
	return out
}

// readAnomalies detects garbage reads (values never written) and G1b
// (intermediate values) in one committed transaction. Its sibling G1a
// scan runs once for the whole history in abortedReadAnomalies; a
// garbage-read value has no writer at all, failed or otherwise, so
// that join cannot produce a G1a row for it, and the final report
// survives the split because classification stable-sorts by
// (severity, type), separating garbage reads, G1a, and G1b however
// they interleave in the raw list.
func (a *analyzer) readAnomalies(o op.Op) []anomaly.Anomaly {
	var out []anomaly.Anomaly
	for _, m := range o.Mops {
		if m.F != op.FRead || !m.RegKnown || m.RegNil {
			continue
		}
		vk := verKey{a.kid(m.Key), m.Reg}
		if a.writeCount[vk] == 0 {
			out = append(out, anomaly.Anomaly{
				Type: anomaly.GarbageRead,
				Ops:  []op.Op{o},
				Key:  m.Key,
				Explanation: fmt.Sprintf(
					"%s read key %s = %d, but no transaction ever wrote %d to %s",
					o.Name(), m.Key, m.Reg, m.Reg, m.Key),
			})
			continue
		}
		if w, ok := a.writer[vk]; ok && w != o.Index {
			wo := a.ops[w]
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
	type state struct {
		known bool
		nil_  bool
		val   int
	}
	views := map[history.KeyID]*state{}
	for _, m := range o.Mops {
		k := a.kid(m.Key)
		s, ok := views[k]
		if !ok {
			s = &state{}
			views[k] = s
		}
		switch m.F {
		case op.FWrite:
			s.known, s.nil_, s.val = true, false, m.Arg
		case op.FRead:
			if !m.RegKnown {
				continue
			}
			if s.known && (s.nil_ != m.RegNil || (!s.nil_ && s.val != m.Reg)) {
				out = append(out, anomaly.Anomaly{
					Type: anomaly.Internal,
					Ops:  []op.Op{o},
					Key:  m.Key,
					Explanation: fmt.Sprintf(
						"%s read key %s = %s, but its own prior operations imply the value must be %s: an internal inconsistency",
						o.Name(), m.Key, regString(m.RegNil, m.Reg), regString(s.nil_, s.val)),
				})
			}
			s.known, s.nil_, s.val = true, m.RegNil, m.Reg
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

func regString(isNil bool, v int) string {
	if isNil {
		return "nil"
	}
	return fmt.Sprintf("%d", v)
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
