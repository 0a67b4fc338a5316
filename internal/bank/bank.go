// Package bank implements the checker's fifth workload: transfer
// transactions over a fixed set of accounts whose balances must always
// sum to an invariant total — Jepsen's classic self-checking workload,
// here fed through the same dependency-graph/cycle-search core as every
// other analyzer (the pluggability argument of the paper's §3 made
// concrete).
//
// A bank history interleaves two transaction shapes:
//
//	transfer: r(from, v), r(to, u), w(from, v-amt), w(to, u+amt)
//	read-all: r(a0, v0), r(a1, v1), ..., r(an, vn)
//
// Balances are register values, so inference is register-style — but
// balances, unlike the unique arguments of the other workloads, repeat.
// A repeated value is unrecoverable (no unique writer), so the analyzer
// gates every dependency edge on value uniqueness instead of reporting
// duplicate-write anomalies the way the rw-register analyzer does:
//
//   - wr: a committed read of balance v depends on v's unique writer.
//   - ww: a transfer that read v and wrote v' directly overwrote
//     version v, so it depends on v's unique writer.
//   - rw: every other committed reader of v anti-depends on the
//     transfer that overwrote v.
//
// The overwrite relation is the writes-follow-reads rule applied
// per-transaction: no global version order is built, because balance
// values legitimately recur (a balance random-walk revisits values),
// which would make any value-keyed version graph cyclic on correct
// histories.
//
// On top of the graph, two invariant checks make the workload
// self-checking even where inference is blind: every committed
// observation of all accounts must sum to the invariant total
// (TotalMismatch), and no balance may ever be negative
// (NegativeBalance). The account set and total are recovered from the
// history itself: the opening deposit the runner records as its first
// committed transaction.
//
// Failed transactions are ignored entirely: a failed transfer's write
// mops carry unresolved deltas, not balances, so indexing them would
// fabricate values. The cost is that bank histories cannot witness G1a.
//
// A transfer whose invocation never completed (a crashed client, or the
// tail of a log still being written) may have taken effect, and what it
// installed is unknowable for the same reason: its writes are deltas.
// Every account such an invocation wrote therefore loses its balance
// inference — no garbage reads, and no wr, ww or rw edge derived from
// its balances. The invariant checks still cover it.
package bank

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

type verKey struct {
	key history.KeyID
	val int
}

// overwrite is one observed direct version transition: txn read prev
// and then wrote next to the same account.
type overwrite struct {
	prev, next int // prev may be op.NilVersion
	txn        int
}

type analyzer struct {
	opts workload.Opts
	h    *history.History // the ops findings cite
	in   *history.Interner

	oks        []int32          // positions in h.Ops of the committed ops
	writeCount map[verKey]int   // writes by may-have-committed txns
	writer     map[verKey]int   // unique such writer (writeCount == 1)
	readers    map[verKey][]int // committed readers of (key, version), nil included
	overwrites [][]overwrite    // observed direct version transitions, by KeyID
	// unknowable marks, by KeyID, the accounts a never-completed
	// invocation wrote: its deltas resolved against balances nobody
	// recorded, so no balance of such an account has a known writer.
	unknowable []bool
	accounts   []string
	total      int
	totalKnown bool
	anomalies  []anomaly.Anomaly
}

// ok is the i'th committed op.
func (a *analyzer) ok(i int) op.Op { return a.h.Ops[a.oks[i]] }

// kid resolves an interned key (see history.Interner.MustID).
func (a *analyzer) kid(k string) history.KeyID { return a.in.MustID(k) }

// Analyze infers dependencies and checks invariants for a bank history.
// Of the shared options it consumes Parallelism.
func Analyze(h *history.History, opts workload.Opts) workload.Analysis {
	return newAnalyzer(h, opts).run(h)
}

// newAnalyzer returns an analyzer with empty indices over h's keys.
func newAnalyzer(h *history.History, opts workload.Opts) *analyzer {
	return &analyzer{
		opts:       opts,
		h:          h,
		in:         h.Keys(),
		writeCount: map[verKey]int{},
		writer:     map[verKey]int{},
		readers:    map[verKey][]int{},
		overwrites: make([][]overwrite, h.Keys().Len()),
		unknowable: make([]bool, h.Keys().Len()),
	}
}

// run indexes h, infers the invariant total, checks every committed
// transfer, and infers the dependency graph.
func (a *analyzer) run(h *history.History) workload.Analysis {
	for _, o := range h.Crashed() {
		for _, m := range o.Mops {
			if m.F == op.FWrite {
				a.unknowable[a.kid(m.Key)] = true
			}
		}
	}
	a.oks = h.OKPositions()
	a.index()
	a.inferInvariant()

	p := a.opts.Parallelism
	a.collect(par.Map(p, len(a.oks), func(i int) []anomaly.Anomaly {
		return a.checkOp(a.ok(i))
	}))

	g := graph.New()
	for i := range a.oks {
		g.Ensure(a.ok(i).Index)
	}
	keys := a.keys()
	type keyResult struct {
		verEdges [][2]int
		edges    []graph.Edge
	}
	perKey := par.Map(p, len(keys), func(i int) keyResult {
		k := keys[i]
		verEdges, edges := a.keyEdges(k)
		return keyResult{verEdges: verEdges, edges: edges}
	})
	orders := make([][][2]int, a.in.Len())
	for i, k := range keys {
		if len(perKey[i].verEdges) > 0 {
			orders[k] = perKey[i].verEdges
		}
		g.AddEdges(perKey[i].edges)
	}
	a.emitWR(g)

	return workload.Analysis{
		Graph:     g,
		Anomalies: a.anomalies,
		Explainer: &explain.Explainer{Ops: h, Keys: a.in, RegOrders: orders},
	}
}

func (a *analyzer) collect(groups [][]anomaly.Anomaly) {
	a.anomalies = anomaly.AppendGroups(a.anomalies, groups)
}

// index builds the writer, reader, and overwrite indices. Only ops that
// may have committed contribute writes; only committed ops contribute
// reads. Failed ops are skipped entirely (their write mops carry
// unresolved deltas).
func (a *analyzer) index() {
	for _, o := range a.h.Ops {
		if !o.MayHaveCommitted() {
			continue
		}
		// cur tracks the last balance this transaction knows per key —
		// the writes-follow-reads state machine.
		cur := map[history.KeyID]int{}
		have := map[history.KeyID]bool{}
		for _, m := range o.Mops {
			k := a.kid(m.Key)
			switch m.F {
			case op.FWrite:
				vk := verKey{k, m.Arg}
				a.writeCount[vk]++
				if a.writeCount[vk] == 1 {
					a.writer[vk] = o.Index
				} else {
					delete(a.writer, vk)
				}
				if have[k] && cur[k] != m.Arg {
					a.overwrites[k] = append(a.overwrites[k],
						overwrite{prev: cur[k], next: m.Arg, txn: o.Index})
				}
				cur[k], have[k] = m.Arg, true
			case op.FRead:
				if !m.RegKnown {
					continue
				}
				v := m.Reg
				if o.Type == op.OK {
					a.readers[verKey{k, v}] = append(a.readers[verKey{k, v}], o.Index)
				}
				cur[k], have[k] = v, true
			}
		}
	}
}

// inferInvariant recovers the account set and the invariant total from
// the opening deposit: the first committed transaction consisting solely
// of writes to two or more distinct accounts. Without one, total checks
// are skipped and the account set falls back to every key observed.
func (a *analyzer) inferInvariant() {
	for i := range a.oks {
		o := a.ok(i)
		if len(o.Mops) < 2 {
			continue
		}
		deposit := true
		seen := map[string]bool{}
		sum := 0
		for _, m := range o.Mops {
			if m.F != op.FWrite || m.Arg < 0 || seen[m.Key] {
				deposit = false
				break
			}
			seen[m.Key] = true
			sum += m.Arg
		}
		if !deposit {
			continue
		}
		accounts := make([]string, 0, len(seen))
		for k := range seen {
			accounts = append(accounts, k)
		}
		sort.Strings(accounts)
		a.accounts, a.total, a.totalKnown = accounts, sum, true
		return
	}
	set := map[string]bool{}
	for _, o := range a.h.Ops {
		if o.Type == op.Invoke {
			continue
		}
		for _, m := range o.Mops {
			set[m.Key] = true
		}
	}
	a.accounts = make([]string, 0, len(set))
	for k := range set {
		a.accounts = append(a.accounts, k)
	}
	sort.Strings(a.accounts)
}

// checkOp runs the per-transaction checks on one committed op: internal
// register consistency, negative balances, garbage balances, and the
// total invariant.
func (a *analyzer) checkOp(o op.Op) []anomaly.Anomaly {
	var out []anomaly.Anomaly

	// Internal consistency: within the transaction, a read must agree
	// with the value its own prior mops established.
	type state struct {
		known bool
		ver   int
	}
	views := map[string]*state{}
	view := func(k string) *state {
		s, ok := views[k]
		if !ok {
			s = &state{}
			views[k] = s
		}
		return s
	}
	firstRead := map[string]int{}
	readAll := true
	for _, m := range o.Mops {
		switch m.F {
		case op.FWrite:
			if m.Arg < 0 {
				out = append(out, anomaly.Anomaly{
					Type: anomaly.NegativeBalance,
					Ops:  []op.Op{o},
					Key:  m.Key,
					Explanation: fmt.Sprintf(
						"%s wrote balance %d to account %s; balances must never be negative",
						o.Name(), m.Arg, m.Key),
				})
			}
			s := view(m.Key)
			s.known, s.ver = true, m.Arg
		case op.FRead:
			if !m.RegKnown {
				continue
			}
			if m.Reg != op.NilVersion && m.Reg < 0 {
				out = append(out, anomaly.Anomaly{
					Type: anomaly.NegativeBalance,
					Ops:  []op.Op{o},
					Key:  m.Key,
					Explanation: fmt.Sprintf(
						"%s read balance %d on account %s; balances must never be negative",
						o.Name(), m.Reg, m.Key),
				})
			}
			if k := a.kid(m.Key); m.Reg != op.NilVersion && !a.unknowable[k] && a.writeCount[verKey{k, m.Reg}] == 0 {
				out = append(out, anomaly.Anomaly{
					Type: anomaly.GarbageRead,
					Ops:  []op.Op{o},
					Key:  m.Key,
					Explanation: fmt.Sprintf(
						"%s read balance %d on account %s, but no transaction that may have committed ever wrote that balance",
						o.Name(), m.Reg, m.Key),
				})
			}
			s := view(m.Key)
			v := m.Reg
			if s.known && s.ver != v {
				out = append(out, anomaly.Anomaly{
					Type: anomaly.Internal,
					Ops:  []op.Op{o},
					Key:  m.Key,
					Explanation: fmt.Sprintf(
						"%s read account %s = %s, but its own prior operations imply the balance must be %s: an internal inconsistency",
						o.Name(), m.Key, op.FormatVersion(v), op.FormatVersion(s.ver)),
				})
			}
			s.known, s.ver = true, v
			if _, seen := firstRead[m.Key]; !seen {
				v := m.Reg
				if v == op.NilVersion {
					v = 0
				}
				firstRead[m.Key] = v
			}
		}
	}

	// Total invariant: an op whose reads cover every account observed a
	// full snapshot; its balances must sum to the invariant total.
	if a.totalKnown && len(a.accounts) > 0 {
		sum := 0
		for _, k := range a.accounts {
			v, ok := firstRead[k]
			if !ok {
				readAll = false
				break
			}
			sum += v
		}
		if readAll && sum != a.total {
			out = append(out, anomaly.Anomaly{
				Type: anomaly.TotalMismatch,
				Ops:  []op.Op{o},
				Explanation: fmt.Sprintf(
					"%s read every account and the balances sum to %d, not the invariant total %d: the observation is not a snapshot of any serial transfer order",
					o.Name(), sum, a.total),
			})
		}
	}
	return out
}

// keyEdges explodes account k's observed overwrites into ww and rw
// dependencies, gated on recoverability and certainty: the overwritten
// balance must have a unique may-have-committed writer (or be the
// initial version), and the overwriting transaction must have committed
// in every interpretation — either it returned ok, or some committed
// read observed the balance it installed (a unique write that was read
// must have happened). Without that gate, an indeterminate transfer
// whose commit actually failed would collect anti-dependency edges that
// hold in no interpretation, seeding false cycles. An account a crashed
// transfer wrote gets no edges at all. It also returns the distinct
// version edges, in first-observed order, for explanations.
func (a *analyzer) keyEdges(k history.KeyID) ([][2]int, []graph.Edge) {
	var verEdges [][2]int
	var deps []graph.Edge
	seenVer := map[[2]int]bool{}
	for _, ow := range a.overwrites[k] {
		if ve := [2]int{ow.prev, ow.next}; !seenVer[ve] {
			seenVer[ve] = true
			verEdges = append(verEdges, ve)
		}
		if a.unknowable[k] {
			continue
		}
		if !a.provenCommitted(k, ow) {
			continue
		}
		// ww: the overwriter directly succeeds prev's unique writer.
		if ow.prev != op.NilVersion {
			w, ok := a.writer[verKey{k, ow.prev}]
			if !ok {
				// prev was written more than once (or never): which
				// instance this transfer overwrote is unrecoverable, so
				// neither its writer nor its readers can be linked.
				continue
			}
			if w != ow.txn {
				deps = append(deps, graph.Edge{From: w, To: ow.txn, Kind: graph.WW})
			}
		}
		// rw: every other committed reader of prev anti-depends on the
		// transaction that overwrote it.
		for _, r := range a.readers[verKey{k, ow.prev}] {
			if r != ow.txn {
				deps = append(deps, graph.Edge{From: r, To: ow.txn, Kind: graph.RW})
			}
		}
	}
	return verEdges, deps
}

// provenCommitted reports whether the overwriting transaction is known
// to have committed in every interpretation: it returned ok, or it is
// the unique writer of the installed balance and a committed
// transaction read that balance.
func (a *analyzer) provenCommitted(k history.KeyID, ow overwrite) bool {
	if o, _ := a.h.Op(ow.txn); o.Type == op.OK {
		return true
	}
	vk := verKey{k, ow.next}
	w, unique := a.writer[vk]
	return unique && w == ow.txn && len(a.readers[vk]) > 0
}

// emitWR adds write-read dependencies: a committed reader of balance v
// depends on v's unique writer, on accounts no crashed transfer wrote.
func (a *analyzer) emitWR(g *graph.Graph) {
	vks := make([]verKey, 0, len(a.readers))
	for vk := range a.readers {
		if !a.unknowable[vk.key] {
			vks = append(vks, vk)
		}
	}
	sort.Slice(vks, func(i, j int) bool {
		if vks[i].key != vks[j].key {
			return a.in.Less(vks[i].key, vks[j].key)
		}
		return vks[i].val < vks[j].val
	})
	for _, vk := range vks {
		w, ok := a.writer[vk]
		if !ok {
			continue
		}
		for _, r := range a.readers[vk] {
			if r != w {
				g.AddEdge(w, r, graph.WR)
			}
		}
	}
}

// keys returns every account that contributed an index entry, sorted
// by name.
func (a *analyzer) keys() []history.KeyID {
	seen := make([]bool, a.in.Len())
	for vk := range a.writeCount {
		seen[vk.key] = true
	}
	for vk := range a.readers {
		seen[vk.key] = true
	}
	for k := range a.overwrites {
		if len(a.overwrites[k]) > 0 {
			seen[k] = true
		}
	}
	out := make([]history.KeyID, 0, len(seen))
	for k, ok := range seen {
		if ok {
			out = append(out, history.KeyID(k))
		}
	}
	a.in.SortKeyIDs(out)
	return out
}
