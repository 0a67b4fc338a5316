package rel

import (
	"sort"

	"repro/internal/anomaly"
	"repro/internal/graph"
	"repro/internal/history"
	"repro/internal/op"
)

// Source is everything one analysis exposes to the relational layer:
// the history, the final dependency graph, the classified anomalies,
// and the inferred version orders in the analyzers' compact
// KeyID-indexed form (the same shape explain.Explainer carries).
type Source struct {
	History *history.History
	Graph   *graph.Graph
	// Anomalies in report order; their positions are the ids the cycle
	// and anomaly relations expose.
	Anomalies []anomaly.Anomaly
	// Keys interns key names; may be nil when no version orders exist.
	Keys *history.Interner
	// ListOrders holds inferred list element orders, indexed by KeyID.
	ListOrders [][]int
	// RegOrders holds direct register version-order edges, indexed by
	// KeyID, as "u" -> "v" value strings with "nil" for the initial
	// version.
	RegOrders [][][2]string
}

// Relations is the minimal catalog surface the query engine evaluates
// against; tests and fuzz targets substitute map-backed fakes.
type Relations interface {
	// Relation returns the named relation, or false if unknown.
	Relation(name string) (Relation, bool)
	// Names lists the available relation names, sorted.
	Names() []string
}

// Catalog derives the standard relations lazily from one analysis.
// Building a Catalog does no work; each Relation call returns a
// streaming view over the source, evaluated only when iterated. The
// relations and their schemas are documented in docs/QUERY.md:
//
//	txn(id, process, index, ok)
//	mop(txn, key, fun, value)
//	dep(from, to, kind)
//	version_order(key, pos, value)
//	cycle(id, pos, txn, kind)
//	anomaly(id, code, severity, key, txn)
type Catalog struct {
	src Source
}

// NewCatalog returns a catalog over src.
func NewCatalog(src Source) *Catalog { return &Catalog{src: src} }

// catalogNames lists the standard relations, sorted.
var catalogNames = []string{"anomaly", "cycle", "dep", "mop", "txn", "version_order"}

// Names implements Relations.
func (c *Catalog) Names() []string { return append([]string(nil), catalogNames...) }

// Relation implements Relations.
func (c *Catalog) Relation(name string) (Relation, bool) {
	switch name {
	case "txn":
		return c.Txns(), true
	case "mop":
		return c.Mops(), true
	case "dep":
		return c.Deps(), true
	case "version_order":
		return c.VersionOrder(), true
	case "cycle":
		return c.Cycles(), true
	case "anomaly":
		return c.Anomalies(), true
	}
	return Relation{}, false
}

// AnomalyAt returns the anomaly a cycle/anomaly relation id refers to,
// for provenance rendering.
func (c *Catalog) AnomalyAt(id int) (anomaly.Anomaly, bool) {
	if id < 0 || id >= len(c.src.Anomalies) {
		return anomaly.Anomaly{}, false
	}
	return c.src.Anomalies[id], true
}

// Txns is txn(id, process, index, ok): one row per completion op —
// its history index (the transaction's identity everywhere else), the
// client process, its position in the completion sequence, and its
// completion type ("ok", "fail", "info").
func (c *Catalog) Txns() Relation {
	h := c.src.History
	return NewRelation([]string{"id", "process", "index", "ok"}, func(yield func(Tuple) bool) {
		if h == nil {
			return
		}
		t := make(Tuple, 4)
		for i, o := range h.Completions() {
			t[0], t[1], t[2], t[3] = Int(o.Index), Int(o.Process), Int(i), Str(o.Type.String())
			if !yield(t) {
				return
			}
		}
	})
}

// Mops is mop(txn, key, fun, value): one row per micro-op of every
// completion, in history and program order. The value column is typed:
// writes carry their integer argument, list reads their observed list
// rendered as "[1 2 3]", register reads the observed integer or the
// strings "nil" (observed initial version) and "?" (result unknown).
func (c *Catalog) Mops() Relation {
	h := c.src.History
	return NewRelation([]string{"txn", "key", "fun", "value"}, func(yield func(Tuple) bool) {
		if h == nil {
			return
		}
		t := make(Tuple, 4)
		for _, o := range h.Completions() {
			for _, m := range o.Mops {
				t[0], t[1], t[2], t[3] = Int(o.Index), Str(m.Key), Str(m.F.String()), mopValue(m)
				if !yield(t) {
					return
				}
			}
		}
	})
}

// mopValue renders a micro-op's result/argument as a typed value.
func mopValue(m op.Mop) Value {
	switch {
	case m.F != op.FRead:
		return Int(m.Arg)
	case m.List != nil:
		return Str(op.FormatList(m.List))
	case m.RegKnown && m.RegNil:
		return Str("nil")
	case m.RegKnown:
		return Int(m.Reg)
	default:
		return Str("?")
	}
}

// allKinds is the full edge-label mask.
var allKinds = graph.KSDep | graph.KSOrders | graph.Version.Mask() | graph.Timestamp.Mask()

// Deps is dep(from, to, kind): the dependency graph's edges, one row
// per (edge, kind) with kind as its short label ("ww", "wr", "rw",
// "process", "rt", "version", "ts"). Rows stream in node insertion
// order, per-node targets ascending, kinds in declaration order.
func (c *Catalog) Deps() Relation {
	g := c.src.Graph
	return NewRelation([]string{"from", "to", "kind"}, func(yield func(Tuple) bool) {
		if g == nil {
			return
		}
		t := make(Tuple, 3)
		stop := false
		for _, a := range g.Nodes() {
			if stop {
				return
			}
			g.OutSorted(a, allKinds, func(b int, label graph.KindSet) {
				if stop {
					return
				}
				for _, k := range label.Kinds() {
					t[0], t[1], t[2] = Int(a), Int(b), Str(k.String())
					if !yield(t) {
						stop = true
						return
					}
				}
			})
		}
	})
}

// VersionOrder is version_order(key, pos, value): the inferred version
// order of every key, keys sorted by name. For list keys, value is the
// element at position pos of the inferred total order. For register
// keys, each direct version-order edge is one row with value rendered
// "prev->next" ("nil" standing for the initial version) and pos its
// edge index.
func (c *Catalog) VersionOrder() Relation {
	src := c.src
	return NewRelation([]string{"key", "pos", "value"}, func(yield func(Tuple) bool) {
		if src.Keys == nil {
			return
		}
		t := make(Tuple, 3)
		for _, id := range src.Keys.SortedIDs() {
			name := Str(src.Keys.Key(id))
			if int(id) < len(src.ListOrders) {
				for pos, elem := range src.ListOrders[id] {
					t[0], t[1], t[2] = name, Int(pos), Int(elem)
					if !yield(t) {
						return
					}
				}
			}
			if int(id) < len(src.RegOrders) {
				for pos, edge := range src.RegOrders[id] {
					t[0], t[1], t[2] = name, Int(pos), Str(edge[0]+"->"+edge[1])
					if !yield(t) {
						return
					}
				}
			}
		}
	})
}

// Cycles is cycle(id, pos, txn, kind): the steps of every cycle
// witness. id is the anomaly's position in the report (joinable with
// anomaly.id), pos the step index, txn the step's source transaction,
// and kind the dependency kind the search traversed ("ww", "rw", ...).
func (c *Catalog) Cycles() Relation {
	anoms := c.src.Anomalies
	return NewRelation([]string{"id", "pos", "txn", "kind"}, func(yield func(Tuple) bool) {
		t := make(Tuple, 4)
		for i, a := range anoms {
			for pos, s := range a.Cycle.Steps {
				t[0], t[1], t[2], t[3] = Int(i), Int(pos), Int(s.From), Str(s.Via.String())
				if !yield(t) {
					return
				}
			}
		}
	})
}

// Anomalies is anomaly(id, code, severity, key, txn): one row per
// (anomaly, involved transaction). id is the anomaly's report
// position, code its type ("G-single", "lost-update", ...), severity
// its numeric severity bucket, key the object involved ("" when not
// key-local), and txn each transaction the witness names — the cycle's
// nodes for cycle anomalies, the Ops list otherwise, or a single row
// with txn = -1 when the witness names none.
func (c *Catalog) Anomalies() Relation {
	anoms := c.src.Anomalies
	return NewRelation([]string{"id", "code", "severity", "key", "txn"}, func(yield func(Tuple) bool) {
		t := make(Tuple, 5)
		for i, a := range anoms {
			t[0], t[1], t[2], t[3] = Int(i), Str(string(a.Type)), Int(int(a.Type.Severity())), Str(a.Key)
			switch {
			case len(a.Cycle.Steps) > 0:
				for _, s := range a.Cycle.Steps {
					t[4] = Int(s.From)
					if !yield(t) {
						return
					}
				}
			case len(a.Ops) > 0:
				for _, o := range a.Ops {
					t[4] = Int(o.Index)
					if !yield(t) {
						return
					}
				}
			default:
				t[4] = Int(-1)
				if !yield(t) {
					return
				}
			}
		}
	})
}

// MapCatalog is a Relations over an explicit name → Relation map, used
// by tests and available to callers composing ad-hoc relation sets.
type MapCatalog map[string]Relation

// Relation implements Relations.
func (m MapCatalog) Relation(name string) (Relation, bool) {
	r, ok := m[name]
	return r, ok
}

// Names implements Relations.
func (m MapCatalog) Names() []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
