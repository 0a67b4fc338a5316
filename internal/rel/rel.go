// Package rel is the checker's query engine: a small streaming
// relational-algebra core, a catalog of relations derived lazily from
// one finished analysis (catalog.go), and a pattern query front-end over
// them (query.go) — what `elle -query`, elled's query endpoint and
// CheckResult.Query evaluate (see docs/QUERY.md). Nothing on the verdict
// path imports it: the analyzers classify anomalies and explain renders
// witnesses from their own per-key tables, which makes a query over the
// catalog an independent second derivation of what the report says
// (TestRelationalQueriesMatchReport holds the two to each other).
//
// The design follows the "Datalog as pure relational algebra" pattern:
// a Relation is a column schema plus a lazy tuple generator, operators
// (σ selection, π projection, ⋈ natural join) compose functionally into
// new relations without evaluating anything, and a pattern query
// compiles to nothing but σ/π/⋈ over catalog relations — no specialized
// machinery.
//
// Determinism is a contract, not an accident: every operator is
// order-preserving over its (left) input, joins probe a materialized
// index whose per-key buckets keep build order, and Sort/Distinct give
// query surfaces a canonical output order. Deterministic inputs
// therefore produce byte-identical output on every surface.
package rel

import (
	"sort"
	"strconv"
	"strings"
)

// Value is one typed field of a tuple: an integer (transaction ids,
// elements, positions — the dense ids the catalog speaks) or a string
// (key names, dependency kinds, anomaly codes).
type Value struct {
	s     string
	n     int64
	isStr bool
}

// Int returns an integer value.
func Int(n int) Value { return Value{n: int64(n)} }

// Int64 returns an integer value from an int64.
func Int64(n int64) Value { return Value{n: n} }

// Str returns a string value.
func Str(s string) Value { return Value{s: s, isStr: true} }

// IsStr reports whether v holds a string.
func (v Value) IsStr() bool { return v.isStr }

// Num returns the integer payload (0 for strings).
func (v Value) Num() int64 { return v.n }

// Text returns the string payload ("" for integers).
func (v Value) Text() string { return v.s }

// String renders v for query output: integers in decimal, strings
// verbatim unless they contain whitespace, quotes, or control bytes —
// or are empty — in which case they are Go-quoted so rows stay
// unambiguous and one-per-line.
func (v Value) String() string {
	if !v.isStr {
		return strconv.FormatInt(v.n, 10)
	}
	if v.s == "" || strings.ContainsAny(v.s, " \t\n\r\"\\") {
		return strconv.Quote(v.s)
	}
	return v.s
}

// Equal reports whether v and w are the same value of the same type.
func (v Value) Equal(w Value) bool {
	return v.isStr == w.isStr && v.n == w.n && v.s == w.s
}

// Compare orders values canonically: integers before strings, integers
// numerically, strings bytewise.
func Compare(v, w Value) int {
	switch {
	case !v.isStr && w.isStr:
		return -1
	case v.isStr && !w.isStr:
		return 1
	case !v.isStr:
		switch {
		case v.n < w.n:
			return -1
		case v.n > w.n:
			return 1
		}
		return 0
	default:
		return strings.Compare(v.s, w.s)
	}
}

// Tuple is one row. Streaming relations may yield a reused backing
// slice — a consumer that holds a tuple past the callback must Clone
// it; the materializing operators (Sort, Distinct, Join's build side)
// do so themselves.
type Tuple []Value

// Clone returns a private copy of t.
func (t Tuple) Clone() Tuple { return append(Tuple(nil), t...) }

// CompareTuples orders tuples lexicographically column by column;
// shorter tuples order first on a shared prefix.
func CompareTuples(a, b Tuple) int {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if c := Compare(a[i], b[i]); c != 0 {
			return c
		}
	}
	return len(a) - len(b)
}

// Relation is a named-column schema plus a lazy tuple stream. Building
// one evaluates nothing; iteration (Each) drives the whole composed
// pipeline tuple by tuple.
type Relation struct {
	cols []string
	seq  func(yield func(Tuple) bool)
}

// NewRelation wraps a generator function as a relation over cols. The
// generator must stop when yield returns false.
func NewRelation(cols []string, seq func(yield func(Tuple) bool)) Relation {
	return Relation{cols: cols, seq: seq}
}

// FromRows returns a materialized relation over the given rows.
func FromRows(cols []string, rows []Tuple) Relation {
	return Relation{cols: cols, seq: func(yield func(Tuple) bool) {
		for _, t := range rows {
			if !yield(t) {
				return
			}
		}
	}}
}

// Cols returns the column names, in order.
func (r Relation) Cols() []string { return r.cols }

// col returns the position of name, or -1.
func (r Relation) col(name string) int {
	for i, c := range r.cols {
		if c == name {
			return i
		}
	}
	return -1
}

// Each drives the stream, calling f for every tuple until the relation
// is exhausted or f returns false.
func (r Relation) Each(f func(Tuple) bool) {
	if r.seq != nil {
		r.seq(f)
	}
}

// Rows materializes the relation, cloning each tuple.
func (r Relation) Rows() []Tuple {
	var out []Tuple
	r.Each(func(t Tuple) bool {
		out = append(out, t.Clone())
		return true
	})
	return out
}

// Select is σ: the tuples of r satisfying pred, in r's order.
func (r Relation) Select(pred func(Tuple) bool) Relation {
	return Relation{cols: r.cols, seq: func(yield func(Tuple) bool) {
		r.Each(func(t Tuple) bool {
			if pred(t) {
				return yield(t)
			}
			return true
		})
	}}
}

// Project is π: keep exactly cols, in the given order, preserving row
// order (no implicit deduplication — compose with Distinct for set
// semantics). Unknown columns make the relation empty.
func (r Relation) Project(cols ...string) Relation {
	idx := make([]int, len(cols))
	for i, c := range cols {
		idx[i] = r.col(c)
		if idx[i] < 0 {
			return FromRows(cols, nil)
		}
	}
	return Relation{cols: cols, seq: func(yield func(Tuple) bool) {
		out := make(Tuple, len(idx))
		r.Each(func(t Tuple) bool {
			for i, j := range idx {
				out[i] = t[j]
			}
			return yield(out)
		})
	}}
}

// Join is ⋈: the natural join of r and s on their shared column names,
// order-preserving over r — s is materialized into a hash index once
// (build side), then r streams through it in order (probe side), each
// probe emitting its matches in s's build order. With no shared
// columns it degenerates to the cross product. Deterministic inputs
// produce deterministic output.
func (r Relation) Join(s Relation) Relation {
	return r.lookupJoin(buildIndex(s, sharedCols(r.cols, s.cols)))
}

// sharedCols returns the column names present in both schemas, in a's
// order.
func sharedCols(a, b []string) []string {
	var out []string
	for _, c := range a {
		for _, d := range b {
			if c == d {
				out = append(out, c)
				break
			}
		}
	}
	return out
}

// Distinct deduplicates, keeping the first occurrence of each tuple in
// stream order.
func (r Relation) Distinct() Relation {
	return Relation{cols: r.cols, seq: func(yield func(Tuple) bool) {
		seen := map[string]bool{}
		var key []byte
		r.Each(func(t Tuple) bool {
			key = key[:0]
			for _, v := range t {
				key = appendKey(key, v)
			}
			if seen[string(key)] {
				return true
			}
			seen[string(key)] = true
			return yield(t.Clone())
		})
	}}
}

// Sort materializes and orders the relation canonically (CompareTuples
// over all columns) — the final step that makes query output
// independent of plan shape.
func (r Relation) Sort() Relation {
	return Relation{cols: r.cols, seq: func(yield func(Tuple) bool) {
		rows := r.Rows()
		sort.SliceStable(rows, func(i, j int) bool { return CompareTuples(rows[i], rows[j]) < 0 })
		for _, t := range rows {
			if !yield(t) {
				return
			}
		}
	}}
}
