package rel

import (
	"sort"
	"strconv"
)

// appendKey encodes v into buf in a self-delimiting form usable as a
// map key: a type tag byte ('i' or 's'), the payload (decimal or
// quoted), and a \x01 field separator. Quoting makes the string form
// injective, so distinct tuples never collide.
func appendKey(buf []byte, v Value) []byte {
	if v.isStr {
		buf = append(buf, 's')
		buf = strconv.AppendQuote(buf, v.s)
	} else {
		buf = append(buf, 'i')
		buf = strconv.AppendInt(buf, v.n, 10)
	}
	return append(buf, 1)
}

// Index is a materialized hash index over a relation on a set of key
// columns. It is immutable once built, so the classifier refactors can
// build one in a single pass over the history and probe it from
// parallel per-key workers without locks. Per-key buckets preserve
// build order — the property that keeps lookup joins deterministic.
type Index struct {
	cols    []string // full schema of the indexed relation
	keyCols []string // the key columns, in index order
	keyIdx  []int    // positions of keyCols within cols
	buckets map[string][]Tuple
}

// BuildIndex materializes r into an index keyed on keyCols. Key
// columns missing from r's schema yield an empty index.
func BuildIndex(r Relation, keyCols ...string) *Index {
	idx := &Index{
		cols:    r.Cols(),
		keyCols: keyCols,
		keyIdx:  make([]int, len(keyCols)),
		buckets: map[string][]Tuple{},
	}
	for i, c := range keyCols {
		idx.keyIdx[i] = r.col(c)
		if idx.keyIdx[i] < 0 {
			return idx
		}
	}
	// Tuple copies and single-tuple buckets come from chunked slabs:
	// an index over n tuples costs O(n/chunk) allocations instead of
	// O(n), which keeps materialization cheap on the classifier hot
	// paths. Slabs start small and double up to a cap, so an index over
	// a handful of tuples — the classifiers build one per history key —
	// does not pay for a relation-sized first slab. Purely an allocation
	// strategy — bucket contents and build order are exactly those of
	// per-tuple cloning.
	var key []byte
	var vslab []Value
	var bslab []Tuple
	vnext, bnext := 32, 16
	r.Each(func(t Tuple) bool {
		key = key[:0]
		for _, j := range idx.keyIdx {
			key = appendKey(key, t[j])
		}
		if len(vslab) < len(t) {
			vslab = make([]Value, max(vnext, len(t)))
			vnext = min(2*vnext, 1024)
		}
		n := copy(vslab, t)
		cp := Tuple(vslab[:n:n])
		vslab = vslab[n:]
		if b, ok := idx.buckets[string(key)]; ok {
			idx.buckets[string(key)] = append(b, cp)
		} else {
			if len(bslab) == 0 {
				bslab = make([]Tuple, bnext)
				bnext = min(2*bnext, 256)
			}
			b = bslab[0:0:1]
			bslab = bslab[1:]
			idx.buckets[string(key)] = append(b, cp)
		}
		return true
	})
	return idx
}

// Len returns the number of distinct keys in the index.
func (ix *Index) Len() int { return len(ix.buckets) }

// probe encodes vals into buf and returns the matching bucket. The
// map lookup via string(buf) does not allocate.
func (ix *Index) probe(buf []byte, vals ...Value) ([]Tuple, []byte) {
	buf = buf[:0]
	for _, v := range vals {
		buf = appendKey(buf, v)
	}
	return ix.buckets[string(buf)], buf
}

// Lookup returns the tuples whose key columns equal vals, in build
// order. The returned slice is shared — do not mutate.
func (ix *Index) Lookup(vals ...Value) []Tuple {
	b, _ := ix.probe(nil, vals...)
	return b
}

// Contains reports whether any tuple matches vals.
func (ix *Index) Contains(vals ...Value) bool {
	return len(ix.Lookup(vals...)) > 0
}

// LookupJoin joins r against a prebuilt index: for each tuple of r in
// order, the index is probed on r's columns matching ix's key columns
// and each match (in build order) is emitted as r's tuple extended
// with the indexed tuple's non-key columns. This is the ⋈
// implementation — Join is BuildIndex + LookupJoin — split out so the
// classifiers can reuse one index across many probe relations.
func (r Relation) LookupJoin(ix *Index) Relation {
	probeIdx := make([]int, len(ix.keyCols))
	for i, c := range ix.keyCols {
		probeIdx[i] = r.col(c)
		if probeIdx[i] < 0 {
			// No shared key: cross product with the indexed relation.
			return r.crossIndex(ix)
		}
	}
	// Positions of the indexed relation's non-key columns to append.
	var extraIdx []int
	var extraCols []string
	for j, c := range ix.cols {
		if !containsStr(ix.keyCols, c) {
			extraIdx = append(extraIdx, j)
			extraCols = append(extraCols, c)
		}
	}
	cols := append(append([]string(nil), r.cols...), extraCols...)
	return Relation{cols: cols, seq: func(yield func(Tuple) bool) {
		var key []byte
		out := make(Tuple, 0, len(cols))
		r.Each(func(t Tuple) bool {
			key = key[:0]
			for _, j := range probeIdx {
				key = appendKey(key, t[j])
			}
			for _, m := range ix.buckets[string(key)] {
				out = out[:0]
				out = append(out, t...)
				for _, j := range extraIdx {
					out = append(out, m[j])
				}
				if !yield(out) {
					return false
				}
			}
			return true
		})
	}}
}

// crossIndex is the no-shared-key degenerate case of LookupJoin.
func (r Relation) crossIndex(ix *Index) Relation {
	var rows []Tuple
	for _, key := range sortedKeys(ix.buckets) {
		rows = append(rows, ix.buckets[key]...)
	}
	cols := append(append([]string(nil), r.cols...), ix.cols...)
	return Relation{cols: cols, seq: func(yield func(Tuple) bool) {
		out := make(Tuple, 0, len(cols))
		r.Each(func(t Tuple) bool {
			for _, m := range rows {
				out = out[:0]
				out = append(out, t...)
				out = append(out, m...)
				if !yield(out) {
					return false
				}
			}
			return true
		})
	}}
}

// AntiJoin keeps the tuples of r with no match in the index (the ▷
// operator), in r's order.
func (r Relation) AntiJoin(ix *Index) Relation {
	probeIdx := make([]int, len(ix.keyCols))
	for i, c := range ix.keyCols {
		probeIdx[i] = r.col(c)
		if probeIdx[i] < 0 {
			return r
		}
	}
	return Relation{cols: r.cols, seq: func(yield func(Tuple) bool) {
		var key []byte
		r.Each(func(t Tuple) bool {
			key = key[:0]
			for _, j := range probeIdx {
				key = appendKey(key, t[j])
			}
			if len(ix.buckets[string(key)]) > 0 {
				return true
			}
			return yield(t)
		})
	}}
}

func containsStr(xs []string, s string) bool {
	for _, x := range xs {
		if x == s {
			return true
		}
	}
	return false
}

func sortedKeys(m map[string][]Tuple) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
