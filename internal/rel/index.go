package rel

import (
	"slices"
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

// index is a materialized hash index over a relation on a set of its
// columns: the build side of Join. Per-key buckets preserve build order
// — the property that keeps joins deterministic.
type index struct {
	cols    []string // full schema of the indexed relation
	keyCols []string // the key columns, in index order
	buckets map[string][]Tuple
}

// buildIndex materializes r into an index keyed on keyCols, all of them
// columns of r.
func buildIndex(r Relation, keyCols []string) *index {
	idx := &index{cols: r.Cols(), keyCols: keyCols, buckets: map[string][]Tuple{}}
	keyIdx := make([]int, len(keyCols))
	for i, c := range keyCols {
		keyIdx[i] = r.col(c)
	}
	// Tuple copies and single-tuple buckets come from chunked slabs:
	// an index over n tuples costs O(n/chunk) allocations instead of
	// O(n). Slabs start small and double up to a cap, so an index over
	// a handful of tuples does not pay for a relation-sized first slab.
	// Purely an allocation strategy — bucket contents and build order
	// are exactly those of per-tuple cloning.
	var key []byte
	var vslab []Value
	var bslab []Tuple
	vnext, bnext := 32, 16
	r.Each(func(t Tuple) bool {
		key = key[:0]
		for _, j := range keyIdx {
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

// lookupJoin is the probe side of Join: for each tuple of r in order,
// the index is probed on r's columns named like ix's key columns — r
// has them all — and each match (in build order) is emitted as r's
// tuple extended with the indexed tuple's non-key columns. An index on
// no columns has one bucket, and the join is the cross product.
func (r Relation) lookupJoin(ix *index) Relation {
	probeIdx := make([]int, len(ix.keyCols))
	for i, c := range ix.keyCols {
		probeIdx[i] = r.col(c)
	}
	// Positions of the indexed relation's non-key columns to append.
	var extraIdx []int
	var extraCols []string
	for j, c := range ix.cols {
		if !slices.Contains(ix.keyCols, c) {
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
