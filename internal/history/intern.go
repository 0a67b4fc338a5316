package history

import "sort"

// KeyID is a dense, history-local identifier for an object key. The
// interner assigns IDs in first-appearance (index) order, so the same
// observation produces the same IDs whether it arrives as a batch (New)
// or as a stream (Stream) — which is what lets the streaming sessions'
// KeyID-indexed state line up byte-for-byte with the batch analyzers'.
type KeyID int32

// Interner maps string object keys to dense KeyIDs and back. Analyzers
// index their per-key state by KeyID — a slice index instead of a
// string-keyed map — so the hot inference loops never hash a key
// string.
//
// An Interner is safe for concurrent *readers* (ID, Key, Len,
// SortedIDs). Intern mutates and must be serialized with all other
// calls; in practice interning happens only on the single-goroutine
// ingestion paths (history.New, Stream.Add), after which analyzers
// treat the interner as read-only.
type Interner struct {
	ids  map[string]KeyID
	keys []string
}

// NewInterner returns an empty interner.
func NewInterner() *Interner {
	return &Interner{ids: map[string]KeyID{}}
}

// Intern returns k's KeyID, assigning the next dense ID on first sight.
func (in *Interner) Intern(k string) KeyID {
	if id, ok := in.ids[k]; ok {
		return id
	}
	id := KeyID(len(in.keys))
	in.ids[k] = id
	in.keys = append(in.keys, k)
	return id
}

// ID looks up k without interning. It allocates nothing.
func (in *Interner) ID(k string) (KeyID, bool) {
	id, ok := in.ids[k]
	return id, ok
}

// MustID looks up k, panicking on a miss. Analyzers resolve mop keys
// with it: every mop key of an ingested op was interned by history.New
// or Stream.Add, so a miss is a bug, not an input condition.
func (in *Interner) MustID(k string) KeyID {
	id, ok := in.ids[k]
	if !ok {
		panic("history: key not interned: " + k)
	}
	return id
}

// Key returns the string key for id. It panics on an ID the interner
// never issued, exactly like an out-of-range slice index.
func (in *Interner) Key(id KeyID) string { return in.keys[id] }

// Len returns the number of interned keys; IDs are 0..Len()-1.
func (in *Interner) Len() int { return len(in.keys) }

// Less orders two KeyIDs by their key strings — the report order every
// analyzer used when keys were strings, preserved so converting the
// indexes to KeyIDs changes no report bytes.
func (in *Interner) Less(a, b KeyID) bool { return in.keys[a] < in.keys[b] }

// SortKeyIDs sorts ids in place by key string.
func (in *Interner) SortKeyIDs(ids []KeyID) {
	sort.Slice(ids, func(i, j int) bool { return in.keys[ids[i]] < in.keys[ids[j]] })
}

// SortedIDs returns every interned KeyID, ordered by key string.
func (in *Interner) SortedIDs() []KeyID {
	out := make([]KeyID, len(in.keys))
	for i := range out {
		out[i] = KeyID(i)
	}
	in.SortKeyIDs(out)
	return out
}

// GrowKeyed extends s so that index id is valid, returning the grown
// slice. Per-key state kept in dense slices uses it when keys appear
// incrementally (streaming sessions); batch analyzers size their slices
// to Interner.Len() up front instead.
func GrowKeyed[T any](s []T, id KeyID) []T {
	if int(id) < len(s) {
		return s
	}
	if int(id) < cap(s) {
		return s[:id+1]
	}
	ns := make([]T, int(id)+1, 1+2*int(id))
	copy(ns, s)
	return ns
}

// DropKeyed releases the per-key state of keys a session retires. A
// key that never got a state lies past the end of s.
func DropKeyed[T any](s []T, keys []KeyID) {
	var zero T
	for _, k := range keys {
		if int(k) < len(s) {
			s[k] = zero
		}
	}
}
