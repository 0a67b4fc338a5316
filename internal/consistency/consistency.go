// Package consistency encodes the fragment of the isolation-model
// implication lattice Elle reports against: given the set of anomalies
// detected in an observation, it computes which models the history
// violates and which it may still satisfy.
//
// The lattice follows Adya's generalized isolation level definitions plus
// the session/real-time strengthenings of §5.1 of the Elle paper: an edge
// M → M' means "M is stronger than M'": every history satisfying M
// satisfies M', so an anomaly that violates M' also violates M.
//
// docs/ANOMALIES.md renders the lattice and the anomaly→model
// violates-relation below as one cross-referenced glossary.
package consistency

import (
	"sort"

	"repro/internal/anomaly"
)

// Model names an isolation / consistency model.
type Model string

// The models in the lattice, weakest to strongest (roughly).
const (
	ReadUncommitted     Model = "read-uncommitted"   // PL-1: proscribes G0
	ReadCommitted       Model = "read-committed"     // PL-2: + G1a, G1b, G1c
	RepeatableRead      Model = "repeatable-read"    // PL-2.99: + G2-item
	SnapshotIsolation   Model = "snapshot-isolation" // PL-SI: + G-single, lost update
	Serializable        Model = "serializable"       // PL-3
	StrongSessionSI     Model = "strong-session-snapshot-isolation"
	StrongSessionSerial Model = "strong-session-serializable"
	StrictSerializable  Model = "strict-serializable"
)

// All lists every model in the lattice, weakest first.
var All = []Model{
	ReadUncommitted,
	ReadCommitted,
	RepeatableRead,
	SnapshotIsolation,
	Serializable,
	StrongSessionSI,
	StrongSessionSerial,
	StrictSerializable,
}

// Known reports whether m names a model in the lattice — the one
// validity check every surface that accepts a model string (cmd/elle,
// the elled service) shares, so they cannot drift on the accepted set.
func Known(m Model) bool {
	for _, k := range All {
		if k == m {
			return true
		}
	}
	return false
}

// stronger maps each model to the models it directly implies.
var stronger = map[Model][]Model{
	ReadCommitted:       {ReadUncommitted},
	RepeatableRead:      {ReadCommitted},
	SnapshotIsolation:   {ReadCommitted},
	Serializable:        {RepeatableRead, SnapshotIsolation},
	StrongSessionSI:     {SnapshotIsolation},
	StrongSessionSerial: {Serializable, StrongSessionSI},
	StrictSerializable:  {StrongSessionSerial},
}

// Implies reports whether a history satisfying m necessarily satisfies n.
func Implies(m, n Model) bool {
	if m == n {
		return true
	}
	for _, d := range stronger[m] {
		if Implies(d, n) {
			return true
		}
	}
	return false
}

// violates maps each anomaly type to the weakest models it rules out
// directly. Violating a model transitively rules out every stronger model.
var violates = map[anomaly.Type][]Model{
	// A write cycle means even read uncommitted's sole guarantee is gone.
	anomaly.G0: {ReadUncommitted},

	// The G1 family is proscribed by read committed.
	anomaly.G1a: {ReadCommitted},
	anomaly.G1b: {ReadCommitted},
	anomaly.G1c: {ReadCommitted},
	// Dirty updates leak uncommitted state into committed versions; like
	// G1a they defeat read committed.
	anomaly.DirtyUpdate: {ReadCommitted},
	// Incompatible orders imply an aborted read in every interpretation.
	anomaly.IncompatibleOrder: {ReadCommitted},

	// A single anti-dependency cycle (read skew) is admitted by repeatable
	// read's weaker cousins but proscribed by both SI and repeatable read.
	anomaly.GSingle:    {SnapshotIsolation, RepeatableRead},
	anomaly.LostUpdate: {SnapshotIsolation, RepeatableRead},

	// Bank invariant violations are read-skew / lost-update signatures
	// observed through the total-balance invariant: a read-committed
	// history may legitimately observe a torn total (its reads need not
	// form a snapshot), but a snapshot- or repeatable-read history may
	// not.
	anomaly.TotalMismatch:   {SnapshotIsolation, RepeatableRead},
	anomaly.NegativeBalance: {SnapshotIsolation, RepeatableRead},

	// Multiple anti-dependencies (write skew) are legal under SI but not
	// under repeatable read or serializability.
	anomaly.G2Item: {RepeatableRead},

	// Session variants violate the strong-session strengthenings.
	anomaly.G0Process:      {StrongSessionSI, StrongSessionSerial},
	anomaly.G1cProcess:     {StrongSessionSI, StrongSessionSerial},
	anomaly.GSingleProcess: {StrongSessionSI, StrongSessionSerial},
	anomaly.G2ItemProcess:  {StrongSessionSerial},

	// Real-time variants violate only the strict models.
	anomaly.G0Realtime:      {StrictSerializable},
	anomaly.G1cRealtime:     {StrictSerializable},
	anomaly.GSingleRealtime: {StrictSerializable},
	anomaly.G2ItemRealtime:  {StrictSerializable},

	// Timestamp variants contradict the database's own claimed time-
	// precedes order — the order Adya's SI formalization is defined
	// over — so they refute snapshot isolation and everything stronger.
	anomaly.G0Timestamp:      {SnapshotIsolation},
	anomaly.G1cTimestamp:     {SnapshotIsolation},
	anomaly.GSingleTimestamp: {SnapshotIsolation},
	anomaly.G2ItemTimestamp:  {SnapshotIsolation},

	// A k-atomicity violation refutes real-time atomicity of a single
	// register. Its transactions are single operations, so any
	// transactional order is satisfiable — only the strict (real-time)
	// model is ruled out.
	anomaly.KAtomicViolation: {StrictSerializable},

	// Structural anomalies mean the database is not even a database of
	// the claimed objects; no model in the lattice tolerates them.
	anomaly.GarbageRead:        {ReadUncommitted},
	anomaly.DuplicateElements:  {ReadUncommitted},
	anomaly.DuplicateAppends:   {ReadUncommitted},
	anomaly.Internal:           {ReadUncommitted},
	anomaly.CyclicVersionOrder: {StrictSerializable},
}

// Violated returns every model ruled out by the given anomaly types,
// sorted by position in All. A model is ruled out if any anomaly violates
// it directly or violates a model it implies. types may hold one entry
// per anomaly instance — tens of thousands, a handful distinct — so each
// distinct type is folded once.
func Violated(types []anomaly.Type) []Model {
	out := map[Model]bool{}
	seen := map[anomaly.Type]bool{}
	for _, t := range types {
		if seen[t] {
			continue
		}
		seen[t] = true
		for _, weak := range violates[t] {
			for _, m := range All {
				if Implies(m, weak) {
					out[m] = true
				}
			}
		}
	}
	return sortModels(out)
}

// MaySatisfy returns the models not ruled out by the given anomalies,
// weakest first.
func MaySatisfy(types []anomaly.Type) []Model {
	bad := map[Model]bool{}
	for _, m := range Violated(types) {
		bad[m] = true
	}
	var out []Model
	for _, m := range All {
		if !bad[m] {
			out = append(out, m)
		}
	}
	return out
}

// Strongest returns the maximal models (none implied by another surviving
// model) a history with the given anomalies may still satisfy.
func Strongest(types []anomaly.Type) []Model {
	may := MaySatisfy(types)
	var out []Model
	for _, m := range may {
		dominated := false
		for _, n := range may {
			if n != m && Implies(n, m) {
				dominated = true
				break
			}
		}
		if !dominated {
			out = append(out, m)
		}
	}
	return out
}

// Holds reports whether a history exhibiting the given anomaly types can
// still satisfy model m.
func Holds(m Model, types []anomaly.Type) bool {
	for _, v := range Violated(types) {
		if v == m {
			return false
		}
	}
	return true
}

func sortModels(set map[Model]bool) []Model {
	rank := map[Model]int{}
	for i, m := range All {
		rank[m] = i
	}
	var out []Model
	for m := range set {
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool { return rank[out[i]] < rank[out[j]] })
	return out
}
