// Package op defines the vocabulary of observed database operations used
// throughout Elle: micro-operations (reads, writes, appends) grouped into
// transactions, and the four completion types a client can observe
// (invoke, ok, fail, info).
//
// The model follows §4.1 of Kingsbury & Alvaro, "Elle: Inferring Isolation
// Anomalies from Experimental Observations" (VLDB 2020): an observed
// operation is an operation whose versions and return values may be unknown.
// A transaction whose commit outcome is unknown (e.g. a timeout) is recorded
// with type Info; it may have committed in some interpretations and aborted
// in others.
package op

import (
	"fmt"
	"math"
	"strconv"
)

// Fun identifies the function of a micro-operation.
type Fun uint8

const (
	// FRead observes the current version of an object and returns it.
	FRead Fun = iota
	// FWrite blindly replaces the current version of a register.
	FWrite
	// FAppend appends a unique element to the end of a list object.
	FAppend
	// FAdd adds a unique element to a set object.
	FAdd
	// FIncrement adds an integer to a counter object.
	FIncrement
)

// String returns the Jepsen-style keyword for f.
func (f Fun) String() string {
	switch f {
	case FRead:
		return "r"
	case FWrite:
		return "w"
	case FAppend:
		return "append"
	case FAdd:
		return "add"
	case FIncrement:
		return "increment"
	default:
		return fmt.Sprintf("fun(%d)", uint8(f))
	}
}

// IsWrite reports whether f mutates its object.
func (f Fun) IsWrite() bool { return f != FRead }

// Mop is a single micro-operation within a transaction: one read, write,
// append, add, or increment applied to one object (identified by Key).
//
// Exactly which result fields are meaningful depends on Fun and on the
// workload:
//
//   - FAppend/FAdd/FIncrement/FWrite use Arg as the written value.
//   - FRead of a list object stores the observed list in List; a nil List
//     means the result is unknown (e.g. on an invoke), while an empty,
//     non-nil List means the database returned the empty list.
//   - FRead of a register or counter stores the observed value in Reg;
//     RegKnown distinguishes "observed nil / zero" from "unknown".
//
// The three one-byte fields come last, so a Mop is 64 bytes with a
// four-byte hole after them.
type Mop struct {
	Key string

	// Arg is the argument of a write-like micro-op: the element appended
	// or added, the value written, or the increment amount.
	Arg int

	// List is the observed value of a list or set read. nil = unknown.
	// A decoded List is read-only: it may share memory with other reads
	// of the same key (see ShareList).
	List []int

	// Reg is the observed value of a register or counter read, valid only
	// when RegKnown is true. A register read that observed the initial
	// (nil) version is encoded as RegKnown=true, RegNil=true; Version
	// gives either as a value.
	Reg int

	F        Fun
	RegKnown bool
	RegNil   bool
}

// Append constructs an append micro-op.
func Append(key string, elem int) Mop { return Mop{F: FAppend, Key: key, Arg: elem} }

// Add constructs a set-add micro-op.
func Add(key string, elem int) Mop { return Mop{F: FAdd, Key: key, Arg: elem} }

// Increment constructs a counter-increment micro-op.
func Increment(key string, delta int) Mop { return Mop{F: FIncrement, Key: key, Arg: delta} }

// Write constructs a register-write micro-op.
func Write(key string, v int) Mop { return Mop{F: FWrite, Key: key, Arg: v} }

// Read constructs a read micro-op with an unknown result.
func Read(key string) Mop { return Mop{F: FRead, Key: key} }

// ReadList constructs a completed list (or set) read that observed v.
// The result is never nil: an empty observation is recorded as []int{}.
func ReadList(key string, v []int) Mop {
	if v == nil {
		v = []int{}
	}
	return Mop{F: FRead, Key: key, List: v}
}

// ReadReg constructs a completed register read that observed v.
func ReadReg(key string, v int) Mop {
	return Mop{F: FRead, Key: key, Reg: v, RegKnown: true}
}

// ReadNil constructs a completed register read that observed the initial
// nil version.
func ReadNil(key string) Mop {
	return Mop{F: FRead, Key: key, RegKnown: true, RegNil: true}
}

// NilVersion is a register's initial version as a value: the version
// no write installs, which every inferred version order puts first
// (§5.2). It sorts below every written value; a register value of
// math.MinInt64 could not be told apart from it, so both history
// decoders refuse one with ErrNilVersion.
const NilVersion = math.MinInt64

// ErrNilVersion is the decoders' error for a register write or read of
// NilVersion's value.
var ErrNilVersion = fmt.Errorf("register value %d is reserved for the initial version", NilVersion)

// Version returns the register version a known read observed:
// NilVersion for the initial version, else Reg.
func (m Mop) Version() int {
	if m.RegNil {
		return NilVersion
	}
	return m.Reg
}

// FormatVersion renders a register version: "nil" for NilVersion, else
// the value in decimal.
func FormatVersion(v int) string {
	var buf [24]byte
	return string(AppendVersion(buf[:0], v))
}

// AppendVersion appends v as FormatVersion renders it to b and returns
// the result.
func AppendVersion(b []byte, v int) []byte {
	if v == NilVersion {
		return append(b, "nil"...)
	}
	return strconv.AppendInt(b, int64(v), 10)
}

// IsRead reports whether m is a read micro-op.
func (m Mop) IsRead() bool { return m.F == FRead }

// IsWrite reports whether m mutates its object.
func (m Mop) IsWrite() bool { return m.F.IsWrite() }

// ListKnown reports whether m is a list read with a known result.
func (m Mop) ListKnown() bool { return m.F == FRead && m.List != nil }

// String renders m in the paper's compact notation, e.g.
// "append(34, 5)" or "r(34, [2 1 5 4])".
func (m Mop) String() string {
	var buf [64]byte
	return string(m.AppendTo(buf[:0]))
}

// AppendTo appends m as String renders it to b and returns the result.
func (m Mop) AppendTo(b []byte) []byte {
	b = append(append(append(b, m.F.String()...), '('), m.Key...)
	switch {
	case m.F != FRead:
		b = strconv.AppendInt(append(b, ", "...), int64(m.Arg), 10)
	case m.List != nil:
		b = AppendList(append(b, ", "...), m.List)
	case m.RegKnown:
		b = AppendVersion(append(b, ", "...), m.Version())
	}
	return append(b, ')')
}

// FormatList renders a list value as "[1 2 3]".
func FormatList(v []int) string {
	var buf [64]byte
	return string(AppendList(buf[:0], v))
}

// AppendList appends v as FormatList renders it to b and returns the
// result.
func AppendList(b []byte, v []int) []byte {
	b = append(b, '[')
	for i, e := range v {
		if i > 0 {
			b = append(b, ' ')
		}
		b = strconv.AppendInt(b, int64(e), 10)
	}
	return append(b, ']')
}

// IsPrefix reports whether a is a prefix of b. It is the traceability
// test for list versions: if every committed read of x is a prefix of the
// longest read, the observation is consistent (§4.2.1).
func IsPrefix(a, b []int) bool {
	if len(a) > len(b) {
		return false
	}
	if len(a) > 0 && &a[0] == &b[0] {
		// Two windows of one shared trace (see ShareList).
		return true
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// ShareList stores v, an observed list value of one key held in the
// caller's scratch, so that a list version is resident once however
// many reads observe it (§3: every read of a list is a prefix of its
// version order). trace is the key's append-only buffer of the longest
// value seen so far. If v is a prefix of it, the result is a window of
// it; if it is a prefix of v, v's new elements are appended first, and
// a full buffer is replaced by one at least twice as large. Elements
// below the buffer's length are never rewritten, so every window handed
// out stays valid. Any other v — one diverging from the buffer — gets a
// private copy. Buffers and copies are carved from arena, the caller's
// slab of ints; each region is carved once, so one arena may serve many
// keys. An empty v is a shared empty, non-nil slice.
//
// The result's capacity is its length, so appending to it copies; it
// must never be written.
func ShareList(trace, arena *[]int, v []int) []int {
	t, n := *trace, len(v)
	switch {
	case n == 0:
		return emptyList
	case n <= len(t):
		if IsPrefix(v, t) {
			return t[:n:n]
		}
	case IsPrefix(t, v):
		if n > cap(t) {
			grown := carve(arena, len(t), max(2*cap(t), n, minTrace))
			copy(grown, t)
			t = grown
		}
		t = append(t, v[len(t):]...)
		*trace = t
		return t[:n:n]
	}
	l := carve(arena, n, n)
	copy(l, v)
	return l
}

// emptyList backs every observed-empty list ShareList stores.
var emptyList = make([]int, 0)

const (
	// minTrace is the capacity of a key's first trace buffer.
	minTrace = 16
	// listSlab is the size of the slabs ShareList carves from; a region
	// of more than a quarter of one is allocated on its own.
	listSlab = 4096
)

// carve returns a region of n ints with capacity c, carved from arena.
func carve(arena *[]int, n, c int) []int {
	if c > listSlab/4 {
		return make([]int, n, c)
	}
	a := *arena
	if cap(a)-len(a) < c {
		a = make([]int, 0, listSlab)
	}
	start := len(a)
	*arena = a[:start+c]
	return a[start : start+n : start+c]
}

// Type is the completion type of an observed operation.
type Type uint8

const (
	// Invoke records the start of a transaction; read results are unknown.
	Invoke Type = iota
	// OK records a transaction known to have committed.
	OK
	// Fail records a transaction known to have aborted.
	Fail
	// Info records a transaction with an unknown outcome: the client timed
	// out or crashed before learning whether its commit succeeded. Its
	// writes may or may not have taken effect.
	Info
)

// String returns the Jepsen-style name for t.
func (t Type) String() string {
	switch t {
	case Invoke:
		return "invoke"
	case OK:
		return "ok"
	case Fail:
		return "fail"
	case Info:
		return "info"
	default:
		return fmt.Sprintf("type(%d)", uint8(t))
	}
}

// Op is one observed operation: a transaction attempt or its completion.
// A complete history interleaves Invoke ops with their OK/Fail/Info
// completions; a compact history contains completions only.
type Op struct {
	// Index is the op's unique, strictly increasing position in the
	// history. It doubles as the op's identity in graphs and reports.
	Index int
	// Process identifies the single-threaded logical client that executed
	// the op. A process has at most one outstanding transaction.
	Process int
	// Time is an optional wall-clock or logical timestamp in nanoseconds.
	Time int64
	// Type is the completion type.
	Type Type
	// Mops is the transaction body, in program order.
	Mops []Mop
}

// Txn constructs a compact completed op. It is the usual way to build
// histories by hand in tests and examples.
func Txn(index, process int, t Type, mops ...Mop) Op {
	return Op{Index: index, Process: process, Type: t, Mops: mops}
}

// Committed reports whether the op is known to have committed.
func (o Op) Committed() bool { return o.Type == OK }

// Aborted reports whether the op is known to have aborted.
func (o Op) Aborted() bool { return o.Type == Fail }

// Indeterminate reports whether the op's outcome is unknown.
func (o Op) Indeterminate() bool { return o.Type == Info }

// MayHaveCommitted reports whether any interpretation of the observation
// could map this op to a committed transaction.
func (o Op) MayHaveCommitted() bool { return o.Type == OK || o.Type == Info }

// WritesKey reports whether the transaction contains a write-like micro-op
// on key.
func (o Op) WritesKey(key string) bool {
	for _, m := range o.Mops {
		if m.IsWrite() && m.Key == key {
			return true
		}
	}
	return false
}

// Keys returns the distinct keys touched by the transaction, in first-use
// order.
func (o Op) Keys() []string {
	seen := make(map[string]bool, len(o.Mops))
	var keys []string
	for _, m := range o.Mops {
		if !seen[m.Key] {
			seen[m.Key] = true
			keys = append(keys, m.Key)
		}
	}
	return keys
}

// String renders the op as "T42(ok): append(3, 837), r(4, [874 877 883])".
func (o Op) String() string {
	var buf [128]byte
	return string(o.AppendTo(buf[:0]))
}

// AppendTo appends o as String renders it to b and returns the result.
func (o Op) AppendTo(b []byte) []byte {
	b = append(append(append(AppendName(b, o.Index), '('), o.Type.String()...), "): "...)
	for i, m := range o.Mops {
		if i > 0 {
			b = append(b, ", "...)
		}
		b = m.AppendTo(b)
	}
	return b
}

// Name returns the short transaction label used in explanations, e.g. "T42".
func (o Op) Name() string {
	var buf [24]byte
	return string(AppendName(buf[:0], o.Index))
}

// AppendName appends the label Name gives the op at index to b and
// returns the result.
func AppendName(b []byte, index int) []byte {
	return strconv.AppendInt(append(b, 'T'), int64(index), 10)
}
