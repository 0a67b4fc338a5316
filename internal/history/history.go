// Package history models an observation (§4.2.1 of the Elle paper): the
// experimentally-accessible record of every transaction a set of client
// processes executed against a database.
//
// A history is a flat, index-ordered sequence of ops. Two layouts are
// supported:
//
//   - Complete histories interleave Invoke ops with their OK/Fail/Info
//     completions, exactly as a Jepsen run records them. Invoke/completion
//     pairs carry the same Process; a process has at most one outstanding
//     invocation, which is what makes real-time inference possible.
//
//   - Compact histories contain completions only (common in tests and
//     hand-built examples). Each op is treated as invoking and completing
//     atomically at its own index.
//
// The package validates structural well-formedness, pairs invocations with
// completions, and exposes the derived views every analyzer needs: the
// completion list, per-process sequences, and the invoke/complete index
// mapping used to build the real-time precedence order. Stream is the one
// implementation of the structural rules: New feeds it a sorted batch, so
// both report the first defect in index order. (Completions ahead of the
// first invocation are only defects once it arrives; they are named then.)
package history

import (
	"cmp"
	"fmt"
	"slices"
	"sync"

	"repro/internal/op"
)

// History is a validated observation.
type History struct {
	// Ops is the full event sequence sorted by Index.
	Ops []op.Op

	// completion[i] holds, for the invoke op at Ops position i, the
	// position of its completion (or -1); invocation is the inverse. Both
	// are nil for compact histories.
	completion []int
	invocation []int
	compact    bool

	keys     *Interner
	keysOnce sync.Once
}

// An Error describes a structural problem that makes an observation
// unusable, such as two concurrent invocations by one process.
type Error struct {
	Index int
	Msg   string
}

func (e *Error) Error() string {
	return fmt.Sprintf("history: op index %d: %s", e.Index, e.Msg)
}

// New validates ops and builds a History. Ops may be given in any order;
// they are sorted by Index, ops sharing an Index keeping their given
// order. If no op has type Invoke, the history is treated as compact.
//
// New returns an error if indices repeat, if a process has two outstanding
// invocations, or if a completion arrives for a process with no outstanding
// invocation. Of several defects it reports the first in index order,
// exactly as a Stream fed the sorted ops does. Invocations still open at
// the end (crashed clients, a truncated tail) are tolerated.
func New(ops []op.Op) (*History, error) {
	sorted := make([]op.Op, len(ops))
	copy(sorted, ops)
	return Adopt(sorted)
}

// Adopt is New over a slice the caller gives up: the History keeps ops
// as its Ops, sorted in place if they are out of order, instead of
// copying them. The decoders, which own the slice they collect, build
// their histories through it; the caller must not use ops afterwards.
func Adopt(ops []op.Op) (*History, error) {
	if ops == nil {
		ops = []op.Op{} // as New's copy: an empty history's Ops is not nil
	}
	byIndex := func(a, b op.Op) int { return cmp.Compare(a.Index, b.Index) }
	if !slices.IsSortedFunc(ops, byIndex) {
		slices.SortStableFunc(ops, byIndex)
	}
	s := batchStream(ops[:0:len(ops)]) // each op is appended back into its own slot
	for _, o := range ops {
		if err := s.add(o); err != nil {
			return nil, err
		}
	}
	return s.History(), nil
}

// MustNew is New but panics on error; for tests and examples.
func MustNew(ops []op.Op) *History {
	h, err := New(ops)
	if err != nil {
		panic(err)
	}
	return h
}

// Keys returns the history-wide key interner: every key any op touches —
// invocations included, since analyzers consult crashed clients'
// attempted writes — assigned dense KeyIDs in first-appearance (index)
// order. New and Stream build it during ingestion; a History assembled
// some other way gets one lazily on first call. The interner must be
// treated as read-only.
func (h *History) Keys() *Interner {
	h.keysOnce.Do(func() {
		if h.keys != nil {
			return
		}
		h.keys = NewInterner()
		for _, o := range h.Ops {
			for _, m := range o.Mops {
				h.keys.Intern(m.Key)
			}
		}
	})
	return h.keys
}

// Compact reports whether the history contains completions only.
func (h *History) Compact() bool { return h.compact }

// Len returns the number of ops (including invokes).
func (h *History) Len() int { return len(h.Ops) }

// Completions returns the completion ops (OK, Fail, and Info), in index
// order. These are the units of analysis: each one is an observed
// transaction Tˆi.
func (h *History) Completions() []op.Op {
	n := 0
	for i := range h.Ops {
		if h.Ops[i].Type != op.Invoke {
			n++
		}
	}
	out := make([]op.Op, 0, n)
	for _, o := range h.Ops {
		if o.Type != op.Invoke {
			out = append(out, o)
		}
	}
	return out
}

// OKPositions returns the positions in Ops of the committed
// transactions, in index order, or nil if there are none: four bytes an
// op instead of a copy of each. Like Completions and Crashed it counts
// before it allocates: one exact slice, no growth. Analyzers walk
// committed ops through it.
func (h *History) OKPositions() []int32 {
	n := 0
	for i := range h.Ops {
		if h.Ops[i].Type == op.OK {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	out := make([]int32, 0, n)
	for pos := range h.Ops {
		if h.Ops[pos].Type == op.OK {
			out = append(out, int32(pos))
		}
	}
	return out
}

// Crashed returns the invocations that never completed — crashed
// clients, or the tail of a log still being written — in index order,
// or nil if there are none. What they attempted may have taken effect
// all the same, so analyzers consult them before calling an observed
// value garbage.
func (h *History) Crashed() []op.Op {
	crashed := func(pos, c int) bool { return c < 0 && h.Ops[pos].Type == op.Invoke }
	n := 0
	for pos, c := range h.completion {
		if crashed(pos, c) {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	out := make([]op.Op, 0, n)
	for pos, c := range h.completion {
		if crashed(pos, c) {
			out = append(out, h.Ops[pos])
		}
	}
	return out
}

// Span returns the invoke and completion indices bounding the transaction
// completed at position pos within Ops. For compact histories (and for
// an invocation itself) both bounds equal the op's own index; in a
// complete history every completion is paired.
func (h *History) Span(pos int) (invokeIdx, completeIdx int) {
	o := h.Ops[pos]
	if h.compact || o.Type == op.Invoke {
		return o.Index, o.Index
	}
	return h.Ops[h.invocation[pos]].Index, o.Index
}

// Lookup finds a completion op by its index, and reports whether there
// is one: a *History finds every completion, a *Stream those of its live
// tail, a budgeted session's KeyTracker those its live keys pin.
// Analyzers and explanations name ops by index and cite them through it,
// so each op is stored once.
type Lookup interface {
	Op(index int) (op.Op, bool)
}

// Op finds a completion (see Lookup). Ops are sorted by unique Index:
// when the indices run densely from the first op's, as every generated
// history's do, the op is at its offset; otherwise a binary search finds
// it.
func (h *History) Op(index int) (op.Op, bool) { return find(h.Ops, index) }

// find is Op over ops sorted by unique Index.
func find(ops []op.Op, index int) (op.Op, bool) {
	var i int
	if len(ops) > 0 {
		i = index - ops[0].Index // may wrap; the check below then fails
	}
	ok := i >= 0 && i < len(ops) && ops[i].Index == index
	if !ok {
		i, ok = slices.BinarySearchFunc(ops, index, func(o op.Op, t int) int { return cmp.Compare(o.Index, t) })
	}
	if !ok || ops[i].Type == op.Invoke {
		return op.Op{}, false
	}
	return ops[i], true
}

// ByProcess groups completion ops by process, preserving index order
// within each process. The per-process sequences define the process
// (session) order of §5.1.
func (h *History) ByProcess() map[int][]op.Op {
	out := map[int][]op.Op{}
	for _, o := range h.Ops {
		if o.Type != op.Invoke {
			out[o.Process] = append(out[o.Process], o)
		}
	}
	return out
}

// MaxIndex returns the largest op index, or -1 for an empty history.
func (h *History) MaxIndex() int {
	if len(h.Ops) == 0 {
		return -1
	}
	return h.Ops[len(h.Ops)-1].Index
}

// Builder incrementally assembles a history, assigning indices and
// (logical) times automatically. It is safe for single-goroutine use; the
// memdb recorder wraps it with a mutex.
type Builder struct {
	ops  []op.Op
	next int
}

// NewBuilder returns an empty Builder.
func NewBuilder() *Builder { return &Builder{} }

// Append adds o with the next index and a logical time equal to that
// index, returning the assigned index.
func (b *Builder) Append(o op.Op) int {
	o.Index = b.next
	if o.Time == 0 {
		o.Time = int64(b.next)
	}
	b.next++
	b.ops = append(b.ops, o)
	return o.Index
}

// Invoke records an invocation for process with the given mops.
func (b *Builder) Invoke(process int, mops []op.Mop) int {
	return b.Append(op.Op{Process: process, Type: op.Invoke, Mops: mops})
}

// Complete records a completion of the given type for process.
func (b *Builder) Complete(process int, t op.Type, mops []op.Mop) int {
	return b.Append(op.Op{Process: process, Type: t, Mops: mops})
}

// History validates and returns the built history.
func (b *Builder) History() (*History, error) { return New(b.ops) }

// MustHistory is History but panics on error.
func (b *Builder) MustHistory() *History {
	h, err := b.History()
	if err != nil {
		panic(err)
	}
	return h
}
