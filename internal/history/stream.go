package history

import (
	"fmt"

	"repro/internal/op"
)

// Stream incrementally validates and accumulates an observation that
// arrives in chunks — the history-side half of the streaming checker.
// It is the implementation of the structural rules (index uniqueness,
// invoke/completion pairing, one outstanding invocation per process),
// New included: it checks them as each op arrives, so a malformed stream
// fails at the offending chunk instead of at the end, and pairs each
// completion with its invocation without re-walking the prefix.
//
// One streaming-only restriction applies: ops must arrive in strictly
// ascending Index order. New can sort a batch before validating;
// a stream cannot reorder what it has already analyzed.
//
// A Stream normally retains every accepted op. SetBudget bounds that:
// once a retirement window is configured, settled prefixes — ops whose
// invoke/completion spans are closed and fall behind the window — are
// encoded into compact immutable segments (optionally spilled to disk)
// and released from the live slices, making resident memory O(window)
// instead of O(history). History transparently rehydrates the segments.
type Stream struct {
	// ops is the live tail. The op at stream position p (0-based over
	// every accepted op) lives at ops[p-base]; positions below base have
	// been retired into segments. completion/invocation are aligned with
	// ops and store global positions.
	ops        []op.Op
	base       int
	completion []int
	invocation []int
	open       map[int]int // process -> global position of outstanding invoke

	keys *Interner

	hasInvoke     bool
	firstComp     int // op index of the first completion accepted in compact mode
	firstCompProc int // its process, for the retroactive pairing error
	lastIndex     int // Index of the most recently accepted op, -1 when none
	lastInvoke    int // Index of the invocation it pairs with (see LastInvoke)
	completions   int

	budget  Budget
	retired retired
	hist    *History // cached rehydration; only set once segments exist

	err error // sticky: a stream that errored stays errored
}

// NewStream returns an empty Stream.
func NewStream() *Stream {
	return &Stream{open: map[int]int{}, firstComp: -1, lastIndex: -1, keys: NewInterner()}
}

// batchStream returns a Stream that appends into ops — empty, with room
// for the whole batch — and sizes its pairing arrays to match. A batch
// drives add directly: it has nothing to retire.
func batchStream(ops []op.Op) *Stream {
	s := NewStream()
	s.ops = ops
	s.completion = make([]int, 0, cap(ops))
	s.invocation = make([]int, 0, cap(ops))
	return s
}

// Keys returns the stream's live key interner: every key of every
// accepted op, assigned dense KeyIDs in arrival order — the same IDs
// New assigns the same observation, since streams are index-ordered.
// It grows as ops are accepted; between Adds it is safe to read.
func (s *Stream) Keys() *Interner { return s.keys }

// Add validates and ingests one op. Errors are sticky: once Add fails,
// every later call returns the same error.
func (s *Stream) Add(o op.Op) error {
	if s.err != nil {
		return s.err
	}
	if err := s.add(o); err != nil {
		s.err = err
		return err
	}
	s.maybeRetire()
	return nil
}

// AddAll ingests ops in order, stopping at the first error.
func (s *Stream) AddAll(ops []op.Op) error {
	for _, o := range ops {
		if err := s.Add(o); err != nil {
			return err
		}
	}
	return nil
}

// add validates o fully before mutating any state, so a rejected op
// leaves no trace: History over a stream that errored contains only
// the ops accepted before the failure.
func (s *Stream) add(o op.Op) error {
	if s.base+len(s.ops) > 0 {
		if o.Index == s.lastIndex {
			return &Error{Index: o.Index, Msg: "duplicate index"}
		}
		if o.Index < s.lastIndex {
			return &Error{Index: o.Index,
				Msg: fmt.Sprintf("arrived after index %d: a stream must be index-ordered", s.lastIndex)}
		}
	}

	if o.Type == op.Invoke {
		if !s.hasInvoke && s.firstComp >= 0 {
			// The stream looked compact until now: every completion so
			// far lacks an invocation, and the first is the defect named.
			return &Error{Index: s.firstComp,
				Msg: fmt.Sprintf("completion for process %d with no outstanding invocation", s.firstCompProc)}
		}
		if prev, ok := s.open[o.Process]; ok {
			return &Error{Index: o.Index,
				Msg: fmt.Sprintf("process %d invoked while op index %d is outstanding", o.Process, s.ops[prev-s.base].Index)}
		}
		s.hasInvoke = true
		s.open[o.Process] = s.append(o)
		return nil
	}

	if !s.hasInvoke {
		// Compact so far: the op completes atomically at its own index.
		s.append(o)
		s.completions++
		if s.firstComp < 0 {
			s.firstComp = o.Index
			s.firstCompProc = o.Process
		}
		return nil
	}
	inv, ok := s.open[o.Process]
	if !ok {
		return &Error{Index: o.Index,
			Msg: fmt.Sprintf("completion for process %d with no outstanding invocation", o.Process)}
	}
	pos := s.append(o)
	s.completions++
	delete(s.open, o.Process)
	s.completion[inv-s.base] = pos
	s.invocation[pos-s.base] = inv
	s.lastInvoke = s.ops[inv-s.base].Index
	return nil
}

// append accepts o at the next stream position (global: retirement does
// not renumber) and returns that position.
func (s *Stream) append(o op.Op) int {
	pos := s.base + len(s.ops)
	for _, m := range o.Mops {
		s.keys.Intern(m.Key)
	}
	s.ops = append(s.ops, o)
	s.completion = append(s.completion, -1)
	s.invocation = append(s.invocation, -1)
	s.lastIndex, s.lastInvoke = o.Index, o.Index
	return pos
}

// Op returns the completion with the given index if the live tail still
// holds it (see Lookup); a retired op is not found.
func (s *Stream) Op(index int) (op.Op, bool) { return find(s.ops, index) }

// Len returns the number of ops ingested (including invokes and ops
// already retired into segments).
func (s *Stream) Len() int { return s.base + len(s.ops) }

// Completions returns the number of completion ops ingested.
func (s *Stream) Completions() int { return s.completions }

// Err returns the sticky error, if any.
func (s *Stream) Err() error { return s.err }

// LastInvoke returns the index of the invocation the last accepted op
// pairs with — History.Span's first bound for that op: its invoke's index
// for a paired completion, the op's own index for an invoke or a compact
// completion. Read right after Add, it holds even when that Add retired
// the invocation.
func (s *Stream) LastInvoke() int { return s.lastInvoke }

// History returns the accumulated ops as a validated History. It is
// equivalent to New over the same ops (which a streaming caller must
// have delivered in index order), without re-validating the stream.
// The History aliases the stream's internal state: take it once, when
// the stream is complete, and do not Add afterwards.
//
// If retirement has released any prefix (see SetBudget), History
// rehydrates it — every segment is decoded back into a fresh stream,
// which re-validates the full op sequence — and caches the result: an
// O(history) operation in time and memory, paid once at finish rather
// than throughout the stream's life. It panics if a spilled segment can
// no longer be read (the spill file lives unlinked on local disk for
// exactly the stream's lifetime, so this indicates hardware-level I/O
// failure).
func (s *Stream) History() *History {
	if s.retired.ops == 0 {
		ops := s.ops
		if ops == nil {
			ops = []op.Op{} // empty, not nil, as New's
		}
		h := &History{Ops: ops, compact: !s.hasInvoke, keys: s.keys}
		h.keysOnce.Do(func() {}) // keys are built: History values compare equal either way
		if !h.compact {
			h.completion = s.completion
			h.invocation = s.invocation
		}
		return h
	}
	if s.hist != nil {
		return s.hist
	}
	r := batchStream(make([]op.Op, 0, s.Len()))
	if err := s.Replay(r.add); err != nil {
		// Every op was validated on the way in: this is a spill read
		// failure, or a codec that decodes to what the rules reject.
		panic(fmt.Sprintf("history: rehydrating retired segments: %v", err))
	}
	s.hist = r.History()
	if s.retired.spill != nil {
		s.retired.spill.Close()
	}
	return s.hist
}
