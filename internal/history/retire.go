package history

import (
	"repro/internal/op"
)

// A SegmentCodec (de)serializes retired op segments. The stream never
// interprets segment bytes itself, so the encoding is pluggable; the
// production codec is binhist.Segments, which writes each segment as a
// self-contained ellebin stream (own header and key dictionary), making
// the concatenation of every segment plus the live tail a valid ellebin
// file. The codec must round-trip exactly: Decode(Encode(ops)) yields
// ops unchanged, field for field.
//
// The codec is injected rather than imported because binhist sits above
// this package (it returns validated Histories).
type SegmentCodec interface {
	// AppendOps appends the encoding of ops to dst and returns the
	// grown slice.
	AppendOps(dst []byte, ops []op.Op) ([]byte, error)
	// Decode invokes fn for every op in one or more concatenated
	// segments, in order, stopping at fn's first error.
	Decode(b []byte, fn func(op.Op) error) error
}

// Budget configures settled-prefix retirement for a Stream.
type Budget struct {
	// Window is how many of the most recent completions stay fully
	// resident. Ops behind the window whose spans are closed are
	// retired. 0 disables retirement.
	Window int
	// Codec serializes retired segments; required when Window > 0.
	Codec SegmentCodec
	// SpillDir, when non-empty, is the directory where encoded segments
	// are spilled to an unlinked temporary file instead of being held
	// in memory, bounding resident memory by O(Window) regardless of
	// history length. Empty keeps segments in memory (still a large
	// constant-factor win: encoded ops cost a few bytes each).
	SpillDir string
}

// RetireStats describes how much of a stream has been retired.
type RetireStats struct {
	// ResidentOps is the live-tail length: ops still held decoded.
	ResidentOps int
	// RetiredOps / RetiredCompletions count ops released into segments.
	RetiredOps         int
	RetiredCompletions int
	// Segments is the retired segment count.
	Segments int
	// RetiredBytes is the encoded segment bytes held in memory;
	// SpilledBytes the encoded bytes written to the spill file.
	RetiredBytes int
	SpilledBytes int64
	// Degraded describes any fallback taken (spill I/O failure, codec
	// failure). Retirement degrades rather than corrupting: on spill
	// trouble segments stay in memory, on codec trouble retirement
	// stops and the stream simply grows.
	Degraded string
}

// segment is one retired prefix: nops ops (ncomps of them completions)
// encoded into either an in-memory byte slice or a spill-file extent.
type segment struct {
	data    []byte
	ref     SpillRef
	spilled bool
	nops    int
	ncomps  int
}

// retired is a Stream's retirement state.
type retired struct {
	segs  []segment
	ops   int
	comps int
	bytes int // in-memory encoded bytes

	spill    *Spill
	disabled bool // codec failed; no further retirement
	degraded string
}

// SetBudget configures retirement. Call it before feeding ops;
// enabling it mid-stream affects only ops accepted afterwards (nothing
// already accepted is retroactively retired until the next sweep).
// A Window > 0 with a nil Codec disables retirement.
func (s *Stream) SetBudget(b Budget) {
	s.budget = b
}

// RetireStats reports the stream's current retirement counters.
func (s *Stream) RetireStats() RetireStats {
	st := RetireStats{
		ResidentOps:        len(s.ops),
		RetiredOps:         s.retired.ops,
		RetiredCompletions: s.retired.comps,
		Segments:           len(s.retired.segs),
		RetiredBytes:       s.retired.bytes,
		Degraded:           s.retired.degraded,
	}
	if s.retired.spill != nil {
		st.SpilledBytes = s.retired.spill.Size()
	}
	return st
}

// maybeRetire sweeps once the live tail holds at least twice the
// window's completions, so each sweep retires about a window's worth
// and the amortized cost per op is O(1).
func (s *Stream) maybeRetire() {
	w := s.budget.Window
	if w <= 0 || s.budget.Codec == nil || s.retired.disabled {
		return
	}
	live := s.completions - s.retired.comps
	if live < 2*w {
		return
	}
	s.retire(live - w)
}

// retire releases the prefix up to the drop'th live completion. The
// boundary honors one pin: it never passes an outstanding invocation
// (its completion has not arrived, so pairing state must stay live).
// Closed spans may straddle the boundary freely — an invoke whose
// completion survives in the live tail retires with its segment, and
// rehydration re-pairs them, because Replay preserves the original op
// order across segments and tail. Requiring whole spans would be fatal
// on continuously concurrent histories: with c busy clients some span
// crosses every candidate cut, and no prefix would ever retire.
func (s *Stream) retire(drop int) {
	// Candidate boundary: the position just past the drop'th live
	// completion.
	end, seen := 0, 0
	for end < len(s.ops) && seen < drop {
		if s.ops[end].Type != op.Invoke {
			seen++
		}
		end++
	}
	b := s.base + end
	for _, p := range s.open {
		if p < b {
			b = p
		}
	}
	n := b - s.base
	if n <= 0 {
		return
	}

	prefix := s.ops[:n]
	data, err := s.budget.Codec.AppendOps(nil, prefix)
	if err != nil {
		// A codec that cannot encode leaves the ops resident: the
		// stream grows but stays correct.
		s.retired.disabled = true
		s.retired.degraded = "segment codec failed: " + err.Error()
		return
	}
	seg := segment{nops: n}
	for _, o := range prefix {
		if o.Type != op.Invoke {
			seg.ncomps++
		}
	}
	if s.budget.SpillDir != "" {
		seg.ref, seg.spilled = s.spillSegment(data)
	}
	if !seg.spilled {
		seg.data = data
		s.retired.bytes += len(data)
	}
	s.retired.segs = append(s.retired.segs, seg)
	s.retired.ops += seg.nops
	s.retired.comps += seg.ncomps

	// Copy the survivors into fresh backing so the retired prefix (and
	// whatever arena slabs its mops pin) is actually collectible.
	s.ops = append(make([]op.Op, 0, len(s.ops)-n), s.ops[n:]...)
	s.completion = append(make([]int, 0, len(s.completion)-n), s.completion[n:]...)
	s.invocation = append(make([]int, 0, len(s.invocation)-n), s.invocation[n:]...)
	s.base = b
}

// spillSegment writes one encoded segment to the spill file, opening it
// lazily. Any I/O failure downgrades to in-memory segments for the rest
// of the stream.
func (s *Stream) spillSegment(data []byte) (SpillRef, bool) {
	var err error
	if s.retired.spill == nil {
		s.retired.spill, err = NewSpill(s.budget.SpillDir)
	}
	var ref SpillRef
	if err == nil {
		ref, err = s.retired.spill.Append(data)
	}
	if err != nil {
		s.budget.SpillDir = ""
		s.retired.degraded = "spill disabled: " + err.Error()
		return SpillRef{}, false
	}
	return ref, true
}

// Replay invokes fn over every accepted op in order — retired segments
// decoded one at a time, then the live tail — without materializing
// the whole history. It is the bounded-memory way to walk a budgeted
// stream.
func (s *Stream) Replay(fn func(op.Op) error) error {
	var buf []byte
	for _, seg := range s.retired.segs {
		data := seg.data
		if seg.spilled {
			var err error
			buf, err = s.retired.spill.Read(seg.ref, buf[:0])
			if err != nil {
				return err
			}
			data = buf
		}
		if err := s.budget.Codec.Decode(data, fn); err != nil {
			return err
		}
	}
	for _, o := range s.ops {
		if err := fn(o); err != nil {
			return err
		}
	}
	return nil
}
