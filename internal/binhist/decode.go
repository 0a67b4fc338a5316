package binhist

import (
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/history"
	"repro/internal/op"
)

// decoder holds the cross-record decode state: the key dictionary, each
// key's trace — the buffer its list reads share (see op.ShareList) —
// and whether the current stream segment's header has been consumed.
// Mop slices and lists are carved out of slab arenas — the slices
// retain their slab, so nothing is copied out, but a million-op decode
// makes hundreds of slice allocations instead of millions.
type decoder struct {
	keys   []string
	traces [][]int // by KeyID, like keys
	opened bool

	ints     []int // list-read scratch, stored out per mop (op.ShareList)
	mopArena []op.Mop
	intArena []int
}

const arenaSlab = 4096

// allocMops returns a zeroed n-mop slice carved from the arena,
// capacity-clipped so a later append can never bleed into a neighbor.
func (d *decoder) allocMops(n int) []op.Mop {
	if cap(d.mopArena)-len(d.mopArena) < n {
		d.mopArena = make([]op.Mop, 0, max(arenaSlab, n))
	}
	start := len(d.mopArena)
	d.mopArena = d.mopArena[:start+n]
	// Every region is carved exactly once from a fresh slab, so the
	// mops are already zero.
	return d.mopArena[start : start+n : start+n]
}

// decodeAll consumes every complete record in buf, appending decoded
// ops to dst. It returns the grown slice and the number of bytes
// consumed; a partial trailing record (or header, or length prefix) is
// left unconsumed for the caller to retry with more bytes.
func (d *decoder) decodeAll(buf []byte, dst []op.Op) ([]op.Op, int, error) {
	pos := 0
	for {
		// A header is expected at stream start and accepted at any record
		// boundary (a fresh segment: concatenated files, standalone
		// chunks) — within a segment the dictionary persists. After the
		// first header, a record boundary byte equal to magic[0] is
		// ambiguous (0xEB is also a legal length-prefix byte), so the
		// header path is taken only while every available byte keeps
		// matching the magic; one mismatch falls through to record
		// framing, which rejects the impostor on its own terms.
		if !d.opened || (pos < len(buf) && IsMagic(buf[pos:])) {
			if len(buf)-pos < headerLen {
				if !d.opened && pos < len(buf) && !IsMagic(buf[pos:]) {
					return dst, pos, framingErr("bad magic")
				}
				return dst, pos, nil // partial header: wait for more
			}
			if !IsMagic(buf[pos : pos+7]) {
				return dst, pos, framingErr("bad magic")
			}
			if v := buf[pos+7]; v != Version {
				return dst, pos, framingErr("unsupported version %d (have %d)", v, Version)
			}
			pos += headerLen
			d.opened = true
			d.keys = d.keys[:0]
			clear(d.traces)
			d.traces = d.traces[:0]
			continue
		}
		if pos == len(buf) {
			return dst, pos, nil
		}
		n, w := binary.Uvarint(buf[pos:])
		if w == 0 {
			return dst, pos, nil // partial length prefix
		}
		if w < 0 || n > maxRecordBytes {
			return dst, pos, framingErr("record length %d exceeds the %d-byte bound", n, maxRecordBytes)
		}
		if n == 0 {
			return dst, pos, framingErr("empty record")
		}
		if len(buf)-pos-w < int(n) {
			return dst, pos, nil // partial payload
		}
		payload := buf[pos+w : pos+w+int(n)]
		switch payload[0] {
		case recDict:
			// Copy: payload aliases the caller's (reused) buffer.
			d.keys = append(d.keys, string(payload[1:]))
			d.traces = append(d.traces, nil)
		case recOp:
			o, err := d.decodeOp(payload[1:])
			if err != nil {
				return dst, pos, err
			}
			dst = append(dst, o)
		default:
			return dst, pos, framingErr("unknown record kind 0x%02x", payload[0])
		}
		pos += w + int(n)
	}
}

// decodeOp decodes one op record payload (the bytes after the kind
// byte). The payload must be consumed exactly: leftover or missing
// bytes are framing violations.
func (d *decoder) decodeOp(b []byte) (op.Op, error) {
	var o op.Op
	index, b, err := uvarint(b)
	if err != nil {
		return o, err
	}
	process, b, err := uvarint(b)
	if err != nil {
		return o, err
	}
	time, b, err := uvarint(b)
	if err != nil {
		return o, err
	}
	if len(b) == 0 {
		return o, framingErr("op record ends before type byte")
	}
	if b[0] > byte(op.Info) {
		return o, framingErr("unknown op type 0x%02x", b[0])
	}
	o.Index = int(unzigzag(index))
	o.Process = int(unzigzag(process))
	o.Time = unzigzag(time)
	o.Type = op.Type(b[0])
	b = b[1:]
	nmops, b, err := uvarint(b)
	if err != nil {
		return o, err
	}
	if nmops > uint64(len(b)) {
		// Each mop costs at least two bytes; a count beyond the payload
		// is corrupt, and guarding here bounds the Mops allocation.
		return o, framingErr("mop count %d exceeds record size", nmops)
	}
	if nmops > 0 {
		o.Mops = d.allocMops(int(nmops))
	}
	for i := uint64(0); i < nmops; i++ {
		m := &o.Mops[i]
		if len(b) == 0 {
			return o, framingErr("mop %d: record ends before tag", i)
		}
		tag := b[0]
		b = b[1:]
		fun := op.Fun(tag & 0x07)
		if fun > op.FIncrement || tag>>5 != 0 {
			return o, framingErr("mop %d: invalid tag 0x%02x", i, tag)
		}
		kid, rest, err := uvarint(b)
		if err != nil {
			return o, err
		}
		b = rest
		if kid >= uint64(len(d.keys)) {
			return o, framingErr("mop %d: key id %d has no dictionary entry (%d known)", i, kid, len(d.keys))
		}
		m.F = fun
		m.Key = d.keys[kid]
		kind := (tag >> 3) & 0x03
		switch {
		case fun != op.FRead:
			if kind != readUnknown {
				return o, framingErr("mop %d: read-value kind on a write tag 0x%02x", i, tag)
			}
			arg, rest, err := uvarint(b)
			if err != nil {
				return o, err
			}
			b = rest
			m.Arg = int(unzigzag(arg))
			if fun == op.FWrite && m.Arg == op.NilVersion {
				return o, fmt.Errorf("binhist: mop %d: %w", i, op.ErrNilVersion)
			}
		case kind == readNil:
			m.RegKnown, m.RegNil = true, true
		case kind == readReg:
			v, rest, err := uvarint(b)
			if err != nil {
				return o, err
			}
			b = rest
			m.Reg, m.RegKnown = int(unzigzag(v)), true
			if m.Reg == op.NilVersion {
				return o, fmt.Errorf("binhist: mop %d: %w", i, op.ErrNilVersion)
			}
		case kind == readList:
			n, rest, err := uvarint(b)
			if err != nil {
				return o, err
			}
			b = rest
			if n > uint64(len(b)) {
				// Elements cost at least one byte each (n==0 is the
				// legitimate observed-empty list).
				return o, framingErr("mop %d: list length %d exceeds record size", i, n)
			}
			list := d.ints[:0]
			for range n {
				v, rest, err := uvarint(b)
				if err != nil {
					return o, err
				}
				b = rest
				list = append(list, int(unzigzag(v)))
			}
			d.ints = list
			m.List = op.ShareList(&d.traces[kid], &d.intArena, list)
		}
	}
	if len(b) != 0 {
		return o, framingErr("op record has %d trailing bytes", len(b))
	}
	return o, nil
}

// uvarint reads one varint from b, returning the remainder. The
// single-byte case — almost every field in a real history — inlines.
func uvarint(b []byte) (uint64, []byte, error) {
	if len(b) > 0 && b[0] < 0x80 {
		return uint64(b[0]), b[1:], nil
	}
	return uvarintSlow(b)
}

func uvarintSlow(b []byte) (uint64, []byte, error) {
	v, w := binary.Uvarint(b)
	if w <= 0 {
		return 0, b, framingErr("truncated or overlong varint")
	}
	return v, b[w:], nil
}

// A ChunkDecoder decodes an ellebin stream delivered as discrete byte
// chunks split at arbitrary offsets — HTTP chunk uploads, tail reads.
// The dictionary persists across feeds; a partial trailing record is
// buffered until the next feed completes it. The zero value is ready
// to use.
type ChunkDecoder struct {
	d   decoder
	rem []byte
}

// Feed decodes every record completed by p, in order. Errors are
// terminal for the stream: the decoder's state is unspecified after
// one.
func (c *ChunkDecoder) Feed(p []byte) ([]op.Op, error) {
	buf := p
	if len(c.rem) > 0 {
		buf = append(c.rem, p...)
	}
	ops, consumed, err := c.d.decodeAll(buf, nil)
	if err != nil {
		return ops, err
	}
	c.rem = append(c.rem[:0], buf[consumed:]...)
	return ops, nil
}

// Pending returns how many bytes of an incomplete trailing record are
// buffered. A cleanly terminated stream leaves zero; anything else at
// end of input means the final record was cut off.
func (c *ChunkDecoder) Pending() int { return len(c.rem) }

// Close verifies the stream ended on a record boundary.
func (c *ChunkDecoder) Close() error {
	if len(c.rem) != 0 {
		return framingErr("stream ends %d bytes into a record", len(c.rem))
	}
	return nil
}

// StreamDecoder incrementally decodes an ellebin stream from a reader,
// yielding ops as bytes arrive — the binary counterpart of
// jsonhist.StreamDecoder, with the same Next contract: io.EOF at clean
// exhaustion, any other error terminal and sticky. A source that ends
// mid-record (truncation, rotation past a tail reader's offset) fails
// with an ErrFraming-wrapped error rather than returning a silently
// short history.
type StreamDecoder struct {
	r   io.Reader
	c   ChunkDecoder
	buf []byte
	err error
}

// NewStreamDecoder returns a decoder reading from r.
func NewStreamDecoder(r io.Reader) *StreamDecoder {
	return &StreamDecoder{r: r, buf: make([]byte, 1<<16)}
}

// Pending returns how many bytes of an incomplete trailing record are
// buffered — nonzero exactly when the stream, if it ended now, would
// end mid-record. Tail readers use it to tell "writer paused inside a
// record" from "stream complete".
func (d *StreamDecoder) Pending() int { return d.c.Pending() }

// Next returns the next batch of decoded ops.
func (d *StreamDecoder) Next() ([]op.Op, error) {
	if d.err != nil {
		return nil, d.err
	}
	for {
		n, rerr := d.r.Read(d.buf)
		var ops []op.Op
		if n > 0 {
			var err error
			ops, err = d.c.Feed(d.buf[:n])
			if err != nil {
				d.err = err
				return nil, d.err
			}
		}
		if rerr != nil {
			if rerr != io.EOF {
				d.err = fmt.Errorf("binhist: %w", rerr)
			} else if err := d.c.Close(); err != nil {
				d.err = err
			} else {
				d.err = io.EOF
			}
			if len(ops) > 0 {
				return ops, nil
			}
			return nil, d.err
		}
		if len(ops) > 0 {
			return ops, nil
		}
	}
}

// Decode reads a complete ellebin history from r. Unlike driving a
// StreamDecoder, ops decode straight out of one read buffer into one
// collected slice — presized from the source's size when it reports
// one — so batch decoding re-copies no stream bytes and produces no
// per-batch garbage. The history takes that slice over
// (history.Adopt) rather than copying it.
func Decode(r io.Reader) (*history.History, error) {
	var d decoder
	var ops []op.Op
	sizeHint := 0
	if l, ok := r.(interface{ Len() int }); ok {
		sizeHint = l.Len()
	}
	buf := make([]byte, 1<<18)
	filled, fed := 0, 0
	presized := false
	for {
		n, rerr := r.Read(buf[filled:])
		if n > 0 {
			fed += n
			filled += n
			var consumed int
			var err error
			ops, consumed, err = d.decodeAll(buf[:filled], ops)
			if err != nil {
				return nil, err
			}
			filled = copy(buf, buf[consumed:filled])
			if !presized && len(ops) > 0 {
				presized = true
				if sizeHint > fed {
					est := int(int64(len(ops))*int64(sizeHint)/int64(fed)) + 1
					if est > cap(ops) {
						grown := make([]op.Op, len(ops), est)
						copy(grown, ops)
						ops = grown
					}
				}
			}
			if filled == len(buf) {
				// One record larger than the buffer: grow. decodeAll's
				// maxRecordBytes check bounds the growth.
				grown := make([]byte, 2*len(buf))
				copy(grown, buf[:filled])
				buf = grown
			}
		}
		if rerr == io.EOF {
			if filled != 0 {
				return nil, framingErr("stream ends %d bytes into a record", filled)
			}
			break
		}
		if rerr != nil {
			return nil, fmt.Errorf("binhist: %w", rerr)
		}
	}
	return history.Adopt(ops)
}
