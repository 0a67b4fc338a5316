package jsonhist

import (
	"bytes"
	"fmt"
	"io"
	"slices"

	"repro/internal/op"
	"repro/internal/par"
)

// StreamDecoder incrementally parses a JSON-lines history, yielding ops
// read by read — the bridge between a (possibly still growing) byte
// stream and the incremental checker's Feed calls.
//
// Each Next reads once from the source, and reads again only while it
// holds no whole line. It parses the whole lines it holds where they
// lie, cut into parts of about a megabyte that parse across Parallelism
// workers, and carries a partial last line over to the next read. So a
// paused producer (a live test run writing its history) never delays
// ops that have already arrived, and a source that fills every read
// (DecodeWith's) is parsed a buffer of parts at a time. Part i of every
// read goes to the decoder's parser i, whose interned keys and traces
// live as long as the decoder. The first malformed line, in line order,
// is reported by its number in the whole stream.
type StreamDecoder struct {
	r        io.Reader
	register bool
	p        int
	part     int    // raw bytes one parse unit carries
	buf      []byte // read buffer: buf[:held] is the carried partial line
	held     int
	line     int // lines parsed so far
	parts    []part
	parsers  []*lineParser
	err      error // sticky terminal state, io.EOF included
}

// part is one parse unit of a read: whole lines, and the number of the
// first.
type part struct {
	text  []byte
	first int
}

// NewStreamDecoder returns a decoder reading from r under opts. Its read
// buffer starts at one part and doubles, up to Parallelism parts, only
// while reads fill it; past that it grows only for a line longer than
// itself.
func NewStreamDecoder(r io.Reader, opts DecodeOpts) *StreamDecoder {
	size := chunkTarget
	if opts.chunkBytes > 0 {
		size = opts.chunkBytes
	}
	return &StreamDecoder{
		r:        r,
		register: opts.Register,
		p:        par.Procs(opts.Parallelism),
		part:     size,
		buf:      make([]byte, size),
	}
}

// Pending returns how many bytes of a partial last line the decoder
// holds — nonzero exactly when the stream, if it ended now, would end
// mid-line. Tail readers use it to tell "writer paused inside a line"
// from "stream complete".
func (d *StreamDecoder) Pending() int { return d.held }

// ChunkDecoder decodes a JSON-lines history delivered as chunks of
// whole lines, such as HTTP chunk uploads: the JSON counterpart of
// binhist.ChunkDecoder. One parser serves every chunk, so a key is
// interned once and its list reads share one trace across chunks. The
// zero value is ready to use.
type ChunkDecoder struct {
	// Register selects register read decoding, as DecodeOpts.Register
	// does. Set it before the first Feed.
	Register bool
	p        lineParser
}

// Feed decodes body's lines where they lie; nothing it returns aliases
// body. An error names its line counting from body's first, and is
// terminal for the stream.
func (c *ChunkDecoder) Feed(body []byte) ([]op.Op, error) {
	return parseLines(&c.p, body, 1, c.Register)
}

// Next returns the next chunk of decoded ops, in input order. It
// returns io.EOF when the stream is exhausted; any other error (a
// malformed line, a failed read) is terminal and sticky.
func (d *StreamDecoder) Next() ([]op.Op, error) {
	for d.err == nil {
		n, rerr := d.r.Read(d.buf[d.held:])
		d.held += n
		text := d.buf[:d.held]
		filled := d.held == len(d.buf)
		whole := bytes.LastIndexByte(text, '\n') + 1
		switch {
		case rerr == io.EOF:
			// A final line without its newline is still a line.
			whole, d.err = len(text), io.EOF
		case rerr != nil:
			// The partial line goes: the read failure is the real
			// error, and parsing the fragment would mask it with a
			// phantom syntax error.
			d.err = fmt.Errorf("jsonhist: %w", rerr)
		}
		ops, err := d.parse(text[:whole])
		if err != nil {
			d.err = err
			return nil, err
		}
		d.held = copy(d.buf, text[whole:])
		if filled {
			d.grow()
		}
		if len(ops) > 0 {
			return ops, nil
		}
	}
	return nil, d.err
}

// grow doubles the read buffer after a read filled it: up to
// Parallelism parts, and past that only while it holds one partial line
// that fills it.
func (d *StreamDecoder) grow() {
	limit := d.p * d.part
	if d.held == len(d.buf) {
		limit = 2 * len(d.buf)
	}
	if len(d.buf) >= limit {
		return
	}
	grown := make([]byte, min(2*len(d.buf), limit))
	copy(grown, d.buf[:d.held])
	d.buf = grown
}

// parse decodes text, whole lines, in parts of d.part bytes: part i with
// the decoder's parser i, across the worker pool, the ops in input
// order. An error is the first malformed line's.
func (d *StreamDecoder) parse(text []byte) ([]op.Op, error) {
	d.parts = d.parts[:0]
	for len(text) > 0 {
		cut := len(text)
		if cut > d.part {
			if nl := bytes.IndexByte(text[d.part-1:], '\n'); nl >= 0 {
				cut = d.part + nl
			}
		}
		d.parts = append(d.parts, part{text: text[:cut], first: d.line + 1})
		d.line += bytes.Count(text[:cut], []byte{'\n'})
		text = text[cut:]
	}
	for len(d.parsers) < len(d.parts) {
		d.parsers = append(d.parsers, new(lineParser))
	}
	switch len(d.parts) {
	case 0:
		return nil, nil
	case 1:
		return parseLines(d.parsers[0], d.parts[0].text, d.parts[0].first, d.register)
	}
	ops := make([][]op.Op, len(d.parts))
	errs := par.Map(d.p, len(d.parts), func(i int) (err error) {
		ops[i], err = parseLines(d.parsers[i], d.parts[i].text, d.parts[i].first, d.register)
		return err
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return slices.Concat(ops...), nil
}

// parseLines decodes the lines of text, numbered from first, with p.
// Blank lines are skipped; a final line without its newline is still a
// line. An error names its line.
func parseLines(p *lineParser, text []byte, first int, register bool) ([]op.Op, error) {
	ops := make([]op.Op, 0, bytes.Count(text, []byte{'\n'})+1)
	for line := first; len(text) > 0; line++ {
		l := text
		if nl := bytes.IndexByte(text, '\n'); nl >= 0 {
			l = text[:nl+1]
		}
		text = text[len(l):]
		if len(trimSpace(l)) == 0 {
			continue
		}
		o, err := p.parse(l, register)
		if err != nil {
			return nil, fmt.Errorf("jsonhist: line %d: %w", line, err)
		}
		ops = append(ops, o)
	}
	return ops, nil
}
