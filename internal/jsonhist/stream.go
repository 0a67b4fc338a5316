package jsonhist

import (
	"bufio"
	"bytes"
	"fmt"
	"io"

	"repro/internal/op"
	"repro/internal/par"
)

// StreamDecoder incrementally parses a JSON-lines history, yielding ops
// chunk by chunk — the bridge between a (possibly still growing) byte
// stream and the incremental checker's Feed calls.
//
// In the default (batch) tuning it behaves exactly like DecodeWith's
// internals: whole lines are gathered into ~1 MB chunks, a round of up
// to Parallelism chunks parses across the worker pool while the next
// round is read from the stream, and Next returns each round's ops in
// input order, reporting the first malformed line (in line order) just
// as the sequential decoder would.
//
// With Opts.Tail set it trades throughput for latency: one line per
// chunk, one chunk per round, no read-ahead — every line is delivered
// the moment it parses, so a paused producer (a live test run writing
// its history) never delays ops that have already arrived.
type StreamDecoder struct {
	opts DecodeOpts
	p    int
	br   *bufio.Reader

	line     int
	readErr  error
	readDone bool
	pending  chan parsedRound
	err      error // sticky terminal state, io.EOF included
}

// NewStreamDecoder returns a decoder reading from r under opts.
func NewStreamDecoder(r io.Reader, opts DecodeOpts) *StreamDecoder {
	bufSize := 1 << 20
	if opts.Tail {
		// A tailing reader delivers small bursts; a huge buffer only
		// adds copy slack.
		bufSize = 1 << 16
	}
	return &StreamDecoder{
		opts: opts,
		p:    par.Procs(opts.Parallelism),
		br:   bufio.NewReaderSize(r, bufSize),
	}
}

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
	if d.err != nil {
		return nil, d.err
	}
	for {
		if d.pending == nil {
			round := d.readRound()
			if len(round) == 0 {
				return nil, d.terminate()
			}
			d.launch(round)
		}
		// Read the next round while the pending one parses — unless
		// tailing, where waiting for more input must never delay ops
		// already in flight.
		var next []*chunk
		if !d.opts.Tail {
			next = d.readRound()
		}
		results := <-d.pending
		d.pending = nil
		if results.panicked != nil {
			panic(results.panicked)
		}
		if len(next) > 0 {
			d.launch(next)
		}
		var ops []op.Op
		for _, res := range results.chunks {
			if res.err != nil {
				d.err = res.err
				return nil, d.err
			}
			ops = concat(ops, res.ops)
		}
		if len(ops) > 0 {
			return ops, nil
		}
		// A round of blank lines only: keep going.
	}
}

// terminate resolves the end of the stream into the sticky error state.
func (d *StreamDecoder) terminate() error {
	if d.readErr != nil {
		d.err = fmt.Errorf("jsonhist: %w", d.readErr)
	} else {
		d.err = io.EOF
	}
	return d.err
}

// chunkBytes resolves the per-chunk byte target.
func (d *StreamDecoder) chunkBytes() int {
	if d.opts.Tail {
		return 1 // any positive size: one line per chunk
	}
	if d.opts.ChunkBytes > 0 {
		return d.opts.ChunkBytes
	}
	return chunkTarget
}

// nextChunk gathers whole lines from the reader until the chunk target.
func (d *StreamDecoder) nextChunk() (*chunk, bool) {
	c := chunkPool.Get().(*chunk)
	c.firstLine = d.line + 1
	d.readChunk(c)
	if len(c.buf) == 0 {
		c.release()
		return nil, false
	}
	return c, true
}

// readChunk fills c from the reader. Lines (of any length — long lines
// are reassembled across buffer refills) are copied into the chunk's
// pooled contiguous buffer as they are read, so the chunk never aliases
// the bufio window and a chunk of n lines costs no per-line allocations.
func (d *StreamDecoder) readChunk(c *chunk) {
	c.buf = c.buf[:0]
	target := d.chunkBytes()
	for len(c.buf) < target && !d.readDone {
		lineStart := len(c.buf)
		var err error
		for {
			var frag []byte
			frag, err = d.br.ReadSlice('\n')
			c.buf = append(c.buf, frag...)
			if err != bufio.ErrBufferFull {
				break
			}
			// A line longer than the read buffer: keep accumulating it.
		}
		if err != nil {
			if err == io.EOF {
				// A final unterminated line is still a line.
				if len(c.buf) > lineStart {
					d.line++
				}
			} else {
				// Drop the truncated fragment: the read failure is the
				// real error, and parsing the fragment would mask it
				// with a phantom syntax error.
				d.readErr = err
				c.buf = c.buf[:lineStart]
			}
			d.readDone = true
			break
		}
		d.line++
	}
}

// readRound gathers up to one worker's worth of chunks (one chunk when
// tailing).
func (d *StreamDecoder) readRound() []*chunk {
	width := d.p
	if d.opts.Tail {
		width = 1
	}
	var round []*chunk
	for len(round) < width && !d.readDone {
		if c, ok := d.nextChunk(); ok {
			round = append(round, c)
		}
	}
	return round
}

// parsedRound is one launched round's outcome: its chunks' results, or
// the value its parse panicked with.
type parsedRound struct {
	chunks   []parsed
	panicked any
}

// launch starts parsing a round: inline for sequential or single-chunk
// rounds, across the worker pool otherwise. A pool round runs on a
// goroutine of its own, where par.Map's re-panic would end the process:
// it recovers the value and hands it to Next, which re-panics on its
// caller's goroutine.
func (d *StreamDecoder) launch(round []*chunk) {
	ch := make(chan parsedRound, 1)
	if d.p <= 1 || len(round) == 1 {
		ch <- parsedRound{chunks: []parsed{d.parseRoundInline(round)}}
	} else {
		go func(rd []*chunk) {
			defer func() {
				if v := recover(); v != nil {
					ch <- parsedRound{panicked: v}
				}
			}()
			ch <- parsedRound{chunks: par.Map(d.p, len(rd), func(i int) parsed { return d.parseChunk(rd[i]) })}
		}(round)
	}
	d.pending = ch
}

func (d *StreamDecoder) parseRoundInline(round []*chunk) parsed {
	var all parsed
	for _, c := range round {
		res := d.parseChunk(c)
		if res.err != nil {
			return res
		}
		all.ops = concat(all.ops, res.ops)
	}
	return all
}

// concat is append(ops, more...), except that the first non-empty slice
// is passed through rather than copied — the usual round is one chunk.
func concat(ops, more []op.Op) []op.Op {
	if len(ops) == 0 {
		return more
	}
	return append(ops, more...)
}

// parseChunk decodes one chunk's lines with the chunk's own scan-first
// parser (scan.go), returning its buffers to the pool when done:
// nothing the parser produces aliases the chunk text (keys are interned
// copies, mop slices are copied out of scratch).
func (d *StreamDecoder) parseChunk(c *chunk) parsed {
	defer c.release()
	if c.parser == nil {
		c.parser = new(lineParser)
	}
	ops, err := parseLines(c.parser, c.buf, c.firstLine, d.opts.Register)
	return parsed{ops: ops, err: err}
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
