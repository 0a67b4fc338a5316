// Package jsonhist reads and writes histories as JSON lines, one op per
// line, in a format close to Jepsen's EDN histories:
//
//	{"index":0,"type":"invoke","process":0,"value":[["append",3,1],["r",4,null]]}
//	{"index":1,"type":"ok","process":0,"value":[["append",3,1],["r",4,[1,2]]]}
//
// Micro-ops are 3-element arrays [fun, key, value]. For reads, the value
// is null (unknown), a list of ints (list read), or an int / null-marker
// for register reads; for writes it is the written int. Keys may be
// strings or numbers.
//
// Decoding uses a hand-rolled structural scanner (scan.go) rather than
// encoding/json: ~an order of magnitude fewer allocations and several
// times the throughput, while accepting exactly the same lines (pinned
// by the differential oracle in oracle_test.go). See docs/FORMATS.md;
// for a binary format that is faster still, see package binhist.
//
// A decoded list read is read-only, and may share memory with other
// reads of its key: a decoder keeps one trace buffer per key and hands
// out prefixes of it (op.ShareList). A trace lives as long as its
// decoder — StreamDecoder (and DecodeWith) keeps one parser per part of
// a read, ChunkDecoder one for every chunk — so reads far apart in the
// input share it. Nothing a decoder returns shares a list with what
// another decoder returns.
package jsonhist

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"unicode/utf8"

	"repro/internal/history"
	"repro/internal/op"
)

// DecodeOpts configures decoding.
type DecodeOpts struct {
	// Register selects register read decoding (value is an int or null)
	// over list read decoding (value is an array or null).
	Register bool
	// Parallelism caps the workers parsing chunks of lines: <= 0 means
	// one per CPU, 1 parses sequentially. The decoded history is
	// identical at every setting.
	Parallelism int

	// chunkBytes, when > 0, replaces chunkTarget as the raw bytes one
	// part of a read carries, so that tests reach many reads and parts
	// on a small input.
	chunkBytes int
}

// Decode reads a JSON-lines history. Blank lines are skipped. The
// register flag selects register read decoding (value is an int or null)
// over list read decoding (value is an array or null).
func Decode(r io.Reader, register bool) (*history.History, error) {
	return DecodeWith(r, DecodeOpts{Register: register, Parallelism: 1})
}

// chunkTarget is how many raw history bytes one part of a read
// carries. Big enough that fan-out overhead vanishes against JSON
// parsing; small enough that a buffer of parts never approaches the
// history's size.
const chunkTarget = 1 << 20

// DecodeWith reads a JSON-lines history through a StreamDecoder over a
// reader that fills every read it asks for, so each read is a buffer
// of up to Parallelism parts of ~1 MB whole lines parsed across a
// worker pool, even from a pipe that delivers a little at a time. Raw
// bytes are dropped as soon as their read is parsed, so
// multi-million-op histories never live in memory twice; ops are
// collected in input order, and the first malformed line (in line
// order) is reported just as the sequential decoder would.
//
// Callers that want the ops as they parse (the incremental checker)
// drive the StreamDecoder directly. The reads' ops are kept as Next
// returns them and joined once, at their exact total; the history
// takes the joined slice over (history.Adopt) rather than copying it
// again.
func DecodeWith(r io.Reader, opts DecodeOpts) (*history.History, error) {
	d := NewStreamDecoder(fullReader{r}, opts)
	var rounds [][]op.Op
	total := 0
	for {
		round, err := d.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		rounds = append(rounds, round)
		total += len(round)
	}
	ops := make([]op.Op, 0, total)
	for _, round := range rounds {
		ops = append(ops, round...)
	}
	return history.Adopt(ops)
}

// fullReader fills every read it is asked for, or ends it early with
// the error that stopped it (io.ReadFull's semantics, with the error
// passed through as it came).
type fullReader struct{ r io.Reader }

func (f fullReader) Read(p []byte) (n int, err error) {
	for n < len(p) && err == nil {
		var m int
		m, err = f.r.Read(p[n:])
		n += m
	}
	return n, err
}

func trimSpace(b []byte) []byte {
	start, end := 0, len(b)
	for start < end && (b[start] == ' ' || b[start] == '\t' || b[start] == '\r' || b[start] == '\n') {
		start++
	}
	for end > start && (b[end-1] == ' ' || b[end-1] == '\t' || b[end-1] == '\r' || b[end-1] == '\n') {
		end--
	}
	return b[start:end]
}

// Encode writes h as JSON lines. Lines are built with appenders into
// one reused buffer — no reflection, no per-op allocations — and are
// byte-identical to what encoding/json produced for the same history
// (member order, omitted zero time, HTML-escaped strings; pinned
// against the oracle encoder in oracle_test.go).
func Encode(w io.Writer, h *history.History) error {
	bw := bufio.NewWriter(w)
	var buf []byte
	for i := range h.Ops {
		var err error
		buf, err = appendOp(buf[:0], &h.Ops[i])
		if err != nil {
			return err
		}
		if _, err := bw.Write(buf); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// appendOp appends one encoded op line, newline included.
func appendOp(dst []byte, o *op.Op) ([]byte, error) {
	dst = append(dst, `{"index":`...)
	dst = strconv.AppendInt(dst, int64(o.Index), 10)
	dst = append(dst, `,"type":`...)
	dst = AppendString(dst, o.Type.String())
	dst = append(dst, `,"process":`...)
	dst = strconv.AppendInt(dst, int64(o.Process), 10)
	if o.Time != 0 {
		dst = append(dst, `,"time":`...)
		dst = strconv.AppendInt(dst, o.Time, 10)
	}
	dst = append(dst, `,"value":`...)
	if len(o.Mops) == 0 {
		return append(dst, "null}\n"...), nil
	}
	dst = append(dst, '[')
	for i := range o.Mops {
		if i > 0 {
			dst = append(dst, ',')
		}
		var err error
		dst, err = appendMop(dst, o.Mops[i])
		if err != nil {
			return dst, err
		}
	}
	return append(dst, "]}\n"...), nil
}

// appendMop appends one encoded [fun, key, value] micro-op.
func appendMop(dst []byte, m op.Mop) ([]byte, error) {
	var fun string
	switch m.F {
	case op.FAppend:
		fun = "append"
	case op.FAdd:
		fun = "add"
	case op.FIncrement:
		fun = "increment"
	case op.FWrite:
		fun = "w"
	case op.FRead:
		fun = "r"
	default:
		return dst, fmt.Errorf("jsonhist: cannot encode fun %v", m.F)
	}
	dst = append(dst, '[', '"')
	dst = append(dst, fun...)
	dst = append(dst, '"', ',')
	dst = AppendString(dst, m.Key)
	dst = append(dst, ',')
	switch {
	case m.F != op.FRead:
		dst = strconv.AppendInt(dst, int64(m.Arg), 10)
	case m.List != nil:
		dst = append(dst, '[')
		for i, v := range m.List {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = strconv.AppendInt(dst, int64(v), 10)
		}
		dst = append(dst, ']')
	case m.RegKnown && m.Reg != op.NilVersion:
		dst = strconv.AppendInt(dst, int64(m.Reg), 10)
	default:
		dst = append(dst, "null"...)
	}
	return append(dst, ']'), nil
}

// jsonSafe marks the ASCII bytes encoding/json copies into a string
// unescaped with HTML escaping on: printable, and none of " \ < > &.
var jsonSafe = func() (safe [utf8.RuneSelf]bool) {
	for b := ' '; b < utf8.RuneSelf; b++ {
		safe[b] = b != '"' && b != '\\' && b != '<' && b != '>' && b != '&'
	}
	return safe
}()

const hex = "0123456789abcdef"

// AppendString appends s as a JSON string escaped the way encoding/json
// escapes it: \" \\ \b \f \n \r \t, \u00XX in lowercase hex for the
// other control bytes and for < > &, \ufffd for each byte of invalid
// UTF-8, and \u2028 and \u2029 for the line and paragraph separators.
// It is the one JSON string escaper of the repository: Encode writes
// keys with it, and package report every string of a report.
func AppendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if i = skipPlain(s, i); i == len(s) {
			break
		}
		b := s[i]
		if b < utf8.RuneSelf {
			if jsonSafe[b] {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hex[b>>4], hex[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			start = i + size
		case c == '\u2028' || c == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hex[c&0xF])
			start = i + size
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// skipPlain returns i advanced over eight-byte groups of s that all copy
// through unescaped, testing each group in one word: a group holding a
// control byte, a non-ASCII byte, or one of " \ < > & stops it, and
// AppendString's byte loop takes over there.
func skipPlain(s string, i int) int {
	const ones, highs = 0x0101010101010101, 0x8080808080808080
	for ; i+8 <= len(s); i += 8 {
		w := s[i : i+8]
		x := uint64(w[0]) | uint64(w[1])<<8 | uint64(w[2])<<16 | uint64(w[3])<<24 |
			uint64(w[4])<<32 | uint64(w[5])<<40 | uint64(w[6])<<48 | uint64(w[7])<<56
		// A byte below 0x20 or at or above 0x80 sets its high bit here;
		// so does, in zeroByte, a byte equal to the one its xor cancels.
		if x&highs|(x-ones*0x20)&^x&highs|
			zeroByte(x^(ones*'"'))|zeroByte(x^(ones*'\\'))|
			zeroByte(x^(ones*'<'))|zeroByte(x^(ones*'>'))|zeroByte(x^(ones*'&')) != 0 {
			break
		}
	}
	return i
}

// zeroByte is nonzero when some byte of x is zero.
func zeroByte(x uint64) uint64 {
	const ones, highs = 0x0101010101010101, 0x8080808080808080
	return (x - ones) &^ x & highs
}
