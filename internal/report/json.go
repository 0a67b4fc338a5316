package report

import (
	"io"
	"strconv"
	"unicode/utf8"
)

// flushAt is the buffered size past which Write hands its buffer to the
// writer, between anomalies: the most a report of any size holds in
// memory beyond one anomaly's text.
const flushAt = 32 << 10

// Write emits the report as indented JSON: exactly the bytes
// encoding/json's Encoder with SetIndent("", "  ") produces for r —
// field order, omitempty, null for nil lists, escaping and the trailing
// newline — but appended directly, with no reflection and no second
// pass to indent, and flushed to w in bounded pieces as it goes.
func (r Report) Write(w io.Writer) error {
	e := &encoder{w: w, buf: make([]byte, 0, flushAt+flushAt/2)}
	e.buf = append(e.buf, '{')
	e.key(1, "valid", true)
	e.buf = strconv.AppendBool(e.buf, r.Valid)
	e.key(1, "expected_model", false)
	e.str(r.Expected)
	e.key(1, "workload", false)
	e.str(r.Workload)
	e.key(1, "violated_models", false)
	e.strs(1, r.Violated)
	e.key(1, "strongest_models", false)
	e.strs(1, r.Strongest)
	e.key(1, "anomalies", false)
	switch {
	case r.Anomalies == nil:
		e.buf = append(e.buf, "null"...)
	case len(r.Anomalies) == 0:
		e.buf = append(e.buf, "[]"...)
	default:
		e.buf = append(e.buf, '[')
		for i, a := range r.Anomalies {
			if i > 0 {
				e.buf = append(e.buf, ',')
			}
			e.newline(2)
			e.anomaly(a)
			if len(e.buf) >= flushAt && !e.flush() {
				return e.err
			}
		}
		e.newline(1)
		e.buf = append(e.buf, ']')
	}
	e.key(1, "history", false)
	e.object(1, []field{
		{"ops", r.History.Ops},
		{"attempts", r.History.Attempts},
		{"committed", r.History.Committed},
		{"aborted", r.History.Aborted},
		{"indeterminate", r.History.Indeterminate},
		{"processes", r.History.Processes},
		{"keys", r.History.Keys},
		{"max_concurrent", r.History.MaxConcurrent},
	})
	e.key(1, "graph", false)
	e.object(1, []field{
		{"nodes", r.Graph.Nodes},
		{"edges", r.Graph.Edges},
		{"cyclic_components", r.Graph.SCCs},
	})
	e.newline(0)
	e.buf = append(e.buf, '}', '\n')
	e.flush()
	return e.err
}

// encoder appends one report's JSON into buf, handing it to w in pieces.
type encoder struct {
	w   io.Writer
	buf []byte
	err error
}

// flush writes the buffer out and empties it, reporting whether the
// write succeeded.
func (e *encoder) flush() bool {
	if _, err := e.w.Write(e.buf); err != nil {
		e.err = err
		return false
	}
	e.buf = e.buf[:0]
	return true
}

const indent = "\n                "

// newline starts a line indented to depth.
func (e *encoder) newline(depth int) {
	e.buf = append(e.buf, indent[:1+2*depth]...)
}

// key starts an object member at depth: the comma before every member
// but the first, the line, and the name.
func (e *encoder) key(depth int, name string, first bool) {
	if !first {
		e.buf = append(e.buf, ',')
	}
	e.newline(depth)
	e.buf = append(e.buf, '"')
	e.buf = append(e.buf, name...)
	e.buf = append(e.buf, '"', ':', ' ')
}

func (e *encoder) str(s string) { e.buf = appendString(e.buf, s) }

func (e *encoder) int(n int) { e.buf = strconv.AppendInt(e.buf, int64(n), 10) }

// strs writes a list of strings whose member line is at depth.
func (e *encoder) strs(depth int, ss []string) {
	switch {
	case ss == nil:
		e.buf = append(e.buf, "null"...)
	case len(ss) == 0:
		e.buf = append(e.buf, "[]"...)
	default:
		e.buf = append(e.buf, '[')
		for i, s := range ss {
			if i > 0 {
				e.buf = append(e.buf, ',')
			}
			e.newline(depth + 1)
			e.str(s)
		}
		e.newline(depth)
		e.buf = append(e.buf, ']')
	}
}

// field is one member of an all-int object.
type field struct {
	name string
	n    int
}

// object writes an object of int members whose member line is at depth.
func (e *encoder) object(depth int, fs []field) {
	e.buf = append(e.buf, '{')
	for i, f := range fs {
		e.key(depth+1, f.name, i == 0)
		e.int(f.n)
	}
	e.newline(depth)
	e.buf = append(e.buf, '}')
}

// anomaly writes one element of the anomalies list, omitting the
// omitempty members that are empty.
func (e *encoder) anomaly(a Anomaly) {
	e.buf = append(e.buf, '{')
	e.key(3, "type", true)
	e.str(a.Type)
	if a.Key != "" {
		e.key(3, "key", false)
		e.str(a.Key)
	}
	if len(a.Txns) > 0 {
		e.key(3, "txns", false)
		e.buf = append(e.buf, '[')
		for i, t := range a.Txns {
			if i > 0 {
				e.buf = append(e.buf, ',')
			}
			e.newline(4)
			e.int(t)
		}
		e.newline(3)
		e.buf = append(e.buf, ']')
	}
	if a.Cycle != "" {
		e.key(3, "cycle", false)
		e.str(a.Cycle)
	}
	if a.K != 0 {
		e.key(3, "k", false)
		e.int(a.K)
	}
	if a.Explanation != "" {
		e.key(3, "explanation", false)
		e.str(a.Explanation)
	}
	e.newline(2)
	e.buf = append(e.buf, '}')
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

// appendString appends s as a JSON string escaped the way encoding/json
// escapes it: \" \\ \b \f \n \r \t, \u00XX in lowercase hex for the
// other control bytes and for < > &, \ufffd for each byte of invalid
// UTF-8, and \u2028 and \u2029 for the line and paragraph separators.
func appendString(dst []byte, s string) []byte {
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
// appendString's byte loop takes over there.
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
