package report

import (
	"io"
	"strconv"

	"repro/internal/anomaly"
	"repro/internal/consistency"
	"repro/internal/jsonhist"
)

// flushAt is the buffered size past which Write hands its buffer to the
// writer, between anomalies: the most a report of any size holds in
// memory beyond one anomaly's text.
const flushAt = 32 << 10

// Write emits the report as indented JSON, appended straight from the
// check result and flushed to w in bounded pieces as it goes. The shape:
//
//	{
//	  "valid": bool,
//	  "expected_model": string,
//	  "workload": string,
//	  "violated_models": [string] or null when empty,
//	  "strongest_models": [string] or null when empty,
//	  "anomalies": [{"type", "key", "txns", "cycle", "k", "explanation"}]
//	               or null when empty; each member but type is omitted
//	               when empty or zero,
//	  "history": {"ops", "attempts", "committed", "aborted",
//	              "indeterminate", "processes", "keys", "max_concurrent"},
//	  "graph": {"nodes", "edges", "cyclic_components"}
//	}
//
// The bytes are exactly what encoding/json's Encoder with
// SetIndent("", "  ") writes for that shape as tagged structs — member
// order, escaping and the trailing newline included — which the tests
// hold it to.
func (r Report) Write(w io.Writer) error {
	res := r.res
	e := &encoder{w: w, buf: make([]byte, 0, flushAt+flushAt/2)}
	e.buf = append(e.buf, '{')
	e.key(1, "valid", true)
	e.buf = strconv.AppendBool(e.buf, res.Valid)
	e.key(1, "expected_model", false)
	e.str(string(res.Expected))
	e.key(1, "workload", false)
	e.str(r.workload.String())
	e.key(1, "violated_models", false)
	e.models(1, res.Violated)
	e.key(1, "strongest_models", false)
	e.models(1, res.Strongest)
	e.key(1, "anomalies", false)
	if len(res.Anomalies) == 0 {
		e.buf = append(e.buf, "null"...)
	} else {
		e.buf = append(e.buf, '[')
		for i, a := range res.Anomalies {
			if i > 0 {
				e.buf = append(e.buf, ',')
			}
			e.newline(2)
			e.buf = AppendAnomaly(e.buf, a)
			if len(e.buf) >= flushAt && !e.flush() {
				return e.err
			}
		}
		e.newline(1)
		e.buf = append(e.buf, ']')
	}
	e.key(1, "history", false)
	e.object(1, []field{
		{"ops", r.hist.Ops},
		{"attempts", r.hist.Attempts},
		{"committed", r.hist.Committed},
		{"aborted", r.hist.Aborted},
		{"indeterminate", r.hist.Indeterminate},
		{"processes", r.hist.Processes},
		{"keys", r.hist.Keys},
		{"max_concurrent", r.hist.MaxConcurrent},
	})
	e.key(1, "graph", false)
	e.object(1, []field{
		{"nodes", res.Stats.Nodes},
		{"edges", res.Stats.Edges},
		{"cyclic_components", res.Stats.SCCs},
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

func (e *encoder) str(s string) { e.buf = jsonhist.AppendString(e.buf, s) }

func (e *encoder) int(n int) { e.buf = strconv.AppendInt(e.buf, int64(n), 10) }

// elem starts the i'th element of a list at depth.
func (e *encoder) elem(depth, i int) {
	if i > 0 {
		e.buf = append(e.buf, ',')
	}
	e.newline(depth)
}

// models writes a list of models whose member line is at depth, or
// null when it is empty.
func (e *encoder) models(depth int, ms []consistency.Model) {
	if len(ms) == 0 {
		e.buf = append(e.buf, "null"...)
		return
	}
	e.buf = append(e.buf, '[')
	for i, m := range ms {
		e.elem(depth+1, i)
		e.str(string(m))
	}
	e.newline(depth)
	e.buf = append(e.buf, ']')
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

// AppendAnomaly appends one finding's JSON object to dst, exactly as
// Write writes it as an element of a report's anomalies list: type, then
// key, txns, cycle, k and explanation, each omitted when empty or zero.
// An anomaly with a cycle lists the cycle's nodes as its txns and
// renders the cycle; any other lists its ops' indices. elled's status
// and chunk responses carry these bytes for provisional findings.
func AppendAnomaly(dst []byte, a anomaly.Anomaly) []byte {
	e := encoder{buf: dst}
	e.buf = append(e.buf, '{')
	e.key(3, "type", true)
	e.str(string(a.Type))
	if a.Key != "" {
		e.key(3, "key", false)
		e.str(a.Key)
	}
	if steps := a.Cycle.Steps; len(steps) > 0 {
		e.key(3, "txns", false)
		e.buf = append(e.buf, '[')
		for i, s := range steps {
			e.elem(4, i)
			e.int(s.From)
		}
		e.newline(3)
		e.buf = append(e.buf, ']')
		if cycle := a.Cycle.String(); cycle != "" {
			e.key(3, "cycle", false)
			e.str(cycle)
		}
	} else if len(a.Ops) > 0 {
		e.key(3, "txns", false)
		e.buf = append(e.buf, '[')
		for i, o := range a.Ops {
			e.elem(4, i)
			e.int(o.Index)
		}
		e.newline(3)
		e.buf = append(e.buf, ']')
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
	return append(e.buf, '}')
}
