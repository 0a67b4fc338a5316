package jsonhist

import (
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"

	"repro/internal/op"
)

func TestStreamDecoderMatchesDecode(t *testing.T) {
	var b strings.Builder
	for i := 0; i < 500; i++ {
		b.WriteString(`{"index":`)
		b.WriteString(itoa(i))
		b.WriteString(`,"type":"ok","process":0,"value":[["append",1,`)
		b.WriteString(itoa(i))
		b.WriteString(`]]}` + "\n")
	}
	input := b.String()
	want, err := Decode(strings.NewReader(input), false)
	if err != nil {
		t.Fatal(err)
	}
	for _, opts := range []DecodeOpts{
		{Parallelism: 1},
		{Parallelism: 4, ChunkBytes: 128},
		{Parallelism: 4, Tail: true},
	} {
		d := NewStreamDecoder(strings.NewReader(input), opts)
		var ops []op.Op
		chunks := 0
		for {
			c, err := d.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatalf("%+v: %v", opts, err)
			}
			chunks++
			ops = append(ops, c...)
		}
		if len(ops) != len(want.Ops) {
			t.Fatalf("%+v: got %d ops, want %d", opts, len(ops), len(want.Ops))
		}
		for i := range ops {
			if ops[i].Index != want.Ops[i].Index {
				t.Fatalf("%+v: op %d has index %d, want %d", opts, i, ops[i].Index, want.Ops[i].Index)
			}
		}
		if opts.Tail && chunks != 500 {
			t.Fatalf("tail mode delivered %d chunks, want one per line", chunks)
		}
		if opts.ChunkBytes == 128 && chunks < 10 {
			t.Fatalf("small chunks delivered only %d Next calls", chunks)
		}
		// The terminal state is sticky.
		if _, err := d.Next(); err != io.EOF {
			t.Fatalf("after EOF: %v", err)
		}
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

func TestStreamDecoderErrorOrder(t *testing.T) {
	// The malformed line must be reported with its line number, and the
	// error must be sticky, exactly like the batch decoder.
	input := `{"index":0,"type":"ok","process":0,"value":[]}
not json
{"index":2,"type":"ok","process":0,"value":[]}
`
	_, werr := Decode(strings.NewReader(input), false)
	if werr == nil {
		t.Fatal("batch decode should fail")
	}
	d := NewStreamDecoder(strings.NewReader(input), DecodeOpts{Parallelism: 4})
	var got error
	for {
		_, err := d.Next()
		if err != nil {
			got = err
			break
		}
	}
	if got == io.EOF || got == nil {
		t.Fatal("stream decode should fail")
	}
	if got.Error() != werr.Error() {
		t.Fatalf("stream error %q != batch error %q", got, werr)
	}
	if _, err := d.Next(); err == nil || err.Error() != got.Error() {
		t.Fatalf("error not sticky: %v", err)
	}
}

func TestStreamDecoderBlankAndUnterminated(t *testing.T) {
	input := "\n\n" + `{"index":0,"type":"ok","process":0,"value":[["r","x",null]]}` // no trailing newline
	d := NewStreamDecoder(strings.NewReader(input), DecodeOpts{Parallelism: 2})
	ops, err := d.Next()
	if err != nil {
		t.Fatal(err)
	}
	if len(ops) != 1 || ops[0].Index != 0 {
		t.Fatalf("ops = %+v", ops)
	}
	if _, err := d.Next(); err != io.EOF {
		t.Fatalf("want EOF, got %v", err)
	}
}

// TestChunkDecoderMatchesReader: fed an input as one chunk, a
// ChunkDecoder decodes the ops a StreamDecoder over a reader does, fails
// with the same error, and leaves the input as it was; fed the same
// input a line per chunk, it decodes the same ops, and an error names
// line 1 of its chunk.
func TestChunkDecoderMatchesReader(t *testing.T) {
	line := func(i int) string {
		return `{"index":` + itoa(i) + `,"type":"ok","process":0,"value":[["append","k",` + itoa(i) + `],["r","k",[1,2]]]}`
	}
	var many strings.Builder
	for i := 0; i < 300; i++ {
		many.WriteString(line(i) + "\n")
	}
	inputs := []string{
		"",
		"\n",
		" \r\n\n",
		line(0),
		line(0) + "\n",
		"\n\n" + line(0) + "\r\n\r\n" + line(1),
		many.String(),
		many.String() + line(300),
		line(0) + "\nnot json\n" + line(2) + "\n",
		many.String() + `{"index":1,"type":"ok","value":[["r"]]}`,
	}
	for _, input := range inputs {
		want, werr := drain(NewStreamDecoder(strings.NewReader(input), DecodeOpts{Parallelism: 1}))
		data := []byte(input)
		got, err := new(ChunkDecoder).Feed(data)
		if fmt.Sprint(err) != fmt.Sprint(werr) {
			t.Fatalf("%d input bytes in one chunk: error %v, reader's %v", len(input), err, werr)
		}
		if err == nil && len(got)+len(want) > 0 && !reflect.DeepEqual(got, want) {
			t.Fatalf("%d input bytes in one chunk: %d ops, reader's %d", len(input), len(got), len(want))
		}
		if string(data) != input {
			t.Fatalf("%d input bytes: decoding changed the input", len(input))
		}

		d := new(ChunkDecoder)
		got, err = nil, nil
		for _, l := range strings.SplitAfter(input, "\n") {
			var ops []op.Op
			if ops, err = d.Feed([]byte(l)); err != nil {
				break
			}
			got = append(got, ops...)
		}
		if (err == nil) != (werr == nil) || err != nil && !strings.HasPrefix(err.Error(), "jsonhist: line 1: ") {
			t.Fatalf("%d input bytes a line per chunk: error %v, reader's %v", len(input), err, werr)
		}
		if err == nil && !reflect.DeepEqual(got, want) {
			t.Fatalf("%d input bytes a line per chunk: %d ops, reader's %d", len(input), len(got), len(want))
		}
	}
}

// TestRoundPanicReachesNext: a panic while a round parses on the worker
// pool reaches Next's caller with its value, where recover contains it,
// rather than ending the process on the round's own goroutine.
func TestRoundPanicReachesNext(t *testing.T) {
	d := NewStreamDecoder(strings.NewReader(""), DecodeOpts{Parallelism: 2})
	want := recovered(func() { d.parseChunk(nil) })
	if want == nil {
		t.Fatal("parsing a nil chunk did not panic")
	}
	d.launch([]*chunk{nil, nil}) // two chunks at p = 2: the pool path
	if got := recovered(func() { d.Next() }); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("Next panicked with %v, want %v", got, want)
	}
}

// recovered runs f and returns the value it panicked with, or nil.
func recovered(f func()) (v any) {
	defer func() { v = recover() }()
	f()
	return nil
}
