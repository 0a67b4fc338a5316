package jsonhist

import (
	"fmt"
	"io"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"
	"unsafe"

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
		{Parallelism: 4, chunkBytes: 128},
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
		if opts.chunkBytes == 128 && chunks < 10 {
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

// arrivals is a source that delivers one send per Read, and blocks
// while nothing has arrived: a producer that pauses. Closing it ends
// the stream.
type arrivals chan string

func (a arrivals) Read(p []byte) (int, error) {
	s, ok := <-a
	if !ok {
		return 0, io.EOF
	}
	if len(s) > len(p) {
		panic("a send larger than the read")
	}
	return copy(p, s), nil
}

// TestStreamDecoderDeliversWhatArrived: a Next returns every whole line
// that has arrived without waiting for more, carries the half line that
// follows them, and numbers a bad line by its place in the whole stream
// once the rest arrives.
func TestStreamDecoderDeliversWhatArrived(t *testing.T) {
	line := func(i int) string {
		return `{"index":` + itoa(i) + `,"type":"ok","process":0,"value":[["append","k",` + itoa(i) + `]]}` + "\n"
	}
	var first, rest strings.Builder
	for i := 0; i < 300; i++ {
		first.WriteString(line(i))
	}
	half := line(300)
	first.WriteString(half[:len(half)/2])
	rest.WriteString(half[len(half)/2:])
	for i := 301; i < 500; i++ {
		if i == 449 {
			rest.WriteString("not json\n") // line 450
			continue
		}
		rest.WriteString(line(i))
	}

	src := make(arrivals, 1)
	src <- first.String()
	d := NewStreamDecoder(src, DecodeOpts{Parallelism: 2})
	type result struct {
		ops []op.Op
		err error
	}
	done := make(chan result, 1)
	go func() {
		ops, err := d.Next()
		done <- result{ops, err}
	}()
	select {
	case r := <-done:
		if r.err != nil || len(r.ops) != 300 || r.ops[299].Index != 299 {
			t.Fatalf("first Next: %d ops, error %v; want the 300 that arrived", len(r.ops), r.err)
		}
	case <-time.After(5 * time.Second):
		close(src)
		t.Fatal("Next waited for input past the 300 whole lines that had arrived")
	}
	if d.Pending() != len(half)/2 {
		t.Fatalf("Pending() = %d, want the %d bytes of the half line", d.Pending(), len(half)/2)
	}

	src <- rest.String()
	close(src)
	if _, err := drain(d); err == nil || !strings.HasPrefix(err.Error(), "jsonhist: line 450: ") {
		t.Fatalf("error %v; want one naming line 450", err)
	}
}

// TestDecodeWithSharesTraces: a key's trace lives as long as the
// decoder, so two prefix-related reads of one key share a backing array
// even when many reads of the source lie between them.
func TestDecodeWithSharesTraces(t *testing.T) {
	var b strings.Builder
	b.WriteString(`{"index":0,"type":"ok","process":0,"value":[["r","k",[1,2]]]}` + "\n")
	for i := 1; i < 200; i++ {
		b.WriteString(`{"index":` + itoa(i) + `,"type":"ok","process":1,"value":[["append","j",` + itoa(i) + `]]}` + "\n")
	}
	b.WriteString(`{"index":200,"type":"ok","process":0,"value":[["r","k",[1,2,3]]]}` + "\n")
	input := b.String()

	opts := DecodeOpts{Parallelism: 1, chunkBytes: 256}
	reads := 0
	d := NewStreamDecoder(strings.NewReader(input), opts)
	for _, err := d.Next(); err == nil; _, err = d.Next() {
		reads++
	}
	if reads < 20 {
		t.Fatalf("the input took %d reads; want many", reads)
	}
	h, err := DecodeWith(strings.NewReader(input), opts)
	if err != nil {
		t.Fatal(err)
	}
	early, late := h.Ops[0].Mops[0].List, h.Ops[200].Mops[0].List
	if !slices.Equal(late, []int{1, 2, 3}) || unsafe.SliceData(early) != unsafe.SliceData(late) {
		t.Fatalf("reads %v and %v of one key do not share a backing array", early, late)
	}
}
