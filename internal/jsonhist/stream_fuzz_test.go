package jsonhist

import (
	"fmt"
	"io"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/iotest"

	"repro/internal/op"
)

// oracleDecode decodes input line by line with the preserved
// encoding/json oracle (oracle_test.go), returning the ops, the
// 1-based number of the first bad line (0 if none), and its error.
func oracleDecode(input string, register bool) ([]op.Op, int, error) {
	var ops []op.Op
	lines := strings.Split(input, "\n")
	if n := len(lines); n > 0 && lines[n-1] == "" {
		lines = lines[:n-1] // a trailing newline does not open a new line
	}
	for i, line := range lines {
		if len(trimSpace([]byte(line))) == 0 {
			continue
		}
		o, err := oracleParseLine([]byte(line), register)
		if err != nil {
			return nil, i + 1, err
		}
		ops = append(ops, o)
	}
	return ops, 0, nil
}

// drain collects every op a StreamDecoder yields plus its terminal
// error (io.EOF mapped to nil).
func drain(d *StreamDecoder) ([]op.Op, error) {
	var ops []op.Op
	for {
		chunk, err := d.Next()
		if err == io.EOF {
			return ops, nil
		}
		if err != nil {
			return ops, err
		}
		ops = append(ops, chunk...)
	}
}

// drainStable is drain, also holding the decoder to the contract on
// shared lists: every list a Next returned reads the same once the rest
// of the input has decoded. The decoder shares one trace buffer among a
// key's reads, and must never write below its length.
func drainStable(t *testing.T, d *StreamDecoder) ([]op.Op, error) {
	t.Helper()
	var ops []op.Op
	var lists, want [][]int
	defer func() {
		for i, l := range lists {
			if !slices.Equal(l, want[i]) {
				t.Fatalf("list %d read %v when decoded, %v at the end", i, want[i], l)
			}
		}
	}()
	for {
		chunk, err := d.Next()
		if err == io.EOF {
			return ops, nil
		}
		if err != nil {
			return ops, err
		}
		for _, o := range chunk {
			for _, m := range o.Mops {
				if len(m.List) > 0 {
					lists, want = append(lists, m.List), append(want, slices.Clone(m.List))
				}
			}
		}
		ops = append(ops, chunk...)
	}
}

// decodeBefore is the batch decode of the lines of input before the one
// err names.
func decodeBefore(t *testing.T, input string, err error, register bool) []op.Op {
	t.Helper()
	var line int
	if _, serr := fmt.Sscanf(err.Error(), "jsonhist: line %d:", &line); serr != nil {
		t.Fatalf("unparseable decode error %q", err)
	}
	end := 0
	for i := 1; i < line; i++ {
		end += strings.IndexByte(input[end:], '\n') + 1
	}
	ops, derr := drain(NewStreamDecoder(strings.NewReader(input[:end]), DecodeOpts{Register: register, Parallelism: 1}))
	if derr != nil {
		t.Fatalf("the lines before line %d do not decode: %v", line, derr)
	}
	return ops
}

// feedStable feeds input to d in chunks of whole lines, cutting after
// each line of odd length, and returns the ops, and for a rejected line
// its number in the whole input. Like drainStable it holds d to the
// contract on shared lists: no list a Feed returned changes while later
// chunks decode, though every chunk shares the decoder's traces.
func feedStable(t *testing.T, d *ChunkDecoder, input string) ([]op.Op, int, error) {
	t.Helper()
	var ops []op.Op
	var lists, want [][]int
	defer func() {
		for i, l := range lists {
			if !slices.Equal(l, want[i]) {
				t.Fatalf("list %d read %v when decoded, %v at the end", i, want[i], l)
			}
		}
	}()
	first, lines := 1, strings.SplitAfter(input, "\n")
	for len(lines) > 0 && lines[0] != "" {
		n := 1
		for n < len(lines) && len(lines[n-1])%2 == 0 {
			n++
		}
		chunk, err := d.Feed([]byte(strings.Join(lines[:n], "")))
		if err != nil {
			var line int
			if _, serr := fmt.Sscanf(err.Error(), "jsonhist: line %d:", &line); serr != nil {
				t.Fatalf("unparseable decode error %q", err)
			}
			return ops, first + line - 1, err
		}
		for _, o := range chunk {
			for _, m := range o.Mops {
				if len(m.List) > 0 {
					lists, want = append(lists, m.List), append(want, slices.Clone(m.List))
				}
			}
		}
		ops = append(ops, chunk...)
		first, lines = first+n, lines[n:]
	}
	return ops, 0, nil
}

// FuzzStreamDecoder holds three properties on arbitrary input: (1)
// every tuning — sequential, tiny parallel parts, reads of one byte or
// of half the buffer — decodes the same ops and reports the same first
// error as the plain sequential decode, and a ChunkDecoder fed the
// input split at line boundaries decodes those ops too, or fails at the
// same first bad line; (2) the
// scan-first parser agrees with the preserved encoding/json oracle on
// acceptance, on the decoded ops, and on which line is the first bad
// one (error *text* is the scanner's own and is not compared); (3) no
// list an earlier Next or Feed returned changes while the rest decodes.
func FuzzStreamDecoder(f *testing.F) {
	f.Add("")
	f.Add("\n\n")
	f.Add(`{"index":0,"type":"ok","process":0,"value":[["append","x",1]]}`)
	f.Add(`{"index":0,"type":"invoke","process":0,"value":[["r","x",null]]}
{"index":1,"type":"ok","process":0,"value":[["r","x",[1,2]]]}`)
	f.Add(`{"index":0,"type":"ok","process":0,"value":[["w",10,2],["r",10,null]]}`)
	f.Add("garbage\n" + `{"index":1,"type":"ok","process":0,"value":[]}`)
	f.Add(`{"index":0,"type":"ok","process":0,"value":[["r","x",{"bad":1}]]}`)
	f.Add(strings.Repeat(`{"index":0,"type":"ok","process":0,"value":[]}`+"\n", 4))
	// Reads of one key that share its trace: prefixes, extensions,
	// divergent reads, one on the span path (an escaped key); then the
	// same with a rejected line after them.
	shared := `{"index":0,"type":"ok","process":0,"value":[["r","x",[1]],["r","x",[1,2]]]}
{"index":1,"type":"ok","process":1,"value":[["r","x",[1]],["r","x",[1,2,3,4]],["r","y",[]]]}
{"index":2,"type":"ok","process":0,"value":[["r","x",[1,5]],["r","\u0078",[1,2,3,4,5]],["r","x",[1,2]]]}
{"index":3,"type":"ok","process":1,"value":[["r","x",[1,5,6,7,8,9]],["r","x",[1,2,3,4,5,6,7,8]]]}
{"index":4,"type":"ok","process":0,"value":[["r","x",[1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16,17]]]}`
	f.Add(shared)
	f.Add(shared + "\n" + `{"index":5,"type":"ok","process":1,"value":[["r","x",[9}]]}`)
	// The oracle corpus, which has a line per exit of the fast "value"
	// path.
	seedScannerLines(f)

	f.Fuzz(func(t *testing.T, input string) {
		for _, register := range []bool{false, true} {
			base, baseErr := drainStable(t, NewStreamDecoder(strings.NewReader(input),
				DecodeOpts{Register: register, Parallelism: 1}))

			oracleOps, oracleLine, oracleErr := oracleDecode(input, register)
			if (baseErr == nil) != (oracleErr == nil) {
				t.Fatalf("acceptance diverged from oracle: scanner err %v, oracle err %v",
					baseErr, oracleErr)
			}
			if baseErr != nil {
				var gotLine int
				if _, err := fmt.Sscanf(baseErr.Error(), "jsonhist: line %d:", &gotLine); err != nil {
					t.Fatalf("unparseable decode error %q", baseErr)
				}
				if gotLine != oracleLine {
					t.Fatalf("first bad line diverged: scanner %d (%v), oracle %d (%v)",
						gotLine, baseErr, oracleLine, oracleErr)
				}
			} else if !reflect.DeepEqual(base, oracleOps) {
				t.Fatalf("decoded ops diverged from oracle: %d vs %d ops",
					len(base), len(oracleOps))
			}
			// The ops delivered before an error are the batch decode of
			// the lines before the bad one.
			var before []op.Op
			if baseErr != nil {
				before = decodeBefore(t, input, baseErr, register)
				if !reflect.DeepEqual(base, before) {
					t.Fatalf("delivered %d ops before the error, want the %d of the lines before it", len(base), len(before))
				}
			}
			// Tiny parts across workers, and reads of one byte and of half
			// what is asked for, so that every carry boundary is hit.
			tunings := []struct {
				name string
				opts DecodeOpts
				read func(io.Reader) io.Reader
			}{
				{"p=2 parts of 7", DecodeOpts{Register: register, Parallelism: 2, chunkBytes: 7}, nil},
				{"p=4 parts of 64", DecodeOpts{Register: register, Parallelism: 4, chunkBytes: 64}, nil},
				{"one byte a read", DecodeOpts{Register: register, Parallelism: 1}, iotest.OneByteReader},
				{"half a read", DecodeOpts{Register: register, Parallelism: 2, chunkBytes: 64}, iotest.HalfReader},
			}
			for _, tc := range tunings {
				var r io.Reader = strings.NewReader(input)
				if tc.read != nil {
					r = tc.read(r)
				}
				got, err := drainStable(t, NewStreamDecoder(r, tc.opts))
				if (err == nil) != (baseErr == nil) {
					t.Fatalf("%s: error presence diverged: %v vs %v", tc.name, err, baseErr)
				}
				if err != nil {
					if err.Error() != baseErr.Error() {
						t.Fatalf("%s: error text diverged:\n  got:  %v\n  want: %v",
							tc.name, err, baseErr)
					}
					if !reflect.DeepEqual(got, before) {
						t.Fatalf("%s: delivered %d ops before the error, want the %d of the lines before it",
							tc.name, len(got), len(before))
					}
					continue
				}
				if !reflect.DeepEqual(got, base) {
					t.Fatalf("%s: decoded %d ops, want %d (first divergence matters)",
						tc.name, len(got), len(base))
				}
			}
			// A job's chunks through one ChunkDecoder, cut after each
			// line of odd length: the same ops, and the same first bad
			// line, counted from its chunk's first.
			got, line, err := feedStable(t, &ChunkDecoder{Register: register}, input)
			if (err == nil) != (baseErr == nil) {
				t.Fatalf("chunked: error %v, want %v", err, baseErr)
			}
			if err != nil {
				var baseLine int
				fmt.Sscanf(baseErr.Error(), "jsonhist: line %d:", &baseLine)
				if line != baseLine {
					t.Fatalf("chunked: first bad line %d (%v), want %d (%v)", line, err, baseLine, baseErr)
				}
			} else if !reflect.DeepEqual(got, base) {
				t.Fatalf("chunked: decoded %d ops, want %d", len(got), len(base))
			}
		}
	})
}
