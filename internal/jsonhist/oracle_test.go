package jsonhist

// This file preserves the package's previous encoding/json-based
// decoder and encoder, verbatim but for one rule added since (a register
// value of op.NilVersion is refused), as a differential oracle for the
// scan-first parser (scan.go) and the appender encoder (jsonhist.go):
//
//   - the scanner must accept exactly the lines the oracle accepts,
//     and decode accepted lines to identical ops (error *text* for
//     rejected lines is the scanner's own);
//   - Encode must produce byte-identical output to the oracle encoder.
//
// TestScannerMatchesOracle pins a corpus of tricky lines here;
// FuzzStreamDecoder (stream_fuzz_test.go) extends the comparison to
// arbitrary inputs.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/history"
	"repro/internal/op"
)

// rawOp is the wire form of one op, as the stdlib decoder saw it.
type rawOp struct {
	Index   int               `json:"index"`
	Type    string            `json:"type"`
	Process int               `json:"process"`
	Time    int64             `json:"time,omitempty"`
	Value   []json.RawMessage `json:"value"`
}

// oracleParseLine is the old per-line decode path: json.Unmarshal into
// rawOp, then oracleDecodeOp.
func oracleParseLine(text []byte, register bool) (op.Op, error) {
	var raw rawOp
	if err := json.Unmarshal(text, &raw); err != nil {
		return op.Op{}, err
	}
	return oracleDecodeOp(raw, register)
}

func oracleDecodeOp(raw rawOp, register bool) (op.Op, error) {
	var t op.Type
	switch raw.Type {
	case "invoke":
		t = op.Invoke
	case "ok":
		t = op.OK
	case "fail":
		t = op.Fail
	case "info":
		t = op.Info
	default:
		return op.Op{}, fmt.Errorf("unknown op type %q", raw.Type)
	}
	o := op.Op{Index: raw.Index, Process: raw.Process, Time: raw.Time, Type: t}
	for i, rm := range raw.Value {
		m, err := oracleDecodeMop(rm, register, t)
		if err != nil {
			return op.Op{}, fmt.Errorf("mop %d: %w", i, err)
		}
		o.Mops = append(o.Mops, m)
	}
	return o, nil
}

func oracleDecodeMop(rm json.RawMessage, register bool, t op.Type) (op.Mop, error) {
	var parts []json.RawMessage
	if err := json.Unmarshal(rm, &parts); err != nil {
		return op.Mop{}, err
	}
	if len(parts) != 3 {
		return op.Mop{}, fmt.Errorf("micro-op must have 3 elements, has %d", len(parts))
	}
	var fun string
	if err := json.Unmarshal(parts[0], &fun); err != nil {
		return op.Mop{}, fmt.Errorf("fun: %w", err)
	}
	key, err := oracleDecodeKey(parts[1])
	if err != nil {
		return op.Mop{}, fmt.Errorf("key: %w", err)
	}
	switch fun {
	case "append", "add", "increment", "w":
		var arg int
		if err := json.Unmarshal(parts[2], &arg); err != nil {
			return op.Mop{}, fmt.Errorf("write argument: %w", err)
		}
		if fun == "w" && arg == op.NilVersion {
			return op.Mop{}, fmt.Errorf("write argument: %w", op.ErrNilVersion)
		}
		switch fun {
		case "append":
			return op.Append(key, arg), nil
		case "add":
			return op.Add(key, arg), nil
		case "increment":
			return op.Increment(key, arg), nil
		default:
			return op.Write(key, arg), nil
		}
	case "r":
		if string(trimSpace(parts[2])) == "null" {
			if register && t == op.OK {
				return op.ReadNil(key), nil
			}
			return op.Read(key), nil
		}
		if register {
			var v int
			if err := json.Unmarshal(parts[2], &v); err != nil {
				return op.Mop{}, fmt.Errorf("register read value: %w", err)
			}
			if v == op.NilVersion {
				return op.Mop{}, fmt.Errorf("register read value: %w", op.ErrNilVersion)
			}
			return op.ReadReg(key, v), nil
		}
		var list []int
		if err := json.Unmarshal(parts[2], &list); err != nil {
			return op.Mop{}, fmt.Errorf("list read value: %w", err)
		}
		return op.ReadList(key, list), nil
	default:
		return op.Mop{}, fmt.Errorf("unknown micro-op fun %q", fun)
	}
}

func oracleDecodeKey(rm json.RawMessage) (string, error) {
	var s string
	if err := json.Unmarshal(rm, &s); err == nil {
		return s, nil
	}
	var n int64
	if err := json.Unmarshal(rm, &n); err == nil {
		return strconv.FormatInt(n, 10), nil
	}
	return "", fmt.Errorf("key must be a string or integer: %s", string(rm))
}

// oracleEncode is the old reflection-based encoder.
func oracleEncode(w io.Writer, h *history.History) error {
	bw := bufio.NewWriter(w)
	for _, o := range h.Ops {
		raw := rawOp{
			Index:   o.Index,
			Process: o.Process,
			Time:    o.Time,
			Type:    o.Type.String(),
		}
		for _, m := range o.Mops {
			rm, err := oracleEncodeMop(m)
			if err != nil {
				return err
			}
			raw.Value = append(raw.Value, rm)
		}
		line, err := json.Marshal(raw)
		if err != nil {
			return err
		}
		if _, err := bw.Write(line); err != nil {
			return err
		}
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
	}
	return bw.Flush()
}

func oracleEncodeMop(m op.Mop) (json.RawMessage, error) {
	var fun string
	var val any
	switch m.F {
	case op.FAppend:
		fun, val = "append", m.Arg
	case op.FAdd:
		fun, val = "add", m.Arg
	case op.FIncrement:
		fun, val = "increment", m.Arg
	case op.FWrite:
		fun, val = "w", m.Arg
	case op.FRead:
		fun = "r"
		switch {
		case m.List != nil:
			val = m.List
		case m.RegKnown && m.Reg != op.NilVersion:
			val = m.Reg
		default:
			val = nil
		}
	default:
		return nil, fmt.Errorf("jsonhist: cannot encode fun %v", m.F)
	}
	return json.Marshal([]any{fun, m.Key, val})
}

// scannerLines is a corpus of lines chosen to probe every known
// divergence risk between a hand-rolled scanner and encoding/json.
var scannerLines = []string{
	// Plain valid lines.
	`{"index":0,"type":"invoke","process":0,"value":[["append","x",1],["r","y",null]]}`,
	`{"index":1,"type":"ok","process":0,"time":5,"value":[["append","x",1],["r","y",[1,2]]]}`,
	`{"index":2,"type":"fail","process":-3,"value":null}`,
	`{"index":3,"type":"info","process":0,"value":[]}`,
	`{"index":4,"type":"ok","process":0,"value":[["r",7,[]]]}`,
	// Whitespace, member order, unknown members.
	` { "value" : [["w", "k", 3]] , "type" : "ok" , "index" : 9 } `,
	"\t{\"type\":\"ok\",\"extra\":{\"deep\":[1,{\"a\":null}]},\"index\":1}\r",
	// Fold-matched member names, duplicates (last wins), null no-ops.
	`{"INDEX":7,"Type":"ok","pRoCeSs":2}`,
	`{"index":1,"index":2,"type":"fail","type":"ok"}`,
	`{"index":5,"type":null,"value":null}`,
	`{"type":"bogus","type":"ok","index":1}`,
	`{"value":[["r","x",null]],"value":null,"type":"ok"}`,
	`{"value":[["nope"]],"value":[["r","x",null]],"type":"ok"}`,
	`{"proceſs":4,"type":"ok"}`, // long s folds to "process"
	// Case and long s together; the exact-name switch misses every one.
	`{"PROCEſS":5,"tYPE":"ok","vaLUE":[["r","x",null]]}`,
	// Numbers: limits, zeros, rejects.
	`{"index":9223372036854775807,"type":"ok","process":-9223372036854775808}`,
	`{"index":-0,"type":"ok"}`,
	`{"index":01,"type":"ok"}`,
	`{"index":1.5,"type":"ok"}`,
	`{"index":1e3,"type":"ok"}`,
	`{"index":9223372036854775808,"type":"ok"}`,
	`{"index": +1,"type":"ok"}`,
	`{"time":1e999,"type":"ok"}`,
	`{"unknown":1e999,"type":"ok"}`,
	`{"unknown":0.5e+10,"type":"ok"}`,
	// Strings: escapes, surrogates, raw and invalid UTF-8, controls.
	`{"type":"ok","value":[["w","\u0078\t\"quoted\"",1]]}`,
	`{"type":"ok","value":[["w","\ud83d\ude00",1]]}`,
	`{"type":"ok","value":[["w","\ud800 lone",1]]}`,
	`{"type":"ok","value":[["w","\udc00\ud800",1]]}`,
	`{"type":"ok","value":[["w","\ud800\ud83d\ude00",1]]}`,
	"{\"type\":\"ok\",\"value\":[[\"w\",\"raw\xffbyte\",1]]}",
	"{\"type\":\"ok\",\"value\":[[\"w\",\"ctrl\x01\",1]]}",
	`{"type":"ok","value":[["w","bad\q",1]]}`,
	`{"type":"ok","value":[["w","bad\u12G4",1]]}`,
	`{"type":"ok","value":[["w","unterminated`,
	// Top level shapes.
	`null`,
	`nullx`,
	`{}`,
	`[]`,
	`42`,
	`"op"`,
	`{"type":"ok"} trailing`,
	`{"type":"ok"}{"type":"ok"}`,
	// Mop shapes: arity, funs, keys, values.
	`{"type":"ok","value":[["r"]]}`,
	`{"type":"ok","value":[["r","x",null,4]]}`,
	`{"type":"ok","value":[[null,"x",1]]}`,
	`{"type":"ok","value":[["frob","x",1]]}`,
	`{"type":"ok","value":[["frob",{},1]]}`,
	`{"type":"ok","value":[["w",true,1]]}`,
	`{"type":"ok","value":[["w",-0,1]]}`,
	`{"type":"ok","value":[["w",007,1]]}`,
	`{"type":"ok","value":[["w",1.25,1]]}`,
	`{"type":"ok","value":[["w","x",null]]}`,
	`{"type":"ok","value":[["w","x","5"]]}`,
	`{"type":"ok","value":[["w","x",1.5]]}`,
	`{"type":"ok","value":[["append","x",9223372036854775808]]}`,
	`{"type":"ok","value":[["r","x",[1,null,-3]]]}`,
	`{"type":"ok","value":[["r","x",[1,[2]]]]}`,
	`{"type":"ok","value":[["r","x",{"a":1}]]}`,
	`{"type":"ok","value":[["r","x",5]]}`,
	`{"type":"ok","value":[["r","x", null ]]}`,
	`{"type":"invoke","value":[["r","x",null]]}`,
	`{"type":"ok","value":"mops"}`,
	`{"type":"ok","value":[17]}`,
	// The fast "value" path and each of its exits to the span path (see
	// scan.go): every line below either stays on the fast path or leaves
	// it at a different byte.
	`{"value":[["r","x",null]],"type":"ok"}`, // "value" before "type"
	`{"value":[["r","x",null]],"type":"invoke"}`,
	`{"type":"ok","value":[["r","x",null]],"type":"invoke"}`,
	`{"type":"invoke","value":[["r","x",null],["r","y",4]],"type":"ok"}`,
	`{"type":"ok","value":[["r","x",null]],"value":[["r"]]}`,    // good, then bad
	`{"type":"ok","value":[["nope"]],"value":[["w","x",1]]}`,    // bad, then good
	`{"type":"ok","value":[["w","x",1]],"value":null}`,          // good, then null
	`{"type":"ok","value":[["w","x",1]],"value":[["w","y",2]]}`, // good, then good
	`{"type":"ok","value":[["w","x",1]],"value":[]}`,            // good, then empty
	`{"type":"ok","value":[["w","x",1]],"value":[["w","x",1]`,   // good, then truncated
	`{"type":"ok","value":[["\u0072","x",null]]}`,               // escaped fun
	`{"type":"ok","value":[["\u0077","x",3]]}`,
	`{"type":"ok","value":[["R","x",null]]}`,
	`{"type":"ok","value":[["",1,1]]}`,
	`{"type":"ok","value":[["w","k\n",1]]}`, // escaped key
	`{"type":"ok","value":[["w","ké",1]]}`,  // non-ASCII key
	"{\"type\":\"ok\",\"value\":[[\"w\",\"del\x7f\",1]]}",
	`{"type":"ok","value":[["w","",1]]}`,
	`{"type":"ok","value":[["w",12,1],["append",-7,2],["r",0,null]]}`, // numeric keys
	`{"type":"ok","value":[["r",-0,null]]}`,
	`{"type":"ok","value":[["w","x",-0]]}`,
	`{"type":"ok","value":[["r","x",[-0,-1]]]}`,
	`{"type":"ok","value":[["r","x",-0]]}`,
	`{"type":"ok","value":[["w",01,1]]}`, // 01, 1.0, 1e3 in every slot
	`{"type":"ok","value":[["w","x",01]]}`,
	`{"type":"ok","value":[["r","x",[01]]]}`,
	`{"type":"ok","value":[["r","x",01]]}`,
	`{"type":"ok","value":[["w",1.0,1]]}`,
	`{"type":"ok","value":[["w","x",1.0]]}`,
	`{"type":"ok","value":[["r","x",[1.0]]]}`,
	`{"type":"ok","value":[["r","x",1.0]]}`,
	`{"type":"ok","value":[["w",1e3,1]]}`,
	`{"type":"ok","value":[["w","x",1e3]]}`,
	`{"type":"ok","value":[["r","x",[1e3]]]}`,
	`{"type":"ok","value":[["r","x",1E3]]}`,
	`{"type":"ok","value":[["w",999999999999999999,-999999999999999999]]}`, // 18 digits
	`{"type":"ok","value":[["w",1234567890123456789,1]]}`,                  // 19 digits
	`{"type":"ok","value":[["w","x",-1234567890123456789]]}`,
	`{"type":"ok","value":[["r","x",[9223372036854775807]]]}`,
	`{"type":"ok","value":[["r","x",-9223372036854775808]]}`,
	`{"type":"ok","value":[["w",9223372036854775808,1]]}`, // overflow
	`{"type":"ok","value":[["w","x",-9223372036854775809]]}`,
	`{"type":"ok","value":[["r","x",[9223372036854775808]]]}`,
	`{"type":"ok","value":[["r","x",18446744073709551616]]}`,
	`{"type":"ok","value":[["r","x",0000000000000000000001]]}`,
	`{"type":"ok","value":[["w","x",-]]}`,
	`{"type":"ok","value":[["w","x",--1]]}`,
	`{"type":"ok","value":[["w","x",+1]]}`,
	`{"type":"ok","value":[["r","x",nul]]}`, // nul and truncation
	`{"type":"ok","value":[["r","x",nullx]]}`,
	`{"type":"ok","value":[["r","x",nul`,
	`{"type":"ok","value":[["r","x",null]`,
	`{"type":"ok","value":[["r","x",[1,2`,
	`{"type":"ok","value":[["r","x",[1,2]`,
	`{"type":"ok","value":[["r","x`,
	`{"type":"ok","value":[["r`,
	`{"type":"ok","value":[[`,
	`{"type":"ok","value":[`,
	`{"type":"ok","value":nul}`,
	`{"type":"ok","value":[[]]}`, // arity
	`{"type":"ok","value":[["r","x"]]}`,
	`{"type":"ok","value":[["w","x",1,2]]}`,
	`{"type":"ok","value":[["w","x",1],["r","x"]]}`,
	`{"type":"ok","value":[["r","x",[null]]]}`, // null list elements
	`{"type":"ok","value":[["r","x",[1]]]}`,    // a register read of [1]
	`{"type":"ok","value":[["r","x",[]]]}`,
	`{"type":"ok","value":[["r","x","5"]]}`,
	`{"type":"ok","value":[["r","x",true]]}`,
	`{"type":"ok","value":[["w","x",[1]]]}`,
	`{"type":"ok","value":[["w","x",1],]}`, // separators
	`{"type":"ok","value":[,["w","x",1]]}`,
	`{"type":"ok","value":[["w","x",1]["w","x",2]]}`,
	`{"type":"ok","value":[["w","x",1,]]}`,
	`{"type":"ok","value":[["w",,1]]}`,
	`{"type":"ok","value":[["w" "x" 1]]}`,
	`{"type":"ok","value":[["r","x",[1,]]]}`,
	`{"type":"ok","value":[["r","x",[,1]]]}`,
	`{"type":"ok","value":[["r","x",[1 2]]]}`,
	`{"type":"ok","value":[["r","x",[1,2]],null]}`,
	`{"type":"ok","value":[null]}`,
	"\t{ \"type\" : \"ok\" , \"value\" : [ [ \"r\" , \"x\" , [ 1 ,\t2 , -3 ] ] , [ \"append\" , 5 , 3 ] , [ \"r\" , \"y\" , null ] , [ \"r\" , \"z\" , [ ] ] ] } \r", // whitespace in every gap
	"{\"type\":\"ok\",\"value\":\t[\r[\"w\"\t,\r\"x\" , 7 ]\t]\r}",
	"{\"type\":\"ok\",\"value\":[ ]}",
	"{\"type\":\"ok\",\"value\":[[\"w\",\"x\",\v1]]}", // not JSON whitespace
	// Syntax probes.
	`{"type":"ok",}`,
	`{"type" "ok"}`,
	`{"type":}`,
	`{"a":1 "b":2}`,
	`{"a":tru}`,
	`{"a":truely}`,
	`{"a":nan}`,
	// Deep nesting around the stdlib's 10000 cap.
	`{"deep":` + strings.Repeat("[", 9998) + strings.Repeat("]", 9998) + `,"type":"ok"}`,
	`{"deep":` + strings.Repeat("[", 10001) + strings.Repeat("]", 10001) + `,"type":"ok"}`,
}

// seedScannerLines adds the corpus to a fuzz target's seeds; the two
// deep-nesting lines, 20 KB each, would only slow mutation down.
func seedScannerLines(f *testing.F) {
	for _, line := range scannerLines {
		if len(line) < 1000 {
			f.Add(line)
		}
	}
}

// TestScannerMatchesOracle pins scanner/oracle agreement — acceptance
// and decoded ops — across the corpus, under both read modes.
func TestScannerMatchesOracle(t *testing.T) {
	p := new(lineParser)
	for _, line := range scannerLines {
		for _, register := range []bool{false, true} {
			want, werr := oracleParseLine([]byte(line), register)
			got, gerr := p.parse([]byte(line), register)
			if (werr == nil) != (gerr == nil) {
				t.Errorf("register=%v line %q:\n  oracle err:  %v\n  scanner err: %v",
					register, line, werr, gerr)
				continue
			}
			if werr == nil && !reflect.DeepEqual(got, want) {
				t.Errorf("register=%v line %q:\n  oracle:  %+v\n  scanner: %+v",
					register, line, want, got)
			}
		}
	}
}

// TestFastPathEqualsSpanPath pins the fast "value" path to the span
// path it stands in front of: over the corpus and both read modes, a
// parser allowed the fast path and one held to the spans return the same
// op and the same error text, so the fast path decides nothing about
// what is rejected or how. It also checks the corpus does reach the fast
// path, and does leave it.
func TestFastPathEqualsSpanPath(t *testing.T) {
	p, span := new(lineParser), &lineParser{spanOnly: true}
	took, left := 0, 0
	for _, line := range scannerLines {
		for _, register := range []bool{false, true} {
			got, gerr := p.parse([]byte(line), register)
			want, werr := span.parse([]byte(line), register)
			if fmt.Sprint(gerr) != fmt.Sprint(werr) {
				t.Errorf("register=%v line %q:\n  span err: %v\n  fast err: %v", register, line, werr, gerr)
				continue
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("register=%v line %q:\n  span: %+v\n  fast: %+v", register, line, want, got)
			}
			if p.fast {
				took++
			} else {
				left++
			}
		}
	}
	if took == 0 || left == 0 {
		t.Fatalf("corpus took the fast path %d times and the span path %d times; want both", took, left)
	}
	t.Logf("fast path %d, span path %d", took, left)
}

// TestEncodeControlBytesMatchEncodingJSON: a key holding each control
// byte, alone and inside plain text, encodes to encoding/json's bytes —
// \b and \f included, which encoding/json writes as two-byte escapes.
func TestEncodeControlBytesMatchEncodingJSON(t *testing.T) {
	var ops []op.Op
	for b := 0; b < 0x20; b++ {
		c := string(rune(b))
		ops = append(ops, op.Txn(len(ops), 0, op.OK,
			op.Append(c, 1), op.Append("key "+c+" in the middle of a long key", 2)))
	}
	h := history.MustNew(ops)
	var got, want bytes.Buffer
	if err := Encode(&got, h); err != nil {
		t.Fatal(err)
	}
	if err := oracleEncode(&want, h); err != nil {
		t.Fatal(err)
	}
	gotLines, wantLines := bytes.Split(got.Bytes(), []byte("\n")), bytes.Split(want.Bytes(), []byte("\n"))
	if len(gotLines) != len(wantLines) {
		t.Fatalf("Encode wrote %d lines, encoding/json %d", len(gotLines), len(wantLines))
	}
	for i := range gotLines {
		if !bytes.Equal(gotLines[i], wantLines[i]) {
			t.Errorf("control byte %#02x:\n got: %s\nwant: %s", i, gotLines[i], wantLines[i])
		}
	}
}

// TestEncodeMatchesOracle pins byte-identical encoding on a history
// that exercises every string-escaping and value shape.
func TestEncodeMatchesOracle(t *testing.T) {
	h := history.MustNew([]op.Op{
		op.Txn(0, 0, op.OK, op.Append("x", 1), op.Read("x")),
		op.Txn(1, 0, op.OK, op.Append("x", -12), op.ReadList("x", []int{1, -2, 3})),
		op.Txn(2, 1, op.Fail, op.Write("key \"quoted\" \\slash\t\n", 7)),
		op.Txn(3, 2, op.Info, op.ReadList("empty", []int{})),
		{Index: 4, Process: -1, Time: -99, Type: op.OK, Mops: []op.Mop{
			op.ReadNil("reg"), op.ReadReg("reg", 1<<50),
			op.Add("html <&> key", 0), op.Increment("ctrl\x01\x1f", -1),
			op.Write("uni \u2028\u2029 \U0001F600 sep", 2),
			op.Write("bad utf8 \xff\xfe", 3),
		}},
		op.Txn(5, 0, op.OK),
	})
	var got, want bytes.Buffer
	if err := Encode(&got, h); err != nil {
		t.Fatal(err)
	}
	if err := oracleEncode(&want, h); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("encodings diverge:\n got: %q\nwant: %q", got.Bytes(), want.Bytes())
	}
	// The fixture mixes register and list reads, so a whole-history
	// re-decode is only checked for scanner/oracle agreement per line.
	p := new(lineParser)
	for _, line := range bytes.Split(got.Bytes(), []byte("\n")) {
		if len(trimSpace(line)) == 0 {
			continue
		}
		for _, register := range []bool{false, true} {
			want, werr := oracleParseLine(line, register)
			got, gerr := p.parse(line, register)
			if (werr == nil) != (gerr == nil) {
				t.Fatalf("register=%v re-decode of %q: oracle err %v, scanner err %v",
					register, line, werr, gerr)
			}
			if werr == nil && !reflect.DeepEqual(got, want) {
				t.Fatalf("register=%v re-decode of %q diverged", register, line)
			}
		}
	}
}
