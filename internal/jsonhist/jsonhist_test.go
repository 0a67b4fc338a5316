package jsonhist

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/history"
	"repro/internal/memdb"
	"repro/internal/op"
)

func TestDecodeListHistory(t *testing.T) {
	in := `
{"index":0,"type":"invoke","process":0,"value":[["append",3,1],["r",4,null]]}
{"index":1,"type":"ok","process":0,"value":[["append",3,1],["r",4,[1,2]]]}
{"index":2,"type":"invoke","process":1,"value":[["append",3,2]]}
{"index":3,"type":"fail","process":1,"value":[["append",3,2]]}
`
	h, err := Decode(strings.NewReader(in), false)
	if err != nil {
		t.Fatal(err)
	}
	if h.Len() != 4 || h.Compact() {
		t.Fatalf("len=%d compact=%v", h.Len(), h.Compact())
	}
	ok := h.Ops[1]
	if ok.Type != op.OK || len(ok.Mops) != 2 {
		t.Fatalf("op 1 = %v", ok)
	}
	if ok.Mops[0].F != op.FAppend || ok.Mops[0].Key != "3" || ok.Mops[0].Arg != 1 {
		t.Errorf("append mop = %+v", ok.Mops[0])
	}
	if !ok.Mops[1].ListKnown() || len(ok.Mops[1].List) != 2 {
		t.Errorf("read mop = %+v", ok.Mops[1])
	}
	// The invoke's read is unknown.
	if h.Ops[0].Mops[1].ListKnown() {
		t.Error("invoke read should be unknown")
	}
}

func TestDecodeRegisterHistory(t *testing.T) {
	in := `{"index":0,"type":"ok","process":0,"value":[["w",10,2],["r",10,null],["r",11,5]]}`
	h, err := Decode(strings.NewReader(in), true)
	if err != nil {
		t.Fatal(err)
	}
	m := h.Ops[0].Mops
	if m[0].F != op.FWrite || m[0].Arg != 2 {
		t.Errorf("write = %+v", m[0])
	}
	if !m[1].RegKnown || !m[1].RegNil {
		t.Errorf("null read in ok op should be nil: %+v", m[1])
	}
	if !m[2].RegKnown || m[2].Reg != 5 {
		t.Errorf("value read = %+v", m[2])
	}
}

func TestDecodeErrors(t *testing.T) {
	cases := []string{
		`{"index":0,"type":"bogus","process":0,"value":[]}`,
		`{"index":0,"type":"ok","process":0,"value":[["append",3]]}`,
		`{"index":0,"type":"ok","process":0,"value":[["frob",3,1]]}`,
		`{"index":0,"type":"ok","process":0,"value":[["append",{},1]]}`,
		`not json at all`,
	}
	for _, in := range cases {
		if _, err := Decode(strings.NewReader(in), false); err == nil {
			t.Errorf("decode accepted %q", in)
		}
	}
}

func TestEmptyLinesSkipped(t *testing.T) {
	in := "\n\n{\"index\":0,\"type\":\"ok\",\"process\":0,\"value\":[]}\n\n"
	h, err := Decode(strings.NewReader(in), false)
	if err != nil {
		t.Fatal(err)
	}
	if h.Len() != 1 {
		t.Errorf("len = %d", h.Len())
	}
}

func TestRoundTripList(t *testing.T) {
	orig := history.MustNew([]op.Op{
		op.Txn(0, 0, op.OK, op.Append("x", 1), op.ReadList("y", []int{})),
		op.Txn(1, 1, op.Fail, op.Append("x", 2)),
		op.Txn(2, 2, op.Info, op.Append("x", 3), op.Read("y")),
	})
	var buf bytes.Buffer
	if err := Encode(&buf, orig); err != nil {
		t.Fatal(err)
	}
	back, err := Decode(&buf, false)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != orig.Len() {
		t.Fatalf("round trip length %d != %d", back.Len(), orig.Len())
	}
	for i := range orig.Ops {
		a, b := orig.Ops[i], back.Ops[i]
		if a.Type != b.Type || a.Process != b.Process || len(a.Mops) != len(b.Mops) {
			t.Fatalf("op %d: %v != %v", i, a, b)
		}
		for j := range a.Mops {
			if a.Mops[j].String() != b.Mops[j].String() {
				t.Fatalf("mop %d/%d: %v != %v", i, j, a.Mops[j], b.Mops[j])
			}
		}
	}
}

func TestRoundTripRegister(t *testing.T) {
	orig := history.MustNew([]op.Op{
		op.Txn(0, 0, op.OK, op.Write("r", 1), op.ReadNil("s"), op.ReadReg("r", 1)),
	})
	var buf bytes.Buffer
	if err := Encode(&buf, orig); err != nil {
		t.Fatal(err)
	}
	back, err := Decode(&buf, true)
	if err != nil {
		t.Fatal(err)
	}
	m := back.Ops[0].Mops
	if !m[1].RegNil || !m[1].RegKnown {
		t.Errorf("nil read lost: %+v", m[1])
	}
	if m[2].Reg != 1 {
		t.Errorf("value read lost: %+v", m[2])
	}
}

func TestRoundTripGeneratedRun(t *testing.T) {
	g := gen.New(gen.Config{}, 3)
	h := memdb.Run(memdb.RunConfig{
		Clients: 5, Txns: 200, Isolation: memdb.Serializable,
		Source: g, Seed: 3, InfoProb: 0.1, AbortProb: 0.1,
	})
	var buf bytes.Buffer
	if err := Encode(&buf, h); err != nil {
		t.Fatal(err)
	}
	back, err := Decode(&buf, false)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != h.Len() {
		t.Fatalf("length %d != %d", back.Len(), h.Len())
	}
	for i := range h.Ops {
		if h.Ops[i].String() != back.Ops[i].String() {
			t.Fatalf("op %d: %v != %v", i, h.Ops[i], back.Ops[i])
		}
	}
}

func TestNumericKeys(t *testing.T) {
	in := `{"index":0,"type":"ok","process":0,"value":[["append",42,1]]}`
	h, err := Decode(strings.NewReader(in), false)
	if err != nil {
		t.Fatal(err)
	}
	if h.Ops[0].Mops[0].Key != "42" {
		t.Errorf("numeric key = %q", h.Ops[0].Mops[0].Key)
	}
}

// nilVersionHistory writes x = op.NilVersion and reads it back as nil in
// one transaction. Decoded, every register analyzer would take the write
// for the initial version, and the history would check clean.
const nilVersionHistory = `{"index":0,"type":"invoke","process":0,"value":[["w","x",-9223372036854775808],["r","x",null]]}
{"index":1,"type":"ok","process":0,"value":[["w","x",-9223372036854775808],["r","x",null]]}
`

// TestNilVersionRefused: a register value of op.NilVersion cannot be
// told from the initial version, so both entries refuse it, written or
// read, naming the line; one above it is an ordinary value.
func TestNilVersionRefused(t *testing.T) {
	for _, c := range []struct{ input, line string }{
		{nilVersionHistory, "line 1"},
		{`{"index":0,"type":"ok","process":0,"value":[["r","x",1]]}` + "\n" + `{"index":1,"type":"ok","process":0,"value":[["r","x",-9223372036854775808]]}`, "line 2"},
	} {
		_, err := Decode(strings.NewReader(c.input), true)
		if !errors.Is(err, op.ErrNilVersion) || !strings.Contains(err.Error(), c.line) {
			t.Errorf("Decode: error %v, want op.ErrNilVersion on %s", err, c.line)
		}
		_, err = (&ChunkDecoder{Register: true}).Feed([]byte(c.input))
		if !errors.Is(err, op.ErrNilVersion) || !strings.Contains(err.Error(), c.line) {
			t.Errorf("ChunkDecoder: error %v, want op.ErrNilVersion on %s", err, c.line)
		}
	}
	above := strings.ReplaceAll(nilVersionHistory, "-9223372036854775808", "-9223372036854775807")
	h, err := Decode(strings.NewReader(above), true)
	if err != nil {
		t.Fatal(err)
	}
	if m := h.Ops[1].Mops[0]; m.Arg != op.NilVersion+1 {
		t.Errorf("wrote %d, want %d", m.Arg, op.NilVersion+1)
	}
}
