package jsonhist

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/consistency"
	"repro/internal/core"
)

// FuzzDecode: arbitrary input must never panic the decoder, and anything
// it accepts must survive an encode/decode round trip and a checker run.
func FuzzDecode(f *testing.F) {
	f.Add(`{"index":0,"type":"ok","process":0,"value":[["append","x",1]]}`)
	f.Add(`{"index":0,"type":"invoke","process":0,"value":[["r","x",null]]}
{"index":1,"type":"ok","process":0,"value":[["r","x",[1,2]]]}`)
	f.Add(`{"index":0,"type":"ok","process":0,"value":[["w",10,2],["r",10,null]]}`)
	f.Add(`{"index":0,"type":"fail","process":3,"value":[["add","s",9],["increment","c",2]]}`)
	f.Add(``)
	f.Add(`garbage`)
	f.Add(`{"index":0,"type":"ok","process":0,"value":[["r","x",{"bad":1}]]}`)
	// The oracle corpus: a line per exit of the fast "value" path, so
	// what either path emits goes on to the encoder and the analyzers.
	seedScannerLines(f)
	f.Add(nilVersionHistory)

	f.Fuzz(func(t *testing.T, input string) {
		h, err := Decode(strings.NewReader(input), false)
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := Encode(&buf, h); err != nil {
			t.Fatalf("accepted history failed to encode: %v", err)
		}
		back, err := Decode(&buf, false)
		if err != nil {
			t.Fatalf("round trip failed: %v", err)
		}
		if back.Len() != h.Len() {
			t.Fatalf("round trip changed length %d -> %d", h.Len(), back.Len())
		}
		// The checker must tolerate anything the decoder accepts.
		core.Check(h, core.OptsFor(core.ListAppend, consistency.Serializable))
		core.Check(h, core.OptsFor(core.Register, consistency.SnapshotIsolation))
	})
}
