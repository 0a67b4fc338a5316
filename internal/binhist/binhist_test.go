package binhist

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"reflect"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/history"
	"repro/internal/memdb"
	"repro/internal/op"
)

// testHistories covers every mop shape the format must carry: list
// appends and reads, register writes/reads/nil-reads, set adds, counter
// increments, unknown read results, info/fail completions, negative
// and large values, empty lists, and an empty history.
func testHistories(t testing.TB) map[string]*history.History {
	t.Helper()
	// The list history is generated inline (not via internal/perf, whose
	// workload-registry dependency would close an import cycle through
	// this package's segment codec).
	lst := memdb.Run(memdb.RunConfig{
		Clients: 10, Txns: 2000, Isolation: memdb.StrictSerializable,
		Source: gen.New(gen.Config{ActiveKeys: 100, MaxWritesPerKey: 100, MinOps: 1, MaxOps: 5}, 1),
		Seed:   1,
	})
	g := gen.New(gen.Config{Workload: gen.Register, ActiveKeys: 7, MaxWritesPerKey: 20}, 3)
	reg := memdb.Run(memdb.RunConfig{
		Clients: 5, Txns: 500, Isolation: memdb.SnapshotIsolation,
		Source: g, Seed: 3, Workload: memdb.WorkloadRegister, InfoProb: 0.05,
	})
	hand := history.MustNew([]op.Op{
		op.Txn(0, 0, op.OK, op.Append("x", 1), op.ReadList("x", []int{1})),
		op.Txn(1, 2, op.Fail, op.Write("reg key with spaces", -42)),
		op.Txn(2, 1, op.Info, op.Read("x"), op.Increment("ctr", -7)),
		op.Txn(5, 0, op.OK, op.ReadNil("r"), op.ReadReg("r", 1<<40), op.Add("s", 9)),
		op.Txn(9, 3, op.OK, op.ReadList("empty", []int{})),
		{Index: 12, Process: -1, Time: -123456789, Type: op.OK,
			Mops: []op.Mop{op.Append("x", 2)}},
	})
	return map[string]*history.History{
		"list":     lst,
		"register": reg,
		"hand":     hand,
		"empty":    history.MustNew(nil),
	}
}

func encode(t testing.TB, h *history.History) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Encode(&buf, h); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestRoundTrip(t *testing.T) {
	for name, h := range testHistories(t) {
		raw := encode(t, h)
		if !IsMagic(raw) {
			t.Fatalf("%s: encoded stream does not start with the magic", name)
		}
		got, err := Decode(bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		if !reflect.DeepEqual(got.Ops, h.Ops) {
			t.Fatalf("%s: ops diverged after round trip", name)
		}
	}
}

// TestChunkDecoderArbitrarySplits feeds the same stream split at every
// small chunk size: the dictionary and partial records must carry
// across feed boundaries byte-for-byte.
func TestChunkDecoderArbitrarySplits(t *testing.T) {
	h := testHistories(t)["hand"]
	raw := encode(t, h)
	for _, size := range []int{1, 2, 3, 7, 16, len(raw) / 2, len(raw), len(raw) + 10} {
		var c ChunkDecoder
		var ops []op.Op
		for off := 0; off < len(raw); off += size {
			end := off + size
			if end > len(raw) {
				end = len(raw)
			}
			batch, err := c.Feed(raw[off:end])
			if err != nil {
				t.Fatalf("size %d: feed at %d: %v", size, off, err)
			}
			ops = append(ops, batch...)
		}
		if err := c.Close(); err != nil {
			t.Fatalf("size %d: close: %v", size, err)
		}
		if !reflect.DeepEqual(ops, h.Ops) {
			t.Fatalf("size %d: ops diverged", size)
		}
	}
}

// TestConcatenatedStreams: a second header at a record boundary starts
// a fresh segment, so `cat a.ellebin b.ellebin` decodes as one history
// (indices permitting).
func TestConcatenatedStreams(t *testing.T) {
	a := history.MustNew([]op.Op{op.Txn(0, 0, op.OK, op.Append("x", 1))})
	b := history.MustNew([]op.Op{op.Txn(1, 0, op.OK, op.ReadList("y", []int{}))})
	raw := append(encode(t, a), encode(t, b)...)
	got, err := Decode(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	want := append(append([]op.Op{}, a.Ops...), b.Ops...)
	if !reflect.DeepEqual(got.Ops, want) {
		t.Fatalf("concatenated decode diverged: %v", got.Ops)
	}
}

func TestFramingErrors(t *testing.T) {
	h := testHistories(t)["hand"]
	raw := encode(t, h)
	cases := map[string][]byte{
		"bad magic":        []byte("\xebllebim\x01rest"),
		"not ellebin":      []byte(`{"index":0}` + "\n"),
		"bad version":      append(append([]byte{}, raw[:7]...), 0x7f),
		"truncated record": raw[:len(raw)-3],
		"unknown kind":     append(append([]byte{}, raw[:headerLen]...), 0x02, 0x7f, 0x00),
		"mid-record start": raw[headerLen+3:],
	}
	for name, input := range cases {
		_, err := Decode(bytes.NewReader(input))
		if err == nil {
			t.Fatalf("%s: decode accepted corrupt input", name)
		}
		if !errors.Is(err, ErrFraming) {
			t.Fatalf("%s: error %v does not wrap ErrFraming", name, err)
		}
	}
}

// TestTailCorruptionDetected is the shrink-and-regrow scenario the JSON
// size-only guard cannot see: a reader mid-stream whose remaining bytes
// come from a different file lands inside a record and must fail with a
// framing error, not decode garbage.
func TestTailCorruptionDetected(t *testing.T) {
	h := testHistories(t)["list"]
	raw := encode(t, h)
	// Consume a prefix, then splice in unrelated bytes at a non-boundary
	// offset, as a rotated-and-regrown file would present them.
	cut := len(raw)/2 + 1
	spliced := append(append([]byte{}, raw[:cut]...), []byte(strings.Repeat("rotated!", 64))...)
	d := NewStreamDecoder(bytes.NewReader(spliced))
	var err error
	for err == nil {
		_, err = d.Next()
	}
	if err == io.EOF || !errors.Is(err, ErrFraming) {
		t.Fatalf("corrupt tail ended with %v; want an ErrFraming error", err)
	}
}

func TestEncoderEmptyStreamIsTagged(t *testing.T) {
	var buf bytes.Buffer
	e := NewEncoder(&buf)
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != headerLen || !IsMagic(buf.Bytes()) {
		t.Fatalf("empty stream = %x; want just the header", buf.Bytes())
	}
	got, err := Decode(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 0 {
		t.Fatalf("empty stream decoded %d ops", got.Len())
	}
}

func TestChunkDecoderCloseMidRecord(t *testing.T) {
	raw := encode(t, testHistories(t)["hand"])
	var c ChunkDecoder
	if _, err := c.Feed(raw[:len(raw)-2]); err != nil {
		t.Fatal(err)
	}
	if c.Pending() == 0 {
		t.Fatal("expected pending bytes mid-record")
	}
	if err := c.Close(); !errors.Is(err, ErrFraming) {
		t.Fatalf("close mid-record: %v; want ErrFraming", err)
	}
}

// TestDecodeAllocs pins the streaming decode path to its allocation
// budget: mops and list elements come from slab arenas and key strings
// from the dictionary, so the per-op cost is a small fraction of an
// allocation (slabs and the batch slice, amortized). A breach means a
// per-op or per-mop allocation crept into the hot path.
func TestDecodeAllocs(t *testing.T) {
	h := testHistories(t)["list"]
	raw := encode(t, h)
	ops := len(h.Ops)
	const budget = 0.25 // per op
	allocs := testing.AllocsPerRun(10, func() {
		var c ChunkDecoder
		if _, err := c.Feed(raw); err != nil {
			t.Fatal(err)
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
	})
	perOp := allocs / float64(ops)
	t.Logf("decode allocations per op: %.3f over %d ops (budget %.2f)", perOp, ops, budget)
	if perOp > budget {
		t.Fatalf("per-op decode allocates %.3f; budget is %.2f", perOp, budget)
	}
}

// TestStreamDecoderSmallReads drives Next through a one-byte-at-a-time
// reader: op batches must still come out in order and the stream must
// end with a clean io.EOF.
func TestStreamDecoderSmallReads(t *testing.T) {
	h := testHistories(t)["hand"]
	raw := encode(t, h)
	d := NewStreamDecoder(iotest{r: bytes.NewReader(raw)})
	var ops []op.Op
	for {
		batch, err := d.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		ops = append(ops, batch...)
	}
	if !reflect.DeepEqual(ops, h.Ops) {
		t.Fatal("ops diverged under one-byte reads")
	}
	if _, err := d.Next(); err != io.EOF {
		t.Fatalf("post-EOF Next = %v; want sticky io.EOF", err)
	}
}

// iotest delivers one byte per read.
type iotest struct{ r io.Reader }

func (o iotest) Read(p []byte) (int, error) {
	if len(p) > 1 {
		p = p[:1]
	}
	return o.r.Read(p)
}

// nilVersionStream is an ellebin stream the Encoder refuses to write:
// one transaction writing x = op.NilVersion and reading x as nil.
// Decoded, every register analyzer would take the write for the initial
// version, and the history would check clean.
func nilVersionStream() []byte {
	b := append(magic[:], Version)
	record := func(payload ...byte) {
		b = binary.AppendUvarint(b, uint64(len(payload)))
		b = append(b, payload...)
	}
	record(recDict, 'x')
	for i, typ := range []op.Type{op.Invoke, op.OK} {
		p := []byte{recOp, byte(zigzag(int64(i))), 0, 0, byte(typ), 2, byte(op.FWrite), 0}
		p = binary.AppendUvarint(p, zigzag(op.NilVersion))
		record(append(p, byte(op.FRead)|readNil<<3, 0)...)
	}
	return b
}

// TestNilVersionRefused: a register value of op.NilVersion cannot be
// told from the initial version, so the decoder refuses it, written or
// read, and the encoder refuses to write it. (A read of op.NilVersion
// is the nil read, which the encoder writes as such.)
func TestNilVersionRefused(t *testing.T) {
	if _, err := Decode(bytes.NewReader(nilVersionStream())); !errors.Is(err, op.ErrNilVersion) {
		t.Errorf("a write of the initial version decodes with error %v", err)
	}
	var c ChunkDecoder
	if _, err := c.Feed(nilVersionStream()); !errors.Is(err, op.ErrNilVersion) {
		t.Errorf("ChunkDecoder: a write of the initial version decodes with error %v", err)
	}
	for _, m := range []op.Mop{op.Write("x", op.NilVersion)} {
		var buf bytes.Buffer
		e := NewEncoder(&buf)
		if err := e.WriteOp(op.Txn(0, 0, op.OK, m)); !errors.Is(err, op.ErrNilVersion) {
			t.Errorf("encoding %v: error %v", m, err)
		}
		e.Flush()
		if _, err := Decode(&buf); err != nil {
			t.Errorf("after refusing %v the encoder wrote a stream that does not decode: %v", m, err)
		}
	}
}
