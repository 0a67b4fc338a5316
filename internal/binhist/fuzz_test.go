package binhist

import (
	"bytes"
	"io"
	"reflect"
	"slices"
	"testing"

	"repro/internal/op"
)

// opsFromBytes deterministically builds a slice of structurally valid
// ops from fuzz bytes, exercising every mop shape and the full signed
// ranges of index/process/time/args. About half the list reads are
// prefixes of one growing list per key, as a real list-append history's
// are, so the decoder shares them (see op.ShareList).
func opsFromBytes(data []byte) []op.Op {
	var ops []op.Op
	pos := 0
	next := func() byte {
		if pos >= len(data) {
			return 0
		}
		b := data[pos]
		pos++
		return b
	}
	keys := []string{"x", "y", "a longer key", "", "k\x00\xffbin"}
	versions := map[string][]int{}
	for i := 0; pos < len(data) && i < 256; i++ {
		o := op.Op{
			Index:   i * (1 + int(next())),
			Process: int(int8(next())),
			Time:    int64(int8(next())) << (next() % 48),
			Type:    op.Type(next() % 4),
		}
		nm := int(next() % 4)
		for j := 0; j < nm; j++ {
			key := keys[int(next())%len(keys)]
			switch next() % 8 {
			case 0:
				o.Mops = append(o.Mops, op.Append(key, int(int8(next()))))
			case 1:
				o.Mops = append(o.Mops, op.Add(key, int(next())))
			case 2:
				o.Mops = append(o.Mops, op.Increment(key, -int(next())))
			case 3:
				o.Mops = append(o.Mops, op.Write(key, int(int8(next()))<<(next()%32)))
			case 4:
				o.Mops = append(o.Mops, op.Read(key))
			case 5:
				o.Mops = append(o.Mops, op.ReadNil(key), op.ReadReg(key, int(next())))
			case 6:
				list := make([]int, int(next()%5))
				for k := range list {
					list[k] = int(int8(next()))
				}
				o.Mops = append(o.Mops, op.ReadList(key, list))
			default:
				n := int(next() % 24)
				for len(versions[key]) < n {
					versions[key] = append(versions[key], int(int8(next())))
				}
				o.Mops = append(o.Mops, op.ReadList(key, slices.Clone(versions[key][:n])))
			}
		}
		ops = append(ops, o)
	}
	return ops
}

// FuzzBinHistRoundTrip holds the format's two core promises under
// fuzzing: (1) encode→decode is the identity on arbitrary valid
// histories — through Decode and through every chunk split the input
// bytes suggest; (2) the decoder never panics on arbitrary bytes (the
// same data fed raw), it only errors.
func FuzzBinHistRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0xEB, 'l', 'l', 'e', 'b', 'i', 'n', 0x01})
	f.Add([]byte("\x01\x02\x03\x04\x05\x06\x07\x08\x09garbage"))
	f.Add(bytes.Repeat([]byte{0xEB}, 40))
	f.Add([]byte{9, 1, 2, 250, 251, 252, 253, 254, 255, 128, 0, 64, 32, 7, 3})
	// One op reading x as [1 2] from its trace, then as [1 5 6 7]:
	// longer, but no extension of the trace.
	f.Add([]byte{0, 0, 0, 0, 1, 3, 0, 7, 2, 1, 2, 0, 6, 4, 1, 5, 6, 7, 0, 4})
	// A write of op.NilVersion, which the decoder refuses.
	f.Add(nilVersionStream())

	f.Fuzz(func(t *testing.T, data []byte) {
		// (2) arbitrary bytes: must not panic, in either decode surface.
		if _, err := Decode(bytes.NewReader(data)); err == nil {
			// Acceptance itself is fine (valid streams exist); only
			// panics are bugs.
			_ = err
		}
		var raw ChunkDecoder
		for off := 0; off < len(data); off += 9 {
			end := off + 9
			if end > len(data) {
				end = len(data)
			}
			if _, err := raw.Feed(data[off:end]); err != nil {
				break
			}
		}

		// (1) valid histories: byte-driven ops round-trip exactly.
		ops := opsFromBytes(data)
		var buf bytes.Buffer
		e := NewEncoder(&buf)
		for _, o := range ops {
			if err := e.WriteOp(o); err != nil {
				t.Fatal(err)
			}
		}
		if err := e.Flush(); err != nil {
			t.Fatal(err)
		}
		encoded := buf.Bytes()

		// (3) no list a Next or Feed returned changes while the rest of
		// the stream decodes: the decoder shares a key's trace among its
		// reads, and must never write below its length.
		d := NewStreamDecoder(bytes.NewReader(encoded))
		var got []op.Op
		var stable stableLists
		for {
			batch, err := d.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatalf("decode of a freshly encoded stream failed: %v", err)
			}
			stable.note(batch)
			got = append(got, batch...)
		}
		stable.check(t)
		if len(ops) != len(got) || (len(ops) > 0 && !reflect.DeepEqual(ops, got)) {
			t.Fatalf("round trip diverged: encoded %d ops, decoded %d", len(ops), len(got))
		}

		// And through an arbitrary chunk split.
		split := 1 + int(len(data)%13)
		var c ChunkDecoder
		var chunked []op.Op
		var chunkedStable stableLists
		for off := 0; off < len(encoded); off += split {
			end := off + split
			if end > len(encoded) {
				end = len(encoded)
			}
			batch, err := c.Feed(encoded[off:end])
			if err != nil {
				t.Fatalf("chunked decode failed: %v", err)
			}
			chunkedStable.note(batch)
			chunked = append(chunked, batch...)
		}
		chunkedStable.check(t)
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		if len(chunked) != len(got) || (len(got) > 0 && !reflect.DeepEqual(chunked, got)) {
			t.Fatalf("chunked decode diverged: %d vs %d ops", len(chunked), len(got))
		}
	})
}

// stableLists remembers each decoded list and its value when decoded.
type stableLists struct{ lists, want [][]int }

func (s *stableLists) note(ops []op.Op) {
	for _, o := range ops {
		for _, m := range o.Mops {
			if len(m.List) > 0 {
				s.lists, s.want = append(s.lists, m.List), append(s.want, slices.Clone(m.List))
			}
		}
	}
}

// check fails if a list no longer reads as it did when decoded.
func (s *stableLists) check(t *testing.T) {
	t.Helper()
	for i, l := range s.lists {
		if !slices.Equal(l, s.want[i]) {
			t.Fatalf("list %d read %v when decoded, %v at the end", i, s.want[i], l)
		}
	}
}
