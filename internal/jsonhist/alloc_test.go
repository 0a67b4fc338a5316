package jsonhist

import (
	"bytes"
	"runtime"
	"strings"
	"testing"
)

// TestDecodeAllocsPerLine pins sequential per-line decode to its
// allocation budget. With the scan-first parser the measured cost of
// this 3-mop line is ~2 allocations — the exact-size Mops copy and the
// list-read copy; keys hit the parser's interned cache, scratch
// buffers serve every line of the decoder, and the reader contributes
// nothing per line. A breach means a per-line allocation crept back
// into the decode hot path (the budget leaves headroom for runtime
// drift, not for new per-line work; the stdlib decoder this replaced
// measured ~79 here).
func TestDecodeAllocsPerLine(t *testing.T) {
	line := `{"index":0,"type":"ok","process":3,"value":[["append",8,117],["r",9,[1,2,3,4,5]],["append",8,118]]}`
	const lines = 500
	const budget = 5.0 // per line
	input := []byte(strings.Repeat(line+"\n", lines))
	allocs := testing.AllocsPerRun(20, func() {
		d := NewStreamDecoder(bytes.NewReader(input), DecodeOpts{Parallelism: 1})
		if _, err := drain(d); err != nil {
			t.Fatal(err)
		}
	})
	perLine := allocs / lines
	t.Logf("decode allocations per line: %.2f (budget %.0f)", perLine, budget)
	if perLine > budget {
		t.Fatalf("per-line decode allocates %.2f; budget is %.0f", perLine, budget)
	}
}

// TestDecodeChunkingAllocsAmortize pins the read loop itself: decoding
// the same input in one read or in many small reads must cost nearly
// the same, proving the read buffer and parsers serve every read
// instead of allocating per read boundary.
func TestDecodeChunkingAllocsAmortize(t *testing.T) {
	line := `{"index":0,"type":"ok","process":3,"value":[["append",8,1]]}`
	const lines = 400
	input := []byte(strings.Repeat(line+"\n", lines))
	measure := func(chunkBytes int) float64 {
		return testing.AllocsPerRun(20, func() {
			d := NewStreamDecoder(bytes.NewReader(input),
				DecodeOpts{Parallelism: 1, chunkBytes: chunkBytes})
			if _, err := drain(d); err != nil {
				t.Fatal(err)
			}
		})
	}
	one := measure(1 << 20)        // whole input in one read
	many := measure(len(line) * 4) // ~100 reads
	perExtraChunk := (many - one) / 100
	t.Logf("allocs one-chunk=%.0f many-chunks=%.0f (+%.2f per extra chunk)", one, many, perExtraChunk)
	// ~1.4 today, mostly the read's op slice; crucially O(1) per read,
	// independent of the lines inside it.
	if perExtraChunk > 12 {
		t.Fatalf("each chunk boundary costs %.2f allocations; want O(1) per chunk (<= 12)", perExtraChunk)
	}
}

// TestChunkDecoderAllocatesNoReadBuffer pins what decoding a chunk in
// place buys: each chunk of a stream allocates in proportion to the
// chunk — its ops, and a share of the decoder's arena slabs — not the
// megabyte of read buffer (plus a copy of the body) a StreamDecoder
// costs per call.
func TestChunkDecoderAllocatesNoReadBuffer(t *testing.T) {
	line := `{"index":0,"type":"ok","process":3,"value":[["append",8,117],["r",9,[1,2,3,4,5]],["append",8,118]]}`
	input := []byte(strings.Repeat(line+"\n", 100)) // ~10 KB
	const runs = 64
	perDecode := func(decode func() error) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			if err := decode(); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / runs
	}
	reader := perDecode(func() error {
		_, err := drain(NewStreamDecoder(bytes.NewReader(input), DecodeOpts{Parallelism: 1}))
		return err
	})
	var d ChunkDecoder // one per stream, as a job keeps
	inPlace := perDecode(func() error {
		_, err := d.Feed(input)
		return err
	})
	t.Logf("bytes allocated per %d-byte chunk: reader %d, in place %d", len(input), reader, inPlace)
	if inPlace > 1<<18 {
		t.Fatalf("an in-place chunk decode allocates %d bytes; want well under the 1 MiB read buffer", inPlace)
	}
}

// TestStreamDecoderSmallInputSmallBuffer: a StreamDecoder's read buffer
// starts small and grows only while reads fill it, so decoding a small
// input through one costs little beyond what a fresh parser does: under
// the bound TestChunkDecoderAllocatesNoReadBuffer holds an in-place
// decode to, not a whole 1 MiB part.
func TestStreamDecoderSmallInputSmallBuffer(t *testing.T) {
	line := `{"index":0,"type":"ok","process":3,"value":[["append",8,117],["r",9,[1,2,3,4,5]],["append",8,118]]}`
	input := []byte(strings.Repeat(line+"\n", 100)) // ~10 KB
	perDecode := func(decode func() error) uint64 {
		const runs = 64
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			if err := decode(); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / runs
	}
	reader := perDecode(func() error {
		_, err := drain(NewStreamDecoder(bytes.NewReader(input), DecodeOpts{Parallelism: 1}))
		return err
	})
	parser := perDecode(func() error {
		var d ChunkDecoder // a fresh parser, as each StreamDecoder has
		_, err := d.Feed(input)
		return err
	})
	t.Logf("bytes allocated per %d-byte decode: reader %d, fresh parser in place %d", len(input), reader, parser)
	if reader > parser+1<<18 {
		t.Fatalf("a StreamDecoder allocates %d bytes beyond its parser's for a %d-byte input; want well under a 1 MiB part",
			reader-parser, len(input))
	}
}

// BenchmarkParseLine is the scanner alone, per line shape, in MB/s: no
// reader, no chunking, one parser reused as within a chunk.
func BenchmarkParseLine(b *testing.B) {
	for _, c := range []struct {
		name, line string
		register   bool
	}{
		{"list-read", `{"index":1041,"type":"ok","process":3,"time":88213,"value":[["r",9,[1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16,17,18,19,20,21,22,23,24,25,26,27,28,29,30,31,32]],["append",8,117],["r",7,[101,102,103,104,105,106,107,108,109,110,111,112]]]}`, false},
		{"write-only", `{"index":1040,"type":"invoke","process":3,"time":88101,"value":[["append",8,117],["append",9,33],["append",11,2048],["append",8,118]]}`, false},
		{"register", `{"index":1042,"type":"ok","process":5,"time":88377,"value":[["w",4,19],["r",6,12],["r",4,null],["w",7,20]]}`, true},
	} {
		b.Run(c.name, func(b *testing.B) {
			text := []byte(c.line)
			p := new(lineParser)
			b.SetBytes(int64(len(text)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := p.parse(text, c.register); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
