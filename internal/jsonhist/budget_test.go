package jsonhist

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"
	"unsafe"

	"repro/internal/op"
)

// TestDecodeWithCopiesOpsTwice pins how often a batch decode allocates
// the op slice: once as its one read parses, once where DecodeWith joins
// the reads' ops, and never again — the history takes the joined slice
// over (history.Adopt). Total bytes allocated cannot tell a copy of the
// ops from the read buffer and the parser's slabs. The test counts,
// through an exact allocation profile, the allocations the size of the
// whole op slice instead.
func TestDecodeWithCopiesOpsTwice(t *testing.T) {
	const lines = 8000 // one read
	var b bytes.Buffer
	for i := 0; i < lines/2; i++ {
		k := i % 16
		fmt.Fprintf(&b, `{"index":%d,"type":"invoke","process":%d,"value":[["append",%d,%d],["r",%d,null]]}`+"\n", 2*i, i%8, k, i, k)
		fmt.Fprintf(&b, `{"index":%d,"type":"ok","process":%d,"value":[["append",%d,%d],["r",%d,[%d]]]}`+"\n", 2*i+1, i%8, k, i, k, i)
	}
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	before := allocsByStack()
	h, err := DecodeWith(bytes.NewReader(b.Bytes()), DecodeOpts{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	after := allocsByStack()
	if len(h.Ops) != lines {
		t.Fatalf("decoded %d ops, want %d", len(h.Ops), lines)
	}
	// A large allocation is rounded up to whole pages.
	size := int64(lines * unsafe.Sizeof(op.Op{}))
	copies := int64(0)
	for stack, a := range after {
		a.bytes -= before[stack].bytes
		a.objects -= before[stack].objects
		if a.objects > 0 && a.bytes/a.objects >= size && a.bytes/a.objects < size+8192 {
			copies += a.objects
		}
	}
	t.Logf("DecodeWith allocated the %d-byte op slice %d times", size, copies)
	if copies > 2 {
		t.Fatalf("DecodeWith allocated the op slice %d times; at most twice (the chunk's, the join's)", copies)
	}
}

type allocs struct{ bytes, objects int64 }

// allocsByStack returns the allocation profile, summed per call stack.
// Two collections first publish every allocation made before them.
func allocsByStack() map[[32]uintptr]allocs {
	runtime.GC()
	runtime.GC()
	n, _ := runtime.MemProfile(nil, true)
	recs := make([]runtime.MemProfileRecord, n+64)
	for {
		var ok bool
		if n, ok = runtime.MemProfile(recs, true); ok {
			break
		}
		recs = make([]runtime.MemProfileRecord, n+64)
	}
	recs = recs[:n]
	out := make(map[[32]uintptr]allocs, len(recs))
	for _, r := range recs {
		a := out[r.Stack0]
		a.bytes += r.AllocBytes
		a.objects += r.AllocObjects
		out[r.Stack0] = a
	}
	return out
}
