package core

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strconv"
	"testing"

	"repro/internal/consistency"
	"repro/internal/op"
)

// soakGen emits a serializable list-append history one chunk at a time,
// shaped so a budgeted stream can actually retire: keys are used in
// bursts — a small working set appended to and read for a stretch, then
// abandoned forever — so every burst's keys go quiescent and age out of
// the retirement window as the stream moves on. The generator itself
// holds only the current burst's key contents, never the whole history;
// a harness that accumulated O(history) state would drown the very
// measurement the soak test exists to take.
type soakGen struct {
	rng      *rand.Rand
	idx      int // next op index
	next     int // next unique append value
	burst    int
	inBurst  int // ops emitted in the current burst
	burstLen int
	keys     []string
	contents map[string][]int
}

const soakKeysPerBurst = 8

func newSoakGen(burstLen int) *soakGen {
	g := &soakGen{rng: rand.New(rand.NewSource(8)), burstLen: burstLen}
	g.rotate()
	return g
}

// rotate abandons the current working set and opens the next burst's.
func (g *soakGen) rotate() {
	g.keys = g.keys[:0]
	g.contents = make(map[string][]int, soakKeysPerBurst)
	for i := 0; i < soakKeysPerBurst; i++ {
		k := fmt.Sprintf("b%dk%d", g.burst, i)
		g.keys = append(g.keys, k)
		g.contents[k] = nil
	}
	g.burst++
	g.inBurst = 0
}

// chunk emits the next n committed ops (compact form: every op is its
// own completion, so nothing but the budget pins the stream's tail).
func (g *soakGen) chunk(n int) []op.Op {
	ops := make([]op.Op, 0, n)
	for len(ops) < n {
		if g.inBurst >= g.burstLen {
			g.rotate()
		}
		mops := make([]op.Mop, 0, 3)
		for m := 1 + g.rng.Intn(3); m > 0; m-- {
			k := g.keys[g.rng.Intn(len(g.keys))]
			if g.rng.Intn(4) == 0 {
				cur := g.contents[k]
				mops = append(mops, op.ReadList(k, append([]int{}, cur...)))
			} else {
				mops = append(mops, op.Mop{F: op.FAppend, Key: k, Arg: g.next})
				g.contents[k] = append(g.contents[k], g.next)
				g.next++
			}
		}
		ops = append(ops, op.Op{
			Index: g.idx, Process: g.idx % 10, Time: int64(g.idx),
			Type: op.OK, Mops: mops,
		})
		g.idx++
		g.inBurst++
	}
	return ops
}

// heapAlloc samples the live heap after a full collection.
func heapAlloc() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestStreamBoundedMemory is the bounded-memory soak test: a budgeted
// stream fed a history ~20x its window must hold its heap flat — later
// samples no worse than ~2x the quarter-way mark — while retiring most
// of the history to spilled segments, and must still finish with a
// report byte-identical to the batch check of the same ops.
//
// The default run is sized for CI; set ELLE_SOAK_OPS to scale it (the
// acceptance soak per docs/STREAMING.md is ELLE_SOAK_OPS=5000000, a
// history comfortably bigger than the budgeted session's resident set).
func TestStreamBoundedMemory(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test; skipped in -short")
	}
	totalOps := 100_000
	if env := os.Getenv("ELLE_SOAK_OPS"); env != "" {
		n, err := strconv.Atoi(env)
		if err != nil || n <= 0 {
			t.Fatalf("bad ELLE_SOAK_OPS %q: %v", env, err)
		}
		totalOps = n
	}
	budget := totalOps / 20
	const chunk = 1024

	opts := OptsFor(ListAppend, consistency.StrictSerializable)
	opts.MemoryBudget = budget
	opts.SpillDir = t.TempDir()
	st := CheckStream(opts)

	sg := newSoakGen(budget / 4)
	var samples []uint64
	sampleEvery := totalOps / chunk / 20
	if sampleEvery < 1 {
		sampleEvery = 1
	}
	for fed, chunks := 0, 0; fed < totalOps; chunks++ {
		n := chunk
		if fed+n > totalOps {
			n = totalOps - fed
		}
		if _, err := st.Feed(sg.chunk(n)); err != nil {
			t.Fatalf("Feed at op %d: %v", fed, err)
		}
		fed += n
		if chunks%sampleEvery == 0 {
			samples = append(samples, heapAlloc())
		}
	}

	// The plateau assertion: once the window has filled and the first
	// sweeps have run (a quarter of the way in), the heap must not keep
	// growing with the history. The 2x + slack bound is generous — GC
	// timing and segment buffers wobble — but an O(history) regression
	// blows far past it: resident ops alone would grow 4x from the
	// quarter mark to the end.
	base := samples[len(samples)/4]
	const slack = 48 << 20
	for i, s := range samples[len(samples)/4:] {
		if s > 2*base+slack {
			t.Fatalf("heap sample %d = %d MiB exceeds plateau bound (baseline %d MiB): resident set is growing with the history",
				i+len(samples)/4, s>>20, base>>20)
		}
	}

	rs := st.RetireStats()
	if rs.Stream.RetiredOps < totalOps/2 {
		t.Fatalf("only %d of %d ops retired; retirement is not keeping up: %+v",
			rs.Stream.RetiredOps, totalOps, rs.Stream)
	}
	if rs.Stream.SpilledBytes == 0 {
		t.Fatalf("no segment bytes spilled despite SpillDir; stats %+v", rs.Stream)
	}
	if rs.RetiredKeys == 0 {
		t.Fatal("no keys retired despite bursty quiescence")
	}
	if rs.Stream.Degraded != "" {
		t.Fatalf("retirement degraded: %s", rs.Stream.Degraded)
	}

	res, err := st.Finish()
	if err != nil {
		t.Fatalf("Finish: %v", err)
	}
	if !res.Valid {
		t.Fatalf("serializable soak history found invalid: %v", res.AnomalyTypes())
	}

	// Finish rehydrated the full history; the batch check over it must
	// render byte-identically (the stream/batch contract, at soak scale).
	if got, want := renderFull(res), renderFull(Check(st.History(), OptsFor(ListAppend, consistency.StrictSerializable))); got != want {
		t.Fatalf("soak stream diverges from batch:\n--- batch ---\n%.2000s\n--- stream ---\n%.2000s", want, got)
	}
}
