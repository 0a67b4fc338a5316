package history_test

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/binhist"
	"repro/internal/history"
	"repro/internal/op"
)

// budget returns a retirement budget over the production codec.
func budget(window int, spillDir string) history.Budget {
	return history.Budget{Window: window, Codec: binhist.Segments{}, SpillDir: spillDir}
}

// compactOps builds n committed single-mop ops over rotating keys.
func compactOps(n int) []op.Op {
	out := make([]op.Op, n)
	for i := range out {
		key := fmt.Sprintf("k%d", i/10)
		out[i] = op.Op{Index: i, Process: i % 3, Time: int64(i), Type: op.OK,
			Mops: []op.Mop{{F: op.FAppend, Key: key, Arg: i}}}
	}
	return out
}

// pairedOps builds a complete (invoke/completion interleaved) history
// across nproc processes, staggering spans so some cross each other.
func pairedOps(nTxns, nproc int) []op.Op {
	var out []op.Op
	idx := 0
	add := func(p int, t op.Type, mops []op.Mop) {
		out = append(out, op.Op{Index: idx, Process: p, Time: int64(idx), Type: t, Mops: mops})
		idx++
	}
	for i := 0; i < nTxns; i += nproc {
		// Invoke a wave across every process, then complete them in
		// reverse so spans straddle each other.
		n := nproc
		if i+n > nTxns {
			n = nTxns - i
		}
		for p := 0; p < n; p++ {
			add(p, op.Invoke, []op.Mop{{F: op.FAppend, Key: fmt.Sprintf("k%d", (i+p)/8), Arg: i + p}})
		}
		for p := n - 1; p >= 0; p-- {
			add(p, op.OK, []op.Mop{{F: op.FAppend, Key: fmt.Sprintf("k%d", (i+p)/8), Arg: i + p}})
		}
	}
	return out
}

// mustEqualHistories asserts the budgeted stream rehydrates to exactly
// what New builds from the same ops: same op sequence, spans, views.
func mustEqualHistories(t *testing.T, got *history.History, ops []op.Op) {
	t.Helper()
	want := history.MustNew(ops)
	if !reflect.DeepEqual(got.Ops, want.Ops) {
		t.Fatalf("rehydrated ops differ: got %d ops, want %d", len(got.Ops), len(want.Ops))
	}
	if got.Compact() != want.Compact() {
		t.Fatalf("compact = %v, want %v", got.Compact(), want.Compact())
	}
	for pos := range want.Ops {
		gi, gc := got.Span(pos)
		wi, wc := want.Span(pos)
		if gi != wi || gc != wc {
			t.Fatalf("span(%d) = [%d %d], want [%d %d]", pos, gi, gc, wi, wc)
		}
	}
	if !reflect.DeepEqual(got.Completions(), want.Completions()) {
		t.Fatalf("completions differ")
	}
}

func TestStreamRetireRehydratesCompact(t *testing.T) {
	ops := compactOps(200)
	s := history.NewStream()
	s.SetBudget(budget(8, ""))
	if err := s.AddAll(ops); err != nil {
		t.Fatal(err)
	}
	st := s.RetireStats()
	if st.RetiredOps == 0 || st.Segments == 0 {
		t.Fatalf("expected retirement at window 8 over 200 ops; stats %+v", st)
	}
	if st.ResidentOps+st.RetiredOps != len(ops) {
		t.Fatalf("resident %d + retired %d != %d", st.ResidentOps, st.RetiredOps, len(ops))
	}
	if st.ResidentOps > 3*8 {
		t.Fatalf("resident ops %d exceeds ~2x window", st.ResidentOps)
	}
	if s.Len() != len(ops) {
		t.Fatalf("Len() = %d, want %d", s.Len(), len(ops))
	}
	mustEqualHistories(t, s.History(), ops)
	// History is cached: a second call returns the same rehydration.
	if s.History() != s.History() {
		t.Fatal("rehydrated history not cached")
	}
}

func TestStreamRetireRehydratesPaired(t *testing.T) {
	ops := pairedOps(120, 5)
	s := history.NewStream()
	s.SetBudget(budget(6, ""))
	if err := s.AddAll(ops); err != nil {
		t.Fatal(err)
	}
	if s.RetireStats().RetiredOps == 0 {
		t.Fatal("expected retirement")
	}
	mustEqualHistories(t, s.History(), ops)
}

func TestStreamRetirePinsOpenSpans(t *testing.T) {
	// Process 9 invokes once at the very start and never completes
	// until the end: nothing past its invoke may retire.
	var ops []op.Op
	idx := 0
	add := func(p int, ty op.Type, arg int) {
		ops = append(ops, op.Op{Index: idx, Process: p, Type: ty,
			Mops: []op.Mop{{F: op.FAppend, Key: "k", Arg: arg}}})
		idx++
	}
	add(9, op.Invoke, 999)
	for i := 0; i < 100; i++ {
		add(0, op.Invoke, i)
		add(0, op.OK, i)
	}
	s := history.NewStream()
	s.SetBudget(budget(4, ""))
	if err := s.AddAll(ops); err != nil {
		t.Fatal(err)
	}
	if got := s.RetireStats().RetiredOps; got != 0 {
		t.Fatalf("retired %d ops past an outstanding invocation", got)
	}
	// Completing the pinned invoke un-pins the prefix.
	add(9, op.OK, 999)
	if err := s.Add(ops[len(ops)-1]); err != nil {
		t.Fatal(err)
	}
	for i := 100; i < 110; i++ { // push past the sweep threshold again
		add(0, op.Invoke, i)
		add(0, op.OK, i)
	}
	if err := s.AddAll(ops[len(ops)-20:]); err != nil {
		t.Fatal(err)
	}
	if got := s.RetireStats().RetiredOps; got == 0 {
		t.Fatal("expected retirement once the pinned span closed")
	}
	mustEqualHistories(t, s.History(), ops)
}

// pipelinedOps builds a history where nproc clients are busy at every
// moment — each invokes its next op immediately after completing the
// last — so some span straddles every possible cut point. This is the
// shape real concurrent recordings have.
func pipelinedOps(nTxns, nproc int) []op.Op {
	var ops []op.Op
	idx := 0
	add := func(p int, t op.Type, arg int) {
		ops = append(ops, op.Op{Index: idx, Process: p, Time: int64(idx), Type: t,
			Mops: []op.Mop{{F: op.FAppend, Key: fmt.Sprintf("k%d", arg/8), Arg: arg}}})
		idx++
	}
	for p := 0; p < nproc; p++ {
		add(p, op.Invoke, p)
	}
	for i := 0; i < nTxns; i++ {
		p := i % nproc
		add(p, op.OK, i)
		if next := i + nproc; next < nTxns {
			add(p, op.Invoke, next)
		}
	}
	return ops
}

func TestStreamRetirePipelined(t *testing.T) {
	// The whole-span trap: clients that are never all idle mean no
	// prefix consists solely of complete spans. Retirement must still
	// make progress — closed spans may straddle the boundary, since
	// rehydration re-pairs them from the replayed order.
	ops := pipelinedOps(300, 10)
	s := history.NewStream()
	s.SetBudget(budget(16, ""))
	if err := s.AddAll(ops); err != nil {
		t.Fatal(err)
	}
	st := s.RetireStats()
	if st.RetiredOps == 0 {
		t.Fatalf("pipelined history never retired; stats %+v", st)
	}
	// Resident: ~2x window of completions plus their invokes, plus the
	// ~nproc open spans. 5x window of ops is a generous ceiling.
	if st.ResidentOps > 5*16 {
		t.Fatalf("resident ops %d not bounded by the window", st.ResidentOps)
	}
	mustEqualHistories(t, s.History(), ops)
}

func TestStreamRetireSpill(t *testing.T) {
	ops := compactOps(500)
	s := history.NewStream()
	s.SetBudget(budget(16, t.TempDir()))
	if err := s.AddAll(ops); err != nil {
		t.Fatal(err)
	}
	st := s.RetireStats()
	if st.SpilledBytes == 0 {
		t.Fatalf("expected spilled segments; stats %+v", st)
	}
	if st.RetiredBytes != 0 {
		t.Fatalf("spilled stream still holds %d encoded bytes in memory", st.RetiredBytes)
	}
	if st.Degraded != "" {
		t.Fatalf("unexpected degradation: %s", st.Degraded)
	}
	mustEqualHistories(t, s.History(), ops)
}

func TestStreamRetireSpillDirFailure(t *testing.T) {
	ops := compactOps(200)
	s := history.NewStream()
	s.SetBudget(budget(8, "/nonexistent/spill/dir"))
	if err := s.AddAll(ops); err != nil {
		t.Fatal(err)
	}
	st := s.RetireStats()
	if st.Degraded == "" {
		t.Fatal("expected degraded stats for an unusable spill dir")
	}
	if st.RetiredOps == 0 || st.RetiredBytes == 0 {
		t.Fatalf("expected in-memory fallback retirement; stats %+v", st)
	}
	mustEqualHistories(t, s.History(), ops)
}

func TestStreamReplay(t *testing.T) {
	ops := pairedOps(80, 3)
	s := history.NewStream()
	s.SetBudget(budget(5, ""))
	if err := s.AddAll(ops); err != nil {
		t.Fatal(err)
	}
	var replayed []op.Op
	if err := s.Replay(func(o op.Op) error {
		replayed = append(replayed, o)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(replayed, ops) {
		t.Fatalf("replay produced %d ops, want %d (or contents differ)", len(replayed), len(ops))
	}
}

// TestStreamRetireSpanOfLiveTail: LastInvoke must name the invocation of
// the op just accepted even when that same Add retired it. A window of 1
// sweeps right behind the newest completions, so some Adds do; the test
// counts them to make sure.
func TestStreamRetireSpanOfLiveTail(t *testing.T) {
	ops := pairedOps(100, 4)
	s := history.NewStream()
	s.SetBudget(budget(1, ""))
	want := history.MustNew(ops)
	retiredWithIt := 0
	for i, o := range ops {
		if err := s.Add(o); err != nil {
			t.Fatal(err)
		}
		wi, _ := want.Span(i)
		if got := s.LastInvoke(); got != wi {
			t.Fatalf("LastInvoke after index %d = %d, want %d", o.Index, got, wi)
		}
		if o.Type != op.Invoke && wi < o.Index && s.RetireStats().RetiredOps > wi {
			retiredWithIt++
		}
	}
	if retiredWithIt == 0 {
		t.Fatal("no Add retired the invocation of the completion it accepted")
	}
}

func TestStreamRetireRejectsRetroactivePairing(t *testing.T) {
	// Compact completions retire; a late invoke must still trip the
	// retroactive "stream was never compact" error even though the
	// first completion is long gone.
	s := history.NewStream()
	s.SetBudget(budget(4, ""))
	if err := s.AddAll(compactOps(50)); err != nil {
		t.Fatal(err)
	}
	if s.RetireStats().RetiredOps == 0 {
		t.Fatal("expected retirement")
	}
	err := s.Add(op.Op{Index: 1000, Process: 0, Type: op.Invoke,
		Mops: []op.Mop{{F: op.FAppend, Key: "k", Arg: 1}}})
	if err == nil || !strings.Contains(err.Error(), "no outstanding invocation") {
		t.Fatalf("err = %v, want retroactive pairing error", err)
	}
	// The accepted prefix is still a valid history.
	if got := s.History().Len(); got != 50 {
		t.Fatalf("history after error has %d ops, want 50", got)
	}
}

func TestStreamNoBudgetUnchanged(t *testing.T) {
	// Without a budget nothing retires and History stays the aliasing
	// fast path.
	ops := compactOps(300)
	s := history.NewStream()
	if err := s.AddAll(ops); err != nil {
		t.Fatal(err)
	}
	st := s.RetireStats()
	if st.RetiredOps != 0 || st.Segments != 0 || st.ResidentOps != 300 {
		t.Fatalf("unbudgeted stream retired: %+v", st)
	}
	mustEqualHistories(t, s.History(), ops)
}
