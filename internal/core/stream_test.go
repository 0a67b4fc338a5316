package core

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/anomaly"
	"repro/internal/consistency"
	"repro/internal/gen"
	"repro/internal/history"
	"repro/internal/memdb"
	"repro/internal/op"
	"repro/internal/workload"
)

// The streaming checker's contract is that Finish is byte-identical to
// the batch Check over the concatenation of every chunk — for every
// registered workload (with streaming hooks or finishing in batch), at
// every chunk size, at every parallelism level. Mid-stream deltas are
// provisional findings whose type must be confirmed by the final report.

// genHistory builds the same seeded history the parallelism tests use.
func genHistory(t *testing.T, w Workload, iso memdb.Isolation, f memdb.Faults, seed int64, txns int) *history.History {
	t.Helper()
	info, ok := workload.Lookup(string(w))
	if !ok {
		t.Fatalf("workload %q not registered", w)
	}
	g := gen.New(gen.Config{Workload: info.Gen, ActiveKeys: 5, MaxWritesPerKey: 40}, seed)
	return memdb.Run(memdb.RunConfig{
		Clients: 10, Txns: txns, Isolation: iso, Faults: f,
		Source: g, Seed: seed, Workload: info.DB, InfoProb: 0.02,
	})
}

// streamCheck drives h through CheckStream in chunks of the given size
// (0 = a single chunk), returning the final result and every delta.
func streamCheck(t *testing.T, h *history.History, opts Opts, chunk int) (*CheckResult, []workload.Delta) {
	t.Helper()
	st := CheckStream(opts)
	var deltas []workload.Delta
	ops := h.Ops
	if chunk <= 0 {
		chunk = len(ops) + 1
	}
	for len(ops) > 0 {
		n := chunk
		if n > len(ops) {
			n = len(ops)
		}
		d, err := st.Feed(ops[:n])
		if err != nil {
			t.Fatalf("Feed: %v", err)
		}
		deltas = append(deltas, d)
		ops = ops[n:]
	}
	res, err := st.Finish()
	if err != nil {
		t.Fatalf("Finish: %v", err)
	}
	return res, deltas
}

// TestStreamEqualsBatch is the streaming acceptance test: single-chunk
// and multi-chunk streams must render byte-identically to the batch
// check, across the whole registry, clean and faulted, at parallelism
// 1 and 8.
func TestStreamEqualsBatch(t *testing.T) {
	engines := []struct {
		name   string
		iso    memdb.Isolation
		faults memdb.Faults
	}{
		{"clean", memdb.StrictSerializable, memdb.Faults{}},
		{"stomp", memdb.SnapshotIsolation, memdb.Faults{RetryStompProb: 0.5, RetryRebaseProb: 1}},
	}
	for _, info := range workload.All() {
		w := Workload(info.Name)
		for _, e := range engines {
			t.Run(fmt.Sprintf("%s/%s", w, e.name), func(t *testing.T) {
				h := genHistory(t, w, e.iso, e.faults, 1, 300)
				batchOpts := OptsFor(w, consistency.StrictSerializable)
				batchOpts.Parallelism = 1
				want := renderFull(Check(h, batchOpts))
				for _, p := range []int{1, 8} {
					// The retirement axis: a budget tiny relative to the
					// history forces many sweeps (settled prefixes encoded
					// and released, key caches and graph regions
					// dropped), and the Finish must still render
					// byte-identically to batch. One corner also spills
					// segments to disk.
					for _, budget := range []int{0, 16} {
						opts := OptsFor(w, consistency.StrictSerializable)
						opts.Parallelism = p
						opts.MemoryBudget = budget
						if budget > 0 && p == 8 {
							opts.SpillDir = t.TempDir()
						}
						for _, chunk := range []int{0, 17} {
							res, deltas := streamCheck(t, h, opts, chunk)
							if got := renderFull(res); got != want {
								t.Fatalf("stream (p=%d budget=%d chunk=%d) diverges from batch:\n--- batch ---\n%s\n--- stream ---\n%s",
									p, budget, chunk, want, got)
							}
							// Every surfaced anomaly type must appear in the
							// final report: deltas are previews, not noise.
							// Under a budget the deltas are a subset of the
							// unbudgeted session's, but each one surfaced
							// still obeys the same confirmation contract.
							final := map[anomaly.Type]bool{}
							for _, a := range res.Anomalies {
								final[a.Type] = true
							}
							for _, d := range deltas {
								for _, a := range d.Anomalies {
									if !confirmed(final, a.Type) {
										t.Fatalf("mid-stream %s (key %s, budget=%d) missing from the final report",
											a.Type, a.Key, budget)
									}
								}
							}
						}
					}
				}
			})
		}
	}
}

// confirmed reports whether a mid-stream anomaly type is backed by the
// final report. Cycle types may strengthen as extra ordering edges join
// the final search (G1c -> G1c-realtime and so on), so a cycle delta is
// confirmed by any final cycle anomaly. Per the workload.Delta
// contract, a finding may instead be superseded by the structural
// anomaly that destroyed its evidence — a duplicate write evicting a
// writer, an incompatible read replacing a version order.
func confirmed(final map[anomaly.Type]bool, tp anomaly.Type) bool {
	if final[tp] {
		return true
	}
	if tp.IsCycle() {
		for ft := range final {
			if ft.IsCycle() {
				return true
			}
		}
	}
	return final[anomaly.DuplicateAppends] || final[anomaly.IncompatibleOrder]
}

// TestStreamEmptyHistory: a stream with no ops (and one with only empty
// feeds) must equal the batch check of an empty history.
func TestStreamEmptyHistory(t *testing.T) {
	h := history.MustNew(nil)
	for _, info := range workload.All() {
		w := Workload(info.Name)
		opts := OptsFor(w, consistency.StrictSerializable)
		want := renderFull(Check(h, opts))

		st := CheckStream(opts)
		res, err := st.Finish()
		if err != nil {
			t.Fatalf("%s: Finish: %v", w, err)
		}
		if got := renderFull(res); got != want {
			t.Fatalf("%s: empty stream diverges:\n%s\nvs\n%s", w, got, want)
		}

		st = CheckStream(opts)
		if d, err := st.Feed(nil); err != nil || len(d.Anomalies) != 0 {
			t.Fatalf("%s: empty feed: %v %v", w, d, err)
		}
		res, err = st.Finish()
		if err != nil {
			t.Fatalf("%s: Finish after empty feed: %v", w, err)
		}
		if got := renderFull(res); got != want {
			t.Fatalf("%s: empty-feed stream diverges", w)
		}
	}
}

// TestStreamMidStreamAnomalies: anomalies whose evidence completes
// mid-stream surface in the Delta of the chunk that proves them, and
// the final report confirms them.
func TestStreamMidStreamAnomalies(t *testing.T) {
	t.Run("listappend G1a", func(t *testing.T) {
		st := CheckStream(OptsFor(ListAppend, consistency.Serializable))
		d, err := st.Feed([]op.Op{op.Txn(0, 0, op.Fail, op.Append("x", 1))})
		if err != nil || len(d.Anomalies) != 0 {
			t.Fatalf("first chunk: %v %v", d, err)
		}
		d, err = st.Feed([]op.Op{op.Txn(1, 1, op.OK, op.ReadList("x", []int{1}))})
		if err != nil {
			t.Fatal(err)
		}
		if len(d.Anomalies) != 1 || d.Anomalies[0].Type != anomaly.G1a {
			t.Fatalf("expected a G1a delta, got %+v", d.Anomalies)
		}
		res, err := st.Finish()
		if err != nil {
			t.Fatal(err)
		}
		if !res.HasAnomaly(anomaly.G1a) {
			t.Fatal("Finish did not confirm the mid-stream G1a")
		}
		// The mid-stream explanation is already the canonical one.
		if d.Anomalies[0].Explanation != findType(res, anomaly.G1a).Explanation {
			t.Fatalf("mid-stream explanation %q != final %q",
				d.Anomalies[0].Explanation, findType(res, anomaly.G1a).Explanation)
		}
	})
	t.Run("rwregister G1a late abort", func(t *testing.T) {
		// The read arrives before its writer's failure: the G1a becomes
		// provable only when the abort lands.
		st := CheckStream(OptsFor(Register, consistency.Serializable))
		d, err := st.Feed([]op.Op{op.Txn(0, 0, op.OK, op.ReadReg("x", 7))})
		if err != nil || len(d.Anomalies) != 0 {
			t.Fatalf("first chunk: %v %v", d, err)
		}
		d, err = st.Feed([]op.Op{op.Txn(1, 1, op.Fail, op.Write("x", 7))})
		if err != nil {
			t.Fatal(err)
		}
		if len(d.Anomalies) != 1 || d.Anomalies[0].Type != anomaly.G1a {
			t.Fatalf("expected a late-abort G1a delta, got %+v", d.Anomalies)
		}
		res, err := st.Finish()
		if err != nil {
			t.Fatal(err)
		}
		if !res.HasAnomaly(anomaly.G1a) {
			t.Fatal("Finish did not confirm the mid-stream G1a")
		}
	})
	t.Run("listappend cycle at scan point", func(t *testing.T) {
		// A G1c pair, then enough padding completions to cross the
		// session's scan interval inside one feed.
		ops := []op.Op{
			op.Txn(0, 0, op.OK, op.Append("x", 1), op.ReadList("y", []int{2})),
			op.Txn(1, 1, op.OK, op.Append("y", 2), op.ReadList("x", []int{1})),
		}
		for i := 0; i < 130; i++ {
			ops = append(ops, op.Txn(2+i, 2, op.OK, op.Append("z", i+1)))
		}
		st := CheckStream(OptsFor(ListAppend, consistency.Serializable))
		d, err := st.Feed(ops)
		if err != nil {
			t.Fatal(err)
		}
		var sawCycle bool
		for _, a := range d.Anomalies {
			if len(a.Cycle.Steps) > 0 {
				sawCycle = true
				if a.Explanation == "" {
					t.Fatal("mid-stream cycle lacks an explanation")
				}
			}
		}
		if !sawCycle {
			t.Fatalf("expected a mid-stream cycle delta, got %+v", d.Anomalies)
		}
		res, err := st.Finish()
		if err != nil {
			t.Fatal(err)
		}
		var finalCycle bool
		for _, a := range res.Anomalies {
			if len(a.Cycle.Steps) > 0 {
				finalCycle = true
			}
		}
		if !finalCycle {
			t.Fatal("Finish did not confirm the mid-stream cycle")
		}
	})
}

// TestStreamSupersededFinding pins the workload.Delta caveat: a
// provisional G1a whose evidence — a unique aborted writer — is
// destroyed by a later duplicate append is superseded by the
// duplicate-append anomaly at Finish, not confirmed; and the final
// report still matches the batch check byte for byte.
func TestStreamSupersededFinding(t *testing.T) {
	ops := []op.Op{
		op.Txn(0, 0, op.Fail, op.Append("x", 1)),
		op.Txn(1, 1, op.OK, op.ReadList("x", []int{1})),
		op.Txn(2, 2, op.OK, op.Append("x", 1)), // duplicate: evicts the aborted writer
	}
	opts := OptsFor(ListAppend, consistency.Serializable)
	st := CheckStream(opts)
	d, err := st.Feed(ops[:2])
	if err != nil || len(d.Anomalies) != 1 || d.Anomalies[0].Type != anomaly.G1a {
		t.Fatalf("expected a provisional G1a, got %+v, %v", d.Anomalies, err)
	}
	if _, err := st.Feed(ops[2:]); err != nil {
		t.Fatal(err)
	}
	res, err := st.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if res.HasAnomaly(anomaly.G1a) {
		t.Fatal("the G1a's evidence was destroyed; it should not survive to Finish")
	}
	if !res.HasAnomaly(anomaly.DuplicateAppends) {
		t.Fatal("the superseding duplicate-append anomaly is missing")
	}
	want := renderFull(Check(history.MustNew(ops), opts))
	if got := renderFull(res); got != want {
		t.Fatalf("stream diverges from batch:\n%s\nvs\n%s", got, want)
	}
}

func findType(res *CheckResult, tp anomaly.Type) anomaly.Anomaly {
	for _, a := range res.Anomalies {
		if a.Type == tp {
			return a
		}
	}
	return anomaly.Anomaly{}
}

// TestStreamAdapterFallback: the workloads registered without streaming
// hooks — exactly counter, bank and katomic — finish in batch: empty
// deltas, batch-identical finish.
func TestStreamAdapterFallback(t *testing.T) {
	var hookless []string
	for _, info := range workload.All() {
		if info.Incremental != nil {
			continue
		}
		w := Workload(info.Name)
		hookless = append(hookless, string(w))
		h := genHistory(t, w, memdb.ReadUncommitted, memdb.Faults{}, 3, 200)
		opts := OptsFor(w, consistency.StrictSerializable)
		want := renderFull(Check(h, opts))
		res, deltas := streamCheck(t, h, opts, 23)
		if got := renderFull(res); got != want {
			t.Fatalf("%s: adapter stream diverges from batch", w)
		}
		for _, d := range deltas {
			if len(d.Anomalies) != 0 {
				t.Fatalf("%s: adapter surfaced mid-stream anomalies: %+v", w, d.Anomalies)
			}
		}
		if deltas[len(deltas)-1].Ops != len(h.Completions()) {
			t.Fatalf("%s: final delta op count %d != %d", w, deltas[len(deltas)-1].Ops, len(h.Completions()))
		}
	}
	if want := []string{"bank", "counter", "katomic"}; !reflect.DeepEqual(hookless, want) {
		t.Fatalf("workloads registered to finish in batch: %v, want %v", hookless, want)
	}
}

// TestStreamMisuse: feeding after Finish, double Finish, and malformed
// chunks are errors, not panics.
func TestStreamMisuse(t *testing.T) {
	st := CheckStream(OptsFor(ListAppend, consistency.Serializable))
	if _, err := st.Finish(); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Feed([]op.Op{op.Txn(0, 0, op.OK, op.Append("x", 1))}); err == nil {
		t.Fatal("Feed after Finish should fail")
	}
	if _, err := st.Finish(); err == nil {
		t.Fatal("double Finish should fail")
	}

	st = CheckStream(OptsFor(ListAppend, consistency.Serializable))
	if _, err := st.Feed([]op.Op{op.Txn(4, 0, op.OK, op.Append("x", 1))}); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Feed([]op.Op{op.Txn(2, 1, op.OK, op.Append("x", 2))}); err == nil {
		t.Fatal("out-of-order feed should fail")
	}
}

// TestStreamFinishAfterFailedFeed: once a chunk is rejected, Finish
// must refuse too — for every workload — rather than bless the
// accepted prefix as a definitive verdict the batch validator would
// never issue. The rejected op must also not leak into the history.
func TestStreamFinishAfterFailedFeed(t *testing.T) {
	bad := []op.Op{
		{Index: 0, Process: 0, Type: op.Invoke, Mops: []op.Mop{op.Read("x")}},
		{Index: 1, Process: 0, Type: op.Invoke, Mops: []op.Mop{op.Read("x")}}, // double invocation
	}
	for _, info := range workload.All() { // with hooks and without
		w := Workload(info.Name)
		st := CheckStream(OptsFor(w, consistency.Serializable))
		if _, err := st.Feed(bad); err == nil {
			t.Fatalf("%s: malformed feed should fail", w)
		}
		if _, err := st.Finish(); err == nil {
			t.Fatalf("%s: Finish after a failed Feed should fail", w)
		}
		if h := st.History(); h != nil {
			for _, o := range h.Ops {
				if o.Index == 1 {
					t.Fatalf("%s: rejected op leaked into the history", w)
				}
			}
		}
	}
}
