package core

import (
	"fmt"
	"testing"

	"repro/internal/consistency"
	"repro/internal/gen"
	"repro/internal/memdb"
	"repro/internal/workload"
)

// The paper's §7 workload dimension: "We performed anywhere from one to
// 1024 writes per object; fewer writes per object stresses codepaths
// involved in the creation of fresh database objects, and more writes
// per object allows the detection of anomalies over longer time
// periods." These tests sweep that dimension.

func checkAtWidth(t *testing.T, width int, iso memdb.Isolation, f memdb.Faults, seed int64) *CheckResult {
	t.Helper()
	g := gen.New(gen.Config{ActiveKeys: 5, MaxWritesPerKey: width}, seed)
	h := memdb.Run(memdb.RunConfig{
		Clients: 10, Txns: 800, Isolation: iso, Faults: f, Source: g, Seed: seed,
	})
	opts := OptsFor(ListAppend, consistency.SnapshotIsolation)
	opts.KeyConsistency = workload.LinearizableKeys
	return Check(h, opts)
}

// TestSoundnessAcrossKeyWidths: clean serializable histories stay clean
// at every writes-per-key setting, including the fresh-object-heavy
// width of 1.
func TestSoundnessAcrossKeyWidths(t *testing.T) {
	for _, width := range []int{1, 2, 10, 100, 1024} {
		width := width
		t.Run(fmt.Sprintf("width=%d", width), func(t *testing.T) {
			for seed := int64(0); seed < 5; seed++ {
				g := gen.New(gen.Config{ActiveKeys: 5, MaxWritesPerKey: width}, seed)
				h := memdb.Run(memdb.RunConfig{
					Clients: 10, Txns: 500, Isolation: memdb.StrictSerializable,
					Source: g, Seed: seed,
				})
				r := Check(h, OptsFor(ListAppend, consistency.StrictSerializable))
				if len(r.Anomalies) != 0 {
					t.Fatalf("seed %d: false positives at width %d: %v\n%s",
						seed, width, r.AnomalyTypes(), r.Anomalies[0].Explanation)
				}
			}
		})
	}
}

// TestRetryDetectionAcrossKeyWidths: the TiDB retry fault is detectable
// from width 10 up — wide keys catch it through long version histories.
// (At widths 1-2 keys retire before a conflicting reader can observe the
// lost element, so detection probability drops; the paper's narrow
// widths stress object creation, not detection power.)
func TestRetryDetectionAcrossKeyWidths(t *testing.T) {
	faults := memdb.Faults{RetryStompProb: 0.4, RetryRebaseProb: 1}
	for _, width := range []int{10, 100, 1024} {
		width := width
		t.Run(fmt.Sprintf("width=%d", width), func(t *testing.T) {
			detected := false
			for seed := int64(0); seed < 6 && !detected; seed++ {
				r := checkAtWidth(t, width, memdb.SnapshotIsolation, faults, seed)
				if !r.Valid {
					detected = true
				}
			}
			if !detected {
				t.Errorf("retry fault invisible at width %d across 6 seeds", width)
			}
		})
	}
}

// TestSingleWritePerKey: at width 1 every object receives exactly one
// append, so version histories have length one and cycle inference is
// minimal — but structural checks still work.
func TestSingleWritePerKey(t *testing.T) {
	g := gen.New(gen.Config{ActiveKeys: 5, MaxWritesPerKey: 1}, 3)
	h := memdb.Run(memdb.RunConfig{
		Clients: 10, Txns: 500, Isolation: memdb.ReadUncommitted,
		Source: g, Seed: 3, AbortProb: 0.3,
	})
	r := Check(h, OptsFor(ListAppend, consistency.ReadCommitted))
	// Read-uncommitted with unrolled-back aborts must still surface G1a
	// even when each key sees a single append.
	if r.Valid {
		t.Error("RU engine with aborts passed read committed at width 1")
	}
}
