package nemesis_test

import (
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/anomaly"
	"repro/internal/consistency"
	"repro/internal/graph"
	"repro/internal/memdb"
	"repro/internal/nemesis"
	"repro/internal/workload"
	_ "repro/internal/workload/all"
)

// harnessTxns sizes the test runs: large enough that every planted
// fault fires many times, small enough for the full matrix.
const harnessTxns = 600

// modes is the full checking matrix every campaign must agree across.
// The mem64 mode runs the stream under a 64-completion memory budget —
// small enough that every campaign retires settled prefixes many times
// mid-run — and must match the unbounded modes anyway.
var modes = []struct {
	name        string
	stream      bool
	parallelism int
	memBudget   int
}{
	{"batch-p1", false, 1, 0},
	{"batch-p8", false, 8, 0},
	{"stream-p1", true, 1, 0},
	{"stream-p8", true, 8, 0},
	{"stream-p1-mem64", true, 1, 64},
}

// TestCampaignsWellFormed validates the campaign table itself: unique
// names, resolvable workloads and faults, and a coherent expectation
// (clean XOR expected classes).
func TestCampaignsWellFormed(t *testing.T) {
	seen := map[string]bool{}
	for _, c := range nemesis.Campaigns() {
		if c.Name == "" {
			t.Fatalf("campaign with empty name: %+v", c)
		}
		if seen[c.Name] {
			t.Errorf("campaign %q appears twice", c.Name)
		}
		seen[c.Name] = true
		if _, ok := workload.Lookup(string(c.Workload)); !ok {
			t.Errorf("campaign %s: workload %q not registered", c.Name, c.Workload)
		}
		for _, f := range c.Faults {
			if _, ok := nemesis.LookupFault(f); !ok {
				t.Errorf("campaign %s: unknown fault %q", c.Name, f)
			}
		}
		hasExpect := len(c.Expect) > 0 || len(c.ExpectAny) > 0
		if c.ExpectClean == hasExpect {
			t.Errorf("campaign %s: want ExpectClean XOR expectations, got clean=%v expect=%v any=%v",
				c.Name, c.ExpectClean, c.Expect, c.ExpectAny)
		}
	}
	// The planted table must cover the classes the harness exists to
	// prove detectable.
	mustPlant := []anomaly.Class{
		anomaly.G1a, anomaly.GSingle, anomaly.LostUpdate,
		anomaly.TotalMismatch, anomaly.KAtomicViolation,
		anomaly.IncompatibleOrder, anomaly.CyclicVersionOrder,
	}
	planted := map[anomaly.Class]bool{}
	for _, c := range nemesis.Campaigns() {
		for _, cl := range c.Expect {
			planted[cl] = true
		}
	}
	for _, cl := range mustPlant {
		if !planted[cl] {
			t.Errorf("no campaign plants %s", cl)
		}
	}
}

// TestCampaignSoundness is the false-positive gate: every registered
// workload, running clean on a strict-serializable engine, must check
// clean — at three seeds, batch and stream, sequential and parallel.
func TestCampaignSoundness(t *testing.T) {
	for _, info := range workload.All() {
		c, ok := nemesis.Find("clean-" + string(info.Name))
		if !ok {
			t.Fatalf("workload %s has no clean campaign", info.Name)
		}
		for seed := int64(1); seed <= 3; seed++ {
			for _, m := range modes {
				t.Run(fmt.Sprintf("%s/seed%d/%s", c.Name, seed, m.name), func(t *testing.T) {
					v, err := nemesis.Run(c, nemesis.Config{
						Seed: seed, Txns: harnessTxns,
						Stream: m.stream, Parallelism: m.parallelism, MemoryBudget: m.memBudget,
					})
					if err != nil {
						t.Fatal(err)
					}
					if !v.Pass || len(v.Found) != 0 {
						t.Fatalf("false positive: %+v", v.Found)
					}
				})
			}
		}
	}
}

// TestCampaignCompleteness is the detection gate: each planted-bug
// campaign must surface its planted class and nothing outside its
// allowed co-signatures, at three seeds, in every checking mode.
func TestCampaignCompleteness(t *testing.T) {
	for _, c := range nemesis.Campaigns() {
		if strings.HasPrefix(c.Name, "clean-") {
			continue
		}
		for _, m := range modes {
			t.Run(c.Name+"/"+m.name, func(t *testing.T) {
				for seed := int64(1); seed <= 3; seed++ {
					v, err := nemesis.Run(c, nemesis.Config{
						Seed: seed, Txns: harnessTxns,
						Stream: m.stream, Parallelism: m.parallelism, MemoryBudget: m.memBudget,
					})
					if err != nil {
						t.Fatal(err)
					}
					if len(v.Missing) > 0 {
						t.Errorf("seed %d: planted classes missing: %v", seed, v.Missing)
					}
					if len(v.MissingAny) > 0 {
						t.Errorf("seed %d: none of the expected-any classes appeared: %v", seed, v.MissingAny)
					}
					if len(v.Unexpected) > 0 {
						t.Errorf("seed %d: unrelated classes appeared: %v (found %v)", seed, v.Unexpected, v.Found)
					}
					if !v.Pass {
						t.Errorf("seed %d: verdict failed: %+v", seed, v)
					}
				}
			})
		}
	}
}

// TestPaperSignatures holds the §7 campaigns to what the paper reports
// beyond their verdicts: every claimed model is refuted, YugaByte's G2
// cycles each need several anti-dependencies (§7.2), and Dgraph shows
// read skew (§7.4).
func TestPaperSignatures(t *testing.T) {
	for _, name := range []string{"tidb", "yugabyte", "fauna", "dgraph"} {
		c, ok := nemesis.Find(name)
		if !ok {
			t.Fatalf("campaign %q missing", name)
		}
		t.Run(name, func(t *testing.T) {
			for seed := int64(1); seed <= 3; seed++ {
				_, res, err := nemesis.Check(c, nemesis.Config{Seed: seed, Txns: harnessTxns})
				if err != nil {
					t.Fatal(err)
				}
				if res.Valid {
					t.Errorf("seed %d: the history passed its claimed %s", seed, c.Model)
				}
				gSingle := 0
				for _, a := range res.Anomalies {
					switch {
					case a.Type == anomaly.GSingle:
						gSingle++
					case name == "yugabyte" && a.Type == anomaly.G2Item:
						if rw := a.Cycle.CountVia(graph.RW); rw < 2 {
							t.Errorf("seed %d: G2-item witness with %d rw edges, want ≥ 2", seed, rw)
						}
					}
				}
				// Seed 3 shows no read skew at any size, so G-single is
				// only allowed in the campaign, not expected.
				if name == "dgraph" && seed < 3 && gSingle == 0 {
					t.Errorf("seed %d: no G-single (read skew)", seed)
				}
			}
		})
	}
}

// TestVerdictDeterminism: the same campaign at the same seed produces a
// byte-identical verdict JSON in every mode — stream vs batch,
// parallelism, and memory budget may not change a single byte beyond
// the mode flag itself.
func TestVerdictDeterminism(t *testing.T) {
	for _, name := range []string{"clean-list-append", "g1a", "k-atomicity", "clock-skew"} {
		c, ok := nemesis.Find(name)
		if !ok {
			t.Fatalf("campaign %q missing", name)
		}
		t.Run(name, func(t *testing.T) {
			encode := func(stream bool, p, budget int) []byte {
				v, err := nemesis.Run(c, nemesis.Config{
					Seed: 1, Txns: harnessTxns, Stream: stream, Parallelism: p,
					MemoryBudget: budget,
				})
				if err != nil {
					t.Fatal(err)
				}
				v.Stream = false // normalize the one field that names the mode
				b, err := json.Marshal(v)
				if err != nil {
					t.Fatal(err)
				}
				return b
			}
			base := encode(false, 1, 0)
			if again := encode(false, 1, 0); string(again) != string(base) {
				t.Fatalf("rerun differs:\n%s\n%s", base, again)
			}
			if p8 := encode(false, 8, 0); string(p8) != string(base) {
				t.Fatalf("parallelism changed the verdict:\n%s\n%s", base, p8)
			}
			if st := encode(true, 1, 0); string(st) != string(base) {
				t.Fatalf("stream changed the verdict:\n%s\n%s", base, st)
			}
			if bd := encode(true, 1, 64); string(bd) != string(base) {
				t.Fatalf("memory budget changed the verdict:\n%s\n%s", base, bd)
			}
		})
	}
}

// TestSeedChangesHistory: different seeds genuinely produce different
// runs (guards against a seed being ignored somewhere in the pipeline).
func TestSeedChangesHistory(t *testing.T) {
	c, _ := nemesis.Find("g1a")
	v1, err := nemesis.Run(c, nemesis.Config{Seed: 1, Txns: harnessTxns})
	if err != nil {
		t.Fatal(err)
	}
	v2, err := nemesis.Run(c, nemesis.Config{Seed: 2, Txns: harnessTxns})
	if err != nil {
		t.Fatal(err)
	}
	v1.Seed = v2.Seed
	if reflect.DeepEqual(v1, v2) {
		t.Fatal("seeds 1 and 2 produced identical verdicts")
	}
}

// TestVerdictMismatch: a campaign whose expectation cannot be met must
// fail with the missing class named — the verdict logic itself is under
// test, not just the happy path.
func TestVerdictMismatch(t *testing.T) {
	bogus := nemesis.Campaign{
		Name:      "bogus-expect",
		Workload:  workload.ListAppend,
		Isolation: memdb.StrictSerializable,
		Model:     consistency.StrictSerializable,
		Expect:    []anomaly.Class{anomaly.G1a},
	}
	v, err := nemesis.Run(bogus, nemesis.Config{Seed: 1, Txns: 200})
	if err != nil {
		t.Fatal(err)
	}
	if v.Pass {
		t.Fatal("clean run passed a campaign expecting G1a")
	}
	if len(v.Missing) != 1 || v.Missing[0] != anomaly.G1a {
		t.Fatalf("missing = %v, want [G1a]", v.Missing)
	}

	// And the inverse: a clean expectation over a faulty run fails with
	// the intruding classes named.
	dirty := nemesis.Campaign{
		Name:        "bogus-clean",
		Workload:    workload.ListAppend,
		Isolation:   memdb.ReadUncommitted,
		Model:       consistency.ReadCommitted,
		Faults:      []string{"abort"},
		ExpectClean: true,
	}
	v, err = nemesis.Run(dirty, nemesis.Config{Seed: 1, Txns: 200})
	if err != nil {
		t.Fatal(err)
	}
	if v.Pass || len(v.Unexpected) == 0 {
		t.Fatalf("faulty run passed a clean expectation: %+v", v)
	}
}

// TestUnknownFault: composing an unregistered fault is an error, not a
// silent no-op.
func TestUnknownFault(t *testing.T) {
	c := nemesis.Campaign{
		Name:        "bad-fault",
		Workload:    workload.ListAppend,
		Isolation:   memdb.StrictSerializable,
		Faults:      []string{"power-loss"},
		ExpectClean: true,
	}
	if _, err := nemesis.Run(c, nemesis.Config{Seed: 1, Txns: 100}); err == nil {
		t.Fatal("unknown fault accepted")
	}
	if _, err := nemesis.NewPlan([]string{"power-loss"}); err == nil {
		t.Fatal("NewPlan accepted an unknown fault")
	}
}

// TestFaultCatalogWellFormed: sorted, documented, no duplicates.
func TestFaultCatalogWellFormed(t *testing.T) {
	cat := nemesis.FaultCatalog()
	for i, f := range cat {
		if f.Name == "" || f.Doc == "" || f.Apply == nil {
			t.Errorf("fault %d incomplete: %+v", i, f)
		}
		if i > 0 && cat[i-1].Name >= f.Name {
			t.Errorf("catalog not sorted at %q", f.Name)
		}
		var p nemesis.Plan
		f.Apply(&p)
		if reflect.DeepEqual(p, nemesis.Plan{}) {
			t.Errorf("fault %q applies no change", f.Name)
		}
	}
}
