package core

import (
	"fmt"
	"testing"

	"repro/internal/consistency"
	"repro/internal/gen"
	"repro/internal/history"
	"repro/internal/memdb"
	"repro/internal/op"
	"repro/internal/workload"
)

// crashedHistory runs workload w against a strict-serializable engine
// and then drops the completion of every seventh committed transaction,
// as if its client crashed before hearing back: the invocation stays
// open, and the process's later ops move to a fresh process id, as a
// restarted Jepsen worker's would. Every dropped transaction did commit.
func crashedHistory(t *testing.T, info workload.Info, seed int64, txns int) *history.History {
	t.Helper()
	g := gen.New(gen.Config{Workload: info.Gen, ActiveKeys: 5, MaxWritesPerKey: 40}, seed)
	h := memdb.Run(memdb.RunConfig{
		Clients: 10, Txns: txns, Isolation: memdb.StrictSerializable,
		Source: g, Seed: seed, Workload: info.DB,
	})
	if h.Compact() {
		t.Fatalf("%s: the engine recorded a compact history; there are no invocations to strand", info.Name)
	}
	fresh := 0
	for _, o := range h.Ops {
		fresh = max(fresh, o.Process+1)
	}
	renamed := map[int]int{}
	committed, dropped := 0, 0
	var ops []op.Op
	for _, o := range h.Ops {
		orig := o.Process
		if p, ok := renamed[orig]; ok {
			o.Process = p
		}
		if o.Type == op.OK {
			if committed++; committed%7 == 0 {
				renamed[orig] = fresh
				fresh++
				dropped++
				continue
			}
		}
		ops = append(ops, o)
	}
	out, err := history.New(ops)
	if err != nil {
		t.Fatalf("%s: %v", info.Name, err)
	}
	if len(out.Crashed()) != dropped || dropped == 0 {
		t.Fatalf("%s: %d crashed invocations, want %d", info.Name, len(out.Crashed()), dropped)
	}
	return out
}

// TestCrashedClientsNeverConvict: whatever a crashed client attempted
// may have taken effect, so no workload may report an anomaly on a
// correct engine's history only because some completions are missing —
// in batch, in a stream, or in a stream under a memory budget.
func TestCrashedClientsNeverConvict(t *testing.T) {
	for _, info := range workload.All() {
		w := Workload(info.Name)
		t.Run(string(w), func(t *testing.T) {
			for seed := int64(1); seed <= 3; seed++ {
				h := crashedHistory(t, info, seed, 600)
				opts := OptsFor(w, consistency.StrictSerializable)
				check := func(how string, res *CheckResult, deltas []workload.Delta) {
					t.Helper()
					if len(res.Anomalies) != 0 {
						t.Fatalf("seed %d, %s: %s%s", seed, how, res.Summary(), res.Anomalies[0].Explanation)
					}
					for _, d := range deltas {
						if len(d.Anomalies) != 0 {
							t.Fatalf("seed %d, %s: provisional %s", seed, how, d.Anomalies[0])
						}
					}
				}
				check("batch", Check(h, opts), nil)
				res, deltas := streamCheck(t, h, opts, 100)
				check("stream", res, deltas)
				opts.MemoryBudget = 64
				res, deltas = streamCheck(t, h, opts, 100)
				check(fmt.Sprintf("stream with memory budget %d", opts.MemoryBudget), res, deltas)
			}
		})
	}
}
