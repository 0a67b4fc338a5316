package rwregister

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/anomaly"
	"repro/internal/graph"
	"repro/internal/op"
	"repro/internal/workload"
)

// Tests for the §5.2 sequential-keys rule: a single process's successive
// observations of one key order its versions, even without real-time
// information.

func TestSequentialKeysOrdersVersions(t *testing.T) {
	opts := workload.Opts{KeyConsistency: workload.SequentialKeys}
	// Process 7 wrote 1, then later (different txn) wrote 2; a reader
	// saw 2. Session order gives 1 <x 2 without wfr or realtime.
	a := analyze(t, opts,
		op.Txn(0, 7, op.OK, op.Write("x", 1)),
		op.Txn(1, 7, op.OK, op.Write("x", 2)),
		op.Txn(2, 3, op.OK, op.ReadReg("x", 2)),
	)
	if len(a.Anomalies) != 0 {
		t.Fatalf("anomalies: %v", a.Anomalies)
	}
	if !a.Graph.Label(0, 1).Has(graph.WW) {
		t.Error("sequential-keys should order same-process writes as ww")
	}
}

func TestSequentialKeysCrossProcessNoEdge(t *testing.T) {
	opts := workload.Opts{KeyConsistency: workload.SequentialKeys}
	a := analyze(t, opts,
		op.Txn(0, 1, op.OK, op.Write("x", 1)),
		op.Txn(1, 2, op.OK, op.Write("x", 2)),
	)
	if a.Graph.Label(0, 1) != 0 && a.Graph.Label(1, 0) != 0 {
		t.Error("sequential-keys must not order writes across processes")
	}
}

func TestSequentialKeysDetectsSessionRegression(t *testing.T) {
	// Process 5 read 2, then later read 1 — with the writers recoverable
	// and wfr linking 1 -> 2, the session edge 2 -> 1 closes a cyclic
	// version order.
	opts := workload.Opts{KeyConsistency: workload.SequentialKeys}
	a := analyze(t, opts,
		op.Txn(0, 0, op.OK, op.Write("x", 1)),
		op.Txn(1, 1, op.OK, op.ReadReg("x", 1), op.Write("x", 2)),
		op.Txn(2, 5, op.OK, op.ReadReg("x", 2)),
		op.Txn(3, 5, op.OK, op.ReadReg("x", 1)),
	)
	found := false
	for _, an := range a.Anomalies {
		if an.Type == anomaly.CyclicVersionOrder {
			found = true
		}
	}
	if !found {
		t.Fatalf("session regression not detected: %v", a.Anomalies)
	}
}

func TestSequentialKeysRespectsAbortedTxns(t *testing.T) {
	// A failed transaction contributes no session edges.
	opts := workload.Opts{KeyConsistency: workload.SequentialKeys}
	a := analyze(t, opts,
		op.Txn(0, 7, op.Fail, op.Write("x", 1)),
		op.Txn(1, 7, op.OK, op.Write("x", 2)),
	)
	if a.Graph.Label(0, 1) != 0 {
		t.Error("failed transaction seeded a session version edge")
	}
}

// TestReductionPreservesReachability: the transitive reduction used
// before edge explosion must keep exactly the original reachability.
func TestReductionPreservesReachability(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 60; trial++ {
		// Random DAG over n nodes: edges only from lower to higher ids,
		// in the pipeline's form (sorted, duplicate-free adjacency).
		n := 2 + rng.Intn(8)
		vg := make([][]int32, n)
		for e := 0; e < rng.Intn(20); e++ {
			a, b := rng.Intn(n), rng.Intn(n)
			if a < b && !slices.Contains(vg[a], int32(b)) {
				vg[a] = append(vg[a], int32(b))
				slices.Sort(vg[a])
			}
		}
		before := reachabilityMatrix(vg, n)
		cyc, post := cyclicWitness(vg)
		if cyc != nil || len(post) != n {
			t.Fatalf("trial %d: a DAG searched as cycle %v, postorder %v", trial, cyc, post)
		}
		reduce(vg, post)
		after := reachabilityMatrix(vg, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if before[i][j] != after[i][j] {
					t.Fatalf("trial %d: reduction changed reachability %d->%d", trial, i, j)
				}
			}
		}
		// And it must be minimal: removing any remaining edge changes
		// reachability.
		for u, outs := range vg {
			if !slices.IsSorted(outs) {
				t.Fatalf("trial %d: reduction left %d's successors unsorted: %v", trial, u, outs)
			}
			for i, v := range outs {
				vg[u] = slices.Delete(slices.Clone(outs), i, i+1)
				broken := !reachable(vg, int32(u), v)
				vg[u] = outs
				if !broken {
					t.Fatalf("trial %d: edge %d->%d survives but is redundant", trial, u, v)
				}
			}
		}
	}
}

func reachabilityMatrix(vg [][]int32, n int) [][]bool {
	m := make([][]bool, n)
	for i := 0; i < n; i++ {
		m[i] = make([]bool, n)
		stack := []int32{int32(i)}
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, v := range vg[u] {
				if !m[i][v] {
					m[i][v] = true
					stack = append(stack, v)
				}
			}
		}
	}
	return m
}

func reachable(vg [][]int32, from, to int32) bool {
	seen := map[int32]bool{from: true}
	stack := []int32{from}
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, v := range vg[u] {
			if v == to {
				return true
			}
			if !seen[v] {
				seen[v] = true
				stack = append(stack, v)
			}
		}
	}
	return false
}
