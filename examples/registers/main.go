// Registers: find anomalies in a database that only offers read-write
// registers, the way the paper's Dgraph case study does (§7.4).
//
// Blind register writes destroy version history, so Elle infers partial
// version orders from the initial state, from writes-follow-reads within
// a transaction, and — because this database claims per-key
// linearizability — from the real-time order of operations. The engine
// here injects Dgraph's shard-migration bug: reads sometimes return nil
// for keys written long ago. Elle reports the resulting cyclic version
// orders (and discards them, to avoid trivial cycles), then finds genuine
// read skew among the survivors.
//
// Run with:
//
//	go run ./examples/registers
package main

import (
	"fmt"

	"repro/internal/consistency"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/memdb"
	"repro/internal/workload"
)

func main() {
	g := gen.New(gen.Config{
		Workload:        gen.Register,
		ActiveKeys:      5,
		MaxWritesPerKey: 40,
		MinOps:          1,
		MaxOps:          4,
	}, 11)
	h := memdb.Run(memdb.RunConfig{
		Clients:   10,
		Txns:      1500,
		Isolation: memdb.SnapshotIsolation,
		Faults:    memdb.Faults{NilReadProb: 0.08},
		Source:    g,
		Seed:      11,
		Workload:  memdb.WorkloadRegister,
	})

	// Dgraph claims per-key linearizability on top of SI, so real-time
	// and per-process version inference are sound against its claims.
	opts := core.Opts{Workload: core.Register, Model: consistency.SnapshotIsolation}
	opts.KeyConsistency = workload.LinearizableKeys
	res := core.Check(h, opts)

	fmt.Print(res.Summary())
	fmt.Println()

	// Group the findings the way §7.4 reports them.
	byType := map[string]int{}
	for _, a := range res.Anomalies {
		byType[string(a.Type)]++
	}
	fmt.Println("Findings:")
	for _, typ := range []string{"internal", "cyclic-version-order", "G-single", "G2-item"} {
		if n := byType[typ]; n > 0 {
			fmt.Printf("  %-22s × %d\n", typ, n)
		}
	}
	fmt.Println()

	// Show one worked example of each interesting family.
	shown := map[string]bool{}
	for _, a := range res.Anomalies {
		key := string(a.Type)
		if shown[key] {
			continue
		}
		shown[key] = true
		fmt.Printf("=== example %s ===\n", a.Type)
		fmt.Println(a.Explanation)
		fmt.Println()
	}
}
