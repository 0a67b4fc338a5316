// Command ellegen generates a transaction history against the in-memory
// engine and writes it as JSON lines (or, with -format binary, as an
// ellebin stream — see docs/FORMATS.md), ready for `elle` to check. It
// is the recording half of the record/check pipeline: pick an isolation
// level and (optionally) a named fault campaign, and pipe the result
// into the checker.
//
//	ellegen -iso snapshot-isolation -faults tidb -txns 2000 | elle -model snapshot-isolation -
//
// Flags:
//
//	-workload KIND   any registered workload: list-append (default),
//	                 rw-register, set-add, counter, bank, or an alias
//	-iso LEVEL       read-uncommitted, read-committed, snapshot-isolation
//	                 (or si), serializable, strict-serializable (default)
//	-faults NAME     none (default); a nemesis campaign (tidb, yugabyte,
//	                 fauna, dgraph, … — see `ellecase -list`) for its
//	                 faults, or one catalog fault (stale-read, dup-delta,
//	                 …); aliases retry (tidb), nilreads (dgraph), stale
//	                 (stale-read), dup (dup-delta)
//	-clients N       concurrent client threads (default 10)
//	-txns N          transactions to run (default 1000)
//	-keys N          active keys (default 5)
//	-writes-per-key N  key retirement width (default 100)
//	-abort P         spontaneous abort probability (default: the faults')
//	-info P          lost-commit-ack probability (default: the faults')
//	-timestamps      expose engine timestamps in op times (default: the
//	                 faults')
//	-seed N          run seed (default 1)
//	-format FORMAT   output format: json (default) or binary (ellebin)
//	-o FILE          output path (default stdout)
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/binhist"
	"repro/internal/gen"
	"repro/internal/history"
	"repro/internal/jsonhist"
	"repro/internal/memdb"
	"repro/internal/nemesis"
	"repro/internal/workload"

	// Populate the workload registry so -workload resolves every
	// built-in analyzer.
	_ "repro/internal/workload/all"
)

// faultAliases are the short -faults names: two §7 campaigns named by
// the fault each plants, and two catalog faults.
var faultAliases = map[string]string{
	"retry": "tidb", "nilreads": "dgraph", "stale": "stale-read", "dup": "dup-delta",
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ellegen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workloadFlag := fs.String("workload", "list",
		"workload: "+workload.NameList()+" (or an alias)")
	iso := fs.String("iso", "strict-serializable", "engine isolation level")
	faults := fs.String("faults", "none", "none, a nemesis campaign (tidb, yugabyte, fauna, dgraph, …), a catalog fault, or an alias (retry, nilreads, stale, dup)")
	clients := fs.Int("clients", 10, "concurrent client threads")
	txns := fs.Int("txns", 1000, "transactions to run")
	keys := fs.Int("keys", 5, "active keys")
	width := fs.Int("writes-per-key", 100, "writes per key before retirement")
	abort := fs.Float64("abort", 0, "spontaneous abort probability")
	infoProb := fs.Float64("info", 0, "lost-commit-ack probability")
	timestamps := fs.Bool("timestamps", false, "expose engine timestamps in op times")
	seed := fs.Int64("seed", 1, "run seed")
	format := fs.String("format", "json", "output format: json or binary (ellebin)")
	out := fs.String("o", "", "output path (default stdout)")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	var encode func(io.Writer, *history.History) error
	switch *format {
	case "json", "jsonl":
		encode = jsonhist.Encode
	case "binary", "ellebin":
		encode = binhist.Encode
	default:
		fmt.Fprintf(stderr, "ellegen: unknown format %q (json or binary)\n", *format)
		return 2
	}

	info, ok := workload.Lookup(*workloadFlag)
	if !ok {
		fmt.Fprintf(stderr, "ellegen: unknown workload %q; choose from:\n", *workloadFlag)
		for _, name := range workload.Names() {
			fmt.Fprintf(stderr, "  %s\n", name)
		}
		return 2
	}

	level, ok := lookupIsolation(*iso)
	if !ok {
		fmt.Fprintf(stderr, "ellegen: unknown isolation %q; choose from:\n", *iso)
		for l := memdb.ReadUncommitted; l <= memdb.StrictSerializable; l++ {
			fmt.Fprintf(stderr, "  %s\n", l)
		}
		return 2
	}

	plan, err := faultPlan(*faults)
	if err != nil {
		fmt.Fprintf(stderr, "ellegen: %v\n", err)
		return 2
	}
	// An explicit client-side flag overrides what the faults set.
	fs.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "abort":
			plan.AbortProb = *abort
		case "info":
			plan.InfoProb = *infoProb
		case "timestamps":
			plan.Timestamps = *timestamps
		}
	})

	g := gen.New(gen.Config{
		Workload: info.Gen, ActiveKeys: *keys, MaxWritesPerKey: *width,
	}, *seed)
	rc := memdb.RunConfig{
		Clients: *clients, Txns: *txns, Isolation: level,
		Source: g, Seed: *seed, Workload: info.DB,
	}
	plan.Configure(&rc)
	h := memdb.Run(rc)

	w := stdout
	if *out != "" {
		file, err := os.Create(*out)
		if err != nil {
			fmt.Fprintf(stderr, "ellegen: %v\n", err)
			return 2
		}
		defer file.Close()
		w = file
	}
	if err := encode(w, h); err != nil {
		fmt.Fprintf(stderr, "ellegen: %v\n", err)
		return 2
	}
	fmt.Fprintf(stderr, "ellegen: wrote %d ops (%d transactions, %s, %s, faults=%s)\n",
		h.Len(), *txns, info.Name, level, *faults)
	return 0
}

// lookupIsolation resolves an engine level by its String name, or si.
func lookupIsolation(name string) (memdb.Isolation, bool) {
	if name == "si" {
		return memdb.SnapshotIsolation, true
	}
	for l := memdb.ReadUncommitted; l <= memdb.StrictSerializable; l++ {
		if l.String() == name {
			return l, true
		}
	}
	return 0, false
}

// faultPlan resolves -faults: none, a campaign's fault list, or one
// catalog fault, after aliases.
func faultPlan(name string) (nemesis.Plan, error) {
	if name == "none" || name == "" {
		return nemesis.Plan{}, nil
	}
	if full, ok := faultAliases[name]; ok {
		name = full
	}
	if c, ok := nemesis.Find(name); ok {
		return nemesis.NewPlan(c.Faults)
	}
	if _, ok := nemesis.LookupFault(name); ok {
		return nemesis.NewPlan([]string{name})
	}
	return nemesis.Plan{}, fmt.Errorf("unknown faults %q (none, a campaign from `ellecase -list`, a catalog fault, or an alias: retry, nilreads, stale, dup)", name)
}
