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
//	-iso LEVEL       read-uncommitted, read-committed, snapshot-isolation,
//	                 serializable, strict-serializable (default)
//	-faults NAME     none (default), tidb, yugabyte, fauna, dgraph, retry,
//	                 stale, nilreads, dup
//	-clients N       concurrent client threads (default 10)
//	-txns N          transactions to run (default 1000)
//	-keys N          active keys (default 5)
//	-writes-per-key N  key retirement width (default 100)
//	-abort P         spontaneous abort probability (default 0)
//	-info P          lost-commit-ack probability (default 0)
//	-timestamps      expose engine timestamps in op times
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
	"repro/internal/casestudy"
	"repro/internal/gen"
	"repro/internal/history"
	"repro/internal/jsonhist"
	"repro/internal/memdb"
	"repro/internal/workload"

	// Populate the workload registry so -workload resolves every
	// built-in analyzer.
	_ "repro/internal/workload/all"
)

// faultAliases names the §7 case studies by the fault each plants; the
// case studies' own names resolve through casestudy.Find directly.
var faultAliases = map[string]string{"retry": "tidb", "nilreads": "dgraph"}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ellegen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workloadFlag := fs.String("workload", "list",
		"workload: "+workload.NameList()+" (or an alias)")
	iso := fs.String("iso", "strict-serializable", "engine isolation level")
	faults := fs.String("faults", "none", "fault campaign: none, tidb, yugabyte, fauna, dgraph, retry, stale, nilreads, dup")
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

	var level memdb.Isolation
	switch *iso {
	case "read-uncommitted":
		level = memdb.ReadUncommitted
	case "read-committed":
		level = memdb.ReadCommitted
	case "snapshot-isolation", "si":
		level = memdb.SnapshotIsolation
	case "serializable":
		level = memdb.Serializable
	case "strict-serializable":
		level = memdb.StrictSerializable
	default:
		fmt.Fprintf(stderr, "ellegen: unknown isolation %q\n", *iso)
		return 2
	}

	var f memdb.Faults
	switch *faults {
	case "none", "":
	case "stale":
		f = memdb.Faults{StaleReadProb: 0.3}
	case "dup":
		f = memdb.Faults{DuplicateAppendProb: 0.1}
	default:
		name := *faults
		if study, ok := faultAliases[name]; ok {
			name = study
		}
		s, ok := casestudy.Find(name)
		if !ok {
			fmt.Fprintf(stderr, "ellegen: unknown fault campaign %q\n", *faults)
			return 2
		}
		f = s.Faults
	}

	g := gen.New(gen.Config{
		Workload: info.Gen, ActiveKeys: *keys, MaxWritesPerKey: *width,
	}, *seed)
	h := memdb.Run(memdb.RunConfig{
		Clients: *clients, Txns: *txns, Isolation: level, Faults: f,
		Source: g, Seed: *seed, Workload: info.DB,
		AbortProb: *abort, InfoProb: *infoProb, ExposeTimestamps: *timestamps,
	})

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
