// Command ellecase runs fault campaigns against the in-memory database,
// checks the resulting histories with Elle, and reports whether each run
// matched its expected anomaly signature.
//
// The campaign table is the nemesis package's: composable named faults
// paired with every registered workload, ending with the paper's §7
// case studies (tidb, yugabyte, fauna, dgraph). Each is judged by a
// machine-checkable verdict — soundness campaigns must check clean,
// planted-bug campaigns must surface their classes and nothing outside
// the ones they allow. The table is derived from the nemesis package
// and the workload registry, so new campaigns, faults, and workloads
// show up here with no CLI edits.
//
// Usage:
//
//	ellecase                       run every campaign
//	ellecase -campaign tidb -v     one campaign, with every explanation
//	ellecase -campaign all -json   JSON verdicts
//	ellecase -campaign k-atomicity -seed 7 -stream
//	ellecase -list                 list campaigns and faults
//
// Flags:
//
//	-campaign NAME one campaign, or all (default)
//	-list          list campaigns and the fault catalog
//	-json          emit verdicts as JSON (deterministic per seed)
//	-stream        check through the incremental API instead of batch
//	-mem-budget N  cap the stream's resident completed ops (0 = unbounded;
//	               negative is a usage error); tiny budgets force
//	               retirement mid-campaign and must not change any
//	               verdict byte
//	-p N           checker parallelism (0 = one worker per CPU)
//	-clients N     concurrent client threads (default 10)
//	-txns N        transactions per campaign (default 2000)
//	-seed N        run seed (default 1)
//	-v             print every anomaly explanation (text mode)
//
// Exit status: 0 if every selected campaign matched, 1 otherwise, 2 on
// usage errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/nemesis"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ellecase", flag.ContinueOnError)
	fs.SetOutput(stderr)
	campaign := fs.String("campaign", "all", "campaign: "+strings.Join(nemesis.Names(), ", ")+", or all")
	list := fs.Bool("list", false, "list campaigns and the fault catalog")
	jsonOut := fs.Bool("json", false, "emit verdicts as JSON")
	stream := fs.Bool("stream", false, "check through the incremental API")
	memBudget := fs.Int("mem-budget", 0, "stream resident completed-op cap (0 = unbounded)")
	par := fs.Int("p", 0, "checker parallelism (0 = one worker per CPU)")
	clients := fs.Int("clients", 10, "concurrent client threads")
	txns := fs.Int("txns", 2000, "transactions per campaign")
	seed := fs.Int64("seed", 1, "run seed")
	verbose := fs.Bool("v", false, "print every anomaly explanation (text mode)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *memBudget < 0 {
		fmt.Fprintf(stderr, "ellecase: -mem-budget must be >= 0, got %d\n", *memBudget)
		return 2
	}

	if *list {
		fmt.Fprintln(stdout, "campaigns:")
		for _, c := range nemesis.Campaigns() {
			fmt.Fprintf(stdout, "  %-24s %s\n", c.Name, c.Doc)
		}
		fmt.Fprintln(stdout, "faults:")
		for _, f := range nemesis.FaultCatalog() {
			fmt.Fprintf(stdout, "  %-24s %s\n", f.Name, f.Doc)
		}
		return 0
	}

	campaigns := nemesis.Campaigns()
	if *campaign != "all" {
		c, ok := nemesis.Find(*campaign)
		if !ok {
			fmt.Fprintf(stderr, "ellecase: unknown campaign %q (%s, all)\n",
				*campaign, strings.Join(nemesis.Names(), ", "))
			return 2
		}
		campaigns = []nemesis.Campaign{c}
	}
	cfg := nemesis.Config{
		Seed: *seed, Clients: *clients, Txns: *txns,
		Parallelism: *par, Stream: *stream, MemoryBudget: *memBudget,
	}

	verdicts := make([]*nemesis.Verdict, 0, len(campaigns))
	allGood := true
	for _, c := range campaigns {
		_, res, err := nemesis.Check(c, cfg)
		if err != nil {
			fmt.Fprintf(stderr, "ellecase: campaign %s: %v\n", c.Name, err)
			return 2
		}
		v := nemesis.Evaluate(c, cfg, res)
		verdicts = append(verdicts, v)
		allGood = allGood && v.Pass
		if *jsonOut {
			continue
		}
		writeVerdict(stdout, v)
		if *verbose {
			for i, a := range res.Anomalies {
				fmt.Fprintf(stdout, "\n--- anomaly %d: %s ---\n", i+1, a.Type)
				if a.Explanation != "" {
					fmt.Fprintln(stdout, a.Explanation)
				}
			}
			fmt.Fprintln(stdout)
		}
	}

	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(verdicts); err != nil {
			fmt.Fprintf(stderr, "ellecase: %v\n", err)
			return 2
		}
	}
	if !allGood {
		return 1
	}
	return 0
}

// writeVerdict renders one verdict as a single text line.
func writeVerdict(w io.Writer, v *nemesis.Verdict) {
	status := "PASS"
	if !v.Pass {
		status = "FAIL"
	}
	fmt.Fprintf(w, "%-4s %-24s seed=%d", status, v.Campaign, v.Seed)
	if len(v.Found) == 0 {
		fmt.Fprint(w, " clean")
	}
	for _, f := range v.Found {
		fmt.Fprintf(w, " %s×%d", f.Class, f.Count)
	}
	if len(v.Missing) > 0 {
		fmt.Fprintf(w, " MISSING=%v", v.Missing)
	}
	if len(v.MissingAny) > 0 {
		fmt.Fprintf(w, " MISSING-ANY=%v", v.MissingAny)
	}
	if len(v.Unexpected) > 0 {
		fmt.Fprintf(w, " UNEXPECTED=%v", v.Unexpected)
	}
	fmt.Fprintln(w)
}
