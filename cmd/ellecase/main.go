// Command ellecase runs fault campaigns against the in-memory database,
// checks the resulting histories with Elle, and reports whether each run
// matched its expected anomaly signature.
//
// It has two campaign tables:
//
//   - the paper's §7 case studies (-db): four database bug
//     reproductions, judged by the anomaly families the paper reports;
//   - the nemesis campaign table (-campaign): composable named faults
//     paired with every registered workload, judged by machine-checkable
//     verdicts — soundness campaigns must check clean, planted-bug
//     campaigns must surface their class and nothing unrelated.
//
// Both tables are derived from their packages (casestudy, nemesis) and
// the workload registry, so new scenarios, campaigns, faults, and
// workloads show up here with no CLI edits.
//
// Usage:
//
//	ellecase                       run every §7 case study
//	ellecase -db tidb              run one case study
//	ellecase -campaign all -json   run the nemesis table, JSON verdicts
//	ellecase -campaign k-atomicity -seed 7 -stream
//	ellecase -list                 list campaigns and faults
//
// Flags:
//
//	-db NAME       one case study (tidb, yugabyte, fauna, dgraph, …) or all
//	-campaign NAME one nemesis campaign, or all
//	-list          list nemesis campaigns and the fault catalog
//	-json          emit nemesis verdicts as JSON (deterministic per seed)
//	-stream        check through the incremental API instead of batch
//	-mem-budget N  cap the stream's resident completed ops (0 = unbounded;
//	               negative is a usage error); tiny budgets force
//	               retirement mid-campaign and must not change any
//	               verdict byte
//	-p N           checker parallelism (0 = one worker per CPU)
//	-clients N     concurrent client threads (default 10)
//	-txns N        transactions per campaign (default 2000)
//	-seed N        run seed (default 1)
//	-v             print every anomaly explanation (-db mode)
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

	"repro/internal/casestudy"
	"repro/internal/nemesis"
	"repro/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	names := casestudy.Names()
	fs := flag.NewFlagSet("ellecase", flag.ContinueOnError)
	fs.SetOutput(stderr)
	db := fs.String("db", "", "case study: "+strings.Join(names, ", ")+", or all")
	campaign := fs.String("campaign", "", "nemesis campaign: "+strings.Join(nemesis.Names(), ", ")+", or all")
	list := fs.Bool("list", false, "list nemesis campaigns and the fault catalog")
	jsonOut := fs.Bool("json", false, "emit nemesis verdicts as JSON")
	stream := fs.Bool("stream", false, "check through the incremental API")
	memBudget := fs.Int("mem-budget", 0, "stream resident completed-op cap (0 = unbounded)")
	par := fs.Int("p", 0, "checker parallelism (0 = one worker per CPU)")
	clients := fs.Int("clients", 10, "concurrent client threads")
	txns := fs.Int("txns", 2000, "transactions per campaign")
	seed := fs.Int64("seed", 1, "run seed")
	verbose := fs.Bool("v", false, "print every anomaly explanation")
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
	if *campaign != "" && *db != "" {
		fmt.Fprintln(stderr, "ellecase: -db and -campaign are mutually exclusive")
		return 2
	}
	if *campaign != "" {
		return runCampaigns(*campaign, nemesis.Config{
			Seed: *seed, Clients: *clients, Txns: *txns,
			Parallelism: *par, Stream: *stream, MemoryBudget: *memBudget,
		}, *jsonOut, stdout, stderr)
	}
	if *db == "" {
		*db = "all"
	}

	var scenarios []casestudy.Scenario
	if *db == "all" {
		scenarios = casestudy.Scenarios()
	} else {
		s, ok := casestudy.Find(*db)
		if !ok {
			fmt.Fprintf(stderr, "ellecase: unknown database %q (%s, all)\n",
				*db, strings.Join(names, ", "))
			return 2
		}
		scenarios = []casestudy.Scenario{s}
	}
	// Every scenario's analyzer must come from the live registry; a
	// scenario naming a workload nothing registered is a configuration
	// error worth a clear message, not a core panic.
	for _, s := range scenarios {
		if _, ok := workload.Lookup(string(s.Workload)); !ok {
			fmt.Fprintf(stderr, "ellecase: campaign %s needs workload %q, which is not registered (have: %s)\n",
				s.Name, s.Workload, workload.NameList())
			return 2
		}
	}

	cfg := casestudy.Config{Clients: *clients, Txns: *txns, Seed: *seed}
	allGood := true
	for _, s := range scenarios {
		r := casestudy.Run(s, cfg)
		fmt.Fprint(stdout, r.Report())
		if *verbose {
			for i, a := range r.Check.Anomalies {
				fmt.Fprintf(stdout, "\n--- anomaly %d: %s ---\n", i+1, a.Type)
				if a.Explanation != "" {
					fmt.Fprintln(stdout, a.Explanation)
				}
			}
		}
		fmt.Fprintln(stdout)
		if !r.Reproduced {
			allGood = false
		}
	}
	if !allGood {
		return 1
	}
	return 0
}

// runCampaigns executes nemesis campaigns and renders verdicts, either
// as a human-readable table or as a deterministic JSON array.
func runCampaigns(name string, cfg nemesis.Config, jsonOut bool, stdout, stderr io.Writer) int {
	var campaigns []nemesis.Campaign
	if name == "all" {
		campaigns = nemesis.Campaigns()
	} else {
		c, ok := nemesis.Find(name)
		if !ok {
			fmt.Fprintf(stderr, "ellecase: unknown campaign %q (%s, all)\n",
				name, strings.Join(nemesis.Names(), ", "))
			return 2
		}
		campaigns = []nemesis.Campaign{c}
	}

	verdicts := make([]*nemesis.Verdict, 0, len(campaigns))
	allGood := true
	for _, c := range campaigns {
		v, err := nemesis.Run(c, cfg)
		if err != nil {
			fmt.Fprintf(stderr, "ellecase: campaign %s: %v\n", c.Name, err)
			return 2
		}
		verdicts = append(verdicts, v)
		if !v.Pass {
			allGood = false
		}
	}

	if jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(verdicts); err != nil {
			fmt.Fprintf(stderr, "ellecase: %v\n", err)
			return 2
		}
	} else {
		for _, v := range verdicts {
			status := "PASS"
			if !v.Pass {
				status = "FAIL"
			}
			fmt.Fprintf(stdout, "%-4s %-24s seed=%d", status, v.Campaign, v.Seed)
			if len(v.Found) == 0 {
				fmt.Fprint(stdout, " clean")
			}
			for _, f := range v.Found {
				fmt.Fprintf(stdout, " %s×%d", f.Class, f.Count)
			}
			if len(v.Missing) > 0 {
				fmt.Fprintf(stdout, " MISSING=%v", v.Missing)
			}
			if len(v.MissingAny) > 0 {
				fmt.Fprintf(stdout, " MISSING-ANY=%v", v.MissingAny)
			}
			if len(v.Unexpected) > 0 {
				fmt.Fprintf(stdout, " UNEXPECTED=%v", v.Unexpected)
			}
			fmt.Fprintln(stdout)
		}
	}
	if !allGood {
		return 1
	}
	return 0
}
