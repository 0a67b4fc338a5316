// Command elleperf regenerates the paper's Figure 4: runtime versus
// history length for Elle and the Knossos-style baseline, across client
// concurrencies. It prints CSV (checker,ops,concurrency,seconds,outcome,
// anomalies) suitable for plotting, with progress on stderr.
//
// Usage:
//
//	elleperf [flags] > figure4.csv
//
// Flags:
//
//	-lengths 1000,2000,...    history lengths to sweep
//	-concurrencies 1,5,...    client counts to sweep
//	-cap 10s                  baseline search cap (paper: 100s)
//	-baseline-max-ops N       skip baseline beyond N ops (0 = no skip)
//	-seed N                   workload seed
//	-parallelism N            Elle worker count (0 = one per CPU,
//	                          1 = sequential)
//	-workload KIND            any registered workload (default
//	                          list-append; baseline runs only for
//	                          list-append)
//	-no-baseline              measure Elle only
//	-no-elle                  measure the baseline only
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/perf"
	"repro/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("elleperf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	lengths := fs.String("lengths", "1000,2000,5000,10000,20000,50000,100000",
		"comma-separated history lengths")
	concs := fs.String("concurrencies", "1,5,10,20,40,100",
		"comma-separated client counts")
	cap_ := fs.Duration("cap", 10*time.Second, "baseline search cap")
	maxOps := fs.Int("baseline-max-ops", 5000, "skip baseline beyond this many ops (0 = never skip)")
	seed := fs.Int64("seed", 1, "workload seed")
	parallelism := fs.Int("parallelism", 0,
		"Elle worker count per check (0 = one per CPU, 1 = sequential)")
	workloadFlag := fs.String("workload", "list",
		"workload: "+workload.NameList()+" (or an alias)")
	noBaseline := fs.Bool("no-baseline", false, "measure Elle only")
	noElle := fs.Bool("no-elle", false, "measure the baseline only")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	info, ok := workload.Lookup(*workloadFlag)
	if !ok {
		fmt.Fprintf(stderr, "elleperf: unknown workload %q; choose from:\n", *workloadFlag)
		for _, name := range workload.Names() {
			fmt.Fprintf(stderr, "  %s\n", name)
		}
		return 2
	}

	ls, err := parseInts(*lengths)
	if err != nil {
		fmt.Fprintf(stderr, "elleperf: -lengths: %v\n", err)
		return 2
	}
	cs, err := parseInts(*concs)
	if err != nil {
		fmt.Fprintf(stderr, "elleperf: -concurrencies: %v\n", err)
		return 2
	}

	cfg := perf.Config{
		Lengths:        ls,
		Concurrencies:  cs,
		BaselineCap:    *cap_,
		BaselineMaxOps: *maxOps,
		Seed:           *seed,
		Elle:           !*noElle,
		Baseline:       !*noBaseline,
		Parallelism:    *parallelism,
		Workload:       string(info.Name),
	}
	row, _ := perf.StartCSV(stdout)
	perf.Sweep(cfg, func(p perf.Point) {
		row(p)
		fmt.Fprintf(stderr, "done: %s n=%d c=%d in %.3fs (%s)\n",
			p.Checker, p.Ops, p.Concurrency, p.Seconds, p.Outcome)
	})
	return 0
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil {
			return nil, err
		}
		if n <= 0 {
			return nil, fmt.Errorf("values must be positive, got %d", n)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no values")
	}
	return out, nil
}
