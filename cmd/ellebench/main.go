// Command ellebench runs the checker's stable benchmark suite and
// emits a machine-readable BENCH_*.json (schema elle-bench/v1): ns/op,
// allocs/op, B/op, and MB/s per benchmark plus host metadata. The CI
// perf-regression gate runs it with -baseline against the committed
// BENCH_*.json and fails when any case's allocs/op or B/op grow past
// the threshold. ns/op is recorded and tabled but not gated: it moves
// with the machine and from run to run. The "Current numbers" table in
// docs/BENCHMARKS.md is refreshed from the same artifact.
//
// Usage:
//
//	ellebench [-runs N] [-bench substr] [-out BENCH.json]
//	          [-baseline BENCH_47.json] [-threshold 0.20] [-list]
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/bench"
)

func main() {
	runs := flag.Int("runs", 3, "times to run each benchmark (the fastest run is kept)")
	match := flag.String("bench", "", "run only benchmarks whose name contains this substring")
	out := flag.String("out", "", "write the JSON result to this file (default stdout)")
	baseline := flag.String("baseline", "", "compare against this committed BENCH_*.json and fail on regression")
	threshold := flag.Float64("threshold", 0.20, "allowed fractional growth in allocs/op or B/op before failing")
	list := flag.Bool("list", false, "list benchmark names and exit")
	flag.Parse()

	cases := bench.Cases()
	if *match != "" {
		var kept []bench.Case
		for _, c := range cases {
			if strings.Contains(c.Name, *match) {
				kept = append(kept, c)
			}
		}
		cases = kept
	}
	if *list {
		for _, c := range cases {
			fmt.Println(c.Name)
		}
		return
	}
	if len(cases) == 0 {
		fmt.Fprintln(os.Stderr, "ellebench: no benchmarks match")
		os.Exit(2)
	}
	if *runs < 1 {
		*runs = 1
	}

	res := bench.Run(cases, *runs, os.Stderr)

	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		if err := res.Encode(f); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
	} else if err := res.Encode(os.Stdout); err != nil {
		fatal(err)
	}

	if *baseline == "" {
		return
	}
	bf, err := os.Open(*baseline)
	if err != nil {
		fatal(err)
	}
	base, err := bench.DecodeResult(bf)
	bf.Close()
	if err != nil {
		fatal(err)
	}
	fmt.Fprintln(os.Stderr)
	fmt.Fprint(os.Stderr, bench.Table(base, res))
	regs, missing := bench.Compare(base, res, *threshold)
	for _, m := range missing {
		fmt.Fprintln(os.Stderr, "ellebench: note:", m)
	}
	if len(regs) > 0 {
		for _, r := range regs {
			fmt.Fprintln(os.Stderr, "ellebench: REGRESSION:", r)
		}
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "ellebench: no regression beyond %.0f%% against %s\n",
		*threshold*100, *baseline)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ellebench:", err)
	os.Exit(1)
}
