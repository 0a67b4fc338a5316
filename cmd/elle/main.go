// Command elle checks a transaction history for isolation anomalies,
// in the spirit of the paper's checker: it infers an Adya-style
// dependency graph from the observation, searches it for cycles,
// reports every anomaly with a human-readable explanation, and states
// which isolation models the history rules out.
//
// Histories come in two formats, auto-detected from the first byte
// (see docs/FORMATS.md): JSON lines, and ellebin — the compact binary
// format ellegen writes with -format binary. Every mode — batch,
// -follow, -convert — accepts either.
//
// Usage:
//
//	elle [flags] history.jsonl
//	... | elle [flags] -
//	elle -follow history.jsonl     # tail a growing history
//	elle -convert binary h.jsonl   # re-encode instead of checking
//
// Flags:
//
//	-workload KIND            any registered workload: list-append,
//	                          rw-register, set-add, counter, bank, or an
//	                          alias (list, register, set); default list
//	-model MODEL              expected consistency model
//	                          (default strict-serializable)
//	-parallelism N            worker count for decoding and checking
//	                          (default 0 = one per CPU; 1 = sequential)
//	-follow                   check incrementally while the input grows:
//	                          provisional anomalies print to stderr as
//	                          chunks prove them; the final report (on
//	                          stdout) is byte-identical to a batch run
//	                          over the completed file
//	-follow-idle DURATION     in -follow mode, treat a file quiet for
//	                          this long as complete (default 2s; stdin
//	                          instead streams until EOF)
//	-mem-budget N             in -follow mode, bound resident memory to
//	                          roughly the last N completions: settled
//	                          prefixes are retired into compact segments
//	                          and key caches for quiescent keys released,
//	                          letting elle follow histories larger than
//	                          RAM (0 = keep everything; the final report
//	                          is byte-identical either way). Negative, or
//	                          without -follow, is a usage error
//	-mem-spill DIR            with -mem-budget, spill retired segments to
//	                          an unlinked temporary file in DIR (created
//	                          if missing) instead of holding their
//	                          encoded bytes in memory; a usage error
//	                          without -mem-budget
//	-convert FORMAT           do not check: decode the input (either
//	                          format) and write it to stdout as FORMAT —
//	                          json or binary (-workload still selects
//	                          register-read decoding for JSON input)
//	-query PATTERN            after checking, evaluate a docs/QUERY.md
//	                          pattern query against the analysis and
//	                          print its rows instead of the report;
//	                          incompatible with -follow and -convert
//	-explain                  with -query, also print the checker's
//	                          explanation of every anomaly a result
//	                          variable binds (provenance)
//	-dot                      also print Graphviz DOT for each cycle witness
//	-q                        print only the verdict line
//	-json                     emit a machine-readable JSON report
//	-stats                    print history statistics
//
// Exit status: 0 if the history is consistent with the expected model
// (or, in -query mode, if the query evaluated), 1 if anomalies rule it
// out, 2 on usage or input errors — including malformed queries, which
// report the 1-based position of the fault — 3 if a
// followed history was truncated or rotated mid-run — the file shrank
// below what was already consumed, or (for ellebin input) the stream
// stopped framing correctly at the reader's offset, the signature of a
// rotation that regrew past it. Either way the report would have
// covered a history that is not the one on disk, so the run fails
// loudly instead. Exit status 4 means the checker itself panicked: elle
// prints "elle: internal error: <value>" and the stack to stderr, and
// drops whatever of the report it had not yet written.
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime/debug"
	"strings"
	"time"

	"repro/internal/binhist"
	"repro/internal/consistency"
	"repro/internal/core"
	"repro/internal/history"
	"repro/internal/jsonhist"
	"repro/internal/op"
	"repro/internal/report"
	"repro/internal/stats"
	"repro/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

// output bundles the rendering flags shared by the batch and follow
// paths.
type output struct {
	dot, quiet, jsonOut, showStats bool
	stdout, stderr                 io.Writer
}

func run(args []string, stdin io.Reader, stdout, stderr io.Writer) (code int) {
	// A checker panic is a bug, not a verdict or an input error: it gets
	// an exit status of its own, and what it left in the stdout buffer is
	// dropped rather than passed off as a report.
	defer func() {
		if v := recover(); v != nil {
			fmt.Fprintf(stderr, "elle: internal error: %v\n%s", v, debug.Stack())
			code = 4
		}
	}()
	// One buffer for all of stdout: a prose report is two writes per
	// anomaly. A failed write sticks in the buffer, so the final flush
	// sees it whichever mode wrote, and the exit status says so.
	out := bufio.NewWriter(stdout)
	code = runMode(args, stdin, out, stderr)
	if err := out.Flush(); err != nil && code != 2 {
		// Exit 2 has already printed its error, a failed write included.
		fmt.Fprintf(stderr, "elle: %v\n", err)
		return 2
	}
	return code
}

// runMode parses the flags and runs the mode they select, writing its
// results to stdout.
func runMode(args []string, stdin io.Reader, stdout *bufio.Writer, stderr io.Writer) int {
	fs := flag.NewFlagSet("elle", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workloadFlag := fs.String("workload", "list",
		"workload analyzer: "+workload.NameList()+" (or an alias)")
	model := fs.String("model", string(consistency.StrictSerializable),
		"expected consistency model")
	parallelism := fs.Int("parallelism", 0,
		"worker count for decoding and checking (0 = one per CPU, 1 = sequential)")
	follow := fs.Bool("follow", false,
		"check incrementally while the input grows; anomalies print to stderr as they become provable")
	followIdle := fs.Duration("follow-idle", 2*time.Second,
		"in -follow mode, treat a file quiet for this long as complete")
	memBudget := fs.Int("mem-budget", 0,
		"in -follow mode, keep roughly this many recent completions resident, retiring settled prefixes (0 = keep everything)")
	memSpill := fs.String("mem-spill", "",
		"with -mem-budget, spill retired segments to an unlinked temp file in this directory")
	convert := fs.String("convert", "",
		"do not check: re-encode the input to stdout as this format (json or binary)")
	query := fs.String("query", "",
		"evaluate a docs/QUERY.md pattern query against the analysis and print its rows")
	explainQ := fs.Bool("explain", false,
		"with -query, print the explanation of every anomaly a result variable binds")
	dot := fs.Bool("dot", false, "print Graphviz DOT for each cycle witness")
	quiet := fs.Bool("q", false, "print only the verdict line")
	jsonOut := fs.Bool("json", false, "emit a machine-readable JSON report instead of prose")
	showStats := fs.Bool("stats", false, "print history statistics before the verdict")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: elle [flags] history.jsonl (or - for stdin)")
		fs.PrintDefaults()
		return 2
	}

	info, ok := workload.Lookup(*workloadFlag)
	if !ok {
		fmt.Fprintf(stderr, "elle: unknown workload %q; choose from:\n", *workloadFlag)
		for _, name := range workload.Names() {
			fmt.Fprintf(stderr, "  %s\n", name)
		}
		return 2
	}
	w := core.Workload(info.Name)
	m := consistency.Model(*model)
	if !consistency.Known(m) {
		fmt.Fprintf(stderr, "elle: unknown model %q; choose from:\n", *model)
		for _, k := range consistency.All {
			fmt.Fprintf(stderr, "  %s\n", k)
		}
		return 2
	}

	switch *convert {
	case "", "json", "binary", "ellebin":
	default:
		fmt.Fprintf(stderr, "elle: unknown convert format %q (json or binary)\n", *convert)
		return 2
	}
	if *query != "" && (*follow || *convert != "") {
		fmt.Fprintln(stderr, "elle: -query is incompatible with -follow and -convert")
		return 2
	}
	if *explainQ && *query == "" {
		fmt.Fprintln(stderr, "elle: -explain requires -query")
		return 2
	}
	switch {
	case *memBudget < 0:
		fmt.Fprintf(stderr, "elle: -mem-budget must be >= 0, got %d\n", *memBudget)
		return 2
	case (*memBudget != 0 || *memSpill != "") && !*follow:
		fmt.Fprintln(stderr, "elle: -mem-budget and -mem-spill require -follow")
		return 2
	case *memSpill != "" && *memBudget == 0:
		fmt.Fprintln(stderr, "elle: -mem-spill requires -mem-budget")
		return 2
	}

	in := stdin
	fromFile := false
	if name := fs.Arg(0); name != "-" {
		f, err := os.Open(name)
		if err != nil {
			fmt.Fprintf(stderr, "elle: %v\n", err)
			return 2
		}
		defer f.Close()
		in = f
		fromFile = true
	}

	opts := core.OptsFor(w, m)
	opts.Parallelism = *parallelism
	opts.MemoryBudget = *memBudget
	opts.SpillDir = *memSpill
	if *memSpill != "" {
		// Create it up front: a missing directory would otherwise degrade
		// every spill to in-memory segments, defeating the point of the flag.
		if err := os.MkdirAll(*memSpill, 0o700); err != nil {
			fmt.Fprintf(stderr, "elle: -mem-spill: %v\n", err)
			return 2
		}
	}
	out := output{dot: *dot, quiet: *quiet, jsonOut: *jsonOut, showStats: *showStats,
		stdout: stdout, stderr: stderr}

	if *follow {
		return runFollow(in, fromFile, *followIdle, info, opts, out)
	}

	// One peeked byte picks the format: 0xEB can never begin JSON text,
	// and ellebin streams always begin with it. An empty input is a
	// valid (empty) history in either reading; the JSON path handles it.
	br := bufio.NewReader(in)
	head, perr := br.Peek(1)
	if perr != nil && !errors.Is(perr, io.EOF) {
		fmt.Fprintf(stderr, "elle: %v\n", perr)
		return 2
	}
	binary := len(head) > 0 && binhist.IsMagic(head)

	var h *history.History
	var err error
	if binary {
		h, err = binhist.Decode(br)
	} else {
		h, err = jsonhist.DecodeWith(br, jsonhist.DecodeOpts{
			Register:    info.RegisterReads,
			Parallelism: *parallelism,
		})
	}
	if err != nil {
		fmt.Fprintf(stderr, "elle: %v\n", err)
		return 2
	}
	if *convert != "" {
		return runConvert(h, *convert, stdout, stderr)
	}
	if *query != "" {
		return runQuery(core.Check(h, opts), h, *query, *explainQ, stdout, stderr)
	}
	return render(core.Check(h, opts), h, w, out)
}

// runQuery evaluates one docs/QUERY.md pattern against the finished
// check and prints its canonical tab-separated rows; with provenance
// enabled, the checker's explanation of each anomaly a result variable
// binds follows the rows.
func runQuery(res *core.CheckResult, h *history.History, q string, provenance bool, stdout, stderr io.Writer) int {
	r, err := res.Query(h, q)
	if err != nil {
		fmt.Fprintf(stderr, "elle: %v\n", err)
		return 2
	}
	if _, err := r.WriteTo(stdout); err != nil {
		fmt.Fprintf(stderr, "elle: %v\n", err)
		return 2
	}
	if provenance {
		cat := res.Relations(h)
		for _, id := range r.AnomalyIDs() {
			a, ok := cat.AnomalyAt(id)
			if !ok {
				continue
			}
			fmt.Fprintf(stdout, "\n# anomaly %d: %s\n", id, a.Type)
			if exp := a.Explanation; exp != "" {
				fmt.Fprint(stdout, exp)
				if !strings.HasSuffix(exp, "\n") {
					fmt.Fprintln(stdout)
				}
			}
		}
	}
	return 0
}

// runConvert writes the decoded history to stdout in the requested
// format — the re-encoding half of `elle -convert`.
func runConvert(h *history.History, format string, stdout, stderr io.Writer) int {
	var err error
	switch format {
	case "json":
		err = jsonhist.Encode(stdout, h)
	default: // "binary" / "ellebin", validated by run
		err = binhist.Encode(stdout, h)
	}
	if err != nil {
		fmt.Fprintf(stderr, "elle: %v\n", err)
		return 2
	}
	return 0
}

// runFollow tails the input through the streaming decoder and the
// incremental checker: each decoded chunk feeds the stream, provisional
// findings print to stderr the moment a chunk proves them, and once the
// source is complete the definitive report — byte-identical to a batch
// run over the finished file — renders on stdout. The format is peeked
// from the first byte, exactly as in batch mode; the peek itself tails,
// so following a file that does not have its first byte yet works.
func runFollow(in io.Reader, fromFile bool, idle time.Duration, info workload.Info, opts core.Opts, out output) int {
	// Either decoder knows whether the bytes delivered so far end inside
	// a record: a writer paused mid-line (or mid-ellebin-record) earns
	// the tail reader's extended grace.
	var dec interface {
		Next() ([]op.Op, error)
		Pending() int
	}
	src := in
	if fromFile {
		// A file hitting EOF may just not have been written yet; stdin's
		// EOF (pipe close) is already definitive.
		src = newTailReader(in, idle, func() bool { return dec != nil && dec.Pending() > 0 })
	}
	br := bufio.NewReader(src)
	head, perr := br.Peek(1)
	if perr != nil && !errors.Is(perr, io.EOF) {
		fmt.Fprintf(out.stderr, "elle: %v\n", perr)
		if errors.Is(perr, errTruncated) {
			return 3
		}
		return 2
	}
	if len(head) > 0 && binhist.IsMagic(head) {
		dec = binhist.NewStreamDecoder(br)
	} else {
		dec = jsonhist.NewStreamDecoder(br, jsonhist.DecodeOpts{
			Register:    info.RegisterReads,
			Parallelism: opts.Parallelism,
		})
	}
	st := core.CheckStream(opts)
	for {
		ops, err := dec.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			fmt.Fprintf(out.stderr, "elle: %v\n", err)
			if errors.Is(err, errTruncated) || errors.Is(err, binhist.ErrFraming) {
				// The file shrank under the reader — or, for ellebin, the
				// bytes at the reader's offset stopped being a well-formed
				// continuation of the stream: the signature of a rotation
				// that regrew past the consumed offset between size
				// checks. Either way the history on disk is not the one
				// being checked.
				return 3
			}
			return 2
		}
		d, err := st.Feed(ops)
		if err != nil {
			fmt.Fprintf(out.stderr, "elle: %v\n", err)
			return 2
		}
		for _, a := range d.Anomalies {
			fmt.Fprintf(out.stderr, "elle: provisional: %s\n", a)
		}
	}
	res, err := st.Finish()
	if err != nil {
		fmt.Fprintf(out.stderr, "elle: %v\n", err)
		return 2
	}
	fmt.Fprintf(out.stderr, "elle: stream complete: %d ops\n", st.Ops())
	if rs := st.RetireStats(); rs.Stream.RetiredOps > 0 {
		fmt.Fprintf(out.stderr,
			"elle: memory budget: %d ops resident, %d retired in %d segments (%d bytes encoded, %d spilled)\n",
			rs.Stream.ResidentOps, rs.Stream.RetiredOps, rs.Stream.Segments,
			rs.Stream.RetiredBytes, rs.Stream.SpilledBytes)
		if rs.Stream.Degraded != "" {
			fmt.Fprintf(out.stderr, "elle: memory budget degraded (segments held in memory): %s\n",
				rs.Stream.Degraded)
		}
	}
	return render(res, st.History(), core.Workload(info.Name), out)
}

// render writes the report — prose or JSON — and maps the verdict to
// the exit status. It is shared verbatim by the batch and follow paths,
// which is what makes `elle -follow`'s final stdout byte-identical to a
// batch run's.
func render(res *core.CheckResult, h *history.History, w core.Workload, out output) int {
	if out.jsonOut {
		if err := report.New(h, w, res).Write(out.stdout); err != nil {
			fmt.Fprintf(out.stderr, "elle: %v\n", err)
			return 2
		}
		if res.Valid {
			return 0
		}
		return 1
	}
	if out.showStats {
		fmt.Fprint(out.stdout, stats.Compute(h).String())
	}
	report.Prose(out.stdout, res, report.ProseOpts{Quiet: out.quiet, DOT: out.dot})
	if res.Valid {
		return 0
	}
	return 1
}
