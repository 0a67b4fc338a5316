// Command benchmark is the repo's end-to-end and per-layer benchmark.
//
// End to end it measures what a user runs, as child processes: `elle
// -json` on generated histories and `elled` fed over HTTP, timed from
// exec to exit with CPU and peak RSS from the child's rusage. A separate
// traced pass replays the same inputs in-process through the layers'
// public functions, one stage at a time, to say where the time goes.
// README.md defines the workloads, the metrics and how they interact.
//
//	bash benchmark/run.sh                       # all workloads, both passes
//	bash benchmark/run.sh -workload list-batch -trace 0 -seed 7 -seconds 28
//	bash benchmark/run.sh -quick                # ~2 000 txns, smoke scale
//	bash benchmark/run.sh -compare A.json B.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"syscall"
	"time"
)

const (
	schema         = "elle-benchmark/v1"
	defaultSeconds = 28
	// setupReps is how many times set-up runs; its median is setup_s, so
	// the first repetition's cold build cache does not decide the metric.
	setupReps = 7
	// minTimed is the fewest timed end-to-end iterations of a full-scale
	// run, whatever -seconds says; quick runs do exactly quickIters.
	minTimed   = 3
	quickIters = 2
	// minTraced is the fewest traced rounds.
	minTraced = 2
)

// options is one invocation's settings.
type options struct {
	root    string  // repository root (holds go.mod, cmd/elle, cmd/elled)
	out     string  // directory for result.json and trace-<workload>.json
	seed    int64   // input seed; the programs under test only see the files
	seconds float64 // measuring time per workload and pass
	trace   string  // "0" end-to-end pass only, "1" traced pass only, "" both
	quick   bool
	keep    bool
	only    string // comma-separated workload filter
	// defs replaces the workload table; the tests use it to corrupt a
	// known answer.
	defs   []*workloadDef
	stdout io.Writer
}

// runEnv is what every pass needs to start programs and write files.
type runEnv struct {
	root, tmp   string
	elle, elled string
	self        string // this executable, re-run as the launcher
	// procs is GOMAXPROCS of the programs under test and the number of
	// service shards, jobs and clients: every core but one, which is left
	// to the harness, so a run never has more busy threads than cores.
	procs int
	// par is the parallelism the traced pass compares p=1 against, in
	// process, with nothing else running: every core.
	par int
}

// state accumulates one workload's samples across both passes.
type state struct {
	def  *workloadDef
	in   *input
	want [][]byte // service-stream: `elle -json` on each job's history

	firstSHA string
	iters    []iteration // timed end-to-end iterations
	// smoke marks iters as a traced-only run's short service pass: good
	// for the client-side layer metrics, not an end-to-end sample.
	smoke            bool
	attempts, failed int
	failures         []string
	refused          float64

	genS, encS []float64
	rec        *recorder
	layers     []layerSample
	// Per traced round, from its three back-to-back in-process runs: the
	// traced root span over the untraced p=1 pipeline, minus 1, and the
	// untraced pipeline at p=1 over p=par. Pairing within a round keeps
	// the host's minute-scale speed drift out of the ratios.
	overhead, speedup []float64
}

// record counts attempts checks and the failures among them.
func (s *state) record(attempts int, msgs []string) {
	s.attempts += attempts
	s.failed += min(len(msgs), max(attempts, 1))
	for _, m := range msgs {
		if len(s.failures) < 20 {
			s.failures = append(s.failures, m)
		}
	}
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == launchFlag {
		os.Exit(launch(os.Args[2:]))
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := cli(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// cli parses args and runs; it returns the process exit code: 0 when
// every check passed, 1 on a wrong output or a regression found by
// -compare, 2 on usage or environment errors.
func cli(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	opt := options{root: "..", stdout: stdout} // the benchmark runs from its own directory
	fs.StringVar(&opt.out, "out", "", "directory for result.json and trace files (default ROOT/.bench_build/out)")
	fs.Int64Var(&opt.seed, "seed", 1, "input seed")
	fs.Float64Var(&opt.seconds, "seconds", defaultSeconds, "measuring time per workload and pass")
	fs.StringVar(&opt.trace, "trace", "", "0 = end-to-end pass only, 1 = traced pass only (default both)")
	fs.BoolVar(&opt.quick, "quick", false, "smoke scale: ~2 000 txns, 2 iterations; numbers are not comparable")
	fs.BoolVar(&opt.keep, "keep", false, "keep the temp dir (binaries, inputs, WALs)")
	fs.StringVar(&opt.only, "workload", "", "comma-separated workloads to run (default all)")
	compare := fs.Bool("compare", false, "compare two result files: -compare A.json B.json")
	manifest := fs.Bool("manifest", false, "print BENCHMARK.json and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch {
	case *manifest:
		stdout.Write(manifestJSON())
		return 0
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: benchmark -compare A.json B.json")
			return 2
		}
		return runCompare(fs.Arg(0), fs.Arg(1), stdout, stderr)
	case fs.NArg() != 0:
		fmt.Fprintf(stderr, "benchmark: unexpected argument %q\n", fs.Arg(0))
		return 2
	case opt.trace != "" && opt.trace != "0" && opt.trace != "1":
		fmt.Fprintln(stderr, "benchmark: -trace takes 0 or 1")
		return 2
	case opt.seconds <= 0:
		fmt.Fprintln(stderr, "benchmark: -seconds must be positive")
		return 2
	}
	res, err := run(ctx, opt)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 2
	}
	if !res.correct() {
		return 1
	}
	return 0
}

// selectWorkloads applies the -workload filter.
func selectWorkloads(defs []*workloadDef, only string) ([]*workloadDef, error) {
	if only == "" {
		return defs, nil
	}
	var out []*workloadDef
	for _, name := range strings.Split(only, ",") {
		i := slices.IndexFunc(defs, func(w *workloadDef) bool { return w.Name == name })
		if i < 0 {
			return nil, fmt.Errorf("unknown workload %q", name)
		}
		out = append(out, defs[i])
	}
	return out, nil
}

// run executes set-up and the selected passes, prints the tables and the
// contract lines, and writes result.json and the trace files.
func run(ctx context.Context, opt options) (*result, error) {
	defs := opt.defs
	if defs == nil {
		defs = workloads()
	}
	defs, err := selectWorkloads(defs, opt.only)
	if err != nil {
		return nil, err
	}
	root, err := filepath.Abs(opt.root)
	if err != nil {
		return nil, err
	}
	for _, need := range []string{"go.mod", "cmd/elle", "cmd/elled"} {
		if _, err := os.Stat(filepath.Join(root, need)); err != nil {
			return nil, fmt.Errorf("%s is not the repository root: %w", root, err)
		}
	}
	build := filepath.Join(root, ".bench_build")
	if opt.out == "" {
		opt.out = filepath.Join(build, "out")
	}
	for _, dir := range []string{build, opt.out} {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
	}
	tmp, err := os.MkdirTemp(build, "run-")
	if err != nil {
		return nil, err
	}
	if !opt.keep {
		defer os.RemoveAll(tmp)
	}
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	env := &runEnv{
		root: root, tmp: tmp, self: self,
		procs: max(min(runtime.NumCPU()-1, 4), 1), par: min(runtime.NumCPU(), 4),
		elle: filepath.Join(tmp, "bin", "elle"), elled: filepath.Join(tmp, "bin", "elled"),
	}

	started := time.Now()
	states := make([]*state, len(defs))
	for i, w := range defs {
		states[i] = &state{def: w, rec: newRecorder()}
	}
	reps := setupReps
	if opt.quick {
		reps = 1
	}
	var setupS []float64
	for rep := 0; rep < reps; rep++ {
		t := time.Now()
		if err := buildPrograms(ctx, env); err != nil {
			return nil, err
		}
		for _, s := range states {
			in, g, e, err := s.def.prepare(tmp, opt.seed, opt.quick, env.procs)
			if err != nil {
				return nil, err
			}
			s.in = in
			s.genS, s.encS = append(s.genS, g.Seconds()), append(s.encS, e.Seconds())
		}
		setupS = append(setupS, time.Since(t).Seconds())
	}

	budget := time.Duration(opt.seconds * float64(len(states)) * float64(time.Second))
	if opt.trace != "1" {
		if err := endToEndPass(ctx, env, states, budget, opt.quick, false); err != nil {
			return nil, err
		}
	} else if err := endToEndPass(ctx, env, states, 0, true, true); err != nil {
		// The traced pass's client-side layer metrics (chunk acks, refusals)
		// only exist on the service path, so only it runs, at smoke length.
		return nil, err
	}
	if opt.trace != "0" {
		if err := tracedPass(ctx, env, states, budget, opt.quick); err != nil {
			return nil, err
		}
		for _, s := range states {
			if err := s.rec.write(filepath.Join(opt.out, "trace-"+s.def.Name+".json"), s.def.Name); err != nil {
				return nil, err
			}
		}
	}

	res := &result{
		Schema: schema, Started: started.UTC().Format(time.RFC3339),
		Seed: opt.seed, NProc: runtime.NumCPU(), Procs: env.procs, Par: env.par,
		GoVersion: runtime.Version(), Commit: commit(root),
		Seconds: opt.seconds, Quick: opt.quick, Comparable: !opt.quick, Trace: opt.trace,
	}
	setup := summarize("s", setupS)
	for _, s := range states {
		res.Workloads = append(res.Workloads, s.result(env, setup))
	}
	res.print(opt.stdout)
	raw, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(opt.out, "result.json"), append(raw, '\n'), 0o644); err != nil {
		return nil, err
	}
	for i := range res.Workloads {
		fmt.Fprintln(opt.stdout, res.Workloads[i].contractLine(opt.trace))
	}
	return res, nil
}

// buildPrograms compiles the two programs under test into the temp dir.
func buildPrograms(ctx context.Context, env *runEnv) error {
	cmd := exec.CommandContext(ctx, "go", "build", "-o", filepath.Dir(env.elle)+string(filepath.Separator), "./cmd/elle", "./cmd/elled")
	cmd.Dir = env.root
	cmd.Env = childEnv()
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("go build: %w: %s", err, out)
	}
	return nil
}

// commit names the checked-out commit, when root is a git checkout.
func commit(root string) string {
	cmd := exec.Command("git", "-C", root, "rev-parse", "HEAD")
	// A checkout that is not a repository must not borrow a parent's commit.
	cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(root))
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// endToEndPass runs the programs under test as child processes: one
// discarded warm-up iteration per workload, then timed iterations round
// robin across workloads — iteration k of every workload before k+1 of
// any — so a noisy-neighbour burst costs each workload one sample rather
// than costing one workload its median. Timed rounds continue until
// budget is spent (fixed counts at quick scale). With serviceOnly set,
// batch workloads and the warm-up are skipped.
func endToEndPass(ctx context.Context, env *runEnv, states []*state, budget time.Duration, quick, serviceOnly bool) error {
	var active []*state
	for _, s := range states {
		if s.def.Service {
			for _, j := range s.in.Jobs {
				_, raw, err := runElle(ctx, env, s.def.ElleArgs, j.Path, filepath.Join(env.tmp, "want.json"))
				if err != nil {
					return err
				}
				var msgs []string
				if err := s.def.Expect.checkReport(raw); err != nil {
					msgs = append(msgs, fmt.Sprintf("elle -json on job history: %v", err))
				}
				s.record(1, msgs)
				s.want = append(s.want, raw)
			}
		}
		s.smoke = serviceOnly
		if s.def.Service || !serviceOnly {
			active = append(active, s)
		}
	}
	iterate := func(s *state) (iteration, error) {
		if s.def.Service {
			return serviceIteration(ctx, env, s.def, s.in, s.want)
		}
		return batchIteration(ctx, env, s.def, s.in, s.firstSHA)
	}
	var start time.Time
	var last time.Duration
	first := -1 // round -1 is the warm-up
	if serviceOnly {
		first = 0
	}
	for k := first; ; k++ {
		switch {
		case k <= 0:
		case quick && k >= quickIters:
			return nil
		case !quick && k >= minTimed && time.Since(start)+last/2 >= budget:
			return nil
		}
		if k == 0 {
			start = time.Now()
		}
		t := time.Now()
		for _, s := range active {
			it, err := iterate(s)
			if err != nil {
				return fmt.Errorf("%s: %w", s.def.Name, err)
			}
			s.record(it.Attempts, it.Failures)
			s.refused += it.Refused
			if s.firstSHA == "" {
				s.firstSHA = it.ReportSHA
			}
			if k >= 0 {
				s.iters = append(s.iters, it)
			}
		}
		last = time.Since(t)
	}
}

// tracedPass is the in-process pass behind the per-layer metrics. Each
// round runs, per workload, the staged replica under the span recorder,
// then the same pipeline untraced at p=1 and at p=par, and checks the
// three reports are byte-equal. Rounds continue while another fits in
// budget.
func tracedPass(ctx context.Context, env *runEnv, states []*state, budget time.Duration, quick bool) error {
	start := time.Now()
	var last time.Duration
	for k := 0; ; k++ {
		if k >= minTraced && (quick || time.Since(start)+last > budget) {
			return nil
		}
		t := time.Now()
		for _, s := range states {
			if err := ctx.Err(); err != nil {
				return err
			}
			s.rec.trace = fmt.Sprintf("%s/%d", s.def.Name, k)
			if err := s.tracedRound(env); err != nil {
				return err
			}
		}
		last = time.Since(t)
	}
}

// tracedRound is one workload's share of a traced round.
func (s *state) tracedRound(env *runEnv) error {
	w := s.def
	dir, err := os.MkdirTemp(env.tmp, "trace-wal-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	staged, bare := stagedBatch, untracedBatch
	if w.Service {
		staged, bare = stagedStream, untracedStream
	}
	untraced := func(p int) (time.Duration, [][]byte, error) {
		runtime.GC() // every run starts from the same heap
		return bare(w, s.in, dir, p)
	}
	runtime.GC()
	reps, m, err := staged(s.rec, w, s.in, dir, env.procs)
	if err != nil {
		return err
	}
	d1, reps1, err := untraced(1)
	if err != nil {
		return err
	}
	dP, repsP := d1, reps1
	if env.par > 1 {
		if dP, repsP, err = untraced(env.par); err != nil {
			return err
		}
	}

	var msgs []string
	for k := range reps {
		if err := w.Expect.checkReport(reps[k]); err != nil {
			msgs = append(msgs, fmt.Sprintf("traced replica, job %d: %v", k, err))
		}
		if !slices.Equal(reps[k], reps1[k]) {
			msgs = append(msgs, fmt.Sprintf("traced replica's report differs from core.Check's (job %d)", k))
		}
		if !slices.Equal(reps1[k], repsP[k]) {
			msgs = append(msgs, fmt.Sprintf("in-process report at p=%d differs from p=1 (job %d)", env.par, k))
		}
		if s.want != nil && !slices.Equal(reps[k], s.want[k]) {
			msgs = append(msgs, fmt.Sprintf("traced replica's report differs from `elle -json` (job %d)", k))
		}
	}
	s.record(1, msgs)
	s.layers = append(s.layers, m)
	s.overhead = append(s.overhead, m["core.pipeline_s"]/d1.Seconds()-1)
	s.speedup = append(s.speedup, d1.Seconds()/dP.Seconds())
	return nil
}
