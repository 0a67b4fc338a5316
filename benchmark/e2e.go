package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/elleclient"
)

// childGrace is how long a child gets between SIGTERM and SIGKILL.
const childGrace = 10 * time.Second

// childEnv is the environment of every process the benchmark starts:
// the caller's, minus the Go settings that would make two commits run
// under different conditions, plus extra.
func childEnv(extra ...string) []string {
	var env []string
	for _, kv := range os.Environ() {
		switch name, _, _ := strings.Cut(kv, "="); name {
		case "GOFLAGS", "GOGC", "GOMEMLIMIT", "GOMAXPROCS":
		default:
			env = append(env, kv)
		}
	}
	return append(env, extra...)
}

// command builds a child that runs name under the launcher (see
// launch.go), is sent SIGTERM when ctx ends and SIGKILL childGrace later.
// The launcher leaves the program's usage in usagePath.
func command(ctx context.Context, env *runEnv, usagePath, name string, args ...string) *exec.Cmd {
	cmd := exec.CommandContext(ctx, env.self, append([]string{launchFlag, usagePath, name}, args...)...)
	cmd.Env = childEnv("GOMAXPROCS=" + strconv.Itoa(env.procs))
	cmd.Cancel = func() error { return cmd.Process.Signal(syscall.SIGTERM) }
	cmd.WaitDelay = childGrace
	return cmd
}

// usage is what the kernel accounted to a finished program under test.
type usage struct {
	Wall  float64 `json:"wall_s"`      // exec → exit
	CPU   float64 `json:"cpu_s"`       // user + system
	RSSMB float64 `json:"peak_rss_mb"` // peak resident set
	Exit  int     `json:"exit"`
}

// readUsage loads what the launcher wrote.
func readUsage(path string) (usage, error) {
	var u usage
	raw, err := os.ReadFile(path)
	if err == nil {
		err = json.Unmarshal(raw, &u)
	}
	if err != nil {
		return u, fmt.Errorf("launcher left no usage: %w", err)
	}
	return u, nil
}

// verdict is the part of a JSON report the known answers are about.
type verdict struct {
	Valid     bool `json:"valid"`
	Anomalies []struct {
		Type string `json:"type"`
	} `json:"anomalies"`
}

// checkReport parses a JSON report and compares it with the known answer.
func (e expect) checkReport(raw []byte) error {
	var v verdict
	if err := json.Unmarshal(raw, &v); err != nil {
		return fmt.Errorf("report is not JSON: %w", err)
	}
	types := map[string]bool{}
	for _, a := range v.Anomalies {
		types[a.Type] = true
	}
	return e.check(v.Valid, types)
}

func sha(raw []byte) string {
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:])
}

// iteration is one end-to-end run of a workload: a usage, the report
// hash, and what the service clients timed.
type iteration struct {
	usage
	ReportSHA   string
	ReportBytes int
	AckMS       []float64 // chunk POST → 200, every client
	FinishS     []float64 // last ack → full report, per client
	Attempts    int
	Failures    []string
	Refused     float64
}

// runElle executes `elle ARGS FILE` with stdout in outPath and returns
// its usage and report.
func runElle(ctx context.Context, env *runEnv, args []string, file, outPath string) (usage, []byte, error) {
	out, err := os.Create(outPath)
	if err != nil {
		return usage{}, nil, err
	}
	defer out.Close()
	var stderr bytes.Buffer
	usagePath := outPath + ".usage"
	cmd := command(ctx, env, usagePath, env.elle, append(append([]string(nil), args...), file)...)
	cmd.Stdout, cmd.Stderr = out, &stderr
	if err := cmd.Run(); err != nil {
		return usage{}, nil, fmt.Errorf("elle: %w: %s", err, stderr.String())
	}
	u, err := readUsage(usagePath)
	if err != nil {
		return usage{}, nil, err
	}
	raw, err := os.ReadFile(outPath)
	return u, raw, err
}

// batchIteration is one `elle` run checked against the known answer and,
// when first is set, against the first iteration's report hash.
func batchIteration(ctx context.Context, env *runEnv, w *workloadDef, in *input, first string) (iteration, error) {
	u, raw, err := runElle(ctx, env, w.ElleArgs, in.Jobs[0].Path, filepath.Join(env.tmp, w.Name+"-report.json"))
	if err != nil {
		return iteration{}, err
	}
	it := iteration{usage: u, ReportSHA: sha(raw), ReportBytes: len(raw), Attempts: 1}
	switch {
	case u.Exit != w.Expect.exitCode():
		it.Failures = append(it.Failures, fmt.Sprintf("exit code %d, want %d", u.Exit, w.Expect.exitCode()))
	case first == "":
		if err := w.Expect.checkReport(raw); err != nil {
			it.Failures = append(it.Failures, err.Error())
		}
	case it.ReportSHA != first:
		it.Failures = append(it.Failures, "report differs from the first iteration's")
	}
	return it, nil
}

var listeningRE = regexp.MustCompile(`listening on (\S+)`)

// serviceIteration starts elled with a synced WAL, drives one closed-loop
// client per job — create, feed every chunk, fetch the JSON report — and
// stops the server. want holds `elle -json`'s report for each job.
func serviceIteration(ctx context.Context, env *runEnv, w *workloadDef, in *input, want [][]byte) (iteration, error) {
	walDir, err := os.MkdirTemp(env.tmp, "wal-")
	if err != nil {
		return iteration{}, err
	}
	defer os.RemoveAll(walDir)

	usagePath := filepath.Join(walDir, "usage.json")
	cmd := command(ctx, env, usagePath, env.elled, "-addr", "127.0.0.1:0",
		"-shards", strconv.Itoa(env.procs), "-wal-dir", walDir, "-wal-sync", "always")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return iteration{}, err
	}
	if err := cmd.Start(); err != nil {
		return iteration{}, err
	}
	// Whatever happens below, the child is signalled, killed if it
	// lingers, and reaped before this function returns.
	var log bytes.Buffer
	stop := func() {
		cmd.Process.Signal(syscall.SIGTERM)
		kill := time.AfterFunc(childGrace, func() { cmd.Process.Kill() })
		io.Copy(&log, stderr)
		cmd.Wait()
		kill.Stop()
	}
	sc := bufio.NewScanner(stderr)
	var addr string
	for sc.Scan() {
		log.WriteString(sc.Text() + "\n")
		if m := listeningRE.FindStringSubmatch(sc.Text()); m != nil {
			addr = m[1]
			break
		}
	}
	if addr == "" {
		stop()
		return iteration{}, fmt.Errorf("elled never reported its address: %s", log.String())
	}

	it := iteration{}
	var mu sync.Mutex
	var wg sync.WaitGroup
	fail := func(format string, args ...any) {
		mu.Lock()
		it.Failures = append(it.Failures, fmt.Sprintf(format, args...))
		mu.Unlock()
	}
	var sum []byte
	t0 := time.Now()
	var done time.Time
	for k, j := range in.Jobs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := elleclient.New("http://" + addr)
			// One connection per client, closed with the iteration.
			tr := &http.Transport{}
			defer tr.CloseIdleConnections()
			c.HTTPClient = &http.Client{Transport: tr}
			acks := make([]float64, 0, len(j.Chunks))
			created, err := c.Create(ctx, elleclient.CreateRequest{Workload: string(w.Analyzer), Parallelism: 1})
			if err != nil {
				fail("job %d: create: %v", k, err)
				return
			}
			for n, chunk := range j.Chunks {
				t := time.Now()
				if _, err := c.Feed(ctx, created.ID, chunk); err != nil {
					fail("job %d: chunk %d: %v", k, n, err)
					return
				}
				acks = append(acks, float64(time.Since(t))/1e6)
			}
			lastAck := time.Now()
			raw, err := c.ReportJSON(ctx, created.ID)
			end := time.Now()
			if err != nil {
				fail("job %d: report: %v", k, err)
				return
			}
			if !bytes.Equal(raw, want[k]) {
				fail("job %d: report differs from `elle -json` on the same history", k)
			}
			mu.Lock()
			it.AckMS = append(it.AckMS, acks...)
			it.FinishS = append(it.FinishS, end.Sub(lastAck).Seconds())
			it.ReportBytes += len(raw)
			if k == 0 {
				sum = raw
			}
			if end.After(done) {
				done = end
			}
			mu.Unlock()
		}()
	}
	wg.Wait()
	it.Attempts = in.chunks() + len(in.Jobs)
	it.ReportSHA = sha(sum)
	if m, err := scrape("http://" + addr + "/metrics"); err != nil {
		fail("metrics: %v", err)
	} else {
		it.Refused = m["elled_refused_total"]
		if it.Refused > 0 {
			fail("elled refused %v requests", it.Refused)
		}
	}
	stop()
	if ctx.Err() != nil {
		return iteration{}, ctx.Err()
	}
	if it.usage, err = readUsage(usagePath); err != nil {
		return iteration{}, fmt.Errorf("%w: %s", err, log.String())
	}
	it.Wall = done.Sub(t0).Seconds() // first Create → last report byte
	if it.Exit != 0 {
		fail("elled exit code %d: %s", it.Exit, log.String())
	}
	return it, nil
}

// scrape fetches a Prometheus text page and sums each metric family's
// samples over its labels.
func scrape(url string) (map[string]float64, error) {
	tr := &http.Transport{DisableKeepAlives: true}
	resp, err := (&http.Client{Transport: tr}).Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		name, _, _ := strings.Cut(line[:i], "{")
		out[name] += v
	}
	return out, sc.Err()
}
