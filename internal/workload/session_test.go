package workload_test

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/anomaly"
	"repro/internal/graph"
	"repro/internal/history"
	"repro/internal/op"
	"repro/internal/workload"
)

// fakeHooks records what the Session asks of a workload, and surfaces
// one keyed and one unkeyed finding per completion so the tests can see
// which of the two the Session deduplicates.
type fakeHooks struct {
	log      []string // "ingest <index>", "scan", "retire", "finish", "analyze"
	ingested []op.Op
	invokes  []int
}

func (f *fakeHooks) Ingest(o op.Op, invoke int, out *workload.Findings) {
	f.log = append(f.log, fmt.Sprintf("ingest %d", o.Index))
	f.ingested = append(f.ingested, o)
	f.invokes = append(f.invokes, invoke)
	out.Emit("once", anomaly.Anomaly{Type: anomaly.G1a, Key: "keyed"})
	out.Add(anomaly.Anomaly{Type: anomaly.Internal, Key: "unkeyed"})
}

func (f *fakeHooks) Scan(out *workload.Findings) {
	f.log = append(f.log, "scan")
	out.Emit("once", anomaly.Anomaly{Type: anomaly.G1a, Key: "keyed"})
}

func (f *fakeHooks) Retire(keys []history.KeyID) {
	f.log = append(f.log, "retire")
}

func (f *fakeHooks) Finish(*history.History, *graph.Graph) workload.Analysis {
	f.log = append(f.log, "finish")
	return workload.Analysis{}
}

func (f *fakeHooks) count(entry string) int {
	n := 0
	for _, l := range f.log {
		if l == entry {
			n++
		}
	}
	return n
}

// fakeInfo registers nothing: it is a workload.Info whose analyzer and
// hooks both log to f. withHooks false is the hookless case.
func fakeInfo(f *fakeHooks, withHooks bool) workload.Info {
	info := workload.Info{
		Name: "fake",
		Analyzer: workload.AnalyzerFunc(func(h *history.History, opts workload.Opts) workload.Analysis {
			f.log = append(f.log, "analyze")
			return workload.Analysis{}
		}),
	}
	if withHooks {
		info.Incremental = func(workload.Opts, *history.Interner, history.Lookup) workload.Hooks { return f }
	}
	return info
}

// pairedOps spells n transactions as invoke/completion pairs, each
// appending to a key of its own.
func pairedOps(n int) []op.Op {
	var ops []op.Op
	for i := 0; i < n; i++ {
		mops := []op.Mop{op.Append(fmt.Sprintf("k%d", i), 1)}
		ops = append(ops,
			op.Op{Index: 2 * i, Process: 0, Type: op.Invoke, Mops: mops},
			op.Op{Index: 2*i + 1, Process: 0, Type: op.OK, Mops: mops})
	}
	return ops
}

// TestSessionScanClock: the scan fires at the end of the feed that
// brings the completions since the last scan to ScanEvery, whatever the
// chunking; invokes neither count toward it nor reach the hooks, and
// each completion arrives with its invocation's index.
func TestSessionScanClock(t *testing.T) {
	ops := pairedOps(3*workload.ScanEvery + 10)
	for _, chunk := range []int{1, 7, 100, 2*workload.ScanEvery + 1, len(ops)} {
		f := &fakeHooks{}
		s := workload.BeginSession(fakeInfo(f, true), workload.Opts{})
		since, completions := 0, 0
		for rest := ops; len(rest) > 0; {
			n := min(chunk, len(rest))
			before := f.count("scan")
			d, err := s.Feed(rest[:n])
			if err != nil {
				t.Fatalf("chunk %d: feed: %v", chunk, err)
			}
			for _, o := range rest[:n] {
				if o.Type != op.Invoke {
					since++
					completions++
				}
			}
			want := 0
			if since >= workload.ScanEvery {
				want, since = 1, 0
			}
			if got := f.count("scan") - before; got != want {
				t.Fatalf("chunk %d: the feed ending at op %d scanned %d times, want %d", chunk, rest[n-1].Index, got, want)
			}
			if want == 1 && f.log[len(f.log)-1] != "scan" {
				t.Fatalf("chunk %d: the scan did not follow the feed's last ingest: %v", chunk, f.log[len(f.log)-3:])
			}
			if d.Ops != completions {
				t.Fatalf("chunk %d: Delta.Ops = %d after %d completions", chunk, d.Ops, completions)
			}
			rest = rest[n:]
		}
		if len(f.ingested) != len(ops)/2 {
			t.Fatalf("chunk %d: hooks saw %d ops, want the %d completions", chunk, len(f.ingested), len(ops)/2)
		}
		for i, o := range f.ingested {
			if o.Type == op.Invoke || f.invokes[i] != o.Index-1 {
				t.Fatalf("chunk %d: hooks saw %s with invoke index %d", chunk, o, f.invokes[i])
			}
		}
	}
}

// TestSessionEmittedSet: a finding emitted under one key surfaces once
// over the session's life, from Ingest or Scan alike; findings added
// without a key surface every time.
func TestSessionEmittedSet(t *testing.T) {
	f := &fakeHooks{}
	s := workload.BeginSession(fakeInfo(f, true), workload.Opts{})
	ops := pairedOps(workload.ScanEvery + 2)
	keyed := 0
	for i := 0; i < len(ops); i += 2 {
		d, err := s.Feed(ops[i : i+2])
		if err != nil {
			t.Fatal(err)
		}
		unkeyed := 0
		for _, a := range d.Anomalies {
			if a.Key == "keyed" {
				keyed++
			} else {
				unkeyed++
			}
		}
		if unkeyed != 1 {
			t.Fatalf("feed %d surfaced %d unkeyed findings, want its own one: %v", i/2, unkeyed, d.Anomalies)
		}
		if i == 0 && keyed != 1 {
			t.Fatalf("the first feed did not surface the keyed finding: %v", d.Anomalies)
		}
	}
	if keyed != 1 || f.count("scan") != 1 {
		t.Fatalf("the keyed finding surfaced %d times over %d ingests and %d scans", keyed, len(f.ingested), f.count("scan"))
	}
}

// TestSessionSweepsAfterScansUnderABudget: Retire runs only under a
// budget, only right after a Scan, and only when keys went quiescent; a
// budgeted session does not show its hooks a completion that touches no
// key.
func TestSessionSweepsAfterScansUnderABudget(t *testing.T) {
	ops := pairedOps(3 * workload.ScanEvery)
	keyless := len(ops) + 1
	ops = append(ops,
		op.Op{Index: keyless - 1, Process: 0, Type: op.Invoke},
		op.Op{Index: keyless, Process: 0, Type: op.OK})
	for _, budget := range []int{0, 16} {
		f := &fakeHooks{}
		s := workload.BeginSession(fakeInfo(f, true), workload.Opts{MemoryBudget: budget})
		for _, o := range ops {
			if _, err := s.Feed([]op.Op{o}); err != nil {
				t.Fatal(err)
			}
		}
		for i, l := range f.log {
			if l == "retire" && f.log[i-1] != "scan" {
				t.Fatalf("budget %d: retire followed %q, not a scan", budget, f.log[i-1])
			}
		}
		sawKeyless := f.count(fmt.Sprintf("ingest %d", keyless)) == 1
		st := s.RetireStats()
		if budget == 0 {
			if f.count("retire") != 0 || st.RetiredKeys != 0 || st.Stream.RetiredOps != 0 || !sawKeyless {
				t.Fatalf("unbudgeted: %d retires, stats %+v, keyless op ingested: %v", f.count("retire"), st, sawKeyless)
			}
			continue
		}
		// Every key is touched once, so each scan finds a window's worth
		// quiescent.
		if f.count("retire") != f.count("scan") || f.count("scan") != 3 {
			t.Fatalf("budget %d: %d scans, %d retires", budget, f.count("scan"), f.count("retire"))
		}
		if st.RetiredKeys == 0 || st.Stream.RetiredOps == 0 || sawKeyless {
			t.Fatalf("budget %d: stats %+v, keyless op ingested: %v", budget, st, sawKeyless)
		}
	}
}

// TestSessionRejectedOp: an op the stream refuses fails its Feed, every
// later Feed, and Finish; the hooks never see it, and neither they nor
// the analyzer are asked to finish.
func TestSessionRejectedOp(t *testing.T) {
	for _, withHooks := range []bool{true, false} {
		f := &fakeHooks{}
		s := workload.BeginSession(fakeInfo(f, withHooks), workload.Opts{})
		ok := op.Txn(4, 0, op.OK, op.Append("x", 1))
		bad := op.Txn(2, 1, op.OK, op.Append("x", 2)) // arrives out of index order
		if _, err := s.Feed([]op.Op{ok, bad, op.Txn(5, 0, op.OK, op.Append("x", 3))}); err == nil {
			t.Fatal("out-of-order feed accepted")
		}
		if _, err := s.Feed([]op.Op{op.Txn(6, 0, op.OK, op.Append("x", 4))}); err == nil {
			t.Fatal("feed after a rejected op accepted")
		}
		if _, err := s.Finish(); err == nil || errors.Is(err, workload.ErrSessionFinished) {
			t.Fatalf("Finish after a rejected op: %v", err)
		}
		want := []string{"ingest 4"}
		if !withHooks {
			want = nil
		}
		if !reflect.DeepEqual(f.log, want) {
			t.Fatalf("hooks=%v: log %v, want %v", withHooks, f.log, want)
		}
		if h := s.History(); len(h.Ops) != 1 || h.Ops[0].Index != 4 {
			t.Fatalf("the rejected op leaked into the history: %v", h.Ops)
		}
	}
}

// TestSessionFinishDecision: an unbudgeted session with hooks finishes
// through them; a budgeted or hookless one runs the batch analyzer and
// never the hooks' Finish. After Finish, Feed and Finish return
// ErrSessionFinished.
func TestSessionFinishDecision(t *testing.T) {
	cases := []struct {
		withHooks bool
		budget    int
		want      string
	}{
		{true, 0, "finish"},
		{true, 16, "analyze"},
		{false, 0, "analyze"},
		{false, 16, "analyze"},
	}
	for _, c := range cases {
		f := &fakeHooks{}
		s := workload.BeginSession(fakeInfo(f, c.withHooks), workload.Opts{MemoryBudget: c.budget})
		if _, err := s.Feed(pairedOps(40)); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Finish(); err != nil {
			t.Fatal(err)
		}
		if got := f.log[len(f.log)-1]; got != c.want || f.count("finish")+f.count("analyze") != 1 {
			t.Fatalf("hooks=%v budget=%d: finished by %q, want %q alone: %v", c.withHooks, c.budget, got, c.want, f.log)
		}
		if !c.withHooks && len(f.log) != 1 {
			t.Fatalf("hookless session touched hooks: %v", f.log)
		}
		if _, err := s.Feed(nil); !errors.Is(err, workload.ErrSessionFinished) {
			t.Fatalf("Feed after Finish: %v", err)
		}
		if _, err := s.Finish(); !errors.Is(err, workload.ErrSessionFinished) {
			t.Fatalf("Finish after Finish: %v", err)
		}
		if f.count("finish")+f.count("analyze") != 1 {
			t.Fatalf("the second Finish ran an analysis: %v", f.log)
		}
	}
}
