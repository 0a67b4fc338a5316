// Package nemesis is the fault-campaign engine: it composes named
// failure modes (fault.go) with any registered workload, runs the mix
// against the in-memory engine under a single seed, checks the observed
// history, and renders a machine-checkable verdict — which anomaly
// classes the campaign expected, which appeared, and whether that
// matches.
//
// The package exists to make the checker's two obligations executable
// as tests:
//
//   - soundness: a clean strict-serializable run must check clean for
//     every workload — no false positives, ever;
//   - completeness: a campaign that plants a bug must surface the
//     planted anomaly class, and nothing outside the classes that
//     fault legitimately produces.
//
// The table ends with the paper's §7 case studies — tidb, yugabyte,
// fauna, and dgraph — each an engine that claims a model and a planted
// bug that reproduces the real database's client-visible signature.
// Their verdicts are closed like every other campaign's: a class the
// run produces outside Expect ∪ Allow fails it.
//
// Campaigns are deterministic end to end: the same campaign at the same
// seed produces the same history, the same anomalies, and a
// byte-identical verdict JSON, at every parallelism, batch or stream.
package nemesis

import (
	"fmt"
	"sort"

	"repro/internal/anomaly"
	"repro/internal/consistency"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/history"
	"repro/internal/memdb"
	"repro/internal/workload"
)

// Campaign pairs a workload with a set of named faults and the anomaly
// classes the combination is expected to produce.
type Campaign struct {
	// Name identifies the campaign on the CLI and in verdicts.
	Name string
	// Doc is a one-line description of what the campaign plants.
	Doc string
	// Workload selects the registered analyzer (and its generator and
	// engine semantics).
	Workload workload.Name
	// Isolation is the engine's concurrency control for the run.
	Isolation memdb.Isolation
	// Model is the consistency model the check asserts (for the §7
	// campaigns, the model the real database claimed); empty means
	// strict-serializable.
	Model consistency.Model
	// Faults names the composed failure modes (see FaultCatalog).
	Faults []string
	// Expect lists anomaly classes that must all appear.
	Expect []anomaly.Class
	// ExpectAny lists classes of which at least one must appear (used
	// where the exact cycle flavor depends on scheduling).
	ExpectAny []anomaly.Class
	// Allow lists additional classes the faults legitimately produce;
	// anything found outside Expect ∪ ExpectAny ∪ Allow fails the run.
	Allow []anomaly.Class
	// ExpectClean asserts the run checks completely clean; it is
	// mutually exclusive with Expect/ExpectAny.
	ExpectClean bool
	// NoReadAfterWrite shapes the workload so transactions never read a
	// key they already wrote.
	NoReadAfterWrite bool
	// KeyConsistency is a per-key claim the engine makes beyond its
	// Model: the paper's TiDB lost-update reports use real-time
	// knowledge (§7.1), and Dgraph claimed per-key linearizability
	// (§7.4). The check raises it to what Model implies.
	KeyConsistency workload.KeyConsistency
	// Clients and Txns override the run size; 0 means the Config's.
	Clients, Txns int
}

// Config sizes and shapes a campaign run.
type Config struct {
	// Seed drives the entire run; same seed, same verdict.
	Seed int64
	// Clients and Txns size the run (defaults 10 and 1000).
	Clients, Txns int
	// Parallelism caps the checker's worker pools; results are
	// byte-identical at every setting.
	Parallelism int
	// Stream checks the history through the incremental API in chunks
	// instead of one batch call. The verdict must not change.
	Stream bool
	// MemoryBudget caps the stream session's resident completed ops; a
	// tiny budget forces settled prefixes to retire mid-campaign. Like
	// Parallelism it is checker mechanics, not campaign shape: verdicts
	// are byte-identical at every setting, so it is deliberately absent
	// from the Verdict. Ignored in batch mode.
	MemoryBudget int
}

// streamChunk is the feed size Stream mode uses.
const streamChunk = 64

// FoundClass is one observed anomaly class and its count.
type FoundClass struct {
	Class anomaly.Class `json:"class"`
	Count int           `json:"count"`
}

// Verdict is a campaign run's machine-checkable outcome. All slices are
// sorted, so encoding a Verdict is deterministic.
type Verdict struct {
	Campaign    string          `json:"campaign"`
	Workload    string          `json:"workload"`
	Isolation   string          `json:"isolation"`
	Model       string          `json:"model"`
	Faults      []string        `json:"faults"`
	Seed        int64           `json:"seed"`
	Clients     int             `json:"clients"`
	Txns        int             `json:"txns"`
	Stream      bool            `json:"stream"`
	ExpectClean bool            `json:"expect_clean,omitempty"`
	Expect      []anomaly.Class `json:"expect,omitempty"`
	ExpectAny   []anomaly.Class `json:"expect_any,omitempty"`
	Allow       []anomaly.Class `json:"allow,omitempty"`
	// Found is every observed anomaly class with its count, sorted.
	Found []FoundClass `json:"found"`
	// Missing lists Expect classes that did not appear; MissingAny is
	// set when ExpectAny is non-empty and none of its classes appeared.
	Missing    []anomaly.Class `json:"missing,omitempty"`
	MissingAny []anomaly.Class `json:"missing_any,omitempty"`
	// Unexpected lists found classes outside Expect ∪ ExpectAny ∪ Allow
	// (for ExpectClean campaigns: everything found).
	Unexpected []anomaly.Class `json:"unexpected,omitempty"`
	Pass       bool            `json:"pass"`
}

// Run executes one campaign under one seed and evaluates its verdict.
func Run(c Campaign, cfg Config) (*Verdict, error) {
	_, res, err := Check(c, cfg)
	if err != nil {
		return nil, err
	}
	return Evaluate(c, cfg, res), nil
}

// Evaluate judges a campaign's check result against its expectation.
func Evaluate(c Campaign, cfg Config, res *core.CheckResult) *Verdict {
	model, clients, txns := c.shape(cfg)
	v := &Verdict{
		Campaign:    c.Name,
		Workload:    string(c.Workload),
		Isolation:   c.Isolation.String(),
		Model:       string(model),
		Faults:      append([]string{}, c.Faults...),
		Seed:        cfg.Seed,
		Clients:     clients,
		Txns:        txns,
		Stream:      cfg.Stream,
		ExpectClean: c.ExpectClean,
		Expect:      sortedClasses(c.Expect),
		ExpectAny:   sortedClasses(c.ExpectAny),
		Allow:       sortedClasses(c.Allow),
	}
	sort.Strings(v.Faults)

	counts := map[anomaly.Class]int{}
	for _, a := range res.Anomalies {
		counts[a.Type]++
	}
	for class, n := range counts {
		v.Found = append(v.Found, FoundClass{Class: class, Count: n})
	}
	sort.Slice(v.Found, func(i, j int) bool { return v.Found[i].Class < v.Found[j].Class })

	if c.ExpectClean {
		for _, f := range v.Found {
			v.Unexpected = append(v.Unexpected, f.Class)
		}
		v.Pass = len(v.Found) == 0
		return v
	}

	allowed := map[anomaly.Class]bool{}
	for _, cl := range c.Expect {
		allowed[cl] = true
	}
	for _, cl := range c.ExpectAny {
		allowed[cl] = true
	}
	for _, cl := range c.Allow {
		allowed[cl] = true
	}
	for _, cl := range v.Expect {
		if counts[cl] == 0 {
			v.Missing = append(v.Missing, cl)
		}
	}
	if len(c.ExpectAny) > 0 {
		anyFound := false
		for _, cl := range c.ExpectAny {
			if counts[cl] > 0 {
				anyFound = true
			}
		}
		if !anyFound {
			v.MissingAny = v.ExpectAny
		}
	}
	for _, f := range v.Found {
		if !allowed[f.Class] {
			v.Unexpected = append(v.Unexpected, f.Class)
		}
	}
	v.Pass = len(v.Missing) == 0 && len(v.MissingAny) == 0 && len(v.Unexpected) == 0
	return v
}

// shape resolves the campaign's model and run size against cfg's
// defaults.
func (c Campaign) shape(cfg Config) (model consistency.Model, clients, txns int) {
	model = c.Model
	if model == "" {
		model = consistency.StrictSerializable
	}
	clients = cfg.Clients
	if c.Clients > 0 {
		clients = c.Clients
	}
	if clients <= 0 {
		clients = 10
	}
	txns = cfg.Txns
	if c.Txns > 0 {
		txns = c.Txns
	}
	if txns <= 0 {
		txns = 1000
	}
	return model, clients, txns
}

// Check runs the campaign's engine under cfg and checks the history it
// recorded, returning both: the input Run's verdict is evaluated from,
// and what a report of the run renders.
func Check(c Campaign, cfg Config) (*history.History, *core.CheckResult, error) {
	h, plan, err := c.record(cfg)
	if err != nil {
		return nil, nil, err
	}
	model, _, _ := c.shape(cfg)
	opts := core.Opts{
		Workload: c.Workload, Model: model, TimestampEdges: plan.Timestamps,
		Opts: workload.Opts{
			KeyConsistency: c.KeyConsistency,
			Parallelism:    cfg.Parallelism,
			MemoryBudget:   cfg.MemoryBudget,
		},
	}

	var res *core.CheckResult
	if cfg.Stream {
		s := core.CheckStream(opts)
		ops := h.Ops
		for len(ops) > 0 {
			n := streamChunk
			if n > len(ops) {
				n = len(ops)
			}
			if _, err := s.Feed(ops[:n]); err != nil {
				return nil, nil, fmt.Errorf("nemesis: stream feed: %w", err)
			}
			ops = ops[n:]
		}
		res, err = s.Finish()
		if err != nil {
			return nil, nil, fmt.Errorf("nemesis: stream finish: %w", err)
		}
	} else {
		res = core.Check(h, opts)
	}

	return h, res, nil
}

// Generate runs the campaign's engine under cfg and returns the history
// it recorded, unchecked: the history Check would check.
func Generate(c Campaign, cfg Config) (*history.History, error) {
	h, _, err := c.record(cfg)
	return h, err
}

// record runs the campaign's engine under cfg, returning the history
// and the fault plan it ran under.
func (c Campaign) record(cfg Config) (*history.History, Plan, error) {
	info, ok := workload.Lookup(string(c.Workload))
	if !ok {
		return nil, Plan{}, fmt.Errorf("nemesis: workload %q not registered (registered: %s)",
			c.Workload, workload.NameList())
	}
	plan, err := NewPlan(c.Faults)
	if err != nil {
		return nil, Plan{}, err
	}
	_, clients, txns := c.shape(cfg)
	g := gen.New(gen.Config{
		Workload: info.Gen, ActiveKeys: 5, MaxWritesPerKey: 60, MinOps: 1, MaxOps: 5,
		NoReadAfterWrite: c.NoReadAfterWrite,
	}, cfg.Seed)
	rc := memdb.RunConfig{
		Clients: clients, Txns: txns, Isolation: c.Isolation,
		Source: g, Seed: cfg.Seed, Workload: info.DB,
	}
	plan.Configure(&rc)
	return memdb.Run(rc), plan, nil
}

func sortedClasses(in []anomaly.Class) []anomaly.Class {
	if len(in) == 0 {
		return nil
	}
	out := append([]anomaly.Class{}, in...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Campaigns returns the full campaign table: one clean soundness
// campaign per registered workload, then the planted-bug completeness
// campaigns, then the paper's §7 case studies. The table is the
// executable statement of what the checker must and must not report;
// TestCampaignSoundness and TestCampaignCompleteness run it across
// seeds, parallelism, and batch/stream modes, and the CI campaign-smoke
// job runs it through the ellecase binary.
func Campaigns() []Campaign {
	var out []Campaign
	// Soundness: a clean strict-serializable engine must check clean
	// under every registered workload — the checker never invents an
	// anomaly.
	for _, info := range workload.All() {
		out = append(out, Campaign{
			Name:        "clean-" + string(info.Name),
			Doc:         fmt.Sprintf("clean strict-serializable run of the %s workload; any finding is a false positive", info.Name),
			Workload:    info.Name,
			Isolation:   memdb.StrictSerializable,
			Model:       consistency.StrictSerializable,
			ExpectClean: true,
		})
	}
	// Completeness: planted bugs whose classes must surface.
	out = append(out,
		Campaign{
			Name:      "g1a",
			Doc:       "aborted writes stay visible (no rollback): aborted reads",
			Workload:  workload.ListAppend,
			Isolation: memdb.ReadUncommitted,
			Model:     consistency.ReadCommitted,
			Faults:    []string{"abort"},
			Expect:    []anomaly.Class{anomaly.G1a},
			Allow: []anomaly.Class{
				anomaly.DirtyUpdate, anomaly.G1b, anomaly.G1c, anomaly.G0,
				anomaly.GSingle, anomaly.G2Item, anomaly.LostUpdate,
				anomaly.Internal,
			},
		},
		Campaign{
			Name:      "g-single",
			Doc:       "stale read snapshots under SI: read skew",
			Workload:  workload.ListAppend,
			Isolation: memdb.SnapshotIsolation,
			Model:     consistency.SnapshotIsolation,
			Faults:    []string{"stale-read"},
			Expect:    []anomaly.Class{anomaly.GSingle},
			// A transaction that reads, appends, and re-reads a key sees
			// its stale pin diverge from the true write base: internal.
			Allow: []anomaly.Class{anomaly.G2Item, anomaly.G1c, anomaly.Internal},
		},
		Campaign{
			Name:             "lost-update",
			Doc:              "commits silently drop one key's delta: committed appends vanish",
			Workload:         workload.ListAppend,
			Isolation:        memdb.StrictSerializable,
			Model:            consistency.StrictSerializable,
			Faults:           []string{"drop-delta"},
			NoReadAfterWrite: true,
			Expect:           []anomaly.Class{anomaly.LostUpdate},
			Allow: []anomaly.Class{
				anomaly.GSingleRealtime, anomaly.G2ItemRealtime,
				anomaly.GSingleProcess, anomaly.G2ItemProcess,
				anomaly.GSingle, anomaly.G2Item,
			},
		},
		Campaign{
			Name:      "total-mismatch",
			Doc:       "stale read snapshots under a bank workload: money appears or vanishes",
			Workload:  workload.Bank,
			Isolation: memdb.SnapshotIsolation,
			Model:     consistency.SnapshotIsolation,
			Faults:    []string{"stale-read"},
			Expect:    []anomaly.Class{anomaly.TotalMismatch},
			Allow: []anomaly.Class{
				anomaly.GSingle, anomaly.G2Item, anomaly.G1c,
				anomaly.NegativeBalance, anomaly.Internal, anomaly.CyclicVersionOrder,
			},
		},
		Campaign{
			Name:      "k-atomicity",
			Doc:       "stale register reads violate single-object atomicity in real time",
			Workload:  workload.KAtomic,
			Isolation: memdb.Serializable,
			Model:     consistency.StrictSerializable,
			Faults:    []string{"stale-read"},
			Expect:    []anomaly.Class{anomaly.KAtomicViolation},
		},
		Campaign{
			Name:      "dup-delta",
			Doc:       "storage-level append retries: duplicate list elements",
			Workload:  workload.ListAppend,
			Isolation: memdb.StrictSerializable,
			Model:     consistency.StrictSerializable,
			Faults:    []string{"dup-delta"},
			Expect:    []anomaly.Class{anomaly.DuplicateElements},
			// A doubled append also corrupts the writer's own read-back
			// (mops claim one append, the read shows two): internal.
			Allow: []anomaly.Class{anomaly.DuplicateAppends, anomaly.Internal},
		},
		Campaign{
			Name:      "clock-skew",
			Doc:       "drifting recorded timestamps contradict the true commit order",
			Workload:  workload.ListAppend,
			Isolation: memdb.StrictSerializable,
			Model:     consistency.StrictSerializable,
			Faults:    []string{"clock-skew"},
			// Skewed clocks poison both edge families derived from
			// recorded times: the database's claimed timestamps and the
			// wall-clock real-time order.
			ExpectAny: []anomaly.Class{
				anomaly.G0Timestamp, anomaly.G1cTimestamp,
				anomaly.GSingleTimestamp, anomaly.G2ItemTimestamp,
				anomaly.G0Realtime, anomaly.G1cRealtime,
				anomaly.GSingleRealtime, anomaly.G2ItemRealtime,
			},
		},
		Campaign{
			Name:        "crash-restart-clean",
			Doc:         "crashes with engine-side rollback are not bugs; the checker must stay quiet",
			Workload:    workload.ListAppend,
			Isolation:   memdb.StrictSerializable,
			Model:       consistency.StrictSerializable,
			Faults:      []string{"crash-restart"},
			ExpectClean: true,
		},
		// §7: each engine claims a model its planted bug breaks. The
		// Allow lists are what seeds 1–3 at 600, 1000, and 2000
		// transactions produce, so the verdicts stay closed.
		Campaign{
			Name:           "tidb",
			Doc:            "§7.1 TiDB: SI whose automatic conflict retry re-applies writes: read skew, lost updates, incompatible orders",
			Workload:       workload.ListAppend,
			Isolation:      memdb.SnapshotIsolation,
			Model:          consistency.SnapshotIsolation,
			Faults:         []string{"retry-stomp", "retry-rebase"},
			KeyConsistency: workload.LinearizableKeys,
			Expect:         []anomaly.Class{anomaly.GSingle, anomaly.LostUpdate, anomaly.IncompatibleOrder},
			Allow:          []anomaly.Class{anomaly.G2Item},
		},
		Campaign{
			Name:      "yugabyte",
			Doc:       "§7.2 YugaByte: serializable commits that skip read validation: G2 cycles of several anti-dependencies",
			Workload:  workload.ListAppend,
			Isolation: memdb.Serializable,
			Model:     consistency.Serializable,
			Faults:    []string{"skip-read-validation"},
			Expect:    []anomaly.Class{anomaly.G2Item},
		},
		Campaign{
			Name:      "fauna",
			Doc:       "§7.3 Fauna: strict-serializable reads that miss the transaction's own writes: internal anomalies",
			Workload:  workload.ListAppend,
			Isolation: memdb.StrictSerializable,
			Model:     consistency.StrictSerializable,
			Faults:    []string{"skip-own-write"},
			Expect:    []anomaly.Class{anomaly.Internal},
		},
		Campaign{
			Name:           "dgraph",
			Doc:            "§7.4 Dgraph: SI register reads that return nil after shard migration: internal anomalies, cyclic version orders, read skew",
			Workload:       workload.RWRegister,
			Isolation:      memdb.SnapshotIsolation,
			Model:          consistency.SnapshotIsolation,
			Faults:         []string{"nil-read"},
			KeyConsistency: workload.LinearizableKeys,
			Expect:         []anomaly.Class{anomaly.Internal, anomaly.CyclicVersionOrder},
			// Read skew shows at most seeds, but not at seed 3.
			Allow: []anomaly.Class{anomaly.GSingle, anomaly.G2Item},
		},
	)
	return out
}

// Find returns the campaign with the given name.
func Find(name string) (Campaign, bool) {
	for _, c := range Campaigns() {
		if c.Name == name {
			return c, true
		}
	}
	return Campaign{}, false
}

// Names returns every campaign name in table order.
func Names() []string {
	cs := Campaigns()
	out := make([]string, len(cs))
	for i, c := range cs {
		out[i] = c.Name
	}
	return out
}
