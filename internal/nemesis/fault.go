package nemesis

import (
	"fmt"
	"sort"

	"repro/internal/memdb"
)

// Plan is the fully-resolved fault configuration a campaign hands the
// engine and runner: the union of every named fault's knobs. The zero
// Plan is a clean run.
type Plan struct {
	// Faults configures the engine-side injectors.
	Faults memdb.Faults
	// AbortProb, InfoProb, and CrashProb configure client-side outcomes
	// (see memdb.RunConfig).
	AbortProb float64
	InfoProb  float64
	CrashProb float64
	// ClockSkewProb and ClockSkewMax perturb recorded timestamps;
	// Timestamps turns timestamp recording on so the skew has something
	// to corrupt.
	ClockSkewProb float64
	ClockSkewMax  int64
	Timestamps    bool
}

// Fault is one named, composable failure mode. Apply folds its knobs
// into a Plan; composing faults is applying each in turn.
type Fault struct {
	// Name identifies the fault in campaign tables and on the CLI.
	Name string
	// Doc is a one-line description.
	Doc string
	// Apply folds the fault into the plan.
	Apply func(*Plan)
}

// faults is the catalog of named failure modes. Probabilities are tuned
// so a ~1000-transaction campaign reliably produces each fault's
// signature without drowning the history in noise.
var faults = []Fault{
	{
		Name: "clock-skew",
		Doc:  "recorded transaction timestamps drift from the engine's commit order",
		Apply: func(p *Plan) {
			p.Timestamps = true
			p.ClockSkewProb = 0.3
			p.ClockSkewMax = 5
		},
	},
	{
		Name:  "crash-restart",
		Doc:   "client processes crash mid-transaction and restart as fresh processes",
		Apply: func(p *Plan) { p.CrashProb = 0.03 },
	},
	{
		Name:  "dup-delta",
		Doc:   "storage applies an append twice, as a blind client retry would",
		Apply: func(p *Plan) { p.Faults.DuplicateAppendProb = 0.15 },
	},
	{
		Name:  "drop-delta",
		Doc:   "a commit silently drops one key's buffered mutation (partial write)",
		Apply: func(p *Plan) { p.Faults.DropWriteProb = 0.15 },
	},
	{
		Name:  "stale-read",
		Doc:   "a transaction's read snapshot is rewound a few commits into the past",
		Apply: func(p *Plan) { p.Faults.StaleReadProb = 0.3 },
	},
	{
		Name:  "nil-read",
		Doc:   "a read returns the initial nil state regardless of history",
		Apply: func(p *Plan) { p.Faults.NilReadProb = 0.08 },
	},
	{
		Name:  "retry-stomp",
		Doc:   "a conflicting commit re-applies its writes from the stale snapshot",
		Apply: func(p *Plan) { p.Faults.RetryStompProb = 0.4 },
	},
	{
		Name:  "retry-rebase",
		Doc:   "a conflicting commit rebases its writes onto the latest state",
		Apply: func(p *Plan) { p.Faults.RetryRebaseProb = 1 },
	},
	{
		Name:  "skip-own-write",
		Doc:   "a read misses the transaction's own buffered writes",
		Apply: func(p *Plan) { p.Faults.SkipOwnWriteProb = 0.1 },
	},
	{
		Name:  "skip-read-validation",
		Doc:   "a serializable commit skips read-set validation (runs at SI)",
		Apply: func(p *Plan) { p.Faults.SkipReadValidationProb = 0.3 },
	},
	{
		Name:  "abort",
		Doc:   "clients abandon transactions just before commit",
		Apply: func(p *Plan) { p.AbortProb = 0.2 },
	},
	{
		Name:  "lost-ack",
		Doc:   "commit acknowledgements vanish: outcomes recorded indeterminate",
		Apply: func(p *Plan) { p.InfoProb = 0.15 },
	},
}

// FaultCatalog returns every named fault, sorted by name.
func FaultCatalog() []Fault {
	out := make([]Fault, len(faults))
	copy(out, faults)
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// LookupFault resolves a fault by name.
func LookupFault(name string) (Fault, bool) {
	for _, f := range faults {
		if f.Name == name {
			return f, true
		}
	}
	return Fault{}, false
}

// Configure copies the plan's knobs into an engine run configuration.
func (p Plan) Configure(rc *memdb.RunConfig) {
	rc.Faults = p.Faults
	rc.AbortProb, rc.InfoProb, rc.CrashProb = p.AbortProb, p.InfoProb, p.CrashProb
	rc.ClockSkewProb, rc.ClockSkewMax = p.ClockSkewProb, p.ClockSkewMax
	rc.ExposeTimestamps = p.Timestamps
}

// NewPlan composes the named faults into one Plan. Unknown names are an
// error — campaign tables are validated against the catalog.
func NewPlan(names []string) (Plan, error) {
	var p Plan
	for _, n := range names {
		f, ok := LookupFault(n)
		if !ok {
			return Plan{}, fmt.Errorf("nemesis: unknown fault %q", n)
		}
		f.Apply(&p)
	}
	return p, nil
}
