// Package gen generates random transaction workloads the way the paper's
// evaluation does (§7): transactions of 1–10 micro-operations comprised of
// random reads and writes over a rotating pool of objects, with unique
// write arguments so that versions are recoverable, and a configurable
// number of writes per object before a key is retired and a fresh one
// introduced (1 write/key stresses object creation; 1024 writes/key lets
// anomalies span long periods).
package gen

import (
	"fmt"
	"math/rand"

	"repro/internal/op"
)

// Workload selects which micro-ops the generator emits.
type Workload uint8

const (
	// ListAppend emits append and list-read mops.
	ListAppend Workload = iota
	// Register emits blind-write and register-read mops.
	Register
	// Set emits unique-element add and set-read mops.
	Set
	// Counter emits small increments and counter-read mops.
	Counter
	// Bank emits transfer transactions over a fixed set of accounts —
	// read both accounts, then write both with a delta the engine
	// resolves against the balances actually read — interleaved with
	// read-all transactions observing every account, the shape whose
	// total-balance invariant makes histories self-checking.
	Bank
	// KAtomic emits single-mop transactions — one register read or one
	// blind write of a globally unique value — all over one object: the
	// shape the katomic workload's real-time atomicity analysis expects,
	// where each transaction is a single operation with an
	// invocation/completion interval.
	KAtomic
)

// Config parameterizes generation.
type Config struct {
	// Workload selects list-append (default) or register mops.
	Workload Workload
	// ActiveKeys is how many objects are live at any point in time
	// (the paper used "a handful" up to 100). Default 5.
	ActiveKeys int
	// MaxWritesPerKey retires a key after this many writes (paper: 1 to
	// 1024). Default 100, the Figure 4 setting.
	MaxWritesPerKey int
	// MinOps and MaxOps bound the mops per transaction (paper: 1–10;
	// Figure 4 used 1–5). Defaults 1 and 5.
	MinOps, MaxOps int
	// NoReadAfterWrite suppresses reads of keys the transaction has
	// already written. Useful for workloads modeling engines whose read
	// and write paths diverge (the YugaByte campaign), where a
	// read-after-write would conflate the two paths.
	NoReadAfterWrite bool
}

func (c Config) withDefaults() Config {
	if c.ActiveKeys <= 0 {
		c.ActiveKeys = 5
	}
	if c.MaxWritesPerKey <= 0 {
		c.MaxWritesPerKey = 100
	}
	if c.MinOps <= 0 {
		c.MinOps = 1
	}
	if c.MaxOps < c.MinOps {
		c.MaxOps = c.MinOps + 4
	}
	return c
}

// readRatio is the probability each mop is a read (for bank, that a
// transaction reads every account).
const readRatio = 0.5

// Gen produces transaction bodies. It is not safe for concurrent use.
type Gen struct {
	cfg     Config
	rng     *rand.Rand
	active  []string       // live keys
	writes  map[string]int // writes so far per live key
	nextKey int            // next fresh key id
	nextArg int            // global unique write argument
}

// New builds a generator with the given seed.
func New(cfg Config, seed int64) *Gen {
	cfg = cfg.withDefaults()
	g := &Gen{
		cfg:    cfg,
		rng:    rand.New(rand.NewSource(seed)),
		writes: map[string]int{},
	}
	for len(g.active) < cfg.ActiveKeys {
		g.addKey()
	}
	return g
}

func (g *Gen) addKey() {
	k := fmt.Sprintf("%d", g.nextKey)
	g.nextKey++
	g.active = append(g.active, k)
	g.writes[k] = 0
}

// retire replaces the key at position i with a fresh one.
func (g *Gen) retire(i int) {
	delete(g.writes, g.active[i])
	k := fmt.Sprintf("%d", g.nextKey)
	g.nextKey++
	g.active[i] = k
	g.writes[k] = 0
}

// Next returns the mops of one transaction. Write arguments are unique
// across the whole run, which is what makes versions recoverable
// (§4.2.3: "we can ensure the first criterion by picking unique values").
func (g *Gen) Next() []op.Mop {
	if g.cfg.Workload == Bank {
		return g.nextBank()
	}
	if g.cfg.Workload == KAtomic {
		return g.nextKAtomic()
	}
	n := g.cfg.MinOps + g.rng.Intn(g.cfg.MaxOps-g.cfg.MinOps+1)
	mops := make([]op.Mop, 0, n)
	written := map[string]bool{}
	for i := 0; i < n; i++ {
		ki := g.rng.Intn(len(g.active))
		key := g.active[ki]
		if g.rng.Float64() < readRatio {
			if g.cfg.NoReadAfterWrite && written[key] {
				continue
			}
			mops = append(mops, op.Read(key))
			continue
		}
		written[key] = true
		g.nextArg++
		arg := g.nextArg
		switch g.cfg.Workload {
		case Register:
			mops = append(mops, op.Write(key, arg))
		case Set:
			mops = append(mops, op.Add(key, arg))
		case Counter:
			// Counters need no unique arguments (they are unrecoverable
			// regardless, §3); small deltas keep values readable.
			mops = append(mops, op.Increment(key, 1+arg%3))
		default:
			mops = append(mops, op.Append(key, arg))
		}
		g.writes[key]++
		if g.writes[key] >= g.cfg.MaxWritesPerKey {
			g.retire(ki)
		}
	}
	return mops
}

// nextBank emits one bank transaction. With probability readRatio it is
// a read of every account (the invariant-checking observation); the
// rest are transfers: read the two accounts involved, then write both
// with a signed delta. Bank write arguments are deltas, not balances —
// the engine resolves each against the balance it actually read, so the
// recorded history carries real balances (see memdb.WorkloadBank).
// Accounts are the initial ActiveKeys keys and are never retired.
func (g *Gen) nextBank() []op.Mop {
	if len(g.active) < 2 || g.rng.Float64() < readRatio {
		mops := make([]op.Mop, len(g.active))
		for i, k := range g.active {
			mops[i] = op.Read(k)
		}
		return mops
	}
	fi := g.rng.Intn(len(g.active))
	ti := g.rng.Intn(len(g.active) - 1)
	if ti >= fi {
		ti++
	}
	amt := 1 + g.rng.Intn(5)
	from, to := g.active[fi], g.active[ti]
	return []op.Mop{
		op.Read(from), op.Read(to),
		op.Write(from, -amt), op.Write(to, amt),
	}
}

// nextKAtomic emits one single-operation transaction over the first
// active key: a register read with probability readRatio, otherwise a
// blind write of a globally unique value. One object and one mop per
// transaction keep the invocation/completion interval of the op equal
// to that of its transaction, which is what the k-atomicity analysis
// orders by; the key is never retired.
func (g *Gen) nextKAtomic() []op.Mop {
	key := g.active[0]
	if g.rng.Float64() < readRatio {
		return []op.Mop{op.Read(key)}
	}
	g.nextArg++
	return []op.Mop{op.Write(key, g.nextArg)}
}

// Keys returns the currently active keys (for tests).
func (g *Gen) Keys() []string {
	out := make([]string, len(g.active))
	copy(out, g.active)
	return out
}
