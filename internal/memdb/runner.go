package memdb

import (
	"math/rand"

	"repro/internal/history"
	"repro/internal/op"
)

// TxnSource supplies transaction bodies; satisfied by *gen.Gen.
type TxnSource interface {
	Next() []op.Mop
}

// Workload selects the read semantics the runner uses for read mops; it
// must match the TxnSource's write mops.
type Workload uint8

const (
	// WorkloadList reads append-only lists.
	WorkloadList Workload = iota
	// WorkloadRegister reads registers.
	WorkloadRegister
	// WorkloadSet reads grow-only sets.
	WorkloadSet
	// WorkloadCounter reads counters.
	WorkloadCounter
	// WorkloadBank executes bank transfers over register accounts. A
	// write mop's Arg is a signed *delta*: execution reads the account
	// inside the transaction and installs balance+delta, recording the
	// installed balance (not the delta) in the completed mop. A
	// transfer that would drive an account negative aborts, as a
	// correct banking client must — which is exactly what makes the
	// history self-checking: under sound isolation the total balance is
	// invariant and no balance goes negative.
	WorkloadBank
)

// bankInitialBalance is each account's opening deposit; Run installs it
// with a committed all-accounts write transaction recorded at the head
// of the history, so a black-box checker can recover both the account
// set and the invariant total from the observation itself.
const bankInitialBalance = 100

// RunConfig drives a simulated multi-client run against one DB.
type RunConfig struct {
	// Clients is the number of concurrent logical client threads
	// (the paper ran 10–30 client threads; Figure 4 sweeps 1–100).
	Clients int
	// Txns is the total number of transaction attempts across clients.
	Txns int
	// Isolation selects the engine's concurrency control.
	Isolation Isolation
	// Faults configures bug injection.
	Faults Faults
	// Source generates transaction bodies.
	Source TxnSource
	// Seed makes the whole run — scheduling, faults, outcomes —
	// reproducible.
	Seed int64
	// AbortProb makes a client abandon a transaction before commit.
	AbortProb float64
	// InfoProb simulates a lost commit acknowledgement: the client
	// records an indeterminate (info) result; the commit itself may or
	// may not have happened. As in Jepsen, the client thread then moves
	// to a fresh logical process, so logical concurrency grows over time.
	InfoProb float64
	// CrashProb makes a client process crash before each micro-op with
	// this probability: the engine's connection teardown discards the
	// transaction's buffered writes (under ReadUncommitted the
	// already-applied prefix stays), the op is recorded indeterminate —
	// the crashed client never learned an outcome — and the thread
	// restarts as a fresh logical process.
	CrashProb float64
	// ClockSkewProb perturbs each timestamp recorded under
	// ExposeTimestamps by ±[1, ClockSkewMax] ticks, simulating client
	// wall clocks drifting from the engine's commit order. Only
	// meaningful with ExposeTimestamps.
	ClockSkewProb float64
	// ClockSkewMax bounds the skew magnitude in ticks; 0 means 3.
	ClockSkewMax int64
	// ExposeTimestamps stamps invoke ops with the engine's timestamp at
	// transaction start and completion ops with the timestamp after
	// commit, simulating a database that exposes transaction timestamps
	// to clients (§5.1). Times are offset by one so the zero value never
	// collides with the builder's defaulting.
	ExposeTimestamps bool
	// Workload selects read semantics (default WorkloadList).
	Workload Workload
}

// Run simulates cfg.Clients single-threaded clients executing cfg.Txns
// transactions against a fresh DB, interleaving at micro-op granularity
// under a seeded scheduler, and returns the observed history (complete,
// with invoke/completion pairs).
//
// Determinism: every random choice (scheduling, fault firing, outcomes)
// flows from cfg.Seed, so a run is exactly reproducible — which the test
// suite and benchmarks rely on.
func Run(cfg RunConfig) *history.History {
	h, _ := RunOnDB(cfg)
	return h
}

// RunOnDB is Run but also returns the engine, so callers (tests,
// ground-truth comparisons) can inspect the final committed state.
func RunOnDB(cfg RunConfig) (*history.History, *DB) {
	if cfg.Clients <= 0 {
		cfg.Clients = 1
	}
	db := New(cfg.Isolation, cfg.Faults, cfg.Seed+1)
	rng := rand.New(rand.NewSource(cfg.Seed))
	b := history.NewBuilder()

	// stamp reads the client's wall clock: the engine timestamp, offset
	// by one so the zero value never collides with the builder's
	// defaulting, and — under the clock-skew fault — perturbed by a few
	// ticks in either direction (clamped to stay positive).
	stamp := func() int64 {
		t := db.CurrentTS() + 1
		if cfg.ClockSkewProb > 0 && rng.Float64() < cfg.ClockSkewProb {
			max := cfg.ClockSkewMax
			if max <= 0 {
				max = 3
			}
			d := 1 + rng.Int63n(max)
			if rng.Intn(2) == 0 {
				d = -d
			}
			if t += d; t < 1 {
				t = 1
			}
		}
		return t
	}

	if cfg.Workload == WorkloadBank {
		openBankAccounts(cfg, db, b)
	}

	type client struct {
		process int
		txn     *Txn
		mops    []op.Mop // template (reads unknown)
		results []op.Mop // filled as we execute
		step    int
	}
	clients := make([]*client, cfg.Clients)
	nextProcess := 0
	for i := range clients {
		clients[i] = &client{process: nextProcess}
		nextProcess++
	}

	started := 0
	active := 0
	for {
		// Pick a random client.
		c := clients[rng.Intn(len(clients))]
		if c.txn == nil {
			if started >= cfg.Txns {
				if active == 0 {
					break
				}
				continue
			}
			// Begin a new transaction.
			c.mops = cfg.Source.Next()
			c.results = make([]op.Mop, len(c.mops))
			copy(c.results, c.mops)
			c.step = 0
			if cfg.ExposeTimestamps {
				b.Append(op.Op{Process: c.process, Type: op.Invoke,
					Mops: c.mops, Time: stamp()})
			} else {
				b.Invoke(c.process, c.mops)
			}
			c.txn = db.Begin()
			started++
			active++
			continue
		}

		complete := func(t op.Type, mops []op.Mop) {
			if cfg.ExposeTimestamps {
				b.Append(op.Op{Process: c.process, Type: t,
					Mops: mops, Time: stamp()})
			} else {
				b.Complete(c.process, t, mops)
			}
		}

		if c.step < len(c.mops) {
			if cfg.CrashProb > 0 && rng.Float64() < cfg.CrashProb {
				// The client process crashes mid-transaction: the
				// connection teardown aborts the uncommitted transaction
				// engine-side, but the client never learns an outcome, so
				// the op is recorded indeterminate with its template mops
				// (results unknown) and the thread restarts as a fresh
				// process — Jepsen's recording of a crashed worker.
				active--
				c.txn.Abort()
				complete(op.Info, c.mops)
				c.process = nextProcess
				nextProcess++
				c.txn = nil
				continue
			}
			m := c.mops[c.step]
			res, insufficient := executeMop(c.txn, m, cfg.Workload)
			if insufficient {
				// A bank transfer found the source account short: the
				// client aborts rather than overdraw.
				active--
				c.txn.Abort()
				complete(op.Fail, c.mops)
				c.txn = nil
				continue
			}
			c.results[c.step] = res
			c.step++
			continue
		}

		// All mops done: decide the outcome.
		active--
		switch {
		case cfg.AbortProb > 0 && rng.Float64() < cfg.AbortProb:
			c.txn.Abort()
			complete(op.Fail, c.mops)
		case cfg.InfoProb > 0 && rng.Float64() < cfg.InfoProb:
			// The commit was sent but the acknowledgement lost.
			if rng.Intn(2) == 0 {
				_ = c.txn.Commit()
			} else {
				c.txn.Abort()
			}
			if cfg.Workload == WorkloadBank {
				// The client did execute its mops (only the commit ack
				// vanished), so it knows the balances its deltas
				// resolved to; record them, as a Jepsen client would.
				// Without this, indeterminate writes would be recorded
				// as deltas and the checker could not recover the
				// possibly-installed balances.
				complete(op.Info, c.results)
			} else {
				complete(op.Info, c.mops)
			}
			// The client thread abandons this process, as Jepsen does.
			c.process = nextProcess
			nextProcess++
		default:
			if err := c.txn.Commit(); err != nil {
				complete(op.Fail, c.mops)
			} else {
				complete(op.OK, c.results)
			}
		}
		c.txn = nil
	}
	return b.MustHistory(), db
}

// executeMop runs one micro-op against the transaction and returns the
// completed mop with its observed value filled in. The second result is
// true only for a bank write that would overdraw its account, asking
// the runner to abort the transaction.
func executeMop(t *Txn, m op.Mop, w Workload) (op.Mop, bool) {
	switch m.F {
	case op.FAppend:
		t.Append(m.Key, m.Arg)
		return m, false
	case op.FWrite:
		if w == WorkloadBank {
			// A bank write is a read-modify-write: resolve the signed
			// delta against the balance this transaction observes and
			// install (and record) the resulting absolute balance.
			v, isNil := t.ReadReg(m.Key)
			if isNil {
				v = 0
			}
			balance := v + m.Arg
			if balance < 0 {
				return m, true
			}
			t.WriteReg(m.Key, balance)
			return op.Write(m.Key, balance), false
		}
		t.WriteReg(m.Key, m.Arg)
		return m, false
	case op.FAdd:
		t.AddSet(m.Key, m.Arg)
		return m, false
	case op.FIncrement:
		t.Inc(m.Key, m.Arg)
		return m, false
	case op.FRead:
		switch w {
		case WorkloadRegister, WorkloadBank:
			v, isNil := t.ReadReg(m.Key)
			if isNil {
				return op.ReadNil(m.Key), false
			}
			return op.ReadReg(m.Key, v), false
		case WorkloadSet:
			return op.ReadList(m.Key, t.ReadSet(m.Key)), false
		case WorkloadCounter:
			return op.ReadReg(m.Key, t.ReadCounter(m.Key)), false
		default:
			v := t.ReadList(m.Key)
			if v == nil {
				v = []int{}
			}
			return op.ReadList(m.Key, v), false
		}
	default:
		return m, false
	}
}

// openBankAccounts runs the bank workload's opening deposit: one
// committed transaction writing every account's initial balance,
// recorded at the head of the history. It both seeds the engine and
// publishes the account set and invariant total to black-box checkers.
// The account list comes from the transaction source when it exposes
// one (gen.Gen does); without it no deposit is made and accounts open
// lazily at balance zero.
func openBankAccounts(cfg RunConfig, db *DB, b *history.Builder) {
	src, ok := cfg.Source.(interface{ Keys() []string })
	if !ok {
		return
	}
	accounts := src.Keys()
	if len(accounts) == 0 {
		return
	}
	mops := make([]op.Mop, len(accounts))
	for i, k := range accounts {
		mops[i] = op.Write(k, bankInitialBalance)
	}
	record := func(t op.Type) {
		if cfg.ExposeTimestamps {
			b.Append(op.Op{Process: 0, Type: t, Mops: mops, Time: db.CurrentTS() + 1})
		} else if t == op.Invoke {
			b.Invoke(0, mops)
		} else {
			b.Complete(0, t, mops)
		}
	}
	record(op.Invoke)
	t := db.Begin()
	for _, k := range accounts {
		t.WriteReg(k, bankInitialBalance)
	}
	_ = t.Commit() // nothing is concurrent with the deposit
	record(op.OK)
}
