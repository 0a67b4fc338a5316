// Package stats computes descriptive statistics of an observation: op
// counts by outcome, process and key counts, micro-op mix, and the
// concurrency profile over time. The §7 methodology points all live
// here: tests ran 10–30 client threads, crashed clients raise logical
// concurrency over time, and transactions carry 1–10 micro-ops — this
// package is how the CLI and the test suite verify a history actually
// has the shape an experiment claims.
package stats

import (
	"fmt"
	"strings"

	"repro/internal/history"
	"repro/internal/op"
)

// Stats summarizes one history.
type Stats struct {
	// Ops counts all events, including invokes.
	Ops int
	// Attempts counts transactions (completions of any type).
	Attempts int
	// Committed, Aborted, Indeterminate break Attempts down.
	Committed, Aborted, Indeterminate int
	// Processes counts distinct logical processes.
	Processes int
	// Keys counts distinct keys touched.
	Keys int
	// Mops counts micro-operations in completed transactions, by kind.
	Reads, Writes int
	// MinTxnLen and MaxTxnLen bound transaction sizes.
	MinTxnLen, MaxTxnLen int
	// MaxConcurrent is the peak number of simultaneously open
	// transactions (complete histories only; 1 for compact).
	MaxConcurrent int
}

// Compute gathers statistics for h.
func Compute(h *history.History) Stats {
	// The history's interner holds every key of every op, invocations
	// included.
	s := Stats{Ops: h.Len(), Keys: h.Keys().Len(), MinTxnLen: -1}
	procs := map[int]bool{}
	open := 0
	for _, o := range h.Ops {
		procs[o.Process] = true
		switch o.Type {
		case op.Invoke:
			open++
			if open > s.MaxConcurrent {
				s.MaxConcurrent = open
			}
			continue
		case op.OK:
			s.Committed++
		case op.Fail:
			s.Aborted++
		case op.Info:
			s.Indeterminate++
		}
		if open > 0 {
			open--
		}
		s.Attempts++
		n := len(o.Mops)
		if s.MinTxnLen < 0 || n < s.MinTxnLen {
			s.MinTxnLen = n
		}
		if n > s.MaxTxnLen {
			s.MaxTxnLen = n
		}
		for _, m := range o.Mops {
			if m.IsRead() {
				s.Reads++
			} else {
				s.Writes++
			}
		}
	}
	if s.MinTxnLen < 0 {
		s.MinTxnLen = 0
	}
	if h.Compact() && s.Attempts > 0 {
		s.MaxConcurrent = 1
	}
	s.Processes = len(procs)
	return s
}

// String renders a compact multi-line report.
func (s Stats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "ops: %d (%d attempts: %d ok, %d failed, %d indeterminate)\n",
		s.Ops, s.Attempts, s.Committed, s.Aborted, s.Indeterminate)
	fmt.Fprintf(&b, "processes: %d, keys: %d, peak concurrency: %d\n",
		s.Processes, s.Keys, s.MaxConcurrent)
	fmt.Fprintf(&b, "micro-ops: %d reads, %d writes; txn length %d–%d\n",
		s.Reads, s.Writes, s.MinTxnLen, s.MaxTxnLen)
	return b.String()
}
