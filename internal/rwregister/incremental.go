package rwregister

import (
	"fmt"

	"repro/internal/anomaly"
	"repro/internal/history"
	"repro/internal/op"
	"repro/internal/workload"
)

// scanEvery is how many completions a session ingests between per-key
// inference refreshes. Per-op anomalies (internal inconsistencies,
// aborted reads, duplicate writes) surface on the feed that proves
// them; cyclic version orders surface at the next refresh.
const scanEvery = 128

// session is the native incremental analysis for rw-register histories
// (workload.Session). Register inference is per-key and the rules are
// monotone — version graphs only gain edges as the history grows — so
// the session maintains exactly what the batch analyzer builds up front
// (the op index and every key's state: value table, transaction
// footprints, inference result) and re-runs the per-key pipeline only
// for keys the last chunk touched. At Finish every untouched key's
// result is what the batch analyzer would compute, and the same phase
// sequence (analyzer.finish) merges them, so the Analysis is
// byte-identical.
type session struct {
	a  *analyzer // a.keyst is the per-key maintained state
	hs *history.Stream

	emitted   map[string]bool // mid-stream findings already surfaced
	sinceScan int
	done      bool

	// rt tracks key quiescence under a memory budget (nil without one);
	// see retire.go.
	rt *workload.KeyTracker
}

func beginSession(opts workload.Opts) workload.Session {
	hs := history.NewStream()
	s := &session{a: newAnalyzer(opts, hs.Keys()), hs: hs, emitted: map[string]bool{}}
	if opts.MemoryBudget > 0 {
		hs.SetBudget(workload.StreamBudget(opts))
		s.rt = workload.NewKeyTracker(opts.MemoryBudget)
		s.a.windowed = true
	}
	return s
}

// Feed ingests one chunk, updating the maintained state, and returns
// the anomalies the chunk made provable.
func (s *session) Feed(ops []op.Op) (workload.Delta, error) {
	if s.done {
		return workload.Delta{}, workload.ErrSessionFinished
	}
	var d workload.Delta
	for _, o := range ops {
		if err := s.hs.Add(o); err != nil {
			return workload.Delta{}, err
		}
		if o.Type == op.Invoke {
			continue
		}
		s.sinceScan++
		s.ingest(o, &d)
	}
	if s.sinceScan >= scanEvery {
		s.scan(&d)
		if s.rt != nil {
			// Sweep after the scan so retiring keys' last refresh has
			// already surfaced their findings.
			s.sweep()
		}
	}
	d.Ops = s.hs.Completions()
	return d, nil
}

// ingest indexes one completion and surfaces its per-op findings.
func (s *session) ingest(o op.Op, d *workload.Delta) {
	a := s.a
	a.addOp(o, s.hs.SpanOf(o.Index)[0])
	s.note(o)

	for _, m := range o.Mops {
		if m.F != op.FWrite {
			continue
		}
		k := a.kid(m.Key)
		switch vs := a.find(k, m.Arg); vs.writes {
		case 1:
			if o.Type == op.Fail {
				// Readers that already observed this value read state
				// that is now known to be aborted.
				for _, r := range vs.readers {
					s.emit(d, fmt.Sprintf("g1a|%d|%d|%d|%d", k, m.Arg, r, o.Index),
						g1aAnomaly(a.ops[r], m.Key, m.Arg, o))
				}
			}
		case 2:
			s.emit(d, fmt.Sprintf("dup|%d|%d", k, m.Arg), dupAnomaly(m.Key, vs))
		}
	}
	if o.Type != op.OK {
		return
	}
	for _, m := range o.Mops {
		if m.F == op.FRead && m.RegKnown && !m.RegNil {
			k := a.kid(m.Key)
			if w, ok := a.find(k, m.Reg).sole(true); ok {
				s.emit(d, fmt.Sprintf("g1a|%d|%d|%d|%d", k, m.Reg, o.Index, w),
					g1aAnomaly(o, m.Key, m.Reg, a.ops[w]))
			}
		}
	}
	d.Anomalies = append(d.Anomalies, a.internalAnomalies(o)...)
}

// scan refreshes the per-key inference of every touched key, surfacing
// newly cyclic version orders.
func (s *session) scan(d *workload.Delta) {
	s.sinceScan = 0
	for _, k := range s.a.refresh() {
		if cyc := s.a.keyst[k].res.cyclic; cyc != nil {
			kname := s.a.in.Key(k)
			s.emit(d, "cvo|"+kname, cvoAnomaly(kname, cyc))
		}
	}
}

// History returns the session's validated accumulation; call after
// Finish (it aliases live state).
func (s *session) History() *history.History { return s.hs.History() }

// emit surfaces one finding unless an earlier feed already did.
func (s *session) emit(d *workload.Delta, key string, an anomaly.Anomaly) {
	if s.emitted[key] {
		return
	}
	s.emitted[key] = true
	d.Anomalies = append(d.Anomalies, an)
}

// Finish completes the stream by running the shared phase sequence over
// the maintained state; it refreshes the keys touched since the last
// scan first.
func (s *session) Finish() (workload.Analysis, error) {
	if s.done {
		return workload.Analysis{}, workload.ErrSessionFinished
	}
	s.done = true
	if err := s.hs.Err(); err != nil {
		// A chunk was rejected; finishing anyway would bless a history
		// the batch validator refuses.
		return workload.Analysis{}, err
	}
	if s.rt != nil {
		// Budgeted sessions retired per-key state along the way; what is
		// maintained is a window, not the whole history. Rehydrate the
		// stream and run the batch analyzer, at the documented O(history)
		// finish cost.
		return Analyze(s.hs.History(), s.a.opts).workloadAnalysis(), nil
	}
	return s.a.finish(s.hs.History()).workloadAnalysis(), nil
}
