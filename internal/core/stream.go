package core

import (
	"repro/internal/history"
	"repro/internal/op"
	"repro/internal/workload"
)

// Stream is an in-progress incremental check: a history is fed in
// chunks, in ascending index order, and anomalies surface as they
// become provable instead of only after the run ends. Feed validates
// each chunk, routes it to the workload's streaming session (natively
// incremental for workloads registered with workload.Hooks, buffering
// for Finish otherwise), and returns the chunk's Delta of provisional
// findings. Finish completes the stream and produces the
// definitive CheckResult — byte-identical to core.Check over the
// concatenation of every chunk, at every Parallelism setting.
//
// A Stream is single-goroutine: Feed and Finish must not be called
// concurrently. Internally the session and the final classification fan
// out across Opts.Parallelism workers exactly as the batch pipeline
// does.
type Stream struct {
	opts Opts
	sess *workload.Session
	h    *history.History
	ops  int
}

// CheckStream begins an incremental check under opts. Like Check it
// panics on an unregistered workload name; every other failure mode
// (malformed chunks, misuse after Finish) is an error from Feed or
// Finish.
func CheckStream(opts Opts) *Stream {
	opts = opts.withDefaults()
	info := lookup(opts.Workload)
	return &Stream{
		opts: opts,
		sess: workload.BeginSession(info, opts.Opts),
	}
}

// Feed ingests the next chunk of ops, returning the anomalies the
// chunk made provable. The session validates as it ingests — the ops
// are stored, validated, and indexed exactly once. Mid-stream
// anomalies are provisional: evidence the final report will confirm,
// not the final report itself (see workload.Delta). After Finish it
// returns workload.ErrSessionFinished. A checker panic propagates to
// the caller, as from Check.
func (s *Stream) Feed(ops []op.Op) (workload.Delta, error) {
	d, err := s.sess.Feed(ops)
	if err != nil {
		return d, err
	}
	s.ops = d.Ops
	return d, nil
}

// Finish completes the stream: the session finalizes its analysis, and
// the shared back half of the checker (ordering edges, cycle search,
// classification, lattice evaluation) runs over the result. A second
// Finish returns workload.ErrSessionFinished. A checker panic
// propagates to the caller, as from Check.
func (s *Stream) Finish() (*CheckResult, error) {
	s.h = s.sess.History()
	an, err := s.sess.Finish()
	if err != nil {
		return nil, err
	}
	return classify(s.h, s.opts, an), nil
}

// History returns the accumulated history; valid after Finish, for
// callers that render history statistics or reports alongside the
// result.
func (s *Stream) History() *history.History { return s.h }

// RetireStats reports the session's resident/retired memory counters;
// nothing retires unless Opts.MemoryBudget is set.
func (s *Stream) RetireStats() workload.RetireStats { return s.sess.RetireStats() }

// Ops returns the number of completion ops ingested so far.
func (s *Stream) Ops() int { return s.ops }
