package service

import (
	"net/http"
	"strconv"

	"repro/internal/promtext"
)

// metrics is elled's instrument panel, served as Prometheus text
// exposition on GET /metrics (docs/SERVICE.md lists the catalog). Hot
// counters are bumped inline on the ingest path; gauges that mirror the
// job table (jobs by state, shard queue depth, memory counters) are
// computed at scrape time so the ingest path never pays for them.
type metrics struct {
	reg *promtext.Registry

	jobsCreated *promtext.Counter
	jobsResumed *promtext.Counter
	jobsReaped  *promtext.Counter
	chunks      *promtext.Counter
	ingestBytes *promtext.Counter
	ingestOps   *promtext.Counter
	refused     *promtext.CounterVec
	walAppends  *promtext.Counter
	walBytes    *promtext.Counter
	walFsync    *promtext.Histogram
	panics      *promtext.Counter
}

func newMetrics(s *Service) *metrics {
	r := promtext.NewRegistry()
	m := &metrics{reg: r}
	m.jobsCreated = r.Counter("elled_jobs_created_total",
		"Jobs created over the service's lifetime.")
	m.jobsResumed = r.Counter("elled_jobs_resumed_total",
		"Jobs reconstructed from WAL journals at startup.")
	m.jobsReaped = r.Counter("elled_jobs_reaped_total",
		"Jobs removed by the idle/finished reaper.")
	m.chunks = r.Counter("elled_chunks_total",
		"Chunk uploads accepted (journaled and fed).")
	m.ingestBytes = r.Counter("elled_ingest_bytes_total",
		"Chunk body bytes accepted.")
	m.ingestOps = r.Counter("elled_ingest_ops_total",
		"Completion ops ingested into sessions.")
	m.refused = r.CounterVec("elled_refused_total",
		"Requests refused, by error code (at_capacity, shard_busy, chunk_too_large).",
		"code")
	m.walAppends = r.Counter("elled_wal_appends_total",
		"Records appended to job WALs (meta and chunk records).")
	m.walBytes = r.Counter("elled_wal_bytes_total",
		"Bytes appended to job WALs.")
	m.panics = r.Counter("elled_panics_total",
		"Checker panics recovered into a failed job.")
	m.walFsync = r.Histogram("elled_wal_fsync_seconds",
		"WAL fsync latency.",
		[]float64{0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1})

	r.GaugeVecFunc("elled_jobs", "Resident jobs by state.", []string{"state"},
		func(set func([]string, float64)) {
			counts := map[string]int{stateAccepting: 0, stateDone: 0, stateFailed: 0}
			for _, j := range s.snapshot() {
				j.mu.Lock()
				counts[j.state]++
				j.mu.Unlock()
			}
			for _, st := range []string{stateAccepting, stateDone, stateFailed} {
				set([]string{st}, float64(counts[st]))
			}
		})
	r.GaugeVecFunc("elled_shard_queue_depth",
		"Chunk tasks queued per inference shard.", []string{"shard"},
		func(set func([]string, float64)) {
			for i := 0; i < s.pool.size(); i++ {
				set([]string{strconv.Itoa(i)}, float64(s.pool.depth(i)))
			}
		})
	r.GaugeFunc("elled_memory_resident_ops",
		"Ops held decoded across budgeted jobs (PR 8 bounded-memory sessions).",
		func() float64 { res, _, _ := s.memStats(); return float64(res) })
	r.GaugeFunc("elled_memory_retired_ops",
		"Ops retired to encoded segments across budgeted jobs.",
		func() float64 { _, ret, _ := s.memStats(); return float64(ret) })
	r.GaugeFunc("elled_memory_spilled_bytes",
		"Encoded bytes spilled to disk across budgeted jobs.",
		func() float64 { _, _, sp := s.memStats(); return float64(sp) })
	r.GaugeFunc("elled_wal_resident_bytes",
		"Bytes currently held across resident jobs' WAL journals.",
		func() float64 {
			var total int64
			for _, j := range s.snapshot() {
				j.mu.Lock()
				if j.wal != nil {
					total += j.wal.Size()
				}
				j.mu.Unlock()
			}
			return float64(total)
		})
	return m
}

// snapshot copies the job table's values for lock-free iteration.
func (s *Service) snapshot() []*job {
	s.mu.Lock()
	defer s.mu.Unlock()
	jobs := make([]*job, 0, len(s.jobs))
	for _, j := range s.jobs {
		jobs = append(jobs, j)
	}
	return jobs
}

// memStats sums the bounded-memory counters over budgeted jobs.
func (s *Service) memStats() (resident, retired int, spilled int64) {
	for _, j := range s.snapshot() {
		j.mu.Lock()
		if j.opts.MemoryBudget > 0 {
			rs := j.stream.RetireStats()
			resident += rs.Stream.ResidentOps
			retired += rs.Stream.RetiredOps
			spilled += rs.Stream.SpilledBytes
		}
		j.mu.Unlock()
	}
	return resident, retired, spilled
}

func (s *Service) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.met.reg.Write(w)
}
