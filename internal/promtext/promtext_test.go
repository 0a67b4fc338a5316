package promtext

import (
	"regexp"
	"strings"
	"sync"
	"testing"
)

func render(t *testing.T, r *Registry) string {
	t.Helper()
	var b strings.Builder
	if err := r.Write(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

func TestExposition(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("jobs_created_total", "Jobs created.")
	c.Add(3)
	r.GaugeFunc("queue_depth", "Depth.", func() float64 { return 2.5 })
	cv := r.CounterVec("refused_total", "Refusals by code.", "code")
	cv.With("429").Add(2)
	cv.With("413").Inc()
	r.GaugeFunc("resident", "Computed at scrape.", func() float64 { return 7 })
	r.GaugeVecFunc("jobs", "Jobs by state.", []string{"state"}, func(set func([]string, float64)) {
		set([]string{"done"}, 1)
		set([]string{"accepting"}, 4)
	})
	h := r.Histogram("fsync_seconds", "Fsync latency.", []float64{0.001, 0.01})
	h.Observe(0.0005)
	h.Observe(0.005)
	h.Observe(5)

	got := render(t, r)
	want := `# HELP fsync_seconds Fsync latency.
# TYPE fsync_seconds histogram
fsync_seconds_bucket{le="0.001"} 1
fsync_seconds_bucket{le="0.01"} 2
fsync_seconds_bucket{le="+Inf"} 3
fsync_seconds_sum 5.0055
fsync_seconds_count 3
# HELP jobs Jobs by state.
# TYPE jobs gauge
jobs{state="accepting"} 4
jobs{state="done"} 1
# HELP jobs_created_total Jobs created.
# TYPE jobs_created_total counter
jobs_created_total 3
# HELP queue_depth Depth.
# TYPE queue_depth gauge
queue_depth 2.5
# HELP refused_total Refusals by code.
# TYPE refused_total counter
refused_total{code="413"} 1
refused_total{code="429"} 2
# HELP resident Computed at scrape.
# TYPE resident gauge
resident 7
`
	if got != want {
		t.Fatalf("exposition mismatch:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
	// Deterministic across scrapes.
	if again := render(t, r); again != got {
		t.Fatal("two scrapes of unchanged state differ")
	}
}

// TestExpositionShape: every non-comment line is `name{labels} value`
// per the exposition grammar, and every family has HELP before TYPE
// before samples.
func TestExpositionShape(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total", "A.").Inc()
	r.CounterVec("b_total", "B.", "x", "y").With(`quo"te`, "new\nline").Inc()
	r.Histogram("h_seconds", "H.", []float64{0.5}).Observe(1)

	sample := regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*"(,[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*")*\})? -?[0-9.+eEInf]+$`)
	for _, line := range strings.Split(strings.TrimSuffix(render(t, r), "\n"), "\n") {
		if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			continue
		}
		if !sample.MatchString(line) {
			t.Errorf("malformed sample line: %q", line)
		}
	}
}

func TestDuplicateFamilyPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("dup_total", "one")
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate family did not panic")
		}
	}()
	r.Counter("dup_total", "two")
}

func TestCounterNegativePanics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("x_total", "x")
	defer func() {
		if recover() == nil {
			t.Fatal("negative Add did not panic")
		}
	}()
	c.Add(-1)
}

// TestConcurrentObserve: bumps from many goroutines all land (run with
// -race this is the data-race check for the hot counters).
func TestConcurrentObserve(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "c")
	h := r.Histogram("h_seconds", "h", []float64{1})
	cv := r.CounterVec("v_total", "v", "k")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
				h.Observe(0.5)
				cv.With("a").Inc()
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 || h.Count() != 8000 || cv.With("a").Value() != 8000 {
		t.Fatalf("lost updates: c=%d h=%d v=%d", c.Value(), h.Count(), cv.With("a").Value())
	}
}
