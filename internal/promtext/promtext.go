// Package promtext is a hand-rolled Prometheus text-exposition
// registry: counters, gauges, and histograms rendered in the format
// prometheus.io/docs/instrumenting/exposition_formats defines, with no
// client-library dependency. It implements exactly what elled's
// /metrics endpoint needs — atomic counters hot-path-cheap enough to
// bump per chunk, label vectors for small fixed label sets, callback
// gauges for values computed at scrape time, and cumulative-bucket
// histograms for latency — and nothing else.
//
// Rendering is deterministic: families sort by name, samples by label
// value, so two scrapes of the same state are byte-identical and tests
// can pin output.
package promtext

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// A Registry holds metric families and renders them as one exposition.
type Registry struct {
	mu  sync.Mutex
	fam []*family
}

// family is one metric name: help, type, and its samples.
type family struct {
	name, help, typ string
	labels          []string // label names for vec families; nil for plain

	mu       sync.Mutex
	counters map[string]*Counter // keyed by joined label values
	collect  func(set func(labels []string, v float64))
	hist     *Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

func (r *Registry) add(f *family) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, have := range r.fam {
		if have.name == f.name {
			panic("promtext: duplicate metric family " + f.name)
		}
	}
	r.fam = append(r.fam, f)
	return f
}

// A Counter only goes up. Safe for concurrent use.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n; negative n panics — counters are monotone.
func (c *Counter) Add(n int) {
	if n < 0 {
		panic("promtext: counter decrement")
	}
	c.v.Add(uint64(n))
}

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Counter registers an unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	c := &Counter{}
	r.add(&family{name: name, help: help, typ: "counter",
		counters: map[string]*Counter{"": c}})
	return c
}

// CounterVec is a counter family with one or more labels.
type CounterVec struct{ f *family }

// CounterVec registers a labeled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	f := r.add(&family{name: name, help: help, typ: "counter",
		labels: labels, counters: map[string]*Counter{}})
	return &CounterVec{f: f}
}

// With returns the counter for the given label values (in declaration
// order), creating it on first use.
func (v *CounterVec) With(values ...string) *Counter {
	f := v.f
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("promtext: %s wants %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	key := strings.Join(values, labelSep)
	f.mu.Lock()
	defer f.mu.Unlock()
	c, ok := f.counters[key]
	if !ok {
		c = &Counter{}
		f.counters[key] = c
	}
	return c
}

// GaugeFunc registers a gauge whose value is computed at scrape time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.add(&family{name: name, help: help, typ: "gauge",
		collect: func(set func([]string, float64)) { set(nil, fn()) }})
}

// GaugeVecFunc registers a labeled gauge family collected at scrape
// time: fn calls set once per (label values, value) sample.
func (r *Registry) GaugeVecFunc(name, help string, labels []string, fn func(set func(values []string, v float64))) {
	r.add(&family{name: name, help: help, typ: "gauge", labels: labels, collect: fn})
}

const labelSep = "\x1f"

// A Histogram observes a distribution into cumulative buckets — the
// exposition's classic le-labeled shape. Buckets are fixed at
// registration; observations are lock-free.
type Histogram struct {
	bounds []float64 // upper bounds, ascending; +Inf implicit
	counts []atomic.Uint64
	sum    atomic.Uint64 // float64 bits accumulated via CAS
	count  atomic.Uint64
}

// Histogram registers a histogram with the given ascending upper
// bounds (seconds, bytes — caller's choice of unit).
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("promtext: histogram bounds must ascend")
		}
	}
	h := &Histogram{bounds: bounds, counts: make([]atomic.Uint64, len(bounds)+1)}
	r.add(&family{name: name, help: help, typ: "histogram", hist: h})
	return h
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Write renders the exposition: every family in name order, samples in
// label order, one trailing newline per line, UTF-8 text/plain.
func (r *Registry) Write(w io.Writer) error {
	r.mu.Lock()
	fams := append([]*family(nil), r.fam...)
	r.mu.Unlock()
	sort.Slice(fams, func(i, k int) bool { return fams[i].name < fams[k].name })

	var b strings.Builder
	for _, f := range fams {
		fmt.Fprintf(&b, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.typ)
		switch {
		case f.hist != nil:
			writeHistogram(&b, f.name, f.hist)
		case f.collect != nil:
			type sample struct {
				labels string
				v      float64
			}
			var samples []sample
			f.collect(func(values []string, v float64) {
				samples = append(samples, sample{labelString(f.labels, values), v})
			})
			sort.Slice(samples, func(i, k int) bool { return samples[i].labels < samples[k].labels })
			for _, s := range samples {
				fmt.Fprintf(&b, "%s%s %s\n", f.name, s.labels, formatValue(s.v))
			}
		default:
			f.mu.Lock()
			keys := make([]string, 0, len(f.counters))
			for k := range f.counters {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				var values []string
				if k != "" || len(f.labels) > 0 {
					values = strings.Split(k, labelSep)
				}
				fmt.Fprintf(&b, "%s%s %s\n", f.name, labelString(f.labels, values), formatValue(float64(f.counters[k].Value())))
			}
			f.mu.Unlock()
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func writeHistogram(b *strings.Builder, name string, h *Histogram) {
	cum := uint64(0)
	for i, bound := range h.bounds {
		cum += h.counts[i].Load()
		fmt.Fprintf(b, "%s_bucket{le=%q} %d\n", name, formatValue(bound), cum)
	}
	cum += h.counts[len(h.bounds)].Load()
	fmt.Fprintf(b, "%s_bucket{le=\"+Inf\"} %d\n", name, cum)
	fmt.Fprintf(b, "%s_sum %s\n", name, formatValue(math.Float64frombits(h.sum.Load())))
	fmt.Fprintf(b, "%s_count %d\n", name, h.count.Load())
}

// formatValue renders floats the way Prometheus expects: integers
// without a decimal point, everything else in shortest round-trip form.
func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

func labelString(names, values []string) string {
	if len(names) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		v := ""
		if i < len(values) {
			v = values[i]
		}
		// Go's %q escapes backslash, quote, and newline exactly as the
		// exposition format's label-value escaping defines.
		fmt.Fprintf(&b, "%s=%q", n, v)
	}
	b.WriteByte('}')
	return b.String()
}

func escapeHelp(h string) string {
	h = strings.ReplaceAll(h, `\`, `\\`)
	return strings.ReplaceAll(h, "\n", `\n`)
}
