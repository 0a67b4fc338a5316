package main

import (
	"math"
	"sort"
	"strings"
)

// stat summarizes one metric's samples. Value is the metric: the median,
// or for a metricDef with Best set the best sample. The quartiles and
// extremes are what -compare derives its spread from.
type stat struct {
	Unit   string  `json:"unit"`
	Value  float64 `json:"value"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	N      int     `json:"n"`
}

// summarize computes a stat over samples. Quartiles follow Python's
// statistics.quantiles(values, n=4), the rule the acceptance driver
// applies across runs; fewer than two samples have no spread.
func summarize(unit string, samples []float64) stat {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	st := stat{Unit: unit, N: len(s)}
	if len(s) == 0 {
		return st
	}
	st.Min, st.Max = s[0], s[len(s)-1]
	st.Median = quantile(s, 2)
	st.Q1, st.Q3 = quantile(s, 1), quantile(s, 3)
	st.Value = st.Median
	return st
}

// summarizeMetric is summarize with the value m asks for.
func summarizeMetric(m metricDef, samples []float64) stat {
	st := summarize(m.Unit, samples)
	switch {
	case !m.Best:
	case m.Better == "higher":
		st.Value = st.Max
	default:
		st.Value = st.Min
	}
	return st
}

// quantile returns the k-th quartile cut point of sorted s by the
// exclusive method: position k(n+1)/4, interpolated, clamped to the data.
func quantile(s []float64, k int) float64 {
	n := len(s)
	if n == 1 {
		return s[0]
	}
	pos := float64(k*(n+1))/4 - 1 // 0-based
	lo := int(math.Floor(pos))
	if lo < 0 {
		return s[0]
	}
	if lo >= n-1 {
		return s[n-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// spread is how far a run's samples leave the metric's value unresolved,
// as a share of the value: for a median the interquartile range; for a
// best sample the reach of the best quarter of the samples, which is
// small when several iterations ran as fast as the fastest and large when
// the whole run was disturbed.
func (s stat) spread(m metricDef) float64 {
	if s.Value == 0 {
		return 0
	}
	d := s.Q3 - s.Q1
	switch {
	case !m.Best:
	case m.Better == "higher":
		d = s.Max - s.Q3
	default:
		d = s.Q1 - s.Min
	}
	return d / math.Abs(s.Value)
}

// percentile returns the p-th percentile (0–100) of samples by nearest rank.
func percentile(samples []float64, p float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	i := int(math.Ceil(p/100*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func joinKeys(m map[string]bool) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return strings.Join(keys, ", ")
}
