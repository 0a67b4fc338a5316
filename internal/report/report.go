// Package report renders check results for machines and humans: the
// JSON shape CI pipelines consume, and the canonical prose rendering
// shared by `elle` and `elled` — one function, so a streamed service
// report is byte-identical to a batch CLI run by construction.
package report

import (
	"fmt"
	"io"

	"repro/internal/anomaly"
	"repro/internal/core"
	"repro/internal/history"
	"repro/internal/stats"
)

// Report is the JSON shape of one check.
type Report struct {
	Valid    bool     `json:"valid"`
	Expected string   `json:"expected_model"`
	Workload string   `json:"workload"`
	Violated []string `json:"violated_models"`
	// Strongest lists the maximal models the observation may satisfy.
	Strongest []string  `json:"strongest_models"`
	Anomalies []Anomaly `json:"anomalies"`
	History   History   `json:"history"`
	Graph     Graph     `json:"graph"`
}

// Anomaly is one finding.
type Anomaly struct {
	Type string `json:"type"`
	Key  string `json:"key,omitempty"`
	// Txns lists the transactions involved (cycle nodes or directly
	// implicated ops), by op index.
	Txns []int `json:"txns,omitempty"`
	// Cycle renders the witness as "T1 -rw-> T2 -ww-> T1" when present.
	Cycle string `json:"cycle,omitempty"`
	// K is the certified minimal k of a k-atomicity violation.
	K           int    `json:"k,omitempty"`
	Explanation string `json:"explanation,omitempty"`
}

// History carries the history statistics.
type History struct {
	Ops           int `json:"ops"`
	Attempts      int `json:"attempts"`
	Committed     int `json:"committed"`
	Aborted       int `json:"aborted"`
	Indeterminate int `json:"indeterminate"`
	Processes     int `json:"processes"`
	Keys          int `json:"keys"`
	MaxConcurrent int `json:"max_concurrent"`
}

// Graph carries the dependency-graph statistics.
type Graph struct {
	Nodes int `json:"nodes"`
	Edges int `json:"edges"`
	SCCs  int `json:"cyclic_components"`
}

// New assembles a Report from a check result and its history.
func New(h *history.History, workload core.Workload, res *core.CheckResult) Report {
	st := stats.Compute(h)
	r := Report{
		Valid:    res.Valid,
		Expected: string(res.Expected),
		Workload: workload.String(),
		History: History{
			Ops:           st.Ops,
			Attempts:      st.Attempts,
			Committed:     st.Committed,
			Aborted:       st.Aborted,
			Indeterminate: st.Indeterminate,
			Processes:     st.Processes,
			Keys:          st.Keys,
			MaxConcurrent: st.MaxConcurrent,
		},
		Graph: Graph{
			Nodes: res.Stats.Nodes,
			Edges: res.Stats.Edges,
			SCCs:  res.Stats.SCCs,
		},
	}
	for _, m := range res.Violated {
		r.Violated = append(r.Violated, string(m))
	}
	for _, m := range res.Strongest {
		r.Strongest = append(r.Strongest, string(m))
	}
	if len(res.Anomalies) > 0 {
		r.Anomalies = make([]Anomaly, len(res.Anomalies))
		for i, a := range res.Anomalies {
			r.Anomalies[i] = FromAnomaly(a)
		}
	}
	return r
}

// FromAnomaly converts one detected anomaly to its JSON shape — shared
// by the full Report and by elled's status endpoint, which exposes
// provisional mid-stream findings in the same form.
func FromAnomaly(a anomaly.Anomaly) Anomaly {
	ra := Anomaly{
		Type:        string(a.Type),
		Key:         a.Key,
		K:           a.K,
		Explanation: a.Explanation,
	}
	if len(a.Cycle.Steps) > 0 {
		ra.Cycle = a.Cycle.String()
		ra.Txns = a.Cycle.Nodes()
	} else if len(a.Ops) > 0 {
		ra.Txns = make([]int, len(a.Ops))
		for i, o := range a.Ops {
			ra.Txns[i] = o.Index
		}
	}
	return ra
}

// ProseOpts tunes the human-readable rendering.
type ProseOpts struct {
	// Quiet prints only the verdict summary, no anomaly sections.
	Quiet bool
	// DOT appends a Graphviz rendering to each cycle witness.
	DOT bool
}

// Prose writes the human-readable report: the verdict summary followed
// by one section per anomaly with its explanation. It is the single
// rendering used by `elle` (batch and -follow) and `elled`'s report
// endpoint, which is what makes their outputs byte-identical for the
// same history and options.
func Prose(w io.Writer, res *core.CheckResult, o ProseOpts) {
	fmt.Fprint(w, res.Summary())
	if o.Quiet {
		return
	}
	for i, a := range res.Anomalies {
		fmt.Fprintf(w, "\n--- anomaly %d: %s ---\n", i+1, a.Type)
		if a.Explanation != "" {
			fmt.Fprintln(w, a.Explanation)
		}
		if o.DOT && len(a.Cycle.Steps) > 0 {
			fmt.Fprintln(w, res.Explainer.DOT(a.Cycle))
		}
	}
}
