// Package report renders check results for machines and humans: the
// JSON shape CI pipelines consume, and the canonical prose rendering
// shared by `elle` and `elled` — one function, so a streamed service
// report is byte-identical to a batch CLI run by construction.
package report

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/history"
	"repro/internal/stats"
)

// Report is one check ready to render as JSON: the result as the
// checker produced it, the workload it ran, and the statistics of its
// history. Write turns each finding into text as it goes; nothing is
// copied into a JSON-shaped value first.
type Report struct {
	res      *core.CheckResult
	workload core.Workload
	hist     stats.Stats
}

// New assembles a Report from a check result and its history.
func New(h *history.History, workload core.Workload, res *core.CheckResult) Report {
	return Report{res: res, workload: workload, hist: stats.Compute(h)}
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
