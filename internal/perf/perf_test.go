package perf

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

func TestGenerateHistorySizes(t *testing.T) {
	h := GenerateHistory(200, 5, 1)
	if got := len(h.Completions()); got != 200 {
		t.Errorf("completions = %d, want 200", got)
	}
	if h.Compact() {
		t.Error("perf histories must have invoke/completion structure")
	}
}

func TestSweepSmall(t *testing.T) {
	cfg := Config{
		Lengths:        []int{50, 100},
		Concurrencies:  []int{1, 4},
		BaselineCap:    5 * time.Second,
		BaselineMaxOps: 100,
		Seed:           1,
		Elle:           true,
		Baseline:       true,
	}
	var reported int
	points := Sweep(cfg, func(Point) { reported++ })
	// 2 lengths × 2 concurrencies × 2 checkers.
	if len(points) != 8 || reported != 8 {
		t.Fatalf("points = %d, reported = %d", len(points), reported)
	}
	for _, p := range points {
		switch p.Checker {
		case "elle":
			if p.Outcome != "valid" {
				t.Errorf("elle found anomalies on clean history: %+v", p)
			}
		case "knossos":
			if p.Outcome == "not-serializable" {
				t.Errorf("baseline rejected a clean history: %+v", p)
			}
		default:
			t.Errorf("unknown checker %q", p.Checker)
		}
		if p.Seconds < 0 {
			t.Errorf("negative runtime: %+v", p)
		}
	}
}

func TestBaselineMaxOpsSkips(t *testing.T) {
	cfg := Config{
		Lengths:        []int{50, 200},
		Concurrencies:  []int{2},
		BaselineCap:    time.Second,
		BaselineMaxOps: 100,
		Seed:           1,
		Baseline:       true,
	}
	points := Sweep(cfg, nil)
	for _, p := range points {
		if p.Checker == "knossos" && p.Ops > 100 {
			t.Errorf("baseline ran past its cap: %+v", p)
		}
	}
}

func TestWriteCSV(t *testing.T) {
	var buf bytes.Buffer
	row, err := StartCSV(&buf)
	if err == nil {
		err = row(Point{Checker: "elle", Ops: 10, Concurrency: 2, Seconds: 0.5, Outcome: "valid"})
	}
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("csv lines = %d", len(lines))
	}
	if !strings.HasPrefix(lines[0], "checker,ops") {
		t.Errorf("header = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "elle,10,2,0.5") {
		t.Errorf("row = %q", lines[1])
	}
}

// TestElleScalesLinearly is a smoke check of the Figure 4 claim at test
// scale: checking 8× more ops must not cost 100× more time (i.e. the
// checker is far from exponential).
func TestElleScalesNearLinearly(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	cfg := Config{
		Lengths:       []int{2000, 16000},
		Concurrencies: []int{10},
		Seed:          1,
		Elle:          true,
	}
	points := Sweep(cfg, nil)
	if len(points) != 2 {
		t.Fatalf("points = %d", len(points))
	}
	small, big := points[0], points[1]
	if big.Seconds > 0.01 && big.Seconds > small.Seconds*100 {
		t.Errorf("8× ops took %.1f× longer (%.4fs -> %.4fs)",
			big.Seconds/small.Seconds, small.Seconds, big.Seconds)
	}
}
