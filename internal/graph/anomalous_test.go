package graph

import (
	"fmt"
	"sort"
	"strings"
	"testing"
)

// sigCycle builds a cycle visiting the given nodes in order (closing
// back to the first), all via WW.
func sigCycle(nodes ...int) Cycle {
	var c Cycle
	for i, n := range nodes {
		to := nodes[(i+1)%len(nodes)]
		c.Steps = append(c.Steps, Step{From: n, To: to, Label: WW.Mask(), Via: WW})
	}
	return c
}

func TestSigOfMatchesCycleKey(t *testing.T) {
	cases := [][]int{
		{1},
		{1, 2},
		{3, 1, 2},
		{9, 8, 7, 6, 5, 4, 3, 2},    // exactly 8: inline
		{9, 8, 7, 6, 5, 4, 3, 2, 1}, // 9: spills
		{10, 20, 30, 40, 50, 60, 70, 80, 90, 100},
	}
	seenSig := map[cycleSig]int{}
	seenKey := map[string]int{}
	for i, nodes := range cases {
		seenSig[sigOf(sigCycle(nodes...))] = i
		seenKey[CycleKey(sigCycle(nodes...))] = i
	}
	if len(seenSig) != len(seenKey) {
		t.Fatalf("cycleSig dedup (%d) disagrees with CycleKey dedup (%d)", len(seenSig), len(seenKey))
	}
	// Same node set in a different rotation must collide under both.
	if sigOf(sigCycle(3, 1, 2)) != sigOf(sigCycle(1, 2, 3)) {
		t.Fatal("rotations of one cycle got distinct signatures")
	}
	if sigOf(sigCycle(1, 2)) == sigOf(sigCycle(1, 3)) {
		t.Fatal("distinct node sets collided")
	}
	// A spilled signature must never collide with an inline one.
	if sigOf(sigCycle(9, 8, 7, 6, 5, 4, 3, 2, 1)).n != -1 {
		t.Fatal("9-step cycle did not spill")
	}
}

// TestSigOfAllocs pins the hot-path guarantee: deduplicating a cycle of
// up to eight steps allocates nothing, where the string CycleKey form
// builds a fresh key per candidate.
func TestSigOfAllocs(t *testing.T) {
	c := sigCycle(5, 3, 8, 1, 6, 2, 7, 4)
	seen := map[cycleSig]bool{}
	seen[sigOf(c)] = true
	if allocs := testing.AllocsPerRun(1000, func() {
		if !seen[sigOf(c)] {
			t.Error("signature not found")
		}
	}); allocs != 0 {
		t.Fatalf("sigOf dedup allocates %v per run, want 0", allocs)
	}
}

// TestCycleKeyMatchesFmtForm pins CycleKey's bytes to the fmt form it
// replaced, on cycles of 1–12 steps: inline-signature lengths and the
// spill path past eight.
func TestCycleKeyMatchesFmtForm(t *testing.T) {
	fmtKey := func(c Cycle) string {
		nodes := c.Nodes()
		sort.Ints(nodes)
		var b strings.Builder
		for _, n := range nodes {
			fmt.Fprintf(&b, "%d,", n)
		}
		return b.String()
	}
	for n := 1; n <= 12; n++ {
		nodes := make([]int, n)
		for i := range nodes {
			nodes[i] = (i*7919 + 13) % 100003 * (1 + i%3) // unsorted, mixed widths
		}
		nodes[n-1] = 0
		c := sigCycle(nodes...)
		if got, want := CycleKey(c), fmtKey(c); got != want {
			t.Errorf("%d steps: CycleKey = %q, want %q", n, got, want)
		}
	}
}
