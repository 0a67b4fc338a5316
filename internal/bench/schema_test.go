package bench

import (
	"bytes"
	"slices"
	"strings"
	"testing"
)

func sample() Result {
	return Result{
		Schema: SchemaVersion, GoVersion: "go1.24", GOOS: "linux", GOARCH: "amd64",
		CPUs: 1, Runs: 3,
		Benchmarks: []Point{
			{Name: "check-parallel/n=100000/p=1", Iterations: 2, NsPerOp: 1e9, AllocsPerOp: 2_000_000, BytesPerOp: 4e8},
			{Name: "decode/n=100000/p=1", Iterations: 3, NsPerOp: 5e8, AllocsPerOp: 1_000_000, BytesPerOp: 2e8, MBPerS: 40},
		},
	}
}

func TestResultRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := sample().Encode(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := DecodeResult(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Benchmarks) != 2 || back.Benchmarks[0].AllocsPerOp != 2_000_000 {
		t.Fatalf("round trip mangled result: %+v", back)
	}
}

func TestDecodeRejectsWrongSchema(t *testing.T) {
	if _, err := DecodeResult(strings.NewReader(`{"schema":"something-else"}`)); err == nil {
		t.Fatal("expected schema error")
	}
}

func TestCompareFlagsRegressions(t *testing.T) {
	base := sample()
	cur := sample()
	// 25% more allocations on the first bench: gates.
	cur.Benchmarks[0].AllocsPerOp = 2_500_000
	// 10% more on the second: within the 20% threshold.
	cur.Benchmarks[1].AllocsPerOp = 1_100_000

	regs, missing := Compare(base, cur, 0.20)
	if len(missing) != 0 {
		t.Fatalf("unexpected missing: %v", missing)
	}
	if len(regs) != 1 || regs[0].Name != "check-parallel/n=100000/p=1" {
		t.Fatalf("want one regression on check-parallel, got %v", regs)
	}
	if s := regs[0].String(); !strings.Contains(s, "allocs/op regressed") {
		t.Errorf("unhelpful rendering %q", s)
	}
}

// TestCompareGatesAllocsOnly: the gate reads the allocation figures,
// which repeat; ns/op alone never fails it, however far it moves.
func TestCompareGatesAllocsOnly(t *testing.T) {
	base := sample()
	slower := sample()
	slower.Benchmarks[0].NsPerOp *= 1.5
	if regs, _ := Compare(base, slower, 0.20); len(regs) != 0 {
		t.Fatalf("+50%% ns/op alone gated: %v", regs)
	}
	if tb := Table(base, slower); !strings.Contains(tb, "+50.0%") || !strings.Contains(tb, "not gated") {
		t.Errorf("table does not show the ns/op move as not gated:\n%s", tb)
	}
	heavier := sample()
	heavier.Benchmarks[0].AllocsPerOp = base.Benchmarks[0].AllocsPerOp * 121 / 100
	if regs, _ := Compare(base, heavier, 0.20); len(regs) != 1 {
		t.Fatalf("+21%% allocs/op: want one regression, got %v", regs)
	}
}

// TestCompareGatesBytes: B/op gates at the same threshold as allocs/op,
// for the same cases, and the table shows its move. A case that
// allocates as often but twice as much — a per-key slice kept alive, a
// second copy of the ops — fails the gate on bytes alone.
func TestCompareGatesBytes(t *testing.T) {
	base := sample()
	heavier := sample()
	heavier.Benchmarks[0].BytesPerOp = base.Benchmarks[0].BytesPerOp * 121 / 100
	regs, _ := Compare(base, heavier, 0.20)
	if len(regs) != 1 || regs[0].Name != "check-parallel/n=100000/p=1" || regs[0].Metric != "B/op" {
		t.Fatalf("+21%% B/op: want one B/op regression on check-parallel, got %v", regs)
	}
	if s := regs[0].String(); !strings.Contains(s, "B/op regressed") {
		t.Errorf("unhelpful rendering %q", s)
	}
	if tb := Table(base, heavier); !strings.Contains(tb, "+21.0%") || !strings.Contains(tb, "B/op") {
		t.Errorf("table does not show the B/op move:\n%s", tb)
	}
	within := sample()
	within.Benchmarks[0].BytesPerOp = base.Benchmarks[0].BytesPerOp * 119 / 100
	if regs, _ := Compare(base, within, 0.20); len(regs) != 0 {
		t.Fatalf("+19%% B/op gated: %v", regs)
	}
	// decode gates like every other case: twice its B/op is a regression.
	doubled := sample()
	doubled.Benchmarks[1].BytesPerOp *= 2
	if regs, _ := Compare(base, doubled, 0.20); len(regs) != 1 || regs[0].Name != "decode/n=100000/p=1" || regs[0].Metric != "B/op" {
		t.Fatalf("doubled decode B/op: want one B/op regression on decode, got %v", regs)
	}
}

func TestCompareImprovementsPass(t *testing.T) {
	base := sample()
	cur := sample()
	cur.Benchmarks[0].NsPerOp *= 0.5
	cur.Benchmarks[0].AllocsPerOp /= 2
	regs, _ := Compare(base, cur, 0.20)
	if len(regs) != 0 {
		t.Fatalf("improvement flagged as regression: %v", regs)
	}
}

func TestCompareReportsMissing(t *testing.T) {
	base := sample()
	cur := sample()
	cur.Benchmarks = cur.Benchmarks[:1]
	cur.Benchmarks = append(cur.Benchmarks, Point{Name: "brand-new-case", NsPerOp: 1})
	regs, missing := Compare(base, cur, 0.20)
	if len(regs) != 0 {
		t.Fatalf("missing cases must not gate: %v", regs)
	}
	if len(missing) != 2 {
		t.Fatalf("want 2 missing notes, got %v", missing)
	}
}

func TestTableRendersEveryBench(t *testing.T) {
	tb := Table(sample(), sample())
	for _, want := range []string{"check-parallel/n=100000/p=1", "decode/n=100000/p=1", "+0.0%"} {
		if !strings.Contains(tb, want) {
			t.Errorf("table missing %q:\n%s", want, tb)
		}
	}
}

// TestTableAlignsLongNames: a case name longer than the default name
// column widens it, so every row's separators sit where the header's do.
func TestTableAlignsLongNames(t *testing.T) {
	long := "check-stream-bounded/n=100000/w=4096/p=1" // 40 characters
	base := Result{Benchmarks: []Point{
		{Name: "decode/n=100000/p=1", NsPerOp: 100, AllocsPerOp: 10, BytesPerOp: 1000},
		{Name: long, NsPerOp: 100, AllocsPerOp: 10, BytesPerOp: 1000},
	}}
	cur := base
	cur.Benchmarks = append(slices.Clone(base.Benchmarks), Point{Name: long + "/new", NsPerOp: 1, AllocsPerOp: 1, BytesPerOp: 1})
	bars := func(line string) []int {
		var at []int
		for i, r := range []rune(line) {
			if r == '|' {
				at = append(at, i)
			}
		}
		return at
	}
	lines := strings.Split(strings.TrimSuffix(Table(base, cur), "\n"), "\n")
	want := bars(lines[0])
	if len(want) != 2 || len(lines) != 5 {
		t.Fatalf("unexpected table shape:\n%s", strings.Join(lines, "\n"))
	}
	for _, l := range lines[1:] {
		if got := bars(l); !slices.Equal(got, want) {
			t.Errorf("separators at %v, header's at %v:\n%s\n%s", got, want, lines[0], l)
		}
	}
}

func TestCasesAreNamedAndFindable(t *testing.T) {
	cases := Cases()
	if len(cases) < 5 {
		t.Fatalf("suite shrank to %d cases", len(cases))
	}
	seen := map[string]bool{}
	for _, c := range cases {
		if c.Name == "" || c.F == nil {
			t.Fatalf("malformed case %+v", c)
		}
		if seen[c.Name] {
			t.Fatalf("duplicate case name %s", c.Name)
		}
		seen[c.Name] = true
		if _, ok := Find(c.Name); !ok {
			t.Fatalf("Find(%s) failed", c.Name)
		}
	}
	if _, ok := Find("no-such-case"); ok {
		t.Fatal("Find invented a case")
	}
}
