package bench

import (
	"bytes"
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
	// 25% slower and 25% more allocations on the first bench: both gate.
	cur.Benchmarks[0].NsPerOp *= 1.25
	cur.Benchmarks[0].AllocsPerOp = 2_500_000
	// 10% slower on the second: within the 20% threshold.
	cur.Benchmarks[1].NsPerOp *= 1.10

	regs, missing := Compare(base, cur, 0.20)
	if len(missing) != 0 {
		t.Fatalf("unexpected missing: %v", missing)
	}
	if len(regs) != 2 {
		t.Fatalf("want 2 regressions, got %v", regs)
	}
	for _, r := range regs {
		if r.Name != "check-parallel/n=100000/p=1" {
			t.Errorf("regression on wrong bench: %v", r)
		}
		if s := r.String(); !strings.Contains(s, "regressed") {
			t.Errorf("unhelpful rendering %q", s)
		}
	}
}

// TestCompareSkipsUngatedAllocs: decode's allocs/op depend on what its
// buffer pool kept, so only its ns/op gate.
func TestCompareSkipsUngatedAllocs(t *testing.T) {
	base := sample()
	cur := sample()
	cur.Benchmarks[1].AllocsPerOp *= 2
	if regs, _ := Compare(base, cur, 0.20); len(regs) != 0 {
		t.Fatalf("decode allocs/op gated: %v", regs)
	}
	if tb := Table(base, cur); !strings.Contains(tb, "ungated") {
		t.Errorf("table does not mark decode's allocs/op ungated:\n%s", tb)
	}
	cur.Benchmarks[1].NsPerOp *= 1.5
	if regs, _ := Compare(base, cur, 0.20); len(regs) != 1 || regs[0].Metric != "ns/op" {
		t.Fatalf("want decode's ns/op regression alone, got %v", regs)
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
