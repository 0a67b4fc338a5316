package main

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/nemesis"
)

func TestSingleCampaign(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-campaign", "fauna", "-txns", "600", "-clients", "8"}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit = %d\n%s\n%s", code, out.String(), errb.String())
	}
	for _, want := range []string{"PASS", "fauna", "internal×"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
	if strings.Count(out.String(), "\n") != 1 {
		t.Errorf("want one verdict line:\n%s", out.String())
	}
}

// TestAllCampaigns: with no -campaign, the whole table runs, §7 case
// studies included.
func TestAllCampaigns(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-txns", "800"}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit = %d\n%s", code, out.String())
	}
	for _, c := range nemesis.Campaigns() {
		if !strings.Contains(out.String(), c.Name) {
			t.Errorf("campaign %q missing from output", c.Name)
		}
	}
}

// TestVerboseExplanations: -v follows a verdict line with every
// anomaly's explanation, in any campaign.
func TestVerboseExplanations(t *testing.T) {
	for _, name := range []string{"tidb", "g1a"} {
		var out, errb bytes.Buffer
		code := run([]string{"-campaign", name, "-txns", "400", "-v"}, &out, &errb)
		if code != 0 {
			t.Fatalf("%s: exit = %d", name, code)
		}
		if !strings.HasPrefix(out.String(), "PASS "+name) || !strings.Contains(out.String(), "\n--- anomaly 1: ") {
			t.Errorf("%s: verbose output missing explanations:\n%s", name, out.String())
		}
	}
}

func TestNemesisAllCampaigns(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-campaign", "all", "-txns", "600"}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit = %d\n%s\n%s", code, out.String(), errb.String())
	}
	for _, c := range nemesis.Campaigns() {
		if !strings.Contains(out.String(), c.Name) {
			t.Errorf("campaign %q missing from output:\n%s", c.Name, out.String())
		}
	}
	if strings.Contains(out.String(), "FAIL") {
		t.Errorf("campaign table reports failures:\n%s", out.String())
	}
}

func TestNemesisJSONDeterministic(t *testing.T) {
	render := func() string {
		var out, errb bytes.Buffer
		code := run([]string{"-campaign", "all", "-txns", "600", "-json"}, &out, &errb)
		if code != 0 {
			t.Fatalf("exit = %d\n%s", code, errb.String())
		}
		return out.String()
	}
	a, b := render(), render()
	if a != b {
		t.Fatalf("same seed produced different verdict JSON:\n%s\n---\n%s", a, b)
	}
	for _, want := range []string{`"campaign"`, `"pass": true`, `"seed": 1`} {
		if !strings.Contains(a, want) {
			t.Errorf("JSON output missing %s:\n%s", want, a)
		}
	}
}

func TestNemesisList(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-list"}, &out, &errb); code != 0 {
		t.Fatalf("exit = %d", code)
	}
	for _, c := range nemesis.Campaigns() {
		if !strings.Contains(out.String(), c.Name) {
			t.Errorf("-list missing campaign %q", c.Name)
		}
	}
	for _, f := range nemesis.FaultCatalog() {
		if !strings.Contains(out.String(), f.Name) {
			t.Errorf("-list missing fault %q", f.Name)
		}
	}
}

func TestUnknownNemesisCampaign(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-campaign", "nosuch"}, &out, &errb); code != 2 {
		t.Fatalf("exit = %d, want 2", code)
	}
	if !strings.Contains(errb.String(), "unknown campaign") {
		t.Errorf("stderr = %q", errb.String())
	}
	for _, name := range nemesis.Names() {
		if !strings.Contains(errb.String(), name) {
			t.Errorf("error message missing campaign %q:\n%s", name, errb.String())
		}
	}
}

// TestNegativeMemoryBudget: a negative budget is refused in every mode,
// not run unbudgeted.
func TestNegativeMemoryBudget(t *testing.T) {
	for _, args := range [][]string{
		{"-mem-budget", "-5"},
		{"-campaign", "g1a", "-stream", "-mem-budget", "-5"},
		{"-campaign", "tidb", "-mem-budget", "-1"},
	} {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code != 2 {
			t.Errorf("%v: exit = %d, want 2", args, code)
		}
		if !strings.Contains(errb.String(), "-mem-budget must be >= 0") {
			t.Errorf("%v: stderr = %q", args, errb.String())
		}
		if out.Len() != 0 {
			t.Errorf("%v: ran anyway:\n%s", args, out.String())
		}
	}
}
