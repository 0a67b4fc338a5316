package main

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/casestudy"
	"repro/internal/nemesis"
)

func TestSingleCampaign(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-db", "fauna", "-txns", "600", "-clients", "8"}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit = %d\n%s\n%s", code, out.String(), errb.String())
	}
	for _, want := range []string{"fauna", "§7.3", "internal", "reproduced"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
}

func TestAllCampaigns(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-txns", "800"}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit = %d\n%s", code, out.String())
	}
	for _, want := range []string{"tidb", "yugabyte", "fauna", "dgraph"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("campaign %q missing from output", want)
		}
	}
}

func TestVerboseExplanations(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-db", "tidb", "-txns", "400", "-v"}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit = %d", code)
	}
	if !strings.Contains(out.String(), "--- anomaly") {
		t.Errorf("verbose output missing explanations:\n%s", out.String())
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

func TestDBAndCampaignExclusive(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-db", "tidb", "-campaign", "g1a"}, &out, &errb); code != 2 {
		t.Fatalf("exit = %d, want 2", code)
	}
	if !strings.Contains(errb.String(), "mutually exclusive") {
		t.Errorf("stderr = %q", errb.String())
	}
}

// TestNegativeMemoryBudget: a negative budget is refused in every mode,
// not run unbudgeted.
func TestNegativeMemoryBudget(t *testing.T) {
	for _, args := range [][]string{
		{"-mem-budget", "-5"},
		{"-campaign", "g1a", "-stream", "-mem-budget", "-5"},
		{"-db", "tidb", "-mem-budget", "-1"},
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

func TestUnknownDatabase(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-db", "oracle"}, &out, &errb); code != 2 {
		t.Fatalf("exit = %d, want 2", code)
	}
	if !strings.Contains(errb.String(), "unknown database") {
		t.Errorf("stderr = %q", errb.String())
	}
	// The offered campaign list is derived from the scenario table, not
	// hard-coded.
	for _, name := range casestudy.Names() {
		if !strings.Contains(errb.String(), name) {
			t.Errorf("error message missing campaign %q:\n%s", name, errb.String())
		}
	}
}
