package main

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/binhist"
	"repro/internal/consistency"
	"repro/internal/core"
	"repro/internal/jsonhist"
	"repro/internal/memdb"
	"repro/internal/nemesis"
	"repro/internal/workload"
)

func TestGenerateToStdout(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-txns", "50", "-clients", "3"}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit = %d: %s", code, errb.String())
	}
	h, err := jsonhist.Decode(&out, false)
	if err != nil {
		t.Fatalf("output is not a valid history: %v", err)
	}
	if got := len(h.Completions()); got != 50 {
		t.Errorf("completions = %d", got)
	}
	if !strings.Contains(errb.String(), "wrote") {
		t.Error("no summary on stderr")
	}
}

func TestGenerateToFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "h.jsonl")
	var out, errb bytes.Buffer
	code := run([]string{"-txns", "20", "-o", path}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit = %d: %s", code, errb.String())
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) == 0 {
		t.Fatal("file empty")
	}
	if out.Len() != 0 {
		t.Error("wrote to stdout despite -o")
	}
}

// TestFaultCampaignsAccepted: every documented -faults name generates,
// and so does every nemesis campaign and catalog fault by its own name.
func TestFaultCampaignsAccepted(t *testing.T) {
	names := append([]string{"none", "retry", "stale", "nilreads", "dup"}, nemesis.Names()...)
	for _, f := range nemesis.FaultCatalog() {
		names = append(names, f.Name)
	}
	for _, f := range names {
		var out, errb bytes.Buffer
		if code := run([]string{"-txns", "10", "-faults", f}, &out, &errb); code != 0 {
			t.Errorf("faults=%s: exit %d: %s", f, code, errb.String())
		}
	}
}

// TestFaultsResolveThroughNemesis: a campaign name generates exactly
// what its fault list does, an alias what its target does, and an
// explicit client-side flag overrides the plan's value.
func TestFaultsResolveThroughNemesis(t *testing.T) {
	generate := func(args ...string) string {
		t.Helper()
		var out, errb bytes.Buffer
		if code := run(append([]string{"-txns", "200", "-iso", "si"}, args...), &out, &errb); code != 0 {
			t.Fatalf("%v: exit %d: %s", args, code, errb.String())
		}
		return out.String()
	}
	if generate("-faults", "tidb") != generate("-faults", "retry") {
		t.Error("retry alias differs from tidb")
	}
	if generate("-faults", "stale") != generate("-faults", "stale-read") {
		t.Error("stale alias differs from stale-read")
	}
	if generate("-faults", "g1a") != generate("-faults", "abort") {
		t.Error("campaign g1a differs from its fault abort")
	}
	if generate("-faults", "abort") == generate("-faults", "none") {
		t.Error("abort fault changed nothing")
	}
	if generate("-faults", "abort", "-abort", "0") != generate("-faults", "none") {
		t.Error("-abort 0 did not override the abort fault")
	}
	if generate("-faults", "clock-skew", "-timestamps=false") == generate("-faults", "clock-skew") {
		t.Error("-timestamps=false did not override clock-skew's timestamps")
	}
}

// TestIsolationNames: every engine level is accepted by its String
// name, and a bad name lists them all.
func TestIsolationNames(t *testing.T) {
	for l := memdb.ReadUncommitted; l <= memdb.StrictSerializable; l++ {
		var out, errb bytes.Buffer
		if code := run([]string{"-txns", "10", "-iso", l.String()}, &out, &errb); code != 0 {
			t.Errorf("iso=%s: exit %d: %s", l, code, errb.String())
		}
		if !strings.Contains(errb.String(), ", "+l.String()+",") {
			t.Errorf("iso=%s: summary names another level: %s", l, errb.String())
		}
	}
	var out, errb bytes.Buffer
	if code := run([]string{"-iso", "bogus"}, &out, &errb); code != 2 {
		t.Fatalf("exit = %d, want 2", code)
	}
	for l := memdb.ReadUncommitted; l <= memdb.StrictSerializable; l++ {
		if !strings.Contains(errb.String(), l.String()) {
			t.Errorf("error message missing level %q:\n%s", l, errb.String())
		}
	}
}

func TestWorkloadsAccepted(t *testing.T) {
	// Every registered workload and the legacy aliases must generate.
	names := append(workload.Names(), "list", "register", "set")
	for _, w := range names {
		var out, errb bytes.Buffer
		if code := run([]string{"-txns", "10", "-workload", w, "-iso", "si"}, &out, &errb); code != 0 {
			t.Errorf("workload=%s: exit %d", w, code)
		}
	}
}

// TestUnknownWorkloadListsRegistry: a bad -workload names every valid
// choice, so the help can never drift from the registered set.
func TestUnknownWorkloadListsRegistry(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-workload", "bogus"}, &out, &errb); code != 2 {
		t.Fatalf("exit = %d, want 2", code)
	}
	for _, name := range workload.Names() {
		if !strings.Contains(errb.String(), name) {
			t.Errorf("error message missing workload %q:\n%s", name, errb.String())
		}
	}
}

// TestBankRoundTrip is the record/check pipeline end to end for the
// bank workload: ellegen (generator + engine + JSON encode) feeds the
// checker, and a clean serializable run reports no anomalies.
func TestBankRoundTrip(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-txns", "400", "-workload", "bank", "-iso", "serializable", "-seed", "3"}, &out, &errb)
	if code != 0 {
		t.Fatalf("generate failed: %s", errb.String())
	}
	h, err := jsonhist.Decode(&out, true)
	if err != nil {
		t.Fatal(err)
	}
	res := core.Check(h, core.OptsFor(core.Bank, consistency.Serializable))
	if len(res.Anomalies) != 0 {
		t.Fatalf("clean bank run reported %v\n%s",
			res.AnomalyTypes(), res.Anomalies[0].Explanation)
	}
	if !res.Valid {
		t.Fatal("clean bank run ruled out serializability")
	}
}

// TestFormatBinary: -format binary writes an ellebin stream — tagged by
// the magic byte — that decodes to exactly the history the default JSON
// run encodes.
func TestFormatBinary(t *testing.T) {
	var jsonOut, binOut, errb bytes.Buffer
	if code := run([]string{"-txns", "80", "-seed", "9"}, &jsonOut, &errb); code != 0 {
		t.Fatalf("json run: exit %d: %s", code, errb.String())
	}
	if code := run([]string{"-txns", "80", "-seed", "9", "-format", "binary"}, &binOut, &errb); code != 0 {
		t.Fatalf("binary run: exit %d: %s", code, errb.String())
	}
	if !binhist.IsMagic(binOut.Bytes()) {
		t.Fatal("binary output does not start with the ellebin magic")
	}
	hj, err := jsonhist.Decode(bytes.NewReader(jsonOut.Bytes()), false)
	if err != nil {
		t.Fatal(err)
	}
	hb, err := binhist.Decode(bytes.NewReader(binOut.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(hj.Ops, hb.Ops) {
		t.Fatalf("histories diverge across formats: %d vs %d ops", len(hj.Ops), len(hb.Ops))
	}
}

func TestBadArguments(t *testing.T) {
	cases := [][]string{
		{"-workload", "bogus"},
		{"-iso", "bogus"},
		{"-faults", "bogus"},
		{"-format", "yaml"},
		{"-o", "/nonexistent/dir/x.jsonl", "-txns", "5"},
	}
	for _, args := range cases {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code != 2 {
			t.Errorf("run(%v) exit = %d, want 2", args, code)
		}
	}
}

// TestPipelineEndToEnd: ellegen output feeds the checker and the verdict
// matches the injected faults.
func TestPipelineEndToEnd(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-txns", "800", "-iso", "si", "-faults", "tidb", "-seed", "7"}, &out, &errb)
	if code != 0 {
		t.Fatalf("generate failed: %s", errb.String())
	}
	h, err := jsonhist.Decode(&out, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(h.OKPositions()) == 0 {
		t.Fatal("no committed transactions")
	}
}
