package report

import (
	"bytes"
	"io"
	"slices"
	"testing"

	"repro/internal/binhist"
	"repro/internal/consistency"
	"repro/internal/core"
	"repro/internal/history"
	"repro/internal/jsonhist"
	"repro/internal/memdb"
	"repro/internal/nemesis"
)

// TestDecodedListsAreReadOnly holds every consumer of a decoded history
// to the contract on op.Mop.List: both decoders hand a key's list reads
// out as windows of one shared trace, so a consumer that wrote into one
// list would change the others. A clean and a faulted history of each
// list workload (list-append and set-add), each decoded from JSON and
// from ellebin, go through the batch check at parallelism 1 and 8, a
// streaming session with and without a memory budget, the JSON report
// and a query; every list must come out as it went in.
func TestDecodedListsAreReadOnly(t *testing.T) {
	for _, c := range readOnlyCampaigns(t) {
		name := c.Name
		// Unchecked: a checker that wrote into lists must not have run
		// over the source before its snapshot.
		h, err := nemesis.Generate(c, nemesis.Config{Seed: 1, Txns: 800})
		if err != nil {
			t.Fatal(err)
		}
		want := snapshotLists(h)
		var js, bin bytes.Buffer
		if err := jsonhist.Encode(&js, h); err != nil {
			t.Fatal(err)
		}
		if err := binhist.Encode(&bin, h); err != nil {
			t.Fatal(err)
		}
		for format, decode := range map[string]func() (*history.History, error){
			"json":    func() (*history.History, error) { return jsonhist.Decode(bytes.NewReader(js.Bytes()), false) },
			"ellebin": func() (*history.History, error) { return binhist.Decode(bytes.NewReader(bin.Bytes())) },
		} {
			dh, err := decode()
			if err != nil {
				t.Fatalf("%s %s: %v", name, format, err)
			}
			if n := sharedLists(dh); n == 0 {
				t.Fatalf("%s %s: no two reads share a list; the test checks nothing", name, format)
			}
			// The decoders first: a write below a trace's length while
			// decoding changes a read decoded before it.
			sameLists(t, name+" "+format+" decoded", dh, want)
			exercise(t, dh, core.Workload(c.Workload))
			sameLists(t, name+" "+format+" checked", dh, want)
		}
	}
}

// readOnlyCampaigns returns the campaigns TestDecodedListsAreReadOnly
// decodes: list-append's clean run and the tidb campaign, and set-add's
// clean run and a faulted one of its own, since no campaign plants
// faults in a set-add run. Set-add's cycle search is slow, so its runs
// are shorter.
func readOnlyCampaigns(t *testing.T) []nemesis.Campaign {
	var cs []nemesis.Campaign
	for _, name := range []string{"clean-list-append", "tidb", "clean-set-add"} {
		c, ok := nemesis.Find(name)
		if !ok {
			t.Fatalf("no campaign %q", name)
		}
		cs = append(cs, c)
	}
	cs[2].Txns = 400
	faulted := cs[2]
	faulted.Name, faulted.Isolation, faulted.ExpectClean = "faulted-set-add", memdb.SnapshotIsolation, false
	faulted.Faults = []string{"stale-read", "abort"}
	return append(cs, faulted)
}

// snapshotLists deep-copies every mop's list, by op and mop position.
func snapshotLists(h *history.History) [][][]int {
	out := make([][][]int, len(h.Ops))
	for i, o := range h.Ops {
		out[i] = make([][]int, len(o.Mops))
		for j, m := range o.Mops {
			if m.List != nil {
				out[i][j] = append([]int{}, m.List...)
			}
		}
	}
	return out
}

// sameLists fails unless every list of h equals its snapshot.
func sameLists(t *testing.T, what string, h *history.History, want [][][]int) {
	t.Helper()
	for i, o := range h.Ops {
		for j, m := range o.Mops {
			if w := want[i][j]; (m.List == nil) != (w == nil) || !slices.Equal(m.List, w) {
				t.Fatalf("%s: op %d mop %d reads %v, want %v", what, o.Index, j, m.List, w)
			}
		}
	}
}

// sharedLists counts the lists whose first element is the memory of an
// earlier list's.
func sharedLists(h *history.History) int {
	seen := map[*int]bool{}
	shared := 0
	for _, o := range h.Ops {
		for _, m := range o.Mops {
			if len(m.List) > 0 {
				if seen[&m.List[0]] {
					shared++
				}
				seen[&m.List[0]] = true
			}
		}
	}
	return shared
}

// exercise runs every consumer of a checked history over h.
func exercise(t *testing.T, h *history.History, w core.Workload) {
	t.Helper()
	opts := core.OptsFor(w, consistency.StrictSerializable)
	var res *core.CheckResult
	for _, p := range []int{1, 8} {
		opts.Parallelism = p
		res = core.Check(h, opts)
	}
	for _, budget := range []int{0, 64} {
		opts.Parallelism, opts.MemoryBudget = 1, budget
		s := core.CheckStream(opts)
		for start := 0; start < len(h.Ops); start += 100 {
			if _, err := s.Feed(h.Ops[start:min(start+100, len(h.Ops))]); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := s.Finish(); err != nil {
			t.Fatal(err)
		}
	}
	if err := New(h, w, res).Write(io.Discard); err != nil {
		t.Fatal(err)
	}
	if _, err := res.Query(h, "(dep ?a ?b ?k)"); err != nil {
		t.Fatal(err)
	}
}
