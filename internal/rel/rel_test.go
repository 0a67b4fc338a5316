package rel

import (
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/history"
	"repro/internal/op"
)

func rows(r Relation) [][]string {
	var out [][]string
	r.Each(func(t Tuple) bool {
		row := make([]string, len(t))
		for i, v := range t {
			row[i] = v.String()
		}
		out = append(out, row)
		return true
	})
	return out
}

func TestValueCompareAndString(t *testing.T) {
	if Compare(Int(1), Int(2)) >= 0 || Compare(Int(2), Int(1)) <= 0 || Compare(Int(2), Int(2)) != 0 {
		t.Fatal("int compare broken")
	}
	if Compare(Int(999), Str("a")) >= 0 || Compare(Str("a"), Int(999)) <= 0 {
		t.Fatal("ints must order before strings")
	}
	if Compare(Str("a"), Str("b")) >= 0 {
		t.Fatal("string compare broken")
	}
	for in, want := range map[Value]string{
		Int(-7):        "-7",
		Str("ww"):      "ww",
		Str("a b"):     `"a b"`,
		Str(""):        `""`,
		Str(`q"uo`):    `"q\"uo"`,
		Str("[1 2]"):   `"[1 2]"`,
		Str("nil"):     "nil",
		Int64(1 << 40): "1099511627776",
	} {
		if got := in.String(); got != want {
			t.Errorf("String(%#v) = %q, want %q", in, got, want)
		}
	}
	if Str("5").Equal(Int(5)) {
		t.Fatal("typed values must not cross-compare equal")
	}
}

func TestOperators(t *testing.T) {
	r := FromRows([]string{"a", "b"}, []Tuple{
		{Int(1), Str("x")},
		{Int(2), Str("y")},
		{Int(1), Str("y")},
		{Int(1), Str("x")},
	})
	if got := rows(r.Select(func(t Tuple) bool { return t[1].Text() == "y" })); len(got) != 2 {
		t.Fatalf("Select: got %v", got)
	}
	if got := rows(r.Project("b")); !reflect.DeepEqual(got, [][]string{{"x"}, {"y"}, {"y"}, {"x"}}) {
		t.Fatalf("Project: got %v", got)
	}
	if got := rows(r.Project("b").Distinct()); !reflect.DeepEqual(got, [][]string{{"x"}, {"y"}}) {
		t.Fatalf("Distinct: got %v", got)
	}
	if got := rows(r.Sort()); !reflect.DeepEqual(got, [][]string{
		{"1", "x"}, {"1", "x"}, {"1", "y"}, {"2", "y"},
	}) {
		t.Fatalf("Sort: got %v", got)
	}
	// Unknown columns degrade to empty, never panic.
	if got := rows(r.Project("nope")); got != nil {
		t.Fatalf("Project unknown: got %v", got)
	}
}

func TestJoinOrderPreserving(t *testing.T) {
	left := FromRows([]string{"k", "l"}, []Tuple{
		{Int(2), Str("b")},
		{Int(1), Str("a")},
		{Int(2), Str("c")},
	})
	right := FromRows([]string{"k", "r"}, []Tuple{
		{Int(1), Str("p")},
		{Int(2), Str("q")},
		{Int(2), Str("s")},
	})
	got := rows(left.Join(right))
	want := [][]string{
		{"2", "b", "q"}, {"2", "b", "s"},
		{"1", "a", "p"},
		{"2", "c", "q"}, {"2", "c", "s"},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Join: got %v, want %v", got, want)
	}
	// No shared columns: cross product.
	cross := FromRows([]string{"x"}, []Tuple{{Int(1)}, {Int(2)}}).
		Join(FromRows([]string{"y"}, []Tuple{{Str("a")}}))
	if got := rows(cross); !reflect.DeepEqual(got, [][]string{{"1", "a"}, {"2", "a"}}) {
		t.Fatalf("cross Join: got %v", got)
	}
}

func TestIndexLookupJoin(t *testing.T) {
	r := FromRows([]string{"k", "v"}, []Tuple{
		{Str("x"), Int(1)},
		{Str("y"), Int(2)},
		{Str("x"), Int(3)},
	})
	ix := buildIndex(r, []string{"k"})
	if len(ix.buckets) != 2 {
		t.Fatalf("%d buckets", len(ix.buckets))
	}
	probe := FromRows([]string{"k"}, []Tuple{{Str("z")}, {Str("x")}})
	if got := rows(probe.lookupJoin(ix)); !reflect.DeepEqual(got, [][]string{
		{"x", "1"}, {"x", "3"},
	}) {
		t.Fatalf("lookupJoin: got %v", got)
	}
}

// TestIndexAcrossSlabs builds an index large enough to take the value
// and bucket slabs through every size they grow to: each bucket must
// hold exactly its tuples, in build order, with no slab region shared.
func TestIndexAcrossSlabs(t *testing.T) {
	const n, keys = 6000, 700
	tuples := make([]Tuple, n)
	want := map[int][]int{}
	for i := range tuples {
		k := i * 7919 % keys
		tuples[i] = Tuple{Int(k), Int(i), Str("pad")}
		want[k] = append(want[k], i)
	}
	ix := buildIndex(FromRows([]string{"k", "i", "pad"}, tuples), []string{"k"})
	if len(ix.buckets) != keys {
		t.Fatalf("%d buckets, want %d", len(ix.buckets), keys)
	}
	for k, is := range want {
		got := ix.buckets[string(appendKey(nil, Int(k)))]
		if len(got) != len(is) {
			t.Fatalf("key %d: %d tuples, want %d", k, len(got), len(is))
		}
		for j, tup := range got {
			if len(tup) != 3 || tup[0].Num() != int64(k) || tup[1].Num() != int64(is[j]) || tup[2].Text() != "pad" {
				t.Fatalf("key %d, tuple %d: %v, want [%d %d pad]", k, j, tup, k, is[j])
			}
		}
	}
}

// testHistory is a small compact list-append history with one aborted
// write observed by a later read (G1a-shaped).
func testHistory(t *testing.T) *history.History {
	t.Helper()
	h, err := history.New([]op.Op{
		op.Txn(0, 0, op.OK, op.Append("x", 1)),
		op.Txn(1, 1, op.Fail, op.Append("x", 2)),
		op.Txn(2, 0, op.OK, op.ReadList("x", []int{1, 2})),
	})
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestCatalogRelations(t *testing.T) {
	h := testHistory(t)
	g := graph.New()
	g.AddEdge(0, 2, graph.WR)
	g.AddEdge(0, 2, graph.WW)
	keys := history.NewInterner()
	keys.Intern("x")
	c := NewCatalog(Source{
		History:    h,
		Graph:      g,
		Keys:       keys,
		ListOrders: [][]int{{1, 2}},
	})

	if got := rows(c.Txns()); !reflect.DeepEqual(got, [][]string{
		{"0", "0", "0", "ok"},
		{"1", "1", "1", "fail"},
		{"2", "0", "2", "ok"},
	}) {
		t.Fatalf("txn: %v", got)
	}
	if got := rows(c.Mops()); !reflect.DeepEqual(got, [][]string{
		{"0", "x", "append", "1"},
		{"1", "x", "append", "2"},
		{"2", "x", "r", `"[1 2]"`},
	}) {
		t.Fatalf("mop: %v", got)
	}
	if got := rows(c.Deps()); !reflect.DeepEqual(got, [][]string{
		{"0", "2", "ww"},
		{"0", "2", "wr"},
	}) {
		t.Fatalf("dep: %v", got)
	}
	if got := rows(c.VersionOrder()); !reflect.DeepEqual(got, [][]string{
		{"x", "0", "1"},
		{"x", "1", "2"},
	}) {
		t.Fatalf("version_order: %v", got)
	}
	for _, name := range c.Names() {
		if _, ok := c.Relation(name); !ok {
			t.Fatalf("catalog missing %q", name)
		}
	}
	if _, ok := c.Relation("nope"); ok {
		t.Fatal("unknown relation resolved")
	}
	if _, ok := c.AnomalyAt(0); ok {
		t.Fatal("AnomalyAt on empty anomalies")
	}
}
