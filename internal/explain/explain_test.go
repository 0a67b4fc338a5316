package explain

import (
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/history"
	"repro/internal/op"
)

func fixture() (*Explainer, graph.Cycle) {
	// The TiDB §7.1 trio: T1 -rw-> T2 -ww-> T1.
	t1 := op.Txn(1, 1, op.OK,
		op.ReadList("34", []int{2, 1}), op.Append("36", 5), op.Append("34", 4))
	t2 := op.Txn(2, 2, op.OK, op.Append("34", 5))
	t3 := op.Txn(3, 3, op.OK, op.ReadList("34", []int{2, 1, 5, 4}))
	keys := history.NewInterner()
	orders := make([][]int, 1)
	orders[keys.Intern("34")] = []int{2, 1, 5, 4}
	e := &Explainer{
		Ops:        map[int]op.Op{1: t1, 2: t2, 3: t3},
		Keys:       keys,
		ListOrders: orders,
	}
	c := graph.Cycle{Steps: []graph.Step{
		{From: 1, To: 2, Via: graph.RW},
		{From: 2, To: 1, Via: graph.WW},
	}}
	return e, c
}

func TestCycleExplanationFormat(t *testing.T) {
	e, c := fixture()
	got := e.Cycle(c)
	for _, want := range []string{
		"Let:",
		"Then:",
		"T1(ok): r(34, [2 1]), append(36, 5), append(34, 4)",
		"T1 < T2, because T1 did not observe T2's append of 5 to key 34",
		"However, T2 < T1, because T1 appended 4 after T2 appended 5 to key 34: a contradiction!",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("explanation missing %q:\n%s", want, got)
		}
	}
}

func TestWRReason(t *testing.T) {
	e, _ := fixture()
	s := graph.Step{From: 2, To: 3, Via: graph.WR}
	got := e.edgeReason(s)
	if !strings.Contains(got, "T3 observed T2's append of 5 to key 34") {
		t.Errorf("wr reason = %q", got)
	}
}

func TestRegisterWRReason(t *testing.T) {
	w := op.Txn(0, 0, op.OK, op.Write("x", 7))
	r := op.Txn(1, 1, op.OK, op.ReadReg("x", 7))
	e := &Explainer{Ops: map[int]op.Op{0: w, 1: r}}
	got := e.edgeReason(graph.Step{From: 0, To: 1, Via: graph.WR})
	if !strings.Contains(got, "T1 observed T0's write of 7 to key x") {
		t.Errorf("register wr reason = %q", got)
	}
}

func TestOrderingReasons(t *testing.T) {
	a := op.Txn(0, 3, op.OK)
	b := op.Txn(1, 3, op.OK)
	e := &Explainer{Ops: map[int]op.Op{0: a, 1: b}}
	if got := e.edgeReason(graph.Step{From: 0, To: 1, Via: graph.Process}); !strings.Contains(got, "process 3 executed") {
		t.Errorf("process reason = %q", got)
	}
	if got := e.edgeReason(graph.Step{From: 0, To: 1, Via: graph.Realtime}); !strings.Contains(got, "completed before") {
		t.Errorf("realtime reason = %q", got)
	}
}

func TestFallbackReasons(t *testing.T) {
	// Ops with no identifiable witness still get generic prose.
	a := op.Txn(0, 0, op.OK)
	b := op.Txn(1, 1, op.OK)
	e := &Explainer{Ops: map[int]op.Op{0: a, 1: b}}
	cases := map[graph.Kind]string{
		graph.WR: "read a version",
		graph.RW: "overwrote",
		graph.WW: "overwrote a version",
	}
	for kind, want := range cases {
		got := e.edgeReason(graph.Step{From: 0, To: 1, Via: kind})
		if !strings.Contains(got, want) {
			t.Errorf("%v fallback = %q, want substring %q", kind, got, want)
		}
	}
}

func TestDOT(t *testing.T) {
	e, c := fixture()
	dot := e.DOT(c)
	for _, want := range []string{
		"digraph elle",
		`t1 -> t2 [label="rw"]`,
		`t2 -> t1 [label="ww"]`,
		"append(34, 5)",
	} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT missing %q:\n%s", want, dot)
		}
	}
}

func TestDOTEscapesQuotes(t *testing.T) {
	o := op.Txn(0, 0, op.OK, op.Append(`k"ey`, 1))
	e := &Explainer{Ops: map[int]op.Op{0: o}}
	c := graph.Cycle{Steps: []graph.Step{
		{From: 0, To: 0, Via: graph.WW},
	}}
	dot := e.DOT(c)
	if strings.Contains(dot, `k"ey`) && !strings.Contains(dot, `k\"ey`) {
		t.Errorf("unescaped quote in DOT:\n%s", dot)
	}
}

func TestUnknownNodeName(t *testing.T) {
	e := &Explainer{Ops: map[int]op.Op{}}
	if got := e.name(42); got != "T42" {
		t.Errorf("name(42) = %q", got)
	}
}

func TestRegisterRWReason(t *testing.T) {
	r := op.Txn(1, 1, op.OK, op.ReadNil("2434"))
	w := op.Txn(2, 2, op.OK, op.Write("2434", 10))
	keys := history.NewInterner()
	regOrders := make([][][2]string, 1)
	regOrders[keys.Intern("2434")] = [][2]string{{"nil", "10"}}
	e := &Explainer{
		Ops:       map[int]op.Op{1: r, 2: w},
		Keys:      keys,
		RegOrders: regOrders,
	}
	got := e.edgeReason(graph.Step{From: 1, To: 2, Via: graph.RW})
	if !strings.Contains(got, "T1 read key 2434 = nil, which T2 overwrote with 10") {
		t.Errorf("register rw reason = %q", got)
	}
}

// TestWWReason: a list ww edge is witnessed by the first adjacent pair of
// the name-smallest key both transactions appended to. Key "c" also
// holds an adjacent pair ending in T2's append, but T1 never appended to
// it, so it yields no witness — alone or ahead of the shared keys.
func TestWWReason(t *testing.T) {
	t1 := op.Txn(1, 1, op.OK, op.Append("b", 10), op.Append("a", 1), op.Append("a", 3))
	t2 := op.Txn(2, 2, op.OK, op.Append("c", 21), op.Append("b", 11), op.Append("a", 2), op.Append("a", 4))
	t3 := op.Txn(3, 3, op.OK, op.Append("c", 20))
	keys := history.NewInterner()
	orders := make([][]int, 3)
	orders[keys.Intern("c")] = []int{20, 21}
	orders[keys.Intern("b")] = []int{10, 11}
	orders[keys.Intern("a")] = []int{1, 2, 3, 4}
	e := &Explainer{Ops: map[int]op.Op{1: t1, 2: t2, 3: t3}, Keys: keys, ListOrders: orders}
	got := e.edgeReason(graph.Step{From: 1, To: 2, Via: graph.WW})
	if want := "T2 appended 2 after T1 appended 1 to key a"; got != want {
		t.Errorf("ww reason = %q, want %q", got, want)
	}
	// T3 and T2 share only key c.
	got = e.edgeReason(graph.Step{From: 3, To: 2, Via: graph.WW})
	if want := "T2 appended 21 after T3 appended 20 to key c"; got != want {
		t.Errorf("ww reason = %q, want %q", got, want)
	}
	// T1 and T3 share no key: the pair on c is no witness for them.
	got = e.edgeReason(graph.Step{From: 1, To: 3, Via: graph.WW})
	if want := "T3 overwrote a version T1 installed"; got != want {
		t.Errorf("ww reason without a shared key = %q, want %q", got, want)
	}
}
