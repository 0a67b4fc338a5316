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
		Ops:        history.MustNew([]op.Op{t1, t2, t3}),
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
	got := reason(e, s)
	if !strings.Contains(got, "T3 observed T2's append of 5 to key 34") {
		t.Errorf("wr reason = %q", got)
	}
}

func TestRegisterWRReason(t *testing.T) {
	w := op.Txn(0, 0, op.OK, op.Write("x", 7))
	r := op.Txn(1, 1, op.OK, op.ReadReg("x", 7))
	e := &Explainer{Ops: history.MustNew([]op.Op{w, r})}
	got := reason(e, graph.Step{From: 0, To: 1, Via: graph.WR})
	if !strings.Contains(got, "T1 observed T0's write of 7 to key x") {
		t.Errorf("register wr reason = %q", got)
	}
}

func TestOrderingReasons(t *testing.T) {
	a := op.Txn(0, 3, op.OK)
	b := op.Txn(1, 3, op.OK)
	e := &Explainer{Ops: history.MustNew([]op.Op{a, b})}
	if got := reason(e, graph.Step{From: 0, To: 1, Via: graph.Process}); !strings.Contains(got, "process 3 executed") {
		t.Errorf("process reason = %q", got)
	}
	if got := reason(e, graph.Step{From: 0, To: 1, Via: graph.Realtime}); !strings.Contains(got, "completed before") {
		t.Errorf("realtime reason = %q", got)
	}
}

func TestFallbackReasons(t *testing.T) {
	// Ops with no identifiable witness still get generic prose.
	a := op.Txn(0, 0, op.OK)
	b := op.Txn(1, 1, op.OK)
	e := &Explainer{Ops: history.MustNew([]op.Op{a, b})}
	cases := map[graph.Kind]string{
		graph.WR: "read a version",
		graph.RW: "overwrote",
		graph.WW: "overwrote a version",
	}
	for kind, want := range cases {
		got := reason(e, graph.Step{From: 0, To: 1, Via: kind})
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
	e := &Explainer{Ops: history.MustNew([]op.Op{o})}
	c := graph.Cycle{Steps: []graph.Step{
		{From: 0, To: 0, Via: graph.WW},
	}}
	dot := e.DOT(c)
	if strings.Contains(dot, `k"ey`) && !strings.Contains(dot, `k\"ey`) {
		t.Errorf("unescaped quote in DOT:\n%s", dot)
	}
}

func TestUnknownNodeName(t *testing.T) {
	e := &Explainer{Ops: history.MustNew(nil)}
	c := graph.Cycle{Steps: []graph.Step{{From: 42, To: 42, Via: graph.WW}}}
	if got := e.Cycle(c); !strings.Contains(got, "T42 < T42") {
		t.Errorf("an op the lookup lacks is not named by its id:\n%s", got)
	}
}

func TestRegisterRWReason(t *testing.T) {
	r := op.Txn(1, 1, op.OK, op.ReadNil("2434"))
	w := op.Txn(2, 2, op.OK, op.Write("2434", 10))
	keys := history.NewInterner()
	regOrders := make([][][2]string, 1)
	regOrders[keys.Intern("2434")] = [][2]string{{"nil", "10"}}
	e := &Explainer{
		Ops:       history.MustNew([]op.Op{r, w}),
		Keys:      keys,
		RegOrders: regOrders,
	}
	got := reason(e, graph.Step{From: 1, To: 2, Via: graph.RW})
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
	e := &Explainer{Ops: history.MustNew([]op.Op{t1, t2, t3}), Keys: keys, ListOrders: orders}
	got := reason(e, graph.Step{From: 1, To: 2, Via: graph.WW})
	if want := "T2 appended 2 after T1 appended 1 to key a"; got != want {
		t.Errorf("ww reason = %q, want %q", got, want)
	}
	// T3 and T2 share only key c.
	got = reason(e, graph.Step{From: 3, To: 2, Via: graph.WW})
	if want := "T2 appended 21 after T3 appended 20 to key c"; got != want {
		t.Errorf("ww reason = %q, want %q", got, want)
	}
	// T1 and T3 share no key: the pair on c is no witness for them.
	got = reason(e, graph.Step{From: 1, To: 3, Via: graph.WW})
	if want := "T3 overwrote a version T1 installed"; got != want {
		t.Errorf("ww reason without a shared key = %q, want %q", got, want)
	}
}

// TestWitnessChoice pins which witness each dependency kind cites when
// several qualify, and the sentence it falls back to when none does.
// Keys are interned in reverse name order throughout, so a search that
// walked ids instead of names would cite the wrong key.
func TestWitnessChoice(t *testing.T) {
	keys := history.NewInterner()
	c, b, a := keys.Intern("c"), keys.Intern("b"), keys.Intern("a")
	lists := make([][]int, 3)
	lists[a] = []int{1, 2, 3, 4}
	lists[b] = []int{10, 11}
	lists[c] = []int{20, 21, 22}
	regs := make([][][2]string, 3)
	regs[a] = [][2]string{{"nil", "1"}, {"1", "2"}, {"1", "3"}}
	regs[b] = [][2]string{{"nil", "10"}, {"10", "11"}}

	ok := op.OK
	cases := []struct {
		name     string
		via      graph.Kind
		from, to op.Op // T1, T2
		want     string
	}{
		{
			name: "wr: a read's final element beats an earlier read's merely observed one",
			via:  graph.WR,
			from: op.Txn(1, 1, ok, op.Append("a", 1), op.Append("b", 11)),
			to:   op.Txn(2, 2, ok, op.ReadList("a", []int{1, 2}), op.ReadList("b", []int{10, 11})),
			want: "T2 observed T1's append of 11 to key b",
		},
		{
			name: "wr: the reader's first qualifying read in program order, not in key order",
			via:  graph.WR,
			from: op.Txn(1, 1, ok, op.Append("a", 2), op.Append("c", 21)),
			to:   op.Txn(2, 2, ok, op.ReadList("b", []int{10}), op.ReadList("c", []int{20, 21}), op.ReadList("a", []int{1, 2})),
			want: "T2 observed T1's append of 21 to key c",
		},
		{
			name: "wr: set-add falls back to the first observed element the writer added",
			via:  graph.WR,
			from: op.Txn(1, 1, ok, op.Add("a", 3), op.Add("b", 10)),
			to:   op.Txn(2, 2, ok, op.ReadList("c", []int{}), op.ReadList("b", []int{11, 10}), op.ReadList("a", []int{1, 3})),
			want: "T2 observed T1's append of 10 to key b",
		},
		{
			name: "wr: an add is no final-element witness, only an observed one",
			via:  graph.WR,
			from: op.Txn(1, 1, ok, op.Add("a", 2), op.Add("a", 1)),
			to:   op.Txn(2, 2, ok, op.ReadList("a", []int{1, 2})),
			want: "T2 observed T1's append of 1 to key a",
		},
		{
			name: "wr: register, the first read in program order whose value the writer wrote",
			via:  graph.WR,
			from: op.Txn(1, 1, ok, op.Write("a", 2), op.Write("b", 11)),
			to:   op.Txn(2, 2, ok, op.ReadNil("c"), op.ReadReg("b", 10), op.ReadReg("b", 11), op.ReadReg("a", 2)),
			want: "T2 observed T1's write of 11 to key b",
		},
		{
			name: "wr: lists are searched before registers",
			via:  graph.WR,
			from: op.Txn(1, 1, ok, op.Write("b", 11), op.Append("a", 2)),
			to:   op.Txn(2, 2, ok, op.ReadReg("b", 11), op.ReadList("a", []int{1, 2})),
			want: "T2 observed T1's append of 2 to key a",
		},
		{
			name: "wr: no witness",
			via:  graph.WR,
			from: op.Txn(1, 1, ok, op.Append("a", 4), op.Write("b", 10)),
			to:   op.Txn(2, 2, ok, op.ReadList("a", []int{1, 2}), op.ReadList("b", []int{}), op.ReadNil("b"), op.Read("a")),
			want: "T2 read a version T1 installed",
		},
		{
			name: "rw: the reader's first read in program order whose successor the writer appended",
			via:  graph.RW,
			from: op.Txn(1, 1, ok, op.ReadList("c", []int{20, 21, 22}), op.ReadList("b", []int{10}), op.ReadList("a", []int{})),
			to:   op.Txn(2, 2, ok, op.Append("a", 1), op.Append("b", 11)),
			want: "T1 did not observe T2's append of 11 to key b",
		},
		{
			name: "rw: only the element right after the read, not a later one",
			via:  graph.RW,
			from: op.Txn(1, 1, ok, op.ReadList("a", []int{1})),
			to:   op.Txn(2, 2, ok, op.Append("a", 3)),
			want: "T1 read a version which T2 overwrote",
		},
		{
			name: "rw: register, from an observed nil",
			via:  graph.RW,
			from: op.Txn(1, 1, ok, op.ReadNil("b")),
			to:   op.Txn(2, 2, ok, op.Write("b", 11), op.Write("b", 10)),
			want: "T1 read key b = nil, which T2 overwrote with 10",
		},
		{
			name: "rw: register, the first successor in version-order order the writer wrote",
			via:  graph.RW,
			from: op.Txn(1, 1, ok, op.ReadReg("b", 11), op.ReadReg("a", 1)),
			to:   op.Txn(2, 2, ok, op.Write("a", 3), op.Write("a", 2)),
			want: "T1 read key a = 1, which T2 overwrote with 2",
		},
		{
			name: "rw: lists are searched before registers",
			via:  graph.RW,
			from: op.Txn(1, 1, ok, op.ReadNil("b"), op.ReadList("a", []int{1, 2})),
			to:   op.Txn(2, 2, ok, op.Write("b", 10), op.Append("a", 3)),
			want: "T1 did not observe T2's append of 3 to key a",
		},
		{
			name: "rw: no witness",
			via:  graph.RW,
			from: op.Txn(1, 1, ok, op.ReadList("a", []int{1, 2, 3, 4}), op.ReadReg("b", 11), op.Read("a")),
			to:   op.Txn(2, 2, ok, op.Append("a", 4), op.Write("b", 11)),
			want: "T1 read a version which T2 overwrote",
		},
		{
			name: "ww: of two shared keys the name-first one, and its first adjacent pair",
			via:  graph.WW,
			from: op.Txn(1, 1, ok, op.Append("c", 20), op.Append("a", 3), op.Append("a", 1)),
			to:   op.Txn(2, 2, ok, op.Append("c", 21), op.Append("a", 4), op.Append("a", 2)),
			want: "T2 appended 2 after T1 appended 1 to key a",
		},
		{
			name: "ww: a shared key without an adjacent pair yields to the next by name",
			via:  graph.WW,
			from: op.Txn(1, 1, ok, op.Append("a", 1), op.Append("c", 21)),
			to:   op.Txn(2, 2, ok, op.Append("a", 3), op.Append("c", 22)),
			want: "T2 appended 22 after T1 appended 21 to key c",
		},
		{
			name: "ww: elements of one key that are not adjacent are no witness",
			via:  graph.WW,
			from: op.Txn(1, 1, ok, op.Append("a", 1), op.Append("a", 4)),
			to:   op.Txn(2, 2, ok, op.Append("a", 3)),
			want: "T2 overwrote a version T1 installed",
		},
		{
			name: "ww: register, of two shared keys the name-first one",
			via:  graph.WW,
			from: op.Txn(1, 1, ok, op.Write("b", 10), op.Write("a", 1)),
			to:   op.Txn(2, 2, ok, op.Write("b", 11), op.Write("a", 3)),
			want: "T2 wrote key a = 3, replacing T1's write of 1",
		},
		{
			name: "ww: register, only a direct version edge",
			via:  graph.WW,
			from: op.Txn(1, 1, ok, op.Write("b", 10), op.Write("a", 2)),
			to:   op.Txn(2, 2, ok, op.Write("a", 3), op.Write("b", 11)),
			want: "T2 wrote key b = 11, replacing T1's write of 10",
		},
		{
			name: "ww: lists are searched before registers",
			via:  graph.WW,
			from: op.Txn(1, 1, ok, op.Write("a", 1), op.Append("b", 10)),
			to:   op.Txn(2, 2, ok, op.Write("a", 2), op.Append("b", 11)),
			want: "T2 appended 11 after T1 appended 10 to key b",
		},
		{
			name: "ww: no witness",
			via:  graph.WW,
			from: op.Txn(1, 1, ok, op.Write("a", 2), op.Append("b", 11)),
			to:   op.Txn(2, 2, ok, op.Write("a", 1), op.Append("b", 10)),
			want: "T2 overwrote a version T1 installed",
		},
		{
			name: "process",
			via:  graph.Process,
			from: op.Txn(1, 7, ok),
			to:   op.Txn(2, 7, ok),
			want: "process 7 executed T1 before T2",
		},
		{
			name: "realtime",
			via:  graph.Realtime,
			from: op.Txn(1, 1, ok),
			to:   op.Txn(2, 2, ok),
			want: "T1 completed before T2 was invoked",
		},
		{
			name: "timestamp",
			via:  graph.Timestamp,
			from: op.Txn(1, 1, ok),
			to:   op.Txn(2, 2, ok),
			want: "the database's own timestamps say T1 committed before T2 began",
		},
		{
			name: "a kind with no sentence of its own",
			via:  graph.Kind(99),
			from: op.Txn(1, 1, ok),
			to:   op.Txn(2, 2, ok),
			want: "T1 precedes T2 in the inferred version order",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := &Explainer{Ops: history.MustNew([]op.Op{tc.from, tc.to}), Keys: keys, ListOrders: lists, RegOrders: regs}
			if got := reason(e, graph.Step{From: 1, To: 2, Via: tc.via}); got != tc.want {
				t.Errorf("reason = %q\n      want %q", got, tc.want)
			}
		})
	}

	// An explainer without version orders still cites what the ops alone
	// show (wr), and falls back for what needs an order.
	w := op.Txn(1, 1, ok, op.Append("a", 2), op.Write("b", 5))
	r := op.Txn(2, 2, ok, op.ReadList("a", []int{1, 2}), op.ReadReg("b", 5))
	bare := &Explainer{Ops: history.MustNew([]op.Op{w, r})}
	for via, want := range map[graph.Kind]string{
		graph.WR: "T2 observed T1's append of 2 to key a",
		graph.RW: "T1 read a version which T2 overwrote",
		graph.WW: "T2 overwrote a version T1 installed",
	} {
		if got := reason(bare, graph.Step{From: 1, To: 2, Via: via}); got != want {
			t.Errorf("without orders, %v reason = %q, want %q", via, got, want)
		}
	}
}

// reason renders one edge's justification on its own.
func reason(e *Explainer, s graph.Step) string { return string(e.edgeReason(nil, s)) }
