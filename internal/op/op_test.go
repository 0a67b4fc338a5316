package op

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestFunString(t *testing.T) {
	cases := map[Fun]string{
		FRead:      "r",
		FWrite:     "w",
		FAppend:    "append",
		FAdd:       "add",
		FIncrement: "increment",
	}
	for f, want := range cases {
		if got := f.String(); got != want {
			t.Errorf("Fun(%d).String() = %q, want %q", f, got, want)
		}
	}
}

func TestFunIsWrite(t *testing.T) {
	if FRead.IsWrite() {
		t.Error("FRead.IsWrite() = true")
	}
	for _, f := range []Fun{FWrite, FAppend, FAdd, FIncrement} {
		if !f.IsWrite() {
			t.Errorf("%s.IsWrite() = false", f)
		}
	}
}

func TestMopConstructors(t *testing.T) {
	m := Append("x", 3)
	if m.F != FAppend || m.Key != "x" || m.Arg != 3 {
		t.Errorf("Append: got %+v", m)
	}
	if !m.IsWrite() || m.IsRead() {
		t.Error("append should be a write")
	}

	r := ReadList("y", []int{1, 2})
	if !r.IsRead() || !r.ListKnown() {
		t.Error("ReadList should be a known read")
	}
	if len(r.List) != 2 {
		t.Errorf("ReadList kept %v", r.List)
	}

	empty := ReadList("y", nil)
	if !empty.ListKnown() {
		t.Error("ReadList(nil) should normalize to a known empty read")
	}
	if len(empty.List) != 0 {
		t.Errorf("ReadList(nil) = %v", empty.List)
	}

	unknown := Read("y")
	if unknown.ListKnown() {
		t.Error("Read should have an unknown result")
	}

	rn := ReadNil("z")
	if !rn.RegKnown || rn.Reg != NilVersion {
		t.Errorf("ReadNil: got %+v", rn)
	}
	rv := ReadReg("z", 7)
	if !rv.RegKnown || rv.Reg != 7 {
		t.Errorf("ReadReg: got %+v", rv)
	}
}

// TestFormatVersion: the initial version is "nil" and sorts below every
// value; any other version is its decimal value, negative ones included.
func TestFormatVersion(t *testing.T) {
	for v, want := range map[int]string{NilVersion: "nil", 0: "0", -1: "-1", 42: "42", NilVersion + 1: "-9223372036854775807"} {
		if got := FormatVersion(v); got != want {
			t.Errorf("FormatVersion(%d) = %q, want %q", v, got, want)
		}
		if got := string(AppendVersion([]byte("x="), v)); got != "x="+want {
			t.Errorf("AppendVersion(%d) = %q, want %q", v, got, "x="+want)
		}
		if v != NilVersion && v <= NilVersion {
			t.Errorf("%d sorts at or below NilVersion", v)
		}
	}
}

func TestMopString(t *testing.T) {
	cases := []struct {
		m    Mop
		want string
	}{
		{Append("34", 5), "append(34, 5)"},
		{ReadList("34", []int{2, 1, 5, 4}), "r(34, [2 1 5 4])"},
		{ReadList("8", []int{}), "r(8, [])"},
		{Read("8"), "r(8)"},
		{ReadNil("10"), "r(10, nil)"},
		{ReadReg("10", 2), "r(10, 2)"},
		{Write("10", 2), "w(10, 2)"},
		{Increment("c", 3), "increment(c, 3)"},
		{Add("s", 9), "add(s, 9)"},
	}
	for _, c := range cases {
		if got := c.m.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
		if got := string(c.m.AppendTo([]byte("x: "))); got != "x: "+c.want {
			t.Errorf("AppendTo = %q, want %q", got, "x: "+c.want)
		}
	}
}

func TestOpPredicates(t *testing.T) {
	ok := Txn(1, 0, OK, Append("x", 1))
	fail := Txn(2, 0, Fail, Append("x", 2))
	info := Txn(3, 0, Info, Append("x", 3))
	if !ok.Committed() || ok.Aborted() || ok.Indeterminate() {
		t.Error("OK predicates wrong")
	}
	if !fail.Aborted() || fail.Committed() {
		t.Error("Fail predicates wrong")
	}
	if !info.Indeterminate() || !info.MayHaveCommitted() {
		t.Error("Info predicates wrong")
	}
	if fail.MayHaveCommitted() {
		t.Error("Fail.MayHaveCommitted() = true")
	}
	if !ok.MayHaveCommitted() {
		t.Error("OK.MayHaveCommitted() = false")
	}
}

func TestOpKeysAndWrites(t *testing.T) {
	o := Txn(5, 1, OK,
		Append("a", 1), ReadList("b", []int{}), Append("a", 2), ReadList("c", nil))
	keys := o.Keys()
	want := []string{"a", "b", "c"}
	if len(keys) != len(want) {
		t.Fatalf("Keys() = %v", keys)
	}
	for i := range want {
		if keys[i] != want[i] {
			t.Errorf("Keys()[%d] = %q, want %q", i, keys[i], want[i])
		}
	}
}

func TestOpString(t *testing.T) {
	o := Txn(42, 3, OK, Append("3", 837), ReadList("4", []int{874, 877, 883}))
	want := "T42(ok): append(3, 837), r(4, [874 877 883])"
	if got := o.String(); got != want {
		t.Errorf("Op.String() = %q, want %q", got, want)
	}
	if o.Name() != "T42" {
		t.Errorf("Name() = %q", o.Name())
	}
	if got := string(o.AppendTo([]byte("x: "))); got != "x: "+want {
		t.Errorf("AppendTo = %q, want %q", got, "x: "+want)
	}
	// Longer than String's stack buffer.
	long := Txn(-7, 0, Info, Append("k", -1), Append("k", -1), Append("k", -1), Append("k", -1),
		Append("k", -1), Append("k", -1), Append("k", -1), Append("k", -1), Append("k", -1))
	if got, want := long.String(), "T-7(info): "+strings.Repeat("append(k, -1), ", 8)+"append(k, -1)"; got != want {
		t.Errorf("Op.String() = %q, want %q", got, want)
	}
}

func TestFormatList(t *testing.T) {
	if got := FormatList(nil); got != "[]" {
		t.Errorf("FormatList(nil) = %q", got)
	}
	if got := FormatList([]int{1, 2, 3}); got != "[1 2 3]" {
		t.Errorf("FormatList = %q", got)
	}
	long := make([]int, 40)
	for i := range long {
		long[i] = -1000 * i
	}
	if got, want := FormatList(long), fmt.Sprint(long); got != want {
		t.Errorf("FormatList = %q, want %q", got, want)
	}
	if got := string(AppendList([]byte("x: "), []int{-4})); got != "x: [-4]" {
		t.Errorf("AppendList = %q", got)
	}
}

// shared backs TestIsPrefix's window cases.
var shared = []int{1, 2, 3}

func TestIsPrefix(t *testing.T) {
	cases := []struct {
		a, b []int
		want bool
	}{
		{nil, nil, true},
		{nil, []int{1}, true},
		{[]int{1}, []int{1, 2}, true},
		{[]int{1, 2}, []int{1, 2}, true},
		{[]int{2}, []int{1, 2}, false},
		{[]int{1, 2, 3}, []int{1, 2}, false},
		// Windows of one buffer, as ShareList hands them out.
		{shared[:2:2], shared, true},
		{shared, shared[:2:2], false},
		{shared[1:], shared, false},
	}
	for _, c := range cases {
		if got := IsPrefix(c.a, c.b); got != c.want {
			t.Errorf("IsPrefix(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestIsPrefixProperties(t *testing.T) {
	// Every prefix of a slice is a prefix; extending the longer slice
	// preserves the relation.
	prop := func(a []int, ext []int) bool {
		b := append(append([]int(nil), a...), ext...)
		return IsPrefix(a, b)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
	// A strictly longer slice is never a prefix of a shorter one.
	prop2 := func(a []int) bool {
		b := append(append([]int(nil), a...), 99)
		return !IsPrefix(b, a)
	}
	if err := quick.Check(prop2, nil); err != nil {
		t.Error(err)
	}
}

// TestMopSize pins Mop's layout: the one-byte fields packed after Reg.
func TestMopSize(t *testing.T) {
	if got := unsafe.Sizeof(Mop{}); got != 64 {
		t.Errorf("unsafe.Sizeof(Mop{}) = %d, want 64", got)
	}
}

func TestShareList(t *testing.T) {
	var trace, arena []int
	scratch := []int{5, 6}
	a := ShareList(&trace, &arena, scratch)
	if !slices.Equal(a, []int{5, 6}) || cap(a) != 2 || &a[0] != &trace[0] {
		t.Fatalf("first read: %v (cap %d), trace %v", a, cap(a), trace)
	}
	scratch[0] = 99 // scratch is the caller's to reuse
	if a[0] != 5 {
		t.Fatalf("window changed with the scratch: %v", a)
	}
	b := ShareList(&trace, &arena, []int{5})
	if !slices.Equal(b, []int{5}) || &b[0] != &a[0] {
		t.Fatalf("prefix: %v, shares %v", b, &b[0] == &a[0])
	}
	c := ShareList(&trace, &arena, []int{5, 6, 7})
	if !slices.Equal(c, []int{5, 6, 7}) || &c[0] != &a[0] {
		t.Fatalf("extension within capacity: %v", c)
	}
	if got := append(b, 8); &got[0] == &b[0] || c[1] != 6 {
		t.Fatal("appending to a window wrote into the trace")
	}
	if e := ShareList(&trace, &arena, []int{}); e == nil || len(e) != 0 {
		t.Fatalf("an empty read: %#v", e)
	}
	for _, v := range [][]int{{6}, {5, 6, 8}, {5, 7, 7, 7}} {
		got := ShareList(&trace, &arena, v)
		if !slices.Equal(got, v) || cap(got) != len(got) || &got[0] == &trace[0] {
			t.Errorf("ShareList(%v) = %v (cap %d), want a private copy", v, got, cap(got))
		}
	}
	if !slices.Equal(trace, []int{5, 6, 7}) {
		t.Fatalf("a divergent read changed the trace: %v", trace)
	}
	long := make([]int, 40)
	copy(long, []int{5, 6, 7})
	d := ShareList(&trace, &arena, long)
	if !slices.Equal(d, long) || cap(trace) < 2*minTrace {
		t.Fatalf("growth: %v, cap %d", d, cap(trace))
	}
	if &d[0] == &a[0] || !slices.Equal(c, []int{5, 6, 7}) {
		t.Fatal("growth moved or changed an earlier window")
	}
	huge := make([]int, listSlab)
	if got := ShareList(new([]int), &arena, huge); len(got) != listSlab {
		t.Fatalf("a read larger than a slab: len %d", len(got))
	}
}

// TestShareListProperty feeds ShareList random reads of several keys —
// prefixes, extensions and divergent values of one growing list per
// key — over one arena, and checks that each result equals its read
// and that nothing it handed out ever changes.
func TestShareListProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	traces := make([][]int, 3)
	versions := make([][]int, 3)
	var arena []int
	type handed struct{ got, want []int }
	var out []handed
	shared := 0
	for i := 0; i < 5000; i++ {
		k := rng.Intn(len(traces))
		version := versions[k]
		var v []int
		switch rng.Intn(4) {
		case 0: // a prefix of the version
			v = slices.Clone(version[:rng.Intn(len(version)+1)])
		case 1: // the version, extended
			version = append(version, rng.Intn(1000))
			versions[k] = version
			v = slices.Clone(version)
		case 2: // a divergent prefix
			v = slices.Clone(version[:rng.Intn(len(version)+1)])
			if len(v) > 0 {
				v[rng.Intn(len(v))] = -1
			}
		default: // divergent and longer than the version
			if len(version) == 0 {
				continue
			}
			v = append(slices.Clone(version), -1, -2)
			v[0] = -3
		}
		got := ShareList(&traces[k], &arena, v)
		if !slices.Equal(got, v) || cap(got) != len(got) || got == nil {
			t.Fatalf("read %d: ShareList(%v) = %v (cap %d)", i, v, got, cap(got))
		}
		if len(got) > 0 && &got[0] == &traces[k][0] {
			shared++
		}
		out = append(out, handed{got, v})
	}
	for i, h := range out {
		if !slices.Equal(h.got, h.want) {
			t.Fatalf("result %d changed: %v, want %v", i, h.got, h.want)
		}
	}
	if shared < 2000 {
		t.Fatalf("only %d of 5000 reads shared a trace", shared)
	}
}
