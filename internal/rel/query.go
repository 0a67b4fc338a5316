package rel

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// The pattern query language (docs/QUERY.md): a query is one or more
// clauses, each a parenthesized relation name followed by one term per
// column —
//
//	(dep ?a ?b ww) (cycle ?c _ ?a _)
//
// Terms are variables (?a), wildcards (_), integers (42), quoted
// strings ("key 1"), or bareword strings (ww). Constants compile to σ,
// a variable shared between clauses compiles to ⋈ on that variable,
// and a variable repeated inside one clause to an equality σ. Output
// is one column per variable in first-appearance order, deduplicated
// and sorted canonically — the same rows for every join order, which
// is what lets the three query surfaces promise byte-identical output.

// ParseError is a query rejection with a 1-based byte position into
// the query string. Every invalid query — lexical, syntactic, unknown
// relation, arity mismatch — produces one; no input panics (pinned by
// FuzzQueryParse).
type ParseError struct {
	Pos int
	Msg string
}

func (e *ParseError) Error() string { return fmt.Sprintf("query:%d: %s", e.Pos, e.Msg) }

func errAt(pos int, format string, args ...any) error {
	return &ParseError{Pos: pos + 1, Msg: fmt.Sprintf(format, args...)}
}

// term kinds.
const (
	termVar = iota
	termWild
	termConst
)

type term struct {
	kind int
	name string // variable name, including the '?'
	val  Value  // constant value
	pos  int    // byte offset in the query
}

type clause struct {
	name  string
	terms []term
	pos   int // byte offset of the relation name
}

// Query is a parsed pattern query.
type Query struct {
	clauses []clause
	// vars in first-appearance order, names including the '?'.
	vars []string
}

// Parse parses a pattern query. It does not consult a catalog: unknown
// relations and arity mismatches surface at Eval, with the same
// ParseError type and clause positions.
func Parse(input string) (*Query, error) {
	p := &parser{in: input}
	q := &Query{}
	p.skipSpace()
	for p.i < len(p.in) {
		cl, err := p.clause()
		if err != nil {
			return nil, err
		}
		q.clauses = append(q.clauses, cl)
		p.skipSpace()
	}
	if len(q.clauses) == 0 {
		return nil, errAt(0, "empty query: expected at least one (relation ...) clause")
	}
	seen := map[string]bool{}
	for _, cl := range q.clauses {
		for _, t := range cl.terms {
			if t.kind == termVar && !seen[t.name] {
				seen[t.name] = true
				q.vars = append(q.vars, t.name)
			}
		}
	}
	return q, nil
}

type parser struct {
	in string
	i  int
}

func (p *parser) skipSpace() {
	for p.i < len(p.in) {
		switch p.in[p.i] {
		case ' ', '\t', '\n', '\r':
			p.i++
		default:
			return
		}
	}
}

// isBare reports whether c can appear in a bareword or variable name.
func isBare(c byte) bool {
	switch c {
	case '(', ')', '"', ' ', '\t', '\n', '\r':
		return false
	}
	return c > 0x20 && c < 0x7f
}

func (p *parser) bareword() (string, error) {
	start := p.i
	for p.i < len(p.in) && isBare(p.in[p.i]) {
		p.i++
	}
	if p.i == start {
		return "", errAt(start, "unexpected character %q", p.in[start])
	}
	return p.in[start:p.i], nil
}

func (p *parser) clause() (clause, error) {
	if p.in[p.i] != '(' {
		return clause{}, errAt(p.i, "expected '(' to open a clause, got %q", p.in[p.i])
	}
	p.i++
	p.skipSpace()
	if p.i >= len(p.in) {
		return clause{}, errAt(len(p.in), "unterminated clause: expected a relation name")
	}
	if p.in[p.i] == ')' {
		return clause{}, errAt(p.i, "empty clause: expected a relation name")
	}
	namePos := p.i
	name, err := p.bareword()
	if err != nil {
		return clause{}, err
	}
	if strings.HasPrefix(name, "?") || name == "_" {
		return clause{}, errAt(namePos, "expected a relation name, got %q", name)
	}
	cl := clause{name: name, pos: namePos}
	for {
		p.skipSpace()
		if p.i >= len(p.in) {
			return clause{}, errAt(len(p.in), "unterminated clause: expected ')'")
		}
		if p.in[p.i] == ')' {
			p.i++
			return cl, nil
		}
		t, err := p.term()
		if err != nil {
			return clause{}, err
		}
		cl.terms = append(cl.terms, t)
	}
}

func (p *parser) term() (term, error) {
	pos := p.i
	c := p.in[p.i]
	switch {
	case c == '"':
		s, err := p.quoted()
		if err != nil {
			return term{}, err
		}
		return term{kind: termConst, val: Str(s), pos: pos}, nil
	case c == '?':
		w, err := p.bareword()
		if err != nil {
			return term{}, err
		}
		if w == "?" {
			return term{}, errAt(pos, "empty variable name: expected ?name")
		}
		return term{kind: termVar, name: w, pos: pos}, nil
	case c == '(':
		return term{}, errAt(pos, "nested '(': clauses do not nest")
	default:
		w, err := p.bareword()
		if err != nil {
			return term{}, err
		}
		if w == "_" {
			return term{kind: termWild, pos: pos}, nil
		}
		if c == '-' || (c >= '0' && c <= '9') {
			n, err := strconv.ParseInt(w, 10, 64)
			if err != nil {
				return term{}, errAt(pos, "bad integer %q", w)
			}
			return term{kind: termConst, val: Int64(n), pos: pos}, nil
		}
		return term{kind: termConst, val: Str(w), pos: pos}, nil
	}
}

// quoted consumes a double-quoted string with \" and \\ escapes.
func (p *parser) quoted() (string, error) {
	start := p.i
	p.i++ // opening quote
	var b strings.Builder
	for p.i < len(p.in) {
		c := p.in[p.i]
		switch c {
		case '"':
			p.i++
			return b.String(), nil
		case '\\':
			if p.i+1 >= len(p.in) {
				return "", errAt(start, "unterminated string")
			}
			p.i++
			switch p.in[p.i] {
			case '"', '\\':
				b.WriteByte(p.in[p.i])
			case 'n':
				b.WriteByte('\n')
			case 't':
				b.WriteByte('\t')
			default:
				return "", errAt(p.i-1, `bad escape \%c`, p.in[p.i])
			}
			p.i++
		default:
			b.WriteByte(c)
			p.i++
		}
	}
	return "", errAt(start, "unterminated string")
}

// Result is an evaluated query: the output variables and their rows in
// canonical (sorted, distinct) order, or a bare truth value for
// variable-free queries.
type Result struct {
	// Vars are the output column headers, including the '?'.
	Vars []string
	// Rows are the result tuples, sorted and deduplicated.
	Rows []Tuple
	// Exists is the query's truth value when Vars is empty (did every
	// clause match at least one tuple); true whenever Rows is non-empty.
	Exists bool
	// AnomalyVars are the output variables bound to an anomaly id (a
	// cycle.id or anomaly.id column) — the handles provenance rendering
	// resolves back to full witnesses via Catalog.AnomalyAt.
	AnomalyVars []string
}

// WriteTo renders the result: a tab-separated header of variable names
// and one tab-separated row per tuple, or "true\n"/"false\n" for a
// variable-free query. The bytes are identical for the same query and
// analysis wherever it is evaluated.
func (r *Result) WriteTo(w io.Writer) (int64, error) {
	var b strings.Builder
	if len(r.Vars) == 0 {
		if r.Exists {
			b.WriteString("true\n")
		} else {
			b.WriteString("false\n")
		}
	} else {
		b.WriteString(strings.Join(r.Vars, "\t"))
		b.WriteByte('\n')
		for _, t := range r.Rows {
			for i, v := range t {
				if i > 0 {
					b.WriteByte('\t')
				}
				b.WriteString(v.String())
			}
			b.WriteByte('\n')
		}
	}
	n, err := io.WriteString(w, b.String())
	return int64(n), err
}

// AnomalyIDs returns the distinct anomaly ids bound to AnomalyVars
// across the result rows, ascending.
func (r *Result) AnomalyIDs() []int {
	cols := map[int]bool{}
	for i, v := range r.Vars {
		for _, av := range r.AnomalyVars {
			if v == av {
				cols[i] = true
			}
		}
	}
	seen := map[int]bool{}
	var out []int
	for _, t := range r.Rows {
		for i := range cols {
			v := t[i]
			if !v.IsStr() && !seen[int(v.Num())] {
				seen[int(v.Num())] = true
				out = append(out, int(v.Num()))
			}
		}
	}
	sort.Ints(out)
	return out
}

// Eval parses and evaluates a pattern query against a catalog. All
// errors are *ParseError with a position into the query string.
func Eval(cat Relations, query string) (*Result, error) {
	q, err := Parse(query)
	if err != nil {
		return nil, err
	}
	return q.Eval(cat)
}

// planClause is one clause compiled against the catalog: its relation
// with constants selected and columns projected/renamed to variable
// names, plus planning metadata.
type planClause struct {
	rel    Relation
	vars   map[string]bool
	nconst int
	pos    int // textual order
}

// Eval evaluates the parsed query against cat.
func (q *Query) Eval(cat Relations) (*Result, error) {
	res := &Result{Vars: q.vars}
	var plans []planClause
	anomalyVars := map[string]bool{}
	for i, cl := range q.clauses {
		r, ok := cat.Relation(cl.name)
		if !ok {
			return nil, errAt(cl.pos, "unknown relation %q (have: %s)",
				cl.name, strings.Join(cat.Names(), ", "))
		}
		cols := r.Cols()
		if len(cl.terms) != len(cols) {
			return nil, errAt(cl.pos, "%s has %d columns (%s), clause has %d terms",
				cl.name, len(cols), strings.Join(cols, ", "), len(cl.terms))
		}
		pc := planClause{vars: map[string]bool{}, pos: i}
		// σ for constants; equality σ for a variable repeated in-clause.
		varAt := map[string]int{}
		var eqPairs [][2]int
		for j, t := range cl.terms {
			switch t.kind {
			case termConst:
				pc.nconst++
			case termVar:
				if k, dup := varAt[t.name]; dup {
					eqPairs = append(eqPairs, [2]int{k, j})
				} else {
					varAt[t.name] = j
					pc.vars[t.name] = true
				}
				if (cl.name == "cycle" || cl.name == "anomaly") && cols[j] == "id" {
					anomalyVars[t.name] = true
				}
			}
		}
		terms := cl.terms
		r = r.Select(func(t Tuple) bool {
			for j, tm := range terms {
				if tm.kind == termConst && !t[j].Equal(tm.val) {
					return false
				}
			}
			for _, pr := range eqPairs {
				if !t[pr[0]].Equal(t[pr[1]]) {
					return false
				}
			}
			return true
		})
		// π to this clause's variables, renamed to the variable names.
		pc.rel = projectVars(r, cl, varAt)
		plans = append(plans, pc)
	}

	// Variable-free clauses are existence filters: if any matches
	// nothing the whole query is empty; matching ones drop out of the
	// join entirely.
	joined := plans[:0]
	exists := true
	for _, pc := range plans {
		if len(pc.vars) > 0 {
			joined = append(joined, pc)
			continue
		}
		hit := false
		pc.rel.Each(func(Tuple) bool { hit = true; return false })
		if !hit {
			exists = false
		}
	}
	if !exists || len(joined) == 0 {
		res.Exists = exists
		res.AnomalyVars = sortedVarNames(anomalyVars)
		return res, nil
	}

	// Greedy join order: start with the most-constrained clause, then
	// repeatedly take the clause sharing the most bound variables
	// (most constants, then textual order, as tie-breaks). Cartesian
	// steps are allowed when no clause connects. The final Sort makes
	// the output independent of this order.
	order := planOrder(joined)
	out := joined[order[0]].rel
	for _, i := range order[1:] {
		out = out.Join(joined[i].rel)
	}
	out = out.Project(q.vars...).Distinct().Sort()
	res.Rows = out.Rows()
	res.Exists = len(res.Rows) > 0
	res.AnomalyVars = sortedVarNames(anomalyVars)
	return res, nil
}

// projectVars projects r to the clause's variables (first occurrence
// positions), renamed to the variable names.
func projectVars(r Relation, cl clause, varAt map[string]int) Relation {
	var names []string
	var idx []int
	for _, t := range cl.terms {
		if t.kind != termVar {
			continue
		}
		if j, ok := varAt[t.name]; ok {
			names = append(names, t.name)
			idx = append(idx, j)
			delete(varAt, t.name)
		}
	}
	return NewRelation(names, func(yield func(Tuple) bool) {
		out := make(Tuple, len(idx))
		r.Each(func(t Tuple) bool {
			for i, j := range idx {
				out[i] = t[j]
			}
			return yield(out)
		})
	})
}

// planOrder returns the greedy evaluation order of the clauses.
func planOrder(plans []planClause) []int {
	n := len(plans)
	used := make([]bool, n)
	bound := map[string]bool{}
	var order []int
	// Seed: most constants, then textual order.
	best := -1
	for i, pc := range plans {
		if best < 0 || pc.nconst > plans[best].nconst {
			best = i
		}
	}
	take := func(i int) {
		used[i] = true
		order = append(order, i)
		for v := range plans[i].vars {
			bound[v] = true
		}
	}
	take(best)
	for len(order) < n {
		best = -1
		bestShared := -1
		for i, pc := range plans {
			if used[i] {
				continue
			}
			shared := 0
			for v := range pc.vars {
				if bound[v] {
					shared++
				}
			}
			if shared > bestShared ||
				(shared == bestShared && best >= 0 && pc.nconst > plans[best].nconst) {
				best, bestShared = i, shared
			}
		}
		take(best)
	}
	return order
}

func sortedVarNames(set map[string]bool) []string {
	var out []string
	for v := range set {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}
