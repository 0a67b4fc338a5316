package jsonhist

import (
	"bytes"
	"fmt"
	"strconv"
	"unicode/utf16"
	"unicode/utf8"

	"repro/internal/op"
)

// This file is the scan-first line parser: a hand-rolled JSON scanner
// that decodes one history line straight into an op.Op with no
// intermediate rawOp, no json.RawMessage copies, and no reflection.
// It accepts exactly the lines the previous encoding/json-based decoder
// accepted (pinned by the differential fuzz target against the oracle
// in oracle_test.go); only the error *text* for rejected lines is its
// own.
//
// The envelope pass walks the object once. Member names are matched
// with the same Unicode simple folding encoding/json uses, null member
// values are no-ops, duplicate members last-win, and unknown members are
// skipped after full structural validation.
//
// The "value" array — three quarters of a history's bytes — has two
// readers. The fast path (fastValue) parses it in the same pass straight
// into mops, under a grammar in which nothing can be invalid: mops of
// exactly three elements, a known fun, the key an escape-free ASCII
// string or a canonical integer, numbers integral and at most 18
// digits, null only as a read's value, whitespace wherever JSON allows
// it. It has no error of its own: at the first byte outside that
// grammar it gives up, and the span path starts over from the same '[',
// validating syntax and recording each element's byte span for buildOp
// to parse once the whole line is known well-formed. So the span path
// alone decides what is rejected and how the error reads; the fast path
// only has to agree with it on what both accept, which
// TestFastPathEqualsSpanPath and the oracle fuzz target pin.

// maxNestingDepth mirrors encoding/json's composite-value depth cap so
// the scanner accepts exactly the nesting the stdlib decoder accepted.
const maxNestingDepth = 10000

// maxKeyCache bounds the per-parser interned-key cache. Real histories
// have tens of active keys; the cap only matters for adversarial
// inputs, where the cache resets rather than growing without bound.
const maxKeyCache = 4096

// keyEntry is one interned key and its trace: the buffer its list reads
// share (see op.ShareList) for as long as the parser keeps it.
type keyEntry struct {
	key   string
	trace []int
}

var (
	nameIndex   = []byte("index")
	nameType    = []byte("type")
	nameProcess = []byte("process")
	nameTime    = []byte("time")
	nameValue   = []byte("value")
)

// lineParser carries the parse scratch space. One parser serves all
// lines of a chunk sequentially, so every line after the first parses
// with (amortized) zero scratch allocations. It recycles with its chunk
// through chunkPool, or serves every chunk of a ChunkDecoder.
type lineParser struct {
	buf      []byte
	pos      int
	depth    int
	register bool

	mops    []op.Mop         // mop scratch, copied out per op
	elems   [][2]int         // "value" element spans (span path)
	fast    bool             // the winning "value" member is already in mops
	ints    []int            // list-read scratch, stored out per mop (op.ShareList)
	str     []byte           // string unquote scratch
	keys    map[string]int32 // interned key cache: key -> entry
	entries []keyEntry

	// Copied-out Mops and lists are carved from slab arenas: the slices
	// retain their slab, so nothing is copied twice, but a million-op
	// decode makes hundreds of slice allocations instead of millions.
	// Regions are carved exactly once from fresh slabs, so a slab may
	// serve ops of several histories without overlap.
	mopArena []op.Mop
	intArena []int

	// spanOnly keeps "value" off the fast path. Only tests set it, to hold
	// the two paths against each other.
	spanOnly bool
}

const arenaSlab = 4096

func (p *lineParser) allocMops(n int) []op.Mop {
	if cap(p.mopArena)-len(p.mopArena) < n {
		p.mopArena = make([]op.Mop, 0, max(arenaSlab, n))
	}
	start := len(p.mopArena)
	p.mopArena = p.mopArena[:start+n]
	return p.mopArena[start : start+n : start+n]
}

// dropTraces lets go of every key's trace, keeping the interned keys.
func (p *lineParser) dropTraces() {
	for i := range p.entries {
		p.entries[i].trace = nil
	}
}

// envelope is the decoded top-level object, the scanner's stand-in for
// rawOp. The op type is resolved eagerly per assignment (last wins, so
// an earlier bad value is forgiven by a later good one, as with the
// stdlib decoder); typeBad keeps the offending string for the error.
type envelope struct {
	index, process int64
	time           int64
	typ            op.Type
	typeSet        bool
	typeOK         bool
	typeBad        string
}

// parse decodes one line. text must be non-blank (the caller skips
// blank lines).
func (p *lineParser) parse(text []byte, register bool) (op.Op, error) {
	p.buf, p.pos, p.depth, p.register = text, 0, 0, register
	p.elems, p.fast = p.elems[:0], false
	var env envelope
	p.skipWS()
	if p.pos >= len(p.buf) {
		return op.Op{}, p.errUnexpectedEnd()
	}
	switch p.buf[p.pos] {
	case '{':
		if err := p.parseEnvelope(&env); err != nil {
			return op.Op{}, err
		}
	case 'n':
		// A top-level null unmarshals to the zero op, which then fails
		// the type check below — the stdlib decoder's behavior.
		if err := p.literal("null"); err != nil {
			return op.Op{}, err
		}
	default:
		return op.Op{}, p.errSyntax("history op must be a JSON object")
	}
	p.skipWS()
	if p.pos != len(p.buf) {
		return op.Op{}, p.errSyntax("trailing data after op")
	}
	return p.buildOp(&env)
}

// parseEnvelope scans the top-level object, assigning known members and
// structurally skipping unknown ones.
func (p *lineParser) parseEnvelope(env *envelope) error {
	p.pos++ // '{'
	if err := p.push(); err != nil {
		return err
	}
	p.skipWS()
	if p.pos < len(p.buf) && p.buf[p.pos] == '}' {
		p.pos++
		p.depth--
		return nil
	}
	for {
		if p.pos >= len(p.buf) || p.buf[p.pos] != '"' {
			return p.errSyntax("expected object member name")
		}
		name, err := p.scanString()
		if err != nil {
			return err
		}
		p.skipWS()
		if p.pos >= len(p.buf) || p.buf[p.pos] != ':' {
			return p.errSyntax("expected ':' after member name")
		}
		p.pos++
		p.skipWS()
		// The scratch-backed name is consumed before the next string scan.
		switch memberOf(name) {
		case fieldIndex:
			err = p.memberInt(&env.index)
		case fieldType:
			err = p.memberType(env)
		case fieldProcess:
			err = p.memberInt(&env.process)
		case fieldTime:
			err = p.memberInt(&env.time)
		case fieldValue:
			err = p.memberValue()
		default:
			err = p.skipValue()
		}
		if err != nil {
			return err
		}
		p.skipWS()
		if p.pos >= len(p.buf) {
			return p.errUnexpectedEnd()
		}
		switch p.buf[p.pos] {
		case ',':
			p.pos++
			p.skipWS()
		case '}':
			p.pos++
			p.depth--
			return nil
		default:
			return p.errSyntax("expected ',' or '}' in object")
		}
	}
}

// field names an envelope member parseEnvelope assigns.
type field uint8

const (
	fieldUnknown field = iota
	fieldIndex
	fieldType
	fieldProcess
	fieldTime
	fieldValue
)

// memberOf matches a member name the way encoding/json matches field
// names: case-insensitively, Unicode folds included ("proceſs" is
// process). The exact lower-case spelling every encoder writes takes
// one switch; only another spelling pays for the folds.
func memberOf(name []byte) field {
	switch string(name) {
	case "index":
		return fieldIndex
	case "type":
		return fieldType
	case "process":
		return fieldProcess
	case "time":
		return fieldTime
	case "value":
		return fieldValue
	}
	switch {
	case bytes.EqualFold(name, nameIndex):
		return fieldIndex
	case bytes.EqualFold(name, nameType):
		return fieldType
	case bytes.EqualFold(name, nameProcess):
		return fieldProcess
	case bytes.EqualFold(name, nameTime):
		return fieldTime
	case bytes.EqualFold(name, nameValue):
		return fieldValue
	}
	return fieldUnknown
}

// memberInt assigns an integer member; null is a no-op.
func (p *lineParser) memberInt(dst *int64) error {
	if p.pos < len(p.buf) && p.buf[p.pos] == 'n' {
		return p.literal("null")
	}
	n, _, err := p.scanInt()
	if err != nil {
		return err
	}
	*dst = n
	return nil
}

// memberType assigns the "type" member, resolving the op type in place
// so no copy of the string survives the scratch buffer (except on the
// error path).
func (p *lineParser) memberType(env *envelope) error {
	if p.pos >= len(p.buf) {
		return p.errUnexpectedEnd()
	}
	if p.buf[p.pos] == 'n' {
		return p.literal("null")
	}
	if p.buf[p.pos] != '"' {
		return p.errSyntax("op type must be a string")
	}
	s, err := p.scanString()
	if err != nil {
		return err
	}
	env.typeSet = true
	env.typeOK = true
	switch string(s) {
	case "invoke":
		env.typ = op.Invoke
	case "ok":
		env.typ = op.OK
	case "fail":
		env.typ = op.Fail
	case "info":
		env.typ = op.Info
	default:
		env.typeOK = false
		env.typeBad = string(s)
	}
	return nil
}

// memberValue reads the "value" array: into mops when the fast path
// takes it, else as the span of each element; a repeated member
// last-wins, whichever path read the earlier one. Unlike the scalar
// members, null is not a no-op here: unmarshaling null into a slice sets
// it to nil.
func (p *lineParser) memberValue() error {
	if p.pos >= len(p.buf) {
		return p.errUnexpectedEnd()
	}
	p.fast = false
	switch p.buf[p.pos] {
	case 'n':
		p.elems = p.elems[:0]
		return p.literal("null")
	case '[':
	default:
		return p.errSyntax("op value must be an array")
	}
	if !p.spanOnly && p.fastValue() {
		p.fast = true
		return nil
	}
	p.pos++
	if err := p.push(); err != nil {
		return err
	}
	p.elems = p.elems[:0]
	p.skipWS()
	if p.pos < len(p.buf) && p.buf[p.pos] == ']' {
		p.pos++
		p.depth--
		return nil
	}
	for {
		start := p.pos
		if err := p.skipValue(); err != nil {
			return err
		}
		p.elems = append(p.elems, [2]int{start, p.pos})
		p.skipWS()
		if p.pos >= len(p.buf) {
			return p.errUnexpectedEnd()
		}
		switch p.buf[p.pos] {
		case ',':
			p.pos++
			p.skipWS()
		case ']':
			p.pos++
			p.depth--
			return nil
		default:
			return p.errSyntax("expected ',' or ']' in array")
		}
	}
}

// buildOp resolves the envelope and the winning "value" member: the
// fast path's mops as they stand, or the recorded spans parsed now.
func (p *lineParser) buildOp(env *envelope) (op.Op, error) {
	if !env.typeSet {
		return op.Op{}, fmt.Errorf("unknown op type %q", "")
	}
	if !env.typeOK {
		return op.Op{}, fmt.Errorf("unknown op type %q", env.typeBad)
	}
	o := op.Op{
		Index:   int(env.index),
		Process: int(env.process),
		Time:    env.time,
		Type:    env.typ,
	}
	if !p.fast {
		p.mops = p.mops[:0]
		for i, span := range p.elems {
			m, err := p.parseMop(span)
			if err != nil {
				return op.Op{}, fmt.Errorf("mop %d: %w", i, err)
			}
			p.mops = append(p.mops, m)
		}
	}
	if len(p.mops) == 0 {
		return o, nil
	}
	o.Mops = p.allocMops(len(p.mops))
	copy(o.Mops, p.mops)
	if p.register && env.typ == op.OK {
		// A null register read in a completed (ok) op means the read
		// observed the initial nil version; anywhere else the result is
		// simply unknown. Both paths leave it unknown, since "type" may
		// come after — or again after — "value".
		for i, m := range o.Mops {
			if m.F == op.FRead && !m.RegKnown {
				o.Mops[i] = op.ReadNil(m.Key)
			}
		}
	}
	return o, nil
}

// parseMop semantically parses one already-validated element span as a
// [fun, key, value] micro-op.
func (p *lineParser) parseMop(span [2]int) (op.Mop, error) {
	p.pos, p.depth = span[0], 0
	if p.buf[p.pos] != '[' {
		return op.Mop{}, fmt.Errorf("micro-op must be a 3-element array")
	}
	// Count elements and keep the first three spans; the count appears
	// in the arity error, so all elements are walked.
	p.pos++
	p.skipWS()
	var parts [3][2]int
	n := 0
	if p.buf[p.pos] != ']' {
		for {
			start := p.pos
			if err := p.skipValue(); err != nil {
				return op.Mop{}, err
			}
			if n < 3 {
				parts[n] = [2]int{start, p.pos}
			}
			n++
			p.skipWS()
			if p.buf[p.pos] == ']' {
				break
			}
			p.pos++ // ',' — the span was validated by the envelope pass
			p.skipWS()
		}
	}
	if n != 3 {
		return op.Mop{}, fmt.Errorf("micro-op must have 3 elements, has %d", n)
	}

	p.pos = parts[0][0]
	if p.buf[p.pos] != '"' {
		return op.Mop{}, fmt.Errorf("fun: micro-op fun must be a string")
	}
	fun, err := p.scanString()
	if err != nil {
		return op.Mop{}, fmt.Errorf("fun: %w", err)
	}
	// The fun scratch must outlive the key's string scan; the five
	// valid funs resolve to a constant before that.
	f, known := funOf(fun)

	e, err := p.parseKey(parts[1])
	if err != nil {
		return op.Mop{}, err
	}
	key := e.key
	if !known {
		return op.Mop{}, fmt.Errorf("unknown micro-op fun %q", fun)
	}

	p.pos = parts[2][0]
	if f != op.FRead {
		if p.buf[p.pos] == 'n' {
			// A null write argument decodes as 0 (unmarshal no-op).
			return op.Mop{F: f, Key: key}, nil
		}
		arg, err := p.parseInt()
		if err == nil && f == op.FWrite && arg == op.NilVersion {
			err = op.ErrNilVersion
		}
		if err != nil {
			return op.Mop{}, fmt.Errorf("write argument: %w", err)
		}
		return op.Mop{F: f, Key: key, Arg: int(arg)}, nil
	}
	if p.buf[p.pos] == 'n' {
		// Unknown, until buildOp resolves a register read against the op
		// type. Null list reads stay unknown — an observed empty list is
		// encoded as [].
		return op.Read(key), nil
	}
	if p.register {
		v, err := p.parseInt()
		if err == nil && v == op.NilVersion {
			err = op.ErrNilVersion
		}
		if err != nil {
			return op.Mop{}, fmt.Errorf("register read value: %w", err)
		}
		return op.ReadReg(key, int(v)), nil
	}
	if p.buf[p.pos] != '[' {
		return op.Mop{}, fmt.Errorf("list read value: must be an array of integers")
	}
	p.pos++
	p.skipWS()
	p.ints = p.ints[:0]
	if p.buf[p.pos] != ']' {
		for {
			if p.buf[p.pos] == 'n' {
				// A null element decodes as 0 (unmarshal no-op).
				p.pos += 4
				p.ints = append(p.ints, 0)
			} else {
				v, err := p.parseInt()
				if err != nil {
					return op.Mop{}, fmt.Errorf("list read value: %w", err)
				}
				p.ints = append(p.ints, int(v))
			}
			p.skipWS()
			if p.buf[p.pos] == ']' {
				break
			}
			p.pos++ // ','
			p.skipWS()
		}
	}
	return op.ReadList(key, op.ShareList(&e.trace, &p.intArena, p.ints)), nil
}

// funOf resolves a micro-op fun name.
func funOf(s []byte) (op.Fun, bool) {
	switch string(s) {
	case "append":
		return op.FAppend, true
	case "add":
		return op.FAdd, true
	case "increment":
		return op.FIncrement, true
	case "w":
		return op.FWrite, true
	case "r":
		return op.FRead, true
	}
	return 0, false
}

// fastValue parses the "value" array at pos — p.buf[p.pos] is '[' — into
// p.mops when all of it fits the fast grammar (see the file comment),
// leaving pos after the closing ']'. Otherwise it reports false with pos
// unmoved; what it had put in p.mops, p.ints and the arenas is scratch.
// A list it appended to its key's trace stays there: ShareList only
// ever hands out windows equal to the read, so the span path's parse of
// the same list gets a window of it, and a later read a window only if
// it equals one.
func (p *lineParser) fastValue() bool {
	b := p.buf
	p.mops = p.mops[:0]
	i := skipWS(b, p.pos+1)
	if at(b, i) != ']' {
		for {
			if i = p.fastMop(i); i < 0 {
				return false
			}
			if i = skipWS(b, i); at(b, i) == ']' {
				break
			}
			if i = comma(b, i); i < 0 {
				return false
			}
		}
	}
	p.pos = i + 1
	return true
}

// fastMop appends the [fun, key, val] micro-op at b[i] to p.mops and
// returns the offset after its ']', or -1 if it is not in the fast
// grammar.
func (p *lineParser) fastMop(i int) int {
	b := p.buf
	if at(b, i) != '[' {
		return -1
	}
	i = skipWS(b, i+1)

	end := plainEnd(b, i)
	if end < 0 {
		return -1
	}
	f, known := funOf(b[i+1 : end])
	if !known {
		return -1
	}
	if i = comma(b, end+1); i < 0 {
		return -1
	}

	var e *keyEntry
	if end = plainEnd(b, i); end >= 0 {
		e = p.intern(b[i+1 : end])
		end++
	} else {
		// An integer key is its own canonical decimal — except "-0",
		// which the span path renders as "0".
		var ok bool
		if _, end, ok = fastInt(b, i); !ok || (b[i] == '-' && b[i+1] == '0') {
			return -1
		}
		e = p.intern(b[i:end])
	}
	if i = comma(b, end); i < 0 {
		return -1
	}

	m := op.Mop{F: f, Key: e.key}
	switch c := at(b, i); {
	case c == 'n' && f == op.FRead:
		if len(b)-i < 4 || string(b[i:i+4]) != "null" {
			return -1
		}
		i += 4
	case f != op.FRead || p.register:
		v, next, ok := fastInt(b, i)
		if !ok {
			return -1
		}
		if i = next; f != op.FRead {
			m.Arg = v
		} else {
			m.Reg, m.RegKnown = v, true
		}
	case c == '[':
		ints := p.ints[:0]
		i = skipWS(b, i+1)
		if at(b, i) != ']' {
			for {
				v, next, ok := fastInt(b, i)
				if !ok {
					return -1
				}
				ints = append(ints, v)
				if i = skipWS(b, next); at(b, i) == ']' {
					break
				}
				if i = comma(b, i); i < 0 {
					return -1
				}
			}
		}
		i++
		p.ints = ints
		m.List = op.ShareList(&e.trace, &p.intArena, ints)
	default:
		return -1
	}
	if i = skipWS(b, i); at(b, i) != ']' {
		return -1
	}
	p.mops = append(p.mops, m)
	return i + 1
}

// at is b[i], or 0 — which no grammar position expects — past the end.
func at(b []byte, i int) byte {
	if i < len(b) {
		return b[i]
	}
	return 0
}

// comma steps over optional whitespace, a ',' and more whitespace,
// returning the offset after them, or -1 if no ',' is there.
func comma(b []byte, i int) int {
	if i = skipWS(b, i); at(b, i) != ',' {
		return -1
	}
	return skipWS(b, i+1)
}

// plainEnd returns the offset of the closing quote of the string opening
// at b[i] if all between the quotes is plain — ASCII, no escape, no
// control character — and -1 otherwise, or if b[i] is not a quote.
func plainEnd(b []byte, i int) int {
	if at(b, i) != '"' {
		return -1
	}
	for i++; i < len(b); i++ {
		c := b[i]
		if c == '"' {
			return i
		}
		if c == '\\' || c < 0x20 || c >= utf8.RuneSelf {
			break
		}
	}
	return -1
}

// fastInt parses a canonical integer of at most 18 digits — no leading
// zero, no overflow — returning the offset after it. The caller checks
// what follows: a '.', an exponent or a further digit is no delimiter,
// so such a number goes to the span path like any shape declined here.
func fastInt(b []byte, i int) (n, end int, ok bool) {
	neg := at(b, i) == '-'
	if neg {
		i++
	}
	start := i
	for ; i < len(b) && b[i]-'0' <= 9; i++ {
		n = n*10 + int(b[i]-'0')
	}
	if digits := i - start; digits == 0 || digits > 18 || (digits > 1 && b[start] == '0') {
		return 0, 0, false
	}
	if neg {
		n = -n
	}
	return n, i, true
}

// parseKey decodes a mop key span: a string, or an integer rendered in
// canonical decimal (so numeric keys match their string spellings).
func (p *lineParser) parseKey(span [2]int) (*keyEntry, error) {
	p.pos = span[0]
	c := p.buf[p.pos]
	if c == '"' {
		s, err := p.scanString()
		if err != nil {
			return nil, fmt.Errorf("key: %w", err)
		}
		return p.intern(s), nil
	}
	if c == '-' || (c >= '0' && c <= '9') {
		if _, tok, err := p.scanInt(); err == nil {
			if string(tok) == "-0" {
				tok = tok[1:]
			}
			return p.intern(tok), nil
		}
	}
	raw := p.buf[span[0]:span[1]]
	return nil, fmt.Errorf("key: key must be a string or integer: %s", raw)
}

// parseInt parses an integral number token at pos.
func (p *lineParser) parseInt() (int64, error) {
	c := p.buf[p.pos]
	if c != '-' && (c < '0' || c > '9') {
		return 0, fmt.Errorf("not an integer")
	}
	n, _, err := p.scanInt()
	return n, err
}

// scanInt parses a JSON number token that must be integral and fit in
// int64, accumulating the value during the digit scan (no second pass
// through strconv on the hot path). It also returns the raw token,
// which for an accepted value is canonical decimal except for "-0".
func (p *lineParser) scanInt() (int64, []byte, error) {
	b, i := p.buf, p.pos
	start := i
	neg := false
	if i < len(b) && b[i] == '-' {
		neg = true
		i++
	}
	digits := i
	var u uint64
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && b[i] >= '1' && b[i] <= '9':
		for i < len(b) && b[i] >= '0' && b[i] <= '9' {
			u = u*10 + uint64(b[i]-'0')
			i++
		}
	default:
		return 0, nil, p.errSyntax("invalid number")
	}
	if i < len(b) && (b[i] == '.' || b[i] == 'e' || b[i] == 'E') {
		return 0, nil, p.errSyntax("number is not an integer")
	}
	tok := b[start:i]
	if i-digits > 18 {
		// 19+ digits may wrap uint64; resolve exactly, rejecting
		// overflow as the stdlib decoder did.
		n, err := strconv.ParseInt(string(tok), 10, 64)
		if err != nil {
			return 0, nil, p.errSyntax("integer %s overflows", tok)
		}
		p.pos = i
		return n, tok, nil
	}
	p.pos = i
	if neg {
		return -int64(u), tok, nil
	}
	return int64(u), tok, nil
}

// intern returns b's cache entry, allocating only on first sight of a
// key. The entry is valid until the next intern.
func (p *lineParser) intern(b []byte) *keyEntry {
	if i, ok := p.keys[string(b)]; ok {
		return &p.entries[i]
	}
	if p.keys == nil {
		p.keys = make(map[string]int32, 64)
	} else if len(p.keys) >= maxKeyCache {
		clear(p.keys)
		clear(p.entries)
		p.entries = p.entries[:0]
	}
	p.entries = append(p.entries, keyEntry{key: string(b)})
	p.keys[p.entries[len(p.entries)-1].key] = int32(len(p.entries) - 1)
	return &p.entries[len(p.entries)-1]
}

// skipValue structurally validates one JSON value of any shape.
func (p *lineParser) skipValue() error {
	if p.pos >= len(p.buf) {
		return p.errUnexpectedEnd()
	}
	switch c := p.buf[p.pos]; {
	case c == '{':
		return p.skipObject()
	case c == '[':
		return p.skipArray()
	case c == '"':
		return p.validateString()
	case c == '-' || (c >= '0' && c <= '9'):
		_, _, err := p.scanNumber()
		return err
	case c == 't':
		return p.literal("true")
	case c == 'f':
		return p.literal("false")
	case c == 'n':
		return p.literal("null")
	default:
		return p.errSyntax("unexpected character %q", c)
	}
}

func (p *lineParser) skipObject() error {
	p.pos++
	if err := p.push(); err != nil {
		return err
	}
	p.skipWS()
	if p.pos < len(p.buf) && p.buf[p.pos] == '}' {
		p.pos++
		p.depth--
		return nil
	}
	for {
		if p.pos >= len(p.buf) || p.buf[p.pos] != '"' {
			return p.errSyntax("expected object member name")
		}
		if err := p.validateString(); err != nil {
			return err
		}
		p.skipWS()
		if p.pos >= len(p.buf) || p.buf[p.pos] != ':' {
			return p.errSyntax("expected ':' after member name")
		}
		p.pos++
		p.skipWS()
		if err := p.skipValue(); err != nil {
			return err
		}
		p.skipWS()
		if p.pos >= len(p.buf) {
			return p.errUnexpectedEnd()
		}
		switch p.buf[p.pos] {
		case ',':
			p.pos++
			p.skipWS()
		case '}':
			p.pos++
			p.depth--
			return nil
		default:
			return p.errSyntax("expected ',' or '}' in object")
		}
	}
}

func (p *lineParser) skipArray() error {
	p.pos++
	if err := p.push(); err != nil {
		return err
	}
	p.skipWS()
	if p.pos < len(p.buf) && p.buf[p.pos] == ']' {
		p.pos++
		p.depth--
		return nil
	}
	for {
		if err := p.skipValue(); err != nil {
			return err
		}
		p.skipWS()
		if p.pos >= len(p.buf) {
			return p.errUnexpectedEnd()
		}
		switch p.buf[p.pos] {
		case ',':
			p.pos++
			p.skipWS()
		case ']':
			p.pos++
			p.depth--
			return nil
		default:
			return p.errSyntax("expected ',' or ']' in array")
		}
	}
}

// scanString decodes the string starting at p.buf[p.pos] (which must be
// '"'). The result aliases the input when escape-free and valid UTF-8,
// and the parser's scratch otherwise; either way it is only valid until
// the next scanString call.
func (p *lineParser) scanString() ([]byte, error) {
	b := p.buf
	if end := plainEnd(b, p.pos); end >= 0 {
		s := b[p.pos+1 : end]
		p.pos = end + 1
		return s, nil
	}
	// Slow path: escapes, control characters, or non-ASCII bytes.
	i := p.pos + 1
	s := p.str[:0]
	for i < len(b) {
		switch c := b[i]; {
		case c == '"':
			p.pos = i + 1
			p.str = s
			return s, nil
		case c < 0x20:
			return nil, p.errSyntax("control character %#02x in string", c)
		case c == '\\':
			i++
			if i >= len(b) {
				return nil, p.errUnexpectedEnd()
			}
			switch b[i] {
			case '"', '\\', '/':
				s = append(s, b[i])
				i++
			case 'b':
				s, i = append(s, '\b'), i+1
			case 'f':
				s, i = append(s, '\f'), i+1
			case 'n':
				s, i = append(s, '\n'), i+1
			case 'r':
				s, i = append(s, '\r'), i+1
			case 't':
				s, i = append(s, '\t'), i+1
			case 'u':
				r := getu4(b[i+1:])
				if r < 0 {
					return nil, p.errSyntax("invalid \\u escape in string")
				}
				i += 5
				if utf16.IsSurrogate(r) {
					// A \u-escaped low surrogate may follow to complete
					// the pair; anything else (including a malformed
					// escape, left for the next iteration) decodes the
					// lone surrogate as U+FFFD — stdlib behavior.
					var r2 rune = -1
					if i+1 < len(b) && b[i] == '\\' && b[i+1] == 'u' {
						r2 = getu4(b[i+2:])
					}
					if dec := utf16.DecodeRune(r, r2); dec != utf8.RuneError {
						i += 6
						r = dec
					} else {
						r = utf8.RuneError
					}
				}
				s = utf8.AppendRune(s, r)
			default:
				return nil, p.errSyntax("invalid escape character %q in string", b[i])
			}
		case c >= utf8.RuneSelf:
			r, size := utf8.DecodeRune(b[i:])
			if r == utf8.RuneError && size == 1 {
				// Invalid UTF-8 decodes byte-by-byte to U+FFFD.
				s = utf8.AppendRune(s, utf8.RuneError)
				i++
			} else {
				s = append(s, b[i:i+size]...)
				i += size
			}
		default:
			s = append(s, c)
			i++
		}
	}
	return nil, p.errUnexpectedEnd()
}

// validateString checks string syntax without building the value:
// escapes must be well-formed and control characters are rejected, but
// raw non-ASCII bytes pass through untouched (invalid UTF-8 is accepted
// here, replaced only when a value is built).
func (p *lineParser) validateString() error {
	b := p.buf
	i := p.pos + 1
	for i < len(b) {
		switch c := b[i]; {
		case c == '"':
			p.pos = i + 1
			return nil
		case c < 0x20:
			return p.errSyntax("control character %#02x in string", c)
		case c == '\\':
			i++
			if i >= len(b) {
				return p.errUnexpectedEnd()
			}
			switch b[i] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				i++
			case 'u':
				if getu4(b[i+1:]) < 0 {
					return p.errSyntax("invalid \\u escape in string")
				}
				i += 5
			default:
				return p.errSyntax("invalid escape character %q in string", b[i])
			}
		default:
			i++
		}
	}
	return p.errUnexpectedEnd()
}

// getu4 decodes four hex digits, or -1.
func getu4(b []byte) rune {
	if len(b) < 4 {
		return -1
	}
	var r rune
	for _, c := range b[:4] {
		switch {
		case c >= '0' && c <= '9':
			c -= '0'
		case c >= 'a' && c <= 'f':
			c -= 'a' - 10
		case c >= 'A' && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r*16 + rune(c)
	}
	return r
}

// scanNumber validates one JSON number token at pos, reporting whether
// it is integral (no fraction or exponent).
func (p *lineParser) scanNumber() (tok []byte, integral bool, err error) {
	b, i := p.buf, p.pos
	start := i
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && b[i] >= '1' && b[i] <= '9':
		for i < len(b) && b[i] >= '0' && b[i] <= '9' {
			i++
		}
	default:
		return nil, false, p.errSyntax("invalid number")
	}
	integral = true
	if i < len(b) && b[i] == '.' {
		integral = false
		i++
		if i >= len(b) || b[i] < '0' || b[i] > '9' {
			return nil, false, p.errSyntax("invalid number")
		}
		for i < len(b) && b[i] >= '0' && b[i] <= '9' {
			i++
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		integral = false
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if i >= len(b) || b[i] < '0' || b[i] > '9' {
			return nil, false, p.errSyntax("invalid number")
		}
		for i < len(b) && b[i] >= '0' && b[i] <= '9' {
			i++
		}
	}
	p.pos = i
	return b[start:i], integral, nil
}

// literal consumes an exact keyword.
func (p *lineParser) literal(lit string) error {
	if len(p.buf)-p.pos < len(lit) || string(p.buf[p.pos:p.pos+len(lit)]) != lit {
		return p.errSyntax("invalid literal")
	}
	p.pos += len(lit)
	return nil
}

// push enters one composite value, enforcing the depth cap.
func (p *lineParser) push() error {
	p.depth++
	if p.depth > maxNestingDepth {
		return p.errSyntax("exceeded max depth")
	}
	return nil
}

func (p *lineParser) skipWS() { p.pos = skipWS(p.buf, p.pos) }

// skipWS returns the offset of the first byte at or after i that is not
// JSON whitespace. All four whitespace bytes are <= ' ', so the usual
// case — none to skip — is one comparison.
func skipWS(b []byte, i int) int {
	for i < len(b) && b[i] <= ' ' && (b[i] == ' ' || b[i] == '\t' || b[i] == '\r' || b[i] == '\n') {
		i++
	}
	return i
}

func (p *lineParser) errSyntax(format string, args ...any) error {
	return fmt.Errorf("invalid JSON at offset %d: %s", p.pos, fmt.Sprintf(format, args...))
}

func (p *lineParser) errUnexpectedEnd() error {
	return fmt.Errorf("invalid JSON at offset %d: unexpected end of input", p.pos)
}
