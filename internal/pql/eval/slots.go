package eval

import (
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"strings"

	"ariadne/internal/pql"
	"ariadne/internal/pql/analysis"
	"ariadne/internal/value"
)

// The slot program: the one IR every PQL rule is lowered to.
//
// The one scheduler (schedule, plan.go), costed by the bottom-up evaluator's
// path or the query vertex program's, fixes a static join order, so the set
// of bound variables at each step is known at compile time. lower turns that order
// into a program over a flat slot array indexed by precomputed positions:
// a positive step draws candidate rows from its rowSource — an indexed
// Relation lookup, the firing's delta batch, or a record source read
// straight off the transient RecordView / StaticGraph — and matches every
// argument against the row (first variable occurrence binds, later
// occurrences compare, constants and ground expressions compare by Equal);
// negations and comparisons filter; the head constructors build the emitted
// tuple. Boundness is static: a variable read before it is bound is a
// compile-time error, never a run-time one. So the cut is static too: the
// step from which on, every head variable being bound, the rest of the body
// is only an existence check, whose first witness ends the enumeration.

// slotFn evaluates a term against the slot array.
type slotFn func(slots []value.Value) (value.Value, error)

// slot sources: how a ground term is produced at runtime.
type srcKind uint8

const (
	srcConst srcKind = iota
	srcSlot
	srcFn
)

type slotSrc struct {
	kind srcKind
	slot int
	cval value.Value
	fn   slotFn
}

func (s *slotSrc) eval(slots []value.Value) (value.Value, error) {
	switch s.kind {
	case srcConst:
		return s.cval, nil
	case srcSlot:
		return slots[s.slot], nil
	default:
		return s.fn(slots)
	}
}

// match actions: how each argument of an atom is checked against a
// candidate row.
type matchKind uint8

const (
	matchSkip  matchKind = iota // wildcard
	matchBind                   // first occurrence: bind the slot
	matchSlot                   // bound variable: Equal against the slot
	matchConst                  // constant: Equal
	matchFn                     // ground complex term: evaluate, Equal
)

type slotMatch struct {
	kind matchKind
	slot int
	cval value.Value
	fn   slotFn
}

type slotStep struct {
	kind stepKind
	pred string
	pos  pql.Pos
	text string // the literal's source, for Explain

	// Predicate steps: where rows come from, the key columns ground before
	// the step (with their sources), and the per-argument match actions. A
	// negated step over a Relation tests membership by negSrc instead.
	rows       rowSource
	lookupCols []int
	lookupSrc  []slotSrc
	match      []slotMatch
	negSrc     []slotSrc

	// stepCompare: bindSlot >= 0 is the binder form (evaluate bindFn into
	// the slot), otherwise cmpFn filters.
	bindSlot int
	bindFn   slotFn
	cmpFn    func(slots []value.Value) (bool, error)

	// fallible: the step evaluates a term that can fail at run time (an
	// arithmetic expression or a function call).
	fallible bool
	// table is a record.emitted step's table id (Compile numbers the tables
	// the record steps read).
	table int

	// Where the program goes on: kids lists, in order, what runs once the
	// step matched; mask has a bit per branch below the step, cutMask one per
	// branch whose cut step it is.
	kids    []kid
	mask    uint64
	cutMask uint64
	// sig is the step's identity up to variable names (see lowerer.canon): two
	// steps with one sig, behind identical prefixes, do the same work. binds
	// reports whether matching the step binds a slot.
	sig   string
	binds bool
}

// program is a tree of steps over one slot array: one lowered rule body —
// a chain, one branch — or a record pass's prefix trie (see trie.go), one
// branch per rule, whose rules share the steps their bodies begin with.
// roots lists what runs first, as a step's kids do.
type program struct {
	steps    []slotStep
	roots    []kid
	branches []branch
	nSlots   int
}

// kid is what runs after a step, or first: step to, or (to < 0) the end of
// branch ^to; mask has a bit per branch below it.
type kid struct {
	to   int32
	mask uint64
}

// branch is one rule's end of a program: its head constructors and its cut,
// the first step before which every head variable is bound, or -1. Every
// completion under that step emits the same tuple, so the first one ends
// the branch's enumeration from that step on: the branch is done (its bit
// in slotRun.done) until the step enumerates afresh. The cut applies only
// when no step from it on is fallible: a row it skips could otherwise have
// failed the evaluation.
type branch struct {
	head []slotSrc
	cut  int
}

// errCut unwinds a completion under a cut out of every enumeration whose
// branches are all done, back to the cut step — as errRowExists ends a
// negated scan. A step returns it only when every live branch below it is
// done.
var errCut = errors.New("eval: head bound")

// slotRun is per-goroutine scratch state: the slot array, reused key,
// argument, row and head buffers, the firing's delta batch and emit sink,
// the relations its relation steps read, and — on the record-sourced path —
// the record and graph the record sources read. A partition shard's run also
// reads its overlay: relation steps see the database's tuples, then the
// overlay's; negations probe as has does.
//
// The emit sink receives the head buffer itself, overwritten by the next
// firing: a sink that keeps a tuple must copy it (Relation.insertCopy), and
// it probes with the canonical key first so a duplicate costs nothing.
type slotRun struct {
	db     *Database
	ovl    *Database
	sg     StaticGraph
	rv     *RecordView
	recSeq uint64 // advances with every record rv points at
	slots  []value.Value
	rowBuf [][]value.Value // per step, reused across rows
	// facts are the current record's emitted facts by table, and their
	// first-argument indexes (record.go); curs holds each step's cursor, and
	// work counts what they did.
	facts recordFacts
	curs  []stepCursor
	work  workCounts
	// rels and ovls hold, per step, the database's and the overlay's relation
	// a relation step reads (nil: none), resolved once per firing by prep.
	rels   []*Relation
	ovls   []*Relation
	argBuf Tuple
	head   Tuple
	deltas []Tuple
	// emit receives every head, branch naming the branch it ends.
	emit   func(Tuple) error
	branch int
	// live has a bit per branch still running (a trie program's pass stops
	// a failing branch and every later one, see fail), done one per branch
	// completed under its cut (see end); err is the failure of branch
	// errBranch at vertex errVertex.
	live      uint64
	done      uint64
	err       error
	errBranch int
	errVertex int64
}

// prep sizes the scratch for p, resolves its relation steps' relations and
// installs the delta batch and sink. A relation missing now stays missing
// for the firing. Stale slot values from a previous firing are harmless: the
// static binding discipline guarantees every slot is written before it is
// read.
func (rn *slotRun) prep(p *program, deltas []Tuple, emit func(Tuple) error) {
	if cap(rn.slots) < p.nSlots {
		rn.slots = make([]value.Value, p.nSlots)
	} else {
		rn.slots = rn.slots[:p.nSlots]
	}
	for _, br := range p.branches {
		if cap(rn.head) < len(br.head) {
			rn.head = make(Tuple, len(br.head))
		}
	}
	if n := len(p.steps); len(rn.rowBuf) < n {
		rn.rowBuf = append(rn.rowBuf, make([][]value.Value, n-len(rn.rowBuf))...)
		rn.rels, rn.ovls = make([]*Relation, n), make([]*Relation, n)
		rn.curs = make([]stepCursor, n)
	}
	clear(rn.curs)
	rn.live, rn.done = p.all(), 0
	for i := range p.steps {
		st := &p.steps[i]
		rn.rels[i], rn.ovls[i] = nil, nil
		if st.kind == stepCompare || st.rows != rowsRelation {
			continue
		}
		rn.rels[i] = rn.db.Get(st.pred)
		if rn.ovl != nil {
			rn.ovls[i] = rn.ovl.Get(st.pred)
		}
	}
	rn.deltas = deltas
	rn.emit = emit
}

// appendNorm appends v's canonical binary encoding, the one tuple identity
// every relation key, index key and probe uses (the record index hashes with
// value.Hash, which hashes alike what this encodes alike). It agrees with
// value.Equal wherever Equal is transitive: an Int that a float64 represents
// exactly encodes as that Float (3 and 3.0 are one tuple), a larger one
// keeps its Int encoding (1<<53 and 1<<53+1 stay two), and -0.0 encodes as
// +0.0 (0 and -0.0 are one tuple).
func appendNorm(b []byte, v value.Value) []byte {
	switch v.Kind() {
	case value.Int:
		if i := v.Int(); float64(i) < 1<<63 && int64(float64(i)) == i {
			v = value.NewFloat(float64(i))
		}
	case value.Float:
		if v.Float() == 0 {
			v = value.NewFloat(0)
		}
	}
	return v.AppendBinary(b)
}

// args evaluates srcs into the reused argument buffer.
func (rn *slotRun) args(srcs []slotSrc) (Tuple, error) {
	t := rn.argBuf[:0]
	for i := range srcs {
		v, err := srcs[i].eval(rn.slots)
		if err != nil {
			return nil, err
		}
		t = append(t, v)
	}
	rn.argBuf = t
	return t, nil
}

// arityErr reports a candidate row whose arity is not the step's.
func (st *slotStep) arityErr() error {
	return fmt.Errorf("pql: %s: arity mismatch binding %s", st.pos, st.pred)
}

// matchFact matches the step against an emitted fact's row (x, args..., ss), which
// it does not build; args has the row's arity less two.
func (st *slotStep) matchFact(slots []value.Value, x value.Value, args []value.Value, ss value.Value) (bool, error) {
	n := len(st.match)
	ok, err := true, error(nil)
	if st.match[0].kind != matchSkip {
		ok, err = matchCols(slots, st.match[:1], []value.Value{x})
	}
	if ok {
		ok, err = matchCols(slots, st.match[1:n-1], args)
	}
	if ok && st.match[n-1].kind != matchSkip {
		ok, err = matchCols(slots, st.match[n-1:], []value.Value{ss})
	}
	return ok, err
}

// matchCols runs match actions against the columns of a candidate row, one
// each.
func matchCols(slots []value.Value, ms []slotMatch, row []value.Value) (bool, error) {
	for i := range ms {
		m := &ms[i]
		switch m.kind {
		case matchSkip:
		case matchBind:
			slots[m.slot] = row[i]
		case matchSlot:
			if !slots[m.slot].Equal(row[i]) {
				return false, nil
			}
		case matchConst:
			if !m.cval.Equal(row[i]) {
				return false, nil
			}
		default: // matchFn
			v, err := m.fn(slots)
			if err != nil {
				return false, err
			}
			if !v.Equal(row[i]) {
				return false, nil
			}
		}
	}
	return true, nil
}

// all has a bit per branch.
func (p *program) all() uint64 {
	if len(p.branches) >= 64 {
		return ^uint64(0)
	}
	return 1<<uint(len(p.branches)) - 1
}

// start runs the program from its roots.
func (p *program) start(rn *slotRun) error { return p.goOn(rn, p.roots, p.all()) }

// next goes on after step si matched.
func (p *program) next(rn *slotRun, si int) error {
	st := &p.steps[si]
	return p.goOn(rn, st.kids, st.mask)
}

// goOn runs kids, whose branches mask has: one step or branch end, or at a
// fork every kid with a live branch below it that is not done, in order. A
// kid's failure stops the branch it is charged to and every later one (see
// fail); the fork goes on with the rest, and returns errCut once no branch
// of mask is left to run. Only a trie program forks.
func (p *program) goOn(rn *slotRun, kids []kid, mask uint64) error {
	if len(kids) == 1 {
		if k := kids[0].to; k >= 0 {
			return p.run(rn, int(k))
		}
		return p.end(rn, int(^kids[0].to))
	}
	for _, k := range kids {
		if k.mask&rn.live&^rn.done == 0 {
			continue
		}
		var err error
		if k.to >= 0 {
			err = p.run(rn, int(k.to))
		} else {
			err = p.end(rn, int(^k.to))
		}
		if err != nil && err != errCut {
			rn.fail(k.mask, err)
		}
	}
	if mask&rn.live&^rn.done == 0 {
		return errCut
	}
	return nil
}

// fail charges err to the lowest live branch of mask, which a rule-major
// pass would have run into first: that branch and every later one stop,
// so a later failure is always an earlier branch's and replaces this one.
func (rn *slotRun) fail(mask uint64, err error) {
	b := bits.TrailingZeros64(mask & rn.live)
	rn.live &= 1<<uint(b) - 1
	rn.err, rn.errBranch, rn.errVertex = err, b, rn.rv.Vertex
}

// end emits branch b's head; under the branch's cut it marks the branch
// done and returns errCut.
func (p *program) end(rn *slotRun, b int) error {
	br := &p.branches[b]
	head := rn.head[:len(br.head)]
	for i := range br.head {
		v, err := br.head[i].eval(rn.slots)
		if err != nil {
			return err
		}
		head[i] = v
	}
	rn.branch = b
	if err := rn.emit(head); err != nil || br.cut < 0 {
		return err
	}
	rn.done |= 1 << uint(b)
	return errCut
}

// run executes step si. At the cut step of some branches, whose enumeration
// it ends, it makes them not done again and absorbs errCut unless every
// branch below the step is still done.
func (p *program) run(rn *slotRun, si int) error {
	st := &p.steps[si]
	if st.cutMask == 0 {
		return p.exec(rn, si)
	}
	err := p.exec(rn, si)
	rn.done &^= st.cutMask
	if err == errCut && st.mask&rn.live&^rn.done != 0 {
		return nil
	}
	return err
}

// exec runs step si.
func (p *program) exec(rn *slotRun, si int) error {
	st := &p.steps[si]
	switch {
	case st.kind == stepCompare:
		if st.bindSlot >= 0 {
			v, err := st.bindFn(rn.slots)
			if err != nil {
				return err
			}
			rn.slots[st.bindSlot] = v
			return p.next(rn, si)
		}
		ok, err := st.cmpFn(rn.slots)
		if err != nil || !ok {
			return err
		}
		return p.next(rn, si)

	case st.rows >= rowsSuperstep:
		return p.runRecord(rn, si, st)

	case st.kind == stepNegated:
		// Evaluate the arguments before the nil-relation check so UDF and
		// arithmetic errors surface whether or not the relation exists.
		t, err := rn.args(st.negSrc)
		if err != nil {
			return err
		}
		if rn.has(si, t) {
			return nil
		}
		return p.next(rn, si)

	case st.rows == rowsDelta:
		return p.each(rn, si, st, all(rn.deltas))

	default: // stepPositive over a Relation (and the overlay's)
		rel, ovl := rn.rels[si], rn.ovls[si]
		if rel == nil && ovl == nil {
			return nil
		}
		var key Tuple
		if len(st.lookupCols) > 0 {
			var err error
			if key, err = rn.args(st.lookupSrc); err != nil {
				return err
			}
		}
		// Both candidate lists are taken before either is walked: the later
		// steps reuse the key buffer.
		cands, more := rel.candidates(st, key), ovl.candidates(st, key)
		if err := p.each(rn, si, st, cands); err != nil {
			return err
		}
		return p.each(rn, si, st, more)
	}
}

// has reports whether step si's relation holds t: on the main shard, in its
// set, bits or any shard's bitset; on a partition shard, whose IDB literals
// are anchored or static-only, in the frozen set and bits or its overlay's
// set and bitset.
func (rn *slotRun) has(si int, t Tuple) bool {
	rel, ovl := rn.rels[si], rn.ovls[si]
	if v, s, ok := rel.bitOf(t); ok {
		if rn.ovl == nil {
			return rel.hasBit(v, s)
		}
		return rel.bits.has(v, s) || ovl != nil && ovl.bits.has(v, s)
	}
	h := hashTuple(t)
	return rel != nil && rel.has(t, h) || ovl != nil && ovl.has(t, h)
}

// candidates returns the tuples a relation step reads from r (nil: none):
// all of them, or those matching key on the step's key columns.
func (r *Relation) candidates(st *slotStep, key Tuple) cands {
	if r == nil {
		return cands{}
	}
	if len(st.lookupCols) == 0 {
		return all(r.order)
	}
	return r.lookup(st.lookupCols, key)
}

// each matches every candidate tuple and runs the rest of the program on
// each match.
func (p *program) each(rn *slotRun, si int, st *slotStep, c cands) error {
	for t, ok := c.pop(); ok; t, ok = c.pop() {
		if len(t) != len(st.match) {
			return st.arityErr()
		}
		ok, err := matchCols(rn.slots, st.match, t)
		if err != nil {
			return err
		}
		if !ok {
			continue
		}
		if err := p.next(rn, si); err != nil {
			return err
		}
	}
	return nil
}

// lowerer tracks the static binding state during lowering: which variables
// are bound, and at which slot.
type lowerer struct {
	env    *analysis.Env
	slotOf map[string]int
	// anchors counts the variables bound before the first step: a record
	// rule's vertex (slot 0) and current superstep (slot 1).
	anchors int
}

func (lw *lowerer) bind(name string) int {
	if s, ok := lw.slotOf[name]; ok {
		return s
	}
	s := len(lw.slotOf)
	lw.slotOf[name] = s
	return s
}

// ground reports whether every variable of t is bound at this point.
func (lw *lowerer) ground(t pql.Term) bool {
	var vs []*pql.Var
	for _, v := range pql.Vars(t, vs) {
		if _, ok := lw.slotOf[v.Name]; !ok {
			return false
		}
	}
	return true
}

// groundAll reports whether every term of ts is ground at this point.
func (lw *lowerer) groundAll(ts []pql.Term) bool {
	for _, t := range ts {
		if !lw.ground(t) {
			return false
		}
	}
	return true
}

// term lowers a term that must be ground at this point of the program.
func (lw *lowerer) term(t pql.Term) (slotFn, error) {
	switch t := t.(type) {
	case *pql.Const:
		v := t.Val
		return func([]value.Value) (value.Value, error) { return v, nil }, nil
	case *pql.Var:
		slot, ok := lw.slotOf[t.Name]
		if !ok {
			return nil, fmt.Errorf("pql: %s: variable %s is not bound at this point of the rule body", t.Pos, t.Name)
		}
		return func(s []value.Value) (value.Value, error) { return s[slot], nil }, nil
	case *pql.BinExpr:
		lf, err := lw.term(t.L)
		if err != nil {
			return nil, err
		}
		if t.Op == pql.OpNeg {
			return func(s []value.Value) (value.Value, error) {
				l, err := lf(s)
				if err != nil {
					return value.NullValue, err
				}
				return value.Neg(l)
			}, nil
		}
		rf, err := lw.term(t.R)
		if err != nil {
			return nil, err
		}
		var op func(a, b value.Value) (value.Value, error)
		switch t.Op {
		case pql.OpAdd:
			op = value.Add
		case pql.OpSub:
			op = value.Sub
		case pql.OpMul:
			op = value.Mul
		case pql.OpDiv:
			op = value.Div
		case pql.OpMod:
			op = value.Mod
		default:
			return nil, fmt.Errorf("pql: %s: unknown operator", t.Pos)
		}
		return func(s []value.Value) (value.Value, error) {
			l, err := lf(s)
			if err != nil {
				return value.NullValue, err
			}
			r, err := rf(s)
			if err != nil {
				return value.NullValue, err
			}
			return op(l, r)
		}, nil
	case *pql.Call:
		fn, ok := lw.env.Funcs[t.Name]
		if !ok {
			return nil, fmt.Errorf("pql: %s: unknown function %s", t.Pos, t.Name)
		}
		argFns := make([]slotFn, len(t.Args))
		for i, a := range t.Args {
			af, err := lw.term(a)
			if err != nil {
				return nil, err
			}
			argFns[i] = af
		}
		name, pos := t.Name, t.Pos
		return func(s []value.Value) (value.Value, error) {
			args := make([]value.Value, len(argFns))
			for i := range argFns {
				v, err := argFns[i](s)
				if err != nil {
					return value.NullValue, err
				}
				args[i] = v
			}
			out, err := fn.Fn(args)
			if err != nil {
				return value.NullValue, fmt.Errorf("pql: %s: %s: %w", pos, name, err)
			}
			return out, nil
		}, nil
	default:
		return nil, fmt.Errorf("pql: %s: cannot evaluate %s here", termPos(t), t)
	}
}

func termPos(t pql.Term) pql.Pos {
	switch t := t.(type) {
	case *pql.Param:
		return t.Pos
	case *pql.Aggregate:
		return t.Pos
	}
	return pql.Pos{}
}

// src lowers a ground term into a slot source; the srcConst/srcSlot forms
// avoid a closure call for the common cases.
func (lw *lowerer) src(t pql.Term) (slotSrc, error) {
	if c, ok := t.(*pql.Const); ok {
		return slotSrc{kind: srcConst, cval: c.Val}, nil
	}
	if v, ok := t.(*pql.Var); ok {
		if slot, bound := lw.slotOf[v.Name]; bound {
			return slotSrc{kind: srcSlot, slot: slot}, nil
		}
	}
	fn, err := lw.term(t)
	return slotSrc{kind: srcFn, fn: fn}, err
}

// canFail reports whether evaluating t can fail at run time: anything but a
// variable or a constant is arithmetic or a function call.
func canFail(t pql.Term) bool {
	switch t.(type) {
	case *pql.Var, *pql.Const:
		return false
	}
	return true
}

// cmp lowers a comparison literal: the binder form `v = expr` when v is a
// still-unbound variable and expr is ground, a filter otherwise.
func (lw *lowerer) cmp(c *pql.CmpLit) (slotStep, error) {
	st := slotStep{kind: stepCompare, pos: c.Pos, text: c.String(), bindSlot: -1,
		fallible: canFail(c.L) || canFail(c.R)}
	if c.Op == pql.CmpEq {
		for _, side := range [2][2]pql.Term{{c.L, c.R}, {c.R, c.L}} {
			v, ok := asVar(side[0])
			if _, bound := lw.slotOf[v]; !ok || bound || !lw.ground(side[1]) {
				continue
			}
			fn, err := lw.term(side[1])
			if err != nil {
				return st, err
			}
			st.sig = "bind " + lw.canon(side[1])
			st.bindSlot, st.bindFn, st.binds = lw.bind(v), fn, true
			return st, nil
		}
	}
	ls, err := lw.src(c.L)
	if err != nil {
		return st, err
	}
	rs, err := lw.src(c.R)
	if err != nil {
		return st, err
	}
	st.sig = fmt.Sprintf("cmp %s %s %s", c.Op, lw.canon(c.L), lw.canon(c.R))
	op, pos := c.Op, c.Pos
	st.cmpFn = func(s []value.Value) (bool, error) {
		l, err := ls.eval(s)
		if err != nil {
			return false, err
		}
		r, err := rs.eval(s)
		if err != nil {
			return false, err
		}
		switch op {
		case pql.CmpEq:
			return l.Equal(r), nil
		case pql.CmpNeq:
			return !l.Equal(r), nil
		}
		cmp := l.Compare(r)
		switch op {
		case pql.CmpLt:
			return cmp < 0, nil
		case pql.CmpLe:
			return cmp <= 0, nil
		case pql.CmpGt:
			return cmp > 0, nil
		case pql.CmpGe:
			return cmp >= 0, nil
		default:
			return false, fmt.Errorf("pql: %s: unknown comparison", pos)
		}
	}
	return st, nil
}

// atom lowers a predicate step. Pass 1 builds the lookup key from the
// source's key columns that are ground *before* the step; pass 2 builds the
// match actions in argument order — a variable's first occurrence binds, a
// repeat occurrence (even within this atom) compares.
func (lw *lowerer) atom(ps planStep) (st slotStep, err error) {
	a := ps.atom
	st = slotStep{kind: ps.kind, pred: a.Pred, pos: a.Pos, text: a.String(), rows: ps.rows, bindSlot: -1}
	for _, arg := range a.Args {
		st.fallible = st.fallible || canFail(arg)
	}
	sig := []string{fmt.Sprintf("%d %s %s", ps.kind, ps.rows, a.Pred)}
	defer func() { st.sig = strings.Join(sig, " ") }()
	if ps.kind == stepNegated {
		st.text = "!" + st.text
		if ps.rows == rowsRelation {
			for _, arg := range a.Args {
				src, err := lw.src(arg)
				if err != nil {
					return st, err
				}
				st.negSrc = append(st.negSrc, src)
				sig = append(sig, lw.canon(arg))
			}
			return st, nil
		}
	}
	for i, arg := range a.Args {
		if !ps.rows.keyColumn(i, len(a.Args)) || !lw.ground(arg) {
			continue
		}
		src, err := lw.src(arg)
		if err != nil {
			return st, err
		}
		st.lookupCols = append(st.lookupCols, i)
		st.lookupSrc = append(st.lookupSrc, src)
	}
	st.match = make([]slotMatch, len(a.Args))
	for i, arg := range a.Args {
		switch arg := arg.(type) {
		case *pql.Var:
			if arg.Wildcard() {
				st.match[i] = slotMatch{kind: matchSkip}
			} else if slot, ok := lw.slotOf[arg.Name]; ok && slot < lw.anchors && ps.rows.recordColumn(i, len(a.Args)) == slot {
				// The source writes the record's own vertex or superstep
				// here, which the anchor slot holds.
				st.match[i] = slotMatch{kind: matchSkip}
			} else if ok {
				st.match[i] = slotMatch{kind: matchSlot, slot: slot}
			} else {
				st.match[i] = slotMatch{kind: matchBind, slot: lw.bind(arg.Name)}
				st.binds = true
			}
			sig = append(sig, fmt.Sprintf("%d:%d", st.match[i].kind, st.match[i].slot))
		case *pql.Const:
			st.match[i] = slotMatch{kind: matchConst, cval: arg.Val}
			sig = append(sig, lw.canon(arg))
		default:
			fn, err := lw.term(arg)
			if err != nil {
				return st, fmt.Errorf("%w (argument %s of %s must be ground when matched)", err, arg, a.Pred)
			}
			st.match[i] = slotMatch{kind: matchFn, fn: fn}
			sig = append(sig, lw.canon(arg))
		}
	}
	return st, nil
}

// canon renders a term with each bound variable as its slot: two steps
// whose sigs are built from equal renderings, behind identical prefixes,
// evaluate the same values. A term of any other form renders as itself
// only.
func (lw *lowerer) canon(t pql.Term) string {
	switch t := t.(type) {
	case *pql.Const:
		return fmt.Sprintf("%s:%q", t.Val.Kind(), t.Val.String())
	case *pql.Var:
		if s, ok := lw.slotOf[t.Name]; ok && !t.Wildcard() {
			return fmt.Sprintf("$%d", s)
		}
	case *pql.BinExpr:
		if t.Op == pql.OpNeg {
			return "-(" + lw.canon(t.L) + ")"
		}
		return "(" + lw.canon(t.L) + " " + t.Op.String() + " " + lw.canon(t.R) + ")"
	case *pql.Call:
		args := make([]string, len(t.Args))
		for i, a := range t.Args {
			args[i] = lw.canon(a)
		}
		return t.Name + "(" + strings.Join(args, ", ") + ")"
	}
	return fmt.Sprintf("%p", t)
}

// lower compiles an ordered body and head into a slot program. Variables
// named in bound hold a value before the first step runs (slots 0..).
func lower(steps []planStep, head []pql.Term, env *analysis.Env, bound ...string) (*program, error) {
	lw := &lowerer{env: env, slotOf: map[string]int{}, anchors: len(bound)}
	for _, name := range bound {
		lw.bind(name)
	}
	p := &program{roots: []kid{{to: ^0, mask: 1}}}
	br := branch{cut: -1}
	for i, ps := range steps {
		if br.cut < 0 && lw.groundAll(head) {
			br.cut = i
		}
		var st slotStep
		var err error
		if ps.kind == stepCompare {
			st, err = lw.cmp(ps.cmp)
		} else {
			st, err = lw.atom(ps)
		}
		if err != nil {
			return nil, err
		}
		st.kids, st.mask = []kid{{to: int32(i + 1), mask: 1}}, 1
		p.steps = append(p.steps, st)
	}
	for _, a := range head {
		src, err := lw.src(a)
		if err != nil {
			return nil, err
		}
		br.head = append(br.head, src)
	}
	if br.cut >= 0 && slices.ContainsFunc(p.steps[br.cut:], func(st slotStep) bool { return st.fallible }) {
		br.cut = -1
	}
	if n := len(p.steps); n > 0 {
		p.roots = []kid{{to: 0, mask: 1}}
		p.steps[n-1].kids = []kid{{to: ^0, mask: 1}}
	}
	if br.cut >= 0 {
		p.steps[br.cut].cutMask = 1
	}
	p.branches = []branch{br}
	p.nSlots = len(lw.slotOf)
	return p, nil
}
