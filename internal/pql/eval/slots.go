package eval

import (
	"errors"
	"fmt"
	"slices"

	"ariadne/internal/pql"
	"ariadne/internal/pql/analysis"
	"ariadne/internal/value"
)

// The slot program: the one IR every PQL rule is lowered to.
//
// A planner (orderBody for the bottom-up evaluator, planRecordRule for the
// query vertex program) fixes a static join order, so the set of bound
// variables at each step is known at compile time. lower turns that order
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
	colsKey    string
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
}

// program is one lowered rule body: the step program, the head
// constructors, and the slot count.
type program struct {
	steps  []slotStep
	head   []slotSrc
	nSlots int
	// cut is the first step before which every head variable is bound, or
	// -1. Every completion under that step emits the same tuple, so the
	// first one ends the step's enumeration (errCut). The cut applies only
	// when no step from it on is fallible: a row it skips could otherwise
	// have failed the evaluation.
	cut int
}

// errCut unwinds a completion under the program's cut step back to that
// step, ending its enumeration — as errRowExists ends a negated scan.
var errCut = errors.New("eval: head bound")

// slotRun is per-goroutine scratch state: the slot array, reused key, row
// and head buffers, the firing's delta batch and emit sink, and — on the
// record-sourced path — the record and graph the record sources read. A
// partition shard's run also reads its overlay: relation steps see the
// database's tuples, then the overlay's; negations probe as has does.
//
// The emit sink receives the head buffer itself, overwritten by the next
// firing: a sink that keeps a tuple must copy it (Relation.insertCopy), and
// it probes with the canonical key first so a duplicate costs nothing.
type slotRun struct {
	db      *Database
	ovl     *Database
	sg      StaticGraph
	rv      *RecordView
	recSeq  uint64 // advances with every record rv points at
	slots   []value.Value
	rowBuf  [][]value.Value // per step, reused across rows
	factIdx []factIndex     // per step, emitted-fact index of the current record
	keyBuf  []byte
	head    Tuple
	deltas  []Tuple
	emit    func(Tuple) error
}

// prep sizes the scratch for p and installs the delta batch and sink.
// Stale slot values from a previous firing are harmless: the static binding
// discipline guarantees every slot is written before it is read.
func (rn *slotRun) prep(p *program, deltas []Tuple, emit func(Tuple) error) {
	if cap(rn.slots) < p.nSlots {
		rn.slots = make([]value.Value, p.nSlots)
	} else {
		rn.slots = rn.slots[:p.nSlots]
	}
	if cap(rn.head) < len(p.head) {
		rn.head = make(Tuple, len(p.head))
	} else {
		rn.head = rn.head[:len(p.head)]
	}
	for len(rn.rowBuf) < len(p.steps) {
		rn.rowBuf = append(rn.rowBuf, nil)
		rn.factIdx = append(rn.factIdx, factIndex{})
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

// appendKey appends the canonical key of t (see Tuple.Key).
func appendKey(b []byte, t Tuple) []byte {
	for _, v := range t {
		b = appendNorm(b, v)
	}
	return b
}

// key evaluates srcs into the reused key buffer, in canonical encoding.
func (rn *slotRun) key(srcs []slotSrc) ([]byte, error) {
	kb := rn.keyBuf[:0]
	for i := range srcs {
		v, err := srcs[i].eval(rn.slots)
		if err != nil {
			return nil, err
		}
		kb = appendNorm(kb, v)
	}
	rn.keyBuf = kb
	return kb, nil
}

// matchRow runs the step's match actions against one candidate row.
func (st *slotStep) matchRow(slots, row []value.Value) (bool, error) {
	if len(row) != len(st.match) {
		return false, fmt.Errorf("pql: %s: arity mismatch binding %s", st.pos, st.pred)
	}
	for i := range st.match {
		m := &st.match[i]
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

// run executes the program from step si; at the cut step it absorbs the
// errCut its first completion returns.
func (p *program) run(rn *slotRun, si int) error {
	if si == p.cut {
		if err := p.exec(rn, si); err != errCut {
			return err
		}
		return nil
	}
	return p.exec(rn, si)
}

// exec runs step si, or emits the head once every step has matched.
func (p *program) exec(rn *slotRun, si int) error {
	if si == len(p.steps) {
		for i := range p.head {
			v, err := p.head[i].eval(rn.slots)
			if err != nil {
				return err
			}
			rn.head[i] = v
		}
		if err := rn.emit(rn.head); err != nil || p.cut < 0 {
			return err
		}
		return errCut
	}
	st := &p.steps[si]
	switch {
	case st.kind == stepCompare:
		if st.bindSlot >= 0 {
			v, err := st.bindFn(rn.slots)
			if err != nil {
				return err
			}
			rn.slots[st.bindSlot] = v
			return p.run(rn, si+1)
		}
		ok, err := st.cmpFn(rn.slots)
		if err != nil || !ok {
			return err
		}
		return p.run(rn, si+1)

	case st.rows >= rowsSuperstep:
		return p.runRecord(rn, si, st)

	case st.kind == stepNegated:
		// Evaluate the arguments before the nil-relation check so UDF and
		// arithmetic errors surface whether or not the relation exists.
		kb, err := rn.key(st.negSrc)
		if err != nil {
			return err
		}
		if rn.has(st.pred, kb) {
			return nil
		}
		return p.run(rn, si+1)

	case st.rows == rowsDelta:
		return p.each(rn, si, st, rn.deltas)

	default: // stepPositive over a Relation (and the overlay's)
		rel, ovl := rn.db.Get(st.pred), rn.overlay(st.pred)
		if rel == nil && ovl == nil {
			return nil
		}
		var kb []byte
		if len(st.lookupCols) > 0 {
			var err error
			if kb, err = rn.key(st.lookupSrc); err != nil {
				return err
			}
		}
		// Both candidate lists are taken before either is walked: the later
		// steps reuse the key buffer.
		cands, more := rel.candidates(st, kb), ovl.candidates(st, kb)
		if err := p.each(rn, si, st, cands); err != nil {
			return err
		}
		return p.each(rn, si, st, more)
	}
}

// overlay returns the run's overlay relation for pred, or nil.
func (rn *slotRun) overlay(pred string) *Relation {
	if rn.ovl == nil {
		return nil
	}
	return rn.ovl.Get(pred)
}

// has reports whether relation pred holds the tuple keyed kb: on the main
// shard, in rows or any shard set; on a partition shard, whose IDB literals
// are anchored or static-only, in the frozen rows or its own set.
func (rn *slotRun) has(pred string, kb []byte) bool {
	rel := rn.db.Get(pred)
	if rn.ovl == nil {
		return rel != nil && rel.containsKeyBytes(kb)
	}
	ovl := rn.ovl.Get(pred)
	return rel != nil && rel.inRows(kb) || ovl != nil && ovl.inRows(kb)
}

// candidates returns the tuples a relation step reads from r (nil: none):
// all of them, or those matching the key kb on the step's key columns.
func (r *Relation) candidates(st *slotStep, kb []byte) []Tuple {
	if r == nil {
		return nil
	}
	if len(st.lookupCols) == 0 {
		return r.All()
	}
	return r.LookupKey(st.lookupCols, st.colsKey, kb)
}

// each matches every candidate tuple and runs the rest of the program on
// each match.
func (p *program) each(rn *slotRun, si int, st *slotStep, cands []Tuple) error {
	for _, t := range cands {
		ok, err := st.matchRow(rn.slots, t)
		if err != nil {
			return err
		}
		if !ok {
			continue
		}
		if err := p.run(rn, si+1); err != nil {
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
			st.bindSlot, st.bindFn = lw.bind(v), fn
			return st, nil
		}
	}
	lf, err := lw.term(c.L)
	if err != nil {
		return st, err
	}
	rf, err := lw.term(c.R)
	if err != nil {
		return st, err
	}
	op, pos := c.Op, c.Pos
	st.cmpFn = func(s []value.Value) (bool, error) {
		l, err := lf(s)
		if err != nil {
			return false, err
		}
		r, err := rf(s)
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
func (lw *lowerer) atom(ps planStep) (slotStep, error) {
	a := ps.atom
	st := slotStep{kind: ps.kind, pred: a.Pred, pos: a.Pos, text: a.String(), rows: ps.rows, bindSlot: -1}
	for _, arg := range a.Args {
		st.fallible = st.fallible || canFail(arg)
	}
	if ps.kind == stepNegated {
		st.text = "!" + st.text
		if ps.rows == rowsRelation {
			for _, arg := range a.Args {
				src, err := lw.src(arg)
				if err != nil {
					return st, err
				}
				st.negSrc = append(st.negSrc, src)
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
	st.colsKey = encodeCols(st.lookupCols)
	st.match = make([]slotMatch, len(a.Args))
	for i, arg := range a.Args {
		switch arg := arg.(type) {
		case *pql.Var:
			if arg.Wildcard() {
				st.match[i] = slotMatch{kind: matchSkip}
			} else if slot, ok := lw.slotOf[arg.Name]; ok {
				st.match[i] = slotMatch{kind: matchSlot, slot: slot}
			} else {
				st.match[i] = slotMatch{kind: matchBind, slot: lw.bind(arg.Name)}
			}
		case *pql.Const:
			st.match[i] = slotMatch{kind: matchConst, cval: arg.Val}
		default:
			fn, err := lw.term(arg)
			if err != nil {
				return st, fmt.Errorf("%w (argument %s of %s must be ground when matched)", err, arg, a.Pred)
			}
			st.match[i] = slotMatch{kind: matchFn, fn: fn}
		}
	}
	return st, nil
}

// lower compiles an ordered body and head into a slot program. Variables
// named in bound hold a value before the first step runs (slots 0..).
func lower(steps []planStep, head []pql.Term, env *analysis.Env, bound ...string) (*program, error) {
	lw := &lowerer{env: env, slotOf: map[string]int{}}
	for _, name := range bound {
		lw.bind(name)
	}
	p := &program{cut: -1}
	for i, ps := range steps {
		if p.cut < 0 && lw.groundAll(head) {
			p.cut = i
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
		p.steps = append(p.steps, st)
	}
	for _, a := range head {
		src, err := lw.src(a)
		if err != nil {
			return nil, err
		}
		p.head = append(p.head, src)
	}
	if p.cut >= 0 && slices.ContainsFunc(p.steps[p.cut:], func(st slotStep) bool { return st.fallible }) {
		p.cut = -1
	}
	p.nSlots = len(lw.slotOf)
	return p, nil
}
