package eval

import (
	"fmt"
	"sort"

	"ariadne/internal/pql"
	"ariadne/internal/pql/analysis"
	"ariadne/internal/value"
)

// The differential oracle: the binding-map interpreter that evaluated PQL
// rules before they were all lowered to slot programs. It shares the
// planner (planRule/schedule), the Relation store and the aggregate group
// tables with production and independently re-implements everything the
// slot IR replaced — term and comparison evaluation, unification with
// backtracking, the recursive join, head construction — so a slot program
// and the oracle agree tuple for tuple, in insertion order, or one is wrong.

// oracle is a sequential semi-naive evaluator over joinFrom.
type oracle struct {
	q       *analysis.Query
	db      *Database
	env     *analysis.Env
	plans   map[*pql.Rule]*rulePlan
	aggs    map[string]*aggTable
	pending map[string][]Tuple
}

func newOracle(q *analysis.Query, db *Database) (*oracle, error) {
	o := &oracle{q: q, db: db, env: q.Env(),
		plans: map[*pql.Rule]*rulePlan{}, aggs: map[string]*aggTable{}, pending: map[string][]Tuple{}}
	for _, r := range q.Rules {
		plan, err := planRule(r, bottomUp{})
		if err != nil {
			return nil, err
		}
		o.plans[r] = plan
		if plan.aggregates {
			o.aggs[r.Head.Pred] = newAggTable(r, plan)
		}
	}
	for name, arity := range q.IDBs {
		db.Relation(name, arity)
	}
	return o, nil
}

func (o *oracle) AddFact(pred string, t Tuple) { o.pending[pred] = append(o.pending[pred], t) }

// Fixpoint mirrors Evaluator.Fixpoint with every round sequential.
func (o *oracle) Fixpoint() error {
	newSince := map[string][]Tuple{}
	names := make([]string, 0, len(o.pending))
	for name := range o.pending {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		ts := o.pending[name]
		rel := o.db.Relation(name, len(ts[0]))
		for _, t := range ts {
			if rel.Insert(t) {
				newSince[name] = append(newSince[name], t)
			}
		}
	}
	o.pending = map[string][]Tuple{}
	for _, stratum := range o.q.Strata {
		delta := newSince
		for {
			derived := map[string][]Tuple{}
			for _, r := range stratum {
				if err := o.evalRule(r, delta, derived); err != nil {
					return err
				}
			}
			if len(derived) == 0 {
				break
			}
			for name, ts := range derived {
				newSince[name] = append(newSince[name], ts...)
			}
			delta = derived
		}
	}
	return nil
}

// evalRule fires one rule semi-naively; aggregate rules fold each
// valuation's row (rulePlan.emitTerms) and flush.
func (o *oracle) evalRule(r *pql.Rule, delta, derived map[string][]Tuple) error {
	plan := o.plans[r]
	head := o.db.Relation(r.Head.Pred, len(r.Head.Args))
	insert := func(t Tuple) error {
		// Sinks copy what they keep: flush hands over its group state.
		if t = t.Clone(); head.Insert(t) {
			derived[r.Head.Pred] = append(derived[r.Head.Pred], t)
		}
		return nil
	}
	terms, sink := plan.emitTerms(r), insert
	if plan.aggregates {
		sink = o.aggs[r.Head.Pred].fold
	}
	emit := func(b binding) error {
		t := make(Tuple, len(terms))
		for i, a := range terms {
			v, err := evalTerm(a, b, o.env)
			if err != nil {
				return err
			}
			t[i] = v
		}
		return sink(t)
	}
	if len(plan.positivePreds) == 0 {
		if err := o.joinFrom(plan.factSteps, 0, binding{}, nil, emit); err != nil {
			return err
		}
	}
	for vi, steps := range plan.variants {
		dts := delta[plan.positivePreds[vi]]
		if len(dts) == 0 {
			continue
		}
		if err := o.joinFrom(steps, 0, binding{}, dts, emit); err != nil {
			return err
		}
	}
	if plan.aggregates {
		return o.aggs[r.Head.Pred].flush(head, insert)
	}
	return nil
}

// joinFrom recursively executes plan steps from index si under binding b.
// The rowsDelta step draws candidates from deltaTuples instead of the full
// relation.
func (o *oracle) joinFrom(steps []planStep, si int, b binding, deltaTuples []Tuple, emit func(binding) error) error {
	if si == len(steps) {
		return emit(b)
	}
	st := steps[si]
	switch st.kind {
	case stepCompare:
		c := st.cmp
		// Binder form: Var = expr with the var still unbound.
		if c.Op == pql.CmpEq {
			if v, ok := c.L.(*pql.Var); ok && !v.Wildcard() {
				if _, bound := b[v.Name]; !bound && termGround(c.R, b) {
					val, err := evalTerm(c.R, b, o.env)
					if err != nil {
						return err
					}
					b[v.Name] = val
					err = o.joinFrom(steps, si+1, b, deltaTuples, emit)
					delete(b, v.Name)
					return err
				}
			}
			if v, ok := c.R.(*pql.Var); ok && !v.Wildcard() {
				if _, bound := b[v.Name]; !bound && termGround(c.L, b) {
					val, err := evalTerm(c.L, b, o.env)
					if err != nil {
						return err
					}
					b[v.Name] = val
					err = o.joinFrom(steps, si+1, b, deltaTuples, emit)
					delete(b, v.Name)
					return err
				}
			}
		}
		ok, err := evalCompare(c, b, o.env)
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		return o.joinFrom(steps, si+1, b, deltaTuples, emit)

	case stepNegated:
		t := make(Tuple, len(st.atom.Args))
		for i, a := range st.atom.Args {
			v, err := evalTerm(a, b, o.env)
			if err != nil {
				return err
			}
			t[i] = v
		}
		rel := o.db.Get(st.atom.Pred)
		if rel != nil && rel.Contains(t) {
			return nil
		}
		return o.joinFrom(steps, si+1, b, deltaTuples, emit)

	default: // stepPositive
		var candidates []Tuple
		if st.rows == rowsDelta {
			candidates = deltaTuples
		} else {
			rel := o.db.Get(st.atom.Pred)
			if rel == nil {
				return nil
			}
			// Use an index over the argument positions that are already
			// ground (variables bound earlier, or constants).
			var cols []int
			var key []value.Value
			for i, a := range st.atom.Args {
				switch a := a.(type) {
				case *pql.Var:
					if a.Wildcard() {
						continue
					}
					if v, ok := b[a.Name]; ok {
						cols = append(cols, i)
						key = append(key, v)
					}
				case *pql.Const:
					cols = append(cols, i)
					key = append(key, a.Val)
				default:
					if termGround(a, b) {
						v, err := evalTerm(a, b, o.env)
						if err != nil {
							return err
						}
						cols = append(cols, i)
						key = append(key, v)
					}
				}
			}
			candidates = rel.Lookup(cols, key)
		}
		for _, t := range candidates {
			if len(t) != len(st.atom.Args) {
				return fmt.Errorf("pql: %s: arity mismatch binding %s", st.atom.Pos, st.atom.Pred)
			}
			newVars, ok, err := o.unify(st.atom, t, b)
			if err != nil {
				return err
			}
			if !ok {
				continue
			}
			if err := o.joinFrom(steps, si+1, b, deltaTuples, emit); err != nil {
				return err
			}
			for _, n := range newVars {
				delete(b, n)
			}
		}
		return nil
	}
}

// unify matches tuple t against atom args under b, extending b with newly
// bound variables (returned so the caller can backtrack).
func (o *oracle) unify(a *pql.Atom, t Tuple, b binding) (newVars []string, ok bool, err error) {
	for i, arg := range a.Args {
		switch arg := arg.(type) {
		case *pql.Var:
			if arg.Wildcard() {
				continue
			}
			if v, bound := b[arg.Name]; bound {
				if !v.Equal(t[i]) {
					for _, n := range newVars {
						delete(b, n)
					}
					return nil, false, nil
				}
				continue
			}
			b[arg.Name] = t[i]
			newVars = append(newVars, arg.Name)
		case *pql.Const:
			if !arg.Val.Equal(t[i]) {
				for _, n := range newVars {
					delete(b, n)
				}
				return nil, false, nil
			}
		default:
			if !termGround(arg, b) {
				return nil, false, fmt.Errorf("pql: %s: argument %s of %s must be ground when matched", a.Pos, arg, a.Pred)
			}
			v, err := evalTerm(arg, b, o.env)
			if err != nil {
				return nil, false, err
			}
			if !v.Equal(t[i]) {
				for _, n := range newVars {
					delete(b, n)
				}
				return nil, false, nil
			}
		}
	}
	return newVars, true, nil
}

// binding maps variable names to values during rule evaluation.
type binding map[string]value.Value

// evalTerm evaluates a ground term under b.
func evalTerm(t pql.Term, b binding, env *analysis.Env) (value.Value, error) {
	switch t := t.(type) {
	case *pql.Const:
		return t.Val, nil
	case *pql.Var:
		v, ok := b[t.Name]
		if !ok {
			return value.NullValue, fmt.Errorf("pql: %s: unbound variable %s", t.Pos, t.Name)
		}
		return v, nil
	case *pql.BinExpr:
		l, err := evalTerm(t.L, b, env)
		if err != nil {
			return value.NullValue, err
		}
		if t.Op == pql.OpNeg {
			return value.Neg(l)
		}
		r, err := evalTerm(t.R, b, env)
		if err != nil {
			return value.NullValue, err
		}
		switch t.Op {
		case pql.OpAdd:
			return value.Add(l, r)
		case pql.OpSub:
			return value.Sub(l, r)
		case pql.OpMul:
			return value.Mul(l, r)
		case pql.OpDiv:
			return value.Div(l, r)
		case pql.OpMod:
			return value.Mod(l, r)
		default:
			return value.NullValue, fmt.Errorf("pql: %s: unknown operator", t.Pos)
		}
	case *pql.Call:
		fn, ok := env.Funcs[t.Name]
		if !ok {
			return value.NullValue, fmt.Errorf("pql: %s: unknown function %s", t.Pos, t.Name)
		}
		args := make([]value.Value, len(t.Args))
		for i, a := range t.Args {
			v, err := evalTerm(a, b, env)
			if err != nil {
				return value.NullValue, err
			}
			args[i] = v
		}
		out, err := fn.Fn(args)
		if err != nil {
			return value.NullValue, fmt.Errorf("pql: %s: %s: %w", t.Pos, t.Name, err)
		}
		return out, nil
	default:
		return value.NullValue, fmt.Errorf("pql: cannot evaluate %T here", t)
	}
}

// evalCompare evaluates a comparison literal under b.
func evalCompare(c *pql.CmpLit, b binding, env *analysis.Env) (bool, error) {
	l, err := evalTerm(c.L, b, env)
	if err != nil {
		return false, err
	}
	r, err := evalTerm(c.R, b, env)
	if err != nil {
		return false, err
	}
	switch c.Op {
	case pql.CmpEq:
		return l.Equal(r), nil
	case pql.CmpNeq:
		return !l.Equal(r), nil
	}
	// Ordered comparisons need comparable operands.
	cmp := l.Compare(r)
	switch c.Op {
	case pql.CmpLt:
		return cmp < 0, nil
	case pql.CmpLe:
		return cmp <= 0, nil
	case pql.CmpGt:
		return cmp > 0, nil
	case pql.CmpGe:
		return cmp >= 0, nil
	default:
		return false, fmt.Errorf("pql: %s: unknown comparison", c.Pos)
	}
}

// termGround reports whether all variables of t are bound in b.
func termGround(t pql.Term, b binding) bool {
	var vs []*pql.Var
	vs = pql.Vars(t, vs)
	for _, v := range vs {
		if v.Wildcard() {
			return false
		}
		if _, ok := b[v.Name]; !ok {
			return false
		}
	}
	return true
}
