package eval

import (
	"fmt"
	"sort"

	"ariadne/internal/pql"
	"ariadne/internal/pql/analysis"
)

type stepKind uint8

const (
	stepPositive stepKind = iota
	stepNegated
	stepCompare
)

// planStep is one body literal in execution order. rows names where a
// predicate step draws its candidate rows (see rowSource).
type planStep struct {
	kind stepKind
	atom *pql.Atom   // positive / negated
	cmp  *pql.CmpLit // compare
	rows rowSource
}

// rulePlan is one rule's ordered bodies and the slot programs lowered from
// them. The materialised Evaluator plans every rule, and the compiled path
// its global rules, for semi-naive firing (planRule, rulePlan.fire); a
// compiled record or static rule has only the fact body, run per record or
// once.
type rulePlan struct {
	// variants[i] drives the delta through the i-th delta literal: that
	// literal is joined first, so each semi-naive round costs
	// O(|delta| × indexed lookups) instead of re-enumerating relations.
	variants [][]planStep
	progs    []*program
	// positivePreds[i] is the predicate of the i-th delta literal.
	positivePreds []string
	// factSteps is the body of a rule without delta literals, fired without
	// a delta (every round, for a fact rule); fact is its program.
	factSteps []planStep
	fact      *program

	// Aggregate metadata (heads with COUNT/SUM/MIN/MAX/AVG): the head's one
	// aggregate, agg, at column aggCol, and the grouping columns.
	aggregates bool
	groupCols  []int
	aggCol     int
	agg        *pql.Aggregate
	// bodyVars lists all body-bound variables, sorted, for SUM/AVG
	// valuation deduplication.
	bodyVars []string
}

// planPath is what one evaluation path tells the scheduler: which positive
// literals get a delta program, how cheap a positive literal is to place
// next under the bound variables, and where each predicate step reads its
// rows.
type planPath interface {
	delta(pred string) bool
	cost(a *pql.Atom, bound map[string]bool) int
	rows(kind stepKind, a *pql.Atom, bound map[string]bool) (rowSource, error)
}

// bottomUp is the materialised Evaluator's path: every positive literal is
// a delta literal, every step reads a Relation, and the literal sharing the
// most bound variables goes first, so indexed lookups apply.
type bottomUp struct{}

func (bottomUp) delta(string) bool { return true }

func (bottomUp) cost(a *pql.Atom, bound map[string]bool) int {
	var vs []*pql.Var
	for _, arg := range a.Args {
		vs = pql.Vars(arg, vs)
	}
	cost := 0
	for _, v := range vs {
		if !v.Wildcard() && bound[v.Name] {
			cost--
		}
	}
	return cost
}

func (bottomUp) rows(stepKind, *pql.Atom, map[string]bool) (rowSource, error) {
	return rowsRelation, nil
}

// planRule plans r for semi-naive firing on path: one body per delta
// literal, led by it, or — with none — one fact body.
func planRule(r *pql.Rule, path planPath) (*rulePlan, error) {
	p := &rulePlan{}

	var positives []*pql.PredLit
	for _, lit := range r.Body {
		if pl, ok := lit.(*pql.PredLit); ok && !pl.Negated && path.delta(pl.Atom.Pred) {
			positives = append(positives, pl)
			p.positivePreds = append(p.positivePreds, pl.Atom.Pred)
		}
	}

	if len(positives) == 0 {
		steps, err := schedule(r, nil, map[string]bool{}, path)
		if err != nil {
			return nil, err
		}
		p.factSteps = steps
	}
	for _, deltaLit := range positives {
		steps, err := schedule(r, deltaLit, map[string]bool{}, path)
		if err != nil {
			return nil, err
		}
		p.variants = append(p.variants, steps)
	}

	// Classify head columns.
	aggs := 0
	for i, a := range r.Head.Args {
		if agg, ok := a.(*pql.Aggregate); ok {
			p.aggregates, p.aggCol, p.agg, aggs = true, i, agg, aggs+1
			continue
		}
		if containsAgg(a) {
			return nil, fmt.Errorf("pql: %s: aggregates must be top-level head arguments", r.Pos)
		}
		p.groupCols = append(p.groupCols, i)
	}
	if aggs > 1 {
		return nil, fmt.Errorf("pql: %s: at most one aggregate per rule head (split into multiple rules)", r.Pos)
	}
	if p.aggregates && len(positives) == 0 {
		return nil, fmt.Errorf("pql: %s: aggregate rule needs a body", r.Pos)
	}

	seen := map[string]bool{}
	for _, pl := range positives {
		bindAtomVars(pl.Atom, seen)
	}
	for name := range seen {
		p.bodyVars = append(p.bodyVars, name)
	}
	sort.Strings(p.bodyVars)
	return p, nil
}

// emitTerms returns the terms a firing emits: the head arguments, or for an
// aggregate rule the row its fold consumes — group values, the aggregate
// argument, then the body valuation (the sorted body variables).
func (p *rulePlan) emitTerms(r *pql.Rule) []pql.Term {
	if !p.aggregates {
		return r.Head.Args
	}
	var terms []pql.Term
	for _, c := range p.groupCols {
		terms = append(terms, r.Head.Args[c])
	}
	terms = append(terms, p.agg.Arg)
	for _, name := range p.bodyVars {
		terms = append(terms, &pql.Var{Name: name, Pos: r.Pos})
	}
	return terms
}

// lower compiles every ordered body of the plan into its slot program,
// replacing any lowered before; the variables in bound hold a value before
// the first step.
func (p *rulePlan) lower(r *pql.Rule, env *analysis.Env, bound ...string) error {
	head := p.emitTerms(r)
	if len(p.positivePreds) == 0 {
		prog, err := lower(p.factSteps, head, env, bound...)
		if err != nil {
			return err
		}
		p.fact = prog
	}
	p.progs = make([]*program, len(p.variants))
	for i, steps := range p.variants {
		prog, err := lower(steps, head, env, bound...)
		if err != nil {
			return err
		}
		p.progs[i] = prog
	}
	return nil
}

// bodies lists the plan's ordered bodies, one per program.
func (p *rulePlan) bodies() [][]planStep {
	if len(p.positivePreds) == 0 {
		return [][]planStep{p.factSteps}
	}
	return p.variants
}

// programs lists the plan's programs: the fact program, or one per delta
// literal.
func (p *rulePlan) programs() []*program {
	if p.fact != nil {
		return []*program{p.fact}
	}
	return p.progs
}

// bindAtomVars marks every non-wildcard variable of a's arguments bound.
func bindAtomVars(a *pql.Atom, bound map[string]bool) {
	var vs []*pql.Var
	for _, arg := range a.Args {
		vs = pql.Vars(arg, vs)
	}
	for _, v := range vs {
		if !v.Wildcard() {
			bound[v.Name] = true
		}
	}
}

// asVar returns t's name when it is a non-wildcard variable.
func asVar(t pql.Term) (string, bool) {
	v, ok := t.(*pql.Var)
	if !ok || v.Wildcard() {
		return "", false
	}
	return v.Name, true
}

// schedulable reports whether a filter literal can run under the bound
// variables: a comparison whose sides are both ground or that binds a fresh
// variable to a ground expression, or a negation whose arguments are all
// ground.
func schedulable(lit pql.Literal, bound map[string]bool) bool {
	switch lit := lit.(type) {
	case *pql.CmpLit:
		lg := staticGround(lit.L, bound)
		rg := staticGround(lit.R, bound)
		if lg && rg {
			return true
		}
		if lit.Op != pql.CmpEq {
			return false
		}
		if v, ok := asVar(lit.L); ok && !bound[v] && rg {
			return true
		}
		if v, ok := asVar(lit.R); ok && !bound[v] && lg {
			return true
		}
		return false
	case *pql.PredLit:
		if !lit.Negated {
			return false
		}
		for _, a := range lit.Atom.Args {
			if !staticGround(a, bound) {
				return false
			}
		}
		return true
	}
	return false
}

// bindCmpVars marks the variable an equality binds (its other variables are
// already bound, so marking both sides is harmless).
func bindCmpVars(c *pql.CmpLit, bound map[string]bool) {
	if c.Op != pql.CmpEq {
		return
	}
	if v, ok := asVar(c.L); ok {
		bound[v] = true
	}
	if v, ok := asVar(c.R); ok {
		bound[v] = true
	}
}

// schedule orders r's body for one program: delta (nil: none) first,
// reading the firing's delta batch; then, until every literal is placed,
// each filter — a comparison, or a negation with ground arguments — as soon
// as its variables are bound, swept to a fixed point, and the positive
// literal path ranks cheapest (the first of equals). path picks each
// predicate step's row source as the step is placed, under the variables
// bound before it. bound holds the variables bound before the first step;
// schedule marks every variable it binds.
func schedule(r *pql.Rule, delta *pql.PredLit, bound map[string]bool, path planPath) ([]planStep, error) {
	var steps []planStep
	remaining := make([]pql.Literal, 0, len(r.Body))
	for _, lit := range r.Body {
		if pl, ok := lit.(*pql.PredLit); ok && pl == delta {
			steps = append(steps, planStep{kind: stepPositive, atom: pl.Atom, rows: rowsDelta})
			bindAtomVars(pl.Atom, bound)
			continue
		}
		remaining = append(remaining, lit)
	}

	take := func(i int) pql.Literal {
		lit := remaining[i]
		remaining = append(remaining[:i], remaining[i+1:]...)
		return lit
	}

	for len(remaining) > 0 {
		for progress := true; progress; {
			progress = false
			for i := 0; i < len(remaining); i++ {
				if !schedulable(remaining[i], bound) {
					continue
				}
				switch lit := take(i).(type) {
				case *pql.CmpLit:
					steps = append(steps, planStep{kind: stepCompare, cmp: lit})
					bindCmpVars(lit, bound)
				case *pql.PredLit:
					rows, err := path.rows(stepNegated, lit.Atom, bound)
					if err != nil {
						return nil, err
					}
					steps = append(steps, planStep{kind: stepNegated, atom: lit.Atom, rows: rows})
				}
				progress = true
				i--
			}
		}
		if len(remaining) == 0 {
			break
		}
		best, bestCost := -1, 0
		for i, lit := range remaining {
			pl, ok := lit.(*pql.PredLit)
			if !ok || pl.Negated {
				continue
			}
			if cost := path.cost(pl.Atom, bound); best < 0 || cost < bestCost {
				best, bestCost = i, cost
			}
		}
		if best < 0 {
			// Safety analysis should have rejected this.
			return nil, fmt.Errorf("pql: %s: cannot order rule body (unresolvable literals)", r.Pos)
		}
		a := take(best).(*pql.PredLit).Atom
		rows, err := path.rows(stepPositive, a, bound)
		if err != nil {
			return nil, err
		}
		steps = append(steps, planStep{kind: stepPositive, atom: a, rows: rows})
		bindAtomVars(a, bound)
	}
	return steps, nil
}

func staticGround(t pql.Term, bound map[string]bool) bool {
	var vs []*pql.Var
	vs = pql.Vars(t, vs)
	for _, v := range vs {
		if v.Wildcard() || !bound[v.Name] {
			return false
		}
	}
	return true
}

func containsAgg(t pql.Term) bool {
	switch t := t.(type) {
	case *pql.Aggregate:
		return true
	case *pql.BinExpr:
		if containsAgg(t.L) {
			return true
		}
		return t.R != nil && containsAgg(t.R)
	case *pql.Call:
		for _, a := range t.Args {
			if containsAgg(a) {
				return true
			}
		}
	}
	return false
}
