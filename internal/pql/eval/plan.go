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

// rulePlan is the prepared execution strategy for one rule of the
// materialised (bottom-up) evaluator: the ordered bodies and the slot
// programs lowered from them.
type rulePlan struct {
	// variants[i] drives the delta through the i-th positive body literal:
	// that literal is joined first, so each semi-naive round costs
	// O(|delta| × indexed lookups) instead of re-enumerating relations.
	variants [][]planStep
	progs    []*program
	// positivePreds[i] is the predicate of the i-th positive literal.
	positivePreds []string
	// factSteps is the natural-order body used when the rule has no
	// positive literals (fact rules), fact its program.
	factSteps []planStep
	fact      *program

	// Aggregate metadata (heads with COUNT/SUM/MIN/MAX/AVG).
	aggregates bool
	groupCols  []int
	aggCols    []int
	aggKinds   []pql.AggKind
	aggArgs    []pql.Term
	// bodyVars lists all body-bound variables, sorted, for SUM/AVG
	// valuation deduplication.
	bodyVars []string
}

func planRule(r *pql.Rule) (*rulePlan, error) {
	p := &rulePlan{}

	var positives []*pql.PredLit
	for _, lit := range r.Body {
		if pl, ok := lit.(*pql.PredLit); ok && !pl.Negated {
			positives = append(positives, pl)
			p.positivePreds = append(p.positivePreds, pl.Atom.Pred)
		}
	}

	if len(positives) == 0 {
		steps, err := orderBody(r, nil)
		if err != nil {
			return nil, err
		}
		p.factSteps = steps
	}
	for _, deltaLit := range positives {
		steps, err := orderBody(r, deltaLit)
		if err != nil {
			return nil, err
		}
		p.variants = append(p.variants, steps)
	}

	// Classify head columns.
	for i, a := range r.Head.Args {
		if agg, ok := a.(*pql.Aggregate); ok {
			p.aggregates = true
			p.aggCols = append(p.aggCols, i)
			p.aggKinds = append(p.aggKinds, agg.Kind)
			p.aggArgs = append(p.aggArgs, agg.Arg)
			continue
		}
		if containsAgg(a) {
			return nil, fmt.Errorf("pql: %s: aggregates must be top-level head arguments", r.Pos)
		}
		p.groupCols = append(p.groupCols, i)
	}
	if len(p.aggCols) > 1 {
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
// aggregate rule the row its fold consumes — group values, aggregate
// arguments, then the body valuation (the sorted body variables).
func (p *rulePlan) emitTerms(r *pql.Rule) []pql.Term {
	if !p.aggregates {
		return r.Head.Args
	}
	var terms []pql.Term
	for _, c := range p.groupCols {
		terms = append(terms, r.Head.Args[c])
	}
	terms = append(terms, p.aggArgs...)
	for _, name := range p.bodyVars {
		terms = append(terms, &pql.Var{Name: name, Pos: r.Pos})
	}
	return terms
}

// lower compiles every ordered body of the plan into its slot program.
func (p *rulePlan) lower(r *pql.Rule, env *analysis.Env) error {
	head := p.emitTerms(r)
	if len(p.positivePreds) == 0 {
		prog, err := lower(p.factSteps, head, env)
		if err != nil {
			return err
		}
		p.fact = prog
	}
	for _, steps := range p.variants {
		prog, err := lower(steps, head, env)
		if err != nil {
			return err
		}
		p.progs = append(p.progs, prog)
	}
	return nil
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

// orderBody orders the rule body with deltaLit (may be nil) first, then
// greedily: comparisons and negations as soon as their variables are bound,
// and among the remaining positive atoms the one sharing the most bound
// variables (so indexed lookups apply).
func orderBody(r *pql.Rule, deltaLit *pql.PredLit) ([]planStep, error) {
	var steps []planStep
	bound := map[string]bool{}

	remaining := make([]pql.Literal, 0, len(r.Body))
	for _, lit := range r.Body {
		if pl, ok := lit.(*pql.PredLit); ok && pl == deltaLit {
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
		// 1. Schedule every currently bindable filter/binder/negation.
		progress := true
		for progress {
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
					steps = append(steps, planStep{kind: stepNegated, atom: lit.Atom})
				}
				progress = true
				i--
			}
		}
		if len(remaining) == 0 {
			break
		}
		// 2. Pick the positive atom sharing the most bound variables.
		bestIdx, bestScore := -1, -1
		for i, lit := range remaining {
			pl, ok := lit.(*pql.PredLit)
			if !ok || pl.Negated {
				continue
			}
			score := 0
			var vs []*pql.Var
			for _, a := range pl.Atom.Args {
				vs = pql.Vars(a, vs)
			}
			for _, vv := range vs {
				if !vv.Wildcard() && bound[vv.Name] {
					score++
				}
			}
			if score > bestScore {
				bestIdx, bestScore = i, score
			}
		}
		if bestIdx < 0 {
			// Safety analysis should have rejected this.
			return nil, fmt.Errorf("pql: %s: cannot order rule body (unresolvable literals)", r.Pos)
		}
		pl := take(bestIdx).(*pql.PredLit)
		steps = append(steps, planStep{kind: stepPositive, atom: pl.Atom})
		bindAtomVars(pl.Atom, bound)
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
