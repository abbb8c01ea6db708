package eval

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"testing"

	"ariadne/internal/pql"
	"ariadne/internal/pql/analysis"
	"ariadne/internal/value"
)

// refAggTable is the string-keyed group table aggregates kept before their
// state became relations, kept as the reference aggTable must fold like:
// groups keyed by the canonical key of their values, and each group's dedup
// set keyed by "<tag><column>|" and the canonical key of the counted value
// (tag c) or the body valuation (tag s).
type refAggTable struct {
	plan    *rulePlan
	arity   int
	groups  map[string]*refAggState
	touched []*refAggState
}

type refAggState struct {
	count   int64
	sum     float64
	min     float64
	max     float64
	seen    map[string]bool
	current Tuple
	touched bool
}

func (a *refAggTable) touch(st *refAggState) {
	if !st.touched {
		st.touched = true
		a.touched = append(a.touched, st)
	}
}

func (st *refAggState) firstSeen(tag byte, ai int, t Tuple) bool {
	k := string(tag) + strconv.Itoa(ai) + "|" + t.Key()
	if st.seen[k] {
		return false
	}
	st.seen[k] = true
	return true
}

func (a *refAggTable) fold(row Tuple) error {
	plan := a.plan
	ng := len(plan.groupCols)
	groupVals, aggVals, valuation := row[:ng], row[ng:ng+1], row[ng+1:]
	st, ok := a.groups[groupVals.Key()]
	if !ok {
		st = &refAggState{min: math.Inf(1), max: math.Inf(-1), seen: map[string]bool{}}
		a.groups[groupVals.Key()] = st
	}
	for ai, v := range aggVals {
		switch kind := plan.agg.Kind; kind {
		case pql.AggCount:
			if !st.firstSeen('c', ai, Tuple{v}) {
				continue
			}
			st.count++
			a.touch(st)
		case pql.AggSum, pql.AggAvg:
			if !st.firstSeen('s', ai, valuation) {
				continue
			}
			if !v.IsNumeric() {
				return fmt.Errorf("%s needs numeric input, got %s", kind, v.Kind())
			}
			st.sum += v.Float()
			st.count++
			a.touch(st)
		case pql.AggMin:
			if !v.IsNumeric() {
				return fmt.Errorf("MIN needs numeric input, got %s", v.Kind())
			}
			if v.Float() < st.min {
				st.min = v.Float()
				a.touch(st)
			}
		case pql.AggMax:
			if !v.IsNumeric() {
				return fmt.Errorf("MAX needs numeric input, got %s", v.Kind())
			}
			if v.Float() > st.max {
				st.max = v.Float()
				a.touch(st)
			}
		}
	}
	if st.current == nil {
		st.current = make(Tuple, a.arity)
		for i, c := range plan.groupCols {
			st.current[c] = groupVals[i]
		}
		st.current[plan.aggCol] = value.NullValue
	}
	return nil
}

func (a *refAggTable) flush(head *Relation, insert func(Tuple) error) error {
	plan := a.plan
	for _, st := range a.touched {
		st.touched = false
		old := append(Tuple(nil), st.current...)
		hadResult := !st.current[plan.aggCol].IsNull()
		c := plan.aggCol
		switch plan.agg.Kind {
		case pql.AggCount:
			st.current[c] = value.NewInt(st.count)
		case pql.AggSum:
			st.current[c] = value.NewFloat(st.sum)
		case pql.AggAvg:
			st.current[c] = value.NewFloat(st.sum / float64(st.count))
		case pql.AggMin:
			st.current[c] = value.NewFloat(st.min)
		case pql.AggMax:
			st.current[c] = value.NewFloat(st.max)
		}
		if hadResult {
			head.Delete(old)
		}
		if err := insert(st.current); err != nil {
			return err
		}
	}
	a.touched = a.touched[:0]
	return nil
}

// rawKey renders t's values in their own encodings, not the canonical ones:
// 3 and 3.0 differ here.
func rawKey(t Tuple) string {
	var b []byte
	for _, v := range t {
		b = v.AppendBinary(b)
	}
	return string(b)
}

// TestAggregateMatchesStringKeyedFold folds random valuations over
// identityPool's values (3 and 3.0, the zeros, 2^53 and 2^53+1 as Int and
// as Float, strings, NaN) through aggTable and the string-keyed reference,
// for every aggregate kind and 0 to 2 group columns, in several passes each
// flushed into its own head relation. Every pass must flush the same
// tuples, exactly, in the same order, and leave the same heads; a
// non-numeric input must fail both folds alike. Halfway, the table is
// checkpointed and folding goes on in the restored one.
func TestAggregateMatchesStringKeyedFold(t *testing.T) {
	var numeric []value.Value
	for _, v := range identityPool {
		if v.IsNumeric() {
			numeric = append(numeric, v)
		}
	}
	env := analysis.NewEnv()
	env.DeclareEDB("e", 3)
	for _, src := range []string{
		`h(X, COUNT(Y)) :- e(X, Y, W).`,
		`h(COUNT(W)) :- e(X, Y, W).`,
		`h(X, SUM(Y)) :- e(X, Y, W).`,
		`h(X, W, AVG(Y)) :- e(X, Y, W).`,
		`h(MIN(Y)) :- e(X, Y, W).`,
		`h(W, MAX(Y)) :- e(X, Y, W).`,
		`h(Y, X, SUM(W)) :- e(X, Y, W).`,
	} {
		rule := analysis.MustAnalyze(src, env.Clone()).Rules[0]
		plan, err := planRule(rule, bottomUp{})
		if err != nil {
			t.Fatal(err)
		}
		varName := func(term pql.Term) string { return term.(*pql.Var).Name }
		failures := 0
		for seed := int64(0); seed < 40; seed++ {
			r := rand.New(rand.NewSource(seed))
			a := newAggTable(rule, plan)
			ref := &refAggTable{plan: plan, arity: len(rule.Head.Args), groups: map[string]*refAggState{}}
			head, refHead := NewRelation(a.arity), NewRelation(a.arity)
			var row Tuple // reused, as the slot programs' head buffer is
			for pass := 0; pass < 4; pass++ {
				if pass == 2 {
					w := value.NewBlob()
					saveAggs(w, []*aggTable{a})
					a = newAggTable(rule, plan)
					if err := loadAggs(value.NewBlobReader(w.Bytes()), []*aggTable{a}); err != nil {
						t.Fatalf("%s seed %d: %v", src, seed, err)
					}
				}
				failed := false
				for i := 0; i < 30 && !failed; i++ {
					vals := map[string]value.Value{}
					for _, name := range plan.bodyVars {
						vals[name] = identityPool[r.Intn(len(identityPool))]
					}
					if agg := varName(plan.agg.Arg); plan.agg.Kind != pql.AggCount && r.Intn(60) != 0 {
						vals[agg] = numeric[r.Intn(len(numeric))]
					}
					row = row[:0]
					for _, c := range plan.groupCols {
						row = append(row, vals[varName(rule.Head.Args[c])])
					}
					row = append(row, vals[varName(plan.agg.Arg)])
					for _, name := range plan.bodyVars {
						row = append(row, vals[name])
					}
					errA, errB := a.fold(row), ref.fold(row)
					if (errA == nil) != (errB == nil) {
						t.Fatalf("%s seed %d: fold = %v, reference %v", src, seed, errA, errB)
					}
					failed = errA != nil
				}
				if failed {
					failures++
					break
				}
				var got, want []string
				if err := a.flush(head, func(t Tuple) error {
					got = append(got, rawKey(t))
					head.insertCopy(t)
					return nil
				}); err != nil {
					t.Fatal(err)
				}
				if err := ref.flush(refHead, func(t Tuple) error {
					want = append(want, rawKey(t))
					refHead.Insert(t.Clone())
					return nil
				}); err != nil {
					t.Fatal(err)
				}
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("%s seed %d pass %d: flushed %d tuples, reference %d, or in another order", src, seed, pass, len(got), len(want))
				}
				for i, tu := range head.All() {
					if i >= refHead.Len() || rawKey(tu) != rawKey(refHead.All()[i]) {
						t.Fatalf("%s seed %d pass %d: head tuple %d is %v, reference %v", src, seed, pass, i, tu, refHead.All())
					}
				}
				if head.Len() != refHead.Len() {
					t.Fatalf("%s seed %d pass %d: head holds %d tuples, reference %d", src, seed, pass, head.Len(), refHead.Len())
				}
			}
		}
		if plan.agg.Kind != pql.AggCount && failures == 0 {
			t.Errorf("%s: no seed folded a non-numeric input", src)
		}
	}
}
