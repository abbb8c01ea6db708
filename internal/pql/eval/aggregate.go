package eval

import (
	"fmt"
	"math"
	"strconv"

	"ariadne/internal/pql"
	"ariadne/internal/value"
)

// Aggregation semantics (paper §4.2 supports min, max, sum, count):
//
//   - COUNT(Y) counts *distinct values* of Y per group — the natural Datalog
//     set semantics, and what the paper's degree(x, COUNT(y)) intends
//     (number of distinct message partners).
//   - SUM/AVG fold over distinct *body valuations* per group, so two
//     different neighbors contributing the same error both count.
//   - MIN/MAX are monotone lattice folds; no deduplication is needed.
//
// Aggregate results live in a later stratum than both their inputs and
// their consumers (see analysis.stratify), and groups are *replaced* as
// their inputs grow across layers: during layered/online evaluation a group
// reflects the snapshot at the current layer, which matches the paper's
// always-on monitoring semantics.

type aggState struct {
	count   int64
	sum     float64
	min     float64
	max     float64
	seen    map[string]bool // dedup keys (per COUNT arg or per valuation)
	current Tuple           // head tuple currently in the relation, or nil
	touched bool            // queued in aggTable.touched
}

type aggTable struct {
	plan    *rulePlan
	pos     pql.Pos
	arity   int
	groups  map[string]*aggState
	touched []*aggState // groups changed since the last flush, in first-touch order
	kb      []byte      // canonical-key scratch: probes allocate nothing
}

func newAggTable(r *pql.Rule, plan *rulePlan) *aggTable {
	return &aggTable{plan: plan, pos: r.Pos, arity: len(r.Head.Args),
		groups: map[string]*aggState{}}
}

// touch queues st for the next flush, once.
func (a *aggTable) touch(st *aggState) {
	if !st.touched {
		st.touched = true
		a.touched = append(a.touched, st)
	}
}

// fold consumes one satisfying body valuation, laid out as the aggregate
// rule's program emits it (rulePlan.emitTerms): the grouping head values, the
// aggregate arguments, then the values of the sorted body variables. row is
// the program's reused head buffer, so fold keeps only copies of its
// values, and every key is probed before it is allocated.
func (a *aggTable) fold(row Tuple) error {
	plan := a.plan
	ng, na := len(plan.groupCols), len(plan.aggArgs)
	groupVals, aggVals, valuation := row[:ng], row[ng:ng+na], row[ng+na:]
	a.kb = appendKey(a.kb[:0], groupVals)
	st, ok := a.groups[string(a.kb)]
	if !ok {
		st = &aggState{min: math.Inf(1), max: math.Inf(-1), seen: map[string]bool{}}
		a.groups[string(a.kb)] = st
	}
	// Fold each aggregate column.
	for ai, v := range aggVals {
		kind := plan.aggKinds[ai]
		switch kind {
		case pql.AggCount:
			// Dedup on the counted value.
			if !st.firstSeen(&a.kb, 'c', ai, Tuple{v}) {
				continue
			}
			st.count++
			a.touch(st)
		case pql.AggSum, pql.AggAvg:
			// Dedup on the full body valuation.
			if !st.firstSeen(&a.kb, 's', ai, valuation) {
				continue
			}
			if !v.IsNumeric() {
				return fmt.Errorf("pql: %s: %s needs numeric input, got %s", a.pos, kind, v.Kind())
			}
			st.sum += v.Float()
			st.count++
			a.touch(st)
		case pql.AggMin:
			if !v.IsNumeric() {
				return fmt.Errorf("pql: %s: MIN needs numeric input, got %s", a.pos, v.Kind())
			}
			if v.Float() < st.min {
				st.min = v.Float()
				a.touch(st)
			}
		case pql.AggMax:
			if !v.IsNumeric() {
				return fmt.Errorf("pql: %s: MAX needs numeric input, got %s", a.pos, v.Kind())
			}
			if v.Float() > st.max {
				st.max = v.Float()
				a.touch(st)
			}
		}
	}
	// Remember the group values for tuple construction.
	if st.current == nil {
		st.current = make(Tuple, a.arity)
		for i, c := range plan.groupCols {
			st.current[c] = groupVals[i]
		}
		for _, c := range plan.aggCols {
			st.current[c] = value.NullValue
		}
	}
	return nil
}

// firstSeen records the dedup key "<tag><ai>|" followed by the canonical key
// of t, reporting whether it is new; only a new key is allocated. The layout
// is the one checkpoints store (see Evaluator.LoadState).
func (st *aggState) firstSeen(kb *[]byte, tag byte, ai int, t Tuple) bool {
	*kb = append(strconv.AppendInt(append((*kb)[:0], tag), int64(ai), 10), '|')
	*kb = appendKey(*kb, t)
	if st.seen[string(*kb)] {
		return false
	}
	st.seen[string(*kb)] = true
	return true
}

// flush replaces the head tuples of the groups touched since the last
// flush, in first-touch order, handing each new tuple to insert, which
// copies what it keeps.
func (a *aggTable) flush(head *Relation, insert func(Tuple) error) error {
	plan := a.plan
	for _, st := range a.touched {
		st.touched = false
		old := append(Tuple(nil), st.current...)
		hadResult := false
		for _, c := range plan.aggCols {
			if !st.current[c].IsNull() {
				hadResult = true
			}
		}
		for i, c := range plan.aggCols {
			switch plan.aggKinds[i] {
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
