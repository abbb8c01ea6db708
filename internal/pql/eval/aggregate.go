package eval

import (
	"fmt"
	"math"

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
//
// An aggregate's state is relations, so "distinct" is every relation's
// tuple identity (sameValue: 3 and 3.0 are one value). grouping holds
// each group's values once, and a group's position in its insertion order
// indexes states. dedup holds the keys folded: (group values…, counted
// value) for COUNT, (group values…, body valuation…) for SUM and AVG.

type aggState struct {
	count   int64
	sum     float64
	min     float64
	max     float64
	current Tuple // the group's head tuple, its aggregate null until flushed
	touched bool  // queued in aggTable.touched
}

type aggTable struct {
	pred     string
	plan     *rulePlan
	pos      pql.Pos
	arity    int
	grouping *Relation
	states   []aggState // by position in grouping
	dedup    *Relation
	touched  []int   // groups changed since the last flush, in first-touch order
	old      []Tuple // flush scratch: the touched groups' head tuples to delete
	key      Tuple   // dedup-key scratch: probes allocate nothing
	clones   arena   // the new dedup keys' copies
}

func newAggTable(r *pql.Rule, plan *rulePlan) *aggTable {
	ng, counted := len(plan.groupCols), 1
	if k := plan.agg.Kind; k == pql.AggSum || k == pql.AggAvg {
		counted = len(plan.bodyVars)
	}
	return &aggTable{pred: r.Head.Pred, plan: plan, pos: r.Pos, arity: len(r.Head.Args),
		grouping: NewRelation(ng), dedup: NewRelation(ng + counted)}
}

// addGroup appends the state of a new group whose values are groupVals.
func (a *aggTable) addGroup(groupVals Tuple) {
	current := make(Tuple, a.arity)
	for i, c := range a.plan.groupCols {
		current[c] = groupVals[i]
	}
	current[a.plan.aggCol] = value.NullValue
	a.states = append(a.states, aggState{min: math.Inf(1), max: math.Inf(-1), current: current})
}

// fold consumes one satisfying body valuation, laid out as the aggregate
// rule's program emits it (rulePlan.emitTerms): the grouping head values, the
// aggregate argument, then the values of the sorted body variables. row is
// the program's reused head buffer, so fold keeps only copies of its
// values.
func (a *aggTable) fold(row Tuple) error {
	ng := len(a.plan.groupCols)
	groupVals, v := row[:ng], row[ng]
	g, added := a.grouping.position(groupVals)
	if added {
		a.addGroup(groupVals)
	}
	st := &a.states[g]
	switch kind := a.plan.agg.Kind; kind {
	case pql.AggCount:
		// Dedup on the counted value.
		if !a.fresh(groupVals, row[ng:ng+1]) {
			return nil
		}
		st.count++
	case pql.AggSum, pql.AggAvg:
		// Dedup on the full body valuation.
		if !a.fresh(groupVals, row[ng+1:]) {
			return nil
		}
		if !v.IsNumeric() {
			return fmt.Errorf("pql: %s: %s needs numeric input, got %s", a.pos, kind, v.Kind())
		}
		st.sum += v.Float()
		st.count++
	case pql.AggMin, pql.AggMax:
		if !v.IsNumeric() {
			return fmt.Errorf("pql: %s: %s needs numeric input, got %s", a.pos, kind, v.Kind())
		}
		if f := v.Float(); kind == pql.AggMin && f < st.min {
			st.min = f
		} else if kind == pql.AggMax && f > st.max {
			st.max = f
		} else {
			return nil
		}
	}
	if !st.touched {
		st.touched = true
		a.touched = append(a.touched, g)
	}
	return nil
}

// fresh inserts the dedup key (groupVals…, keyed…), reporting whether it
// was new; only a new key is copied.
func (a *aggTable) fresh(groupVals, keyed Tuple) bool {
	a.key = append(append(a.key[:0], groupVals...), keyed...)
	h := hashTuple(a.key)
	if a.dedup.has(a.key, h) {
		return false
	}
	a.dedup.appendKeyed(a.clones.clone(a.key), h)
	return true
}

// flush replaces the head tuples of the groups touched since the last
// flush: it deletes their old tuples in one pass, then hands the new ones to
// insert, which copies what it keeps, in first-touch order. That is the
// order replacing one group after the other gives, as distinct groups' head
// tuples differ in their group columns and the head has one defining rule.
func (a *aggTable) flush(head *Relation, insert func(Tuple) error) error {
	c := a.plan.aggCol
	old := a.old[:0]
	for _, g := range a.touched {
		if cur := a.states[g].current; !cur[c].IsNull() {
			old = append(old, cur)
		}
	}
	head.Delete(old...)
	a.old = old
	for _, g := range a.touched {
		st := &a.states[g]
		st.touched = false
		switch a.plan.agg.Kind {
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
		if err := insert(st.current); err != nil {
			return err
		}
	}
	a.touched = a.touched[:0]
	return nil
}
