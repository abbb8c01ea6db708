package eval

import (
	"fmt"
	"sort"

	"ariadne/internal/pql"
	"ariadne/internal/pql/analysis"
)

// Evaluator runs semi-naive stratified evaluation of an analyzed query over
// a Database. It is incremental: facts added between Fixpoint calls are
// treated as deltas, which is what makes layered (§5.1) and online (§5.2)
// evaluation possible — each provenance layer is one delta batch.
//
// Every rule — plain, fact and aggregate bodies alike — is lowered to slot
// programs (slots.go) in NewEvaluator; a rule shape the lowering rejects is
// a positioned error there, never a run-time one.
//
// Evaluation runs on the calling goroutine: every delta round fires the
// stratum's rules in order and inserts each derived tuple as it is emitted,
// so the relations' insertion order is a function of the facts alone.
type Evaluator struct {
	q  *analysis.Query
	db *Database

	plans   map[*pql.Rule]*rulePlan
	aggs    map[string]*aggTable // aggregate head pred -> state
	pending map[string][]Tuple

	rn slotRun // scratch of the delta rounds

	stats Stats
}

// Stats is a snapshot of evaluation work counters.
type Stats struct {
	Rounds      int
	Derivations int64
	// RoundsPerStratum breaks Rounds down by stratum index.
	RoundsPerStratum []int
}

// NewEvaluator prepares evaluation of q over db.
func NewEvaluator(q *analysis.Query, db *Database) (*Evaluator, error) {
	e := &Evaluator{
		q: q, db: db,
		plans:   map[*pql.Rule]*rulePlan{},
		aggs:    map[string]*aggTable{},
		pending: map[string][]Tuple{},
		rn:      slotRun{db: db},
	}
	e.stats.RoundsPerStratum = make([]int, len(q.Strata))
	for _, r := range q.Rules {
		plan, err := planRule(r, bottomUp{})
		if err != nil {
			return nil, err
		}
		if err := plan.lower(r, q.Env()); err != nil {
			return nil, err
		}
		e.plans[r] = plan
		if plan.aggregates {
			if e.aggs[r.Head.Pred] != nil {
				return nil, fmt.Errorf("pql: %s: aggregate predicate %s has multiple defining rules", r.Pos, r.Head.Pred)
			}
			e.aggs[r.Head.Pred] = newAggTable(r, plan)
		}
	}
	// Pre-create IDB relations so negation over empty IDBs works.
	for name, arity := range q.IDBs {
		db.Relation(name, arity)
	}
	return e, nil
}

// Stats returns a snapshot of the evaluation counters.
func (e *Evaluator) Stats() Stats {
	s := e.stats
	s.RoundsPerStratum = append([]int(nil), e.stats.RoundsPerStratum...)
	return s
}

// AddFact queues an EDB (or externally derived) fact for the next Fixpoint.
func (e *Evaluator) AddFact(pred string, t Tuple) {
	e.pending[pred] = append(e.pending[pred], t)
}

// Result returns the relation for pred (IDB or EDB), or nil.
func (e *Evaluator) Result(pred string) *Relation { return e.db.Get(pred) }

// Fixpoint runs all strata to fixpoint over the pending deltas.
func (e *Evaluator) Fixpoint() error {
	newSince := e.drainPending()

	for si, stratum := range e.q.Strata {
		// Round 0 consumes everything new since Fixpoint started (facts and
		// lower-strata derivations); later rounds consume this stratum's
		// own derivations (recursion).
		delta := newSince
		for {
			e.stats.Rounds++
			e.stats.RoundsPerStratum[si]++
			derived, err := e.sequentialRound(stratum, delta)
			if err != nil {
				return err
			}
			if len(derived) == 0 {
				break
			}
			// Derivations feed both this stratum's next round and the
			// cumulative delta for later strata.
			for name, ts := range derived {
				newSince[name] = append(newSince[name], ts...)
			}
			delta = derived
		}
	}
	return nil
}

// drainPending inserts the queued facts; the ones actually new seed the
// delta sets. Predicates are drained in sorted name order so the seed delta
// — and everything derived from it — is deterministic.
func (e *Evaluator) drainPending() map[string][]Tuple {
	newSince := map[string][]Tuple{}
	pendNames := make([]string, 0, len(e.pending))
	for name := range e.pending {
		pendNames = append(pendNames, name)
	}
	sort.Strings(pendNames)
	for _, name := range pendNames {
		ts := e.pending[name]
		rel := e.db.Relation(name, len(ts[0]))
		for _, t := range ts {
			if rel.Insert(t) {
				newSince[name] = append(newSince[name], t)
			}
		}
	}
	e.pending = map[string][]Tuple{}
	return newSince
}

// sequentialRound fires every rule of the stratum against the round delta on
// the calling goroutine, inserting derived tuples as they are emitted.
func (e *Evaluator) sequentialRound(stratum []*pql.Rule, delta map[string][]Tuple) (map[string][]Tuple, error) {
	derived := map[string][]Tuple{}
	for _, r := range stratum {
		plan := e.plans[r]
		pred := r.Head.Pred
		head := e.db.Relation(pred, len(r.Head.Args))
		insert := func(t Tuple) error {
			if c, ok := head.insertCopy(t); ok {
				derived[pred] = append(derived[pred], c)
				e.stats.Derivations++
			}
			return nil
		}
		var err error
		if plan.aggregates {
			err = e.aggs[pred].fire(&e.rn, delta, head, insert)
		} else {
			err = plan.fire(&e.rn, delta, insert)
		}
		if err != nil {
			return nil, err
		}
	}
	return derived, nil
}

// fire folds the satisfying valuations plan.fire finds over delta into the
// group states, then replaces the head tuples of the groups that changed.
func (a *aggTable) fire(rn *slotRun, delta map[string][]Tuple, head *Relation, insert func(Tuple) error) error {
	if err := a.plan.fire(rn, delta, a.fold); err != nil {
		return err
	}
	rn.branch = 0
	return a.flush(head, insert)
}

// fire runs the rule's programs semi-naively: once per positive literal
// whose predicate has a delta, with that literal restricted to the delta.
// Rules with no positive body literals (facts) fire unconditionally — once
// per Fixpoint round, idempotent via dedup.
func (p *rulePlan) fire(rn *slotRun, delta map[string][]Tuple, emit func(Tuple) error) error {
	if p.fact != nil {
		rn.prep(p.fact, nil, emit)
		return p.fact.start(rn)
	}
	for vi, prog := range p.progs {
		dts := delta[p.positivePreds[vi]]
		if len(dts) == 0 {
			continue
		}
		rn.prep(prog, dts, emit)
		if err := prog.start(rn); err != nil {
			return err
		}
	}
	return nil
}
