package eval

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

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
// With SetWorkers(n > 1) and a VC-compatible query, parallel-safe strata run
// their large delta rounds shard-parallel: the round's delta is split across
// n shards by each predicate's location column (the engine's partition
// hash), one worker goroutine runs the same programs over each shard against
// the frozen relations, and derived tuples are merged back in a canonical
// order (rule, then shard, then emission order) so the final relations — and
// their insertion order — are independent of scheduling.
type Evaluator struct {
	q  *analysis.Query
	db *Database

	plans   map[*pql.Rule]*rulePlan
	aggs    map[string]*aggTable // aggregate head pred -> state
	pending map[string][]Tuple

	workers int              // shard count; <= 1 never fans a round out
	parSafe []bool           // per-stratum shard-parallel safety
	locCols map[string]int   // per-predicate location column (-1: whole-tuple hash)
	rn      slotRun          // scratch of the sequential rounds
	headKey []byte           // the sequential insert's canonical-key scratch
	scratch []*workerScratch // per shard worker, reused across rounds

	stats statCounters
}

// statCounters are the evaluator's internal work counters. They are atomics
// because shard workers increment derivation counts concurrently; Stats()
// snapshots them into the plain Stats struct.
type statCounters struct {
	rounds         atomic.Int64
	parallelRounds atomic.Int64
	derivations    atomic.Int64
	factsAdded     atomic.Int64
	exchanged      atomic.Int64
	maxShardDelta  atomic.Int64
	perStratum     []atomic.Int64
}

// Stats is a snapshot of evaluation work counters.
type Stats struct {
	Rounds      int
	Derivations int64
	FactsAdded  int64

	// ParallelRounds counts the delta rounds that ran shard-parallel
	// (always <= Rounds; zero on the sequential path).
	ParallelRounds int
	// ExchangeTuples counts derived tuples whose home shard differed from
	// the worker that derived them — the per-round exchange volume.
	ExchangeTuples int64
	// MaxShardDelta is the largest per-shard delta batch seen in any
	// parallel round, a skew indicator.
	MaxShardDelta int
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
		workers: 1,
		parSafe: q.ParallelSafeStrata(),
		locCols: q.LocationCols(),
		rn:      slotRun{db: db},
	}
	e.stats.perStratum = make([]atomic.Int64, len(q.Strata))
	for _, r := range q.Rules {
		plan, err := planRule(r)
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
	// Pre-create IDB relations so negation over empty IDBs works — and so
	// shard workers never race on Database.Relation's map mutation.
	for name, arity := range q.IDBs {
		db.Relation(name, arity)
	}
	return e, nil
}

// Stats returns a snapshot of the evaluation counters.
func (e *Evaluator) Stats() Stats {
	s := Stats{
		Rounds:           int(e.stats.rounds.Load()),
		Derivations:      e.stats.derivations.Load(),
		FactsAdded:       e.stats.factsAdded.Load(),
		ParallelRounds:   int(e.stats.parallelRounds.Load()),
		ExchangeTuples:   e.stats.exchanged.Load(),
		MaxShardDelta:    int(e.stats.maxShardDelta.Load()),
		RoundsPerStratum: make([]int, len(e.stats.perStratum)),
	}
	for i := range e.stats.perStratum {
		s.RoundsPerStratum[i] = int(e.stats.perStratum[i].Load())
	}
	return s
}

// SetWorkers sets the shard-parallel worker count for subsequent Fixpoint
// calls; n <= 1 (the default) never fans a round out. The worker count only
// chooses whether a large round is split over shards of the same programs —
// never which machinery evaluates a rule. Parallel rounds require a
// VC-compatible query (Def. 4.1): remote access only follows message edges
// whose destination is computable from the tuple, which is what makes the
// per-round exchange legal. For incompatible queries the setting is ignored.
func (e *Evaluator) SetWorkers(n int) {
	if n < 1 || !e.q.VCCompatible {
		n = 1
	}
	e.workers = n
}

// Workers returns the configured shard-parallel worker count.
func (e *Evaluator) Workers() int { return e.workers }

// AddFact queues an EDB (or externally derived) fact for the next Fixpoint.
func (e *Evaluator) AddFact(pred string, t Tuple) {
	e.pending[pred] = append(e.pending[pred], t)
}

// Result returns the relation for pred (IDB or EDB), or nil.
func (e *Evaluator) Result(pred string) *Relation { return e.db.Get(pred) }

// parallelCutoff is the minimum round-delta size before a round fans out to
// shard workers; smaller deltas aren't worth the goroutine handoff.
const parallelCutoff = 64

// Fixpoint runs all strata to fixpoint over the pending deltas.
func (e *Evaluator) Fixpoint() error {
	newSince := e.drainPending()

	for si, stratum := range e.q.Strata {
		// Round 0 consumes everything new since Fixpoint started (facts and
		// lower-strata derivations); later rounds consume this stratum's
		// own derivations (recursion).
		delta := newSince
		for {
			e.stats.rounds.Add(1)
			e.stats.perStratum[si].Add(1)
			var derived map[string][]Tuple
			var err error
			if e.parallelOK(si, delta) {
				e.stats.parallelRounds.Add(1)
				derived, err = e.parallelRound(stratum, delta)
			} else {
				derived, err = e.sequentialRound(stratum, delta)
			}
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
// — and everything derived from it — is deterministic. With workers
// configured, per-predicate ingest fans out (relations are disjoint, so the
// only shared state is the atomic counter); the per-predicate insertion
// order is preserved either way.
func (e *Evaluator) drainPending() map[string][]Tuple {
	newSince := map[string][]Tuple{}
	pendNames := make([]string, 0, len(e.pending))
	total := 0
	for name, ts := range e.pending {
		pendNames = append(pendNames, name)
		total += len(ts)
	}
	sort.Strings(pendNames)
	if e.workers > 1 && len(pendNames) > 1 && total >= parallelCutoff {
		rels := make([]*Relation, len(pendNames))
		for i, name := range pendNames {
			rels[i] = e.db.Relation(name, len(e.pending[name][0]))
		}
		news := make([][]Tuple, len(pendNames))
		var wg sync.WaitGroup
		sem := make(chan struct{}, e.workers)
		for i := range pendNames {
			wg.Add(1)
			sem <- struct{}{}
			go func(i int) {
				defer wg.Done()
				defer func() { <-sem }()
				rel := rels[i]
				for _, t := range e.pending[pendNames[i]] {
					if rel.Insert(t) {
						news[i] = append(news[i], t)
						e.stats.factsAdded.Add(1)
					}
				}
			}(i)
		}
		wg.Wait()
		for i, name := range pendNames {
			if len(news[i]) > 0 {
				newSince[name] = news[i]
			}
		}
	} else {
		for _, name := range pendNames {
			ts := e.pending[name]
			rel := e.db.Relation(name, len(ts[0]))
			for _, t := range ts {
				if rel.Insert(t) {
					newSince[name] = append(newSince[name], t)
					e.stats.factsAdded.Add(1)
				}
			}
		}
	}
	e.pending = map[string][]Tuple{}
	return newSince
}

// parallelOK reports whether this round should fan out to shard workers.
func (e *Evaluator) parallelOK(stratum int, delta map[string][]Tuple) bool {
	if e.workers <= 1 || !e.parSafe[stratum] {
		return false
	}
	n := 0
	for _, ts := range delta {
		n += len(ts)
	}
	return n >= parallelCutoff
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
			if c, ok := head.insertCopy(t, &e.headKey); ok {
				derived[pred] = append(derived[pred], c)
				e.stats.derivations.Add(1)
			}
			return nil
		}
		if !plan.aggregates {
			if err := plan.fire(&e.rn, delta, insert); err != nil {
				return nil, err
			}
			continue
		}
		// Aggregate rule: fold the new satisfying valuations into the group
		// states, then replace the head tuples of the groups that changed.
		table := e.aggs[pred]
		if err := plan.fire(&e.rn, delta, table.fold); err != nil {
			return nil, err
		}
		if err := table.flush(head, insert); err != nil {
			return nil, err
		}
	}
	return derived, nil
}

// fire runs the rule's programs semi-naively: once per positive literal
// whose predicate has a delta, with that literal restricted to the delta.
// Rules with no positive body literals (facts) fire unconditionally — once
// per Fixpoint round, idempotent via dedup.
func (p *rulePlan) fire(rn *slotRun, delta map[string][]Tuple, emit func(Tuple) error) error {
	if p.fact != nil {
		rn.prep(p.fact, nil, emit)
		return p.fact.run(rn, 0)
	}
	for vi, prog := range p.progs {
		dts := delta[p.positivePreds[vi]]
		if len(dts) == 0 {
			continue
		}
		rn.prep(prog, dts, emit)
		if err := prog.run(rn, 0); err != nil {
			return err
		}
	}
	return nil
}
