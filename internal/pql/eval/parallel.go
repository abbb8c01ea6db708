package eval

import (
	"sync"

	"ariadne/internal/pql"
	"ariadne/internal/value"
)

// Shard-parallel delta rounds.
//
// A parallel round splits the round's delta into P shards by each
// predicate's location column, runs one worker goroutine per shard against
// the frozen relations, and merges the workers' emissions back on the round
// goroutine in canonical order: rule, then shard index, then emission order.
// Workers never mutate relations — lazy index construction is the only
// write they can trigger, and Relation serializes it — so the phase
// alternation (parallel read-only evaluation, sequential merge) needs no
// further locking. The canonical merge makes the final relations, their
// insertion order, and the next round's delta independent of goroutine
// scheduling: a parallel run is tuple-for-tuple identical to itself at any
// worker count. (Versus a sequential round the relations are set-identical;
// insertion order may differ because workers see one frozen-relation
// snapshot per round rather than mid-round inserts, so reporting goes
// through Relation.Sorted either way.)

// locShard maps a location value to a shard, reusing the engine's
// non-negative partition hash for integral ids so shard assignment matches
// the partition that owned the tuple during capture. Ints and numerically
// equal Floats shard identically (mirroring Tuple.Key normalization).
func locShard(v value.Value, p int) int {
	if id, ok := vertexID(v); ok {
		return int(uint64(id) % uint64(p))
	}
	var buf [16]byte
	return int(fnvSum(appendNorm(buf[:0], v)) % uint64(p))
}

// keyShard shards a tuple of an unlocated predicate by whole-tuple hash
// over the canonical encoding.
func keyShard(t Tuple, p int) int {
	var buf [64]byte
	return int(fnvSum(appendKey(buf[:0], t)) % uint64(p))
}

// fnvSum is FNV-1a over b.
func fnvSum(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h = (h ^ uint64(c)) * 1099511628211
	}
	return h
}

// shardOf returns t's home shard under the predicate's location column.
func (e *Evaluator) shardOf(pred string, t Tuple, p int) int {
	if lc, ok := e.locCols[pred]; ok && lc >= 0 && lc < len(t) {
		return locShard(t[lc], p)
	}
	return keyShard(t, p)
}

// emitted is one worker emission: the tuple and its canonical key (computed
// once in the worker, reused by the merge).
type emitted struct {
	key string
	t   Tuple
}

// parallelRound fans one delta round out to e.workers shards.
func (e *Evaluator) parallelRound(stratum []*pql.Rule, delta map[string][]Tuple) (map[string][]Tuple, error) {
	p := e.workers
	shards := make([]map[string][]Tuple, p)
	counts := make([]int, p)
	for i := range shards {
		shards[i] = map[string][]Tuple{}
	}
	for name, ts := range delta {
		for _, t := range ts {
			s := e.shardOf(name, t, p)
			shards[s][name] = append(shards[s][name], t)
			counts[s]++
		}
	}
	for _, n := range counts {
		if int64(n) > e.stats.maxShardDelta.Load() {
			e.stats.maxShardDelta.Store(int64(n))
		}
	}

	for len(e.scratch) < p {
		e.scratch = append(e.scratch, &workerScratch{seen: map[string]map[string]struct{}{}})
	}
	bufs := make([][][]emitted, p)
	errs := make([]error, p)
	var wg sync.WaitGroup
	for w := 0; w < p; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			bufs[w], errs[w] = e.workerRound(w, stratum, shards[w])
		}(w)
	}
	wg.Wait()
	for w := 0; w < p; w++ {
		if errs[w] != nil {
			return nil, errs[w]
		}
	}

	// Canonical merge: rule order, then shard index, then emission order.
	// This is the exchange step — a derived tuple lands in the global
	// relation (and next round's delta) regardless of which shard derived
	// it; tuples whose home shard differs from the deriving worker are the
	// cross-shard exchange volume.
	derived := map[string][]Tuple{}
	for ri, r := range stratum {
		pred := r.Head.Pred
		head := e.db.Relation(pred, len(r.Head.Args))
		for w := 0; w < p; w++ {
			for _, em := range bufs[w][ri] {
				if head.InsertKeyed(em.key, em.t) {
					derived[pred] = append(derived[pred], em.t)
					e.stats.derivations.Add(1)
					if e.shardOf(pred, em.t, p) != w {
						e.stats.exchanged.Add(1)
					}
				}
			}
		}
	}
	return derived, nil
}

// workerScratch is one shard worker's state that outlives a round: its
// buffers are cleared, not reallocated, so they stop growing (and their maps
// stop rehashing) once they have reached a round's size.
type workerScratch struct {
	seen map[string]map[string]struct{} // head pred -> keys emitted this round
	vals []value.Value                  // the current rule's kept tuples, end to end
	kb   []byte                         // canonical-key scratch
}

// workerRound evaluates every rule of the stratum against one shard of the
// delta, buffering emissions per rule. Relations are frozen: the worker
// filters against the head relation read-only and dedups its own emissions,
// leaving cross-worker dedup to the merge. Both probes take the key from
// reused scratch, so a duplicate allocates nothing; the tuples a rule keeps
// are copied out of the reused head buffer into one allocation of exactly
// their size once the rule has fired.
func (e *Evaluator) workerRound(w int, stratum []*pql.Rule, delta map[string][]Tuple) ([][]emitted, error) {
	bufs := make([][]emitted, len(stratum))
	sc := e.scratch[w]
	for _, m := range sc.seen {
		clear(m)
	}
	rn := &slotRun{db: e.db}
	for ri, r := range stratum {
		plan := e.plans[r]
		// Fact rules have no delta literal; they fire on one worker so the
		// merge sees each unconditional derivation exactly once.
		if plan.fact != nil && w != 0 {
			continue
		}
		head := e.db.Get(r.Head.Pred)
		predSeen := sc.seen[r.Head.Pred]
		if predSeen == nil {
			predSeen = map[string]struct{}{}
			sc.seen[r.Head.Pred] = predSeen
		}
		sc.vals = sc.vals[:0]
		width := 0
		emit := func(t Tuple) error {
			sc.kb = appendKey(sc.kb[:0], t)
			if head.containsKeyBytes(sc.kb) {
				return nil
			}
			if _, dup := predSeen[string(sc.kb)]; dup {
				return nil
			}
			k := string(sc.kb)
			predSeen[k] = struct{}{}
			sc.vals = append(sc.vals, t...)
			width = len(t)
			bufs[ri] = append(bufs[ri], emitted{key: k})
			return nil
		}
		if err := plan.fire(rn, delta, emit); err != nil {
			return nil, err
		}
		kept := make([]value.Value, len(sc.vals))
		copy(kept, sc.vals)
		for i := range bufs[ri] {
			bufs[ri][i].t = kept[i*width : (i+1)*width : (i+1)*width]
		}
	}
	return bufs, nil
}
