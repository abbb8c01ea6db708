package eval

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"ariadne/internal/value"
)

// State save/restore for crash recovery. Online query evaluation is an
// engine observer; at each checkpoint barrier the driver snapshots the
// evaluation state — the Datalog database (EDB and IDB relations, the
// "query-relation deltas" accumulated so far) plus the evaluator- or
// compiled-path cursors — so a resumed run derives exactly the tuples a
// failure-free run would. All encoding rides on value.Blob; decoding never
// panics on corrupt input (BlobReader is bounds-checked with a sticky
// error).

// Clear empties the relation in place, shard sets and bitsets included,
// preserving its identity (compiled rules hold *Relation pointers, so
// restore refills the same objects rather than swap them), its index
// definitions and its capacity. A slice All returned before is overwritten
// by later inserts.
func (r *Relation) Clear() {
	clear(r.rows)
	for _, s := range r.sets {
		clear(s)
	}
	if r.bits != nil {
		r.bits.reset()
		for _, b := range r.bitSets {
			b.reset()
		}
	}
	r.truncate()
}

// truncate empties order and every index but keeps rows and bits: a
// partition shard's overlay starts each superstep so, its rows and bits
// being the shard's dedup set.
func (r *Relation) truncate() {
	r.order = r.order[:0]
	for _, idx := range r.indexes {
		clear(idx.m)
	}
}

// SaveState serializes every relation: name, arity, and tuples in insertion
// order (order matters — compiled global rules track insertion-order
// cursors into Relation.All(), set from the restored relations).
func (d *Database) SaveState(w *value.Blob) {
	names := d.Names()
	w.Uvarint(uint64(len(names)))
	for _, name := range names {
		rel := d.rels[name]
		w.String(name)
		w.Uvarint(uint64(rel.arity))
		w.Uvarint(uint64(len(rel.order)))
		for _, t := range rel.order {
			for _, v := range t {
				w.Value(v)
			}
		}
	}
}

// LoadState restores the database to a SaveState snapshot: existing
// relations are cleared in place (pointer identity preserved) and refilled;
// saved relations that do not exist yet are created.
func (d *Database) LoadState(r *value.BlobReader) error {
	for _, rel := range d.rels {
		rel.Clear()
	}
	n := r.Count()
	for i := 0; i < n && r.Err() == nil; i++ {
		name := r.String()
		arity := r.Count()
		rows := r.Count()
		if r.Err() != nil {
			break
		}
		rel := d.Relation(name, arity)
		if rel.arity != arity {
			return fmt.Errorf("eval: saved relation %s has arity %d, existing has %d", name, arity, rel.arity)
		}
		for j := 0; j < rows && r.Err() == nil; j++ {
			t := make(Tuple, arity)
			for k := range t {
				t[k] = r.Value()
			}
			rel.Insert(t)
		}
	}
	if err := r.Err(); err != nil {
		return fmt.Errorf("eval: corrupt database state: %w", err)
	}
	return nil
}

// SaveState serializes the compiled evaluator's mutable state beyond the
// database: counters, the static-rules-done flag, and one zero per rule. A
// global rule's delta cursors need no state (see LoadState); the per-rule
// slots keep the layout, so checkpoints that hold a cursor there still load.
func (c *Compiled) SaveState(w *value.Blob) {
	w.Bool(c.staticDone)
	w.Uvarint(uint64(c.derived))
	w.Uvarint(uint64(c.records))
	w.Uvarint(uint64(len(c.rules)))
	for range c.rules {
		w.Uvarint(0)
	}
}

// LoadState restores a SaveState snapshot taken from a Compiled built for
// the same query, after the database's. At every barrier a global rule has
// consumed each relation it reads to its end, so the rule slots are read
// past and every cursor is set from its restored relation.
func (c *Compiled) LoadState(r *value.BlobReader) error {
	c.staticDone = r.Bool()
	c.derived = int64(r.Uvarint())
	c.records = int64(r.Uvarint())
	n := r.Count()
	if r.Err() == nil && n != len(c.rules) {
		return fmt.Errorf("eval: saved state has %d rule cursors, query has %d rules", n, len(c.rules))
	}
	for i := 0; i < n && r.Err() == nil; i++ {
		r.Uvarint()
	}
	if err := r.Err(); err != nil {
		return fmt.Errorf("eval: corrupt compiled state: %w", err)
	}
	for _, rule := range c.rules {
		for i, pred := range rule.plan.positivePreds {
			rule.cursors[i] = c.main.rn.db.Get(pred).Len()
		}
	}
	return nil
}

// SaveState serializes the materialised evaluator's state beyond the
// database: work counters and the aggregate group tables (incremental
// SUM/COUNT/AVG/MIN/MAX accumulators with their dedup sets).
func (e *Evaluator) SaveState(w *value.Blob) {
	w.Uvarint(uint64(e.stats.Rounds))
	w.Uvarint(uint64(e.stats.Derivations))
	w.Uvarint(uint64(e.stats.FactsAdded))
	preds := make([]string, 0, len(e.aggs))
	for p := range e.aggs {
		preds = append(preds, p)
	}
	sort.Strings(preds)
	w.Uvarint(uint64(len(preds)))
	for _, p := range preds {
		table := e.aggs[p]
		w.String(p)
		keys := make([]string, 0, len(table.groups))
		for k := range table.groups {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		w.Uvarint(uint64(len(keys)))
		for _, k := range keys {
			st := table.groups[k]
			w.String(k)
			w.Uvarint(uint64(st.count))
			w.Float(st.sum)
			w.Float(st.min)
			w.Float(st.max)
			seen := make([]string, 0, len(st.seen))
			for s := range st.seen {
				seen = append(seen, s)
			}
			sort.Strings(seen)
			w.Uvarint(uint64(len(seen)))
			for _, s := range seen {
				w.String(s)
			}
			w.Bool(st.current != nil)
			if st.current != nil {
				w.Uvarint(uint64(len(st.current)))
				for _, v := range st.current {
					w.Value(v)
				}
			}
		}
	}
}

// LoadState restores a SaveState snapshot taken from an Evaluator built for
// the same query.
func (e *Evaluator) LoadState(r *value.BlobReader) error {
	// The blob carries the three seed counters only; the per-stratum round
	// breakdown restarts at zero on resume.
	e.stats.Rounds = int(r.Uvarint())
	e.stats.Derivations = int64(r.Uvarint())
	e.stats.FactsAdded = int64(r.Uvarint())
	e.pending = map[string][]Tuple{}
	nPreds := r.Count()
	for i := 0; i < nPreds && r.Err() == nil; i++ {
		pred := r.String()
		table, ok := e.aggs[pred]
		if r.Err() == nil && !ok {
			return fmt.Errorf("eval: saved aggregate table %s unknown to this query", pred)
		}
		nGroups := r.Count()
		if r.Err() != nil {
			break
		}
		table.groups = map[string]*aggState{}
		table.touched = nil
		for j := 0; j < nGroups && r.Err() == nil; j++ {
			k, err := canonicalKey(r.String(), false)
			if err != nil {
				return fmt.Errorf("eval: corrupt evaluator state: aggregate %s: %w", pred, err)
			}
			st := &aggState{min: math.Inf(1), max: math.Inf(-1), seen: map[string]bool{}}
			st.count = int64(r.Uvarint())
			st.sum = r.Float()
			st.min = r.Float()
			st.max = r.Float()
			nSeen := r.Count()
			for s := 0; s < nSeen && r.Err() == nil; s++ {
				sk, err := canonicalKey(r.String(), true)
				if err != nil {
					return fmt.Errorf("eval: corrupt evaluator state: aggregate %s: %w", pred, err)
				}
				st.seen[sk] = true
			}
			if r.Bool() {
				arity := r.Count()
				if r.Err() != nil {
					break
				}
				st.current = make(Tuple, arity)
				for c := range st.current {
					st.current[c] = r.Value()
				}
			}
			table.groups[k] = st
		}
	}
	if err := r.Err(); err != nil {
		return fmt.Errorf("eval: corrupt evaluator state: %w", err)
	}
	return nil
}

// canonicalKey re-encodes a saved aggregate key in the canonical encoding
// (appendNorm): a group key is the key of the group values, a dedup key
// (prefixed) is "<tag><column>|" followed by the key of the deduplicated
// values. Checkpoints written before Int and -0.0 keys were made to agree
// with value.Equal hold every Int as a float and -0.0 as itself; re-keying
// lets their seen-sets match the keys fold probes with now. A key already
// canonical comes back unchanged.
func canonicalKey(k string, prefixed bool) (string, error) {
	var b []byte
	rest := k
	if prefixed {
		i := strings.IndexByte(k, '|')
		if i < 0 {
			return "", fmt.Errorf("dedup key without a column prefix")
		}
		b = append(b, k[:i+1]...)
		rest = k[i+1:]
	}
	for len(rest) > 0 {
		v, n, err := value.DecodeValue([]byte(rest))
		if err != nil {
			return "", err
		}
		b = appendNorm(b, v)
		rest = rest[n:]
	}
	return string(b), nil
}
