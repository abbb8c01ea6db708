package eval

import (
	"fmt"
	"math"
	"sort"

	"ariadne/internal/value"
)

// State save/restore for crash recovery. Online query evaluation is an
// engine observer; at each checkpoint barrier the driver snapshots the
// evaluation state — the Datalog database (EDB and IDB relations, the
// "query-relation deltas" accumulated so far) plus the compiled program's
// counters and aggregate group tables — so a resumed run derives exactly the
// tuples a failure-free run would. All encoding rides on value.Blob; decoding never
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
	r.order, r.appends = r.order[:0], 0
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
// database: counters, the static-rules-done flag, one zero per rule and, for
// a query with aggregate heads, their group tables. A global rule's delta
// cursors need no state (see LoadState); the per-rule slots keep the layout,
// so checkpoints that hold a cursor there still load.
func (c *Compiled) SaveState(w *value.Blob) {
	w.Bool(c.staticDone)
	w.Uvarint(uint64(c.derived))
	w.Uvarint(uint64(c.records))
	w.Uvarint(uint64(len(c.rules)))
	for range c.rules {
		w.Uvarint(0)
	}
	if len(c.aggs) > 0 {
		saveAggs(w, c.aggs)
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
	if len(c.aggs) > 0 {
		if err := loadAggs(r, c.aggs); err != nil {
			return err
		}
	}
	if err := r.Err(); err != nil {
		return fmt.Errorf("eval: corrupt compiled state: %w", err)
	}
	for _, rule := range c.rules {
		for i, pred := range rule.plan.positivePreds {
			rule.cursors[i] = c.main.rn.db.Get(pred).appends
		}
	}
	return nil
}

// saveAggs serializes aggregate group tables, by head: the incremental
// SUM/COUNT/AVG/MIN/MAX accumulators with their dedup sets and current head
// tuples, in key order.
func saveAggs(w *value.Blob, aggs map[string]*aggTable) {
	preds := make([]string, 0, len(aggs))
	for p := range aggs {
		preds = append(preds, p)
	}
	sort.Strings(preds)
	w.Uvarint(uint64(len(preds)))
	for _, p := range preds {
		table := aggs[p]
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

// loadAggs restores the group tables saveAggs wrote into aggs, built for
// the same query. A corrupt blob leaves r's sticky error for the caller.
func loadAggs(r *value.BlobReader, aggs map[string]*aggTable) error {
	nPreds := r.Count()
	for i := 0; i < nPreds && r.Err() == nil; i++ {
		pred := r.String()
		table, ok := aggs[pred]
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
			k := r.String()
			st := &aggState{min: math.Inf(1), max: math.Inf(-1), seen: map[string]bool{}}
			st.count = int64(r.Uvarint())
			st.sum = r.Float()
			st.min = r.Float()
			st.max = r.Float()
			nSeen := r.Count()
			for s := 0; s < nSeen && r.Err() == nil; s++ {
				st.seen[r.String()] = true
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
	return nil
}
