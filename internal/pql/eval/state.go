package eval

import (
	"fmt"

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

// Clear empties the relation in place, its set and bitsets included,
// preserving its identity (compiled rules hold *Relation pointers, so
// restore refills the same objects rather than swap them), its indexes and
// its capacity. A slice All returned before is overwritten by later inserts.
func (r *Relation) Clear() {
	if r.bits != nil {
		r.bits.reset()
		for _, b := range r.bitSets {
			b.reset()
		}
	}
	clear(r.supersteps)
	r.lastSS = -1
	r.truncate()
}

// truncate empties order, the set and every index but keeps bits: a
// partition shard's overlay starts each superstep so, its bits being the
// shard's dedup set of the tuples that have one.
func (r *Relation) truncate() {
	r.order, r.appends = r.order[:0], 0
	r.unkey()
}

// SaveState serializes every relation: name, then saveRelation's layout.
// Order matters: compiled global rules track insertion-order cursors into
// Relation.All(), set from the restored relations.
func (d *Database) SaveState(w *value.Blob) {
	names := d.Names()
	w.Uvarint(uint64(len(names)))
	for _, name := range names {
		w.String(name)
		saveRelation(w, d.rels[name])
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
		if r.Err() != nil {
			break
		}
		if err := loadTuples(r, d.Relation(name, arity), arity); err != nil {
			return fmt.Errorf("eval: saved relation %s: %w", name, err)
		}
	}
	if err := r.Err(); err != nil {
		return fmt.Errorf("eval: corrupt database state: %w", err)
	}
	return nil
}

// saveRelation writes rel's arity, then its tuples in insertion order after
// their count.
func saveRelation(w *value.Blob, rel *Relation) {
	w.Uvarint(uint64(rel.arity))
	w.Uvarint(uint64(len(rel.order)))
	for _, t := range rel.order {
		for _, v := range t {
			w.Value(v)
		}
	}
}

// loadTuples inserts into rel the tuples saveRelation wrote after the
// arity, which the caller read: it must be rel's. A corrupt blob leaves r's
// sticky error for the caller.
func loadTuples(r *value.BlobReader, rel *Relation, arity int) error {
	if r.Err() == nil && arity != rel.arity {
		return fmt.Errorf("arity %d, existing %d", arity, rel.arity)
	}
	rows := r.Count()
	for j := 0; j < rows && r.Err() == nil; j++ {
		t := make(Tuple, rel.arity)
		for k := range t {
			t[k] = r.Value()
		}
		rel.Insert(t)
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

// saveAggs writes the aggregate tables, in rule order, after a 0: the
// string-keyed layout that came before opened with the number of tables,
// never 0. Per table: its head, its groups (saveRelation), per group in
// their order the accumulators and the last flushed result, then its dedup
// keys. Nothing is sorted: every part keeps insertion order.
func saveAggs(w *value.Blob, aggs []*aggTable) {
	w.Uvarint(0)
	for _, a := range aggs {
		w.String(a.pred)
		saveRelation(w, a.grouping)
		for i := range a.states {
			st := &a.states[i]
			w.Uvarint(uint64(st.count))
			w.Float(st.sum)
			w.Float(st.min)
			w.Float(st.max)
			w.Value(st.current[a.plan.aggCol])
		}
		saveRelation(w, a.dedup)
	}
}

// loadAggs restores the tables saveAggs wrote into aggs, built for the same
// query. A corrupt blob leaves r's sticky error for the caller.
func loadAggs(r *value.BlobReader, aggs []*aggTable) error {
	if r.Uvarint() != 0 && r.Err() == nil {
		return fmt.Errorf("eval: checkpoint holds aggregate group tables in the string-keyed layout, which this build no longer reads; rerun without resuming")
	}
	load := func(rel *Relation) error {
		rel.Clear()
		if err := loadTuples(r, rel, r.Count()); err != nil {
			return fmt.Errorf("eval: saved aggregate relation: %w", err)
		}
		return nil
	}
	for _, a := range aggs {
		if pred := r.String(); r.Err() == nil && pred != a.pred {
			return fmt.Errorf("eval: saved aggregate table %s, query has %s", pred, a.pred)
		}
		if err := load(a.grouping); err != nil {
			return err
		}
		a.states, a.touched = a.states[:0], a.touched[:0]
		for _, g := range a.grouping.order {
			a.addGroup(g)
			st := &a.states[len(a.states)-1]
			st.count = int64(r.Uvarint())
			st.sum, st.min, st.max = r.Float(), r.Float(), r.Float()
			st.current[a.plan.aggCol] = r.Value()
		}
		if err := load(a.dedup); err != nil {
			return err
		}
	}
	return nil
}
