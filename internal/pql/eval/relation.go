// Package eval implements PQL query evaluation: relations with hash
// indexes, semi-naive stratified Datalog with negation and aggregation, and
// the three evaluation drivers of the paper — Naive (full materialization,
// §6.2 "Naive"), Layered (§5.1), and Online (§5.2).
package eval

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"ariadne/internal/value"
)

// Tuple is one relational row.
type Tuple []value.Value

// Key returns a canonical byte-string identity for the tuple, used for
// set-semantics deduplication; see appendNorm for how numbers encode.
func (t Tuple) Key() string { return string(appendKey(nil, t)) }

// String renders the tuple for diagnostics.
func (t Tuple) String() string {
	parts := make([]string, len(t))
	for i, v := range t {
		parts[i] = v.String()
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// Clone copies the tuple.
func (t Tuple) Clone() Tuple {
	out := make(Tuple, len(t))
	copy(out, t)
	return out
}

// Relation is a set of same-arity tuples with lazily built, incrementally
// maintained hash indexes on column subsets.
//
// Concurrency contract: concurrent readers (Lookup/LookupKey/Contains/All)
// are safe with each other — lazy index construction is serialized behind
// mu, and everything else they touch is read-only. Mutations (Insert,
// Delete, Clear) must not overlap with readers or each other: a caller that
// reads a relation from several goroutines keeps its writes to phases in
// which no reader runs.
type Relation struct {
	arity int
	rows  map[string]Tuple
	order []Tuple // insertion order, for deterministic iteration

	mu      sync.Mutex // guards indexes map + lazy index construction
	indexes map[string]*index
}

// index is a hash index over a column subset.
type index struct {
	cols []int
	m    map[string][]Tuple
}

// NewRelation creates an empty relation of the given arity.
func NewRelation(arity int) *Relation {
	return &Relation{arity: arity, rows: map[string]Tuple{}}
}

// Arity returns the column count.
func (r *Relation) Arity() int { return r.arity }

// Len returns the tuple count.
func (r *Relation) Len() int { return len(r.rows) }

// Insert adds t, reporting whether it was new. The tuple is retained.
func (r *Relation) Insert(t Tuple) bool {
	if len(t) != r.arity {
		panic(fmt.Sprintf("eval: inserting arity-%d tuple into arity-%d relation", len(t), r.arity))
	}
	k := t.Key()
	if _, ok := r.rows[k]; ok {
		return false
	}
	r.add(k, t)
	return true
}

// insertCopy inserts a copy of t unless an equal tuple is present, and
// returns the stored copy. The canonical key is encoded into *kb, scratch
// the caller reuses, and probed first, so a duplicate allocates nothing:
// only a new tuple is cloned and keyed. t itself is never retained, which
// is what lets the slot programs emit one reused head buffer.
func (r *Relation) insertCopy(t Tuple, kb *[]byte) (Tuple, bool) {
	if len(t) != r.arity {
		panic(fmt.Sprintf("eval: inserting arity-%d tuple into arity-%d relation", len(t), r.arity))
	}
	*kb = appendKey((*kb)[:0], t)
	if r.containsKeyBytes(*kb) {
		return nil, false
	}
	c := t.Clone()
	r.add(string(*kb), c)
	return c, true
}

// insertKeyed adds t under its canonical key k unless that key is present,
// reporting whether it did. t is retained.
func (r *Relation) insertKeyed(k string, t Tuple) bool {
	if _, ok := r.rows[k]; ok {
		return false
	}
	r.add(k, t)
	return true
}

// add stores a tuple known to be new under its canonical key.
func (r *Relation) add(k string, t Tuple) {
	r.rows[k] = t
	r.order = append(r.order, t)
	r.mu.Lock()
	for _, idx := range r.indexes {
		pk := projKey(t, idx.cols)
		idx.m[pk] = append(idx.m[pk], t)
	}
	r.mu.Unlock()
}

// Delete removes t, reporting whether it was present. Deletion is used only
// by aggregate-group replacement.
func (r *Relation) Delete(t Tuple) bool {
	k := t.Key()
	old, ok := r.rows[k]
	if !ok {
		return false
	}
	delete(r.rows, k)
	for i, row := range r.order {
		if &row[0] == &old[0] || row.Key() == k {
			r.order = append(r.order[:i], r.order[i+1:]...)
			break
		}
	}
	r.mu.Lock()
	for _, idx := range r.indexes {
		pk := projKey(old, idx.cols)
		lst := idx.m[pk]
		for i, row := range lst {
			if row.Key() == k {
				idx.m[pk] = append(lst[:i], lst[i+1:]...)
				break
			}
		}
	}
	r.mu.Unlock()
	return true
}

// Contains reports membership.
func (r *Relation) Contains(t Tuple) bool {
	_, ok := r.rows[t.Key()]
	return ok
}

// ContainsKey reports membership by canonical tuple key (see Tuple.Key).
func (r *Relation) ContainsKey(k string) bool {
	_, ok := r.rows[k]
	return ok
}

// containsKeyBytes is ContainsKey without the string allocation: the
// conversion sits inside the map index expression, which the compiler
// optimizes to a zero-copy lookup.
func (r *Relation) containsKeyBytes(k []byte) bool {
	_, ok := r.rows[string(k)]
	return ok
}

// All returns the tuples in insertion order. The slice must not be modified.
func (r *Relation) All() []Tuple { return r.order }

// Lookup returns the tuples whose values at cols equal key, building (and
// thereafter maintaining) a hash index on cols. Safe for concurrent use by
// multiple readers.
func (r *Relation) Lookup(cols []int, key []value.Value) []Tuple {
	if len(cols) == 0 {
		return r.order
	}
	idx := r.index(encodeCols(cols), cols)
	return idx.m[keyOf(key)]
}

// LookupKey is Lookup with the column subset and projection key already
// encoded (colsKey via encodeCols, key via the projKey encoding) — the
// allocation-free fast path used by slot-compiled rule programs. Safe for
// concurrent use by multiple readers.
func (r *Relation) LookupKey(cols []int, colsKey string, key []byte) []Tuple {
	if len(cols) == 0 {
		return r.order
	}
	idx := r.index(colsKey, cols)
	return idx.m[string(key)]
}

// index returns the hash index on cols, building it under the lock on first
// use so concurrent lookups race safely.
func (r *Relation) index(ck string, cols []int) *index {
	r.mu.Lock()
	defer r.mu.Unlock()
	idx, ok := r.indexes[ck]
	if !ok {
		idx = &index{cols: append([]int(nil), cols...), m: make(map[string][]Tuple, len(r.rows))}
		for _, t := range r.order {
			pk := projKey(t, cols)
			idx.m[pk] = append(idx.m[pk], t)
		}
		if r.indexes == nil {
			r.indexes = map[string]*index{}
		}
		r.indexes[ck] = idx
	}
	return idx
}

func projKey(t Tuple, cols []int) string {
	var buf [64]byte
	b := buf[:0]
	for _, c := range cols {
		b = appendNorm(b, t[c])
	}
	return string(b)
}

// keyOf encodes the lookup key values (all columns of key, in order).
func keyOf(key []value.Value) string {
	var buf [64]byte
	return string(appendKey(buf[:0], key))
}

// encodeCols identifies a column subset compactly (columns are tiny ints).
func encodeCols(cols []int) string {
	var buf [16]byte
	b := buf[:0]
	for _, c := range cols {
		b = append(b, byte(c))
	}
	return string(b)
}

// Per-entry overhead constants for MemSize: a tuple costs its values plus a
// slice header; a hash-index bucket costs its key string (header + bytes),
// the bucket slice header, map bucket bookkeeping, and one pointer-sized
// slot per indexed tuple (the tuples themselves are shared with rows).
const (
	memTupleOverhead  = 24
	memBucketOverhead = 16 + 24 + 8 // string header + slice header + map slot
	memIndexOverhead  = 48          // index struct + cols slice
	memEntryPointer   = 8
)

// MemSize estimates the relation's footprint in bytes: tuple storage plus
// the overhead of every hash index built so far. Indexes share tuple
// storage with rows, but their buckets, key strings, and per-entry pointers
// are real memory the naive-mode budget must account for.
func (r *Relation) MemSize() int64 {
	var s int64
	for _, t := range r.order {
		s += memTupleOverhead
		for _, v := range t {
			s += int64(v.MemSize())
		}
	}
	r.mu.Lock()
	for _, idx := range r.indexes {
		s += memIndexOverhead
		for k, lst := range idx.m {
			s += memBucketOverhead + int64(len(k)) + memEntryPointer*int64(len(lst))
		}
	}
	r.mu.Unlock()
	return s
}

// Sorted returns the tuples sorted lexicographically, for deterministic
// result reporting.
func (r *Relation) Sorted() []Tuple {
	out := make([]Tuple, len(r.order))
	copy(out, r.order)
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		for k := 0; k < len(a) && k < len(b); k++ {
			if c := a[k].Compare(b[k]); c != 0 {
				return c < 0
			}
		}
		return len(a) < len(b)
	})
	return out
}

// Database is a named collection of relations.
type Database struct {
	rels map[string]*Relation
}

// NewDatabase creates an empty database.
func NewDatabase() *Database {
	return &Database{rels: map[string]*Relation{}}
}

// Relation returns the named relation, creating it with the given arity on
// first use.
func (d *Database) Relation(name string, arity int) *Relation {
	r, ok := d.rels[name]
	if !ok {
		r = NewRelation(arity)
		d.rels[name] = r
	}
	return r
}

// Get returns the named relation or nil.
func (d *Database) Get(name string) *Relation { return d.rels[name] }

// Names returns the relation names, sorted.
func (d *Database) Names() []string {
	out := make([]string, 0, len(d.rels))
	for n := range d.rels {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// MemSize estimates the database footprint in bytes.
func (d *Database) MemSize() int64 {
	var s int64
	for _, r := range d.rels {
		s += r.MemSize()
	}
	return s
}
