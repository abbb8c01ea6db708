// Package eval implements PQL query evaluation: relations with hash
// indexes, semi-naive stratified Datalog with negation and aggregation over
// slot programs, and the compiled per-record strata online evaluation runs.
// The paper's three evaluation drivers — Naive (§6.2 "Naive"), Layered
// (§5.1) and Online (§5.2) — live in internal/driver and call into it.
package eval

import (
	"fmt"
	"math"
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
// A head of an in-partition compiled rule also carries the partition shards'
// dedup sets (sets): each holds, by canonical key, the tuples one shard
// derived on its partition's goroutine. Those tuples are in order and in
// every built index, but never in rows; a member is in rows or in one set.
//
// A record-keyed relation (Compile keys a head whose every rule derives
// exactly (anchor, current superstep)) holds its members that are such
// pairs in bits instead, one bit per (vertex, superstep), and the shards'
// in bitSets, registered as their sets are; only its other tuples are keyed
// by string. A member is then in rows, in one set, in bits or in one bitset.
//
// Concurrency contract: concurrent readers (Lookup/LookupKey/Contains/All)
// are safe with each other — lazy index construction is serialized behind
// mu, and everything else they touch is read-only. Mutations (Insert,
// Delete, Clear, the barrier's merge) must not overlap with readers or each
// other: a caller that reads a relation from several goroutines keeps its
// writes to phases in which no reader runs. A shard set or bitset is written
// only on its partition's goroutine, while the relation is frozen, and read
// by every membership probe at the barrier; a partition shard itself probes
// only rows and bits and its own set and bitset. Partitions share bitset
// words (a partition is vertex mod P), which is why each shard writes a
// bitset of its own.
type Relation struct {
	arity   int
	rows    map[string]Tuple
	sets    []map[string]Tuple
	bits    *recordBits   // nil unless record-keyed
	bitSets []*recordBits // the shards' bits of a record-keyed relation
	order   []Tuple       // insertion order, for deterministic iteration
	appends int           // tuples appended to order since it was last emptied

	mu      sync.Mutex // guards indexes map + lazy index construction by readers
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
func (r *Relation) Len() int { return len(r.order) }

// Insert adds t, reporting whether it was new. The tuple is retained.
func (r *Relation) Insert(t Tuple) bool {
	if len(t) != r.arity {
		panic(fmt.Sprintf("eval: inserting arity-%d tuple into arity-%d relation", len(t), r.arity))
	}
	if v, s, ok := r.bitOf(t); ok {
		if r.hasBit(v, s) {
			return false
		}
		r.bits.set(v, s)
		r.appendNew(t)
		return true
	}
	var buf [64]byte
	k := appendKey(buf[:0], t)
	if r.inKeyed(k) {
		return false
	}
	r.add(string(k), t)
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
	if v, s, ok := r.bitOf(t); ok {
		if r.hasBit(v, s) {
			return nil, false
		}
		r.bits.set(v, s)
		c := t.Clone()
		r.appendNew(c)
		return c, true
	}
	*kb = appendKey((*kb)[:0], t)
	if r.inKeyed(*kb) {
		return nil, false
	}
	c := t.Clone()
	r.add(string(*kb), c)
	return c, true
}

// add stores a tuple known to be new in rows, under its canonical key.
func (r *Relation) add(k string, t Tuple) {
	r.rows[k] = t
	r.appendNew(t)
}

// appendNew appends a tuple known to be new, and already held by rows or a
// shard set, to order and to every built index. Like every mutation it runs
// while no reader does, so it takes no lock.
func (r *Relation) appendNew(t Tuple) {
	r.order = append(r.order, t)
	r.appends++
	for _, idx := range r.indexes {
		pk := projKey(t, idx.cols)
		idx.m[pk] = append(idx.m[pk], t)
	}
}

// Delete removes t, reporting whether it was present. Deletion is used only
// by aggregate-group replacement, whose heads have no shard sets.
func (r *Relation) Delete(t Tuple) bool {
	k := t.Key()
	if v, s, ok := r.bitOf(t); ok {
		if !r.bits.has(v, s) {
			return false
		}
		r.bits.unset(v, s)
	} else {
		if _, ok := r.rows[k]; !ok {
			return false
		}
		delete(r.rows, k)
	}
	for i, row := range r.order {
		if row.Key() == k {
			r.order = append(r.order[:i], r.order[i+1:]...)
			break
		}
	}
	r.mu.Lock()
	for _, idx := range r.indexes {
		pk := projKey(t, idx.cols)
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
	if v, s, ok := r.bitOf(t); ok {
		return r.hasBit(v, s)
	}
	var buf [64]byte
	return r.inKeyed(appendKey(buf[:0], t))
}

// inKeyed reports whether rows or a shard set holds the tuple keyed k. The
// string conversions sit inside the map index expressions, which the
// compiler optimizes to zero-copy lookups.
func (r *Relation) inKeyed(k []byte) bool {
	if r.inRows(k) {
		return true
	}
	for _, s := range r.sets {
		if _, ok := s[string(k)]; ok {
			return true
		}
	}
	return false
}

// inRows reports whether rows alone holds the tuple keyed k.
func (r *Relation) inRows(k []byte) bool {
	if len(r.rows) == 0 {
		return false
	}
	_, ok := r.rows[string(k)]
	return ok
}

// keyRecords makes an empty relation of arity 2 record-keyed over vertex
// ids in [0, n). A relation already holding tuples stays keyed by string.
func (r *Relation) keyRecords(n int) {
	if r.arity == 2 && r.bits == nil && r.Len() == 0 {
		r.bits = &recordBits{n: n}
	}
}

// bitOf returns the bit of t in a record-keyed relation (r may be nil), or
// false when r is not record-keyed or t has no bit.
func (r *Relation) bitOf(t Tuple) (v, s int, ok bool) {
	if r == nil || r.bits == nil || len(t) != 2 {
		return 0, 0, false
	}
	return r.bits.slot(t[0], t[1])
}

// hasBit reports whether bit (v, s) is set in bits or any shard's bitset:
// the main shard's membership probe.
func (r *Relation) hasBit(v, s int) bool {
	if r.bits.has(v, s) {
		return true
	}
	for _, b := range r.bitSets {
		if b.has(v, s) {
			return true
		}
	}
	return false
}

// maxRecordSuperstep bounds the supersteps a record-keyed relation keeps in
// bits; a tuple at a later one is keyed by string. It bounds what a corrupt
// checkpoint can make LoadState allocate.
const maxRecordSuperstep = 1 << 16

// recordBits is the membership of a record-keyed relation's (vertex,
// superstep) tuples: per superstep, a bitset over vertex ids. The supersteps
// and each superstep's words grow (by doubling, see grow) to the highest one
// set, and never shrink.
type recordBits struct {
	n  int        // vertex ids in [0, n) have a bit
	ss [][]uint64 // by superstep
}

// slot returns the bit of the pair (x, y): x a vertex id in [0, n) and y a
// superstep below maxRecordSuperstep, each an Int or an integral Float (3.0
// is 3, -0.0 is 0, as appendNorm encodes them). Any other pair has no bit.
func (b *recordBits) slot(x, y value.Value) (v, s int, ok bool) {
	if v, ok = natural(x, b.n); !ok {
		return 0, 0, false
	}
	s, ok = natural(y, maxRecordSuperstep)
	return v, s, ok
}

// natural returns x as an int when it is an integral number in [0, bound).
func natural(x value.Value, bound int) (int, bool) {
	switch x.Kind() {
	case value.Int:
		if i := x.Int(); i >= 0 && i < int64(bound) {
			return int(i), true
		}
	case value.Float:
		if f := x.Float(); f >= 0 && f < float64(bound) && f == math.Trunc(f) {
			return int(f), true
		}
	}
	return 0, false
}

// has reports whether bit (v, s) is set; a nil bitset has none.
func (b *recordBits) has(v, s int) bool {
	if b == nil || s >= len(b.ss) {
		return false
	}
	w := b.ss[s]
	return v>>6 < len(w) && w[v>>6]&(1<<(v&63)) != 0
}

func (b *recordBits) set(v, s int) {
	b.ss = grow(b.ss, s+1, maxRecordSuperstep)
	b.ss[s] = grow(b.ss[s], v>>6+1, (b.n+63)>>6)
	b.ss[s][v>>6] |= 1 << (v & 63)
}

// grow returns s extended with zeros to at least n elements: to twice its
// length, at most limit (n is no more), so growing one element at a time
// costs amortized constant time.
func grow[E any](s []E, n, limit int) []E {
	if n <= len(s) {
		return s
	}
	out := make([]E, min(max(n, 2*len(s)), limit))
	copy(out, s)
	return out
}

func (b *recordBits) unset(v, s int) {
	if s < len(b.ss) && v>>6 < len(b.ss[s]) {
		b.ss[s][v>>6] &^= 1 << (v & 63)
	}
}

// reset clears every bit, keeping the words.
func (b *recordBits) reset() {
	for _, w := range b.ss {
		clear(w)
	}
}

// memSize is the bitset's footprint in bytes: a slice header per superstep
// and the words.
func (b *recordBits) memSize() int64 {
	s := int64(24 * cap(b.ss))
	for _, w := range b.ss {
		s += int64(8 * cap(w))
	}
	return s
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
		idx = &index{cols: append([]int(nil), cols...), m: make(map[string][]Tuple, len(r.order))}
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
	if r.bits != nil {
		s += r.bits.memSize()
		for _, b := range r.bitSets {
			s += b.memSize()
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
