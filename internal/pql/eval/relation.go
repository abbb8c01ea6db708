// Package eval implements PQL query evaluation: relations with hash
// indexes, semi-naive stratified Datalog with negation and aggregation over
// slot programs, and the compiled per-record strata online evaluation runs.
// The paper's three evaluation drivers — Naive (§6.2 "Naive"), Layered
// (§5.1) and Online (§5.2) — live in internal/driver and call into it.
package eval

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"ariadne/internal/value"
)

// Tuple is one relational row.
type Tuple []value.Value

// Key returns a canonical byte-string identity for the tuple: two tuples
// have one key exactly when relations hold them as one member (see
// appendNorm for how numbers encode).
func (t Tuple) Key() string {
	var b []byte
	for _, v := range t {
		b = appendNorm(b, v)
	}
	return string(b)
}

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

// Relation is a set of same-arity tuples in insertion order (order), with
// lazily built hash indexes on column subsets.
//
// Its membership is one tupleSet over order's positions (set), which keys
// order[:keyed]. Insert keeps it keyed as it appends; the barrier's merge
// appends the partition shards' tuples to order alone, and the next probe
// keys them (keyAll). An index chains order's positions the same way, up to
// the tuples present when it is looked up.
//
// A record-keyed relation (Compile keys a head whose every rule derives
// exactly (anchor, current superstep)) holds its members that are such
// pairs in bits instead, one bit per (vertex, superstep), and the partition
// shards' in bitSets; only its other tuples are in set.
//
// A record-scoped relation (Compile scopes a head no rule reads whose every
// rule is an in-partition record rule deriving the record's vertex and
// superstep at fixed columns) notes the supersteps its tuples hold at
// column ssCol: a partition shard probes it only for a record at one of
// them (holds), as a tuple of any other superstep can equal only the
// shard's own.
//
// Concurrency contract: readers (Lookup, Contains, All, MemSize and the
// partition shards' probes) may run together, and mutations (Insert,
// Delete, Clear, the merge) only while no reader runs. The set and the
// indexes: a reader keys or chains what was appended since under mu, once
// between readers, and then probes without a lock. The bits: a partition
// shard writes only its own bitset, as partitions share words (a partition
// is vertex mod P), and reads bits and its own; the main shard reads all.
type Relation struct {
	arity   int
	order   []Tuple // insertion order, for deterministic iteration
	appends int     // tuples appended to order since it was last emptied

	mu      sync.Mutex // serializes the readers' keyAll and index chaining
	set     tupleSet   // keys order[:keyed] but the tuples with a bit
	keyed   atomic.Int64
	indexes []*index

	bits    *recordBits   // nil unless record-keyed
	bitSets []*recordBits // the partition shards' bits of a record-keyed relation

	scoped     bool           // record-scoped
	ssCol      int            // a record-scoped relation's superstep column
	supersteps map[int64]bool // the supersteps at ssCol
	lastSS     int64          // the superstep noted last, or -1
}

// NewRelation creates an empty relation of the given arity.
func NewRelation(arity int) *Relation {
	return &Relation{arity: arity}
}

// Arity returns the column count.
func (r *Relation) Arity() int { return r.arity }

// Len returns the tuple count.
func (r *Relation) Len() int { return len(r.order) }

// Insert adds t, reporting whether it was new. The tuple is retained.
func (r *Relation) Insert(t Tuple) bool {
	_, ok := r.insert(t, false)
	return ok
}

// insertCopy inserts a copy of t unless an equal tuple is present, and
// returns the stored copy. A duplicate allocates nothing: only a new tuple
// is cloned. t itself is never retained, which is what lets the slot
// programs emit one reused head buffer.
func (r *Relation) insertCopy(t Tuple) (Tuple, bool) {
	return r.insert(t, true)
}

// insert adds t, or a copy of it when clone is set, unless an equal tuple is
// present, and returns what it stored.
func (r *Relation) insert(t Tuple, clone bool) (Tuple, bool) {
	if len(t) != r.arity {
		panic(fmt.Sprintf("eval: inserting arity-%d tuple into arity-%d relation", len(t), r.arity))
	}
	if v, s, ok := r.bitOf(t); ok {
		if r.hasBit(v, s) {
			return nil, false
		}
		r.bits.set(v, s)
		if clone {
			t = t.Clone()
		}
		r.appendNew(t)
		return t, true
	}
	h := hashTuple(t)
	if r.has(t, h) {
		return nil, false
	}
	if clone {
		t = t.Clone()
	}
	r.appendKeyed(t, h)
	return t, true
}

// appendNew appends a tuple known to be new to order, unkeyed. Like every
// mutation it runs while no reader does, so it takes no lock.
func (r *Relation) appendNew(t Tuple) {
	r.order = append(r.order, t)
	r.appends++
	if r.scoped {
		// Consecutive tuples mostly share a superstep: the map is skipped then.
		if ss, ok := vertexID(t[r.ssCol]); ok && ss != r.lastSS {
			r.supersteps[ss], r.lastSS = true, ss
		}
	}
}

// appendKeyed appends t, whose hash is h, and keys it: a tuple known to be
// new, probed for by has, which keyed the rest of order.
func (r *Relation) appendKeyed(t Tuple, h uint64) {
	r.appendNew(t)
	r.set.add(h, len(r.order)-1)
	r.keyed.Store(int64(len(r.order)))
}

// Delete removes the members among ts and returns how many it removed, in
// one pass over order: the set and the indexes are keyed afresh once, by the
// next probe and lookup, however many tuples go. Deletion is used only by
// aggregate-group replacement, whose heads have no partition shards.
func (r *Relation) Delete(ts ...Tuple) int {
	var drop []int // positions in order
	for _, t := range ts {
		if v, s, ok := r.bitOf(t); ok {
			if r.bits.has(v, s) {
				r.bits.unset(v, s)
				drop = append(drop, slices.IndexFunc(r.order, func(u Tuple) bool { return sameTuple(u, t) }))
			}
		} else if sl := r.find(t, hashTuple(t)); sl != nil {
			drop = append(drop, int(sl.pos)-1)
		}
	}
	if len(drop) == 0 {
		return 0
	}
	slices.Sort(drop)
	drop = slices.Compact(drop)
	kept := drop[0]
	for i, next := drop[0], 0; i < len(r.order); i++ {
		if next < len(drop) && drop[next] == i {
			next++
			continue
		}
		r.order[kept] = r.order[i]
		kept++
	}
	clear(r.order[kept:])
	r.order = r.order[:kept]
	r.unkey()
	return len(drop)
}

// Contains reports membership.
func (r *Relation) Contains(t Tuple) bool {
	if v, s, ok := r.bitOf(t); ok {
		return r.hasBit(v, s)
	}
	return r.has(t, hashTuple(t))
}

// has reports whether the set holds t, whose hash is h.
func (r *Relation) has(t Tuple, h uint64) bool { return r.find(t, h) != nil }

// find returns the set's slot of t, whose hash is h, or nil, keying order
// first.
func (r *Relation) find(t Tuple, h uint64) *tslot {
	if r.keyed.Load() != int64(len(r.order)) {
		r.keyAll()
	}
	return r.set.find(r.order, nil, t, h)
}

// position returns the position in order of the member equal to t, first
// appending a copy of t when there is none (added). Positions hold while
// nothing is deleted: an aggregate's group table, which never deletes,
// indexes its groups' states by them. r must not be record-keyed.
func (r *Relation) position(t Tuple) (i int, added bool) {
	h := hashTuple(t)
	if sl := r.find(t, h); sl != nil {
		return int(sl.pos) - 1, false
	}
	r.appendKeyed(t.Clone(), h)
	return len(r.order) - 1, true
}

// keyAll keys the tuples appended to order unkeyed (the merge's), but those
// with a bit. It runs under mu, so readers probing at once key them once
// between them.
func (r *Relation) keyAll() {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := int(r.keyed.Load())
	for i, t := range r.order[n:] {
		if _, _, ok := r.bitOf(t); !ok {
			r.set.add(hashTuple(t), n+i)
		}
	}
	r.keyed.Store(int64(len(r.order)))
}

// unkey empties the set and every index, for the next probe and lookup to
// key and chain order afresh.
func (r *Relation) unkey() {
	r.set.reset()
	r.keyed.Store(0)
	for _, idx := range r.indexes {
		idx.keys.reset()
		idx.next = idx.next[:0]
	}
}

// scopeRecords makes an empty relation record-scoped, its tuples' superstep
// at column col.
func (r *Relation) scopeRecords(col int) {
	if !r.scoped && r.bits == nil && r.Len() == 0 {
		r.scoped, r.ssCol, r.supersteps, r.lastSS = true, col, map[int64]bool{}, -1
	}
}

// holds reports whether a record-scoped relation holds a tuple at the
// superstep of some record of recs: only then can a record's tuple equal
// one derived before (the superstep was merged already, and is observed
// again). A superstep at most the highest held is not enough, as backward
// layered passes descend.
func (r *Relation) holds(recs []RecordView) bool {
	if len(r.supersteps) == 0 {
		return false
	}
	for i := range recs {
		if ss := recs[i].Superstep; (i == 0 || ss != recs[i-1].Superstep) && r.supersteps[ss] {
			return true
		}
	}
	return false
}

// tupleSet is a set of tuples held in a list elsewhere (a relation's order),
// keyed by position under a fixed-width hash (hashTuple): an open-addressing
// table whose slots hold a hash and a position plus one (zero: empty). Two
// tuples are one member when appendNorm encodes them alike; a hash match is
// confirmed so. An index keys its projections alike, each slot the head of
// a chain whose last position it keeps too. Emptying it keeps its slots, so
// a set refilled every superstep grows only to the largest.
type tupleSet struct {
	slots []tslot
	n     int
}

type tslot struct {
	h         uint64
	pos, last int32
}

// find returns the slot of the member whose values at cols (nil: all of
// them) equal key, whose hash is h, or nil.
func (s *tupleSet) find(list []Tuple, cols []int, key []value.Value, h uint64) *tslot {
	if s.n == 0 {
		return nil
	}
	mask := uint64(len(s.slots) - 1)
	for j := h & mask; s.slots[j].pos != 0; j = (j + 1) & mask {
		if sl := &s.slots[j]; sl.h == h && sameOn(list[sl.pos-1], cols, key) {
			return sl
		}
	}
	return nil
}

// add keys position i, whose tuple's hash is h and which the set does not
// hold, and returns its slot.
func (s *tupleSet) add(h uint64, i int) *tslot {
	s.reserve(s.n + 1)
	mask := uint64(len(s.slots) - 1)
	j := h & mask
	for s.slots[j].pos != 0 {
		j = (j + 1) & mask
	}
	s.slots[j] = tslot{h: h, pos: int32(i + 1), last: int32(i + 1)}
	s.n++
	return &s.slots[j]
}

// reserve grows the table, rehashing, to hold n members at most half full.
func (s *tupleSet) reserve(n int) {
	if 2*n <= len(s.slots) {
		return
	}
	size := 16
	for size < 2*n {
		size <<= 1
	}
	old := s.slots
	s.slots = make([]tslot, size)
	mask := uint64(size - 1)
	for _, sl := range old {
		if sl.pos == 0 {
			continue
		}
		j := sl.h & mask
		for s.slots[j].pos != 0 {
			j = (j + 1) & mask
		}
		s.slots[j] = sl
	}
}

// reset empties the set, keeping its slots.
func (s *tupleSet) reset() {
	if s.n > 0 {
		clear(s.slots)
		s.n = 0
	}
}

// hashTuple combines the columns' value.Hash, which hashes alike what
// appendNorm encodes alike.
func hashTuple(t []value.Value) uint64 {
	h := uint64(len(t))
	for _, v := range t {
		h = (h^v.Hash())*0x9e3779b97f4a7c15 + 1
	}
	return h
}

// sameTuple reports whether appendNorm encodes a and b alike.
func sameTuple(a, b []value.Value) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !sameValue(a[i], b[i]) {
			return false
		}
	}
	return true
}

// sameOn reports whether t's values at cols (nil: all of them) and key
// encode alike.
func sameOn(t Tuple, cols []int, key []value.Value) bool {
	if cols == nil {
		return sameTuple(t, key)
	}
	for i, c := range cols {
		if !sameValue(t[c], key[i]) {
			return false
		}
	}
	return true
}

// sameValue reports whether appendNorm encodes a and b alike: two Ints
// when they are one integer.
func sameValue(a, b value.Value) bool {
	if a.Kind() == value.Int && b.Kind() == value.Int {
		return a.Int() == b.Int()
	}
	var x, y [64]byte
	return string(appendNorm(x[:0], a)) == string(appendNorm(y[:0], b))
}

// keyRecords makes an empty relation of arity 2 record-keyed over vertex
// ids in [0, n). A relation already holding tuples keeps them in its set.
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
// bits; a tuple at a later one is in the set. It bounds what a corrupt
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

// index is a hash index on a column subset: a chain through order's
// positions, in insertion order, per distinct projection on cols. keys
// holds each chain's first and last position (a tslot's pos and last),
// next[i] the position after i on i's chain plus one (zero: none), and
// len(next) is how many positions are chained.
type index struct {
	cols []int
	keys tupleSet
	next []int32
	proj []value.Value // chain's scratch
}

// Lookup returns the tuples whose values at cols equal key, in insertion
// order, building (and thereafter extending) a hash index on cols. Safe for
// concurrent use by multiple readers.
func (r *Relation) Lookup(cols []int, key []value.Value) []Tuple {
	if len(cols) == 0 {
		return r.order
	}
	var out []Tuple
	c := r.lookup(cols, key)
	for t, ok := c.pop(); ok; t, ok = c.pop() {
		out = append(out, t)
	}
	return out
}

// lookup returns the chain of the tuples whose values at cols equal key,
// among those present now: a tuple inserted while it is walked is not on
// it.
func (r *Relation) lookup(cols []int, key []value.Value) cands {
	r.mu.Lock()
	defer r.mu.Unlock()
	i := slices.IndexFunc(r.indexes, func(idx *index) bool { return slices.Equal(idx.cols, cols) })
	if i < 0 {
		i = len(r.indexes)
		r.indexes = append(r.indexes, &index{cols: slices.Clone(cols)})
	}
	idx := r.indexes[i]
	idx.chain(r.order)
	c := cands{list: r.order, next: idx.next}
	if sl := idx.keys.find(r.order, cols, key, hashTuple(key)); sl != nil {
		c.at = sl.pos
	}
	return c
}

// chain adds order's positions from len(next) on to their chains.
func (idx *index) chain(order []Tuple) {
	for i := len(idx.next); i < len(order); i++ {
		idx.proj = idx.proj[:0]
		for _, c := range idx.cols {
			idx.proj = append(idx.proj, order[i][c])
		}
		h := hashTuple(idx.proj)
		idx.next = append(idx.next, 0)
		if sl := idx.keys.find(order, idx.cols, idx.proj, h); sl != nil {
			idx.next[sl.last-1], sl.last = int32(i+1), int32(i+1)
		} else {
			idx.keys.add(h, i)
		}
	}
}

// cands walks what one relation step reads: list in order, or, when next is
// set, the chain through list from position at-1 (zero: none). A position
// past list ends the walk.
type cands struct {
	list []Tuple
	next []int32
	at   int32
}

// all walks the whole of list.
func all(list []Tuple) cands { return cands{list: list, at: 1} }

// pop returns the next tuple, or false at the end.
func (c *cands) pop() (Tuple, bool) {
	if c.at == 0 || int(c.at) > len(c.list) {
		return nil, false
	}
	t := c.list[c.at-1]
	if c.next == nil {
		c.at++
	} else {
		c.at = c.next[c.at-1]
	}
	return t, true
}

// Per-entry sizes for MemSize: a tuple costs its values plus a slice
// header, a set or index key slot (tslot) 16 bytes, a chain link 4, and an
// index its struct and column slice.
const (
	memTupleOverhead = 24
	memSlot          = 16
	memLink          = 4
	memIndexOverhead = 48
)

// MemSize estimates the relation's footprint in bytes: tuple storage, the
// set's slots, the bitsets, and every index built so far. Indexes share
// tuple storage with order, but their key slots and chain links are real
// memory the naive-mode budget must account for.
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
	s += memSlot * int64(len(r.set.slots))
	for _, idx := range r.indexes {
		s += memIndexOverhead + memSlot*int64(len(idx.keys.slots)) + memLink*int64(cap(idx.next))
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
