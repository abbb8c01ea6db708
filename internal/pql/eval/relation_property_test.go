package eval

import (
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"testing/quick"

	"ariadne/internal/value"
)

// TestRelationIndexConsistency drives a relation with interleaved inserts,
// deletes, and lookups over random column subsets and checks every lookup
// against a naive reference set.
func TestRelationIndexConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		rel := NewRelation(3)
		ref := map[string]Tuple{}
		mk := func() Tuple {
			return Tuple{
				value.NewInt(int64(r.Intn(5))),
				value.NewInt(int64(r.Intn(5))),
				value.NewInt(int64(r.Intn(5))),
			}
		}
		for step := 0; step < 200; step++ {
			switch r.Intn(4) {
			case 0, 1: // insert
				tup := mk()
				_, existed := ref[tup.Key()]
				if rel.Insert(tup) == existed {
					return false
				}
				ref[tup.Key()] = tup
			case 2: // delete
				tup := mk()
				_, existed := ref[tup.Key()]
				if (rel.Delete(tup) == 1) != existed {
					return false
				}
				delete(ref, tup.Key())
			default: // lookup on a random column subset
				var cols []int
				var key []value.Value
				probe := mk()
				for c := 0; c < 3; c++ {
					if r.Intn(2) == 0 {
						cols = append(cols, c)
						key = append(key, probe[c])
					}
				}
				got := rel.Lookup(cols, key)
				want := 0
				for _, tup := range ref {
					match := true
					for i, c := range cols {
						if !tup[c].Equal(key[i]) {
							match = false
							break
						}
					}
					if match {
						want++
					}
				}
				// The index returns the matches in insertion order.
				inOrder := &refRel{order: rel.All()}
				if len(got) != want || !sameKeys(got, inOrder.lookup(cols, key)) {
					return false
				}
			}
			if rel.Len() != len(ref) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30, Rand: rng}); err != nil {
		t.Error(err)
	}
}

// refRel is the string-keyed reference the relation properties compare
// against: a tuple is its canonical key (Tuple.Key), a member is found in a
// map and a lookup scans order.
type refRel struct {
	keys  map[string]bool
	order []Tuple
}

func newRefRel() *refRel { return &refRel{keys: map[string]bool{}} }

func (r *refRel) insert(t Tuple) bool {
	k := t.Key()
	if r.keys[k] {
		return false
	}
	r.keys[k] = true
	r.order = append(r.order, t)
	return true
}

func (r *refRel) delete(t Tuple) bool {
	k := t.Key()
	if !r.keys[k] {
		return false
	}
	delete(r.keys, k)
	r.order = slices.DeleteFunc(r.order, func(u Tuple) bool { return u.Key() == k })
	return true
}

func (r *refRel) clear() {
	clear(r.keys)
	r.order = nil
}

func (r *refRel) lookup(cols []int, key []value.Value) []Tuple {
	var out []Tuple
	for _, t := range r.order {
		proj := make(Tuple, len(cols))
		for i, c := range cols {
			proj[i] = t[c]
		}
		if proj.Key() == Tuple(key).Key() {
			out = append(out, t)
		}
	}
	return out
}

// readsAs reports whether rel answers every read as ref: its tuples in
// order, sorted, and Contains and Lookup on every column subset of an arity-2
// relation for each probe.
func readsAs(rel *Relation, ref *refRel, probes []Tuple) bool {
	if rel.Len() != len(ref.order) || !sameKeys(rel.All(), ref.order) {
		return false
	}
	sorted := NewRelation(rel.Arity())
	for _, t := range ref.order {
		sorted.order = append(sorted.order, t)
	}
	if !sameKeys(rel.Sorted(), sorted.Sorted()) {
		return false
	}
	for _, p := range probes {
		if rel.Contains(p) != ref.keys[p.Key()] {
			return false
		}
		for _, cols := range [][]int{{0}, {1}, {0, 1}} {
			key := make([]value.Value, len(cols))
			for i, c := range cols {
				key[i] = p[c]
			}
			if !sameKeys(rel.Lookup(cols, key), ref.lookup(cols, key)) {
				return false
			}
		}
	}
	return true
}

// identityPool holds values whose tuple identity is subtle: 3 and 3.0 are
// one, 0, 0.0 and -0.0 one, 1<<53 as Int and as Float one but 1<<53+1 as Int
// another, strings, and NaN, one with itself (appendNorm encodes its bits).
var identityPool = []value.Value{
	value.NewInt(3), value.NewFloat(3), value.NewInt(0), value.NewFloat(0),
	value.NewFloat(math.Copysign(0, -1)), value.NewInt(1 << 53), value.NewFloat(1 << 53),
	value.NewInt(1<<53 + 1), value.NewString("a"), value.NewString("b"),
	value.NewFloat(math.NaN()), value.NewFloat(2.5),
}

// TestShardSetsReadAsRows drives a relation the way online evaluation does,
// over the values of identityPool, and compares every read with the
// string-keyed reference. The main shard Inserts (the public Insert or a
// slot program's insertCopy) and Deletes; three partition shards observe a
// superstep on their goroutines, each keeping the tuples new to it and to
// the relation in its overlay (a tuple's shard is its first column's hash
// mod 3, its anchor), and the barrier's merge appends each shard's tuples to
// order alone or drops them, to be derived again at a later observation. A
// lookup is walked while the relation grows, seeing the tuples present when
// it began. Clear and a SaveState/LoadState round trip, into a new database
// and in place, keep every read as the reference's.
func TestShardSetsReadAsRows(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		rel, ref := NewRelation(2), newRefRel()
		var ovls [3]*Relation
		for p := range ovls {
			ovls[p] = NewRelation(2)
		}
		mk := func() Tuple {
			return Tuple{identityPool[r.Intn(len(identityPool))], identityPool[r.Intn(6)]}
		}
		probes := func() []Tuple {
			out := make([]Tuple, 6)
			for i := range out {
				out[i] = mk()
			}
			return out
		}
		for step := 0; step < 60; step++ {
			switch op := r.Intn(12); {
			case op < 3: // the main shard: a slot program's sink or the public Insert
				tu := mk()
				var ok bool
				if r.Intn(2) == 0 {
					var c Tuple
					c, ok = rel.insertCopy(tu)
					ok = ok && &c[0] != &tu[0]
				} else {
					ok = rel.Insert(tu)
				}
				if ok != ref.insert(tu) {
					return false
				}
			case op < 4: // an aggregate's replacement: a batch, repeats allowed
				batch, gone := probes()[:1+r.Intn(4)], 0
				for _, tu := range batch {
					if ref.delete(tu) {
						gone++
					}
				}
				if rel.Delete(batch...) != gone {
					return false
				}
			case op < 7: // the shards observe a superstep, then the barrier merges
				var drawn [3][]Tuple
				for range r.Intn(10) {
					tu := mk()
					p := tu[0].Hash() % 3
					drawn[p] = append(drawn[p], tu)
				}
				var wg sync.WaitGroup
				for p, o := range ovls {
					wg.Add(1)
					go func() {
						defer wg.Done()
						o.truncate()
						for _, tu := range drawn[p] {
							if h := hashTuple(tu); !o.has(tu, h) && !rel.has(tu, h) {
								o.appendKeyed(tu, h)
							}
						}
					}()
				}
				wg.Wait()
				for _, o := range ovls {
					if r.Intn(4) == 0 {
						continue // shed or aborted: the next observation empties it
					}
					for _, tu := range o.All() {
						rel.appendNew(tu)
						if !ref.insert(tu) {
							return false
						}
					}
				}
			case op < 9: // a lookup walked while the relation grows
				p := mk()
				cols := [][]int{{0}, {1}, {0, 1}}[r.Intn(3)]
				key := make([]value.Value, len(cols))
				for i, c := range cols {
					key[i] = p[c]
				}
				want := ref.lookup(cols, key)
				c := rel.lookup(cols, key)
				var got []Tuple
				for tu, ok := c.pop(); ok; tu, ok = c.pop() {
					got = append(got, tu)
					grown := p.Clone()
					grown[1] = identityPool[r.Intn(len(identityPool))]
					if rel.Insert(grown) != ref.insert(grown) {
						return false
					}
					rel.Lookup(cols, key) // chains the new tuple onto the walked chain
				}
				if !sameKeys(got, want) {
					return false
				}
			case op < 10:
				rel.Clear()
				ref.clear()
			case op < 11: // a checkpoint restored into a new database and in place
				db := NewDatabase()
				db.rels["r"] = rel
				w := value.NewBlob()
				db.SaveState(w)
				for _, into := range []*Database{NewDatabase(), db} {
					if err := into.LoadState(value.NewBlobReader(w.Bytes())); err != nil {
						return false
					}
					if !readsAs(into.Get("r"), ref, probes()) {
						return false
					}
				}
			default:
				if !readsAs(rel, ref, probes()) {
					return false
				}
			}
		}
		return readsAs(rel, ref, probes())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50, Rand: rng}); err != nil {
		t.Error(err)
	}
}

// TestTupleSetDecidesByEquality keys tuples under one constant hash, so
// every probe meets every member and equality alone decides: a tuple and
// its twin (3 and 3.0, -0.0 and 0) are one member, 1<<53+1 and 1<<53 two,
// NaN one with itself. An index's projection on column 1 is decided alike,
// and sameValue agrees with the canonical key on numericPool's values.
func TestTupleSetDecidesByEquality(t *testing.T) {
	pool := append(numericPool(rand.New(rand.NewSource(3)), 24), identityPool...)
	for _, a := range pool {
		for _, b := range pool {
			if same := (Tuple{a}).Key() == (Tuple{b}).Key(); sameValue(a, b) != same {
				t.Fatalf("%v (%v) vs %v (%v): sameValue %v, keys equal %v", a, a.Kind(), b, b.Kind(), !same, same)
			}
		}
	}
	const h = 42
	var list []Tuple
	var set, byCol tupleSet
	ref, refCol := newRefRel(), newRefRel()
	for _, a := range identityPool {
		for _, b := range identityPool[:4] {
			tu := Tuple{b, a}
			if set.find(list, nil, tu, h) == nil {
				list = append(list, tu)
				set.add(h, len(list)-1)
				if !ref.insert(tu) {
					t.Fatalf("%v keyed as new, but the reference holds it", tu)
				}
				if byCol.find(list, []int{1}, tu[1:], h) == nil {
					byCol.add(h, len(list)-1)
					if !refCol.insert(tu[1:]) {
						t.Fatalf("column 1 of %v keyed as new, but the reference holds it", tu)
					}
				}
			}
		}
	}
	if set.n != len(ref.order) || byCol.n != len(refCol.order) {
		t.Fatalf("%d members, %d projections; reference %d, %d", set.n, byCol.n, len(ref.order), len(refCol.order))
	}
	for _, a := range identityPool {
		for _, b := range identityPool {
			tu := Tuple{b, a}
			if got, want := set.find(list, nil, tu, h) != nil, ref.keys[tu.Key()]; got != want {
				t.Errorf("%v: member %v, reference %v", tu, got, want)
			}
			if got, want := byCol.find(list, []int{1}, tu[1:], h) != nil, refCol.keys[tu[1:].Key()]; got != want {
				t.Errorf("column 1 = %v: keyed %v, reference %v", a, got, want)
			}
		}
	}
}

// sameKeys reports whether a and b hold equal tuples in the same order.
func sameKeys(a, b []Tuple) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Key() != b[i].Key() {
			return false
		}
	}
	return true
}

// TestSortedIsTotalOrder verifies Sorted's comparator sanity on mixed kinds.
func TestSortedIsTotalOrder(t *testing.T) {
	rel := NewRelation(2)
	rel.Insert(Tuple{value.NewString("b"), value.NewInt(1)})
	rel.Insert(Tuple{value.NewInt(5), value.NewFloat(2)})
	rel.Insert(Tuple{value.NewString("a"), value.NewInt(9)})
	rel.Insert(Tuple{value.NewInt(5), value.NewFloat(1)})
	s := rel.Sorted()
	for i := 1; i < len(s); i++ {
		prev, cur := s[i-1], s[i]
		less := false
		for k := 0; k < 2; k++ {
			if c := prev[k].Compare(cur[k]); c != 0 {
				less = c < 0
				break
			}
		}
		if !less {
			t.Fatalf("sorted order violated at %d: %v !< %v", i, prev, cur)
		}
	}
}

// TestTupleIdentityFollowsEqual pins the canonical key to value.Equal at
// the two places a float-only encoding broke it: Ints beyond 2^53 that no
// float64 represents stay distinct tuples, and 0 and -0.0, which Equal
// calls equal, are one tuple.
func TestTupleIdentityFollowsEqual(t *testing.T) {
	const big = int64(1) << 53
	for _, c := range []struct {
		a, b value.Value
		same bool
	}{
		{value.NewInt(big), value.NewInt(big + 1), false},
		{value.NewInt(-big - 1), value.NewInt(-big), false},
		{value.NewInt(math.MaxInt64), value.NewInt(math.MaxInt64 - 1), false},
		{value.NewInt(0), value.NewFloat(math.Copysign(0, -1)), true},
		{value.NewInt(3), value.NewFloat(3), true},
		{value.NewInt(big), value.NewFloat(float64(big)), true},
	} {
		if c.a.Equal(c.b) != c.same {
			t.Fatalf("%v vs %v: Equal = %v, test expects %v", c.a, c.b, !c.same, c.same)
		}
		rel := NewRelation(2)
		rel.Insert(Tuple{c.a, value.NewString("x")})
		rel.Insert(Tuple{c.b, value.NewString("x")})
		if want := map[bool]int{true: 1, false: 2}[c.same]; rel.Len() != want {
			t.Errorf("(%v, x) and (%v, x): %d tuples, want %d", c.a, c.b, rel.Len(), want)
		}
		// Index lookups use the same encoding.
		if got := rel.Lookup([]int{0}, []value.Value{c.b}); len(got) != 1 {
			t.Errorf("lookup %v: %d tuples, want 1", c.b, len(got))
		}
	}
}

// numericPool draws Ints and Floats around the places numeric identity is
// subtle — small integers, ±0, the 2^53 edge of exact float64 integers, the
// int64 limits, fractions, infinities and NaN — and closes the pool under
// the Int/Float twins Equal relates (and, for an Int no float64 holds
// exactly, the neighbors rounding to the same float), so every pair whose
// equality depends on a third value meets that value.
func numericPool(r *rand.Rand, n int) []value.Value {
	const big = int64(1) << 53
	var pool []value.Value
	for i := 0; i < n; i++ {
		switch r.Intn(8) {
		case 0:
			pool = append(pool, value.NewInt(int64(r.Intn(7)-3)))
		case 1:
			pool = append(pool, value.NewFloat(float64(r.Intn(7)-3)))
		case 2:
			pool = append(pool, value.NewFloat(math.Copysign(0, float64(r.Intn(2)*2-1))))
		case 3:
			pool = append(pool, value.NewInt((big+int64(r.Intn(9)-4))*int64(r.Intn(2)*2-1)))
		case 4:
			pool = append(pool, value.NewInt([]int64{math.MaxInt64, math.MaxInt64 - 1, math.MinInt64, math.MinInt64 + 1}[r.Intn(4)]))
		case 5:
			pool = append(pool, value.NewFloat(float64(r.Intn(9)-4)/4))
		case 6:
			pool = append(pool, value.NewFloat([]float64{math.Inf(1), math.Inf(-1), math.NaN(), 0x1p63, -0x1p63}[r.Intn(5)]))
		default:
			pool = append(pool, value.NewFloat(float64(big+int64(r.Intn(9)-4))))
		}
	}
	for round := 0; round < 2; round++ {
		for _, v := range pool {
			switch v.Kind() {
			case value.Int:
				i := v.Int()
				pool = append(pool, value.NewFloat(float64(i)))
				if float64(i) >= 0x1p63 || int64(float64(i)) != i {
					// An inexact Int shares its float with a neighbor.
					if i > math.MinInt64 {
						pool = append(pool, value.NewInt(i-1))
					}
					if i < math.MaxInt64 {
						pool = append(pool, value.NewInt(i+1))
					}
				}
			case value.Float:
				if f := v.Float(); f == math.Trunc(f) && f >= -0x1p63 && f < 0x1p63 {
					pool = append(pool, value.NewInt(int64(f)))
				}
			}
		}
	}
	return pool
}

// TestTupleKeyAgreesWithEqual is the property behind the canonical
// encoding: over generated Int/Float values, two one-column tuples share a
// key exactly when their values are Equal — for every pair on which Equal
// is transitive across the pool (Int(0) = -0.0 = Int(0) = 0.0 while
// 0.0 != -0.0 bitwise, say, is no identity any encoding could follow).
func TestTupleKeyAgreesWithEqual(t *testing.T) {
	checked := 0
	for seed := int64(1); seed <= 20; seed++ {
		pool := numericPool(rand.New(rand.NewSource(seed)), 24)
		for _, a := range pool {
			for _, b := range pool {
				eq := a.Equal(b)
				consistent := true
				for _, c := range pool {
					if eq && a.Equal(c) != b.Equal(c) || !eq && a.Equal(c) && c.Equal(b) {
						consistent = false
						break
					}
				}
				if !consistent {
					continue
				}
				checked++
				if same := (Tuple{a}).Key() == (Tuple{b}).Key(); same != eq {
					t.Fatalf("seed %d: %v (%v) vs %v (%v): keys equal %v, Equal %v",
						seed, a, a.Kind(), b, b.Kind(), same, eq)
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("no transitive pairs checked")
	}
}

// TestRelationMemSizePinned pins the MemSize estimate: tuples, the set's
// slots and every built index's key slots and chain links, computed by hand
// from the documented constants.
func TestRelationMemSizePinned(t *testing.T) {
	r := NewRelation(2)
	r.Insert(ints(1, 2))
	r.Insert(ints(1, 3))
	r.Insert(ints(2, 3))
	var tupleBytes int64
	for _, tu := range r.All() {
		tupleBytes += memTupleOverhead
		for _, v := range tu {
			tupleBytes += int64(v.MemSize())
		}
	}
	// Three members take the set's smallest table, 16 slots.
	setBytes := int64(16 * memSlot)
	if got := r.MemSize(); got != tupleBytes+setBytes {
		t.Fatalf("unindexed MemSize = %d, want %d (tuples %d + set %d)", got, tupleBytes+setBytes, tupleBytes, setBytes)
	}

	// An index on column 0: two keys ({1}: 2 tuples, {2}: 1) in 16 slots,
	// and a link per chained tuple, as allocated.
	r.Lookup([]int{0}, []value.Value{value.NewInt(1)})
	next := r.indexes[0].next
	if len(next) != 3 || r.indexes[0].keys.n != 2 {
		t.Fatalf("index chains %d tuples under %d keys, want 3 under 2", len(next), r.indexes[0].keys.n)
	}
	indexBytes := int64(memIndexOverhead) + 16*memSlot + memLink*int64(cap(next))
	if got := r.MemSize(); got != tupleBytes+setBytes+indexBytes {
		t.Fatalf("indexed MemSize = %d, want %d (tuples %d + set %d + index %d)", got, tupleBytes+setBytes+indexBytes, tupleBytes, setBytes, indexBytes)
	}

	// A second index adds its own overhead; inserts keep both maintained.
	r.Lookup([]int{1}, []value.Value{value.NewInt(3)})
	if got, prev := r.MemSize(), tupleBytes+setBytes+indexBytes; got <= prev {
		t.Fatalf("second index did not grow MemSize: %d <= %d", got, prev)
	}

	// A record-keyed relation adds its bitsets: a slice header per superstep
	// up to the highest set (2, so 3) and a word per 64 vertices up to the
	// highest set in each (vertex 65 at superstep 2, so 2 words; vertex 3 at
	// superstep 0, 1 word), as in one shard's bitset. A tuple without a bit
	// (vertex 200 is past the 128 vertices) is the set's one member.
	k := NewRelation(2)
	k.keyRecords(128)
	k.bitSets = append(k.bitSets, &recordBits{n: 128})
	k.bitSets[0].set(0, 0)
	var keyedTuples int64
	for _, tu := range []Tuple{ints(1, 2), ints(65, 2), ints(3, 0), ints(200, 1)} {
		k.Insert(tu)
		keyedTuples += memTupleOverhead
		for _, v := range tu {
			keyedTuples += int64(v.MemSize())
		}
	}
	if want := keyedTuples + 3*24 + 3*8 + (1*24 + 1*8) + 16*memSlot; k.MemSize() != want {
		t.Fatalf("record-keyed MemSize = %d, want %d", k.MemSize(), want)
	}
}

// TestRelationConcurrentLookup: concurrent readers may race on lazy index
// construction; run under -race this verifies the lock discipline.
func TestRelationConcurrentLookup(t *testing.T) {
	r := NewRelation(2)
	for i := 0; i < 500; i++ {
		r.Insert(ints(int64(i%50), int64(i)))
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				k := int64((w*7 + i) % 50)
				if got := r.Lookup([]int{0}, []value.Value{value.NewInt(k)}); len(got) != 10 {
					t.Errorf("lookup %d: %d tuples, want 10", k, len(got))
					return
				}
				if !r.Contains(ints(k, k)) && k >= 50 {
					t.Errorf("unexpected membership for %d", k)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// recordValue draws one column of a record-keyed pair: an Int below bound,
// an integral Float (3.0 is 3), -0.0, a negative Int, a fraction, an Int
// above 2^53, a String, or — the column's bound being the superstep cap — a
// superstep past the cap. Only the first three kinds, drawn half the time,
// have a bit (a vertex past bound has none), so every sequence mixes the
// bits with the string-keyed fallback.
func recordValue(r *rand.Rand, bound int64) value.Value {
	switch r.Intn(12) {
	case 0, 1, 2:
		return value.NewInt(r.Int63n(bound + 2))
	case 3, 4:
		return value.NewFloat(float64(r.Int63n(bound + 2)))
	case 5:
		return value.NewFloat(math.Copysign(0, -1))
	case 6:
		return value.NewInt(-1 - r.Int63n(3))
	case 7:
		return value.NewFloat(float64(r.Intn(9)) + 0.5)
	case 8:
		return value.NewInt(1<<53 + r.Int63n(3))
	case 9, 10:
		return value.NewString([]string{"a", "b"}[r.Intn(2)])
	default:
		return value.NewInt(maxRecordSuperstep + r.Int63n(2))
	}
}

// TestRecordKeyedReadsAsStringKeyed runs one random sequence of Insert,
// insertCopy, Delete, Contains, Lookup, Clear, SaveState → LoadState (in
// place) and shard merges on a record-keyed relation and on the string-keyed
// reference. The two must give the same answer to every call and hold the
// same tuples in the same order, and SaveState must write the bytes it
// writes for a relation that Inserted the reference's tuples. A merge models
// the barrier: three shards keep the tuples new to the relation in their own
// bitsets (or, without a bit, their overlays), and only order takes them.
func TestRecordKeyedReadsAsStringKeyed(t *testing.T) {
	const vertices = 6
	rng := rand.New(rand.NewSource(37))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		rel, ref := NewRelation(2), newRefRel()
		rel.keyRecords(vertices)
		if rel.bits == nil {
			return false
		}
		for range 3 {
			rel.bitSets = append(rel.bitSets, &recordBits{n: vertices})
		}
		db := NewDatabase()
		db.rels["h"] = rel
		// Half the draws repeat an earlier one, so deletes and probes hit.
		var drawn []Tuple
		mk := func() Tuple {
			if len(drawn) > 0 && r.Intn(2) == 0 {
				return drawn[r.Intn(len(drawn))]
			}
			ss := int64(4)
			if r.Intn(4) == 0 {
				ss = maxRecordSuperstep
			}
			tu := Tuple{recordValue(r, vertices), recordValue(r, ss)}
			drawn = append(drawn, tu)
			return tu
		}
		sharded := false // a shard holds a member
		for step := 0; step < 120; step++ {
			tu := mk()
			switch op := r.Intn(20); {
			case op < 4:
				if rel.Insert(tu.Clone()) != ref.insert(tu.Clone()) {
					return false
				}
			case op < 9:
				c, ok := rel.insertCopy(tu)
				if ok != ref.insert(tu) || ok && (c.Key() != tu.Key() || &c[0] == &tu[0]) {
					return false
				}
			case op < 11:
				// Delete is for aggregate heads, which have no shards.
				if !sharded && (rel.Delete(tu) == 1) != ref.delete(tu) {
					return false
				}
			case op < 14:
				if rel.Contains(tu) != ref.keys[tu.Key()] {
					return false
				}
			case op < 17:
				for range r.Intn(4) {
					tu := mk()
					if rel.Contains(tu) {
						continue
					}
					if v, s, ok := rel.bitOf(tu); ok {
						rel.bitSets[r.Intn(3)].set(v, s)
					}
					rel.appendNew(tu)
					sharded = true
					if !ref.insert(tu) {
						return false
					}
				}
			case op < 18:
				cols := [][]int{{0}, {1}, {0, 1}}[r.Intn(3)]
				key := make([]value.Value, len(cols))
				for i, c := range cols {
					key[i] = tu[c]
				}
				if !sameKeys(rel.Lookup(cols, key), ref.lookup(cols, key)) {
					return false
				}
			case op < 19:
				plain := NewDatabase()
				h := plain.Relation("h", 2)
				for _, tu := range ref.order {
					h.Insert(tu)
				}
				var saved [2][]byte
				for i, d := range []*Database{db, plain} {
					w := value.NewBlob()
					d.SaveState(w)
					saved[i] = w.Bytes()
				}
				if string(saved[0]) != string(saved[1]) {
					return false
				}
				if err := db.LoadState(value.NewBlobReader(saved[0])); err != nil {
					return false
				}
				sharded = false
			default:
				rel.Clear()
				ref.clear()
				sharded = false
			}
			if rel.Len() != len(ref.order) || !sameKeys(rel.All(), ref.order) {
				return false
			}
		}
		return rel.bits != nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60, Rand: rng}); err != nil {
		t.Error(err)
	}
}

// TestRecordKeyedLoadStateBounded: a checkpoint naming a superstep past the
// cap (here 2^40) restores that tuple by its string key, so LoadState
// allocates nothing in proportion to the superstep; one just under the cap
// costs at most the cap's slice headers.
func TestRecordKeyedLoadStateBounded(t *testing.T) {
	for _, c := range []struct {
		ss  int64
		max int64 // MemSize bound
	}{
		{1 << 40, 1 << 10},
		{maxRecordSuperstep - 1, 2*24*maxRecordSuperstep + 1<<10},
	} {
		src := NewDatabase()
		src.Relation("h", 2).Insert(ints(3, c.ss))
		w := value.NewBlob()
		src.SaveState(w)
		db := NewDatabase()
		db.Relation("h", 2).keyRecords(8)
		load := func() {
			if err := db.LoadState(value.NewBlobReader(w.Bytes())); err != nil {
				t.Fatal(err)
			}
		}
		if allocs := testing.AllocsPerRun(20, load); c.ss == 1<<40 && allocs > 16 {
			t.Errorf("superstep %d: LoadState allocates %.0f times a run", c.ss, allocs)
		}
		h := db.Get("h")
		if !h.Contains(ints(3, c.ss)) || h.Len() != 1 {
			t.Fatalf("superstep %d: the tuple was not restored", c.ss)
		}
		if got := h.MemSize(); got > c.max {
			t.Errorf("superstep %d: MemSize %d after LoadState, bound %d", c.ss, got, c.max)
		}
	}
}
