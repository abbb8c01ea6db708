package eval

import (
	"math"
	"math/rand"
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
				if rel.Delete(tup) != existed {
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
				if len(got) != want {
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

// TestShardSetsReadAsRows spreads random tuples over rows and three shard
// dedup sets the way online evaluation does: the main shard Inserts into
// rows, a partition shard keeps each new tuple in its own set (the set of the
// tuple's first column mod 3, its anchor) and the barrier's merge only
// appends the shards' tuples to order and the built indexes. The relation
// must answer every read exactly as one that Inserted the same tuples in the
// same order, with indexes built before and after merges, and again after a
// SaveState/LoadState round trip, which leaves every tuple in rows.
func TestShardSetsReadAsRows(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		rel, ref := NewRelation(2), NewRelation(2)
		for range 3 {
			rel.sets = append(rel.sets, map[string]Tuple{})
		}
		mk := func() Tuple { return ints(int64(r.Intn(9)), int64(r.Intn(4))) }
		var kb []byte
		lookup := func() bool {
			cols := [][]int{{0}, {1}, {0, 1}}[r.Intn(3)]
			probe := mk()
			key := make([]value.Value, len(cols))
			for i, c := range cols {
				key[i] = probe[c]
			}
			return sameKeys(rel.Lookup(cols, key), ref.Lookup(cols, key))
		}
		for step := 0; step < 60; step++ {
			switch r.Intn(3) {
			case 0: // the main shard: a slot program's sink or the public Insert
				tu := mk()
				var ok bool
				if r.Intn(2) == 0 {
					_, ok = rel.insertCopy(tu, &kb)
				} else {
					ok = rel.Insert(tu)
				}
				if ok != ref.Insert(tu) {
					return false
				}
			case 1: // the shards derive, then the barrier merges
				var merged []Tuple
				for range r.Intn(8) {
					tu := mk()
					set := rel.sets[tu[0].Int()%3]
					k := tu.Key()
					if _, ok := set[k]; ok || rel.inRows([]byte(k)) {
						continue
					}
					set[k] = tu
					merged = append(merged, tu)
				}
				for _, tu := range merged {
					rel.appendNew(tu)
					if !ref.Insert(tu) {
						return false
					}
				}
			default: // a read that may build an index
				if !lookup() {
					return false
				}
			}
		}
		same := func() bool {
			if rel.Len() != ref.Len() || !sameKeys(rel.All(), ref.All()) || !sameKeys(rel.Sorted(), ref.Sorted()) {
				return false
			}
			for x := int64(0); x < 10; x++ {
				for y := int64(0); y < 5; y++ {
					tu := ints(x, y)
					if rel.Contains(tu) != ref.Contains(tu) {
						return false
					}
					kb := appendNorm(nil, tu[1])
					if !sameKeys(rel.LookupKey([]int{1}, encodeCols([]int{1}), kb), ref.LookupKey([]int{1}, encodeCols([]int{1}), kb)) {
						return false
					}
				}
			}
			for range 10 {
				if !lookup() {
					return false
				}
			}
			return true
		}
		if !same() {
			return false
		}
		db := NewDatabase()
		db.rels["r"] = rel
		w := value.NewBlob()
		db.SaveState(w)
		for _, into := range []*Database{NewDatabase(), db} {
			if err := into.LoadState(value.NewBlobReader(w.Bytes())); err != nil {
				return false
			}
			if rel = into.Get("r"); !same() {
				return false
			}
		}
		// Reloaded in place: every tuple is back in rows, the sets are empty.
		return len(rel.rows) == ref.Len()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50, Rand: rng}); err != nil {
		t.Error(err)
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

// TestRelationMemSizePinned pins the MemSize estimate: tuples plus the
// overhead of every built index, computed by hand from the documented
// constants.
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
	if got := r.MemSize(); got != tupleBytes {
		t.Fatalf("unindexed MemSize = %d, want %d", got, tupleBytes)
	}

	// Build an index on column 0: buckets {1} -> 2 tuples, {2} -> 1 tuple.
	r.Lookup([]int{0}, []value.Value{value.NewInt(1)})
	keyLen := int64(len(projKey(ints(1, 2), []int{0})))
	indexBytes := int64(memIndexOverhead) +
		(memBucketOverhead + keyLen + 2*memEntryPointer) + // bucket 1
		(memBucketOverhead + keyLen + 1*memEntryPointer) // bucket 2
	if got := r.MemSize(); got != tupleBytes+indexBytes {
		t.Fatalf("indexed MemSize = %d, want %d (tuples %d + index %d)", got, tupleBytes+indexBytes, tupleBytes, indexBytes)
	}

	// A second index adds its own overhead; inserts keep both maintained.
	r.Lookup([]int{1}, []value.Value{value.NewInt(3)})
	if got, prev := r.MemSize(), tupleBytes+indexBytes; got <= prev {
		t.Fatalf("second index did not grow MemSize: %d <= %d", got, prev)
	}

	// A record-keyed relation adds its bitsets: a slice header per superstep
	// up to the highest set (2, so 3) and a word per 64 vertices up to the
	// highest set in each (vertex 65 at superstep 2, so 2 words; vertex 3 at
	// superstep 0, 1 word), as in one shard's bitset. A tuple without a bit
	// (vertex 200 is past the 128 vertices) adds only its tuple bytes.
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
	if want := keyedTuples + 3*24 + 3*8 + (1*24 + 1*8); k.MemSize() != want {
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
// insertCopy, Delete, Contains, Lookup, Clear, SaveState →
// LoadState (in place) and shard merges on a record-keyed relation and on a
// string-keyed one. The two must give the same answer to every call and hold
// the same tuples in the same order, and SaveState must write the same bytes
// for both. A merge models the barrier: three shards keep the tuples new to
// the relation in their own bitsets (or, without a bit, sets), and only
// order takes them.
func TestRecordKeyedReadsAsStringKeyed(t *testing.T) {
	const vertices = 6
	rng := rand.New(rand.NewSource(37))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		rel, ref := NewRelation(2), NewRelation(2)
		rel.keyRecords(vertices)
		if rel.bits == nil || ref.bits != nil {
			return false
		}
		for range 3 {
			rel.sets = append(rel.sets, map[string]Tuple{})
			rel.bitSets = append(rel.bitSets, &recordBits{n: vertices})
		}
		dbs := [2]*Database{NewDatabase(), NewDatabase()}
		dbs[0].rels["h"], dbs[1].rels["h"] = rel, ref
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
		var kb, refKB []byte
		sharded := false // a shard holds a member
		for step := 0; step < 120; step++ {
			tu := mk()
			switch op := r.Intn(20); {
			case op < 4:
				if rel.Insert(tu.Clone()) != ref.Insert(tu.Clone()) {
					return false
				}
			case op < 9:
				c, ok := rel.insertCopy(tu, &kb)
				refC, refOK := ref.insertCopy(tu, &refKB)
				if ok != refOK || ok && (c.Key() != refC.Key() || &c[0] == &tu[0]) {
					return false
				}
			case op < 11:
				// Delete is for aggregate heads, which have no shards.
				if !sharded && rel.Delete(tu) != ref.Delete(tu) {
					return false
				}
			case op < 14:
				if rel.Contains(tu) != ref.Contains(tu) {
					return false
				}
			case op < 17:
				for range r.Intn(4) {
					tu := mk()
					if rel.Contains(tu) {
						continue
					}
					sh := r.Intn(3)
					if v, s, ok := rel.bitOf(tu); ok {
						rel.bitSets[sh].set(v, s)
					} else {
						rel.sets[sh][tu.Key()] = tu
					}
					rel.appendNew(tu)
					sharded = true
					if !ref.Insert(tu) {
						return false
					}
				}
			case op < 18:
				cols := [][]int{{0}, {1}, {0, 1}}[r.Intn(3)]
				key := make([]value.Value, len(cols))
				for i, c := range cols {
					key[i] = tu[c]
				}
				if !sameKeys(rel.Lookup(cols, key), ref.Lookup(cols, key)) {
					return false
				}
			case op < 19:
				var saved [2][]byte
				for i, db := range dbs {
					w := value.NewBlob()
					db.SaveState(w)
					saved[i] = w.Bytes()
				}
				if string(saved[0]) != string(saved[1]) {
					return false
				}
				for _, db := range dbs {
					if err := db.LoadState(value.NewBlobReader(saved[0])); err != nil {
						return false
					}
				}
				sharded = false
			default:
				rel.Clear()
				ref.Clear()
				sharded = false
			}
			if rel.Len() != ref.Len() || !sameKeys(rel.All(), ref.All()) {
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
