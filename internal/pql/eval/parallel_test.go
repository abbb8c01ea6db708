package eval

import (
	"fmt"
	"sync"
	"testing"

	"ariadne/internal/pql/analysis"
	"ariadne/internal/value"
)

// feedFn populates an evaluator in one or more Fixpoint batches (each call
// to the inner function is one AddFact; the outer slice index is the batch).
type feedBatch []struct {
	pred string
	t    Tuple
}

// runBatches evaluates src with the given worker count, feeding each batch
// before a Fixpoint call, and returns the database and final stats.
func runBatches(t *testing.T, src string, env *analysis.Env, workers int, batches []feedBatch) (*Database, Stats) {
	t.Helper()
	e, db := mkEval(t, src, env)
	e.SetWorkers(workers)
	for _, batch := range batches {
		for _, f := range batch {
			e.AddFact(f.pred, f.t)
		}
		if err := e.Fixpoint(); err != nil {
			t.Fatalf("fixpoint (workers=%d): %v", workers, err)
		}
	}
	return db, e.Stats()
}

// relSignature renders every relation as sorted canonical keys, the
// bit-identity the differential tests compare.
func relSignature(db *Database) map[string][]string {
	out := map[string][]string{}
	for _, name := range db.Names() {
		rel := db.Get(name)
		keys := make([]string, 0, rel.Len())
		for _, tu := range rel.Sorted() {
			keys = append(keys, tu.Key())
		}
		out[name] = keys
	}
	return out
}

func diffSignatures(t *testing.T, label string, want, got map[string][]string) {
	t.Helper()
	if len(want) != len(got) {
		t.Errorf("%s: relation count %d != %d", label, len(got), len(want))
	}
	for name, w := range want {
		g, ok := got[name]
		if !ok {
			t.Errorf("%s: relation %s missing", label, name)
			continue
		}
		if len(w) != len(g) {
			t.Errorf("%s: relation %s has %d tuples, want %d", label, name, len(g), len(w))
			continue
		}
		for i := range w {
			if w[i] != g[i] {
				t.Errorf("%s: relation %s tuple %d differs", label, name, i)
				break
			}
		}
	}
}

// Programs exercising every plan shape the slot programs and the oracle
// must agree on: recursion, negation, compare binders and filters,
// fact rules, wildcards, constants, arithmetic, and UDF calls. Facts are
// sized so the round deltas clear parallelCutoff and the parallel path
// really runs.
func parallelPrograms() map[string]struct {
	src     string
	batches []feedBatch
} {
	const n = 160
	edge := func(mod int) feedBatch {
		var b feedBatch
		for i := 0; i < n; i++ {
			b = append(b, struct {
				pred string
				t    Tuple
			}{"edge", ints(int64(i), int64((i+1)%mod))})
		}
		return b
	}
	vals := func() feedBatch {
		var b feedBatch
		for i := 0; i < n; i++ {
			b = append(b, struct {
				pred string
				t    Tuple
			}{"obs", Tuple{value.NewInt(int64(i)), value.NewFloat(float64(i%7) - 3)}})
		}
		return b
	}
	return map[string]struct {
		src     string
		batches []feedBatch
	}{
		"transitive-closure": {
			src:     `reach(X, Y) :- edge(X, Y).` + "\n" + `reach(X, Z) :- reach(X, Y), edge(Y, Z).`,
			batches: []feedBatch{edge(40)},
		},
		"negation-and-filter": {
			src: `hot(X) :- obs(X, D), D > 1.` + "\n" +
				`cold(X) :- obs(X, D), D < 0 - 1.` + "\n" +
				`mild(X) :- obs(X, _), !hot(X), !cold(X).`,
			batches: []feedBatch{vals()},
		},
		"binder-and-arith": {
			src: `next(X, S) :- edge(X, Y), S = X + 1, S < 150.` + "\n" +
				`twice(X, D) :- next(X, S), D = S * 2.`,
			batches: []feedBatch{edge(n)},
		},
		"udf-and-const": {
			src: `mag(X, M) :- obs(X, D), M = abs(D).` + "\n" +
				`zero(X) :- obs(X, 0.0).` + "\n" +
				`close(X, Y) :- mag(X, M1), mag(Y, M2), edge(X, Y), absdiff(M1, M2) < 1.5.`,
			batches: []feedBatch{append(edge(n), vals()...)},
		},
		"incremental-layers": {
			src:     `reach(X, Y) :- edge(X, Y).` + "\n" + `reach(X, Z) :- reach(X, Y), edge(Y, Z).`,
			batches: []feedBatch{edge(80)[:n/2], edge(80)[n/2:]},
		},
		"wildcard-and-dup-var": {
			src: `seen(X) :- edge(X, _).` + "\n" +
				`selfish(X) :- edge(X, X).` + "\n" +
				`pair(X, Y) :- edge(X, Y), seen(Y), !selfish(X).`,
			batches: []feedBatch{append(edge(40), struct {
				pred string
				t    Tuple
			}{"edge", ints(7, 7)})},
		},
	}
}

// testEnv is NewEnv plus the synthetic EDBs the programs here feed.
func testEnv() *analysis.Env {
	env := analysis.NewEnv()
	env.DeclareEDB("link", 2)
	env.DeclareEDB("obs", 2)
	return env
}

// runOracle evaluates src on the oracle interpreter, batch by batch.
func runOracle(t *testing.T, src string, env *analysis.Env, batches []feedBatch) *Database {
	t.Helper()
	db := NewDatabase()
	o, err := newOracle(analysis.MustAnalyze(src, env), db)
	if err != nil {
		t.Fatal(err)
	}
	for _, batch := range batches {
		for _, f := range batch {
			o.AddFact(f.pred, f.t)
		}
		if err := o.Fixpoint(); err != nil {
			t.Fatalf("oracle fixpoint: %v", err)
		}
	}
	return db
}

// dbOrder renders every relation as name:key lines in insertion order.
func dbOrder(db *Database) []string {
	var out []string
	for _, name := range db.Names() {
		for _, tu := range db.Get(name).All() {
			out = append(out, name+":"+tu.Key())
		}
	}
	return out
}

// TestSlotProgramsMatchOracle is the eval-level differential: for every
// program shape the slot programs at one worker reproduce the oracle
// interpreter tuple for tuple in insertion order, and at 2 and 8 workers
// produce relations bit-identical as sets (canonical keys, sorted order).
func TestSlotProgramsMatchOracle(t *testing.T) {
	for name, prog := range parallelPrograms() {
		t.Run(name, func(t *testing.T) {
			env := testEnv()
			oracleDB := runOracle(t, prog.src, env, prog.batches)
			want := relSignature(oracleDB)
			refDB, refStats := runBatches(t, prog.src, env, 1, prog.batches)
			diffSignatures(t, "workers=1", want, relSignature(refDB))
			wo, go1 := dbOrder(oracleDB), dbOrder(refDB)
			for i := range wo {
				if i >= len(go1) || wo[i] != go1[i] {
					t.Fatalf("workers=1: insertion order diverges from the oracle at %d", i)
				}
			}
			if refStats.ParallelRounds != 0 {
				t.Errorf("workers=1 ran %d parallel rounds", refStats.ParallelRounds)
			}
			for _, workers := range []int{2, 8} {
				db, stats := runBatches(t, prog.src, env, workers, prog.batches)
				diffSignatures(t, fmt.Sprintf("workers=%d", workers), want, relSignature(db))
				if stats.Derivations != refStats.Derivations {
					t.Errorf("workers=%d: derivations %d != one worker's %d", workers, stats.Derivations, refStats.Derivations)
				}
				if stats.FactsAdded != refStats.FactsAdded {
					t.Errorf("workers=%d: facts added %d != one worker's %d", workers, stats.FactsAdded, refStats.FactsAdded)
				}
				if stats.ParallelRounds == 0 {
					t.Errorf("workers=%d: no parallel rounds ran — cutoff or safety misclassified", workers)
				}
				if len(stats.RoundsPerStratum) == 0 {
					t.Error("missing per-stratum round counts")
				}
				total := 0
				for _, n := range stats.RoundsPerStratum {
					total += n
				}
				if total != stats.Rounds {
					t.Errorf("per-stratum rounds sum %d != rounds %d", total, stats.Rounds)
				}
			}
		})
	}
}

// TestParallelSelfDeterminism: a parallel run is tuple-for-tuple identical
// to another parallel run at the same and at different worker counts,
// including insertion order (the canonical merge order).
func TestParallelSelfDeterminism(t *testing.T) {
	prog := parallelPrograms()["transitive-closure"]
	env := testEnv()
	db1, _ := runBatches(t, prog.src, env, 4, prog.batches)
	db2, _ := runBatches(t, prog.src, env, 4, prog.batches)
	o1, o2 := dbOrder(db1), dbOrder(db2)
	if len(o1) != len(o2) {
		t.Fatalf("insertion order lengths differ: %d vs %d", len(o1), len(o2))
	}
	for i := range o1 {
		if o1[i] != o2[i] {
			t.Fatalf("insertion order diverges at %d: %s vs %s", i, o1[i], o2[i])
		}
	}
}

// TestAggregateStrataStaySequential: aggregate queries never fan their
// aggregate strata out (ParallelSafeStrata gates them) yet still produce the
// oracle's results when workers are configured.
func TestAggregateStrataStaySequential(t *testing.T) {
	src := `deg(X, COUNT(Y)) :- link(X, Y).` + "\n" + `big(X) :- deg(X, D), D >= 2.`
	var batch feedBatch
	for i := 0; i < 200; i++ {
		batch = append(batch, struct {
			pred string
			t    Tuple
		}{"link", ints(int64(i%50), int64(i))})
	}
	env := testEnv()
	want := relSignature(runOracle(t, src, env, []feedBatch{batch}))
	for _, workers := range []int{1, 8} {
		db, _ := runBatches(t, src, env, workers, []feedBatch{batch})
		diffSignatures(t, fmt.Sprintf("aggregate workers=%d", workers), want, relSignature(db))
	}
}

// TestSetWorkersGates: non-VC-compatible queries must refuse parallelism.
func TestSetWorkersGates(t *testing.T) {
	src := `t(X, D) :- value(X, D, I).` + "\n" + `bad(X, D) :- superstep(X, I), t(Y, D).`
	e, _ := mkEval(t, src, testEnv())
	e.SetWorkers(8)
	if e.Workers() != 1 {
		t.Errorf("non-VC-compatible query got %d workers, want 1", e.Workers())
	}
	e2, _ := mkEval(t, `reach(X, Y) :- link(X, Y).`, testEnv())
	e2.SetWorkers(8)
	if e2.Workers() != 8 {
		t.Errorf("local query got %d workers, want 8", e2.Workers())
	}
}

// TestLocShardConsistency: Ints and numerically equal Floats land on the
// same shard (Tuple.Key treats them as one value, so shards must too), and
// shards are always in range.
func TestLocShardConsistency(t *testing.T) {
	for p := 1; p <= 9; p++ {
		for i := int64(-5); i < 100; i++ {
			si := locShard(value.NewInt(i), p)
			sf := locShard(value.NewFloat(float64(i)), p)
			if si != sf {
				t.Fatalf("p=%d v=%d: int shard %d != float shard %d", p, i, si, sf)
			}
			if si < 0 || si >= p {
				t.Fatalf("p=%d v=%d: shard %d out of range", p, i, si)
			}
		}
		s := locShard(value.NewString("vertex-7"), p)
		if s < 0 || s >= p {
			t.Fatalf("string shard %d out of range for p=%d", s, p)
		}
		ks := keyShard(ints(3, 4), p)
		kf := keyShard(Tuple{value.NewFloat(3), value.NewFloat(4)}, p)
		if ks != kf {
			t.Fatalf("p=%d: keyShard int/float diverge: %d vs %d", p, ks, kf)
		}
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
				if !r.ContainsKey(ints(k, k).Key()) && k >= 50 {
					t.Errorf("unexpected membership for %d", k)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}
