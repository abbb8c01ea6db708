package eval

import (
	"testing"

	"ariadne/internal/pql/analysis"
	"ariadne/internal/value"
)

// feedBatch is one Fixpoint batch of facts.
type feedBatch []struct {
	pred string
	t    Tuple
}

// runBatches evaluates src, feeding each batch before a Fixpoint call, and
// returns the database and final stats.
func runBatches(t *testing.T, src string, env *analysis.Env, batches []feedBatch) (*Database, Stats) {
	t.Helper()
	e, db := mkEval(t, src, env)
	for _, batch := range batches {
		for _, f := range batch {
			e.AddFact(f.pred, f.t)
		}
		if err := e.Fixpoint(); err != nil {
			t.Fatalf("fixpoint: %v", err)
		}
	}
	return db, e.Stats()
}

// oraclePrograms exercises every plan shape the slot programs and the oracle
// must agree on: recursion, negation, compare binders and filters, fact
// rules, wildcards, constants, arithmetic, UDF calls, and facts arriving over
// several Fixpoint batches.
func oraclePrograms() map[string]struct {
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

// testEnv is NewEnv plus the synthetic EDB the programs here feed.
func testEnv() *analysis.Env {
	env := analysis.NewEnv()
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
// program shape the slot programs reproduce the oracle interpreter tuple for
// tuple in insertion order, and the round counters add up.
func TestSlotProgramsMatchOracle(t *testing.T) {
	for name, prog := range oraclePrograms() {
		t.Run(name, func(t *testing.T) {
			env := testEnv()
			want := dbOrder(runOracle(t, prog.src, env, prog.batches))
			db, stats := runBatches(t, prog.src, env, prog.batches)
			got := dbOrder(db)
			if len(got) != len(want) {
				t.Fatalf("%d tuples, oracle %d", len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("insertion order diverges from the oracle at %d: %s vs %s", i, got[i], want[i])
				}
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
		})
	}
}
