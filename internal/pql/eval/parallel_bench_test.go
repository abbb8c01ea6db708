package eval

import (
	"fmt"
	"testing"

	"ariadne/internal/pql"
	"ariadne/internal/pql/analysis"
	"ariadne/internal/value"
)

// benchEvalSrc is a forward-recursive reachability program shaped like the
// paper's lineage queries: a guarded recursive join over receive_message
// plus an arithmetic binder and a comparison filter. VC-compatible, so the
// parallel evaluator shards it by the location column.
const benchEvalSrc = `
reach(X, I) :- seed(X, I).
reach(X, I) :- receive_message(X, Y, M, I), reach(Y, J), I = J + 1.
hot(X, I) :- reach(X, I), X > 10.
pair(X, Y, S, I) :- reach(X, I), receive_message(X, Y, M, I), M > 0, S = X + Y.
tri(X, Z, I) :- reach(X, I), receive_message(X, Y, M, I),
                receive_message(Y, Z, M2, I), Z > X.
`

// benchEvalFacts builds a ring topology: at each superstep every vertex
// hears from its predecessor, so reach advances one full wavefront (n
// tuples, comfortably above the parallel cutoff) per delta round.
func benchEvalFacts(n, steps int) (seeds, recvs []Tuple) {
	msg := value.NewFloat(1.5)
	for v := 0; v < n; v++ {
		seeds = append(seeds, Tuple{value.NewInt(int64(v)), value.NewInt(0)})
	}
	for i := 1; i <= steps; i++ {
		ss := value.NewInt(int64(i))
		for v := 0; v < n; v++ {
			prev := value.NewInt(int64((v + 1) % n))
			recvs = append(recvs, Tuple{value.NewInt(int64(v)), prev, msg, ss})
		}
	}
	return seeds, recvs
}

// BenchmarkParallelEval times the evaluation phase only (fact ingestion and
// evaluator construction sit outside the timer). Every leg runs the same
// slot programs: workers1 inserts as it derives, workers2/8 fan each large
// delta round out over shards and merge. benchjson derives
// eval_fanout_overhead from the workers8/workers1 ns/op ratio — fanning out
// must not cost more than 10% even where it cannot win (one core).
func BenchmarkParallelEval(b *testing.B) {
	const n, steps = 512, 16
	prog, err := pql.Parse(benchEvalSrc)
	if err != nil {
		b.Fatal(err)
	}
	seeds, recvs := benchEvalFacts(n, steps)
	run := func(b *testing.B, workers int) {
		var derived int64
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			env := analysis.NewEnv()
			env.DeclareEDB("seed", 2)
			q, err := analysis.Analyze(prog, env)
			if err != nil {
				b.Fatal(err)
			}
			db := NewDatabase()
			ev, err := NewEvaluator(q, db)
			if err != nil {
				b.Fatal(err)
			}
			ev.SetWorkers(workers)
			for _, t := range seeds {
				ev.AddFact("seed", t)
			}
			for _, t := range recvs {
				ev.AddFact("receive_message", t)
			}
			b.StartTimer()
			if err := ev.Fixpoint(); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			s := ev.Stats()
			derived = s.Derivations
			if workers > 1 && s.ParallelRounds == 0 {
				b.Fatal("parallel leg ran no parallel rounds")
			}
			b.StartTimer()
		}
		b.ReportMetric(float64(derived)*float64(b.N)/b.Elapsed().Seconds(), "tuples/s")
	}
	for _, w := range []int{1, 2, 8} {
		b.Run(fmt.Sprintf("workers%d", w), func(b *testing.B) { run(b, w) })
	}
}
