package driver

import (
	"testing"

	"ariadne/internal/capture"
	"ariadne/internal/engine"
	"ariadne/internal/gen"
	"ariadne/internal/graph"
	"ariadne/internal/provenance"
	"ariadne/internal/queries"
)

// benchCapture runs SSSP under full capture on a spilling store, so the
// layered run pays the real decode cost of every layer.
func benchCapture(b testing.TB, scale int) (*graph.Graph, *provenance.Store) {
	b.Helper()
	g, err := gen.RMAT(gen.DefaultRMAT(scale, 6, 7))
	if err != nil {
		b.Fatal(err)
	}
	return g, spilledCapture(b, g, ssspProg{}, 0)
}

// spilledCapture runs prog over g for at most steps supersteps (0: until it
// halts) under full capture into a store that spills every layer.
func spilledCapture(b testing.TB, g *graph.Graph, prog engine.Program, steps int) *provenance.Store {
	b.Helper()
	store := provenance.NewStore(provenance.StoreConfig{SpillDir: b.TempDir(), SpillAll: true})
	b.Cleanup(func() { store.Close() })
	obs := capture.NewObserver(capture.FullPolicy(), store)
	e, err := engine.New(g, prog, engine.Config{MaxSupersteps: steps, Observers: []engine.Observer{obs}})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		b.Fatal(err)
	}
	if err := store.Sync(); err != nil {
		b.Fatal(err)
	}
	return store
}

// BenchmarkLayeredEval measures the layered driver's full run (decode +
// evaluation, one layer at a time) on the materialised evaluator at the
// default worker count.
func BenchmarkLayeredEval(b *testing.B) {
	g, store := benchCapture(b, 9)
	defer store.Close()
	def := queries.MonotoneCheck()
	b.ReportAllocs()
	var facts int64
	for i := 0; i < b.N; i++ {
		q, err := def.Build()
		if err != nil {
			b.Fatal(err)
		}
		res, err := Layered(q, store, g, materialised())
		if err != nil {
			b.Fatal(err)
		}
		facts = res.Facts
	}
	b.ReportMetric(float64(facts)*float64(b.N)/b.Elapsed().Seconds(), "facts/s")
}
