package driver

import (
	"runtime"
	"sort"
	"testing"

	"ariadne/internal/capture"
	"ariadne/internal/engine"
	"ariadne/internal/gen"
	"ariadne/internal/graph"
	"ariadne/internal/provenance"
	"ariadne/internal/queries"
	"ariadne/internal/value"
)

// emitProg is SSSP plus per-message analytics facts, so the ALS monitoring
// queries (prov_error / prov_prediction) have data to chew on.
type emitProg struct{ ssspProg }

func (p emitProg) Compute(ctx *engine.Context, msgs []engine.IncomingMessage) error {
	for _, m := range msgs {
		peer := value.NewInt(int64(m.Src))
		e := m.Val.Float()
		ctx.EmitProv("prov_error", peer, value.NewFloat(e))
		ctx.EmitProv("prov_prediction", peer, value.NewFloat(e+4))
	}
	return p.ssspProg.Compute(ctx, msgs)
}

// captureEmitting runs the emitting SSSP under full capture.
func captureEmitting(t *testing.T, scale int) (*graph.Graph, *provenance.Store) {
	t.Helper()
	g, err := gen.RMAT(gen.DefaultRMAT(scale, 4, 23))
	if err != nil {
		t.Fatal(err)
	}
	store := provenance.NewStore(provenance.StoreConfig{})
	obs := capture.NewObserver(capture.FullPolicy(), store)
	e, err := engine.New(g, emitProg{}, engine.Config{Observers: []engine.Observer{obs}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	return g, store
}

// resultSig maps each IDB relation to its sorted canonical tuple keys.
func resultSig(res *Result) map[string][]string { return relationKeys(res, true) }

// relationKeys maps each IDB relation to its canonical tuple keys in
// insertion order, or sorted.
func relationKeys(res *Result, sorted bool) map[string][]string {
	sig := map[string][]string{}
	for name := range res.q.IDBs {
		rel := res.Relation(name)
		if rel == nil {
			sig[name] = nil
			continue
		}
		keys := make([]string, 0, rel.Len())
		for _, t := range rel.All() {
			keys = append(keys, t.Key())
		}
		if sorted {
			sort.Strings(keys)
		}
		sig[name] = keys
	}
	return sig
}

func requireSameSig(t *testing.T, label string, want, got map[string][]string) {
	t.Helper()
	for name, w := range want {
		g := got[name]
		if len(w) != len(g) {
			t.Errorf("%s: %s: %d tuples vs reference %d", label, name, len(g), len(w))
			continue
		}
		for i := range w {
			if w[i] != g[i] {
				t.Errorf("%s: %s: tuple %d differs: %q vs %q", label, name, i, g[i], w[i])
				break
			}
		}
	}
}

// differentialQueries are the paper queries the compiled and the
// materialised evaluators must both answer.
func differentialQueries() []queries.Definition {
	return []queries.Definition{
		queries.CaptureForwardLineage(0),
		queries.BackwardTrace(0, 2),
		queries.PageRankCheck(),
		queries.SilentChange(),
		queries.MonotoneCheck(),
		queries.ALSRangeCheck(),
		queries.ALSErrorIncrease(0.01),
	}
}

// TestCompiledMatchesMaterialised pins the default evaluation path (the
// compiled vertex program wherever the query compiles) against the
// materialised bottom-up evaluator for the paper queries, in both layered and
// online mode: every answer predicate must hold the same tuples.
func TestCompiledMatchesMaterialised(t *testing.T) {
	g, store := captureEmitting(t, 7)
	requireSameAnswers := func(t *testing.T, def queries.Definition, ref, got *Result) {
		t.Helper()
		refSig, gotSig := resultSig(ref), resultSig(got)
		for _, pred := range def.ResultPreds {
			requireSameSig(t, "default-leg", map[string][]string{pred: refSig[pred]}, gotSig)
		}
	}

	for _, def := range differentialQueries() {
		t.Run("layered/"+def.Name, func(t *testing.T) {
			q, err := def.Build()
			if err != nil {
				t.Fatal(err)
			}
			if !q.Class.LayeredEvaluable() {
				t.Skipf("%s is %v, not layered-evaluable", def.Name, q.Class)
			}
			ref, err := Layered(q, store, g, materialised())
			if err != nil {
				t.Fatal(err)
			}
			res, err := Layered(def.MustBuild(), store, g)
			if err != nil {
				t.Fatal(err)
			}
			requireSameAnswers(t, def, ref, res)
		})

		t.Run("online/"+def.Name, func(t *testing.T) {
			q, err := def.Build()
			if err != nil {
				t.Fatal(err)
			}
			if !q.Class.OnlineEvaluable() {
				t.Skipf("%s is %v, not online-evaluable", def.Name, q.Class)
			}
			runOnline := func(opts ...EvalOpt) *Result {
				t.Helper()
				o, err := NewOnline(def.MustBuild(), g, opts...)
				if err != nil {
					t.Fatal(err)
				}
				e, err := engine.New(g, emitProg{}, engine.Config{Observers: []engine.Observer{o}})
				if err != nil {
					t.Fatal(err)
				}
				if _, err := e.Run(); err != nil {
					t.Fatal(err)
				}
				return o.Result()
			}
			requireSameAnswers(t, def, runOnline(materialised()), runOnline())
		})
	}
}

// TestMaterialisedOrderIndependentOfGOMAXPROCS: the materialised evaluator
// runs on the calling goroutine, so the core count cannot reach its results.
// Query 3's lineage, Query 1 and Query 8's aggregates through the layered
// driver's materialised leg and through naive evaluation derive every
// relation in the same insertion order at GOMAXPROCS 1 and 4.
func TestMaterialisedOrderIndependentOfGOMAXPROCS(t *testing.T) {
	g, store := captureEmitting(t, 8)
	defs := []queries.Definition{queries.CaptureForwardLineage(0), queries.Apt(0.01, nil),
		queries.ALSErrorIncrease(0.01)}
	run := func(procs int) map[string]map[string][]string {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		out := map[string]map[string][]string{}
		for _, def := range defs {
			layered, err := Layered(def.MustBuild(), store, g, materialised())
			if err != nil {
				t.Fatal(err)
			}
			out["layered/"+def.Name] = relationKeys(layered, false)
			naive, err := Naive(def.MustBuild(), store, g, 0)
			if err != nil {
				t.Fatal(err)
			}
			out["naive/"+def.Name] = relationKeys(naive, false)
		}
		return out
	}
	one, four := run(1), run(4)
	for leg, want := range one {
		n := 0
		for _, keys := range want {
			n += len(keys)
		}
		if n == 0 {
			t.Errorf("%s derived nothing", leg)
		}
		requireSameSig(t, leg+" at GOMAXPROCS 4 vs 1", want, four[leg])
	}
}
