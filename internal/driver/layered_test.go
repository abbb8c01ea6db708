package driver

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ariadne/internal/analytics"
	"ariadne/internal/capture"
	"ariadne/internal/engine"
	"ariadne/internal/gen"
	"ariadne/internal/graph"
	"ariadne/internal/obs"
	"ariadne/internal/pql/analysis"
	"ariadne/internal/provenance"
	"ariadne/internal/queries"
	"ariadne/internal/value"
)

// handStore builds a store from hand-written layers, one per superstep,
// spilled to disk when dir is set.
func handStore(t *testing.T, dir string, m *obs.Metrics, layers ...[]provenance.Record) *provenance.Store {
	t.Helper()
	store := provenance.NewStore(provenance.StoreConfig{SpillDir: dir, SpillAll: dir != "", Metrics: m})
	t.Cleanup(func() { store.Close() })
	for ss, recs := range layers {
		if err := store.AppendLayer(&provenance.Layer{Superstep: ss, Records: recs}); err != nil {
			t.Fatal(err)
		}
	}
	if err := store.Sync(); err != nil {
		t.Fatal(err)
	}
	return store
}

func twoVertexGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g, err := graph.NewFromEdges(2, []graph.Edge{{Src: 0, Dst: 1, Weight: 1}})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestLayeredFailsOnUnreadableLayer: a layer that cannot be decoded fails
// the evaluation with the store's error instead of ending it early with the
// layers before it.
func TestLayeredFailsOnUnreadableLayer(t *testing.T) {
	dir := t.TempDir()
	var layers [][]provenance.Record
	for ss := 0; ss < 4; ss++ {
		layers = append(layers, []provenance.Record{{
			Vertex: 0, PrevActive: int32(ss - 1), HasValue: true, Value: value.NewFloat(float64(ss)),
		}})
	}
	store := handStore(t, dir, nil, layers...)
	if err := os.WriteFile(filepath.Join(dir, "layer-000002.prov"), []byte("not a layer file"), 0o644); err != nil {
		t.Fatal(err)
	}
	g := twoVertexGraph(t)
	for _, leg := range []struct {
		name string
		opts []EvalOpt
	}{{"compiled", nil}, {"materialised", []EvalOpt{materialised()}}} {
		res, err := Layered(queries.SilentChange().MustBuild(), store, g, leg.opts...)
		if err == nil {
			t.Fatalf("%s: unreadable layer 2 went unreported (%d facts fed)", leg.name, res.Facts)
		}
		if !strings.Contains(err.Error(), "spilled layer 2") {
			t.Errorf("%s: error %q does not name layer 2", leg.name, err)
		}
	}
}

// TestLayeredRetentionMatchesPrevActive: the evolution join reads the value
// at the record's previous active superstep, not the last value retained.
// Vertex 0 has values at supersteps 0 and 2 but none captured at 1, so at 2
// its predecessor (1) has no value and Query 6 derives nothing.
func TestLayeredRetentionMatchesPrevActive(t *testing.T) {
	store := handStore(t, "", nil,
		[]provenance.Record{{Vertex: 0, PrevActive: -1, HasValue: true, Value: value.NewFloat(5)}},
		[]provenance.Record{{Vertex: 0, PrevActive: 0}},
		[]provenance.Record{{Vertex: 0, PrevActive: 1, HasValue: true, Value: value.NewFloat(7)}},
	)
	g := twoVertexGraph(t)
	def := queries.SilentChange()
	naive, err := Naive(def.MustBuild(), store, g, 0)
	if err != nil {
		t.Fatal(err)
	}
	compiled, err := Layered(def.MustBuild(), store, g)
	if err != nil {
		t.Fatal(err)
	}
	mat, err := Layered(def.MustBuild(), store, g, materialised())
	if err != nil {
		t.Fatal(err)
	}
	if n := naive.Relation("problem").Len(); n != 0 {
		t.Fatalf("naive derived %d problems, want 0", n)
	}
	want := resultSig(naive)
	requireSameSig(t, "layered/compiled", want, resultSig(compiled))
	requireSameSig(t, "layered/materialised", want, resultSig(mat))
}

// layerReads counts the layers run reads from a store whose registry is m:
// every read decodes the layer from its image, resident or spilled.
func layerReads(m *obs.Metrics, run func()) int64 {
	reads := m.Counter("store_layer_reload_total")
	before := reads.Value()
	run()
	return reads.Value() - before
}

// TestLayeredReadsEachLayerOnce asserts Lemma 5.3 as a count: one layered
// evaluation reads each of the store's n layers exactly once, for local,
// forward and backward queries alike, and derives what naive evaluation
// derives. The store keeps no decoded layer between calls, so two
// successive evaluations read 2n.
func TestLayeredReadsEachLayerOnce(t *testing.T) {
	g, err := gen.RMAT(gen.DefaultRMAT(6, 4, 11))
	if err != nil {
		t.Fatal(err)
	}
	spilled := func(pol capture.Policy) (*provenance.Store, *obs.Metrics) {
		m := obs.New()
		store := provenance.NewStore(provenance.StoreConfig{SpillDir: t.TempDir(), SpillAll: true, Metrics: m})
		t.Cleanup(func() { store.Close() })
		e, err := engine.New(g, ssspProg{}, engine.Config{Observers: []engine.Observer{capture.NewObserver(pol, store)}})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.Run(); err != nil {
			t.Fatal(err)
		}
		if err := store.Sync(); err != nil {
			t.Fatal(err)
		}
		return store, m
	}
	full, fullM := spilled(capture.FullPolicy())
	q11 := queries.CaptureBackwardCustom()
	custPol, err := capture.FromQuery(q11.MustBuild(), q11.Env)
	if err != nil {
		t.Fatal(err)
	}
	cust, custM := spilled(custPol)

	last, err := full.Layer(full.NumLayers() - 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(last.Records) == 0 {
		t.Fatal("no vertex active in the last superstep")
	}
	alpha, sigma := last.Records[0].Vertex, last.Superstep

	emptyM := obs.New()
	empty := handStore(t, t.TempDir(), emptyM,
		[]provenance.Record{{Vertex: 1, PrevActive: -1, HasValue: true, Value: value.NewFloat(4)}},
		nil,
		[]provenance.Record{{Vertex: 1, PrevActive: 0, HasValue: true, Value: value.NewFloat(3)}},
	)

	cases := []struct {
		name  string
		def   queries.Definition
		store *provenance.Store
		m     *obs.Metrics
		g     *graph.Graph
	}{
		{"local/q6", queries.SilentChange(), full, fullM, g},
		{"forward/q3", queries.CaptureForwardLineage(0), full, fullM, g},
		{"backward/q10", queries.BackwardTrace(alpha, sigma), full, fullM, g},
		{"backward/q12-on-q11", queries.BackwardTraceCustom(alpha, sigma), cust, custM, g},
		{"empty-middle-layer/q6", queries.SilentChange(), empty, emptyM, twoVertexGraph(t)},
	}
	for _, c := range cases {
		for _, leg := range []struct {
			name string
			opts []EvalOpt
		}{{"default", nil}, {"materialised", []EvalOpt{materialised()}}} {
			var res *Result
			reads := layerReads(c.m, func() {
				if res, err = Layered(c.def.MustBuild(), c.store, c.g, leg.opts...); err != nil {
					t.Fatalf("%s/%s: %v", c.name, leg.name, err)
				}
			})
			if reads != int64(c.store.NumLayers()) {
				t.Errorf("%s/%s: read %d layers of %d, want each once", c.name, leg.name, reads, c.store.NumLayers())
			}
			naive, err := Naive(c.def.MustBuild(), c.store, c.g, 0)
			if err != nil {
				t.Fatal(err)
			}
			requireSameSig(t, c.name+"/"+leg.name, resultSig(naive), resultSig(res))
		}
	}

	q10 := queries.BackwardTrace(alpha, sigma)
	reads := layerReads(fullM, func() {
		for k := 0; k < 2; k++ {
			if _, err := Layered(q10.MustBuild(), full, g); err != nil {
				t.Fatal(err)
			}
		}
	})
	if want := 2 * int64(full.NumLayers()); reads != want {
		t.Errorf("two successive layered calls read %d layers, want %d", reads, want)
	}
}

// TestNaiveReadsEachLayerOnce: naive evaluation reads each layer once even
// when the query reads an emitted table (Query 8 over an ALS capture), and a
// record's emitted facts are fed with its other facts, so a query over
// superstep and an emitted table is fed exactly what the layered
// materialised leg is fed.
func TestNaiveReadsEachLayerOnce(t *testing.T) {
	ml, err := gen.MLDataset(-6)
	if err != nil {
		t.Fatal(err)
	}
	m := obs.New()
	store := provenance.NewStore(provenance.StoreConfig{Metrics: m})
	t.Cleanup(func() { store.Close() })
	e, err := engine.New(ml.Graph, &analytics.ALS{NumUsers: ml.NumUsers, Features: 2, Seed: 7}, engine.Config{
		MaxSupersteps: 5, Observers: []engine.Observer{capture.NewObserver(capture.FullPolicy(), store)}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}

	q8 := queries.ALSErrorIncrease(0.01)
	var naive *Result
	reads := layerReads(m, func() {
		if naive, err = Naive(q8.MustBuild(), store, ml.Graph, 0); err != nil {
			t.Fatal(err)
		}
	})
	if reads != int64(store.NumLayers()) {
		t.Errorf("naive read %d layers of %d, want each once", reads, store.NumLayers())
	}
	layered, err := Layered(q8.MustBuild(), store, ml.Graph)
	if err != nil {
		t.Fatal(err)
	}
	if len(resultSig(naive)["avg_error"]) == 0 {
		t.Fatal("naive derived no avg_error")
	}
	requireSameSig(t, "naive vs layered", resultSig(layered), resultSig(naive))

	env := analysis.NewEnv()
	env.DeclareEDB("prov_error", 4)
	active := queries.Definition{
		Name:        "erring",
		Source:      `erring(X, I) :- superstep(X, I), prov_error(X, Y, E, I).`,
		Env:         env,
		ResultPreds: []string{"erring"},
	}
	naive, err = Naive(active.MustBuild(), store, ml.Graph, 0)
	if err != nil {
		t.Fatal(err)
	}
	mat, err := Layered(active.MustBuild(), store, ml.Graph, materialised())
	if err != nil {
		t.Fatal(err)
	}
	if naive.Facts != mat.Facts {
		t.Errorf("naive fed %d facts, layered materialised %d", naive.Facts, mat.Facts)
	}
	requireSameSig(t, "naive vs layered materialised", relationKeys(mat, false), relationKeys(naive, false))
}
