package driver

import (
	"fmt"
	"slices"
	"testing"

	"ariadne/internal/capture"
	"ariadne/internal/engine"
	"ariadne/internal/gen"
	"ariadne/internal/graph"
	"ariadne/internal/pql/analysis"
	"ariadne/internal/pql/eval"
	"ariadne/internal/provenance"
	"ariadne/internal/queries"
	"ariadne/internal/value"
)

// repeatVecProg floods vector payloads for four supersteps. Payloads repeat across
// senders (the second component is the sender mod 3), so a receiver both
// derives distinct tuples and re-derives duplicates within one record.
type repeatVecProg struct{}

func (repeatVecProg) InitialValue(_ *graph.Graph, v engine.VertexID) value.Value {
	return value.NewFloat(float64(v))
}

func (repeatVecProg) Compute(ctx *engine.Context, msgs []engine.IncomingMessage) error {
	acc := ctx.Value().Float()
	for _, m := range msgs {
		acc += m.Val.Vec()[0]
	}
	ctx.SetValue(value.NewFloat(acc))
	if ss := ctx.Superstep(); ss < 4 {
		ctx.SendToAllNeighbors(value.NewVector([]float64{float64(ss), float64(ctx.ID() % 3)}))
	}
	return nil
}

// orderedKeys lists a relation's canonical tuple keys in insertion order.
func orderedKeys(rel *eval.Relation) []string {
	var keys []string
	for _, t := range rel.All() {
		keys = append(keys, t.Key())
	}
	return keys
}

// TestOnlineHeadCarriesBorrowedMessage pins the zero-copy online path
// against aliasing: the head of got/3 carries a message value read straight
// off the engine's record arena, and the program writes every head into one
// reused buffer. The online relation must equal layered evaluation of a
// capture of the same run tuple for tuple in insertion order, at 1 and 4
// partitions, and naive evaluation as a set (naive walks its unfolded graph
// in map order).
func TestOnlineHeadCarriesBorrowedMessage(t *testing.T) {
	const src = `got(X, M, I) :- receive_message(X, Y, M, I).`
	build := func() *analysis.Query { return analysis.MustAnalyze(src, analysis.NewEnv()) }
	g, err := gen.RMAT(gen.DefaultRMAT(6, 4, 5))
	if err != nil {
		t.Fatal(err)
	}
	for _, parts := range []int{1, 4} {
		t.Run(fmt.Sprintf("partitions=%d", parts), func(t *testing.T) {
			on, err := NewOnline(build(), g)
			if err != nil {
				t.Fatal(err)
			}
			if !on.UsesCompiledPath() {
				t.Fatal("got/3 must run as a compiled vertex program")
			}
			store := provenance.NewStore(provenance.StoreConfig{})
			capObs := capture.NewObserver(capture.FullPolicy(), store)
			e, err := engine.New(g, repeatVecProg{}, engine.Config{Partitions: parts, Observers: []engine.Observer{on, capObs}})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := e.Run(); err != nil {
				t.Fatal(err)
			}
			online := orderedKeys(on.Result().Relation("got"))
			if len(online) == 0 {
				t.Fatal("online derived nothing")
			}
			layered, err := Layered(build(), store, g)
			if err != nil {
				t.Fatal(err)
			}
			if got := orderedKeys(layered.Relation("got")); !slices.Equal(got, online) {
				t.Errorf("layered %d tuples differ from online %d in insertion order", len(got), len(online))
			}
			naive, err := Naive(build(), store, g, 0)
			if err != nil {
				t.Fatal(err)
			}
			got := orderedKeys(naive.Relation("got"))
			slices.Sort(got)
			want := slices.Clone(online)
			slices.Sort(want)
			if !slices.Equal(got, want) {
				t.Errorf("naive %d tuples differ from online %d as sets", len(got), len(want))
			}
		})
	}
}

// observeFixture is one synthetic superstep over a fixed small graph: every
// vertex computed, changed its value, received msgsPer messages and emitted
// a prov_error and a prov_prediction fact about each sender, as ALS does —
// the first quarter of the vertices none (so Query 6 has silent changes).
// Every other prediction is out of Query 7's range. The records are split
// over four partitions (vertex mod 4), as the engine hands them to
// ObservePartition.
func observeFixture(g *graph.Graph, msgsPer int) (*engine.SuperstepView, [][]engine.VertexRecord) {
	n := g.NumVertices()
	parts := make([][]engine.VertexRecord, 4)
	for v := 0; v < n; v++ {
		r := engine.VertexRecord{ID: engine.VertexID(v), Superstep: 5, PrevActive: 4,
			OldValue: value.NewFloat(float64(v)), NewValue: value.NewFloat(float64(v) + 1)}
		for j := 0; j < msgsPer && v >= n/4; j++ {
			src := engine.VertexID((v + j + 1) % n)
			r.Received = append(r.Received, engine.IncomingMessage{Src: src, Val: value.NewFloat(float64(j))})
			pred := float64(j % 4)
			if j%2 == 1 {
				pred = -pred
			}
			peer := value.NewInt(int64(src))
			r.Emitted = append(r.Emitted,
				engine.ProvFact{Table: "prov_prediction", Args: []value.Value{peer, value.NewFloat(pred)}},
				engine.ProvFact{Table: "prov_error", Args: []value.Value{peer, value.NewFloat(pred - 1)}})
		}
		parts[v%4] = append(parts[v%4], r)
	}
	return &engine.SuperstepView{Superstep: 5}, parts
}

// observe drives one superstep through o the way the engine does: each
// partition's records through ObservePartition, then ObserveSuperstep.
func observe(o *Online, view *engine.SuperstepView, parts [][]engine.VertexRecord) error {
	for p, recs := range parts {
		o.ObservePartition(p, view.Superstep, recs)
	}
	return o.ObserveSuperstep(view)
}

// observeAllocs measures the steady-state allocations of one observed
// superstep (AllocsPerRun's warm-up call derives the new tuples; every later
// call re-derives duplicates only), and counts the tuples derived.
func observeAllocs(t *testing.T, def queries.Definition, g *graph.Graph, msgsPer int) (float64, int64) {
	o, err := NewOnline(def.MustBuild(), g)
	if err != nil {
		t.Fatal(err)
	}
	if !o.UsesCompiledPath() {
		t.Fatalf("%s must run as a compiled vertex program", def.Name)
	}
	view, parts := observeFixture(g, msgsPer)
	var runErr error
	allocs := testing.AllocsPerRun(20, func() {
		if err := observe(o, view, parts); err != nil {
			runErr = err
		}
	})
	if runErr != nil {
		t.Fatal(runErr)
	}
	return allocs, o.PiggybackTuples
}

// TestObserveSuperstepAllocsFlat pins the zero-copy online path: the views
// borrow the engine's records and a duplicate derivation allocates nothing,
// so the allocations of a superstep must not grow with its message count —
// nor, for Query 7, whose record pass buckets each record's facts by table
// and buffers its same-head branches, with its fact count.
func TestObserveSuperstepAllocsFlat(t *testing.T) {
	g, err := gen.RMAT(gen.DefaultRMAT(6, 4, 3))
	if err != nil {
		t.Fatal(err)
	}
	for _, def := range []queries.Definition{queries.PageRankCheck(), queries.SilentChange(), queries.ALSRangeCheck()} {
		base, _ := observeAllocs(t, def, g, 8)
		doubled, derived := observeAllocs(t, def, g, 16)
		t.Logf("%s: %.0f allocs/superstep at 8 msgs and facts per vertex, %.0f at 16 (%d tuples derived)", def.Name, base, doubled, derived)
		if def.Name == queries.ALSRangeCheck().Name && derived == 0 {
			t.Errorf("%s derived nothing from the fixture's facts", def.Name)
		}
		if doubled > base {
			t.Errorf("%s: allocations grow with the message and fact count: %.0f -> %.0f per superstep", def.Name, base, doubled)
		}
	}
}

// BenchmarkOnlineObserve measures one steady-state online superstep of
// Query 6 (a duplicate neighbor_change derivation per received message)
// over a fixed graph, through ObservePartition on four partitions (run one
// after the other here) and the barrier's ObserveSuperstep. Its allocs/op is
// the benchjson online_observe_allocs gate, which must stay zero.
func BenchmarkOnlineObserve(b *testing.B) {
	g, err := gen.RMAT(gen.DefaultRMAT(8, 8, 3))
	if err != nil {
		b.Fatal(err)
	}
	o, err := NewOnline(queries.SilentChange().MustBuild(), g)
	if err != nil {
		b.Fatal(err)
	}
	view, parts := observeFixture(g, 16)
	if err := observe(o, view, parts); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := observe(o, view, parts); err != nil {
			b.Fatal(err)
		}
	}
}
