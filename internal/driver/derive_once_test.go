package driver

import (
	"slices"
	"strings"
	"testing"

	"ariadne/internal/capture"
	"ariadne/internal/engine"
	"ariadne/internal/gen"
	"ariadne/internal/graph"
	"ariadne/internal/pql/analysis"
	"ariadne/internal/provenance"
	"ariadne/internal/queries"
	"ariadne/internal/value"
)

// onlineWithCapture runs prog over g with q evaluated online and a full
// capture alongside, so the online run and offline evaluation see the same
// provenance.
func onlineWithCapture(t *testing.T, g *graph.Graph, prog engine.Program, def queries.Definition) (*Online, *provenance.Store) {
	t.Helper()
	on, err := NewOnline(def.MustBuild(), g)
	if err != nil {
		t.Fatal(err)
	}
	if !on.UsesCompiledPath() {
		t.Fatalf("%s must run as a compiled vertex program", def.Name)
	}
	store := provenance.NewStore(provenance.StoreConfig{})
	e, err := engine.New(g, prog, engine.Config{Observers: []engine.Observer{on, capture.NewObserver(capture.FullPolicy(), store)}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	return on, store
}

// TestDeriveEachHeadOnce pins the compiled path's work counters on a fixed
// SSSP run, with no wall clock: Query 6 takes exactly one pass per stratum
// per layer, online and layered, and its neighbor_change rule, whose head is
// bound before the message scan, emits once per record that received a
// message — its tuple count. Query 7 (one stratum that derives in every
// superstep) takes one pass per layer.
func TestDeriveEachHeadOnce(t *testing.T) {
	g, err := gen.RMAT(gen.DefaultRMAT(6, 4, 11))
	if err != nil {
		t.Fatal(err)
	}
	q6 := queries.SilentChange()
	on, store := onlineWithCapture(t, g, ssspProg{}, q6)
	n := int64(store.NumLayers())
	received := 0
	for i := 0; i < store.NumLayers(); i++ {
		l, err := store.Layer(i)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range l.Records {
			if len(r.Recvs) > 0 {
				received++
			}
		}
	}
	layered, err := Layered(q6.MustBuild(), store, g)
	if err != nil {
		t.Fatal(err)
	}
	for leg, res := range map[string]*Result{"online": on.Result(), "layered": layered} {
		s := res.CompiledStats()
		if want := []int64{n, n}; !slices.Equal(s.PassesPerStratum, want) {
			t.Errorf("%s: passes per stratum %v, want %v (one per layer)", leg, s.PassesPerStratum, want)
		}
		tuples := res.Relation("neighbor_change").Len()
		if received == 0 || tuples != received || s.Emissions["neighbor_change"] != int64(received) {
			t.Errorf("%s: neighbor_change emitted %d times into %d tuples, want both %d (records with messages)",
				leg, s.Emissions["neighbor_change"], tuples, received)
		}
	}

	q7 := queries.ALSRangeCheck()
	on7, store7 := onlineWithCapture(t, g, emitProg{}, q7)
	layered7, err := Layered(q7.MustBuild(), store7, g)
	if err != nil {
		t.Fatal(err)
	}
	n7 := int64(store7.NumLayers())
	for leg, res := range map[string]*Result{"online": on7.Result(), "layered": layered7} {
		if got := res.CompiledStats().PassesPerStratum; !slices.Equal(got, []int64{n7}) {
			t.Errorf("q7 %s: passes per stratum %v, want [%d]", leg, got, n7)
		}
	}
}

// TestRecursiveStrataStillIterate: a stratum whose rules read its own heads
// still runs to an in-layer fixpoint — more passes than layers, since each
// layer that derives something takes one more pass to see nothing new — and
// derives what naive evaluation derives, for Query 3's forward lineage and
// Query 10's backward trace.
func TestRecursiveStrataStillIterate(t *testing.T) {
	g, store := captureSSSP(t, 6)
	last, err := store.Layer(store.NumLayers() - 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(last.Records) == 0 {
		t.Fatal("no vertex active in the last superstep")
	}
	for _, def := range []queries.Definition{
		queries.CaptureForwardLineage(0),
		queries.BackwardTrace(last.Records[0].Vertex, last.Superstep),
	} {
		res, err := Layered(def.MustBuild(), store, g)
		if err != nil {
			t.Fatal(err)
		}
		passes := res.CompiledStats().PassesPerStratum
		if len(passes) != 1 || passes[0] <= int64(store.NumLayers()) {
			t.Errorf("%s: passes per stratum %v over %d layers, want the recursive stratum to iterate", def.Name, passes, store.NumLayers())
		}
		naive, err := Naive(def.MustBuild(), store, g, 0)
		if err != nil {
			t.Fatal(err)
		}
		requireSameSig(t, def.Name, resultSig(naive), resultSig(res))
	}
}

// mixedProg sends once, at superstep 0: vertex 0 an Int and vertex 1 a
// Float, so a receiver of both reads an Int first (messages arrive in sender
// order) and then a Float.
type mixedProg struct{ ssspProg }

func (mixedProg) Compute(ctx *engine.Context, _ []engine.IncomingMessage) error {
	if ctx.Superstep() > 0 {
		return nil
	}
	switch ctx.ID() {
	case 0:
		ctx.SendToAllNeighbors(value.NewInt(4))
	case 1:
		ctx.SendToAllNeighbors(value.NewFloat(0.5))
	}
	return nil
}

// TestCutKeepsErrorContractDrivers runs the rule whose head is bound before
// its message scan but whose later message fails M mod 2 through every
// driver: online, layered (compiled and materialised) and naive must all
// report the Float's failure, none stopping at the Int witness before it.
func TestCutKeepsErrorContractDrivers(t *testing.T) {
	g, err := graph.NewFromEdges(3, []graph.Edge{{Src: 0, Dst: 2, Weight: 1}, {Src: 1, Dst: 2, Weight: 1}})
	if err != nil {
		t.Fatal(err)
	}
	const src = `g(X, I) :- receive_message(X, Y, M, I), R = M mod 2.`
	build := func() *analysis.Query { return analysis.MustAnalyze(src, analysis.NewEnv()) }
	const want = "value: cannot mod float and int"
	errs := map[string]error{}

	on, err := NewOnline(build(), g)
	if err != nil {
		t.Fatal(err)
	}
	store := provenance.NewStore(provenance.StoreConfig{})
	capObs := capture.NewObserver(capture.FullPolicy(), store)
	// Capture observes first, so the store holds the failing superstep.
	e, err := engine.New(g, mixedProg{}, engine.Config{Observers: []engine.Observer{capObs, on}})
	if err != nil {
		t.Fatal(err)
	}
	_, errs["online"] = e.Run()
	_, errs["layered"] = Layered(build(), store, g)
	_, errs["layered/materialised"] = Layered(build(), store, g, materialised())
	_, errs["naive"] = Naive(build(), store, g, 0)
	for leg, err := range errs {
		if err == nil || !strings.HasSuffix(err.Error(), want) {
			t.Errorf("%s: error %v, want one ending in %q", leg, err, want)
		}
	}
}
