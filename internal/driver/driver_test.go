package driver

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"ariadne/internal/capture"
	"ariadne/internal/engine"
	"ariadne/internal/gen"
	"ariadne/internal/graph"
	"ariadne/internal/pql"
	"ariadne/internal/pql/analysis"
	"ariadne/internal/provenance"
	"ariadne/internal/queries"
	"ariadne/internal/value"
)

// captureSSSP runs a tiny SSSP under full capture and returns the store.
func captureSSSP(t *testing.T, scale int) (*graph.Graph, *provenance.Store) {
	t.Helper()
	g, err := gen.RMAT(gen.DefaultRMAT(scale, 4, 11))
	if err != nil {
		t.Fatal(err)
	}
	store := provenance.NewStore(provenance.StoreConfig{})
	obs := capture.NewObserver(capture.FullPolicy(), store)
	e, err := engine.New(g, ssspProg{}, engine.Config{Observers: []engine.Observer{obs}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	return g, store
}

func TestNaiveEqualsLayered(t *testing.T) {
	g, store := captureSSSP(t, 6)
	def := queries.Apt(0.1, nil)
	q1, err := def.Build()
	if err != nil {
		t.Fatal(err)
	}
	layered, err := Layered(q1, store, g)
	if err != nil {
		t.Fatal(err)
	}
	q2, err := queries.Apt(0.1, nil).Build()
	if err != nil {
		t.Fatal(err)
	}
	naive, err := Naive(q2, store, g, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, pred := range []string{"change", "neighbor_change", "no_execute", "safe", "unsafe"} {
		l, n := layered.Relation(pred), naive.Relation(pred)
		if l.Len() != n.Len() {
			t.Errorf("%s: layered %d vs naive %d", pred, l.Len(), n.Len())
		}
	}
	if layered.Facts <= 0 || naive.Facts <= 0 {
		t.Error("fact accounting missing")
	}
	if naive.DBBytes() <= 0 {
		t.Error("db size accounting missing")
	}
	// DerivedRelations lists only IDBs.
	rels := naive.DerivedRelations()
	names := map[string]bool{}
	for _, ri := range rels {
		names[ri.Name] = true
	}
	if !names["safe"] || names["receive_message"] {
		t.Errorf("derived relations wrong: %v", rels)
	}
}

func TestLayeredRejectsMixed(t *testing.T) {
	g, store := captureSSSP(t, 5)
	env := analysis.NewEnv()
	prog, err := pql.Parse(`
t(X, I) :- value(X, D, I).
m(X, I) :- t(Y, I), receive_message(X, Y, M, I),
           t(Z, I), send_message(X, Z, M2, I).`)
	if err != nil {
		t.Fatal(err)
	}
	q, err := analysis.Analyze(prog, env)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Layered(q, store, g); err == nil || !strings.Contains(err.Error(), "mixed") {
		t.Errorf("want mixed rejection, got %v", err)
	}
	// Naive handles it.
	if _, err := Naive(q, store, g, 0); err != nil {
		t.Errorf("naive should evaluate mixed queries: %v", err)
	}
}

func TestOnlineRejectsBackward(t *testing.T) {
	g, _ := captureSSSP(t, 5)
	q, err := queries.BackwardTrace(0, 3).Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewOnline(q, g); err == nil {
		t.Error("backward query must not run online")
	}
}

// lateJoin is a global rule whose join completes across supersteps: a
// vertex's pair (I, J) exists once it has run at both.
const lateJoin = `
seen(X, I) :- superstep(X, I).
pair(X, I, J) :- seen(X, I), seen(X, J), I < J.
`

// runOnlineSSSP runs SSSP on g with observers attached.
func runOnlineSSSP(t *testing.T, g *graph.Graph, observers ...engine.Observer) {
	t.Helper()
	e, err := engine.New(g, ssspProg{}, engine.Config{Observers: observers})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestOnlinePiggybackCounting: every tuple an online query derives is
// counted as piggyback in the superstep that derives it, so the total equals
// the derived relations' sizes — for Query 1 and for a global rule whose
// joins complete in later supersteps.
func TestOnlinePiggybackCounting(t *testing.T) {
	g, err := gen.RMAT(gen.DefaultRMAT(6, 4, 3))
	if err != nil {
		t.Fatal(err)
	}
	for name, q := range map[string]*analysis.Query{
		"apt":       queries.Apt(0.1, nil).MustBuild(),
		"late-join": analysis.MustAnalyze(lateJoin, analysis.NewEnv()),
	} {
		o, err := NewOnline(q, g)
		if err != nil {
			t.Fatal(err)
		}
		runOnlineSSSP(t, g, o)
		var derived int64
		for _, ri := range o.Result().DerivedRelations() {
			derived += int64(ri.Count)
		}
		if o.PiggybackTuples <= 0 || o.PiggybackTuples != derived {
			t.Errorf("%s: %d piggyback tuples, %d derived", name, o.PiggybackTuples, derived)
		}
		if name == "apt" && o.Reads()&engine.FieldReceived == 0 {
			t.Error("apt references receive_message, needs raw delivery")
		}
	}
}

// lockstep is a compiled Online that, after each superstep it observes,
// compares pred with a materialised Online observed before it.
type lockstep struct {
	*Online
	ref      *Online
	pred     string
	t        *testing.T
	compared int
}

func (l *lockstep) ObserveSuperstep(v *engine.SuperstepView) error {
	if err := l.Online.ObserveSuperstep(v); err != nil {
		return err
	}
	want, got := resultSig(l.ref.Result())[l.pred], resultSig(l.Result())[l.pred]
	requireSameSig(l.t, fmt.Sprintf("superstep %d", v.Superstep), map[string][]string{l.pred: want}, map[string][]string{l.pred: got})
	l.compared++
	return nil
}

// TestOnlineLateJoinMatchesMaterialised: a compiled global rule has its
// answers at every barrier, as the materialised Evaluator does — pair holds
// each vertex's superstep pairs as soon as the later superstep has run, not
// only at the end of the run.
func TestOnlineLateJoinMatchesMaterialised(t *testing.T) {
	g, err := gen.RMAT(gen.DefaultRMAT(6, 4, 3))
	if err != nil {
		t.Fatal(err)
	}
	build := func() *analysis.Query { return analysis.MustAnalyze(lateJoin, analysis.NewEnv()) }
	ref, err := NewOnline(build(), g, materialised())
	if err != nil {
		t.Fatal(err)
	}
	o, err := NewOnline(build(), g)
	if err != nil {
		t.Fatal(err)
	}
	if !o.UsesCompiledPath() || ref.UsesCompiledPath() {
		t.Fatal("want one compiled and one materialised leg")
	}
	l := &lockstep{Online: o, ref: ref, pred: "pair", t: t}
	runOnlineSSSP(t, g, ref, l)
	if l.compared < 2 || o.Result().Relation("pair").Len() == 0 {
		t.Errorf("compared %d supersteps, pair has %d tuples", l.compared, o.Result().Relation("pair").Len())
	}
}

// TestOnlineLateJoinResumes: a global rule's delta cursors are not saved —
// every barrier leaves them at their relations' ends — so an online run of
// the late-join query resumed from a mid-run checkpoint derives what the
// uninterrupted run does, in the same order.
func TestOnlineLateJoinResumes(t *testing.T) {
	g, err := gen.RMAT(gen.DefaultRMAT(6, 4, 3))
	if err != nil {
		t.Fatal(err)
	}
	build := func() *analysis.Query { return analysis.MustAnalyze(lateJoin, analysis.NewEnv()) }
	newOnline := func() *Online {
		o, err := NewOnline(build(), g)
		if err != nil {
			t.Fatal(err)
		}
		return o
	}
	const at = 3
	ck := &checkpointAt{Online: newOnline(), at: at}
	runOnlineSSSP(t, g, ck)
	if ck.blob == nil {
		t.Fatal("no checkpoint taken")
	}
	resumed := &resumeAt{Online: newOnline(), at: at, blob: ck.blob}
	runOnlineSSSP(t, g, resumed)
	requireSameSig(t, "resumed", relationKeys(ck.Result(), false), relationKeys(resumed.Result(), false))
}

func TestNeedsOf(t *testing.T) {
	env := analysis.NewEnv()
	env.DeclareEDB("prov_error", 4)
	prog, err := pql.Parse(`
p(X, I) :- superstep(X, I), value(X, D, I), prov_error(X, Y, E, I),
           edge(Y, X), edge_value(X, Y, W, I), prov_send(X, I),
           evolution(X, J, I).`)
	if err != nil {
		t.Fatal(err)
	}
	q, err := analysis.Analyze(prog, env)
	if err != nil {
		t.Fatal(err)
	}
	n := needsOf(q)
	if !n.superstep || !n.value || !n.evolution || !n.edge || !n.edgeValue || !n.provSend || !n.emitted["prov_error"] {
		t.Errorf("needs = %+v", n)
	}
	if n.recv || n.send {
		t.Errorf("query does not reference messages: %+v", n)
	}
}

func TestFeederSkipsUnneededFacts(t *testing.T) {
	g, store := captureSSSP(t, 5)
	// Query referencing only superstep feeds far fewer facts than one
	// referencing messages too — the evaluation-side benefit of customized
	// capture.
	narrowDef := queries.Definition{
		Name:   "narrow",
		Source: `active(X, I) :- superstep(X, I).`,
		Env:    analysis.NewEnv(),
	}
	// Naive always takes the interpretive feeder path, where the filtering
	// is observable in the fact counts.
	narrowQ, err := narrowDef.Build()
	if err != nil {
		t.Fatal(err)
	}
	narrow, err := Naive(narrowQ, store, g, 0)
	if err != nil {
		t.Fatal(err)
	}
	wideQ, err := queries.MonotoneCheck().Build()
	if err != nil {
		t.Fatal(err)
	}
	wide, err := Naive(wideQ, store, g, 0)
	if err != nil {
		t.Fatal(err)
	}
	if narrow.Facts >= wide.Facts {
		t.Errorf("narrow query fed %d facts, wide %d — feeder not filtering", narrow.Facts, wide.Facts)
	}
}

func TestLayeredOnSpilledStore(t *testing.T) {
	g, err := gen.RMAT(gen.DefaultRMAT(6, 4, 17))
	if err != nil {
		t.Fatal(err)
	}
	store := provenance.NewStore(provenance.StoreConfig{SpillDir: t.TempDir(), SpillAll: true})
	defer store.Close()
	obs := capture.NewObserver(capture.FullPolicy(), store)
	e, err := engine.New(g, ssspProg{}, engine.Config{Observers: []engine.Observer{obs}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if store.SpilledLayers() != store.NumLayers() {
		t.Fatalf("SpillAll should spill every layer: %d of %d", store.SpilledLayers(), store.NumLayers())
	}
	if store.ResidentBytes() != 0 {
		t.Errorf("resident bytes = %d, want 0", store.ResidentBytes())
	}
	q, err := queries.MonotoneCheck().Build()
	if err != nil {
		t.Fatal(err)
	}
	res, err := Layered(q, store, g)
	if err != nil {
		t.Fatal(err)
	}
	if res.Facts == 0 {
		t.Error("no facts read back from spilled layers")
	}
}

func TestRetentionSuppliesEvolutionValues(t *testing.T) {
	// Hand-build a store where a vertex is active at supersteps 0 and 5 —
	// layered evaluation must still join value(x, d2, 0) via retention at
	// layer 5 even though layer 0 is long gone.
	g, err := graph.NewFromEdges(2, []graph.Edge{{Src: 0, Dst: 1, Weight: 1}})
	if err != nil {
		t.Fatal(err)
	}
	store := provenance.NewStore(provenance.StoreConfig{})
	mk := func(ss int, recs ...provenance.Record) {
		if err := store.AppendLayer(&provenance.Layer{Superstep: ss, Records: recs}); err != nil {
			t.Fatal(err)
		}
	}
	mk(0, provenance.Record{Vertex: 1, PrevActive: -1, HasValue: true, Value: value.NewFloat(10)})
	mk(1)
	mk(2)
	mk(3)
	mk(4)
	mk(5, provenance.Record{
		Vertex: 1, PrevActive: 0, HasValue: true, Value: value.NewFloat(3),
		Recvs: []provenance.MsgHalf{{Peer: 0, Val: value.NewFloat(3)}},
	})
	env := analysis.NewEnv()
	def := queries.Definition{
		Name: "drop",
		Source: `
dropped(X, D1, D2, I) :- value(X, D1, I), value(X, D2, J),
                         evolution(X, J, I), D1 < D2.`,
		Env: env,
	}
	q, err := def.Build()
	if err != nil {
		t.Fatal(err)
	}
	res, err := Layered(q, store, g)
	if err != nil {
		t.Fatal(err)
	}
	rel := res.Relation("dropped")
	if rel.Len() != 1 {
		t.Fatalf("dropped = %v", rel.All())
	}
	row := rel.All()[0]
	if row[1].Float() != 3 || row[2].Float() != 10 || row[3].Int() != 5 {
		t.Errorf("row = %v", row)
	}
}

// TestUDFErrorFormatIsOne pins the one format a failing UDF call is reported
// in — `pql: <pos>: <name>: <err>` — by running the same failing udf_diff
// through the online driver (record-sourced lowering) and the naive driver
// (materialised lowering): both share the term compiler, so both wrap alike.
func TestUDFErrorFormatIsOne(t *testing.T) {
	g, store := captureSSSP(t, 5)
	def := func() *analysis.Query {
		q, err := queries.Apt(0.1, func(a, b value.Value) (float64, error) {
			return 0, errors.New("diff exploded")
		}).Build()
		if err != nil {
			t.Fatal(err)
		}
		return q
	}
	pqlPart := func(err error) string {
		if err == nil {
			t.Fatal("the failing UDF did not fail the evaluation")
		}
		i := strings.Index(err.Error(), "pql: ")
		if i < 0 {
			t.Fatalf("error carries no pql position: %v", err)
		}
		return err.Error()[i:]
	}

	o, err := NewOnline(def(), g)
	if err != nil {
		t.Fatal(err)
	}
	if !o.UsesCompiledPath() {
		t.Fatal("apt should run record-sourced online")
	}
	e, err := engine.New(g, ssspProg{}, engine.Config{Observers: []engine.Observer{o}})
	if err != nil {
		t.Fatal(err)
	}
	_, onlineErr := e.Run()
	_, naiveErr := Naive(def(), store, g, 0)

	online, naive := pqlPart(onlineErr), pqlPart(naiveErr)
	if online != naive {
		t.Errorf("UDF error formats differ:\nonline: %s\nnaive:  %s", online, naive)
	}
	if !strings.HasSuffix(online, ": udf_diff: diff exploded") {
		t.Errorf("UDF error %q, want pql: <pos>: udf_diff: diff exploded", online)
	}
}
