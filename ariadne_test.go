package ariadne_test

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"ariadne"
	"ariadne/internal/analytics"
	"ariadne/internal/capture"
	"ariadne/internal/driver"
	"ariadne/internal/engine"
	"ariadne/internal/gen"
	"ariadne/internal/graph"
	"ariadne/internal/provenance"
	"ariadne/internal/queries"
	"ariadne/internal/value"
)

func testGraph(t *testing.T, scale int, deg float64, seed int64) *ariadne.Graph {
	t.Helper()
	g, err := gen.RMAT(gen.DefaultRMAT(scale, deg, seed))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestRunBaseline(t *testing.T) {
	g := testGraph(t, 8, 6, 1)
	res, err := ariadne.Run(g, &analytics.PageRank{}, ariadne.WithMaxSupersteps(21))
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Supersteps != 21 {
		t.Errorf("supersteps = %d", res.Stats.Supersteps)
	}
	if res.Provenance != nil {
		t.Error("no capture requested, store should be nil")
	}
	if res.Duration <= 0 {
		t.Error("duration not measured")
	}
}

func TestOnlineMonitoringCleanRun(t *testing.T) {
	g := testGraph(t, 8, 6, 2)
	g.BuildInEdges()
	res, err := ariadne.Run(g, &analytics.PageRank{},
		ariadne.WithMaxSupersteps(21),
		ariadne.WithOnlineQuery(queries.PageRankCheck()))
	if err != nil {
		t.Fatal(err)
	}
	qr := res.Query("q4-pagerank-check")
	if qr == nil {
		t.Fatal("online query result missing")
	}
	// Clean PageRank sends only along real edges: no failures.
	if n := ariadne.Count(qr, "check_failed"); n != 0 {
		t.Errorf("clean run flagged %d failures: %v", n, ariadne.Tuples(qr, "check_failed")[:min(3, n)])
	}
}

// strayProg sends a message to a vertex that is not a neighbor, the bug
// paper Query 4 exists to catch (§6.2.1).
type strayProg struct {
	inner  ariadne.Program
	target ariadne.VertexID
}

func (s strayProg) InitialValue(g *ariadne.Graph, v ariadne.VertexID) ariadne.Value {
	return s.inner.InitialValue(g, v)
}

func (s strayProg) Compute(ctx *engine.Context, msgs []engine.IncomingMessage) error {
	if err := s.inner.Compute(ctx, msgs); err != nil {
		return err
	}
	if ctx.Superstep() == 1 && ctx.ID() == 0 {
		ctx.SendMessage(s.target, value.NewFloat(0.123))
	}
	return nil
}

// TestOnlineMonitoringCatchesStrayMessage: Query 4 flags the message vertex
// 0 sends vertex 3, which has no in-edge, online and layered, at 1, 4 and 19
// partitions; has_in, whose probes are degree tests, reads as the vertices
// with an in-edge. The online run attaches Query 4 alone, so the engine
// builds only the receives it reads; the layered leg reads a second run's
// full capture. (The materialised evaluator's legs are in internal/driver's
// TestStaticViewLegs.)
func TestOnlineMonitoringCatchesStrayMessage(t *testing.T) {
	// Vertex 3 has an out-edge and no in-edge; vertex 0 messages it anyway.
	edges := []graph.Edge{{Src: 1, Dst: 0, Weight: 1}, {Src: 0, Dst: 1, Weight: 1}, {Src: 2, Dst: 0, Weight: 1}, {Src: 0, Dst: 2, Weight: 1}, {Src: 3, Dst: 0, Weight: 1}}
	g, err := graph.NewFromEdges(4, edges)
	if err != nil {
		t.Fatal(err)
	}
	for _, parts := range []int{1, 4, 19} {
		res, err := ariadne.Run(g, strayProg{inner: &analytics.PageRank{}, target: 3},
			ariadne.WithPartitions(parts),
			ariadne.WithMaxSupersteps(10),
			ariadne.WithOnlineQuery(queries.PageRankCheck()))
		if err != nil {
			t.Fatal(err)
		}
		captured, err := ariadne.Run(g, strayProg{inner: &analytics.PageRank{}, target: 3},
			ariadne.WithPartitions(parts),
			ariadne.WithMaxSupersteps(10),
			ariadne.WithCaptureQuery(queries.CaptureFull(), ariadne.StoreConfig{}))
		if err != nil {
			t.Fatal(err)
		}
		layered, err := ariadne.QueryOffline(queries.PageRankCheck(), captured.Provenance, g, ariadne.ModeLayered, 0)
		if err != nil {
			t.Fatal(err)
		}
		captured.Provenance.Close()
		for leg, qr := range map[string]*ariadne.QueryResult{"online": res.Query("q4-pagerank-check"), "layered": layered} {
			rows := ariadne.Tuples(qr, "check_failed")
			// check_failed(X=3, Y=0, I=2): receiver 3, sender 0.
			if len(rows) != 1 || rows[0][0].Int() != 3 || rows[0][1].Int() != 0 || rows[0][2].Int() != 2 {
				t.Errorf("parts=%d %s: check_failed %v, want the stray message (3, 0, 2)", parts, leg, rows)
			}
			if got := fmt.Sprint(ariadne.Tuples(qr, "has_in")); got != "[[0] [1] [2]]" {
				t.Errorf("parts=%d %s: has_in %s, want the vertices with an in-edge", parts, leg, got)
			}
		}
	}
}

func TestOnlineSSSPCorruptedInput(t *testing.T) {
	g := testGraph(t, 7, 5, 3)
	bad, err := gen.CorruptWeights(g, 50)
	if err != nil {
		t.Fatal(err)
	}
	clean, err := ariadne.Run(g, &analytics.SSSP{Source: 0},
		ariadne.WithOnlineQuery(queries.MonotoneCheck()))
	if err != nil {
		t.Fatal(err)
	}
	if n := ariadne.Count(clean.Query("q5-monotone-check"), "check_failed"); n != 0 {
		t.Errorf("clean SSSP flagged %d failures", n)
	}
	corrupted, err := ariadne.Run(bad, &analytics.SSSP{Source: 0},
		ariadne.WithMaxSupersteps(12), // negative cycles would run long
		ariadne.WithOnlineQuery(queries.MonotoneCheck()))
	if err != nil {
		t.Fatal(err)
	}
	if n := ariadne.Count(corrupted.Query("q5-monotone-check"), "check_failed"); n == 0 {
		t.Error("corrupted SSSP not flagged")
	}
}

func TestSilentChangeQueryOnWCC(t *testing.T) {
	g := testGraph(t, 8, 4, 4).Undirected()
	res, err := ariadne.Run(g, analytics.WCC{},
		ariadne.WithOnlineQuery(queries.SilentChange()))
	if err != nil {
		t.Fatal(err)
	}
	if n := ariadne.Count(res.Query("q6-silent-change"), "problem"); n != 0 {
		t.Errorf("clean WCC flagged %d problems", n)
	}
}

func TestCaptureFullAndOfflineQuery(t *testing.T) {
	g := testGraph(t, 7, 5, 5)
	res, err := ariadne.Run(g, &analytics.SSSP{Source: 0},
		ariadne.WithCaptureQuery(queries.CaptureFull(), ariadne.StoreConfig{}))
	if err != nil {
		t.Fatal(err)
	}
	store := res.Provenance
	if store == nil || store.NumLayers() == 0 {
		t.Fatal("nothing captured")
	}
	if store.TotalBytes() <= g.MemSize() {
		t.Errorf("full provenance (%d B) should exceed input graph (%d B)", store.TotalBytes(), g.MemSize())
	}

	// Offline apt query, layered vs naive must agree.
	def := queries.Apt(0.1, nil)
	layered, err := ariadne.QueryOffline(def, store, g, ariadne.ModeLayered, 0)
	if err != nil {
		t.Fatal(err)
	}
	naive, err := ariadne.QueryOffline(queries.Apt(0.1, nil), store, g, ariadne.ModeNaive, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, pred := range []string{"safe", "unsafe", "no_execute"} {
		l, n := layered.Relation(pred), naive.Relation(pred)
		if l.Len() != n.Len() {
			t.Errorf("%s: layered %d vs naive %d tuples", pred, l.Len(), n.Len())
			continue
		}
		for _, tup := range l.All() {
			if !n.Contains(tup) {
				t.Errorf("%s: layered tuple %v missing from naive", pred, tup)
			}
		}
	}
}

func TestOnlineAgreesWithOffline(t *testing.T) {
	// Theorem 5.4: online query result == offline query over captured
	// provenance, and the analytic result is unchanged by the query.
	g := testGraph(t, 7, 5, 6)
	def := queries.Apt(0.05, nil)

	base, err := ariadne.Run(g, &analytics.SSSP{Source: 0})
	if err != nil {
		t.Fatal(err)
	}
	online, err := ariadne.Run(g, &analytics.SSSP{Source: 0},
		ariadne.WithOnlineQuery(queries.Apt(0.05, nil)),
		ariadne.WithCaptureQuery(queries.CaptureFull(), ariadne.StoreConfig{}))
	if err != nil {
		t.Fatal(err)
	}
	// (i) analytic result unchanged.
	for v := range base.Values {
		if !base.Values[v].Equal(online.Values[v]) {
			t.Fatalf("query evaluation changed the analytic at vertex %d", v)
		}
	}
	// (ii) online result == offline layered result on the captured graph.
	offline, err := ariadne.QueryOffline(def, online.Provenance, g, ariadne.ModeLayered, 0)
	if err != nil {
		t.Fatal(err)
	}
	onres := online.Query("apt")
	for _, pred := range []string{"safe", "unsafe", "no_execute", "change"} {
		o, f := onres.Relation(pred), offline.Relation(pred)
		if o.Len() != f.Len() {
			t.Errorf("%s: online %d vs offline %d", pred, o.Len(), f.Len())
			continue
		}
		for _, tup := range o.All() {
			if !f.Contains(tup) {
				t.Errorf("%s: online tuple %v missing offline", pred, tup)
			}
		}
	}
}

func TestCustomCaptureSmaller(t *testing.T) {
	// Table 4: forward-lineage capture is a fraction of full capture.
	g := testGraph(t, 8, 6, 7)
	full, err := ariadne.Run(g, &analytics.SSSP{Source: 0},
		ariadne.WithCaptureQuery(queries.CaptureFull(), ariadne.StoreConfig{}))
	if err != nil {
		t.Fatal(err)
	}
	cust, err := ariadne.Run(g, &analytics.SSSP{Source: 0},
		ariadne.WithCaptureQuery(queries.CaptureForwardLineage(0), ariadne.StoreConfig{}))
	if err != nil {
		t.Fatal(err)
	}
	if cust.Provenance.TotalBytes() >= full.Provenance.TotalBytes() {
		t.Errorf("custom capture %d B should be smaller than full %d B",
			cust.Provenance.TotalBytes(), full.Provenance.TotalBytes())
	}
	// The source's lineage should still reach most of the connected graph.
	if cust.Provenance.DistinctVertices() < g.NumVertices()/2 {
		t.Errorf("lineage covers only %d of %d vertices", cust.Provenance.DistinctVertices(), g.NumVertices())
	}
}

func TestBackwardLineageFullVsCustom(t *testing.T) {
	g := testGraph(t, 7, 5, 8)
	// Full capture + Query 10.
	full, err := ariadne.Run(g, &analytics.SSSP{Source: 0},
		ariadne.WithCaptureQuery(queries.CaptureFull(), ariadne.StoreConfig{}))
	if err != nil {
		t.Fatal(err)
	}
	// Pick a vertex active in the last superstep.
	lastLayer, err := full.Provenance.Layer(full.Provenance.NumLayers() - 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(lastLayer.Records) == 0 {
		t.Fatal("no vertex active in last superstep")
	}
	target := lastLayer.Records[0].Vertex
	sigma := lastLayer.Superstep

	q10, err := ariadne.QueryOffline(queries.BackwardTrace(target, sigma), full.Provenance, g, ariadne.ModeLayered, 0)
	if err != nil {
		t.Fatal(err)
	}
	traceFull := q10.Relation("back_trace")
	if traceFull.Len() == 0 {
		t.Fatal("empty backward trace")
	}

	// Custom capture (Query 11) + Query 12.
	cust, err := ariadne.Run(g, &analytics.SSSP{Source: 0},
		ariadne.WithCaptureQuery(queries.CaptureBackwardCustom(), ariadne.StoreConfig{}))
	if err != nil {
		t.Fatal(err)
	}
	if cust.Provenance.TotalBytes() >= full.Provenance.TotalBytes() {
		t.Error("Query 11 capture should be smaller than full capture")
	}
	q12, err := ariadne.QueryOffline(queries.BackwardTraceCustom(target, sigma), cust.Provenance, g, ariadne.ModeLayered, 0)
	if err != nil {
		t.Fatal(err)
	}
	traceCustom := q12.Relation("back_trace")
	// Paper: "the result of the query contains the exact same information".
	if traceFull.Len() != traceCustom.Len() {
		t.Errorf("trace sizes differ: full %d vs custom %d", traceFull.Len(), traceCustom.Len())
	}
	for _, tup := range traceFull.All() {
		if !traceCustom.Contains(tup) {
			t.Errorf("custom trace missing %v", tup)
		}
	}
	// Lineage ends at superstep 0.
	for _, tup := range ariadne.Tuples(q10, "back_lineage") {
		_ = tup // rows are (vertex, value at superstep 0)
	}
}

func TestBackwardQueryRejectedOnline(t *testing.T) {
	g := testGraph(t, 6, 4, 9)
	_, err := ariadne.Run(g, &analytics.SSSP{Source: 0},
		ariadne.WithOnlineQuery(queries.BackwardTrace(0, 3)))
	if err == nil {
		t.Fatal("backward query must be rejected online")
	}
}

func TestALSOnlineQueries(t *testing.T) {
	r, err := gen.Bipartite(gen.DefaultBipartite(100, 20, 5, 10))
	if err != nil {
		t.Fatal(err)
	}
	prog := &analytics.ALS{NumUsers: r.NumUsers, Features: 5, Seed: 2}
	res, err := ariadne.Run(r.Graph, prog,
		ariadne.WithMaxSupersteps(8),
		ariadne.WithOnlineQuery(queries.ALSRangeCheck()),
		ariadne.WithOnlineQuery(queries.ALSErrorIncrease(0.5)))
	if err != nil {
		t.Fatal(err)
	}
	// Ratings are in range, so input_failed must be empty; predictions may
	// occasionally leave [0,5] early on, that's what algo_failed reports.
	q7 := res.Query("q7-als-range")
	if n := ariadne.Count(q7, "input_failed"); n != 0 {
		t.Errorf("in-range ratings flagged: %d", n)
	}
	q8 := res.Query("q8-als-error-increase")
	if q8 == nil {
		t.Fatal("query 8 result missing")
	}
	// problem rows are (x, e1, e2, i) with e1 > e2 + eps; sanity-check shape.
	for _, row := range ariadne.Tuples(q8, "problem") {
		if len(row) != 4 {
			t.Fatalf("problem row arity %d", len(row))
		}
		if !(row[1].Float() > row[2].Float()+0.5) {
			t.Errorf("problem row %v violates its own condition", row)
		}
	}
}

func TestALSCaptureBlowup(t *testing.T) {
	// §6.1: full ALS provenance exceeds memory. A tight budget without a
	// spill directory must abort capture with ErrBudgetExceeded.
	r, err := gen.Bipartite(gen.DefaultBipartite(120, 25, 8, 11))
	if err != nil {
		t.Fatal(err)
	}
	prog := &analytics.ALS{NumUsers: r.NumUsers, Features: 10, Seed: 2}
	_, err = ariadne.Run(r.Graph, prog,
		ariadne.WithMaxSupersteps(8),
		ariadne.WithCapture(capture.FullPolicy(), ariadne.StoreConfig{MemoryBudget: 64 * 1024}))
	if !errors.Is(err, provenance.ErrBudgetExceeded) {
		t.Fatalf("want ErrBudgetExceeded, got %v", err)
	}
	// With a spill directory the same run, under the same budget, succeeds.
	res, err := ariadne.Run(r.Graph, prog,
		ariadne.WithMaxSupersteps(8),
		ariadne.WithCapture(capture.FullPolicy(), ariadne.StoreConfig{
			MemoryBudget: 64 * 1024, SpillDir: t.TempDir(),
		}))
	if err != nil {
		t.Fatal(err)
	}
	defer res.Provenance.Close()
	if res.Provenance.SpilledLayers() == 0 {
		t.Error("expected spilled layers under a tight budget")
	}
	// Spilled layers still usable offline.
	qr, err := ariadne.QueryOffline(queries.ALSRangeCheck(), res.Provenance, r.Graph, ariadne.ModeLayered, 0)
	if err != nil {
		t.Fatal(err)
	}
	if n := ariadne.Count(qr, "input_failed"); n != 0 {
		t.Errorf("in-range ratings flagged offline: %d", n)
	}
}

// computeCounter counts the vertex computations of the program it wraps.
type computeCounter struct {
	engine.Program
	calls int
}

func (c *computeCounter) Compute(ctx *engine.Context, msgs []engine.IncomingMessage) error {
	c.calls++
	return c.Program.Compute(ctx, msgs)
}

// TestSpillAllWithoutSpillDirFailsBeforeSuperstepZero: a store that must
// spill every layer but has nowhere to put them is a configuration error,
// reported before the analytic computes anything.
func TestSpillAllWithoutSpillDirFailsBeforeSuperstepZero(t *testing.T) {
	prog := &computeCounter{Program: &analytics.PageRank{Iterations: 3}}
	_, err := ariadne.Run(testGraph(t, 5, 4, 1), prog, ariadne.WithPartitions(1),
		ariadne.WithCapture(capture.FullPolicy(), ariadne.StoreConfig{SpillAll: true}))
	if err == nil {
		t.Fatal("SpillAll without a SpillDir was accepted")
	}
	if prog.calls != 0 {
		t.Errorf("the run computed %d vertices before rejecting the store configuration", prog.calls)
	}
}

func TestAptQueryGuidesOptimization(t *testing.T) {
	// §6.2.2 shape: PageRank and SSSP have safe vertices and no unsafe
	// ones; WCC's no-execute set is entirely unsafe.
	g := testGraph(t, 7, 6, 12)

	pr, err := ariadne.Run(g, &analytics.PageRank{}, ariadne.WithMaxSupersteps(21),
		ariadne.WithOnlineQuery(queries.Apt(0.01, nil)))
	if err != nil {
		t.Fatal(err)
	}
	prSafe := ariadne.Count(pr.Query("apt"), "safe")
	prUnsafe := ariadne.Count(pr.Query("apt"), "unsafe")
	if prSafe == 0 {
		t.Error("PageRank should have safe vertices at eps=0.01")
	}
	if prUnsafe > prSafe/10 {
		t.Errorf("PageRank unsafe=%d should be rare vs safe=%d", prUnsafe, prSafe)
	}

	// The paper's per-analytic contrast (§6.2.2): PageRank has a huge safe
	// set; WCC's is negligible, so the optimization is not worth pursuing
	// there. (At web scale the paper additionally finds WCC's skips
	// positively unsafe; our scaled graphs make them merely useless.)
	prExecutions := 0
	for _, a := range pr.Stats.ActiveVertices {
		prExecutions += a
	}
	if float64(prSafe)/float64(prExecutions) < 0.10 {
		t.Errorf("PageRank safe fraction %.2f too small", float64(prSafe)/float64(prExecutions))
	}
	wcc, err := ariadne.Run(g.Undirected(), analytics.WCC{},
		ariadne.WithOnlineQuery(queries.Apt(1, nil)))
	if err != nil {
		t.Fatal(err)
	}
	wccSafe := ariadne.Count(wcc.Query("apt"), "safe")
	wccExecutions := 0
	for _, a := range wcc.Stats.ActiveVertices {
		wccExecutions += a
	}
	wccFrac := float64(wccSafe) / float64(wccExecutions)
	prFrac := float64(prSafe) / float64(prExecutions)
	if wccFrac > 0.10 || wccFrac > prFrac/3 {
		t.Errorf("WCC safe fraction %.2f should be negligible vs PageRank's %.2f (safe=%d of %d executions)",
			wccFrac, prFrac, wccSafe, wccExecutions)
	}
}

func TestClassify(t *testing.T) {
	cases := []struct {
		def  ariadne.QueryDef
		want string
	}{
		{queries.Apt(0.1, nil), "forward"},
		{queries.PageRankCheck(), "local"},
		{queries.MonotoneCheck(), "local"},
		{queries.BackwardTrace(0, 5), "backward"},
		{queries.BackwardTraceCustom(0, 5), "backward"},
		{queries.CaptureForwardLineage(0), "forward"},
	}
	for _, c := range cases {
		got, vc, err := ariadne.Classify(c.def)
		if err != nil {
			t.Errorf("%s: %v", c.def.Name, err)
			continue
		}
		if got != c.want || !vc {
			t.Errorf("%s: class %q vc=%v, want %q vc=true", c.def.Name, got, vc, c.want)
		}
	}
}

func TestNaiveBudgetFails(t *testing.T) {
	g := testGraph(t, 8, 6, 13)
	res, err := ariadne.Run(g, &analytics.SSSP{Source: 0},
		ariadne.WithCaptureQuery(queries.CaptureFull(), ariadne.StoreConfig{}))
	if err != nil {
		t.Fatal(err)
	}
	_, err = ariadne.QueryOffline(queries.Apt(0.1, nil), res.Provenance, g, ariadne.ModeNaive, 1024)
	if !errors.Is(err, driver.ErrNaiveBudget) {
		t.Fatalf("want ErrNaiveBudget, got %v", err)
	}
}

func TestRunOptionErrors(t *testing.T) {
	g := testGraph(t, 5, 3, 14)
	_, err := ariadne.Run(g, &analytics.PageRank{},
		ariadne.WithCapture(capture.FullPolicy(), ariadne.StoreConfig{}),
		ariadne.WithCaptureQuery(queries.CaptureFull(), ariadne.StoreConfig{}))
	if err == nil {
		t.Error("double capture should fail")
	}
}

func TestALSOptimizationInconclusive(t *testing.T) {
	// §6.2.2: for ALS the apt query returns too few vertices in either
	// table to justify the optimization.
	r, err := gen.Bipartite(gen.DefaultBipartite(120, 25, 6, 15))
	if err != nil {
		t.Fatal(err)
	}
	prog := &analytics.ALS{NumUsers: r.NumUsers, Features: 5, Seed: 4}
	res, err := ariadne.Run(r.Graph, prog,
		ariadne.WithMaxSupersteps(10),
		ariadne.WithOnlineQuery(queries.Apt(0.001, value.EuclideanDist)))
	if err != nil {
		t.Fatal(err)
	}
	apt := res.Query("apt")
	total := r.Graph.NumVertices() * res.Stats.Supersteps
	if got := ariadne.Count(apt, "safe"); got > total/10 {
		t.Errorf("ALS safe=%d should be scarce", got)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func TestRelativeErrorHelpers(t *testing.T) {
	if math.Abs(1.0) != 1.0 {
		t.Skip("sanity")
	}
}
