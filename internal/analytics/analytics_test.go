package analytics

import (
	"errors"
	"math"
	"sync"
	"testing"

	"ariadne/internal/engine"
	"ariadne/internal/gen"
	"ariadne/internal/graph"
	"ariadne/internal/value"
)

func mustGraph(t *testing.T, n int, edges []graph.Edge) *graph.Graph {
	t.Helper()
	g, err := graph.NewFromEdges(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func run(t *testing.T, g *graph.Graph, prog engine.Program, cfg engine.Config) *engine.Engine {
	t.Helper()
	e, err := engine.New(g, prog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	return e
}

// --- PageRank ---

func TestPageRankRankConservation(t *testing.T) {
	// Strongly connected triangle + chord; no dangling vertices, so total
	// un-normalized rank is conserved at N.
	g := mustGraph(t, 3, []graph.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 2, Dst: 0}, {Src: 0, Dst: 2}})
	e := run(t, g, &PageRank{Iterations: 40}, engine.Config{MaxSupersteps: 41})
	var sum float64
	for _, v := range e.Values() {
		sum += v.Float()
	}
	if math.Abs(sum-3) > 1e-6 {
		t.Errorf("rank sum = %v, want 3", sum)
	}
}

func TestPageRankCycleUniform(t *testing.T) {
	// On a directed cycle every vertex converges to rank 1.
	n := 5
	edges := make([]graph.Edge, n)
	for i := 0; i < n; i++ {
		edges[i] = graph.Edge{Src: engine.VertexID(i), Dst: engine.VertexID((i + 1) % n)}
	}
	g := mustGraph(t, n, edges)
	e := run(t, g, &PageRank{Iterations: 25}, engine.Config{MaxSupersteps: 26})
	for v, val := range e.Values() {
		if math.Abs(val.Float()-1) > 1e-9 {
			t.Errorf("rank[%d] = %v, want 1", v, val)
		}
	}
}

func TestPageRankHubGetsMoreRank(t *testing.T) {
	// Cycle 1->2->3->1 with all three also pointing at hub 0 (and 0->1 so
	// every vertex keeps receiving). Hub collects three streams of rank.
	g := mustGraph(t, 4, []graph.Edge{
		{Src: 1, Dst: 2}, {Src: 2, Dst: 3}, {Src: 3, Dst: 1},
		{Src: 1, Dst: 0}, {Src: 2, Dst: 0}, {Src: 3, Dst: 0},
		{Src: 0, Dst: 1},
	})
	e := run(t, g, &PageRank{}, engine.Config{MaxSupersteps: 21})
	vals := e.Values()
	if vals[0].Float() <= vals[2].Float() {
		t.Errorf("hub rank %v should exceed spoke rank %v", vals[0], vals[2])
	}
}

func TestPageRankValidate(t *testing.T) {
	if err := (&PageRank{Damping: 1.5}).Validate(); err == nil {
		t.Error("damping > 1 should fail")
	}
	if err := (&PageRank{Iterations: -1}).Validate(); err == nil {
		t.Error("negative iterations should fail")
	}
	if err := (&PageRank{}).Validate(); err != nil {
		t.Error(err)
	}
}

// --- SSSP ---

func TestSSSPWeightedPaths(t *testing.T) {
	//     0 --1.0--> 1 --1.0--> 2
	//      \---------2.5-------/     plus 2 --1--> 3
	g := mustGraph(t, 4, []graph.Edge{
		{Src: 0, Dst: 1, Weight: 1.0},
		{Src: 1, Dst: 2, Weight: 1.0},
		{Src: 0, Dst: 2, Weight: 2.5},
		{Src: 2, Dst: 3, Weight: 1.0},
	})
	e := run(t, g, &SSSP{Source: 0}, engine.Config{})
	want := []float64{0, 1, 2, 3}
	for v, w := range want {
		if got := e.Values()[v].Float(); math.Abs(got-w) > 1e-12 {
			t.Errorf("dist[%d] = %v, want %v", v, got, w)
		}
	}
}

func TestSSSPUnreachable(t *testing.T) {
	g := mustGraph(t, 3, []graph.Edge{{Src: 0, Dst: 1, Weight: 1}})
	e := run(t, g, &SSSP{Source: 0}, engine.Config{})
	if !math.IsInf(e.Values()[2].Float(), 1) {
		t.Errorf("unreachable vertex should stay at +inf, got %v", e.Values()[2])
	}
}

func TestSSSPWithMinCombiner(t *testing.T) {
	g, err := gen.RMAT(gen.DefaultRMAT(8, 6, 13))
	if err != nil {
		t.Fatal(err)
	}
	plain := run(t, g, &SSSP{Source: 0}, engine.Config{})
	comb := run(t, g, &SSSP{Source: 0}, engine.Config{Combiner: MinCombiner})
	for v := range plain.Values() {
		if !plain.Values()[v].Equal(comb.Values()[v]) {
			t.Fatalf("combiner changed SSSP result at %d: %v vs %v",
				v, plain.Values()[v], comb.Values()[v])
		}
	}
}

func TestSSSPNegativeWeightCrash(t *testing.T) {
	g := mustGraph(t, 3, []graph.Edge{{Src: 0, Dst: 1, Weight: 1}, {Src: 1, Dst: 2, Weight: -0.5}})
	e, err := engine.New(g, &SSSP{Source: 0, ValidateWeights: true}, engine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	_, err = e.Run()
	var ce *engine.CrashError
	if !errors.As(err, &ce) {
		t.Fatalf("want crash-culprit error, got %v", err)
	}
	if ce.Vertex != 1 {
		t.Errorf("culprit = %d, want 1", ce.Vertex)
	}
}

// --- WCC ---

func TestWCCTwoComponents(t *testing.T) {
	// Component {0,1,2} and {3,4}; run on the undirected view.
	g := mustGraph(t, 5, []graph.Edge{
		{Src: 1, Dst: 0}, {Src: 1, Dst: 2}, {Src: 4, Dst: 3},
	}).Undirected()
	e := run(t, g, WCC{}, engine.Config{})
	vals := e.Values()
	for _, v := range []int{0, 1, 2} {
		if vals[v].Int() != 0 {
			t.Errorf("label[%d] = %v, want 0", v, vals[v])
		}
	}
	for _, v := range []int{3, 4} {
		if vals[v].Int() != 3 {
			t.Errorf("label[%d] = %v, want 3", v, vals[v])
		}
	}
}

func TestWCCSingletons(t *testing.T) {
	g := mustGraph(t, 3, nil)
	e := run(t, g, WCC{}, engine.Config{})
	for v, val := range e.Values() {
		if val.Int() != int64(v) {
			t.Errorf("isolated vertex %d: label %v", v, val)
		}
	}
}

func TestWCCAgreesWithUnionFind(t *testing.T) {
	g, err := gen.RMAT(gen.RMATConfig{
		Scale: 8, EdgesPer: 1.2, A: 0.57, B: 0.19, C: 0.19,
		Seed: 5, MinWeight: 1, MaxWeight: 1, Connect: false,
	})
	if err != nil {
		t.Fatal(err)
	}
	u := g.Undirected()
	e := run(t, u, WCC{}, engine.Config{})

	// Union-find ground truth.
	parent := make([]int, u.NumVertices())
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for v := 0; v < u.NumVertices(); v++ {
		dst, _ := u.OutNeighbors(engine.VertexID(v))
		for _, d := range dst {
			parent[find(v)] = find(int(d))
		}
	}
	// Same component in ground truth <=> same WCC label.
	vals := e.Values()
	byRoot := map[int]int64{}
	for v := 0; v < u.NumVertices(); v++ {
		r := find(v)
		if lbl, ok := byRoot[r]; ok {
			if lbl != vals[v].Int() {
				t.Fatalf("vertex %d: label %v, component expects %v", v, vals[v].Int(), lbl)
			}
		} else {
			byRoot[r] = vals[v].Int()
		}
	}
	// Distinct roots must have distinct labels.
	seen := map[int64]int{}
	for r, lbl := range byRoot {
		if other, ok := seen[lbl]; ok {
			t.Fatalf("roots %d and %d share label %d", r, other, lbl)
		}
		seen[lbl] = r
	}
}

// --- ALS ---

func TestALSConvergesOnPlantedFactors(t *testing.T) {
	r, err := gen.Bipartite(gen.DefaultBipartite(120, 30, 8, 21))
	if err != nil {
		t.Fatal(err)
	}
	prog := &ALS{NumUsers: r.NumUsers, Features: 5, Seed: 3}
	if err := prog.Validate(); err != nil {
		t.Fatal(err)
	}
	e, err := engine.New(r.Graph, prog, engine.Config{MaxSupersteps: 20})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	rmse := RMSE(e.Aggregated())
	if math.IsNaN(rmse) || rmse > 1.0 {
		t.Errorf("ALS RMSE = %v, want < 1.0 on planted factors", rmse)
	}
	// Feature vectors must have the right arity everywhere.
	for v, val := range e.Values() {
		if len(val.Vec()) != 5 {
			t.Fatalf("vertex %d: vector arity %d", v, len(val.Vec()))
		}
	}
}

func TestALSAlternatesSides(t *testing.T) {
	r, err := gen.Bipartite(gen.DefaultBipartite(40, 10, 4, 2))
	if err != nil {
		t.Fatal(err)
	}
	prog := &ALS{NumUsers: r.NumUsers, Features: 3, Seed: 1}
	obs := &sideObserver{numUsers: r.NumUsers}
	e, err := engine.New(r.Graph, prog, engine.Config{MaxSupersteps: 6, Observers: []engine.Observer{obs}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// After superstep 0, each superstep's *computing* side alternates:
	// ss1 = users, ss2 = items, ...
	for ss, sides := range obs.sides {
		if ss == 0 {
			continue
		}
		if sides.users > 0 && sides.items > 0 {
			t.Errorf("superstep %d: both sides computed (users=%d items=%d)", ss, sides.users, sides.items)
		}
		wantUsers := ss%2 == 1
		if wantUsers && sides.users == 0 || !wantUsers && sides.items == 0 {
			t.Errorf("superstep %d: wrong side computed (users=%d items=%d)", ss, sides.users, sides.items)
		}
	}
	if !obs.sawErrFacts {
		t.Error("ALS should emit prov_error facts while observed")
	}
}

type sideCount struct{ users, items int }

// sideObserver tallies each partition's records as they arrive.
type sideObserver struct {
	mu          sync.Mutex
	numUsers    int
	sides       map[int]sideCount
	sawErrFacts bool
}

func (o *sideObserver) Reads() engine.Fields { return engine.FieldReceived | engine.FieldEmitted }
func (o *sideObserver) ObservePartition(_, ss int, recs []engine.VertexRecord) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.sides == nil {
		o.sides = map[int]sideCount{}
	}
	sc := o.sides[ss]
	for _, r := range recs {
		// Count only vertices that actually recomputed their value.
		if len(r.Received) == 0 && ss > 0 {
			continue
		}
		if int(r.ID) < o.numUsers {
			sc.users++
		} else {
			sc.items++
		}
		for k := range r.Emitted.Len() {
			if t, _ := r.Emitted.Fact(k); t.Name() == "prov_error" {
				o.sawErrFacts = true
			}
		}
	}
	o.sides[ss] = sc
}
func (o *sideObserver) ObserveSuperstep(*engine.SuperstepView) error { return nil }
func (o *sideObserver) Finish(int) error                             { return nil }

func TestALSValidate(t *testing.T) {
	if err := (&ALS{Features: 0, NumUsers: 1}).Validate(); err == nil {
		t.Error("zero features should fail")
	}
	if err := (&ALS{Features: 2, NumUsers: 0}).Validate(); err == nil {
		t.Error("zero users should fail")
	}
}

// --- Approximate wrapper ---

func TestDeltaPageRankCloseToExact(t *testing.T) {
	g, err := gen.RMAT(gen.DefaultRMAT(9, 8, 17))
	if err != nil {
		t.Fatal(err)
	}
	exact := run(t, g, &PageRank{Iterations: 30}, engine.Config{MaxSupersteps: 31})
	relError := func(eps float64) (float64, int64) {
		approx := run(t, g, &DeltaPageRank{Epsilon: eps}, engine.Config{MaxSupersteps: 31})
		var num, den float64
		for v := range exact.Values() {
			d := exact.Values()[v].Float() - approx.Values()[v].Float()
			num += d * d
			den += exact.Values()[v].Float() * exact.Values()[v].Float()
		}
		return math.Sqrt(num) / math.Sqrt(den), approx.Stats().MessagesSent
	}

	// The optimization must cut messages and keep the error modest; the
	// absolute error is scale-dependent (the paper's 1e-3..1e-5 relies on
	// web-scale hub ranks dominating the L2 norm), so assert the mechanism:
	// error grows monotonically with ε and stays small at the paper's 0.01.
	errSmall, msgsSmall := relError(0.001)
	errPaper, msgsPaper := relError(0.01)
	errBig, msgsBig := relError(0.05)
	if msgsPaper >= exact.Stats().MessagesSent {
		t.Errorf("approximate sent %d messages, exact %d — no savings", msgsPaper, exact.Stats().MessagesSent)
	}
	if !(msgsBig < msgsPaper && msgsPaper < msgsSmall) {
		t.Errorf("message savings not monotone in ε: %d, %d, %d", msgsSmall, msgsPaper, msgsBig)
	}
	if !(errSmall <= errPaper && errPaper <= errBig) {
		t.Errorf("error not monotone in ε: %v, %v, %v", errSmall, errPaper, errBig)
	}
	if errPaper > 0.25 {
		t.Errorf("relative L2 error %v too large at ε=0.01", errPaper)
	}
	approx := run(t, g, &DeltaPageRank{Epsilon: 0.01}, engine.Config{MaxSupersteps: 31})
	// Truncation only loses rank mass: optimized medians sit slightly below
	// the originals, as in Table 5 (Median B < Median A).
	var sumA, sumB float64
	for v := range exact.Values() {
		sumA += exact.Values()[v].Float()
		sumB += approx.Values()[v].Float()
	}
	if sumB > sumA {
		t.Errorf("optimized total rank %v exceeds exact %v", sumB, sumA)
	}
}

func TestDeltaPageRankMatchesExactAtZeroEpsilon(t *testing.T) {
	// With ε=0 and enough supersteps both formulations converge to the same
	// fixed point.
	g := mustGraph(t, 3, []graph.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 2, Dst: 0}})
	exact := run(t, g, &PageRank{Iterations: 60}, engine.Config{MaxSupersteps: 61})
	approx := run(t, g, &DeltaPageRank{}, engine.Config{MaxSupersteps: 200})
	for v := range exact.Values() {
		if math.Abs(exact.Values()[v].Float()-approx.Values()[v].Float()) > 1e-4 {
			t.Errorf("vertex %d: exact %v vs delta %v", v, exact.Values()[v], approx.Values()[v])
		}
	}
}

func TestApproximateSSSPExactWhenEpsilonZero(t *testing.T) {
	g, err := gen.RMAT(gen.DefaultRMAT(8, 6, 23))
	if err != nil {
		t.Fatal(err)
	}
	exact := run(t, g, &SSSP{Source: 0}, engine.Config{})
	apt, _ := NewApproximate(&SSSP{Source: 0}, AbsDiff, 0)
	approx := run(t, g, apt, engine.Config{})
	for v := range exact.Values() {
		if !exact.Values()[v].Equal(approx.Values()[v]) {
			t.Fatalf("epsilon=0 changed SSSP at %d: %v vs %v", v, exact.Values()[v], approx.Values()[v])
		}
	}
}

func TestApproximateWCCUnsafe(t *testing.T) {
	// The paper's negative result (§6.2.2): suppressing label updates with
	// ε=1 breaks WCC badly. On a chain, every label improvement is exactly
	// 1, so all propagation is suppressed and labels stay wrong.
	n := 32
	edges := make([]graph.Edge, 0, n-1)
	for i := 0; i < n-1; i++ {
		edges = append(edges, graph.Edge{Src: engine.VertexID(i), Dst: engine.VertexID(i + 1), Weight: 1})
	}
	u := mustGraph(t, n, edges).Undirected()
	exact := run(t, u, WCC{}, engine.Config{})
	apt, _ := NewApproximate(WCC{}, AbsDiff, 1)
	approx := run(t, u, apt, engine.Config{})
	diffs := 0
	for v := range exact.Values() {
		if !exact.Values()[v].Equal(approx.Values()[v]) {
			diffs++
		}
	}
	if diffs == 0 {
		t.Error("WCC with ε=1 should corrupt labels (the paper's unsafe case)")
	}
}

func TestNewApproximateValidation(t *testing.T) {
	if _, err := NewApproximate(nil, AbsDiff, 0.1); err == nil {
		t.Error("nil program should fail")
	}
	if _, err := NewApproximate(WCC{}, nil, 0.1); err == nil {
		t.Error("nil diff should fail")
	}
	if _, err := NewApproximate(WCC{}, AbsDiff, -1); err == nil {
		t.Error("negative epsilon should fail")
	}
}

func TestValueKindsStableAcrossAnalytics(t *testing.T) {
	g := mustGraph(t, 2, []graph.Edge{{Src: 0, Dst: 1, Weight: 1}})
	e := run(t, g, &SSSP{Source: 0}, engine.Config{})
	for _, v := range e.Values() {
		if v.Kind() != value.Float {
			t.Errorf("SSSP values must stay floats, got %v", v.Kind())
		}
	}
}
