package eval

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"regexp"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"ariadne/internal/analytics"
	"ariadne/internal/engine"
	"ariadne/internal/gen"
	"ariadne/internal/pql"
	"ariadne/internal/pql/analysis"
	"ariadne/internal/queries"
	"ariadne/internal/value"
)

// fakeGraph is a tiny StaticGraph for compiler tests.
type fakeGraph struct {
	n   int
	out map[int64][]engine.VertexID
	w   map[[2]int64]float64
	in  map[int64][]engine.VertexID
}

func newFakeGraph(n int, edges [][2]int64) *fakeGraph {
	f := &fakeGraph{n: n, out: map[int64][]engine.VertexID{}, w: map[[2]int64]float64{}, in: map[int64][]engine.VertexID{}}
	for _, e := range edges {
		f.out[e[0]] = append(f.out[e[0]], engine.VertexID(e[1]))
		f.in[e[1]] = append(f.in[e[1]], engine.VertexID(e[0]))
		f.w[e] = 1
	}
	for _, dst := range f.out {
		slices.Sort(dst) // StaticGraph's rows are sorted by destination
	}
	return f
}

func (f *fakeGraph) NumVertices() int { return f.n }
func (f *fakeGraph) OutNeighbors(v int64) ([]engine.VertexID, []float64) {
	dst := f.out[v]
	ws := make([]float64, len(dst))
	for i, d := range dst {
		ws[i] = f.w[[2]int64{v, int64(d)}]
	}
	return dst, ws
}
func (f *fakeGraph) InNeighbors(v int64) []engine.VertexID { return f.in[v] }
func (f *fakeGraph) OutDegree(v int64) int                 { return len(f.out[v]) }
func (f *fakeGraph) InDegree(v int64) int                  { return len(f.in[v]) }

// factSink is what the materialised legs (Evaluator and oracle) share.
type factSink interface {
	AddFact(pred string, t Tuple)
	Fixpoint() error
}

// feedLayers materialises the record stream as EDB facts, one Fixpoint per
// layer, as the copy rules of a compiled program materialise them; forward
// says the layers ascend.
// after (nil: none) is called with each layer's index once its Fixpoint
// returns.
func feedLayers(ev factSink, sg StaticGraph, layers [][]RecordView, forward bool, after func(int)) error {
	for v := 0; v < sg.NumVertices(); v++ {
		dst, _ := sg.OutNeighbors(int64(v))
		for _, d := range dst {
			ev.AddFact("edge", Tuple{value.NewInt(int64(v)), value.NewInt(int64(d))})
		}
	}
	for li, l := range layers {
		for i := range l {
			feedView(ev, sg, &l[i], forward)
		}
		if err := ev.Fixpoint(); err != nil {
			return err
		}
		if after != nil {
			after(li)
		}
	}
	return nil
}

// insertionOrder renders every IDB relation as its tuples' canonical keys in
// insertion order; sorted=true gives the set view instead.
func insertionOrder(q *analysis.Query, db *Database, sorted bool) map[string][]string {
	out := map[string][]string{}
	for name := range q.IDBs {
		var keys []string
		if rel := db.Get(name); rel != nil {
			for _, tu := range rel.All() {
				keys = append(keys, tu.Key())
			}
		}
		if sorted {
			sort.Strings(keys)
		}
		out[name] = keys
	}
	return out
}

func sameRelations(label string, want, got map[string][]string) error {
	for name, w := range want {
		g := got[name]
		if len(w) != len(g) {
			return fmt.Errorf("%s: %s has %d tuples, reference %d", label, name, len(g), len(w))
		}
		for i := range w {
			if w[i] != g[i] {
				return fmt.Errorf("%s: %s differs at tuple %d", label, name, i)
			}
		}
	}
	return nil
}

// lowerOutcomes counts how checkLowering's calls ended, so a test can assert
// the generated programs reach the comparisons (single-goroutine tests only).
var lowerOutcomes = map[string]int{}

// checkLowering is the differential over one program and record stream:
// the oracle interpreter, the materialised Evaluator's slot programs, the
// compiled program (record-sourced where the record planner accepts a rule,
// materialised where it refuses one) and the compiled program with every
// rule materialised. The oracle and the Evaluator must agree tuple for tuple
// in insertion order (set-wise under aggregates, whose group flush order is a
// map's); both compiled legs must derive the same sets as the Evaluator
// after every layer. A run-time error (a type error, a failing UDF) must hit
// the oracle and the Evaluator alike; the compiled legs join in a different
// order, so which valuation trips first is their own and they are then not
// compared. The compiled leg is run once more, with its in-partition strata
// on three partitions (partitionLeg): that leg must fail with the same error
// text and hold the same relations, in insertion order, as the serial one,
// whether or not the run fails.
func checkLowering(build func() (*analysis.Query, error), sg StaticGraph, layers [][]RecordView) error {
	q, err := build()
	if err != nil {
		lowerOutcomes["analysis rejected"]++
		return nil // all three share the analysis: rejected for all
	}
	forward := q.Class != analysis.Backward
	if !forward {
		layers = append([][]RecordView(nil), layers...)
		for i, j := 0, len(layers)-1; i < j; i, j = i+1, j-1 {
			layers[i], layers[j] = layers[j], layers[i]
		}
	}
	odb := NewDatabase()
	orc, oerr := newOracle(q, odb)
	if oerr == nil {
		oerr = feedLayers(orc, sg, layers, forward, nil)
	}
	ordered := true
	for _, r := range q.Rules {
		for _, a := range r.Head.Args {
			ordered = ordered && !containsAgg(a)
		}
	}
	want := insertionOrder(q, odb, !ordered)
	wantSet := insertionOrder(q, odb, true)

	qe, _ := build()
	edb := NewDatabase()
	ev, err := NewEvaluator(qe, edb)
	if err != nil {
		// The lowering rejects statically what the oracle can reject
		// only once data reaches the literal (or never, on this data).
		lowerOutcomes["lowering rejected"]++
		return nil
	}
	var wantLayers []map[string][]string
	err = feedLayers(ev, sg, layers, forward, func(int) {
		wantLayers = append(wantLayers, insertionOrder(qe, edb, true))
	})
	if (err == nil) != (oerr == nil) || (err != nil && err.Error() != oerr.Error()) {
		return fmt.Errorf("run-time verdicts differ: oracle %v, slots %v", oerr, err)
	}
	if err != nil {
		lowerOutcomes["run-time error"]++
		return nil
	}
	if err := sameRelations("slots vs oracle", want, insertionOrder(qe, edb, !ordered)); err != nil {
		return err
	}

	qc, _ := build()
	if qc.Class == analysis.Mixed {
		lowerOutcomes["mixed"]++
		return nil
	}
	// The Evaluator lowered every rule, so Compile, which falls back to the
	// same bottom-up plans rule by rule, must too.
	cdb := NewDatabase()
	comp, err := Compile(qc, cdb, sg)
	if err != nil {
		return fmt.Errorf("Compile failed where the Evaluator did not: %v", err)
	}
	// agree compares a compiled leg's relations with the Evaluator's after
	// layer i, keeping the first difference.
	var differs error
	agree := func(label string, q *analysis.Query, db *Database) func(int) {
		return func(i int) {
			if differs == nil {
				differs = sameRelations(fmt.Sprintf("%s vs materialised after layer %d", label, i), wantLayers[i], insertionOrder(q, db, true))
			}
		}
	}
	serr := serialLeg(comp, layers, agree("record-sourced", qc, cdb))
	qm, _ := build()
	mdb := NewDatabase()
	mc, err := CompileMaterialised(qm, mdb, sg)
	if err != nil {
		return fmt.Errorf("CompileMaterialised failed where the Evaluator did not: %v", err)
	}
	if merr := serialLeg(mc, layers, agree("all-materialised", qm, mdb)); merr == nil && differs == nil {
		differs = sameRelations("all-materialised vs oracle", wantSet, insertionOrder(qm, mdb, true))
	}
	qp, _ := build()
	pdb := NewDatabase()
	pc, err := Compile(qp, pdb, sg)
	if err != nil {
		return fmt.Errorf("second Compile failed: %v", err)
	}
	if perr := partitionLeg(pc, layers, 3, agree("in-partition", qp, pdb)); (perr == nil) != (serr == nil) || serr != nil && perr.Error() != serr.Error() {
		return fmt.Errorf("run-time verdicts differ: serial %v, in-partition %v", serr, perr)
	}
	if err := sameRelations("in-partition vs serial", insertionOrder(qc, cdb, false), insertionOrder(qp, pdb, false)); err != nil {
		return err
	}
	if pc.inPart > 0 {
		lowerOutcomes["in-partition strata"]++
	}
	// The probe and dedup paths the in-partition leg ran.
	w := pc.work
	w.add(pc.main.rn.work)
	for path, n := range map[string]int64{"probe fact cursor": w.factProbes, "probe fact index": w.indexBuilds,
		"probe edge cursor": w.edgeProbes, "probe re-seek": w.reseeks} {
		if n > 0 {
			lowerOutcomes[path]++
		}
	}
	dedup := map[string]bool{}
	for _, r := range pc.rules[:pc.partRules] {
		switch {
		case r.kind != ruleRecord || r.emitted == 0:
		case r.scoped:
			dedup["dedup record-scoped"] = true
		case r.keyed:
			dedup["dedup record-keyed"] = true
		default:
			dedup["dedup shard set"] = true
		}
	}
	for path := range dedup {
		lowerOutcomes[path]++
	}
	shared, global := false, false
	for _, r := range pc.rules {
		shared = shared || r.trie != nil && r.trie.shared
		global = global || r.kind == ruleGlobal && !r.mat
		if r.mat && generatedHead.MatchString(r.src.Head.Pred) {
			lowerOutcomes["materialised "+materialisedShape(r)]++
		}
	}
	if shared {
		lowerOutcomes["compiled with a shared prefix"]++
	}
	// A non-recursive barrier stratum of two or more record rules runs them
	// one to a trie on the main shard; the legs above compare it with the
	// Evaluator.
	split := false
	for si := pc.inPart; si < len(pc.strata); si++ {
		records := 0
		for _, r := range pc.strata[si] {
			if r.kind == ruleRecord {
				records++
			}
		}
		split = split || !pc.recursive[si] && records >= 2
	}
	if split {
		lowerOutcomes["compiled with a split barrier stratum"]++
	}
	if global {
		lowerOutcomes["compiled with a global rule"]++
	}
	if serr != nil {
		lowerOutcomes["run-time error"]++
		return nil
	}
	lowerOutcomes["three-way"]++
	if anyCut(comp) {
		lowerOutcomes["three-way with a cut"]++
	}
	for _, keys := range wantSet {
		lowerOutcomes["three-way tuples"] += len(keys)
	}
	if differs != nil {
		return differs
	}
	return sameRelations("record-sourced vs oracle", wantSet, insertionOrder(qc, cdb, true))
}

// generatedHead matches the heads genRules writes.
var generatedHead = regexp.MustCompile(`^g[0-9]+$`)

// materialisedShape names why the record planner refused r, for
// lowerOutcomes: an aggregate head (by kind), a negated or off-location
// record literal, a read of a global head, or another shape.
func materialisedShape(r *crule) string {
	switch {
	case r.agg != nil:
		return "aggregate " + r.plan.agg.Kind.String()
	case strings.Contains(r.why, "negated"):
		return "negated record literal"
	case strings.Contains(r.why, "must be located at"):
		return "off-location record literal"
	case strings.Contains(r.why, "consumes global"):
		return "global read"
	}
	return "other"
}

// serialLeg evaluates layers with Layer; after (nil: none) is called with
// each layer's index once it is evaluated.
func serialLeg(c *Compiled, layers [][]RecordView, after func(int)) error {
	for i, l := range layers {
		if err := c.Layer(l); err != nil {
			return err
		}
		if after != nil {
			after(i)
		}
	}
	return nil
}

// partitionLeg evaluates layers as the online driver does, with each layer's
// records split over parts partitions (vertex mod parts): every partition
// observes its views, running the in-partition strata, MergePartitions
// merges them, and the barrier strata run over their merged views. The layer
// index stands in for the superstep; after (nil: none) is called with it
// once the layer is evaluated.
func partitionLeg(c *Compiled, layers [][]RecordView, parts int, after func(int)) error {
	if err := c.BeginRun(); err != nil {
		return err
	}
	split := make([][]RecordView, parts)
	for i, l := range layers {
		for p := range split {
			split[p] = split[p][:0]
		}
		for _, rv := range l {
			p := int(rv.Vertex % int64(parts))
			split[p] = append(split[p], rv)
		}
		for p := range split {
			c.partShard(p).layer(i, split[p])
		}
		err := c.MergePartitions(i, nil)
		if err == nil {
			err = c.BarrierLayer()
		}
		if err != nil {
			return err
		}
		if after != nil {
			after(i)
		}
	}
	return nil
}

// anyCut reports whether some rule of c takes a cut.
func anyCut(c *Compiled) bool {
	for _, r := range c.rules {
		for _, p := range r.plan.programs() {
			if p.branches[0].cut >= 0 {
				return true
			}
		}
	}
	return false
}

// runAllPaths is checkLowering for a fixed source.
func runAllPaths(t *testing.T, src string, env *analysis.Env, sg StaticGraph, layers [][]RecordView) {
	t.Helper()
	build := func() (*analysis.Query, error) {
		prog, err := pql.Parse(src)
		if err != nil {
			return nil, err
		}
		return analysis.Analyze(prog, env.Clone())
	}
	if _, err := build(); err != nil {
		t.Fatal(err)
	}
	if _, err := Compile(analysis.MustAnalyze(src, env.Clone()), NewDatabase(), sg); err != nil {
		t.Fatalf("compile: %v", err)
	}
	if err := checkLowering(build, sg, layers); err != nil {
		t.Error(err)
	}
}

// feedView turns one RecordView into EDB facts, as the copy rules do. Like
// them, it re-injects the predecessor's value only when feeding forward: fed from a
// later record in a backward walk, value(X, D, J) would precede record J's
// other facts, and a negation over those would be decided too early.
func feedView(ev factSink, sg StaticGraph, rv *RecordView, forward bool) {
	x := value.NewInt(rv.Vertex)
	i := value.NewInt(rv.Superstep)
	ev.AddFact("superstep", Tuple{x, i})
	if rv.HasValue {
		ev.AddFact("value", Tuple{x, rv.Value, i})
	}
	if rv.PrevActive >= 0 {
		j := value.NewInt(rv.PrevActive)
		ev.AddFact("evolution", Tuple{x, j, i})
		if forward && rv.HasPrevValue {
			ev.AddFact("value", Tuple{x, rv.PrevValue, j})
		}
	}
	for _, m := range rv.Sends {
		ev.AddFact("send_message", Tuple{x, value.NewInt(int64(m.Dst)), m.Val, i})
	}
	for _, m := range rv.Recvs {
		ev.AddFact("receive_message", Tuple{x, value.NewInt(int64(m.Src)), m.Val, i})
	}
	if rv.SentAny || len(rv.Sends) > 0 {
		ev.AddFact("prov_send", Tuple{x, i})
	}
	dst, ws := sg.OutNeighbors(rv.Vertex)
	for k, d := range dst {
		ev.AddFact("edge_value", Tuple{x, value.NewInt(int64(d)), value.NewFloat(ws[k]), value.NewInt(0)})
	}
	for _, f := range rv.Emitted {
		t := make(Tuple, 0, len(f.Args)+2)
		t = append(t, x)
		t = append(t, f.Args...)
		t = append(t, i)
		ev.AddFact(f.Table, t)
	}
}

// randomLayers generates a deterministic pseudo-random record stream over a
// small graph: values evolve, messages follow edges (plus a few strays).
// Each record's emitted facts take a shape drawn from a second stream
// (seeded ^seed, so rng's draws stay what they were): as drawn (sorted by
// their Int first argument unless the peers wrap), with a repeated first
// argument, out of order, or with Float first arguments in one table, so
// the record probes run every path — cursor, index, and Int keys against
// Float ones (3 and 3.0 are one value).
func randomLayers(seed int64, sg *fakeGraph, nLayers int) [][]RecordView {
	rng, shapes := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(^seed))
	type vstate struct {
		lastSS  int64
		lastVal value.Value
	}
	states := map[int64]*vstate{}
	var layers [][]RecordView
	for ss := 0; ss < nLayers; ss++ {
		var recs []RecordView
		for v := int64(0); v < int64(sg.n); v++ {
			if ss > 0 && rng.Intn(2) == 0 {
				continue // inactive this superstep
			}
			val := value.NewFloat(float64(rng.Intn(8)) / 2)
			rv := RecordView{
				Vertex: v, Superstep: int64(ss),
				HasValue: true, Value: val,
				PrevActive: -1,
			}
			if st, ok := states[v]; ok {
				rv.PrevActive = st.lastSS
				rv.PrevValue = st.lastVal
				rv.HasPrevValue = true
			}
			for _, d := range sg.out[v] {
				if rng.Intn(2) == 0 {
					rv.Sends = append(rv.Sends, engine.SentMessage{Dst: engine.VertexID(d), Val: val})
				}
			}
			rv.SentAny = len(rv.Sends) > 0
			for _, s := range sg.in[v] {
				if rng.Intn(2) == 0 {
					// Odd senders send Ints, so one record's messages can
					// mix kinds: a term like M mod 2 succeeds on some of
					// its rows and fails on others. The Ints run 2..5, so,
					// like the Floats, none matches the message values the
					// generated negations look for (1.0, 0.5).
					m := value.NewFloat(rng.Float64())
					if s%2 == 1 {
						m = value.NewInt(2 + int64(m.Float()*4))
					}
					rv.Recvs = append(rv.Recvs, engine.IncomingMessage{Src: engine.VertexID(s), Val: m})
				}
			}
			rv.Emitted = []engine.ProvFact{
				{Table: "prov_error", Args: []value.Value{value.NewInt(v % 3), value.NewFloat(rng.Float64()*8 - 1)}},
				{Table: "prov_prediction", Args: []value.Value{value.NewInt(v % 3), value.NewFloat(rng.Float64()*8 - 1)}},
				{Table: "prov_prediction", Args: []value.Value{value.NewInt((v + 1) % 3), value.NewFloat(rng.Float64() * 4)}},
			}
			factShape(shapes, rv.Emitted)
			states[v] = &vstate{lastSS: int64(ss), lastVal: val}
			recs = append(recs, rv)
		}
		layers = append(layers, recs)
	}
	return layers
}

// factShape rewrites a record's facts (one prov_error, then two
// prov_prediction) into a shape drawn from shapes.
func factShape(shapes *rand.Rand, fs []engine.ProvFact) {
	floatKey := func(f *engine.ProvFact) {
		f.Args = []value.Value{value.NewFloat(float64(f.Args[0].Int())), f.Args[1]}
	}
	switch shapes.Intn(5) {
	case 1: // a repeated first argument, the wider-ranged payload second
		fs[1], fs[2] = fs[2], fs[1]
		fs[1].Args = []value.Value{fs[2].Args[0], fs[1].Args[1]}
	case 2: // out of order
		fs[1], fs[2] = fs[2], fs[1]
	case 3: // Float keys into prov_prediction's bucket, probed by Ints
		floatKey(&fs[1])
		floatKey(&fs[2])
	case 4: // a Float probe key (prov_error's peer) into an Int bucket
		floatKey(&fs[0])
	}
}

func testGraphAndLayers(seed int64) (*fakeGraph, [][]RecordView) {
	sg := newFakeGraph(8, [][2]int64{
		{0, 1}, {1, 2}, {2, 3}, {3, 0}, {1, 4}, {4, 5}, {5, 6}, {6, 7}, {7, 4}, {2, 6},
	})
	return sg, randomLayers(seed, sg, 6)
}

func TestLoweringsAgreeApt(t *testing.T) {
	env := analysis.NewEnv()
	env.SetParam("eps", value.NewFloat(0.5))
	src := `
change(X, I) :- value(X, D1, I), value(X, D2, J),
                evolution(X, J, I), udf_diff(D1, D2, $eps).
neighbor_change(X, I) :- receive_message(X, Y, M, I),
                         !change(Y, J), J = I - 1.
no_execute(X, I) :- !neighbor_change(X, I), superstep(X, I).
safe(X, I) :- no_execute(X, I), change(X, I).
unsafe(X, I) :- no_execute(X, I), !change(X, I).
`
	for seed := int64(1); seed <= 5; seed++ {
		sg, layers := testGraphAndLayers(seed)
		runAllPaths(t, src, env, sg, layers)
	}
}

func TestLoweringsAgreeMonitoring(t *testing.T) {
	env := analysis.NewEnv()
	src := `
check_failed(X, I) :- value(X, D1, I), value(X, D2, J), evolution(X, J, I),
                      receive_message(X, Y, M, I), D1 > D2.
check_failed(X, I) :- receive_message(X, Y, M, I), M < 0.
neighbor_got(X, I) :- receive_message(X, Y, M, I).
silent(X, I) :- value(X, D1, I), value(X, D2, J), evolution(X, J, I),
                !neighbor_got(X, I), D1 != D2.
`
	for seed := int64(1); seed <= 5; seed++ {
		sg, layers := testGraphAndLayers(seed)
		runAllPaths(t, src, env, sg, layers)
	}
}

func TestLoweringsAgreeEdgeRules(t *testing.T) {
	env := analysis.NewEnv()
	env.DeclareEDB("prov_error", 4)
	src := `
has_in(X) :- edge(Y, X).
stray(X, Y, I) :- receive_message(X, Y, M, I), !has_in(X).
ranged(X, Y, I) :- prov_error(X, Y, E, I), edge_value(X, Y, W, _), E > 5.
sent_flag(X, I) :- prov_send(X, I).
`
	for seed := int64(1); seed <= 5; seed++ {
		sg, layers := testGraphAndLayers(seed)
		runAllPaths(t, src, env, sg, layers)
	}
}

func TestLoweringsAgreeRecursive(t *testing.T) {
	env := analysis.NewEnv()
	env.SetParam("alpha", value.NewInt(0))
	// Recursive forward rules need the temporal guard J < I for the three
	// evaluation modes to agree: without it, pure Datalog over the full
	// provenance admits retroactive derivations (influence flowing
	// backwards in time) that online/layered evaluation — and any causal
	// reading of "influence" — cannot produce. The paper's Query 3 has the
	// same property; see the package documentation.
	src := `
fwd(X, I) :- superstep(X, I), X = $alpha, I = 0.
fwd(X, I) :- receive_message(X, Y, M, I), fwd(Y, J), J < I, superstep(X, I).
`
	for seed := int64(1); seed <= 5; seed++ {
		sg, layers := testGraphAndLayers(seed)
		runAllPaths(t, src, env, sg, layers)
	}
}

// TestLoweringsAgreeBackwardNegation: a backward query with a local rule
// that negates a record's own sends. Walking the layers downward, every leg
// must see record J's value together with its sends — a value fed early,
// from a later record's predecessor, would let the negation pass before the
// sends arrive.
func TestLoweringsAgreeBackwardNegation(t *testing.T) {
	env := analysis.NewEnv()
	src := `
back_trace(X, I) :- superstep(X, I), I = 5, X = 4.
back_trace(X, I) :- send_message(X, Y, M, I), back_trace(Y, J), J = I + 1.
quiet(X, I) :- value(X, D, I), !send_message(X, V, D, I), edge(X, V).
`
	for seed := int64(1); seed <= 5; seed++ {
		sg, layers := testGraphAndLayers(seed)
		runAllPaths(t, src, env, sg, layers)
	}
}

// TestRecursiveStrataReachFixpoint: two strata whose rules read heads of
// their own stratum within one layer — a rule reading its own head at a
// peer in the same superstep, and (one stratum up, through the negation) a
// rule reading the head of a rule listed after it — so one pass in rule and
// record order would miss tuples. Both are marked recursive, iterate past
// one pass per layer, and agree with the other lowerings.
func TestRecursiveStrataReachFixpoint(t *testing.T) {
	src := `
reach(X, I) :- superstep(X, I), X = 7.
reach(X, I) :- receive_message(X, Y, M, I), reach(Y, I).
sent_early(X, I) :- superstep(X, I), sent(X, I).
sent(X, I) :- prov_send(X, I), !reach(X, I).
`
	for seed := int64(1); seed <= 5; seed++ {
		sg, layers := testGraphAndLayers(seed)
		runAllPaths(t, src, analysis.NewEnv(), sg, layers)

		c, err := Compile(analysis.MustAnalyze(src, analysis.NewEnv()), NewDatabase(), sg)
		if err != nil {
			t.Fatal(err)
		}
		for _, l := range layers {
			if err := c.Layer(l); err != nil {
				t.Fatal(err)
			}
		}
		for si, passes := range c.Stats().PassesPerStratum {
			if !c.recursive[si] || passes <= int64(len(layers)) {
				t.Errorf("seed %d: stratum %d recursive=%v took %d passes over %d layers, want a recursive stratum that iterates",
					seed, si, c.recursive[si], passes, len(layers))
			}
		}
	}
}

// TestCompileRejections: every rule shape the record planner refuses
// compiles, with that rule materialised (the planner's refusal kept as its
// reason) and the query's other rules record-sourced, and derives after
// every layer what the Evaluator fed through feedLayers derives. A
// store-only EDB is loaded into both from the same tuples.
func TestCompileRejections(t *testing.T) {
	sg, layers := testGraphAndLayers(3)
	cases := []struct{ src, head, why string }{
		{`deg(X, COUNT(Y)) :- receive_message(X, Y, M, I).`, "deg", "aggregate head"},
		{`quiet(X, I) :- superstep(X, I), !prov_send(X, I).`, "quiet", "negated prov_send"},
		{`heard(Y, I) :- receive_message(X, Y, M, I), superstep(Y, I).`, "heard", "must be located at the head's location variable"},
		{`twice(X, I) :- evolution(X, J, I), evolution(X, K, J).`, "twice", "multiple evolution literals"},
		{`g(X, I) :- q(X, I), q(X, J), J < I.
q(X, I) :- superstep(X, I).
bad(X, I) :- receive_message(X, Y, M, I), g(X, I).`, "bad", "record rule consumes global predicate g"},
		{`gap(X, I) :- capture_gap(P, F, T), superstep(X, I), I >= F, I <= T, P = X mod 2.`, "gap", "EDB capture_gap is not record-local"},
	}
	gaps := []Tuple{
		{value.NewInt(1), value.NewInt(1), value.NewInt(3)},
		{value.NewInt(0), value.NewInt(4), value.NewInt(4)},
	}
	for _, tc := range cases {
		build := func() *analysis.Query { return analysis.MustAnalyze(tc.src, analysis.NewEnv()) }
		db := NewDatabase()
		c, err := Compile(build(), db, sg)
		if err != nil {
			t.Fatalf("Compile(%q) = %v", tc.src, err)
		}
		for _, r := range c.rules {
			switch {
			case r.src.Head.Pred == tc.head && (!r.mat || !strings.Contains(r.why, tc.why)):
				t.Errorf("%s: materialised=%v for %q, want it materialised for %q", tc.head, r.mat, r.why, tc.why)
			case r.src.Head.Pred != tc.head && r.mat:
				t.Errorf("%s: %s materialised too (%s)", tc.head, r.src, r.why)
			}
		}
		edb := NewDatabase()
		ev, err := NewEvaluator(build(), edb)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range c.Loads() {
			for _, g := range gaps {
				db.Get(name).Insert(g)
				ev.AddFact(name, g)
			}
		}
		var want []map[string][]string
		if err := feedLayers(ev, sg, layers, true, func(int) { want = append(want, insertionOrder(build(), edb, true)) }); err != nil {
			t.Fatal(err)
		}
		err = serialLeg(c, layers, func(i int) {
			if err := sameRelations(fmt.Sprintf("%s after layer %d", tc.head, i), want[i], insertionOrder(build(), db, true)); err != nil {
				t.Error(err)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if n := db.Get(tc.head).Len(); n == 0 {
			t.Errorf("%s derived nothing", tc.head)
		}
	}
}

// TestCopiesPreviousValue: a materialised rule joining value at the
// evolution predecessor J finds that value on the record at I alone, with
// no record of J fed, as the Evaluator fed the record does: value is copied
// at the predecessor too.
func TestCopiesPreviousValue(t *testing.T) {
	src := `drop(X, I, COUNT(D2)) :- value(X, D1, I), value(X, D2, J), evolution(X, J, I), D1 < D2.`
	layers := [][]RecordView{{{Vertex: 1, Superstep: 5, HasValue: true, Value: value.NewFloat(3),
		PrevActive: 0, PrevValue: value.NewFloat(10), HasPrevValue: true}}}
	sg := newFakeGraph(2, nil)
	runAllPaths(t, src, analysis.NewEnv(), sg, layers)
	db := NewDatabase()
	c, err := Compile(analysis.MustAnalyze(src, analysis.NewEnv()), db, sg)
	if err != nil {
		t.Fatal(err)
	}
	if err := serialLeg(c, layers, nil); err != nil {
		t.Fatal(err)
	}
	if got := db.Get("drop").All(); len(got) != 1 {
		t.Errorf("drop = %v, want one tuple", got)
	}
}

func TestCompiledGlobalRuleCatchesLateJoins(t *testing.T) {
	// A global rule joining tuples derived in different layers: each pass
	// fires one program per seen literal over that literal's new tuples, so
	// a pair completes in the layer its later tuple arrives in, which
	// runAllPaths checks after every layer.
	env := analysis.NewEnv()
	src := `
seen(X, I) :- superstep(X, I).
pair(X, I, J) :- seen(X, I), seen(X, J), I < J.
`
	sg := newFakeGraph(2, nil)
	layers := [][]RecordView{
		{{Vertex: 0, Superstep: 0, HasValue: true, Value: value.NewFloat(1), PrevActive: -1}},
		{{Vertex: 0, Superstep: 1, HasValue: true, Value: value.NewFloat(2), PrevActive: 0, PrevValue: value.NewFloat(1), HasPrevValue: true}},
		{{Vertex: 0, Superstep: 2, HasValue: true, Value: value.NewFloat(3), PrevActive: 1, PrevValue: value.NewFloat(2), HasPrevValue: true}},
	}
	runAllPaths(t, src, env, sg, layers)
}

// TestGlobalRuleShapesCompile: two global rule shapes the one-driver
// planner refused compile, and agree with the materialised Evaluator after
// every layer — an edge literal whose one end the delta binds, and a body
// whose only IDB literal is negated, which fires every pass as a fact rule
// does (run once before the first layer, it would find p empty and derive
// h(1)).
func TestGlobalRuleShapesCompile(t *testing.T) {
	sg, layers := testGraphAndLayers(7)
	for _, src := range []string{`
p(X) :- superstep(X, I), I > 2.
h(X, Y) :- p(X), edge(X, Y).
`, `
p(X, I) :- superstep(X, I).
h(Z) :- !p(1, 0), Z = 1.
`} {
		runAllPaths(t, src, analysis.NewEnv(), sg, layers)
	}
}

// legErrors evaluates src over layers on every leg — the oracle, the
// materialised Evaluator, and the record-sourced
// program fed one Layer call per superstep, which is how both the online and
// the layered driver run it — and returns each leg's error, plus the
// compiled query.
func legErrors(t *testing.T, src string, sg StaticGraph, layers [][]RecordView) (map[string]error, *Compiled) {
	t.Helper()
	build := func() *analysis.Query { return analysis.MustAnalyze(src, analysis.NewEnv()) }
	errs := map[string]error{}
	orc, err := newOracle(build(), NewDatabase())
	if err != nil {
		t.Fatal(err)
	}
	errs["oracle"] = feedLayers(orc, sg, layers, true, nil)
	ev, err := NewEvaluator(build(), NewDatabase())
	if err != nil {
		t.Fatal(err)
	}
	errs["materialised"] = feedLayers(ev, sg, layers, true, nil)
	c, err := Compile(build(), NewDatabase(), sg)
	if err != nil {
		t.Fatal(err)
	}
	errs["record-sourced"] = serialLeg(c, layers, nil)
	return errs, c
}

// TestCutKeepsErrorContract pins the cut's fallibility rule: a run that
// fails on the oracle fails with the same error on every leg. In the first
// rule every head variable is bound before the message scan, so the first
// message (an Int) is a witness — but the second (a Float) fails M mod 2,
// and a cut would skip it: the rule must take none. In the second rule the
// failing term comes before the head is bound; the cut after it still
// applies, stopping the scan at the first message, and the record whose
// value is a Float still fails everywhere.
func TestCutKeepsErrorContract(t *testing.T) {
	sg := newFakeGraph(3, [][2]int64{{0, 1}, {2, 1}})
	rec := func(ss int64, d value.Value, msgs ...value.Value) RecordView {
		rv := RecordView{Vertex: 1, Superstep: ss, HasValue: true, Value: d, PrevActive: ss - 1}
		for i, m := range msgs {
			rv.Recvs = append(rv.Recvs, engine.IncomingMessage{Src: engine.VertexID(2 * i), Val: m})
		}
		return rv
	}
	witnessThenFail := []value.Value{value.NewInt(4), value.NewFloat(0.5)}
	cases := []struct {
		name   string
		src    string
		cut    int
		layers [][]RecordView
	}{
		{"failing row after the head is bound", `g(X, I) :- receive_message(X, Y, M, I), R = M mod 2.`, -1,
			[][]RecordView{{rec(0, value.NewInt(3), witnessThenFail...)}}},
		{"failing term before the cut", `g(X, R, I) :- value(X, D, I), R = D mod 2, receive_message(X, Y, M, I).`, 2,
			[][]RecordView{{rec(0, value.NewInt(3), witnessThenFail...)}, {rec(1, value.NewFloat(0.5), value.NewInt(4))}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			errs, c := legErrors(t, tc.src, sg, tc.layers)
			if cut := c.strata[0][0].prog.branches[0].cut; cut != tc.cut {
				t.Errorf("cut = %d, want %d", cut, tc.cut)
			}
			want := errs["oracle"]
			if want == nil || !strings.Contains(want.Error(), "cannot mod float") {
				t.Fatalf("oracle error %v, want the Float's mod failure", want)
			}
			for leg, err := range errs {
				if err == nil || err.Error() != want.Error() {
					t.Errorf("%s: error %v, oracle %v", leg, err, want)
				}
			}
			if tc.cut < 0 {
				return
			}
			// The cut stopped the first record's scan at its first message.
			one, err := Compile(analysis.MustAnalyze(tc.src, analysis.NewEnv()), NewDatabase(), sg)
			if err != nil {
				t.Fatal(err)
			}
			if err := one.Layer(tc.layers[0]); err != nil {
				t.Fatal(err)
			}
			if n := one.Stats().Emissions["g"]; n != 1 {
				t.Errorf("%d emissions from one record with two messages, want 1", n)
			}
		})
	}
}

// TestEmittedIndexKeepsEmittedOrder drives Query 7's emitted-table join
// through the keyed step's per-record index over records of many facts,
// whose first arguments mix Ints and numerically equal Floats (one hash
// chain per peer, several facts per chain), -0.0 beside +0.0, a non-integral
// Float, an Int no float64 represents, a String and a Vector. The compiled
// relation must hold exactly the nested-loop join's tuples in the nested
// loop's order, and agree with the other lowerings.
func TestEmittedIndexKeepsEmittedOrder(t *testing.T) {
	env := analysis.NewEnv()
	env.DeclareEDB("prov_error", 4)
	env.DeclareEDB("prov_prediction", 4)
	src := `algo(X, Y, P, I) :- prov_error(X, Y, E, I), prov_prediction(X, Y, P, I).`
	rng := rand.New(rand.NewSource(5))
	odd := []value.Value{value.NewFloat(math.Copysign(0, -1)), value.NewFloat(0), value.NewFloat(2.5),
		value.NewInt(1<<53 + 1), value.NewString("p"), value.NewVector([]float64{1, 2})}
	peer := func() value.Value {
		p := int64(rng.Intn(6 + len(odd)))
		switch {
		case p >= 6:
			return odd[p-6]
		case rng.Intn(2) == 0:
			return value.NewInt(p)
		}
		return value.NewFloat(float64(p))
	}
	sg := newFakeGraph(3, nil)
	var layers [][]RecordView
	for ss := int64(0); ss < 3; ss++ {
		var recs []RecordView
		for v := int64(0); v < 3; v++ {
			rv := RecordView{Vertex: v, Superstep: ss, HasValue: true, Value: value.NewFloat(0), PrevActive: -1}
			for k := 0; k < 48; k++ {
				table := [2]string{"prov_error", "prov_prediction"}[rng.Intn(2)]
				rv.Emitted = append(rv.Emitted, engine.ProvFact{Table: table,
					Args: []value.Value{peer(), value.NewFloat(float64(rng.Intn(4)))}})
			}
			recs = append(recs, rv)
		}
		layers = append(layers, recs)
	}
	runAllPaths(t, src, env, sg, layers)

	var want []string
	seen := map[string]bool{}
	for _, l := range layers {
		for _, rv := range l {
			for _, e := range rv.Emitted {
				for _, p := range rv.Emitted {
					if e.Table != "prov_error" || p.Table != "prov_prediction" || !e.Args[0].Equal(p.Args[0]) {
						continue
					}
					k := Tuple{value.NewInt(rv.Vertex), e.Args[0], p.Args[1], value.NewInt(rv.Superstep)}.Key()
					if !seen[k] {
						seen[k] = true
						want = append(want, k)
					}
				}
			}
		}
	}
	db := NewDatabase()
	c, err := Compile(analysis.MustAnalyze(src, env.Clone()), db, sg)
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range layers {
		if err := c.Layer(l); err != nil {
			t.Fatal(err)
		}
	}
	got := db.Get("algo").All()
	if len(got) != len(want) {
		t.Fatalf("%d tuples, nested loop %d", len(got), len(want))
	}
	for i, tu := range got {
		if tu.Key() != want[i] {
			t.Fatalf("tuple %d is %v, nested loop has a different one there", i, tu)
		}
	}
}

// TestCompiledHeadBufferNeverStored runs a rule that derives several
// distinct tuples from each record through the one reused head buffer. A
// sink that kept the buffer instead of a copy would leave every stored tuple
// equal to the last head written, so each stored tuple must still be the
// tuple its key names.
func TestCompiledHeadBufferNeverStored(t *testing.T) {
	src := `heard(X, Y, M, I) :- receive_message(X, Y, M, I).`
	sg, layers := testGraphAndLayers(3)
	db := NewDatabase()
	c, err := Compile(analysis.MustAnalyze(src, analysis.NewEnv()), db, sg)
	if err != nil {
		t.Fatal(err)
	}
	multi := false
	for _, l := range layers {
		for _, rv := range l {
			multi = multi || len(rv.Recvs) > 1
		}
		if err := c.Layer(l); err != nil {
			t.Fatal(err)
		}
	}
	if !multi {
		t.Fatal("fixture has no record with several messages")
	}
	rel := db.Get("heard")
	if rel.Len() < 2 {
		t.Fatalf("%d tuples derived", rel.Len())
	}
	rel.keyAll()
	for _, sl := range rel.set.slots {
		if tu := rel.order[max(sl.pos, 1)-1]; sl.pos != 0 && hashTuple(tu) != sl.h {
			t.Errorf("tuple keyed under hash %x now reads %v", sl.h, tu)
		}
	}
	for i, tu := range rel.All() {
		if !rel.Contains(tu) {
			t.Errorf("tuple %d (%v) is not a member", i, tu)
		}
	}
}

// TestUnmergedTuplesForgotten: a tuple a partition derived but never merged —
// its partition was shed, its superstep's barrier never ran, or it lies past
// the first error — leaves the partition's overlay and bitset, so the
// relation's members are exactly its tuples in order, and the partition derives the
// tuple again later, in the order a serial Layer over the merged records
// does. seen has no superstep column: a vertex derives the same tuple in
// every superstep it hears from someone. The heads of Queries 5 and 6 are
// record-keyed: their shards keep them in bitsets, which must forget them
// alike, and a re-observed superstep derives them again. heardAt's head is
// record-scoped: a superstep observed again after its merge probes the
// head's own tuples.
func TestUnmergedTuplesForgotten(t *testing.T) {
	const seen = `seen(X) :- receive_message(X, Y, M, I).`
	const heardAt = `heard(X, Y, I) :- receive_message(X, Y, M, I).`
	// ratio fails at vertex 2 only; late's tuples all lie past that failure.
	const failing = seen + `
ratio(X, R) :- superstep(X, I), R = 10 mod (X - 2).
late(X) :- superstep(X, I).`
	q5, q6 := queries.MonotoneCheck().Source, queries.SilentChange().Source
	// The record-keyed twin of failing: ratio's tuples at vertices 0 and 1
	// precede the failure, the rest and all of late's lie past it.
	const failingKeyed = `
ratio(X, I) :- superstep(X, I), R = 10 mod (X - 2).
late(X, I) :- superstep(X, I).`
	const parts, p = 3, 1
	sg, layers := testGraphAndLayers(2)
	l1, l2 := layers[1], layers[2]
	heard := func(l []RecordView) map[int64]bool {
		m := map[int64]bool{}
		for _, rv := range l {
			m[rv.Vertex] = len(rv.Recvs) > 0
		}
		return m
	}
	again := false
	for v, ok := range heard(l1) {
		again = again || ok && heard(l2)[v] && v%parts == p
	}
	if !again {
		t.Fatal("fixture: no vertex of the partition hears from someone in both layers")
	}
	only := func(l []RecordView, keep func(part int64) bool) []RecordView {
		var out []RecordView
		for _, rv := range l {
			if keep(rv.Vertex % parts) {
				out = append(out, rv)
			}
		}
		return out
	}
	all := func(int64) bool { return true }
	notP := func(part int64) bool { return part != p }
	observe := func(c *Compiled, ss int, l []RecordView, keep func(int64) bool) {
		for q := int64(0); q < parts; q++ {
			if keep(q) {
				c.partShard(int(q)).layer(ss, only(l, func(part int64) bool { return part == q }))
			}
		}
	}
	for _, tc := range []struct {
		name, src string
		run       func(c *Compiled) error
		serial    [][]RecordView
		fails     bool
	}{
		{"shed", seen, func(c *Compiled) error {
			observe(c, 1, l1, all)
			return c.MergePartitions(1, func(q int) bool { return q == p })
		}, [][]RecordView{only(l1, notP)}, false},
		{"shed then live", seen, func(c *Compiled) error {
			observe(c, 1, l1, all)
			if err := c.MergePartitions(1, func(q int) bool { return q == p }); err != nil {
				return err
			}
			observe(c, 2, l2, all)
			return c.MergePartitions(2, nil)
		}, [][]RecordView{only(l1, notP), l2}, false},
		{"aborted then observed", seen, func(c *Compiled) error {
			observe(c, 1, l1, func(q int64) bool { return q == p })
			observe(c, 2, l2, all)
			return c.MergePartitions(2, nil)
		}, [][]RecordView{l2}, false},
		{"aborted then not observed", seen, func(c *Compiled) error {
			observe(c, 1, l1, func(q int64) bool { return q == p })
			observe(c, 2, l2, notP)
			return c.MergePartitions(2, nil)
		}, [][]RecordView{only(l2, notP)}, false},
		{"past the first error", failing, func(c *Compiled) error {
			observe(c, 0, layers[0], all)
			return c.MergePartitions(0, nil)
		}, [][]RecordView{layers[0]}, true},
		{"Query 6 shed", q6, func(c *Compiled) error {
			observe(c, 1, l1, all)
			return c.MergePartitions(1, func(q int) bool { return q == p })
		}, [][]RecordView{only(l1, notP)}, false},
		{"Query 6 aborted then re-observed", q6, func(c *Compiled) error {
			observe(c, 1, l1, func(q int64) bool { return q == p })
			observe(c, 1, l1, all)
			return c.MergePartitions(1, nil)
		}, [][]RecordView{l1}, false},
		{"Query 5 shed then live", q5, func(c *Compiled) error {
			observe(c, 1, l1, all)
			if err := c.MergePartitions(1, func(q int) bool { return q == p }); err != nil {
				return err
			}
			observe(c, 2, l2, all)
			return c.MergePartitions(2, nil)
		}, [][]RecordView{only(l1, notP), l2}, false},
		{"Query 5 aborted then re-observed", q5, func(c *Compiled) error {
			observe(c, 2, l2, all)
			observe(c, 2, l2, all)
			return c.MergePartitions(2, nil)
		}, [][]RecordView{l2}, false},
		{"record-keyed past the first error", failingKeyed, func(c *Compiled) error {
			observe(c, 0, layers[0], all)
			return c.MergePartitions(0, nil)
		}, [][]RecordView{layers[0]}, true},
		{"record-scoped shed then live", heardAt, func(c *Compiled) error {
			observe(c, 1, l1, all)
			if err := c.MergePartitions(1, func(q int) bool { return q == p }); err != nil {
				return err
			}
			observe(c, 2, l2, all)
			return c.MergePartitions(2, nil)
		}, [][]RecordView{only(l1, notP), l2}, false},
		{"record-scoped aborted then re-observed", heardAt, func(c *Compiled) error {
			observe(c, 1, l1, func(q int64) bool { return q == p })
			observe(c, 1, l1, all)
			return c.MergePartitions(1, nil)
		}, [][]RecordView{l1}, false},
		{"record-scoped merged then re-observed", heardAt, func(c *Compiled) error {
			observe(c, 1, l1, all)
			if err := c.MergePartitions(1, nil); err != nil {
				return err
			}
			observe(c, 1, l1, all)
			return c.MergePartitions(1, nil)
		}, [][]RecordView{l1}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			q := analysis.MustAnalyze(tc.src, analysis.NewEnv())
			db, want := NewDatabase(), NewDatabase()
			c, err := Compile(q, db, sg)
			if err != nil {
				t.Fatal(err)
			}
			ref, _ := Compile(q, want, sg)
			if err := c.BeginRun(); err != nil {
				t.Fatal(err)
			}
			gotErr, wantErr := fmt.Sprint(tc.run(c)), fmt.Sprint(serialLeg(ref, tc.serial, nil))
			if gotErr != wantErr || tc.fails != (wantErr != "<nil>") {
				t.Errorf("error %s, serial %s", gotErr, wantErr)
			}
			if err := sameRelations(tc.name, insertionOrder(q, want, false), insertionOrder(q, db, false)); err != nil {
				t.Error(err)
			}
			derived := 0
			for name := range q.IDBs {
				rel := db.Get(name)
				if keyed := rel.bits != nil; keyed != (tc.src != seen && tc.src != failing && tc.src != heardAt) {
					t.Errorf("%s: record-keyed %v", name, keyed)
				}
				if scoped := rel.scoped; scoped != (tc.src == heardAt) {
					t.Errorf("%s: record-scoped %v", name, scoped)
				}
				if got := members(rel); got != rel.Len() {
					t.Errorf("%s: %d members, %d tuples in order", name, got, rel.Len())
				}
				derived += rel.Len()
				for _, tu := range rel.All() {
					if !rel.Contains(tu) {
						t.Errorf("%s%v is in order but not a member", name, tu)
					}
				}
			}
			if c.DerivedTuples() != ref.DerivedTuples() {
				t.Errorf("derived %d tuples, serial %d", c.DerivedTuples(), ref.DerivedTuples())
			}
			if derived == 0 {
				t.Error("nothing derived")
			}
		})
	}
}

// TestShardsProbeMainBits: a record-keyed tuple the relation already holds in
// its own bits (a checkpoint restored it, say) is not derived again by the
// partition owning its vertex, and that partition's negations see it, as a
// serial Layer would.
func TestShardsProbeMainBits(t *testing.T) {
	const parts = 3
	q := analysis.MustAnalyze(queries.SilentChange().Source, analysis.NewEnv())
	sg, layers := testGraphAndLayers(2)
	l1 := layers[1]
	db, want := NewDatabase(), NewDatabase()
	c, err := Compile(q, db, sg)
	if err != nil {
		t.Fatal(err)
	}
	ref, _ := Compile(q, want, sg)
	var held Tuple
	for _, rv := range l1 {
		if len(rv.Recvs) > 0 {
			held = ints(rv.Vertex, rv.Superstep)
			break
		}
	}
	if held == nil {
		t.Fatal("fixture: nobody hears from anyone at superstep 1")
	}
	for _, d := range []*Database{db, want} {
		if !d.Get("neighbor_change").Insert(held) {
			t.Fatal("held tuple not inserted")
		}
	}
	if err := c.BeginRun(); err != nil {
		t.Fatal(err)
	}
	for p := int64(0); p < parts; p++ {
		var recs []RecordView
		for _, rv := range l1 {
			if rv.Vertex%parts == p {
				recs = append(recs, rv)
			}
		}
		c.partShard(int(p)).layer(1, recs)
	}
	if err := c.MergePartitions(1, nil); err != nil {
		t.Fatal(err)
	}
	if err := ref.Layer(l1); err != nil {
		t.Fatal(err)
	}
	if err := sameRelations("partitioned", insertionOrder(q, want, false), insertionOrder(q, db, false)); err != nil {
		t.Error(err)
	}
	if rel := db.Get("neighbor_change"); members(rel) != rel.Len() {
		t.Errorf("neighbor_change: %d members, %d tuples in order", members(rel), rel.Len())
	}
}

// TestBarrierReadsMergedShards: the barrier strata read the views of the
// shards MergePartitions merged, not of every shard that observed the
// superstep. At three partitions with partition 1 shed, a barrier rule over
// superstep(X, I) must derive nothing at partition 1's vertices, exactly as
// Layer over partitions 0 and 2's records does.
func TestBarrierReadsMergedShards(t *testing.T) {
	const src = `a(X, I) :- superstep(X, I).
b(X, I) :- superstep(X, I), K = X + 100, !a(K, I).`
	const parts = 3
	q := analysis.MustAnalyze(src, analysis.NewEnv())
	sg := newFakeGraph(7, nil)
	split := make([][]RecordView, parts)
	for v := int64(0); v < 7; v++ {
		split[v%parts] = append(split[v%parts], RecordView{Vertex: v, Superstep: 1, HasValue: true, Value: value.NewFloat(0), PrevActive: -1})
	}
	db, want := NewDatabase(), NewDatabase()
	c, err := Compile(q, db, sg)
	if err != nil {
		t.Fatal(err)
	}
	if c.inPart != 1 || len(c.strata) != 2 {
		t.Fatalf("a must run in-partition and b at the barrier: %d of %d strata in-partition", c.inPart, len(c.strata))
	}
	if err := c.BeginRun(); err != nil {
		t.Fatal(err)
	}
	for p := range split {
		c.partShard(p).layer(1, split[p])
	}
	if err := c.MergePartitions(1, func(p int) bool { return p == 1 }); err != nil {
		t.Fatal(err)
	}
	if err := c.BarrierLayer(); err != nil {
		t.Fatal(err)
	}
	ref, _ := Compile(q, want, sg)
	kept := append(append([]RecordView(nil), split[0]...), split[2]...)
	sort.Slice(kept, func(i, j int) bool { return kept[i].Vertex < kept[j].Vertex })
	if err := ref.Layer(kept); err != nil {
		t.Fatal(err)
	}
	if err := sameRelations("shed partition 1", insertionOrder(q, want, false), insertionOrder(q, db, false)); err != nil {
		t.Error(err)
	}
	b := db.Get("b").All()
	if len(b) == 0 {
		t.Fatal("b derived nothing")
	}
	for _, tu := range b {
		if tu[0].Int()%parts == 1 {
			t.Errorf("b%v derived at a vertex of shed partition 1", tu)
		}
	}
}

// onlineObserver runs a compiled program as driver.Online does and notes
// the most records each partition observed in one superstep.
type onlineObserver struct {
	c    *Compiled
	mu   sync.Mutex
	most []int
}

func (o *onlineObserver) Reads() engine.Fields { return engine.FieldReceived }

func (o *onlineObserver) ObservePartition(p, superstep int, recs []engine.VertexRecord) {
	o.mu.Lock()
	for len(o.most) <= p {
		o.most = append(o.most, 0)
	}
	o.most[p] = max(o.most[p], len(recs))
	o.mu.Unlock()
	o.c.ObservePartition(p, superstep, recs)
}

func (o *onlineObserver) ObserveSuperstep(v *engine.SuperstepView) error {
	if err := o.c.MergePartitions(v.Superstep, nil); err != nil {
		return err
	}
	return o.c.BarrierLayer()
}

func (o *onlineObserver) Finish(int) error { return nil }

// TestOnlineHoldsOneSuperstep: online evaluation holds one superstep of
// record views (paper §5.2), as Layered holds one layer. SSSP with Query 6
// online at 4 partitions, over n and over 2n supersteps: each partition
// shard's view arena has room for that partition's largest superstep,
// exactly, and the same room in both runs, not the sum over the supersteps.
func TestOnlineHoldsOneSuperstep(t *testing.T) {
	g, err := gen.RMAT(gen.DefaultRMAT(8, 6, 7))
	if err != nil {
		t.Fatal(err)
	}
	const n, parts = 3, 4
	var first []int
	for _, steps := range []int{n, 2 * n} {
		c, err := Compile(queries.SilentChange().MustBuild(), NewDatabase(), newFakeGraph(g.NumVertices(), nil))
		if err != nil {
			t.Fatal(err)
		}
		if err := c.BeginRun(); err != nil {
			t.Fatal(err)
		}
		o := &onlineObserver{c: c}
		e, err := engine.New(g, &analytics.SSSP{}, engine.Config{Partitions: parts, MaxSupersteps: steps, Observers: []engine.Observer{o}})
		if err != nil {
			t.Fatal(err)
		}
		if st, err := e.Run(); err != nil || st.Supersteps != steps {
			t.Fatalf("SSSP ran %d supersteps (%v), want %d", st.Supersteps, err, steps)
		}
		if len(c.parts) != parts {
			t.Fatalf("%d partition shards, want %d", len(c.parts), parts)
		}
		held := make([]int, parts)
		for p, sh := range c.parts {
			held[p] = cap(sh.arena)
			if held[p] != o.most[p] {
				t.Errorf("%d supersteps: partition %d's arena holds %d views, want its largest superstep's %d", steps, p, held[p], o.most[p])
			}
		}
		if steps == n {
			first = held
		} else if !slices.Equal(held, first) {
			t.Errorf("arenas hold %v views over %d supersteps, %v over %d", held, steps, first, n)
		}
	}
}

// members counts what a relation's membership holds: its set, keyed for
// the count (it keys order lazily, and each distinct member once), and the
// bits set in bits and in the shard bitsets.
func members(rel *Relation) int {
	rel.keyAll()
	n := rel.set.n
	for _, b := range append([]*recordBits{rel.bits}, rel.bitSets...) {
		if b == nil {
			continue
		}
		for _, w := range b.ss {
			for _, x := range w {
				n += bits.OnesCount64(x)
			}
		}
	}
	return n
}

// BenchmarkMergePartitions times the barrier's merge of one superstep's
// in-partition tuples (one per record, 4096 records) spread over 1, 4 and 19
// partition shards, and reports it per merged tuple: the barrier's per-tuple
// constant. The shards derive outside the timer, into a cleared relation.
func BenchmarkMergePartitions(b *testing.B) {
	const n = 4096
	recs := make([]RecordView, n)
	for v := range recs {
		recs[v] = RecordView{Vertex: int64(v), Superstep: 1, PrevActive: -1,
			Recvs: []engine.IncomingMessage{{Src: engine.VertexID(v / 2), Val: value.NewFloat(float64(v))}}}
	}
	for _, parts := range []int{1, 4, 19} {
		b.Run(fmt.Sprintf("shards=%d", parts), func(b *testing.B) {
			db := NewDatabase()
			c, err := Compile(analysis.MustAnalyze(`heard(X, Y, M, I) :- receive_message(X, Y, M, I).`, analysis.NewEnv()), db, newFakeGraph(n, nil))
			if err != nil {
				b.Fatal(err)
			}
			if err := c.BeginRun(); err != nil {
				b.Fatal(err)
			}
			split := make([][]RecordView, parts)
			for _, rv := range recs {
				split[rv.Vertex%int64(parts)] = append(split[rv.Vertex%int64(parts)], rv)
			}
			b.ResetTimer()
			for range b.N {
				b.StopTimer()
				db.Get("heard").Clear()
				for p := range split {
					c.partShard(p).layer(1, split[p])
				}
				b.StartTimer()
				if err := c.MergePartitions(1, nil); err != nil {
					b.Fatal(err)
				}
			}
			if got := db.Get("heard").Len(); got != n {
				b.Fatalf("merged %d tuples, want %d", got, n)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/tuple")
		})
	}
}
