package driver

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"ariadne/internal/capture"
	"ariadne/internal/engine"
	"ariadne/internal/fault"
	"ariadne/internal/gen"
	"ariadne/internal/graph"
	"ariadne/internal/pql/analysis"
	"ariadne/internal/pql/eval"
	"ariadne/internal/provenance"
	"ariadne/internal/queries"
	"ariadne/internal/supervise"
	"ariadne/internal/value"
)

// serial evaluates its Online's compiled query the way Layered does, the
// single-threaded reference for the in-partition path: it collects the
// partitions' records and at the barrier runs Compiled.Layer, on one shard,
// over the superstep's records in vertex order.
type serial struct {
	*Online
	mu   sync.Mutex
	recs []engine.VertexRecord
}

func (s *serial) ObservePartition(_, _ int, recs []engine.VertexRecord) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.recs = append(s.recs, recs...)
}

func (s *serial) ObserveSuperstep(v *engine.SuperstepView) error {
	slices.SortFunc(s.recs, func(a, b engine.VertexRecord) int { return cmp.Compare(a.ID, b.ID) })
	err := s.compiled.Layer(eval.EngineViews(nil, s.recs))
	s.recs = s.recs[:0]
	if err != nil {
		return err
	}
	derived := s.compiled.DerivedTuples()
	s.notePiggyback(v.Superstep, derived-s.noted)
	s.noted = derived
	return nil
}

// runOnline runs ssspProg over g at parts partitions with obs observing and
// returns the run's error.
func runOnline(t *testing.T, g *graph.Graph, parts int, obs ...engine.Observer) error {
	t.Helper()
	e, err := engine.New(g, ssspProg{}, engine.Config{Partitions: parts, Observers: obs})
	if err != nil {
		t.Fatal(err)
	}
	_, err = e.Run()
	return err
}

// TestInPartitionAnchoredLookup runs a stratum whose record rule joins an
// IDB located at its anchor through a keyed lookup — the lower stratum's
// tuples of earlier supersteps in the database and this superstep's in each
// partition's overlay — on four partition goroutines (run it with -race).
// The relations must equal the serial reference and layered evaluation of
// the same run's capture, in insertion order.
func TestInPartitionAnchoredLookup(t *testing.T) {
	const src = `
		seen(X, I) :- superstep(X, I).
		seen(X, I) :- receive_message(X, Y, M, I), M > 1.
		later(X, I, J) :- value(X, D, I), seen(X, J), J < I, K = J + 1, !seen(X, K).
		quiet(X, I) :- superstep(X, I), !seen(X, J), J = I - 1.`
	build := func() *analysis.Query { return analysis.MustAnalyze(src, analysis.NewEnv()) }
	text, err := eval.Explain(build())
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"[0 partition] seen", "[1 partition] later", "relation key[0]          seen(X, J)"} {
		if !strings.Contains(text, want) {
			t.Fatalf("explain lacks %q:\n%s", want, text)
		}
	}
	g, err := gen.RMAT(gen.DefaultRMAT(7, 4, 5))
	if err != nil {
		t.Fatal(err)
	}
	for _, parts := range []int{1, 4} {
		t.Run(fmt.Sprintf("partitions=%d", parts), func(t *testing.T) {
			on, err := NewOnline(build(), g)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := NewOnline(build(), g)
			if err != nil {
				t.Fatal(err)
			}
			store := provenance.NewStore(provenance.StoreConfig{})
			if err := runOnline(t, g, parts, on, &serial{Online: ref}, capture.NewObserver(capture.FullPolicy(), store)); err != nil {
				t.Fatal(err)
			}
			layered, err := Layered(build(), store, g)
			if err != nil {
				t.Fatal(err)
			}
			for _, pred := range []string{"seen", "later", "quiet"} {
				got := orderedKeys(on.Result().Relation(pred))
				if len(got) == 0 {
					t.Fatalf("%s: derived nothing", pred)
				}
				if want := orderedKeys(ref.Result().Relation(pred)); !slices.Equal(got, want) {
					t.Errorf("%s: %d tuples differ from the serial reference's %d in insertion order", pred, len(got), len(want))
				}
				if want := orderedKeys(layered.Relation(pred)); !slices.Equal(got, want) {
					t.Errorf("%s: %d tuples differ from layered's %d in insertion order", pred, len(got), len(want))
				}
			}
			if got, want := on.Result().CompiledStats(), ref.Result().CompiledStats(); !slices.Equal(got.PassesPerStratum, want.PassesPerStratum) ||
				fmt.Sprint(got.Emissions) != fmt.Sprint(want.Emissions) {
				t.Errorf("work counters %+v, serial reference %+v", got, want)
			}
			if got, want := on.PiggybackBySuperstep(), ref.PiggybackBySuperstep(); !slices.Equal(got, want) {
				t.Errorf("piggyback per superstep %v, serial reference %v", got, want)
			}
		})
	}
}

// TestPeerReadStaysAtBarrier reads a peer's tuple of the same superstep,
// which another partition derives: the stratum must run at the barrier, over
// the merged tuples of every partition, and equal the serial reference.
func TestPeerReadStaysAtBarrier(t *testing.T) {
	const src = `
		reached(X, I) :- superstep(X, I).
		orphan(X, I) :- receive_message(X, Y, M, I), !reached(Y, I).
		lonely(X, I) :- superstep(X, I), !orphan(X, I).`
	build := func() *analysis.Query { return analysis.MustAnalyze(src, analysis.NewEnv()) }
	text, err := eval.Explain(build())
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"[0 partition] reached", "[1 barrier] orphan", "[2 barrier] lonely"} {
		if !strings.Contains(text, want) {
			t.Fatalf("explain lacks %q:\n%s", want, text)
		}
	}
	g, err := gen.RMAT(gen.DefaultRMAT(7, 4, 5))
	if err != nil {
		t.Fatal(err)
	}
	on, err := NewOnline(build(), g)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := NewOnline(build(), g)
	if err != nil {
		t.Fatal(err)
	}
	if err := runOnline(t, g, 4, on, &serial{Online: ref}); err != nil {
		t.Fatal(err)
	}
	for _, pred := range []string{"reached", "orphan", "lonely"} {
		got, want := orderedKeys(on.Result().Relation(pred)), orderedKeys(ref.Result().Relation(pred))
		if len(want) == 0 || !slices.Equal(got, want) {
			t.Errorf("%s: %d tuples, serial reference %d (insertion order)", pred, len(got), len(want))
		}
	}
}

// TestInPartitionErrorIsSerialFirst makes a UDF fail at several vertices in
// different partitions. The run must fail with the error a serial pass hits
// first — the lowest by (stratum, rule, vertex), not the lowest partition's
// or the lowest vertex's — with the serial reference's exact text, and keep
// what the serial pass derived before it.
func TestInPartitionErrorIsSerialFirst(t *testing.T) {
	env := analysis.NewEnv()
	env.Funcs["boom"] = analysis.Func{Arity: 1, Fn: func(a []value.Value) (value.Value, error) {
		switch v := a[0].Int(); v {
		case 3, 6, 9:
			return value.NullValue, fmt.Errorf("vertex %d fails", v)
		}
		return value.NewBool(true), nil
	}}
	g, err := gen.RMAT(gen.DefaultRMAT(5, 4, 5))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name, src, want string
	}{
		{
			// Vertex 3 (partition 3) fails before vertex 6 (partition 2).
			name: "one rule",
			src:  `ok(X, I) :- superstep(X, I), X < 8, boom(X) = true.`,
			want: "engine: observer failed at superstep 0: pql: 1:37: boom: vertex 3 fails",
		},
		{
			// The first rule's failure at vertex 9 precedes the second rule's
			// at vertices 3 and 6.
			name: "two rules",
			src: `ok(X, I) :- superstep(X, I), X > 7, boom(X) = true.
				ok(X, I) :- superstep(X, I), X < 8, boom(X) = true.`,
			want: "engine: observer failed at superstep 0: pql: 1:37: boom: vertex 9 fails",
		},
		{
			// Query 5's shape: two rules derive one record-keyed head. The
			// second fails at superstep 2 on a message from vertex 9; the
			// first rule's tuples of that superstep precede the failure,
			// and the second rule's past it leave the shards' bitsets.
			name: "Query 5",
			src: `check_failed(X, I) :- value(X, D1, I), value(X, D2, J), evolution(X, J, I),
					receive_message(X, Y, M, I), D1 < D2.
				check_failed(X, I) :- receive_message(X, Y, M, I), I > 1, boom(Y) = true.`,
			want: "engine: observer failed at superstep 2: pql: 3:63: boom: vertex 9 fails",
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			build := func() *analysis.Query { return analysis.MustAnalyze(tc.src, env) }
			on, err := NewOnline(build(), g)
			if err != nil {
				t.Fatal(err)
			}
			err = runOnline(t, g, 4, on)
			if err == nil || err.Error() != tc.want {
				t.Fatalf("error %v, want %q", err, tc.want)
			}
			ref, err := NewOnline(build(), g)
			if err != nil {
				t.Fatal(err)
			}
			if err := runOnline(t, g, 4, &serial{Online: ref}); err == nil || err.Error() != tc.want {
				t.Fatalf("serial reference error %v, want %q", err, tc.want)
			}
			head := on.Result().q.Rules[0].Head.Pred
			got, want := orderedKeys(on.Result().Relation(head)), orderedKeys(ref.Result().Relation(head))
			if len(want) == 0 || !slices.Equal(got, want) {
				t.Errorf("derived %d tuples before the failure, serial reference %d (insertion order)", len(got), len(want))
			}
		})
	}
}

// TestOnlineShedMaterialisedMatchesCompiled sheds partition 1's capture at
// superstep 3 (one injected capture failure, DegradeCaptureAfter 1) under
// Query 6, observed online record-sourced and with every rule materialised.
// The materialised leg's copy rules run in the partitions, so a shed
// partition's facts are dropped with them, and each previous value comes
// from the engine's record; it must derive what the record-sourced leg and
// layered evaluation of the degraded store derive.
func TestOnlineShedMaterialisedMatchesCompiled(t *testing.T) {
	g, err := gen.RMAT(gen.DefaultRMAT(8, 4, 31))
	if err != nil {
		t.Fatal(err)
	}
	def := queries.SilentChange()
	deg := supervise.NewDegradeState(1)
	inj := fault.NewInjector(fault.Rule{Site: fault.SiteCapture, Superstep: 3, Partition: 1, Vertex: -1, Times: 1})
	store := provenance.NewStore(provenance.StoreConfig{})
	co := capture.NewObserver(capture.FullPolicy(), store)
	co.SetDegradation(deg, inj)
	online := func(opts ...EvalOpt) *Online {
		o, err := NewOnline(def.MustBuild(), g, opts...)
		if err != nil {
			t.Fatal(err)
		}
		o.SetDegrade(deg)
		return o
	}
	compiled, mat := online(), online(materialised())
	if err := runOnline(t, g, 4, co, compiled, mat); err != nil {
		t.Fatal(err)
	}
	if inj.Fired() != 1 || len(store.Gaps()) == 0 || store.Gaps()[0].Partition != 1 {
		t.Fatalf("capture fault fired %d times, gaps %+v: partition 1 was not shed", inj.Fired(), store.Gaps())
	}
	layered, err := Layered(def.MustBuild(), store, g)
	if err != nil {
		t.Fatal(err)
	}
	want := relationKeys(layered, false)
	if len(want["neighbor_change"]) == 0 {
		t.Fatal("layered derived no neighbor_change")
	}
	requireSameSig(t, "online compiled vs layered", want, relationKeys(compiled.Result(), false))
	requireSameSig(t, "online materialised vs layered", want, relationKeys(mat.Result(), false))
}

// TestOnlineRefusesStoreEDBs: capture_gap, net_rpc and superstep_profile are
// fed only from a captured store, so a query over them would derive nothing
// online. NewOnline must refuse each by name, although the queries are
// local, while layered evaluation of a store whose partition 1 was shed
// derives the gap.
func TestOnlineRefusesStoreEDBs(t *testing.T) {
	const gapSrc = `g(P, F, T) :- capture_gap(P, F, T).`
	g, err := gen.RMAT(gen.DefaultRMAT(6, 4, 31))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ edb, src string }{
		{"capture_gap", gapSrc},
		{"net_rpc", `r(S) :- net_rpc(S, P, B, R, N).`},
		{"superstep_profile", `p(S) :- superstep_profile(S, P, Q, N, T).`},
	} {
		q := analysis.MustAnalyze(tc.src, analysis.NewEnv())
		if !q.Class.OnlineEvaluable() {
			t.Fatalf("%s: class %v cannot run online anyway", tc.edb, q.Class)
		}
		if _, err := NewOnline(q, g); err == nil || !strings.Contains(err.Error(), tc.edb) {
			t.Errorf("%s: NewOnline error %v, want one naming the EDB", tc.edb, err)
		}
	}
	inj := fault.NewInjector(fault.Rule{Site: fault.SiteCapture, Superstep: 3, Partition: 1, Vertex: -1, Times: 1})
	store := provenance.NewStore(provenance.StoreConfig{})
	co := capture.NewObserver(capture.FullPolicy(), store)
	co.SetDegradation(supervise.NewDegradeState(1), inj)
	if err := runOnline(t, g, 4, co); err != nil {
		t.Fatal(err)
	}
	layered, err := Layered(analysis.MustAnalyze(gapSrc, analysis.NewEnv()), store, g)
	if err != nil {
		t.Fatal(err)
	}
	if layered.Relation("g").Len() == 0 {
		t.Errorf("layered derived no gap; store gaps %+v", store.Gaps())
	}
}

// TestInPartitionStaticError: a static rule fails in BeginRun, before any
// partition observes. The run must fail at the first barrier with the serial
// reference's exact text, and no record rule may have derived anything.
func TestInPartitionStaticError(t *testing.T) {
	const src = `
		ratio(X, R) :- edge(X, Y), R = 10 mod (X - 2).
		seen(X, I) :- superstep(X, I).`
	g, err := gen.RMAT(gen.DefaultRMAT(5, 4, 5))
	if err != nil {
		t.Fatal(err)
	}
	var errs []string
	for _, wrap := range []func(*Online) engine.Observer{
		func(o *Online) engine.Observer { return o },
		func(o *Online) engine.Observer { return &serial{Online: o} },
	} {
		on, err := NewOnline(analysis.MustAnalyze(src, analysis.NewEnv()), g)
		if err != nil {
			t.Fatal(err)
		}
		err = runOnline(t, g, 4, wrap(on))
		if err == nil || !strings.HasPrefix(err.Error(), "engine: observer failed at superstep 0: ") {
			t.Fatalf("error %v, want a failure at the first barrier", err)
		}
		if n := on.Result().Relation("seen").Len(); n != 0 {
			t.Errorf("seen holds %d tuples after a static rule failed", n)
		}
		errs = append(errs, err.Error())
	}
	if errs[0] != errs[1] {
		t.Errorf("error %q, serial reference %q", errs[0], errs[1])
	}
}
