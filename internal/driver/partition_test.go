package driver

import (
	"fmt"
	"slices"
	"strings"
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

// serialOnly is an Online the engine never hands partition records to, so
// it evaluates every superstep whole at the barrier: the single-threaded
// reference for the in-partition path.
type serialOnly struct{ *Online }

func (serialOnly) ObservePartition(int, int, []engine.VertexRecord) {}

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
			if err := runOnline(t, g, parts, on, serialOnly{ref}, capture.NewObserver(capture.FullPolicy(), store)); err != nil {
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
	if err := runOnline(t, g, 4, on, serialOnly{ref}); err != nil {
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
			if err := runOnline(t, g, 4, serialOnly{ref}); err == nil || err.Error() != tc.want {
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
// Query 6, observed online on both evaluation paths. The materialised leg
// takes each previous value from the engine's record, not from a map of the
// records it was fed; shedding is permanent, so the two agree on every
// record the leg sees, and it must derive what the compiled leg and layered
// evaluation of the degraded store derive.
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
