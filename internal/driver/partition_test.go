package driver

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"ariadne/internal/capture"
	"ariadne/internal/engine"
	"ariadne/internal/gen"
	"ariadne/internal/graph"
	"ariadne/internal/pql/analysis"
	"ariadne/internal/pql/eval"
	"ariadne/internal/provenance"
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
			got, want := orderedKeys(on.Result().Relation("ok")), orderedKeys(ref.Result().Relation("ok"))
			if len(want) == 0 || !slices.Equal(got, want) {
				t.Errorf("derived %d tuples before the failure, serial reference %d (insertion order)", len(got), len(want))
			}
		})
	}
}
