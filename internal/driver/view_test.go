package driver

import (
	"bytes"
	"fmt"
	"os"
	"testing"

	"ariadne/internal/analytics"
	"ariadne/internal/capture"
	"ariadne/internal/engine"
	"ariadne/internal/gen"
	"ariadne/internal/graph"
	"ariadne/internal/provenance"
	"ariadne/internal/queries"
	"ariadne/internal/value"
)

// strayRank is PageRank whose vertex 0 also messages vertex to at superstep
// 1: the stray message paper Query 4 exists to catch when to has no in-edge.
type strayRank struct {
	*analytics.PageRank
	to engine.VertexID
}

func (s strayRank) Compute(ctx *engine.Context, msgs []engine.IncomingMessage) error {
	if err := s.PageRank.Compute(ctx, msgs); err != nil {
		return err
	}
	if ctx.Superstep() == 1 && ctx.ID() == 0 {
		ctx.SendMessage(s.to, value.NewFloat(0.123))
	}
	return nil
}

// strayGraph returns an RMAT graph plus one vertex with an out-edge and no
// in-edge, and strayRank aimed at that vertex.
func strayGraph(t *testing.T) (*graph.Graph, strayRank) {
	t.Helper()
	r, err := gen.RMAT(gen.DefaultRMAT(7, 4, 23))
	if err != nil {
		t.Fatal(err)
	}
	n := r.NumVertices()
	edges := []graph.Edge{{Src: graph.VertexID(n), Dst: 0, Weight: 1}}
	for v := 0; v < n; v++ {
		dst, w := r.OutNeighbors(graph.VertexID(v))
		for i, d := range dst {
			edges = append(edges, graph.Edge{Src: graph.VertexID(v), Dst: d, Weight: w[i]})
		}
	}
	g, err := graph.NewFromEdges(n+1, edges)
	if err != nil {
		t.Fatal(err)
	}
	return g, strayRank{&analytics.PageRank{Iterations: 5}, graph.VertexID(n)}
}

// TestStaticViewLegs: Query 4's has_in is a degree test on the compiled path
// and a relation lookup on the other; online and layered, at 1, 4 and 19
// partitions, every leg flags exactly the stray message and reads has_in
// with the same tuples in the same order. The online legs run without
// capture, so the engine builds only the receives Query 4 reads; the
// layered legs read a full capture of a second run.
func TestStaticViewLegs(t *testing.T) {
	g, prog := strayGraph(t)
	def := queries.PageRankCheck()
	evals := map[string][]EvalOpt{"compiled": nil, "materialised": {materialised()}}
	run := func(parts int, observers ...engine.Observer) {
		t.Helper()
		e, err := engine.New(g, prog, engine.Config{Partitions: parts, Observers: observers})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.Run(); err != nil {
			t.Fatal(err)
		}
	}
	var ref map[string][]string
	for _, parts := range []int{1, 4, 19} {
		online := map[string]*Online{}
		var observers []engine.Observer
		for name, opts := range evals {
			o, err := NewOnline(def.MustBuild(), g, opts...)
			if err != nil {
				t.Fatal(err)
			}
			if o.UsesCompiledPath() != (name == "compiled") {
				t.Fatalf("%s leg runs compiled=%v", name, o.UsesCompiledPath())
			}
			online[name] = o
			observers = append(observers, o)
		}
		run(parts, observers...)
		store := provenance.NewStore(provenance.StoreConfig{})
		run(parts, capture.NewObserver(capture.FullPolicy(), store))
		legs := map[string]*Result{}
		for name, o := range online {
			legs["online/"+name] = o.Result()
		}
		for name, opts := range evals {
			res, err := Layered(def.MustBuild(), store, g, opts...)
			if err != nil {
				t.Fatal(err)
			}
			legs["layered/"+name] = res
		}
		for name, res := range legs {
			label := fmt.Sprintf("parts=%d %s", parts, name)
			failed := res.Relation("check_failed").Sorted()
			if len(failed) != 1 || failed[0][0].Int() != int64(prog.to) || failed[0][1].Int() != 0 || failed[0][2].Int() != 2 {
				t.Errorf("%s: check_failed %v, want the stray message (%d, 0, 2)", label, failed, prog.to)
			}
			// has_in's order is the rule's on either evaluator.
			sig := relationKeys(res, false)
			if ref == nil {
				ref = sig
			}
			requireSameSig(t, label, ref, sig)
		}
	}
}

// q4Checkpoint runs strayRank with Query 4 online at 4 partitions and
// returns the online checkpoint marshalled after superstep 3.
func q4Checkpoint(t *testing.T) []byte {
	t.Helper()
	g, prog := strayGraph(t)
	o, err := NewOnline(queries.PageRankCheck().MustBuild(), g)
	if err != nil {
		t.Fatal(err)
	}
	ck := &checkpointAt{Online: o, at: 3}
	e, err := engine.New(g, prog, engine.Config{Partitions: 4, Observers: []engine.Observer{ck}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if ck.blob == nil {
		t.Fatal("no checkpoint taken")
	}
	return ck.blob
}

// checkpointAt marshals the online checkpoint once superstep at is observed.
type checkpointAt struct {
	*Online
	at   int
	blob []byte
}

func (c *checkpointAt) ObserveSuperstep(v *engine.SuperstepView) error {
	if err := c.Online.ObserveSuperstep(v); err != nil || v.Superstep != c.at {
		return err
	}
	var err error
	c.blob, err = c.MarshalCheckpoint()
	return err
}

// TestQ4CheckpointBytes: has_in is a static view whose probes are degree
// tests, yet a Query 4 checkpoint holds what it held when they were relation
// lookups. The build that probed the relation wrote
// testdata/online_compiled_q4.ckpt; the checkpoint written now must be
// byte-identical, and resuming from it must reproduce the uninterrupted run.
func TestQ4CheckpointBytes(t *testing.T) {
	want, err := os.ReadFile("testdata/online_compiled_q4.ckpt")
	if err != nil {
		t.Fatal(err)
	}
	if got := q4Checkpoint(t); !bytes.Equal(got, want) {
		t.Fatalf("checkpoint of %d bytes differs from the recorded one of %d", len(got), len(want))
	}
	g, prog := strayGraph(t)
	run := func(wrap func(*Online) engine.Observer) *Result {
		t.Helper()
		o, err := NewOnline(queries.PageRankCheck().MustBuild(), g)
		if err != nil {
			t.Fatal(err)
		}
		e, err := engine.New(g, prog, engine.Config{Partitions: 4, Observers: []engine.Observer{wrap(o)}})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return o.Result()
	}
	clean := run(func(o *Online) engine.Observer { return o })
	resumed := run(func(o *Online) engine.Observer { return &resumeAt{Online: o, at: 4, blob: want} })
	requireSameSig(t, "resumed", relationKeys(clean, false), relationKeys(resumed, false))
	if clean.CompiledStats().Emissions["has_in"] != resumed.CompiledStats().Emissions["has_in"] {
		t.Errorf("has_in emissions %v resumed, %v clean", resumed.CompiledStats().Emissions, clean.CompiledStats().Emissions)
	}
}
