package ariadne_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"ariadne"
	"ariadne/internal/analytics"
	"ariadne/internal/fault"
	"ariadne/internal/gen"
	"ariadne/internal/graph"
	"ariadne/internal/provenance"
	"ariadne/internal/queries"
)

// The differential crash-recovery suite: a run crashed by an injected worker
// panic and resumed from its last checkpoint must finish with final vertex
// values *byte-identical* to an uninterrupted run, and online query results
// equal to the no-failure run's — the whole point of checkpointing observer
// state alongside engine state.

func rmatGraph(t *testing.T) *ariadne.Graph {
	t.Helper()
	g, err := gen.RMAT(gen.DefaultRMAT(8, 6, 7))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func chain(t *testing.T, n int) *ariadne.Graph {
	t.Helper()
	edges := make([]graph.Edge, 0, n-1)
	for i := 0; i < n-1; i++ {
		edges = append(edges, graph.Edge{Src: ariadne.VertexID(i), Dst: ariadne.VertexID(i + 1), Weight: 1})
	}
	g, err := graph.NewFromEdges(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func sameFinalValues(t *testing.T, got, want []ariadne.Value) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("value count %d != %d", len(got), len(want))
	}
	for i := range got {
		g := got[i].AppendBinary(nil)
		w := want[i].AppendBinary(nil)
		if string(g) != string(w) {
			t.Fatalf("value[%d] = %v, want %v (binary encodings differ)", i, got[i], want[i])
		}
	}
}

func sameQueryResults(t *testing.T, got, want *ariadne.QueryResult) {
	t.Helper()
	gr, wr := got.DerivedRelations(), want.DerivedRelations()
	if len(gr) != len(wr) {
		t.Fatalf("derived relations %v != %v", gr, wr)
	}
	for i := range gr {
		if gr[i] != wr[i] {
			t.Fatalf("relation %s: %d tuples, want %s: %d", gr[i].Name, gr[i].Count, wr[i].Name, wr[i].Count)
		}
		gt := ariadne.Tuples(got, gr[i].Name)
		wt := ariadne.Tuples(want, wr[i].Name)
		for j := range gt {
			if len(gt[j]) != len(wt[j]) {
				t.Fatalf("%s row %d arity differs", gr[i].Name, j)
			}
			for k := range gt[j] {
				if !gt[j][k].Equal(wt[j][k]) {
					t.Fatalf("%s row %d col %d: %v != %v", gr[i].Name, j, k, gt[j][k], wt[j][k])
				}
			}
		}
	}
}

// crashAndResume runs prog twice — once clean as the baseline, once with a
// panic injected at crashSS plus checkpoints — asserts the crash surfaces as
// a CrashError, resumes, and compares everything.
func crashAndResume(t *testing.T, g *ariadne.Graph, prog ariadne.Program, crashSS int, def ariadne.QueryDef, extra ...ariadne.Option) {
	t.Helper()
	baseOpts := append([]ariadne.Option{ariadne.WithOnlineQuery(def)}, extra...)
	baseline, err := ariadne.Run(g, prog, baseOpts...)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	ckOpts := append(append([]ariadne.Option{}, baseOpts...), ariadne.WithCheckpoint(dir, 2))
	crashOpts := append(append([]ariadne.Option{}, ckOpts...),
		ariadne.WithFault(fault.NewInjector(fault.PanicAt(crashSS, -1))))

	_, err = ariadne.Run(g, prog, crashOpts...)
	var ce *ariadne.CrashError
	if !errors.As(err, &ce) {
		t.Fatalf("injected panic at superstep %d: got %v, want CrashError", crashSS, err)
	}
	if ce.Superstep != crashSS {
		t.Errorf("crash culprit superstep = %d, want %d", ce.Superstep, crashSS)
	}
	if !errors.Is(err, ariadne.ErrComputePanic) {
		t.Errorf("crash cause should be ErrComputePanic through the API boundary: %v", err)
	}

	res, err := ariadne.Resume(g, prog, ckOpts...)
	if err != nil {
		t.Fatal(err)
	}
	if res.ResumedFrom == 0 {
		t.Error("Resume did not restart from a checkpoint")
	}
	sameFinalValues(t, res.Values, baseline.Values)
	sameQueryResults(t, res.Query(def.Name), baseline.Query(def.Name))
	if res.Stats.Supersteps != baseline.Stats.Supersteps {
		t.Errorf("supersteps = %d, want %d", res.Stats.Supersteps, baseline.Stats.Supersteps)
	}
	if res.Stats.MessagesSent != baseline.Stats.MessagesSent {
		t.Errorf("messages = %d, want %d", res.Stats.MessagesSent, baseline.Stats.MessagesSent)
	}
}

func TestCrashRecoveryPageRankQ4(t *testing.T) {
	// The crash superstep is drawn from a seeded RNG: deterministic per test
	// binary, but not hand-picked to a convenient barrier.
	crashSS := 2 + rand.New(rand.NewSource(4)).Intn(14)
	prog := &analytics.PageRank{Iterations: 20}
	crashAndResume(t, rmatGraph(t), prog, crashSS,
		queries.PageRankCheck(), ariadne.WithMaxSupersteps(21))
}

// TestCrashRecoveryPageRankApt covers the interpretive online path (the apt
// query aggregates, so it cannot compile to a query vertex program): the
// evaluator's aggregate tables must survive the crash/resume cycle.
func TestCrashRecoveryPageRankApt(t *testing.T) {
	crashSS := 2 + rand.New(rand.NewSource(6)).Intn(10)
	prog := &analytics.PageRank{Iterations: 14}
	crashAndResume(t, rmatGraph(t), prog, crashSS,
		queries.Apt(0.01, nil), ariadne.WithMaxSupersteps(15))
}

func TestCrashRecoverySSSPQ5(t *testing.T) {
	crashSS := 2 + rand.New(rand.NewSource(5)).Intn(20)
	crashAndResume(t, chain(t, 30), &analytics.SSSP{Source: 0}, crashSS,
		queries.MonotoneCheck())
}

// TestCrashRecoveryWithCapture checks observer-watermark recovery: provenance
// captured with SpillAll survives a crash on disk, the resumed run reattaches
// it, and the captured graph equals the no-failure capture, file for file:
// the first layer the resumed run captures derives its receive payloads
// from the last reattached layer file, as the no-failure capture's does.
func TestCrashRecoveryWithCapture(t *testing.T) {
	g := chain(t, 24)
	prog := &analytics.SSSP{Source: 0}

	baseDir := t.TempDir()
	baseline, err := ariadne.Run(g, prog, ariadne.WithCaptureQuery(queries.CaptureFull(),
		ariadne.StoreConfig{SpillAll: true, SpillDir: baseDir}))
	if err != nil {
		t.Fatal(err)
	}
	defer baseline.Provenance.Close()

	spillDir, ckDir := t.TempDir(), t.TempDir()
	capOpt := ariadne.WithCaptureQuery(queries.CaptureFull(),
		ariadne.StoreConfig{SpillAll: true, SpillDir: spillDir})
	_, err = ariadne.Run(g, prog, capOpt, ariadne.WithCheckpoint(ckDir, 3),
		ariadne.WithFault(fault.NewInjector(fault.PanicAt(11, -1))))
	var ce *ariadne.CrashError
	if !errors.As(err, &ce) {
		t.Fatalf("want CrashError, got %v", err)
	}

	res, err := ariadne.Resume(g, prog, capOpt, ariadne.WithCheckpoint(ckDir, 3))
	if err != nil {
		t.Fatal(err)
	}
	defer res.Provenance.Close()
	sameFinalValues(t, res.Values, baseline.Values)
	if res.Provenance.NumLayers() != baseline.Provenance.NumLayers() {
		t.Fatalf("layers = %d, want %d", res.Provenance.NumLayers(), baseline.Provenance.NumLayers())
	}
	if res.Provenance.TotalTuples() != baseline.Provenance.TotalTuples() {
		t.Errorf("tuples = %d, want %d", res.Provenance.TotalTuples(), baseline.Provenance.TotalTuples())
	}
	if res.Provenance.DiskBytes() != baseline.Provenance.DiskBytes() {
		t.Errorf("disk bytes = %d, want %d", res.Provenance.DiskBytes(), baseline.Provenance.DiskBytes())
	}
	for i := 0; i < baseline.Provenance.NumLayers(); i++ {
		want, err := baseline.Provenance.Layer(i)
		if err != nil {
			t.Fatal(err)
		}
		got, err := res.Provenance.Layer(i)
		if err != nil {
			t.Fatal(err)
		}
		sameLayerBits(t, fmt.Sprintf("resumed layer %d", i), want, got)
	}
	before := res.Provenance.DecodeWork()
	var v provenance.LayerViews
	if err := res.Provenance.LayerProjected(res.ResumedFrom, &provenance.LayerProjection{RecvValues: true}, &v); err != nil {
		t.Fatal(err)
	}
	if d := res.Provenance.DecodeWork()["sendValues"].Blocks - before["sendValues"].Blocks; res.ResumedFrom == 0 || d != 1 {
		t.Errorf("resumed at superstep %d, whose payloads decoded %d send-value blocks: want a derived layer after a resume", res.ResumedFrom, d)
	}
	// The recovered store answers offline queries identically.
	qb, err := ariadne.QueryOffline(queries.MonotoneCheck(), baseline.Provenance, g, ariadne.ModeLayered, 0)
	if err != nil {
		t.Fatal(err)
	}
	qr, err := ariadne.QueryOffline(queries.MonotoneCheck(), res.Provenance, g, ariadne.ModeLayered, 0)
	if err != nil {
		t.Fatal(err)
	}
	sameQueryResults(t, qr, qb)
}

func TestCrashCulpritSurvivesAPIBoundary(t *testing.T) {
	_, err := ariadne.Run(chain(t, 10), &analytics.SSSP{Source: 0},
		ariadne.WithFaultSpec("compute:mode=panic:ss=3:vertex=3"))
	var ce *ariadne.CrashError
	if !errors.As(err, &ce) {
		t.Fatalf("want CrashError through ariadne.Run, got %v", err)
	}
	if ce.Vertex != 3 || ce.Superstep != 3 {
		t.Errorf("culprit = vertex %d superstep %d, want vertex 3 superstep 3", ce.Vertex, ce.Superstep)
	}
	if !errors.Is(err, ariadne.ErrComputePanic) {
		t.Errorf("errors.Is(err, ErrComputePanic) = false: %v", err)
	}
}

func TestRunCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := ariadne.Run(chain(t, 10), &analytics.SSSP{Source: 0}, ariadne.WithContext(ctx))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled run = %v, want context.Canceled", err)
	}
}

func TestResumeWithoutCheckpointFails(t *testing.T) {
	if _, err := ariadne.Resume(chain(t, 5), &analytics.SSSP{Source: 0}); err == nil {
		t.Fatal("Resume without WithCheckpoint should fail")
	}
}
