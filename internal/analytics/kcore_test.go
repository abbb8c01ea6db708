package analytics

import (
	"math"
	"sync"
	"testing"

	"ariadne/internal/engine"
	"ariadne/internal/gen"
	"ariadne/internal/graph"
)

func TestBFSChainAndShortcut(t *testing.T) {
	// 0->1->2->3 with shortcut 0->3: hop distances 0,1,2,1.
	g := mustGraph(t, 4, []graph.Edge{
		{Src: 0, Dst: 1, Weight: 9}, {Src: 1, Dst: 2, Weight: 9},
		{Src: 2, Dst: 3, Weight: 9}, {Src: 0, Dst: 3, Weight: 9},
	})
	e := run(t, g, &BFS{Source: 0}, engine.Config{})
	want := []float64{0, 1, 2, 1}
	for v, w := range want {
		if got := e.Values()[v].Float(); got != w {
			t.Errorf("hops[%d] = %v, want %v", v, got, w)
		}
	}
}

func TestBFSUnreachable(t *testing.T) {
	g := mustGraph(t, 3, []graph.Edge{{Src: 0, Dst: 1, Weight: 1}})
	e := run(t, g, &BFS{Source: 0}, engine.Config{})
	if !math.IsInf(e.Values()[2].Float(), 1) {
		t.Error("unreachable vertex should stay at +inf")
	}
}

func TestBFSMatchesSSSPOnUnitWeights(t *testing.T) {
	g, err := gen.RMAT(gen.RMATConfig{
		Scale: 8, EdgesPer: 5, A: 0.57, B: 0.19, C: 0.19,
		Seed: 9, MinWeight: 1, MaxWeight: 1, Connect: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	bfs := run(t, g, &BFS{Source: 0}, engine.Config{})
	sssp := run(t, g, &SSSP{Source: 0}, engine.Config{})
	for v := range bfs.Values() {
		if !bfs.Values()[v].Equal(sssp.Values()[v]) {
			t.Fatalf("vertex %d: BFS %v vs unit SSSP %v", v, bfs.Values()[v], sssp.Values()[v])
		}
	}
}

// bruteCoreness peels the graph: repeatedly remove vertices of degree < k.
func bruteCoreness(g *graph.Graph) []int64 {
	n := g.NumVertices()
	deg := make([]int, n)
	for v := 0; v < n; v++ {
		deg[v] = g.OutDegree(graph.VertexID(v))
	}
	core := make([]int64, n)
	removed := make([]bool, n)
	for k := 0; ; k++ {
		// Remove everything with degree <= k, cascading.
		for {
			changed := false
			for v := 0; v < n; v++ {
				if removed[v] || deg[v] > k {
					continue
				}
				removed[v] = true
				core[v] = int64(k)
				changed = true
				dst, _ := g.OutNeighbors(graph.VertexID(v))
				for _, d := range dst {
					if !removed[d] {
						deg[d]--
					}
				}
			}
			if !changed {
				break
			}
		}
		done := true
		for v := 0; v < n; v++ {
			if !removed[v] {
				done = false
				break
			}
		}
		if done {
			return core
		}
	}
}

func TestKCoreTriangleWithTail(t *testing.T) {
	// Triangle 0-1-2 (coreness 2) with tail 2-3 (vertex 3 coreness 1).
	g := mustGraph(t, 4, []graph.Edge{
		{Src: 0, Dst: 1, Weight: 1}, {Src: 1, Dst: 2, Weight: 1},
		{Src: 0, Dst: 2, Weight: 1}, {Src: 2, Dst: 3, Weight: 1},
	}).Undirected()
	e := run(t, g, KCore{}, engine.Config{})
	got := Coreness(e.Values())
	want := []int64{2, 2, 2, 1}
	for v := range want {
		if got[v] != want[v] {
			t.Errorf("coreness[%d] = %d, want %d", v, got[v], want[v])
		}
	}
}

func TestKCoreMatchesPeeling(t *testing.T) {
	g, err := gen.RMAT(gen.RMATConfig{
		Scale: 7, EdgesPer: 4, A: 0.57, B: 0.19, C: 0.19,
		Seed: 13, MinWeight: 1, MaxWeight: 1, Connect: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	u := g.Undirected()
	e := run(t, u, KCore{}, engine.Config{MaxSupersteps: 200})
	got := Coreness(e.Values())
	want := bruteCoreness(u)
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("coreness[%d] = %d, want %d", v, got[v], want[v])
		}
	}
}

func TestKCoreIsolatedVertices(t *testing.T) {
	g := mustGraph(t, 3, nil)
	e := run(t, g, KCore{}, engine.Config{})
	for v, c := range Coreness(e.Values()) {
		if c != 0 {
			t.Errorf("isolated vertex %d coreness %d", v, c)
		}
	}
}

func TestHIndex(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{0}, 0},
		{[]float64{5}, 1},
		{[]float64{1, 1, 1}, 1},
		{[]float64{3, 3, 3}, 3},
		{[]float64{5, 4, 3, 2, 1}, 3},
		{[]float64{kcoreUnknown, kcoreUnknown}, 2},
	}
	for _, c := range cases {
		if got := hIndex(c.in); got != c.want {
			t.Errorf("hIndex(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestKCoreMonitorableOnline(t *testing.T) {
	// KCore's bounds only decrease: the monotone invariant of Query 5
	// should hold (no vertex's bound increases while receiving messages).
	g, err := gen.RMAT(gen.RMATConfig{
		Scale: 6, EdgesPer: 4, A: 0.57, B: 0.19, C: 0.19,
		Seed: 21, MinWeight: 1, MaxWeight: 1, Connect: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	u := g.Undirected()
	obs := &boundObserver{last: map[engine.VertexID]float64{}}
	e, err := engine.New(u, KCore{}, engine.Config{Observers: []engine.Observer{obs}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if obs.violations != 0 {
		t.Errorf("%d bound increases observed", obs.violations)
	}
}

// boundObserver checks each partition's records as they arrive; a vertex
// belongs to one partition, so the order across partitions does not matter.
type boundObserver struct {
	mu         sync.Mutex
	last       map[engine.VertexID]float64
	violations int
}

func (o *boundObserver) Reads() engine.Fields { return 0 }
func (o *boundObserver) ObservePartition(_, _ int, recs []engine.VertexRecord) {
	o.mu.Lock()
	defer o.mu.Unlock()
	for _, r := range recs {
		b := r.NewValue.Vec()[0]
		if prev, ok := o.last[r.ID]; ok && b > prev {
			o.violations++
		}
		o.last[r.ID] = b
	}
}
func (o *boundObserver) ObserveSuperstep(*engine.SuperstepView) error { return nil }
func (o *boundObserver) Finish(int) error                             { return nil }
