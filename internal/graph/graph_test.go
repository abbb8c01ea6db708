package graph

import (
	"bytes"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func mustGraph(t *testing.T, n int, edges []Edge) *Graph {
	t.Helper()
	g, err := NewFromEdges(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestBasicCSR(t *testing.T) {
	g := mustGraph(t, 4, []Edge{
		{0, 1, 1.5}, {0, 2, 2.0}, {1, 2, 0.5}, {2, 3, 1.0}, {3, 0, 0.25},
	})
	if g.NumVertices() != 4 || g.NumEdges() != 5 {
		t.Fatalf("size = %d/%d", g.NumVertices(), g.NumEdges())
	}
	if g.OutDegree(0) != 2 || g.OutDegree(3) != 1 {
		t.Errorf("degrees wrong: %d, %d", g.OutDegree(0), g.OutDegree(3))
	}
	dst, w := g.OutNeighbors(0)
	if len(dst) != 2 || dst[0] != 1 || dst[1] != 2 || w[0] != 1.5 || w[1] != 2.0 {
		t.Errorf("out(0) = %v %v", dst, w)
	}
	if wt, ok := g.EdgeWeight(1, 2); !ok || wt != 0.5 {
		t.Errorf("EdgeWeight(1,2) = %v %v", wt, ok)
	}
	if _, ok := g.EdgeWeight(1, 3); ok {
		t.Error("EdgeWeight(1,3) should not exist")
	}
}

func TestOutOfRangeEdge(t *testing.T) {
	if _, err := NewFromEdges(2, []Edge{{0, 5, 1}}); err == nil {
		t.Error("out-of-range edge should fail")
	}
	if _, err := NewFromEdges(-1, nil); err == nil {
		t.Error("negative n should fail")
	}
}

func TestEmptyGraph(t *testing.T) {
	g := mustGraph(t, 0, nil)
	if g.NumVertices() != 0 || g.NumEdges() != 0 {
		t.Error("empty graph wrong")
	}
	st := ComputeStats(g, 3, 1)
	if st.AvgDegree != 0 {
		t.Error("empty stats wrong")
	}
}

func TestOutEdgesSorted(t *testing.T) {
	g := mustGraph(t, 5, []Edge{{0, 4, 4}, {0, 1, 1}, {0, 3, 3}, {0, 2, 2}})
	dst, w := g.OutNeighbors(0)
	for i := 1; i < len(dst); i++ {
		if dst[i-1] > dst[i] {
			t.Fatalf("out-edges not sorted: %v", dst)
		}
	}
	for i, d := range dst {
		if w[i] != float64(d) {
			t.Errorf("weight misaligned after sort: dst=%d w=%v", d, w[i])
		}
	}
}

func TestInEdges(t *testing.T) {
	g := mustGraph(t, 4, []Edge{{0, 2, 1}, {1, 2, 2}, {3, 2, 3}, {2, 0, 9}})
	if g.HasInEdges() {
		t.Error("in-edges should not exist before BuildInEdges")
	}
	g.BuildInEdges()
	g.BuildInEdges() // idempotent
	if g.InDegree(2) != 3 || g.InDegree(1) != 0 || g.InDegree(0) != 1 {
		t.Errorf("in-degrees: %d %d %d", g.InDegree(2), g.InDegree(1), g.InDegree(0))
	}
	src, w := g.InNeighbors(2)
	sum := 0.0
	for _, x := range w {
		sum += x
	}
	if len(src) != 3 || sum != 6 {
		t.Errorf("in(2) = %v %v", src, w)
	}
}

func TestUndirected(t *testing.T) {
	g := mustGraph(t, 3, []Edge{{0, 1, 1}, {1, 0, 1}, {1, 2, 1}})
	u := g.Undirected()
	// 0<->1 already both ways; 1->2 gains 2->1. Total 4.
	if u.NumEdges() != 4 {
		t.Fatalf("undirected edges = %d, want 4", u.NumEdges())
	}
	if _, ok := u.EdgeWeight(2, 1); !ok {
		t.Error("reverse edge 2->1 missing")
	}
}

func TestStatsChain(t *testing.T) {
	// 0->1->2->3: eccentricity from 0 is 3.
	g := mustGraph(t, 4, []Edge{{0, 1, 1}, {1, 2, 1}, {2, 3, 1}})
	dist := make([]int32, 4)
	if ecc := bfsEccentricity(g, 0, dist); ecc != 3 {
		t.Errorf("ecc(0) = %d, want 3", ecc)
	}
	st := ComputeStats(g, 8, 42)
	if st.AvgDegree != 0.75 {
		t.Errorf("avg degree = %v", st.AvgDegree)
	}
	if st.MaxOutDeg != 1 {
		t.Errorf("max out deg = %d", st.MaxOutDeg)
	}
	if !strings.Contains(st.String(), "|V|=4") {
		t.Errorf("stats string: %s", st.String())
	}
}

func TestHighestDegreeVertex(t *testing.T) {
	g := mustGraph(t, 4, []Edge{{2, 0, 1}, {2, 1, 1}, {2, 3, 1}, {0, 1, 1}})
	if hd := HighestDegreeVertex(g); hd != 2 {
		t.Errorf("highest degree = %d, want 2", hd)
	}
}

func TestEdgeListRoundTrip(t *testing.T) {
	g := mustGraph(t, 4, []Edge{{0, 1, 0.5}, {1, 2, 1}, {3, 0, 2.25}})
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumVertices() != 4 || g2.NumEdges() != 3 {
		t.Fatalf("round trip size %d/%d", g2.NumVertices(), g2.NumEdges())
	}
	if w, ok := g2.EdgeWeight(3, 0); !ok || w != 2.25 {
		t.Errorf("weight lost: %v %v", w, ok)
	}
}

func TestReadEdgeListErrors(t *testing.T) {
	cases := []string{
		"0\n",       // too few fields
		"a 1\n",     // bad src
		"0 b\n",     // bad dst
		"0 1 zzz\n", // bad weight
	}
	for _, c := range cases {
		if _, err := ReadEdgeList(strings.NewReader(c)); err == nil {
			t.Errorf("input %q should fail", c)
		}
	}
	// Comments and blanks are fine.
	g, err := ReadEdgeList(strings.NewReader("# comment\n\n% also comment\n0 1\n"))
	if err != nil || g.NumEdges() != 1 {
		t.Errorf("comment handling: %v %v", g, err)
	}
}

func TestCSRPropertyDegreeSum(t *testing.T) {
	// Property: sum of out-degrees == NumEdges, and in-CSR mirrors out-CSR.
	f := func(raw []uint16) bool {
		const n = 32
		edges := make([]Edge, 0, len(raw))
		for _, r := range raw {
			edges = append(edges, Edge{VertexID(r % n), VertexID((r >> 5) % n), 1})
		}
		g, err := NewFromEdges(n, edges)
		if err != nil {
			return false
		}
		sum := 0
		for v := 0; v < n; v++ {
			sum += g.OutDegree(VertexID(v))
		}
		if sum != g.NumEdges() {
			return false
		}
		g.BuildInEdges()
		insum := 0
		for v := 0; v < n; v++ {
			insum += g.InDegree(VertexID(v))
		}
		return insum == g.NumEdges()
	}
	cfg := &quick.Config{MaxCount: 50, Rand: rand.New(rand.NewSource(7))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestMemSizePositive(t *testing.T) {
	g := mustGraph(t, 3, []Edge{{0, 1, 1}})
	if g.MemSize() <= 0 {
		t.Error("MemSize should be positive")
	}
	before := g.MemSize()
	g.BuildInEdges()
	if g.MemSize() <= before {
		t.Error("in-edges should increase MemSize")
	}
}

// TestSeekMatchesSearch drives Seek with random runs of probes over random
// sorted rows with repeats: every probe must land where a fresh
// sort.Search does, and report back exactly when the answer lies before the
// cursor.
func TestSeekMatchesSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	backs := 0
	for trial := 0; trial < 500; trial++ {
		row := make([]VertexID, rng.Intn(40))
		for i := range row {
			row[i] = VertexID(rng.Intn(30))
		}
		sort.Slice(row, func(i, j int) bool { return row[i] < row[j] })
		at, prev := 0, VertexID(0)
		for p := 0; p < 20; p++ {
			x := VertexID(rng.Intn(32))
			i, back := Seek(row, at, x)
			if want := sort.Search(len(row), func(i int) bool { return row[i] >= x }); i != want {
				t.Fatalf("row %v, cursor %d: Seek(%d) = %d, want %d", row, at, x, i, want)
			}
			if wantBack := at > 0 && row[at-1] >= x; back != wantBack {
				t.Fatalf("row %v, cursor %d after %d: Seek(%d) back = %v", row, at, prev, x, back)
			}
			if back {
				backs++
			}
			at, prev = i, x
		}
	}
	if backs == 0 {
		t.Fatal("no backward probe drawn")
	}
}

// sortEdgeRangeOracle is how NewFromEdges sorted a vertex's out-edges
// before sortEdgeRange reused one pair buffer: a fresh pair slice per
// vertex, sorted by sort.Slice.
func sortEdgeRangeOracle(dst []VertexID, w []float64) {
	type pair struct {
		d VertexID
		w float64
	}
	if len(dst) < 2 {
		return
	}
	ps := make([]pair, len(dst))
	for i := range dst {
		ps[i] = pair{dst[i], w[i]}
	}
	sort.Slice(ps, func(i, j int) bool { return ps[i].d < ps[j].d })
	for i, p := range ps {
		dst[i], w[i] = p.d, p.w
	}
}

// TestSortEdgeRangeMatchesOracle: NewFromEdges lays out the CSR arrays
// exactly as the oracle sort did, parallel edges (one destination, distinct
// weights) in the same order, on R-MAT-shaped graphs, whose hubs hold
// hundreds of edges with repeated destinations, and on small graphs dense
// with parallel edges.
func TestSortEdgeRangeMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	rmat := func(scale, perVertex int) (int, []Edge) {
		n := 1 << scale
		var edges []Edge
		for i := 0; i < perVertex*n; i++ {
			var src, dst VertexID
			for bit := 0; bit < scale; bit++ {
				switch r := rng.Float64(); {
				case r < 0.57:
				case r < 0.76:
					dst |= 1 << bit
				case r < 0.95:
					src |= 1 << bit
				default:
					src, dst = src|1<<bit, dst|1<<bit
				}
			}
			edges = append(edges, Edge{Src: src, Dst: dst, Weight: float64(i)})
		}
		return n, edges
	}
	multi := func(n, m int) (int, []Edge) {
		edges := make([]Edge, m)
		for i := range edges {
			edges[i] = Edge{Src: VertexID(rng.Intn(n)), Dst: VertexID(rng.Intn(n)), Weight: float64(i)}
		}
		return n, edges
	}
	cases := []struct {
		name  string
		build func() (int, []Edge)
	}{
		{"rmat-8", func() (int, []Edge) { return rmat(8, 16) }},
		{"rmat-10", func() (int, []Edge) { return rmat(10, 8) }},
		{"multi-4", func() (int, []Edge) { return multi(4, 2000) }},
		{"multi-32", func() (int, []Edge) { return multi(32, 3000) }},
	}
	for _, c := range cases {
		n, edges := c.build()
		g, err := NewFromEdges(n, edges)
		if err != nil {
			t.Fatal(err)
		}
		dst, w := make([]VertexID, len(edges)), make([]float64, len(edges))
		next := slices.Clone(g.outOff[:n])
		for _, e := range edges {
			p := next[e.Src]
			next[e.Src]++
			dst[p], w[p] = e.Dst, e.Weight
		}
		for v := 0; v < n; v++ {
			lo, hi := g.outOff[v], g.outOff[v+1]
			sortEdgeRangeOracle(dst[lo:hi], w[lo:hi])
		}
		if !slices.Equal(dst, g.outDst) || !slices.Equal(w, g.outW) {
			t.Errorf("%s: the CSR arrays differ from the oracle's", c.name)
		}
	}
}
