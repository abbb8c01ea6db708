// Package graph provides the in-memory directed graph substrate that both
// the vertex-centric engine and the provenance store operate on.
//
// Graphs are stored in compressed sparse row (CSR) form: out-edges always,
// in-edges optionally (needed by analytics and PQL queries that inspect
// in-degree, e.g. paper Query 4). Vertex IDs are dense uint32 indexes.
package graph

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
)

// VertexID identifies a vertex. IDs are dense: 0..NumVertices-1.
type VertexID = uint32

// Edge is a weighted directed edge, used during construction.
type Edge struct {
	Src, Dst VertexID
	Weight   float64
}

// Graph is an immutable weighted digraph in CSR form.
type Graph struct {
	numVertices int

	// Out-edge CSR: edges of vertex v are outDst[outOff[v]:outOff[v+1]].
	outOff []int64
	outDst []VertexID
	outW   []float64

	// In-edge CSR, built lazily by BuildInEdges.
	inOff []int64
	inSrc []VertexID
	inW   []float64
}

// NewFromEdges builds a Graph with n vertices from an edge list.
// Edges referencing vertices >= n are rejected. Parallel edges are kept.
// Out-edges of each vertex are sorted by destination.
func NewFromEdges(n int, edges []Edge) (*Graph, error) {
	if n < 0 {
		return nil, fmt.Errorf("graph: negative vertex count %d", n)
	}
	g := &Graph{numVertices: n}
	deg := make([]int64, n+1)
	for _, e := range edges {
		if int(e.Src) >= n || int(e.Dst) >= n {
			return nil, fmt.Errorf("graph: edge (%d,%d) out of range for %d vertices", e.Src, e.Dst, n)
		}
		deg[e.Src+1]++
	}
	for i := 1; i <= n; i++ {
		deg[i] += deg[i-1]
	}
	g.outOff = deg
	m := len(edges)
	g.outDst = make([]VertexID, m)
	g.outW = make([]float64, m)
	next := make([]int64, n)
	copy(next, g.outOff[:n])
	for _, e := range edges {
		p := next[e.Src]
		next[e.Src]++
		g.outDst[p] = e.Dst
		g.outW[p] = e.Weight
	}
	// Sort each vertex's out-edges by destination for deterministic iteration.
	var buf []edgePair
	for v := 0; v < n; v++ {
		lo, hi := g.outOff[v], g.outOff[v+1]
		buf = sortEdgeRange(g.outDst[lo:hi], g.outW[lo:hi], buf)
	}
	return g, nil
}

// edgePair is an out-edge while sortEdgeRange sorts its vertex's edges.
type edgePair struct {
	d VertexID
	w float64
}

// sortEdgeRange sorts one vertex's out-edges by destination through buf,
// which it returns, grown, for the next vertex. Parallel edges keep the
// order the pdqsort of slices.SortFunc leaves them in.
func sortEdgeRange(dst []VertexID, w []float64, buf []edgePair) []edgePair {
	if len(dst) < 2 {
		return buf
	}
	buf = buf[:0]
	for i := range dst {
		buf = append(buf, edgePair{dst[i], w[i]})
	}
	slices.SortFunc(buf, func(a, b edgePair) int { return cmp.Compare(a.d, b.d) })
	for i, p := range buf {
		dst[i], w[i] = p.d, p.w
	}
	return buf
}

// NumVertices returns the vertex count.
func (g *Graph) NumVertices() int { return g.numVertices }

// NumEdges returns the directed edge count.
func (g *Graph) NumEdges() int { return len(g.outDst) }

// OutDegree returns the out-degree of v.
func (g *Graph) OutDegree(v VertexID) int {
	return int(g.outOff[v+1] - g.outOff[v])
}

// OutNeighbors returns the destinations and weights of v's out-edges.
// The returned slices alias internal storage and must not be modified.
func (g *Graph) OutNeighbors(v VertexID) ([]VertexID, []float64) {
	lo, hi := g.outOff[v], g.outOff[v+1]
	return g.outDst[lo:hi], g.outW[lo:hi]
}

// HasInEdges reports whether the in-edge CSR has been built.
func (g *Graph) HasInEdges() bool { return g.inOff != nil }

// BuildInEdges constructs the reverse (in-edge) CSR. Idempotent.
func (g *Graph) BuildInEdges() {
	if g.inOff != nil {
		return
	}
	n := g.numVertices
	deg := make([]int64, n+1)
	for _, d := range g.outDst {
		deg[d+1]++
	}
	for i := 1; i <= n; i++ {
		deg[i] += deg[i-1]
	}
	g.inOff = deg
	g.inSrc = make([]VertexID, len(g.outDst))
	g.inW = make([]float64, len(g.outDst))
	next := make([]int64, n)
	copy(next, g.inOff[:n])
	for v := 0; v < n; v++ {
		lo, hi := g.outOff[v], g.outOff[v+1]
		for i := lo; i < hi; i++ {
			d := g.outDst[i]
			p := next[d]
			next[d]++
			g.inSrc[p] = VertexID(v)
			g.inW[p] = g.outW[i]
		}
	}
}

// InDegree returns the in-degree of v. BuildInEdges must have been called.
func (g *Graph) InDegree(v VertexID) int {
	return int(g.inOff[v+1] - g.inOff[v])
}

// InNeighbors returns the sources and weights of v's in-edges.
// BuildInEdges must have been called first.
func (g *Graph) InNeighbors(v VertexID) ([]VertexID, []float64) {
	lo, hi := g.inOff[v], g.inOff[v+1]
	return g.inSrc[lo:hi], g.inW[lo:hi]
}

// EdgeWeight returns the weight of the first edge v->u and whether it exists.
func (g *Graph) EdgeWeight(v, u VertexID) (float64, bool) {
	dst, w := g.OutNeighbors(v)
	// dst is sorted; binary search.
	i := sort.Search(len(dst), func(i int) bool { return dst[i] >= u })
	if i < len(dst) && dst[i] == u {
		return w[i], true
	}
	return 0, false
}

// seekSteps bounds Seek's linear walk before it binary searches.
const seekSteps = 8

// Seek returns the first index of s, sorted ascending, whose element is at
// least x, for a cursor standing at at: the answer to the previous probe of
// a run of probes, 0 before the first. When the answer lies at or after at
// Seek walks forward, a few steps and then by binary search; otherwise
// (back) it binary searches s[:at]. A run of ascending probes over one row
// so costs about one walk of the row. Over an out-edge row it finds the edge
// EdgeWeight does: the first to its destination.
func Seek[E cmp.Ordered](s []E, at int, x E) (i int, back bool) {
	if at > 0 && s[at-1] >= x {
		i, _ = slices.BinarySearch(s[:at], x)
		return i, true
	}
	for end := min(len(s), at+seekSteps); at < end; at++ {
		if s[at] >= x {
			return at, false
		}
	}
	i, _ = slices.BinarySearch(s[at:], x)
	return at + i, false
}

// Undirected returns a new graph where every edge (u,v) also appears as
// (v,u) (deduplicated against existing reverse edges). WCC treats the input
// as undirected (label propagation both ways), mirroring Giraph's WCC.
func (g *Graph) Undirected() *Graph {
	seen := make(map[uint64]bool, g.NumEdges()*2)
	edges := make([]Edge, 0, g.NumEdges()*2)
	key := func(a, b VertexID) uint64 { return uint64(a)<<32 | uint64(b) }
	for v := 0; v < g.numVertices; v++ {
		dst, w := g.OutNeighbors(VertexID(v))
		for i, d := range dst {
			if !seen[key(VertexID(v), d)] {
				seen[key(VertexID(v), d)] = true
				edges = append(edges, Edge{VertexID(v), d, w[i]})
			}
			if !seen[key(d, VertexID(v))] {
				seen[key(d, VertexID(v))] = true
				edges = append(edges, Edge{d, VertexID(v), w[i]})
			}
		}
	}
	ug, err := NewFromEdges(g.numVertices, edges)
	if err != nil {
		panic("graph: internal error building undirected view: " + err.Error())
	}
	return ug
}

// MemSize returns the approximate memory footprint of the graph in bytes.
// This is the denominator of the paper's provenance-size ratios (Tables 3, 4).
func (g *Graph) MemSize() int64 {
	s := int64(len(g.outOff))*8 + int64(len(g.outDst))*4 + int64(len(g.outW))*8
	s += int64(len(g.inOff))*8 + int64(len(g.inSrc))*4 + int64(len(g.inW))*8
	return s
}
