package driver

import (
	"slices"

	"ariadne/internal/engine"
	"ariadne/internal/graph"
	"ariadne/internal/pql/analysis"
	"ariadne/internal/pql/eval"
	"ariadne/internal/provenance"
)

// staticGraph adapts graph.Graph to the compiled evaluator's StaticGraph.
type staticGraph struct {
	g *graph.Graph
	// cached int64 views of the CSR (the compiled evaluator uses int64 ids).
	out  [][]int64
	outW [][]float64
	in   [][]int64
}

func newStaticGraph(g *graph.Graph) *staticGraph {
	sg := &staticGraph{g: g}
	n := g.NumVertices()
	sg.out = make([][]int64, n)
	sg.outW = make([][]float64, n)
	for v := 0; v < n; v++ {
		dst, w := g.OutNeighbors(graph.VertexID(v))
		o := make([]int64, len(dst))
		for i, d := range dst {
			o[i] = int64(d)
		}
		sg.out[v] = o
		sg.outW[v] = w
	}
	if g.HasInEdges() {
		sg.in = make([][]int64, n)
		for v := 0; v < n; v++ {
			src, _ := g.InNeighbors(graph.VertexID(v))
			s := make([]int64, len(src))
			for i, d := range src {
				s[i] = int64(d)
			}
			sg.in[v] = s
		}
	}
	return sg
}

func (s *staticGraph) NumVertices() int { return s.g.NumVertices() }

func (s *staticGraph) OutNeighbors(v int64) ([]int64, []float64) {
	if v < 0 || int(v) >= len(s.out) {
		return nil, nil
	}
	return s.out[v], s.outW[v]
}

func (s *staticGraph) InNeighbors(v int64) []int64 {
	if s.in == nil || v < 0 || int(v) >= len(s.in) {
		return nil
	}
	return s.in[v]
}

func (s *staticGraph) EdgeWeight(src, dst int64) (float64, bool) {
	if src < 0 || int(src) >= s.g.NumVertices() || dst < 0 || int(dst) >= s.g.NumVertices() {
		return 0, false
	}
	return s.g.EdgeWeight(graph.VertexID(src), graph.VertexID(dst))
}

// tryCompile attempts the compiled (vertex-program) evaluation path. The
// choice is made here, once, before the run: a query whose shape needs the
// materialised evaluator (aggregates, EDBs that are not record-local)
// reports ok=false, and one that compiles cannot fail to at run time.
func tryCompile(q *analysis.Query, db *eval.Database, g *graph.Graph, cfg evalConfig) (*eval.Compiled, bool) {
	if cfg.materialised {
		return nil, false
	}
	if _, usesEdges := q.EDBs["edge"]; usesEdges {
		g.BuildInEdges() // idempotent; compiled edge(Y, X) steps enumerate in-neighbors
	}
	c, err := eval.Compile(q, db, newStaticGraph(g))
	return c, err == nil
}

// viewBuilder converts stored provenance records to compiled-evaluator
// views, maintaining the per-vertex retention needed for evolution joins
// when the layers arrive in ascending order. The views and their message
// and fact slices live in arenas reused layer after layer: a layer's views
// are valid until the next fromProv call.
type viewBuilder struct {
	ret   retention
	views []eval.RecordView
	sends []engine.SentMessage
	recvs []engine.IncomingMessage
	facts []engine.ProvFact
}

func newViewBuilder(ascending bool) *viewBuilder {
	vb := &viewBuilder{}
	if ascending {
		vb.ret = retention{}
	}
	return vb
}

func (vb *viewBuilder) fromProv(l *provenance.Layer) []eval.RecordView {
	var nSends, nRecvs, nFacts int
	for i := range l.Records {
		r := &l.Records[i]
		nSends += len(r.Sends)
		nRecvs += len(r.Recvs)
		nFacts += len(r.Emitted)
	}
	vb.views = slices.Grow(vb.views[:0], len(l.Records))[:len(l.Records)]
	vb.sends = slices.Grow(vb.sends[:0], nSends)[:nSends]
	vb.recvs = slices.Grow(vb.recvs[:0], nRecvs)[:nRecvs]
	vb.facts = slices.Grow(vb.facts[:0], nFacts)[:nFacts]
	sends, recvs, facts := vb.sends, vb.recvs, vb.facts
	for i := range l.Records {
		r := &l.Records[i]
		rv := eval.RecordView{
			Vertex:     int64(r.Vertex),
			Superstep:  int64(l.Superstep),
			HasValue:   r.HasValue,
			Value:      r.Value,
			PrevActive: int64(r.PrevActive),
			SentAny:    r.SentAny || len(r.Sends) > 0,
		}
		if r.PrevActive >= 0 {
			rv.PrevValue, rv.HasPrevValue = vb.ret.at(r.Vertex, int(r.PrevActive))
		}
		if n := len(r.Sends); n > 0 {
			rv.Sends, sends = sends[:n:n], sends[n:]
			for j, m := range r.Sends {
				rv.Sends[j] = engine.SentMessage{Dst: m.Peer, Val: m.Val}
			}
		}
		if n := len(r.Recvs); n > 0 {
			rv.Recvs, recvs = recvs[:n:n], recvs[n:]
			for j, m := range r.Recvs {
				rv.Recvs[j] = engine.IncomingMessage{Src: m.Peer, Val: m.Val}
			}
		}
		if n := len(r.Emitted); n > 0 {
			rv.Emitted, facts = facts[:n:n], facts[n:]
			for j, f := range r.Emitted {
				rv.Emitted[j] = engine.ProvFact{Table: f.Table, Args: f.Args}
			}
		}
		if r.HasValue {
			vb.ret.keep(r.Vertex, l.Superstep, r.Value)
		}
		vb.views[i] = rv
	}
	return vb.views
}
