package driver

import (
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
// when the layers arrive in ascending order.
type viewBuilder struct {
	ret retention
}

func newViewBuilder(ascending bool) *viewBuilder {
	vb := &viewBuilder{}
	if ascending {
		vb.ret = retention{}
	}
	return vb
}

func (vb *viewBuilder) fromProv(l *provenance.Layer) []eval.RecordView {
	out := make([]eval.RecordView, len(l.Records))
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
		if len(r.Sends) > 0 {
			rv.Sends = make([]eval.MsgView, len(r.Sends))
			for j, m := range r.Sends {
				rv.Sends[j] = eval.MsgView{Peer: int64(m.Peer), Val: m.Val}
			}
		}
		if len(r.Recvs) > 0 {
			rv.Recvs = make([]eval.MsgView, len(r.Recvs))
			for j, m := range r.Recvs {
				rv.Recvs[j] = eval.MsgView{Peer: int64(m.Peer), Val: m.Val}
			}
		}
		if len(r.Emitted) > 0 {
			rv.Emitted = make([]eval.FactView, len(r.Emitted))
			for j, f := range r.Emitted {
				rv.Emitted[j] = eval.FactView{Table: f.Table, Args: f.Args}
			}
		}
		if r.HasValue {
			vb.ret.keep(r.Vertex, l.Superstep, r.Value)
		}
		out[i] = rv
	}
	return out
}

// engineViews converts live engine records (online mode) to views; the
// engine supplies each record's previous value itself.
func engineViews(recs []engine.VertexRecord) []eval.RecordView {
	out := make([]eval.RecordView, len(recs))
	for i := range recs {
		r := &recs[i]
		rv := eval.RecordView{
			Vertex:     int64(r.ID),
			Superstep:  int64(r.Superstep),
			HasValue:   true,
			Value:      r.NewValue,
			PrevActive: int64(r.PrevActive),
			SentAny:    len(r.Sent) > 0,
		}
		if r.PrevActive >= 0 {
			// The engine's OldValue is the value after the previous compute,
			// i.e. exactly the value at PrevActive.
			rv.PrevValue = r.OldValue
			rv.HasPrevValue = true
		}
		if len(r.Sent) > 0 {
			rv.Sends = make([]eval.MsgView, len(r.Sent))
			for j, m := range r.Sent {
				rv.Sends[j] = eval.MsgView{Peer: int64(m.Dst), Val: m.Val}
			}
		}
		if len(r.Received) > 0 {
			rv.Recvs = make([]eval.MsgView, len(r.Received))
			for j, m := range r.Received {
				rv.Recvs[j] = eval.MsgView{Peer: int64(m.Src), Val: m.Val}
			}
		}
		if len(r.Emitted) > 0 {
			rv.Emitted = make([]eval.FactView, len(r.Emitted))
			for j, f := range r.Emitted {
				rv.Emitted[j] = eval.FactView{Table: f.Table, Args: f.Args}
			}
		}
		out[i] = rv
	}
	return out
}
