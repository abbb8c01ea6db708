package driver

import (
	"slices"

	"ariadne/internal/engine"
	"ariadne/internal/graph"
	"ariadne/internal/pql/analysis"
	"ariadne/internal/pql/eval"
	"ariadne/internal/provenance"
	"ariadne/internal/value"
)

// staticGraph adapts graph.Graph to the compiled evaluator's StaticGraph,
// reading the CSR in place: the evaluator names vertices by int64, and one
// outside the graph has no edges.
type staticGraph struct{ g *graph.Graph }

func (s staticGraph) has(v int64) bool { return v >= 0 && v < int64(s.g.NumVertices()) }

func (s staticGraph) NumVertices() int { return s.g.NumVertices() }

func (s staticGraph) OutNeighbors(v int64) ([]graph.VertexID, []float64) {
	if !s.has(v) {
		return nil, nil
	}
	return s.g.OutNeighbors(graph.VertexID(v))
}

func (s staticGraph) InNeighbors(v int64) []graph.VertexID {
	if !s.has(v) || !s.g.HasInEdges() {
		return nil
	}
	src, _ := s.g.InNeighbors(graph.VertexID(v))
	return src
}

func (s staticGraph) OutDegree(v int64) int {
	if !s.has(v) {
		return 0
	}
	return s.g.OutDegree(graph.VertexID(v))
}

func (s staticGraph) InDegree(v int64) int {
	if !s.has(v) || !s.g.HasInEdges() {
		return 0
	}
	return s.g.InDegree(graph.VertexID(v))
}

func (s staticGraph) EdgeWeight(src, dst int64) (float64, bool) {
	if !s.has(src) || !s.has(dst) {
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
	c, err := eval.Compile(q, db, staticGraph{g})
	return c, err == nil
}

// retention keeps, per vertex, the last captured value and its superstep so
// evolution joins (value at the *previous active* superstep) work in
// layered mode without materializing older layers — DESIGN.md decision 3;
// online, the engine hands each record its previous value. Memory is O(active vertices), not O(supersteps). Only a walk
// forward in time can retain a predecessor's value, so a nil retention
// (backward or unordered feeding) keeps and finds nothing.
type retention map[graph.VertexID]retained

type retained struct {
	val value.Value
	ss  int
}

// keep records v's value at superstep ss.
func (r retention) keep(v graph.VertexID, ss int, val value.Value) {
	if r != nil {
		r[v] = retained{val: val, ss: ss}
	}
}

// at returns v's value at superstep ss, if that is the value retained: a
// later capture that carried no value must not pass an older value off as
// the one at ss.
func (r retention) at(v graph.VertexID, ss int) (value.Value, bool) {
	e, ok := r[v]
	if !ok || e.ss != ss {
		return value.Value{}, false
	}
	return e.val, true
}

// viewBuilder converts stored provenance records to record views for
// either evaluator, maintaining the per-vertex retention needed for
// evolution joins when the layers arrive in ascending order. The views and
// their message and fact slices live in arenas reused layer after layer: a
// layer's views are valid until the next fromProv call.
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
