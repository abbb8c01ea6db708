package driver

import (
	"slices"

	"ariadne/internal/engine"
	"ariadne/internal/graph"
	"ariadne/internal/obs"
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

// compile compiles q into its one program over g: every rule materialised
// when all is set (naive evaluation, and the in-package reference leg),
// otherwise only the rules the record planner refuses.
func compile(q *analysis.Query, db *eval.Database, g *graph.Graph, all bool) (*eval.Compiled, error) {
	if _, usesEdges := q.EDBs["edge"]; usesEdges {
		g.BuildInEdges() // idempotent; compiled edge(Y, X) steps enumerate in-neighbors
	}
	if all {
		return eval.CompileMaterialised(q, db, staticGraph{g})
	}
	return eval.Compile(q, db, staticGraph{g})
}

// loadStore fills the store-only EDBs c materialises in db from the store: the
// capture-gap ranges recorded under degraded mode, and the telemetry EDBs
// from the run profile attached to the store.
//
//	superstep_profile(S, Phase, Partition, Nanos, Tuples)
//	net_rpc(S, Partition, Bytes, Retries, Nanos)
//
// Whole-superstep phase rows carry Partition = -1; per-partition compute
// rows (from the span timeline, when tracing was on) carry the partition
// index. The Tuples column is phase-appropriate work volume: active
// vertices for compute, delivered messages for barrier, captured +
// piggybacked tuples for observe, bytes for spill/checkpoint.
func loadStore(c *eval.Compiled, db *eval.Database, store *provenance.Store) {
	n := value.NewInt
	for _, pred := range c.Loads() {
		rel := db.Get(pred)
		switch pred {
		case "capture_gap":
			for _, g := range store.Gaps() {
				rel.Insert(eval.Tuple{n(int64(g.Partition)), n(int64(g.From)), n(int64(g.To))})
			}
		case "superstep_profile":
			t := store.Telemetry()
			row := func(ss int, phase string, part int, ns, tuples int64) {
				rel.Insert(eval.Tuple{n(int64(ss)), value.NewString(phase), n(int64(part)), n(ns), n(tuples)})
			}
			for _, p := range t.Profiles {
				var observed int64
				for _, k := range p.CaptureTuples {
					observed += k
				}
				for _, k := range p.PiggybackTuples {
					observed += k
				}
				row(p.Superstep, "compute", -1, p.ComputeNS, int64(p.ActiveVertices))
				row(p.Superstep, "barrier", -1, p.BarrierNS, p.MessagesDelivered)
				row(p.Superstep, "observe", -1, p.ObserveNS, observed)
				if p.SpillNS > 0 || p.SpillBytes > 0 {
					row(p.Superstep, "spill", -1, p.SpillNS, p.SpillBytes)
				}
				if p.CheckpointNS > 0 || p.CheckpointBytes > 0 {
					row(p.Superstep, "checkpoint", -1, p.CheckpointNS, p.CheckpointBytes)
				}
			}
			for _, sp := range t.Spans {
				if sp.Name == obs.SpanCompute && sp.Partition >= 0 && sp.Proc == obs.ProcMaster {
					row(sp.Superstep, "compute", sp.Partition, sp.Dur, sp.Tuples)
				}
			}
		case "net_rpc":
			for _, r := range store.Telemetry().RPCs {
				rel.Insert(eval.Tuple{n(int64(r.Superstep)), n(int64(r.Partition)), n(r.Bytes), n(r.Retries), n(r.Nanos)})
			}
		}
	}
}

// retained is a vertex's last captured value and its superstep. The view
// builder keeps one per vertex so evolution joins (value at the *previous
// active* superstep) work in layered mode without materializing older
// layers — DESIGN.md decision 3; online, the engine hands each record its
// previous value. Memory is O(active vertices), not O(supersteps). Only a
// walk forward in time can retain a predecessor's value, so a nil map
// (backward or unordered reading) keeps and finds nothing.
type retained struct {
	val value.Value
	ss  int
}

// viewBuilder converts stored provenance records to record views,
// maintaining the per-vertex retention needed for evolution joins when the
// layers arrive in ascending order. The views and their message and fact
// slices live in arenas reused layer after layer: a layer's views are valid
// until the next fromProv call.
type viewBuilder struct {
	ret   map[graph.VertexID]retained
	views []eval.RecordView
	sends []engine.SentMessage
	recvs []engine.IncomingMessage
	facts []engine.ProvFact
}

func newViewBuilder(ascending bool) *viewBuilder {
	vb := &viewBuilder{}
	if ascending {
		vb.ret = map[graph.VertexID]retained{}
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
			// The value retained, if it is the one at PrevActive: a later
			// capture that carried no value must not pass an older one off.
			if e, ok := vb.ret[r.Vertex]; ok && e.ss == int(r.PrevActive) {
				rv.PrevValue, rv.HasPrevValue = e.val, true
			}
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
		if r.HasValue && vb.ret != nil {
			vb.ret[r.Vertex] = retained{val: r.Value, ss: l.Superstep}
		}
		vb.views[i] = rv
	}
	return vb.views
}
