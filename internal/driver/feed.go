// Package driver implements the paper's three PQL evaluation modes over a
// common fact feeder:
//
//   - Naive (§6.2 "Naive"): materialize the entire provenance graph into
//     the Datalog database, then evaluate. Memory-bound; the paper's Naive
//     "was not able to scale beyond the two smallest datasets".
//   - Layered (§5.1): materialize one layer (superstep) at a time, in
//     ascending order for forward/local queries or descending order for
//     backward queries, reusing working memory.
//   - Online (§5.2): evaluate in lockstep with the analytic as an engine
//     Observer, consuming the transient provenance; no capture step at all.
package driver

import (
	"ariadne/internal/graph"
	"ariadne/internal/obs"
	"ariadne/internal/pql/analysis"
	"ariadne/internal/pql/eval"
	"ariadne/internal/provenance"
	"ariadne/internal/value"
)

// needs records which provenance EDB tables a query actually references, so
// the feeder only materializes facts the query can use — the evaluation-side
// counterpart of customized capture.
type needs struct {
	superstep  bool
	value      bool
	evolution  bool
	send       bool
	recv       bool
	provSend   bool
	edgeValue  bool
	edge       bool
	captureGap bool
	// Telemetry-as-EDB tables (PR 7), fed from the store's attached run
	// telemetry rather than from provenance layers.
	superstepProfile bool
	netRPC           bool
	emitted          map[string]bool
}

func needsOf(q *analysis.Query) needs {
	n := needs{emitted: map[string]bool{}}
	for name := range q.EDBs {
		switch name {
		case "superstep":
			n.superstep = true
		case "value":
			n.value = true
		case "evolution":
			n.evolution = true
		case "send_message":
			n.send = true
		case "receive_message":
			n.recv = true
		case "prov_send":
			n.provSend = true
		case "edge_value":
			n.edgeValue = true
		case "edge":
			n.edge = true
		case "capture_gap":
			n.captureGap = true
		case "superstep_profile":
			n.superstepProfile = true
		case "net_rpc":
			n.netRPC = true
		default:
			n.emitted[name] = true
		}
	}
	return n
}

// feeder converts record views into EDB facts for the materialised
// evaluator.
type feeder struct {
	ev   *eval.Evaluator
	g    *graph.Graph
	n    needs
	prov *provenance.Store // set when feeding from a store (layered/naive)

	edgesFed     bool
	gapsFed      bool
	telemetryFed bool
	// edgeValueFed tracks vertices whose (static) edge values were already
	// emitted: edge weights never change in this engine, so one
	// edge_value(x, y, w, 0) tuple per edge suffices (queries match the
	// superstep position with a wildcard).
	edgeValueFed map[graph.VertexID]bool
	// Facts and bytes fed, for the piggyback/size metrics.
	FactCount int64
}

func newFeeder(ev *eval.Evaluator, g *graph.Graph, q *analysis.Query) *feeder {
	f := &feeder{ev: ev, g: g, n: needsOf(q)}
	if f.n.edgeValue {
		f.edgeValueFed = map[graph.VertexID]bool{}
	}
	return f
}

func (f *feeder) add(pred string, t eval.Tuple) {
	f.FactCount++
	f.ev.AddFact(pred, t)
}

// feedStatic loads static facts once: input-graph edges and, when feeding
// from a captured store, the capture-gap ranges recorded under degraded
// mode.
func (f *feeder) feedStatic() {
	if f.n.edge && !f.edgesFed {
		f.edgesFed = true
		for v := 0; v < f.g.NumVertices(); v++ {
			dst, _ := f.g.OutNeighbors(graph.VertexID(v))
			for _, d := range dst {
				f.add("edge", eval.Tuple{value.NewInt(int64(v)), value.NewInt(int64(d))})
			}
		}
	}
	if f.n.captureGap && !f.gapsFed && f.prov != nil {
		f.gapsFed = true
		for _, g := range f.prov.Gaps() {
			f.add("capture_gap", eval.Tuple{
				value.NewInt(int64(g.Partition)),
				value.NewInt(int64(g.From)),
				value.NewInt(int64(g.To)),
			})
		}
	}
	if (f.n.superstepProfile || f.n.netRPC) && !f.telemetryFed && f.prov != nil {
		f.telemetryFed = true
		f.feedTelemetry(f.prov.Telemetry())
	}
}

// feedTelemetry emits the telemetry EDBs from the run profile attached to
// the store (PR 7).
//
//	superstep_profile(S, Phase, Partition, Nanos, Tuples)
//	net_rpc(S, Partition, Bytes, Retries, Nanos)
//
// Whole-superstep phase rows carry Partition = -1; per-partition compute
// rows (from the span timeline, when tracing was on) carry the partition
// index. The Tuples column is phase-appropriate work volume: active
// vertices for compute, delivered messages for barrier, captured +
// piggybacked tuples for observe, bytes for spill/checkpoint.
func (f *feeder) feedTelemetry(t provenance.Telemetry) {
	all := value.NewInt(-1)
	if f.n.superstepProfile {
		for _, p := range t.Profiles {
			s := value.NewInt(int64(p.Superstep))
			var observed int64
			for _, c := range p.CaptureTuples {
				observed += c
			}
			for _, c := range p.PiggybackTuples {
				observed += c
			}
			f.add("superstep_profile", eval.Tuple{s, value.NewString("compute"), all,
				value.NewInt(p.ComputeNS), value.NewInt(int64(p.ActiveVertices))})
			f.add("superstep_profile", eval.Tuple{s, value.NewString("barrier"), all,
				value.NewInt(p.BarrierNS), value.NewInt(p.MessagesDelivered)})
			f.add("superstep_profile", eval.Tuple{s, value.NewString("observe"), all,
				value.NewInt(p.ObserveNS), value.NewInt(observed)})
			if p.SpillNS > 0 || p.SpillBytes > 0 {
				f.add("superstep_profile", eval.Tuple{s, value.NewString("spill"), all,
					value.NewInt(p.SpillNS), value.NewInt(p.SpillBytes)})
			}
			if p.CheckpointNS > 0 || p.CheckpointBytes > 0 {
				f.add("superstep_profile", eval.Tuple{s, value.NewString("checkpoint"), all,
					value.NewInt(p.CheckpointNS), value.NewInt(p.CheckpointBytes)})
			}
		}
		for _, sp := range t.Spans {
			if sp.Name != obs.SpanCompute || sp.Partition < 0 || sp.Proc != obs.ProcMaster {
				continue
			}
			f.add("superstep_profile", eval.Tuple{value.NewInt(int64(sp.Superstep)),
				value.NewString("compute"), value.NewInt(int64(sp.Partition)),
				value.NewInt(sp.Dur), value.NewInt(sp.Tuples)})
		}
	}
	if f.n.netRPC {
		for _, r := range t.RPCs {
			f.add("net_rpc", eval.Tuple{value.NewInt(int64(r.Superstep)),
				value.NewInt(int64(r.Partition)), value.NewInt(r.Bytes),
				value.NewInt(r.Retries), value.NewInt(r.Nanos)})
		}
	}
}

// feedRecord emits the EDB facts for one record view. The previous value
// an evolution join reads comes with the view: the engine's OldValue online,
// the view builder's retention over ascending layers, nothing otherwise.
func (f *feeder) feedRecord(rv *eval.RecordView) {
	x := value.NewInt(rv.Vertex)
	i := value.NewInt(rv.Superstep)
	if f.n.superstep {
		f.add("superstep", eval.Tuple{x, i})
	}
	if f.n.value && rv.HasValue {
		f.add("value", eval.Tuple{x, rv.Value, i})
	}
	if f.n.evolution && rv.PrevActive >= 0 {
		j := value.NewInt(rv.PrevActive)
		f.add("evolution", eval.Tuple{x, j, i})
		// Re-inject the previous value so value(X, D2, J) joins resolve
		// without the J-th layer resident.
		if f.n.value && rv.HasPrevValue {
			f.add("value", eval.Tuple{x, rv.PrevValue, j})
		}
	}
	if f.n.send {
		for _, m := range rv.Sends {
			f.add("send_message", eval.Tuple{x, value.NewInt(int64(m.Dst)), m.Val, i})
		}
	}
	if f.n.recv {
		for _, m := range rv.Recvs {
			f.add("receive_message", eval.Tuple{x, value.NewInt(int64(m.Src)), m.Val, i})
		}
	}
	if f.n.provSend && rv.SentAny {
		f.add("prov_send", eval.Tuple{x, i})
	}
	if v := graph.VertexID(rv.Vertex); f.n.edgeValue && !f.edgeValueFed[v] {
		f.edgeValueFed[v] = true
		dst, w := f.g.OutNeighbors(v)
		zero := value.NewInt(0)
		for k, d := range dst {
			f.add("edge_value", eval.Tuple{x, value.NewInt(int64(d)), value.NewFloat(w[k]), zero})
		}
	}
	for _, fact := range rv.Emitted {
		if !f.n.emitted[fact.Table] {
			continue
		}
		t := make(eval.Tuple, 0, len(fact.Args)+2)
		t = append(t, x)
		t = append(t, fact.Args...)
		t = append(t, i)
		f.add(fact.Table, t)
	}
}

// layer feeds one superstep's views and runs the evaluator to its fixpoint.
func (f *feeder) layer(views []eval.RecordView) error {
	for i := range views {
		f.feedRecord(&views[i])
	}
	return f.ev.Fixpoint()
}
