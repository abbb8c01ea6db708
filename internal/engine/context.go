package engine

import (
	"ariadne/internal/graph"
	"ariadne/internal/value"
)

// Context is the per-vertex view a Program receives during Compute.
// It is reused across vertices of a partition; Programs must not retain it.
type Context struct {
	engine    *Engine
	superstep int
	partition int

	id VertexID
	// fields is what the run's records carry (Engine.fields, or the
	// request's on a worker).
	fields Fields
	// sent[sentStart:] are the current vertex's sends; under FieldSent the
	// earlier vertices' stay in front, where their records borrow them.
	sent      []SentMessage
	sentStart int
	emitted   []ProvFact
}

func (c *Context) reset(v VertexID) {
	c.id = v
	if c.fields&FieldSent == 0 {
		c.sent = c.sent[:0]
	}
	c.sentStart = len(c.sent)
	c.emitted = nil
}

// ID returns the vertex being computed.
func (c *Context) ID() VertexID { return c.id }

// Superstep returns the current superstep number (0-based).
func (c *Context) Superstep() int { return c.superstep }

// NumVertices returns the number of vertices in the graph.
func (c *Context) NumVertices() int { return c.engine.g.NumVertices() }

// Graph returns the input graph (read-only by convention).
func (c *Context) Graph() *graph.Graph { return c.engine.g }

// Observing reports whether some observer of the run reads emitted facts
// (FieldEmitted), so programs can skip EmitProv work when nothing consumes
// it. On a transport worker it reports the master's observers: the mask
// travels in each ExecRequest.
func (c *Context) Observing() bool { return c.fields&FieldEmitted != 0 }

// Value returns the current value of this vertex.
func (c *Context) Value() value.Value { return c.engine.values[c.id] }

// SetValue updates this vertex's value.
func (c *Context) SetValue(v value.Value) { c.engine.values[c.id] = v }

// OutNeighbors returns this vertex's out-edge destinations and weights.
// The slices alias engine storage and must not be modified.
func (c *Context) OutNeighbors() ([]graph.VertexID, []float64) {
	return c.engine.g.OutNeighbors(c.id)
}

// OutDegree returns this vertex's out-degree.
func (c *Context) OutDegree() int { return c.engine.g.OutDegree(c.id) }

// InDegree returns this vertex's in-degree if the graph has in-edges built,
// else -1.
func (c *Context) InDegree() int {
	if !c.engine.g.HasInEdges() {
		return -1
	}
	return c.engine.g.InDegree(c.id)
}

// SendMessage sends val to vertex dst, delivered at the next superstep.
// Giraph-style, dst may be any vertex ID, not only a neighbor (paper Query 4
// monitors exactly this kind of stray message).
func (c *Context) SendMessage(dst VertexID, val value.Value) {
	c.sent = append(c.sent, SentMessage{Dst: dst, Val: val})
}

// SendToAllNeighbors sends val along every out-edge.
func (c *Context) SendToAllNeighbors(val value.Value) {
	dst, _ := c.engine.g.OutNeighbors(c.id)
	for _, d := range dst {
		c.sent = append(c.sent, SentMessage{Dst: d, Val: val})
	}
}

// DiscardSentMessages drops every message this vertex queued during the
// current Compute call. The approximate-optimization wrapper (paper §2.2,
// §6.2.2: "only message neighbors on large updates") uses it to suppress
// sends when the vertex value changed less than the threshold.
func (c *Context) DiscardSentMessages() { c.sent = c.sent[:c.sentStart] }

// EmitProv publishes an auxiliary provenance fact (table, args...) for this
// vertex at this superstep. Analytics-specific tables such as the paper's
// prov-error and prov-prediction (ALS, Queries 7-8) are produced this way;
// facts flow to observers, never back into the analytic. Without an
// observer that reads them (Observing is false) the fact is dropped.
func (c *Context) EmitProv(table string, args ...value.Value) {
	if c.fields&FieldEmitted == 0 {
		return
	}
	c.emitted = append(c.emitted, ProvFact{Table: table, Args: args})
}

// AggregateFloat folds v into the named global aggregator with the given op;
// the merged value is readable next superstep via the AggregatorReader.
func (c *Context) AggregateFloat(name string, op AggOp, v float64) {
	c.engine.agg.add(c.partition, name, op, v)
}

// Aggregated returns the global aggregator values from the previous
// superstep.
func (c *Context) Aggregated() AggregatorReader { return c.engine.agg.reader() }
