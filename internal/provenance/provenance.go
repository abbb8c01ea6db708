// Package provenance implements the paper's provenance graph (§3) in its
// compact representation: instead of materializing one node per
// (vertex, superstep) instantiation, the input graph's vertices are
// annotated with relational tuples — value, send-message, receive-message,
// superstep, and evolution facts — organized into *layers*, one per
// superstep (Def. 5.1). Layers are the unit of storage, size accounting,
// disk spill, and offline (layered) query evaluation.
package provenance

import (
	"ariadne/internal/graph"
	"ariadne/internal/value"
)

// VertexID aliases the graph vertex identifier.
type VertexID = graph.VertexID

// MsgHalf is one endpoint view of a message edge in the provenance graph:
// for send-message tuples Peer is the destination, for receive-message
// tuples Peer is the source. Val is Null when the capture policy drops
// message values (e.g. paper Query 11).
type MsgHalf struct {
	Peer VertexID
	Val  value.Value
}

// Fact is an auxiliary provenance fact emitted by the analytic
// (e.g. prov_error), stored verbatim under its table name.
type Fact struct {
	Table string
	Args  []value.Value
}

// Record is the compact provenance of one vertex at one superstep: the
// provenance-graph node with its annotations and incident message edges.
type Record struct {
	Vertex VertexID
	// PrevActive is the previous superstep this vertex computed in, or -1;
	// it materializes the evolution edge (PrevActive -> this layer).
	PrevActive int32
	// HasValue marks whether Value was captured (policies may drop values).
	HasValue bool
	Value    value.Value
	// Sends/Recvs are the message edges incident to this node.
	Sends []MsgHalf
	Recvs []MsgHalf
	// SentAny marks that the vertex sent at least one message this
	// superstep even when individual Sends are not captured — the paper's
	// prov-send(x,i) relation (Query 11).
	SentAny bool
	Emitted []Fact
}

// EncodedSize returns the record's logical row size in bytes: ten for its
// vertex and activation fields, one of flags, each captured value's binary
// encoding, five per message peer, each fact's table name, and small length
// prefixes. It is the uncompressed footprint the paper's Tables 3 and 4
// compare against the input graph; the columnar layer files are smaller
// (Store.DiskBytes).
func (r *Record) EncodedSize() int64 {
	s := int64(10 + 1) // vertex + prevActive varints (<=5 each), flags
	if r.HasValue {
		s += int64(r.Value.EncodedSize())
	}
	s += 2 // sends/recvs length varints (typical)
	for _, m := range r.Sends {
		s += 5 + int64(m.Val.EncodedSize())
	}
	for _, m := range r.Recvs {
		s += 5 + int64(m.Val.EncodedSize())
	}
	s++ // emitted length varint
	for _, f := range r.Emitted {
		s += int64(2 + len(f.Table))
		for _, a := range f.Args {
			s += int64(a.EncodedSize())
		}
	}
	return s
}

// Layer is the compact provenance of one superstep: all captured records,
// sorted by vertex ID.
type Layer struct {
	Superstep int
	Records   []Record
}

// layerHeaderSize is the per-layer part of Layer.EncodedSize.
const layerHeaderSize = 16

// EncodedSize returns the layer's logical size in bytes: a fixed header
// plus its records' row sizes.
func (l *Layer) EncodedSize() int64 {
	s := int64(layerHeaderSize)
	for i := range l.Records {
		s += l.Records[i].EncodedSize()
	}
	return s
}

// NumTuples counts the provenance tuples the layer contributes (superstep,
// value, evolution, send/receive-message, emitted facts) — the numerator of
// the paper's "provenance is 10x larger than the input graph" comparisons.
func (l *Layer) NumTuples() int64 {
	var n int64
	for i := range l.Records {
		r := &l.Records[i]
		n++ // superstep fact
		if r.HasValue {
			n++
		}
		if r.PrevActive >= 0 {
			n++ // evolution fact
		}
		n += int64(len(r.Sends) + len(r.Recvs) + len(r.Emitted))
		if r.SentAny {
			n++
		}
	}
	return n
}
