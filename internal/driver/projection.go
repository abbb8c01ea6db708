package driver

import (
	"ariadne/internal/pql/analysis"
	"ariadne/internal/provenance"
)

// projectionFor derives the layer column projection the layered replay
// pushes down into the provenance store, which decodes only the selected
// columns (and the core ones) of each layer.
//
// Two granularities, matching what each evaluation path can safely skip:
//
//   - The materialised (Datalog) path projects at table granularity: a
//     payload column is read iff its EDB appears in the query at all. The
//     feeder materializes whole tuples, and the evaluator's aggregates
//     observe tuple distinctness, so a column of a *referenced* table can
//     never be dropped — but tables the query never mentions contribute no
//     facts (feedRecord gates on needs), so their columns need not leave
//     disk.
//
//   - The compiled (vertex-program) path refines to column granularity
//     using ColumnUse: a position every rule ignores (wildcard or
//     single-occurrence variable) may come back Null. This is safe
//     precisely because the compiler rejects aggregates (ErrNotCompilable)
//     and compiled steps only inspect the positions the rules constrain.
//     Existence stays exact under dropped value columns: HasValue and
//     HasPrevValue derive from the flags column and retention presence,
//     both independent of the values column's content.
//
// Columns the projection never covers (vertex, activation lineage, flags,
// send topology) are core: replay itself needs them to re-activate the
// layer's vertices and regenerate its message structure.
func projectionFor(q *analysis.Query, compiled bool) *provenance.LayerProjection {
	n := needsOf(q)
	p := &provenance.LayerProjection{
		Values:     n.value,
		SendValues: n.send,
		RecvPeers:  n.recv,
		RecvValues: n.recv,
		Emitted:    len(n.emitted) > 0,
	}
	if !compiled {
		return p
	}
	use := q.ColumnUse()
	// EDB argument positions per catalog.go: value(X, D, I) payload at 1;
	// send_message(X, Y, M, I) and receive_message(X, Y, M, I) payload at 2.
	// Receive *peers* stay table-level even when Y is ignored: the compiled
	// message steps iterate the Recvs slice, so its length (one entry per
	// received message) must be exact.
	if p.Values {
		p.Values = colUsed(use, "value", 1)
	}
	if p.SendValues {
		p.SendValues = colUsed(use, "send_message", 2)
	}
	if p.RecvValues {
		p.RecvValues = colUsed(use, "receive_message", 2)
	}
	return p
}

// colUsed reports whether the position is observable, defaulting to true
// (conservative: read the column) when the analysis has no entry.
func colUsed(use map[string][]bool, pred string, pos int) bool {
	u, ok := use[pred]
	if !ok || pos >= len(u) {
		return true
	}
	return u[pos]
}
