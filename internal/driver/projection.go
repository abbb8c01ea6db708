package driver

import (
	"ariadne/internal/pql/analysis"
	"ariadne/internal/pql/eval"
	"ariadne/internal/provenance"
)

// projectionFor derives the layer column projection the layered replay
// pushes down into the provenance store, which decodes only the selected
// columns (and the core ones) of each layer.
//
// A payload column is read only when its EDB appears in the query at all,
// and then at one of two granularities, by how the program reads the EDB:
//
//   - An EDB c materialises is read whole: its copy rule stores whole
//     tuples, deduplicated, and the materialised rules over it observe that
//     distinctness (an aggregate counts distinct values or valuations), so
//     a column of such a table can never be dropped.
//
//   - An EDB read off the records only refines to column granularity using
//     ColumnUse: a position every rule ignores (wildcard or
//     single-occurrence variable) may come back Null, because record steps
//     only inspect the positions the rules constrain. Existence stays exact
//     under dropped value columns: HasValue and HasPrevValue derive from the
//     flags column and retention presence, both independent of the values
//     column's content.
//
// The receive step iterates a record's Recvs, one row per message, so the
// number of receives must be exact even where no rule looks at them. When
// the rules ignore both the sender Y and the payload M (Query 6's
// neighbor_change), the store reads the receive counts alone (RecvCounts):
// each row then holds a zero sender and a Null payload in positions no rule
// reads, and a rule derives the same tuples, as often and in the same
// order, as over the true messages. A rule that reads either position gets
// the peers.
//
// The send topology is read only for send_message and prov_send: under
// full capture a record's prov_send holds because it has sends, since the
// stored SentAny flag is written only under the send-flags policy.
// Columns the projection never covers (vertex, activation lineage, flags)
// are core: every record view carries them.
func projectionFor(q *analysis.Query, c *eval.Compiled) *provenance.LayerProjection {
	n := needsOf(q)
	_, provSend := q.EDBs["prov_send"]
	p := &provenance.LayerProjection{
		Values:     n.value,
		SendPeers:  n.send || provSend,
		SendValues: n.send,
		RecvPeers:  n.recv,
		RecvValues: n.recv,
		Emitted:    len(n.emitted) > 0,
	}
	use := q.ColumnUse()
	// EDB argument positions per catalog.go: value(X, D, I) payload at 1;
	// send_message(X, Y, M, I) and receive_message(X, Y, M, I) peer at 1,
	// payload at 2.
	if p.Values && !c.Materialises("value") {
		p.Values = colUsed(use, "value", 1)
	}
	if p.SendValues && !c.Materialises("send_message") {
		p.SendValues = colUsed(use, "send_message", 2)
	}
	if p.RecvPeers && !c.Materialises("receive_message") {
		p.RecvValues = colUsed(use, "receive_message", 2)
		p.RecvPeers = p.RecvValues || colUsed(use, "receive_message", 1)
		p.RecvCounts = !p.RecvPeers
	}
	return p
}

// needs records which record columns a query reads — payload values, sends,
// receives, emitted facts — so the engine keeps and the store decodes only
// what the query can use: the evaluation-side counterpart of customized
// capture.
type needs struct {
	value, send, recv bool
	emitted           map[string]bool
}

func needsOf(q *analysis.Query) needs {
	n := needs{emitted: map[string]bool{}}
	for name := range q.EDBs {
		switch name {
		case "value":
			n.value = true
		case "send_message":
			n.send = true
		case "receive_message":
			n.recv = true
		default:
			if _, emitted := q.Env().ExtraEDBs[name]; emitted {
				n.emitted[name] = true
			}
		}
	}
	return n
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
