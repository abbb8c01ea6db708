package eval

import (
	"errors"
	"math"
	"slices"

	"ariadne/internal/engine"
	"ariadne/internal/value"
)

// Row sources. A predicate step of a slot program draws its candidate rows
// either from the Datalog database (rowsRelation, rowsDelta) or — the
// record-local EDBs of the compact provenance representation, as virtual
// relations — straight off the transient RecordView and the StaticGraph,
// without materialising any tuple: each row is written into a buffer reused
// across rows and matched by the same bind/compare loop.

type rowSource uint8

const (
	rowsRelation  rowSource = iota // indexed Relation lookup on the key columns
	rowsDelta                      // the firing's delta batch
	rowsSuperstep                  // superstep(X, I)
	rowsValue                      // value(X, D, I) at the current superstep
	rowsPrevValue                  // value(X, D, J) at the evolution predecessor (retention)
	rowsEvolution                  // evolution(X, J, I)
	rowsSends                      // send_message(X, Y, M, I)
	rowsRecvs                      // receive_message(X, Y, M, I)
	rowsProvSend                   // prov_send(X, I)
	rowsEmitted                    // table(X, payload..., I); key column 1 uses the first-argument index
	rowsEdge                       // edge(A, B); the key columns select membership / out / in / scan
	rowsEdgeValue                  // edge_value(X, Y, W, 0); key column 1 selects the weight probe
	rowsInDegree                   // a view head h(X) :- edge(_, X), keyed X: one row when X has an in-edge
	rowsOutDegree                  // a view head h(X) :- edge(X, _), keyed X: one row when X has an out-edge
)

var rowSourceNames = [...]string{
	"relation", "delta", "record.superstep", "record.value", "record.prev_value",
	"record.evolution", "record.sends", "record.recvs", "record.prov_send",
	"record.emitted", "graph.edge", "graph.edge_value", "graph.in_degree", "graph.out_degree",
}

func (s rowSource) String() string { return rowSourceNames[s] }

// keyColumn reports whether the source can use a ground argument at column
// i (of arity columns) to narrow the rows it yields.
func (s rowSource) keyColumn(i, arity int) bool {
	switch s {
	case rowsRelation, rowsEdge:
		return true
	case rowsEmitted:
		return i == 1 && arity > 3
	case rowsEdgeValue:
		return i == 1
	case rowsInDegree, rowsOutDegree:
		return i == 0
	}
	return false
}

// RecordView is the query vertex program's view of one provenance record —
// the transient state the record sources read. Sends, Recvs and Emitted
// borrow the producer's slices (the engine's record arena online, the
// layer's arena offline): a view is valid only while the evaluation call it
// is passed to runs, and nothing derived from it may keep the slices.
type RecordView struct {
	Vertex    int64
	Superstep int64
	HasValue  bool
	Value     value.Value
	// PrevActive/PrevValue realize the evolution edge (retention).
	PrevActive   int64 // -1 if none
	PrevValue    value.Value
	HasPrevValue bool
	SentAny      bool
	Sends        []engine.SentMessage
	Recvs        []engine.IncomingMessage
	Emitted      []engine.ProvFact
}

// factIndex is one emitted step's hash index over the current record's
// facts of its table, chained through the facts' positions: head[b] and
// next[i] hold a position plus one (zero ends a chain). seq names the record
// it was built for: slotRun.recSeq moves on with every record, so an index
// never outlives its record even though views are reused across supersteps.
type factIndex struct {
	seq  uint64
	head []int32
	next []int32
}

// factsByFirstArg calls fn, in emitted order, with the current record's
// facts of table whose canonical first argument hashes to h, building step
// si's index on the first probe of each record. Hash collisions only add
// candidates: fn's match actions compare every argument anyway.
func (rn *slotRun) factsByFirstArg(si int, table string, h uint64, fn func(*engine.ProvFact) error) error {
	fx, facts := &rn.factIdx[si], rn.rv.Emitted
	if fx.seq != rn.recSeq {
		fx.seq = rn.recSeq
		nb := 1
		for nb < len(facts) {
			nb <<= 1
		}
		fx.head = slices.Grow(fx.head[:0], nb)[:nb]
		fx.next = slices.Grow(fx.next[:0], len(facts))[:len(facts)]
		clear(fx.head)
		// Prepending in reverse leaves every chain in emitted order.
		for i := len(facts) - 1; i >= 0; i-- {
			f := &facts[i]
			if f.Table != table || len(f.Args) == 0 {
				continue
			}
			rn.keyBuf = appendNorm(rn.keyBuf[:0], f.Args[0])
			b := fnvSum(rn.keyBuf) & uint64(nb-1)
			fx.next[i], fx.head[b] = fx.head[b], int32(i+1)
		}
	}
	for p := fx.head[h&uint64(len(fx.head)-1)]; p != 0; p = fx.next[p-1] {
		if err := fn(&facts[p-1]); err != nil {
			return err
		}
	}
	return nil
}

// fnvSum is FNV-1a over b.
func fnvSum(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h = (h ^ uint64(c)) * 1099511628211
	}
	return h
}

// StaticGraph exposes the input graph to edge/edge_value steps and to the
// degree tests of static views. A vertex outside the graph has no edges.
type StaticGraph interface {
	NumVertices() int
	// OutNeighbors returns destinations and weights of v's out-edges.
	OutNeighbors(v int64) ([]engine.VertexID, []float64)
	// InNeighbors returns sources of v's in-edges (nil if unavailable).
	InNeighbors(v int64) []engine.VertexID
	// OutDegree and InDegree count v's out- and in-edges.
	OutDegree(v int64) int
	InDegree(v int64) int
	// EdgeWeight returns the weight of edge src->dst if present.
	EdgeWeight(src, dst int64) (float64, bool)
}

// vertexID converts a key value to a vertex id; non-integral values name no
// vertex.
func vertexID(v value.Value) (int64, bool) {
	switch v.Kind() {
	case value.Int:
		return v.Int(), true
	case value.Float:
		if f := v.Float(); f == math.Trunc(f) && f >= math.MinInt64 && f <= math.MaxInt64 {
			return int64(f), true
		}
	}
	return 0, false
}

// errRowExists stops a negated record step's row scan at the first match.
var errRowExists = errors.New("eval: row exists")

// tryRow matches one source row; on success a positive step continues the
// program and a negated one reports the row.
func (p *program) tryRow(rn *slotRun, si int, st *slotStep, row []value.Value) error {
	ok, err := st.matchRow(rn.slots, row)
	if err != nil || !ok {
		return err
	}
	if st.kind == stepNegated {
		return errRowExists
	}
	return p.run(rn, si+1)
}

// runRecord executes a predicate step over a record source.
func (p *program) runRecord(rn *slotRun, si int, st *slotStep) error {
	err := p.recordRows(rn, si, st)
	if st.kind != stepNegated {
		return err
	}
	if err == errRowExists {
		return nil
	}
	if err != nil {
		return err
	}
	return p.run(rn, si+1)
}

// recordRows feeds the source's rows, narrowed by the step's key columns,
// through tryRow.
func (p *program) recordRows(rn *slotRun, si int, st *slotStep) error {
	rv := rn.rv
	if cap(rn.rowBuf[si]) < len(st.match) {
		rn.rowBuf[si] = make([]value.Value, len(st.match))
	}
	row := rn.rowBuf[si][:len(st.match)]
	x, ss := value.NewInt(rv.Vertex), value.NewInt(rv.Superstep)
	switch st.rows {
	case rowsSuperstep:
		row[0], row[1] = x, ss
		return p.tryRow(rn, si, st, row)

	case rowsValue:
		if !rv.HasValue {
			return nil
		}
		row[0], row[1], row[2] = x, rv.Value, ss
		return p.tryRow(rn, si, st, row)

	case rowsPrevValue:
		if !rv.HasPrevValue {
			return nil
		}
		row[0], row[1], row[2] = x, rv.PrevValue, value.NewInt(rv.PrevActive)
		return p.tryRow(rn, si, st, row)

	case rowsEvolution:
		if rv.PrevActive < 0 {
			return nil
		}
		row[0], row[1], row[2] = x, value.NewInt(rv.PrevActive), ss
		return p.tryRow(rn, si, st, row)

	case rowsSends:
		row[0], row[3] = x, ss
		for i := range rv.Sends {
			row[1], row[2] = value.NewInt(int64(rv.Sends[i].Dst)), rv.Sends[i].Val
			if err := p.tryRow(rn, si, st, row); err != nil {
				return err
			}
		}
		return nil

	case rowsRecvs:
		row[0], row[3] = x, ss
		for i := range rv.Recvs {
			row[1], row[2] = value.NewInt(int64(rv.Recvs[i].Src)), rv.Recvs[i].Val
			if err := p.tryRow(rn, si, st, row); err != nil {
				return err
			}
		}
		return nil

	case rowsProvSend:
		if !rv.SentAny && len(rv.Sends) == 0 {
			return nil
		}
		row[0], row[1] = x, ss
		return p.tryRow(rn, si, st, row)

	case rowsEmitted:
		row[0], row[len(row)-1] = x, ss
		fact := func(f *engine.ProvFact) error {
			if f.Table != st.pred || len(f.Args) != len(row)-2 {
				return nil
			}
			copy(row[1:], f.Args)
			return p.tryRow(rn, si, st, row)
		}
		if len(st.lookupCols) > 0 {
			// Joining on the first payload argument (e.g. the neighbor in
			// Query 7): probe the step's per-record index instead of
			// scanning.
			kb, err := rn.key(st.lookupSrc)
			if err != nil {
				return err
			}
			return rn.factsByFirstArg(si, st.pred, fnvSum(kb), fact)
		}
		for fi := range rv.Emitted {
			if err := fact(&rv.Emitted[fi]); err != nil {
				return err
			}
		}
		return nil

	case rowsEdge:
		return p.edgeRows(rn, si, st, row)

	case rowsInDegree, rowsOutDegree:
		// A static view's probe: the key is the view's one column.
		xv, err := st.lookupSrc[0].eval(rn.slots)
		if err != nil {
			return err
		}
		id, ok := vertexID(xv)
		if !ok {
			return nil
		}
		deg := 0
		if st.rows == rowsInDegree {
			deg = rn.sg.InDegree(id)
		} else {
			deg = rn.sg.OutDegree(id)
		}
		if deg == 0 {
			return nil
		}
		row[0] = value.NewInt(id)
		return p.tryRow(rn, si, st, row)

	default: // rowsEdgeValue: static weights, so the superstep column is 0
		row[0], row[3] = x, value.NewInt(0)
		if len(st.lookupCols) > 0 {
			yv, err := st.lookupSrc[0].eval(rn.slots)
			if err != nil {
				return err
			}
			y, ok := vertexID(yv)
			if !ok {
				return nil
			}
			w, ok := rn.sg.EdgeWeight(rv.Vertex, y)
			if !ok {
				return nil
			}
			row[1], row[2] = value.NewInt(y), value.NewFloat(w)
			return p.tryRow(rn, si, st, row)
		}
		dst, ws := rn.sg.OutNeighbors(rv.Vertex)
		for i, d := range dst {
			row[1], row[2] = value.NewInt(int64(d)), value.NewFloat(ws[i])
			if err := p.tryRow(rn, si, st, row); err != nil {
				return err
			}
		}
		return nil
	}
}

// edgeRows yields the static edge(A, B) rows: a membership probe when both
// ends are keyed, out- or in-neighbor enumeration when one is, a full scan
// (static rules only) when none.
func (p *program) edgeRows(rn *slotRun, si int, st *slotStep, row []value.Value) error {
	var end [2]int64
	for i, c := range st.lookupCols {
		v, err := st.lookupSrc[i].eval(rn.slots)
		if err != nil {
			return err
		}
		id, ok := vertexID(v)
		if !ok {
			return nil
		}
		end[c] = id
	}
	sg := rn.sg
	out := func(a int64) error {
		row[0] = value.NewInt(a)
		dst, _ := sg.OutNeighbors(a)
		for _, d := range dst {
			row[1] = value.NewInt(int64(d))
			if err := p.tryRow(rn, si, st, row); err != nil {
				return err
			}
		}
		return nil
	}
	switch {
	case len(st.lookupCols) == 2:
		if _, ok := sg.EdgeWeight(end[0], end[1]); !ok {
			return nil
		}
		row[0], row[1] = value.NewInt(end[0]), value.NewInt(end[1])
		return p.tryRow(rn, si, st, row)
	case len(st.lookupCols) == 0:
		for v := 0; v < sg.NumVertices(); v++ {
			if err := out(int64(v)); err != nil {
				return err
			}
		}
		return nil
	case st.lookupCols[0] == 0:
		return out(end[0])
	default:
		row[1] = value.NewInt(end[1])
		for _, s := range sg.InNeighbors(end[1]) {
			row[0] = value.NewInt(int64(s))
			if err := p.tryRow(rn, si, st, row); err != nil {
				return err
			}
		}
		return nil
	}
}
