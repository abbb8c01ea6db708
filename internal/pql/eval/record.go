package eval

import (
	"errors"
	"math"
	"slices"

	"ariadne/internal/engine"
	"ariadne/internal/graph"
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
	rowsEmitted                    // table(X, payload..., I); key column 1 probes the stored first column
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

// recordColumn reports what a record source writes at column i (of arity
// columns): 0 for the record's vertex, 1 for its superstep, -1 for
// anything else.
func (s rowSource) recordColumn(i, arity int) int {
	switch {
	case s < rowsSuperstep || s > rowsEdgeValue || s == rowsEdge:
		return -1
	case i == 0:
		return 0
	case i == arity-1 && s != rowsPrevValue && s != rowsEdgeValue:
		return 1
	}
	return -1
}

// RecordView is the query vertex program's view of one provenance record —
// the transient state the record sources read. Sends, Recvs and Emitted
// borrow the producer's arrays (the engine's record arena and fact store
// online, the layer's arena offline): a view is valid only while the
// evaluation call it is passed to runs, and nothing derived from it may keep
// the slices.
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
	Emitted      engine.Facts
}

// factKey is an emitted table a record step reads: the predicate and the
// arity of its facts, the literal's less the vertex and superstep columns.
type factKey struct {
	pred  string
	arity int
}

// recordFacts finds the tables the record steps read in the current
// record's fact store. ids[id] is table id's id in store (-1: the store has
// no such table), resolved again whenever the record's store is another or
// has gained tables since (stores only gain tables). Per table, for the
// record named by seq[id] (slotRun.recSeq moves on with every record, so
// nothing outlives its record even though views are reused across
// supersteps): ascending[id] reports whether the record's rows have an Int
// first column, each at least the one before (analytics emit their per-peer
// facts in inbox order, ascending by peer), so a keyed probe walks a cursor
// along the stored column; idx[id] is the rows' hash index on the first
// argument, built on the first probe the cursor cannot take. Every step and
// branch reading a table shares both.
type recordFacts struct {
	tables    []factKey // by id (Compile numbers them)
	store     *engine.FactStore
	known     int
	ids       []int32
	seq       []uint64
	ascending []bool
	idx       []factIndex
}

// stepCursor is a record step's cursor over a sorted row (graph.Seek): the
// current record's first column of an emitted table, or the out-edge row of
// vertex v. seq names the record it was set for; a fact cursor is good for
// that record only, an edge cursor for as long as it probes v's row.
type stepCursor struct {
	set bool
	seq uint64
	v   int64
	at  int
	dst []engine.VertexID
	w   []float64
}

// workCounts are a run's counts of record-step work, partition-local and
// summed at the merge in partition order (see CompiledStats): cursor probes
// of fact columns and of edge rows, and of those the re-seeks.
type workCounts struct {
	indexBuilds, factProbes, edgeProbes, reseeks int64
}

func (w *workCounts) add(o workCounts) {
	w.indexBuilds += o.indexBuilds
	w.factProbes += o.factProbes
	w.edgeProbes += o.edgeProbes
	w.reseeks += o.reseeks
}

// seek moves cur to the first of row's elements at least x, counting a
// re-seek.
func seek[E int64 | engine.VertexID](w *workCounts, cur *stepCursor, row []E, x E) int {
	at, back := graph.Seek(row, cur.at, x)
	cur.at = at
	if back {
		w.reseeks++
	}
	return at
}

// factIndex is a hash index over a record's rows of one table, chained
// through their offsets from the first: head[b] and next[j] hold an offset
// plus one (zero ends a chain). seq names the record it was built for.
type factIndex struct {
	seq  uint64
	head []int32
	next []int32
}

// tableRows returns the table of id in the current record's fact store and
// the record's rows of it, [lo, hi).
func (rn *slotRun) tableRows(id int) (t *engine.FactTable, lo, hi int) {
	f := rn.rv.Emitted
	s := f.Store()
	if s == nil {
		return nil, 0, 0
	}
	fs := &rn.facts
	if s != fs.store || s.NumTables() != fs.known {
		fs.store, fs.known = s, s.NumTables()
		if len(fs.ids) < len(fs.tables) {
			n := len(fs.tables)
			fs.ids, fs.seq, fs.ascending, fs.idx = make([]int32, n), make([]uint64, n), make([]bool, n), make([]factIndex, n)
		}
		for i, k := range fs.tables {
			fs.ids[i], _ = s.Find(k.pred, k.arity)
		}
	}
	sid := fs.ids[id]
	if sid < 0 {
		return nil, 0, 0
	}
	lo, hi = f.Rows(sid)
	return s.Table(sid), lo, hi
}

// factsByFirstArg calls fn, in emitted order, with the current record's
// rows of table id whose first argument may equal k, probing for step si.
// An Int key into an ascending Int first column moves the step's cursor
// along the stored column to exactly the rows whose first argument is k.
// Any other probe takes the rows whose first argument's value.Hash is k's
// from the table's index, built on the first such probe of each record:
// values appendNorm encodes alike hash alike (3 and 3.0, -0.0 and +0.0), and
// collisions only add candidates, as fn's match actions compare every
// argument anyway.
func (rn *slotRun) factsByFirstArg(id, si int, k value.Value, fn func(*engine.FactTable, int) error) error {
	t, lo, hi := rn.tableRows(id)
	if lo == hi {
		return nil
	}
	fs := &rn.facts
	if fs.seq[id] != rn.recSeq {
		fs.seq[id] = rn.recSeq
		ints := t.Ints(0)
		fs.ascending[id] = ints != nil && slices.IsSorted(ints[lo:hi])
	}
	if fs.ascending[id] && k.Kind() == value.Int {
		cur := &rn.curs[si]
		if !cur.set || cur.seq != rn.recSeq {
			*cur = stepCursor{set: true, seq: rn.recSeq}
		}
		keys, x := t.Ints(0)[lo:hi], k.Int()
		rn.work.factProbes++
		for j := seek(&rn.work, cur, keys, x); j < len(keys) && keys[j] == x; j++ {
			if err := fn(t, lo+j); err != nil {
				return err
			}
		}
		return nil
	}
	h := k.Hash()
	fx := &fs.idx[id]
	if fx.seq != rn.recSeq {
		rn.work.indexBuilds++
		fx.seq = rn.recSeq
		n, nb := hi-lo, 1
		for nb < n {
			nb <<= 1
		}
		fx.head = slices.Grow(fx.head[:0], nb)[:nb]
		fx.next = slices.Grow(fx.next[:0], n)[:n]
		clear(fx.head)
		// Prepending in reverse leaves every chain in emitted order.
		for j := n - 1; j >= 0; j-- {
			b := t.Value(0, lo+j).Hash() & uint64(nb-1)
			fx.next[j], fx.head[b] = fx.head[b], int32(j+1)
		}
	}
	for j := fx.head[h&uint64(len(fx.head)-1)]; j != 0; j = fx.next[j-1] {
		if err := fn(t, lo+int(j)-1); err != nil {
			return err
		}
	}
	return nil
}

// StaticGraph exposes the input graph to edge/edge_value steps and to the
// degree tests of static views. A vertex outside the graph has no edges.
type StaticGraph interface {
	NumVertices() int
	// OutNeighbors returns destinations and weights of v's out-edges,
	// sorted by destination (as graph.Graph's CSR rows are).
	OutNeighbors(v int64) ([]engine.VertexID, []float64)
	// InNeighbors returns sources of v's in-edges (nil if unavailable).
	InNeighbors(v int64) []engine.VertexID
	// OutDegree and InDegree count v's out- and in-edges.
	OutDegree(v int64) int
	InDegree(v int64) int
}

// edgeWeight returns the weight of the first edge a->b, as
// graph.Graph.EdgeWeight does, from step si's cursor over a's out-edge row:
// StaticGraph rows are sorted by destination, and a record's probes of its
// own row mostly ascend, as its peers do.
func (rn *slotRun) edgeWeight(si int, a, b int64) (float64, bool) {
	cur := &rn.curs[si]
	if !cur.set || cur.v != a {
		*cur = stepCursor{set: true, v: a}
		cur.dst, cur.w = rn.sg.OutNeighbors(a)
	}
	if b < 0 || b > math.MaxUint32 {
		return 0, false
	}
	d := engine.VertexID(b)
	rn.work.edgeProbes++
	if at := seek(&rn.work, cur, cur.dst, d); at < len(cur.dst) && cur.dst[at] == d {
		return cur.w[at], true
	}
	return 0, false
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
	if len(row) != len(st.match) {
		return st.arityErr()
	}
	ok, err := matchCols(rn.slots, st.match, row)
	if err != nil || !ok {
		return err
	}
	if st.kind == stepNegated {
		return errRowExists
	}
	return p.next(rn, si)
}

// runNegRecord executes a negated predicate step over a record source: the
// program goes on only if no row matched.
func (p *program) runNegRecord(rn *slotRun, si int, st *slotStep) error {
	err := p.recordRows(rn, si, st)
	if err == errRowExists {
		return nil
	}
	if err != nil {
		return err
	}
	return p.next(rn, si)
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
		fact := func(t *engine.FactTable, r int) error {
			ok, err := st.matchFact(rn.slots, x, t, r, ss)
			if err != nil || !ok {
				return err
			}
			if st.kind == stepNegated {
				return errRowExists
			}
			return p.next(rn, si)
		}
		if len(st.lookupCols) > 0 {
			// Joining on the first payload argument (e.g. the neighbor in
			// Query 7): probe the stored first column instead of scanning.
			kv, err := st.lookupSrc[0].eval(rn.slots)
			if err != nil {
				return err
			}
			return rn.factsByFirstArg(st.table, si, kv, fact)
		}
		t, lo, hi := rn.tableRows(st.table)
		for r := lo; r < hi; r++ {
			if err := fact(t, r); err != nil {
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
			w, ok := rn.edgeWeight(si, rv.Vertex, y)
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
		if _, ok := rn.edgeWeight(si, end[0], end[1]); !ok {
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
