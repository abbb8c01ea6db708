package engine

import (
	"slices"

	"ariadne/internal/value"
)

// FactStore holds emitted facts (Context.EmitProv) in per-table,
// per-argument columns: a table is one (name, arity) pair, interned on first
// use into a small id. A column holds []int64 while every value in it is an
// Int, []float64 while every value is a Float, and boxed Values otherwise;
// it becomes boxed, once, when a value of another kind arrives. Every fact
// is also listed in emission order, by table id and row, for the consumers
// that need the interleaving across tables (capture, the wire).
//
// Facts are grouped into records with EndRecord. A partition keeps one store
// for the whole run (as does a layer decoder and a decoded frame): Reset
// empties the columns and keeps the tables, their ids and every backing
// array, so the store only ever gains tables.
type FactStore struct {
	tables []FactTable
	refs   []FactRef  // every fact, in emission order
	spans  []factSpan // per closed record: one span per table id known at its close
	start  int        // refs[start:] belong to the record not yet closed
}

// FactRef names one fact: its table id and its row in that table.
type FactRef struct{ Table, Row int32 }

// factSpan is the rows [Lo, Hi) of one table.
type factSpan struct{ Lo, Hi int32 }

// FactTable is one (name, arity) table of a FactStore.
type FactTable struct {
	name  string
	arity int
	rows  int
	room  int // rows Grow asked for before the columns' kinds were known
	cols  []factColumn
}

// factColumn is one argument column of a table; kind says which slice holds
// its rows.
type factColumn struct {
	kind   colKind
	ints   []int64
	floats []float64
	vals   []value.Value
}

type colKind uint8

const (
	colInts colKind = iota
	colFloats
	colBoxed
)

// Name returns the table's name.
func (t *FactTable) Name() string { return t.name }

// Arity returns the number of arguments of the table's facts.
func (t *FactTable) Arity() int { return t.arity }

// Value returns argument col of row.
func (t *FactTable) Value(col, row int) value.Value {
	c := &t.cols[col]
	switch c.kind {
	case colInts:
		return value.NewInt(c.ints[row])
	case colFloats:
		return value.NewFloat(c.floats[row])
	}
	return c.vals[row]
}

// Ints returns column col's rows when every value in it is an Int, else nil.
func (t *FactTable) Ints(col int) []int64 {
	if c := &t.cols[col]; c.kind == colInts && t.rows > 0 {
		return c.ints[:t.rows]
	}
	return nil
}

// push appends v to the column, which holds rows rows: the first value of a
// column sets its kind (and makes room for room rows of it), a value of
// another kind boxes it.
func (c *factColumn) push(v value.Value, rows, room int) {
	k := v.Kind()
	if rows == 0 {
		c.ints, c.floats, c.vals = c.ints[:0], c.floats[:0], c.vals[:0]
		switch k {
		case value.Int:
			c.kind = colInts
		case value.Float:
			c.kind = colFloats
		default:
			c.kind = colBoxed
		}
		c.grow(room)
	}
	switch {
	case c.kind == colInts && k == value.Int:
		c.ints = append(c.ints, v.Int())
		return
	case c.kind == colFloats && k == value.Float:
		c.floats = append(c.floats, v.Float())
		return
	case c.kind == colInts:
		c.vals = c.vals[:0]
		for _, x := range c.ints {
			c.vals = append(c.vals, value.NewInt(x))
		}
	case c.kind == colFloats:
		c.vals = c.vals[:0]
		for _, x := range c.floats {
			c.vals = append(c.vals, value.NewFloat(x))
		}
	}
	c.kind = colBoxed
	c.vals = append(c.vals, v)
}

// grow makes room for n more rows in the column's kind.
func (c *factColumn) grow(n int) {
	switch c.kind {
	case colInts:
		c.ints = slices.Grow(c.ints, n)
	case colFloats:
		c.floats = slices.Grow(c.floats, n)
	default:
		c.vals = slices.Grow(c.vals, n)
	}
}

// NumTables returns how many tables the store has interned.
func (s *FactStore) NumTables() int { return len(s.tables) }

// Table returns table id.
func (s *FactStore) Table(id int32) *FactTable { return &s.tables[id] }

// Find returns the id of table (name, arity), if the store has it.
func (s *FactStore) Find(name string, arity int) (int32, bool) {
	for i := range s.tables {
		if t := &s.tables[i]; t.arity == arity && t.name == name {
			return int32(i), true
		}
	}
	return -1, false
}

// Intern returns the id of table (name, arity), adding the table if the
// store does not have it.
func (s *FactStore) Intern(name string, arity int) int32 {
	if id, ok := s.Find(name, arity); ok {
		return id
	}
	id := int32(len(s.tables))
	s.tables = append(s.tables, FactTable{name: name, arity: arity, cols: make([]factColumn, arity)})
	return id
}

// Grow makes room for n more facts of table id, so that the next n Appends
// of it do not reallocate while its columns keep their kinds.
func (s *FactStore) Grow(id int32, n int) {
	s.refs = slices.Grow(s.refs, n)
	t := &s.tables[id]
	if t.rows == 0 {
		t.room = n // the table's next fact sets its columns' kinds
		return
	}
	for i := range t.cols {
		t.cols[i].grow(n)
	}
}

// Append adds a fact of table id, whose arity must be len(args), to the
// record not yet closed. It keeps no reference to args.
func (s *FactStore) Append(id int32, args ...value.Value) {
	t := &s.tables[id]
	for i, a := range args {
		// A value of its column's kind, the common case, is appended here;
		// push sets a new column's kind and boxes.
		switch c := &t.cols[i]; {
		case t.rows > 0 && c.kind == colInts && a.Kind() == value.Int:
			c.ints = append(c.ints, a.Int())
		case t.rows > 0 && c.kind == colFloats && a.Kind() == value.Float:
			c.floats = append(c.floats, a.Float())
		default:
			c.push(a, t.rows, t.room)
		}
	}
	s.refs = append(s.refs, FactRef{Table: id, Row: int32(t.rows)})
	t.rows++
}

// Emit adds the fact (table, args...) to the record not yet closed.
func (s *FactStore) Emit(table string, args ...value.Value) {
	s.Append(s.Intern(table, len(args)), args...)
}

// EndRecord closes the facts added since the last EndRecord (or Reset) into
// one record's Facts. A record without facts gets the zero Facts.
func (s *FactStore) EndRecord() Facts {
	lo, hi := s.start, len(s.refs)
	s.start = hi
	if lo == hi {
		return Facts{}
	}
	at, n := len(s.spans), len(s.tables)
	s.spans = slices.Grow(s.spans, n)[:at+n]
	spans := s.spans[at:]
	clear(spans)
	// A record's rows of a table are consecutive: no other record adds to
	// the table between its first fact and its last.
	for _, r := range s.refs[lo:hi] {
		sp := &spans[r.Table]
		if sp.Lo == sp.Hi {
			sp.Lo = r.Row
		}
		sp.Hi = r.Row + 1
	}
	return Facts{store: s, refLo: int32(lo), refHi: int32(hi), spanLo: int32(at), spanHi: int32(at + n)}
}

// Reset empties the store for the next superstep (or layer, or frame),
// keeping its tables and their ids. Views of the facts it held are void.
func (s *FactStore) Reset() {
	for i := range s.tables {
		s.tables[i].rows, s.tables[i].room = 0, 0
	}
	s.refs, s.spans, s.start = s.refs[:0], s.spans[:0], 0
}

// clone returns a copy of s that shares no array with it, so views into s
// can be moved to the copy by swapping their store.
func (s *FactStore) clone() *FactStore {
	c := &FactStore{tables: make([]FactTable, len(s.tables)),
		refs: slices.Clone(s.refs), spans: slices.Clone(s.spans), start: s.start}
	for i := range s.tables {
		t := &s.tables[i]
		ct := FactTable{name: t.name, arity: t.arity, rows: t.rows, cols: make([]factColumn, t.arity)}
		for j, col := range t.cols {
			cc := &ct.cols[j]
			cc.kind = col.kind
			switch {
			case t.rows == 0:
			case col.kind == colInts:
				cc.ints = slices.Clone(col.ints[:t.rows])
			case col.kind == colFloats:
				cc.floats = slices.Clone(col.floats[:t.rows])
			default:
				cc.vals = slices.Clone(col.vals[:t.rows])
			}
		}
		c.tables[i] = ct
	}
	return c
}

// Facts is one record's emitted facts: for each table id of its store, the
// record's rows, and its facts in emission order. It is a view into the
// store, valid until the store is Reset; the zero Facts holds none.
type Facts struct {
	store          *FactStore
	refLo, refHi   int32
	spanLo, spanHi int32
}

// Store returns the store the facts live in (nil for a record without
// facts). Table ids are the store's.
func (f Facts) Store() *FactStore { return f.store }

// Len returns the number of facts.
func (f Facts) Len() int { return int(f.refHi - f.refLo) }

// Rows returns the record's rows [lo, hi) of table id.
func (f Facts) Rows(id int32) (lo, hi int) {
	if id < 0 || id >= f.spanHi-f.spanLo {
		return 0, 0
	}
	sp := f.store.spans[f.spanLo+id]
	return int(sp.Lo), int(sp.Hi)
}

// Ref returns the k-th fact in emission order.
func (f Facts) Ref(k int) FactRef { return f.store.refs[int(f.refLo)+k] }

// Fact returns the table and row of the k-th fact in emission order.
func (f Facts) Fact(k int) (*FactTable, int) {
	r := f.Ref(k)
	return &f.store.tables[r.Table], int(r.Row)
}

// AppendArgs appends the k-th fact's arguments to dst.
func (f Facts) AppendArgs(dst []value.Value, k int) []value.Value {
	t, row := f.Fact(k)
	for c := range t.arity {
		dst = append(dst, t.Value(c, row))
	}
	return dst
}
