package driver

import (
	"fmt"
	"sort"

	"ariadne/internal/graph"
	"ariadne/internal/value"
)

// Checkpoint support for online query evaluation (engine.Checkpointable).
// The online driver is a deterministic function of the superstep record
// stream, so its recoverable state is exactly: the Datalog database (the
// query-relation deltas derived so far) plus the path-specific cursors —
// compiled-rule drive cursors for the compiled path, or the evaluator's
// aggregate tables and the feeder's retention/dedup maps for the
// materialised path. Restoring this state and replaying supersteps from the
// checkpoint barrier reproduces the failure-free query result bit for bit.

// MarshalCheckpoint implements engine.Checkpointable.
func (o *Online) MarshalCheckpoint() ([]byte, error) {
	w := value.NewBlob()
	o.db.SaveState(w)
	w.Uvarint(uint64(o.PiggybackTuples))
	w.Uvarint(uint64(len(o.perSS)))
	for _, n := range o.perSS {
		w.Uvarint(uint64(n))
	}
	w.Bool(o.compiled != nil)
	if o.compiled != nil {
		o.compiled.SaveState(w)
		// An always-empty vertex-value map: the compiled path retains
		// nothing (the engine hands it each previous value), and the slot
		// keeps the checkpoint layout unchanged.
		w.Uvarint(0)
		return w.Bytes(), nil
	}
	o.ev.SaveState(w)
	w.Uvarint(uint64(o.f.FactCount))
	w.Bool(o.f.edgesFed)
	w.Bool(o.f.edgeValueFed != nil)
	if o.f.edgeValueFed != nil {
		ids := sortedVertices(o.f.edgeValueFed)
		w.Uvarint(uint64(len(ids)))
		for _, v := range ids {
			w.Uvarint(uint64(v))
		}
	}
	w.Bool(o.f.ret != nil)
	if o.f.ret != nil {
		// Values, then supersteps, each in vertex order.
		ids := sortedVertices(o.f.ret)
		w.Uvarint(uint64(len(ids)))
		for _, v := range ids {
			w.Uvarint(uint64(v))
			w.Value(o.f.ret[v].val)
		}
		w.Uvarint(uint64(len(ids)))
		for _, v := range ids {
			w.Uvarint(uint64(v))
			w.Uvarint(uint64(o.f.ret[v].ss))
		}
	}
	return w.Bytes(), nil
}

// UnmarshalCheckpoint implements engine.Checkpointable. The receiver must be
// a fresh Online built for the same query and graph (NewOnline picks the same
// evaluation path deterministically; a path mismatch means the checkpoint
// came from a different query and is rejected).
func (o *Online) UnmarshalCheckpoint(data []byte) error {
	r := value.NewBlobReader(data)
	if err := o.db.LoadState(r); err != nil {
		return err
	}
	o.PiggybackTuples = int64(r.Uvarint())
	nSS := r.Count()
	o.perSS = make([]int64, 0, nSS)
	for i := 0; i < nSS && r.Err() == nil; i++ {
		o.perSS = append(o.perSS, int64(r.Uvarint()))
	}
	wasCompiled := r.Bool()
	if err := r.Err(); err != nil {
		return fmt.Errorf("driver: corrupt online checkpoint state: %w", err)
	}
	if wasCompiled != (o.compiled != nil) {
		return fmt.Errorf("driver: online checkpoint path mismatch (saved compiled=%v, this query compiled=%v)", wasCompiled, o.compiled != nil)
	}
	if o.compiled != nil {
		if err := o.compiled.LoadState(r); err != nil {
			return err
		}
		o.noted = o.compiled.DerivedTuples()
		if _, err := loadVertexValues(r); err != nil {
			return err
		}
		return errCtx(r.Err())
	}
	if err := o.ev.LoadState(r); err != nil {
		return err
	}
	o.f.FactCount = int64(r.Uvarint())
	o.f.edgesFed = r.Bool()
	if r.Bool() {
		n := r.Count()
		o.f.edgeValueFed = make(map[graph.VertexID]bool, n)
		for i := 0; i < n && r.Err() == nil; i++ {
			o.f.edgeValueFed[graph.VertexID(r.Uvarint())] = true
		}
	} else if r.Err() == nil {
		o.f.edgeValueFed = nil
	}
	hadRet := r.Bool()
	if err := r.Err(); err != nil {
		return errCtx(err)
	}
	if hadRet != (o.f.ret != nil) {
		return fmt.Errorf("driver: online checkpoint retention mismatch (saved=%v, this query=%v)", hadRet, o.f.ret != nil)
	}
	if o.f.ret != nil {
		vals, err := loadVertexValues(r)
		if err != nil {
			return err
		}
		n := r.Count()
		o.f.ret = make(retention, n)
		for i := 0; i < n && r.Err() == nil; i++ {
			v := graph.VertexID(r.Uvarint())
			o.f.ret[v] = retained{val: vals[v], ss: int(r.Uvarint())}
		}
	}
	return errCtx(r.Err())
}

func errCtx(err error) error {
	if err != nil {
		return fmt.Errorf("driver: corrupt online checkpoint state: %w", err)
	}
	return nil
}

// loadVertexValues reads a vertex→value map written as a count followed by
// (vertex, value) pairs.
func loadVertexValues(r *value.BlobReader) (map[graph.VertexID]value.Value, error) {
	n := r.Count()
	m := make(map[graph.VertexID]value.Value, n)
	for i := 0; i < n && r.Err() == nil; i++ {
		v := graph.VertexID(r.Uvarint())
		m[v] = r.Value()
	}
	return m, errCtx(r.Err())
}

func sortedVertices[T any](m map[graph.VertexID]T) []graph.VertexID {
	ids := make([]graph.VertexID, 0, len(m))
	for v := range m {
		ids = append(ids, v)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}
