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
// compiled-rule drive cursors and the evolution-retention view for the
// compiled path, or the evaluator's aggregate tables and the feeder's
// retention/dedup maps for the materialised path. Restoring this state and
// replaying supersteps from the checkpoint barrier reproduces the
// failure-free query result bit for bit.

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
		saveVertexValues(w, o.vb.ret)
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
		saveVertexValues(w, o.f.ret.lastVal)
		ids := make([]graph.VertexID, 0, len(o.f.ret.lastSS))
		for v := range o.f.ret.lastSS {
			ids = append(ids, v)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		w.Uvarint(uint64(len(ids)))
		for _, v := range ids {
			w.Uvarint(uint64(v))
			w.Uvarint(uint64(o.f.ret.lastSS[v]))
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
		if err := loadVertexValues(r, o.vb.ret); err != nil {
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
		o.f.ret.lastVal = map[graph.VertexID]value.Value{}
		if err := loadVertexValues(r, o.f.ret.lastVal); err != nil {
			return err
		}
		n := r.Count()
		o.f.ret.lastSS = make(map[graph.VertexID]int, n)
		for i := 0; i < n && r.Err() == nil; i++ {
			v := graph.VertexID(r.Uvarint())
			o.f.ret.lastSS[v] = int(r.Uvarint())
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

// saveVertexValues writes a vertex→value map in sorted vertex order.
func saveVertexValues(w *value.Blob, m map[graph.VertexID]value.Value) {
	ids := sortedVertices2(m)
	w.Uvarint(uint64(len(ids)))
	for _, v := range ids {
		w.Uvarint(uint64(v))
		w.Value(m[v])
	}
}

// loadVertexValues fills dst (which must be non-nil and is cleared first)
// from a saveVertexValues blob.
func loadVertexValues(r *value.BlobReader, dst map[graph.VertexID]value.Value) error {
	for v := range dst {
		delete(dst, v)
	}
	n := r.Count()
	for i := 0; i < n && r.Err() == nil; i++ {
		v := graph.VertexID(r.Uvarint())
		dst[v] = r.Value()
	}
	return errCtx(r.Err())
}

func sortedVertices(m map[graph.VertexID]bool) []graph.VertexID {
	ids := make([]graph.VertexID, 0, len(m))
	for v := range m {
		ids = append(ids, v)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

func sortedVertices2(m map[graph.VertexID]value.Value) []graph.VertexID {
	ids := make([]graph.VertexID, 0, len(m))
	for v := range m {
		ids = append(ids, v)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}
