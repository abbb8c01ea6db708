package driver

import (
	"fmt"

	"ariadne/internal/value"
)

// Checkpoint support for online query evaluation (engine.Checkpointable).
// The online driver is a deterministic function of the superstep record
// stream, so its recoverable state is exactly: the Datalog database (the
// query-relation deltas derived so far, materialised EDB relations among
// them) plus the compiled program's counters and aggregate group tables.
// Restoring this state and replaying supersteps from the checkpoint barrier
// reproduces the failure-free query result bit for bit.

// MarshalCheckpoint implements engine.Checkpointable.
func (o *Online) MarshalCheckpoint() ([]byte, error) {
	w := value.NewBlob()
	o.db.SaveState(w)
	w.Uvarint(uint64(o.PiggybackTuples))
	w.Uvarint(uint64(len(o.perSS)))
	for _, n := range o.perSS {
		w.Uvarint(uint64(n))
	}
	// The compiled-path flag and an always-empty vertex-value map keep the
	// layout of checkpoints written when a second evaluator existed.
	w.Bool(true)
	o.compiled.SaveState(w)
	w.Uvarint(0)
	return w.Bytes(), nil
}

// UnmarshalCheckpoint implements engine.Checkpointable. The receiver must be
// a fresh Online built for the same query and graph. A checkpoint the
// materialised evaluator wrote, before every query compiled to one program,
// is refused: its state is that evaluator's.
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
	compiled := r.Bool()
	if err := r.Err(); err != nil {
		return errCtx(err)
	}
	if !compiled {
		return fmt.Errorf("driver: online checkpoint written by the materialised evaluator, which no longer exists; rerun without resuming")
	}
	if err := o.compiled.LoadState(r); err != nil {
		return err
	}
	o.noted = o.compiled.DerivedTuples()
	// The vertex→value map of checkpoints written while the compiled path
	// kept one: (vertex, value) pairs, read past.
	for n, i := r.Count(), 0; i < n && r.Err() == nil; i++ {
		r.Uvarint()
		r.Value()
	}
	return errCtx(r.Err())
}

func errCtx(err error) error {
	if err != nil {
		return fmt.Errorf("driver: corrupt online checkpoint state: %w", err)
	}
	return nil
}
