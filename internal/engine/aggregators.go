package engine

import (
	"math"
	"sync/atomic"
)

// AggOp is a global aggregator reduction operator.
type AggOp uint8

// Supported aggregator reductions.
const (
	AggSum AggOp = iota
	AggMin
	AggMax
	AggCount
)

// AggregatorReader exposes the merged aggregator values of the previous
// superstep (Pregel semantics: values written during superstep i are
// readable during superstep i+1 and after the run).
type AggregatorReader interface {
	// Float returns the merged value of the named aggregator and whether it
	// exists.
	Float(name string) (float64, bool)
}

type aggCell struct {
	op  AggOp
	val float64
	n   int64
}

// aggPart is one named aggregator's partial in a partition.
type aggPart struct {
	name string
	aggCell
}

// aggregators implements per-partition partial aggregation merged at the
// superstep barrier, mirroring how Pregel workers reduce locally before the
// master combines. The parts slice is sized up front so each worker only
// ever touches its own entry (no locks, no append races); a partition's
// partials are a short slice in first-use order, found by name with a scan,
// since programs aggregate into a handful of names many times a superstep.
type aggregators struct {
	parts   [][]aggPart        // one slice per partition, written without locks
	merged  map[string]aggCell // endSuperstep's scratch
	current map[string]float64 // merged values visible to readers
	// lent reports that reader has handed current out: the next superstep
	// with values puts them into a new map, so no reader sees a later
	// superstep's values. Compute goroutines call reader concurrently.
	lent atomic.Bool
}

func newAggregators(nParts int) *aggregators {
	return &aggregators{
		parts:   make([][]aggPart, nParts),
		current: map[string]float64{},
	}
}

func (a *aggregators) beginSuperstep() {
	for i := range a.parts {
		a.parts[i] = a.parts[i][:0]
	}
}

// resetPartition discards partition p's partial contributions for the
// superstep in flight — the aggregator half of partition-scoped recovery:
// a supervised re-execution must not double-count the failed attempt.
// Partition-local like add, so safe from p's worker goroutine.
func (a *aggregators) resetPartition(p int) {
	a.parts[p] = a.parts[p][:0]
}

func (a *aggregators) add(p int, name string, op AggOp, v float64) {
	cs := a.parts[p]
	i := 0
	for i < len(cs) && cs[i].name != name {
		i++
	}
	if i == len(cs) {
		cs = append(cs, aggPart{name, aggCell{op: op, val: initial(op)}})
		a.parts[p] = cs
	}
	c := &cs[i].aggCell
	c.val = reduce(op, c.val, v)
	c.n++
}

// endSuperstep merges the partitions' contributions into current. A
// superstep without any leaves an empty current as it is, and current is
// refilled in place unless a reader holds it.
func (a *aggregators) endSuperstep() {
	clear(a.merged)
	for _, cs := range a.parts {
		if len(cs) > 0 && a.merged == nil {
			a.merged = map[string]aggCell{}
		}
		for _, c := range cs {
			g, ok := a.merged[c.name]
			if !ok {
				g = aggCell{op: c.op, val: initial(c.op)}
			}
			if c.op == AggCount {
				g.val += float64(c.n) // count reduces by summing per-partition counts
			} else {
				g.val = reduce(c.op, g.val, c.val)
			}
			g.n += c.n
			a.merged[c.name] = g
		}
	}
	switch {
	case len(a.merged) == 0 && len(a.current) == 0:
		return
	case a.lent.Load() || a.current == nil:
		a.current = make(map[string]float64, len(a.merged))
		a.lent.Store(false)
	default:
		clear(a.current)
	}
	for name, c := range a.merged {
		a.current[name] = c.val
	}
}

func initial(op AggOp) float64 {
	switch op {
	case AggMin:
		return math.Inf(1)
	case AggMax:
		return math.Inf(-1)
	default:
		return 0
	}
}

func reduce(op AggOp, acc, v float64) float64 {
	switch op {
	case AggMin:
		return math.Min(acc, v)
	case AggMax:
		return math.Max(acc, v)
	case AggCount:
		return acc // count ignores v; n tracks it
	default:
		return acc + v
	}
}

type aggReader map[string]float64

func (r aggReader) Float(name string) (float64, bool) {
	v, ok := r[name]
	return v, ok
}

func (a *aggregators) reader() AggregatorReader {
	if !a.lent.Load() {
		a.lent.Store(true)
	}
	return aggReader(a.current)
}
