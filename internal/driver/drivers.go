// Package driver implements the paper's three PQL evaluation modes, each
// running the query's one compiled program (eval.Compile):
//
//   - Naive (§6.2 "Naive"): materialize the entire provenance graph, then
//     evaluate it in one pass with every rule materialised — the whole graph
//     as EDB relations. Memory-bound; the paper's Naive "was not able to
//     scale beyond the two smallest datasets".
//   - Layered (§5.1): evaluate one layer (superstep) at a time, in
//     ascending order for forward/local queries or descending order for
//     backward queries, reusing working memory.
//   - Online (§5.2): evaluate in lockstep with the analytic as an engine
//     Observer, consuming the transient provenance; no capture step at all.
package driver

import (
	"errors"
	"fmt"
	"slices"
	"sync"

	"ariadne/internal/engine"
	"ariadne/internal/graph"
	"ariadne/internal/obs"
	"ariadne/internal/pql/analysis"
	"ariadne/internal/pql/eval"
	"ariadne/internal/provenance"
	"ariadne/internal/supervise"
)

// Result exposes the outcome of a query evaluation.
type Result struct {
	q        *analysis.Query
	db       *eval.Database
	compiled *eval.Compiled
	Facts    int64 // records evaluated plus EDB tuples materialised
}

// Relation returns the result relation for an IDB (or EDB) predicate.
func (r *Result) Relation(pred string) *eval.Relation { return r.db.Get(pred) }

// RelationInfo names a derived relation and its tuple count.
type RelationInfo struct {
	Name  string
	Count int
}

// DerivedRelations lists the query's IDB relations with tuple counts,
// sorted by name.
func (r *Result) DerivedRelations() []RelationInfo {
	var out []RelationInfo
	for _, name := range r.db.Names() {
		if _, isIDB := r.q.IDBs[name]; !isIDB {
			continue
		}
		out = append(out, RelationInfo{Name: name, Count: r.db.Get(name).Len()})
	}
	return out
}

// CompiledStats returns the compiled program's work counters.
func (r *Result) CompiledStats() eval.CompiledStats { return r.compiled.Stats() }

// DBBytes estimates the evaluation database size, the memory the naive mode
// must hold at once.
func (r *Result) DBBytes() int64 { return r.db.MemSize() }

// ErrNaiveBudget reports that naive evaluation would exceed its memory
// budget — reproducing the paper's "Naive was not able to scale beyond the
// two smallest datasets" outcome deterministically.
var ErrNaiveBudget = errors.New("driver: naive evaluation exceeds the memory budget (use layered or online mode)")

// nodeBytes is what one node of the *unfolded* provenance graph (paper §3)
// costs held as an object: a (vertex, superstep) instantiation with its
// value, its message edges and an evolution pointer. Naive evaluation holds
// all of them at once, the memory-hungry representation the compact store
// avoids.
func nodeBytes(rv *eval.RecordView) int64 {
	s := int64(4 + 8 + 8 + 48 + 8) // fields, slice headers, pointer
	s += int64(rv.Value.MemSize())
	for _, m := range rv.Sends {
		s += 4 + int64(m.Val.MemSize())
	}
	for _, m := range rv.Recvs {
		s += 4 + int64(m.Val.MemSize())
	}
	return s
}

// Naive evaluates q the traditional way (paper §6.2 "Naive"): materialize
// the *entire unfolded provenance graph* in memory, then evaluate the query
// over it in one pass. memoryBudget, when positive, bounds the materialized
// bytes (unfolded graph plus evaluation database); exceeding it returns
// ErrNaiveBudget — the paper's "Naive was not able to scale beyond the two
// smallest datasets".
func Naive(q *analysis.Query, store *provenance.Store, g *graph.Graph, memoryBudget int64) (*Result, error) {
	// Phase 1: full materialization of the unfolded provenance graph, every
	// layer read once, into fresh arenas, as views that stay resident, in
	// capture order. An evolution edge needs its predecessor node in the
	// graph; no retention re-supplies a previous value, every value is
	// present anyway.
	var nodes []eval.RecordView
	present := make(map[uint64]bool)
	key := func(v, ss int64) uint64 { return uint64(v)<<32 | uint64(uint32(ss)) }
	var unfoldedBytes int64
	for i := 0; i < store.NumLayers(); i++ {
		var layer provenance.LayerViews
		if err := store.LayerProjected(i, nil, &layer); err != nil {
			return nil, err
		}
		for _, rv := range layer.Records {
			if rv.PrevActive >= 0 && !present[key(rv.Vertex, rv.PrevActive)] {
				rv.PrevActive = -1
			}
			present[key(rv.Vertex, rv.Superstep)] = true
			nodes = append(nodes, rv)
			unfoldedBytes += nodeBytes(&rv)
		}
		if memoryBudget > 0 && unfoldedBytes > memoryBudget {
			return nil, fmt.Errorf("%w: unfolded provenance graph needs %d bytes > budget %d", ErrNaiveBudget, unfoldedBytes, memoryBudget)
		}
	}

	// Phase 2: one bulk evaluation pass over everything, every rule
	// materialised: the EDBs become relations, then the rules run bottom-up.
	db := eval.NewDatabase()
	c, err := compile(q, db, g, true)
	if err != nil {
		return nil, err
	}
	loadStore(c, db, store)
	if err := c.Layer(nodes); err != nil {
		return nil, err
	}
	if memoryBudget > 0 && unfoldedBytes+db.MemSize() > memoryBudget {
		return nil, fmt.Errorf("%w: %d bytes > %d", ErrNaiveBudget, unfoldedBytes+db.MemSize(), memoryBudget)
	}
	return &Result{q: q, db: db, compiled: c, Facts: c.Facts()}, nil
}

// Online is an engine.Observer that evaluates a forward or local query in
// lockstep with the analytic (paper §5.2, Theorem 5.4): each superstep's
// transient provenance is one layer of the compiled query program, and its
// fixpoint runs before the next superstep. At the end of the analytic both
// its result and the query result exist; nothing is captured.
// ObservePartition turns each engine partition's records into record views
// once, on that partition's goroutine, and runs the program's in-partition
// strata over them there — the copy rules of materialised EDBs among them,
// so a shed partition's facts are dropped with its derivations.
// ObserveSuperstep merges the partitions' tuples and, when the program has
// barrier strata, runs them over the views of the partitions not shed, in
// vertex order.
type Online struct {
	q        *analysis.Query
	db       *eval.Database
	compiled *eval.Compiled

	// parts are the partitions' views, created on first use; mu guards the
	// slice. views is the barrier's merge of them, reused across supersteps.
	// live is the merge's scratch.
	mu    sync.Mutex
	parts []*partViews
	views []eval.RecordView
	live  [][]eval.RecordView

	// PiggybackTuples counts derived tuples, the payload that rides along
	// analytic messages in a distributed deployment (DESIGN.md decision 4).
	PiggybackTuples int64

	// perSS holds the per-superstep piggyback deltas (index = superstep) —
	// the paper's per-superstep query-overhead curve rather than a single
	// running total. Checkpointed, so a resumed run stays cumulative.
	perSS []int64

	// metrics/name feed the per-superstep deltas into the shared
	// observability registry under the query's name.
	metrics *obs.Metrics
	name    string

	// shed, when set, sheds online-query piggybacking for degraded
	// partitions: records owned by a shed partition are not fed (their
	// provenance capture was shed too), keeping the online view consistent
	// with what offline evaluation of the degraded store would derive. It is
	// the supervisor's DegradeState.Shed, bound once.
	shed func(p int) bool
	// noted is the DerivedTuples already counted as piggyback (static tuples
	// count towards the first superstep).
	noted int64
}

// NewOnline prepares online evaluation of q over graph g. Only forward and
// local queries qualify (Theorem 5.4 covers exactly these), and only when
// they read no EDB that a captured store alone holds.
func NewOnline(q *analysis.Query, g *graph.Graph, opts ...EvalOpt) (*Online, error) {
	if !q.Class.OnlineEvaluable() {
		return nil, fmt.Errorf("driver: %v queries cannot run online; capture provenance and query offline", q.Class)
	}
	if name := q.StoreEDB(); name != "" {
		return nil, fmt.Errorf("driver: %s is fed only from a captured store, so it cannot be read online; capture provenance and query offline", name)
	}
	db := eval.NewDatabase()
	c, err := compile(q, db, g, resolveEvalConfig(opts).materialised)
	if err != nil {
		return nil, err
	}
	// Static rules run here, before superstep 0 and never on a partition
	// goroutine; an error is reported by the first superstep's
	// ObserveSuperstep, which calls BeginRun again.
	_ = c.BeginRun()
	return &Online{q: q, db: db, compiled: c}, nil
}

// UsesCompiledPath reports whether the query runs as a compiled vertex
// program. It is always true: every query compiles to one program, whose
// refused rules run materialised inside it. It stays because the
// repository's benchmark reads it.
func (o *Online) UsesCompiledPath() bool { return true }

// SetMetrics attaches a metrics registry and the query name used to label
// its piggyback-tuple series. nil disables instrumentation.
func (o *Online) SetMetrics(m *obs.Metrics, name string) {
	o.metrics = m
	o.name = name
}

// SetDegrade attaches the degradation state shared with the supervisor so
// online evaluation sheds piggybacking alongside capture. nil keeps all
// records flowing (DegradeState.Shed is nil-safe).
func (o *Online) SetDegrade(d *supervise.DegradeState) { o.shed = d.Shed }

// PiggybackBySuperstep returns the tuples derived at each superstep
// (index = superstep) — the per-superstep view of PiggybackTuples.
func (o *Online) PiggybackBySuperstep() []int64 {
	return append([]int64(nil), o.perSS...)
}

// notePiggyback accounts the tuples derived while observing superstep ss.
func (o *Online) notePiggyback(ss int, delta int64) {
	for len(o.perSS) <= ss {
		o.perSS = append(o.perSS, 0)
	}
	o.perSS[ss] += delta
	o.PiggybackTuples += delta
	o.metrics.AddPiggyback(o.name, delta)
}

// Reads implements engine.Observer: the record fields of the EDBs the query
// mentions. Only a query over receive_message disables the combiner; one
// over send_message keeps the sends, one over an emitted table the facts.
func (o *Online) Reads() engine.Fields {
	n := needsOf(o.q)
	var f engine.Fields
	if n.recv {
		f |= engine.FieldReceived
	}
	if n.send {
		f |= engine.FieldSent
	}
	if len(n.emitted) > 0 {
		f |= engine.FieldEmitted
	}
	return f
}

// partViews are one partition's record views of the superstep it observed
// last (ss; -1 before the first).
type partViews struct {
	ss    int
	views []eval.RecordView
}

// ObservePartition implements engine.Observer: partition p's records become
// views, on p's goroutine, and the compiled query's in-partition strata
// evaluate them there.
func (o *Online) ObservePartition(p, superstep int, recs []engine.VertexRecord) {
	pv := o.part(p)
	pv.ss, pv.views = superstep, eval.EngineViews(pv.views, recs)
	o.compiled.ObservePartition(p, superstep, pv.views)
}

// part returns partition p's views, creating them (and any below them) on
// first use.
func (o *Online) part(p int) *partViews {
	o.mu.Lock()
	defer o.mu.Unlock()
	for len(o.parts) <= p {
		o.parts = append(o.parts, &partViews{ss: -1})
	}
	return o.parts[p]
}

// ObserveSuperstep implements engine.Observer. The shed check runs here, in
// observer order, so a partition an earlier observer (capture) shed in this
// superstep is dropped too.
func (o *Online) ObserveSuperstep(v *engine.SuperstepView) error {
	c := o.compiled
	if err := c.MergePartitions(v.Superstep, o.shed); err != nil {
		return err
	}
	if c.HasBarrierStrata() {
		if err := c.BarrierLayer(o.barrierViews(v.Superstep)); err != nil {
			return err
		}
	}
	derived := c.DerivedTuples()
	o.notePiggyback(v.Superstep, derived-o.noted)
	o.noted = derived
	return nil
}

// barrierViews merges the views of the partitions that observed superstep
// and are not shed, in vertex order: each partition's are ascending, and a
// vertex belongs to one partition.
func (o *Online) barrierViews(superstep int) []eval.RecordView {
	live, n := o.live[:0], 0
	for p, pv := range o.parts {
		if pv.ss == superstep && (o.shed == nil || !o.shed(p)) {
			live, n = append(live, pv.views), n+len(pv.views)
		}
	}
	o.live = live
	views := slices.Grow(o.views[:0], n)
	for len(views) < n {
		best := -1
		for i, l := range live {
			if len(l) > 0 && (best < 0 || l[0].Vertex < live[best][0].Vertex) {
				best = i
			}
		}
		views = append(views, live[best][0])
		live[best] = live[best][1:]
	}
	o.views = views
	return views
}

// Finish implements engine.Observer. Every superstep's ObserveSuperstep
// leaves the query's relations complete, so there is nothing left to do.
func (o *Online) Finish(int) error { return nil }

// Result returns the query results accumulated so far.
func (o *Online) Result() *Result {
	return &Result{q: o.q, db: o.db, compiled: o.compiled, Facts: o.compiled.Facts()}
}
