package driver

import (
	"errors"
	"fmt"

	"ariadne/internal/engine"
	"ariadne/internal/graph"
	"ariadne/internal/obs"
	"ariadne/internal/pql/analysis"
	"ariadne/internal/pql/eval"
	"ariadne/internal/provenance"
	"ariadne/internal/supervise"
	"ariadne/internal/value"
)

// Result exposes the outcome of a query evaluation.
type Result struct {
	q        *analysis.Query
	db       *eval.Database
	ev       *eval.Evaluator
	compiled *eval.Compiled
	Facts    int64 // EDB facts fed
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

// EvalStats returns Datalog work counters (zero when the query ran on the
// compiled vertex-program path, which feeds no evaluator).
func (r *Result) EvalStats() eval.Stats {
	if r.ev == nil {
		return eval.Stats{}
	}
	return r.ev.Stats()
}

// CompiledStats returns the compiled vertex program's work counters (zero
// when the query ran on the materialised evaluator).
func (r *Result) CompiledStats() eval.CompiledStats {
	if r.compiled == nil {
		return eval.CompiledStats{}
	}
	return r.compiled.Stats()
}

// DBBytes estimates the evaluation database size, the memory the naive mode
// must hold at once.
func (r *Result) DBBytes() int64 { return r.db.MemSize() }

// ErrNaiveBudget reports that naive evaluation would exceed its memory
// budget — reproducing the paper's "Naive was not able to scale beyond the
// two smallest datasets" outcome deterministically.
var ErrNaiveBudget = errors.New("driver: naive evaluation exceeds the memory budget (use layered or online mode)")

// unfoldedNode is one node of the *unfolded* provenance graph (paper §3):
// a (vertex, superstep) instantiation object with its message edges (or,
// under a capture that keeps only send flags, the flag) and an evolution
// pointer. Naive evaluation materializes all of them at once — the
// memory-hungry representation the compact store avoids.
type unfoldedNode struct {
	vertex    graph.VertexID
	superstep int
	val       value.Value
	sends     []provenance.MsgHalf
	recvs     []provenance.MsgHalf
	sentAny   bool
	evolution *unfoldedNode
}

func (n *unfoldedNode) memSize() int64 {
	s := int64(4 + 8 + 8 + 48 + 8) // fields, slice headers, pointer
	s += int64(n.val.MemSize())
	for _, m := range n.sends {
		s += 4 + int64(m.Val.MemSize())
	}
	for _, m := range n.recvs {
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
	// Phase 1: full materialization of the unfolded provenance graph. The
	// map resolves evolution pointers; the slice keeps the nodes in capture
	// order, so the facts (and the relations' insertion order) are fed
	// deterministically.
	nodes := make(map[uint64]*unfoldedNode)
	var order []*unfoldedNode
	key := func(v graph.VertexID, ss int) uint64 { return uint64(v)<<32 | uint64(uint32(ss)) }
	var unfoldedBytes int64
	for i := 0; i < store.NumLayers(); i++ {
		l, err := store.Layer(i)
		if err != nil {
			return nil, err
		}
		for ri := range l.Records {
			r := &l.Records[ri]
			n := &unfoldedNode{
				vertex: r.Vertex, superstep: l.Superstep, val: r.Value,
				sends: r.Sends, recvs: r.Recvs, sentAny: r.SentAny || len(r.Sends) > 0,
			}
			if r.PrevActive >= 0 {
				n.evolution = nodes[key(r.Vertex, int(r.PrevActive))]
			}
			nodes[key(r.Vertex, l.Superstep)] = n
			order = append(order, n)
			unfoldedBytes += n.memSize()
		}
		if memoryBudget > 0 && unfoldedBytes > memoryBudget {
			return nil, fmt.Errorf("%w: unfolded provenance graph needs %d bytes > budget %d", ErrNaiveBudget, unfoldedBytes, memoryBudget)
		}
	}

	// Phase 2: one bulk evaluation pass over everything.
	db := eval.NewDatabase()
	ev, err := eval.NewEvaluator(q, db)
	if err != nil {
		return nil, err
	}
	f := newFeeder(ev, g, q, false)
	f.prov = store
	f.feedStatic()
	for _, n := range order {
		rec := record{
			vertex:     n.vertex,
			superstep:  n.superstep,
			prevActive: -1,
			hasValue:   !n.val.IsNull(),
			value:      n.val,
			sends:      n.sends,
			recvs:      n.recvs,
			sentAny:    n.sentAny,
		}
		if n.evolution != nil {
			rec.prevActive = n.evolution.superstep
		}
		f.feedRecord(&rec)
	}
	// Emitted analytics facts are not part of the unfolded node shape; feed
	// them from the layers directly.
	if len(needsOf(q).emitted) > 0 {
		for i := 0; i < store.NumLayers(); i++ {
			l, err := store.Layer(i)
			if err != nil {
				return nil, err
			}
			for ri := range l.Records {
				r := &l.Records[ri]
				if len(r.Emitted) == 0 {
					continue
				}
				rec := record{vertex: r.Vertex, superstep: l.Superstep, prevActive: -1, emitted: r.Emitted}
				f.feedRecord(&rec)
			}
		}
	}
	if err := ev.Fixpoint(); err != nil {
		return nil, err
	}
	if memoryBudget > 0 && unfoldedBytes+db.MemSize() > memoryBudget {
		return nil, fmt.Errorf("%w: %d bytes > %d", ErrNaiveBudget, unfoldedBytes+db.MemSize(), memoryBudget)
	}
	// The unfolded graph must stay resident throughout evaluation; keep it
	// alive until here.
	_ = nodes
	return &Result{q: q, db: db, ev: ev, Facts: f.FactCount}, nil
}

// Online is an engine.Observer that evaluates a forward or local query in
// lockstep with the analytic (paper §5.2, Theorem 5.4): each superstep's
// transient provenance is fed as a delta batch and the query fixpoint runs
// before the next superstep. At the end of the analytic both its result and
// the query result exist; nothing is captured. On the compiled path the
// in-partition strata run in ObservePartition, on each engine partition's
// goroutine, and ObserveSuperstep merges their tuples and runs the barrier
// strata.
type Online struct {
	q  *analysis.Query
	db *eval.Database

	// Compiled path (the paper's "query vertex program"): rules evaluate
	// directly against the transient records, no EDB materialization.
	compiled *eval.Compiled
	views    []eval.RecordView // barrier strata's views, reused across supersteps

	// Materialised path (aggregates, EDBs that are not record-local).
	ev *eval.Evaluator
	f  *feeder

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

	// deg, when set, sheds online-query piggybacking for degraded
	// partitions: records owned by a shed partition are not fed (their
	// provenance capture was shed too), keeping the online view consistent
	// with what offline evaluation of the degraded store would derive.
	deg *supervise.DegradeState
	// shed is deg.Shed, bound once (nil without deg).
	shed func(p int) bool
	// noted is the compiled path's DerivedTuples already counted as
	// piggyback (static tuples count towards the first superstep).
	noted int64
}

// NewOnline prepares online evaluation of q over graph g. Only forward and
// local queries qualify (Theorem 5.4 covers exactly these).
func NewOnline(q *analysis.Query, g *graph.Graph, opts ...EvalOpt) (*Online, error) {
	if !q.Class.OnlineEvaluable() {
		return nil, fmt.Errorf("driver: %v queries cannot run online; capture provenance and query offline", q.Class)
	}
	cfg := resolveEvalConfig(opts)
	db := eval.NewDatabase()
	o := &Online{q: q, db: db}
	if c, ok := tryCompile(q, db, g, cfg); ok {
		o.compiled = c
		// Static rules run here, before superstep 0 and never on a partition
		// goroutine; an error is reported by the first superstep's
		// ObserveSuperstep, which calls BeginRun again.
		_ = c.BeginRun()
		return o, nil
	}
	ev, err := eval.NewEvaluator(q, db)
	if err != nil {
		return nil, err
	}
	o.ev = ev
	o.f = newFeeder(ev, g, q, true)
	o.f.feedStatic()
	return o, nil
}

// UsesCompiledPath reports whether the query runs as a compiled vertex
// program (vs the materialised Datalog evaluator).
func (o *Online) UsesCompiledPath() bool { return o.compiled != nil }

// SetMetrics attaches a metrics registry and the query name used to label
// its piggyback-tuple series. nil disables instrumentation.
func (o *Online) SetMetrics(m *obs.Metrics, name string) {
	o.metrics = m
	o.name = name
}

// SetDegrade attaches the degradation state shared with the supervisor so
// online evaluation sheds piggybacking alongside capture. nil keeps all
// records flowing.
func (o *Online) SetDegrade(d *supervise.DegradeState) {
	o.deg, o.shed = d, nil
	if d != nil {
		o.shed = d.Shed
	}
}

// shedRecords returns v's records with those of shed partitions removed.
// The common case (no degradation) returns the original slice untouched.
func (o *Online) shedRecords(v *engine.SuperstepView) []engine.VertexRecord {
	recs := v.Records()
	if o.deg == nil || !o.deg.AnyShed() {
		return recs
	}
	if o.deg.Shed(-1) {
		return nil
	}
	out := make([]engine.VertexRecord, 0, len(recs))
	for i := range recs {
		if o.deg.Shed(v.Engine.PartitionOf(recs[i].ID)) {
			continue
		}
		out = append(out, recs[i])
	}
	return out
}

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

// NeedsRawMessages implements engine.Observer: online evaluation needs
// per-message receive tuples whenever the query mentions them.
func (o *Online) NeedsRawMessages() bool {
	n := needsOf(o.q)
	return n.recv || n.send
}

// ObservePartition implements engine.Observer: the compiled query's
// in-partition strata evaluate partition p's records on p's goroutine.
func (o *Online) ObservePartition(p, superstep int, recs []engine.VertexRecord) {
	if o.compiled != nil {
		o.compiled.ObservePartition(p, superstep, recs)
	}
}

// ObserveSuperstep implements engine.Observer. The shed check runs here, in
// observer order, so a partition an earlier observer (capture) shed in this
// superstep is dropped too.
func (o *Online) ObserveSuperstep(v *engine.SuperstepView) error {
	if o.compiled != nil {
		if err := o.observeCompiled(v); err != nil {
			return err
		}
		derived := o.compiled.DerivedTuples()
		o.notePiggyback(v.Superstep, derived-o.noted)
		o.noted = derived
		return nil
	}
	recs := o.shedRecords(v)
	for i := range recs {
		o.f.feedEngineRecord(&recs[i])
	}
	before := o.ev.Stats().Derivations
	if err := o.ev.Fixpoint(); err != nil {
		return err
	}
	o.notePiggyback(v.Superstep, o.ev.Stats().Derivations-before)
	return nil
}

// observeCompiled merges the partitions' in-partition strata, then runs the
// barrier strata over the superstep's records. A superstep no partition
// observed (a caller that drives ObserveSuperstep alone) is evaluated whole.
func (o *Online) observeCompiled(v *engine.SuperstepView) error {
	c := o.compiled
	merged, err := c.MergePartitions(v.Superstep, o.shed)
	if err != nil || merged && !c.HasBarrierStrata() {
		return err
	}
	o.views = eval.EngineViews(o.views, o.shedRecords(v))
	if merged {
		return c.BarrierLayer(o.views)
	}
	return c.Layer(o.views)
}

// Finish implements engine.Observer: the compiled path completes its
// global rules over the final relations.
func (o *Online) Finish(int) error {
	if o.compiled != nil {
		return o.compiled.FinishRun()
	}
	return nil
}

// Result returns the query results accumulated so far.
func (o *Online) Result() *Result {
	if o.compiled != nil {
		return &Result{q: o.q, db: o.db, compiled: o.compiled, Facts: o.compiled.Records()}
	}
	return &Result{q: o.q, db: o.db, ev: o.ev, Facts: o.f.FactCount}
}
