package driver

import (
	"fmt"
	"sync"

	"ariadne/internal/engine"
	"ariadne/internal/graph"
	"ariadne/internal/obs"
	"ariadne/internal/pql/analysis"
	"ariadne/internal/pql/eval"
	"ariadne/internal/provenance"
	"ariadne/internal/value"
)

// Offline layered evaluation runs as a VC computation over the captured
// provenance graph, exactly as in the paper (§5.1: "ARIADNE translates
// provenance query evaluation to ordinary vertex programs", §6.2: "the VC
// system only evaluates ARIADNE's query vertex program"). The replay
// program below re-materializes one provenance layer per superstep on the
// BSP engine — activating the layer's nodes and regenerating its message
// structure — while the query evaluator consumes the layer's facts at the
// superstep barrier. This is what makes offline layered evaluation cost a
// full engine pass over the provenance graph on top of reading it back
// from storage, the overhead the paper's Online mode short-circuits.
//
// The layered driver is pipelined: a prefetcher goroutine decodes the
// *next* layer from the store and pre-builds its record views (compiled
// path) or EDB fact batch (materialised path) while the engine replays and
// evaluates the current one. Decode and view/fact construction overlap
// evaluation; only the evaluator's fixpoint stays on the barrier.

// factBatch is one staged EDB fact (materialised path).
type factBatch struct {
	pred string
	t    eval.Tuple
}

// layerStage is one fully prepared provenance layer: decoded, indexed by
// vertex for the replay program, and pre-converted into whatever the
// evaluation path consumes (record views or EDB facts).
type layerStage struct {
	step  int
	layer *provenance.Layer
	index map[graph.VertexID]*provenance.Record

	views     []eval.RecordView // compiled path
	facts     []factBatch       // materialised path
	factCount int64             // cumulative feeder count after this layer

	err error
}

// stageBuilder converts a decoded layer into its evaluation-ready form.
// Both the view builder (value retention) and the feeder (retention +
// dedup state) are stateful, so build must be called in replay-step order
// by a single goroutine — the prefetch producer, or the engine thread
// under the cursor lock on the unpipelined path.
type stageBuilder struct {
	vb *viewBuilder
	f  *feeder
}

func (b *stageBuilder) build(st *layerStage) {
	if b.vb != nil {
		st.views = b.vb.fromProv(st.layer)
		return
	}
	if b.f == nil {
		return
	}
	b.f.sink = func(pred string, t eval.Tuple) {
		st.facts = append(st.facts, factBatch{pred: pred, t: t})
	}
	for ri := range st.layer.Records {
		b.f.feedProvRecord(&st.layer.Records[ri], st.layer.Superstep)
	}
	b.f.sink = nil
	st.factCount = b.f.FactCount
}

// layerSource yields prepared layer stages to the replay program and the
// evaluation observer. Implementations: layerCursor (synchronous, stage
// built on first access) and prefetchCursor (pipelined).
type layerSource interface {
	numLayers() int
	stageAt(step int) (*layerStage, error)
	active(step int) []graph.VertexID
	close()
}

// loadStage decodes and indexes one layer (no evaluation-side prep). The
// projection bounds which payload columns the store materializes; nil means
// all columns.
func loadStage(store *provenance.Store, step, layerIdx int, proj *provenance.LayerProjection) *layerStage {
	l, err := store.LayerProjected(layerIdx, proj)
	if err != nil {
		return &layerStage{step: step, err: err}
	}
	st := &layerStage{step: step, layer: l}
	st.index = make(map[graph.VertexID]*provenance.Record, len(l.Records))
	for i := range l.Records {
		st.index[l.Records[i].Vertex] = &l.Records[i]
	}
	return st
}

// stageActive returns the vertices of the stage's layer. Empty layers
// (possible under selective capture policies) still force a single no-op
// keepalive so the replay proceeds to later layers.
func stageActive(st *layerStage) []graph.VertexID {
	if len(st.layer.Records) == 0 {
		return []graph.VertexID{0}
	}
	out := make([]graph.VertexID, len(st.layer.Records))
	for i := range st.layer.Records {
		out[i] = st.layer.Records[i].Vertex
	}
	return out
}

// replayOrder maps the replay superstep to a store layer index: identity
// for forward/local queries, reversed for backward queries (descending
// layer order, §5.1).
func replayOrder(n int, ascending bool) func(int) int {
	if ascending {
		return func(step int) int { return step }
	}
	return func(step int) int { return n - 1 - step }
}

// layerCursor is the unpipelined layer source: the stage for a step is
// built on first access, under the lock, on the calling goroutine. Past
// layers are dropped — the working memory holds one layer, the point of
// layered evaluation.
type layerCursor struct {
	store   *provenance.Store
	n       int
	order   func(step int) int
	builder *stageBuilder
	proj    *provenance.LayerProjection

	mu  sync.Mutex
	cur *layerStage
	err error
}

func newLayerCursor(store *provenance.Store, ascending bool, b *stageBuilder, proj *provenance.LayerProjection) *layerCursor {
	n := store.NumLayers()
	return &layerCursor{store: store, n: n, order: replayOrder(n, ascending), builder: b, proj: proj}
}

func (c *layerCursor) numLayers() int { return c.n }

func (c *layerCursor) stageAt(step int) (*layerStage, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err != nil {
		return nil, c.err
	}
	if c.cur == nil || c.cur.step != step {
		st := loadStage(c.store, step, c.order(step), c.proj)
		if st.err == nil {
			c.builder.build(st)
		}
		if st.err != nil {
			c.err = st.err
			return nil, c.err
		}
		c.cur = st
	}
	return c.cur, nil
}

func (c *layerCursor) active(step int) []graph.VertexID {
	if step >= c.n {
		return nil
	}
	st, err := c.stageAt(step)
	if err != nil {
		return nil
	}
	return stageActive(st)
}

func (c *layerCursor) close() {}

// prefetchCursor pipelines layer preparation: a single producer goroutine
// — the only caller of store.Layer and the sole owner of the stage
// builder's retention state — decodes layers in replay order and sends
// prepared stages down a buffered channel. With capacity 1 the producer
// keeps roughly two layers in flight (one buffered, one being built)
// while the engine consumes the current one: bounded lookahead, bounded
// memory.
type prefetchCursor struct {
	n       int
	stages  chan *layerStage
	done    chan struct{}
	stop    sync.Once
	metrics *obs.Metrics

	mu  sync.Mutex
	cur *layerStage
	err error
}

func newPrefetchCursor(store *provenance.Store, ascending bool, b *stageBuilder, m *obs.Metrics, proj *provenance.LayerProjection) *prefetchCursor {
	n := store.NumLayers()
	pc := &prefetchCursor{
		n:       n,
		stages:  make(chan *layerStage, 1),
		done:    make(chan struct{}),
		metrics: m,
	}
	order := replayOrder(n, ascending)
	go func() {
		defer close(pc.stages)
		for step := 0; step < n; step++ {
			st := loadStage(store, step, order(step), proj)
			if st.err == nil {
				b.build(st)
			}
			select {
			case pc.stages <- st:
			case <-pc.done:
				return
			}
			if st.err != nil {
				return
			}
		}
	}()
	return pc
}

func (c *prefetchCursor) numLayers() int { return c.n }

func (c *prefetchCursor) stageAt(step int) (*layerStage, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err != nil {
		return nil, c.err
	}
	if c.cur != nil && c.cur.step == step {
		return c.cur, nil
	}
	for {
		var st *layerStage
		var ok bool
		select {
		case st, ok = <-c.stages:
			if ok {
				c.metrics.Counter("eval_prefetch_hits_total").Add(1)
			}
		default:
			c.metrics.Counter("eval_prefetch_misses_total").Add(1)
			st, ok = <-c.stages
		}
		if !ok {
			c.err = fmt.Errorf("driver: layer prefetcher exhausted before step %d", step)
			return nil, c.err
		}
		if st.err != nil {
			c.err = st.err
			return nil, c.err
		}
		if st.step == step {
			c.cur = st
			return st, nil
		}
		if st.step > step {
			c.err = fmt.Errorf("driver: layer prefetch out of order: got step %d, want %d", st.step, step)
			return nil, c.err
		}
		// st.step < step: the consumer skipped a stage (cannot happen with
		// the engine driving steps monotonically, but draining is safe).
	}
}

func (c *prefetchCursor) active(step int) []graph.VertexID {
	if step >= c.n {
		return nil
	}
	st, err := c.stageAt(step)
	if err != nil {
		return nil
	}
	return stageActive(st)
}

func (c *prefetchCursor) close() {
	c.stop.Do(func() { close(c.done) })
	// Drain so the producer's pending send never leaks the goroutine.
	for range c.stages {
	}
}

// replayProg is the "query vertex program": at each superstep, a vertex
// that appears in the current provenance layer regenerates its captured
// message structure (token payloads — the values live in the evaluator).
type replayProg struct {
	src layerSource
}

func (p *replayProg) InitialValue(*graph.Graph, engine.VertexID) value.Value {
	return value.NullValue
}

func (p *replayProg) Compute(ctx *engine.Context, _ []engine.IncomingMessage) error {
	if ctx.Superstep() >= p.src.numLayers() {
		return nil
	}
	st, err := p.src.stageAt(ctx.Superstep())
	if err != nil {
		return err
	}
	rec := st.index[ctx.ID()]
	if rec == nil {
		return nil
	}
	switch {
	case len(rec.Sends) > 0:
		for _, m := range rec.Sends {
			ctx.SendMessage(m.Peer, value.NullValue)
		}
	case rec.SentAny:
		// Send flags without per-edge tuples (Query 11 capture): the
		// message structure is the static out-edges (paper §6.3).
		ctx.SendToAllNeighbors(value.NullValue)
	}
	return nil
}

// replayEvalObserver evaluates each replayed layer at the superstep
// barrier. The stage arrives pre-built (views or fact batch); the barrier
// only ingests and runs the fixpoint.
type replayEvalObserver struct {
	src layerSource

	compiled *eval.Compiled
	ev       *eval.Evaluator

	facts int64
}

func (o *replayEvalObserver) NeedsRawMessages() bool { return false }

func (o *replayEvalObserver) ObserveSuperstep(v *engine.SuperstepView) error {
	if v.Superstep >= o.src.numLayers() {
		return nil
	}
	st, err := o.src.stageAt(v.Superstep)
	if err != nil {
		return err
	}
	if o.compiled != nil {
		o.facts += int64(len(st.views))
		return o.compiled.Layer(st.views)
	}
	for i := range st.facts {
		o.ev.AddFact(st.facts[i].pred, st.facts[i].t)
	}
	o.facts = st.factCount
	return o.ev.Fixpoint()
}

func (o *replayEvalObserver) Finish(int) error { return nil }

// Layered evaluates q one provenance layer at a time (paper §5.1), in
// ascending superstep order for forward/local queries and descending order
// for backward queries, as a VC computation over the provenance graph.
// Mixed queries are rejected (Def. 5.2). Options tune the evaluation
// pipeline: EvalWorkers enables shard-parallel delta rounds on the
// materialised path and NoPrefetch disables the layer prefetcher.
func Layered(q *analysis.Query, store *provenance.Store, g *graph.Graph, opts ...EvalOpt) (*Result, error) {
	if !q.Class.LayeredEvaluable() {
		return nil, fmt.Errorf("driver: %v queries cannot be evaluated layered; use naive mode", q.Class)
	}
	cfg := resolveEvalConfig(opts)
	db := eval.NewDatabase()
	ascending := q.Class != analysis.Backward
	obs := &replayEvalObserver{}
	res := &Result{q: q, db: db}
	builder := &stageBuilder{}
	if c, ok := tryCompile(q, db, g, cfg); ok {
		obs.compiled = c
		builder.vb = newViewBuilder()
	} else {
		ev, err := eval.NewEvaluator(q, db)
		if err != nil {
			return nil, err
		}
		ev.SetWorkers(cfg.workers)
		obs.ev = ev
		f := newFeeder(ev, g, q, ascending)
		f.prov = store
		f.feedStatic() // sink unset: static facts go straight to the evaluator
		builder.f = f
		res.ev = ev
	}
	if store.NumLayers() == 0 {
		return res, nil
	}
	// Projection pushdown: ask the store for only the payload columns this
	// query's evaluation path can observe (v2 columnar layers skip the rest
	// on disk). NoProjection pins the full-width reference leg.
	var proj *provenance.LayerProjection
	if !cfg.noProjection {
		proj = projectionFor(q, obs.compiled != nil)
	}
	var src layerSource
	if cfg.noPrefetch {
		src = newLayerCursor(store, ascending, builder, proj)
	} else {
		src = newPrefetchCursor(store, ascending, builder, cfg.metrics, proj)
	}
	defer src.close()
	obs.src = src
	e, err := engine.New(g, &replayProg{src: src}, engine.Config{
		MaxSupersteps: src.numLayers(),
		ActiveAt:      src.active,
		Observers:     []engine.Observer{obs},
	})
	if err != nil {
		return nil, err
	}
	if _, err := e.Run(); err != nil {
		return nil, err
	}
	if obs.compiled != nil {
		if err := obs.compiled.FinishRun(); err != nil {
			return nil, err
		}
	}
	res.Facts = obs.facts
	mirrorEvalStats(cfg.metrics, "layered", res.EvalStats())
	return res, nil
}
