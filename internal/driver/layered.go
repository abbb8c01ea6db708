package driver

import (
	"fmt"

	"ariadne/internal/graph"
	"ariadne/internal/pql/analysis"
	"ariadne/internal/pql/eval"
	"ariadne/internal/provenance"
)

// Layered evaluates q one provenance layer at a time (paper §5.1): each
// layer is read from the store once — ascending superstep order for forward
// and local queries, descending for backward queries — and evaluated before
// the next is read, so working memory holds one layer plus the query's
// relations and the evaluation takes n passes for n layers (Lemma 5.3).
// Mixed queries are rejected (Def. 5.2).
func Layered(q *analysis.Query, store *provenance.Store, g *graph.Graph, opts ...EvalOpt) (*Result, error) {
	if !q.Class.LayeredEvaluable() {
		return nil, fmt.Errorf("driver: %v queries cannot be evaluated layered; use naive mode", q.Class)
	}
	cfg := resolveEvalConfig(opts)
	db := eval.NewDatabase()
	ascending := q.Class != analysis.Backward
	res := &Result{q: q, db: db}
	// evalLayer evaluates one layer's views on the query's path.
	var evalLayer func([]eval.RecordView) error
	var f *feeder
	compiled, isCompiled := tryCompile(q, db, g, cfg)
	if isCompiled {
		res.compiled = compiled
		evalLayer = compiled.Layer
	} else {
		ev, err := eval.NewEvaluator(q, db)
		if err != nil {
			return nil, err
		}
		f = newFeeder(ev, g, q)
		f.prov = store
		f.feedStatic()
		res.ev = ev
		evalLayer = f.layer
	}
	// Projection pushdown: ask the store for only the payload columns this
	// query's evaluation path can observe (columnar layers skip the rest
	// on disk). NoProjection pins the full-width reference leg.
	var proj *provenance.LayerProjection
	if !cfg.noProjection {
		proj = projectionFor(q, isCompiled)
	}
	vb := newViewBuilder(ascending)
	n := store.NumLayers()
	for i := 0; i < n; i++ {
		idx := i
		if !ascending {
			idx = n - 1 - i
		}
		l, err := store.LayerProjected(idx, proj)
		if err != nil {
			return nil, err
		}
		if err := evalLayer(vb.fromProv(l)); err != nil {
			return nil, err
		}
	}
	if isCompiled {
		res.Facts = compiled.Records()
	} else {
		res.Facts = f.FactCount
	}
	return res, nil
}
