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
	c, err := compile(q, db, g, cfg.materialised)
	if err != nil {
		return nil, err
	}
	loadStore(c, db, store)
	// Projection pushdown: ask the store for only the payload columns the
	// program can observe (columnar layers skip the rest on disk).
	// NoProjection pins the full-width reference leg.
	var proj *provenance.LayerProjection
	if !cfg.noProjection {
		proj = projectionFor(q, c)
	}
	ascending := q.Class != analysis.Backward
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
		if err := c.Layer(vb.fromProv(l)); err != nil {
			return nil, err
		}
	}
	return &Result{q: q, db: db, compiled: c, Facts: c.Facts()}, nil
}
