package analytics

import (
	"fmt"
	"math"

	"ariadne/internal/engine"
	"ariadne/internal/graph"
	"ariadne/internal/linalg"
	"ariadne/internal/value"
)

// ALS implements the Alternating Least Squares recommender on a bipartite
// ratings graph (paper §6: ML-20 with 5-15 features). Vertices hold feature
// vectors; an edge weight is the observed rating. At every superstep only
// one side of the bipartite graph computes (§6, "the algorithm optimizes
// the error function by fixing one set of variables and solving for the
// other"): items broadcast their vectors at superstep 0, users solve and
// broadcast at superstep 1, items at superstep 2, and so on. The
// alternation emerges from message-driven activation.
//
// While computing, each vertex publishes the per-edge prediction and error
// as auxiliary provenance facts (tables prov_prediction(x,y,p,i) and
// prov_error(x,y,e,i)), which paper Queries 7 and 8 consume.
type ALS struct {
	// NumUsers splits the vertex space: IDs < NumUsers are users.
	NumUsers int
	// Features is the latent factor count k (paper: 5, 10, 15).
	Features int
	// Lambda is the ridge regularization weight; 0 means 0.05.
	Lambda float64
	// Tol stops the run when the RMSE improves by less than this between
	// item rounds; 0 means 1e-3 ("ALS converges when the error reaches an
	// acceptable threshold").
	Tol float64
	// Seed perturbs the deterministic vector initialization.
	Seed int64

	prevRMSE float64 // mutated only at the superstep barrier (ShouldHalt)
}

func (a *ALS) lambda() float64 {
	if a.Lambda == 0 {
		return 0.05
	}
	return a.Lambda
}

func (a *ALS) tol() float64 {
	if a.Tol == 0 {
		return 1e-3
	}
	return a.Tol
}

// Validate checks the configuration.
func (a *ALS) Validate() error {
	if a.Features <= 0 {
		return fmt.Errorf("analytics: ALS needs Features > 0")
	}
	if a.NumUsers <= 0 {
		return fmt.Errorf("analytics: ALS needs NumUsers > 0")
	}
	return nil
}

func (a *ALS) isUser(v engine.VertexID) bool { return int(v) < a.NumUsers }

// InitialValue implements engine.Program: a deterministic pseudo-random
// vector in [0.1, 1.1)^k seeded by the vertex ID.
func (a *ALS) InitialValue(_ *graph.Graph, v engine.VertexID) value.Value {
	vec := make([]float64, a.Features)
	state := uint64(v)*2654435761 + uint64(a.Seed) + 1
	for i := range vec {
		state = state*6364136223846793005 + 1442695040888963407
		vec[i] = 0.1 + float64(state>>11)/float64(1<<53)
	}
	return value.NewVector(vec)
}

// Compute implements engine.Program.
func (a *ALS) Compute(ctx *engine.Context, msgs []engine.IncomingMessage) error {
	if ctx.Superstep() == 0 {
		// Items broadcast; users wait for item vectors.
		if !a.isUser(ctx.ID()) {
			ctx.SendToAllNeighbors(ctx.Value())
		}
		return nil
	}
	if len(msgs) == 0 {
		return nil
	}
	k := a.Features
	// Solve the ridge normal equations (Σ q qᵀ + λ n I) x = Σ r q over the
	// neighbor vectors received, with r the edge-weight rating. The inbox
	// arrives in ascending sender order, so each pass over it walks one
	// cursor along the vertex's sorted out-edge row (graph.Seek) to find the
	// ratings EdgeWeight would.
	A := linalg.NewSym(k)
	b := make([]float64, k)
	dst, ws := ctx.Graph().OutNeighbors(ctx.ID())
	at, n := 0, 0
	for _, m := range msgs {
		q := m.Val.Vec()
		if len(q) != k {
			return fmt.Errorf("ALS: message vector length %d, want %d", len(q), k)
		}
		at, _ = graph.Seek(dst, at, m.Src)
		if at == len(dst) || dst[at] != m.Src {
			return fmt.Errorf("ALS: message from non-neighbor %d", m.Src)
		}
		r := ws[at]
		A.AddOuter(q, 1)
		linalg.AXPY(r, q, b)
		n++
	}
	A.AddRidge(a.lambda() * float64(n))
	x, err := A.SolveSPD(b)
	if err != nil {
		return fmt.Errorf("ALS: solving normal equations at vertex %d: %w", ctx.ID(), err)
	}
	ctx.SetValue(value.NewVector(x))

	// Publish per-edge prediction/error provenance and aggregate the global
	// squared error for convergence.
	at = 0
	for _, m := range msgs {
		q := m.Val.Vec()
		at, _ = graph.Seek(dst, at, m.Src)
		r := ws[at]
		p := linalg.Dot(x, q)
		e := r - p
		ctx.AggregateFloat("als_sq_error", engine.AggSum, e*e)
		ctx.AggregateFloat("als_ratings", engine.AggCount, 1)
		if ctx.Observing() {
			ctx.EmitProv("prov_prediction", value.NewInt(int64(m.Src)), value.NewFloat(p))
			ctx.EmitProv("prov_error", value.NewInt(int64(m.Src)), value.NewFloat(e))
		}
	}
	ctx.SendToAllNeighbors(ctx.Value())
	return nil
}

// ShouldHalt implements engine.Halter: stop when the RMSE improvement
// between rounds drops below Tol.
func (a *ALS) ShouldHalt(agg engine.AggregatorReader, superstep int) bool {
	if superstep < 2 {
		return false
	}
	sq, ok1 := agg.Float("als_sq_error")
	cnt, ok2 := agg.Float("als_ratings")
	if !ok1 || !ok2 || cnt == 0 {
		return false
	}
	rmse := math.Sqrt(sq / cnt)
	defer func() { a.prevRMSE = rmse }()
	return a.prevRMSE != 0 && math.Abs(a.prevRMSE-rmse) < a.tol()
}

// RMSE returns the root-mean-square rating error from the last superstep's
// aggregators, or NaN if unavailable.
func RMSE(agg engine.AggregatorReader) float64 {
	sq, ok1 := agg.Float("als_sq_error")
	cnt, ok2 := agg.Float("als_ratings")
	if !ok1 || !ok2 || cnt == 0 {
		return math.NaN()
	}
	return math.Sqrt(sq / cnt)
}
