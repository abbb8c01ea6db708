package analytics

import (
	"fmt"

	"ariadne/internal/engine"
	"ariadne/internal/graph"
	"ariadne/internal/value"
)

// DiffFunc measures how much a vertex value changed — the paper's udf-diff
// parameter of the apt query (§2.2, §6.2.2). value.AbsDiff fits scalar
// analytics (PageRank, SSSP, WCC); value.EuclideanDist fits ALS.
type DiffFunc func(old, new value.Value) (float64, error)

// Approximate wraps a vertex program with the approximate optimization the
// apt query evaluates: after the inner Compute runs, if the vertex's value
// changed by less than Epsilon the queued outgoing messages are discarded,
// so downstream vertices may skip execution entirely. This trades accuracy
// for speed (paper §2.2: "only message neighbors on large updates").
type Approximate struct {
	Inner   engine.Program
	Diff    DiffFunc
	Epsilon float64
}

// NewApproximate wraps inner with the message-suppression optimization.
func NewApproximate(inner engine.Program, diff DiffFunc, epsilon float64) (*Approximate, error) {
	if inner == nil || diff == nil {
		return nil, fmt.Errorf("analytics: Approximate needs a program and a diff function")
	}
	if epsilon < 0 {
		return nil, fmt.Errorf("analytics: negative epsilon %v", epsilon)
	}
	return &Approximate{Inner: inner, Diff: diff, Epsilon: epsilon}, nil
}

// InitialValue implements engine.Program.
func (a *Approximate) InitialValue(g *graph.Graph, v engine.VertexID) value.Value {
	return a.Inner.InitialValue(g, v)
}

// Compute implements engine.Program.
func (a *Approximate) Compute(ctx *engine.Context, msgs []engine.IncomingMessage) error {
	old := ctx.Value()
	if err := a.Inner.Compute(ctx, msgs); err != nil {
		return err
	}
	// Superstep 0 always propagates: suppressing the seeding wave would
	// stall algorithms whose initial values haven't moved yet.
	if ctx.Superstep() == 0 {
		return nil
	}
	d, err := a.Diff(old, ctx.Value())
	if err != nil {
		// Incomparable transitions (e.g. infinity initial distances) count
		// as large updates: never suppress them.
		return nil
	}
	// "Differ less than a threshold" (paper §4.2) is inclusive here: with
	// WCC's ε=1, a label delta of exactly 1 counts as a small update, which
	// is what makes the paper's WCC optimization unsafe (§6.2.2, error 0.9).
	if d <= a.Epsilon {
		ctx.DiscardSentMessages()
	}
	return nil
}

// ShouldHalt forwards to the inner program's Halter, if any.
func (a *Approximate) ShouldHalt(agg engine.AggregatorReader, superstep int) bool {
	if h, ok := a.Inner.(engine.Halter); ok {
		return h.ShouldHalt(agg, superstep)
	}
	return false
}

// AbsDiff adapts value.AbsDiff to a DiffFunc.
func AbsDiff(old, new value.Value) (float64, error) { return value.AbsDiff(old, new) }
