package driver

import (
	"testing"

	"ariadne/internal/engine"
	"ariadne/internal/gen"
	"ariadne/internal/graph"
	"ariadne/internal/queries"
	"ariadne/internal/value"
)

// vecProg is an ALS-stand-in: vertex state is a dense factor vector and
// every superstep exchanges full vectors with the neighbors. Its provenance
// is dominated by the vector payloads (the paper's §6.1 observation — ALS
// provenance for one superstep exceeded 80GB), which is exactly the shape
// where a query that never reads values or message payloads profits from
// projection pushdown.
type vecProg struct {
	dim   int
	steps int
}

func (p vecProg) InitialValue(_ *graph.Graph, id engine.VertexID) value.Value {
	v := make([]float64, p.dim)
	for i := range v {
		v[i] = float64(id) + float64(i)*0.25
	}
	return value.NewVector(v)
}

func (p vecProg) Compute(ctx *engine.Context, msgs []engine.IncomingMessage) error {
	if ctx.Superstep() >= p.steps {
		return nil
	}
	v := append([]float64(nil), ctx.Value().Vec()...)
	for _, m := range msgs {
		mv := m.Val.Vec()
		for i := range v {
			if i < len(mv) {
				v[i] = 0.5*v[i] + 0.5*mv[i]
			}
		}
	}
	val := value.NewVector(v)
	ctx.SetValue(val)
	dst, _ := ctx.OutNeighbors()
	for _, d := range dst {
		ctx.SendMessage(d, val)
	}
	return nil
}

// BenchmarkLayeredReplay measures projection pushdown on the layered
// driver: a v2-spilled vector-valued capture replayed for Query 4 — which
// reads receive_message peers and edges but never vertex values or message
// payloads — with projection on versus off. The projected leg decodes only
// the core + receive-peer columns from each layer file; the unprojected leg
// pays the full-width decode of every factor vector it will never look at.
// Both legs run the compiled evaluation path. benchjson derives
// layered_replay_facts_s from the projected/unprojected facts/s ratio.
func BenchmarkLayeredReplay(b *testing.B) {
	g, err := gen.RMAT(gen.DefaultRMAT(9, 6, 7))
	if err != nil {
		b.Fatal(err)
	}
	prog := vecProg{dim: 32, steps: 8}
	store := spilledCapture(b, g, prog, prog.steps+1)

	def := queries.PageRankCheck()
	run := func(b *testing.B, opts ...EvalOpt) {
		b.ReportAllocs()
		var facts int64
		for i := 0; i < b.N; i++ {
			q, err := def.Build()
			if err != nil {
				b.Fatal(err)
			}
			res, err := Layered(q, store, g, opts...)
			if err != nil {
				b.Fatal(err)
			}
			facts = res.Facts
		}
		b.ReportMetric(float64(facts)*float64(b.N)/b.Elapsed().Seconds(), "facts/s")
	}
	b.Run("projected", func(b *testing.B) { run(b) })
	b.Run("unprojected", func(b *testing.B) { run(b, NoProjection()) })
}
