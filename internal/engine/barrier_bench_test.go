package engine

import (
	"fmt"
	"math/rand"
	"testing"

	"ariadne/internal/graph"
	"ariadne/internal/obs"
	"ariadne/internal/value"
)

// floodProg is a deliberately message-dominated program: every vertex sums
// its inbox and re-broadcasts to all out-neighbors every superstep. Compute
// is a few float adds, so the run time is the barrier — exactly the phase
// BenchmarkBarrier isolates.
type floodProg struct{}

func (floodProg) InitialValue(_ *graph.Graph, v VertexID) value.Value {
	return value.NewFloat(float64(v%7) + 1)
}

func (floodProg) Compute(ctx *Context, msgs []IncomingMessage) error {
	sum := ctx.Value().Float()
	for _, m := range msgs {
		sum += m.Val.Float()
	}
	ctx.SetValue(value.NewFloat(sum))
	ctx.SendToAllNeighbors(value.NewFloat(sum * 0.25))
	return nil
}

func benchGraph(b *testing.B, n, deg int) *graph.Graph {
	b.Helper()
	rng := rand.New(rand.NewSource(42))
	edges := make([]graph.Edge, 0, n*deg)
	for v := 0; v < n; v++ {
		for d := 0; d < deg; d++ {
			edges = append(edges, graph.Edge{
				Src: VertexID(v), Dst: VertexID(rng.Intn(n)), Weight: 1,
			})
		}
	}
	g, err := graph.NewFromEdges(n, edges)
	if err != nil {
		b.Fatal(err)
	}
	return g
}

// BenchmarkBarrier runs the barrier at 8 partitions on one goroutine
// (sequential) and on one per destination partition (parallel), with and
// without a combiner. Both legs run the same inbox.build, so the
// parallel/sequential barrier-phase ratio archived by `make bench-micro`
// measures only what the fan-out costs — it is hardware-independent, unlike
// absolute ns/op. barrier-ns/msg and allocs/op are reported per leg.
func BenchmarkBarrier(b *testing.B) {
	const (
		nVertices  = 10000
		degree     = 8
		partitions = 8
		supersteps = 8
	)
	g := benchGraph(b, nVertices, degree)
	sum := func(a, v value.Value) value.Value {
		return value.NewFloat(a.Float() + v.Float())
	}
	for _, mode := range []struct {
		name string
		seq  bool
	}{{"sequential", true}, {"parallel", false}} {
		for _, comb := range []struct {
			name string
			fn   func(a, v value.Value) value.Value
		}{{"nocombine", nil}, {"combine", sum}} {
			b.Run(fmt.Sprintf("%s/%s", mode.name, comb.name), func(b *testing.B) {
				b.ReportAllocs()
				var sent, barrierNS int64
				for i := 0; i < b.N; i++ {
					m := obs.New()
					e, err := New(g, floodProg{}, Config{
						Partitions:        partitions,
						MaxSupersteps:     supersteps,
						Combiner:          comb.fn,
						SequentialBarrier: mode.seq,
						Metrics:           m,
					})
					if err != nil {
						b.Fatal(err)
					}
					stats, err := e.Run()
					if err != nil {
						b.Fatal(err)
					}
					sent = stats.MessagesSent
					for _, p := range m.Profiles() {
						barrierNS += p.BarrierNS
					}
				}
				b.ReportMetric(float64(sent)*float64(b.N)/b.Elapsed().Seconds(), "msgs/s")
				b.ReportMetric(float64(barrierNS)/float64(b.N), "barrier-ns/op")
				b.ReportMetric(float64(barrierNS)/float64(b.N)/float64(sent), "barrier-ns/msg")
			})
		}
	}
}

// BenchmarkBarrierShape runs whole jobs at the two shapes BenchmarkBarrier's
// dense 8-partition flood does not cover: a chain, whose frontier is one
// vertex for as many supersteps as the graph has vertices (the barrier must
// cost what the frontier costs, not what the partition holds), and the flood
// at 16 and 64 partitions (the column merge must not cost O(partitions) per
// message).
func BenchmarkBarrierShape(b *testing.B) {
	run := func(name string, g *graph.Graph, prog Program, cfg Config) {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			var supersteps int
			for i := 0; i < b.N; i++ {
				e, err := New(g, prog, cfg)
				if err != nil {
					b.Fatal(err)
				}
				stats, err := e.Run()
				if err != nil {
					b.Fatal(err)
				}
				supersteps = stats.Supersteps
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(supersteps), "ns/superstep")
		})
	}
	const chain = 10000
	edges := make([]graph.Edge, 0, chain-1)
	for v := 0; v < chain-1; v++ {
		edges = append(edges, graph.Edge{Src: VertexID(v), Dst: VertexID(v + 1), Weight: 1})
	}
	g, err := graph.NewFromEdges(chain, edges)
	if err != nil {
		b.Fatal(err)
	}
	run("chain/partitions=4", g, minProg{}, Config{Partitions: 4})
	flood := benchGraph(b, 10000, 8)
	for _, p := range []int{16, 64} {
		run(fmt.Sprintf("flood/partitions=%d", p), flood, floodProg{}, Config{Partitions: p, MaxSupersteps: 8})
	}
}
