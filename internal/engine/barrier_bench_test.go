package engine

import (
	"context"
	"fmt"
	"math"
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

func benchGraph(b testing.TB, n, deg int) *graph.Graph {
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

// weightedGraph is benchGraph with edge weights uniform in [0.001, 1.001).
func weightedGraph(tb testing.TB, n, deg int) *graph.Graph {
	tb.Helper()
	g := benchGraph(tb, n, deg)
	rng := rand.New(rand.NewSource(43))
	edges := make([]graph.Edge, 0, g.NumEdges())
	for v := 0; v < n; v++ {
		dst, _ := g.OutNeighbors(VertexID(v))
		for _, d := range dst {
			edges = append(edges, graph.Edge{Src: VertexID(v), Dst: d, Weight: 0.001 + rng.Float64()})
		}
	}
	w, err := graph.NewFromEdges(n, edges)
	if err != nil {
		tb.Fatal(err)
	}
	return w
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

// ssspProg is weighted single-source shortest paths from vertex 0: on
// improvement a vertex sends distance+weight along each out-edge. Over random
// weights its frontier is sparse for many supersteps.
type ssspProg struct{}

func (ssspProg) InitialValue(_ *graph.Graph, v VertexID) value.Value {
	return value.NewFloat(math.Inf(1))
}

func (ssspProg) Compute(ctx *Context, msgs []IncomingMessage) error {
	best := math.Inf(1)
	if ctx.ID() == 0 {
		best = 0
	}
	for _, m := range msgs {
		best = min(best, m.Val.Float())
	}
	if best < ctx.Value().Float() {
		ctx.SetValue(value.NewFloat(best))
		dst, w := ctx.OutNeighbors()
		for i, d := range dst {
			ctx.SendMessage(d, value.NewFloat(best+w[i]))
		}
	}
	return nil
}

// minCombiner keeps the smaller of two distances.
func minCombiner(a, b value.Value) value.Value {
	if b.Float() < a.Float() {
		return b
	}
	return a
}

// BenchmarkBarrierShape runs whole jobs at the shapes BenchmarkBarrier's
// dense 8-partition flood does not cover: a chain, whose frontier is one
// vertex for as many supersteps as the graph has vertices (the barrier must
// cost what the frontier costs, not what the partition holds), the flood
// at 16 and 64 partitions (the column merge must not cost O(partitions) per
// message), and SSSP with a min combiner over random weights at 4 and 16
// partitions (sender-side combining must cost what the sends cost, not what
// the largest superstep's destinations cost).
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
	weighted := weightedGraph(b, 10000, 8)
	for _, p := range []int{4, 16} {
		run(fmt.Sprintf("sssp-combine/partitions=%d", p), weighted, ssspProg{}, Config{Partitions: p, Combiner: minCombiner})
	}
}

// emitProg is floodProg that, while observed, emits two facts per message
// — the sender with the message, and the sender with the running sum — the
// shape of ALS's prov_prediction and prov_error.
type emitProg struct{ floodProg }

func (p emitProg) Compute(ctx *Context, msgs []IncomingMessage) error {
	if ctx.Observing() {
		sum := ctx.Value().Float()
		for _, m := range msgs {
			sum += m.Val.Float()
			src := value.NewInt(int64(m.Src))
			ctx.EmitProv("prov_prediction", src, m.Val)
			ctx.EmitProv("prov_error", src, value.NewFloat(sum))
		}
	}
	return p.floodProg.Compute(ctx, msgs)
}

// factReader is an observer that reads emitted facts and nothing else.
type factReader struct{}

func (factReader) Reads() Fields                             { return FieldEmitted }
func (factReader) ObservePartition(int, int, []VertexRecord) {}
func (factReader) ObserveSuperstep(*SuperstepView) error     { return nil }
func (factReader) Finish(int) error                          { return nil }

// BenchmarkEmitProv times one superstep of a warm partition of emitProg
// under an observer of emitted facts. Once the partition has run, its send
// buffer, fact store and records have their size, so a superstep allocates
// nothing (`make bench-micro` gates emit_prov_allocs at 0).
func BenchmarkEmitProv(b *testing.B) {
	g := benchGraph(b, 2000, 8)
	e, err := New(g, emitProg{}, Config{Partitions: 1, MaxSupersteps: 2, Observers: []Observer{factReader{}}})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		b.Fatal(err)
	}
	ctx, ids, res := context.Background(), e.inbox[0].owners(), &e.results[0]
	e.runPartition(ctx, 0, 2, e.fields, ids, res)
	var facts int
	for _, r := range res.records {
		facts += r.Emitted.Len()
	}
	if facts == 0 {
		b.Fatal("the partition emitted no facts")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.runPartition(ctx, 0, 2, e.fields, ids, res)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(facts), "ns/fact")
}
