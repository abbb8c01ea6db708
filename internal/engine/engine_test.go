package engine

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"
	"unsafe"

	"ariadne/internal/graph"
	"ariadne/internal/obs"
	"ariadne/internal/value"
)

// minProg is a miniature SSSP-like program: value = min distance (hop count)
// from vertex 0; on improvement, send value+1 to out-neighbors.
type minProg struct{}

func (minProg) InitialValue(_ *graph.Graph, v VertexID) value.Value {
	return value.NewFloat(math.Inf(1))
}

func (minProg) Compute(ctx *Context, msgs []IncomingMessage) error {
	best := math.Inf(1)
	if ctx.ID() == 0 {
		best = 0
	}
	for _, m := range msgs {
		if f := m.Val.Float(); f < best {
			best = f
		}
	}
	if best < ctx.Value().Float() {
		ctx.SetValue(value.NewFloat(best))
		ctx.SendToAllNeighbors(value.NewFloat(best + 1))
	}
	return nil
}

func chainGraph(t *testing.T, n int) *graph.Graph {
	t.Helper()
	edges := make([]graph.Edge, 0, n-1)
	for i := 0; i < n-1; i++ {
		edges = append(edges, graph.Edge{Src: VertexID(i), Dst: VertexID(i + 1), Weight: 1})
	}
	g, err := graph.NewFromEdges(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestMinPropagationChain(t *testing.T) {
	for _, parts := range []int{1, 3, 8} {
		g := chainGraph(t, 10)
		e, err := New(g, minProg{}, Config{Partitions: parts})
		if err != nil {
			t.Fatal(err)
		}
		stats, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		// Hop distance along the chain.
		for v, val := range e.Values() {
			if val.Float() != float64(v) {
				t.Errorf("parts=%d: dist[%d] = %v, want %d", parts, v, val, v)
			}
		}
		// Chain of 10 needs 10 supersteps (0..9) plus one quiescent check.
		if stats.Supersteps < 10 {
			t.Errorf("parts=%d: supersteps = %d", parts, stats.Supersteps)
		}
		if stats.ActiveVertices[0] != 10 {
			t.Errorf("superstep 0 must compute all vertices, got %d", stats.ActiveVertices[0])
		}
	}
}

func TestMaxSupersteps(t *testing.T) {
	g := chainGraph(t, 50)
	e, _ := New(g, minProg{}, Config{MaxSupersteps: 5})
	stats, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Supersteps != 5 {
		t.Errorf("supersteps = %d, want 5", stats.Supersteps)
	}
	// Vertex 10 unreachable in 5 supersteps.
	if !math.IsInf(e.Values()[10].Float(), 1) {
		t.Errorf("vertex 10 should still be inf")
	}
}

// crashProg fails at a designated vertex and superstep.
type crashProg struct{ at VertexID }

func (crashProg) InitialValue(_ *graph.Graph, _ VertexID) value.Value { return value.NewInt(0) }
func (p crashProg) Compute(ctx *Context, _ []IncomingMessage) error {
	if ctx.Superstep() == 1 && ctx.ID() == p.at {
		return fmt.Errorf("bad input at vertex %d", ctx.ID())
	}
	if ctx.Superstep() == 0 {
		ctx.SendToAllNeighbors(value.NewInt(1))
	}
	return nil
}

func TestCrashCulprit(t *testing.T) {
	g := chainGraph(t, 6)
	e, _ := New(g, crashProg{at: 3}, Config{Partitions: 2})
	_, err := e.Run()
	var ce *CrashError
	if !errors.As(err, &ce) {
		t.Fatalf("want CrashError, got %v", err)
	}
	if ce.Vertex != 3 || ce.Superstep != 1 {
		t.Errorf("culprit = vertex %d ss %d, want vertex 3 ss 1", ce.Vertex, ce.Superstep)
	}
	if !e.Stats().Aborted {
		t.Error("stats should mark aborted")
	}
}

// fanProg sends two messages from every leaf to vertex 0 so the combiner
// has something to merge.
type fanProg struct{}

func (fanProg) InitialValue(_ *graph.Graph, _ VertexID) value.Value { return value.NewFloat(0) }
func (fanProg) Compute(ctx *Context, msgs []IncomingMessage) error {
	if ctx.Superstep() == 0 && ctx.ID() != 0 {
		ctx.SendMessage(0, value.NewFloat(1))
		ctx.SendMessage(0, value.NewFloat(2))
		return nil
	}
	var sum float64
	for _, m := range msgs {
		sum += m.Val.Float()
	}
	ctx.SetValue(value.NewFloat(ctx.Value().Float() + sum))
	return nil
}

// collector gathers the records the partitions hand ObservePartition, for a
// test observer that reads the whole superstep at the barrier.
type collector struct {
	mu   sync.Mutex
	recs []VertexRecord
}

func (c *collector) ObservePartition(_, _ int, recs []VertexRecord) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.recs = append(c.recs, recs...)
}

// take returns the superstep's records in ascending vertex order, valid
// until ObserveSuperstep returns, and starts collecting the next superstep's.
func (c *collector) take() []VertexRecord {
	recs := c.recs
	slices.SortFunc(recs, func(a, b VertexRecord) int { return cmp.Compare(a.ID, b.ID) })
	c.recs = c.recs[:0]
	return recs
}

// countObserver records what it sees.
type countObserver struct {
	collector
	raw       bool
	perSS     map[int]int // superstep -> records
	recvCount int
	finished  int
}

func (o *countObserver) Reads() Fields {
	if o.raw {
		return FieldReceived
	}
	return 0
}
func (o *countObserver) ObserveSuperstep(v *SuperstepView) error {
	if o.perSS == nil {
		o.perSS = map[int]int{}
	}
	recs := o.take()
	o.perSS[v.Superstep] += len(recs)
	for _, r := range recs {
		o.recvCount += len(r.Received)
	}
	return nil
}
func (o *countObserver) Finish(last int) error { o.finished = last; return nil }

func TestCombinerMergesMessages(t *testing.T) {
	g, _ := graph.NewFromEdges(4, nil)
	sum := func(a, b value.Value) value.Value { return value.NewFloat(a.Float() + b.Float()) }

	// With combiner: vertex 0 receives one combined message worth 6. An
	// observer that does not read receives keeps the combiner on and sees
	// no Received.
	obs := &countObserver{}
	e, _ := New(g, fanProg{}, Config{Combiner: sum, Observers: []Observer{obs}, Partitions: 2})
	stats, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got := e.Values()[0].Float(); got != 9 {
		t.Errorf("combined sum = %v, want 9", got)
	}
	if stats.MessagesDelivered != 1 {
		t.Errorf("combiner should deliver 1 message, delivered %d", stats.MessagesDelivered)
	}
	if obs.recvCount != 0 {
		t.Errorf("an observer without FieldReceived saw %d received messages", obs.recvCount)
	}

	// Observer needing raw messages disables the combiner: 6 messages.
	obs2 := &countObserver{raw: true}
	e2, _ := New(g, fanProg{}, Config{Combiner: sum, Observers: []Observer{obs2}, Partitions: 2})
	if _, err := e2.Run(); err != nil {
		t.Fatal(err)
	}
	if got := e2.Values()[0].Float(); got != 9 {
		t.Errorf("raw sum = %v, want 9", got)
	}
	if obs2.recvCount != 6 {
		t.Errorf("raw delivery should carry 6 messages, saw %d", obs2.recvCount)
	}
}

func TestObserverRecordsEvolution(t *testing.T) {
	g := chainGraph(t, 4)
	obs := &evoObserver{seen: map[VertexID][]int{}}
	e, _ := New(g, minProg{}, Config{Observers: []Observer{obs}})
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// Vertex 2 computes at ss 0 (no update) and ss 2 (update): its record at
	// ss 2 must point back to ss 0 via PrevActive.
	got := obs.prev[2]
	if got[2] != 0 {
		t.Errorf("vertex 2 ss 2 PrevActive = %d, want 0", got[2])
	}
	if got[0] != -1 {
		t.Errorf("vertex 2 ss 0 PrevActive = %d, want -1", got[0])
	}
	if obs.finishedAt < 0 {
		t.Error("Finish not called")
	}
}

type evoObserver struct {
	collector
	seen       map[VertexID][]int
	prev       map[VertexID]map[int]int
	finishedAt int
}

func (o *evoObserver) Reads() Fields { return 0 }
func (o *evoObserver) ObserveSuperstep(v *SuperstepView) error {
	if o.prev == nil {
		o.prev = map[VertexID]map[int]int{}
	}
	for _, r := range o.take() {
		o.seen[r.ID] = append(o.seen[r.ID], r.Superstep)
		if o.prev[r.ID] == nil {
			o.prev[r.ID] = map[int]int{}
		}
		o.prev[r.ID][r.Superstep] = r.PrevActive
	}
	return nil
}
func (o *evoObserver) Finish(last int) error { o.finishedAt = last; return nil }

type failObserver struct{}

func (failObserver) Reads() Fields                             { return 0 }
func (failObserver) ObservePartition(int, int, []VertexRecord) {}
func (failObserver) ObserveSuperstep(*SuperstepView) error     { return errors.New("boom") }
func (failObserver) Finish(int) error                          { return nil }

func TestObserverErrorAborts(t *testing.T) {
	g := chainGraph(t, 3)
	e, _ := New(g, minProg{}, Config{Observers: []Observer{failObserver{}}})
	if _, err := e.Run(); err == nil {
		t.Fatal("observer error should abort run")
	}
}

// aggProg exercises global aggregators.
type aggProg struct{}

func (aggProg) InitialValue(_ *graph.Graph, _ VertexID) value.Value { return value.NewInt(0) }
func (aggProg) Compute(ctx *Context, _ []IncomingMessage) error {
	if ctx.Superstep() == 0 {
		ctx.AggregateFloat("sum", AggSum, float64(ctx.ID()))
		ctx.AggregateFloat("min", AggMin, float64(ctx.ID()))
		ctx.AggregateFloat("max", AggMax, float64(ctx.ID()))
		ctx.AggregateFloat("count", AggCount, 1)
		ctx.SendMessage(ctx.ID(), value.NewInt(1)) // keep alive one superstep
		return nil
	}
	// Superstep 1: read previous superstep's merged values.
	agg := ctx.Aggregated()
	sum, _ := agg.Float("sum")
	ctx.SetValue(value.NewFloat(sum))
	return nil
}

func TestAggregators(t *testing.T) {
	g, _ := graph.NewFromEdges(5, nil)
	e, _ := New(g, aggProg{}, Config{Partitions: 3})
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	agg := e.Aggregated()
	check := func(name string, want float64) {
		t.Helper()
		// After the final superstep the aggregator map reflects the last
		// superstep that wrote, which is superstep 0's values merged.
		got, ok := agg.Float(name)
		if ok && got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	// 0+1+2+3+4 = 10
	if e.Values()[0].Float() != 10 {
		t.Errorf("sum visible at ss1 = %v, want 10", e.Values()[0])
	}
	check("count", 5)
	if _, ok := agg.Float("missing"); ok {
		t.Error("missing aggregator should not exist")
	}
}

func TestDeterministicAcrossPartitions(t *testing.T) {
	g := chainGraph(t, 30)
	run := func(parts int) []value.Value {
		e, _ := New(g, minProg{}, Config{Partitions: parts})
		if _, err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return e.Values()
	}
	a, b := run(1), run(7)
	for i := range a {
		if !a[i].Equal(b[i]) {
			t.Fatalf("value[%d] differs across partition counts: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, minProg{}, Config{}); err == nil {
		t.Error("nil graph should fail")
	}
	g := chainGraph(t, 2)
	if _, err := New(g, nil, Config{}); err == nil {
		t.Error("nil program should fail")
	}
}

// partObserver checks the ObservePartition contract: once per partition per
// superstep, before that superstep's ObserveSuperstep, with the partition's
// own records in ascending vertex order — together exactly the vertices the
// engine marks computed at the barrier.
type partObserver struct {
	t     *testing.T
	e     *Engine
	mu    sync.Mutex
	parts map[int][]VertexRecord // partition -> this superstep's records
	ss    int
	steps int
}

func (o *partObserver) Reads() Fields { return 0 }
func (o *partObserver) ObservePartition(p, ss int, recs []VertexRecord) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if _, dup := o.parts[p]; dup || ss != o.ss {
		o.t.Errorf("partition %d observed superstep %d twice or out of turn (expecting %d)", p, ss, o.ss)
	}
	for i := range recs {
		if o.e.PartitionOf(recs[i].ID) != p || i > 0 && recs[i-1].ID >= recs[i].ID {
			o.t.Errorf("superstep %d partition %d: record %d out of place", ss, p, recs[i].ID)
		}
	}
	o.parts[p] = recs
}
func (o *partObserver) ObserveSuperstep(v *SuperstepView) error {
	if len(o.parts) != o.e.Partitions() {
		o.t.Errorf("superstep %d: %d of %d partitions observed", v.Superstep, len(o.parts), o.e.Partitions())
	}
	var ids []VertexID
	for _, recs := range o.parts {
		for i := range recs {
			ids = append(ids, recs[i].ID)
		}
	}
	slices.Sort(ids)
	var computed []VertexID
	for _, r := range v.Engine.results {
		computed = append(computed, r.computed...)
	}
	slices.Sort(computed)
	if !slices.Equal(ids, computed) {
		o.t.Errorf("superstep %d: partitions saw %v, the engine computed %v", v.Superstep, ids, computed)
	}
	o.parts, o.ss = map[int][]VertexRecord{}, v.Superstep+1
	o.steps++
	return nil
}
func (o *partObserver) Finish(int) error { return nil }

// TestObservePartitionContract runs a multi-superstep program at several
// partition counts with spans on: every partition's records reach
// ObservePartition once per superstep (see partObserver), and each records
// one observe span (Partition >= 0) besides its compute span.
func TestObservePartitionContract(t *testing.T) {
	edges := []graph.Edge{}
	const n = 40
	for v := 0; v < n; v++ {
		for _, d := range []int{1, 3, 7} {
			edges = append(edges, graph.Edge{Src: VertexID(v), Dst: VertexID((v + d) % n), Weight: 1})
		}
	}
	g, err := graph.NewFromEdges(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	for _, parts := range []int{1, 3, 8} {
		m := obs.New()
		m.EnableSpans()
		o := &partObserver{t: t, parts: map[int][]VertexRecord{}}
		e, err := New(g, minProg{}, Config{Partitions: parts, Observers: []Observer{o}, Metrics: m})
		if err != nil {
			t.Fatal(err)
		}
		o.e = e
		stats, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		if o.steps != stats.Supersteps || o.steps < 3 {
			t.Fatalf("partitions=%d: %d supersteps observed, run took %d", parts, o.steps, stats.Supersteps)
		}
		spans := map[string]int{}
		for _, sp := range m.Spans() {
			if sp.Partition >= 0 {
				spans[sp.Name]++
			}
		}
		if want := parts * stats.Supersteps; spans[obs.SpanObserve] != want || spans[obs.SpanCompute] != want {
			t.Errorf("partitions=%d: %d observe and %d compute partition spans, want %d each", parts, spans[obs.SpanObserve], spans[obs.SpanCompute], want)
		}
	}
}

// TestMessageLayout pins the size of what the engine moves per message: the
// send buffer holds SentMessages, the outbox columns OutMessages and the inbox
// arena IncomingMessages, each one or two uint32 ids and a 24-byte Value.
func TestMessageLayout(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("layout pinned for 64-bit platforms")
	}
	for _, c := range []struct {
		name string
		size uintptr
	}{
		{"IncomingMessage", unsafe.Sizeof(IncomingMessage{})},
		{"SentMessage", unsafe.Sizeof(SentMessage{})},
		{"OutMessage", unsafe.Sizeof(OutMessage{})},
	} {
		if c.size != 32 {
			t.Errorf("%s is %d bytes, want 32", c.name, c.size)
		}
	}
}
