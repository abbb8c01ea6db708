package engine

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"ariadne/internal/gen"
	"ariadne/internal/graph"
	"ariadne/internal/value"
)

// echoProg sends a deterministic pseudo-random number of messages per
// vertex per superstep, tagging each with (src, superstep), and records
// what it receives. It exercises the BSP delivery contract.
type echoProg struct {
	rounds int
}

func (echoProg) InitialValue(_ *graph.Graph, _ VertexID) value.Value {
	return value.NewInt(0)
}

func (p echoProg) Compute(ctx *Context, msgs []IncomingMessage) error {
	for _, m := range msgs {
		// Message payload = src*1e6 + sentAtSuperstep. BSP: it must have
		// been sent exactly in the previous superstep.
		sentAt := m.Val.Int() % 1000000
		if int(sentAt) != ctx.Superstep()-1 {
			return fmt.Errorf("message sent at %d delivered at %d", sentAt, ctx.Superstep())
		}
		src := m.Val.Int() / 1000000
		if src != int64(m.Src) {
			return fmt.Errorf("message src %d mislabeled as %d", src, m.Src)
		}
	}
	if ctx.Superstep() < p.rounds {
		dst, _ := ctx.OutNeighbors()
		// Deterministic subset: send to neighbors whose id parity matches
		// the superstep's.
		for _, d := range dst {
			if int(d)%2 == ctx.Superstep()%2 {
				ctx.SendMessage(d, value.NewInt(int64(ctx.ID())*1000000+int64(ctx.Superstep())))
			}
		}
	}
	return nil
}

func TestBSPDeliveryContract(t *testing.T) {
	for _, parts := range []int{1, 2, 5} {
		g, err := gen.RMAT(gen.DefaultRMAT(7, 5, 77))
		if err != nil {
			t.Fatal(err)
		}
		e, err := New(g, echoProg{rounds: 6}, Config{Partitions: parts, MaxSupersteps: 8})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.Run(); err != nil {
			t.Fatalf("parts=%d: %v", parts, err)
		}
	}
}

// countingObserver tallies messages seen by records to verify exactly-once
// observation of sends and receives.
type countingObserver struct {
	sent, recv int64
}

func (o *countingObserver) Reads() Fields                           { return FieldReceived | FieldSent }
func (*countingObserver) ObservePartition(int, int, []VertexRecord) {}
func (o *countingObserver) ObserveSuperstep(v *SuperstepView) error {
	for _, r := range v.Records() {
		o.sent += int64(len(r.Sent))
		o.recv += int64(len(r.Received))
	}
	return nil
}
func (o *countingObserver) Finish(int) error { return nil }

func TestEveryMessageObservedExactlyOnce(t *testing.T) {
	g, err := gen.RMAT(gen.DefaultRMAT(8, 4, 51))
	if err != nil {
		t.Fatal(err)
	}
	obs := &countingObserver{}
	e, err := New(g, echoProg{rounds: 5}, Config{Partitions: 3, MaxSupersteps: 7, Observers: []Observer{obs}})
	if err != nil {
		t.Fatal(err)
	}
	stats, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if obs.sent != stats.MessagesSent {
		t.Errorf("observed %d sends, engine counted %d", obs.sent, stats.MessagesSent)
	}
	// Every sent message is delivered in the next superstep; the run ends
	// only after a quiescent superstep, so sends == receives.
	if obs.recv != obs.sent {
		t.Errorf("observed %d receives for %d sends", obs.recv, obs.sent)
	}
}

func TestDeterminismAcrossPartitionsProperty(t *testing.T) {
	cfg := &quick.Config{MaxCount: 10, Rand: rand.New(rand.NewSource(5))}
	f := func(seed int64) bool {
		g, err := gen.RMAT(gen.DefaultRMAT(6, 4, seed%100))
		if err != nil {
			return false
		}
		var ref []value.Value
		for _, parts := range []int{1, 4} {
			e, err := New(g, echoProg{rounds: 4}, Config{Partitions: parts, MaxSupersteps: 6})
			if err != nil {
				return false
			}
			if _, err := e.Run(); err != nil {
				return false
			}
			if ref == nil {
				ref = append([]value.Value(nil), e.Values()...)
				continue
			}
			for i := range ref {
				if !ref[i].Equal(e.Values()[i]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestContextAccessors(t *testing.T) {
	g, err := graph.NewFromEdges(3, []graph.Edge{{Src: 0, Dst: 1, Weight: 2}, {Src: 2, Dst: 1, Weight: 3}})
	if err != nil {
		t.Fatal(err)
	}
	g.BuildInEdges()
	var sawInDeg, sawOutDeg, sawN int
	prog := probeProg{f: func(ctx *Context) {
		if ctx.ID() == 1 {
			sawInDeg = ctx.InDegree()
			sawOutDeg = ctx.OutDegree()
			sawN = ctx.NumVertices()
			if ctx.Graph() != g {
				panic("Graph() mismatch")
			}
			if ctx.Observing() {
				panic("no observers attached")
			}
		}
	}}
	e, err := New(g, prog, Config{MaxSupersteps: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if sawInDeg != 2 || sawOutDeg != 0 || sawN != 3 {
		t.Errorf("accessors: in=%d out=%d n=%d", sawInDeg, sawOutDeg, sawN)
	}
}

type probeProg struct{ f func(*Context) }

func (probeProg) InitialValue(_ *graph.Graph, _ VertexID) value.Value { return value.NewInt(0) }
func (p probeProg) Compute(ctx *Context, _ []IncomingMessage) error {
	p.f(ctx)
	return nil
}

func TestDiscardSentMessages(t *testing.T) {
	g, err := graph.NewFromEdges(2, []graph.Edge{{Src: 0, Dst: 1, Weight: 1}})
	if err != nil {
		t.Fatal(err)
	}
	prog := probeProg{f: func(ctx *Context) {
		if ctx.Superstep() == 0 && ctx.ID() == 0 {
			ctx.SendToAllNeighbors(value.NewInt(1))
			ctx.DiscardSentMessages()
			ctx.SendMessage(1, value.NewInt(2))
		}
	}}
	obs := &countingObserver{}
	e, err := New(g, prog, Config{MaxSupersteps: 3, Observers: []Observer{obs}})
	if err != nil {
		t.Fatal(err)
	}
	stats, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if stats.MessagesSent != 1 {
		t.Errorf("messages sent = %d, want 1 (discard then resend)", stats.MessagesSent)
	}
}
