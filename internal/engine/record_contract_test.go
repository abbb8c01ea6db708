package engine

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"ariadne/internal/fault"
	"ariadne/internal/gen"
	"ariadne/internal/graph"
	"ariadne/internal/supervise"
	"ariadne/internal/value"
)

// orderProg folds its messages with an order-sensitive float recurrence and
// re-broadcasts, so any change in the order Compute sees changes bits.
type orderProg struct{}

func (orderProg) InitialValue(_ *graph.Graph, v VertexID) value.Value {
	return value.NewFloat(float64(v%5) + 1)
}

func (orderProg) Compute(ctx *Context, msgs []IncomingMessage) error {
	acc := ctx.Value().Float()
	for _, m := range msgs {
		acc = acc*0.5 + m.Val.Float()
	}
	ctx.SetValue(value.NewFloat(acc))
	ctx.SendToAllNeighbors(value.NewFloat(acc*0.25 + float64(ctx.Superstep())))
	return nil
}

// allFields is the mask of an observer that reads every optional record
// field, as the engine sends it to a worker.
const allFields = FieldRecords | FieldReceived | FieldSent | FieldEmitted

// recordSig renders records bit for bit, windows included.
func recordSig(recs []VertexRecord) string {
	var b strings.Builder
	for i := range recs {
		r := &recs[i]
		fmt.Fprintf(&b, "%d@%d<%d %x>%x recv[%s] sent[", r.ID, r.Superstep, r.PrevActive,
			r.OldValue.AppendBinary(nil), r.NewValue.AppendBinary(nil), msgBits(r.Received))
		for _, m := range r.Sent {
			fmt.Fprintf(&b, "%d:%x|", m.Dst, m.Val.AppendBinary(nil))
		}
		b.WriteString("]\n")
	}
	return b.String()
}

// borrowObserver checks the borrowed-record contract from the observer's
// side. It keeps a deep copy of what every vertex sent last superstep; this
// superstep each record's Received must be exactly those messages in
// canonical order — although the barrier has already built the next
// superstep's inbox by the time observers run — and must still be so at the
// end of the call. sigs keeps one signature per superstep for cross-run
// comparison.
type borrowObserver struct {
	t        *testing.T
	inFlight map[VertexID][]IncomingMessage // dst -> messages sent last superstep
	sigs     []string
}

func (o *borrowObserver) Reads() Fields                           { return FieldReceived | FieldSent }
func (*borrowObserver) ObservePartition(int, int, []VertexRecord) {}
func (o *borrowObserver) Finish(int) error                        { return nil }

func (o *borrowObserver) ObserveSuperstep(v *SuperstepView) error {
	if v.Superstep > 0 {
		var next int64
		for _, in := range v.Engine.inbox {
			next += in.size()
		}
		var sent int
		for i := range v.Records() {
			sent += len(v.Records()[i].Sent)
		}
		if next != int64(sent) {
			o.t.Errorf("superstep %d: next inbox holds %d messages while observers run, records sent %d",
				v.Superstep, next, sent)
		}
	}
	before := recordSig(v.Records())
	seen := 0
	for i := range v.Records() {
		r := &v.Records()[i]
		want := o.inFlight[r.ID]
		oracleSort(want)
		if g, w := msgBits(r.Received), msgBits(want); g != w {
			o.t.Errorf("superstep %d vertex %d: Received\n  %s\nwant what was sent to it\n  %s", v.Superstep, r.ID, g, w)
		}
		if len(want) > 0 {
			seen++
		}
	}
	if seen != len(o.inFlight) {
		o.t.Errorf("superstep %d: %d vertices had messages in flight, %d records received them", v.Superstep, len(o.inFlight), seen)
	}
	o.inFlight = map[VertexID][]IncomingMessage{}
	for i := range v.Records() {
		r := &v.Records()[i]
		for _, m := range r.Sent {
			o.inFlight[m.Dst] = append(o.inFlight[m.Dst], IncomingMessage{Src: r.ID, Val: m.Val})
		}
	}
	if after := recordSig(v.Records()); after != before {
		o.t.Errorf("superstep %d: records changed during ObserveSuperstep", v.Superstep)
	}
	o.sigs = append(o.sigs, before)
	return nil
}

func contractGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g, err := gen.RMAT(gen.DefaultRMAT(7, 6, 41))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestRecordsBorrowedForTheObserveCall runs two observers one after the
// other over several partition counts and both barrier modes; run it with
// -race.
func TestRecordsBorrowedForTheObserveCall(t *testing.T) {
	g := contractGraph(t)
	var ref []string
	for _, parts := range []int{1, 3, 4} {
		for _, seq := range []bool{false, true} {
			a, b := &borrowObserver{t: t}, &borrowObserver{t: t}
			e, err := New(g, orderProg{}, Config{
				Partitions: parts, MaxSupersteps: 6, SequentialBarrier: seq,
				Observers: []Observer{a, b},
			})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := e.Run(); err != nil {
				t.Fatal(err)
			}
			if len(a.sigs) != 6 || strings.Join(a.sigs, "") != strings.Join(b.sigs, "") {
				t.Fatalf("parts=%d seq=%v: the second observer saw different records", parts, seq)
			}
			if ref == nil {
				ref = a.sigs
			} else if strings.Join(a.sigs, "") != strings.Join(ref, "") {
				t.Fatalf("parts=%d seq=%v: records differ from the 1-partition run", parts, seq)
			}
		}
	}
}

// TestSupervisedRetryHandsOutIdenticalRecords: a partition re-executed from
// the barrier rewrites its send buffer and re-reads the same inbox arena;
// the observers must see exactly the records of an undisturbed run.
func TestSupervisedRetryHandsOutIdenticalRecords(t *testing.T) {
	g := contractGraph(t)
	run := func(cfg Config) []string {
		o := &borrowObserver{t: t}
		cfg.Partitions, cfg.MaxSupersteps, cfg.Observers = 3, 6, []Observer{o}
		e, err := New(g, orderProg{}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		stats, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		if cfg.Supervise != nil && stats.PartitionRetries < 1 {
			t.Fatalf("no partition was retried (retries %d)", stats.PartitionRetries)
		}
		return o.sigs
	}
	clean := run(Config{})
	// The fault fires at partition 1's highest vertex with an in-edge, so
	// the vertices before it have already appended their sends to the buffer
	// the retry reuses.
	culprit := int64(-1)
	for v := 0; v < g.NumVertices(); v++ {
		dsts, _ := g.OutNeighbors(VertexID(v))
		for _, d := range dsts {
			if d%3 == 1 && int64(d) > culprit {
				culprit = int64(d)
			}
		}
	}
	retried := run(Config{
		Fault:     fault.NewInjector(fault.Rule{Site: fault.SiteCompute, Superstep: 3, Partition: 1, Vertex: culprit, Panic: true}),
		Supervise: &supervise.Config{MaxRetries: 2, Backoff: time.Microsecond},
	})
	if strings.Join(clean, "") != strings.Join(retried, "") {
		t.Fatal("records after a supervised retry differ from the undisturbed run")
	}
}

// TestDuplicateExecHandsOutIdenticalRecords drives the executor's rollback
// path: the same delta request executed twice (the first reply was lost)
// yields identical records, and the first result stays intact — and free of
// data races under -race — while the duplicate rewrites the executor's
// buffers.
func TestDuplicateExecHandsOutIdenticalRecords(t *testing.T) {
	g := contractGraph(t)
	const parts = 2
	x, err := NewExecutor(g, orderProg{}, Config{Partitions: parts})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	active := make([][]VertexID, parts)
	for v := 0; v < g.NumVertices(); v++ {
		active[v%parts] = append(active[v%parts], VertexID(v))
	}
	// Superstep 0 on both partitions, then the delivery barrier, so that
	// superstep 1 has messages to receive.
	route := []string{"", ""}
	outbox := make([][][]OutMessage, parts)
	for p := 0; p < parts; p++ {
		res := x.Exec(ctx, &ExecRequest{Superstep: 0, Partition: p, Mode: ModeDelta, Active: active[p], Route: route})
		if res.Crash != nil || res.StateMiss {
			t.Fatalf("superstep 0 partition %d: %+v", p, res)
		}
		outbox[p] = res.Outbox
	}
	for dp := 0; dp < parts; dp++ {
		frags := make([][]OutMessage, parts)
		expected := make([]int64, parts)
		for sp := 0; sp < parts; sp++ {
			frags[sp] = outbox[sp][dp]
			expected[sp] = int64(len(frags[sp]))
		}
		if part := x.Assemble(0, dp, false, expected, frags); !part.OK {
			t.Fatalf("assemble partition %d failed", dp)
		} else {
			active[dp] = part.Dsts
		}
	}

	req := &ExecRequest{Superstep: 1, Partition: 0, Mode: ModeDelta, Fields: allFields, Active: active[0], Route: route}
	first := x.Exec(ctx, req)
	if first.Crash != nil || first.StateMiss || len(first.Records) == 0 {
		t.Fatalf("first exec: %+v", first)
	}
	want := recordSig(first.Records)
	if !strings.Contains(want, "recv[") || !strings.Contains(want, "|") {
		t.Fatal("superstep 1 records carry no messages; the test would prove nothing")
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // stands in for the worker still encoding the first reply
		defer wg.Done()
		for i := 0; i < 20; i++ {
			if recordSig(first.Records) != want {
				t.Error("the first result changed while the duplicate executed")
				return
			}
		}
	}()
	second := x.Exec(ctx, req)
	wg.Wait()
	if second.Crash != nil || second.StateMiss {
		t.Fatalf("duplicate exec: %+v", second)
	}
	if got := recordSig(second.Records); got != want {
		t.Fatal("the duplicate exec handed out different records")
	}
}

// maskProg is orderProg whose vertices 3 mod 7 take their sends back, and
// which emits one fact per compute carrying what Context.Observing said.
type maskProg struct{ orderProg }

func (p maskProg) Compute(ctx *Context, msgs []IncomingMessage) error {
	if err := p.orderProg.Compute(ctx, msgs); err != nil {
		return err
	}
	if ctx.ID()%7 == 3 {
		ctx.DiscardSentMessages()
	}
	ctx.EmitProv("observing", value.NewBool(ctx.Observing()))
	return nil
}

// maskObserver checks the record mask contract on every record it reads
// fields of.
type maskObserver struct {
	t     *testing.T
	g     *graph.Graph
	reads Fields
	// sent and received total the messages of the records; outs totals
	// per superstep the out-degrees of the records that sent anything
	// (maskProg sends along every out-edge or not at all).
	sent, received int64
	outs           []int64
}

func (o *maskObserver) Reads() Fields                           { return o.reads }
func (*maskObserver) ObservePartition(int, int, []VertexRecord) {}
func (o *maskObserver) Finish(int) error                        { return nil }

func (o *maskObserver) ObserveSuperstep(v *SuperstepView) error {
	for i := range v.Records() {
		r := &v.Records()[i]
		at := fmt.Sprintf("reads %04b, superstep %d vertex %d", o.reads, r.Superstep, r.ID)
		if want := o.g.OutDegree(r.ID) > 0 && r.ID%7 != 3; r.SentAny != want {
			o.t.Errorf("%s: SentAny %v, sent anything %v", at, r.SentAny, want)
		}
		if o.reads&FieldSent == 0 && r.Sent != nil {
			o.t.Errorf("%s: Sent %d messages without FieldSent", at, len(r.Sent))
		}
		if o.reads&FieldSent != 0 && r.SentAny != (len(r.Sent) > 0) {
			o.t.Errorf("%s: Sent %d messages, SentAny %v", at, len(r.Sent), r.SentAny)
		}
		if o.reads&FieldReceived == 0 && r.Received != nil {
			o.t.Errorf("%s: Received %d messages without FieldReceived", at, len(r.Received))
		}
		wantFacts := 0
		if o.reads&FieldEmitted != 0 {
			wantFacts = 1
		}
		if len(r.Emitted) != wantFacts || wantFacts == 1 && !r.Emitted[0].Args[0].Bool() {
			o.t.Errorf("%s: emitted %v, want %d fact(s) reporting Observing", at, r.Emitted, wantFacts)
		}
		o.sent += int64(len(r.Sent))
		o.received += int64(len(r.Received))
		for len(o.outs) <= r.Superstep {
			o.outs = append(o.outs, 0)
		}
		if r.SentAny {
			o.outs[r.Superstep] += int64(o.g.OutDegree(r.ID))
		}
	}
	return nil
}

// TestRecordFieldMask runs an observer of each record mask at 1, 4 and 19
// partitions, with a combiner configured. The engine builds only the fields
// the observer reads, SentAny always, and combines exactly when no observer
// reads raw receives. An observer of every field sees every send and every
// delivery, and the analytic's values do not depend on the mask beyond the
// combiner.
func TestRecordFieldMask(t *testing.T) {
	g := contractGraph(t)
	sum := func(a, b value.Value) value.Value { return value.NewFloat(a.Float() + b.Float()) }
	masks := []Fields{0, FieldSent, FieldReceived, FieldEmitted, FieldSent | FieldEmitted,
		FieldReceived | FieldSent | FieldEmitted}
	values := map[bool]string{} // combined -> values of the first run
	for _, parts := range []int{1, 4, 19} {
		for _, reads := range masks {
			o := &maskObserver{t: t, g: g, reads: reads}
			e, err := New(g, maskProg{}, Config{Partitions: parts, MaxSupersteps: 6, Combiner: sum, Observers: []Observer{o}})
			if err != nil {
				t.Fatal(err)
			}
			stats, err := e.Run()
			if err != nil {
				t.Fatal(err)
			}
			raw := reads&FieldReceived != 0
			if combined := stats.MessagesCombined > 0; combined == raw {
				t.Errorf("parts=%d reads %04b: combined %d messages", parts, reads, stats.MessagesCombined)
			}
			if reads&FieldSent != 0 && o.sent != stats.MessagesSent {
				t.Errorf("parts=%d reads %04b: records sent %d, engine %d", parts, reads, o.sent, stats.MessagesSent)
			}
			var sent int64
			for _, n := range o.outs {
				sent += n
			}
			if sent != stats.MessagesSent {
				t.Errorf("parts=%d reads %04b: the SentAny records send %d messages, engine %d", parts, reads, sent, stats.MessagesSent)
			}
			// Without a combiner every send but the last superstep's is
			// received.
			if last := o.outs[len(o.outs)-1]; raw && o.received != stats.MessagesSent-last {
				t.Errorf("parts=%d reads %04b: records received %d, engine delivered %d before the last superstep",
					parts, reads, o.received, stats.MessagesSent-last)
			}
			var b strings.Builder
			for _, v := range e.Values() {
				fmt.Fprintf(&b, "%x ", v.AppendBinary(nil))
			}
			if want, ok := values[raw]; !ok {
				values[raw] = b.String()
			} else if b.String() != want {
				t.Errorf("parts=%d reads %04b: values differ from the first run with the combiner %v", parts, reads, !raw)
			}
		}
	}
}
