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
// re-broadcasts, so any change in the order Compute sees changes bits. When
// observed it emits one fact per received message, carrying the sender, the
// message and the running fold.
type orderProg struct{}

func (orderProg) InitialValue(_ *graph.Graph, v VertexID) value.Value {
	return value.NewFloat(float64(v%5) + 1)
}

func (orderProg) Compute(ctx *Context, msgs []IncomingMessage) error {
	acc := ctx.Value().Float()
	for _, m := range msgs {
		acc = acc*0.5 + m.Val.Float()
		if ctx.Observing() {
			ctx.EmitProv("heard", value.NewInt(int64(m.Src)), m.Val, value.NewFloat(acc))
		}
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
		b.WriteString("] facts[")
		for k := range r.Emitted.Len() {
			t, _ := r.Emitted.Fact(k)
			b.WriteString(t.Name())
			for _, a := range r.Emitted.AppendArgs(nil, k) {
				fmt.Fprintf(&b, " %x", a.AppendBinary(nil))
			}
			b.WriteByte(';')
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
	collector
	t        *testing.T
	inFlight map[VertexID][]IncomingMessage // dst -> messages sent last superstep
	sigs     []string
}

func (o *borrowObserver) Reads() Fields    { return FieldReceived | FieldSent | FieldEmitted }
func (o *borrowObserver) Finish(int) error { return nil }

func (o *borrowObserver) ObserveSuperstep(v *SuperstepView) error {
	recs := o.take()
	if v.Superstep > 0 {
		var next int64
		for _, in := range v.Engine.inbox {
			next += in.size()
		}
		var sent int
		for i := range recs {
			sent += len(recs[i].Sent)
		}
		if next != int64(sent) {
			o.t.Errorf("superstep %d: next inbox holds %d messages while observers run, records sent %d",
				v.Superstep, next, sent)
		}
	}
	before := recordSig(recs)
	seen := 0
	for i := range recs {
		r := &recs[i]
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
	for i := range recs {
		r := &recs[i]
		for _, m := range r.Sent {
			o.inFlight[m.Dst] = append(o.inFlight[m.Dst], IncomingMessage{Src: r.ID, Val: m.Val})
		}
	}
	if after := recordSig(recs); after != before {
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
	if !strings.Contains(want, "recv[") || !strings.Contains(want, "|") || !strings.Contains(want, "heard") {
		t.Fatal("superstep 1 records carry no messages or facts; the test would prove nothing")
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
// which emits, after orderProg's facts, one fact per compute carrying what
// Context.Observing said.
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
	collector
	t     *testing.T
	g     *graph.Graph
	reads Fields
	// sent and received total the messages of the records; outs totals
	// per superstep the out-degrees of the records that sent anything
	// (maskProg sends along every out-edge or not at all).
	sent, received int64
	outs           []int64
}

func (o *maskObserver) Reads() Fields    { return o.reads }
func (o *maskObserver) Finish(int) error { return nil }

func (o *maskObserver) ObserveSuperstep(*SuperstepView) error {
	recs := o.take()
	for i := range recs {
		r := &recs[i]
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
		if n := r.Emitted.Len(); o.reads&FieldEmitted == 0 {
			if r.Emitted != (Facts{}) {
				o.t.Errorf("%s: emitted %d facts without FieldEmitted", at, n)
			}
		} else if n == 0 || !lastObserving(r.Emitted) {
			o.t.Errorf("%s: emitted %d facts, want a last fact reporting Observing", at, n)
		} else if o.reads&FieldReceived != 0 && n-1 != len(r.Received) {
			o.t.Errorf("%s: %d facts before the last, want one per received message (%d)", at, n-1, len(r.Received))
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

// lastObserving reports whether fs ends with maskProg's fact reporting
// Observing.
func lastObserving(fs Facts) bool {
	t, row := fs.Fact(fs.Len() - 1)
	return t.Name() == "observing" && t.Value(0, row).Bool()
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

// bufProg is orderProg that also emits three facts per compute through one
// argument buffer, overwriting it between emits and after the last.
type bufProg struct{ orderProg }

func (p bufProg) Compute(ctx *Context, msgs []IncomingMessage) error {
	if err := p.orderProg.Compute(ctx, msgs); err != nil {
		return err
	}
	buf := make([]value.Value, 2)
	for k := 0; k < 3; k++ {
		buf[0], buf[1] = value.NewInt(int64(ctx.ID())), value.NewInt(int64(3*ctx.Superstep()+k))
		ctx.EmitProv("buf", buf...)
	}
	buf[0], buf[1] = value.NewInt(-1), value.NewInt(-1)
	return nil
}

// bufObserver checks that every record carries bufProg's three facts with
// the arguments they had when emitted.
type bufObserver struct {
	collector
	t       *testing.T
	checked int
}

func (*bufObserver) Reads() Fields    { return FieldEmitted }
func (*bufObserver) Finish(int) error { return nil }

func (o *bufObserver) ObserveSuperstep(*SuperstepView) error {
	for _, r := range o.take() {
		var got []string
		for k := range r.Emitted.Len() {
			if t, _ := r.Emitted.Fact(k); t.Name() == "buf" {
				got = append(got, fmt.Sprint(r.Emitted.AppendArgs(nil, k)))
			}
		}
		var want []string
		for k := 0; k < 3; k++ {
			want = append(want, fmt.Sprint([]value.Value{value.NewInt(int64(r.ID)), value.NewInt(int64(3*r.Superstep + k))}))
		}
		if strings.Join(got, " ") != strings.Join(want, " ") {
			o.t.Errorf("superstep %d vertex %d: facts %v, emitted %v", r.Superstep, r.ID, got, want)
		}
		o.checked++
	}
	return nil
}

// TestEmitProvCopiesArgs: a program that emits several facts through one
// buffer, mutating it between emits, leaves each fact with the values it had
// at emit time, at 1, 4 and 19 partitions.
func TestEmitProvCopiesArgs(t *testing.T) {
	g := contractGraph(t)
	for _, parts := range []int{1, 4, 19} {
		o := &bufObserver{t: t}
		e, err := New(g, bufProg{}, Config{Partitions: parts, MaxSupersteps: 4, Observers: []Observer{o}})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.Run(); err != nil {
			t.Fatal(err)
		}
		if o.checked == 0 {
			t.Fatalf("parts=%d: no records observed", parts)
		}
	}
}

// factProg emits, per vertex, facts of every shape a fact store keeps apart:
// two tables interleaved, one fact of each per message; one name under two
// arities; and a column whose kind changes mid-superstep, an Int for the
// first half of the vertices and a String for the rest. It logs every fact
// as it emits it, arguments encoded at emit time.
type factProg struct {
	mu   sync.Mutex
	want map[[2]int]string // (superstep, vertex) -> facts in emission order
}

func (*factProg) InitialValue(*graph.Graph, VertexID) value.Value { return value.NewFloat(0) }

func (p *factProg) Compute(ctx *Context, msgs []IncomingMessage) error {
	var log strings.Builder
	emit := func(table string, args ...value.Value) {
		ctx.EmitProv(table, args...)
		log.WriteString(renderFact(table, args))
	}
	for _, m := range msgs {
		emit("pair_a", value.NewInt(int64(m.Src)), m.Val)
		emit("pair_b", value.NewInt(int64(m.Src)))
	}
	emit("pair_a", value.NewInt(int64(ctx.ID())))
	k := value.NewInt(int64(ctx.ID()))
	if 2*int(ctx.ID()) >= ctx.NumVertices() {
		k = value.NewString(fmt.Sprint("v", ctx.ID()))
	}
	emit("mixed", k, value.NewFloat(float64(ctx.Superstep())))
	p.mu.Lock()
	p.want[[2]int{ctx.Superstep(), int(ctx.ID())}] = log.String()
	p.mu.Unlock()
	ctx.SetValue(value.NewFloat(float64(ctx.Superstep())))
	ctx.SendToAllNeighbors(value.NewFloat(float64(ctx.ID()) / 3))
	return nil
}

// renderFact renders one fact: its table, arity and argument encodings.
func renderFact(table string, args []value.Value) string {
	s := fmt.Sprintf("%s/%d(", table, len(args))
	for _, a := range args {
		s += fmt.Sprintf("%x ", a.AppendBinary(nil))
	}
	return s + ");"
}

// renderFacts renders a record's facts in emission order.
func renderFacts(fs Facts) string {
	var b strings.Builder
	for k := range fs.Len() {
		t, _ := fs.Fact(k)
		b.WriteString(renderFact(t.Name(), fs.AppendArgs(nil, k)))
	}
	return b.String()
}

// factObserver holds every record's facts to what factProg emitted, once all
// partitions have computed, and counts the supersteps whose "mixed" column
// a String turned boxed after Ints were stored in it.
type factObserver struct {
	collector
	t       *testing.T
	p       *factProg
	checked int
	boxed   int
}

func (*factObserver) Reads() Fields    { return FieldEmitted }
func (*factObserver) Finish(int) error { return nil }

func (o *factObserver) ObserveSuperstep(v *SuperstepView) error {
	stores := map[*FactStore]bool{}
	for _, r := range o.take() {
		if got, want := renderFacts(r.Emitted), o.p.want[[2]int{r.Superstep, int(r.ID)}]; got != want {
			o.t.Errorf("superstep %d vertex %d: facts\n  %s\nemitted\n  %s", r.Superstep, r.ID, got, want)
		}
		o.checked++
		stores[r.Emitted.Store()] = true
	}
	for s := range stores {
		id, ok := s.Find("mixed", 2)
		if !ok {
			o.t.Errorf("superstep %d: no mixed/2 table", v.Superstep)
			continue
		}
		if t := s.Table(id); t.Ints(0) == nil && t.Value(0, 0).Kind() == value.Int {
			o.boxed++
		}
	}
	return nil
}

// TestFactsReadBackInEmissionOrder: at 1, 4 and 19 partitions, every record's
// facts read back in emission order, across tables and arities, with the
// values they had at emit time — including the records whose Int was stored
// before a later vertex's String boxed the column.
func TestFactsReadBackInEmissionOrder(t *testing.T) {
	g := contractGraph(t)
	for _, parts := range []int{1, 4, 19} {
		p := &factProg{want: map[[2]int]string{}}
		o := &factObserver{t: t, p: p}
		e, err := New(g, p, Config{Partitions: parts, MaxSupersteps: 4, Observers: []Observer{o}})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.Run(); err != nil {
			t.Fatal(err)
		}
		if o.checked != len(p.want) || o.checked == 0 {
			t.Errorf("parts=%d: checked %d records, %d computed", parts, o.checked, len(p.want))
		}
		if o.boxed == 0 {
			t.Errorf("parts=%d: no partition's mixed column changed kind mid-superstep", parts)
		}
	}
}
