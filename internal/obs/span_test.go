package obs

import (
	"encoding/json"
	"testing"
	"time"

	"ariadne/internal/value"
)

func TestSpanDisabledZeroAlloc(t *testing.T) {
	m := New() // metrics on, spans off — the default instrumented run
	allocs := testing.AllocsPerRun(1000, func() {
		if m.SpansEnabled() {
			t.Fatal("spans unexpectedly enabled")
		}
		m.RecordSpan(Span{Proc: ProcMaster, Name: SpanCompute})
		m.AddRemoteSpans(nil)
	})
	if allocs != 0 {
		t.Fatalf("disabled span path allocated %.1f per op, want 0", allocs)
	}
	var nilM *Metrics
	allocs = testing.AllocsPerRun(1000, func() {
		nilM.RecordSpan(Span{})
		if nilM.SpansEnabled() {
			t.Fatal("nil metrics enabled")
		}
	})
	if allocs != 0 {
		t.Fatalf("nil-registry span path allocated %.1f per op, want 0", allocs)
	}
}

// BenchmarkSpanDisabled is the zero-alloc gate for the disabled span path:
// benchjson fails the bench run if allocs/op is nonzero. This is the cost
// every un-traced superstep pays at each instrumentation point.
func BenchmarkSpanDisabled(b *testing.B) {
	m := New()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if m.SpansEnabled() {
			b.Fatal("spans unexpectedly enabled")
		}
		m.RecordSpan(Span{Proc: ProcMaster, Name: SpanCompute, Superstep: i, Partition: 0})
	}
}

func TestSpanRecordAndIDs(t *testing.T) {
	m := New()
	m.EnableSpans()
	if !m.SpansEnabled() {
		t.Fatal("EnableSpans did not enable")
	}
	tid := m.SpanTraceID()
	if tid == 0 {
		t.Fatal("zero trace ID")
	}
	m.EnableSpans() // idempotent: same sink, same trace ID
	if m.SpanTraceID() != tid {
		t.Fatal("EnableSpans reset the trace ID")
	}
	m.RecordSpan(Span{Proc: ProcMaster, Name: SpanCompute, Superstep: 1, Partition: 0, Dur: 5})
	m.RecordSpan(Span{Proc: ProcMaster, Name: SpanBarrier, Superstep: 1, Partition: -1, Dur: 7})
	sps := m.Spans()
	if len(sps) != 2 {
		t.Fatalf("got %d spans, want 2", len(sps))
	}
	if sps[0].TraceID != tid || sps[1].TraceID != tid {
		t.Fatal("recorded spans missing the trace ID stamp")
	}
	if sps[0].SpanID == 0 || sps[0].SpanID == sps[1].SpanID {
		t.Fatalf("span IDs not unique: %d, %d", sps[0].SpanID, sps[1].SpanID)
	}
}

func TestAddRemoteSpansAllocatesIDs(t *testing.T) {
	m := New()
	m.EnableSpans()
	remote := []Span{
		{TraceID: 42, Parent: 9, Proc: "worker:x", Name: SpanDecode, Dur: 1},
		{Proc: "worker:x", Name: SpanEncode, Dur: 2}, // zero trace/span ID
	}
	m.AddRemoteSpans(remote)
	sps := m.Spans()
	if len(sps) != 2 {
		t.Fatalf("got %d spans, want 2", len(sps))
	}
	if sps[0].TraceID != 42 {
		t.Fatal("explicit remote trace ID overwritten")
	}
	if sps[1].TraceID != m.SpanTraceID() {
		t.Fatal("zero remote trace ID not stamped with the local one")
	}
	if sps[0].SpanID == 0 || sps[1].SpanID == 0 {
		t.Fatal("remote spans did not get local span IDs")
	}
}

func TestRestoreSpansContinuesTrace(t *testing.T) {
	m := New()
	saved := []Span{
		{TraceID: 7, SpanID: 3, Proc: ProcMaster, Name: SpanSuperstep, Superstep: 0, Dur: 10},
		{TraceID: 7, SpanID: 5, Parent: 11, Proc: ProcMaster, Name: SpanCompute, Superstep: 0, Dur: 4},
	}
	m.RestoreSpans(saved)
	if !m.SpansEnabled() {
		t.Fatal("RestoreSpans did not re-enable tracing")
	}
	if m.SpanTraceID() != 7 {
		t.Fatalf("trace ID %d, want restored 7", m.SpanTraceID())
	}
	if id := m.NewSpanID(); id <= 11 {
		t.Fatalf("new span ID %d collides with restored IDs (max was 11)", id)
	}
	if len(m.Spans()) != 2 {
		t.Fatal("restored spans missing")
	}
}

func TestSpanCodecRoundTrip(t *testing.T) {
	in := []Span{
		{TraceID: 1, SpanID: 2, Parent: 3, Proc: "worker:127.0.0.1:9", Name: SpanDecode,
			Superstep: 4, Partition: -1, Start: -50, Dur: 6, Bytes: 7, Retries: 8, Tuples: 9},
		{TraceID: 10, SpanID: 11, Proc: ProcMaster, Name: SpanRPC,
			Superstep: 0, Partition: 3, Start: time.Now().UnixNano(), Dur: 12},
	}
	b := value.NewBlob()
	EncodeSpans(b, in)
	out, err := DecodeSpans(value.NewBlobReader(b.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("got %d spans, want %d", len(out), len(in))
	}
	for i := range in {
		if in[i] != out[i] {
			t.Fatalf("span %d: got %+v, want %+v", i, out[i], in[i])
		}
	}
	// Empty section: zero count, no error.
	b2 := value.NewBlob()
	EncodeSpans(b2, nil)
	out2, err := DecodeSpans(value.NewBlobReader(b2.Bytes()))
	if err != nil || len(out2) != 0 {
		t.Fatalf("empty section: spans=%v err=%v", out2, err)
	}
}

func TestRPCStatCodecAndAggregation(t *testing.T) {
	m := New()
	m.AddRPC(0, 1, 100, 0, 3*time.Millisecond)
	m.AddRPC(0, 1, 50, 2, 1*time.Millisecond) // same (ss, part): merge
	m.AddRPC(1, 0, 10, 0, 1*time.Millisecond)
	rs := m.RPCStats()
	if len(rs) != 2 {
		t.Fatalf("got %d rpc stats, want 2 (merged)", len(rs))
	}
	if rs[0].Bytes != 150 || rs[0].Retries != 2 || rs[0].Nanos != int64(4*time.Millisecond) {
		t.Fatalf("merge wrong: %+v", rs[0])
	}
	r := New()
	restore(t, r, m)
	out := r.RPCStats()
	if len(out) != len(rs) {
		t.Fatalf("restored %d rpc stats, want %d", len(out), len(rs))
	}
	for i := range rs {
		if rs[i] != out[i] {
			t.Fatalf("rpc stat %d: got %+v, want %+v", i, out[i], rs[i])
		}
	}
	// A restored row keeps merging by (superstep, partition).
	r.AddRPC(1, 0, 5, 1, time.Millisecond)
	if out = r.RPCStats(); len(out) != 2 || out[1].Bytes != 15 || out[1].Retries != 1 {
		t.Fatalf("merge after restore wrong: %+v", out)
	}
}

func TestTransportBuckets(t *testing.T) {
	m := New()
	m.EnableSpans()
	if m.TransportBuckets() != nil {
		t.Fatal("buckets from a run with no transport spans")
	}
	m.RecordSpan(Span{Name: SpanSerialize, Dur: 10})
	m.RecordSpan(Span{Name: SpanRPC, Dur: 100})
	m.RecordSpan(Span{Name: SpanDecode, Dur: 5})
	m.RecordSpan(Span{Name: SpanWorkerCompute, Dur: 60})
	m.RecordSpan(Span{Name: SpanEncode, Dur: 5})
	m.RecordSpan(Span{Name: SpanBackoff, Dur: 7})
	bk := m.TransportBuckets()
	if bk["serialize"] != 20 || bk["wire"] != 30 || bk["worker_compute"] != 60 || bk["retry"] != 7 {
		t.Fatalf("buckets wrong: %v", bk)
	}
}

func TestTraceRingDropCounter(t *testing.T) {
	m := New()
	m.EnableTrace(4)
	for i := 0; i < 10; i++ {
		m.Tracef(Info, "test", i, "event %d", i)
	}
	if got := m.Counter(MetricTraceDropped).Value(); got != 6 {
		t.Fatalf("%s = %d, want 6 (10 events into a 4-slot ring)", MetricTraceDropped, got)
	}
	ns := m.NetStats()
	if ns[MetricTraceDropped] != 6 {
		t.Fatalf("NetStats missing the drop counter: %v", ns)
	}
}

func TestChromeTraceExport(t *testing.T) {
	m := New()
	m.EnableSpans()
	base := time.Now().UnixNano()
	m.RecordSpan(Span{Proc: ProcMaster, Name: SpanSuperstep, Superstep: 0, Partition: -1,
		Start: base, Dur: int64(2 * time.Millisecond)})
	m.RecordSpan(Span{Proc: "worker:127.0.0.1:1", Name: SpanWorkerCompute, Superstep: 0,
		Partition: 1, Start: base + 100, Dur: int64(time.Millisecond), Tuples: 5})
	var out struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			PID  int            `json:"pid"`
			TID  int            `json:"tid"`
			TS   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(m.ChromeTrace(), &out); err != nil {
		t.Fatalf("ChromeTrace is not valid JSON: %v", err)
	}
	var meta, complete int
	pids := map[int]bool{}
	for _, e := range out.TraceEvents {
		switch e.Ph {
		case "M":
			meta++
		case "X":
			complete++
			pids[e.PID] = true
			if e.TS < 0 {
				t.Fatalf("negative normalized timestamp: %v", e.TS)
			}
		}
	}
	if meta != 2 || complete != 2 {
		t.Fatalf("got %d metadata + %d complete events, want 2 + 2", meta, complete)
	}
	if len(pids) != 2 {
		t.Fatalf("master and worker share a pid: %v", pids)
	}
}
