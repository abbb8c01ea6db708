package obs

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeHistogram(t *testing.T) {
	m := New()
	m.Counter("c").Add(3)
	m.Counter("c").Add(4)
	if got := m.Counter("c").Value(); got != 7 {
		t.Errorf("counter = %d, want 7", got)
	}
	m.Gauge("g").Set(9)
	m.Gauge("g").Set(5)
	if got := m.Gauge("g").Value(); got != 5 {
		t.Errorf("gauge = %d, want 5", got)
	}
	h := m.Histogram("h")
	h.Observe(2 * time.Millisecond)
	h.Observe(30 * time.Second)
	if h.Count() != 2 {
		t.Errorf("hist count = %d, want 2", h.Count())
	}
	if want := int64(2*time.Millisecond + 30*time.Second); h.SumNS() != want {
		t.Errorf("hist sum = %d, want %d", h.SumNS(), want)
	}
	// Same name returns the same instance.
	if m.Counter("c") != m.Counter("c") {
		t.Error("Counter not idempotent per name")
	}

	snap := m.Snapshot()
	if snap["c"] != int64(7) || snap["g"] != int64(5) || snap["h_count"] != int64(2) {
		t.Errorf("snapshot = %v", snap)
	}
}

func TestLabeledSeriesName(t *testing.T) {
	key := L("capture_tuples_total", "table", "value")
	if key != `capture_tuples_total{table="value"}` {
		t.Fatalf("L = %q", key)
	}
	name, labels := seriesKey(key)
	if name != "capture_tuples_total" || labels != `{table="value"}` {
		t.Fatalf("seriesKey = %q, %q", name, labels)
	}
}

// TestNilSafety calls every exported method on a nil registry (and nil
// series) — the disabled-instrumentation path every call site relies on.
func TestNilSafety(t *testing.T) {
	var m *Metrics
	var c *Counter
	var g *Gauge
	var h *Histogram
	c.Add(1)
	g.Set(1)
	h.Observe(time.Second)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.SumNS() != 0 {
		t.Error("nil series should read zero")
	}
	m.EnableTrace(16)
	m.BeginSuperstep(0, 10)
	m.SuperstepMessages(1, 2, 3)
	m.SuperstepTimings(1, 2, 3)
	m.AddCaptureTuples("value", 5)
	m.AddCaptureBytes(10)
	m.AddPiggyback("q", 2)
	m.AddSpill(0, 1, time.Millisecond)
	m.AddCheckpoint(1, time.Millisecond)
	m.AddRetry("spill")
	m.EndSuperstep()
	m.AbortSuperstep()
	m.Tracef(Warn, "site", 0, "message")
	if m.Counter("x") != nil || m.Gauge("x") != nil || m.Histogram("x") != nil {
		t.Error("nil registry should hand out nil series")
	}
	if m.Profiles() != nil || m.Snapshot() != nil {
		t.Error("nil registry should read empty")
	}
	if m.TraceEnabled() {
		t.Error("nil registry cannot have tracing enabled")
	}
	if ev, dropped := m.TraceEvents(); ev != nil || dropped != 0 {
		t.Error("nil registry should have no trace")
	}
	if m.PrometheusText() != "" {
		t.Error("nil registry renders empty exposition")
	}
}

// TestNilMetricsZeroAlloc pins the acceptance criterion: the per-superstep
// instrumentation sequence allocates nothing when metrics are disabled.
func TestNilMetricsZeroAlloc(t *testing.T) {
	var m *Metrics
	allocs := testing.AllocsPerRun(100, func() {
		m.BeginSuperstep(3, 100)
		m.SuperstepMessages(10, 8, 2)
		m.AddCaptureTuples("value", 7)
		m.AddCaptureBytes(128)
		m.AddPiggyback("q4", 3)
		m.AddSpill(3, 64, time.Millisecond)
		m.SuperstepTimings(time.Millisecond, time.Microsecond, time.Microsecond)
		m.EndSuperstep()
		m.Tracef(Warn, "engine", 3, "no formatting happens when disabled")
	})
	if allocs != 0 {
		t.Errorf("disabled instrumentation allocates %v per superstep, want 0", allocs)
	}
}

// TestDisabledTraceZeroAlloc: tracing off on a live registry must skip the
// event formatting entirely.
func TestDisabledTraceZeroAlloc(t *testing.T) {
	m := New()
	allocs := testing.AllocsPerRun(100, func() {
		m.Tracef(Info, "engine", 1, "not formatted")
	})
	if allocs != 0 {
		t.Errorf("disabled trace allocates %v per event, want 0", allocs)
	}
}

func TestTraceRing(t *testing.T) {
	m := New()
	if m.TraceEnabled() {
		t.Fatal("trace enabled before EnableTrace")
	}
	m.EnableTrace(4)
	if !m.TraceEnabled() {
		t.Fatal("trace not enabled")
	}
	for i := 0; i < 7; i++ {
		m.Tracef(Level(i%3), "site", i, "event %d", i)
	}
	events, dropped := m.TraceEvents()
	if len(events) != 4 {
		t.Fatalf("ring holds %d events, want 4", len(events))
	}
	if dropped != 3 {
		t.Errorf("dropped = %d, want 3", dropped)
	}
	// Oldest-first, consecutive sequence numbers.
	for i, e := range events {
		if e.Superstep != 3+i {
			t.Errorf("event %d superstep = %d, want %d", i, e.Superstep, 3+i)
		}
		if e.Msg != "event "+string(rune('3'+i)) {
			t.Errorf("event %d msg = %q", i, e.Msg)
		}
		if i > 0 && e.Seq != events[i-1].Seq+1 {
			t.Errorf("seq not consecutive at %d: %d after %d", i, e.Seq, events[i-1].Seq)
		}
	}
}

func TestTraceLevelJSON(t *testing.T) {
	b, err := json.Marshal(Event{Level: Warn, Site: "spill", Superstep: 2, Msg: "x"})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), `"level":"warn"`) {
		t.Errorf("level not rendered by name: %s", b)
	}
}

func TestProfileLifecycle(t *testing.T) {
	m := New()
	m.BeginSuperstep(0, 50)
	m.SuperstepMessages(100, 90, 10)
	m.AddCaptureTuples("value", 50)
	m.AddCaptureTuples("value", 10)
	m.AddPiggyback("q4", 7)
	m.SuperstepTimings(time.Millisecond, time.Microsecond, 2*time.Microsecond)
	m.EndSuperstep()
	// A checkpoint written after the superstep closed lands on its profile.
	m.AddCheckpoint(1234, time.Millisecond)
	m.AddRetry("checkpoint")

	ps := m.Profiles()
	if len(ps) != 1 {
		t.Fatalf("profiles = %d, want 1", len(ps))
	}
	p := ps[0]
	if p.Superstep != 0 || p.ActiveVertices != 50 {
		t.Errorf("superstep/active = %d/%d", p.Superstep, p.ActiveVertices)
	}
	if p.MessagesSent != 100 || p.MessagesDelivered != 90 || p.MessagesCombined != 10 {
		t.Errorf("messages = %d/%d/%d", p.MessagesSent, p.MessagesDelivered, p.MessagesCombined)
	}
	if p.CaptureTuples["value"] != 60 {
		t.Errorf("capture tuples = %v", p.CaptureTuples)
	}
	if p.PiggybackTuples["q4"] != 7 {
		t.Errorf("piggyback = %v", p.PiggybackTuples)
	}
	if p.CheckpointBytes != 1234 || p.CheckpointNS != int64(time.Millisecond) {
		t.Errorf("checkpoint attribution = %d bytes / %d ns", p.CheckpointBytes, p.CheckpointNS)
	}
	if p.Retries["checkpoint"] != 1 {
		t.Errorf("retries = %v", p.Retries)
	}
	if got := m.Counter(MetricSupersteps).Value(); got != 1 {
		t.Errorf("supersteps counter = %d", got)
	}
	if got := m.Counter(L(MetricCaptureTuples, "table", "value")).Value(); got != 60 {
		t.Errorf("capture counter = %d", got)
	}

	// An aborted superstep leaves no profile behind.
	m.BeginSuperstep(1, 40)
	m.SuperstepMessages(5, 5, 0)
	m.AbortSuperstep()
	if got := len(m.Profiles()); got != 1 {
		t.Errorf("profiles after abort = %d, want 1", got)
	}
}

// recordSample records two supersteps through the registry's own API: the
// first spills twice and captures, the second piggybacks, retries a spill
// twice and puts bytes on the wire; then a checkpoint, a native counter, a
// gauge and two exchange rows.
func recordSample(m *Metrics) {
	m.BeginSuperstep(0, 256)
	m.SuperstepMessages(1000, 800, 200)
	m.AddCaptureTuples("value", 256)
	m.AddCaptureTuples("send_message", 1000)
	m.AddCaptureBytes(4096)
	m.AddSpill(0, 2048, 1111)
	m.AddSpill(0, 2048, 30*time.Second)
	m.SuperstepTimings(12345, 678, 91011)
	m.EndSuperstep()
	m.BeginSuperstep(1, 200)
	m.SuperstepMessages(900, 900, 0)
	m.AddPiggyback("q4-pagerank-check", 17)
	m.AddRetry("spill")
	m.AddRetry("spill")
	m.Counter(MetricNetBytesSent).Add(500)
	m.SuperstepTimings(111, 222, 333)
	m.EndSuperstep()
	m.AddCheckpoint(8192, 5555)
	m.Counter(MetricNetReconnects).Add(3)
	m.Gauge(MetricSpillQueueHighWater).Set(4)
	m.AddRPC(0, 1, 100, 0, 3*time.Millisecond)
	m.AddRPC(1, 0, 10, 0, time.Millisecond)
}

// restore encodes src's snapshot as a checkpoint does and installs it into
// dst.
func restore(t *testing.T, dst, src *Metrics) {
	t.Helper()
	raw, err := json.Marshal(src.Telemetry())
	if err != nil {
		t.Fatal(err)
	}
	var snap Telemetry
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatal(err)
	}
	dst.Restore(snap)
}

// TestProfilesSnapshotIsolatedFromRetries: AddRetry after EndSuperstep
// updates the published profile's Retries map, which Profiles() callers must
// not share by reference — run under -race, a scraper marshalling the
// snapshot while retries land is the check.
func TestProfilesSnapshotIsolatedFromRetries(t *testing.T) {
	m := New()
	m.BeginSuperstep(0, 1)
	m.EndSuperstep()
	m.AddRetry("checkpoint") // the map now exists in profiles[0]

	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 1000; i++ {
			m.AddRetry("checkpoint")
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 1000; i++ {
			if _, err := json.Marshal(m.Profiles()); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
}

func TestEncodeDecodeProfiles(t *testing.T) {
	m := New()
	recordSample(m)
	raw, err := json.Marshal(m.Telemetry())
	if err != nil {
		t.Fatal(err)
	}
	var got Telemetry
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	gb, _ := json.Marshal(got.Profiles)
	wb, _ := json.Marshal(m.Profiles())
	if string(gb) != string(wb) {
		t.Errorf("profile roundtrip mismatch:\n got %s\nwant %s", gb, wb)
	}
	if again, _ := json.Marshal(got); string(again) != string(raw) {
		t.Errorf("snapshot roundtrip mismatch:\n got %s\nwant %s", again, raw)
	}

	// Truncation at any byte errors instead of returning a bogus snapshot.
	for cut := 0; cut < len(raw); cut++ {
		var snap Telemetry
		if err := json.Unmarshal(raw[:cut], &snap); err == nil {
			t.Fatalf("truncation at %d/%d decoded cleanly", cut, len(raw))
		}
	}
}

func TestRestoreProfiles(t *testing.T) {
	src := New()
	recordSample(src)
	m := New()
	m.Counter("leftover").Add(99)
	m.BeginSuperstep(7, 1) // an open profile the restore discards
	restore(t, m, src)
	if _, ok := m.Telemetry().Counters["leftover"]; ok {
		t.Error("pre-restore series survived the restore")
	}
	if got := m.Counter(MetricSupersteps).Value(); got != 2 {
		t.Errorf("supersteps = %d, want 2", got)
	}
	if got := m.Counter(MetricMessagesSent).Value(); got != 1900 {
		t.Errorf("messages sent = %d, want 1900", got)
	}
	if got := m.Counter(L(MetricCaptureTuples, "table", "value")).Value(); got != 256 {
		t.Errorf("capture tuples = %d, want 256", got)
	}
	if got := m.Counter(L(MetricRetries, "site", "spill")).Value(); got != 2 {
		t.Errorf("spill retries = %d, want 2", got)
	}
	if got := m.Histogram(MetricSpillSeconds).Count(); got != 2 {
		t.Errorf("spill observations = %d, want 2", got)
	}
	if got := m.Counter(MetricNetReconnects).Value(); got != 3 {
		t.Errorf("net reconnects = %d, want 3", got)
	}
	if got := len(m.Profiles()); got != 2 {
		t.Errorf("profiles = %d, want 2", got)
	}
	// Restoration continues cleanly: the next superstep appends, counters
	// keep accumulating, and the net delta starts from the restored total.
	m.BeginSuperstep(2, 100)
	m.SuperstepMessages(10, 10, 0)
	m.Counter(MetricNetBytesSent).Add(20)
	m.EndSuperstep()
	if got := m.Counter(MetricSupersteps).Value(); got != 3 {
		t.Errorf("supersteps after continue = %d, want 3", got)
	}
	if got := m.Counter(MetricMessagesSent).Value(); got != 1910 {
		t.Errorf("messages sent after continue = %d, want 1910", got)
	}
	ps := m.Profiles()
	if len(ps) != 3 || ps[2].Superstep != 2 || ps[2].NetBytesSent != 20 {
		t.Errorf("continued profile = %+v, want superstep 2 with 20 net bytes sent", ps[len(ps)-1])
	}
}

// TestTelemetryRestoreRendersSameExposition: a registry restored from its
// snapshot renders the same exposition, byte for byte — histogram buckets
// and series no profile column carries included.
func TestTelemetryRestoreRendersSameExposition(t *testing.T) {
	m := New()
	m.BeginSuperstep(0, 8)
	m.SuperstepMessages(40, 30, 10)
	m.AddSpill(0, 512, 2*time.Millisecond)
	m.AddSpill(0, 256, 3*time.Second)
	m.SuperstepTimings(time.Millisecond, time.Microsecond, 0)
	m.EndSuperstep()
	m.Counter(MetricNetReconnects).Add(2)
	m.Gauge(MetricSpillQueueHighWater).Set(3)
	want := m.PrometheusText()
	if !strings.Contains(want, MetricSpillSeconds+"_count 2\n") {
		t.Fatalf("live exposition lacks two spill observations:\n%s", want)
	}
	r := New()
	restore(t, r, m)
	if got := r.PrometheusText(); got != want {
		t.Errorf("restored exposition differs:\n got %s\nwant %s", got, want)
	}
}

func TestPrometheusText(t *testing.T) {
	m := New()
	m.Counter(L("ariadne_capture_tuples_total", "table", "value")).Add(5)
	m.Counter(L("ariadne_capture_tuples_total", "table", "send_message")).Add(9)
	m.Gauge("ariadne_superstep").Set(3)
	m.Histogram("ariadne_compute_duration_seconds").Observe(2 * time.Millisecond)
	m.Histogram("ariadne_compute_duration_seconds").Observe(3 * time.Second)

	text := m.PrometheusText()
	for _, want := range []string{
		"# TYPE ariadne_capture_tuples_total counter\n",
		`ariadne_capture_tuples_total{table="value"} 5` + "\n",
		`ariadne_capture_tuples_total{table="send_message"} 9` + "\n",
		"# TYPE ariadne_superstep gauge\nariadne_superstep 3\n",
		"# TYPE ariadne_compute_duration_seconds histogram\n",
		`ariadne_compute_duration_seconds_bucket{le="0.001"} 0` + "\n",
		`ariadne_compute_duration_seconds_bucket{le="0.01"} 1` + "\n",
		`ariadne_compute_duration_seconds_bucket{le="10"} 2` + "\n",
		`ariadne_compute_duration_seconds_bucket{le="+Inf"} 2` + "\n",
		"ariadne_compute_duration_seconds_count 2\n",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q:\n%s", want, text)
		}
	}
	if n := strings.Count(text, "# TYPE ariadne_capture_tuples_total"); n != 1 {
		t.Errorf("family typed %d times, want once", n)
	}
}

func TestHandlerEndpoints(t *testing.T) {
	m := New()
	m.EnableTrace(8)
	m.BeginSuperstep(0, 10)
	m.SuperstepMessages(42, 42, 0)
	m.EndSuperstep()
	m.Tracef(Warn, "spill", 0, "retrying")

	srv := httptest.NewServer(Handler(m))
	defer srv.Close()
	get := func(path string) string {
		t.Helper()
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("GET %s: %s", path, resp.Status)
		}
		var b strings.Builder
		buf := make([]byte, 4096)
		for {
			n, err := resp.Body.Read(buf)
			b.Write(buf[:n])
			if err != nil {
				break
			}
		}
		return b.String()
	}

	if body := get("/metrics"); !strings.Contains(body, "ariadne_messages_sent_total 42") {
		t.Errorf("/metrics: %s", body)
	}
	if body := get("/debug/vars"); !strings.Contains(body, `"ariadne"`) {
		t.Errorf("/debug/vars missing ariadne var: %s", body)
	}
	var traceOut struct {
		Dropped uint64  `json:"dropped"`
		Events  []Event `json:"events"`
	}
	if err := json.Unmarshal([]byte(get("/trace")), &traceOut); err != nil {
		t.Fatalf("/trace: %v", err)
	}
	if len(traceOut.Events) != 1 || traceOut.Events[0].Site != "spill" {
		t.Errorf("/trace events = %+v", traceOut.Events)
	}
	var profs []SuperstepProfile
	if err := json.Unmarshal([]byte(get("/supersteps")), &profs); err != nil {
		t.Fatalf("/supersteps: %v", err)
	}
	if len(profs) != 1 || profs[0].MessagesSent != 42 {
		t.Errorf("/supersteps = %+v", profs)
	}
	if body := get("/"); !strings.Contains(body, "/metrics") {
		t.Errorf("index = %s", body)
	}
}

func TestServe(t *testing.T) {
	m := New()
	srv, addr, err := Serve("127.0.0.1:0", m)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if addr.String() == "" {
		t.Fatal("no bound address")
	}
}
