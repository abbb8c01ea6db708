package transport

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"

	"ariadne/internal/analytics"
	"ariadne/internal/engine"
	"ariadne/internal/fault"
	"ariadne/internal/gen"
	"ariadne/internal/graph"
	"ariadne/internal/obs"
	"ariadne/internal/supervise"
	"ariadne/internal/value"
)

const (
	testParts = 4
	testSteps = 11
)

func testGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g, err := gen.RMAT(gen.DefaultRMAT(7, 6, 42))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func testProg() engine.Program { return &analytics.PageRank{Iterations: testSteps - 1} }

// recObserver fingerprints every observed record so legs can be compared
// for identical provenance streams without a capture store in the loop. It
// reads the fields reads and checks the mask contract on every record: a
// field it does not read is nil, and SentAny agrees with Sent when it reads
// sends. It collects the partitions' records and reads them in vertex order
// at the barrier.
type recObserver struct {
	reads engine.Fields
	sigs  []string
	errs  []string
	mu    sync.Mutex
	recs  []engine.VertexRecord
}

func (o *recObserver) Reads() engine.Fields { return o.reads }
func (o *recObserver) ObservePartition(_, _ int, recs []engine.VertexRecord) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.recs = append(o.recs, recs...)
}
func (o *recObserver) Finish(int) error { return nil }
func (o *recObserver) ObserveSuperstep(*engine.SuperstepView) error {
	slices.SortFunc(o.recs, func(a, b engine.VertexRecord) int { return cmp.Compare(a.ID, b.ID) })
	defer func() { o.recs = o.recs[:0] }()
	for i := range o.recs {
		r := &o.recs[i]
		if o.reads&engine.FieldSent == 0 && r.Sent != nil ||
			o.reads&engine.FieldSent != 0 && r.SentAny != (len(r.Sent) > 0) ||
			o.reads&engine.FieldReceived == 0 && r.Received != nil ||
			o.reads&engine.FieldEmitted == 0 && r.Emitted != (engine.Facts{}) {
			o.errs = append(o.errs, fmt.Sprintf("superstep %d vertex %d: sent %d (any %v), received %d, emitted %d",
				r.Superstep, r.ID, len(r.Sent), r.SentAny, len(r.Received), r.Emitted.Len()))
		}
		sig := fmt.Sprintf("%d/%d/%d:%x:%x:%v:", r.ID, r.Superstep, r.PrevActive,
			r.OldValue.AppendBinary(nil), r.NewValue.AppendBinary(nil), r.SentAny)
		for _, m := range r.Received {
			sig += fmt.Sprintf("r%d:%x,", m.Src, m.Val.AppendBinary(nil))
		}
		for _, m := range r.Sent {
			sig += fmt.Sprintf("s%d:%x,", m.Dst, m.Val.AppendBinary(nil))
		}
		o.sigs = append(o.sigs, sig)
	}
	return nil
}

// startWorkers launches n in-process TCP workers over their own executors
// (same graph, same program — separate state, as separate processes would
// have) and returns their addresses.
func startWorkers(t *testing.T, g *graph.Graph, n int, wcfg func(i int) engine.Config) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		cfg := engine.Config{Partitions: testParts, Combiner: analytics.SumCombiner}
		if wcfg != nil {
			cfg = wcfg(i)
		}
		x, err := engine.NewExecutor(g, testProg(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		w, err := NewWorker(x, "127.0.0.1:0", nil)
		if err != nil {
			t.Fatal(err)
		}
		go w.Serve()
		t.Cleanup(func() { w.Close() })
		addrs[i] = w.Addr()
	}
	return addrs
}

func runLeg(t *testing.T, g *graph.Graph, cfg engine.Config) (*engine.Engine, engine.RunStats, *recObserver, error) {
	t.Helper()
	o := &recObserver{reads: engine.FieldReceived | engine.FieldSent}
	cfg.MaxSupersteps = testSteps
	cfg.Partitions = testParts
	cfg.Combiner = analytics.SumCombiner
	cfg.Observers = append(cfg.Observers, o)
	e, err := engine.New(g, testProg(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := e.Run()
	return e, stats, o, err
}

func assertIdentical(t *testing.T, leg string, ref, got *engine.Engine, refStats, gotStats engine.RunStats, refObs, gotObs *recObserver) {
	t.Helper()
	if refStats.Supersteps != gotStats.Supersteps {
		t.Errorf("%s: supersteps %d != %d", leg, gotStats.Supersteps, refStats.Supersteps)
	}
	if refStats.MessagesSent != gotStats.MessagesSent ||
		refStats.MessagesDelivered != gotStats.MessagesDelivered ||
		refStats.MessagesCombinedSender != gotStats.MessagesCombinedSender {
		t.Errorf("%s: message accounting (%d/%d/%d) != (%d/%d/%d)", leg,
			gotStats.MessagesSent, gotStats.MessagesDelivered, gotStats.MessagesCombinedSender,
			refStats.MessagesSent, refStats.MessagesDelivered, refStats.MessagesCombinedSender)
	}
	rv, gv := ref.Values(), got.Values()
	for v := range rv {
		if !reflect.DeepEqual(rv[v].AppendBinary(nil), gv[v].AppendBinary(nil)) {
			t.Fatalf("%s: vertex %d value %v != %v (must be bit-identical)", leg, v, gv[v], rv[v])
		}
	}
	if !reflect.DeepEqual(refObs.sigs, gotObs.sigs) {
		t.Errorf("%s: observer record streams differ (%d vs %d records)", leg, len(gotObs.sigs), len(refObs.sigs))
	}
}

// TestWireExecRequestRoundTrip pins the two request shapes through one
// codec: a request with no mode set is a delta (mode 0), and a seed adds the
// stride state after the shared prefix; an unknown mode or trailing bytes
// fail to decode.
func TestWireExecRequestRoundTrip(t *testing.T) {
	for name, req := range map[string]*engine.ExecRequest{
		"no-mode": {Partition: 3, Active: []engine.VertexID{}},
		"delta": {
			Superstep: 3, Partition: 1, Fields: engine.FieldRecords | engine.FieldSent, Combine: true,
			Active: []engine.VertexID{1, 5, 9},
			Route:  []string{"", ".", "10.0.0.2:9", "."},
			Agg:    map[string]float64{"err": 0.5, "mass": 1.0},
		},
		"seed": {
			Superstep: 3, Partition: 1, Mode: engine.ModeSeed,
			Active: []engine.VertexID{1, 5, 9},
			AllValues: []value.Value{
				value.NewFloat(0.25), value.NewVector([]float64{1, -2.5}), value.NewString("x"),
			},
			AllActive: []int32{-1, 0, 2},
			Inbox: [][]engine.IncomingMessage{
				nil,
				{{Src: 2, Val: value.NewFloat(0.125)}, {Src: 3, Val: value.NewInt(-7)}},
				{{Src: 1, Val: value.NewBool(true)}},
			},
		},
	} {
		rt, err := decodeExecRequest(encodeExecRequest(req))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !wireEqual(req, rt) {
			t.Fatalf("%s: roundtrip mismatch:\n  in  %+v\n  out %+v", name, req, rt)
		}
	}

	bad := encodeExecRequest(&engine.ExecRequest{Partition: 1})
	bad[2] = 2 // the mode byte: superstep and partition are one byte each
	if _, err := decodeExecRequest(bad); err == nil {
		t.Error("mode 2 decoded without error")
	}
	unknown := encodeExecRequest(&engine.ExecRequest{Partition: 1})
	unknown[3] = byte(engine.FieldRecords) << 1 // the record field mask, one byte
	if _, err := decodeExecRequest(unknown); err == nil || !strings.Contains(err.Error(), "unknown record fields") {
		t.Errorf("a request with an unknown record field decoded as %v", err)
	}
	trailing := append(encodeExecRequest(&engine.ExecRequest{Partition: 1}), 0)
	if _, err := decodeExecRequest(trailing); err == nil {
		t.Error("a request with a trailing byte decoded without error")
	}
}

func TestWireExecResultRoundTrip(t *testing.T) {
	var facts engine.FactStore
	facts.Emit("tp", value.NewInt(4))
	res := &engine.ExecResult{
		Partition: 2,
		Outbox: [][]engine.OutMessage{
			{{Src: 4, Dst: 0, Val: value.NewFloat(1.5)}},
			nil,
			{{Src: 8, Dst: 6, Val: value.NewInt(3)}, {Src: 4, Dst: 2, Val: value.NewString("m")}},
		},
		Records: []engine.VertexRecord{{
			ID: 4, Superstep: 3, PrevActive: -1,
			OldValue: value.NewFloat(1), NewValue: value.NewFloat(0.5), SentAny: true,
			Received: []engine.IncomingMessage{{Src: 0, Val: value.NewFloat(2)}},
			Sent:     []engine.SentMessage{{Dst: 0, Val: value.NewFloat(1.5)}},
			Emitted:  facts.EndRecord(),
		}},
		Sent: 3, CombinedSender: 1,
		Agg:       []engine.AggUpdate{{Name: "mass", Op: engine.AggSum, Val: 2, N: 5}},
		DstCounts: []int64{1, 0, 2},
	}
	rt, err := decodeExecResult(encodeExecResult(res))
	if err != nil {
		t.Fatal(err)
	}
	if !wireEqual(res, rt) {
		t.Fatalf("roundtrip mismatch:\n  in  %+v\n  out %+v", res, rt)
	}

	crash := &engine.ExecResult{Partition: 1, Crash: &engine.RemoteCrash{
		Vertex: 9, Superstep: 2, Message: "boom", Panic: true, Injected: true,
	}}
	rt, err = decodeExecResult(encodeExecResult(crash))
	if err != nil {
		t.Fatal(err)
	}
	if !wireEqual(crash, rt) {
		t.Fatalf("crash roundtrip mismatch: %+v vs %+v", rt, crash)
	}
}

// factFrame encodes an exec result of 50 records carrying nFacts emitted
// facts between them, rotating over ALS's two tables and one whose name is
// longer than 32 bytes, past the buffer in which the compiler converts a
// short []byte to a string without allocating.
func factFrame(nFacts int) (*engine.ExecResult, []byte) {
	res := &engine.ExecResult{Partition: 1, Outbox: make([][]engine.OutMessage, 2)}
	facts := &engine.FactStore{}
	for i := 0; i < 50; i++ {
		rec := engine.VertexRecord{ID: engine.VertexID(i), Superstep: 2, PrevActive: 1,
			OldValue: value.NewInt(int64(i)), NewValue: value.NewInt(int64(i + 1))}
		for j := i; j < nFacts; j += 50 {
			table := [3]string{"prov_prediction", "prov_error", "prov_a_table_name_longer_than_32_bytes"}[j%3]
			facts.Emit(table, value.NewInt(int64(j)), value.NewFloat(float64(j)/3))
		}
		rec.Emitted = facts.EndRecord()
		res.Records = append(res.Records, rec)
	}
	return res, encodeExecResult(res)
}

// TestWireFactDecodeAllocs: a frame's emitted facts decode into one growing
// slice, then into the frame's fact store sized from their counts, and a
// repeated table name, long or short, reuses its string, so decoding 1 000 or
// 4 000 facts allocates only the slice's O(log n) regrowths more than
// decoding 10.
func TestWireFactDecodeAllocs(t *testing.T) {
	var allocs []float64
	for _, n := range []int{10, 1000, 4000} {
		res, frame := factFrame(n)
		rt, err := decodeExecResult(frame)
		if err != nil {
			t.Fatal(err)
		}
		if !wireEqual(res, rt) {
			t.Fatalf("%d facts: the decoded result differs from the encoded one", n)
		}
		tables := map[string]*byte{}
		for _, r := range rt.Records {
			for k := range r.Emitted.Len() {
				ft, _ := r.Emitted.Fact(k)
				if p, ok := tables[ft.Name()]; ok && p != unsafe.StringData(ft.Name()) {
					t.Fatalf("%d facts: table %q decoded into two strings", n, ft.Name())
				}
				tables[ft.Name()] = unsafe.StringData(ft.Name())
			}
		}
		allocs = append(allocs, testing.AllocsPerRun(20, func() {
			if _, err := decodeExecResult(frame); err != nil {
				t.Fatal(err)
			}
		}))
	}
	t.Logf("allocs for 10, 1000, 4000 facts: %v", allocs)
	for i, n := range []int{1000, 4000} {
		if extra := allocs[i+1] - allocs[0]; extra > 2*math.Log2(float64(n)) {
			t.Fatalf("decoding 10, 1000 and 4000 facts allocates %v times: %v more for %d facts", allocs, extra, n)
		}
	}
	// A frame cut inside its records fails to decode.
	_, frame := factFrame(1000)
	for cut := len(frame) - 1; cut > len(frame)/2; cut -= 97 {
		if _, err := decodeExecResult(frame[:cut]); err == nil {
			t.Fatalf("a frame cut at %d of %d bytes decoded without error", cut, len(frame))
		}
	}
}

// TestTransportDifferential pins the TCP leg against the in-process
// reference: same values bit for bit, same message accounting, same
// observer record stream — over TCP-loopback with 1 and 2 workers.
func TestTransportDifferential(t *testing.T) {
	g := testGraph(t)
	refE, refStats, refObs, err := runLeg(t, g, engine.Config{})
	if err != nil {
		t.Fatal(err)
	}

	legs := map[string]func() engine.Transport{
		"tcp-1": func() engine.Transport {
			return dialWorkers(t, g, startWorkers(t, g, 1, nil))
		},
		"tcp-2": func() engine.Transport {
			return dialWorkers(t, g, startWorkers(t, g, 2, nil))
		},
	}
	for name, mk := range legs {
		t.Run(name, func(t *testing.T) {
			tr := mk()
			defer tr.Close()
			e, stats, o, err := runLeg(t, g, engine.Config{Transport: tr})
			if err != nil {
				t.Fatal(err)
			}
			assertIdentical(t, name, refE, e, refStats, stats, refObs, o)
		})
	}
}

// TestRecordFieldsOverTCP runs an observer of each record mask in process
// and over two TCP workers. Both legs must hand it identical records, and
// every record must keep the mask contract: no field the observer does not
// read, SentAny set whatever it reads. The combiner runs exactly when the
// observer does not read raw receives.
func TestRecordFieldsOverTCP(t *testing.T) {
	g := testGraph(t)
	for _, reads := range []engine.Fields{0, engine.FieldSent, engine.FieldReceived, engine.FieldReceived | engine.FieldSent} {
		t.Run(fmt.Sprintf("reads-%04b", reads), func(t *testing.T) {
			run := func(tr engine.Transport) (*engine.Engine, engine.RunStats, *recObserver) {
				t.Helper()
				o := &recObserver{reads: reads}
				e, err := engine.New(g, testProg(), engine.Config{
					MaxSupersteps: testSteps, Partitions: testParts, Combiner: analytics.SumCombiner,
					Observers: []engine.Observer{o}, Transport: tr,
				})
				if err != nil {
					t.Fatal(err)
				}
				stats, err := e.Run()
				if err != nil {
					t.Fatal(err)
				}
				if len(o.errs) > 0 {
					t.Errorf("%d records break the mask contract, first: %s", len(o.errs), o.errs[0])
				}
				if combined := stats.MessagesCombined > 0; combined == (reads&engine.FieldReceived != 0) {
					t.Errorf("combined %d messages reading %04b", stats.MessagesCombined, reads)
				}
				return e, stats, o
			}
			refE, refStats, refObs := run(nil)
			tr := dialWorkers(t, g, startWorkers(t, g, 2, nil))
			defer tr.Close()
			e, stats, o := run(tr)
			assertIdentical(t, "tcp", refE, e, refStats, stats, refObs, o)
		})
	}
}

func dialWorkers(t *testing.T, g *graph.Graph, addrs []string, opts ...func(*TCPConfig)) *TCP {
	t.Helper()
	cfg := TCPConfig{
		Addrs:       addrs,
		Fingerprint: Fingerprint{Partitions: testParts, NumVertices: g.NumVertices(), NumEdges: g.NumEdges()},
	}
	for _, o := range opts {
		o(&cfg)
	}
	tr, err := DialTCP(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestRemoteCrashCulprit checks that a vertex-program failure on a worker
// comes back as the same CrashError a local run raises: culprit vertex,
// superstep, and an errors.Is-reachable ErrComputePanic cause.
func TestRemoteCrashCulprit(t *testing.T) {
	g := testGraph(t)
	addrs := startWorkers(t, g, 1, func(int) engine.Config {
		return engine.Config{
			Partitions: testParts,
			Combiner:   analytics.SumCombiner,
			Fault:      fault.NewInjector(fault.PanicAt(2, 6)),
		}
	})
	tr := dialWorkers(t, g, addrs)
	defer tr.Close()
	_, _, _, err := runLeg(t, g, engine.Config{Transport: tr})
	if err == nil {
		t.Fatal("want remote crash, got success")
	}
	var ce *engine.CrashError
	if !errors.As(err, &ce) {
		t.Fatalf("want CrashError, got %v", err)
	}
	if ce.Vertex != 6 || ce.Superstep != 2 {
		t.Errorf("culprit = vertex %d superstep %d, want 6/2", ce.Vertex, ce.Superstep)
	}
	if !errors.Is(err, engine.ErrComputePanic) {
		t.Errorf("cause chain lost ErrComputePanic: %v", err)
	}
}

// TestNetFaultMatrix drives every canonical network fault scenario through
// a real TCP exchange: recoverable faults (drop, slow link, duplicate,
// reset, one-way partition) must finish bit-identically via retransmit or
// reconnect; the unreachable scenario must finish bit-identically via the
// engine's local fallback, with the partition's capture shed.
func TestNetFaultMatrix(t *testing.T) {
	g := testGraph(t)
	refE, refStats, refObs, err := runLeg(t, g, engine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	const faultPart = 1
	for name, rules := range fault.NetMatrix(faultPart, 1, 2*time.Millisecond) {
		t.Run(name, func(t *testing.T) {
			m := obs.New()
			inj := fault.NewInjector(rules...)
			addrs := startWorkers(t, g, 2, nil)
			tr := dialWorkers(t, g, addrs, func(c *TCPConfig) {
				c.MessageDeadline = 100 * time.Millisecond
				c.MaxRetries = 2
				c.Backoff = time.Millisecond
				c.Fault = inj
				c.Metrics = m
			})
			defer tr.Close()
			deg := supervise.NewDegradeState(1)
			e, stats, o, err := runLeg(t, g, engine.Config{
				Transport: tr,
				Supervise: &supervise.Config{MaxRetries: 2, Backoff: time.Millisecond},
				Degrade:   deg,
				Metrics:   m,
			})
			if err != nil {
				t.Fatalf("%s: run failed: %v", name, err)
			}
			assertIdentical(t, name, refE, e, refStats, stats, refObs, o)
			if inj.Fired() == 0 {
				t.Errorf("%s: no fault fired", name)
			}
			fellBack := m.Counter(obs.MetricNetLocalFallbacks).Value() > 0
			if name == "unreachable" {
				if !fellBack {
					t.Error("unreachable peer should pin the partition local")
				}
				if !deg.Shed(faultPart) {
					t.Error("unreachable partition's capture should be shed")
				}
			} else {
				if !deg.AnyShed() == fellBack {
					t.Errorf("%s: fallback %v inconsistent with shed state", name, fellBack)
				}
				switch name {
				case "drop", "oneway":
					if m.Counter(obs.MetricNetRetransmits).Value() == 0 {
						t.Errorf("%s: expected retransmits", name)
					}
				case "reset":
					if m.Counter(obs.MetricNetReconnects).Value() == 0 {
						t.Errorf("%s: expected a reconnect", name)
					}
				}
			}
		})
	}
}

// newTestWorker starts one in-process worker over its own executor and
// returns it for direct lifecycle control (kill, drain, restart).
func newTestWorker(t *testing.T, g *graph.Graph, addr string) *Worker {
	t.Helper()
	x, err := engine.NewExecutor(g, testProg(), engine.Config{Partitions: testParts, Combiner: analytics.SumCombiner})
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWorker(x, addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	go w.Serve()
	t.Cleanup(func() { w.Close() })
	return w
}

// TestWorkerKilledMidRun kills one of two workers abruptly mid-run (no
// reply, connections severed). With failover on, the dead worker's
// partitions reassign to the survivor — same request, same seq, executed
// bit-identically — so the run completes with NO local fallback and NO
// capture shed: provenance is fully preserved.
func TestWorkerKilledMidRun(t *testing.T) {
	g := testGraph(t)
	refE, refStats, refObs, err := runLeg(t, g, engine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	m := obs.New()
	w0 := newTestWorker(t, g, "127.0.0.1:0")
	w1 := newTestWorker(t, g, "127.0.0.1:0")
	w1.KillAfter(5) // dies during the third superstep of its partitions

	tr := dialWorkers(t, g, []string{w0.Addr(), w1.Addr()}, func(c *TCPConfig) {
		c.MessageDeadline = 100 * time.Millisecond
		c.MaxRetries = 1
		c.Backoff = time.Millisecond
		c.Metrics = m
	})
	defer tr.Close()
	deg := supervise.NewDegradeState(1)
	e, stats, o, err := runLeg(t, g, engine.Config{
		Transport: tr,
		Supervise: &supervise.Config{MaxRetries: 1, Backoff: time.Millisecond},
		Degrade:   deg,
		Metrics:   m,
	})
	if err != nil {
		t.Fatalf("run with killed worker failed: %v", err)
	}
	assertIdentical(t, "killed-worker", refE, e, refStats, stats, refObs, o)
	if m.Counter(obs.MetricFailoverDeaths).Value() == 0 {
		t.Error("expected the killed worker to be declared dead")
	}
	if m.Counter(obs.MetricFailoverReassignments).Value() == 0 {
		t.Error("expected the dead worker's partitions to be reassigned")
	}
	if n := m.Counter(obs.MetricNetLocalFallbacks).Value(); n != 0 {
		t.Errorf("failover should preempt local fallback, got %d fallbacks", n)
	}
	if deg.AnyShed() {
		t.Error("failover preserves capture; nothing should be shed")
	}
}

// TestWorkerKilledNoFailover pins the pre-failover contract behind the
// noFailover switch: the dead worker's partitions pin local and shed
// capture instead of rerouting.
func TestWorkerKilledNoFailover(t *testing.T) {
	g := testGraph(t)
	refE, refStats, refObs, err := runLeg(t, g, engine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	m := obs.New()
	w0 := newTestWorker(t, g, "127.0.0.1:0")
	w1 := newTestWorker(t, g, "127.0.0.1:0")
	w1.KillAfter(5)

	tr := dialWorkers(t, g, []string{w0.Addr(), w1.Addr()}, func(c *TCPConfig) {
		c.MessageDeadline = 100 * time.Millisecond
		c.MaxRetries = 1
		c.Backoff = time.Millisecond
		c.noFailover = true
		c.Metrics = m
	})
	defer tr.Close()
	deg := supervise.NewDegradeState(1)
	e, stats, o, err := runLeg(t, g, engine.Config{
		Transport: tr,
		Supervise: &supervise.Config{MaxRetries: 1, Backoff: time.Millisecond},
		Degrade:   deg,
		Metrics:   m,
	})
	if err != nil {
		t.Fatalf("run with killed worker failed: %v", err)
	}
	assertIdentical(t, "killed-no-failover", refE, e, refStats, stats, refObs, o)
	if m.Counter(obs.MetricNetLocalFallbacks).Value() == 0 {
		t.Error("expected local fallback after worker death with failover off")
	}
	if !deg.AnyShed() {
		t.Error("dead worker's partitions should have capture shed with failover off")
	}
}

// TestAllWorkersKilled kills the whole pool mid-run: with nowhere to fail
// over, the engine's pin-local fallback is the last rung — the run still
// finishes bit-identically, with the lost partitions' capture shed and
// accounted.
func TestAllWorkersKilled(t *testing.T) {
	g := testGraph(t)
	refE, refStats, refObs, err := runLeg(t, g, engine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	m := obs.New()
	w0 := newTestWorker(t, g, "127.0.0.1:0")
	w1 := newTestWorker(t, g, "127.0.0.1:0")
	w0.KillAfter(5)
	w1.KillAfter(5)

	tr := dialWorkers(t, g, []string{w0.Addr(), w1.Addr()}, func(c *TCPConfig) {
		c.MessageDeadline = 100 * time.Millisecond
		c.MaxRetries = 1
		c.Backoff = time.Millisecond
		c.Metrics = m
	})
	defer tr.Close()
	deg := supervise.NewDegradeState(1)
	e, stats, o, err := runLeg(t, g, engine.Config{
		Transport: tr,
		Supervise: &supervise.Config{MaxRetries: 1, Backoff: time.Millisecond},
		Degrade:   deg,
		Metrics:   m,
	})
	if err != nil {
		t.Fatalf("run with all workers killed failed: %v", err)
	}
	assertIdentical(t, "all-killed", refE, e, refStats, stats, refObs, o)
	if m.Counter(obs.MetricNetLocalFallbacks).Value() == 0 {
		t.Error("expected local fallback once the whole pool is dead")
	}
	if !deg.AnyShed() {
		t.Error("pin-local partitions should have capture shed")
	}
}

// waitCounter polls a metric until it is at least want or the deadline
// passes.
func waitCounter(t *testing.T, m *obs.Metrics, name string, want int64) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for m.Counter(name).Value() < want {
		if time.Now().After(deadline) {
			t.Fatalf("%s never reached %d (at %d)", name, want, m.Counter(name).Value())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestWorkerDrainRejoin walks the graceful path end to end at the protocol
// level: a worker drains (finishing in-flight work, sending frameDrain),
// its partitions reroute without a death being charged, then a restarted
// worker on the same address passes a fresh handshake and rejoins the pool.
func TestWorkerDrainRejoin(t *testing.T) {
	g := testGraph(t)
	m := obs.New()
	w0 := newTestWorker(t, g, "127.0.0.1:0")
	w1 := newTestWorker(t, g, "127.0.0.1:0")
	addr1 := w1.Addr()
	tr := dialWorkers(t, g, []string{w0.Addr(), addr1}, func(c *TCPConfig) {
		c.MessageDeadline = 200 * time.Millisecond
		c.MaxRetries = 1
		c.Backoff = time.Millisecond
		c.Metrics = m
	})
	defer tr.Close()

	// Partition 1 is statically assigned to worker 1; prove the route works.
	// Each request is a seed, so whichever worker it lands on can run it.
	if _, err := tr.Exec(context.Background(), seedRequest(g, 0, 1)); err != nil {
		t.Fatalf("warm-up exec: %v", err)
	}
	if err := w1.Drain(); err != nil {
		t.Fatalf("drain: %v", err)
	}
	waitCounter(t, m, obs.MetricFailoverDrains, 1)

	// The drained worker's partition reroutes to the survivor, gracefully:
	// a reassignment, not a death.
	if _, err := tr.Exec(context.Background(), seedRequest(g, 1, 1)); err != nil {
		t.Fatalf("exec after drain: %v", err)
	}
	if m.Counter(obs.MetricFailoverReassignments).Value() == 0 {
		t.Error("expected a reassignment off the drained worker")
	}
	if n := m.Counter(obs.MetricFailoverDeaths).Value(); n != 0 {
		t.Errorf("a graceful drain must not be charged as a death, got %d", n)
	}

	// Restart on the same address: the revival probe re-runs the fingerprint
	// handshake and re-admits the worker mid-run (its empty dedup cache is
	// fine — the seq protocol just recomputes).
	newTestWorker(t, g, addr1)
	// Partition 3 still points at the restarted worker's slot, so routing it
	// probes and rejoins.
	if _, err := tr.Exec(context.Background(), seedRequest(g, 2, 3)); err != nil {
		t.Fatalf("exec after rejoin: %v", err)
	}
	waitCounter(t, m, obs.MetricFailoverRejoins, 1)
	if !tr.peers[1].routable() {
		t.Error("rejoined worker should be routable again")
	}
}

// seedRequest is partition p's seed at superstep ss carrying the initial
// state: every owned vertex active, initial values, no messages.
func seedRequest(g *graph.Graph, ss, p int) *engine.ExecRequest {
	req := &engine.ExecRequest{Superstep: ss, Partition: p, Mode: engine.ModeSeed}
	prog := testProg()
	for v := p; v < g.NumVertices(); v += testParts {
		req.Active = append(req.Active, engine.VertexID(v))
		req.AllValues = append(req.AllValues, prog.InitialValue(g, engine.VertexID(v)))
		req.AllActive = append(req.AllActive, -1)
	}
	req.Inbox = make([][]engine.IncomingMessage, len(req.Active))
	return req
}

// TestPoolStateMachine drives the circuit breaker's transitions directly:
// failures suspect, success clears, budget kills exactly once, drains are
// sticky against deaths, and only live-ish states route.
func TestPoolStateMachine(t *testing.T) {
	m := obs.New()
	tr := &TCP{cfg: TCPConfig{Metrics: m}.normalize(), assign: map[int]int{}}
	p := newPeer(tr, "test:0")
	tr.peers = []*peer{p}

	if !p.routable() || p.state.String() != "healthy" {
		t.Fatalf("fresh peer should be routable and healthy, got %v", p.state)
	}
	p.noteFailure()
	if !p.routable() || p.state != stateSuspect {
		t.Fatalf("one failure should suspect, not unroute: %v", p.state)
	}
	p.noteSuccess()
	if p.state != stateHealthy || p.fails != 0 {
		t.Fatalf("success should clear the breaker: %v fails=%d", p.state, p.fails)
	}
	p.markDead("test")
	p.markDead("test again")
	if p.routable() {
		t.Error("dead peer must not route")
	}
	if n := m.Counter(obs.MetricFailoverDeaths).Value(); n != 1 {
		t.Errorf("death counted %d times, want once", n)
	}
	p.noteSuccess() // stale verdict raced a recovery
	if !p.routable() {
		t.Error("a successful exchange should restore a written-off peer")
	}
	p.markDraining()
	p.markDead("should not stick")
	if p.state != stateDraining {
		t.Errorf("a draining peer must not be re-declared dead: %v", p.state)
	}
	if n := m.Counter(obs.MetricFailoverDeaths).Value(); n != 1 {
		t.Errorf("drain-then-dead counted a death: %d", n)
	}
}

// TestReplyCacheFIFO pins the dedup cache contract: strict FIFO eviction,
// no double-insert, and a retransmit arriving after eviction simply misses
// (the worker recomputes — same bits, just slower).
func TestReplyCacheFIFO(t *testing.T) {
	c := newReplyCache(3)
	store := func(seq uint64, reply string) {
		t.Helper()
		if _, ok := c.claim(seq); ok {
			t.Fatalf("seq %d: claim hit a cached reply", seq)
		}
		c.finish(seq, []byte(reply))
	}
	// cached looks seq up; a miss claims the seq, so it aborts the claim.
	cached := func(seq uint64) (string, bool) {
		r, ok := c.claim(seq)
		if !ok {
			c.finish(seq, nil)
		}
		return string(r), ok
	}
	store(1, "a")
	store(2, "b")
	store(3, "c")
	// A second finish must not overwrite, reorder or duplicate the
	// eviction queue.
	c.finish(1, []byte("a2"))
	if r, ok := cached(1); !ok || r != "a" {
		t.Fatalf("dup finish overwrote: %q %v", r, ok)
	}
	store(4, "d") // evicts 1, the oldest
	if _, ok := cached(1); ok {
		t.Error("seq 1 should have been evicted first (FIFO)")
	}
	for seq, want := range map[uint64]string{2: "b", 3: "c", 4: "d"} {
		if r, ok := cached(seq); !ok || r != want {
			t.Errorf("seq %d: got %q %v, want %q", seq, r, ok, want)
		}
	}
	store(5, "e") // evicts 2
	if _, ok := cached(2); ok {
		t.Error("seq 2 should have been evicted second (FIFO)")
	}
	if len(c.replies) != 3 || len(c.order) != 3 || len(c.inflight) != 0 {
		t.Errorf("cache exceeded its bound: %d replies, %d order, %d in flight",
			len(c.replies), len(c.order), len(c.inflight))
	}
}

// TestReplyDedupAfterEviction exercises the worker path: a retransmit whose
// cached reply was evicted is recomputed, and — the request being a pure
// function — the recomputed reply is byte-identical to the original.
func TestReplyDedupAfterEviction(t *testing.T) {
	g := testGraph(t)
	w := newTestWorker(t, g, "127.0.0.1:0")
	tr := dialWorkers(t, g, []string{w.Addr()})
	defer tr.Close()
	p := tr.peers[0]
	req := &engine.ExecRequest{Superstep: 0, Partition: 0}
	payload := encodeExecRequest(req)

	first, _, err := p.roundTrip(context.Background(), req, 1, payload)
	if err != nil {
		t.Fatal(err)
	}
	// Push the seq-1 reply out of the worker's FIFO cache.
	for seq := uint64(2); seq < 2+replyCacheSize; seq++ {
		if _, _, err := p.roundTrip(context.Background(), req, seq, payload); err != nil {
			t.Fatal(err)
		}
	}
	// Retransmit seq 1: a cache miss now, so the worker recomputes.
	again, _, err := p.roundTrip(context.Background(), req, 1, payload)
	if err != nil {
		t.Fatal(err)
	}
	if !wireEqual(first, again) {
		t.Fatalf("post-eviction recompute diverged:\n  first %+v\n  again %+v", first, again)
	}
}

// TestHeartbeatDeclaresDead closes a worker under an armed heartbeat and
// checks the client notices within the miss budget.
func TestHeartbeatDeclaresDead(t *testing.T) {
	g := testGraph(t)
	m := obs.New()
	x, err := engine.NewExecutor(g, testProg(), engine.Config{Partitions: testParts, Combiner: analytics.SumCombiner})
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWorker(x, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	go w.Serve()
	tr := dialWorkers(t, g, []string{w.Addr()}, func(c *TCPConfig) {
		c.HeartbeatInterval = 10 * time.Millisecond
		c.HeartbeatMisses = 2
		c.Metrics = m
	})
	defer tr.Close()
	w.Close()
	deadline := time.Now().Add(2 * time.Second)
	for m.Counter(obs.MetricNetHeartbeatMiss).Value() == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if m.Counter(obs.MetricNetHeartbeatMiss).Value() == 0 {
		t.Error("heartbeat never noticed the dead peer")
	}
}

// TestHandshakeRejectsMismatch checks version-fingerprint agreement is
// enforced at dial time, not discovered mid-run.
func TestHandshakeRejectsMismatch(t *testing.T) {
	g := testGraph(t)
	addrs := startWorkers(t, g, 1, nil)
	cfg := TCPConfig{
		Addrs:       addrs,
		Fingerprint: Fingerprint{Partitions: testParts + 1, NumVertices: g.NumVertices(), NumEdges: g.NumEdges()},
	}
	tr, err := DialTCP(cfg)
	if err == nil {
		tr.Close()
		t.Fatal("want fingerprint mismatch error, got success")
	}
	if !errors.Is(err, engine.ErrTransport) {
		t.Errorf("mismatch error should wrap ErrTransport: %v", err)
	}
	if !strings.Contains(err.Error(), "handshake rejected: graph fingerprint mismatch") {
		t.Errorf("master should report the worker's refusal: %v", err)
	}

	// A mesh dial runs the same handshake and reports the refusal the same
	// way.
	other, err := engine.NewExecutor(g, testProg(), engine.Config{Partitions: testParts + 1})
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWorker(other, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	err = w.mesh.peer(addrs[0]).ensure()
	if err == nil || !strings.Contains(err.Error(), "handshake rejected: graph fingerprint mismatch") {
		t.Errorf("mesh dial to a worker of another partitioning: %v", err)
	}
}

// TestClosedWorkerDialsNoMeshPeer: an exec handler still in flight when its
// worker closes can reach the mesh, and must not open a peer connection
// there that nothing would ever tear down.
func TestClosedWorkerDialsNoMeshPeer(t *testing.T) {
	g := testGraph(t)
	a := newTestWorker(t, g, "127.0.0.1:0")
	b := newTestWorker(t, g, "127.0.0.1:0")
	a.Close()
	p := a.mesh.peer(b.Addr())
	if err := p.ensure(); err == nil {
		t.Error("a closed worker dialed a mesh peer")
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.conn != nil {
		p.conn.Close()
		t.Error("a closed worker left a mesh connection open")
	}
}

// TestHandshakeRejectsOtherVersions checks that a worker names the protocol
// version of a hello from another version, however much or little of the
// rest it carries, and that after a good handshake a frame of the retired
// snap-envelope type 13 is refused by its type without taking the worker
// down.
func TestHandshakeRejectsOtherVersions(t *testing.T) {
	g := testGraph(t)
	w := newTestWorker(t, g, "127.0.0.1:0")
	fp := w.fingerprint()
	dial := func(t *testing.T) net.Conn {
		t.Helper()
		conn, err := net.Dial("tcp", w.Addr())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { conn.Close() })
		conn.SetDeadline(time.Now().Add(5 * time.Second))
		return conn
	}
	// exchange sends one frame and reads the worker's answer.
	exchange := func(t *testing.T, conn net.Conn, typ byte, seq uint64, payload []byte) (byte, string) {
		t.Helper()
		if _, err := writeFrame(conn, typ, seq, payload); err != nil {
			t.Fatal(err)
		}
		rtyp, rseq, reply, _, err := readFrame(conn)
		if err != nil {
			t.Fatalf("no answer to frame %d: %v", typ, err)
		}
		if rseq != seq {
			t.Fatalf("answer to seq %d came with seq %d", seq, rseq)
		}
		return rtyp, string(reply)
	}

	v4 := value.NewBlob() // a version-4 hello: fingerprint, then the capability mask
	v4.Uvarint(4)
	v4.Uvarint(uint64(fp.Partitions))
	v4.Uvarint(uint64(fp.NumVertices))
	v4.Uvarint(uint64(fp.NumEdges))
	v4.Uvarint(1)
	v5 := value.NewBlob() // a version-5 hello: the fingerprint alone, as now
	v5.Uvarint(5)
	v5.Uvarint(uint64(fp.Partitions))
	v5.Uvarint(uint64(fp.NumVertices))
	v5.Uvarint(uint64(fp.NumEdges))
	v99 := value.NewBlob()
	v99.Uvarint(99)
	for name, tc := range map[string]struct {
		hello []byte
		peer  int
	}{"v4 with caps": {v4.Bytes(), 4}, "v5": {v5.Bytes(), 5}, "version 99 alone": {v99.Bytes(), 99}} {
		t.Run(name, func(t *testing.T) {
			typ, text := exchange(t, dial(t), frameHello, 0, tc.hello)
			want := fmt.Sprintf("protocol version mismatch: peer %d, ours %d", tc.peer, Version)
			if typ != frameError || !strings.Contains(text, want) {
				t.Errorf("answer frame %d %q, want frame %d naming %q", typ, text, frameError, want)
			}
		})
	}

	t.Run("retired frame type", func(t *testing.T) {
		conn := dial(t)
		if typ, text := exchange(t, conn, frameHello, 0, encodeHello(fp)); typ != frameWelcome {
			t.Fatalf("handshake: frame %d %q", typ, text)
		}
		typ, text := exchange(t, conn, 13, 1, []byte{frameExec})
		if want := "unexpected frame type 13"; typ != frameError || text != want {
			t.Errorf("answer frame %d %q, want frame %d %q", typ, text, frameError, want)
		}
		// The worker dropped that connection but still serves new ones.
		conn = dial(t)
		if typ, text := exchange(t, conn, frameHello, 0, encodeHello(fp)); typ != frameWelcome {
			t.Fatalf("handshake after the refused frame: frame %d %q", typ, text)
		}
		if typ, _ := exchange(t, conn, framePing, 2, nil); typ != framePong {
			t.Errorf("ping after the refused frame: frame %d, want pong", typ)
		}
	})
}

// TestExecCanceled checks a canceled context fails the exchange promptly
// with an error that supervision will not retry forever.
func TestExecCanceled(t *testing.T) {
	g := testGraph(t)
	addrs := startWorkers(t, g, 1, nil)
	tr := dialWorkers(t, g, addrs)
	defer tr.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := tr.Exec(ctx, &engine.ExecRequest{Superstep: 0, Partition: 0})
	if err == nil {
		t.Fatal("want error on canceled context")
	}
	if !errors.Is(err, engine.ErrTransport) || !errors.Is(err, context.Canceled) {
		t.Errorf("error should wrap ErrTransport and context.Canceled: %v", err)
	}
}

// TestWorkerRejectsMalformedFrames sends a worker frames that pass the CRC
// but that no correct master or peer sends: indexes outside the worker's
// partitioning, seeds of the wrong stride length, fragments addressed to
// vertices the destination does not own, and the classic request of a
// version-3 master. Each must be answered (or, for a fragment, refused) with
// an error frame, and the worker must keep serving — before validation most
// of these frames panicked the worker process.
func TestWorkerRejectsMalformedFrames(t *testing.T) {
	g := testGraph(t)
	type step struct {
		typ     byte
		payload []byte
		want    byte
	}
	exec := func(req *engine.ExecRequest, want byte) step {
		return step{frameExec, encodeExecRequest(req), want}
	}
	deliver := func(req *engine.DeliverRequest, want byte) step {
		return step{frameDeliver, encodeDeliverRequest(req), want}
	}
	// A valid superstep-0 exec of partition 0 on a fresh worker, so the
	// deliver rows below reach the fold.
	exec0 := exec(&engine.ExecRequest{Active: []engine.VertexID{0}}, frameResult)
	// Vertex 4000 is congruent to partition 0 but beyond the 128-vertex graph.
	const far = engine.VertexID(4000)
	seed := func(n int) *engine.ExecRequest {
		req := seedRequest(g, 0, 1)
		for len(req.AllValues) < n {
			req.AllValues = append(req.AllValues, value.NewFloat(0))
			req.AllActive = append(req.AllActive, -1)
		}
		req.AllValues, req.AllActive = req.AllValues[:n], req.AllActive[:n]
		return req
	}
	classic := value.NewBlob() // a version-3 master's mode-0 (classic) request
	classic.Uvarint(0)         // superstep
	classic.Uvarint(0)         // partition
	classic.Uvarint(0)         // mode 0: classic in version 3
	classic.Bool(false)        // observing
	classic.Bool(false)        // combine
	classic.Uvarint(1)         // one active vertex: id, value, last-active
	classic.Uvarint(4)
	classic.Value(value.NewFloat(0.25))
	classic.Int(-1)
	classic.Uvarint(0) // its inbox
	classic.Uvarint(0) // aggregators
	classic.Uvarint(0) // trace id
	classic.Uvarint(0) // parent span

	cases := map[string][]step{
		"exec partition out of range": {exec(&engine.ExecRequest{Partition: testParts}, frameError)},
		"exec vertex out of range":    {exec(&engine.ExecRequest{Active: []engine.VertexID{0, far}}, frameError)},
		"exec foreign vertex":         {exec(&engine.ExecRequest{Active: []engine.VertexID{1}}, frameError)},
		"exec descending":             {exec(&engine.ExecRequest{Active: []engine.VertexID{8, 4}}, frameError)},
		"seed stride short":           {exec(seed(1), frameError)},
		"seed stride long":            {exec(seed(33), frameError)},
		"v3 classic frame":            {{frameExec, classic.Bytes(), frameError}},
		"collect partition out of range": {
			deliver(&engine.DeliverRequest{CollectOnly: true, Parts: []int{testParts}}, frameError),
		},
		"deliver expected row too long": {exec0, deliver(&engine.DeliverRequest{
			Parts:       []int{0},
			Expected:    [][]int64{make([]int64, testParts+1)},
			MasterFrags: [][][]engine.OutMessage{nil},
		}, frameError)},
		"deliver master frag to foreign vertex": {exec0, deliver(&engine.DeliverRequest{
			Parts:       []int{0},
			Expected:    [][]int64{{1, 0, 0, 0}},
			MasterFrags: [][][]engine.OutMessage{{{{Src: 0, Dst: far, Val: value.NewFloat(1)}}, nil, nil, nil}},
		}, frameError)},
		"peer frag to foreign vertex": {
			{framePeerFrag, encodePeerFrag(&peerFrag{sp: 1, dp: 0, msgs: []engine.OutMessage{
				{Src: 1, Dst: far, Val: value.NewFloat(1)},
			}}), frameError},
			exec0,
			// The refused fragment is missing from the fold: OK=false, which
			// the master answers with a replay.
			deliver(&engine.DeliverRequest{
				Parts:       []int{0},
				Expected:    [][]int64{{0, 1, 0, 0}},
				MasterFrags: [][][]engine.OutMessage{nil},
			}, frameDeliverRes),
		},
	}
	for name, steps := range cases {
		t.Run(name, func(t *testing.T) {
			w := newTestWorker(t, g, "127.0.0.1:0")
			conn, err := net.Dial("tcp", w.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			conn.SetDeadline(time.Now().Add(5 * time.Second))
			fp := Fingerprint{Partitions: testParts, NumVertices: g.NumVertices(), NumEdges: g.NumEdges()}
			if _, err := writeFrame(conn, frameHello, 0, encodeHello(fp)); err != nil {
				t.Fatal(err)
			}
			if typ, _, _, _, err := readFrame(conn); err != nil || typ != frameWelcome {
				t.Fatalf("handshake: frame %d, %v", typ, err)
			}
			steps = append(steps, step{framePing, nil, framePong}) // still serving
			for i, s := range steps {
				seq := uint64(i + 1)
				if _, err := writeFrame(conn, s.typ, seq, s.payload); err != nil {
					t.Fatalf("step %d: send: %v", i, err)
				}
				typ, got, payload, _, err := readFrame(conn)
				if err != nil {
					t.Fatalf("step %d: no reply (worker gone?): %v", i, err)
				}
				if typ != s.want || got != seq {
					t.Fatalf("step %d: reply frame %d seq %d (%q), want frame %d seq %d",
						i, typ, got, payload, s.want, seq)
				}
			}
		})
	}
}
