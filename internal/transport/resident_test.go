package transport

import (
	"testing"
	"time"

	"ariadne/internal/analytics"
	"ariadne/internal/engine"
	"ariadne/internal/fault"
	"ariadne/internal/graph"
	"ariadne/internal/obs"
	"ariadne/internal/supervise"
	"ariadne/internal/value"
)

// TestWireDeltaSeedRoundTrip pins the resident request layouts:
// a delta request (active ids + route only) and a seed request (full stride
// state) must both decode back field-identical.
func TestWireDeltaSeedRoundTrip(t *testing.T) {
	delta := &engine.ExecRequest{
		Superstep: 4, Partition: 2, Mode: engine.ModeDelta,
		Observing: true, Combine: true,
		Active:  []engine.VertexID{2, 6, 14},
		Route:   []string{"", ".", "10.0.0.2:9", "."},
		Agg:     map[string]float64{"mass": 0.75},
		TraceID: 7, ParentSpan: 9,
	}
	rt, err := decodeExecRequest(encodeExecRequest(delta))
	if err != nil {
		t.Fatal(err)
	}
	if !wireEqual(delta, rt) {
		t.Fatalf("delta roundtrip mismatch:\n  in  %+v\n  out %+v", delta, rt)
	}

	seed := &engine.ExecRequest{
		Superstep: 5, Partition: 1, Mode: engine.ModeSeed,
		Active: []engine.VertexID{1, 9},
		Route:  []string{".", "", ".", "host:1"},
		AllValues: []value.Value{
			value.NewFloat(0.5), value.NewVector([]float64{1, 2}), value.NewString("s"),
		},
		AllActive: []int32{-1, 4, 0},
		Inbox: [][]engine.IncomingMessage{
			{{Src: 3, Val: value.NewFloat(0.25)}},
			nil,
		},
	}
	rt, err = decodeExecRequest(encodeExecRequest(seed))
	if err != nil {
		t.Fatal(err)
	}
	if !wireEqual(seed, rt) {
		t.Fatalf("seed roundtrip mismatch:\n  in  %+v\n  out %+v", seed, rt)
	}
}

// TestWireResidentResultRoundTrip pins the result's resident fields: the
// StateMiss short-circuit and the per-destination fan-out counts a result
// carries in place of its peer-routed columns.
func TestWireResidentResultRoundTrip(t *testing.T) {
	miss := &engine.ExecResult{Partition: 3, StateMiss: true}
	rt, err := decodeExecResult(encodeExecResult(miss))
	if err != nil {
		t.Fatal(err)
	}
	if !wireEqual(miss, rt) {
		t.Fatalf("state-miss roundtrip mismatch: %+v vs %+v", rt, miss)
	}

	res := &engine.ExecResult{
		Partition: 1,
		Outbox:    [][]engine.OutMessage{nil, {{Src: 5, Dst: 2, Val: value.NewInt(1)}}},
		Sent:      4, CombinedSender: 1,
		DstCounts: []int64{0, 1, 3, 0},
	}
	rt, err = decodeExecResult(encodeExecResult(res))
	if err != nil {
		t.Fatal(err)
	}
	if !wireEqual(res, rt) {
		t.Fatalf("dst-counts roundtrip mismatch:\n  in  %+v\n  out %+v", res, rt)
	}
}

// TestWireDeliverRoundTrip pins the deliver-round frames: the request with
// expected counts and master-relayed fragments (plus the collect-only
// variant) and the per-partition result.
func TestWireDeliverRoundTrip(t *testing.T) {
	req := &engine.DeliverRequest{
		Superstep: 6, Combine: true,
		Parts:    []int{1, 3},
		Expected: [][]int64{{2, 0, 1, 0}, {0, 0, 0, 4}},
		MasterFrags: [][][]engine.OutMessage{
			{{{Src: 0, Dst: 1, Val: value.NewFloat(0.5)}, {Src: 4, Dst: 9, Val: value.NewInt(2)}}, nil, nil, nil},
			{nil, nil, nil, {{Src: 2, Dst: 3, Val: value.NewString("x")}}},
		},
		TraceID: 11, ParentSpan: 13,
	}
	rt, err := decodeDeliverRequest(encodeDeliverRequest(req))
	if err != nil {
		t.Fatal(err)
	}
	if !wireEqual(req, rt) {
		t.Fatalf("deliver request roundtrip mismatch:\n  in  %+v\n  out %+v", req, rt)
	}

	collect := &engine.DeliverRequest{Superstep: 9, CollectOnly: true, Parts: []int{0, 2}}
	rt, err = decodeDeliverRequest(encodeDeliverRequest(collect))
	if err != nil {
		t.Fatal(err)
	}
	if !wireEqual(collect, rt) {
		t.Fatalf("collect request roundtrip mismatch:\n  in  %+v\n  out %+v", collect, rt)
	}

	res := &engine.DeliverResult{Parts: []engine.DeliverPart{
		{Partition: 1, OK: true, Delivered: 3, Combined: 1, Dsts: []engine.VertexID{1, 5}},
		{Partition: 3}, // not OK: no body follows
		{Partition: 0, OK: true, Dsts: []engine.VertexID{},
			Values: []value.Value{value.NewFloat(1), value.NullValue},
			Inbox: []engine.InboxChunk{{Dst: 4, Msgs: []engine.IncomingMessage{
				{Src: 2, Val: value.NewFloat(0.125)},
			}}}},
	}}
	rtr, err := decodeDeliverResult(encodeDeliverResult(res))
	if err != nil {
		t.Fatal(err)
	}
	if !wireEqual(res, rtr) {
		t.Fatalf("deliver result roundtrip mismatch:\n  in  %+v\n  out %+v", res, rtr)
	}
}

// TestWirePeerFragRoundTrip pins the worker-to-worker fragment frame.
func TestWirePeerFragRoundTrip(t *testing.T) {
	f := &peerFrag{ss: 3, sp: 1, dp: 2, msgs: []engine.OutMessage{
		{Src: 5, Dst: 6, Val: value.NewFloat(0.5)},
		{Src: 9, Dst: 6, Val: value.NewVector([]float64{1, -1})},
	}}
	rt, err := decodePeerFrag(encodePeerFrag(f))
	if err != nil {
		t.Fatal(err)
	}
	if !wireEqual(f, rt) {
		t.Fatalf("peer frag roundtrip mismatch:\n  in  %+v\n  out %+v", f, rt)
	}
}

// TestNetPeerFaultMatrix drives every canonical worker-mesh fault through a
// real resident-state run: dropped, delayed, duplicated, and reset peer
// sends, plus a receiver that drops stored fragments after acking. Every
// scenario must finish bit-identically — via the master-relay fallback, the
// frag store's keep-first dedup, or checkpoint-free replay — with no
// partition pinned local and no capture shed.
func TestNetPeerFaultMatrix(t *testing.T) {
	g := testGraph(t)
	refE, refStats, refObs, err := runLeg(t, g, engine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	const faultPart = 1
	for name, rules := range fault.NetMatrixPeer(faultPart, 1, 2*time.Millisecond) {
		t.Run(name, func(t *testing.T) {
			m := obs.New()
			wm := obs.New() // worker-side registry: mesh traffic counts here
			inj := fault.NewInjector(rules...)
			// The injector rides on the workers: peer.send and peer.recv are
			// worker-side sites, consulted on the mesh, not the master link.
			addrs := startMeshWorkers(t, g, 2, wm, func(int) engine.Config {
				return engine.Config{Partitions: testParts, Combiner: analytics.SumCombiner, Fault: inj}
			})
			tr := dialWorkers(t, g, addrs, func(c *TCPConfig) {
				c.MessageDeadline = 200 * time.Millisecond
				c.MaxRetries = 2
				c.Backoff = time.Millisecond
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
			if wm.Counter(obs.MetricNetPeerFrags).Value() == 0 {
				t.Errorf("%s: no fragment crossed the worker mesh", name)
			}
			if n := m.Counter(obs.MetricNetLocalFallbacks).Value(); n != 0 {
				t.Errorf("%s: %d local fallbacks; peer faults must be absorbed in the pool", name, n)
			}
			if deg.AnyShed() {
				t.Errorf("%s: capture shed; peer faults must not degrade capture", name)
			}
		})
	}
}

// startMeshWorkers is startWorkers with a worker-side metrics registry, so
// tests can assert on mesh traffic (peer frags are counted where they are
// sent — on the workers, not the master).
func startMeshWorkers(t *testing.T, g *graph.Graph, n int, wm *obs.Metrics, wcfg func(i int) engine.Config) []string {
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
		w, err := NewWorker(x, "127.0.0.1:0", wm)
		if err != nil {
			t.Fatal(err)
		}
		go w.Serve()
		t.Cleanup(func() { w.Close() })
		addrs[i] = w.Addr()
	}
	return addrs
}

// TestChaosKillMidDeltaStream is the directed seed of the chaos soak: a
// worker holding resident state is killed mid-superstep — after it has
// received delta requests and shipped fragments to its peer, before the
// barrier — with checkpoints on. The survivor re-hydrates the lost
// partitions from the last checkpoint blob plus replayed supersteps, and
// the run must stay bit-identical: values, observer records, message
// accounting, zero capture gaps, zero local fallbacks.
func TestChaosKillMidDeltaStream(t *testing.T) {
	g := testGraph(t)
	refE, refStats, refObs, err := runLeg(t, g, engine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	m := obs.New()
	w0 := newTestWorker(t, g, "127.0.0.1:0")
	w1 := newTestWorker(t, g, "127.0.0.1:0")
	w1.KillAfter(5) // dies mid-stream during the third superstep of its partitions

	tr := dialWorkers(t, g, []string{w0.Addr(), w1.Addr()}, func(c *TCPConfig) {
		c.MessageDeadline = 200 * time.Millisecond
		c.MaxRetries = 1
		c.Backoff = time.Millisecond
		c.Metrics = m
	})
	defer tr.Close()
	deg := supervise.NewDegradeState(1)
	e, stats, o, err := runLeg(t, g, engine.Config{
		Transport:  tr,
		Supervise:  &supervise.Config{MaxRetries: 1, Backoff: time.Millisecond},
		Degrade:    deg,
		Metrics:    m,
		Checkpoint: &engine.CheckpointConfig{Dir: t.TempDir(), Interval: 2},
	})
	if err != nil {
		t.Fatalf("run with mid-stream kill failed: %v", err)
	}
	assertIdentical(t, "kill-mid-delta", refE, e, refStats, stats, refObs, o)
	if m.Counter(obs.MetricFailoverDeaths).Value() == 0 {
		t.Error("expected the killed worker to be declared dead")
	}
	if m.Counter(obs.MetricNetStateReseeds).Value() == 0 {
		t.Error("expected the survivor to be re-seeded with the lost partitions' state")
	}
	if n := m.Counter(obs.MetricNetLocalFallbacks).Value(); n != 0 {
		t.Errorf("failover + re-hydration should preempt local fallback, got %d", n)
	}
	if deg.AnyShed() {
		t.Error("re-hydration preserves capture; nothing should be shed")
	}
}
