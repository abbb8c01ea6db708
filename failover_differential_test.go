package ariadne_test

import (
	"testing"
	"time"

	"ariadne"
	"ariadne/internal/analytics"
	"ariadne/internal/engine"
	"ariadne/internal/gen"
	"ariadne/internal/graph"
	"ariadne/internal/obs"
	"ariadne/internal/queries"
	"ariadne/internal/transport"
)

// The failover differential at the public API boundary: a distributed run
// that loses one worker mid-run (abruptly — no drain) and sees it rejoin a
// few supersteps later must be indistinguishable from the undisturbed
// in-process run — bit-identical values, tuple-identical provenance, ZERO
// capture gaps (failover re-executes on a survivor; nothing is shed), and
// identical results for every paper query. Only when the whole pool dies
// may the engine fall to pin-local execution, and then the shed capture
// must be accounted as gaps.

// failoverWorker is one worker with a stable address across restarts.
type failoverWorker struct {
	t     *testing.T
	g     *graph.Graph
	parts int
	addr  string
	w     *transport.Worker
}

func (s *failoverWorker) start() {
	s.t.Helper()
	x, err := engine.NewExecutor(s.g, emitSSSP{&analytics.SSSP{}}, engine.Config{Partitions: s.parts})
	if err != nil {
		s.t.Fatal(err)
	}
	w, err := transport.NewWorker(x, s.addr, nil)
	if err != nil {
		s.t.Fatal(err)
	}
	s.addr = w.Addr()
	s.w = w
	go w.Serve()
	s.t.Cleanup(func() { w.Close() })
}

// killRejoin kills the target worker at the kill barrier and restarts it
// at the rejoin barrier, so the loss and the comeback both land mid-run.
type killRejoin struct {
	killAt, rejoinAt int
	target           *failoverWorker
}

func (o *killRejoin) NeedsRawMessages() bool                         { return false }
func (*killRejoin) ObservePartition(int, int, []engine.VertexRecord) {}
func (o *killRejoin) Finish(int) error                               { return nil }
func (o *killRejoin) ObserveSuperstep(v *engine.SuperstepView) error {
	switch v.Superstep {
	case o.killAt:
		o.target.w.Close()
	case o.rejoinAt:
		o.target.start()
	}
	return nil
}

func TestFailoverDifferentialAPI(t *testing.T) {
	g, err := gen.RMAT(gen.DefaultRMAT(7, 4, 23))
	if err != nil {
		t.Fatal(err)
	}
	const parts = 8
	commonOpts := func() []ariadne.Option {
		return []ariadne.Option{
			ariadne.WithMaxSupersteps(30),
			ariadne.WithPartitions(parts),
			ariadne.WithCaptureQuery(queries.CaptureFull(), ariadne.StoreConfig{}),
		}
	}

	base, err := ariadne.Run(g, emitSSSP{&analytics.SSSP{}}, commonOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	defer base.Provenance.Close()
	if base.Stats.Supersteps < 5 {
		t.Fatalf("reference run too short (%d supersteps) to kill and rejoin mid-run", base.Stats.Supersteps)
	}

	const nw = 3
	workers := make([]*failoverWorker, nw)
	addrs := make([]string, nw)
	for i := range workers {
		workers[i] = &failoverWorker{t: t, g: g, parts: parts, addr: "127.0.0.1:0"}
		workers[i].start()
		addrs[i] = workers[i].addr
	}
	m := ariadne.NewMetrics()
	tr, err := transport.DialTCP(transport.TCPConfig{
		Addrs: addrs,
		Fingerprint: transport.Fingerprint{
			Partitions:  parts,
			NumVertices: g.NumVertices(),
			NumEdges:    g.NumEdges(),
		},
		MessageDeadline:   200 * time.Millisecond,
		MaxRetries:        1,
		Backoff:           time.Millisecond,
		HeartbeatInterval: 20 * time.Millisecond,
		HeartbeatMisses:   2,
		Metrics:           m,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()

	// Worker 1 dies after superstep 1 and comes back after superstep 3:
	// its partitions fail over, then it rejoins for the tail of the run.
	res, err := ariadne.Run(g, emitSSSP{&analytics.SSSP{}}, append(commonOpts(),
		ariadne.WithTransport(tr),
		ariadne.WithMetrics(m),
		ariadne.WithObserver(&killRejoin{killAt: 1, rejoinAt: 3, target: workers[1]}),
		ariadne.WithSupervision(ariadne.SuperviseConfig{
			MaxRetries: 2, Backoff: time.Millisecond, DegradeCaptureAfter: 1,
		}))...)
	if err != nil {
		t.Fatalf("failover run: %v", err)
	}
	defer res.Provenance.Close()

	assertSameRun(t, "failover", base, res)
	assertSameProvenance(t, base.Provenance, res.Provenance)
	if len(res.CaptureGaps) != 0 {
		t.Errorf("capture gaps %v: failover must preserve capture, not shed it", res.CaptureGaps)
	}
	if n := res.NetStats[obs.MetricNetLocalFallbacks]; n != 0 {
		t.Errorf("%d local fallbacks: survivors should have absorbed the dead worker's partitions", n)
	}
	if res.NetStats[obs.MetricFailoverDeaths] == 0 {
		t.Error("expected the killed worker to be declared dead")
	}
	if res.NetStats[obs.MetricFailoverReassignments] == 0 {
		t.Error("expected the dead worker's partitions to be reassigned")
	}
	// The restarted worker rejoins via a fresh fingerprint handshake —
	// driven by the heartbeat redial, so poll briefly: the run may have
	// finished on the survivors before the probe landed.
	deadline := time.Now().Add(2 * time.Second)
	for m.Counter(obs.MetricFailoverRejoins).Value() == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if m.Counter(obs.MetricFailoverRejoins).Value() == 0 {
		t.Error("restarted worker never rejoined the pool")
	}

	// Every paper query must read identically from both stores, agreeing
	// even on evaluability.
	for _, def := range paperQueries() {
		qb, errB := ariadne.QueryOffline(def, base.Provenance, g, ariadne.ModeLayered, 0)
		qf, errF := ariadne.QueryOffline(def, res.Provenance, g, ariadne.ModeLayered, 0)
		if (errB == nil) != (errF == nil) {
			t.Fatalf("query %s: inproc err=%v, failover err=%v", def.Name, errB, errF)
		}
		if errB != nil {
			continue
		}
		sameQueryResults(t, qf, qb)
	}
}

// TestFailoverPoolExhausted kills the whole pool mid-run at the public API:
// with no survivor to fail over to, the run must still finish bit-identical
// via pin-local execution, with the shed capture accounted as gaps and the
// fallback visible in the net stats.
func TestFailoverPoolExhausted(t *testing.T) {
	g, err := gen.RMAT(gen.DefaultRMAT(7, 4, 23))
	if err != nil {
		t.Fatal(err)
	}
	const parts = 8
	commonOpts := func() []ariadne.Option {
		return []ariadne.Option{
			ariadne.WithMaxSupersteps(30),
			ariadne.WithPartitions(parts),
			ariadne.WithCaptureQuery(queries.CaptureFull(), ariadne.StoreConfig{}),
		}
	}
	base, err := ariadne.Run(g, emitSSSP{&analytics.SSSP{}}, commonOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	defer base.Provenance.Close()

	const nw = 2
	workers := make([]*failoverWorker, nw)
	addrs := make([]string, nw)
	for i := range workers {
		workers[i] = &failoverWorker{t: t, g: g, parts: parts, addr: "127.0.0.1:0"}
		workers[i].start()
		addrs[i] = workers[i].addr
	}
	m := ariadne.NewMetrics()
	tr, err := transport.DialTCP(transport.TCPConfig{
		Addrs: addrs,
		Fingerprint: transport.Fingerprint{
			Partitions:  parts,
			NumVertices: g.NumVertices(),
			NumEdges:    g.NumEdges(),
		},
		MessageDeadline: 100 * time.Millisecond,
		MaxRetries:      1,
		Backoff:         time.Millisecond,
		Metrics:         m,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()

	res, err := ariadne.Run(g, emitSSSP{&analytics.SSSP{}}, append(commonOpts(),
		ariadne.WithTransport(tr),
		ariadne.WithMetrics(m),
		ariadne.WithObserver(&killRejoin{killAt: 1, rejoinAt: -1, target: workers[0]}),
		ariadne.WithObserver(&killRejoin{killAt: 1, rejoinAt: -1, target: workers[1]}),
		ariadne.WithSupervision(ariadne.SuperviseConfig{
			MaxRetries: 2, Backoff: time.Millisecond, DegradeCaptureAfter: 1,
		}))...)
	if err != nil {
		t.Fatalf("pool-exhausted run: %v", err)
	}
	defer res.Provenance.Close()

	// Values and message accounting still bit-identical: pin-local
	// re-executes the same pure requests on the master.
	assertSameRun(t, "pool-exhausted", base, res)
	if n := res.NetStats[obs.MetricNetLocalFallbacks]; n == 0 {
		t.Error("expected pin-local fallbacks once the whole pool died")
	}
	if len(res.CaptureGaps) == 0 {
		t.Error("pin-local partitions shed capture; the gaps must be accounted")
	}
}
