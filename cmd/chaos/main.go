// Command chaos is the seeded chaos-soak harness for the distributed
// runtime: it runs an analytic twice — once undisturbed in process, once
// over a pool of TCP workers while a deterministic, seed-derived schedule
// of worker kills, restarts, link delays, and connection resets plays out
// at the superstep barriers — and then requires the disturbed run to be
// indistinguishable where it must be:
//
//   - final vertex values bit-identical to the undisturbed run;
//   - provenance layers tuple-identical (failover re-executes the lost
//     partition on a survivor, so capture is preserved, not shed);
//   - zero capture gaps and zero master-local fallbacks — the recovery
//     ladder must stop at in-pool failover while any worker survives;
//   - failover counters consistent with the schedule: at least one death
//     and one reassignment observed, never more deaths than kills nor more
//     rejoins than restarts.
//
// The verdict and the full accounting are written as JSON (-out), and the
// exit status is non-zero on any mismatch, so CI can archive the report
// and fail the build. A failing seed replays exactly: the schedule is a
// pure function of (seed, workers, supersteps, partitions).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"reflect"
	"time"

	"ariadne"
	"ariadne/internal/analytics"
	"ariadne/internal/engine"
	"ariadne/internal/fault"
	"ariadne/internal/gen"
	"ariadne/internal/graph"
	"ariadne/internal/obs"
	"ariadne/internal/queries"
	"ariadne/internal/transport"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "chaos:", err)
		os.Exit(1)
	}
}

// workerProc is one soak worker with a stable address across restarts, the
// in-process stand-in for an "ariadne worker" OS process.
type workerProc struct {
	addr string
	w    *transport.Worker
	mk   func() (*engine.Executor, error)
}

func (p *workerProc) start() error {
	// A mid-stream kill is armed, not immediate: a worker left idle by sticky
	// failover may never serve the triggering exec and still hold its port at
	// restart time. Sever it first — Close is a no-op if the arm already
	// fired — so the relisten on the stable address always succeeds.
	if p.w != nil {
		p.w.Close()
	}
	x, err := p.mk()
	if err != nil {
		return err
	}
	w, err := transport.NewWorker(x, p.addr, nil)
	if err != nil {
		return err
	}
	p.addr = w.Addr()
	p.w = w
	go w.Serve()
	return nil
}

// kill severs the worker abruptly: listener and connections closed, no
// reply, no drain frame — the kill -9 of the schedule.
func (p *workerProc) kill() { p.w.Close() }

// driver applies the schedule's kill/restart events at superstep barriers.
// Events for superstep s fire at the barrier that completes s, so their
// effect lands in superstep s+1 — always mid-run, never mid-exchange.
type driver struct {
	plan    fault.ChaosSchedule
	workers []*workerProc
	next    int
	applied []string
	err     error
}

func (d *driver) Reads() engine.Fields                           { return 0 }
func (*driver) ObservePartition(int, int, []engine.VertexRecord) {}
func (d *driver) Finish(int) error                               { return nil }

func (d *driver) ObserveSuperstep(v *engine.SuperstepView) error {
	for d.next < len(d.plan.Events) && d.plan.Events[d.next].Superstep <= v.Superstep {
		ev := d.plan.Events[d.next]
		d.next++
		switch ev.Action {
		case fault.ChaosKill:
			d.workers[ev.Worker].kill()
		case fault.ChaosKillMid:
			// Arm the worker to die after serving one more exec: the death
			// lands inside the next superstep's delta stream, after its
			// fragments may have partially routed, not cleanly at a barrier.
			w := d.workers[ev.Worker].w
			w.KillAfter(int(w.Execs()) + 1)
		case fault.ChaosRestart:
			if err := d.workers[ev.Worker].start(); err != nil {
				// Failing to restart breaks the schedule's ends-alive
				// invariant; abort rather than soak a different scenario.
				d.err = fmt.Errorf("restart worker %d: %w", ev.Worker, err)
				return d.err
			}
		default:
			continue // delay/reset ride in the transport's fault injector
		}
		d.applied = append(d.applied,
			fmt.Sprintf("ss=%d %s worker %d", v.Superstep, ev.Action, ev.Worker))
	}
	return nil
}

// report is the CHAOS_<seed>.json archive: the schedule, what fired, every
// failover counter, and the verdict.
type report struct {
	Seed       int64                `json:"seed"`
	Workers    int                  `json:"workers"`
	Partitions int                  `json:"partitions"`
	Supersteps int                  `json:"supersteps"`
	Analytic   string               `json:"analytic"`
	Dataset    string               `json:"dataset"`
	Plan       fault.ChaosSchedule  `json:"plan"`
	Applied    []string             `json:"applied"`
	NetStats   map[string]int64     `json:"net_stats"`
	Gaps       []ariadne.CaptureGap `json:"capture_gaps,omitempty"`
	Failures   []string             `json:"failures,omitempty"`
	OK         bool                 `json:"ok"`
}

func run() error {
	seed := flag.Int64("seed", 1, "chaos schedule seed (same seed, same disturbances)")
	nWorkers := flag.Int("workers", 3, "TCP workers in the pool (>= 2 so kills leave a survivor)")
	supersteps := flag.Int("supersteps", 20, "PageRank iterations / superstep horizon for the schedule")
	analytic := flag.String("analytic", "pagerank", "pagerank, sssp, or wcc")
	dataset := flag.String("dataset", "IN-04", "built-in dataset name")
	size := flag.Int("size", 0, "dataset size factor")
	partitions := flag.Int("partitions", 8, "partition count")
	killMid := flag.Bool("kill-mid", false,
		"turn every scheduled kill into a mid-delta-stream kill (the worker dies "+
			"while serving the next superstep, not cleanly at a barrier) and "+
			"checkpoint the soak run so recovery re-hydrates worker-resident "+
			"state from the last checkpoint blob plus replayed supersteps")
	out := flag.String("out", "", "report JSON path (default CHAOS_<seed>.json)")
	flag.Parse()
	if *out == "" {
		*out = fmt.Sprintf("CHAOS_%d.json", *seed)
	}
	if *nWorkers < 2 {
		return fmt.Errorf("-workers %d: the soak needs at least 2 so a kill leaves a survivor", *nWorkers)
	}

	d, err := gen.FindDataset(*dataset, *size-4) // same scaling as cmd/ariadne
	if err != nil {
		return err
	}
	g, err := d.Build()
	if err != nil {
		return err
	}
	mkProg, g, baseOpts, err := buildAnalytic(*analytic, g, *supersteps)
	if err != nil {
		return err
	}
	opts := func() []ariadne.Option {
		return append(append([]ariadne.Option{},
			ariadne.WithPartitions(*partitions),
			ariadne.WithCaptureQuery(queries.CaptureFull(), ariadne.StoreConfig{})),
			baseOpts...)
	}

	// Leg 1: the undisturbed in-process reference.
	base, err := ariadne.Run(g, mkProg(), opts()...)
	if err != nil {
		return fmt.Errorf("reference run: %w", err)
	}
	defer base.Provenance.Close()

	// The schedule horizon is the run's real superstep count: an analytic
	// that converges early (sssp, wcc) would otherwise outlive its chaos.
	plan := fault.ChaosPlan(*seed, *nWorkers, base.Stats.Supersteps, *partitions)
	if plan.Kills() == 0 {
		return fmt.Errorf("seed %d yields no kill over %d supersteps; nothing would be soaked",
			*seed, base.Stats.Supersteps)
	}
	if *killMid {
		plan = plan.MidStream()
	}
	restarts := 0
	for _, ev := range plan.Events {
		if ev.Action == fault.ChaosRestart {
			restarts++
		}
	}

	// Leg 2: the same run over a worker pool with the schedule playing out.
	workers := make([]*workerProc, *nWorkers)
	addrs := make([]string, *nWorkers)
	for i := range workers {
		p := &workerProc{addr: "127.0.0.1:0", mk: func() (*engine.Executor, error) {
			return engine.NewExecutor(g, mkProg(), engine.Config{Partitions: *partitions})
		}}
		if err := p.start(); err != nil {
			return err
		}
		defer p.w.Close()
		workers[i] = p
		addrs[i] = p.addr
	}
	m := ariadne.NewMetrics()
	tr, err := transport.DialTCP(transport.TCPConfig{
		Addrs: addrs,
		Fingerprint: transport.Fingerprint{
			Partitions:  *partitions,
			NumVertices: g.NumVertices(),
			NumEdges:    g.NumEdges(),
		},
		// A killed worker fails fast through its closed connection — dead
		// peers cost refused dials, not expired deadlines — so the deadline
		// and miss budget can stay generous: tight values would misread
		// race-detector or loaded-CI slowness as deaths and wreck the
		// soak's exact failover accounting. The heartbeat's job here is the
		// restarted worker's prompt redial+rejoin, and 100ms does that.
		MessageDeadline:   2 * time.Second,
		MaxRetries:        2,
		Backoff:           time.Millisecond,
		HeartbeatInterval: 100 * time.Millisecond,
		HeartbeatMisses:   5,
		Fault:             fault.NewInjector(plan.NetRules()...),
		Metrics:           m,
	})
	if err != nil {
		return err
	}
	defer tr.Close()
	drv := &driver{plan: plan, workers: workers}
	soakOpts := append(opts(),
		ariadne.WithTransport(tr),
		ariadne.WithMetrics(m),
		ariadne.WithObserver(drv),
		ariadne.WithSupervision(ariadne.SuperviseConfig{
			MaxRetries: 2, Backoff: time.Millisecond, DegradeCaptureAfter: 1,
		}))
	if *killMid {
		// Checkpoint the soak leg so a mid-stream death re-hydrates the lost
		// partitions from the last checkpoint blob plus replayed supersteps —
		// the recovery path under test — rather than replaying from zero.
		ckDir, err := os.MkdirTemp("", "chaos-ck-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(ckDir)
		soakOpts = append(soakOpts, ariadne.WithCheckpoint(ckDir, 3))
	}
	soak, err := ariadne.Run(g, mkProg(), soakOpts...)
	if drv.err != nil {
		return drv.err
	}
	if err != nil {
		return fmt.Errorf("soak run (seed %d): %w", *seed, err)
	}
	defer soak.Provenance.Close()

	rep := report{
		Seed: *seed, Workers: *nWorkers, Partitions: *partitions,
		Supersteps: base.Stats.Supersteps, Analytic: *analytic, Dataset: *dataset,
		Plan: plan, Applied: drv.applied, NetStats: soak.NetStats, Gaps: soak.CaptureGaps,
	}
	fail := func(format string, args ...any) {
		rep.Failures = append(rep.Failures, fmt.Sprintf(format, args...))
	}

	// Differential: the soak must be indistinguishable from the reference.
	if base.Stats.Supersteps != soak.Stats.Supersteps {
		fail("supersteps %d != reference %d", soak.Stats.Supersteps, base.Stats.Supersteps)
	}
	if base.Stats.MessagesSent != soak.Stats.MessagesSent ||
		base.Stats.MessagesDelivered != soak.Stats.MessagesDelivered {
		fail("message accounting %d/%d != reference %d/%d",
			soak.Stats.MessagesSent, soak.Stats.MessagesDelivered,
			base.Stats.MessagesSent, base.Stats.MessagesDelivered)
	}
	for v := range base.Values {
		if !reflect.DeepEqual(base.Values[v].AppendBinary(nil), soak.Values[v].AppendBinary(nil)) {
			fail("vertex %d value %v != reference %v (must be bit-identical)", v, soak.Values[v], base.Values[v])
			break
		}
	}
	if base.Provenance.NumLayers() != soak.Provenance.NumLayers() {
		fail("provenance layers %d != reference %d", soak.Provenance.NumLayers(), base.Provenance.NumLayers())
	} else {
		if base.Provenance.TotalTuples() != soak.Provenance.TotalTuples() {
			fail("provenance tuples %d != reference %d", soak.Provenance.TotalTuples(), base.Provenance.TotalTuples())
		}
		for i := 0; i < base.Provenance.NumLayers(); i++ {
			lb, errB := base.Provenance.Layer(i)
			ls, errS := soak.Provenance.Layer(i)
			if errB != nil || errS != nil {
				fail("layer %d read: ref %v, soak %v", i, errB, errS)
				break
			}
			if !reflect.DeepEqual(lb, ls) {
				fail("provenance layer %d differs from reference", i)
				break
			}
		}
	}

	// Accounting: failover, not shedding, must have absorbed every kill.
	if len(soak.CaptureGaps) != 0 {
		fail("capture gaps %v: failover should preserve capture with survivors in the pool", soak.CaptureGaps)
	}
	if n := soak.NetStats[obs.MetricNetLocalFallbacks]; n != 0 {
		fail("%d master-local fallbacks: the ladder must stop at in-pool failover", n)
	}
	deaths := soak.NetStats[obs.MetricFailoverDeaths]
	reassigns := soak.NetStats[obs.MetricFailoverReassignments]
	rejoins := soak.NetStats[obs.MetricFailoverRejoins]
	if deaths == 0 {
		fail("no worker death recorded despite %d scheduled kills", plan.Kills())
	}
	if reassigns == 0 {
		fail("no partition reassignment recorded despite %d scheduled kills", plan.Kills())
	}
	if deaths > int64(plan.Kills()) {
		fail("%d deaths recorded for %d kills: deaths double-counted", deaths, plan.Kills())
	}
	if rejoins > int64(restarts) {
		fail("%d rejoins recorded for %d restarts: rejoins double-counted", rejoins, restarts)
	}
	if *killMid && soak.NetStats[obs.MetricNetStateReseeds] == 0 {
		fail("no resident-state reseed recorded despite %d mid-stream kills: "+
			"the re-hydration path was not exercised", plan.Kills())
	}

	rep.OK = len(rep.Failures) == 0
	blob, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(*out, append(blob, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("chaos seed=%d workers=%d kills=%d restarts=%d deaths=%d reassignments=%d rejoins=%d drains=%d -> %s\n",
		*seed, *nWorkers, plan.Kills(), restarts, deaths, reassigns, rejoins,
		soak.NetStats[obs.MetricFailoverDrains], *out)
	if !rep.OK {
		for _, f := range rep.Failures {
			fmt.Fprintln(os.Stderr, "chaos: FAIL:", f)
		}
		return fmt.Errorf("seed %d: %d differential failure(s)", *seed, len(rep.Failures))
	}
	fmt.Println("chaos: soak run bit-identical to the undisturbed reference; all failovers accounted")
	return nil
}

// buildAnalytic mirrors cmd/ariadne: a program factory (each executor gets
// a fresh instance), the possibly-transformed graph, and analytic-specific
// options.
func buildAnalytic(name string, g *graph.Graph, supersteps int) (func() ariadne.Program, *graph.Graph, []ariadne.Option, error) {
	switch name {
	case "pagerank":
		return func() ariadne.Program { return &analytics.PageRank{Iterations: supersteps} }, g,
			[]ariadne.Option{ariadne.WithMaxSupersteps(supersteps + 1)}, nil
	case "sssp":
		return func() ariadne.Program { return &analytics.SSSP{Source: 0} }, g, nil, nil
	case "wcc":
		g = g.Undirected()
		return func() ariadne.Program { return analytics.WCC{} }, g, nil, nil
	default:
		return nil, nil, nil, fmt.Errorf("unknown analytic %q (want pagerank, sssp, or wcc)", name)
	}
}
