// Command ariadne runs graph analytics with provenance capture and PQL
// querying on the built-in stand-in datasets or an edge-list file.
//
//	ariadne stats -dataset UK-02
//	ariadne run -analytic pagerank -dataset IN-04 -online apt:0.01
//	ariadne run -analytic sssp -graph edges.txt -capture full
//	ariadne trace -analytic sssp -dataset IN-04 -mode backward
//
// Fault tolerance: -checkpoint enables superstep checkpointing, -resume
// restarts a crashed run from its newest good checkpoint, and -faults
// injects deterministic worker panics or transient I/O errors for testing:
//
//	ariadne run -analytic pagerank -checkpoint ck -faults "compute:mode=panic:ss=7"
//	ariadne run -analytic pagerank -checkpoint ck -resume
//
// Supervision: -supervise wraps each partition worker with deadlines and
// bounded retry (partition-scoped recovery); -degrade-capture N sheds
// provenance capture for a partition after N consecutive capture failures
// instead of aborting (the analytic result is unchanged; shed ranges are
// queryable as capture_gap(P, F, T)). SIGINT/SIGTERM write a final
// checkpoint at the superstep barrier before exiting:
//
//	ariadne run -analytic pagerank -supervise -faults "compute:mode=panic:ss=3:part=1"
//	ariadne run -analytic pagerank -capture full -supervise -degrade-capture 2 \
//	    -faults "capture:part=0:times=3"
//
// Observability: -metrics-addr serves Prometheus text, expvar, pprof, the
// trace ring, per-superstep profiles, and the span timeline
// (/debug/ariadne/trace.json) over HTTP while the run is live; -stats-json
// writes the profiles to a file; -trace-buf sizes the ring; -trace-out
// enables distributed span tracing and writes a Chrome trace_event JSON
// (open in Perfetto or chrome://tracing) merging master and worker spans:
//
//	ariadne run -analytic pagerank -metrics-addr localhost:9090 -stats-json stats.json -trace-buf 4096
//	ariadne run -analytic pagerank -transport tcp -workers 2 -trace-out trace.json
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"ariadne"
	"ariadne/internal/analytics"
	"ariadne/internal/cliutil"
	"ariadne/internal/engine"
	"ariadne/internal/fault"
	"ariadne/internal/gen"
	"ariadne/internal/graph"
	"ariadne/internal/obs"
	"ariadne/internal/pql/analysis"
	"ariadne/internal/provenance"
	"ariadne/internal/queries"
	"ariadne/internal/transport"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	var err error
	switch os.Args[1] {
	case "stats":
		err = cmdStats(os.Args[2:])
	case "run":
		err = cmdRun(os.Args[2:])
	case "worker":
		err = cmdWorker(os.Args[2:])
	case "trace":
		err = cmdTrace(os.Args[2:])
	case "query":
		err = cmdQuery(os.Args[2:])
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "ariadne:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: ariadne <command> [flags]

commands:
  stats   print dataset characteristics
  run     run an analytic with optional capture and online queries
  worker  serve partition computations to a distributed run (-transport tcp)
  trace   run an analytic with capture, then trace a vertex's lineage
  query   run an analytic, then evaluate a PQL file over its provenance
          (or online when the query's class allows it)

run "ariadne <command> -h" for flags; "ariadne-bench" regenerates the
paper's tables and figures; "pqlc" checks and classifies PQL files.`)
	os.Exit(2)
}

// loadGraph resolves -graph/-dataset/-size flags into a graph.
func loadGraph(graphFile, dataset string, size int) (*graph.Graph, error) {
	if graphFile != "" {
		f, err := os.Open(graphFile)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return graph.ReadEdgeList(f)
	}
	d, err := gen.FindDataset(dataset, size-4) // same scaling as the bench harness
	if err != nil {
		return nil, err
	}
	return d.Build()
}

func cmdStats(args []string) error {
	fs := flag.NewFlagSet("stats", flag.ExitOnError)
	dataset := fs.String("dataset", "IN-04", "built-in dataset name")
	graphFile := fs.String("graph", "", "edge-list file (overrides -dataset)")
	size := fs.Int("size", 0, "dataset size factor")
	samples := fs.Int("diameter-samples", 8, "BFS samples for the diameter estimate")
	fs.Parse(args)
	g, err := loadGraph(*graphFile, *dataset, *size)
	if err != nil {
		return err
	}
	st := graph.ComputeStats(g, *samples, 1)
	fmt.Println(st)
	fmt.Printf("max-out-degree=%d memory=%dB\n", st.MaxOutDeg, g.MemSize())
	return nil
}

func buildAnalytic(name string, g *graph.Graph, supersteps int) (ariadne.Program, *graph.Graph, []ariadne.Option, error) {
	switch name {
	case "pagerank":
		return &analytics.PageRank{Iterations: supersteps}, g,
			[]ariadne.Option{ariadne.WithMaxSupersteps(supersteps + 1)}, nil
	case "sssp":
		return &analytics.SSSP{Source: 0}, g, nil, nil
	case "wcc":
		return analytics.WCC{}, g.Undirected(), nil, nil
	default:
		return nil, nil, nil, fmt.Errorf("unknown analytic %q (want pagerank, sssp, or wcc)", name)
	}
}

// parseOnline maps -online specs to query definitions.
func parseOnline(spec string) (queries.Definition, error) {
	name, arg, _ := strings.Cut(spec, ":")
	switch name {
	case "apt":
		eps := 0.01
		if arg != "" {
			var err error
			if eps, err = strconv.ParseFloat(arg, 64); err != nil {
				return queries.Definition{}, err
			}
		}
		return queries.Apt(eps, nil), nil
	case "q4", "pagerank-check":
		return queries.PageRankCheck(), nil
	case "q5", "monotone-check":
		return queries.MonotoneCheck(), nil
	case "q6", "silent-change":
		return queries.SilentChange(), nil
	default:
		return queries.Definition{}, fmt.Errorf("unknown online query %q (want apt[:eps], q4, q5, q6)", spec)
	}
}

func cmdRun(args []string) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	analytic := fs.String("analytic", "pagerank", "pagerank, sssp, or wcc")
	dataset := fs.String("dataset", "IN-04", "built-in dataset name")
	graphFile := fs.String("graph", "", "edge-list file (overrides -dataset)")
	size := fs.Int("size", 0, "dataset size factor")
	supersteps := fs.Int("supersteps", 20, "PageRank iterations")
	captureSpec := fs.String("capture", "", "capture policy: full, lineage:<vertex>, or backward")
	spill := fs.String("spill", "", "spill directory for captured provenance")
	budget := fs.Int64("budget", 0, "capture memory budget in bytes (0 = unlimited)")
	transportName := fs.String("transport", "inproc", "partition transport: inproc, or tcp to run partitions on worker processes")
	workers := fs.Int("workers", 0, "worker processes to spawn with -transport tcp (0 = 1)")
	workerAddrs := fs.String("worker-addrs", "", `comma-separated addresses of already-running "ariadne worker" processes (instead of -workers)`)
	partitions := fs.Int("partitions", 0, "partition count (0 = GOMAXPROCS; must match the workers' -partitions)")
	netDeadline := fs.Duration("net-deadline", 0, "per-message send/receive deadline with -transport tcp (0 = 5s default)")
	netHeartbeat := fs.Duration("net-heartbeat", time.Second, "worker liveness probe interval with -transport tcp (0 disables probing)")
	netHeartbeatMisses := fs.Int("net-heartbeat-misses", 0, "consecutive heartbeat misses before a worker is declared dead (0 = default of 3)")
	online := fs.String("online", "", "comma-separated online queries (apt[:eps], q4, q5, q6)")
	faults := fs.String("faults", "", `fault-injection spec, e.g. "compute:mode=panic:ss=3:vertex=7" or "spill.write:times=2" (clauses joined with ;)`)
	workerFaults := fs.String("worker-faults", "", `fault spec forwarded to spawned workers (peer-mesh sites live worker-side), e.g. "peer.send:mode=drop:part=1:ss=2"`)
	ckDir := fs.String("checkpoint", "", "checkpoint directory (enables superstep checkpointing)")
	ckEvery := fs.Int("checkpoint-every", 5, "supersteps between checkpoints")
	ckKeep := fs.Int("checkpoint-keep", 3, "checkpoints to retain in -checkpoint (older ones are pruned)")
	resume := fs.Bool("resume", false, "resume from the newest good checkpoint in -checkpoint")
	supervised := fs.Bool("supervise", false, "supervise partition workers: deadlines, retry with backoff, partition-scoped recovery")
	partDeadline := fs.Duration("partition-deadline", 0, "fixed per-partition superstep deadline (0 with -supervise = adaptive multiple-of-median)")
	maxRetries := fs.Int("max-retries", 2, "partition re-executions per superstep before the run fails (with -supervise)")
	degradeAfter := fs.Int("degrade-capture", 0, "shed provenance capture for a partition after N consecutive capture failures (0 = capture failures abort the run)")
	stragglerMult := fs.Float64("straggler-multiple", 4, "flag a partition as straggler beyond this multiple of the median superstep duration")
	metricsAddr := fs.String("metrics-addr", "", `serve /metrics (Prometheus), /debug/vars, /debug/pprof, /trace, and /supersteps on this address while the run is live (e.g. "localhost:9090")`)
	statsJSON := fs.String("stats-json", "", "write per-superstep profile JSON to this file after the run")
	traceBuf := fs.Int("trace-buf", 0, "structured trace ring capacity in events (0 = tracing off)")
	traceOut := fs.String("trace-out", "", "enable distributed span tracing and write a Chrome trace_event JSON (Perfetto / chrome://tracing) to this file after the run")
	fs.Parse(args)

	if err := cliutil.ValidateRunFlags(cliutil.RunFlags{
		Transport:       *transportName,
		Workers:         *workers,
		WorkerAddrs:     *workerAddrs,
		Heartbeat:       *netHeartbeat,
		HeartbeatMisses: *netHeartbeatMisses,
		Resume:          *resume,
		Checkpoint:      *ckDir,
	}); err != nil {
		return err
	}
	distributed := *transportName == "tcp"

	g, err := loadGraph(*graphFile, *dataset, *size)
	if err != nil {
		return err
	}
	prog, g, opts, err := buildAnalytic(*analytic, g, *supersteps)
	if err != nil {
		return err
	}
	nParts := *partitions
	if nParts <= 0 {
		nParts = runtime.GOMAXPROCS(0)
	}
	if *partitions > 0 || distributed {
		opts = append(opts, ariadne.WithPartitions(nParts))
	}

	var onlineNames []string
	if *online != "" {
		for _, spec := range strings.Split(*online, ",") {
			def, err := parseOnline(spec)
			if err != nil {
				return err
			}
			opts = append(opts, ariadne.WithOnlineQuery(def))
			onlineNames = append(onlineNames, def.Name)
		}
	}
	if *captureSpec != "" {
		if *spill != "" {
			if err := os.MkdirAll(*spill, 0o755); err != nil {
				return fmt.Errorf("-spill: %w", err)
			}
		}
		storeCfg := provenance.StoreConfig{MemoryBudget: *budget, SpillDir: *spill}
		var def queries.Definition
		switch {
		case *captureSpec == "full":
			def = queries.CaptureFull()
		case strings.HasPrefix(*captureSpec, "lineage:"):
			v, err := strconv.ParseUint(strings.TrimPrefix(*captureSpec, "lineage:"), 10, 32)
			if err != nil {
				return err
			}
			def = queries.CaptureForwardLineage(graph.VertexID(v))
		case *captureSpec == "backward":
			def = queries.CaptureBackwardCustom()
		default:
			return fmt.Errorf("unknown capture %q (want full, lineage:<vertex>, backward)", *captureSpec)
		}
		opts = append(opts, ariadne.WithCaptureQuery(def, storeCfg))
	}

	// The injector is shared between the engine (compute/capture sites) and
	// the TCP transport (net.send/net.recv sites), so one -faults spec can
	// target either side of the wire.
	var inj *ariadne.FaultInjector
	if *faults != "" {
		rules, err := fault.ParseSpec(*faults)
		if err != nil {
			return err
		}
		inj = fault.NewInjector(rules...)
		opts = append(opts, ariadne.WithFault(inj))
	}
	if *ckDir != "" {
		if err := os.MkdirAll(*ckDir, 0o755); err != nil {
			return fmt.Errorf("-checkpoint: %w", err)
		}
		opts = append(opts, ariadne.WithCheckpoint(*ckDir, *ckEvery))
		if *ckKeep > 0 {
			opts = append(opts, ariadne.WithCheckpointRetention(*ckKeep))
		}
	}
	// Distributed runs are always supervised: the supervision retry path is
	// what re-executes a partition when its worker dies, and the degradation
	// state is what sheds an unreachable partition's capture — so degraded
	// mode is armed by default over TCP (capture failures shed instead of
	// aborting; pass -degrade-capture to raise the threshold).
	if *supervised || distributed || *partDeadline > 0 || *degradeAfter > 0 {
		da := *degradeAfter
		if distributed && da == 0 {
			da = 1
		}
		opts = append(opts, ariadne.WithSupervision(ariadne.SuperviseConfig{
			Deadline:            *partDeadline,
			AdaptiveDeadline:    *partDeadline == 0 && *supervised,
			StragglerMultiple:   *stragglerMult,
			MaxRetries:          *maxRetries,
			DegradeCaptureAfter: da,
		}))
	}

	// Trap SIGINT/SIGTERM: the engine sees the cancellation at the next
	// superstep barrier and, when checkpointing is on, writes a final
	// checkpoint there before exiting — no more dying mid-superstep.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	opts = append(opts, ariadne.WithContext(ctx))

	// Observability: one registry shared by the run and the HTTP endpoints,
	// created up front so the endpoints are live while the run progresses.
	var metrics *ariadne.Metrics
	if *metricsAddr != "" || *statsJSON != "" || *traceBuf > 0 || *traceOut != "" {
		metrics = ariadne.NewMetrics()
		opts = append(opts, ariadne.WithMetrics(metrics))
		if *traceBuf > 0 {
			opts = append(opts, ariadne.WithTrace(*traceBuf))
		}
		if *traceOut != "" {
			opts = append(opts, ariadne.WithSpanTrace())
		}
	}
	if *metricsAddr != "" {
		srv, laddr, err := obs.Serve(*metricsAddr, metrics)
		if err != nil {
			return fmt.Errorf("-metrics-addr: %w", err)
		}
		defer srv.Close()
		fmt.Printf("metrics: http://%s/metrics (also /debug/vars /debug/pprof /trace /supersteps)\n", laddr)
	}

	if distributed {
		addrs, stopWorkers, err := resolveWorkers(ctx, *workerAddrs, *workers, nParts,
			*analytic, *dataset, *graphFile, *size, *supersteps, *workerFaults)
		if err != nil {
			return err
		}
		defer stopWorkers()
		tr, err := transport.DialTCP(transport.TCPConfig{
			Addrs: addrs,
			Fingerprint: transport.Fingerprint{
				Partitions:  nParts,
				NumVertices: g.NumVertices(),
				NumEdges:    g.NumEdges(),
			},
			MessageDeadline:   *netDeadline,
			MaxRetries:        *maxRetries,
			HeartbeatInterval: *netHeartbeat,
			HeartbeatMisses:   *netHeartbeatMisses,
			Fault:             inj,
			Metrics:           metrics,
		})
		if err != nil {
			return err
		}
		defer tr.Close()
		opts = append(opts, ariadne.WithTransport(tr))
		fmt.Printf("transport: tcp, %d worker(s), %d partitions\n", len(addrs), nParts)
	}

	var res *ariadne.Result
	if *resume {
		res, err = ariadne.Resume(g, prog, opts...)
	} else {
		res, err = ariadne.Run(g, prog, opts...)
	}
	if err != nil {
		if errors.Is(err, context.Canceled) && *ckDir != "" {
			return fmt.Errorf("%w\na final checkpoint was written at the superstep barrier; rerun with -resume to continue from %s", err, *ckDir)
		}
		var ce *ariadne.CrashError
		if errors.As(err, &ce) && *ckDir != "" {
			return fmt.Errorf("%w\nrerun with -resume to restart from the newest checkpoint in %s", err, *ckDir)
		}
		return err
	}
	if res.ResumedFrom > 0 {
		fmt.Printf("resumed from checkpoint at superstep %d\n", res.ResumedFrom)
	}
	fmt.Printf("analytic=%s supersteps=%d messages=%d time=%v\n",
		*analytic, res.Stats.Supersteps, res.Stats.MessagesSent, res.Duration.Round(1e6))
	if res.Stats.PartitionRetries > 0 || res.Stats.DeadlineHits > 0 || res.Stats.StragglerFlags > 0 {
		fmt.Printf("supervision: retries=%d deadline-hits=%d stragglers=%d\n",
			res.Stats.PartitionRetries, res.Stats.DeadlineHits, res.Stats.StragglerFlags)
	}
	if res.Provenance != nil {
		defer res.Provenance.Close()
		fmt.Printf("provenance: layers=%d tuples=%d bytes=%d (%.1fx input) spilled=%d\n",
			res.Provenance.NumLayers(), res.Provenance.TotalTuples(), res.Provenance.TotalBytes(),
			float64(res.Provenance.TotalBytes())/float64(g.MemSize()), res.Provenance.SpilledLayers())
	}
	for _, gap := range res.CaptureGaps {
		fmt.Printf("capture gap: partition=%d supersteps=%d..%d (%s)\n", gap.Partition, gap.From, gap.To, gap.Reason)
	}
	for _, name := range onlineNames {
		qr := res.Query(name)
		fmt.Printf("query %s:\n", name)
		for _, rel := range qr.DerivedRelations() {
			fmt.Printf("  %-18s %d tuples\n", rel.Name, rel.Count)
		}
	}
	if *statsJSON != "" {
		if err := writeStatsJSON(*statsJSON, *analytic, res); err != nil {
			return fmt.Errorf("-stats-json: %w", err)
		}
		fmt.Printf("per-superstep stats written to %s\n", *statsJSON)
	}
	if *traceOut != "" {
		if err := os.WriteFile(*traceOut, metrics.ChromeTrace(), 0o644); err != nil {
			return fmt.Errorf("-trace-out: %w", err)
		}
		fmt.Printf("span timeline written to %s (open in Perfetto or chrome://tracing)\n", *traceOut)
		if buckets := metrics.TransportBuckets(); buckets != nil {
			fmt.Printf("transport buckets: serialize=%v wire=%v worker-compute=%v retry=%v\n",
				time.Duration(buckets["serialize"]), time.Duration(buckets["wire"]),
				time.Duration(buckets["worker_compute"]), time.Duration(buckets["retry"]))
		}
	}
	return nil
}

// cmdWorker serves partition computations to a distributed run. The worker
// loads the same graph and analytic as its master — state stays local; only
// frontier values and messages cross the wire — and verifies the agreement
// through the handshake fingerprint.
func cmdWorker(args []string) error {
	fs := flag.NewFlagSet("worker", flag.ExitOnError)
	listen := fs.String("listen", "127.0.0.1:0", "address to listen on")
	analytic := fs.String("analytic", "pagerank", "pagerank, sssp, or wcc (must match the master)")
	dataset := fs.String("dataset", "IN-04", "built-in dataset name (must match the master)")
	graphFile := fs.String("graph", "", "edge-list file (overrides -dataset)")
	size := fs.Int("size", 0, "dataset size factor")
	supersteps := fs.Int("supersteps", 20, "PageRank iterations (must match the master)")
	partitions := fs.Int("partitions", 0, "partition count (0 = GOMAXPROCS; must match the master)")
	faults := fs.String("faults", "", `worker-side fault-injection spec for the peer-mesh sites, e.g. "peer.send:mode=drop:part=1:ss=2" (clauses joined with ;)`)
	fs.Parse(args)

	g, err := loadGraph(*graphFile, *dataset, *size)
	if err != nil {
		return err
	}
	prog, g, _, err := buildAnalytic(*analytic, g, *supersteps)
	if err != nil {
		return err
	}
	nParts := *partitions
	if nParts <= 0 {
		nParts = runtime.GOMAXPROCS(0)
	}
	var inj *fault.Injector
	if *faults != "" {
		rules, err := fault.ParseSpec(*faults)
		if err != nil {
			return err
		}
		inj = fault.NewInjector(rules...)
	}
	x, err := engine.NewExecutor(g, prog, engine.Config{Partitions: nParts, Fault: inj})
	if err != nil {
		return err
	}
	w, err := transport.NewWorker(x, *listen, nil)
	if err != nil {
		return err
	}
	// The master scrapes this exact line off our stdout to learn the port.
	fmt.Printf("worker: listening %s\n", w.Addr())
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		<-ctx.Done()
		// Graceful drain: finish the in-flight request, tell the master to
		// reroute our partitions, then exit 0. A master mid-run carries on
		// with the surviving workers; a second signal still kills us hard.
		w.Drain()
	}()
	err = w.Serve()
	if ctx.Err() != nil {
		<-drained
		fmt.Println("worker: drained, exiting")
		return nil
	}
	return err
}

// resolveWorkers either splits -worker-addrs or spawns -workers worker
// processes of this same binary, forwarding the graph and analytic flags so
// every process deterministically builds the identical graph. The returned
// cleanup kills spawned workers (a no-op in attach mode).
func resolveWorkers(ctx context.Context, addrSpec string, n, nParts int,
	analytic, dataset, graphFile string, size, supersteps int, workerFaults string) ([]string, func(), error) {
	if addrSpec != "" {
		return strings.Split(addrSpec, ","), func() {}, nil
	}
	if n <= 0 {
		n = 1
	}
	exe, err := os.Executable()
	if err != nil {
		return nil, nil, err
	}
	wargs := []string{"worker", "-listen", "127.0.0.1:0",
		"-analytic", analytic,
		"-supersteps", strconv.Itoa(supersteps),
		"-partitions", strconv.Itoa(nParts)}
	if graphFile != "" {
		wargs = append(wargs, "-graph", graphFile)
	} else {
		wargs = append(wargs, "-dataset", dataset, "-size", strconv.Itoa(size))
	}
	if workerFaults != "" {
		wargs = append(wargs, "-faults", workerFaults)
	}
	var cmds []*exec.Cmd
	stop := func() {
		for _, c := range cmds {
			if c.Process != nil {
				c.Process.Kill()
			}
			c.Wait()
		}
	}
	addrs := make([]string, 0, n)
	for i := 0; i < n; i++ {
		cmd := exec.CommandContext(ctx, exe, wargs...)
		cmd.Stderr = os.Stderr
		out, err := cmd.StdoutPipe()
		if err != nil {
			stop()
			return nil, nil, err
		}
		if err := cmd.Start(); err != nil {
			stop()
			return nil, nil, err
		}
		cmds = append(cmds, cmd)
		sc := bufio.NewScanner(out)
		addr := ""
		for sc.Scan() {
			if a, ok := strings.CutPrefix(sc.Text(), "worker: listening "); ok {
				addr = a
				break
			}
			fmt.Println(sc.Text())
		}
		if addr == "" {
			stop()
			return nil, nil, fmt.Errorf("worker %d exited before reporting its address", i)
		}
		addrs = append(addrs, addr)
		go func() { // keep draining so the worker never blocks on a full pipe
			for sc.Scan() {
			}
		}()
	}
	return addrs, stop, nil
}

// writeStatsJSON dumps the run summary and per-superstep profiles.
func writeStatsJSON(path, analytic string, res *ariadne.Result) error {
	out := struct {
		Analytic         string               `json:"analytic"`
		Supersteps       int                  `json:"supersteps"`
		Messages         int64                `json:"messages_sent"`
		DurationMS       float64              `json:"duration_ms"`
		ResumedFrom      int                  `json:"resumed_from,omitempty"`
		PartitionRetries int64                `json:"partition_retries,omitempty"`
		DeadlineHits     int64                `json:"deadline_hits,omitempty"`
		StragglerFlags   int64                `json:"straggler_flags,omitempty"`
		CaptureGaps      []ariadne.CaptureGap `json:"capture_gaps,omitempty"`
		// Net holds the run's ariadne_net_* transport counters plus the
		// trace-ring drop counter (ariadne_trace_dropped_total); empty for
		// purely local runs.
		Net map[string]int64 `json:"net,omitempty"`
		// TransportBuckets decomposes transport overhead by cause
		// (serialize, wire, worker_compute, retry), in nanoseconds; present
		// only when span tracing was on.
		TransportBuckets map[string]int64           `json:"transport_buckets,omitempty"`
		Profile          []ariadne.SuperstepProfile `json:"profile"`
	}{
		Analytic:         analytic,
		Supersteps:       res.Stats.Supersteps,
		Messages:         res.Stats.MessagesSent,
		DurationMS:       float64(res.Duration.Microseconds()) / 1e3,
		ResumedFrom:      res.ResumedFrom,
		PartitionRetries: res.Stats.PartitionRetries,
		DeadlineHits:     res.Stats.DeadlineHits,
		StragglerFlags:   res.Stats.StragglerFlags,
		CaptureGaps:      res.CaptureGaps,
		Net:              res.NetStats,
		Profile:          res.Profile,
	}
	if res.Metrics != nil {
		out.TransportBuckets = res.Metrics.TransportBuckets()
	}
	b, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func cmdQuery(args []string) error {
	fs := flag.NewFlagSet("query", flag.ExitOnError)
	analytic := fs.String("analytic", "sssp", "pagerank, sssp, or wcc")
	dataset := fs.String("dataset", "IN-04", "built-in dataset name")
	graphFile := fs.String("graph", "", "edge-list file (overrides -dataset)")
	size := fs.Int("size", 0, "dataset size factor")
	supersteps := fs.Int("supersteps", 20, "PageRank iterations")
	mode := fs.String("mode", "auto", "auto, online, layered, or naive")
	var params cliutil.Params
	fs.Var(&params, "param", "query parameter name=value (repeatable)")
	edbs := fs.String("edbs", "", "extra EDB declarations, e.g. prov_error:4")
	limit := fs.Int("limit", 10, "rows to print per result relation")
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: ariadne query [flags] <file.pql>")
	}
	src, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		return err
	}

	env := analysis.NewEnv()
	if err := params.Apply(env); err != nil {
		return err
	}
	if err := cliutil.ApplyEDBs(env, *edbs); err != nil {
		return err
	}
	def := queries.Definition{Name: fs.Arg(0), Source: string(src), Env: env}
	q, err := def.Build()
	if err != nil {
		return err
	}
	fmt.Printf("query class=%s vc-compatible=%v\n", q.Class, q.VCCompatible)
	ran, err := queryMode(*mode, q)
	if err != nil {
		return err
	}

	g, err := loadGraph(*graphFile, *dataset, *size)
	if err != nil {
		return err
	}
	prog, g, opts, err := buildAnalytic(*analytic, g, *supersteps)
	if err != nil {
		return err
	}

	var qr *ariadne.QueryResult
	if ran == "online" {
		res, err := ariadne.Run(g, prog, append(opts, ariadne.WithOnlineQuery(def))...)
		if err != nil {
			return err
		}
		fmt.Printf("evaluated online alongside %s (%d supersteps, %v)\n",
			*analytic, res.Stats.Supersteps, res.Duration.Round(1e6))
		qr = res.Query(def.Name)
	} else {
		// The registry's profiles reach the store as its telemetry, which
		// feeds the superstep_profile and net_rpc EDBs.
		res, err := ariadne.Run(g, prog, append(opts, ariadne.WithMetrics(ariadne.NewMetrics()),
			ariadne.WithCaptureQuery(queries.CaptureFull(), provenance.StoreConfig{}))...)
		if err != nil {
			return err
		}
		offMode := ariadne.ModeLayered
		if ran == "naive" {
			offMode = ariadne.ModeNaive
		}
		qr, err = ariadne.QueryOffline(def, res.Provenance, g, offMode, 0)
		if err != nil {
			return err
		}
		fmt.Printf("captured %d layers (%d tuples), evaluated %s offline\n",
			res.Provenance.NumLayers(), res.Provenance.TotalTuples(), ran)
	}

	for _, rel := range qr.DerivedRelations() {
		fmt.Printf("%s: %d tuples\n", rel.Name, rel.Count)
		for i, row := range ariadne.Tuples(qr, rel.Name) {
			if i == *limit {
				fmt.Println("  ...")
				break
			}
			fmt.Printf("  %v\n", row)
		}
	}
	return nil
}

// queryMode resolves the query subcommand's -mode for q into the mode that
// runs: online, layered or naive. auto picks online when q's class allows it
// and q reads no EDB only a captured store holds, else layered when the class
// allows it, else naive.
func queryMode(mode string, q *analysis.Query) (string, error) {
	switch mode {
	case "online", "layered", "naive":
		return mode, nil
	case "auto":
		switch {
		case q.Class.OnlineEvaluable() && q.StoreEDB() == "":
			return "online", nil
		case q.Class.LayeredEvaluable():
			return "layered", nil
		}
		return "naive", nil
	}
	return "", fmt.Errorf("-mode %q: want auto, online, layered, or naive", mode)
}

func cmdTrace(args []string) error {
	fs := flag.NewFlagSet("trace", flag.ExitOnError)
	analytic := fs.String("analytic", "sssp", "pagerank, sssp, or wcc")
	dataset := fs.String("dataset", "IN-04", "built-in dataset name")
	graphFile := fs.String("graph", "", "edge-list file (overrides -dataset)")
	size := fs.Int("size", 0, "dataset size factor")
	supersteps := fs.Int("supersteps", 20, "PageRank iterations")
	mode := fs.String("mode", "backward", "backward or forward")
	vertex := fs.Int64("vertex", -1, "trace start vertex (-1 = auto)")
	custom := fs.Bool("custom", false, "use custom (reduced) capture, paper Queries 11+12")
	fs.Parse(args)

	g, err := loadGraph(*graphFile, *dataset, *size)
	if err != nil {
		return err
	}
	prog, g, opts, err := buildAnalytic(*analytic, g, *supersteps)
	if err != nil {
		return err
	}

	switch *mode {
	case "backward":
		def := queries.CaptureFull()
		if *custom {
			def = queries.CaptureBackwardCustom()
		}
		res, err := ariadne.Run(g, prog, append(opts, ariadne.WithCaptureQuery(def, provenance.StoreConfig{}))...)
		if err != nil {
			return err
		}
		store := res.Provenance
		sigma := store.NumLayers() - 1
		alpha := graph.VertexID(*vertex)
		if *vertex < 0 {
			last, err := store.Layer(sigma)
			if err != nil {
				return err
			}
			if len(last.Records) == 0 {
				return fmt.Errorf("no vertex active in the last superstep")
			}
			alpha = last.Records[0].Vertex
		}
		traceDef := queries.BackwardTrace(alpha, sigma)
		if *custom {
			traceDef = queries.BackwardTraceCustom(alpha, sigma)
		}
		qr, err := ariadne.QueryOffline(traceDef, store, g, ariadne.ModeLayered, 0)
		if err != nil {
			return err
		}
		fmt.Printf("backward trace from vertex %d at superstep %d:\n", alpha, sigma)
		fmt.Printf("  provenance nodes visited: %d\n", ariadne.Count(qr, "back_trace"))
		fmt.Printf("  lineage (inputs at superstep 0): %d vertices\n", ariadne.Count(qr, "back_lineage"))
		return nil
	case "forward":
		alpha := graph.VertexID(0)
		if *vertex >= 0 {
			alpha = graph.VertexID(*vertex)
		}
		res, err := ariadne.Run(g, prog, append(opts,
			ariadne.WithCaptureQuery(queries.CaptureForwardLineage(alpha), provenance.StoreConfig{}))...)
		if err != nil {
			return err
		}
		fmt.Printf("forward lineage of vertex %d: %d influenced vertices, %d tuples, %d bytes\n",
			alpha, res.Provenance.DistinctVertices(), res.Provenance.TotalTuples(), res.Provenance.TotalBytes())
		return nil
	default:
		return fmt.Errorf("unknown mode %q", *mode)
	}
}
