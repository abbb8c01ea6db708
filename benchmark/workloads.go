package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"time"

	"ariadne"
	"ariadne/internal/analytics"
	"ariadne/internal/capture"
	"ariadne/internal/driver"
	"ariadne/internal/engine"
	"ariadne/internal/gen"
	"ariadne/internal/graph"
	"ariadne/internal/obs"
	"ariadne/internal/provenance"
	"ariadne/internal/queries"
	"ariadne/internal/transport"
)

// Every job is pinned to this many partitions so results do not silently
// depend on the core count; tcp.* serves them from tcpWorkers loopback
// workers.
const (
	partitions = 4
	tcpWorkers = 2
)

// kind selects which layers a workload's job drives.
type kind int

const (
	kindBare    kind = iota // analytic alone
	kindOnline              // analytic + online query
	kindCapture             // analytic + full capture spilled to disk
	kindLayered             // offline layered query over a captured store
	kindTCP                 // analytic over loopback TCP workers
)

// workload is one named user job. The reasons for each choice are recorded
// in BENCHMARK.json and README.md.
type workload struct {
	name  string
	kind  kind
	input func(seed int64, small bool) (*input, error)
	query func() ariadne.QueryDef // online, capture and layered kinds
}

// input is what the generators hand the program under test: a graph, the
// analytic, and its run options. The program never sees the seed.
type input struct {
	g    *graph.Graph
	prog func() ariadne.Program // fresh per job: ALS carries state across supersteps
	opts []ariadne.Option
}

var workloads = []workload{
	{name: "bare.pagerank", kind: kindBare, input: pagerankInput},
	{name: "online.q4.pagerank", kind: kindOnline, input: pagerankInput, query: queries.PageRankCheck},
	{name: "online.q6.sssp", kind: kindOnline, input: ssspInput(15, false), query: queries.SilentChange},
	{name: "online.q7.als", kind: kindOnline, input: alsInput, query: queries.ALSRangeCheck},
	{name: "capture.full.pagerank", kind: kindCapture, input: pagerankInput, query: queries.CaptureFull},
	{name: "layered.q6.sssp", kind: kindLayered, input: ssspInput(15, false), query: queries.SilentChange},
	{name: "tcp.comb.sssp", kind: kindTCP, input: ssspInput(17, true)},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// smallScale is the graph scale of the smoke test (256 vertices).
const smallScale = 8

// The benchmark seed changes the numbers a job computes with and never the
// shape of its graph: PageRank's damping factor, a common factor on SSSP's
// edge weights, ALS's initial vectors. Supersteps and messages are then the
// same for every seed, so run-to-run spread is measurement noise alone.
// Re-seeding the generators instead moves job_s by up to 12% from seed to
// seed (SSSP takes 55 to 70 supersteps), and relabelling the vertices by up
// to 10% (partition balance and cache layout) — more than all the
// measurement noise, and the bound on job_s would have to cover it.
func seedFraction(seed int64) float64 { return rand.New(rand.NewSource(seed)).Float64() }

// webGraph builds one of gen.WebDatasets' graphs at an explicit scale.
func webGraph(name string, scale int, small bool) (*graph.Graph, error) {
	d, err := gen.FindDataset(name, 0)
	if err != nil {
		return nil, err
	}
	d.Scale = scale
	if small {
		d.Scale = smallScale
	}
	return d.Build()
}

// PageRank x20 on IN-04 at scale 13 (8 192 vertices, 222 575 edges), damping
// in [0.80, 0.90) by seed.
func pagerankInput(seed int64, small bool) (*input, error) {
	g, err := webGraph("IN-04", 13, small)
	if err != nil {
		return nil, err
	}
	damping := 0.80 + 0.10*seedFraction(seed)
	return &input{
		g:    g,
		prog: func() ariadne.Program { return &analytics.PageRank{Iterations: 20, Damping: damping} },
		opts: []ariadne.Option{ariadne.WithMaxSupersteps(21), ariadne.WithPartitions(partitions)},
	}, nil
}

// SSSP from vertex 0 on UK-02 at the given scale, optionally with
// MinCombiner, every edge weight multiplied by a factor in [0.5, 1.5) by seed
// (the shortest-path tree, and so the work, stays the same).
func ssspInput(scale int, combine bool) func(int64, bool) (*input, error) {
	return func(seed int64, small bool) (*input, error) {
		g, err := webGraph("UK-02", scale, small)
		if err != nil {
			return nil, err
		}
		factor := 0.5 + seedFraction(seed)
		edges := make([]graph.Edge, 0, g.NumEdges())
		for v := 0; v < g.NumVertices(); v++ {
			dst, w := g.OutNeighbors(graph.VertexID(v))
			for i, d := range dst {
				edges = append(edges, graph.Edge{Src: graph.VertexID(v), Dst: d, Weight: w[i] * factor})
			}
		}
		if g, err = graph.NewFromEdges(g.NumVertices(), edges); err != nil {
			return nil, err
		}
		in := &input{
			g:    g,
			prog: func() ariadne.Program { return &analytics.SSSP{Source: 0} },
			opts: []ariadne.Option{ariadne.WithPartitions(partitions)},
		}
		if combine {
			in.opts = append(in.opts, ariadne.WithCombiner(analytics.MinCombiner))
		}
		return in, nil
	}
}

// ALS k=10 for 10 supersteps on gen.MLDataset(1): 4 000 users, 800 items, 10
// ratings per user (MLDataset(-2) in the smoke test); the seed perturbs the
// initial factor vectors.
func alsInput(seed int64, small bool) (*input, error) {
	size := 1
	if small {
		size = -2
	}
	r, err := gen.MLDataset(size)
	if err != nil {
		return nil, err
	}
	return &input{
		g: r.Graph,
		prog: func() ariadne.Program {
			// Tol far below reach, so all 10 supersteps run.
			return &analytics.ALS{NumUsers: r.NumUsers, Features: 10, Seed: seed, Tol: 1e-12}
		},
		opts: []ariadne.Option{ariadne.WithMaxSupersteps(10), ariadne.WithPartitions(partitions)},
	}, nil
}

// env is what set-up leaves behind for the jobs of one workload.
type env struct {
	w   *workload
	in  *input
	dir string // scratch directory for spill files, removed by close

	store *provenance.Store // kindLayered: provenance captured during set-up

	// kindTCP: the client, its loopback workers, and the registries their
	// wire counters land in (master link and worker-to-worker mesh).
	tcp       *transport.TCP
	workers   []*transport.Worker
	serving   sync.WaitGroup
	masterNet *obs.Metrics
	workerNet *obs.Metrics

	jobs int // numbers the per-job spill directories
}

// setUp does everything that precedes the first job: graph generation,
// BuildInEdges, and per kind the capture run that writes the store or the
// worker start and dial. dir must not exist yet.
func setUp(w *workload, seed int64, small bool, dir string, t *tracer) (_ *env, err error) {
	e := &env{w: w, dir: dir}
	defer func() {
		if err != nil {
			e.close()
		}
	}()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	root := t.begin("setup", 0)
	defer t.end(root)

	id := t.begin(spanGenBuild, root)
	e.in, err = w.input(seed, small)
	t.end(id)
	if err != nil {
		return nil, err
	}
	id = t.begin(spanInEdges, root)
	e.in.g.BuildInEdges()
	t.end(id)

	switch w.kind {
	case kindLayered:
		spill := filepath.Join(dir, "store")
		if err := os.MkdirAll(spill, 0o755); err != nil {
			return nil, err
		}
		res, err := ariadne.Run(e.in.g, e.in.prog(), e.options(ariadne.WithCaptureQuery(queries.CaptureFull(), spillAll(spill)))...)
		if res != nil {
			e.store = res.Provenance
		}
		if err != nil {
			return nil, fmt.Errorf("capture run: %w", err)
		}
		if len(res.CaptureGaps) != 0 {
			return nil, fmt.Errorf("capture run left %d gaps", len(res.CaptureGaps))
		}
	case kindTCP:
		if err := e.startTCP(); err != nil {
			return nil, err
		}
	}
	return e, nil
}

// spillAll is the capture-for-offline-querying store: every layer goes to a
// file in dir at once, in the default format, and nothing stays resident.
func spillAll(dir string) ariadne.StoreConfig {
	return ariadne.StoreConfig{SpillDir: dir, SpillAll: true}
}

// startTCP starts the loopback workers, each over its own executor as a
// separate process would have, and dials them.
func (e *env) startTCP() error {
	e.masterNet, e.workerNet = obs.New(), obs.New()
	addrs := make([]string, tcpWorkers)
	for i := range addrs {
		x, err := engine.NewExecutor(e.in.g, e.in.prog(), engine.Config{Partitions: partitions, Combiner: analytics.MinCombiner})
		if err != nil {
			return err
		}
		w, err := transport.NewWorker(x, "127.0.0.1:0", e.workerNet)
		if err != nil {
			return err
		}
		e.workers = append(e.workers, w)
		e.serving.Add(1)
		go func() {
			defer e.serving.Done()
			_ = w.Serve() // returns once close() closes the worker
		}()
		addrs[i] = w.Addr()
	}
	var err error
	e.tcp, err = transport.DialTCP(transport.TCPConfig{
		Addrs: addrs,
		Fingerprint: transport.Fingerprint{
			Partitions:  partitions,
			NumVertices: e.in.g.NumVertices(),
			NumEdges:    e.in.g.NumEdges(),
		},
		Metrics: e.masterNet,
	})
	return err
}

// wireBytes is the traffic so far: the master link counted once, master
// side, plus the worker-to-worker mesh fragments counted where they are sent.
func (e *env) wireBytes() int64 {
	return e.masterNet.Counter(obs.MetricNetBytesSent).Value() +
		e.masterNet.Counter(obs.MetricNetBytesRecv).Value() +
		e.workerNet.Counter(obs.MetricNetPeerBytes).Value()
}

// close stops the transport and workers, waits for their goroutines, and
// removes every file set-up and the jobs wrote.
func (e *env) close() {
	if e.tcp != nil {
		e.tcp.Close()
	}
	for _, w := range e.workers {
		w.Close()
	}
	e.serving.Wait()
	if e.store != nil {
		e.store.Close()
	}
	os.RemoveAll(e.dir)
}

// outcome is what one job produced. digest and counts must repeat exactly
// from job to job and run to run; layer is filled by traced jobs only.
type outcome struct {
	seconds float64
	digest  uint64           // over the analytic's final values, bit for bit
	counts  map[string]int64 // supersteps, messages, tuples per relation, bytes on disk
	layer   map[string]float64

	// store is a capture job's provenance, left open so a probe can replay
	// it; release closes it and deletes the job's spill files.
	store *provenance.Store
}

func (o *outcome) release() {
	if o.store != nil {
		o.store.Close()
		o.store = nil
	}
}

func digestValues(vals []ariadne.Value) uint64 {
	h := fnv.New64a()
	var buf []byte
	for _, v := range vals {
		buf = v.AppendBinary(buf[:0])
		h.Write(buf)
	}
	return h.Sum64()
}

// options returns the input's run options plus extra, without aliasing them.
func (e *env) options(extra ...ariadne.Option) []ariadne.Option {
	return append(e.in.opts[:len(e.in.opts):len(e.in.opts)], extra...)
}

// job runs one whole user job. Untraced (t == nil) it goes through the public
// ariadne API exactly as an analyst would. Traced, it builds the same
// pipeline from the layers' own constructors so that a timing decorator sits
// around every call into capture, driver and transport.
func (e *env) job(t *tracer) (*outcome, error) {
	t.nextJob()
	e.jobs++
	o := &outcome{counts: map[string]int64{}}
	var err error
	if e.w.kind == kindLayered {
		err = e.queryJob(t, o)
	} else {
		err = e.runJob(t, o)
	}
	if err != nil {
		o.release()
		return nil, err
	}
	return o, nil
}

// queryJob is the layered workload's job: one offline query over the store.
func (e *env) queryJob(t *tracer, o *outcome) error {
	def := e.w.query()
	var res *ariadne.QueryResult
	var err error
	start := time.Now()
	root := t.begin(spanJob, 0)
	if t == nil {
		res, err = ariadne.QueryOffline(def, e.store, e.in.g, ariadne.ModeLayered, 0)
	} else {
		id := t.begin(spanLayered, root)
		q, berr := def.Build()
		if berr != nil {
			return berr
		}
		res, err = driver.Layered(q, e.store, e.in.g)
		t.end(id)
		o.layer = map[string]float64{"driver.layered_s": t.seconds(id)}
	}
	t.end(root)
	o.seconds = time.Since(start).Seconds()
	if err != nil {
		return err
	}
	o.countQuery(res)
	if t != nil {
		o.layer["trace.coverage"] = o.layer["driver.layered_s"] / o.seconds
	}
	return nil
}

// runJob is every other workload's job: one ariadne.Run.
func (e *env) runJob(t *tracer, o *outcome) error {
	g := e.in.g
	var spill string
	if e.w.kind == kindCapture {
		spill = filepath.Join(e.dir, fmt.Sprintf("job-%d", e.jobs))
		if err := os.MkdirAll(spill, 0o755); err != nil {
			return err
		}
	}
	var wire0, retries0 int64
	if e.w.kind == kindTCP {
		wire0, retries0 = e.wireBytes(), e.masterNet.Counter(obs.MetricNetRetransmits).Value()
	}

	start := time.Now()
	root := t.begin(spanJob, 0)
	run := t.begin(spanEngineRun, root)
	var extra ariadne.Option
	var online *driver.Online
	switch e.w.kind {
	case kindOnline:
		def := e.w.query()
		if t == nil {
			extra = ariadne.WithOnlineQuery(def)
			break
		}
		q, err := def.Build()
		if err != nil {
			return err
		}
		if online, err = driver.NewOnline(q, g); err != nil {
			return err
		}
		extra = ariadne.WithObserver(&timedObserver{online, t, spanOnline, run})
	case kindCapture:
		def, cfg := e.w.query(), spillAll(spill)
		if t == nil {
			extra = ariadne.WithCaptureQuery(def, cfg)
			break
		}
		q, err := def.Build()
		if err != nil {
			return err
		}
		pol, err := capture.FromQuery(q, def.Env)
		if err != nil {
			return err
		}
		o.store = provenance.NewStore(cfg)
		extra = ariadne.WithObserver(&timedObserver{capture.NewObserver(pol, o.store), t, spanCapture, run})
	case kindTCP:
		if t == nil {
			extra = ariadne.WithTransport(e.tcp)
		} else {
			extra = ariadne.WithTransport(&timedTransport{e.tcp, t, run})
		}
	}
	opts := e.options()
	if extra != nil {
		opts = append(opts, extra)
	}
	res, err := ariadne.Run(g, e.in.prog(), opts...)
	t.end(run)
	t.end(root)
	o.seconds = time.Since(start).Seconds()
	if res != nil && res.Provenance != nil {
		o.store = res.Provenance
	}
	if err != nil {
		return err
	}

	o.digest = digestValues(res.Values)
	o.counts["supersteps"] = int64(res.Stats.Supersteps)
	o.counts["msgs"] = res.Stats.MessagesSent
	switch e.w.kind {
	case kindOnline:
		if online != nil {
			o.countQuery(online.Result())
		} else {
			o.countQuery(res.Query(e.w.query().Name))
		}
	case kindCapture:
		o.counts["capture_gaps"] = int64(len(o.store.Gaps()))
		o.counts["prov_tuples"] = o.store.TotalTuples()
		o.counts["prov_disk_bytes"] = o.store.DiskBytes()
	}
	if t == nil {
		return nil
	}

	// Per-layer numbers of this job, from its spans.
	runS := t.seconds(run)
	children, calls := t.covered(run, spanCapture, spanOnline, spanTransportExec, spanTransportDlv)
	self := runS - children
	o.layer = map[string]float64{
		"engine.self_s":     self,
		"engine.ns_per_msg": self * 1e9 / float64(res.Stats.MessagesSent),
		"trace.coverage":    runS / o.seconds,
	}
	switch e.w.kind {
	case kindOnline:
		facts := float64(online.Result().Facts)
		o.layer["driver.online_observe_s"] = children
		o.layer["driver.online_facts"] = facts
		o.layer["driver.online_ns_per_fact"] = children * 1e9 / facts
		if online.UsesCompiledPath() {
			o.layer["driver.online_compiled"] = 1
		}
	case kindCapture:
		tuples, bytes := float64(o.store.TotalTuples()), float64(o.store.DiskBytes())
		o.layer["capture.observe_s"] = children
		o.layer["capture.facts"] = tuples
		o.layer["capture.ns_per_fact"] = children * 1e9 / tuples
		o.layer["provenance.disk_bytes"] = bytes
		o.layer["provenance.bytes_per_tuple"] = bytes / tuples
	case kindTCP:
		o.layer["transport.exec_s"] = children
		o.layer["transport.calls"] = float64(calls)
		o.layer["transport.wire_bytes_per_superstep"] = float64(e.wireBytes()-wire0) / float64(res.Stats.Supersteps)
		o.layer["transport.retries"] = float64(e.masterNet.Counter(obs.MetricNetRetransmits).Value() - retries0)
	}
	return nil
}

// countQuery records how many tuples a query derived per relation and how
// many facts it was fed.
func (o *outcome) countQuery(r *ariadne.QueryResult) {
	for _, rel := range r.DerivedRelations() {
		o.counts["tuples."+rel.Name] = int64(rel.Count)
	}
	o.counts["facts"] = r.Facts
}

// twin runs the job's reference: the bare analytic on the same input, whose
// final values an online query, a capture policy or a transport must not
// change by a single bit (Theorem 5.4 and the transport bit-identity
// contract); for the layered query, the same query evaluated online, which
// must derive the same number of tuples per relation.
func (e *env) twin() (*outcome, error) {
	o := &outcome{counts: map[string]int64{}}
	opts := e.options()
	if e.w.kind == kindLayered {
		opts = append(opts, ariadne.WithOnlineQuery(e.w.query()))
	}
	start := time.Now()
	res, err := ariadne.Run(e.in.g, e.in.prog(), opts...)
	if err != nil {
		return nil, fmt.Errorf("twin: %w", err)
	}
	o.seconds = time.Since(start).Seconds()
	o.digest = digestValues(res.Values)
	if e.w.kind == kindLayered {
		o.countQuery(res.Query(e.w.query().Name))
		delete(o.counts, "facts") // layered replay feeds stored facts, a different count
	}
	return o, nil
}

// check returns what is wrong with a job's output: it must repeat the first
// job's output exactly and agree with its twin.
func (e *env) check(o, first, twin *outcome) []string {
	var bad []string
	if o.digest != first.digest {
		bad = append(bad, fmt.Sprintf("final values digest %x differs from the first job's %x", o.digest, first.digest))
	}
	for k, v := range first.counts {
		if o.counts[k] != v {
			bad = append(bad, fmt.Sprintf("count %s = %d, first job had %d", k, o.counts[k], v))
		}
	}
	switch e.w.kind {
	case kindBare:
		if o.counts["msgs"] == 0 {
			bad = append(bad, "the analytic sent no messages")
		}
	case kindLayered:
		for k, v := range twin.counts {
			if o.counts[k] != v {
				bad = append(bad, fmt.Sprintf("layered derived %s = %d, online derived %d", k, o.counts[k], v))
			}
		}
	default:
		if o.digest != twin.digest {
			bad = append(bad, fmt.Sprintf("final values digest %x differs from the bare twin's %x", o.digest, twin.digest))
		}
	}
	if o.counts["capture_gaps"] != 0 {
		bad = append(bad, fmt.Sprintf("%d capture gaps", o.counts["capture_gaps"]))
	}
	return bad
}
