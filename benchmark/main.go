// Command benchmark is the repository's end-to-end benchmark: seven whole
// user jobs, each through the public ariadne API on a seeded generated graph,
// timed one after another by one client (a closed loop), with the outputs
// checked. A separate traced pass attributes a job's wall time to the layers
// from outside. See README.md and ../BENCHMARK.json.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"ariadne/internal/pql/eval"
	"ariadne/internal/provenance"
	"ariadne/internal/value"
)

const (
	// setup_s is the median of at least minSetUps set-ups; cheap ones repeat
	// until setUpSeconds have gone into them, at most maxSetUps times.
	minSetUps    = 3
	maxSetUps    = 25
	setUpSeconds = 1.0
	minJobs      = 3 // timed jobs per run, however short --seconds is

	// Both relative to the repository root, where run.sh starts the program.
	specFile = "BENCHMARK.json"
	outDir   = "benchmark/out"
)

// config is one invocation's arguments.
type config struct {
	seed    int64
	seconds float64
	small   bool   // smoke-test sizes
	out     string // receives trace.<workload>.json
	scratch string // where set-up and jobs write; removed afterwards
}

// deadline is when the timed jobs that start now should stop.
func (c config) deadline() time.Time {
	return time.Now().Add(time.Duration(c.seconds * float64(time.Second)))
}

// result is one run of one workload. metrics holds every end-to-end metric
// (untraced run) or every per-layer metric (traced run) by its
// BENCHMARK.json name; counts must repeat exactly from run to run.
type result struct {
	attempted, failed int
	metrics           map[string]float64
	counts            map[string]int64
}

func main() { os.Exit(run()) }

// run returns the exit code: 0, 1 when --repeat-check found a disagreement,
// 2 when the benchmark could not run. A failed check is neither: it is
// reported in the result line.
func run() int {
	var (
		name   = flag.String("workload", "all", "workload name, or all")
		seed   = flag.Int64("seed", 1, "perturbs the numbers each job computes with; the same seed gives the same inputs")
		secs   = flag.Float64("seconds", 8, "how long the timed jobs of one workload run")
		trace  = flag.Int("trace", 0, "1: traced pass, report the per-layer metrics and write "+outDir+"/trace.<workload>.json")
		repeat = flag.Bool("repeat-check", false, "run the untraced workloads twice and fail unless the two runs agree within BENCHMARK.json's bounds")
	)
	flag.Parse()
	if flag.NArg() != 0 {
		return fatal(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}
	// Four cores at most: the jobs run four partitions.
	procs := min(runtime.NumCPU(), partitions)
	runtime.GOMAXPROCS(procs)

	spec, err := readSpec(specFile)
	if err != nil {
		return fatal(err)
	}
	selected := workloads
	if *name != "all" {
		w := findWorkload(*name)
		if w == nil {
			return fatal(fmt.Errorf("unknown workload %q", *name))
		}
		selected = []workload{*w}
	}
	cfg := config{seed: *seed, seconds: *secs, out: outDir, scratch: filepath.Join(outDir, fmt.Sprintf("work.%d", os.Getpid()))}
	defer os.RemoveAll(cfg.scratch)

	code := 0
	for i := range selected {
		w := &selected[i]
		fmt.Printf("# %s seed=%d seconds=%g trace=%d GOMAXPROCS=%d partitions=%d\n", w.name, cfg.seed, cfg.seconds, *trace, procs, partitions)
		var r *result
		switch {
		case *repeat:
			r, err = repeatCheck(w, cfg, spec)
		case *trace != 0:
			r, err = measureTraced(w, cfg)
		default:
			r, err = measure(w, cfg)
		}
		if err != nil {
			return fatal(fmt.Errorf("%s: %w", w.name, err))
		}
		if *repeat && r.failed != 0 {
			code = 1
		}
		if err := emit(r, spec, *trace != 0); err != nil {
			return fatal(err)
		}
	}
	return code
}

func fatal(err error) int {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	return 2
}

// metricSpec and benchSpec mirror the parts of BENCHMARK.json the program
// reads: which metrics to print, their units, and the regression bounds.
type metricSpec struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Bound float64 `json:"bound"`
}

type benchSpec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func readSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("run from the repository root: %w", err)
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// emit prints the result as the one JSON object the benchmark contract asks
// for, as the last line of the workload's output.
func emit(r *result, spec *benchSpec, traced bool) error {
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	names := spec.EndToEnd
	if traced {
		names = spec.PerLayer
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, map[string]metric{}}
	for _, m := range names {
		out.Metrics[m.Name] = metric{r.metrics[m.Name], m.Unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	return (s[(n-1)/2] + s[n/2]) / 2
}

// measure is the untraced run behind the end-to-end metrics: set-up several
// times, the twin, one untimed warm-up job, then timed jobs strictly one
// after another until cfg.seconds have passed.
func measure(w *workload, cfg config) (*result, error) {
	var e *env
	var setupS []float64
	for i, spent := 0, 0.0; i < minSetUps || spent < setUpSeconds && i < maxSetUps; i++ {
		if e != nil {
			e.close()
		}
		runtime.GC()
		start := time.Now()
		var err error
		if e, err = setUp(w, cfg.seed, cfg.small, filepath.Join(cfg.scratch, fmt.Sprintf("setup-%d", i)), nil); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, time.Since(start).Seconds())
		spent += setupS[i]
	}
	defer e.close()

	twin, first, err := e.warmUp()
	if err != nil {
		return nil, err
	}
	r := &result{counts: first.counts}
	var jobS []float64
	deadline := cfg.deadline()
	for r.attempted < minJobs || time.Now().Before(deadline) {
		if o, ok := e.timedJob(nil, first, twin, r); ok {
			jobS = append(jobS, o.seconds)
			o.release()
		}
	}
	if len(jobS) == 0 {
		return nil, fmt.Errorf("all %d jobs failed", r.attempted)
	}
	fmt.Printf("jobs_s %.3f\n", jobS)
	sort.Float64s(jobS)
	r.metrics = map[string]float64{"job_s": median(jobS), "setup_s": median(setupS)}
	fmt.Printf("job_s median %.4f min %.4f max %.4f n=%d   setup_s median %.4f n=%d   failed %d/%d\n",
		r.metrics["job_s"], jobS[0], jobS[len(jobS)-1], len(jobS), r.metrics["setup_s"], len(setupS), r.failed, r.attempted)
	if twin != nil {
		// Printed, never gated: a faster engine raises it.
		fmt.Printf("overhead_x %.2f  (job_s / one cold run of its twin, %.4f s)\n", r.metrics["job_s"]/twin.seconds, twin.seconds)
	}
	printCounts(r.counts)
	return r, nil
}

// warmUp runs the workload's twin and one untimed job, whose output the
// timed jobs must repeat.
func (e *env) warmUp() (twin, first *outcome, err error) {
	if e.w.kind != kindBare {
		if twin, err = e.twin(); err != nil {
			return nil, nil, err
		}
	}
	if first, err = e.job(nil); err != nil {
		return nil, nil, fmt.Errorf("warm-up job: %w", err)
	}
	first.release()
	return twin, first, nil
}

// timedJob runs and checks one job, counting it in r. A job that errs or
// fails its check is reported and counted as failed, not fatal.
func (e *env) timedJob(t *tracer, first, twin *outcome, r *result) (*outcome, bool) {
	runtime.GC() // every job starts from the same heap
	r.attempted++
	o, err := e.job(t)
	if err != nil {
		r.failed++
		fmt.Printf("job %d failed: %v\n", r.attempted, err)
		return nil, false
	}
	if bad := e.check(o, first, twin); len(bad) != 0 {
		r.failed++
		for _, b := range bad {
			fmt.Printf("job %d failed its check: %s\n", r.attempted, b)
		}
		o.release()
		return nil, false
	}
	return o, true
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func printCounts(counts map[string]int64) {
	fmt.Print("counts")
	for _, k := range sortedKeys(counts) {
		fmt.Printf(" %s=%d", k, counts[k])
	}
	fmt.Println()
}

// measureTraced is the traced pass behind the per-layer metrics. It sets up
// once, then alternates untraced and traced jobs until cfg.seconds have
// passed, so the decorators' cost is visible as trace.overhead_x and never
// leaks into the gated numbers; then it probes single layers in isolation.
// Spans stay in memory and are written once at the end.
func measureTraced(w *workload, cfg config) (*result, error) {
	t := newTracer()
	e, err := setUp(w, cfg.seed, cfg.small, filepath.Join(cfg.scratch, "setup"), t)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer e.close()
	twin, first, err := e.warmUp()
	if err != nil {
		return nil, err
	}

	r := &result{counts: first.counts, metrics: map[string]float64{}}
	var plainS, tracedS []float64
	layers := map[string][]float64{}
	var last *outcome // the newest traced job, kept for the append probe
	deadline := cfg.deadline()
	for pairs := 0; pairs < 2 || time.Now().Before(deadline); pairs++ {
		if o, ok := e.timedJob(nil, first, twin, r); ok {
			plainS = append(plainS, o.seconds)
			o.release()
		}
		if o, ok := e.timedJob(t, first, twin, r); ok {
			tracedS = append(tracedS, o.seconds)
			for k, v := range o.layer {
				layers[k] = append(layers[k], v)
			}
			if last != nil {
				last.release()
			}
			last = o
		}
	}
	if last == nil || len(plainS) == 0 {
		return nil, fmt.Errorf("all %d jobs failed", r.attempted)
	}
	defer last.release()

	m := r.metrics
	for k, v := range layers {
		m[k] = median(v)
	}
	for _, s := range t.spans {
		switch s.Name {
		case spanGenBuild:
			m["gen.build_s"] = t.seconds(s.ID)
		case spanInEdges:
			m["graph.in_edges_s"] = t.seconds(s.ID)
		}
	}
	m["engine.msgs"] = float64(first.counts["msgs"])
	m["engine.supersteps"] = float64(first.counts["supersteps"])
	m["trace.overhead_x"] = median(tracedS) / median(plainS)

	t.job = 0 // the probes belong to no job
	switch w.kind {
	case kindCapture:
		if err := probeAppend(t, last.store, filepath.Join(cfg.scratch, "append"), m); err != nil {
			return nil, err
		}
	case kindLayered:
		if err := probeLayers(t, e, m); err != nil {
			return nil, err
		}
	case kindTCP:
		// The in-process twin: the same job, same combiner, no transport.
		var twinS []float64
		for i := 0; i < minJobs; i++ {
			runtime.GC()
			o, err := e.twin()
			if err != nil {
				return nil, err
			}
			twinS = append(twinS, o.seconds)
		}
		m["transport.overhead_x"] = median(plainS) / median(twinS)
	}

	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(cfg.out, "trace."+w.name+".json")
	if err := t.write(path); err != nil {
		return nil, err
	}
	fmt.Printf("traced job_s median %.4f n=%d   untraced %.4f n=%d   %d spans in %s\n",
		median(tracedS), len(tracedS), median(plainS), len(plainS), len(t.spans), path)
	for _, k := range sortedKeys(m) {
		fmt.Printf("  %-36s %.6g\n", k, m[k])
	}
	return r, nil
}

// probeAppend times the write side of the provenance store alone: it replays
// the layers a capture job left on disk into a fresh spilling store, with a
// span around each AppendLayer plus the Sync that waits for its file.
func probeAppend(t *tracer, src *provenance.Store, dir string, m map[string]float64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	dst := provenance.NewStore(spillAll(dir))
	defer dst.Close()
	var secs float64
	for i := 0; i < src.NumLayers(); i++ {
		l, err := src.Layer(i)
		if err != nil {
			return err
		}
		id := t.begin(spanAppend, 0)
		err = dst.AppendLayer(l)
		if err == nil {
			err = dst.Sync()
		}
		t.end(id)
		if err != nil {
			return err
		}
		secs += t.seconds(id)
	}
	if dst.DiskBytes() != src.DiskBytes() {
		return fmt.Errorf("replayed store holds %d bytes, the captured one %d", dst.DiskBytes(), src.DiskBytes())
	}
	m["provenance.append_s"] = secs
	return nil
}

// probeLayers times the read side of the store and the rule evaluator alone,
// over the store the layered jobs query: one pass of Store.Layer over every
// layer (far more than the reload cache holds, so each is decoded), then one
// Evaluator.Fixpoint over the same facts, materialised beforehand.
func probeLayers(t *tracer, e *env, m map[string]float64) error {
	q, err := e.w.query().Build()
	if err != nil {
		return err
	}
	ev, err := eval.NewEvaluator(q, eval.NewDatabase())
	if err != nil {
		return err
	}
	feed := func(pred string, tuple ...value.Value) {
		if _, ok := q.EDBs[pred]; ok {
			ev.AddFact(pred, tuple)
		}
	}
	var secs float64
	for i := 0; i < e.store.NumLayers(); i++ {
		id := t.begin(spanLayerPass, 0)
		l, err := e.store.Layer(i)
		t.end(id)
		if err != nil {
			return err
		}
		secs += t.seconds(id)
		ss := value.NewInt(int64(i))
		for j := range l.Records {
			rec := &l.Records[j]
			x := value.NewInt(int64(rec.Vertex))
			feed("superstep", x, ss)
			if rec.HasValue {
				feed("value", x, rec.Value, ss)
			}
			if rec.PrevActive >= 0 {
				feed("evolution", x, value.NewInt(int64(rec.PrevActive)), ss)
			}
			for _, s := range rec.Sends {
				feed("send_message", x, value.NewInt(int64(s.Peer)), s.Val, ss)
			}
			for _, r := range rec.Recvs {
				feed("receive_message", x, value.NewInt(int64(r.Peer)), r.Val, ss)
			}
		}
	}
	m["provenance.layer_s"] = secs
	m["provenance.decode_bytes"] = float64(e.store.DiskBytes())

	id := t.begin(spanFixpoint, 0)
	err = ev.Fixpoint()
	t.end(id)
	if err != nil {
		return err
	}
	m["eval.fixpoint_s"] = t.seconds(id)
	m["eval.tuples_out"] = float64(ev.Stats().Derivations)
	return nil
}

// repeatCheck runs the untraced workload twice and reports disagreement
// beyond BENCHMARK.json's bounds, or in any exact count, as failed jobs.
func repeatCheck(w *workload, cfg config, spec *benchSpec) (*result, error) {
	a, err := measure(w, cfg)
	if err != nil {
		return nil, err
	}
	b, err := measure(w, cfg)
	if err != nil {
		return nil, err
	}
	b.attempted += a.attempted
	b.failed += a.failed
	for _, ms := range spec.EndToEnd {
		x, y := a.metrics[ms.Name], b.metrics[ms.Name]
		if d := math.Abs(x-y) / math.Min(x, y); d > ms.Bound {
			b.failed++
			fmt.Printf("repeat-check: %s %.4f then %.4f differ by %.3f, bound %.2f\n", ms.Name, x, y, d, ms.Bound)
		}
	}
	for k, v := range a.counts {
		if b.counts[k] != v {
			b.failed++
			fmt.Printf("repeat-check: count %s %d then %d\n", k, v, b.counts[k])
		}
	}
	return b, nil
}
