// benchjson converts `go test -bench` output on stdin into a machine-readable
// JSON report and enforces the hardware-independent regression ratios for the
// barrier, transport, and query-evaluation microbenchmarks:
//
//	go test -run '^$' -bench 'Barrier|SpillPipeline|LayeredEval' ./internal/... | \
//	    go run ./cmd/benchjson -out BENCH_micro.json
//
// Absolute ns/op is meaningless across CI runners, so the regression checks
// compare legs of the same run, such as the parallel/sequential
// barrier-phase ratio. Exit status 1 means a ratio crossed its threshold (or
// an expected benchmark is missing).
//
// With -e2e it instead reads the output of the repository benchmark
// (`bash benchmark/run.sh --workload W ...`, any number of workloads) and
// appends one entry to the end-to-end trajectory BENCH_e2e.json:
//
//	make bench-e2e
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"strconv"
	"strings"
)

// Bench is one parsed benchmark result line. Metrics maps unit → value for
// every "value unit" pair after the iteration count (ns/op, B/op, allocs/op,
// and custom b.ReportMetric units like barrier-ns/op).
type Bench struct {
	Name       string             `json:"name"`
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
}

// Report is the BENCH_micro.json schema.
type Report struct {
	Benchmarks []Bench            `json:"benchmarks"`
	Ratios     map[string]float64 `json:"ratios"`
	Failures   []string           `json:"failures,omitempty"`
}

var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+(\d+)\s+(.*)$`)

func parse(lines []string) []Bench {
	var out []Bench
	for _, line := range lines {
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		iters, _ := strconv.ParseInt(m[2], 10, 64)
		b := Bench{Name: m[1], Iterations: iters, Metrics: map[string]float64{}}
		fields := strings.Fields(m[3])
		for i := 0; i+1 < len(fields); i += 2 {
			if v, err := strconv.ParseFloat(fields[i], 64); err == nil {
				b.Metrics[fields[i+1]] = v
			}
		}
		out = append(out, b)
	}
	return out
}

func metric(benches []Bench, name, unit string) (float64, bool) {
	for _, b := range benches {
		if b.Name == name {
			v, ok := b.Metrics[unit]
			return v, ok
		}
	}
	return 0, false
}

// ratio computes num/den for a named check; a missing benchmark or metric is
// reported as a failure so CI can't silently skip a check.
func ratio(r *Report, benches []Bench, key, numName, denName, unit string) float64 {
	num, okN := metric(benches, numName, unit)
	den, okD := metric(benches, denName, unit)
	if !okN || !okD || den == 0 {
		r.Failures = append(r.Failures, fmt.Sprintf("%s: missing %s for %s or %s", key, unit, numName, denName))
		return 0
	}
	v := num / den
	r.Ratios[key] = v
	return v
}

// maxBarrierFanout bounds parallel/sequential barrier-phase time (see the
// gate).
const maxBarrierFanout = 1.1

func main() {
	out := flag.String("out", "BENCH_micro.json", "output JSON path")
	e2e := flag.Bool("e2e", false,
		"read benchmark/run.sh output on stdin and append one entry to the "+
			"end-to-end record named by -out, instead of gating microbenchmarks")
	commit := flag.String("commit", "unknown", "with -e2e: the commit the entry was measured at")
	maxTransport := flag.Float64("max-transport-overhead", 10,
		"maximum tcp-loopback/in-process full-run time ratio (the transport "+
			"seam's serialization + framing cost; worker-resident state keeps "+
			"it well under 1.5x on a loopback container)")
	maxTrace := flag.Float64("max-trace-overhead", 1.05,
		"maximum traced/untraced full-run time ratio over TCP loopback "+
			"(span tracing must cost at most 5% on an instrumented run)")
	minReplayProj := flag.Float64("min-replay-projection-speedup", 1.3,
		"minimum projected/unprojected facts-per-second ratio on the layered "+
			"replay of a vector-valued capture (what projection pushdown "+
			"saves when the query never reads the payload columns)")
	expect := flag.String("expect", "all",
		"comma-separated gate keys to enforce, or \"all\"; a gate not listed "+
			"is skipped entirely, so partial benchmark runs (make bench-store) "+
			"can reuse this binary without tripping missing-benchmark failures")
	flag.Parse()

	if *e2e {
		if err := appendE2E(*out, *commit); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson: FAIL:", err)
			os.Exit(1)
		}
		return
	}

	wanted := map[string]bool{}
	for _, k := range strings.Split(*expect, ",") {
		if k = strings.TrimSpace(k); k != "" {
			wanted[k] = true
		}
	}
	wants := func(key string) bool { return wanted["all"] || wanted[key] }

	var lines []string
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		fmt.Println(sc.Text()) // pass through so the raw log stays visible
		lines = append(lines, sc.Text())
	}
	benches := parse(lines)
	rep := &Report{Benchmarks: benches, Ratios: map[string]float64{}}

	// barrier_fanout_overhead is a ceiling: both legs run the same
	// inbox.build over the same columns, so building one inbox per goroutine
	// may cost at most 10% over building them one after the other even on a
	// single core, where it cannot win. barrier-ns/msg and allocs/op of each
	// leg are in the benchmark rows above.
	if wants("barrier_fanout_overhead") {
		if v := ratio(rep, benches, "barrier_fanout_overhead",
			"BenchmarkBarrier/parallel/nocombine",
			"BenchmarkBarrier/sequential/nocombine", "barrier-ns/op"); v > maxBarrierFanout {
			rep.Failures = append(rep.Failures,
				fmt.Sprintf("barrier_fanout_overhead %.2f > %.2f", v, maxBarrierFanout))
		}
		ratio(rep, benches, "combine_barrier_fanout_overhead",
			"BenchmarkBarrier/parallel/combine",
			"BenchmarkBarrier/sequential/combine", "barrier-ns/op")
	}
	// transport_overhead is a ceiling, not a floor: the TCP leg is allowed
	// to cost more than in-process, but not unboundedly more.
	if wants("transport_overhead") {
		if v := ratio(rep, benches, "transport_overhead",
			"BenchmarkTransportRun/tcp",
			"BenchmarkTransportRun/inproc", "ns/op"); v > *maxTransport {
			rep.Failures = append(rep.Failures,
				fmt.Sprintf("transport_overhead %.2f > %.2f", v, *maxTransport))
		}
	}
	// Assembling and writing a wire frame must not allocate: the pooled
	// single-buffer encode is what lets delta exchanges pipeline without
	// GC pressure (the PR 9 invariant, like span_disabled_allocs for PR 2).
	if wants("wire_frame_allocs") {
		if v, ok := metric(benches, "BenchmarkWireFrame/write", "allocs/op"); !ok {
			rep.Failures = append(rep.Failures, "wire_frame_allocs: missing BenchmarkWireFrame/write")
		} else {
			rep.Ratios["wire_frame_allocs"] = v
			if v != 0 {
				rep.Failures = append(rep.Failures,
					fmt.Sprintf("wire_frame_allocs %.1f != 0 (frame write path allocates)", v))
			}
		}
	}
	// trace_overhead compares two TCP-loopback legs of the same run, one
	// with spans enabled. Like transport_overhead it is a ceiling.
	if wants("trace_overhead") {
		if v := ratio(rep, benches, "trace_overhead",
			"BenchmarkTraceRun/traced",
			"BenchmarkTraceRun/untraced", "ns/op"); v > *maxTrace {
			rep.Failures = append(rep.Failures,
				fmt.Sprintf("trace_overhead %.2f > %.2f", v, *maxTrace))
		}
	}
	// The disabled span path must be literally free: zero allocations per
	// RecordSpan call when no sink is installed (the PR 2 invariant).
	if wants("span_disabled_allocs") {
		if v, ok := metric(benches, "BenchmarkSpanDisabled", "allocs/op"); !ok {
			rep.Failures = append(rep.Failures, "span_disabled_allocs: missing BenchmarkSpanDisabled")
		} else {
			rep.Ratios["span_disabled_allocs"] = v
			if v != 0 {
				rep.Failures = append(rep.Failures,
					fmt.Sprintf("span_disabled_allocs %.1f != 0 (disabled span path allocates)", v))
			}
		}
	}
	// A steady-state online superstep must not allocate: record views borrow
	// the engine's records and a duplicate derivation probes the relation
	// with reused key bytes (BenchmarkOnlineObserve, Query 6).
	if wants("online_observe_allocs") {
		if v, ok := metric(benches, "BenchmarkOnlineObserve", "allocs/op"); !ok {
			rep.Failures = append(rep.Failures, "online_observe_allocs: missing BenchmarkOnlineObserve")
		} else {
			rep.Ratios["online_observe_allocs"] = v
			if v != 0 {
				rep.Failures = append(rep.Failures,
					fmt.Sprintf("online_observe_allocs %.1f != 0 (online observe path allocates)", v))
			}
		}
	}
	// layered_replay_facts_s is a floor on projection pushdown: replaying a
	// vector-valued capture for a query that never touches the payload
	// columns must be materially faster when the store only materializes the
	// columns the query asked for.
	if wants("layered_replay_facts_s") {
		if v := ratio(rep, benches, "layered_replay_facts_s",
			"BenchmarkLayeredReplay/projected",
			"BenchmarkLayeredReplay/unprojected", "facts/s"); v > 0 && v < *minReplayProj {
			rep.Failures = append(rep.Failures,
				fmt.Sprintf("layered_replay_facts_s %.2f < %.2f", v, *minReplayProj))
		}
	}

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(2)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(2)
	}
	if len(rep.Failures) > 0 {
		for _, f := range rep.Failures {
			fmt.Fprintln(os.Stderr, "benchjson: FAIL:", f)
		}
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "benchjson: wrote %s (%d benchmarks, %d ratios)\n",
		*out, len(benches), len(rep.Ratios))
}
