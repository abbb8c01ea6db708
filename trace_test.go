package ariadne_test

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"testing"
	"time"

	"ariadne"
	"ariadne/internal/analytics"
	"ariadne/internal/engine"
	"ariadne/internal/fault"
	"ariadne/internal/obs"
	"ariadne/internal/queries"
	"ariadne/internal/transport"
	"ariadne/internal/value"
)

// Distributed run tracing (PR 7): one trace ID spans master and worker
// processes, the merged timeline decomposes transport overhead into named
// buckets, the run's telemetry is queryable from PQL, and all of it
// survives checkpoint/resume.

// startTCPWorkers spawns n worker processes-in-goroutines (real TCP
// loopback, separate executors — the same isolation a separate process has,
// minus the fork) and returns their addresses.
func startTCPWorkers(t *testing.T, g *ariadne.Graph, prog ariadne.Program, parts, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		x, err := engine.NewExecutor(g, prog, engine.Config{Partitions: parts})
		if err != nil {
			t.Fatal(err)
		}
		w, err := transport.NewWorker(x, "127.0.0.1:0", nil)
		if err != nil {
			t.Fatal(err)
		}
		go w.Serve()
		t.Cleanup(func() { w.Close() })
		addrs[i] = w.Addr()
	}
	return addrs
}

func dialTCP(t *testing.T, g *ariadne.Graph, parts int, addrs []string, mod func(*transport.TCPConfig)) *transport.TCP {
	t.Helper()
	cfg := transport.TCPConfig{
		Addrs: addrs,
		Fingerprint: transport.Fingerprint{
			Partitions:  parts,
			NumVertices: g.NumVertices(),
			NumEdges:    g.NumEdges(),
		},
	}
	if mod != nil {
		mod(&cfg)
	}
	tr, err := transport.DialTCP(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tr.Close() })
	return tr
}

func TestDistributedTraceTimeline(t *testing.T) {
	g := rmatGraph(t)
	const parts = 4
	prog := func() ariadne.Program { return &analytics.PageRank{Iterations: 6} }

	m := ariadne.NewMetrics()
	// One dropped frame on partition 1 so the retry bucket is exercised
	// alongside serialize/wire/worker_compute.
	inj := fault.NewInjector(fault.NetMatrix(1, 1, 0)["drop"]...)
	addrs := startTCPWorkers(t, g, prog(), parts, 2)
	tr := dialTCP(t, g, parts, addrs, func(c *transport.TCPConfig) {
		c.MessageDeadline = 100 * time.Millisecond
		c.MaxRetries = 2
		c.Backoff = time.Millisecond
		c.Fault = inj
		c.Metrics = m
	})

	res, err := ariadne.Run(g, prog(),
		ariadne.WithMaxSupersteps(7),
		ariadne.WithPartitions(parts),
		ariadne.WithMetrics(m),
		ariadne.WithSpanTrace(),
		ariadne.WithTransport(tr))
	if err != nil {
		t.Fatal(err)
	}
	if inj.Fired() == 0 {
		t.Fatal("drop fault never fired")
	}

	spans := res.Metrics.Spans()
	if len(spans) == 0 {
		t.Fatal("traced distributed run recorded no spans")
	}

	// One trace ID across every span, master and workers alike.
	tid := res.Metrics.SpanTraceID()
	procs := map[string]bool{}
	bySS := map[int]map[string]int64{} // superstep -> phase -> dur
	for _, sp := range spans {
		if sp.TraceID != tid {
			t.Fatalf("span %s has trace ID %#x, want %#x", sp.Name, sp.TraceID, tid)
		}
		procs[sp.Proc] = true
		if sp.Partition == -1 && sp.Proc == obs.ProcMaster {
			if bySS[sp.Superstep] == nil {
				bySS[sp.Superstep] = map[string]int64{}
			}
			bySS[sp.Superstep][sp.Name] += sp.Dur
		}
	}
	if !procs[obs.ProcMaster] {
		t.Error("no master spans")
	}
	for _, a := range addrs {
		if !procs["worker:"+a] {
			t.Errorf("no spans from worker %s (procs: %v)", a, procs)
		}
	}

	// The per-superstep phase spans must agree with the profile: the sum of
	// compute+barrier+observe within 10% of the profile's superstep
	// wall-time, for every superstep, and the umbrella span must cover it.
	if len(res.Profile) == 0 {
		t.Fatal("no profiles")
	}
	for _, p := range res.Profile {
		phases := bySS[p.Superstep]
		if phases == nil {
			t.Fatalf("superstep %d has no master phase spans", p.Superstep)
		}
		sum := phases[obs.SpanCompute] + phases[obs.SpanBarrier] + phases[obs.SpanObserve]
		wall := p.ComputeNS + p.BarrierNS + p.ObserveNS
		if wall == 0 {
			continue
		}
		if ratio := float64(sum) / float64(wall); ratio < 0.9 || ratio > 1.1 {
			t.Errorf("superstep %d: phase spans sum %d vs profile wall %d (ratio %.3f, want within 10%%)",
				p.Superstep, sum, wall, ratio)
		}
		if phases[obs.SpanSuperstep] < sum {
			t.Errorf("superstep %d: umbrella span %d shorter than its phases %d",
				p.Superstep, phases[obs.SpanSuperstep], sum)
		}
	}

	// All four transport buckets must be nonzero: the run serialized
	// requests, crossed the wire, computed on workers, and backed off once.
	buckets := res.Metrics.TransportBuckets()
	if buckets == nil {
		t.Fatal("no transport buckets")
	}
	for _, b := range []string{"serialize", "wire", "worker_compute", "retry"} {
		if buckets[b] <= 0 {
			t.Errorf("bucket %s = %d, want > 0 (%v)", b, buckets[b], buckets)
		}
	}

	// Satellite: the net counters surface on the Result.
	if res.NetStats["ariadne_net_bytes_sent_total"] <= 0 ||
		res.NetStats["ariadne_net_retransmits_total"] <= 0 {
		t.Errorf("NetStats missing transport counters: %v", res.NetStats)
	}

	// The Chrome export is valid trace_event JSON with one pid per process.
	var chrome struct {
		TraceEvents []struct {
			Ph  string `json:"ph"`
			PID int    `json:"pid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(res.Metrics.ChromeTrace(), &chrome); err != nil {
		t.Fatalf("ChromeTrace unparseable: %v", err)
	}
	pids := map[int]bool{}
	for _, e := range chrome.TraceEvents {
		if e.Ph == "X" {
			pids[e.PID] = true
		}
	}
	if len(pids) != 3 {
		t.Errorf("trace has %d pids, want 3 (master + 2 workers)", len(pids))
	}
}

// TestTelemetryEDBDifferential runs the committed net-gap self-query — join
// net_rpc retries with capture_gap sheds — over a run whose partition 1 is
// unreachable, at 1 and 2 workers. The projected rows must be identical
// across worker counts and must name the unreachable partition.
func TestTelemetryEDBDifferential(t *testing.T) {
	g := rmatGraph(t)
	const parts = 4
	prog := func() ariadne.Program { return &analytics.PageRank{Iterations: 6} }

	var ref *ariadne.QueryResult
	for _, nw := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers-%d", nw), func(t *testing.T) {
			m := ariadne.NewMetrics()
			inj := fault.NewInjector(fault.NetMatrix(1, -1, 0)["unreachable"]...)
			addrs := startTCPWorkers(t, g, prog(), parts, nw)
			tr := dialTCP(t, g, parts, addrs, func(c *transport.TCPConfig) {
				c.MessageDeadline = 50 * time.Millisecond
				c.MaxRetries = 1
				c.Backoff = time.Millisecond
				c.Fault = inj
				c.Metrics = m
			})
			res, err := ariadne.Run(g, prog(),
				ariadne.WithMaxSupersteps(7),
				ariadne.WithPartitions(parts),
				ariadne.WithCaptureQuery(queries.CaptureFull(), ariadne.StoreConfig{}),
				ariadne.WithMetrics(m),
				ariadne.WithSpanTrace(),
				ariadne.WithSupervision(ariadne.SuperviseConfig{
					MaxRetries:          2,
					Backoff:             time.Millisecond,
					DegradeCaptureAfter: 1,
				}),
				ariadne.WithTransport(tr))
			if err != nil {
				t.Fatal(err)
			}
			defer res.Provenance.Close()
			if len(res.CaptureGaps) == 0 {
				t.Fatal("unreachable partition did not shed capture")
			}

			qr, err := ariadne.QueryOffline(queries.NetGap(), res.Provenance, g, ariadne.Auto, 0)
			if err != nil {
				t.Fatal(err)
			}
			gaps := ariadne.Tuples(qr, "net_gap")
			if len(gaps) == 0 {
				t.Fatal("net_gap derived no rows: the telemetry join found nothing")
			}
			one := value.NewInt(1)
			for _, row := range gaps {
				if !row[0].Equal(one) {
					t.Errorf("net_gap names partition %v, want 1", row[0])
				}
			}
			retries := ariadne.Tuples(qr, "exchange_retry")
			if len(retries) == 0 {
				t.Fatal("exchange_retry derived no rows despite retransmits")
			}

			if ref == nil {
				ref = qr
			} else {
				sameQueryResults(t, qr, ref)
			}
		})
	}
}

// TestObsServeScrapeDuringTracedRun hammers every obs.Serve endpoint —
// including the new /debug/ariadne/trace.json — while a traced distributed
// run is in flight. Run under -race this is the data-race gate for the span
// collector and the Chrome exporter.
func TestObsServeScrapeDuringTracedRun(t *testing.T) {
	g := rmatGraph(t)
	const parts = 4
	prog := func() ariadne.Program { return &analytics.PageRank{Iterations: 8} }

	m := ariadne.NewMetrics()
	srv, addr, err := obs.Serve("127.0.0.1:0", m)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	laddr := addr.String()

	done := make(chan struct{})
	var wg sync.WaitGroup
	endpoints := []string{"/metrics", "/debug/vars", "/debug/ariadne/trace.json", "/trace", "/supersteps"}
	for _, ep := range endpoints {
		wg.Add(1)
		go func(url string) {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				resp, err := http.Get(url)
				if err != nil {
					continue // server may be mid-close at test end
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}("http://" + laddr + ep)
	}

	addrs := startTCPWorkers(t, g, prog(), parts, 2)
	tr := dialTCP(t, g, parts, addrs, func(c *transport.TCPConfig) { c.Metrics = m })
	_, err = ariadne.Run(g, prog(),
		ariadne.WithMaxSupersteps(9),
		ariadne.WithPartitions(parts),
		ariadne.WithMetrics(m),
		ariadne.WithSpanTrace(),
		ariadne.WithTransport(tr))
	close(done)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}

	// A final scrape of the trace endpoint must return the full timeline.
	resp, err := http.Get("http://" + laddr + "/debug/ariadne/trace.json")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var chrome struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(body, &chrome); err != nil {
		t.Fatalf("trace.json unparseable: %v", err)
	}
	if len(chrome.TraceEvents) == 0 {
		t.Fatal("trace.json empty after a traced run")
	}
}

// TestSpanTraceCheckpointResume: spans persist through checkpoint (v5) and
// a resumed run continues the same trace — pre-crash supersteps and
// post-resume supersteps under one trace ID.
func TestSpanTraceCheckpointResume(t *testing.T) {
	g := chain(t, 30)
	dir := t.TempDir()
	common := func(m *ariadne.Metrics) []ariadne.Option {
		return []ariadne.Option{
			ariadne.WithMetrics(m),
			ariadne.WithSpanTrace(),
			ariadne.WithCheckpoint(dir, 2),
		}
	}

	m1 := ariadne.NewMetrics()
	_, err := ariadne.Run(g, &analytics.SSSP{Source: 0},
		append(common(m1), ariadne.WithFault(fault.NewInjector(fault.PanicAt(6, -1))))...)
	if err == nil {
		t.Fatal("want crash, got success")
	}
	firstTID := m1.SpanTraceID()
	if firstTID == 0 {
		t.Fatal("crashed run had no trace ID")
	}

	// Fresh registry = fresh process: everything must come off the disk.
	m2 := ariadne.NewMetrics()
	res, err := ariadne.Resume(g, &analytics.SSSP{Source: 0}, common(m2)...)
	if err != nil {
		t.Fatal(err)
	}
	if res.ResumedFrom <= 0 {
		t.Fatalf("ResumedFrom = %d, want > 0", res.ResumedFrom)
	}
	spans := res.Metrics.Spans()
	var pre, post bool
	for _, sp := range spans {
		if sp.TraceID != firstTID {
			t.Fatalf("span %s/%d trace ID %#x, want the original run's %#x (one trace across resume)",
				sp.Name, sp.Superstep, sp.TraceID, firstTID)
		}
		if sp.Name == obs.SpanSuperstep {
			if sp.Superstep < res.ResumedFrom {
				pre = true
			} else {
				post = true
			}
		}
	}
	if !pre {
		t.Error("resumed run lost the pre-crash superstep spans (checkpoint span section)")
	}
	if !post {
		t.Error("resumed run recorded no new superstep spans")
	}

	// Span IDs must not collide across the restore boundary.
	seen := map[uint64]bool{}
	for _, sp := range spans {
		if seen[sp.SpanID] {
			t.Fatalf("duplicate span ID %d after resume", sp.SpanID)
		}
		seen[sp.SpanID] = true
	}
}
