package ariadne_test

import (
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"ariadne"
	"ariadne/internal/analytics"
	"ariadne/internal/fault"
	"ariadne/internal/obs"
	"ariadne/internal/queries"
)

// Observability suite: per-superstep profiles through the public API, the
// differential metrics-survive-recovery guarantee, race-safe mid-run
// scraping, and warning trace events for retried spills under faults.

// TestRunWithMetricsProfile covers the tentpole end to end: one registry
// threaded through engine, capture, and an online query, with the profile
// exposed on the Result.
func TestRunWithMetricsProfile(t *testing.T) {
	g := rmatGraph(t)
	m := ariadne.NewMetrics()
	res, err := ariadne.Run(g, &analytics.PageRank{Iterations: 10},
		ariadne.WithMaxSupersteps(11),
		ariadne.WithMetrics(m),
		ariadne.WithOnlineQuery(queries.PageRankCheck()),
		ariadne.WithCaptureQuery(queries.CaptureFull(), ariadne.StoreConfig{}))
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics != m {
		t.Fatal("Result.Metrics is not the registry passed in")
	}
	if len(res.Profile) != res.Stats.Supersteps {
		t.Fatalf("profile entries = %d, want %d (one per superstep)", len(res.Profile), res.Stats.Supersteps)
	}

	var sent, delivered, combined, captured, piggyback int64
	peak := 0
	for i, p := range res.Profile {
		if p.Superstep != i {
			t.Errorf("profile %d covers superstep %d", i, p.Superstep)
		}
		if p.ActiveVertices != res.Stats.ActiveVertices[i] {
			t.Errorf("superstep %d active = %d, want %d", i, p.ActiveVertices, res.Stats.ActiveVertices[i])
		}
		sent += p.MessagesSent
		delivered += p.MessagesDelivered
		combined += p.MessagesCombined
		captured += p.CaptureTuples["value"]
		piggyback += p.PiggybackTuples["q4-pagerank-check"]
		peak = max(peak, p.ActiveVertices)
	}
	if sent != res.Stats.MessagesSent || delivered != res.Stats.MessagesDelivered || combined != res.Stats.MessagesCombined {
		t.Errorf("profile sums %d/%d/%d != stats %d/%d/%d",
			sent, delivered, combined, res.Stats.MessagesSent, res.Stats.MessagesDelivered, res.Stats.MessagesCombined)
	}
	if res.Stats.MessagesSent != res.Stats.MessagesDelivered+res.Stats.MessagesCombined {
		t.Errorf("sent %d != delivered %d + combined %d",
			res.Stats.MessagesSent, res.Stats.MessagesDelivered, res.Stats.MessagesCombined)
	}
	if res.Stats.PeakActiveVertices != peak {
		t.Errorf("peak active = %d, want %d", res.Stats.PeakActiveVertices, peak)
	}
	// Full capture records one value tuple per computed vertex.
	var active int64
	for _, n := range res.Stats.ActiveVertices {
		active += int64(n)
	}
	if captured != active {
		t.Errorf("captured value tuples = %d, want %d (one per active vertex)", captured, active)
	}
	if piggyback <= 0 {
		t.Error("online query derived no piggyback tuples in the profile")
	}
	// Counters agree with the profile sums.
	if got := m.Counter(obs.MetricMessagesSent).Value(); got != sent {
		t.Errorf("messages counter = %d, want %d", got, sent)
	}
	if got := m.Counter(obs.L(obs.MetricPiggybackTuples, "query", "q4-pagerank-check")).Value(); got != piggyback {
		t.Errorf("piggyback counter = %d, want %d", got, piggyback)
	}
	if res.Stats.ComputeWall <= 0 || res.Stats.BarrierWall <= 0 {
		t.Error("phase wall times not recorded")
	}
}

// TestCombinerMetrics: with a combiner installed (and no raw-message
// observers) the merged-away messages show up in stats and profiles.
func TestCombinerMetrics(t *testing.T) {
	g := rmatGraph(t)
	m := ariadne.NewMetrics()
	res, err := ariadne.Run(g, &analytics.PageRank{Iterations: 5},
		ariadne.WithMaxSupersteps(6),
		ariadne.WithCombiner(analytics.SumCombiner),
		ariadne.WithMetrics(m))
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.MessagesCombined == 0 {
		t.Error("combiner merged no messages on an RMAT graph (expected fan-in)")
	}
	if res.Stats.MessagesSent != res.Stats.MessagesDelivered+res.Stats.MessagesCombined {
		t.Errorf("sent %d != delivered %d + combined %d",
			res.Stats.MessagesSent, res.Stats.MessagesDelivered, res.Stats.MessagesCombined)
	}
}

// normalizeProfiles zeroes the fields a straight-vs-resumed comparison must
// ignore: wall-clock durations always differ across runs, and checkpoint
// write costs are attributed after the profile is snapshotted into the
// checkpoint itself (plus the resumed run may write a different number of
// checkpoints than the baseline, which writes none).
func normalizeProfiles(ps []ariadne.SuperstepProfile) []ariadne.SuperstepProfile {
	out := append([]ariadne.SuperstepProfile(nil), ps...)
	for i := range out {
		out[i].ComputeNS, out[i].BarrierNS, out[i].ObserveNS = 0, 0, 0
		out[i].SpillNS = 0
		out[i].CheckpointBytes, out[i].CheckpointNS = 0, 0
		out[i].Retries = nil
	}
	return out
}

func sameProfiles(t *testing.T, got, want []ariadne.SuperstepProfile) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("profile count %d != %d", len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Superstep != w.Superstep || g.ActiveVertices != w.ActiveVertices {
			t.Errorf("profile %d superstep/active %d/%d != %d/%d", i, g.Superstep, g.ActiveVertices, w.Superstep, w.ActiveVertices)
		}
		if g.MessagesSent != w.MessagesSent || g.MessagesDelivered != w.MessagesDelivered || g.MessagesCombined != w.MessagesCombined {
			t.Errorf("profile %d messages %d/%d/%d != %d/%d/%d", i,
				g.MessagesSent, g.MessagesDelivered, g.MessagesCombined, w.MessagesSent, w.MessagesDelivered, w.MessagesCombined)
		}
		if g.CaptureBytes != w.CaptureBytes || g.SpillBytes != w.SpillBytes {
			t.Errorf("profile %d capture/spill bytes %d/%d != %d/%d", i, g.CaptureBytes, g.SpillBytes, w.CaptureBytes, w.SpillBytes)
		}
		if len(g.CaptureTuples) != len(w.CaptureTuples) {
			t.Errorf("profile %d capture tables %v != %v", i, g.CaptureTuples, w.CaptureTuples)
		}
		for table, n := range w.CaptureTuples {
			if g.CaptureTuples[table] != n {
				t.Errorf("profile %d capture[%s] = %d, want %d", i, table, g.CaptureTuples[table], n)
			}
		}
		for q, n := range w.PiggybackTuples {
			if g.PiggybackTuples[q] != n {
				t.Errorf("profile %d piggyback[%s] = %d, want %d", i, q, g.PiggybackTuples[q], n)
			}
		}
	}
}

// TestMetricsSurviveRecovery is the differential observability test: a run
// crashed mid-flight and resumed from its checkpoint must report the same
// per-superstep profiles and cumulative counters as an uninterrupted run —
// modulo durations and checkpoint-write accounting (normalizeProfiles).
func TestMetricsSurviveRecovery(t *testing.T) {
	g := rmatGraph(t)
	prog := &analytics.PageRank{Iterations: 14}
	def := queries.PageRankCheck()

	baseM := ariadne.NewMetrics()
	baseline, err := ariadne.Run(g, prog,
		ariadne.WithMaxSupersteps(15),
		ariadne.WithMetrics(baseM),
		ariadne.WithOnlineQuery(def),
		ariadne.WithCaptureQuery(queries.CaptureFull(), ariadne.StoreConfig{SpillAll: true, SpillDir: t.TempDir()}))
	if err != nil {
		t.Fatal(err)
	}
	defer baseline.Provenance.Close()

	spillDir, ckDir := t.TempDir(), t.TempDir()
	runOpts := func(m *ariadne.Metrics) []ariadne.Option {
		return []ariadne.Option{
			ariadne.WithMaxSupersteps(15),
			ariadne.WithMetrics(m),
			ariadne.WithOnlineQuery(def),
			ariadne.WithCaptureQuery(queries.CaptureFull(), ariadne.StoreConfig{SpillAll: true, SpillDir: spillDir}),
			ariadne.WithCheckpoint(ckDir, 3),
		}
	}
	crashM := ariadne.NewMetrics()
	_, err = ariadne.Run(g, prog, append(runOpts(crashM),
		ariadne.WithFault(fault.NewInjector(fault.PanicAt(8, -1))))...)
	var ce *ariadne.CrashError
	if !errors.As(err, &ce) {
		t.Fatalf("want CrashError, got %v", err)
	}

	// Resume in a fresh registry, as a restarted process would.
	resM := ariadne.NewMetrics()
	res, err := ariadne.Resume(g, prog, runOpts(resM)...)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Provenance.Close()
	if res.ResumedFrom == 0 {
		t.Fatal("Resume did not restart from a checkpoint")
	}

	sameProfiles(t, normalizeProfiles(res.Profile), normalizeProfiles(baseline.Profile))
	if res.Stats.Supersteps != baseline.Stats.Supersteps ||
		res.Stats.MessagesSent != baseline.Stats.MessagesSent ||
		res.Stats.MessagesDelivered != baseline.Stats.MessagesDelivered ||
		res.Stats.PeakActiveVertices != baseline.Stats.PeakActiveVertices {
		t.Errorf("recovered stats %+v != baseline %+v", res.Stats, baseline.Stats)
	}
	// Cumulative counters match too — the resumed registry rebuilt the
	// pre-crash history from the checkpointed profiles.
	for _, name := range []string{
		obs.MetricSupersteps,
		obs.MetricMessagesSent,
		obs.MetricMessagesDelivered,
		obs.MetricCaptureBytes,
		obs.L(obs.MetricCaptureTuples, "table", "value"),
		obs.L(obs.MetricPiggybackTuples, "query", def.Name),
	} {
		if got, want := resM.Counter(name).Value(), baseM.Counter(name).Value(); got != want {
			t.Errorf("counter %s = %d after recovery, want %d", name, got, want)
		}
	}
	// So does every other counter series the baseline holds, and the spill
	// histogram's count: the resumed registry installed the checkpointed
	// one, series without a profile column included.
	baseCounters := baseM.Telemetry().Counters
	if len(baseCounters) == 0 {
		t.Fatal("baseline registry holds no counters")
	}
	for name, want := range baseCounters {
		if got := resM.Counter(name).Value(); got != want {
			t.Errorf("counter %s = %d after recovery, want %d", name, got, want)
		}
	}
	if got, want := resM.Histogram(obs.MetricSpillSeconds).Count(), baseM.Histogram(obs.MetricSpillSeconds).Count(); got != want || want == 0 {
		t.Errorf("%s_count = %d after recovery, want %d (> 0)", obs.MetricSpillSeconds, got, want)
	}
}

// TestConcurrentScrape exercises the race-safety claim under -race: HTTP
// scrapes of /metrics and /supersteps proceed while supersteps execute.
func TestConcurrentScrape(t *testing.T) {
	g := rmatGraph(t)
	m := ariadne.NewMetrics()
	srv := httptest.NewServer(obs.Handler(m))
	defer srv.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	scrape := func(path string) {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			resp, err := http.Get(srv.URL + path)
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}
	}
	wg.Add(2)
	go scrape("/metrics")
	go scrape("/supersteps")

	res, err := ariadne.Run(g, &analytics.PageRank{Iterations: 12},
		ariadne.WithMaxSupersteps(13),
		ariadne.WithMetrics(m),
		ariadne.WithTrace(128),
		ariadne.WithOnlineQuery(queries.PageRankCheck()))
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}

	// Final scrape reflects the completed run.
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "ariadne_supersteps_total "+itoa(res.Stats.Supersteps)) {
		t.Errorf("final /metrics missing superstep total %d:\n%s", res.Stats.Supersteps, body)
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

// TestSpillRetryWarnTrace covers the fault-observability satellite: a layer
// write that falls back to retry under injected I/O faults must leave a
// warning-level trace event and a retry count — never retry silently.
func TestSpillRetryWarnTrace(t *testing.T) {
	g := chain(t, 16)
	m := ariadne.NewMetrics()
	res, err := ariadne.Run(g, &analytics.SSSP{Source: 0},
		ariadne.WithMetrics(m),
		ariadne.WithTrace(256),
		ariadne.WithCaptureQuery(queries.CaptureFull(), ariadne.StoreConfig{SpillAll: true, SpillDir: t.TempDir()}),
		ariadne.WithFault(fault.NewInjector(fault.IOErrors(fault.SiteSpillWrite, 2))))
	if err != nil {
		t.Fatalf("transient spill faults should be retried away: %v", err)
	}
	defer res.Provenance.Close()

	if got := m.Counter(obs.L(obs.MetricRetries, "site", "spill")).Value(); got != 2 {
		t.Errorf("spill retry counter = %d, want 2", got)
	}
	var profRetries int64
	for _, p := range res.Profile {
		profRetries += p.Retries["spill"]
	}
	if profRetries != 2 {
		t.Errorf("profile spill retries = %d, want 2", profRetries)
	}
	events, _ := m.TraceEvents()
	warns := 0
	for _, e := range events {
		if e.Level == obs.Warn && e.Site == "spill" && strings.Contains(e.Msg, "retrying") {
			warns++
		}
	}
	if warns != 2 {
		t.Errorf("warning trace events for spill retries = %d, want 2 (events: %+v)", warns, events)
	}
}

// TestWithTraceImpliesMetrics: WithTrace alone must still produce profiles
// and trace events (it creates the registry implicitly).
func TestWithTraceImpliesMetrics(t *testing.T) {
	g := chain(t, 8)
	res, err := ariadne.Run(g, &analytics.SSSP{Source: 0}, ariadne.WithTrace(64))
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics == nil {
		t.Fatal("WithTrace did not create a registry")
	}
	if !res.Metrics.TraceEnabled() {
		t.Error("trace not enabled")
	}
	if len(res.Profile) != res.Stats.Supersteps {
		t.Errorf("profile entries = %d, want %d", len(res.Profile), res.Stats.Supersteps)
	}
}

// TestNoMetricsNoProfile: an uninstrumented run stays uninstrumented.
func TestNoMetricsNoProfile(t *testing.T) {
	g := chain(t, 8)
	res, err := ariadne.Run(g, &analytics.SSSP{Source: 0})
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics != nil || res.Profile != nil {
		t.Error("uninstrumented run produced metrics")
	}
}
