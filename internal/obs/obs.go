// Package obs is the observability layer for the BSP/provenance pipeline:
// a low-overhead, race-safe metrics registry (counters, gauges, duration
// histograms), a structured trace-event ring buffer, and per-superstep
// profiles — the instrumentation behind the paper's overhead claims
// (capture cost per superstep, piggybacked query tuples, provenance-store
// growth; §6, Tables 3–5).
//
// Everything is nil-safe: a nil *Metrics no-ops on every method, so
// instrumented call sites in the engine, capture, store, and drivers need
// no guards and the uninstrumented hot path pays one nil check and zero
// allocations per superstep.
//
// Concurrency model: counter/gauge/histogram mutation is atomic (safe from
// any goroutine, including concurrent /metrics scrapes mid-run). The
// superstep profile under construction is mutated under the profile lock
// (pmu): the engine's run goroutine writes most fields at the barrier, but
// the async spill writer attributes spill bytes to a profile after the
// fact, and /supersteps readers snapshot mid-run, so every profile mutator
// and reader takes pmu.
package obs

import (
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter. Nil-safe.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count. Nil-safe.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous atomic value.
type Gauge struct {
	v atomic.Int64
}

// Set stores the gauge value. Nil-safe.
func (g *Gauge) Set(n int64) {
	if g == nil {
		return
	}
	g.v.Store(n)
}

// Value returns the gauge value. Nil-safe.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// histBuckets are the upper bounds (in seconds) of the duration histogram,
// decade-spaced from 10µs to 100s — wide enough for both a combiner merge
// and a full-graph spill.
var histBuckets = [numHistBuckets]float64{1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1, 10, 100}

const numHistBuckets = 8

// Histogram is a fixed-bucket duration histogram with atomic hot paths,
// rendered in Prometheus histogram exposition format.
type Histogram struct {
	counts [numHistBuckets + 1]atomic.Int64 // +1 for +Inf
	sumNS  atomic.Int64
	n      atomic.Int64
}

// Observe records one duration. Nil-safe.
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	s := d.Seconds()
	i := 0
	for i < len(histBuckets) && s > histBuckets[i] {
		i++
	}
	h.counts[i].Add(1)
	h.sumNS.Add(int64(d))
	h.n.Add(1)
}

// Count returns how many observations were recorded. Nil-safe.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.n.Load()
}

// SumNS returns the summed observed nanoseconds. Nil-safe.
func (h *Histogram) SumNS() int64 {
	if h == nil {
		return 0
	}
	return h.sumNS.Load()
}

// Metrics is the per-run observability hub: the named-series registry, the
// trace ring buffer, and the per-superstep profiles. Create one with New,
// attach it via engine.Config.Metrics / provenance.StoreConfig.Metrics (or
// ariadne.WithMetrics at the public API), and serve it with Handler.
type Metrics struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram

	pmu      sync.Mutex
	profiles []SuperstepProfile
	cur      SuperstepProfile
	curOpen  bool
	// Last-seen ariadne_net_* counter values, for per-superstep deltas
	// attributed to the closing profile. Guarded by pmu.
	netPrevSent    int64
	netPrevRecv    int64
	netPrevRetrans int64

	trace atomic.Pointer[Trace]
	spans atomic.Pointer[spanSink]

	rmu  sync.Mutex
	rpcs []RPCStat

	start time.Time
}

// New creates an empty metrics registry (tracing disabled until
// EnableTrace).
func New() *Metrics {
	return &Metrics{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
		start:    time.Now(),
	}
}

// EnableTrace turns on the structured trace ring buffer with the given
// capacity (events beyond it evict the oldest). Nil-safe; capacity <= 0
// leaves tracing off.
func (m *Metrics) EnableTrace(capacity int) {
	if m == nil || capacity <= 0 {
		return
	}
	m.trace.Store(newTrace(capacity))
}

// L builds a labeled series name in Prometheus notation, e.g.
// L("capture_tuples_total", "table", "value") →
// `capture_tuples_total{table="value"}`.
func L(name, label, val string) string {
	var b strings.Builder
	b.Grow(len(name) + len(label) + len(val) + 5)
	b.WriteString(name)
	b.WriteByte('{')
	b.WriteString(label)
	b.WriteString(`="`)
	b.WriteString(val)
	b.WriteString(`"}`)
	return b.String()
}

// Counter returns the named counter, creating it on first use. Nil-safe
// (returns a nil *Counter whose methods no-op).
func (m *Metrics) Counter(name string) *Counter {
	if m == nil {
		return nil
	}
	m.mu.RLock()
	c := m.counters[name]
	m.mu.RUnlock()
	if c != nil {
		return c
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if c = m.counters[name]; c == nil {
		c = &Counter{}
		m.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use. Nil-safe.
func (m *Metrics) Gauge(name string) *Gauge {
	if m == nil {
		return nil
	}
	m.mu.RLock()
	g := m.gauges[name]
	m.mu.RUnlock()
	if g != nil {
		return g
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if g = m.gauges[name]; g == nil {
		g = &Gauge{}
		m.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use. Nil-safe.
func (m *Metrics) Histogram(name string) *Histogram {
	if m == nil {
		return nil
	}
	m.mu.RLock()
	h := m.hists[name]
	m.mu.RUnlock()
	if h != nil {
		return h
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if h = m.hists[name]; h == nil {
		h = &Histogram{}
		m.hists[name] = h
	}
	return h
}

// Snapshot returns every scalar series as a name→value map (histograms
// contribute _count and _sum_seconds entries) — the /debug/vars payload.
func (m *Metrics) Snapshot() map[string]any {
	if m == nil {
		return nil
	}
	out := map[string]any{}
	m.mu.RLock()
	for name, c := range m.counters {
		out[name] = c.Value()
	}
	for name, g := range m.gauges {
		out[name] = g.Value()
	}
	for name, h := range m.hists {
		out[name+"_count"] = h.Count()
		out[name+"_sum_seconds"] = float64(h.SumNS()) / 1e9
	}
	m.mu.RUnlock()
	out["uptime_seconds"] = time.Since(m.start).Seconds()
	return out
}

// seriesKey splits a registry key into metric name and the optional
// label block, so rendering can group typed families.
func seriesKey(key string) (name, labels string) {
	if i := strings.IndexByte(key, '{'); i >= 0 {
		return key[:i], key[i:]
	}
	return key, ""
}

// sortedKeys returns map keys in deterministic order.
func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
