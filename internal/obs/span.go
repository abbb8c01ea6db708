package obs

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ariadne/internal/value"
)

// Distributed run tracing: hierarchical spans covering every phase of every
// superstep, across processes. The master opens superstep/phase/partition
// spans; trace context (trace ID + parent span ID) rides inside the
// transport wire frames so worker processes open child spans for
// decode/compute/encode and ship them back piggybacked on ExecResult. The
// merged timeline exports as Chrome trace_event JSON (chrome://tracing /
// Perfetto) and persists through checkpoint/resume in its own section.
//
// The collector lives behind an atomic pointer exactly like the trace ring:
// when span tracing is disabled the pointer is nil and every hook is one
// atomic load and zero allocations, preserving the PR 2 hot-path invariant.

// Span process names. Worker processes use "worker:<listen-addr>".
const ProcMaster = "master"

// Span phase/operation names.
const (
	SpanSuperstep     = "superstep"      // umbrella: one whole superstep (master)
	SpanCompute       = "compute"        // compute phase (Partition=-1) or one partition (Partition>=0)
	SpanBarrier       = "barrier"        // message delivery phase (master)
	SpanObserve       = "observe"        // capture/online-query phase (master)
	SpanSpill         = "spill"          // async provenance layer write (master)
	SpanCheckpoint    = "checkpoint"     // checkpoint file write (master)
	SpanExchange      = "exchange"       // one partition's full transport exchange (master)
	SpanSerialize     = "serialize"      // ExecRequest encoding (master)
	SpanRPC           = "rpc"            // one request/reply attempt on the wire (master)
	SpanBackoff       = "backoff"        // retransmit backoff sleep (master)
	SpanDecode        = "decode"         // ExecRequest decoding (worker)
	SpanWorkerCompute = "worker_compute" // partition compute on the worker
	SpanEncode        = "encode"         // ExecResult body encoding (worker)
	SpanFailover      = "failover"       // partition reassigned to a surviving worker (master)
	SpanDeliver       = "deliver"        // one worker's delivery-barrier exchange (master)
	SpanPeerWire      = "peer_wire"      // worker→worker fragment routing on the mesh (worker)
)

// Span is one timed operation in the distributed trace. Start is absolute
// unix nanoseconds so spans recorded on different processes of the same
// host merge onto one timeline; Dur/Bytes/Retries/Tuples are the per-span
// accounting that decomposes transport_overhead into named buckets.
type Span struct {
	TraceID   uint64 `json:"trace_id"`
	SpanID    uint64 `json:"span_id"`
	Parent    uint64 `json:"parent,omitempty"`
	Proc      string `json:"proc"`
	Name      string `json:"name"`
	Superstep int    `json:"superstep"`
	Partition int    `json:"partition"` // -1 when not partition-scoped
	Start     int64  `json:"start_ns"`  // unix nanoseconds
	Dur       int64  `json:"dur_ns"`
	Bytes     int64  `json:"bytes,omitempty"`
	Retries   int64  `json:"retries,omitempty"`
	Tuples    int64  `json:"tuples,omitempty"`
}

// maxSpans bounds the collector so a pathological run cannot grow it
// without limit; spans beyond it are counted in droppedSpans.
const maxSpans = 1 << 20

// spanSink collects completed spans. It sits behind Metrics.spans as an
// atomic pointer: nil means span tracing is disabled and every recording
// site is a single atomic load.
type spanSink struct {
	traceID uint64
	nextID  atomic.Uint64

	mu      sync.Mutex
	spans   []Span
	dropped int64
	ssStart int64 // unix ns when the current superstep opened
}

// EnableSpans turns on distributed span tracing. The trace ID is derived
// from the wall clock at enable time so independent runs get distinct IDs.
// Nil-safe; idempotent.
func (m *Metrics) EnableSpans() {
	if m == nil || m.spans.Load() != nil {
		return
	}
	s := &spanSink{traceID: uint64(time.Now().UnixNano())}
	if s.traceID == 0 {
		s.traceID = 1
	}
	m.spans.Store(s)
}

// SpansEnabled reports whether span tracing is on. Nil-safe; this is the
// zero-alloc guard instrumented hot paths check before calling time.Now.
func (m *Metrics) SpansEnabled() bool {
	return m != nil && m.spans.Load() != nil
}

// SpanTraceID returns the run's trace ID (0 when disabled). Nil-safe.
func (m *Metrics) SpanTraceID() uint64 {
	if m == nil {
		return 0
	}
	if s := m.spans.Load(); s != nil {
		return s.traceID
	}
	return 0
}

// NewSpanID allocates a fresh span ID (0 when disabled). Nil-safe.
func (m *Metrics) NewSpanID() uint64 {
	if m == nil {
		return 0
	}
	if s := m.spans.Load(); s != nil {
		return s.nextID.Add(1)
	}
	return 0
}

// RecordSpan stores one completed span, stamping TraceID/SpanID if the
// caller left them zero. No-op (and alloc-free) when tracing is disabled.
// Nil-safe; safe from any goroutine.
func (m *Metrics) RecordSpan(sp Span) {
	if m == nil {
		return
	}
	s := m.spans.Load()
	if s == nil {
		return
	}
	if sp.TraceID == 0 {
		sp.TraceID = s.traceID
	}
	if sp.SpanID == 0 {
		sp.SpanID = s.nextID.Add(1)
	}
	s.mu.Lock()
	if len(s.spans) >= maxSpans {
		s.dropped++
	} else {
		s.spans = append(s.spans, sp)
	}
	s.mu.Unlock()
}

// AddRemoteSpans merges spans shipped back from a worker process into the
// master timeline, allocating local span IDs for any the worker left zero
// (worker processes have no ID allocator of their own). Nil-safe.
func (m *Metrics) AddRemoteSpans(sps []Span) {
	if m == nil || len(sps) == 0 {
		return
	}
	s := m.spans.Load()
	if s == nil {
		return
	}
	s.mu.Lock()
	for _, sp := range sps {
		if sp.TraceID == 0 {
			sp.TraceID = s.traceID
		}
		if sp.SpanID == 0 {
			sp.SpanID = s.nextID.Add(1)
		}
		if len(s.spans) >= maxSpans {
			s.dropped++
			continue
		}
		s.spans = append(s.spans, sp)
	}
	s.mu.Unlock()
}

// Spans returns a copy of every recorded span. Nil-safe.
func (m *Metrics) Spans() []Span {
	if m == nil {
		return nil
	}
	s := m.spans.Load()
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Span(nil), s.spans...)
}

// SpansDropped returns how many spans the bounded collector discarded.
// Nil-safe.
func (m *Metrics) SpansDropped() int64 {
	if m == nil {
		return 0
	}
	s := m.spans.Load()
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dropped
}

// RestoreSpans rebuilds the span collector from a checkpoint so a resumed
// run's trace covers the pre-crash supersteps too. Enables tracing if the
// checkpoint carried spans; continues the restored trace ID and allocates
// new span IDs above the restored maximum. Nil-safe.
func (m *Metrics) RestoreSpans(sps []Span) {
	if m == nil || len(sps) == 0 {
		return
	}
	s := &spanSink{traceID: sps[0].TraceID}
	if s.traceID == 0 {
		s.traceID = uint64(time.Now().UnixNano())
	}
	var maxID uint64
	for _, sp := range sps {
		if sp.SpanID > maxID {
			maxID = sp.SpanID
		}
		if sp.Parent > maxID {
			maxID = sp.Parent
		}
	}
	s.nextID.Store(maxID)
	s.spans = append([]Span(nil), sps...)
	m.spans.Store(s)
}

// beginSpanSuperstep stamps the superstep start time used to anchor the
// synthesized phase spans. Called from BeginSuperstep.
func (m *Metrics) beginSpanSuperstep() {
	s := m.spans.Load()
	if s == nil {
		return
	}
	now := time.Now().UnixNano()
	s.mu.Lock()
	s.ssStart = now
	s.mu.Unlock()
}

// spanSuperstepStart returns the stamp set by beginSpanSuperstep.
func (m *Metrics) spanSuperstepStart() int64 {
	s := m.spans.Load()
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ssStart
}

// TransportBuckets decomposes the run's transport time into named buckets
// from the recorded spans: serialize (master request encoding + worker
// decode/encode), wire (RPC round-trip time not accounted to the worker,
// including worker→worker fragment routing on the peer mesh), worker_compute
// (partition compute on the worker), and retry (retransmit backoff sleeps).
// Worker-side SpanPeerWire spans ride back on the same ExecResult piggyback
// as decode/compute/encode, so peer-mesh wire time is subtracted from the
// master's RPC window and re-attributed to `wire` rather than silently
// inflating the residual — and never lands in worker_compute. Returns nil
// when no transport spans were recorded. Nil-safe.
func (m *Metrics) TransportBuckets() map[string]int64 {
	spans := m.Spans()
	var ser, rpc, dec, enc, wc, back, pw int64
	for i := range spans {
		switch spans[i].Name {
		case SpanSerialize:
			ser += spans[i].Dur
		case SpanRPC:
			rpc += spans[i].Dur
		case SpanDecode:
			dec += spans[i].Dur
		case SpanEncode:
			enc += spans[i].Dur
		case SpanWorkerCompute:
			wc += spans[i].Dur
		case SpanBackoff:
			back += spans[i].Dur
		case SpanPeerWire:
			pw += spans[i].Dur
		}
	}
	if ser+rpc+dec+enc+wc+back+pw == 0 {
		return nil
	}
	wire := rpc - dec - enc - wc - pw
	if wire < 0 {
		wire = 0
	}
	return map[string]int64{
		"serialize":      ser + dec + enc,
		"wire":           wire + pw,
		"worker_compute": wc,
		"retry":          back,
	}
}

// NetStats snapshots every ariadne_net_* and ariadne_failover_* counter
// plus the trace-drop total as a plain name→value map, so headless bench
// runs (-stats-json) see the same transport accounting Prometheus scrapes
// do. Nil-safe; returns nil when no such counters exist.
func (m *Metrics) NetStats() map[string]int64 {
	if m == nil {
		return nil
	}
	var out map[string]int64
	m.mu.RLock()
	for name, c := range m.counters {
		if strings.HasPrefix(name, "ariadne_net_") || strings.HasPrefix(name, "ariadne_failover_") ||
			name == MetricTraceDropped {
			if out == nil {
				out = map[string]int64{}
			}
			out[name] = c.Value()
		}
	}
	m.mu.RUnlock()
	return out
}

// counterValue reads a counter without creating the series (so reading
// net deltas at EndSuperstep does not mint zero-valued ariadne_net_*
// series in runs that never touched the transport).
func (m *Metrics) counterValue(name string) int64 {
	m.mu.RLock()
	c := m.counters[name]
	m.mu.RUnlock()
	return c.Value()
}

// RPCStat aggregates the wire accounting of one (superstep, partition)
// exchange: total frame bytes both ways, retransmit attempts, and wall
// time spent in round-trips. This is the row type behind the net_rpc
// PQL EDB.
type RPCStat struct {
	Superstep int   `json:"superstep"`
	Partition int   `json:"partition"`
	Bytes     int64 `json:"bytes"`
	Retries   int64 `json:"retries"`
	Nanos     int64 `json:"nanos"`
}

// AddRPC accumulates one transport Exec's wire accounting into the
// (superstep, partition) aggregate. Called by the TCP transport on every
// exchange whenever a registry is attached — independent of span tracing,
// so net_rpc rows exist for any instrumented distributed run. Nil-safe.
func (m *Metrics) AddRPC(ss, part int, bytes, retries int64, d time.Duration) {
	if m == nil {
		return
	}
	m.rmu.Lock()
	for i := len(m.rpcs) - 1; i >= 0 && m.rpcs[i].Superstep == ss; i-- {
		if m.rpcs[i].Partition == part {
			m.rpcs[i].Bytes += bytes
			m.rpcs[i].Retries += retries
			m.rpcs[i].Nanos += int64(d)
			m.rmu.Unlock()
			return
		}
	}
	m.rpcs = append(m.rpcs, RPCStat{
		Superstep: ss, Partition: part,
		Bytes: bytes, Retries: retries, Nanos: int64(d),
	})
	m.rmu.Unlock()
}

// RPCStats returns a copy of the per-(superstep, partition) exchange
// aggregates in recording order. Nil-safe.
func (m *Metrics) RPCStats() []RPCStat {
	if m == nil {
		return nil
	}
	m.rmu.Lock()
	defer m.rmu.Unlock()
	return append([]RPCStat(nil), m.rpcs...)
}

// EncodeSpans appends a span list to a blob — the section format shared by
// the transport wire (ExecResult piggyback) and the checkpoint.
func EncodeSpans(w *value.Blob, sps []Span) {
	w.Uvarint(uint64(len(sps)))
	for i := range sps {
		sp := &sps[i]
		w.Uvarint(sp.TraceID)
		w.Uvarint(sp.SpanID)
		w.Uvarint(sp.Parent)
		w.String(sp.Proc)
		w.String(sp.Name)
		w.Int(int64(sp.Superstep))
		w.Int(int64(sp.Partition))
		w.Int(sp.Start)
		w.Uvarint(uint64(sp.Dur))
		w.Uvarint(uint64(sp.Bytes))
		w.Uvarint(uint64(sp.Retries))
		w.Uvarint(uint64(sp.Tuples))
	}
}

// DecodeSpans reads an EncodeSpans section.
func DecodeSpans(r *value.BlobReader) ([]Span, error) {
	n := r.Count()
	var sps []Span
	for i := 0; i < n && r.Err() == nil; i++ {
		var sp Span
		sp.TraceID = r.Uvarint()
		sp.SpanID = r.Uvarint()
		sp.Parent = r.Uvarint()
		sp.Proc = r.String()
		sp.Name = r.String()
		sp.Superstep = int(r.Int())
		sp.Partition = int(r.Int())
		sp.Start = r.Int()
		sp.Dur = int64(r.Uvarint())
		sp.Bytes = int64(r.Uvarint())
		sp.Retries = int64(r.Uvarint())
		sp.Tuples = int64(r.Uvarint())
		sps = append(sps, sp)
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("obs: corrupt span blob: %w", err)
	}
	return sps, nil
}
