package obs

import "time"

// Canonical series names. Callers thread these through the registry so the
// /metrics endpoint exposes one coherent namespace.
const (
	MetricSuperstep         = "ariadne_superstep"                   // gauge: current superstep
	MetricActiveVertices    = "ariadne_active_vertices"             // gauge: active vertices this superstep
	MetricSupersteps        = "ariadne_supersteps_total"            // counter
	MetricMessagesSent      = "ariadne_messages_sent_total"         // counter
	MetricMessagesDelivered = "ariadne_messages_delivered_total"    // counter (post-combining)
	MetricMessagesCombined  = "ariadne_messages_combined_total"     // counter (merged away)
	MetricCaptureTuples     = "ariadne_capture_tuples_total"        // counter, label table
	MetricCaptureBytes      = "ariadne_capture_bytes_total"         // counter (encoded layer bytes)
	MetricPiggybackTuples   = "ariadne_piggyback_tuples_total"      // counter, label query
	MetricSpillBytes        = "ariadne_spill_bytes_total"           // counter
	MetricSpillSeconds      = "ariadne_spill_duration_seconds"      // histogram
	MetricCheckpointBytes   = "ariadne_checkpoint_bytes_total"      // counter
	MetricCheckpointSeconds = "ariadne_checkpoint_duration_seconds" // histogram
	MetricComputeSeconds    = "ariadne_compute_duration_seconds"    // histogram per superstep
	MetricBarrierSeconds    = "ariadne_barrier_duration_seconds"    // histogram per superstep
	MetricObserveSeconds    = "ariadne_observe_duration_seconds"    // histogram per superstep
	MetricRetries           = "ariadne_io_retries_total"            // counter, label site
	// Partition-supervision series (PR 3).
	MetricPartitionRetries = "ariadne_partition_retries_total"         // counter: supervised re-executions
	MetricDeadlineHits     = "ariadne_partition_deadline_hits_total"   // counter: deadline-cancelled attempts
	MetricStragglers       = "ariadne_partition_straggler_flags_total" // counter: multiple-of-median flags
	MetricCaptureShed      = "ariadne_capture_shed_partitions"         // gauge: partitions currently degraded
	MetricCaptureGaps      = "ariadne_capture_gap_supersteps_total"    // counter: (partition, superstep) capture gaps
	MetricFaultsInjected   = "ariadne_faults_injected_total"           // counter
	// Parallel-barrier + async-spill series (PR 4).
	MetricCombinedSender      = "ariadne_messages_combined_sender_total" // counter: merged inside the sending partition
	MetricDeliveryMaxShard    = "ariadne_delivery_max_shard_messages"    // gauge: busiest delivery shard this superstep
	MetricSpillQueueDepth     = "ariadne_spill_queue_depth"              // gauge: async spill writes in flight
	MetricSpillQueueHighWater = "ariadne_spill_queue_high_water"         // gauge: max in-flight spill writes observed
	// Transport series (PR 6): the master's view of the wire to its workers.
	MetricNetMessagesSent   = "ariadne_net_messages_sent_total"    // counter: frames sent (label peer)
	MetricNetBytesSent      = "ariadne_net_bytes_sent_total"       // counter: frame payload bytes sent
	MetricNetMessagesRecv   = "ariadne_net_messages_recv_total"    // counter: frames received
	MetricNetBytesRecv      = "ariadne_net_bytes_recv_total"       // counter: frame payload bytes received
	MetricNetRetransmits    = "ariadne_net_retransmits_total"      // counter: requests re-sent after deadline/error
	MetricNetHeartbeatMiss  = "ariadne_net_heartbeat_misses_total" // counter: pings that got no pong in time
	MetricNetReconnects     = "ariadne_net_reconnects_total"       // counter: connections re-established
	MetricNetLocalFallbacks = "ariadne_net_local_fallbacks_total"  // counter: partitions pinned local after unreachable
	// Worker-resident state series (PR 9): delta exchanges and the peer mesh.
	MetricNetStateReseeds = "ariadne_net_state_reseeds_total" // counter: seed requests after a worker state miss
	MetricNetPeerFrags    = "ariadne_net_peer_frags_total"    // counter: worker→worker fragment frames sent
	MetricNetPeerBytes    = "ariadne_net_peer_bytes_total"    // counter: worker→worker fragment payload bytes
	// Tracing series (PR 7).
	MetricTraceDropped = "ariadne_trace_dropped_total" // counter: ring-evicted trace events
	// Failover series (PR 8): the worker pool's health machine. Deaths count
	// transitions into the dead state (budget-exhausted exchanges or missed
	// heartbeats), reassignments count partition->worker table rewrites,
	// rejoins count dead or draining workers re-admitted by a fresh
	// handshake, and drains count workers that deregistered gracefully.
	MetricFailoverDeaths        = "ariadne_failover_worker_deaths_total" // counter: workers declared dead
	MetricFailoverReassignments = "ariadne_failover_reassignments_total" // counter: partitions rerouted to a survivor
	MetricFailoverRejoins       = "ariadne_failover_rejoins_total"       // counter: workers re-admitted mid-run
	MetricFailoverDrains        = "ariadne_failover_drains_total"        // counter: workers drained gracefully
)

// SuperstepProfile is the per-superstep metrics record — one entry per
// completed superstep, the unit the -stats-json trajectories and the
// differential recovery tests consume. Durations are nanoseconds so the
// JSON form is integer-exact.
type SuperstepProfile struct {
	Superstep      int   `json:"superstep"`
	ActiveVertices int   `json:"active_vertices"`
	MessagesSent   int64 `json:"messages_sent"`
	// MessagesDelivered counts inbox entries after sender-side combining.
	MessagesDelivered int64 `json:"messages_delivered"`
	// MessagesCombined counts messages merged away by the combiner.
	MessagesCombined int64 `json:"messages_combined"`
	// MessagesCombinedSender is the subset of MessagesCombined merged
	// inside the sending partition before the barrier; both barrier modes
	// combine at the sender, so it is the same in either.
	MessagesCombinedSender int64 `json:"messages_combined_sender,omitempty"`
	// DeliveryMaxShard is the message count of the busiest delivery shard
	// this superstep — maxShard*nParts/delivered gauges shard imbalance.
	DeliveryMaxShard int64 `json:"delivery_max_shard,omitempty"`
	ComputeNS        int64 `json:"compute_ns"`
	BarrierNS        int64 `json:"barrier_ns"`
	ObserveNS        int64 `json:"observe_ns"`
	// CaptureTuples counts provenance tuples appended this superstep,
	// keyed by table (value, send_message, receive_message, prov_send,
	// and any analytics-emitted tables).
	CaptureTuples map[string]int64 `json:"capture_tuples,omitempty"`
	CaptureBytes  int64            `json:"capture_bytes,omitempty"`
	// PiggybackTuples counts tuples derived by each online query this
	// superstep — the payload that would ride along analytic messages in a
	// distributed deployment (DESIGN.md decision 4).
	PiggybackTuples map[string]int64 `json:"piggyback_tuples,omitempty"`
	SpillBytes      int64            `json:"spill_bytes,omitempty"`
	SpillNS         int64            `json:"spill_ns,omitempty"`
	CheckpointBytes int64            `json:"checkpoint_bytes,omitempty"`
	CheckpointNS    int64            `json:"checkpoint_ns,omitempty"`
	// Retries counts transient-I/O retry events by site (spill,
	// checkpoint) — nonzero only under injected or real faults.
	Retries map[string]int64 `json:"retries,omitempty"`
	// PartitionRetries counts supervised partition re-executions this
	// superstep; DeadlineHits counts attempts cancelled by the partition
	// deadline; Stragglers lists partitions flagged by the
	// multiple-of-median policy. All zero when supervision is off.
	PartitionRetries int64 `json:"partition_retries,omitempty"`
	DeadlineHits     int64 `json:"deadline_hits,omitempty"`
	Stragglers       []int `json:"stragglers,omitempty"`
	// Per-superstep transport deltas (PR 7): bytes this superstep put on
	// and took off the wire, and requests retransmitted — the
	// ariadne_net_* counters sliced per superstep so headless runs see
	// them in Result.Profile / -stats-json. All zero in-process.
	NetBytesSent   int64 `json:"net_bytes_sent,omitempty"`
	NetBytesRecv   int64 `json:"net_bytes_recv,omitempty"`
	NetRetransmits int64 `json:"net_retransmits,omitempty"`
}

// BeginSuperstep opens the profile for superstep ss. Called by the engine
// run goroutine; the profile under construction is pmu-guarded because the
// async spill writer attributes its I/O (AddSpill/AddRetry) to whatever
// superstep is current when the write completes. Nil-safe.
func (m *Metrics) BeginSuperstep(ss, active int) {
	if m == nil {
		return
	}
	m.pmu.Lock()
	m.cur = SuperstepProfile{Superstep: ss, ActiveVertices: active}
	m.curOpen = true
	m.pmu.Unlock()
	m.beginSpanSuperstep()
	m.Gauge(MetricSuperstep).Set(int64(ss))
	m.Gauge(MetricActiveVertices).Set(int64(active))
}

// SuperstepMessages records the barrier's message accounting. Nil-safe.
func (m *Metrics) SuperstepMessages(sent, delivered, combined int64) {
	if m == nil {
		return
	}
	m.pmu.Lock()
	m.cur.MessagesSent = sent
	m.cur.MessagesDelivered = delivered
	m.cur.MessagesCombined = combined
	m.pmu.Unlock()
	m.Counter(MetricMessagesSent).Add(sent)
	m.Counter(MetricMessagesDelivered).Add(delivered)
	m.Counter(MetricMessagesCombined).Add(combined)
}

// SuperstepDelivery records the parallel barrier's shape: how many
// messages the sender-side combiner merged away before the barrier, and
// the busiest delivery shard's message count (imbalance diagnostics).
// Nil-safe.
func (m *Metrics) SuperstepDelivery(senderHits, maxShard int64, nParts int) {
	if m == nil {
		return
	}
	m.pmu.Lock()
	m.cur.MessagesCombinedSender = senderHits
	m.cur.DeliveryMaxShard = maxShard
	m.pmu.Unlock()
	m.Counter(MetricCombinedSender).Add(senderHits)
	m.Gauge(MetricDeliveryMaxShard).Set(maxShard)
}

// SuperstepTimings records the phase wall times of the current superstep.
// Nil-safe.
func (m *Metrics) SuperstepTimings(compute, barrier, observe time.Duration) {
	if m == nil {
		return
	}
	m.pmu.Lock()
	m.cur.ComputeNS = int64(compute)
	m.cur.BarrierNS = int64(barrier)
	m.cur.ObserveNS = int64(observe)
	ss := m.cur.Superstep
	m.pmu.Unlock()
	if m.SpansEnabled() {
		// Synthesize the master phase spans from the measured wall times:
		// observe just ended, barrier ran immediately before it, and
		// compute started when the superstep opened.
		now := time.Now().UnixNano()
		m.RecordSpan(Span{Proc: ProcMaster, Name: SpanCompute, Superstep: ss, Partition: -1,
			Start: m.spanSuperstepStart(), Dur: int64(compute)})
		m.RecordSpan(Span{Proc: ProcMaster, Name: SpanBarrier, Superstep: ss, Partition: -1,
			Start: now - int64(observe) - int64(barrier), Dur: int64(barrier)})
		m.RecordSpan(Span{Proc: ProcMaster, Name: SpanObserve, Superstep: ss, Partition: -1,
			Start: now - int64(observe), Dur: int64(observe)})
	}
	m.Histogram(MetricComputeSeconds).Observe(compute)
	m.Histogram(MetricBarrierSeconds).Observe(barrier)
	m.Histogram(MetricObserveSeconds).Observe(observe)
}

// AddCaptureTuples counts provenance tuples appended for a table this
// superstep. Nil-safe.
func (m *Metrics) AddCaptureTuples(table string, n int64) {
	if m == nil || n == 0 {
		return
	}
	m.pmu.Lock()
	if m.cur.CaptureTuples == nil {
		m.cur.CaptureTuples = map[string]int64{}
	}
	m.cur.CaptureTuples[table] += n
	m.pmu.Unlock()
	m.Counter(L(MetricCaptureTuples, "table", table)).Add(n)
}

// AddCaptureBytes counts encoded provenance bytes appended to the store.
// Nil-safe.
func (m *Metrics) AddCaptureBytes(n int64) {
	if m == nil || n == 0 {
		return
	}
	m.pmu.Lock()
	m.cur.CaptureBytes += n
	m.pmu.Unlock()
	m.Counter(MetricCaptureBytes).Add(n)
}

// AddPiggyback counts tuples derived by an online query this superstep.
// Nil-safe.
func (m *Metrics) AddPiggyback(query string, n int64) {
	if m == nil || n == 0 {
		return
	}
	m.pmu.Lock()
	if m.cur.PiggybackTuples == nil {
		m.cur.PiggybackTuples = map[string]int64{}
	}
	m.cur.PiggybackTuples[query] += n
	m.pmu.Unlock()
	m.Counter(L(MetricPiggybackTuples, "query", query)).Add(n)
}

// AddSpill records one provenance layer-file write, attributed to the
// profile of superstep ss — the superstep whose append *triggered* the
// spill, not the one current when the asynchronous write happens to
// complete. Deterministic attribution keeps per-superstep profiles
// comparable across a run and its recovered re-execution. Safe to call
// from the async spill writer goroutine. Nil-safe.
func (m *Metrics) AddSpill(ss int, bytes int64, d time.Duration) {
	if m == nil {
		return
	}
	m.pmu.Lock()
	if m.curOpen && m.cur.Superstep == ss {
		m.cur.SpillBytes += bytes
		m.cur.SpillNS += int64(d)
	} else {
		for i := len(m.profiles) - 1; i >= 0; i-- {
			if m.profiles[i].Superstep == ss {
				m.profiles[i].SpillBytes += bytes
				m.profiles[i].SpillNS += int64(d)
				break
			}
		}
	}
	m.pmu.Unlock()
	if m.SpansEnabled() {
		m.RecordSpan(Span{Proc: ProcMaster, Name: SpanSpill, Superstep: ss, Partition: -1,
			Start: time.Now().UnixNano() - int64(d), Dur: int64(d), Bytes: bytes})
	}
	m.Counter(MetricSpillBytes).Add(bytes)
	m.Histogram(MetricSpillSeconds).Observe(d)
}

// AddCheckpoint records one checkpoint-file write. When the current
// superstep's profile is already closed (checkpoints are written after
// EndSuperstep so the snapshot carries the full profile), the cost is
// attributed to the newest completed profile. Nil-safe.
func (m *Metrics) AddCheckpoint(bytes int64, d time.Duration) {
	if m == nil {
		return
	}
	m.pmu.Lock()
	ss := m.cur.Superstep
	if m.curOpen {
		m.cur.CheckpointBytes += bytes
		m.cur.CheckpointNS += int64(d)
	} else if n := len(m.profiles); n > 0 {
		m.profiles[n-1].CheckpointBytes += bytes
		m.profiles[n-1].CheckpointNS += int64(d)
		ss = m.profiles[n-1].Superstep
	}
	m.pmu.Unlock()
	if m.SpansEnabled() {
		m.RecordSpan(Span{Proc: ProcMaster, Name: SpanCheckpoint, Superstep: ss, Partition: -1,
			Start: time.Now().UnixNano() - int64(d), Dur: int64(d), Bytes: bytes})
	}
	m.Counter(MetricCheckpointBytes).Add(bytes)
	m.Histogram(MetricCheckpointSeconds).Observe(d)
}

// AddRetry counts a transient-I/O retry at the named site (spill,
// checkpoint). Safe from the async spill writer goroutine. Nil-safe.
func (m *Metrics) AddRetry(site string) {
	if m == nil {
		return
	}
	m.pmu.Lock()
	if m.curOpen {
		if m.cur.Retries == nil {
			m.cur.Retries = map[string]int64{}
		}
		m.cur.Retries[site]++
	} else if n := len(m.profiles); n > 0 {
		// Copy-on-write: the closed profile's map may already be shared
		// with Profiles() callers, so never mutate it in place.
		next := make(map[string]int64, len(m.profiles[n-1].Retries)+1)
		for k, v := range m.profiles[n-1].Retries {
			next[k] = v
		}
		next[site]++
		m.profiles[n-1].Retries = next
	}
	m.pmu.Unlock()
	m.Counter(L(MetricRetries, "site", site)).Add(1)
}

// SuperstepSupervision records the superstep's partition-supervision
// summary: re-executions, deadline-cancelled attempts, and flagged
// stragglers. Called by the engine run goroutine at the barrier (the
// supervisor tallies from worker goroutines atomically and flushes here).
// Nil-safe.
func (m *Metrics) SuperstepSupervision(retries, deadlineHits int64, stragglers []int) {
	if m == nil {
		return
	}
	m.pmu.Lock()
	m.cur.PartitionRetries = retries
	m.cur.DeadlineHits = deadlineHits
	if len(stragglers) > 0 {
		m.cur.Stragglers = append([]int(nil), stragglers...)
	}
	m.pmu.Unlock()
	m.Counter(MetricPartitionRetries).Add(retries)
	m.Counter(MetricDeadlineHits).Add(deadlineHits)
	m.Counter(MetricStragglers).Add(int64(len(stragglers)))
}

// SpillQueue publishes the async spill pipeline's in-flight depth and its
// observed high-water mark. Called from the store on enqueue/completion.
// Nil-safe.
func (m *Metrics) SpillQueue(depth, highWater int64) {
	if m == nil {
		return
	}
	m.Gauge(MetricSpillQueueDepth).Set(depth)
	m.Gauge(MetricSpillQueueHighWater).Set(highWater)
}

// EndSuperstep closes the current profile and publishes it, slicing the
// cumulative ariadne_net_* counters into per-superstep deltas on the way
// out. Nil-safe.
func (m *Metrics) EndSuperstep() {
	if m == nil {
		return
	}
	sent := m.counterValue(MetricNetBytesSent)
	recv := m.counterValue(MetricNetBytesRecv)
	rtx := m.counterValue(MetricNetRetransmits)
	m.pmu.Lock()
	if !m.curOpen {
		m.pmu.Unlock()
		return
	}
	m.curOpen = false
	m.cur.NetBytesSent = sent - m.netPrevSent
	m.cur.NetBytesRecv = recv - m.netPrevRecv
	m.cur.NetRetransmits = rtx - m.netPrevRetrans
	m.netPrevSent, m.netPrevRecv, m.netPrevRetrans = sent, recv, rtx
	ss := m.cur.Superstep
	m.profiles = append(m.profiles, m.cur)
	m.cur = SuperstepProfile{}
	m.pmu.Unlock()
	if m.SpansEnabled() {
		start := m.spanSuperstepStart()
		m.RecordSpan(Span{Proc: ProcMaster, Name: SpanSuperstep, Superstep: ss, Partition: -1,
			Start: start, Dur: time.Now().UnixNano() - start})
	}
	m.Counter(MetricSupersteps).Add(1)
}

// AbortSuperstep discards the profile under construction (the superstep
// crashed before its barrier completed; a resumed run re-executes it).
// Nil-safe.
func (m *Metrics) AbortSuperstep() {
	if m == nil {
		return
	}
	m.pmu.Lock()
	m.curOpen = false
	m.cur = SuperstepProfile{}
	m.pmu.Unlock()
}

// Profiles returns a copy of the completed per-superstep profiles.
// Nil-safe. The maps inside are shared with the registry and must be
// treated as read-only by callers.
func (m *Metrics) Profiles() []SuperstepProfile {
	if m == nil {
		return nil
	}
	m.pmu.Lock()
	defer m.pmu.Unlock()
	return append([]SuperstepProfile(nil), m.profiles...)
}

// Telemetry is one snapshot of everything the registry holds: every
// counter, gauge and histogram (buckets included), the completed
// per-superstep profiles and the net_rpc exchange rows. A checkpoint stores
// it as JSON and Restore installs it, so a resumed registry is the one that
// was checkpointed.
type Telemetry struct {
	Counters   map[string]int64     `json:"counters,omitempty"`
	Gauges     map[string]int64     `json:"gauges,omitempty"`
	Histograms map[string]histState `json:"histograms,omitempty"`
	Profiles   []SuperstepProfile   `json:"profiles,omitempty"`
	RPCs       []RPCStat            `json:"rpcs,omitempty"`
}

// histState is a histogram's observations: per-bucket counts (the last is
// +Inf), their summed nanoseconds, and how many there were.
type histState struct {
	Buckets [numHistBuckets + 1]int64 `json:"buckets"`
	SumNS   int64                     `json:"sum_ns"`
	Count   int64                     `json:"count"`
}

// Telemetry snapshots the registry. Nil-safe: a nil registry snapshots as
// empty.
func (m *Metrics) Telemetry() Telemetry {
	var t Telemetry
	if m == nil {
		return t
	}
	m.mu.RLock()
	t.Counters = make(map[string]int64, len(m.counters))
	for name, c := range m.counters {
		t.Counters[name] = c.Value()
	}
	t.Gauges = make(map[string]int64, len(m.gauges))
	for name, g := range m.gauges {
		t.Gauges[name] = g.Value()
	}
	t.Histograms = make(map[string]histState, len(m.hists))
	for name, h := range m.hists {
		st := histState{SumNS: h.SumNS(), Count: h.Count()}
		for i := range st.Buckets {
			st.Buckets[i] = h.counts[i].Load()
		}
		t.Histograms[name] = st
	}
	m.mu.RUnlock()
	t.Profiles = m.Profiles()
	t.RPCs = m.RPCStats()
	return t
}

// Restore replaces everything the registry holds with t: series t lacks
// are dropped, the profile under construction is discarded, and the
// per-superstep net deltas continue from t's ariadne_net_* counters.
// Nil-safe.
func (m *Metrics) Restore(t Telemetry) {
	if m == nil {
		return
	}
	counters := make(map[string]*Counter, len(t.Counters))
	for name, v := range t.Counters {
		c := &Counter{}
		c.v.Store(v)
		counters[name] = c
	}
	gauges := make(map[string]*Gauge, len(t.Gauges))
	for name, v := range t.Gauges {
		g := &Gauge{}
		g.v.Store(v)
		gauges[name] = g
	}
	hists := make(map[string]*Histogram, len(t.Histograms))
	for name, st := range t.Histograms {
		h := &Histogram{}
		for i, n := range st.Buckets {
			h.counts[i].Store(n)
		}
		h.sumNS.Store(st.SumNS)
		h.n.Store(st.Count)
		hists[name] = h
	}
	m.mu.Lock()
	m.counters, m.gauges, m.hists = counters, gauges, hists
	m.mu.Unlock()
	m.pmu.Lock()
	m.profiles = append([]SuperstepProfile(nil), t.Profiles...)
	m.cur, m.curOpen = SuperstepProfile{}, false
	m.netPrevSent = t.Counters[MetricNetBytesSent]
	m.netPrevRecv = t.Counters[MetricNetBytesRecv]
	m.netPrevRetrans = t.Counters[MetricNetRetransmits]
	m.pmu.Unlock()
	m.rmu.Lock()
	m.rpcs = append([]RPCStat(nil), t.RPCs...)
	m.rmu.Unlock()
}
