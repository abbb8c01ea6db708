// Package engine implements a Pregel-style Bulk Synchronous Parallel (BSP)
// vertex-centric graph processing engine, the substrate the paper assumes
// (§2.1, Appendix A). It stands in for Apache Giraph: computation proceeds
// in supersteps separated by global barriers; all vertices run the same
// vertex program in parallel; messages sent in superstep i are delivered at
// superstep i+1; a vertex computes only if it received messages (all
// vertices compute at superstep 0); the run ends when no messages remain or
// a superstep limit is reached.
//
// "Distribution" is simulated: the graph is hash-partitioned across P
// in-process workers standing in for cluster nodes. Observers (package-level
// hook interface) receive per-superstep vertex records — the transient
// provenance stream that Ariadne's capture and online query evaluation
// consume without modifying the vertex program.
package engine

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"ariadne/internal/fault"
	"ariadne/internal/graph"
	"ariadne/internal/obs"
	"ariadne/internal/supervise"
	"ariadne/internal/value"
)

// VertexID aliases the graph vertex identifier.
type VertexID = graph.VertexID

// IncomingMessage is a message delivered to a vertex, retaining the sender
// for provenance (receive-message tuples need the source vertex).
type IncomingMessage struct {
	Src VertexID
	Val value.Value
}

// SentMessage records a message produced by a vertex during Compute.
type SentMessage struct {
	Dst VertexID
	Val value.Value
}

// ProvFact is an auxiliary provenance fact emitted by a vertex program via
// Context.EmitProv — the mechanism behind analytics-specific tables such as
// the paper's prov-error / prov-prediction for ALS (Queries 7, 8). In a
// record, Args is a window of the partition's fact arena, borrowed like Sent.
type ProvFact struct {
	Table string
	Args  []value.Value
}

// Program is a vertex program in the VC model (paper Algorithm 1):
// read messages, update the vertex value, send messages to neighbors.
type Program interface {
	// InitialValue returns the value a vertex holds entering superstep 0.
	InitialValue(g *graph.Graph, v VertexID) value.Value
	// Compute runs the per-vertex step. Returning an error aborts the run
	// and is reported with the culprit vertex and superstep (the
	// "crash-culprit" debugging scenario).
	Compute(ctx *Context, msgs []IncomingMessage) error
}

// Halter is an optional Program extension: after each superstep the engine
// asks whether to stop (e.g. ALS halts when the aggregated error converges).
type Halter interface {
	ShouldHalt(agg AggregatorReader, superstep int) bool
}

// Config controls a run.
type Config struct {
	// MaxSupersteps bounds the run; <=0 means unbounded (until quiescence).
	MaxSupersteps int
	// Partitions is the number of simulated cluster workers.
	// <=0 means GOMAXPROCS.
	Partitions int
	// Combiner, if set, merges messages addressed to the same vertex at the
	// sender side (e.g. min for SSSP). The engine ignores it when any
	// observer reads raw receives (FieldReceived in its Reads mask); an
	// observer that reads only sends, values or emitted facts leaves it on.
	Combiner func(a, b value.Value) value.Value
	// Observers receive the per-superstep transient provenance stream.
	Observers []Observer
	// Context, when set, is checked at each superstep barrier: a hung or
	// runaway analytic aborts cleanly with an error wrapping ctx.Err()
	// instead of blocking forever.
	Context context.Context
	// Checkpoint, when set with a positive Interval, snapshots engine and
	// observer state at superstep boundaries for crash recovery via Resume.
	Checkpoint *CheckpointConfig
	// Fault, when set, injects deterministic faults at guarded sites
	// (Compute panics, checkpoint write errors) for recovery testing.
	Fault *fault.Injector
	// Metrics, when set, receives per-superstep profiles, counters, and
	// trace events. nil disables instrumentation at ~zero cost (the hot
	// path pays one nil check and allocates nothing per superstep).
	Metrics *obs.Metrics
	// Supervise, when set, wraps each partition worker in a supervised
	// execution unit: per-partition superstep deadlines, bounded retry
	// with partition-scoped recovery from the superstep barrier (only the
	// failed partition re-executes; the other workers' results stand), and
	// straggler flagging against a multiple-of-median policy. nil keeps
	// the pre-supervision behavior: any partition failure aborts the run.
	Supervise *supervise.Config
	// Transport, when set, executes each partition's superstep compute on
	// worker processes that keep the partition's state resident, instead of
	// calling the vertex programs directly; the workers fold each other's
	// messages in a Deliver round. Observation and checkpointing still run
	// on this engine, and every fold is the in-process barrier's
	// inbox.build, so results are bit-identical to a local run. Transport
	// failures retry through Supervise; a partition unreachable past
	// MaxRetries is pinned local for the rest of the run and its capture
	// shed via Degrade.
	Transport Transport
	// Degrade, when set alongside Transport, receives ShedNow for a
	// partition that fell back to local execution after transport failure,
	// so the capture observer sheds its provenance from that superstep on
	// (the same degraded-mode contract repeated capture failures trigger).
	Degrade *supervise.DegradeState
	// SequentialBarrier runs the barrier on one goroutine instead of one per
	// destination partition. Both settings run the same inbox.build over the
	// same columns, so they are bit-identical by construction. It is the
	// reference, single-threaded leg of the differential tests and of
	// BenchmarkBarrier; production runs leave it false.
	SequentialBarrier bool
}

// Observer consumes per-superstep vertex records, in two steps. Records
// arrive only through ObservePartition: on each partition's own goroutine
// once its compute has succeeded (after any supervised retry, transport exec
// or local fallback), it receives that partition's records in ascending
// vertex order. Partitions call it concurrently, so an observer keeps what it
// does there partition-local until the barrier. This is where the per-record
// work belongs: capture.Observer encodes the partition's provenance segment
// there, and driver.Online hands the records to the compiled query, whose
// partition shard turns them into views and runs the in-partition strata.
// Then ObserveSuperstep is called once per superstep, after the barrier, in
// observer order, to combine what the partitions produced (capture stitches
// the segments into one layer image; the compiled query merges its shards'
// tuples and runs its barrier strata over their views). The engine never
// merges the partitions' records itself. Records and their slices stay valid
// until ObserveSuperstep returns: Received is a window of the inbox arena and
// Sent of the partition's send buffer, both reused by later supersteps, so
// an observer copies what it keeps beyond that. capture encodes the messages
// into its column bytes; the compiled query's views borrow the records'
// slices until ObserveSuperstep returns, and the tuples it derives are
// clones (the benchmark's timedObserver wraps both).
type Observer interface {
	// Reads declares the optional record fields the observer reads. The
	// engine builds the union of every observer's mask and nothing more
	// (DESIGN.md decision 2).
	Reads() Fields
	// ObservePartition sees partition p's records of one superstep on p's
	// goroutine. It cannot fail the run: an observer reports errors from
	// ObserveSuperstep.
	ObservePartition(p, superstep int, recs []VertexRecord)
	ObserveSuperstep(obs *SuperstepView) error
	// Finish is called once after the last superstep.
	Finish(lastSuperstep int) error
}

// Fields is a mask over the optional parts of a VertexRecord. The core of a
// record (ID, Superstep, PrevActive, OldValue, NewValue, SentAny) is built
// whenever any observer is attached; the rest only under its bit.
type Fields uint8

const (
	// FieldReceived fills Received with every raw message delivered to the
	// vertex. It alone disables the combiner: a combined delivery is not
	// the raw one.
	FieldReceived Fields = 1 << iota
	// FieldSent fills Sent with every message the vertex sent. Without it
	// the partition keeps no send after its vertex's outbox flush.
	FieldSent
	// FieldEmitted fills Emitted with the vertex's EmitProv facts;
	// Context.Observing reports it, and EmitProv without it keeps nothing.
	FieldEmitted
	// FieldRecords is set by the engine whenever an observer is attached:
	// records are built at all. Observers need not return it.
	FieldRecords
)

// SuperstepView names the superstep whose barrier ObserveSuperstep runs. It
// carries no records: those reach observers only through ObservePartition.
type SuperstepView struct {
	Superstep int
	Engine    *Engine
}

// VertexRecord describes the execution of one vertex at one superstep —
// a node of the paper's (unfolded) provenance graph with its incident
// message edges and evolution information.
type VertexRecord struct {
	ID        VertexID
	Superstep int
	// PrevActive is the previous superstep this vertex computed in, or -1.
	// Together with Superstep it yields the evolution edge.
	PrevActive int
	OldValue   value.Value
	NewValue   value.Value
	// SentAny reports that the vertex sent at least one message. It is
	// always set, whatever the observers read.
	SentAny bool
	// Received, Sent and Emitted are nil unless some observer reads them
	// (FieldReceived, FieldSent, FieldEmitted). They borrow the partition's
	// inbox arena, send buffer and fact arena (Emitted's Args included):
	// valid until the superstep's ObserveSuperstep returns.
	Received []IncomingMessage
	Sent     []SentMessage
	Emitted  []ProvFact
}

// RunStats summarizes a completed run. The original fields (Supersteps,
// MessagesSent, ActiveVertices, Aborted) keep their meaning; the rest make
// previously implicit totals observable. All totals are cumulative across
// a checkpoint/Resume boundary.
type RunStats struct {
	Supersteps     int
	MessagesSent   int64
	ActiveVertices []int // per superstep
	Aborted        bool

	// MessagesDelivered counts inbox entries after sender-side combining;
	// MessagesCombined counts the messages the combiner merged away
	// (MessagesSent = MessagesDelivered + MessagesCombined).
	MessagesDelivered int64
	MessagesCombined  int64
	// MessagesCombinedSender counts the subset of MessagesCombined merged
	// inside the sending partition (before the barrier ever saw them); the
	// remainder was combined at the barrier when outboxes from different
	// partitions met. Identical in both barrier modes, since combining
	// semantics are shared.
	MessagesCombinedSender int64
	// PeakActiveVertices is the maximum per-superstep active-vertex count.
	PeakActiveVertices int
	// Partition-supervision totals, zero when supervision is off:
	// re-executed partition attempts, attempts cancelled by the partition
	// deadline, and straggler flags raised by the multiple-of-median
	// policy.
	PartitionRetries int64
	DeadlineHits     int64
	StragglerFlags   int64
	// Wall time per phase: parallel compute (including each partition's
	// ObservePartition work, e.g. in-partition query strata), barrier
	// bookkeeping (message delivery, aggregator merge), the observers'
	// barrier work (ObserveSuperstep: capture, the merge of in-partition
	// query results and barrier strata), and checkpoint writes.
	ComputeWall    time.Duration
	BarrierWall    time.Duration
	ObserveWall    time.Duration
	CheckpointWall time.Duration
}

// CrashError reports a vertex program failure with its culprit — the
// paper's crash-culprit debugging scenario. It wraps the underlying cause,
// so errors.Is/As reach both the CrashError and (for recovered panics)
// ErrComputePanic through every API layer.
type CrashError struct {
	Vertex    VertexID
	Superstep int
	Err       error
}

func (e *CrashError) Error() string {
	return fmt.Sprintf("engine: vertex %d crashed at superstep %d: %v", e.Vertex, e.Superstep, e.Err)
}

func (e *CrashError) Unwrap() error { return e.Err }

// ErrComputePanic is the cause recorded in a CrashError when a vertex
// program panicked (rather than returning an error): the per-partition
// recover() converts the panic so one bad vertex degrades into a reported
// crash instead of killing the process.
var ErrComputePanic = errors.New("vertex program panicked")

// Engine executes one Program over one Graph.
type Engine struct {
	g      *graph.Graph
	prog   Program
	cfg    Config
	nParts int
	// fields is the union of the observers' Reads masks plus FieldRecords,
	// or zero without observers: what runPartition builds into records.
	fields Fields

	values     []value.Value
	lastActive []int32 // previous superstep each vertex computed in, -1 if never

	// inbox[p] holds the messages in flight to partition p's vertices; each
	// is rebuilt by exactly one goroutine during the barrier.
	inbox []*inbox

	// results is the per-partition superstep scratch.
	results []partResult

	// sendComb is the combiner applied inside runPartition per destination
	// vertex as messages are emitted (nil when raw messages are needed).
	sendComb func(a, b value.Value) value.Value

	agg  *aggregators
	stat RunStats

	// startSS is the superstep Run begins at: 0 for a fresh engine, the
	// saved resume point for one restored by Resume.
	startSS int

	// sup supervises partition workers when Config.Supervise is set.
	sup *supervise.Supervisor
	// runCtx is the run's parent context, distinguishing a per-partition
	// deadline expiry from user cancellation inside workers.
	runCtx context.Context
	// lastCkptSS is the resume superstep of the newest checkpoint written
	// (or restored), so the cancellation path never writes a duplicate.
	lastCkptSS int

	// localPinned[p] marks a partition whose transport leg was declared
	// unreachable: the engine executes it in-process from then on. Atomic
	// because the pinning partition goroutine writes while later supersteps'
	// goroutines read.
	localPinned []atomic.Bool

	// Worker-resident state. With a Transport, partition state lives on the
	// workers, and the master neither ships frontiers nor relays outboxes:
	// it tracks only each partition's next active set
	// (residentActive, from the delivery barrier), which superstep its own
	// arrays were last authoritative for (masterAuthSS, advanced by
	// checkpoint/final collects), and the barrier frontier (stateSS). A
	// partition pinned local mid-superstep records the superstep in
	// pinnedAtSS so that superstep's delivery knows its fragments died with
	// the workers.
	residentActive [][]VertexID
	pinnedAtSS     []int
	masterAuthSS   int
	stateSS        int

	// Deterministic replay for re-hydration: a private scratch engine over
	// the same graph and program, seeded from the newest checkpoint and
	// advanced superstep by superstep to recover state that died with a
	// worker. Guarded by replayMu (partition goroutines share it).
	replayMu sync.Mutex
	replay   *Engine
	replaySS int

	// State Run keeps for the run and reuses every superstep. work[p] hands
	// partition p's goroutine its share of a phase, and wg waits for them.
	// ss is the superstep in flight and active[p] partition p's active
	// vertices in it; durs[p] is p's compute time for the supervisor; cols[dp]
	// gathers the outbox columns addressed to dp. sent, computeWall and
	// barrierWall are the superstep's raw sends and phase times.
	work                     []chan func(p int)
	wg                       sync.WaitGroup
	ss                       int
	active                   [][]VertexID
	durs                     []time.Duration
	cols                     [][][]OutMessage
	sent                     int64
	computeWall, barrierWall time.Duration
}

// New creates an engine for prog over g.
func New(g *graph.Graph, prog Program, cfg Config) (*Engine, error) {
	if g == nil || prog == nil {
		return nil, errors.New("engine: nil graph or program")
	}
	if cfg.Partitions <= 0 {
		cfg.Partitions = runtime.GOMAXPROCS(0)
	}
	if cfg.Transport != nil && cfg.SequentialBarrier {
		return nil, errors.New("engine: Transport requires the parallel barrier (SequentialBarrier must be off)")
	}
	e := &Engine{g: g, prog: prog, cfg: cfg, nParts: cfg.Partitions, runCtx: context.Background()}
	for _, o := range cfg.Observers {
		e.fields |= FieldRecords | o.Reads()
	}
	// Sender-side combining: runPartition pre-combines per destination
	// vertex as messages are emitted and the barrier folds those partial
	// values in ascending source-partition order — the engine's one
	// association tree. Capture is unaffected: raw sends travel in
	// VertexRecord.Sent under FieldSent, and an observer that reads raw
	// deliveries disables the combiner with FieldReceived.
	if e.fields&FieldReceived == 0 {
		e.sendComb = cfg.Combiner
	}
	if cfg.Context != nil {
		e.runCtx = cfg.Context
	}
	n := g.NumVertices()
	e.values = make([]value.Value, n)
	e.lastActive = make([]int32, n)
	for v := 0; v < n; v++ {
		e.values[v] = prog.InitialValue(g, VertexID(v))
		e.lastActive[v] = -1
	}
	e.inbox = make([]*inbox, e.nParts)
	for p := range e.inbox {
		e.inbox[p] = newInbox(p, e.nParts, n)
	}
	e.results = make([]partResult, e.nParts)
	e.agg = newAggregators(e.nParts)
	e.localPinned = make([]atomic.Bool, e.nParts)
	e.lastCkptSS = -1
	e.active = make([][]VertexID, e.nParts)
	e.cols = make([][][]OutMessage, e.nParts)
	for dp := range e.cols {
		e.cols[dp] = make([][]OutMessage, e.nParts)
	}
	if cfg.Transport != nil {
		e.residentActive = make([][]VertexID, e.nParts)
		e.pinnedAtSS = make([]int, e.nParts)
		for i := range e.pinnedAtSS {
			e.pinnedAtSS[i] = -2
		}
	}
	if cfg.Supervise != nil {
		e.sup = supervise.New(*cfg.Supervise, e.nParts, cfg.Metrics)
		e.durs = make([]time.Duration, e.nParts)
	}
	return e, nil
}

// Graph returns the input graph.
func (e *Engine) Graph() *graph.Graph { return e.g }

// Values returns the current vertex values (the analytic result after Run).
func (e *Engine) Values() []value.Value { return e.values }

// Stats returns run statistics.
func (e *Engine) Stats() RunStats { return e.stat }

// Aggregated exposes last-superstep aggregator values.
func (e *Engine) Aggregated() AggregatorReader { return e.agg.reader() }

// partition maps a vertex to its worker. The modulo runs in uint64 so the
// index is non-negative on every platform: VertexID is uint32, and on a
// 32-bit build int(v) truncates IDs above 2^31 to negative values (programs
// may SendMessage to any ID, not just ones the loader assigned).
func (e *Engine) partition(v VertexID) int { return int(uint64(v) % uint64(e.nParts)) }

// Partitions returns the simulated worker count.
func (e *Engine) Partitions() int { return e.nParts }

// PartitionOf returns the worker partition that owns vertex v — the
// failure/degradation domain observers (capture shedding, gap records) are
// scoped to.
func (e *Engine) PartitionOf(v VertexID) int { return e.partition(v) }

// Run executes supersteps until quiescence, the superstep limit, a Halter
// stop, or a vertex crash. Each superstep is four phases, one method each:
// compute, barrier, observe, and checkpoint at the barrier.
func (e *Engine) Run() (RunStats, error) {
	halter, _ := e.prog.(Halter)
	e.startRun()
	defer e.stopRun()
	for ss := e.startSS; e.cfg.MaxSupersteps <= 0 || ss < e.cfg.MaxSupersteps; ss++ {
		if err := e.cancelled(ss); err != nil {
			return e.stat, err
		}
		// Active vertices: all at superstep 0, else inbox owners. Computed
		// once per superstep so a supervised re-execution replays the same
		// set.
		total := 0
		for p := range e.active {
			e.active[p] = e.activeIDs(p, ss)
			total += len(e.active[p])
		}
		if ss > 0 && total == 0 {
			break
		}
		if err := e.compute(ss, total); err != nil {
			return e.stat, err
		}
		if err := e.barrier(ss, total); err != nil {
			return e.stat, err
		}
		if err := e.observe(ss); err != nil {
			return e.stat, err
		}
		if err := e.checkpoint(ss+1, false); err != nil {
			e.stat.Aborted = true
			return e.stat, err
		}
		if halter != nil && halter.ShouldHalt(e.agg.reader(), ss) || e.sent == 0 {
			break // halted, or quiescent
		}
	}
	// Values() reads the master's arrays: bring worker-resident state home.
	if err := e.syncMaster(e.stateSS); err != nil {
		return e.stat, err
	}
	for _, o := range e.cfg.Observers {
		if err := o.Finish(e.stat.Supersteps - 1); err != nil {
			return e.stat, fmt.Errorf("engine: observer finish: %w", err)
		}
	}
	return e.stat, nil
}

// startRun readies what the run keeps: one goroutine per partition and the
// resident bookkeeping. The master's arrays are authoritative exactly at the
// start (fresh, or restored from a checkpoint); with a transport the workers
// take over from the first superstep, whose active sets are the inboxes'
// owners (none on a fresh run, where superstep 0 activates everything, the
// restored frontier on a resume). residentActive exists only with a
// transport.
func (e *Engine) startRun() {
	e.masterAuthSS, e.stateSS = e.startSS, e.startSS
	for p := range e.residentActive {
		e.residentActive[p] = slices.Clone(e.inbox[p].owners())
	}
	e.work = make([]chan func(p int), e.nParts)
	for p := range e.work {
		e.work[p] = make(chan func(p int))
		go func(work <-chan func(p int)) {
			for fn := range work {
				fn(p)
				e.wg.Done()
			}
			e.wg.Done()
		}(e.work[p])
	}
}

// stopRun ends the partition goroutines and waits until they have exited.
func (e *Engine) stopRun() {
	e.wg.Add(len(e.work))
	for _, w := range e.work {
		close(w)
	}
	e.wg.Wait()
	e.work = nil
}

// fanOut runs fn(p) on every partition p's goroutine and waits for all of
// them; the wait is the happens-before edge between the phase and the engine.
func (e *Engine) fanOut(fn func(p int)) {
	e.wg.Add(e.nParts)
	for _, w := range e.work {
		w <- fn
	}
	e.wg.Wait()
}

// cancelled returns the run's cancellation error when its context is done at
// the start of superstep ss. The engine sits exactly at the superstep-ss
// barrier then, so the state is consistent: a final checkpoint lets the
// interrupted run resume from here instead of the last periodic snapshot.
func (e *Engine) cancelled(ss int) error {
	ctx := e.cfg.Context
	if ctx == nil || ctx.Err() == nil {
		return nil
	}
	m := e.cfg.Metrics
	e.stat.Aborted = true
	m.Tracef(obs.Warn, "engine", ss, "run canceled: %v", ctx.Err())
	if err := e.checkpoint(ss, true); err != nil {
		m.Tracef(obs.Error, "checkpoint", ss, "final checkpoint on cancel failed: %v", err)
	}
	return fmt.Errorf("engine: run canceled at superstep %d: %w", ss, ctx.Err())
}

// abort ends the run inside superstep ss: the superstep counts as run, its
// profile is dropped (a resumed run re-executes and re-profiles it) and the
// failure is traced. A crash, a delivery that could not be re-hydrated and a
// failed observer all end here.
func (e *Engine) abort(ss int, err error, format string, args ...any) error {
	e.stat.Aborted = true
	e.stat.Supersteps = ss + 1
	e.cfg.Metrics.AbortSuperstep()
	e.cfg.Metrics.Tracef(obs.Error, "engine", ss, format, args...)
	return err
}

// compute is the compute phase of superstep ss: every partition runs its
// active vertices on its own goroutine and hands its records to the
// observers there (computePartition). It records the compute wall time,
// flushes the supervision tallies the supervisor accumulated atomically from
// the partition goroutines, and aborts on the crash of the lowest vertex.
func (e *Engine) compute(ss, nActive int) error {
	m := e.cfg.Metrics
	e.stat.PeakActiveVertices = max(e.stat.PeakActiveVertices, nActive)
	m.BeginSuperstep(ss, nActive)
	start := time.Now()
	e.agg.beginSuperstep()
	e.ss = ss
	e.fanOut(e.computePartition)
	e.computeWall = time.Since(start)
	e.stat.ComputeWall += e.computeWall
	if e.sup != nil {
		sum := e.sup.EndSuperstep(ss, e.durs)
		e.stat.PartitionRetries += sum.Retries
		e.stat.DeadlineHits += sum.DeadlineHits
		e.stat.StragglerFlags += int64(len(sum.Stragglers))
		m.SuperstepSupervision(sum.Retries, sum.DeadlineHits, sum.Stragglers)
	}
	var crash *CrashError
	for p := range e.results {
		if c := e.results[p].crash; c != nil && (crash == nil || c.Vertex < crash.Vertex) {
			crash = c
		}
	}
	if crash != nil {
		return e.abort(ss, crash, "vertex %d crashed: %v", crash.Vertex, crash.Err)
	}
	return nil
}

// computePartition is partition p's share of the compute phase, on p's
// goroutine: its active vertices run on a worker when the partition is
// worker-resident, under the supervisor when one is configured, else
// directly; then every observer's ObservePartition sees its records.
func (e *Engine) computePartition(p int) {
	ss, ids, res := e.ss, e.active[p], &e.results[p]
	spanned := e.cfg.Metrics.SpansEnabled()
	var t0 time.Time
	if spanned {
		t0 = time.Now()
	}
	switch {
	case e.resident(p):
		e.transportCompute(p, ss, ids)
	case e.sup == nil:
		e.runPartition(e.runCtx, p, ss, e.fields, ids, res)
	default:
		e.superviseCompute(p, ss, ids)
	}
	if spanned {
		t0 = e.recordSpan(obs.SpanCompute, 0, ss, p, t0, len(ids))
	}
	if e.fields == 0 || res.crash != nil {
		return
	}
	for _, o := range e.cfg.Observers {
		o.ObservePartition(p, ss, res.records)
	}
	if spanned {
		e.recordSpan(obs.SpanObserve, 0, ss, p, t0, len(res.records))
	}
}

// recordSpan records the master span of partition p in superstep ss that
// began at t0, and returns when it ended.
func (e *Engine) recordSpan(name string, id uint64, ss, p int, t0 time.Time, tuples int) time.Time {
	end := time.Now()
	e.cfg.Metrics.RecordSpan(obs.Span{
		SpanID: id, Proc: obs.ProcMaster, Name: name, Superstep: ss, Partition: p,
		Start: t0.UnixNano(), Dur: int64(end.Sub(t0)), Tuples: int64(tuples),
	})
	return end
}

// barrier is the barrier phase of superstep ss: the aggregators merge, every
// inbox is rebuilt from the outbox columns addressed to it (deliver), and the
// superstep's message accounting joins the run's, as its barrier wall time
// does. A delivery whose lost state cannot be re-hydrated aborts.
func (e *Engine) barrier(ss, nActive int) error {
	start := time.Now()
	e.agg.endSuperstep()
	var sent, combinedSender int64
	for p := range e.results {
		sent += e.results[p].sent
		combinedSender += e.results[p].combinedSender
	}
	delivered, combined, maxShard, err := e.deliver(ss)
	if err != nil {
		return e.abort(ss, err, "delivery re-hydration failed: %v", err)
	}
	e.stateSS = ss + 1
	combined += combinedSender
	e.sent = sent
	e.stat.MessagesSent += sent
	e.stat.MessagesDelivered += delivered
	e.stat.MessagesCombined += combined
	e.stat.MessagesCombinedSender += combinedSender
	e.stat.ActiveVertices = append(e.stat.ActiveVertices, nActive)
	e.stat.Supersteps = ss + 1
	e.barrierWall = time.Since(start)
	e.stat.BarrierWall += e.barrierWall
	m := e.cfg.Metrics
	m.SuperstepMessages(sent, delivered, combined)
	m.SuperstepDelivery(combinedSender, maxShard, e.nParts)
	return nil
}

// observe is the observe phase of superstep ss: each observer's
// ObserveSuperstep combines the partitions' work, in observer order, and a
// failure aborts. Then the superstep closes: its profile gets the three phase
// times and is published (before the checkpoint, so the snapshot carries the
// metrics through ss), and the computed vertices' last-active marks advance
// (after the observers, whose records carry the previous marks).
func (e *Engine) observe(ss int) error {
	m := e.cfg.Metrics
	var wall time.Duration
	if e.fields != 0 {
		start := time.Now()
		view := &SuperstepView{Superstep: ss, Engine: e}
		for _, o := range e.cfg.Observers {
			if err := o.ObserveSuperstep(view); err != nil {
				return e.abort(ss, fmt.Errorf("engine: observer failed at superstep %d: %w", ss, err),
					"observer %T failed: %v", o, err)
			}
		}
		wall = time.Since(start)
		e.stat.ObserveWall += wall
	}
	m.SuperstepTimings(e.computeWall, e.barrierWall, wall)
	for p := range e.results {
		for _, v := range e.results[p].computed {
			e.lastActive[v] = int32(ss)
		}
	}
	m.EndSuperstep()
	return nil
}

// checkpoint writes the snapshot entering superstep next at the barrier
// before it, when one is due: every Interval supersteps, or, when final (a
// cancelled run), unless the newest checkpoint already resumes at next. The
// snapshot holds everything next depends on, observer state included, with
// worker-resident state pulled home first.
func (e *Engine) checkpoint(next int, final bool) error {
	if ck := e.cfg.Checkpoint; ck == nil || ck.Dir == "" || ck.Interval <= 0 ||
		final && next == e.lastCkptSS || !final && next%ck.Interval != 0 {
		return nil
	}
	if err := e.syncMaster(next); err != nil {
		return err
	}
	return e.writeCheckpoint(next)
}

// superviseCompute runs partition p's superstep under the supervisor:
// snapshot the partition's slice of the barrier state, attempt, and on a
// retryable failure roll back and re-execute only this partition. Runs on
// the partition's worker goroutine; everything it mutates (values of ids,
// the partition's aggregator map, results[p], durs[p]) is partition-local.
func (e *Engine) superviseCompute(p, ss int, ids []VertexID) {
	start := time.Now()
	snap := make([]value.Value, len(ids))
	for i, v := range ids {
		snap[i] = e.values[v]
	}
	attempt := func(actx context.Context) error {
		e.runPartition(actx, p, ss, e.fields, ids, &e.results[p])
		if c := e.results[p].crash; c != nil {
			return c
		}
		return nil
	}
	reset := func() {
		for i, v := range ids {
			e.values[v] = snap[i]
		}
		e.agg.resetPartition(p)
	}
	e.sup.Run(e.runCtx, p, ss, attempt, reset, retryableCrash)
	e.durs[p] = time.Since(start)
}

// retryableCrash classifies partition failures for supervised retry:
// vertex-program panics, injected faults, and deadline expiries are
// transient (a re-execution from the barrier state may succeed);
// program-logic errors and run cancellation are not.
func retryableCrash(err error) bool {
	if errors.Is(err, context.Canceled) {
		return false
	}
	return errors.Is(err, ErrComputePanic) || errors.Is(err, fault.ErrInjected) ||
		errors.Is(err, context.DeadlineExceeded)
}

// computeOne runs Compute for one vertex with panic containment: a panic in
// the vertex program (or one injected at the compute fault site) becomes an
// ErrComputePanic-wrapped error, which the barrier surfaces as a CrashError
// with the culprit vertex and superstep instead of killing the process.
func (e *Engine) computeOne(actx context.Context, ctx *Context, v VertexID, ss, p int, msgs []IncomingMessage) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%w: %v", ErrComputePanic, r)
		}
	}()
	if ferr := e.cfg.Fault.HitWait(actx, fault.SiteCompute, ss, p, int64(v)); ferr != nil {
		return ferr
	}
	return e.prog.Compute(ctx, msgs)
}

type partResult struct {
	outbox   [][]OutMessage // destination partition -> messages
	records  []VertexRecord
	computed []VertexID
	crash    *CrashError
	// ctx is the partition's vertex context. Its send buffer and fact arena
	// back the Sent and Emitted windows of this superstep's records (the
	// vertices append to them one after the other) and are reused.
	ctx Context
	// combIdx[dp][dst/nParts] is the index of dst's pre-combined message in
	// outbox[dp] (sender-side combining; dst/nParts is dst's local id). A
	// column is allocated on first use and never cleared: a slot counts only
	// if it is below len(outbox[dp]) and that entry names dst, which holds
	// for dst's own entry alone, since a column has one entry per dst.
	combIdx [][]int32
	// sent counts raw messages emitted by the partition's vertices this
	// superstep (before any combining); combinedSender counts those the
	// sender-side combiner merged away.
	sent           int64
	combinedSender int64
	// residentRemote marks a result produced by a worker-resident exec: the
	// routed outbox columns live on the workers, and dstCounts carries their
	// per-destination-partition sizes for barrier accounting.
	residentRemote bool
	dstCounts      []int64
}

// reset prepares the scratch for a new superstep (or a supervised retry),
// keeping every backing array for reuse.
func (r *partResult) reset(nParts int, combining bool) {
	if r.outbox == nil {
		r.outbox = make([][]OutMessage, nParts)
	}
	for i := range r.outbox {
		r.outbox[i] = r.outbox[i][:0]
	}
	r.records = r.records[:0]
	r.computed = r.computed[:0]
	r.crash = nil
	r.sent, r.combinedSender = 0, 0
	r.residentRemote = false
	r.dstCounts = r.dstCounts[:0]
	if combining && r.combIdx == nil {
		r.combIdx = make([][]int32, nParts)
	}
}

// sentTo is how many messages the partition sent to destination partition
// dp, after sender-side combining: the worker's count for a resident result,
// the outbox column's length otherwise.
func (r *partResult) sentTo(dp int) int64 {
	if r.residentRemote {
		return r.dstCounts[dp]
	}
	return int64(len(r.outbox[dp]))
}

// deliver rebuilds every destination partition's inbox from the outbox
// columns addressed to it: on its own goroutine (buildInbox), all on this one
// under SequentialBarrier, or through residentDeliver's Deliver round with a
// transport. The sender already merged its own messages per destination in
// emission order; inbox.build folds those partial values in ascending source
// partition, and whatever it did not deliver it combined.
func (e *Engine) deliver(ss int) (delivered, combined, maxShard int64, err error) {
	if e.cfg.Transport != nil {
		return e.residentDeliver(ss)
	}
	if e.cfg.SequentialBarrier {
		for dp := range e.inbox {
			e.buildInbox(dp)
		}
	} else {
		e.fanOut(func(dp int) { e.buildInbox(dp) })
	}
	for dp, in := range e.inbox {
		d := in.size()
		delivered += d
		maxShard = max(maxShard, d)
		for sp := range e.results {
			combined += e.results[sp].sentTo(dp)
		}
	}
	return delivered, combined - delivered, maxShard, nil
}

// buildInbox rebuilds destination partition dp's inbox from every source
// partition's outbox column. Safe to call concurrently for distinct dp.
func (e *Engine) buildInbox(dp int) (delivered, combined int64) {
	cols := e.cols[dp]
	for sp := range e.results {
		cols[sp] = e.results[sp].outbox[dp]
	}
	return e.inbox[dp].build(cols, e.sendComb)
}

// resident reports whether partition p's state lives on a transport worker.
func (e *Engine) resident(p int) bool {
	return e.cfg.Transport != nil && !e.localPinned[p].Load()
}

// activeIDs returns partition p's active vertices for superstep ss in
// ascending order without duplicates: every owned vertex at superstep 0, else
// the vertices with messages — which, for a worker-resident partition, the
// delivery barrier reported instead of a master inbox. The result may alias
// the inbox's owner list.
func (e *Engine) activeIDs(p, ss int) []VertexID {
	switch {
	case ss == 0:
		ids := make([]VertexID, 0, e.strideLen(p))
		for v := p; v < e.g.NumVertices(); v += e.nParts {
			ids = append(ids, VertexID(v))
		}
		return ids
	case e.resident(p):
		return e.residentActive[p]
	}
	return e.inbox[p].owners()
}

// runPartition computes the given active vertices of partition p for
// superstep ss, building records with the given fields (none when zero).
// actx bounds the attempt: injected hangs and delays block on it, and
// between vertices an expired per-partition deadline (but not parent
// cancellation, which the superstep-start check handles so the barrier state
// stays consistent) aborts the partition early.
func (e *Engine) runPartition(actx context.Context, p, ss int, fields Fields, ids []VertexID, res *partResult) {
	comb := e.sendComb
	res.reset(e.nParts, comb != nil)
	ctx := &res.ctx
	ctx.begin(e, ss, p, fields)
	inbox := e.inbox[p]
	n := e.g.NumVertices()

	for _, v := range ids {
		// An expired per-partition deadline stops the attempt between
		// vertices so a genuinely slow partition cancels promptly, not just
		// ones blocked inside a fault site. Parent cancellation is excluded:
		// the in-flight superstep finishes (compute is fast) and the
		// superstep-start check exits with a consistent final checkpoint.
		if actx.Err() != nil && e.runCtx.Err() == nil {
			res.crash = &CrashError{Vertex: v, Superstep: ss,
				Err: fmt.Errorf("partition %d attempt canceled: %w", p, actx.Err())}
			return
		}
		msgs := inbox.msgs(v)
		Canonicalize(msgs)
		ctx.reset(v)
		old := e.values[v]
		if err := e.computeOne(actx, ctx, v, ss, p, msgs); err != nil {
			res.crash = &CrashError{Vertex: v, Superstep: ss, Err: err}
			return
		}
		// Flush this vertex's outgoing messages into the partition outbox.
		// The context holds the vertex's raw sends (under FieldSent its
		// VertexRecord below keeps them); when a sender-side combiner is active the
		// outbox keeps only one pre-combined message per destination vertex,
		// merged left-to-right in emission order — the same association
		// order the barrier would use for this partition.
		sent := ctx.sent[ctx.sentStart:]
		res.sent += int64(len(sent))
		for _, m := range sent {
			if int(m.Dst) >= n {
				res.crash = &CrashError{Vertex: v, Superstep: ss,
					Err: fmt.Errorf("message to vertex %d: the graph has %d vertices", m.Dst, n)}
				return
			}
			dp := e.partition(m.Dst)
			if comb != nil {
				if res.combIdx[dp] == nil {
					res.combIdx[dp] = make([]int32, (n-dp+e.nParts-1)/e.nParts)
				}
				slot := &res.combIdx[dp][int(m.Dst)/e.nParts]
				if i := int(*slot); i < len(res.outbox[dp]) && res.outbox[dp][i].Dst == m.Dst {
					om := &res.outbox[dp][i]
					om.Val = comb(om.Val, m.Val)
					res.combinedSender++
					continue
				}
				*slot = int32(len(res.outbox[dp]))
			}
			res.outbox[dp] = append(res.outbox[dp], OutMessage{Src: v, Dst: m.Dst, Val: m.Val})
		}
		res.computed = append(res.computed, v)
		if fields != 0 {
			// Received, Sent and Emitted borrow the inbox arena, the send
			// buffer and the fact arena.
			rec := VertexRecord{
				ID:         v,
				Superstep:  ss,
				PrevActive: int(e.lastActive[v]),
				OldValue:   old,
				NewValue:   e.values[v],
				SentAny:    len(sent) > 0,
			}
			if fields&FieldReceived != 0 {
				rec.Received = msgs
			}
			if fields&FieldSent != 0 && len(sent) > 0 {
				rec.Sent = sent[:len(sent):len(sent)]
			}
			if n := len(ctx.emitted); n > ctx.emitStart {
				rec.Emitted = ctx.emitted[ctx.emitStart:n:n]
			}
			res.records = append(res.records, rec)
		}
	}
}

// Canonicalize puts msgs into the engine's message order — ascending Src,
// then ascending Val, ties as given — so what Compute sees depends on neither
// scheduling nor the partition count. inbox.build delivers that order unless
// one Src sent a vertex several messages (multi-edges), and an installed
// frontier may be in any order, so one linear pass decides whether to sort.
// A provenance reader that rebuilds a vertex's receives from its senders'
// sends, in delivery order, applies it too.
func Canonicalize(msgs []IncomingMessage) {
	if !isCanonical(msgs) {
		slices.SortStableFunc(msgs, func(a, b IncomingMessage) int {
			if a.Src != b.Src {
				return cmp.Compare(a.Src, b.Src)
			}
			return a.Val.Compare(b.Val)
		})
	}
}

func isCanonical(msgs []IncomingMessage) bool {
	for i := 1; i < len(msgs); i++ {
		a, b := &msgs[i-1], &msgs[i]
		if a.Src > b.Src || a.Src == b.Src && a.Val.Compare(b.Val) > 0 {
			return false
		}
	}
	return true
}
