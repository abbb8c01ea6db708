// Transport boundary: the superstep compute/exchange seam the distributed
// runtime plugs into. The engine is the coordinator ("master" in BLADYG
// terms): it owns aggregators, observers, checkpoints and the barrier
// schedule, while the workers behind a Transport keep their partitions'
// vertex values and inboxes resident for the whole run, as Giraph workers
// do. Each superstep the engine hands every partition's active set to the
// Transport, which executes the vertex programs on a worker and returns the
// partition's records, accounting and aggregator contributions; the workers
// then fold each other's outbox fragments in one Deliver round (resident.go).
// Every fold goes through the same inbox.build the in-process barrier runs,
// so a transport-backed run is bit-identical to a local one by construction;
// only *where* Compute executes changes.
//
// Robustness contract: a Transport failure (connection loss, exceeded
// message deadlines, an unreachable peer) is reported as an error wrapping
// ErrTransport — distinct from a remote *compute* crash, which travels back
// as ExecResult.Crash and is reconstructed into the same CrashError a local
// run would produce. The recovery ladder, in order: the transport's own
// per-message retransmit budget; partition failover inside the transport's
// worker pool (the TCP leg reroutes the request to a surviving worker, which
// answers a state miss and is re-seeded, so capture is fully preserved and a
// worker death costs nothing but latency while survivors remain); the
// engine's supervised partition retry; and finally, when the transport
// reports that no workers remain, local re-execution — the engine rebuilds
// the partition's state from checkpoint + replay and pins it local from the
// superstep barrier (the master holds the program and graph, so the analytic
// completes bit-identically) while shedding that partition's provenance
// capture via the degraded-mode machinery, exactly as repeated capture
// failures do.
package engine

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"slices"
	"sort"
	"sync"
	"time"

	"ariadne/internal/fault"
	"ariadne/internal/graph"
	"ariadne/internal/obs"
	"ariadne/internal/value"
)

// ErrTransport is the base error of transport-layer failures (dial errors,
// send/recv deadline expiries, heartbeat-declared dead peers). It classifies
// a failed partition attempt as "the network, not the program": supervision
// retries it, and past MaxRetries the engine falls back to local execution
// instead of aborting the run.
var ErrTransport = errors.New("transport failure")

// ErrStateMiss reports that a worker could not execute a delta request
// because it holds no resident state for the partition at that superstep
// (fresh worker, failover target, or a worker that lost a delivery round).
// It deliberately does NOT wrap ErrTransport: the worker is alive and
// answering — the master re-seeds it with a seed request instead of failing
// the partition over or pinning it local.
var ErrStateMiss = errors.New("worker resident-state miss")

// ExecMode selects how much state an ExecRequest carries.
//
// The zero value is ModeDelta: the worker already holds the partition's
// values, last-active marks and inbox, so the request carries only the
// active vertex IDs and control metadata, and the result returns
// accounting, records and the master-resident outbox columns — the values
// and the cross-worker messages never transit the master. ModeSeed is
// ModeDelta plus a full partition state install (stride values, last-active
// marks, inbox): the master sends it on a fresh run's first superstep miss,
// after failover, or after a replay re-hydration.
type ExecMode uint8

const (
	ModeDelta ExecMode = iota
	ModeSeed
)

// Transport executes partition supersteps on workers that keep partition
// state resident across supersteps. Exec must be safe for concurrent calls
// (the engine issues one call per partition per superstep, from the
// per-partition worker goroutines) and must be synchronous: when ctx is
// cancelled or its deadline expires the call returns promptly so a
// supervised retry never races an abandoned attempt. Deliver runs the
// delivery barrier (or a collect round) on the workers; it reports an
// unreachable partition as OK=false, and the engine then re-hydrates that
// partition from checkpoint + replay.
//
// Exec errors wrapping ErrTransport mean the request may not have reached
// the worker (or the reply was lost); the engine re-sends the same request
// on retry, and the worker's superstep bookkeeping makes a duplicate
// execution idempotent. A remote vertex-program failure is NOT an Exec
// error: it comes back inside ExecResult.Crash so the master reproduces the
// exact CrashError (culprit vertex, superstep, panic/fault cause) a local
// run would have raised.
type Transport interface {
	Exec(ctx context.Context, req *ExecRequest) (*ExecResult, error)
	Deliver(ctx context.Context, req *DeliverRequest) (*DeliverResult, error)
	Close() error
}

// StatefulTransport is Transport under its earlier name, kept so that code
// embedding it in a decorator still compiles.
type StatefulTransport = Transport

// ExecRequest carries what one partition needs to compute one superstep:
// the active vertices in ascending order and the merged aggregator values of
// the previous superstep, plus, for a seed, the partition's whole state.
type ExecRequest struct {
	Superstep int
	Partition int
	// Fields is the master's record mask (Engine.fields): zero asks for no
	// VertexRecords in the result; otherwise the worker builds exactly the
	// fields the master's observers read, and its Context.Observing
	// reports FieldEmitted as the master's would.
	Fields Fields
	// Combine enables sender-side combining on the worker, using the
	// program's combiner (both sides are constructed from the same analytic,
	// so the association order matches the local path exactly).
	Combine bool
	// Active lists the vertices to compute, ascending, all owned by
	// Partition.
	Active []VertexID
	// Agg holds the merged aggregator values of the previous superstep
	// (Pregel read-your-previous-superstep semantics).
	Agg map[string]float64
	// Trace context (PR 7): when the master runs with span tracing enabled,
	// TraceID carries the run's trace ID and ParentSpan the span ID of this
	// partition's exchange, so the worker's decode/compute/encode child
	// spans land under the right parent in the merged timeline. Both zero
	// when tracing is off — the worker then records nothing.
	TraceID    uint64
	ParentSpan uint64
	// Mode selects the exchange shape: a delta against the worker's
	// resident state, or a seed that installs it.
	Mode ExecMode
	// Route maps each destination partition to the address of the worker
	// that owns it this superstep, so the executing worker sends outbox
	// fragments directly across the peer mesh; "." keeps the column on the
	// executing worker and "" keeps it in the reply (the partition is
	// master-resident). Filled by the transport at send time from its
	// current assignment.
	Route []string
	// LocalParts flags master-resident (pinned-local) partitions; the
	// transport derives Route from it. Master-side only, not serialized.
	LocalParts []bool
	// Seed payload (ModeSeed): the partition's full state in stride order
	// (vertex p, p+nParts, ...), and Inbox[i], the messages for Active[i]
	// (may be nil) at the seed superstep. All three are nil in a delta.
	AllValues []value.Value
	AllActive []int32
	Inbox     [][]IncomingMessage
}

// OutMessage is one outbox entry on the wire: source and destination vertex
// plus the (possibly sender-combined) value, in emission order.
type OutMessage struct {
	Src, Dst VertexID
	Val      value.Value
}

// AggUpdate is one partition's partial aggregator contribution for the
// superstep, merged at the master barrier in the same per-partition order as
// local execution.
type AggUpdate struct {
	Name string
	Op   AggOp
	Val  float64
	N    int64
}

// RemoteCrash is a vertex-program failure serialized across the transport.
// The cause classification travels as flags so the master can rebuild an
// error chain that errors.Is-matches the local sentinels (ErrComputePanic,
// fault.ErrInjected, context deadline/cancel) and supervision classifies the
// retry exactly as it would a local crash.
type RemoteCrash struct {
	Vertex    VertexID
	Superstep int
	Message   string
	Panic     bool
	Injected  bool
	Deadline  bool
	Canceled  bool
}

// Err rebuilds the crash cause with the sentinel chain restored.
func (rc *RemoteCrash) Err() error {
	base := errors.New(rc.Message)
	var err error = base
	if rc.Canceled {
		err = fmt.Errorf("%w: %w", base, context.Canceled)
	} else if rc.Deadline {
		err = fmt.Errorf("%w: %w", base, context.DeadlineExceeded)
	}
	if rc.Injected {
		err = fmt.Errorf("%w: %w", fault.ErrInjected, err)
	}
	if rc.Panic {
		err = fmt.Errorf("%w: %w", ErrComputePanic, err)
	}
	return err
}

// ExecResult is one partition's completed superstep: the outbox columns that
// were not routed to a worker, in canonical emission order, the observer
// records (when requested), message accounting, and the partition's
// aggregator partials. The new values stay on the worker. Crash is set
// instead when a vertex failed; the other fields are then meaningless.
type ExecResult struct {
	Partition int
	Crash     *RemoteCrash

	Outbox [][]OutMessage
	// Records own their Received and Sent slices (two flat buffers per
	// result), unlike the records of an in-process partition.
	Records []VertexRecord

	Sent           int64
	CombinedSender int64
	Agg            []AggUpdate

	// Spans carries the worker's completed child spans back to the master,
	// piggybacked on the result frame (empty unless the request carried
	// trace context). The master merges them via Metrics.AddRemoteSpans.
	Spans []obs.Span

	// StateMiss reports a delta request the worker could not serve for lack
	// of resident state; the transport surfaces it as ErrStateMiss and the
	// other fields are meaningless.
	StateMiss bool
	// DstCounts gives the per-destination-partition outbox sizes (after
	// sender-side combining), including the routed columns that are not in
	// Outbox. The master uses them for message accounting and to tell
	// workers how many fragments to expect at the delivery barrier.
	DstCounts []int64
}

// DeliverRequest is the delivery-barrier round of a resident-state run: for
// each listed partition, the owning worker folds the outbox fragments it
// received over the peer mesh (plus any master-supplied fragments from
// pinned-local partitions) into the partition's next inbox, mirroring the
// master barrier's association order exactly. With CollectOnly set, no
// delivery happens — the worker just returns the partition's resident state
// entering Superstep (for checkpoints and the final Values() read).
type DeliverRequest struct {
	Superstep   int
	CollectOnly bool
	// Combine enables barrier-side combining, matching the master's
	// effective combiner (nil when any observer needs raw messages).
	Combine bool
	// Parts lists the partitions to deliver/collect; Expected[i][sp] is the
	// fragment count partition Parts[i] must have received from source
	// partition sp, and MasterFrags[i][sp] carries source partition sp's
	// messages inline when sp is master-resident.
	Parts       []int
	Expected    [][]int64
	MasterFrags [][][]OutMessage
	TraceID     uint64
	ParentSpan  uint64
}

// DeliverPart is one partition's delivery-barrier (or collect) outcome.
// OK=false means the worker could not serve the partition — it didn't
// execute the superstep or fragments are missing — and the master falls
// back to checkpoint + replay re-hydration.
type DeliverPart struct {
	Partition int
	OK        bool
	// Delivery outcome: inbox entries created, messages folded away by the
	// combiner, and the sorted next-active vertex set.
	Delivered int64
	Combined  int64
	Dsts      []VertexID
	// Collect payload: the partition's values in stride order and its inbox
	// sorted by destination vertex.
	Values []value.Value
	Inbox  []InboxChunk
}

// InboxChunk is one vertex's inbox on the wire (collect payload), in the
// exact fold order the delivery barrier produced.
type InboxChunk struct {
	Dst  VertexID
	Msgs []IncomingMessage
}

// DeliverResult carries the per-partition outcomes, aligned with the
// request's Parts.
type DeliverResult struct {
	Parts []DeliverPart
}

// Executor runs partition supersteps against worker-resident state — the
// worker-process side of the transport. It wraps a private Engine over the
// same graph and program the master holds; each Exec runs the partition
// exactly as the master's in-process path would (after installing a seed's
// state) and extracts the result. Exec is serialized by an internal mutex
// (a worker serves one master connection, but its partitions' requests may
// arrive back to back).
type Executor struct {
	mu sync.Mutex
	e  *Engine
	// res tracks each partition's worker-resident state across supersteps:
	// which superstep the resident values/inbox can execute, which
	// superstep has executed but not yet passed the delivery barrier, and
	// the memoized last barrier outcome for retransmit idempotence.
	res []residentPart
}

// residentPart is one partition's resident-state bookkeeping on a worker.
type residentPart struct {
	// readySS is the superstep the resident state can execute (a fresh
	// executor is authoritative for superstep 0 by construction: initial
	// values, empty inboxes, last-active -1 — identical to a fresh master).
	readySS int
	// executedSS is the superstep that has executed but not yet been
	// assembled at the delivery barrier; -1 when none. ids and snap hold the
	// executed active set and its pre-exec values so a duplicate exec (lost
	// reply) or a crash rolls back to an idempotent state.
	executedSS int
	ids        []VertexID
	snap       []value.Value
	// deliverSS/deliverRes memoize the last Assemble outcome so a
	// retransmitted delivery round (reply lost, new connection) replays the
	// identical result instead of double-folding.
	deliverSS  int
	deliverRes *DeliverPart
}

// NewExecutor creates a worker-side executor for prog over g. cfg supplies
// Partitions (which must match the master's) and the program's Combiner;
// other fields are ignored — observers, checkpointing, supervision, and
// metrics live on the master.
func NewExecutor(g *graph.Graph, prog Program, cfg Config) (*Executor, error) {
	e, err := New(g, prog, Config{
		Partitions: cfg.Partitions,
		Combiner:   cfg.Combiner,
		Fault:      cfg.Fault,
	})
	if err != nil {
		return nil, err
	}
	x := &Executor{e: e, res: make([]residentPart, e.nParts)}
	for p := range x.res {
		x.res[p] = residentPart{readySS: 0, executedSS: -1, deliverSS: -1}
	}
	return x, nil
}

// Fault exposes the executor's fault injector so the transport layer can
// guard the peer-mesh send/recv sites on the worker.
func (x *Executor) Fault() *fault.Injector { return x.e.cfg.Fault }

// rollback undoes an executed-but-unassembled superstep: the pre-exec
// values of the executed active set are restored, making a re-execution (or
// a collect of the entering-readySS state) exact.
func (x *Executor) rollback(rp *residentPart) {
	if rp.executedSS < 0 {
		return
	}
	for i, v := range rp.ids {
		x.e.values[v] = rp.snap[i]
	}
	rp.executedSS = -1
}

// CheckExec reports whether a decoded request fits this executor's
// partitioning, so that Exec indexes nothing out of range: the partition
// exists, Active is ascending and owned by it, and a seed carries one value
// and one last-active mark per owned vertex and one inbox list per active
// vertex. A worker calls it once per frame and answers a failure with an
// error instead of executing.
func (x *Executor) CheckExec(req *ExecRequest) error {
	e := x.e
	p := req.Partition
	if p < 0 || p >= e.nParts {
		return fmt.Errorf("engine: exec partition %d out of range [0, %d)", p, e.nParts)
	}
	for i, v := range req.Active {
		if !x.owns(p, v) || (i > 0 && v <= req.Active[i-1]) {
			return fmt.Errorf("engine: exec active[%d] = %d is not an ascending vertex of partition %d", i, v, p)
		}
	}
	if req.Mode != ModeSeed {
		return nil
	}
	if n := e.strideLen(p); len(req.AllValues) != n || len(req.AllActive) != n {
		return fmt.Errorf("engine: seed of partition %d carries %d values and %d marks, want %d",
			p, len(req.AllValues), len(req.AllActive), n)
	}
	if len(req.Inbox) != len(req.Active) {
		return fmt.Errorf("engine: seed carries %d inbox lists for %d active vertices", len(req.Inbox), len(req.Active))
	}
	return nil
}

// CheckDeliver reports whether a decoded deliver round fits this executor's
// partitioning: every listed partition exists and, for a delivery, its
// Expected and MasterFrags rows are present, at most one entry per source
// partition, and every relayed message is addressed to the partition.
func (x *Executor) CheckDeliver(req *DeliverRequest) error {
	nParts := x.e.nParts
	if !req.CollectOnly && (len(req.Expected) != len(req.Parts) || len(req.MasterFrags) != len(req.Parts)) {
		return fmt.Errorf("engine: deliver lists %d partitions with %d expected rows and %d fragment rows",
			len(req.Parts), len(req.Expected), len(req.MasterFrags))
	}
	for i, p := range req.Parts {
		if p < 0 || p >= nParts {
			return fmt.Errorf("engine: deliver partition %d out of range [0, %d)", p, nParts)
		}
		if req.CollectOnly {
			continue
		}
		if len(req.Expected[i]) > nParts || len(req.MasterFrags[i]) > nParts {
			return fmt.Errorf("engine: deliver rows of partition %d exceed %d source partitions", p, nParts)
		}
		for sp, msgs := range req.MasterFrags[i] {
			if err := x.CheckFrag(sp, p, msgs); err != nil {
				return err
			}
		}
	}
	return nil
}

// CheckFrag reports whether msgs can be folded as source partition sp's
// column for destination partition dp: both partitions exist and every
// message is addressed to a vertex dp owns.
func (x *Executor) CheckFrag(sp, dp int, msgs []OutMessage) error {
	if sp < 0 || sp >= x.e.nParts || dp < 0 || dp >= x.e.nParts {
		return fmt.Errorf("engine: fragment %d->%d out of range [0, %d)", sp, dp, x.e.nParts)
	}
	for _, m := range msgs {
		if !x.owns(dp, m.Dst) {
			return fmt.Errorf("engine: fragment %d->%d carries a message for vertex %d", sp, dp, m.Dst)
		}
	}
	return nil
}

// owns reports whether vertex v exists and belongs to partition p.
func (x *Executor) owns(p int, v VertexID) bool {
	return uint64(v) < uint64(x.e.g.NumVertices()) && x.e.partition(v) == p
}

// Partitions returns the executor's partition count (handshake check).
func (x *Executor) Partitions() int { return x.e.nParts }

// Graph returns the executor's graph (handshake fingerprint).
func (x *Executor) Graph() *graph.Graph { return x.e.g }

// Exec computes one partition superstep against the resident state, after
// installing it first when the request is a seed. The context bounds the
// attempt like a supervision deadline does locally: cancellation aborts
// between vertices and surfaces as a RemoteCrash with the deadline/cancel
// cause preserved. The request must have passed CheckExec.
func (x *Executor) Exec(ctx context.Context, req *ExecRequest) *ExecResult {
	x.mu.Lock()
	defer x.mu.Unlock()
	e := x.e
	p := req.Partition
	rp := &x.res[p]
	if req.Mode == ModeSeed {
		// Full state install: any pending exec is obsolete, the seed
		// overwrites the whole partition (values, last-active, inbox).
		rp.executedSS = -1
		rp.deliverSS, rp.deliverRes = -1, nil
		e.setStride(p, req.AllValues)
		for i := range req.AllActive {
			e.lastActive[p+i*e.nParts] = req.AllActive[i]
		}
		e.inbox[p].install(req.Active, req.Inbox)
		rp.readySS = req.Superstep
	} else {
		if rp.executedSS == req.Superstep {
			// Duplicate execution (the reply was lost): roll back to the
			// pre-exec snapshot so the re-run is idempotent.
			x.rollback(rp)
		}
		if rp.readySS != req.Superstep {
			return &ExecResult{Partition: p, StateMiss: true}
		}
	}
	e.agg.setCurrent(req.Agg)
	e.agg.resetPartition(p)
	if req.Combine {
		e.sendComb = e.cfg.Combiner
	} else {
		e.sendComb = nil
	}
	e.runCtx = context.Background() // any ctx expiry is attempt-scoped here

	rp.ids = append(rp.ids[:0], req.Active...)
	rp.snap = rp.snap[:0]
	for _, v := range req.Active {
		rp.snap = append(rp.snap, e.values[v])
	}

	// Reuse the engine's per-partition result buffer: the worker engine
	// never runs its own barrier, so e.results[p] is idle here, and
	// everything Exec exports below is copied out of it before return.
	pr := &e.results[p]
	e.runPartition(ctx, p, req.Superstep, req.Fields, req.Active, pr)

	res := &ExecResult{Partition: p, Sent: pr.sent, CombinedSender: pr.combinedSender}
	rp.executedSS = req.Superstep
	if c := pr.crash; c != nil {
		// Restore the pre-exec values so the resident state stays exact for
		// the supervised retry the master will issue.
		x.rollback(rp)
		res.Crash = &RemoteCrash{
			Vertex:    c.Vertex,
			Superstep: c.Superstep,
			Message:   c.Err.Error(),
			Panic:     errors.Is(c.Err, ErrComputePanic),
			Injected:  errors.Is(c.Err, fault.ErrInjected),
			Deadline:  errors.Is(c.Err, context.DeadlineExceeded),
			Canceled:  errors.Is(c.Err, context.Canceled),
		}
		return res
	}
	res.Outbox = make([][]OutMessage, e.nParts)
	res.DstCounts = make([]int64, e.nParts)
	selfRouted := func(dp int) bool {
		return dp < len(req.Route) && req.Route[dp] == "."
	}
	total := 0
	for dp, msgs := range pr.outbox {
		res.DstCounts[dp] = int64(len(msgs))
		if !selfRouted(dp) {
			total += len(msgs)
		}
	}
	// Columns that leave this worker — reply columns the master folds or
	// relays, and mesh columns encoded outside x.mu — must not alias pr
	// (recycled next superstep, and a duplicate exec rewrites it while a
	// prior attempt's encode could still be reading); they share one flat
	// backing array, sliced per destination with full-cap bounds.
	// Self-routed columns (".") never cross an encode boundary: the frag
	// store holds only the slice header and every element access — the
	// Assemble fold, and any duplicate-exec rewrite — happens under x.mu
	// with deterministically identical contents, so they alias pr directly
	// and pay no copy at all.
	flat := make([]OutMessage, 0, total)
	for dp, msgs := range pr.outbox {
		if len(msgs) == 0 {
			continue
		}
		if selfRouted(dp) {
			res.Outbox[dp] = msgs
			continue
		}
		lo := len(flat)
		flat = append(flat, msgs...)
		res.Outbox[dp] = flat[lo:len(flat):len(flat)]
	}
	if req.Fields != 0 {
		res.Records = detachRecords(pr.records)
	}
	res.Agg = e.agg.partial(p)
	return res
}

// detachRecords copies records and moves their Received, Sent and Emitted
// windows, which borrow the engine's inbox arena, send buffer and fact arena,
// into flat buffers of the result's own (the facts' Args into one more): a
// result leaves the executor's mutex (the TCP worker encodes it afterwards,
// while a duplicate Exec may already be rewriting the borrowed buffers), so
// it must not alias them.
func detachRecords(recs []VertexRecord) []VertexRecord {
	var nRecv, nSent, nFacts, nArgs int
	for i := range recs {
		nRecv += len(recs[i].Received)
		nSent += len(recs[i].Sent)
		nFacts += len(recs[i].Emitted)
		for _, f := range recs[i].Emitted {
			nArgs += len(f.Args)
		}
	}
	out := slices.Clone(recs)
	recv, sent := make([]IncomingMessage, 0, nRecv), make([]SentMessage, 0, nSent)
	facts, args := make([]ProvFact, 0, nFacts), make([]value.Value, 0, nArgs)
	for i := range out {
		r := &out[i]
		if n := len(recv); len(r.Received) > 0 {
			recv = append(recv, r.Received...)
			r.Received = recv[n:len(recv):len(recv)]
		}
		if n := len(sent); len(r.Sent) > 0 {
			sent = append(sent, r.Sent...)
			r.Sent = sent[n:len(sent):len(sent)]
		}
		if n := len(facts); len(r.Emitted) > 0 {
			for _, f := range r.Emitted {
				a := len(args)
				args = append(args, f.Args...)
				facts = append(facts, ProvFact{Table: f.Table, Args: args[a:len(args):len(args)]})
			}
			r.Emitted = facts[n:len(facts):len(facts)]
		}
	}
	return out
}

// Assemble runs partition p's delivery barrier for superstep ss on the
// worker: the per-source-partition fragments fold in ascending source order
// — the master barrier's exact association tree — into a fresh inbox, which
// becomes the partition's resident state for superstep ss+1. frags[sp]
// supplies source partition sp's messages (from the peer mesh, the worker's
// own outbox, or the master's pinned partitions); expected[sp] is the
// master's count for validation. Returns OK=false without mutating state
// when the partition didn't execute ss here or fragments went missing with
// a dead peer — the master then re-hydrates from checkpoint + replay.
func (x *Executor) Assemble(ss, p int, combine bool, expected []int64, frags [][]OutMessage) *DeliverPart {
	x.mu.Lock()
	defer x.mu.Unlock()
	e := x.e
	rp := &x.res[p]
	if rp.deliverSS == ss && rp.deliverRes != nil {
		return rp.deliverRes // duplicate barrier round (lost reply)
	}
	dp := &DeliverPart{Partition: p}
	if rp.executedSS != ss || rp.readySS != ss {
		return dp
	}
	for sp := range expected {
		if int64(len(frags[sp])) != expected[sp] {
			return dp
		}
	}
	var comb func(a, b value.Value) value.Value
	if combine {
		comb = e.cfg.Combiner
	}
	dp.Delivered, dp.Combined = e.inbox[p].build(frags, comb)
	for _, v := range rp.ids {
		e.lastActive[v] = int32(ss)
	}
	rp.executedSS = -1
	rp.readySS = ss + 1
	dp.OK = true
	dp.Dsts = slices.Clone(e.inbox[p].owners())
	rp.deliverSS, rp.deliverRes = ss, dp
	return dp
}

// Collect returns partition p's resident state entering superstep target —
// stride-order values plus the inbox — for master-side checkpoints and the
// final Values() read. An executed-but-unassembled superstep is rolled back
// first so the snapshot is exactly "entering readySS". OK=false when the
// resident state is at a different superstep (the master then re-hydrates
// by replay). Read-only apart from the rollback, so retransmits are safe.
func (x *Executor) Collect(target, p int) *DeliverPart {
	x.mu.Lock()
	defer x.mu.Unlock()
	e := x.e
	rp := &x.res[p]
	if rp.executedSS >= 0 && rp.executedSS == rp.readySS {
		x.rollback(rp)
	}
	dp := &DeliverPart{Partition: p}
	if rp.readySS != target {
		return dp
	}
	dp.OK = true
	dp.Values = e.stride(p)
	snap := e.inbox[p].clone()
	dp.Inbox = make([]InboxChunk, 0, len(snap.owners()))
	for _, v := range snap.owners() {
		dp.Inbox = append(dp.Inbox, InboxChunk{Dst: v, Msgs: snap.msgs(v)})
	}
	return dp
}

// buildExecRequest builds partition p's delta request for superstep ss: the
// worker holds the values and inbox resident, so only the active set and
// control metadata go over the wire. ids is not modified for the duration of
// the call (owner lists are only recycled at the next barrier, after every
// Exec of this superstep returned).
func (e *Engine) buildExecRequest(p, ss int, ids []VertexID) *ExecRequest {
	req := &ExecRequest{
		Superstep: ss,
		Partition: p,
		Fields:    e.fields,
		Combine:   e.sendComb != nil,
		Active:    ids,
		Agg:       maps.Clone(e.agg.current),
		// The transport turns LocalParts into the peer-mesh Route.
		LocalParts: make([]bool, e.nParts),
	}
	for dp := range req.LocalParts {
		req.LocalParts[dp] = e.localPinned[dp].Load()
	}
	req.TraceID, req.ParentSpan = e.spanIDs()
	return req
}

// seedRequest upgrades a delta request to a seed after a worker reported a
// resident-state miss: stride values, last-active marks, and the superstep's
// inbox. When the master's own arrays are authoritative for
// this superstep (run start, or right after a checkpoint collect) they are
// copied directly; otherwise the state is re-hydrated from the newest
// checkpoint plus a deterministic replay of the supersteps since.
func (e *Engine) seedRequest(req *ExecRequest) error {
	p, ss := req.Partition, req.Superstep
	n := e.g.NumVertices()
	req.AllActive = req.AllActive[:0]
	for v := p; v < n; v += e.nParts {
		// The master's last-active marks stay exact all run (the computed
		// sets always come back), so the seed takes them from here.
		req.AllActive = append(req.AllActive, e.lastActive[VertexID(v)])
	}
	req.Inbox = make([][]IncomingMessage, len(req.Active))
	inbox := e.inbox[p]
	if e.masterAuthSS == ss {
		req.AllValues = e.stride(p)
	} else {
		vals, snap, err := e.replayState(ss, p)
		if err != nil {
			return err
		}
		req.AllValues = vals
		inbox = snap
	}
	for i, v := range req.Active {
		req.Inbox[i] = inbox.msgs(v)
	}
	req.Mode = ModeSeed
	return nil
}

// applyExecResult installs a transport result into the partition's barrier
// scratch and its aggregator partials. The values stay on the worker: the
// master records the computed set (identical to the request's active set —
// every active vertex computes), the per-destination message counts, the
// records, and only the master-resident outbox columns. Partition-local, so
// safe from p's worker goroutine.
func (e *Engine) applyExecResult(p int, req *ExecRequest, res *ExecResult, out *partResult) {
	out.reset(e.nParts, false)
	if len(res.Spans) > 0 {
		e.cfg.Metrics.AddRemoteSpans(res.Spans)
	}
	if res.Crash != nil {
		out.crash = &CrashError{Vertex: res.Crash.Vertex, Superstep: res.Crash.Superstep, Err: res.Crash.Err()}
		return
	}
	out.computed = append(out.computed, req.Active...)
	out.dstCounts = append(out.dstCounts[:0], res.DstCounts...)
	out.residentRemote = true
	out.records = append(out.records, res.Records...)
	for dp := range res.Outbox {
		out.outbox[dp] = append(out.outbox[dp], res.Outbox[dp]...)
	}
	out.sent = res.Sent
	out.combinedSender = res.CombinedSender
	e.agg.applyPartial(p, res.Agg)
}

// transportRetryable classifies failed transport attempts for supervised
// retry: transport-layer failures and everything retryableCrash accepts
// (remote panics and injected faults arrive reconstructed with their
// sentinels intact) are worth re-executing; parent cancellation is not.
func transportRetryable(err error) bool {
	if errors.Is(err, context.Canceled) {
		return false
	}
	return errors.Is(err, ErrTransport) || retryableCrash(err)
}

// transportCompute runs partition p's superstep through the configured
// transport, with the same supervision wrapper the local path uses, so a
// retry (or the local fallback below) re-executes from the superstep barrier
// exactly like a supervised local re-execution. A transport with a worker pool (the TCP leg) fails a
// partition over to surviving workers internally, so an ErrTransport
// reaching this ladder means the pool is exhausted: when every supervised
// attempt still fails on a *transport* error — no worker can take the
// partition — it is pinned local for the rest of the run: the master
// executes it in-process (bit-identical result, same code) and sheds its
// provenance capture through the degraded-mode machinery, the same contract
// PR 3 applies to a partition whose capture keeps failing. A worker that
// later rejoins the pool serves other partitions; pinning is sticky by
// design (cheap, deterministic, and the gap accounting stays contiguous).
func (e *Engine) transportCompute(p, ss int, ids []VertexID) {
	start := time.Now()
	results := e.results
	req := e.buildExecRequest(p, ss, ids)
	attempt := func(actx context.Context) error {
		res, err := e.cfg.Transport.Exec(actx, req)
		if err != nil && errors.Is(err, ErrStateMiss) && req.Mode == ModeDelta {
			// The worker holds no resident state for this superstep (fresh
			// worker, failover target, or post-replay): upgrade the request
			// to a seed in place — retries then keep the seed — and re-send
			// it.
			m := e.cfg.Metrics
			m.Counter(obs.MetricNetStateReseeds).Add(1)
			m.Tracef(obs.Info, "transport", ss, "partition %d resident-state miss; re-seeding worker", p)
			if serr := e.seedRequest(req); serr != nil {
				return serr
			}
			res, err = e.cfg.Transport.Exec(actx, req)
		}
		if err != nil {
			return err
		}
		e.applyExecResult(p, req, res, &results[p])
		if c := results[p].crash; c != nil {
			return c
		}
		return nil
	}
	// A remote attempt leaves the master's values alone, so resetting the
	// partition's scratch and aggregator partials is the whole rollback.
	reset := func() {
		e.agg.resetPartition(p)
		results[p].reset(e.nParts, false)
	}
	var err error
	if e.sup != nil {
		err = e.sup.Run(e.runCtx, p, ss, attempt, reset, transportRetryable)
	} else if err = attempt(e.runCtx); err != nil && errors.Is(err, ErrTransport) && e.runCtx.Err() == nil {
		// Without supervision the transport's own per-message retries are
		// the only retry budget; give the attempt one clean re-execution
		// before declaring the partition unreachable.
		reset()
		err = attempt(e.runCtx)
	}
	if err != nil {
		// A failure that is not the program's is blamed on the partition's
		// first active vertex.
		culprit := VertexID(0)
		if len(ids) > 0 {
			culprit = ids[0]
		}
		switch {
		case errors.Is(err, ErrTransport) && e.runCtx.Err() == nil:
			m := e.cfg.Metrics
			m.Tracef(obs.Warn, "transport", ss,
				"partition %d unreachable (%v); pinning local and shedding its capture", p, err)
			m.Counter(obs.MetricNetLocalFallbacks).Add(1)
			e.localPinned[p].Store(true)
			e.cfg.Degrade.ShedNow(p, ss)
			reset()
			// The partition's state died with its workers: rebuild it
			// master-side from the last checkpoint plus replayed deltas
			// before executing locally, so the pinned run stays exact.
			if serr := e.seedLocalFromReplay(p, ss); serr != nil {
				results[p].crash = &CrashError{Vertex: culprit, Superstep: ss, Err: serr}
			} else if e.sup != nil {
				e.superviseCompute(p, ss, ids)
			} else {
				e.runPartition(e.runCtx, p, ss, e.fields, ids, &results[p])
			}
		case results[p].crash == nil:
			// Not a remote compute crash (those left their CrashError in the
			// scratch) and not eligible for local fallback — e.g. a transport
			// failure racing run cancellation. Clear any stale scratch and
			// surface the failure so the barrier aborts consistently instead
			// of delivering a partition that computed nothing.
			reset()
			results[p].crash = &CrashError{Vertex: culprit, Superstep: ss, Err: err}
		}
	}
	if req.TraceID != 0 {
		// The exchange umbrella span: this partition's whole transport
		// round for the superstep, including supervised retries and any
		// local fallback. Its SpanID is the ParentSpan the worker's child
		// spans and the TCP leg's rpc/backoff spans attached to.
		e.recordSpan(obs.SpanExchange, req.ParentSpan, ss, p, start, len(ids))
	}
	if e.durs != nil {
		e.durs[p] = time.Since(start)
	}
}

// spanIDs returns a request's trace ID and parent span ID, both zero unless
// spans are on.
func (e *Engine) spanIDs() (trace, parent uint64) {
	if m := e.cfg.Metrics; m.SpansEnabled() {
		return m.SpanTraceID(), m.NewSpanID()
	}
	return 0, 0
}

// aggregator helpers for the transport boundary ---------------------------

// setCurrent installs the master-supplied merged aggregator values on a
// worker-side engine.
func (a *aggregators) setCurrent(m map[string]float64) {
	cur := make(map[string]float64, len(m))
	for k, v := range m {
		cur[k] = v
	}
	a.current = cur
}

// partial extracts partition p's aggregator contributions in deterministic
// (name-sorted) order for the wire.
func (a *aggregators) partial(p int) []AggUpdate {
	m := a.parts[p]
	if len(m) == 0 {
		return nil
	}
	ups := make([]AggUpdate, 0, len(m))
	for name, c := range m {
		ups = append(ups, AggUpdate{Name: name, Op: c.op, Val: c.val, N: c.n})
	}
	sort.Slice(ups, func(i, j int) bool { return ups[i].Name < ups[j].Name })
	return ups
}

// applyPartial installs a remote partition's aggregator contributions on the
// master, bit-for-bit the cells local execution would have produced (the
// worker folded them with the same reduce order).
func (a *aggregators) applyPartial(p int, ups []AggUpdate) {
	if len(ups) == 0 {
		a.parts[p] = nil
		return
	}
	m := make(map[string]aggCell, len(ups))
	for _, u := range ups {
		m[u.Name] = aggCell{op: u.Op, val: u.Val, n: u.N}
	}
	a.parts[p] = m
}
