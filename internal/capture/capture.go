// Package capture turns the engine's transient provenance stream into a
// persisted provenance.Store according to a Policy — the paper's
// *customized capturing* (§3, §6.1). A Policy is either built directly or
// compiled from a declarative PQL capture query (Queries 2, 3, 11) via
// FromQuery.
package capture

import (
	"fmt"
	"sort"
	"sync"

	"ariadne/internal/engine"
	"ariadne/internal/fault"
	"ariadne/internal/graph"
	"ariadne/internal/obs"
	"ariadne/internal/pql"
	"ariadne/internal/pql/analysis"
	"ariadne/internal/provenance"
	"ariadne/internal/supervise"
	"ariadne/internal/value"
)

// Policy declares what goes into the captured provenance graph.
type Policy struct {
	// Values captures vertex-value tuples (value(x,d,i)).
	Values bool
	// Sends captures send-message edges with message values.
	Sends bool
	// Recvs captures receive-message edges with message values.
	Recvs bool
	// SendFlags captures only the fact that a vertex sent something
	// (prov_send(x,i), paper Query 11) without per-edge tuples.
	SendFlags bool
	// Emitted lists analytics-emitted tables to persist (e.g. prov_error);
	// nil persists none, ["*"] persists all.
	Emitted []string
	// TaintSource, when non-nil, restricts capture to the forward lineage
	// of the given vertex (paper Query 3): a vertex is captured only once
	// it is influenced — it is the source, or it received a message from an
	// already-tainted vertex.
	TaintSource *graph.VertexID
}

// FullPolicy captures the complete provenance graph (paper Query 2).
func FullPolicy() Policy {
	return Policy{Values: true, Sends: true, Recvs: true, Emitted: []string{"*"}}
}

// ForwardLineagePolicy captures the custom provenance sufficient for
// forward tracing from source (paper Query 3, Table 4): only the *values*
// of influenced vertices are persisted. The receive-message stream is
// consumed transiently to propagate the taint but never stored — that is
// what keeps the custom provenance below the input graph size in Table 4.
func ForwardLineagePolicy(source graph.VertexID) Policy {
	src := source
	return Policy{Values: true, TaintSource: &src}
}

// BackwardCustomPolicy captures the reduced provenance of paper Query 11:
// vertex values and send *flags*, relying on the static input edges instead
// of send-message edges (Query 12 then traces on prov_send + edge).
func BackwardCustomPolicy() Policy {
	return Policy{Values: true, SendFlags: true}
}

// Reads returns the record fields the policy reads: raw receives to store
// them or to propagate a forward-lineage taint, sends to store them, and
// emitted facts when any table is kept. Send flags read the record's
// always-present SentAny.
func (p Policy) Reads() engine.Fields {
	var f engine.Fields
	if p.Recvs || p.TaintSource != nil {
		f |= engine.FieldReceived
	}
	if p.Sends {
		f |= engine.FieldSent
	}
	if len(p.Emitted) > 0 {
		f |= engine.FieldEmitted
	}
	return f
}

// Observer captures provenance layers into a Store while the analytic runs.
type Observer struct {
	policy Policy
	store  *provenance.Store

	emitAll bool
	emitSet map[string]bool
	tainted map[graph.VertexID]bool
	metrics *obs.Metrics

	// Degraded-mode capture (partition supervision): inj guards each
	// partition's capture at fault.SiteCapture; deg tracks which
	// partitions have been shed after repeated failures. With deg nil a
	// capture failure aborts the run (the pre-supervision behavior).
	inj *fault.Injector
	deg *supervise.DegradeState

	// segs holds each partition's share of the layer being captured,
	// indexed by partition. The engine's partition count is not known up
	// front, so the slice grows under mu; a segment itself is only touched
	// by its partition's goroutine until the barrier.
	mu   sync.Mutex
	segs []*segment
	live []*provenance.LayerBuilder // the barrier's segments to stitch, reused

	// derives is the superstep whose layer derives its receive payloads
	// from the previous layer's sends (LayerBuilder.DeriveRecvValues), or
	// -1; set at each barrier for the next superstep (see deriveAfter).
	derives int
}

// segment is one partition's capture of one superstep: its records encoded
// into a LayerBuilder (reused, so each layer starts at the last one's block
// sizes) with the tallies and new taints the barrier folds in.
type segment struct {
	b        *provenance.LayerBuilder
	observed bool // the partition handed over records since the last barrier
	tuples   tally
	emitted  map[string]int64
	taints   []graph.VertexID
}

// tally counts the captured tuples of the built-in tables.
type tally struct{ values, sends, flags, recvs int64 }

// NewObserver creates a capture observer writing into store.
func NewObserver(policy Policy, store *provenance.Store) *Observer {
	o := &Observer{policy: policy, store: store, derives: -1}
	o.emitSet = map[string]bool{}
	for _, t := range policy.Emitted {
		if t == "*" {
			o.emitAll = true
			continue
		}
		o.emitSet[t] = true
	}
	if policy.TaintSource != nil {
		o.tainted = map[graph.VertexID]bool{*policy.TaintSource: true}
	}
	return o
}

// Store returns the store being written.
func (o *Observer) Store() *provenance.Store { return o.store }

// SetMetrics attaches a metrics registry: each superstep's appended tuples
// are counted per table (the paper's capture-cost curves, §6.1, Tables
// 3-4). nil (the default) disables instrumentation.
func (o *Observer) SetMetrics(m *obs.Metrics) { o.metrics = m }

// SetDegradation arms graceful degradation: inj is consulted per partition
// at fault.SiteCapture each superstep, and after repeated failures deg
// sheds the partition's capture — the analytic continues bit-identically
// (Theorem 5.4 non-interference) while the shed range is recorded as a
// capture gap. deg nil keeps failures fatal; inj may be nil (degradation
// then only triggers on real store failures such as spill errors or an
// exhausted memory budget).
func (o *Observer) SetDegradation(deg *supervise.DegradeState, inj *fault.Injector) {
	o.deg = deg
	o.inj = inj
}

// Degraded returns the degradation state (nil unless armed).
func (o *Observer) Degraded() *supervise.DegradeState { return o.deg }

// ObservePartition implements engine.Observer: it runs the capture policy
// over partition p's records on p's own goroutine, encoding them into the
// partition's segment of the layer. The forward-lineage filter reads the
// taint set frozen at the last barrier; the taints it finds join the set at
// this superstep's barrier.
func (o *Observer) ObservePartition(p, ss int, recs []engine.VertexRecord) {
	seg := o.segment(p)
	b := seg.b
	b.Reset(ss)
	if ss == o.derives {
		b.DeriveRecvValues()
	}
	seg.observed = len(recs) > 0
	seg.tuples = tally{}
	clear(seg.emitted)
	seg.taints = seg.taints[:0]
	for i := range recs {
		rec := &recs[i]
		if o.tainted != nil && !o.taintedNow(rec, &seg.taints) {
			continue
		}
		var sent []engine.SentMessage
		var received []engine.IncomingMessage
		if o.policy.Sends {
			sent = rec.Sent
		}
		if o.policy.Recvs {
			received = rec.Received
		}
		facts := 0
		for _, f := range rec.Emitted {
			if o.keeps(f.Table) {
				facts++
			}
		}
		b.Begin(rec.ID, int32(rec.PrevActive), len(sent), len(received), facts)
		if o.policy.Values {
			b.Value(rec.NewValue)
			seg.tuples.values++
		}
		if o.policy.SendFlags && rec.SentAny {
			b.SentAny()
			seg.tuples.flags++
		}
		for _, m := range sent {
			b.Send(m.Dst, m.Val)
		}
		for _, m := range received {
			b.Recv(m.Src, m.Val)
		}
		seg.tuples.sends += int64(len(sent))
		seg.tuples.recvs += int64(len(received))
		for _, f := range rec.Emitted {
			if !o.keeps(f.Table) {
				continue
			}
			b.Fact(f.Table, f.Args)
			if o.metrics != nil {
				if seg.emitted == nil {
					seg.emitted = map[string]int64{}
				}
				seg.emitted[f.Table]++
			}
		}
	}
}

// segment returns partition p's segment, creating it on first use.
func (o *Observer) segment(p int) *segment {
	o.mu.Lock()
	defer o.mu.Unlock()
	for len(o.segs) <= p {
		o.segs = append(o.segs, &segment{b: provenance.NewLayerBuilder(0)})
	}
	return o.segs[p]
}

// Reads implements engine.Observer: the policy's fields.
func (o *Observer) Reads() engine.Fields { return o.policy.Reads() }

// ObserveSuperstep implements engine.Observer: the partitions have encoded
// their records, so the barrier only stitches their segments into the
// layer's image and hands it to the store. When degradation is armed, each
// partition's capture is health-checked first: segments of failing or
// already-shed partitions are left out of the layer and recorded as capture
// gaps, and whole-layer store failures (spill errors, exhausted memory
// budget) degrade to an empty placeholder layer instead of aborting the run.
func (o *Observer) ObserveSuperstep(v *engine.SuperstepView) error {
	ss := v.Superstep
	o.mu.Lock()
	segs := o.segs
	o.mu.Unlock()
	var seen []int
	for p, seg := range segs {
		if seg.observed {
			seen = append(seen, p)
			seg.observed = false
		}
	}
	skip, err := o.partitionHealth(ss, seen)
	if err != nil {
		return err
	}
	live := o.live[:0]
	var n tally
	for _, p := range seen {
		seg := segs[p]
		if skip[p] {
			continue
		}
		live = append(live, seg.b)
		n.values += seg.tuples.values
		n.sends += seg.tuples.sends
		n.flags += seg.tuples.flags
		n.recvs += seg.tuples.recvs
		for t, c := range seg.emitted {
			o.metrics.AddCaptureTuples(t, c)
		}
		// Taints become visible only now that every partition has captured
		// the layer, so that same-superstep message order cannot matter (BSP
		// semantics: messages received this superstep were sent last
		// superstep).
		for _, t := range seg.taints {
			o.tainted[t] = true
		}
	}
	o.live = live
	o.metrics.AddCaptureTuples("value", n.values)
	o.metrics.AddCaptureTuples("send_message", n.sends)
	o.metrics.AddCaptureTuples("prov_send", n.flags)
	o.metrics.AddCaptureTuples("receive_message", n.recvs)
	err = o.store.Append(ss, live...)
	if err != nil {
		err = o.degradeLayer(ss, err)
	}
	o.deriveAfter(ss)
	return err
}

// deriveAfter decides whether the layer after superstep ss derives its
// receive payloads: it does when the policy stores every send and every
// receive, and layer ss is in the store whole — no capture gap, no gap
// layer — so it holds every message the next superstep receives.
func (o *Observer) deriveAfter(ss int) {
	o.derives = -1
	if o.policy.Sends && o.policy.Recvs && o.policy.TaintSource == nil &&
		ss >= 0 && o.store.NumLayers() == ss+1 && !o.store.Gapped(ss) {
		o.derives = ss + 1
	}
}

// keeps reports whether the policy persists emitted facts of table.
func (o *Observer) keeps(table string) bool { return o.emitAll || o.emitSet[table] }

// partitionHealth runs the per-partition capture health check over the
// partitions that captured records this superstep (seen, ascending) and
// returns the set whose segments must be dropped (nil when nothing is
// dropped). Already-shed partitions extend their gap; a fresh fault-site
// failure records a gap, counts toward the partition's consecutive-failure
// threshold, and — without degradation armed — aborts the run.
func (o *Observer) partitionHealth(ss int, parts []int) (map[int]bool, error) {
	if o.inj == nil && o.deg == nil {
		return nil, nil
	}
	var skip map[int]bool
	drop := func(p int) {
		if skip == nil {
			skip = map[int]bool{}
		}
		skip[p] = true
		o.store.AddGap(ss, p, "capture shed")
		o.metrics.Counter(obs.MetricCaptureGaps).Add(1)
	}
	if o.deg.Shed(-1) {
		skip = make(map[int]bool, len(parts))
		for _, p := range parts {
			skip[p] = true
		}
		o.store.AddGap(ss, -1, "capture shed")
		o.metrics.Counter(obs.MetricCaptureGaps).Add(1)
		return skip, nil
	}
	for _, p := range parts {
		if o.deg.Shed(p) {
			drop(p)
			continue
		}
		err := o.inj.Hit(fault.SiteCapture, ss, p, -1)
		if err == nil {
			o.deg.NoteSuccess(p)
			continue
		}
		if o.deg == nil {
			return nil, fmt.Errorf("capture: partition %d capture failed at superstep %d: %w", p, ss, err)
		}
		drop(p)
		o.metrics.Tracef(obs.Warn, "capture", ss, "partition %d capture failed: %v", p, err)
		if o.deg.NoteFailure(p, ss) {
			o.metrics.Tracef(obs.Warn, "capture", ss,
				"partition %d capture shed after repeated failures (degraded mode)", p)
		}
	}
	if o.deg != nil {
		o.metrics.Gauge(obs.MetricCaptureShed).Set(int64(len(o.deg.ShedPartitions())))
	}
	return skip, nil
}

// degradeLayer handles a whole-layer store failure (spill error after its
// retries, exhausted memory budget): with degradation armed the partial
// layer is dropped, an empty placeholder keeps superstep indexing intact,
// and the failure counts toward shedding capture globally. Without
// degradation the error propagates and aborts the run, as before.
func (o *Observer) degradeLayer(ss int, err error) error {
	if o.deg == nil {
		return err
	}
	if o.store.NumLayers() == ss+1 {
		if terr := o.store.TruncateLayers(ss); terr != nil {
			return err
		}
	}
	if o.store.NumLayers() != ss {
		return err
	}
	if gerr := o.store.AppendGapLayer(ss, "layer append failed: "+err.Error()); gerr != nil {
		return gerr
	}
	o.metrics.Counter(obs.MetricCaptureGaps).Add(1)
	o.metrics.Tracef(obs.Warn, "capture", ss, "layer shed after store failure (degraded mode): %v", err)
	if o.deg.NoteFailure(-1, ss) {
		o.metrics.Tracef(obs.Warn, "capture", ss, "capture shed globally after repeated store failures")
	}
	o.metrics.Gauge(obs.MetricCaptureShed).Set(int64(len(o.deg.ShedPartitions())))
	return nil
}

// taintedNow decides whether rec belongs to the forward lineage: it is
// already tainted, or it received a message from a tainted sender this
// superstep (the sender was tainted when it sent, i.e. before this layer).
func (o *Observer) taintedNow(rec *engine.VertexRecord, newTaints *[]graph.VertexID) bool {
	if o.tainted[rec.ID] {
		return true
	}
	for _, m := range rec.Received {
		if o.tainted[m.Src] {
			*newTaints = append(*newTaints, rec.ID)
			return true
		}
	}
	return false
}

// Finish implements engine.Observer: the run is over, so drain the async
// spill pipeline. A write that exhausted its retries surfaces here (the
// last chance to report it in-band); the failed layer is resident again,
// so in-process querying still sees complete provenance.
func (o *Observer) Finish(int) error {
	if err := o.store.Sync(); err != nil {
		return fmt.Errorf("capture: draining spill pipeline at finish: %w", err)
	}
	return nil
}

// MarshalCheckpoint implements engine.Checkpointable: the observer's
// recoverable state is its provenance-store watermark (how many layers have
// been durably appended) plus the forward-lineage taint set, and — since
// checkpoint v3 — the capture-gap records and degradation state of a
// degraded run, so a resumed run stays degraded instead of re-attempting
// capture it already shed. The layers themselves are not duplicated into
// the checkpoint — they either remain in the same process's store
// (in-process recovery) or on disk under SpillAll (cross-process recovery
// via Store.Reattach).
func (o *Observer) MarshalCheckpoint() ([]byte, error) {
	// Quiesce the async spill pipeline first: the watermark below promises
	// that this many layers are durable, so every queued layer write must
	// have landed (and succeeded) before we count them.
	if err := o.store.Sync(); err != nil {
		return nil, fmt.Errorf("capture: syncing spill pipeline before checkpoint: %w", err)
	}
	w := value.NewBlob()
	w.Uvarint(uint64(o.store.NumLayers()))
	w.Bool(o.tainted != nil)
	if o.tainted != nil {
		ids := make([]graph.VertexID, 0, len(o.tainted))
		for v := range o.tainted {
			ids = append(ids, v)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		w.Uvarint(uint64(len(ids)))
		for _, v := range ids {
			w.Uvarint(uint64(v))
		}
	}
	gaps := o.store.Gaps()
	w.Uvarint(uint64(len(gaps)))
	for _, g := range gaps {
		w.Int(int64(g.Partition))
		w.Int(int64(g.From))
		w.Int(int64(g.To))
		w.String(g.Reason)
	}
	w.Bool(o.deg != nil)
	if o.deg != nil {
		shed, consec := o.deg.Snapshot()
		encodeIntMap(w, shed)
		encodeIntMap(w, consec)
	}
	return w.Bytes(), nil
}

func encodeIntMap(w *value.Blob, m map[int]int) {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	w.Uvarint(uint64(len(keys)))
	for _, k := range keys {
		w.Int(int64(k))
		w.Int(int64(m[k]))
	}
}

func decodeIntMap(r *value.BlobReader) map[int]int {
	n := r.Count()
	m := make(map[int]int, n)
	for i := 0; i < n && r.Err() == nil; i++ {
		k := int(r.Int())
		m[k] = int(r.Int())
	}
	return m
}

// UnmarshalCheckpoint implements engine.Checkpointable: it resets the taint
// set and aligns the store with the saved watermark — layers a crashed run
// appended past the checkpoint are discarded so the resumed run re-appends
// them, and an empty store recovering from a spilled run reattaches its
// on-disk layers.
func (o *Observer) UnmarshalCheckpoint(data []byte) error {
	r := value.NewBlobReader(data)
	watermark := r.Count()
	hasTaint := r.Bool()
	var ids []graph.VertexID
	if hasTaint {
		n := r.Count()
		for i := 0; i < n && r.Err() == nil; i++ {
			ids = append(ids, graph.VertexID(r.Uvarint()))
		}
	}
	nGaps := r.Count()
	gaps := make([]provenance.CaptureGap, 0, nGaps)
	for i := 0; i < nGaps && r.Err() == nil; i++ {
		gaps = append(gaps, provenance.CaptureGap{
			Partition: int(r.Int()),
			From:      int(r.Int()),
			To:        int(r.Int()),
			Reason:    r.String(),
		})
	}
	var shed, consec map[int]int
	if r.Bool() {
		shed = decodeIntMap(r)
		consec = decodeIntMap(r)
	}
	if err := r.Err(); err != nil {
		return fmt.Errorf("capture: corrupt checkpoint state: %w", err)
	}
	// Gaps restore before the watermark truncation below so ranges past
	// the resume point are trimmed along with their layers; degradation
	// state is only restored when this run armed it.
	o.store.RestoreGaps(gaps)
	o.deg.Restore(shed, consec)
	if hasTaint {
		o.tainted = make(map[graph.VertexID]bool, len(ids))
		for _, v := range ids {
			o.tainted[v] = true
		}
	} else {
		o.tainted = nil
	}
	switch {
	case o.store.NumLayers() >= watermark:
		if err := o.store.TruncateLayers(watermark); err != nil {
			return err
		}
	case o.store.NumLayers() == 0 && watermark > 0:
		if err := o.store.Reattach(watermark); err != nil {
			return fmt.Errorf("capture: store behind checkpoint watermark %d and reattach failed (capture recovery needs the crashed run's store or SpillAll files): %w", watermark, err)
		}
	default:
		return fmt.Errorf("capture: store has %d layers, checkpoint watermark is %d", o.store.NumLayers(), watermark)
	}
	// The resumed run's first layer derives from the last one kept, which
	// may be a reattached file.
	o.deriveAfter(watermark - 1)
	return nil
}

// FromQuery compiles a PQL *capture query* into a Policy. Each rule's body
// names the provenance stream it draws from and the head schema decides how
// much of it to persist (the paper's customized capturing, §3):
//
//   - a rule over value(...) persists vertex values (Queries 2, 3, 11);
//   - a rule over send_message(...) whose head keeps the payload persists
//     full send-message tuples (Query 2); a head that keeps neither peer nor
//     payload persists only the send *flag* (Query 11's prov-send);
//   - a rule over receive_message(...) persists receive-message tuples;
//   - a recursive forward rule with a $source parameter adds
//     forward-lineage tainting (Query 3): only influenced vertices are
//     captured.
//
// A policy keeps or drops whole streams and only the lineage taint narrows
// one, so outside that shape a comparison, a negated literal or a join with
// any table but value, send_message, receive_message and superstep is an
// error rather than a filter the policy would silently ignore. So is a head
// that keeps a message's peer but not its payload, which no policy stores,
// and a query whose policy would store nothing.
func FromQuery(q *analysis.Query, env *analysis.Env) (Policy, error) {
	var p Policy
	recognized := false
	lineage := q.Recursive && q.Class == analysis.Forward
	for _, r := range q.Rules {
		// A stream is *persisted* only when its payload variable flows into
		// the rule head; a message predicate used purely as a guard (like
		// Query 3's receive_message, which only drives the lineage taint)
		// is consumed transiently and never stored.
		headVars := map[string]bool{}
		var hv []*pql.Var
		for _, a := range r.Head.Args {
			hv = pql.Vars(a, hv)
		}
		for _, v := range hv {
			headVars[v.Name] = true
		}
		inHead := func(a *pql.Atom, arg int) bool {
			if arg >= len(a.Args) {
				return false
			}
			if v, ok := a.Args[arg].(*pql.Var); ok && !v.Wildcard() {
				return headVars[v.Name]
			}
			return false
		}
		for _, lit := range r.Body {
			pl, ok := lit.(*pql.PredLit)
			if !lineage {
				if c, cmp := lit.(*pql.CmpLit); cmp {
					return Policy{}, fmt.Errorf("capture: %s: comparison %s cannot narrow what a capture query stores", c.Pos, c)
				}
				if pl.Negated {
					return Policy{}, fmt.Errorf("capture: %s: negated literal %s cannot narrow what a capture query stores", pl.Atom.Pos, pl)
				}
			}
			if !ok || pl.Negated {
				continue
			}
			switch pl.Atom.Pred {
			case "value", "send_message", "receive_message", "superstep":
			default:
				if !lineage {
					return Policy{}, fmt.Errorf("capture: %s: %s joins a table no capture policy can filter by (a capture query reads value, send_message, receive_message and superstep only)", pl.Atom.Pos, pl.Atom)
				}
			}
			if msg := pl.Atom.Pred; (msg == "send_message" || msg == "receive_message") && inHead(pl.Atom, 1) && !inHead(pl.Atom, 2) {
				// A message is stored whole or as a send flag: no policy keeps
				// the peer without the payload.
				return Policy{}, fmt.Errorf("capture: %s: %s keeps the peer %s but not the payload %s, which no capture policy stores",
					pl.Atom.Pos, pl.Atom, pl.Atom.Args[1], pl.Atom.Args[2])
			}
			switch pl.Atom.Pred {
			case "value":
				if inHead(pl.Atom, 1) { // value(X, D, I): payload D
					p.Values = true
				}
				recognized = true
			case "send_message":
				if inHead(pl.Atom, 2) { // send_message(X, Y, M, I): payload M
					p.Sends = true
				} else {
					// The head records that a message was sent, without its
					// peer or value: the send *flag* suffices (Query 11).
					p.SendFlags = true
				}
				recognized = true
			case "receive_message":
				if inHead(pl.Atom, 2) {
					p.Recvs = true
				}
				recognized = true
			}
		}
	}
	if q.Recursive && q.Class == analysis.Forward {
		src, ok := env.Params["source"]
		if !ok {
			return Policy{}, fmt.Errorf("capture: forward-lineage capture query needs a $source parameter")
		}
		if src.Kind() != value.Int {
			return Policy{}, fmt.Errorf("capture: $source must be a vertex id, got %s", src.Kind())
		}
		v := graph.VertexID(src.Int())
		p.TaintSource = &v
	}
	if !recognized {
		return Policy{}, fmt.Errorf("capture: query does not look like a capture query (no rule draws from a provenance stream)")
	}
	if !lineage && !p.Values && !p.Sends && !p.Recvs && !p.SendFlags {
		return Policy{}, fmt.Errorf("capture: %s: the query stores nothing: no rule head keeps a value, a message payload or a send flag", q.Rules[0].Pos)
	}
	return p, nil
}
