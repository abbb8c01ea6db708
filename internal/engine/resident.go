// Worker-resident state runtime: the master-side half of the delta exchange
// protocol. With a Transport, partition state lives on the workers across
// supersteps — the master ships only dirty-vertex deltas and control
// metadata, workers route outbox fragments directly to the peers that own
// the destination partitions, and the delivery barrier becomes one Deliver
// round that returns per-partition accounting and next-active sets instead
// of the messages themselves.
//
// Failure handling composes with the PR 8 recovery ladder. Worker state is
// soft: everything a worker holds is a deterministic function of the last
// checkpoint (or the initial values) and the supersteps since. When a worker
// dies, the failover target answers the next delta request with a state
// miss and gets a full seed; when a delivery round is lost with a worker,
// the master re-hydrates the partition from the newest checkpoint blob
// (existing codec, via restoreCore) plus a deterministic replay of the
// supersteps since, on a private scratch engine. Replayed state is
// bit-identical to what the worker held — same program, graph, combiner,
// and association order — so runs keep their bit-identity guarantee across
// kills, reassignments, and pin-local fallbacks, with capture fully
// preserved (records always travel in exec replies).
package engine

import (
	"errors"
	"fmt"

	"ariadne/internal/obs"
	"ariadne/internal/value"
)

// residentDeliver is the delivery barrier of a resident-state superstep.
// Destination partitions fall into three classes: master-resident (pinned
// before this superstep) columns fold locally via buildInbox, exactly as
// the master barrier would; worker-resident partitions fold on their
// owning workers through one Deliver round (the master contributes only the
// columns of its own pinned partitions); and partitions that lost their
// state mid-superstep — pinned during compute, or whose worker died before
// the round — are re-hydrated by replay. Accounting (delivered, combined,
// max shard) is identical in all three classes, so the run's stats stay
// bit-identical to a local execution.
func (e *Engine) residentDeliver(ss int) (delivered, combined, maxShard int64, err error) {
	results := e.results
	account := func(d, c int64) {
		delivered += d
		combined += c
		maxShard = max(maxShard, d)
	}
	// lost collects the partitions to re-hydrate: pinned mid-superstep (the
	// remote fragments for them were routed toward a worker that no longer
	// owns them, or died), or whose Deliver round failed.
	var workerParts, lost []int
	for dp := 0; dp < e.nParts; dp++ {
		switch {
		case !e.localPinned[dp].Load():
			workerParts = append(workerParts, dp)
		case e.pinnedAtSS[dp] == ss:
			lost = append(lost, dp)
		default:
			account(e.buildInbox(dp))
		}
	}
	if len(workerParts) > 0 {
		dreq := &DeliverRequest{
			Superstep:   ss,
			Combine:     e.sendComb != nil,
			Parts:       workerParts,
			Expected:    make([][]int64, len(workerParts)),
			MasterFrags: make([][][]OutMessage, len(workerParts)),
		}
		for i, dp := range workerParts {
			exp := make([]int64, e.nParts)
			mf := make([][]OutMessage, e.nParts)
			for sp := range results {
				// Forward any complete column the master holds: pinned
				// sources (workers never saw these fragments) and resident
				// sources whose peer send failed — the worker keeps the
				// column in its exec reply precisely so the master can relay
				// it here instead of forcing a replay.
				col := results[sp].outbox[dp]
				if exp[sp] = results[sp].sentTo(dp); exp[sp] > 0 && int64(len(col)) == exp[sp] {
					mf[sp] = append([]OutMessage(nil), col...)
				}
			}
			dreq.Expected[i] = exp
			dreq.MasterFrags[i] = mf
		}
		dreq.TraceID, dreq.ParentSpan = e.spanIDs()
		dres, derr := e.cfg.Transport.Deliver(e.runCtx, dreq)
		for i, dp := range workerParts {
			if derr != nil || dres == nil || i >= len(dres.Parts) || !dres.Parts[i].OK {
				lost = append(lost, dp)
				continue
			}
			part := &dres.Parts[i]
			account(part.Delivered, part.Combined)
			e.residentActive[dp] = part.Dsts
		}
	}
	for _, dp := range lost {
		d, c, rerr := e.replayDeliver(ss, dp)
		if rerr != nil {
			return 0, 0, 0, rerr
		}
		account(d, c)
	}
	return delivered, combined, maxShard, nil
}

// syncMaster makes the master's arrays (values and inboxes) hold the state
// entering superstep target, for checkpoints and the final Values() read.
// Without a transport they always do. With one, every worker-resident
// partition's state is pulled back from its worker, and partitions no worker
// can serve are re-hydrated by replay. Afterwards the master's arrays are
// authoritative for target, which also makes subsequent seeds cheap.
func (e *Engine) syncMaster(target int) error {
	if e.cfg.Transport == nil || e.masterAuthSS == target {
		return nil // arrays already hold this exact frontier
	}
	var parts []int
	for p := 0; p < e.nParts; p++ {
		if !e.localPinned[p].Load() {
			parts = append(parts, p)
		}
	}
	if len(parts) > 0 {
		req := &DeliverRequest{Superstep: target, CollectOnly: true, Parts: parts}
		req.TraceID, req.ParentSpan = e.spanIDs()
		res, err := e.cfg.Transport.Deliver(e.runCtx, req)
		for i, p := range parts {
			if err == nil && res != nil && i < len(res.Parts) && res.Parts[i].OK &&
				len(res.Parts[i].Values) == e.strideLen(p) {
				part := &res.Parts[i]
				e.setStride(p, part.Values)
				ids := make([]VertexID, len(part.Inbox))
				lists := make([][]IncomingMessage, len(part.Inbox))
				for j, en := range part.Inbox {
					ids[j], lists[j] = en.Dst, en.Msgs
				}
				e.inbox[p].install(ids, lists)
				continue
			}
			vals, inbox, rerr := e.replayState(target, p)
			if rerr != nil {
				return fmt.Errorf("engine: collecting partition %d at superstep %d: %w", p, target, rerr)
			}
			e.setStride(p, vals)
			e.inbox[p] = inbox
		}
	}
	e.masterAuthSS = target
	return nil
}

// setStride installs partition p's vertex values, given in stride order
// (vertex p, p+nParts, ...).
func (e *Engine) setStride(p int, vals []value.Value) {
	j := 0
	for v := p; v < e.g.NumVertices(); v += e.nParts {
		e.values[VertexID(v)] = vals[j]
		j++
	}
}

// stride returns a copy of partition p's vertex values in stride order.
func (e *Engine) stride(p int) []value.Value {
	vals := make([]value.Value, 0, e.strideLen(p))
	for v := p; v < e.g.NumVertices(); v += e.nParts {
		vals = append(vals, e.values[v])
	}
	return vals
}

// strideLen is the number of vertices partition p owns.
func (e *Engine) strideLen(p int) int {
	n := e.g.NumVertices()
	return (n - p + e.nParts - 1) / e.nParts
}

// seedLocalFromReplay installs partition p's exact state entering superstep
// ss into the master's arrays before a pin-local fallback executes it
// in-process: stride values and the superstep's inbox, from the replay
// engine (the master's last-active marks are already exact). Also records
// the mid-superstep pin so this superstep's delivery re-hydrates the
// partition's incoming fragments, which died with the workers.
func (e *Engine) seedLocalFromReplay(p, ss int) error {
	e.pinnedAtSS[p] = ss
	if e.masterAuthSS == ss {
		return nil // the arrays already hold this partition's exact state
	}
	vals, inbox, err := e.replayState(ss, p)
	if err != nil {
		return err
	}
	e.setStride(p, vals)
	e.inbox[p] = inbox
	return nil
}

// replayDeliver recovers destination partition dp's delivery outcome for
// superstep ss after its fragments were lost (worker death, or a pin-local
// fallback mid-superstep): the replay engine advances through ss, its inbox
// for dp is the exact fold the worker would have produced, and accounting
// follows from the messages sent to dp (delivered + combined).
// For a pinned partition the inbox installs master-side; for a still-remote
// one only the next-active set is recorded — the worker re-seeds on its
// next state miss from the same replay.
func (e *Engine) replayDeliver(ss, dp int) (delivered, combined int64, err error) {
	e.cfg.Metrics.Tracef(obs.Warn, "transport", ss,
		"partition %d delivery lost with its worker; re-hydrating from checkpoint + replay", dp)
	_, inbox, err := e.replayState(ss+1, dp)
	if err != nil {
		return 0, 0, err
	}
	delivered = inbox.size()
	for sp := range e.results {
		combined += e.results[sp].sentTo(dp)
	}
	combined -= delivered
	if e.localPinned[dp].Load() {
		e.inbox[dp] = inbox
	} else {
		e.residentActive[dp] = inbox.owners()
	}
	return delivered, combined, nil
}

// replayState returns partition p's exact state entering superstep target —
// stride-order values and a private copy of its inbox — from the replay
// engine, advancing it as needed. Safe from concurrent partition
// goroutines.
func (e *Engine) replayState(target, p int) ([]value.Value, *inbox, error) {
	e.replayMu.Lock()
	defer e.replayMu.Unlock()
	s, err := e.rehydrate(target)
	if err != nil {
		return nil, nil, err
	}
	return s.stride(p), s.inbox[p].clone(), nil
}

// rehydrate advances the private replay engine to "entering superstep
// target", building it on first use: seeded from the newest readable
// checkpoint at or before target when checkpointing is configured (the
// existing blob codec, minus observer state), else replayed from superstep
// 0. The scratch engine runs the same graph, program, partition count and
// effective combiner as the live run — and no transport, observers, faults,
// or supervision — so each superstep it replays is bit-identical to what the
// lost worker computed. Caller holds replayMu.
func (e *Engine) rehydrate(target int) (*Engine, error) {
	if e.replay != nil && e.replaySS > target {
		e.replay = nil // target rewound past the scratch frontier; rebuild
	}
	if e.replay == nil {
		scratch, err := New(e.g, e.prog, Config{
			Partitions: e.nParts,
			Combiner:   e.sendComb,
		})
		if err != nil {
			return nil, fmt.Errorf("engine: building replay engine: %w", err)
		}
		e.replaySS = 0
		if ck := e.cfg.Checkpoint; ck != nil && ck.Dir != "" {
			cp, err := newestCheckpoint(ck.Dir, func(cp *checkpointData) error {
				if cp.resumeSS > target {
					return errors.New("engine: checkpoint is past the replay target")
				}
				return scratch.restoreCore(cp)
			})
			if err == nil {
				e.replaySS = cp.resumeSS
			}
		}
		e.replay = scratch
	}
	if e.replaySS < target {
		s := e.replay
		s.cfg.MaxSupersteps = target
		s.startSS = e.replaySS
		if _, err := s.Run(); err != nil {
			e.replay = nil
			return nil, fmt.Errorf("engine: re-hydration replay to superstep %d: %w", target, err)
		}
		e.replaySS = target
	}
	return e.replay, nil
}
