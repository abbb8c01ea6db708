// Worker-pool failover: per-peer health state and the partition->worker
// assignment table the master rewrites mid-run.
//
// Every peer carries a circuit-breaker state machine fed by exchange
// outcomes, heartbeat liveness, and drain notifications:
//
//	healthy --failed attempt--> suspect --budget exhausted / missed
//	heartbeats--> dead --fresh handshake--> healthy (a "rejoin")
//
// plus draining, entered when the worker announces a graceful shutdown
// (frameDrain) — not routable, but not an error either. healthy and suspect
// peers are routable; dead and draining peers are skipped by routing and
// re-probed at most once per superstep (and by the heartbeat redial), so a
// restarted worker is re-admitted within a superstep of coming back.
//
// Exec routes a partition to its assigned peer; when that peer is not
// routable — or exhausts its retransmit budget — the partition *fails over*:
// the assignment table is rewritten to a surviving peer and the request
// (same seq) is re-sent there. The survivor holds no state for the
// partition, answers a state miss, and the engine re-seeds it from its own
// arrays or from checkpoint + replay, so failover loses neither results nor
// provenance capture. Only when every peer has been tried does Exec return
// ErrTransport, which is what routes the engine into its pin-local +
// capture-shed ladder.
package transport

import (
	"time"

	"ariadne/internal/engine"
	"ariadne/internal/obs"
)

// workerState is the health of one peer in the pool.
type workerState int

const (
	stateHealthy workerState = iota
	stateSuspect
	stateDead
	stateDraining
)

func (s workerState) String() string {
	switch s {
	case stateHealthy:
		return "healthy"
	case stateSuspect:
		return "suspect"
	case stateDead:
		return "dead"
	case stateDraining:
		return "draining"
	}
	return "unknown"
}

// routable reports whether the peer should receive new exchanges: healthy or
// suspect (a suspect peer is still the fastest path if its next attempt
// lands — failover waits for the budget, not the first hiccup).
func (p *peer) routable() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.state == stateHealthy || p.state == stateSuspect
}

// noteFailure records one failed exchange attempt: healthy -> suspect.
// Escalation to dead happens only when the whole retransmit budget is gone
// (markDead), so a single lost frame never triggers a failover.
func (p *peer) noteFailure() {
	p.mu.Lock()
	if p.state == stateHealthy {
		p.state = stateSuspect
	}
	p.fails++
	p.mu.Unlock()
}

// noteSuccess clears the breaker: any state -> healthy. A success on a peer
// the pool had written off (possible when a stale "dead" verdict raced a
// recovery) restores it without ceremony.
func (p *peer) noteSuccess() {
	p.mu.Lock()
	p.state = stateHealthy
	p.fails = 0
	p.mu.Unlock()
}

// markDead declares the peer dead (reason is for the trace). Only healthy
// and suspect peers transition — a draining peer already deregistered
// voluntarily and a dead one is dead — so each death is counted once. The
// connection is torn down with the verdict: pending exchanges fail fast
// into their failover path, and the only way back into the pool is a fresh
// dial and fingerprint handshake (ensure), which is what counts a rejoin.
func (p *peer) markDead(reason string) {
	p.mu.Lock()
	if p.state == stateDead || p.state == stateDraining {
		p.mu.Unlock()
		return
	}
	p.state = stateDead
	p.mu.Unlock()
	m := p.t.cfg.Metrics
	m.Counter(obs.MetricFailoverDeaths).Add(1)
	m.Tracef(obs.Warn, "transport", -1, "peer %s declared dead: %s", p.addr, reason)
	p.teardownAny()
}

// markDraining handles a drain notification: the worker finished its
// in-flight work and is deregistering, so stop routing to it without
// charging a failure.
func (p *peer) markDraining() {
	p.mu.Lock()
	if p.state == stateDraining {
		p.mu.Unlock()
		return
	}
	p.state = stateDraining
	p.mu.Unlock()
	m := p.t.cfg.Metrics
	m.Counter(obs.MetricFailoverDrains).Add(1)
	m.Tracef(obs.Info, "transport", -1, "peer %s draining; routing its partitions elsewhere", p.addr)
}

// assigned returns the peer index currently serving partition part. The
// table starts at the static part % len(peers) rule and is rewritten by
// reassign on failover.
func (t *TCP) assigned(part int) int {
	t.amu.Lock()
	pi, ok := t.assign[part]
	t.amu.Unlock()
	if !ok {
		pi = part % len(t.peers)
	}
	return pi
}

// reassign rewrites the assignment table after a failover and records it:
// counter, trace line, and (when the request is traced) a failover marker
// span under the partition's exchange span.
func (t *TCP) reassign(req *engine.ExecRequest, from, to int) {
	t.amu.Lock()
	t.assign[req.Partition] = to
	t.amu.Unlock()
	m := t.cfg.Metrics
	m.Counter(obs.MetricFailoverReassignments).Add(1)
	m.Tracef(obs.Warn, "transport", req.Superstep, "partition %d failing over: %s -> %s",
		req.Partition, t.peers[from].addr, t.peers[to].addr)
	if req.TraceID != 0 && m.SpansEnabled() {
		m.RecordSpan(obs.Span{
			Parent: req.ParentSpan, Proc: obs.ProcMaster, Name: obs.SpanFailover,
			Superstep: req.Superstep, Partition: req.Partition,
			Start: time.Now().UnixNano(),
		})
	}
}

// route picks the peer for this exchange, skipping peers already tried by
// this Exec call. Preference order: the assigned peer, then the remaining
// peers scanning upward from it (deterministic, so concurrent partitions
// spread over survivors the same way the static rule spread them over the
// full pool). A non-routable candidate gets one revival probe per superstep
// (see usable). Returns -1 when no peer can take the request — the signal
// for the engine's pin-local fallback.
func (t *TCP) route(req *engine.ExecRequest, tried []bool) int {
	pi := t.assigned(req.Partition)
	if t.cfg.noFailover {
		if tried[pi] {
			return -1
		}
		return pi
	}
	if !tried[pi] && t.usable(pi, req.Superstep) {
		return pi
	}
	for k := 1; k <= len(t.peers); k++ {
		j := (pi + k) % len(t.peers)
		if tried[j] || !t.usable(j, req.Superstep) {
			continue
		}
		t.reassign(req, pi, j)
		return j
	}
	return -1
}

// usable reports whether peer i can take an exchange now: routable, or a
// dead/draining peer revived by a rejoin probe. Probes are rate-limited to
// one per peer per superstep — a dial attempt against a still-down address
// costs up to DialTimeout, and the engine's supervised retries would
// otherwise pay it repeatedly within one superstep. A probe that lands runs
// the full fingerprint handshake (ensure), so a restarted worker re-enters
// the pool exactly as strictly vetted as it first joined.
func (t *TCP) usable(i, ss int) bool {
	p := t.peers[i]
	if p.routable() {
		return true
	}
	p.mu.Lock()
	if p.probedSS == ss {
		p.mu.Unlock()
		return false
	}
	p.probedSS = ss
	p.mu.Unlock()
	if p.ensure() != nil {
		return false
	}
	return p.routable()
}
