// Worker-to-worker fragment routing. After an exec, the worker routes each
// outbox column straight to the worker that owns the destination partition
// — the master sees only aggregates, records, and counts. The receiving
// side parks columns in a fragStore keyed by (emit superstep, destination
// partition, source partition) until its delivery round folds them. The
// sending side keeps one link per peer — the same connection type the
// master dials its workers through (tcp.go): dial and fingerprint
// handshake, framed writes, reply demux, teardown — and waits for a
// synchronous ack before the exec reply goes back to the master (so an
// acked column is durable at its destination before the master advances
// the barrier). A failed or dropped send is tolerated, not fatal: the
// column stays in the exec reply, the master forwards it inside the deliver
// round, and only if that also fails does the partition fall back to
// checkpoint + replay re-hydration.
package transport

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"ariadne/internal/engine"
	"ariadne/internal/fault"
	"ariadne/internal/obs"
)

// fragKey addresses one parked outbox column.
type fragKey struct {
	ss, dp, sp int
}

// fragStore parks peer-routed (and self-routed) outbox columns between exec
// and the delivery round. Keep-first per key: a duplicate exec of the same
// superstep (lost reply, failover re-route) re-sends an identical column,
// and first-wins keeps the fold input stable.
type fragStore struct {
	mu    sync.Mutex
	frags map[fragKey][]engine.OutMessage
}

func (s *fragStore) put(ss, dp, sp int, msgs []engine.OutMessage) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.frags == nil {
		s.frags = make(map[fragKey][]engine.OutMessage)
	}
	k := fragKey{ss: ss, dp: dp, sp: sp}
	if _, ok := s.frags[k]; ok {
		return
	}
	s.frags[k] = msgs
}

func (s *fragStore) get(ss, dp, sp int) []engine.OutMessage {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.frags[fragKey{ss: ss, dp: dp, sp: sp}]
}

// prune drops columns from supersteps before ss — consumed (or abandoned)
// at least one delivery round ago.
func (s *fragStore) prune(ss int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for k := range s.frags {
		if k.ss < ss {
			delete(s.frags, k)
		}
	}
}

// meshDeadline bounds one frag send + ack exchange. Generous relative to
// the master's message deadline: a slow ack just delays one exec reply, and
// a genuinely dead peer fails the dial long before this.
const meshDeadline = 5 * time.Second

// mesh is a worker's client side of the peer fabric: one lazily-dialed
// link per peer address, shared by all exec handlers. A mesh redial counts
// no master reconnect, so its links carry no hooks.
type mesh struct {
	w      *Worker
	seq    atomic.Uint64
	closed atomic.Bool

	mu    sync.Mutex
	peers map[string]*link
}

func (m *mesh) peer(addr string) *link {
	m.mu.Lock()
	defer m.mu.Unlock()
	p, ok := m.peers[addr]
	if !ok {
		p = newLink(addr, m.w.fingerprint(), meshDeadline, m.w.m, &m.closed)
		m.peers[addr] = p
	}
	return p
}

// close marks the mesh closed, so an exec handler still in flight dials no
// new link, then tears down every peer connection (worker shutdown).
func (m *mesh) close() {
	m.closed.Store(true)
	m.mu.Lock()
	peers := make([]*link, 0, len(m.peers))
	for _, p := range m.peers {
		peers = append(peers, p)
	}
	m.mu.Unlock()
	for _, p := range peers {
		p.teardownAny()
	}
}

// sendFrag ships one outbox column to the peer worker at addr and waits for
// its ack, consulting the peer.send fault site first. Returns the wire
// bytes written. An error means the column was not (provably) stored — the
// caller keeps it in the exec reply so the master's deliver round can
// forward it.
func (m *mesh) sendFrag(ctx context.Context, addr string, f *peerFrag) (int64, error) {
	seq := m.seq.Add(1)
	inj := m.w.x.Fault()
	act, ferr := inj.NetHit(ctx, fault.SitePeerSend, f.ss, f.dp, int64(seq))
	if ferr != nil {
		return 0, ferr
	}
	p := m.peer(addr)
	switch act {
	case fault.NetDrop:
		return 0, p.wrapErr("frag dropped by injected fault")
	case fault.NetReset:
		p.teardownAny()
		return 0, p.wrapErr("connection reset by injected fault")
	}
	payload := encodePeerFrag(f)
	var n int64
	send := func() error {
		k, err := p.send(framePeerFrag, seq, payload)
		n += int64(k)
		return err
	}
	ch := p.register(seq)
	defer p.unregister(seq)
	if act == fault.NetDup {
		if err := send(); err != nil {
			return n, err
		}
	}
	if err := send(); err != nil {
		return n, err
	}
	mtr := m.w.m
	mtr.Counter(obs.MetricNetPeerFrags).Add(1)
	mtr.Counter(obs.MetricNetPeerBytes).Add(n)
	timer := time.NewTimer(meshDeadline)
	defer timer.Stop()
	select {
	case <-ctx.Done():
		return n, p.wrapErr("frag canceled: %v", ctx.Err())
	case <-timer.C:
		return n, p.wrapErr("no frag ack within %v", meshDeadline)
	case _, ok := <-ch:
		if !ok {
			return n, p.wrapErr("connection lost awaiting frag ack")
		}
		return n, nil
	}
}
