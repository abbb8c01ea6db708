// Worker-to-worker fragment routing. After an exec, the worker routes each
// outbox column straight to the worker that owns the destination partition
// — the master sees only aggregates, records, and counts. The receiving side parks columns in a fragStore keyed by
// (emit superstep, destination partition, source partition) until its
// delivery round folds them; the sending side keeps one persistent framed
// connection per peer, handshaked by the same dialHandshake the master
// uses, and waits for a synchronous ack before the exec reply goes back to
// the master (so an acked column is durable at its destination before the
// master advances the barrier). A failed or dropped
// send is tolerated, not fatal: the column stays in the exec reply, the
// master forwards it inside the deliver round, and only if that also fails
// does the partition fall back to checkpoint + replay re-hydration.
package transport

import (
	"bufio"
	"context"
	"fmt"
	"net"
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
// connection per peer address, shared by all exec handlers.
type mesh struct {
	w   *Worker
	seq atomic.Uint64

	mu    sync.Mutex
	peers map[string]*meshPeer
}

func newMesh(w *Worker) *mesh {
	return &mesh{w: w, peers: map[string]*meshPeer{}}
}

func (m *mesh) peer(addr string) *meshPeer {
	m.mu.Lock()
	defer m.mu.Unlock()
	p, ok := m.peers[addr]
	if !ok {
		p = &meshPeer{m: m, addr: addr, pending: map[uint64]chan struct{}{}}
		m.peers[addr] = p
	}
	return p
}

// close tears down every peer connection (worker shutdown).
func (m *mesh) close() {
	m.mu.Lock()
	peers := make([]*meshPeer, 0, len(m.peers))
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
		return 0, fmt.Errorf("transport: peer frag to %s dropped by injected fault", addr)
	case fault.NetReset:
		p.teardownAny()
		return 0, fmt.Errorf("transport: peer connection to %s reset by injected fault", addr)
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
		return n, fmt.Errorf("transport: peer frag to %s canceled: %w", addr, ctx.Err())
	case <-timer.C:
		return n, fmt.Errorf("transport: no frag ack from %s within %v", addr, meshDeadline)
	case _, ok := <-ch:
		if !ok {
			return n, fmt.Errorf("transport: peer connection to %s lost awaiting frag ack", addr)
		}
		return n, nil
	}
}

// meshPeer is one worker->worker connection: dial + fingerprint handshake
// on first use, a write mutex for frame interleaving, and an ack demux.
type meshPeer struct {
	m    *mesh
	addr string

	mu      sync.Mutex
	conn    net.Conn
	wr      *bufio.Writer
	gen     int
	pending map[uint64]chan struct{}
}

// ensure dials and handshakes if the peer is not connected.
func (p *meshPeer) ensure() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.conn != nil {
		return nil
	}
	conn, err := net.DialTimeout("tcp", p.addr, meshDeadline)
	if err != nil {
		return fmt.Errorf("transport: mesh dial %s: %v", p.addr, err)
	}
	if err := dialHandshake(conn, p.m.w.fingerprint(), meshDeadline); err != nil {
		conn.Close()
		return fmt.Errorf("transport: mesh peer %s: %v", p.addr, err)
	}
	p.gen++
	p.conn = conn
	p.wr = bufio.NewWriter(conn)
	go p.readLoop(conn, p.gen)
	return nil
}

func (p *meshPeer) send(typ byte, seq uint64, payload []byte) (int, error) {
	if err := p.ensure(); err != nil {
		return 0, err
	}
	p.mu.Lock()
	conn, gen, wr := p.conn, p.gen, p.wr
	if conn == nil {
		p.mu.Unlock()
		return 0, fmt.Errorf("transport: mesh connection to %s lost", p.addr)
	}
	n, err := writeFrame(wr, typ, seq, payload)
	if err == nil {
		err = wr.Flush()
	}
	p.mu.Unlock()
	if err != nil {
		p.teardown(conn, gen)
		return n, fmt.Errorf("transport: mesh send to %s: %v", p.addr, err)
	}
	m := p.m.w.m
	m.Counter(obs.MetricNetMessagesSent).Add(1)
	m.Counter(obs.MetricNetBytesSent).Add(int64(n))
	return n, nil
}

func (p *meshPeer) register(seq uint64) chan struct{} {
	ch := make(chan struct{}, 2)
	p.mu.Lock()
	p.pending[seq] = ch
	p.mu.Unlock()
	return ch
}

func (p *meshPeer) unregister(seq uint64) {
	p.mu.Lock()
	delete(p.pending, seq)
	p.mu.Unlock()
}

func (p *meshPeer) readLoop(conn net.Conn, gen int) {
	r := bufio.NewReader(conn)
	for {
		typ, seq, payload, n, err := readFrame(r)
		if err != nil {
			p.teardown(conn, gen)
			return
		}
		m := p.m.w.m
		m.Counter(obs.MetricNetMessagesRecv).Add(1)
		m.Counter(obs.MetricNetBytesRecv).Add(int64(n))
		switch typ {
		case framePeerAck:
			p.mu.Lock()
			ch := p.pending[seq]
			p.mu.Unlock()
			if ch != nil {
				select {
				case ch <- struct{}{}:
				default:
				}
			}
		case frameError:
			m.Tracef(obs.Error, "transport", -1, "mesh peer %s reported: %s", p.addr, payload)
		}
	}
}

func (p *meshPeer) teardown(conn net.Conn, gen int) {
	p.mu.Lock()
	if p.gen != gen || p.conn != conn {
		p.mu.Unlock()
		conn.Close()
		return
	}
	p.conn = nil
	p.wr = nil
	for seq, ch := range p.pending {
		close(ch)
		delete(p.pending, seq)
	}
	p.mu.Unlock()
	conn.Close()
}

func (p *meshPeer) teardownAny() {
	p.mu.Lock()
	conn, gen := p.conn, p.gen
	p.mu.Unlock()
	if conn != nil {
		p.teardown(conn, gen)
	}
}
