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
	"ariadne/internal/supervise"
)

// Default TCP timings, chosen so a dead worker is detected and retried
// within a couple of supersteps' wall time on a LAN without making tests
// slow. All are overridable per run.
const (
	defaultDialTimeout     = 5 * time.Second
	defaultMessageDeadline = 5 * time.Second
	defaultNetMaxRetries   = 3
	defaultNetBackoff      = time.Millisecond
	maxNetBackoff          = 100 * time.Millisecond
	defaultHBMisses        = 3
	handshakeDeadline      = 10 * time.Second
)

// TCPConfig configures the master-side TCP leg.
type TCPConfig struct {
	// Addrs lists worker addresses. Partition p is served by
	// Addrs[p % len(Addrs)], the same modulo rule the engine uses to assign
	// vertices to partitions.
	Addrs []string
	// Fingerprint must match every worker's loaded graph and partition
	// count; the handshake rejects a peer that disagrees.
	Fingerprint Fingerprint
	// DialTimeout bounds connection establishment plus handshake.
	DialTimeout time.Duration
	// MessageDeadline bounds one request/reply exchange (send through
	// receive). An expired exchange is retransmitted.
	MessageDeadline time.Duration
	// MaxRetries bounds retransmissions of one Exec beyond the first
	// attempt; negative disables retransmit entirely.
	MaxRetries int
	// Backoff is the base retransmit backoff, growing and jittering by the
	// supervision policy (supervise.BackoffDuration).
	Backoff time.Duration
	// HeartbeatInterval enables per-peer ping/pong liveness probing; 0
	// disables it. A peer missing HeartbeatMisses consecutive pongs is
	// declared dead and its connection torn down, so in-flight exchanges
	// fail within one deadline instead of waiting out TCP timeouts.
	HeartbeatInterval time.Duration
	HeartbeatMisses   int
	// Fault injects deterministic network faults at the net.send/net.recv
	// sites (drop, delay, duplicate, reset).
	Fault *fault.Injector
	// Metrics receives transport counters; nil disables them.
	Metrics *obs.Metrics

	// noFailover disables the worker pool's partition failover: a failed
	// partition is never rerouted to a surviving worker, so exhausting the
	// retransmit budget on the assigned peer surfaces ErrTransport
	// immediately and the engine pins the partition local and sheds its
	// capture. A reference leg for this package's tests.
	noFailover bool
}

func (c TCPConfig) normalize() TCPConfig {
	if c.DialTimeout <= 0 {
		c.DialTimeout = defaultDialTimeout
	}
	if c.MessageDeadline <= 0 {
		c.MessageDeadline = defaultMessageDeadline
	}
	switch {
	case c.MaxRetries == 0:
		c.MaxRetries = defaultNetMaxRetries
	case c.MaxRetries < 0:
		c.MaxRetries = 0
	}
	if c.Backoff <= 0 {
		c.Backoff = defaultNetBackoff
	}
	if c.HeartbeatMisses <= 0 {
		c.HeartbeatMisses = defaultHBMisses
	}
	return c
}

// TCP is the master-side client of the TCP leg: one connection per worker,
// request/reply exchanges matched by sequence number, at-least-once
// delivery (deadline + retransmit with deterministic jittered backoff,
// same-seq so the worker's dedup absorbs re-execution), heartbeat-based
// liveness, and partition failover over the worker pool (pool.go). Exec is
// safe for concurrent use by the engine's per-partition goroutines. All
// failures it returns wrap engine.ErrTransport, which is what routes them
// into supervised retry and, past the budget, the engine's local fallback.
type TCP struct {
	cfg    TCPConfig
	seq    atomic.Uint64
	peers  []*peer
	closed atomic.Bool
	stop   chan struct{}
	wg     sync.WaitGroup

	// assign is the partition -> peer-index table (pool.go); absent entries
	// mean the static partition % len(peers) rule still holds. lastExec
	// records which peer actually executed each partition's latest resident
	// superstep — that's where its state (and parked fragments) live, so
	// the delivery barrier routes there rather than to the nominal
	// assignment.
	amu      sync.Mutex
	assign   map[int]int
	lastExec map[int]int
}

// DialTCP connects to every worker, performs the versioned handshake, and
// starts heartbeating. A handshake failure (version or graph fingerprint
// mismatch) fails fast here rather than mid-run.
func DialTCP(cfg TCPConfig) (*TCP, error) {
	cfg = cfg.normalize()
	if len(cfg.Addrs) == 0 {
		return nil, fmt.Errorf("%w: no worker addresses", engine.ErrTransport)
	}
	seen := make(map[string]bool, len(cfg.Addrs))
	for _, addr := range cfg.Addrs {
		if seen[addr] {
			return nil, fmt.Errorf("%w: duplicate worker address %s", engine.ErrTransport, addr)
		}
		seen[addr] = true
	}
	t := &TCP{cfg: cfg, stop: make(chan struct{}), assign: map[int]int{}, lastExec: map[int]int{}}
	for _, addr := range cfg.Addrs {
		t.peers = append(t.peers, newPeer(t, addr))
	}
	for _, p := range t.peers {
		if err := p.ensure(); err != nil {
			t.Close()
			return nil, err
		}
	}
	if cfg.HeartbeatInterval > 0 {
		for _, p := range t.peers {
			t.wg.Add(1)
			go p.heartbeatLoop()
		}
	}
	return t, nil
}

// Exec implements engine.Transport: route to the partition's assigned
// worker, encode the request with that worker's mesh route, and attempt the
// exchange up to 1+MaxRetries times under per-message deadlines.
// Retransmits reuse the sequence number, so a worker that already executed
// the request replays its cached reply instead of recomputing (recomputing
// would be harmless — a duplicate exec rolls back first — but the cache
// keeps retry storms cheap). When a peer exhausts its budget it is declared
// dead and the partition fails over: the request (same seq) is re-encoded
// for the next surviving worker, each peer tried at most once per call; a
// worker without the partition's state answers a state miss. Only when no
// worker can take the request does Exec fail with ErrTransport — the
// engine's cue to pin the partition local.
func (t *TCP) Exec(ctx context.Context, req *engine.ExecRequest) (*engine.ExecResult, error) {
	if t.closed.Load() {
		return nil, fmt.Errorf("%w: client closed", engine.ErrTransport)
	}
	m := t.cfg.Metrics
	traced := req.TraceID != 0 && m.SpansEnabled()
	var payload []byte
	execStart := time.Now()
	seq := t.seq.Add(1)
	tried := make([]bool, len(t.peers))
	retries := 0
	var lastErr error
	for {
		pi := t.route(req, tried)
		if pi < 0 {
			if lastErr == nil {
				lastErr = fmt.Errorf("%w: partition %d superstep %d: no live workers",
					engine.ErrTransport, req.Partition, req.Superstep)
			}
			m.AddRPC(req.Superstep, req.Partition,
				int64(len(payload)), int64(retries), time.Since(execStart))
			return nil, lastErr
		}
		tried[pi] = true
		p := t.peers[pi]
		// The mesh route depends on which peer executes the request (its own
		// partitions route "." into the local frag store), so the request is
		// encoded per peer.
		req.Route = t.routesFor(req, pi)
		encStart := time.Now()
		payload = encodeExecRequest(req)
		if traced {
			m.RecordSpan(obs.Span{
				Parent: req.ParentSpan, Proc: obs.ProcMaster, Name: obs.SpanSerialize,
				Superstep: req.Superstep, Partition: req.Partition,
				Start: encStart.UnixNano(), Dur: int64(time.Since(encStart)),
				Bytes: int64(len(payload)),
			})
		}
		res, replyLen, attempts, err := t.exchange(ctx, p, req, seq, payload, traced, retries)
		retries += attempts
		if err == nil {
			p.noteSuccess()
			// Per-(superstep, partition) exchange accounting behind the
			// net_rpc EDB — recorded whenever a registry is attached,
			// independent of span tracing.
			m.AddRPC(req.Superstep, req.Partition,
				int64(len(payload)+replyLen), int64(retries), time.Since(execStart))
			if res.StateMiss {
				// The worker (usually a failover target) lacks resident state
				// for this superstep. Not a transport failure — the peer is
				// healthy — the engine reseeds and retries.
				return nil, fmt.Errorf("partition %d superstep %d: worker %s: %w",
					req.Partition, req.Superstep, p.addr, engine.ErrStateMiss)
			}
			t.amu.Lock()
			t.lastExec[req.Partition] = pi
			t.amu.Unlock()
			return res, nil
		}
		lastErr = err
		if t.cfg.noFailover || ctx.Err() != nil || t.closed.Load() {
			m.AddRPC(req.Superstep, req.Partition,
				int64(len(payload)), int64(retries), time.Since(execStart))
			return nil, lastErr
		}
		p.markDead("exchange budget exhausted")
	}
}

// exchange drives the retransmit loop of one request against one peer:
// 1+MaxRetries attempts under per-message deadlines with deterministic
// jittered backoff between them. It returns how many attempts beyond the
// first were burned, for cumulative retry accounting across failovers.
func (t *TCP) exchange(ctx context.Context, p *peer, req *engine.ExecRequest, seq uint64,
	payload []byte, traced bool, prior int) (*engine.ExecResult, int, int, error) {
	m := t.cfg.Metrics
	attempts := 0
	var lastErr error
	for try := 0; try <= t.cfg.MaxRetries; try++ {
		if try > 0 {
			m.Counter(obs.MetricNetRetransmits).Add(1)
			attempts++
			backStart := time.Now()
			supervise.SleepCtx(ctx, supervise.BackoffDuration(t.cfg.Backoff, maxNetBackoff,
				req.Partition, req.Superstep, try-1))
			if traced {
				m.RecordSpan(obs.Span{
					Parent: req.ParentSpan, Proc: obs.ProcMaster, Name: obs.SpanBackoff,
					Superstep: req.Superstep, Partition: req.Partition,
					Start: backStart.UnixNano(), Dur: int64(time.Since(backStart)),
					Retries: int64(prior + attempts),
				})
			}
			// A peer declared dead or draining mid-exchange (heartbeat miss
			// budget, drain frame) will not answer; stop burning the budget
			// here and let the caller fail over.
			if !t.cfg.noFailover && !p.routable() {
				break
			}
		}
		if err := ctx.Err(); err != nil {
			return nil, 0, attempts, fmt.Errorf("%w: partition %d superstep %d: %w",
				engine.ErrTransport, req.Partition, req.Superstep, err)
		}
		tryStart := time.Now()
		res, replyLen, err := p.roundTrip(ctx, req, seq, payload)
		tryDur := time.Since(tryStart)
		if traced {
			m.RecordSpan(obs.Span{
				Parent: req.ParentSpan, Proc: obs.ProcMaster, Name: obs.SpanRPC,
				Superstep: req.Superstep, Partition: req.Partition,
				Start: tryStart.UnixNano(), Dur: int64(tryDur),
				Bytes: int64(len(payload) + replyLen), Retries: int64(prior + attempts),
			})
		}
		if err == nil {
			return res, replyLen, attempts, nil
		}
		p.noteFailure()
		lastErr = err
		m.Tracef(obs.Warn, "transport", req.Superstep,
			"partition %d exchange attempt %d with %s failed: %v", req.Partition, try+1, p.addr, err)
	}
	return nil, 0, attempts, lastErr
}

// Close tears down every connection and stops the heartbeats. In-flight
// exchanges fail with ErrTransport.
func (t *TCP) Close() error {
	if t.closed.Swap(true) {
		return nil
	}
	close(t.stop)
	for _, p := range t.peers {
		p.teardownAny()
	}
	t.wg.Wait()
	return nil
}

// routesFor builds the peer-mesh routing table for a request about
// to be sent to peer pi: master-resident partitions stay "", the executing
// peer's own partitions route "." into its local frag store, everything
// else routes to the owning peer's address. Ownership is the current
// assignment — if a partition fails over later in the same superstep, its
// fragments land on the old owner, the deliver round comes up short there,
// and the engine replays (exactness is never at stake, only efficiency).
func (t *TCP) routesFor(req *engine.ExecRequest, pi int) []string {
	n := t.cfg.Fingerprint.Partitions
	route := make([]string, n)
	for dp := 0; dp < n; dp++ {
		if dp < len(req.LocalParts) && req.LocalParts[dp] {
			continue
		}
		if ai := t.assigned(dp); ai == pi {
			route[dp] = "."
		} else {
			route[dp] = t.peers[ai].addr
		}
	}
	return route
}

// lastExecPeer returns the peer holding partition p's resident state: the
// peer that executed its latest superstep, falling back to the
// nominal assignment before any exec happened.
func (t *TCP) lastExecPeer(p int) int {
	t.amu.Lock()
	pi, ok := t.lastExec[p]
	t.amu.Unlock()
	if !ok {
		return t.assigned(p)
	}
	return pi
}

// Deliver implements engine.Transport: it fans the delivery-barrier
// (or collect) round out to the workers holding the listed partitions, one
// concurrent exchange per worker, and merges the per-partition outcomes.
// A worker that cannot be reached within the retransmit budget leaves its
// partitions OK=false — the engine's cue to re-hydrate them from
// checkpoint + replay — so Deliver itself never fails the run.
func (t *TCP) Deliver(ctx context.Context, req *engine.DeliverRequest) (*engine.DeliverResult, error) {
	if t.closed.Load() {
		return nil, fmt.Errorf("%w: client closed", engine.ErrTransport)
	}
	out := &engine.DeliverResult{Parts: make([]engine.DeliverPart, len(req.Parts))}
	groups := map[int][]int{}
	for i, p := range req.Parts {
		out.Parts[i].Partition = p
		pi := t.lastExecPeer(p)
		groups[pi] = append(groups[pi], i)
	}
	var wg sync.WaitGroup
	for pi, idxs := range groups {
		wg.Add(1)
		go func(pi int, idxs []int) {
			defer wg.Done()
			sub := &engine.DeliverRequest{
				Superstep:   req.Superstep,
				CollectOnly: req.CollectOnly,
				Combine:     req.Combine,
				Parts:       make([]int, len(idxs)),
				TraceID:     req.TraceID,
				ParentSpan:  req.ParentSpan,
			}
			if !req.CollectOnly {
				sub.Expected = make([][]int64, len(idxs))
				sub.MasterFrags = make([][][]engine.OutMessage, len(idxs))
			}
			for j, k := range idxs {
				sub.Parts[j] = req.Parts[k]
				if !req.CollectOnly {
					sub.Expected[j] = req.Expected[k]
					sub.MasterFrags[j] = req.MasterFrags[k]
				}
			}
			res := t.deliverPeer(ctx, pi, sub)
			if res == nil {
				return
			}
			for j, k := range idxs {
				if j < len(res.Parts) && res.Parts[j].Partition == req.Parts[k] {
					out.Parts[k] = res.Parts[j]
				}
			}
		}(pi, idxs)
	}
	wg.Wait()
	return out, nil
}

// deliverPeer runs one worker's slice of a deliver round under the same
// retransmit budget as exec exchanges (the worker memoizes per-partition
// outcomes and dedups by seq, so retries never double-fold). Returns nil on
// failure; the caller's parts stay OK=false.
func (t *TCP) deliverPeer(ctx context.Context, pi int, sub *engine.DeliverRequest) *engine.DeliverResult {
	m := t.cfg.Metrics
	p := t.peers[pi]
	traced := sub.TraceID != 0 && m.SpansEnabled()
	payload := encodeDeliverRequest(sub)
	seq := t.seq.Add(1)
	start := time.Now()
	var reply []byte
	for try := 0; try <= t.cfg.MaxRetries; try++ {
		if try > 0 {
			m.Counter(obs.MetricNetRetransmits).Add(1)
			supervise.SleepCtx(ctx, supervise.BackoffDuration(t.cfg.Backoff, maxNetBackoff,
				sub.Parts[0], sub.Superstep, try-1))
			if !p.routable() {
				break
			}
		}
		if ctx.Err() != nil {
			return nil
		}
		r, _, err := p.call(ctx, frameDeliver, sub.Superstep, -1, seq, payload)
		if err == nil {
			reply = r
			break
		}
		p.noteFailure()
		m.Tracef(obs.Warn, "transport", sub.Superstep,
			"deliver round with %s attempt %d failed: %v", p.addr, try+1, err)
	}
	if traced {
		m.RecordSpan(obs.Span{
			Parent: sub.ParentSpan, Proc: obs.ProcMaster, Name: obs.SpanDeliver,
			Superstep: sub.Superstep, Partition: -1,
			Start: start.UnixNano(), Dur: int64(time.Since(start)),
			Bytes: int64(len(payload) + len(reply)),
		})
	}
	m.AddRPC(sub.Superstep, -1, int64(len(payload)+len(reply)), 0, time.Since(start))
	if reply == nil {
		return nil
	}
	p.noteSuccess()
	res, err := decodeDeliverResult(reply)
	if err != nil {
		m.Tracef(obs.Error, "transport", sub.Superstep, "deliver reply from %s: %v", p.addr, err)
		return nil
	}
	return res
}

// link is one client connection to a worker, for the master's pool and a
// worker's mesh alike: a lazy dial plus fingerprint handshake, a write lock
// that keeps frames whole, a seq-keyed reply demux fed by a read loop, and
// generation-checked teardown. An owner layers its own state on top through
// two hooks: onConnect runs under mu after each fresh handshake, onDrain
// when the worker announces a graceful shutdown.
type link struct {
	addr      string
	fp        Fingerprint
	timeout   time.Duration // bounds dial plus handshake
	m         *obs.Metrics
	closed    *atomic.Bool // set by the owner's Close; a closed link never dials
	onConnect func()
	onDrain   func()

	mu      sync.Mutex
	conn    net.Conn
	w       *bufio.Writer
	gen     int // bumped per established connection; reader goroutines check it
	pending map[uint64]chan []byte
}

func newLink(addr string, fp Fingerprint, timeout time.Duration, m *obs.Metrics, closed *atomic.Bool) *link {
	return &link{addr: addr, fp: fp, timeout: timeout, m: m, closed: closed, pending: map[uint64]chan []byte{}}
}

func (l *link) wrapErr(format string, args ...any) error {
	return fmt.Errorf("%w: peer %s: %s", engine.ErrTransport, l.addr, fmt.Sprintf(format, args...))
}

// ensure dials and handshakes if the link is not connected. The reader
// goroutine it starts owns the receive side of the connection until it
// dies, at which point every pending exchange fails.
func (l *link) ensure() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.conn != nil {
		return nil
	}
	if l.closed.Load() {
		return l.wrapErr("client closed")
	}
	conn, err := net.DialTimeout("tcp", l.addr, l.timeout)
	if err != nil {
		return l.wrapErr("dial: %v", err)
	}
	if err := dialHandshake(conn, l.fp, l.timeout); err != nil {
		conn.Close()
		return l.wrapErr("%v", err)
	}
	l.gen++
	if l.onConnect != nil {
		l.onConnect()
	}
	l.conn = conn
	l.w = bufio.NewWriter(conn)
	go l.readLoop(conn, l.gen)
	return nil
}

// dialHandshake runs the dialing side of the versioned hello/welcome
// exchange on a fresh conn: send our hello, read the welcome, and check it
// echoes our fingerprint. The error says what failed; the caller names the
// peer.
func dialHandshake(conn net.Conn, fp Fingerprint, timeout time.Duration) error {
	conn.SetDeadline(time.Now().Add(timeout))
	defer conn.SetDeadline(time.Time{})
	if _, err := writeFrame(conn, frameHello, 0, encodeHello(fp)); err != nil {
		return fmt.Errorf("handshake send: %v", err)
	}
	typ, _, payload, _, err := readFrame(conn)
	if err != nil {
		return fmt.Errorf("handshake recv: %v", err)
	}
	switch typ {
	case frameWelcome:
	case frameError:
		return fmt.Errorf("handshake rejected: %s", payload)
	default:
		return fmt.Errorf("handshake: unexpected frame type %d", typ)
	}
	got, err := decodeHello(payload)
	if err != nil {
		return err
	}
	if got != fp {
		return fmt.Errorf("graph fingerprint mismatch: worker %+v, ours %+v", got, fp)
	}
	return nil
}

// readLoop owns conn's receive side: it dispatches reply frames (result,
// deliver result, pong, frag ack) to the exchange that registered their
// sequence number. On any read error it tears the connection down, failing
// every pending exchange promptly.
func (l *link) readLoop(conn net.Conn, gen int) {
	r := bufio.NewReader(conn)
	for {
		typ, seq, payload, n, err := readFrame(r)
		if err != nil {
			l.teardown(conn, gen)
			return
		}
		l.m.Counter(obs.MetricNetMessagesRecv).Add(1)
		l.m.Counter(obs.MetricNetBytesRecv).Add(int64(n))
		switch typ {
		case frameResult, framePong, frameDeliverRes, framePeerAck:
			// The send holds mu, as teardown closes the pending channels
			// under it: a reply must not race their close. It never blocks.
			l.mu.Lock()
			if ch := l.pending[seq]; ch != nil {
				select {
				case ch <- payload:
				default: // duplicate reply beyond the buffer: drop
				}
			}
			l.mu.Unlock()
		case frameDrain:
			// Graceful worker shutdown: it finished its in-flight request
			// and is deregistering. Anything still pending on this
			// connection fails when the close lands.
			if l.onDrain != nil {
				l.onDrain()
			}
		case frameError:
			l.m.Tracef(obs.Error, "transport", -1, "peer %s reported: %s", l.addr, payload)
		}
	}
}

// teardown closes conn and fails pending exchanges, but only if conn is
// still the link's current connection of generation gen (a stale reader
// must not tear down its successor).
func (l *link) teardown(conn net.Conn, gen int) {
	l.mu.Lock()
	if l.gen != gen || l.conn != conn {
		l.mu.Unlock()
		conn.Close()
		return
	}
	l.conn = nil
	l.w = nil
	for seq, ch := range l.pending {
		close(ch)
		delete(l.pending, seq)
	}
	l.mu.Unlock()
	conn.Close()
}

// teardownAny tears down whatever connection is current.
func (l *link) teardownAny() {
	l.mu.Lock()
	conn, gen := l.conn, l.gen
	l.mu.Unlock()
	if conn != nil {
		l.teardown(conn, gen)
	}
}

// register creates the reply slot for seq. The channel is buffered so the
// read loop never blocks on a slow exchange (extra duplicates are dropped).
func (l *link) register(seq uint64) chan []byte {
	ch := make(chan []byte, 2)
	l.mu.Lock()
	l.pending[seq] = ch
	l.mu.Unlock()
	return ch
}

func (l *link) unregister(seq uint64) {
	l.mu.Lock()
	delete(l.pending, seq)
	l.mu.Unlock()
}

// send writes one frame on the current connection (establishing it first if
// needed) under the write lock and returns the bytes written.
func (l *link) send(typ byte, seq uint64, payload []byte) (int, error) {
	if err := l.ensure(); err != nil {
		return 0, err
	}
	l.mu.Lock()
	conn, gen, w := l.conn, l.gen, l.w
	if conn == nil {
		l.mu.Unlock()
		return 0, l.wrapErr("connection lost")
	}
	n, err := writeFrame(w, typ, seq, payload)
	if err == nil {
		err = w.Flush()
	}
	l.mu.Unlock()
	if err != nil {
		l.teardown(conn, gen)
		return n, l.wrapErr("send: %v", err)
	}
	l.m.Counter(obs.MetricNetMessagesSent).Add(1)
	l.m.Counter(obs.MetricNetBytesSent).Add(int64(n))
	return n, nil
}

// peer is one worker of the master's pool: its link plus the pool-health
// state, which the link's mu also guards.
type peer struct {
	*link
	t *TCP

	hbMiss int
	// Failover state machine (pool.go): healthy/suspect/dead/draining,
	// consecutive-failure count, and the superstep of the last revival
	// probe (dead peers are probed at most once per superstep).
	state    workerState
	fails    int
	probedSS int
}

func newPeer(t *TCP, addr string) *peer {
	p := &peer{t: t, probedSS: -1}
	p.link = newLink(addr, t.cfg.Fingerprint, t.cfg.DialTimeout, t.cfg.Metrics, &t.closed)
	p.onConnect = p.connected
	p.onDrain = p.markDraining
	return p
}

// connected runs under mu after every fresh handshake: it counts a
// reconnect or a rejoin and resets the peer's health.
func (p *peer) connected() {
	if p.gen > 1 {
		p.m.Counter(obs.MetricNetReconnects).Add(1)
	}
	if p.state == stateDead || p.state == stateDraining {
		// A previously written-off worker passed a fresh fingerprint
		// handshake: re-admit it. Its reply-dedup cache is empty, which the
		// seq protocol tolerates — a retransmitted request recomputes and
		// returns the same bits.
		p.m.Counter(obs.MetricFailoverRejoins).Add(1)
		p.m.Tracef(obs.Info, "transport", -1, "peer %s rejoined the pool", p.addr)
	}
	p.state = stateHealthy
	p.fails = 0
	p.hbMiss = 0
}

// roundTrip performs one request/reply exchange attempt under the message
// deadline, consulting the fault injector on both directions. Returns the
// reply payload length alongside the result for per-exchange wire-byte
// accounting.
func (p *peer) roundTrip(ctx context.Context, req *engine.ExecRequest, seq uint64, payload []byte) (*engine.ExecResult, int, error) {
	reply, n, err := p.call(ctx, frameExec, req.Superstep, req.Partition, seq, payload)
	if err != nil {
		return nil, 0, err
	}
	res, err := decodeExecResult(reply)
	if err != nil {
		return nil, 0, fmt.Errorf("%w: %w", engine.ErrTransport, err)
	}
	return res, n, nil
}

// call performs one request/reply frame exchange attempt of any type under
// the message deadline, consulting the fault injector on both directions.
// Returns the raw reply payload and its length.
func (p *peer) call(ctx context.Context, typ byte, ss, part int, seq uint64, payload []byte) ([]byte, int, error) {
	ch := p.register(seq)
	defer p.unregister(seq)

	inj := p.t.cfg.Fault
	act, ferr := inj.NetHit(ctx, fault.SiteNetSend, ss, part, int64(seq))
	if ferr != nil {
		return nil, 0, fmt.Errorf("%w: %w", engine.ErrTransport, ferr)
	}
	switch act {
	case fault.NetDrop:
		// Frame lost on the wire: send nothing, let the deadline fire.
	case fault.NetReset:
		p.teardownAny()
		return nil, 0, p.wrapErr("connection reset by injected fault")
	case fault.NetDup:
		if _, err := p.send(typ, seq, payload); err != nil {
			return nil, 0, err
		}
		fallthrough
	default:
		if _, err := p.send(typ, seq, payload); err != nil {
			return nil, 0, err
		}
	}

	timer := time.NewTimer(p.t.cfg.MessageDeadline)
	defer timer.Stop()
	for {
		select {
		case <-ctx.Done():
			return nil, 0, p.wrapErr("exchange canceled: %v", ctx.Err())
		case <-timer.C:
			return nil, 0, p.wrapErr("no reply for seq %d within %v", seq, p.t.cfg.MessageDeadline)
		case reply, ok := <-ch:
			if !ok {
				return nil, 0, p.wrapErr("connection lost awaiting seq %d", seq)
			}
			act, ferr := inj.NetHit(ctx, fault.SiteNetRecv, ss, part, int64(seq))
			if ferr != nil {
				return nil, 0, fmt.Errorf("%w: %w", engine.ErrTransport, ferr)
			}
			switch act {
			case fault.NetDrop:
				// Reply lost on the wire: keep waiting for the deadline (a
				// duplicate may still land, exactly like a real lossy link).
				ch = p.register(seq)
				continue
			case fault.NetReset:
				p.teardownAny()
				return nil, 0, p.wrapErr("connection reset by injected fault")
			}
			return reply, len(reply), nil
		}
	}
}

// heartbeatLoop probes the peer at the configured interval. A pong must
// arrive within one interval; HeartbeatMisses consecutive misses declare
// the peer dead and tear down the connection so waiting exchanges fail into
// their retransmit path immediately.
func (p *peer) heartbeatLoop() {
	defer p.t.wg.Done()
	interval := p.t.cfg.HeartbeatInterval
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-p.t.stop:
			return
		case <-tick.C:
		}
		// send redials a torn-down peer, so a dead peer shows up here as a
		// failed dial and counts as a miss like an unanswered ping does.
		seq := p.t.seq.Add(1)
		ch := p.register(seq)
		missed := false
		if _, err := p.send(framePing, seq, nil); err != nil {
			missed = true
		} else {
			wait := time.NewTimer(interval)
			select {
			case _, ok := <-ch:
				missed = !ok
			case <-wait.C:
				missed = true
			case <-p.t.stop:
				wait.Stop()
				p.unregister(seq)
				return
			}
			wait.Stop()
		}
		p.unregister(seq)
		p.mu.Lock()
		if missed && len(p.pending) > 0 {
			// Exchanges are in flight on this connection: the worker may just
			// be busy computing (requests are served serially, so the pong is
			// queued behind them). Liveness of a loaded worker is arbitrated
			// by the message deadline, not the ping; heartbeats only declare
			// idle peers dead.
			p.mu.Unlock()
			continue
		}
		if missed {
			p.hbMiss++
		} else {
			p.hbMiss = 0
		}
		dead := p.hbMiss >= p.t.cfg.HeartbeatMisses
		if dead {
			p.hbMiss = 0
		}
		p.mu.Unlock()
		if missed {
			p.t.cfg.Metrics.Counter(obs.MetricNetHeartbeatMiss).Add(1)
		}
		if dead {
			// markDead tears the connection down, so waiting exchanges fail
			// into failover immediately instead of waiting out the deadline.
			p.markDead(fmt.Sprintf("missed %d heartbeats", p.t.cfg.HeartbeatMisses))
		}
	}
}
