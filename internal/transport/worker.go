package transport

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"ariadne/internal/engine"
	"ariadne/internal/fault"
	"ariadne/internal/obs"
)

// replyCacheSize bounds the per-connection dedup cache. The master has at
// most a few exchanges in flight per superstep per worker, so a retransmit
// always finds its cached reply long before eviction.
const replyCacheSize = 128

// Worker is the worker-process side of the TCP leg: it serves partition
// ExecRequests, delivery-barrier rounds, and peer fragments over framed
// connections. Connections are pipelined (PR 9): the reader goroutine keeps
// draining frames while exec and deliver handlers run concurrently — so the
// worker can decode superstep S+1's deltas while still encoding S's records
// — with a per-connection write mutex keeping reply frames whole. Requests
// are deduplicated by sequence number: a retransmitted exec replays the
// cached reply instead of recomputing, and an exec that is still in flight
// parks the duplicate until the original finishes.
type Worker struct {
	x  *engine.Executor
	ln net.Listener
	m  *obs.Metrics

	// frags parks peer- and self-routed outbox columns between exec and the
	// delivery round; mesh owns the worker->worker connections.
	frags fragStore
	mesh  *mesh

	// killAfter, when positive, makes the worker die abruptly — listener
	// and connections closed, no reply sent — after that many exec requests
	// have been received. Deterministic stand-in for kill -9 in the fault
	// matrix tests.
	killAfter int64
	execs     atomic.Int64

	// connWG tracks live serveConn goroutines so Drain can wait for
	// in-flight requests to finish.
	connWG sync.WaitGroup

	mu       sync.Mutex
	conns    map[net.Conn]struct{}
	closed   bool
	draining bool
}

// NewWorker listens on addr (e.g. "127.0.0.1:0") and serves x. Call Serve
// to start accepting.
func NewWorker(x *engine.Executor, addr string, m *obs.Metrics) (*Worker, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	w := &Worker{x: x, ln: ln, m: m, conns: map[net.Conn]struct{}{}}
	w.mesh = &mesh{w: w, peers: map[string]*link{}}
	return w, nil
}

// Addr returns the bound listen address.
func (w *Worker) Addr() string { return w.ln.Addr().String() }

// KillAfter arms the abrupt-death knob: the worker closes everything,
// mid-exchange, after n exec requests. For fault testing only.
func (w *Worker) KillAfter(n int) { w.killAfter = int64(n) }

// Execs returns how many exec requests this worker has received, for tests
// that time kills against the request stream.
func (w *Worker) Execs() int64 { return w.execs.Load() }

// Serve accepts and serves connections until Close or Drain. It returns nil
// on a clean shutdown, the accept error otherwise.
func (w *Worker) Serve() error {
	for {
		conn, err := w.ln.Accept()
		if err != nil {
			w.mu.Lock()
			done := w.closed || w.draining
			w.mu.Unlock()
			if done {
				return nil
			}
			return fmt.Errorf("transport: accept: %w", err)
		}
		w.mu.Lock()
		if w.closed || w.draining {
			w.mu.Unlock()
			conn.Close()
			return nil
		}
		w.conns[conn] = struct{}{}
		w.connWG.Add(1)
		w.mu.Unlock()
		go w.serveConn(conn)
	}
}

// Close shuts the worker down: stops accepting and severs every
// connection, including the peer mesh.
func (w *Worker) Close() error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return nil
	}
	w.closed = true
	conns := make([]net.Conn, 0, len(w.conns))
	for c := range w.conns {
		conns = append(conns, c)
	}
	w.mu.Unlock()
	err := w.ln.Close()
	for _, c := range conns {
		c.Close()
	}
	w.mesh.close()
	return err
}

// Drain shuts the worker down gracefully: it stops accepting, lets each
// connection finish the requests it is serving (replying normally), then
// sends the master a drain frame — the deregistration notice that makes the
// pool reroute this worker's partitions without charging a failure — and
// closes. Drain returns once every connection has wound down, so a worker
// process can exit 0 immediately after. Requests the master had pipelined
// but the worker had not yet read are abandoned; at-least-once delivery
// re-routes them to a surviving worker.
func (w *Worker) Drain() error {
	w.mu.Lock()
	if w.closed || w.draining {
		w.mu.Unlock()
		return nil
	}
	w.draining = true
	conns := make([]net.Conn, 0, len(w.conns))
	for c := range w.conns {
		conns = append(conns, c)
	}
	w.mu.Unlock()
	err := w.ln.Close()
	// Wake readers blocked between requests; a serveConn with requests in
	// flight waits for its handlers to reply before deregistering, which is
	// exactly the finish-in-flight-then-deregister contract.
	for _, c := range conns {
		c.SetReadDeadline(time.Now())
	}
	w.connWG.Wait()
	w.mesh.close()
	w.mu.Lock()
	w.closed = true
	w.mu.Unlock()
	return err
}

func (w *Worker) drop(conn net.Conn) {
	w.mu.Lock()
	delete(w.conns, conn)
	w.mu.Unlock()
	conn.Close()
}

func (w *Worker) isDraining() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.draining
}

// connState is one served connection's shared state: the write mutex that
// keeps pipelined reply frames whole, the seq dedup cache, and the
// in-flight handler count the drain path waits on.
type connState struct {
	conn  net.Conn
	wmu   sync.Mutex
	cache *replyCache
	wg    sync.WaitGroup
}

// fingerprint is the run identity this worker checks hellos against and
// offers when it dials a mesh peer.
func (w *Worker) fingerprint() Fingerprint {
	return Fingerprint{
		Partitions:  w.x.Partitions(),
		NumVertices: w.x.Graph().NumVertices(),
		NumEdges:    w.x.Graph().NumEdges(),
	}
}

// serveConn handshakes, then serves frames until the connection dies or the
// worker drains. Exec and deliver frames are handled in goroutines so the
// reader keeps pipelining; pings, peer frags, and the kill knob stay inline.
func (w *Worker) serveConn(conn net.Conn) {
	defer w.connWG.Done()
	defer w.drop(conn)
	fp := w.fingerprint()
	typ, _, payload, _, err := readFrame(conn)
	if err != nil || typ != frameHello {
		writeFrame(conn, frameError, 0, []byte("expected hello frame"))
		return
	}
	peerFP, err := decodeHello(payload)
	if err != nil {
		writeFrame(conn, frameError, 0, []byte(err.Error()))
		return
	}
	if peerFP != fp {
		writeFrame(conn, frameError, 0,
			[]byte(fmt.Sprintf("graph fingerprint mismatch: dialer %+v, worker %+v", peerFP, fp)))
		return
	}
	if _, err := writeFrame(conn, frameWelcome, 0, encodeHello(fp)); err != nil {
		return
	}

	cs := &connState{conn: conn, cache: newReplyCache(replyCacheSize)}
	for {
		typ, seq, payload, n, release, err := readFramePooled(conn)
		if err != nil {
			if w.isDraining() {
				// Wait out in-flight handlers (their replies were written
				// under the conn's write mutex), then deregister gracefully
				// so the master reroutes without counting a failure.
				cs.wg.Wait()
				conn.SetWriteDeadline(time.Now().Add(time.Second))
				writeFrame(conn, frameDrain, 0, nil)
				return
			}
			cs.wg.Wait()
			if !errors.Is(err, net.ErrClosed) {
				w.m.Tracef(obs.Info, "transport", -1, "worker connection ended: %v", err)
			}
			return
		}
		w.m.Counter(obs.MetricNetMessagesRecv).Add(1)
		w.m.Counter(obs.MetricNetBytesRecv).Add(int64(n))
		switch typ {
		case framePing:
			release()
			if err := w.reply(cs, framePong, seq, nil); err != nil {
				return
			}
		case frameExec:
			if w.killAfter > 0 && w.execs.Add(1) >= w.killAfter {
				release()
				w.Close()
				return
			}
			cs.wg.Add(1)
			go w.handleExec(cs, seq, payload, release)
		case frameDeliver:
			cs.wg.Add(1)
			go w.handleDeliver(cs, seq, payload, release)
		case framePeerFrag:
			w.handlePeerFrag(cs, seq, payload, release)
		default:
			release()
			writeFrame(conn, frameError, seq, []byte(fmt.Sprintf("unexpected frame type %d", typ)))
			return
		}
	}
}

// handleExec decodes, executes, peer-routes, and replies to one exec frame.
// Runs on its own goroutine; duplicates of an in-flight seq park on the
// dedup cache until the original finishes, then replay its reply.
func (w *Worker) handleExec(cs *connState, seq uint64, payload []byte, release func()) {
	defer cs.wg.Done()
	if cached, ok := cs.cache.claim(seq); ok {
		release()
		w.reply(cs, frameResult, seq, cached)
		return
	}
	t0 := time.Now()
	req, err := decodeExecRequest(payload)
	release()
	if err == nil {
		err = w.x.CheckExec(req)
	}
	if err != nil {
		cs.cache.finish(seq, nil)
		w.replyErr(cs, seq, err.Error())
		return
	}
	t1 := time.Now()
	res := w.x.Exec(context.Background(), req)
	t2 := time.Now()
	var peerBytes int64
	var peerDur time.Duration
	if res.Crash == nil && !res.StateMiss {
		peerBytes = w.routeOutbox(req, res)
		peerDur = time.Since(t2)
	}
	t2b := time.Now()
	out := encodeExecResultBody(res)
	// When the master sent trace context, time decode/compute/route/encode
	// as child spans of its exchange span and piggyback them on the result —
	// measured first, appended after, so the encode span covers exactly the
	// body it rode behind.
	var spans []obs.Span
	if req.TraceID != 0 && res.Crash == nil {
		t3 := time.Now()
		proc := "worker:" + w.Addr()
		spans = []obs.Span{
			{TraceID: req.TraceID, Parent: req.ParentSpan, Proc: proc, Name: obs.SpanDecode,
				Superstep: req.Superstep, Partition: req.Partition,
				Start: t0.UnixNano(), Dur: int64(t1.Sub(t0)), Bytes: int64(len(payload))},
			{TraceID: req.TraceID, Parent: req.ParentSpan, Proc: proc, Name: obs.SpanWorkerCompute,
				Superstep: req.Superstep, Partition: req.Partition,
				Start: t1.UnixNano(), Dur: int64(t2.Sub(t1)), Tuples: int64(len(req.Active))},
			{TraceID: req.TraceID, Parent: req.ParentSpan, Proc: proc, Name: obs.SpanEncode,
				Superstep: req.Superstep, Partition: req.Partition,
				Start: t2b.UnixNano(), Dur: int64(t3.Sub(t2b)), Bytes: int64(len(out))},
		}
		if peerDur > 0 {
			spans = append(spans, obs.Span{
				TraceID: req.TraceID, Parent: req.ParentSpan, Proc: proc, Name: obs.SpanPeerWire,
				Superstep: req.Superstep, Partition: req.Partition,
				Start: t2.UnixNano(), Dur: int64(peerDur), Bytes: peerBytes,
			})
		}
	}
	out = appendSpanSection(out, spans)
	cs.cache.finish(seq, out)
	w.reply(cs, frameResult, seq, out)
}

// routeOutbox sends a result's outbox columns to the workers
// that own their destination partitions, per the request's route: "." parks
// the column in this worker's own frag store, a peer address ships it over
// the mesh, and "" (master-resident) leaves it in the reply. A failed peer
// send also leaves the column in the reply — the master forwards it inside
// the deliver round, so one lost mesh link degrades to master relay for
// that column instead of a replay. Returns the mesh bytes written.
func (w *Worker) routeOutbox(req *engine.ExecRequest, res *engine.ExecResult) int64 {
	var bytes int64
	ctx := context.Background()
	for dp := range res.Outbox {
		col := res.Outbox[dp]
		if len(col) == 0 {
			continue
		}
		var route string
		if dp < len(req.Route) {
			route = req.Route[dp]
		}
		switch route {
		case "":
		case ".":
			w.frags.put(req.Superstep, dp, req.Partition, col)
			res.Outbox[dp] = nil
		default:
			n, err := w.mesh.sendFrag(ctx, route, &peerFrag{ss: req.Superstep, sp: req.Partition, dp: dp, msgs: col})
			bytes += n
			if err != nil {
				w.m.Tracef(obs.Warn, "transport", req.Superstep,
					"peer frag %d->%d via %s failed: %v (column falls back to master relay)",
					req.Partition, dp, route, err)
				continue
			}
			res.Outbox[dp] = nil
		}
	}
	return bytes
}

// handleDeliver runs one delivery-barrier (or collect) round for the
// partitions this worker owns, folding parked peer fragments and any
// master-supplied columns.
func (w *Worker) handleDeliver(cs *connState, seq uint64, payload []byte, release func()) {
	defer cs.wg.Done()
	if cached, ok := cs.cache.claim(seq); ok {
		release()
		w.reply(cs, frameDeliverRes, seq, cached)
		return
	}
	req, err := decodeDeliverRequest(payload)
	release()
	if err == nil {
		err = w.x.CheckDeliver(req)
	}
	if err != nil {
		cs.cache.finish(seq, nil)
		w.replyErr(cs, seq, err.Error())
		return
	}
	nParts := w.x.Partitions()
	res := &engine.DeliverResult{Parts: make([]engine.DeliverPart, len(req.Parts))}
	for i, p := range req.Parts {
		var dp *engine.DeliverPart
		if req.CollectOnly {
			dp = w.x.Collect(req.Superstep, p)
		} else {
			frags := make([][]engine.OutMessage, nParts)
			for sp := 0; sp < nParts; sp++ {
				if sp < len(req.MasterFrags[i]) && len(req.MasterFrags[i][sp]) > 0 {
					frags[sp] = req.MasterFrags[i][sp]
				} else {
					frags[sp] = w.frags.get(req.Superstep, p, sp)
				}
			}
			dp = w.x.Assemble(req.Superstep, p, req.Combine, req.Expected[i], frags)
		}
		res.Parts[i] = *dp
	}
	w.frags.prune(req.Superstep)
	out := encodeDeliverResult(res)
	cs.cache.finish(seq, out)
	w.reply(cs, frameDeliverRes, seq, out)
}

// handlePeerFrag parks one mesh fragment, consulting the peer.recv fault
// site: a recv-drop skips the store but still acks (application-level loss
// — the deliver round then comes up short and the master replays), a reset
// kills the connection unacked.
func (w *Worker) handlePeerFrag(cs *connState, seq uint64, payload []byte, release func()) {
	f, err := decodePeerFrag(payload)
	release()
	if err == nil {
		err = w.x.CheckFrag(f.sp, f.dp, f.msgs)
	}
	if err != nil {
		w.replyErr(cs, seq, err.Error())
		return
	}
	act, ferr := w.x.Fault().NetHit(context.Background(), fault.SitePeerRecv, f.ss, f.dp, int64(seq))
	if ferr == nil && act != fault.NetDrop {
		w.frags.put(f.ss, f.dp, f.sp, f.msgs)
	}
	if act == fault.NetReset {
		cs.conn.Close()
		return
	}
	w.reply(cs, framePeerAck, seq, nil)
}

// reply writes one reply frame under the connection's write mutex.
func (w *Worker) reply(cs *connState, typ byte, seq uint64, payload []byte) error {
	cs.wmu.Lock()
	n, err := writeFrame(cs.conn, typ, seq, payload)
	cs.wmu.Unlock()
	if err != nil {
		return err
	}
	w.m.Counter(obs.MetricNetMessagesSent).Add(1)
	w.m.Counter(obs.MetricNetBytesSent).Add(int64(n))
	return nil
}

func (w *Worker) replyErr(cs *connState, seq uint64, msg string) {
	cs.wmu.Lock()
	writeFrame(cs.conn, frameError, seq, []byte(msg))
	cs.wmu.Unlock()
}

// replyCache is a bounded FIFO map of encoded replies keyed by sequence
// number — the dedup half of the at-least-once contract — extended for
// pipelining with in-flight claims: the first handler of a seq claims it
// and computes, duplicates park until the claim finishes and then replay
// the cached reply (or re-claim if the original aborted).
type replyCache struct {
	mu       sync.Mutex
	cap      int
	order    []uint64
	replies  map[uint64][]byte
	inflight map[uint64]chan struct{}
}

func newReplyCache(cap int) *replyCache {
	return &replyCache{cap: cap, replies: make(map[uint64][]byte, cap), inflight: map[uint64]chan struct{}{}}
}

// claim returns the cached reply for seq, or claims the seq for this caller
// (second return false): the caller must call finish exactly once. A
// duplicate of an in-flight seq blocks until the original finishes.
func (c *replyCache) claim(seq uint64) ([]byte, bool) {
	for {
		c.mu.Lock()
		if r, ok := c.replies[seq]; ok {
			c.mu.Unlock()
			return r, true
		}
		ch, ok := c.inflight[seq]
		if !ok {
			c.inflight[seq] = make(chan struct{})
			c.mu.Unlock()
			return nil, false
		}
		c.mu.Unlock()
		<-ch
	}
}

// finish resolves a claim: caches the reply (nil on abort — a parked
// duplicate then re-claims and recomputes) and wakes waiters.
func (c *replyCache) finish(seq uint64, reply []byte) {
	c.mu.Lock()
	if ch, ok := c.inflight[seq]; ok {
		delete(c.inflight, seq)
		close(ch)
	}
	if reply != nil {
		if _, ok := c.replies[seq]; !ok {
			if len(c.order) >= c.cap {
				delete(c.replies, c.order[0])
				c.order = c.order[1:]
			}
			c.order = append(c.order, seq)
			c.replies[seq] = reply
		}
	}
	c.mu.Unlock()
}
