// Package transport runs partition supersteps on worker processes that keep
// their partitions' state resident, behind the engine's Transport seam. TCP
// is the master-side client and Worker the worker-process server: the
// master sends each partition's delta (or seed) ExecRequest to the worker
// that owns it, workers route outbox fragments to each other over a peer
// mesh, and a Deliver round folds them into the next inboxes on the
// workers. The protocol is length-prefixed, CRC-framed and versioned, and
// survives a faulty network — per-message deadlines, bounded retransmit with
// the supervision backoff policy, heartbeat liveness, reconnects, partition
// failover, and receiver-side dedup of at-least-once deliveries.
//
// The wire format reuses the repo's binary conventions: frames are
//
//	u32 length | u32 CRC-32 (IEEE) | body
//
// like the checkpoint format's record framing, and bodies are value.Blob
// encodings, so every Value crosses the wire through the same bit-exact
// codec the spill and checkpoint files use — which is what keeps a TCP run
// bit-identical to an in-process one. Frames travel uncompressed, in both
// directions and on every link (DESIGN.md §15 counts why).
package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"sync"

	"ariadne/internal/engine"
	"ariadne/internal/obs"
	"ariadne/internal/value"
)

// Version is the protocol version exchanged in the handshake. A master and
// worker must agree exactly; there is no cross-version negotiation.
// Version 2 added the trace context trailing every ExecRequest and a span
// section trailing every ExecResult. Version 3 added exec modes (delta/seed
// exchanges for worker-resident state), deliver and peer-frag frames, the
// handshake capability mask, and snap-compressed frames. Version 4 drops
// the stateless exchange that shipped whole frontiers: delta is mode 0, seed
// mode 1, and a result no longer carries new values. Version 5 drops snap
// compression: the hello carries no capability mask and frame type 13 is
// retired. Version 6 replaces the request's observing flag with the
// master's record field mask (engine.Fields) and adds each record's SentAny
// flag, so a worker builds exactly the records the master's observers read.
const Version = 6

// maxFrame bounds a frame body so a corrupt length prefix fails fast
// instead of provoking a giant allocation.
const maxFrame = 1 << 30

// Frame types.
const (
	frameHello      byte = 1  // master -> worker: version + graph fingerprint
	frameWelcome    byte = 2  // worker -> master: handshake accepted (echoes fingerprint)
	frameExec       byte = 3  // master -> worker: ExecRequest
	frameResult     byte = 4  // worker -> master: ExecResult
	framePing       byte = 5  // master -> worker: liveness probe
	framePong       byte = 6  // worker -> master: liveness ack
	frameError      byte = 7  // worker -> master: protocol-level failure (text)
	frameDrain      byte = 8  // worker -> master: draining; route new work elsewhere
	frameDeliver    byte = 9  // master -> worker: DeliverRequest (barrier / collect round)
	frameDeliverRes byte = 10 // worker -> master: DeliverResult
	framePeerFrag   byte = 11 // worker -> worker: one outbox column over the mesh
	framePeerAck    byte = 12 // worker -> worker: frag stored
)

var errBadFrame = errors.New("transport: corrupt frame")

// frameBufs pools frame scratch buffers: writeFrame's single-write encode
// buffer and the pooled read path's body buffers. Steady-state framing
// allocates nothing (the BenchmarkWireFrame allocs/op pin).
var frameBufs = sync.Pool{New: func() any { b := make([]byte, 0, 4096); return &b }}

func getFrameBuf() *[]byte  { return frameBufs.Get().(*[]byte) }
func putFrameBuf(b *[]byte) { frameBufs.Put(b) }

// writeFrame writes one frame: header (length + CRC over the body), then
// body = type byte, uvarint seq, payload. The frame is assembled in one
// pooled buffer and written with a single Write, so a concurrent writer
// under an external mutex never interleaves partial frames and the fast
// path allocates nothing.
func writeFrame(w io.Writer, typ byte, seq uint64, payload []byte) (int, error) {
	bp := getFrameBuf()
	buf := (*bp)[:0]
	buf = append(buf, 0, 0, 0, 0, 0, 0, 0, 0)
	buf = append(buf, typ)
	buf = binary.AppendUvarint(buf, seq)
	buf = append(buf, payload...)
	binary.LittleEndian.PutUint32(buf[0:4], uint32(len(buf)-8))
	binary.LittleEndian.PutUint32(buf[4:8], crc32.ChecksumIEEE(buf[8:]))
	n, err := w.Write(buf)
	*bp = buf
	putFrameBuf(bp)
	return n, err
}

// readFrame reads and verifies one frame, returning its type, sequence
// number, and payload. The payload is freshly allocated and owned by the
// caller — use readFramePooled where the payload's lifetime ends at decode.
func readFrame(r io.Reader) (typ byte, seq uint64, payload []byte, n int, err error) {
	typ, seq, payload, _, n, err = parseFrame(r, nil)
	return typ, seq, payload, n, err
}

// readFramePooled is readFrame with a pooled body buffer: the returned
// payload is only valid until release is called, which the caller must do
// exactly once after decoding (the blob codec copies everything out, so
// nothing aliases the buffer afterwards). release is non-nil iff err is
// nil.
func readFramePooled(r io.Reader) (typ byte, seq uint64, payload []byte, n int, release func(), err error) {
	bp := getFrameBuf()
	typ, seq, payload, *bp, n, err = parseFrame(r, *bp)
	if err != nil {
		putFrameBuf(bp)
		return 0, 0, nil, 0, nil, err
	}
	return typ, seq, payload, n, func() { putFrameBuf(bp) }, nil
}

// parseFrame reads one frame's body into buf, grown when the body is
// longer (a nil buf: a fresh body), and verifies it: the length bound, the
// CRC and the seq. It returns the frame's type, seq and payload, which is a
// window of the body, its size on the wire, and the body buffer for the
// caller to keep.
func parseFrame(r io.Reader, buf []byte) (typ byte, seq uint64, payload, body []byte, n int, err error) {
	var hdr [8]byte
	if _, err = io.ReadFull(r, hdr[:]); err != nil {
		return 0, 0, nil, buf, 0, err
	}
	length := binary.LittleEndian.Uint32(hdr[0:4])
	want := binary.LittleEndian.Uint32(hdr[4:8])
	if length == 0 || length > maxFrame {
		return 0, 0, nil, buf, 0, fmt.Errorf("%w: body length %d", errBadFrame, length)
	}
	if body = buf[:0]; cap(body) < int(length) {
		body = make([]byte, length)
	} else {
		body = body[:length]
	}
	if _, err = io.ReadFull(r, body); err != nil {
		return 0, 0, nil, body, 0, err
	}
	if got := crc32.ChecksumIEEE(body); got != want {
		return 0, 0, nil, body, 0, fmt.Errorf("%w: CRC mismatch (got %08x want %08x)", errBadFrame, got, want)
	}
	seq, k := binary.Uvarint(body[1:])
	if k <= 0 {
		return 0, 0, nil, body, 0, fmt.Errorf("%w: truncated seq", errBadFrame)
	}
	return body[0], seq, body[1+k:], body, 8 + int(length), nil
}

// Fingerprint identifies the run a connection belongs to: partition count
// and graph shape. The hello carries it after the protocol version. Master
// and worker (and two mesh workers) must have loaded the same graph with
// the same partitioning or results would silently diverge — the handshake
// turns that into an immediate, explicit error.
type Fingerprint struct {
	Partitions  int
	NumVertices int
	NumEdges    int
}

// encodeHello builds a hello/welcome payload: the protocol version, then
// the fingerprint.
func encodeHello(f Fingerprint) []byte {
	b := value.NewBlob()
	b.Uvarint(Version)
	b.Uvarint(uint64(f.Partitions))
	b.Uvarint(uint64(f.NumVertices))
	b.Uvarint(uint64(f.NumEdges))
	return b.Bytes()
}

// decodeHello compares the version before reading anything else, so a peer
// of another version is named as such whatever the rest of its hello holds.
func decodeHello(p []byte) (Fingerprint, error) {
	r := value.NewBlobReader(p)
	if v := r.Uvarint(); r.Err() == nil && v != Version {
		return Fingerprint{}, fmt.Errorf("transport: protocol version mismatch: peer %d, ours %d", v, Version)
	}
	f := Fingerprint{
		Partitions:  int(r.Uvarint()),
		NumVertices: int(r.Uvarint()),
		NumEdges:    int(r.Uvarint()),
	}
	if r.Err() != nil {
		return f, fmt.Errorf("transport: corrupt handshake: %w", r.Err())
	}
	return f, nil
}

// appendRoute / readRoute carry the peer-mesh routing table of an exec
// request: Route[dp] is the owning worker's address, "." for the
// executing worker itself, "" for master-resident partitions.
func appendRoute(b *value.Blob, route []string) {
	b.Uvarint(uint64(len(route)))
	for _, addr := range route {
		b.String(addr)
	}
}

func readRoute(r *value.BlobReader) []string {
	n := r.Count()
	if n == 0 {
		return nil
	}
	route := make([]string, n)
	for i := range route {
		route[i] = r.String()
	}
	return route
}

// appendInMsgs / readInMsgs carry one vertex's received messages: a seed's
// inbox lists, a record's Received, a collected inbox chunk.
func appendInMsgs(b *value.Blob, msgs []engine.IncomingMessage) {
	b.Uvarint(uint64(len(msgs)))
	for _, m := range msgs {
		b.Uvarint(uint64(m.Src))
		b.Value(m.Val)
	}
}

func readInMsgs(r *value.BlobReader) []engine.IncomingMessage {
	k := r.Count()
	if k == 0 {
		return nil
	}
	msgs := make([]engine.IncomingMessage, k)
	for j := range msgs {
		msgs[j] = engine.IncomingMessage{Src: engine.VertexID(r.Uvarint()), Val: r.Value()}
	}
	return msgs
}

func appendOutMsgs(b *value.Blob, msgs []engine.OutMessage) {
	b.Uvarint(uint64(len(msgs)))
	for _, m := range msgs {
		b.Uvarint(uint64(m.Src))
		b.Uvarint(uint64(m.Dst))
		b.Value(m.Val)
	}
}

func readOutMsgs(r *value.BlobReader) []engine.OutMessage {
	k := r.Count()
	if k == 0 {
		return nil
	}
	msgs := make([]engine.OutMessage, k)
	for j := range msgs {
		msgs[j] = engine.OutMessage{
			Src: engine.VertexID(r.Uvarint()),
			Dst: engine.VertexID(r.Uvarint()),
			Val: r.Value(),
		}
	}
	return msgs
}

// encodeExecRequest serializes a partition superstep request. Delta and seed
// share the prefix up to the mesh route; a seed then adds the stride state
// install and the inbox of each active vertex.
func encodeExecRequest(req *engine.ExecRequest) []byte {
	b := value.NewBlob()
	b.Uvarint(uint64(req.Superstep))
	b.Uvarint(uint64(req.Partition))
	b.Uvarint(uint64(req.Mode))
	b.Uvarint(uint64(req.Fields))
	b.Bool(req.Combine)
	b.Uvarint(uint64(len(req.Active)))
	for _, v := range req.Active {
		b.Uvarint(uint64(v))
	}
	appendRoute(b, req.Route)
	if req.Mode == engine.ModeSeed {
		b.Uvarint(uint64(len(req.AllValues)))
		for i, v := range req.AllValues {
			b.Value(v)
			b.Int(int64(req.AllActive[i]))
		}
		for _, msgs := range req.Inbox {
			appendInMsgs(b, msgs)
		}
	}
	// Aggregators in sorted-name order for a canonical encoding.
	names := make([]string, 0, len(req.Agg))
	for name := range req.Agg {
		names = append(names, name)
	}
	sortStrings(names)
	b.Uvarint(uint64(len(names)))
	for _, name := range names {
		b.String(name)
		b.Float(req.Agg[name])
	}
	// Trace context (both zero when span tracing is off).
	b.Uvarint(req.TraceID)
	b.Uvarint(req.ParentSpan)
	return b.Bytes()
}

func decodeExecRequest(p []byte) (*engine.ExecRequest, error) {
	r := value.NewBlobReader(p)
	req := &engine.ExecRequest{
		Superstep: int(r.Uvarint()),
		Partition: int(r.Uvarint()),
	}
	switch mode := r.Uvarint(); mode {
	case uint64(engine.ModeDelta), uint64(engine.ModeSeed):
		req.Mode = engine.ExecMode(mode)
	default:
		return nil, fmt.Errorf("transport: corrupt exec request: unknown mode %d", mode)
	}
	fields := r.Uvarint()
	if fields >= uint64(engine.FieldRecords)<<1 {
		return nil, fmt.Errorf("transport: corrupt exec request: unknown record fields %#x", fields)
	}
	req.Fields = engine.Fields(fields)
	req.Combine = r.Bool()
	n := r.Count()
	req.Active = make([]engine.VertexID, n)
	for i := 0; i < n; i++ {
		req.Active[i] = engine.VertexID(r.Uvarint())
	}
	req.Route = readRoute(r)
	if req.Mode == engine.ModeSeed {
		k := r.Count()
		req.AllValues = make([]value.Value, k)
		req.AllActive = make([]int32, k)
		for i := 0; i < k; i++ {
			req.AllValues[i] = r.Value()
			req.AllActive[i] = int32(r.Int())
		}
		req.Inbox = make([][]engine.IncomingMessage, n)
		for i := range req.Inbox {
			req.Inbox[i] = readInMsgs(r)
		}
	}
	if k := r.Count(); k > 0 {
		req.Agg = make(map[string]float64, k)
		for j := 0; j < k; j++ {
			name := r.String()
			req.Agg[name] = r.Float()
		}
	}
	req.TraceID = r.Uvarint()
	req.ParentSpan = r.Uvarint()
	if r.Err() != nil {
		return nil, fmt.Errorf("transport: corrupt exec request: %w", r.Err())
	}
	if r.Len() != 0 {
		return nil, fmt.Errorf("transport: corrupt exec request: %d trailing bytes", r.Len())
	}
	return req, nil
}

// encodeExecResult serializes a completed partition superstep: the result
// body followed by the span section (always present, count 0 when the run
// is untraced).
func encodeExecResult(res *engine.ExecResult) []byte {
	return appendSpanSection(encodeExecResultBody(res), res.Spans)
}

// appendSpanSection appends the piggybacked worker spans after an encoded
// result body. Split from the body encoder so the worker can time the body
// encode and then attach the span that measured it.
func appendSpanSection(body []byte, spans []obs.Span) []byte {
	b := value.NewBlob()
	obs.EncodeSpans(b, spans)
	return append(body, b.Bytes()...)
}

// encodeExecResultBody serializes a completed partition superstep without
// the trailing span section.
func encodeExecResultBody(res *engine.ExecResult) []byte {
	b := value.NewBlob()
	b.Uvarint(uint64(res.Partition))
	b.Bool(res.Crash != nil)
	if c := res.Crash; c != nil {
		b.Uvarint(uint64(c.Vertex))
		b.Uvarint(uint64(c.Superstep))
		b.String(c.Message)
		b.Bool(c.Panic)
		b.Bool(c.Injected)
		b.Bool(c.Deadline)
		b.Bool(c.Canceled)
		return b.Bytes()
	}
	b.Bool(res.StateMiss)
	if res.StateMiss {
		return b.Bytes()
	}
	b.Uvarint(uint64(len(res.Outbox)))
	for _, msgs := range res.Outbox {
		appendOutMsgs(b, msgs)
	}
	b.Uvarint(uint64(len(res.Records)))
	for i := range res.Records {
		rec := &res.Records[i]
		b.Uvarint(uint64(rec.ID))
		b.Uvarint(uint64(rec.Superstep))
		b.Int(int64(rec.PrevActive))
		b.Value(rec.OldValue)
		b.Value(rec.NewValue)
		b.Bool(rec.SentAny)
		appendInMsgs(b, rec.Received)
		b.Uvarint(uint64(len(rec.Sent)))
		for _, m := range rec.Sent {
			b.Uvarint(uint64(m.Dst))
			b.Value(m.Val)
		}
		b.Uvarint(uint64(rec.Emitted.Len()))
		for k := range rec.Emitted.Len() {
			t, row := rec.Emitted.Fact(k)
			b.String(t.Name())
			b.Uvarint(uint64(t.Arity()))
			for c := range t.Arity() {
				b.Value(t.Value(c, row))
			}
		}
	}
	b.Int(res.Sent)
	b.Int(res.CombinedSender)
	b.Uvarint(uint64(len(res.Agg)))
	for _, u := range res.Agg {
		b.String(u.Name)
		b.Uvarint(uint64(u.Op))
		b.Float(u.Val)
		b.Int(u.N)
	}
	b.Uvarint(uint64(len(res.DstCounts)))
	for _, c := range res.DstCounts {
		b.Int(c)
	}
	return b.Bytes()
}

func decodeExecResult(p []byte) (*engine.ExecResult, error) {
	r := value.NewBlobReader(p)
	res := &engine.ExecResult{Partition: int(r.Uvarint())}
	if r.Bool() {
		res.Crash = &engine.RemoteCrash{
			Vertex:    engine.VertexID(r.Uvarint()),
			Superstep: int(r.Uvarint()),
			Message:   r.String(),
			Panic:     r.Bool(),
			Injected:  r.Bool(),
			Deadline:  r.Bool(),
			Canceled:  r.Bool(),
		}
	} else if r.Bool() {
		res.StateMiss = true
	} else {
		decodeExecResultBody(r, res)
	}
	res.Spans, _ = obs.DecodeSpans(r)
	if r.Err() != nil {
		return nil, fmt.Errorf("transport: corrupt exec result: %w", r.Err())
	}
	return res, nil
}

// decodeExecResultBody reads a completed superstep's outbox columns,
// records, accounting, aggregator partials and fan-out counts.
func decodeExecResultBody(r *value.BlobReader, res *engine.ExecResult) {
	res.Outbox = make([][]engine.OutMessage, r.Count())
	for dp := range res.Outbox {
		res.Outbox[dp] = readOutMsgs(r)
	}
	if nRecs := r.Count(); nRecs > 0 {
		res.Records = decodeRecords(r, nRecs)
	}
	res.Sent = r.Int()
	res.CombinedSender = r.Int()
	if k := r.Count(); k > 0 {
		res.Agg = make([]engine.AggUpdate, k)
		for j := 0; j < k; j++ {
			res.Agg[j] = engine.AggUpdate{
				Name: r.String(),
				Op:   engine.AggOp(r.Uvarint()),
				Val:  r.Float(),
				N:    r.Int(),
			}
		}
	}
	if k := r.Count(); k > 0 {
		res.DstCounts = make([]int64, k)
		for j := 0; j < k; j++ {
			res.DstCounts[j] = r.Int()
		}
	}
}

// decodeRecords reads a frame's nRecs records. Their facts are read first
// into one flat slice, each as its table id followed by its arguments, then
// moved into one fact store for the frame, sized from the tables' row
// counts, in emission order; each record's Emitted is a view into it. A
// table name decoded before in the frame is not allocated again.
func decodeRecords(r *value.BlobReader, nRecs int) []engine.VertexRecord {
	recs := make([]engine.VertexRecord, nRecs)
	var (
		facts  *engine.FactStore
		counts []int32       // each record's fact count
		flat   []value.Value // every fact: its table id (an Int), then its arguments
		tables []frameTable
	)
	for i := range recs {
		rec := &recs[i]
		rec.ID = engine.VertexID(r.Uvarint())
		rec.Superstep = int(r.Uvarint())
		rec.PrevActive = int(r.Int())
		rec.OldValue = r.Value()
		rec.NewValue = r.Value()
		rec.SentAny = r.Bool()
		rec.Received = readInMsgs(r)
		if k := r.Count(); k > 0 {
			rec.Sent = make([]engine.SentMessage, k)
			for j := 0; j < k; j++ {
				rec.Sent[j] = engine.SentMessage{Dst: engine.VertexID(r.Uvarint()), Val: r.Value()}
			}
		}
		k := r.Count()
		if k == 0 {
			continue
		}
		if facts == nil {
			facts, counts = &engine.FactStore{}, make([]int32, nRecs)
		}
		counts[i] = int32(k)
		for j := 0; j < k; j++ {
			raw, na := r.Raw(), r.Count()
			t := 0
			for t < len(tables) && (tables[t].arity != na || tables[t].name != string(raw)) {
				t++
			}
			if t == len(tables) {
				name := string(raw)
				tables = append(tables, frameTable{name: name, arity: na, id: facts.Intern(name, na)})
			}
			tables[t].rows++
			flat = append(flat, value.NewInt(int64(tables[t].id)))
			for ; na > 0; na-- {
				flat = append(flat, r.Value())
			}
		}
	}
	if facts == nil {
		return recs
	}
	for _, t := range tables {
		facts.Grow(t.id, t.rows)
	}
	for i, k := range counts {
		for ; k > 0; k-- {
			id := int32(flat[0].Int())
			na := facts.Table(id).Arity()
			facts.Append(id, flat[1:1+na]...)
			flat = flat[1+na:]
		}
		if counts[i] > 0 {
			recs[i].Emitted = facts.EndRecord()
		}
	}
	return recs
}

// frameTable is one (name, arity) table met in a frame's facts: its id in
// the frame's store and its row count.
type frameTable struct {
	name        string
	arity, rows int
	id          int32
}

// encodeDeliverRequest serializes one worker's slice of the delivery
// barrier (or collect) round.
func encodeDeliverRequest(req *engine.DeliverRequest) []byte {
	b := value.NewBlob()
	b.Uvarint(uint64(req.Superstep))
	b.Bool(req.CollectOnly)
	b.Bool(req.Combine)
	b.Uvarint(uint64(len(req.Parts)))
	for _, p := range req.Parts {
		b.Uvarint(uint64(p))
	}
	if !req.CollectOnly {
		for i := range req.Parts {
			exp := req.Expected[i]
			b.Uvarint(uint64(len(exp)))
			for _, c := range exp {
				b.Uvarint(uint64(c))
			}
			mf := req.MasterFrags[i]
			b.Uvarint(uint64(len(mf)))
			for _, msgs := range mf {
				appendOutMsgs(b, msgs)
			}
		}
	}
	b.Uvarint(req.TraceID)
	b.Uvarint(req.ParentSpan)
	return b.Bytes()
}

func decodeDeliverRequest(p []byte) (*engine.DeliverRequest, error) {
	r := value.NewBlobReader(p)
	req := &engine.DeliverRequest{
		Superstep:   int(r.Uvarint()),
		CollectOnly: r.Bool(),
		Combine:     r.Bool(),
	}
	n := r.Count()
	req.Parts = make([]int, n)
	for i := 0; i < n; i++ {
		req.Parts[i] = int(r.Uvarint())
	}
	if !req.CollectOnly {
		req.Expected = make([][]int64, n)
		req.MasterFrags = make([][][]engine.OutMessage, n)
		for i := 0; i < n; i++ {
			k := r.Count()
			exp := make([]int64, k)
			for j := 0; j < k; j++ {
				exp[j] = int64(r.Uvarint())
			}
			req.Expected[i] = exp
			k = r.Count()
			mf := make([][]engine.OutMessage, k)
			for j := 0; j < k; j++ {
				mf[j] = readOutMsgs(r)
			}
			req.MasterFrags[i] = mf
		}
	}
	req.TraceID = r.Uvarint()
	req.ParentSpan = r.Uvarint()
	if r.Err() != nil {
		return nil, fmt.Errorf("transport: corrupt deliver request: %w", r.Err())
	}
	return req, nil
}

// encodeDeliverResult serializes the per-partition outcomes of one deliver
// round.
func encodeDeliverResult(res *engine.DeliverResult) []byte {
	b := value.NewBlob()
	b.Uvarint(uint64(len(res.Parts)))
	for i := range res.Parts {
		dp := &res.Parts[i]
		b.Uvarint(uint64(dp.Partition))
		b.Bool(dp.OK)
		if !dp.OK {
			continue
		}
		b.Uvarint(uint64(dp.Delivered))
		b.Uvarint(uint64(dp.Combined))
		b.Uvarint(uint64(len(dp.Dsts)))
		for _, v := range dp.Dsts {
			b.Uvarint(uint64(v))
		}
		b.Uvarint(uint64(len(dp.Values)))
		for _, v := range dp.Values {
			b.Value(v)
		}
		b.Uvarint(uint64(len(dp.Inbox)))
		for _, en := range dp.Inbox {
			b.Uvarint(uint64(en.Dst))
			appendInMsgs(b, en.Msgs)
		}
	}
	return b.Bytes()
}

func decodeDeliverResult(p []byte) (*engine.DeliverResult, error) {
	r := value.NewBlobReader(p)
	n := r.Count()
	res := &engine.DeliverResult{Parts: make([]engine.DeliverPart, n)}
	for i := 0; i < n; i++ {
		dp := &res.Parts[i]
		dp.Partition = int(r.Uvarint())
		dp.OK = r.Bool()
		if !dp.OK {
			continue
		}
		dp.Delivered = int64(r.Uvarint())
		dp.Combined = int64(r.Uvarint())
		k := r.Count()
		dp.Dsts = make([]engine.VertexID, k)
		for j := 0; j < k; j++ {
			dp.Dsts[j] = engine.VertexID(r.Uvarint())
		}
		if k := r.Count(); k > 0 {
			dp.Values = make([]value.Value, k)
			for j := 0; j < k; j++ {
				dp.Values[j] = r.Value()
			}
		}
		if k := r.Count(); k > 0 {
			dp.Inbox = make([]engine.InboxChunk, k)
			for j := 0; j < k; j++ {
				dp.Inbox[j].Dst = engine.VertexID(r.Uvarint())
				dp.Inbox[j].Msgs = readInMsgs(r)
			}
		}
	}
	if r.Err() != nil {
		return nil, fmt.Errorf("transport: corrupt deliver result: %w", r.Err())
	}
	return res, nil
}

// peerFrag is one outbox column crossing the worker mesh: source partition
// sp's messages for destination partition dp, emitted at superstep ss.
type peerFrag struct {
	ss, sp, dp int
	msgs       []engine.OutMessage
}

func encodePeerFrag(f *peerFrag) []byte {
	b := value.NewBlob()
	b.Uvarint(uint64(f.ss))
	b.Uvarint(uint64(f.sp))
	b.Uvarint(uint64(f.dp))
	appendOutMsgs(b, f.msgs)
	return b.Bytes()
}

func decodePeerFrag(p []byte) (*peerFrag, error) {
	r := value.NewBlobReader(p)
	f := &peerFrag{
		ss: int(r.Uvarint()),
		sp: int(r.Uvarint()),
		dp: int(r.Uvarint()),
	}
	f.msgs = readOutMsgs(r)
	if r.Err() != nil {
		return nil, fmt.Errorf("transport: corrupt peer frag: %w", r.Err())
	}
	return f, nil
}

// sortStrings is an insertion sort — aggregator maps hold a handful of
// names, not worth pulling in sort for an interface allocation per call.
func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}
