package provenance

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"

	"ariadne/internal/engine"
	"ariadne/internal/fault"
	"ariadne/internal/obs"
	"ariadne/internal/pql/eval"
)

// ErrBudgetExceeded is returned when the in-memory provenance exceeds the
// configured budget and no spill directory is available — the condition
// under which the paper's prototype could not capture full ALS provenance
// (§6.1: "the size of provenance for the smallest dataset, for one
// superstep, exceeded 80GB").
var ErrBudgetExceeded = errors.New("provenance: memory budget exceeded and no spill directory configured")

// StoreConfig controls the provenance store.
type StoreConfig struct {
	// MemoryBudget caps the bytes of resident layer images; 0 means
	// unlimited. It counts image lengths: once layers spill, a new image's
	// buffer has an eighth of headroom so later layers can reuse it.
	MemoryBudget int64
	// SpillDir, when set, receives the oldest layers as binary files once
	// the budget is exceeded (the stand-in for the paper's asynchronous
	// HDFS offload).
	SpillDir string
	// SpillAll writes every layer to SpillDir immediately and keeps nothing
	// resident — the paper's capture-for-offline-querying mode, where the
	// provenance graph lives in HDFS and offline evaluation pays the cost
	// of reading it back (§6.2: offline timings include loading the
	// captured provenance, not capturing it).
	SpillAll bool
	// Fault, when set, injects transient I/O errors into layer-file writes
	// (fault.SiteSpillWrite) to exercise the retry path.
	Fault *fault.Injector
	// Metrics, when set, receives capture-size counters, spill
	// bytes/durations, and warning trace events when a layer write falls
	// back to retry under (injected or real) I/O faults. nil disables
	// instrumentation.
	Metrics *obs.Metrics
}

// Validate rejects a configuration no store can honor, so a run can refuse
// it before computing anything.
func (c StoreConfig) Validate() error {
	if c.SpillAll && c.SpillDir == "" {
		return errors.New("provenance: SpillAll requires a SpillDir")
	}
	return nil
}

// spillQueue bounds the async spill pipeline: at most this many layer
// writes may be queued or in flight before an append blocks (backpressure)
// — double-buffering, one layer being written while the next is queued.
const spillQueue = 2

// CaptureGap records a contiguous superstep range whose provenance was
// shed under degraded-mode capture: the analytic kept running (Theorem 5.4
// non-interference), but layers From..To hold no tuples for Partition.
// Partition -1 means the whole layer was shed. Gaps surface in PQL as the
// static EDB capture_gap(Partition, From, To), so an offline query can
// tell "no result" apart from "provenance not captured here".
type CaptureGap struct {
	Partition int    `json:"partition"`
	From      int    `json:"from"`
	To        int    `json:"to"`
	Reason    string `json:"reason,omitempty"`
}

// Store holds the captured provenance graph as a sequence of layers, with
// size accounting and optional spill-to-disk. A layer has one
// representation from capture to disk: its finished columnar file image. A
// resident layer is the image in memory, a spilled one the same bytes in a
// file; reads open either with openColumnar and decode only the projected
// blocks, into LayerViews.
//
// Concurrency: the Store API is single-goroutine (the engine's observe
// phase). The async spill pipeline adds exactly one background writer
// goroutine, which only ever reads the images handed to it via the jobs
// channel and touches the (internally synchronized) metrics registry; all
// Store state, including the pending set, stays owned by the caller
// goroutine.
type Store struct {
	cfg StoreConfig

	images [][]byte // resident layer images; nil once handed to the spill path
	files  []string // spill file of each layer, "" while resident

	resident    int64 // image bytes of resident layers
	totalBytes  int64 // serialized bytes ever captured (resident + spilled)
	diskBytes   int64 // actual on-disk bytes of spilled layer files
	totalTuples int64
	vertices    vertexSet // distinct captured vertices

	gaps []CaptureGap // shed ranges, ordered by (Partition, From)

	// telemetry is the run's execution profile, attached after the run so
	// offline PQL evaluation can feed the telemetry EDBs (superstep_profile,
	// net_rpc) alongside the provenance itself.
	telemetry Telemetry

	// Async spill pipeline state: the background writer takes finished
	// images from jobs (at most spillQueue waiting) and reports on done.
	// pending holds the images whose file write is queued or in flight —
	// logically spilled (accounting already moved) but still readable from
	// memory. asyncErr is the sticky first write failure, surfaced at the
	// next append or Sync and cleared once reported; the failed image
	// reverts to resident before it surfaces.
	jobs        chan spillJob
	done        chan spillDone
	pending     map[int][]byte
	outstanding int
	highWater   int64
	asyncErr    error

	rows   *LayerBuilder // AppendLayer's, reused across layers
	stitch stitcher
	work   decodeWork // what layer reads decoded, per column
	views  LayerViews // Layer's and AppendLayer's decode arenas, reused from call to call
	sent   edgeTally  // the sends of the last layer when AppendLayer appended it
}

// vertexSet is a growable bitset of vertex IDs with a count of its members.
// It grows in pages of 64 Ki vertices, so one large ID (a vertex read back
// from a layer file) costs one page, not a bitmap up to it.
type vertexSet struct {
	pages [][]uint64
	n     int
}

// add puts v in the set.
func (vs *vertexSet) add(v VertexID) {
	p, bit := int(v>>16), v&0xffff
	if p >= len(vs.pages) {
		vs.pages = append(vs.pages, make([][]uint64, p+1-len(vs.pages))...)
	}
	pg := vs.pages[p]
	if pg == nil {
		pg = make([]uint64, 1<<10)
		vs.pages[p] = pg
	}
	w, m := &pg[bit>>6], uint64(1)<<(bit&63)
	if *w&m == 0 {
		*w |= m
		vs.n++
	}
}

// NewStore creates an empty store.
func NewStore(cfg StoreConfig) *Store {
	return &Store{cfg: cfg, rows: NewLayerBuilder(0), sent: edgeTally{ss: -1}}
}

type spillJob struct {
	idx  int
	path string
	img  []byte
	// attrSS is the superstep whose append triggered this spill — the
	// profile the write's bytes/duration are attributed to, regardless of
	// when the background write completes.
	attrSS int
}

type spillDone struct {
	idx int
	err error
}

// startWriter starts the background writer the first time an async spill
// is needed, so stores that never spill never spawn a goroutine. done holds
// one more completion than can be outstanding, so the writer never blocks.
func (s *Store) startWriter() {
	s.jobs, s.done = make(chan spillJob, spillQueue), make(chan spillDone, spillQueue+1)
	s.pending = make(map[int][]byte)
	go func(jobs <-chan spillJob, done chan<- spillDone) {
		for j := range jobs {
			done <- spillDone{idx: j.idx, err: s.spillLayer(j.path, j.img, j.idx, j.attrSS)}
		}
		close(done)
	}(s.jobs, s.done)
}

// enqueueSpill hands layer i's image to the spill pipeline. Accounting
// happens at enqueue — the layer is logically spilled from this point,
// though reads still serve it from the pending set until the write
// completes. A full queue blocks, draining completions while waiting
// (backpressure instead of unbounded buffering).
func (s *Store) enqueueSpill(i int) {
	if s.jobs == nil {
		s.startWriter()
	}
	img := s.images[i]
	path := filepath.Join(s.cfg.SpillDir, layerFileName(i))
	s.pending[i] = img
	job := spillJob{idx: i, path: path, img: img, attrSS: len(s.images) - 1} // the superstep being appended
send:
	for {
		select {
		case s.jobs <- job:
			break send
		case d := <-s.done:
			s.complete(d)
		}
	}
	s.outstanding++
	s.highWater = max(s.highWater, int64(s.outstanding))
	s.cfg.Metrics.SpillQueue(int64(s.outstanding), s.highWater)
	s.resident -= int64(len(img))
	s.images[i] = nil
	s.files[i] = path
}

// complete applies one writer completion: a success finalizes the spill; a
// failure turns the image back into a resident layer and latches the first
// error so the next append (or Sync) reports it — the async-spill error
// contract.
func (s *Store) complete(d spillDone) {
	s.outstanding--
	img := s.pending[d.idx]
	delete(s.pending, d.idx)
	if d.err == nil {
		s.diskBytes += int64(len(img))
		s.stitch.reuse(img)
	} else {
		s.images[d.idx] = img
		s.files[d.idx] = ""
		s.resident += int64(len(img))
		if s.asyncErr == nil {
			s.asyncErr = fmt.Errorf("provenance: spilling layer %d: %w", d.idx, d.err)
		}
	}
	s.cfg.Metrics.SpillQueue(int64(s.outstanding), s.highWater)
}

// drainCompletions consumes any writer completions without blocking.
func (s *Store) drainCompletions() {
	for s.done != nil {
		select {
		case d := <-s.done:
			s.complete(d)
		default:
			return
		}
	}
}

// Sync blocks until every queued layer write has completed and returns (and
// clears) the first write error, if any. Checkpointing calls this before
// using NumLayers() as a recovery watermark: a layer counted by the
// watermark must actually be durable on disk.
func (s *Store) Sync() error {
	for s.outstanding > 0 {
		s.complete(<-s.done)
	}
	err := s.asyncErr
	s.asyncErr = nil
	return err
}

// AppendLayer adds a row-shaped layer for the next superstep by encoding it
// through the same LayerBuilder capture uses (see Append). The layer
// derives its receive payloads (LayerBuilder.DeriveRecvValues) when
// derivable finds them to be the previous layer's sends, so replaying a
// capture's layers writes the capture's files; any other layer stores its
// payloads.
func (s *Store) AppendLayer(l *Layer) error {
	s.rows.Reset(l.Superstep)
	if s.derivable(l) {
		s.rows.DeriveRecvValues()
	}
	sent := edgeTally{ss: l.Superstep}
	for i := range l.Records {
		r := &l.Records[i]
		s.rows.add(r)
		for _, m := range r.Sends {
			sent.add(r.Vertex, m.Peer)
		}
	}
	if err := s.Append(l.Superstep, s.rows); err != nil {
		return err
	}
	s.sent = sent
	return nil
}

// edgeTally counts the messages of one layer, sent or received, and sums a
// hash of each one's sender and receiver: a layer whose receives are its
// predecessor's sends tallies them alike.
type edgeTally struct {
	ss  int // the layer's superstep
	n   int
	sum uint64
}

// add tallies the message from src to dst (splitmix64's finaliser mixes
// the pair).
func (t *edgeTally) add(src, dst VertexID) {
	x := uint64(src)<<32 | uint64(dst)
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	t.n, t.sum = t.n+1, t.sum+(x^x>>31)
}

// derivable reports whether l, the next layer, may derive its receive
// payloads: it receives something, ascends by vertex and follows a layer
// without a capture gap, and deriving its receives from that layer's stored
// sends gives back exactly the payloads it holds. When AppendLayer appended
// that layer, the tally of its sends turns away, without a decode, a layer
// whose receives are not those sends; after a layer captured, reattached
// or kept by a truncation, the decode decides alone. A failed read of the
// previous layer only means l stores its payloads.
func (s *Store) derivable(l *Layer) bool {
	ss := l.Superstep
	if ss == 0 || ss != len(s.images) || s.Gapped(ss-1) {
		return false
	}
	var recvd edgeTally
	for i := range l.Records {
		r := &l.Records[i]
		if i > 0 && r.Vertex <= l.Records[i-1].Vertex {
			return false
		}
		for _, m := range r.Recvs {
			recvd.add(m.Peer, r.Vertex)
		}
	}
	if recvd.n == 0 || s.sent.ss == ss-1 && (recvd.n != s.sent.n || recvd.sum != s.sent.sum) {
		return false
	}
	v := &s.views
	v.Superstep, v.Records, v.recvs = ss, v.Records[:0], v.recvs[:0]
	reserve(&v.recvs, recvd.n)
	for i := range l.Records {
		r := &l.Records[i]
		ms := window(&v.recvs, len(r.Recvs))
		for j, m := range r.Recvs {
			ms[j] = engine.IncomingMessage{Src: m.Peer}
		}
		v.Records = append(v.Records, eval.RecordView{Vertex: int64(r.Vertex), Recvs: ms})
	}
	var work decodeWork // a check, not a read: DecodeWork leaves it out
	if v.deriveRecvs(s, ss-1, &work) != nil {
		return false
	}
	for i := range l.Records {
		for j, m := range l.Records[i].Recvs {
			if !m.Val.Identical(v.Records[i].Recvs[j].Val) {
				return false
			}
		}
	}
	return true
}

// Append adds the layer of superstep ss, whose records segs hold between
// them (see LayerBuilder): each in ascending vertex order and no vertex in
// two, or a single segment in any order. The segments are stitched into the
// layer's image here, and each may be Reset for the next layer as soon as
// Append returns. Layers must arrive in superstep order. When the memory
// budget is exceeded the oldest resident layers spill to disk; without a
// spill directory the append fails with ErrBudgetExceeded.
func (s *Store) Append(ss int, segs ...*LayerBuilder) error {
	if err := s.cfg.Validate(); err != nil {
		return err
	}
	if ss != len(s.images) {
		return fmt.Errorf("provenance: layer %d appended out of order (have %d layers)", ss, len(s.images))
	}
	enc := int64(layerHeaderSize)
	for _, b := range segs {
		if b.superstep != ss {
			return fmt.Errorf("provenance: segment of superstep %d appended to layer %d", b.superstep, ss)
		}
		if b.deriveRecvs != segs[0].deriveRecvs {
			return fmt.Errorf("provenance: the segments of layer %d disagree on deriving receive payloads", ss)
		}
		enc += b.enc
	}
	if len(segs) > 0 && segs[0].deriveRecvs && (ss == 0 || s.Gapped(ss-1)) {
		return fmt.Errorf("provenance: layer %d derives its receive payloads, but no whole layer precedes it", ss)
	}
	s.drainCompletions()
	s.sent.ss = -1 // AppendLayer tallies its own layers' sends
	img := s.stitch.layer(ss, segs)
	for _, b := range segs {
		for _, v := range b.vertices {
			s.vertices.add(v)
		}
		s.totalTuples += b.tuples
	}
	s.images = append(s.images, img)
	s.files = append(s.files, "")
	s.resident += int64(len(img))
	s.totalBytes += enc
	s.cfg.Metrics.AddCaptureBytes(enc)

	if s.cfg.SpillAll {
		s.enqueueSpill(len(s.images) - 1)
	} else if s.cfg.MemoryBudget > 0 && s.resident > s.cfg.MemoryBudget {
		if s.cfg.SpillDir == "" {
			return fmt.Errorf("%w: resident %d bytes > budget %d", ErrBudgetExceeded, s.resident, s.cfg.MemoryBudget)
		}
		if err := s.spillOldest(); err != nil {
			return err
		}
	}
	// Surface a deferred async write failure only after the current layer
	// is appended: the caller's degraded-capture recovery truncates to the
	// failing superstep and appends a gap layer, which needs NumLayers to
	// already cover this superstep.
	s.drainCompletions()
	if err := s.asyncErr; err != nil {
		s.asyncErr = nil
		return err
	}
	return nil
}

// AddGap records that partition p's provenance was shed at superstep ss
// (p = -1 for the whole layer), merging into the partition's existing gap
// when the range is contiguous in either direction — so one degraded
// partition yields one CaptureGap row, not one per superstep, even when
// the notes arrive out of order. Idempotent for repeated (p, ss) notes.
func (s *Store) AddGap(ss, p int, reason string) {
	for i := range s.gaps {
		g := &s.gaps[i]
		if g.Partition != p {
			continue
		}
		if ss >= g.From && ss <= g.To {
			return
		}
		if ss == g.To+1 {
			g.To = ss
			s.coalesceGaps(p)
			return
		}
		if ss == g.From-1 {
			g.From = ss
			s.coalesceGaps(p)
			return
		}
	}
	s.gaps = append(s.gaps, CaptureGap{Partition: p, From: ss, To: ss, Reason: reason})
}

// coalesceGaps merges partition p's gaps that became adjacent or
// overlapping after an extension (an out-of-order note can bridge two
// previously separate ranges).
func (s *Store) coalesceGaps(p int) {
	var mine []CaptureGap
	rest := s.gaps[:0]
	for _, g := range s.gaps {
		if g.Partition == p {
			mine = append(mine, g)
		} else {
			rest = append(rest, g)
		}
	}
	if len(mine) < 2 {
		s.gaps = append(rest, mine...)
		return
	}
	sort.Slice(mine, func(i, j int) bool { return mine[i].From < mine[j].From })
	merged := mine[:1]
	for _, g := range mine[1:] {
		last := &merged[len(merged)-1]
		if g.From <= last.To+1 {
			if g.To > last.To {
				last.To = g.To
			}
			continue
		}
		merged = append(merged, g)
	}
	s.gaps = append(rest, merged...)
}

// Gapped reports whether a capture gap covers superstep ss: some
// partition's provenance, or the whole layer's, was shed there.
func (s *Store) Gapped(ss int) bool {
	for _, g := range s.gaps {
		if g.From <= ss && ss <= g.To {
			return true
		}
	}
	return false
}

// Gaps returns the recorded capture gaps, ordered by (Partition, From).
func (s *Store) Gaps() []CaptureGap {
	out := append([]CaptureGap(nil), s.gaps...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Partition != out[j].Partition {
			return out[i].Partition < out[j].Partition
		}
		return out[i].From < out[j].From
	})
	return out
}

// Telemetry bundles the run's own execution profile for telemetry-as-EDB
// querying: per-superstep phase timings, per-RPC network accounting, and
// (when span tracing was on) the raw span timeline.
type Telemetry struct {
	Profiles []obs.SuperstepProfile
	RPCs     []obs.RPCStat
	Spans    []obs.Span
}

// SetTelemetry attaches the run's telemetry to the store (called once by the
// API layer when the run finishes).
func (s *Store) SetTelemetry(t Telemetry) { s.telemetry = t }

// Telemetry returns the attached run telemetry (zero value when the run was
// not instrumented).
func (s *Store) Telemetry() Telemetry { return s.telemetry }

// RestoreGaps replaces the gap list (checkpoint recovery).
func (s *Store) RestoreGaps(gaps []CaptureGap) {
	s.gaps = append([]CaptureGap(nil), gaps...)
}

// truncateGaps trims the gap list to supersteps < n alongside
// TruncateLayers, so a recovered run's gaps match its surviving layers.
func (s *Store) truncateGaps(n int) {
	kept := s.gaps[:0]
	for _, g := range s.gaps {
		if g.From >= n {
			continue
		}
		if g.To >= n {
			g.To = n - 1
		}
		kept = append(kept, g)
	}
	s.gaps = kept
}

// AppendGapLayer appends an *empty* placeholder layer for superstep ss
// after a whole-layer capture failure, keeping layer indices aligned with
// supersteps so later layers still append in order. The placeholder stays
// resident even under SpillAll — it records the absence of provenance, and
// writing it through the same failing spill path would just fail again.
func (s *Store) AppendGapLayer(ss int, reason string) error {
	if ss != len(s.images) {
		return fmt.Errorf("provenance: gap layer %d appended out of order (have %d layers)", ss, len(s.images))
	}
	img := s.stitch.layer(ss, nil)
	s.images = append(s.images, img)
	s.files = append(s.files, "")
	s.resident += int64(len(img))
	s.AddGap(ss, -1, reason)
	return nil
}

// spillOldest moves resident layers onto the spill pipeline, oldest first,
// until the budget is met again (the newest layer always stays resident).
// Enqueue-time accounting means the budget check converges immediately even
// though the writes land asynchronously.
func (s *Store) spillOldest() error {
	for i := 0; i < len(s.images)-1 && s.resident > s.cfg.MemoryBudget; i++ {
		if s.images[i] == nil {
			continue
		}
		s.enqueueSpill(i)
	}
	if s.resident > s.cfg.MemoryBudget {
		return fmt.Errorf("%w: a single layer exceeds the budget", ErrBudgetExceeded)
	}
	return nil
}

// spillLayer writes layer idx's image to its file, accounting bytes and
// duration to the metrics registry under superstep attrSS. Runs on the
// pipeline's writer goroutine — everything it touches is either job-local
// or internally synchronized.
func (s *Store) spillLayer(path string, img []byte, idx, attrSS int) error {
	start := time.Now()
	if err := writeLayerFile(path, img, idx, s.cfg.Fault, s.cfg.Metrics); err != nil {
		return err
	}
	s.cfg.Metrics.AddSpill(attrSS, int64(len(img)), time.Since(start))
	return nil
}

// NumLayers returns the number of captured layers (supersteps).
func (s *Store) NumLayers() int { return len(s.images) }

// Layer returns layer i fully materialized as a row-shaped Layer, a copy of
// its views (see LayerProjected); the store keeps the arenas it decodes
// them into for the next call.
//
// Layer is not safe for concurrent use: it drains the spill pipeline's
// completions, which mutates store state.
func (s *Store) Layer(i int) (*Layer, error) {
	if err := s.LayerProjected(i, nil, &s.views); err != nil {
		return nil, err
	}
	return s.views.layer(), nil
}

// LayerProjected decodes layer i into v, reusing its arenas (see
// LayerViews), with the core columns and the columns selected by proj
// materialized (nil means all); every other column is left empty. Whether
// the layer's image is resident, in flight to its file, or only in the
// file, only those column blocks are read, and every call decodes them
// afresh.
//
// Same concurrency contract as Layer.
func (s *Store) LayerProjected(i int, proj *LayerProjection, v *LayerViews) error {
	if i < 0 || i >= len(s.images) {
		return fmt.Errorf("provenance: layer %d out of range [0,%d)", i, len(s.images))
	}
	s.drainCompletions()
	s.cfg.Metrics.Counter("store_layer_reload_total").Add(1)
	if err := s.decode(i, proj.mask(), v); err != nil {
		where := "resident"
		if s.files[i] != "" {
			where = "spilled"
		}
		return fmt.Errorf("provenance: reading %s layer %d: %w", where, i, err)
	}
	return nil
}

// decode decodes the columns of mask.closed() of layer i into v; a layer
// that derives its receive payloads also reads layer i-1's sends.
func (s *Store) decode(i int, mask colMask, v *LayerViews) error {
	r, size, f, err := s.file(i)
	if err != nil {
		return err
	}
	if f != nil {
		defer f.Close()
	}
	return v.read(r, size, mask, &s.work, s, i-1)
}

// file returns layer i's file: its image, resident or in flight to its
// file, or else the file, opened (see layerFiles).
func (s *Store) file(i int) (io.ReaderAt, int64, *os.File, error) {
	if i < 0 || i >= len(s.images) {
		return nil, 0, nil, fmt.Errorf("provenance: layer %d out of range [0,%d)", i, len(s.images))
	}
	img := s.images[i]
	if img == nil {
		img = s.pending[i]
	}
	if img != nil {
		return image(img), int64(len(img)), nil, nil
	}
	f, err := os.Open(s.files[i])
	if err != nil {
		return nil, 0, nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, 0, nil, err
	}
	return f, st.Size(), f, nil
}

// DecodeWork returns the decode work the store's layer reads have done so
// far, per column name ("vertex", "sendPeers", ...; see the format comment
// in columnar.go).
func (s *Store) DecodeWork() map[string]ColumnWork {
	out := make(map[string]ColumnWork, numColumns)
	for col, w := range s.work {
		out[colNames[col]] = w
	}
	return out
}

// TotalBytes returns the logical size of the captured provenance graph in
// bytes: the sum of its records' row sizes (Record.EncodedSize), which paper
// Tables 3 and 4 compare against the input graph size. (Resident memory is
// tracked separately via ResidentBytes and the memory budget.)
func (s *Store) TotalBytes() int64 { return s.totalBytes }

// DiskBytes returns the actual on-disk size of the spilled layer files, the
// columnar images (the bytes_per_tuple benchmark ratio divides this by
// TotalTuples).
func (s *Store) DiskBytes() int64 { return s.diskBytes }

// TotalTuples returns the number of provenance tuples captured.
func (s *Store) TotalTuples() int64 { return s.totalTuples }

// DistinctVertices returns how many input vertices appear in the provenance
// (Table 4: the custom provenance "contains more than 80% of the input
// vertices").
func (s *Store) DistinctVertices() int { return s.vertices.n }

// ResidentBytes returns the image bytes of the layers held in memory (the
// quantity MemoryBudget caps).
func (s *Store) ResidentBytes() int64 { return s.resident }

// SpilledLayers returns how many layers live on disk.
func (s *Store) SpilledLayers() int {
	n := 0
	for _, f := range s.files {
		if f != "" {
			n++
		}
	}
	return n
}

// layerFileName names the spill file of layer i.
func layerFileName(i int) string { return fmt.Sprintf("layer-%06d.prov", i) }

// TruncateLayers drops every layer with index >= n — the recovery path: a
// capture observer restored from a checkpoint with watermark n discards the
// layers a crashed run appended past its last checkpoint, so the resumed
// run re-appends them in order. Size and vertex statistics are recomputed
// from the surviving layers (spilled ones are read back).
func (s *Store) TruncateLayers(n int) error {
	if n < 0 || n > len(s.images) {
		return fmt.Errorf("provenance: truncate to %d layers out of range [0,%d]", n, len(s.images))
	}
	// Quiesce the spill pipeline first so no write lands after its file was
	// removed. A surfaced write error is absorbed here: the failed layer is
	// resident again, and truncation recomputes all accounting below.
	s.Sync()
	for i := n; i < len(s.images); i++ {
		if s.files[i] != "" {
			os.Remove(s.files[i])
		}
	}
	s.images = s.images[:n]
	s.files = s.files[:n]
	if s.sent.ss >= n {
		s.sent.ss = -1
	}
	s.truncateGaps(n)
	s.resident, s.totalBytes, s.totalTuples, s.diskBytes = 0, 0, 0, 0
	s.vertices = vertexSet{}
	for i := 0; i < n; i++ {
		l, err := s.Layer(i)
		if err != nil {
			return fmt.Errorf("provenance: recomputing stats after truncation: %w", err)
		}
		if s.files[i] == "" {
			s.resident += int64(len(s.images[i]))
		} else if st, err := os.Stat(s.files[i]); err == nil {
			s.diskBytes += st.Size()
		}
		s.recount(l)
	}
	return nil
}

// recount adds a decoded layer's tuples, logical bytes and vertices to the
// store's totals (the recovery paths; appends take them from the builder).
func (s *Store) recount(l *Layer) {
	s.totalBytes += l.EncodedSize()
	s.totalTuples += l.NumTuples()
	for i := range l.Records {
		s.vertices.add(l.Records[i].Vertex)
	}
}

// Reattach adopts the first n layer files already present in SpillDir (a
// previous run's spill output) as this store's layers — the cross-process
// recovery path for capture under SpillAll: the store's content lives on
// disk, so a restored observer only needs the files re-registered.
func (s *Store) Reattach(n int) error {
	if len(s.images) != 0 {
		return errors.New("provenance: Reattach requires an empty store")
	}
	if s.cfg.SpillDir == "" {
		return errors.New("provenance: Reattach requires a SpillDir")
	}
	for i := 0; i < n; i++ {
		path := filepath.Join(s.cfg.SpillDir, layerFileName(i))
		s.images = append(s.images, nil)
		s.files = append(s.files, path)
		err := s.decode(i, maskAll, &s.views)
		if err == nil && s.views.Superstep != i {
			err = fmt.Errorf("the file holds superstep %d", s.views.Superstep)
		}
		if err != nil {
			s.images, s.files = s.images[:i], s.files[:i]
			return fmt.Errorf("provenance: reattaching layer %d: %w", i, err)
		}
		if st, err := os.Stat(path); err == nil {
			s.diskBytes += st.Size()
		}
		s.recount(s.views.layer())
	}
	return nil
}

// Close drains the spill pipeline, stops its writer, and removes any spill
// files.
func (s *Store) Close() error {
	firstErr := s.Sync()
	if s.jobs != nil {
		close(s.jobs)
		s.jobs, s.done, s.pending = nil, nil, nil
	}
	for i, f := range s.files {
		if f != "" {
			if err := os.Remove(f); err != nil && firstErr == nil {
				firstErr = err
			}
			s.files[i] = ""
		}
	}
	return firstErr
}
