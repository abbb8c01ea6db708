package engine

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"ariadne/internal/fault"
	"ariadne/internal/graph"
	"ariadne/internal/obs"
	"ariadne/internal/value"
)

// Checkpoint/recovery subsystem (Giraph-style superstep checkpointing).
//
// At configurable superstep intervals the engine snapshots everything the
// next superstep depends on — vertex values, last-active supersteps, the
// in-flight message queues, merged aggregator values, run statistics, and
// one opaque state blob per checkpointable observer — to a binary file:
//
//	magic "ACKP" | version:1B | payload (value.Blob) | crc32(magic..payload)
//
// Files are written atomically (temp file + fsync + rename) and registered
// in a manifest, itself rewritten atomically, listing checkpoints oldest
// first. Resume walks the manifest newest-first and restores from the first
// checkpoint that passes the CRC and decodes cleanly, so a truncated or
// corrupt newest checkpoint falls back to the previous one.
//
// Because vertex programs are stateless between supersteps (a BSP
// requirement), restoring this snapshot and re-running from the saved
// superstep is byte-identical to an uninterrupted run.

var checkpointMagic = [4]byte{'A', 'C', 'K', 'P'}

const (
	// checkpointVersion 2 extended v1 with the new RunStats totals
	// (delivered/combined messages, peak active, per-phase wall times) and
	// the per-superstep metrics profiles. Version 3 adds the partition
	// supervision totals and, inside the capture observer's blob, the
	// capture-gap records and degradation state of a degraded run. Version
	// 4 adds RunStats.MessagesCombinedSender. Version 5 adds the span
	// timeline and the net_rpc exchange rows. Version 6 replaces the
	// profile and exchange-row sections with one JSON telemetry snapshot
	// (every counter, gauge and histogram, the profiles and the exchange
	// rows), so a resumed registry is the one that was checkpointed. Older
	// versions are not readable.
	checkpointVersion  = 6
	manifestName       = "MANIFEST"
	checkpointAttempts = 4
	checkpointBackoff  = time.Millisecond
)

// CheckpointConfig enables superstep-boundary checkpointing.
type CheckpointConfig struct {
	// Dir receives checkpoint files and the manifest.
	Dir string
	// Interval checkpoints every Interval supersteps; <=0 disables.
	Interval int
	// Keep bounds how many checkpoints are retained; <=0 means 2 (the
	// newest plus one fallback for corrupt-newest recovery).
	Keep int
}

func (c *CheckpointConfig) keep() int {
	if c.Keep <= 0 {
		return 2
	}
	return c.Keep
}

// Checkpointable is an optional Observer extension: observers that carry
// state across supersteps (provenance capture, online query evaluation)
// implement it so recovery restores their state in lockstep with the
// engine's — extending the paper's non-interference guarantee across
// failures.
type Checkpointable interface {
	// MarshalCheckpoint snapshots the observer state after the superstep
	// that was just observed.
	MarshalCheckpoint() ([]byte, error)
	// UnmarshalCheckpoint fully resets the observer to the snapshot.
	UnmarshalCheckpoint(data []byte) error
}

// checkpointData is a decoded checkpoint.
type checkpointData struct {
	resumeSS   int
	nVertices  int
	nEdges     int64
	values     []value.Value
	lastActive []int32
	inboxIDs   []VertexID // in-flight messages: inboxMsgs[i] are addressed to inboxIDs[i]
	inboxMsgs  [][]IncomingMessage
	aggCurrent map[string]float64
	stat       RunStats
	telemetry  obs.Telemetry
	spans      []obs.Span
	obsPresent []bool
	obsBlobs   [][]byte
}

// writeCheckpoint snapshots engine state entering superstep resumeSS.
func (e *Engine) writeCheckpoint(resumeSS int) error {
	ck := e.cfg.Checkpoint
	payload, err := e.encodeCheckpoint(resumeSS)
	if err != nil {
		return fmt.Errorf("engine: checkpoint at superstep %d: %w", resumeSS-1, err)
	}
	name := fmt.Sprintf("checkpoint-%06d.ckpt", resumeSS)
	path := filepath.Join(ck.Dir, name)
	m := e.cfg.Metrics
	write := func() error {
		if err := e.cfg.Fault.Hit(fault.SiteCheckpointWrite, resumeSS-1, -1, -1); err != nil {
			return err
		}
		return fault.WriteFileAtomic(path, payload)
	}
	notify := func(attempt int, err error) {
		m.AddRetry("checkpoint")
		m.Tracef(obs.Warn, "checkpoint", resumeSS-1, "write attempt %d/%d failed, retrying: %v",
			attempt, checkpointAttempts, err)
	}
	start := time.Now()
	if err := fault.RetryNotify(checkpointAttempts, checkpointBackoff, write, notify); err != nil {
		m.Tracef(obs.Error, "checkpoint", resumeSS-1, "giving up after %d attempts: %v", checkpointAttempts, err)
		return fmt.Errorf("engine: writing checkpoint at superstep %d: %w", resumeSS-1, err)
	}
	d := time.Since(start)
	e.stat.CheckpointWall += d
	e.lastCkptSS = resumeSS
	m.AddCheckpoint(int64(len(payload)), d)
	m.Tracef(obs.Info, "checkpoint", resumeSS-1, "wrote %s (%d bytes)", name, len(payload))
	return updateManifest(ck.Dir, name, ck.keep())
}

// encodeCheckpoint builds the full file contents (magic through CRC).
func (e *Engine) encodeCheckpoint(resumeSS int) ([]byte, error) {
	w := value.NewBlob()
	w.Uvarint(uint64(resumeSS))
	w.Uvarint(uint64(e.g.NumVertices()))
	w.Uvarint(uint64(e.g.NumEdges()))
	for _, v := range e.values {
		w.Value(v)
	}
	for _, la := range e.lastActive {
		w.Int(int64(la))
	}
	// In-flight messages in ascending destination, each destination's in
	// inbox order (ascending source vertex), so the section is independent
	// of the partition count when no combiner folded across partitions.
	nOwners := 0
	for _, in := range e.inbox {
		nOwners += len(in.owners())
	}
	w.Uvarint(uint64(nOwners))
	for v := 0; v < e.g.NumVertices() && nOwners > 0; v++ {
		msgs := e.inbox[e.partition(VertexID(v))].msgs(VertexID(v))
		if len(msgs) == 0 {
			continue
		}
		nOwners--
		w.Uvarint(uint64(v))
		w.Uvarint(uint64(len(msgs)))
		for _, m := range msgs {
			w.Uvarint(uint64(m.Src))
			w.Value(m.Val)
		}
	}
	// Merged aggregator values (Pregel semantics: readable next superstep).
	aggNames := make([]string, 0, len(e.agg.current))
	for name := range e.agg.current {
		aggNames = append(aggNames, name)
	}
	sort.Strings(aggNames)
	w.Uvarint(uint64(len(aggNames)))
	for _, name := range aggNames {
		w.String(name)
		w.Float(e.agg.current[name])
	}
	// Run statistics.
	w.Uvarint(uint64(e.stat.Supersteps))
	w.Uvarint(uint64(e.stat.MessagesSent))
	w.Uvarint(uint64(len(e.stat.ActiveVertices)))
	for _, n := range e.stat.ActiveVertices {
		w.Uvarint(uint64(n))
	}
	// v2: the extended totals and per-phase wall times...
	w.Uvarint(uint64(e.stat.MessagesDelivered))
	w.Uvarint(uint64(e.stat.MessagesCombined))
	w.Uvarint(uint64(e.stat.PeakActiveVertices))
	w.Uvarint(uint64(e.stat.ComputeWall))
	w.Uvarint(uint64(e.stat.BarrierWall))
	w.Uvarint(uint64(e.stat.ObserveWall))
	w.Uvarint(uint64(e.stat.CheckpointWall))
	// v3: partition supervision totals.
	w.Uvarint(uint64(e.stat.PartitionRetries))
	w.Uvarint(uint64(e.stat.DeadlineHits))
	w.Uvarint(uint64(e.stat.StragglerFlags))
	// v4: parallel-barrier totals.
	w.Uvarint(uint64(e.stat.MessagesCombinedSender))
	// Marshal observer blobs before snapshotting the telemetry: the capture
	// observer syncs its async spill pipeline here, which back-fills spill
	// bytes/durations into the registry the next block snapshots. The file
	// still holds the telemetry before the blobs.
	type obBlob struct {
		ok   bool
		blob []byte
	}
	blobs := make([]obBlob, 0, len(e.cfg.Observers))
	for _, o := range e.cfg.Observers {
		c, ok := o.(Checkpointable)
		if !ok {
			blobs = append(blobs, obBlob{})
			continue
		}
		blob, err := c.MarshalCheckpoint()
		if err != nil {
			return nil, fmt.Errorf("observer %T: %w", o, err)
		}
		blobs = append(blobs, obBlob{ok: true, blob: blob})
	}
	// v6: the telemetry snapshot as JSON (empty when the run is
	// uninstrumented), so Resume installs the registry as it stood, then
	// the span timeline (empty when span tracing is off).
	telemetry, err := json.Marshal(e.cfg.Metrics.Telemetry())
	if err != nil {
		return nil, fmt.Errorf("telemetry: %w", err)
	}
	w.Bytes8(telemetry)
	obs.EncodeSpans(w, e.cfg.Metrics.Spans())
	// Observer state blobs, in cfg.Observers order.
	w.Uvarint(uint64(len(blobs)))
	for _, b := range blobs {
		w.Bool(b.ok)
		if b.ok {
			w.Bytes8(b.blob)
		}
	}

	buf := make([]byte, 0, len(w.Bytes())+9)
	buf = append(buf, checkpointMagic[:]...)
	buf = append(buf, checkpointVersion)
	buf = append(buf, w.Bytes()...)
	crc := crc32.ChecksumIEEE(buf)
	buf = append(buf, byte(crc), byte(crc>>8), byte(crc>>16), byte(crc>>24))
	return buf, nil
}

// loadCheckpoint reads and verifies one checkpoint file. Every corruption —
// truncation at any byte, bit flips, bad counts — returns an error.
func loadCheckpoint(path string) (*checkpointData, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(raw) < len(checkpointMagic)+1+4 {
		return nil, fmt.Errorf("engine: checkpoint %s truncated (%d bytes)", filepath.Base(path), len(raw))
	}
	body, tail := raw[:len(raw)-4], raw[len(raw)-4:]
	crc := uint32(tail[0]) | uint32(tail[1])<<8 | uint32(tail[2])<<16 | uint32(tail[3])<<24
	if crc32.ChecksumIEEE(body) != crc {
		return nil, fmt.Errorf("engine: checkpoint %s fails CRC check", filepath.Base(path))
	}
	if [4]byte(body[:4]) != checkpointMagic {
		return nil, fmt.Errorf("engine: checkpoint %s has bad magic %q", filepath.Base(path), body[:4])
	}
	if body[4] != checkpointVersion {
		return nil, fmt.Errorf("engine: checkpoint %s has unsupported version %d", filepath.Base(path), body[4])
	}
	r := value.NewBlobReader(body[5:])
	cp := &checkpointData{}
	cp.resumeSS = int(r.Uvarint())
	cp.nVertices = r.Count()
	cp.nEdges = int64(r.Uvarint())
	if r.Err() == nil {
		cp.values = make([]value.Value, cp.nVertices)
		for i := range cp.values {
			cp.values[i] = r.Value()
		}
		cp.lastActive = make([]int32, cp.nVertices)
		for i := range cp.lastActive {
			cp.lastActive[i] = int32(r.Int())
		}
	}
	nInbox := r.Count()
	for i := 0; i < nInbox && r.Err() == nil; i++ {
		dst := VertexID(r.Uvarint())
		var msgs []IncomingMessage
		nMsgs := r.Count()
		for j := 0; j < nMsgs && r.Err() == nil; j++ {
			msgs = append(msgs, IncomingMessage{Src: VertexID(r.Uvarint()), Val: r.Value()})
		}
		cp.inboxIDs = append(cp.inboxIDs, dst)
		cp.inboxMsgs = append(cp.inboxMsgs, msgs)
	}
	cp.aggCurrent = map[string]float64{}
	nAgg := r.Count()
	for i := 0; i < nAgg && r.Err() == nil; i++ {
		name := r.String()
		cp.aggCurrent[name] = r.Float()
	}
	cp.stat.Supersteps = int(r.Uvarint())
	cp.stat.MessagesSent = int64(r.Uvarint())
	nActive := r.Count()
	for i := 0; i < nActive && r.Err() == nil; i++ {
		cp.stat.ActiveVertices = append(cp.stat.ActiveVertices, int(r.Uvarint()))
	}
	cp.stat.MessagesDelivered = int64(r.Uvarint())
	cp.stat.MessagesCombined = int64(r.Uvarint())
	cp.stat.PeakActiveVertices = int(r.Uvarint())
	cp.stat.ComputeWall = time.Duration(r.Uvarint())
	cp.stat.BarrierWall = time.Duration(r.Uvarint())
	cp.stat.ObserveWall = time.Duration(r.Uvarint())
	cp.stat.CheckpointWall = time.Duration(r.Uvarint())
	cp.stat.PartitionRetries = int64(r.Uvarint())
	cp.stat.DeadlineHits = int64(r.Uvarint())
	cp.stat.StragglerFlags = int64(r.Uvarint())
	cp.stat.MessagesCombinedSender = int64(r.Uvarint())
	if telemetry := r.Bytes8(); r.Err() == nil {
		if err := json.Unmarshal(telemetry, &cp.telemetry); err != nil {
			return nil, fmt.Errorf("engine: checkpoint %s corrupt: telemetry: %w", filepath.Base(path), err)
		}
	}
	if r.Err() == nil {
		var perr error
		if cp.spans, perr = obs.DecodeSpans(r); perr != nil {
			return nil, fmt.Errorf("engine: checkpoint %s corrupt: %w", filepath.Base(path), perr)
		}
	}
	nObs := r.Count()
	for i := 0; i < nObs && r.Err() == nil; i++ {
		present := r.Bool()
		cp.obsPresent = append(cp.obsPresent, present)
		if present {
			cp.obsBlobs = append(cp.obsBlobs, r.Bytes8())
		} else {
			cp.obsBlobs = append(cp.obsBlobs, nil)
		}
	}
	if r.Err() != nil {
		return nil, fmt.Errorf("engine: checkpoint %s corrupt: %w", filepath.Base(path), r.Err())
	}
	return cp, nil
}

// restoreCore installs the engine-core slice of a checkpoint — vertex
// values, last-active marks, in-flight inboxes, merged aggregators, and the
// resume superstep — without touching run statistics, metrics history, or
// observer state. It is the re-hydration half of restore(): the resident
// runtime's replay engine seeds from it (no observers attached, so the full
// restore()'s observer-set validation must not apply) and then replays the
// supersteps since to recover state that died with a worker.
func (e *Engine) restoreCore(cp *checkpointData) error {
	if cp.nVertices != e.g.NumVertices() || cp.nEdges != int64(e.g.NumEdges()) {
		return fmt.Errorf("engine: checkpoint was taken over a different graph (%d vertices / %d edges, have %d / %d)",
			cp.nVertices, cp.nEdges, e.g.NumVertices(), e.g.NumEdges())
	}
	copy(e.values, cp.values)
	copy(e.lastActive, cp.lastActive)
	for _, in := range e.inbox {
		in.install(cp.inboxIDs, cp.inboxMsgs)
	}
	e.agg.setCurrent(cp.aggCurrent)
	e.startSS = cp.resumeSS
	e.lastCkptSS = cp.resumeSS
	return nil
}

// restore loads a decoded checkpoint into the engine.
func (e *Engine) restore(cp *checkpointData) error {
	if len(cp.obsPresent) != len(e.cfg.Observers) {
		return fmt.Errorf("engine: checkpoint has %d observer states, config has %d observers — resume with the same observer set",
			len(cp.obsPresent), len(e.cfg.Observers))
	}
	if err := e.restoreCore(cp); err != nil {
		return err
	}
	e.stat = cp.stat
	// Install the registry as it was checkpointed, so a recovered run
	// reports cumulative profiles and series, not just post-resume ones.
	e.cfg.Metrics.Restore(cp.telemetry)
	e.cfg.Metrics.RestoreSpans(cp.spans)
	for i, o := range e.cfg.Observers {
		c, ok := o.(Checkpointable)
		if cp.obsPresent[i] != ok {
			return fmt.Errorf("engine: observer %d (%T) checkpointability mismatch with saved state", i, o)
		}
		if !ok {
			continue
		}
		if err := c.UnmarshalCheckpoint(cp.obsBlobs[i]); err != nil {
			return fmt.Errorf("engine: restoring observer %d (%T): %w", i, o, err)
		}
	}
	return nil
}

// Resume reconstructs an engine from the newest readable checkpoint in
// cfg.Checkpoint.Dir, positioned to continue at the saved superstep. When
// the newest checkpoint is damaged, older manifest entries are tried in
// turn. Observers in cfg must match the checkpointed run's observer set;
// checkpointable ones are restored from their saved state.
func Resume(g *graph.Graph, prog Program, cfg Config) (*Engine, error) {
	ck := cfg.Checkpoint
	if ck == nil || ck.Dir == "" {
		return nil, errors.New("engine: Resume requires Config.Checkpoint with a Dir")
	}
	var e *Engine
	_, err := newestCheckpoint(ck.Dir, func(cp *checkpointData) (err error) {
		if e, err = New(g, prog, cfg); err == nil {
			err = e.restore(cp)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	return e, nil
}

// ResumedFrom returns the superstep the engine will continue from (0 for a
// fresh engine).
func (e *Engine) ResumedFrom() int { return e.startSS }

// newestCheckpoint walks dir's manifest newest first and returns the first
// checkpoint that loads and that use accepts, so a corrupt or unusable
// newest entry falls back to older ones. When none qualifies, the error
// joins what each entry failed with.
func newestCheckpoint(dir string, use func(*checkpointData) error) (*checkpointData, error) {
	names, err := readManifest(dir)
	if err != nil {
		return nil, fmt.Errorf("engine: reading checkpoint manifest: %w", err)
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("engine: no checkpoints recorded in %s", dir)
	}
	var errs []error
	for i := len(names) - 1; i >= 0; i-- {
		cp, err := loadCheckpoint(filepath.Join(dir, names[i]))
		if err == nil {
			if err = use(cp); err == nil {
				return cp, nil
			}
		}
		errs = append(errs, err)
	}
	return nil, fmt.Errorf("engine: no usable checkpoint in %s: %w", dir, errors.Join(errs...))
}

// readManifest returns the checkpoint filenames, oldest first.
func readManifest(dir string) ([]string, error) {
	raw, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		return nil, err
	}
	var names []string
	for _, line := range strings.Split(string(raw), "\n") {
		line = strings.TrimSpace(line)
		if line != "" {
			names = append(names, line)
		}
	}
	return names, nil
}

// updateManifest appends name, prunes entries beyond keep, and rewrites the
// manifest atomically. The manifest is rewritten before old files are
// deleted, so a crash between the two leaves only unreferenced files (and a
// resume that tolerates missing ones), never a referenced-but-deleted one.
func updateManifest(dir, name string, keep int) error {
	names, err := readManifest(dir)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("engine: reading checkpoint manifest: %w", err)
	}
	names = append(names, name)
	var drop []string
	if len(names) > keep {
		drop = names[:len(names)-keep]
		names = names[len(names)-keep:]
	}
	if err := fault.WriteFileAtomic(filepath.Join(dir, manifestName), []byte(strings.Join(names, "\n")+"\n")); err != nil {
		return fmt.Errorf("engine: writing checkpoint manifest: %w", err)
	}
	for _, old := range drop {
		os.Remove(filepath.Join(dir, old))
	}
	return nil
}
