package engine

import (
	"context"
	"errors"
	"math"
	"sync"
	"testing"
	"time"

	"ariadne/internal/fault"
	"ariadne/internal/graph"
	"ariadne/internal/supervise"
	"ariadne/internal/value"
)

func TestPartitionIndexNonNegative(t *testing.T) {
	g := chainGraph(t, 4)
	for _, parts := range []int{1, 2, 3, 7} {
		e, err := New(g, minProg{}, Config{Partitions: parts})
		if err != nil {
			t.Fatal(err)
		}
		if e.Partitions() != parts {
			t.Fatalf("Partitions = %d, want %d", e.Partitions(), parts)
		}
		// High-bit vertex IDs must hash to a valid partition: int(v) on a
		// 32-bit platform is negative for IDs above MaxInt32, and a negative
		// modulus would index out of bounds.
		for _, v := range []VertexID{0, 1, math.MaxInt32, math.MaxInt32 + 1, math.MaxUint32} {
			p := e.PartitionOf(v)
			if p < 0 || p >= parts {
				t.Fatalf("PartitionOf(%d) with %d partitions = %d, out of range", v, parts, p)
			}
			if want := int(uint64(v) % uint64(parts)); p != want {
				t.Fatalf("PartitionOf(%d) = %d, want %d", v, p, want)
			}
		}
	}
}

// countingProg wraps a Program and records Compute invocations per
// (superstep, vertex), so tests can prove which partitions re-executed.
type countingProg struct {
	inner Program
	mu    sync.Mutex
	calls map[int]map[VertexID]int // superstep -> vertex -> computes
}

func newCountingProg(inner Program) *countingProg {
	return &countingProg{inner: inner, calls: map[int]map[VertexID]int{}}
}

func (p *countingProg) InitialValue(g *graph.Graph, v VertexID) value.Value {
	return p.inner.InitialValue(g, v)
}

func (p *countingProg) Compute(ctx *Context, msgs []IncomingMessage) error {
	p.mu.Lock()
	m := p.calls[ctx.Superstep()]
	if m == nil {
		m = map[VertexID]int{}
		p.calls[ctx.Superstep()] = m
	}
	m[ctx.ID()]++
	p.mu.Unlock()
	return p.inner.Compute(ctx, msgs)
}

func sameAggregates(t *testing.T, got, want AggregatorReader, names ...string) {
	t.Helper()
	for _, name := range names {
		g, gok := got.Float(name)
		w, wok := want.Float(name)
		if gok != wok || g != w {
			t.Fatalf("aggregator %q = %v (%v), want %v (%v)", name, g, gok, w, wok)
		}
	}
}

// TestSupervisedPanicDifferential is the headline differential: an injected
// partition panic at superstep N completes with the same analytic result
// (vertex values and aggregators) as the fault-free run, and only the failed
// partition re-executes.
func TestSupervisedPanicDifferential(t *testing.T) {
	const n, parts, faultSS, faultPart = 12, 3, 3, 1
	g := chainGraph(t, n)
	base, err := New(g, aggCheckProg{}, Config{MaxSupersteps: 8, Partitions: parts})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := base.Run(); err != nil {
		t.Fatal(err)
	}

	prog := newCountingProg(aggCheckProg{})
	inj := fault.NewInjector(fault.Matrix(faultPart, faultSS, 0, 0)["panic"]...)
	e, err := New(g, prog, Config{
		MaxSupersteps: 8,
		Partitions:    parts,
		Fault:         inj,
		Supervise:     &supervise.Config{MaxRetries: 2, Backoff: time.Microsecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	stats, err := e.Run()
	if err != nil {
		t.Fatalf("supervised run should recover from the injected panic: %v", err)
	}
	sameValues(t, e.Values(), base.Values())
	sameAggregates(t, e.Aggregated(), base.Aggregated(), "sum")
	if stats.PartitionRetries < 1 {
		t.Errorf("PartitionRetries = %d, want >= 1", stats.PartitionRetries)
	}
	if inj.Fired() != 1 {
		t.Errorf("injector fired %d times, want 1", inj.Fired())
	}

	// Partition-scoped recovery: at the faulted superstep, vertices owned by
	// other partitions computed exactly once — they were not re-executed.
	prog.mu.Lock()
	defer prog.mu.Unlock()
	retried := false
	for v, c := range prog.calls[faultSS] {
		switch p := e.PartitionOf(v); {
		case p != faultPart && c != 1:
			t.Errorf("vertex %d (partition %d) computed %d times at ss %d, want 1", v, p, c, faultSS)
		case p == faultPart && c > 1:
			retried = true
		}
	}
	_ = retried // the panic fires before the first Compute, so the failed
	// attempt may have computed zero vertices; PartitionRetries above is the
	// retry witness.
}

// TestSupervisedHangRecovery drives the hung-worker scenario: an injected
// hang blocks until the per-partition deadline cancels the attempt, and the
// retry completes the superstep with a fault-free result.
func TestSupervisedHangRecovery(t *testing.T) {
	const n, parts = 12, 3
	g := chainGraph(t, n)
	base, err := New(g, minProg{}, Config{Partitions: parts})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := base.Run(); err != nil {
		t.Fatal(err)
	}

	// minProg on a chain activates exactly vertex ss at superstep ss, and
	// vertex 2 hashes to partition 2 of 3 — so the hang targets a partition
	// that really runs.
	inj := fault.NewInjector(fault.Matrix(2, 2, 0, 0)["hang"]...)
	e, err := New(g, minProg{}, Config{
		Partitions: parts,
		Fault:      inj,
		Supervise: &supervise.Config{
			Deadline:   20 * time.Millisecond,
			MaxRetries: 2,
			Backoff:    time.Microsecond,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	stats, err := e.Run()
	if err != nil {
		t.Fatalf("supervised run should recover from the injected hang: %v", err)
	}
	sameValues(t, e.Values(), base.Values())
	if inj.Fired() != 1 {
		t.Fatalf("hang fired %d times, want 1", inj.Fired())
	}
	if stats.DeadlineHits < 1 {
		t.Errorf("DeadlineHits = %d, want >= 1", stats.DeadlineHits)
	}
	if stats.PartitionRetries < 1 {
		t.Errorf("PartitionRetries = %d, want >= 1", stats.PartitionRetries)
	}
}

// TestSupervisedDelayTolerated: a pure slowdown needs no retry — the
// partition is slow, not failed, and the analytic result is unaffected.
func TestSupervisedDelayTolerated(t *testing.T) {
	g := chainGraph(t, 8)
	base, _ := New(g, minProg{}, Config{Partitions: 2})
	if _, err := base.Run(); err != nil {
		t.Fatal(err)
	}
	// Vertex 1 (the one active at superstep 1) hashes to partition 1 of 2.
	inj := fault.NewInjector(fault.Matrix(1, 1, 10*time.Millisecond, 0)["delay"]...)
	e, _ := New(g, minProg{}, Config{
		Partitions: 2,
		Fault:      inj,
		Supervise:  &supervise.Config{MaxRetries: 2, Backoff: time.Microsecond},
	})
	stats, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	sameValues(t, e.Values(), base.Values())
	if inj.Fired() != 1 {
		t.Fatalf("delay fired %d times, want 1", inj.Fired())
	}
	if stats.PartitionRetries != 0 {
		t.Errorf("PartitionRetries = %d for a pure delay, want 0", stats.PartitionRetries)
	}
}

func TestSupervisedRetriesExhausted(t *testing.T) {
	g := chainGraph(t, 8)
	// More consecutive panics than MaxRetries allows: the run still fails,
	// with the culprit surfaced.
	inj := fault.NewInjector(fault.Rule{
		Site: fault.SiteCompute, Superstep: 2, Partition: 0, Vertex: -1, Panic: true, Times: 10,
	})
	e, _ := New(g, minProg{}, Config{
		Partitions: 2,
		Fault:      inj,
		Supervise:  &supervise.Config{MaxRetries: 2, Backoff: time.Microsecond},
	})
	stats, err := e.Run()
	var ce *CrashError
	if !errors.As(err, &ce) {
		t.Fatalf("want CrashError after exhausted retries, got %v", err)
	}
	if ce.Superstep != 2 {
		t.Errorf("crash superstep = %d, want 2", ce.Superstep)
	}
	if !stats.Aborted {
		t.Error("stats should mark aborted")
	}
	if inj.Fired() != 3 { // initial attempt + 2 retries
		t.Errorf("attempts = %d, want 3", inj.Fired())
	}
}

// TestSupervisionNoFaultsBitIdentical: supervision must be invisible when
// nothing fails — same values, same aggregators, zero supervision events.
func TestSupervisionNoFaultsBitIdentical(t *testing.T) {
	g := chainGraph(t, 12)
	base, _ := New(g, aggCheckProg{}, Config{MaxSupersteps: 6, Partitions: 3})
	if _, err := base.Run(); err != nil {
		t.Fatal(err)
	}
	e, _ := New(g, aggCheckProg{}, Config{
		MaxSupersteps: 6,
		Partitions:    3,
		Supervise:     &supervise.Config{AdaptiveDeadline: true},
	})
	stats, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	sameValues(t, e.Values(), base.Values())
	sameAggregates(t, e.Aggregated(), base.Aggregated(), "sum")
	if stats.PartitionRetries != 0 || stats.DeadlineHits != 0 {
		t.Errorf("supervision events on a clean run: retries=%d deadlineHits=%d",
			stats.PartitionRetries, stats.DeadlineHits)
	}
}

// TestCancelWritesFinalCheckpoint: satellite for SIGINT handling — a
// cancelled run writes a final checkpoint at the barrier it stops at, even
// off the periodic interval, and resuming from it reproduces the baseline.
func TestCancelWritesFinalCheckpoint(t *testing.T) {
	const n = 12
	baseline := runToEnd(t, n, Config{Partitions: 2})

	dir := t.TempDir()
	g := chainGraph(t, n)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg := Config{
		Partitions: 2,
		Context:    ctx,
		// Interval 100: no periodic checkpoint would ever fire; only the
		// final cancel-time checkpoint can exist.
		Checkpoint: &CheckpointConfig{Dir: dir, Interval: 100},
		Observers:  []Observer{&cancelObserver{cancel: cancel, at: 3}},
	}
	e, err := New(g, minProg{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := e.Run()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if stats.Supersteps != 4 {
		t.Errorf("supersteps = %d, want 4 (cancelled at the ss-3 barrier)", stats.Supersteps)
	}
	if _, err := newestCheckpoint(dir, func(*checkpointData) error { return nil }); err != nil {
		t.Fatalf("no final checkpoint after cancellation: %v", err)
	}

	cfg.Context = nil
	// Resume needs the same observer set (state is re-matched by position);
	// this instance just never cancels.
	cfg.Observers = []Observer{&cancelObserver{cancel: func() {}, at: -1}}
	re, err := Resume(g, minProg{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if re.ResumedFrom() != 4 {
		t.Errorf("ResumedFrom = %d, want 4", re.ResumedFrom())
	}
	if _, err := re.Run(); err != nil {
		t.Fatal(err)
	}
	sameValues(t, re.Values(), baseline)
}

// TestCheckpointRetentionPrunes: the Keep bound holds the directory to the
// N newest checkpoints and the manifest stays consistent.
func TestCheckpointRetentionPrunes(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{
		Checkpoint: &CheckpointConfig{Dir: dir, Interval: 1, Keep: 3},
	}
	e, err := New(chainGraph(t, 12), minProg{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	names, err := readManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 3 {
		t.Fatalf("manifest lists %d checkpoints, want 3 (Keep)", len(names))
	}
	// Resume still works from the retained window.
	re, err := Resume(chainGraph(t, 12), minProg{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if re.ResumedFrom() == 0 {
		t.Error("resume should restart from a retained checkpoint")
	}
}

// TestSupervisedResumeAcrossCrash: supervision and checkpointing compose —
// retries are exhausted, the run crashes, and a supervised Resume finishes
// with the baseline result while the supervision totals survive restore.
func TestSupervisedResumeAcrossCrash(t *testing.T) {
	const n = 12
	baseline := runToEnd(t, n, Config{Partitions: 2})

	dir := t.TempDir()
	g := chainGraph(t, n)
	cfg := Config{
		Partitions: 2,
		Checkpoint: &CheckpointConfig{Dir: dir, Interval: 2},
		Supervise:  &supervise.Config{MaxRetries: 1, Backoff: time.Microsecond},
		Fault: fault.NewInjector(fault.Rule{
			Site: fault.SiteCompute, Superstep: 5, Partition: -1, Vertex: -1, Panic: true, Times: 10,
		}),
	}
	e, _ := New(g, minProg{}, cfg)
	if _, err := e.Run(); err == nil {
		t.Fatal("expected the injected crash to exhaust retries")
	}
	if e.Stats().PartitionRetries == 0 {
		t.Error("crashing run should have recorded retries")
	}

	cfg.Fault = nil
	re, err := Resume(g, minProg{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := re.Run(); err != nil {
		t.Fatal(err)
	}
	sameValues(t, re.Values(), baseline)
}
