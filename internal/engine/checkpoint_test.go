package engine

import (
	"context"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"ariadne/internal/fault"
	"ariadne/internal/graph"
	"ariadne/internal/value"
)

// runToEnd runs minProg over a chain and returns the final values.
func runToEnd(t *testing.T, n int, cfg Config) []value.Value {
	t.Helper()
	e, err := New(chainGraph(t, n), minProg{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	return e.Values()
}

func sameValues(t *testing.T, got, want []value.Value) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("value count %d != %d", len(got), len(want))
	}
	for i := range got {
		// Byte-identical: compare the binary encoding, not just Equal.
		g := got[i].AppendBinary(nil)
		w := want[i].AppendBinary(nil)
		if string(g) != string(w) {
			t.Fatalf("value[%d] = %v, want %v (encodings differ)", i, got[i], want[i])
		}
	}
}

func TestCheckpointResumeByteIdentical(t *testing.T) {
	const n = 12
	baseline := runToEnd(t, n, Config{Partitions: 3})

	dir := t.TempDir()
	g := chainGraph(t, n)
	cfg := Config{
		Partitions: 3,
		Checkpoint: &CheckpointConfig{Dir: dir, Interval: 2},
		Fault:      fault.NewInjector(fault.PanicAt(5, -1)),
	}
	e, err := New(g, minProg{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, err = e.Run()
	var ce *CrashError
	if !errors.As(err, &ce) {
		t.Fatalf("want CrashError from injected panic, got %v", err)
	}
	if ce.Superstep != 5 {
		t.Errorf("crash superstep = %d, want 5", ce.Superstep)
	}
	if !errors.Is(err, ErrComputePanic) {
		t.Errorf("crash cause should be ErrComputePanic: %v", err)
	}

	// Resume without the fault: picks up from the ss-4 checkpoint.
	cfg.Fault = nil
	re, err := Resume(g, minProg{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if re.ResumedFrom() != 4 {
		t.Errorf("ResumedFrom = %d, want 4", re.ResumedFrom())
	}
	stats, err := re.Run()
	if err != nil {
		t.Fatal(err)
	}
	sameValues(t, re.Values(), baseline)
	if stats.ActiveVertices[0] != n {
		t.Errorf("restored stats lost superstep-0 history: %v", stats.ActiveVertices)
	}
}

func TestResumeAcrossPartitionCounts(t *testing.T) {
	const n = 12
	baseline := runToEnd(t, n, Config{Partitions: 1})

	dir := t.TempDir()
	g := chainGraph(t, n)
	cfg := Config{
		Partitions: 4,
		Checkpoint: &CheckpointConfig{Dir: dir, Interval: 3},
		Fault:      fault.NewInjector(fault.PanicAt(7, -1)),
	}
	e, _ := New(g, minProg{}, cfg)
	if _, err := e.Run(); err == nil {
		t.Fatal("expected injected crash")
	}

	// Checkpoints are partition-count independent: resume on 2 partitions.
	cfg.Fault = nil
	cfg.Partitions = 2
	re, err := Resume(g, minProg{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := re.Run(); err != nil {
		t.Fatal(err)
	}
	sameValues(t, re.Values(), baseline)
}

// inFlightSection renders a checkpoint file's in-flight messages bit for bit.
func inFlightSection(t *testing.T, path string) string {
	t.Helper()
	cp, err := loadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for i, dst := range cp.inboxIDs {
		fmt.Fprintf(&b, "%d<-[%s]\n", dst, msgBits(cp.inboxMsgs[i]))
	}
	return b.String()
}

// TestCheckpointInFlightIndependentOfPartitions: the in-flight section is
// written in ascending destination and, per destination, ascending source —
// the same bytes whatever the partition count or barrier mode (without a
// combiner, whose fold tree is per partition count by definition).
func TestCheckpointInFlightIndependentOfPartitions(t *testing.T) {
	g := contractGraph(t)
	var ref string
	for _, parts := range []int{1, 2, 4} {
		for _, seq := range []bool{false, true} {
			dir := t.TempDir()
			e, err := New(g, orderProg{}, Config{
				Partitions: parts, SequentialBarrier: seq, MaxSupersteps: 4,
				Checkpoint: &CheckpointConfig{Dir: dir, Interval: 2, Keep: 4},
			})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := e.Run(); err != nil {
				t.Fatal(err)
			}
			got := inFlightSection(t, filepath.Join(dir, "checkpoint-000002.ckpt")) +
				inFlightSection(t, filepath.Join(dir, "checkpoint-000004.ckpt"))
			if ref == "" {
				if ref = got; strings.Count(ref, "|") < 100 {
					t.Fatalf("only %d messages in flight; the test would prove little", strings.Count(ref, "|"))
				}
			} else if got != ref {
				t.Fatalf("parts=%d seq=%v: in-flight section differs from the 1-partition run", parts, seq)
			}
		}
	}
}

// TestResumeFromNonCanonicalCheckpoint: a checkpoint whose in-flight lists
// are not in canonical order — what earlier versions wrote (delivery order,
// source-partition-major) — still resumes bit-identically, because
// runPartition re-establishes the order for any installed frontier.
func TestResumeFromNonCanonicalCheckpoint(t *testing.T) {
	g := contractGraph(t)
	const total, cut = 7, 3
	base, err := New(g, orderProg{}, Config{Partitions: 4, MaxSupersteps: total})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := base.Run(); err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	e, err := New(g, orderProg{}, Config{Partitions: 4, MaxSupersteps: cut,
		Checkpoint: &CheckpointConfig{Dir: dir, Interval: total + 1}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	scrambled := 0
	for _, in := range e.inbox {
		ids := slices.Clone(in.owners())
		lists := make([][]IncomingMessage, len(ids))
		for i, v := range ids {
			lists[i] = slices.Clone(in.msgs(v))
			slices.Reverse(lists[i])
			if !isCanonical(lists[i]) {
				scrambled++
			}
		}
		in.install(ids, lists)
	}
	if scrambled < 10 {
		t.Fatalf("only %d lists out of order; the test would prove little", scrambled)
	}
	if err := e.writeCheckpoint(cut); err != nil {
		t.Fatal(err)
	}

	for _, parts := range []int{4, 2} {
		re, err := Resume(g, orderProg{}, Config{Partitions: parts, MaxSupersteps: total,
			Checkpoint: &CheckpointConfig{Dir: dir, Interval: total + 1}})
		if err != nil {
			t.Fatal(err)
		}
		if re.ResumedFrom() != cut {
			t.Fatalf("resumed from %d, want %d", re.ResumedFrom(), cut)
		}
		if _, err := re.Run(); err != nil {
			t.Fatal(err)
		}
		sameValues(t, re.Values(), base.Values())
	}
}

func TestCheckpointWriteRetriesTransientErrors(t *testing.T) {
	dir := t.TempDir()
	g := chainGraph(t, 8)
	cfg := Config{
		Checkpoint: &CheckpointConfig{Dir: dir, Interval: 2},
		Fault:      fault.NewInjector(fault.IOErrors(fault.SiteCheckpointWrite, 2)),
	}
	e, _ := New(g, minProg{}, cfg)
	if _, err := e.Run(); err != nil {
		t.Fatalf("transient checkpoint errors should be retried: %v", err)
	}
	if _, err := Resume(g, minProg{}, Config{Checkpoint: cfg.Checkpoint}); err != nil {
		t.Fatalf("no checkpoint after retried writes: %v", err)
	}

	// More consecutive failures than attempts: the run aborts cleanly.
	cfg.Fault = fault.NewInjector(fault.IOErrors(fault.SiteCheckpointWrite, 100))
	e2, _ := New(chainGraph(t, 8), minProg{}, cfg)
	stats, err := e2.Run()
	if !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("exhausted retries = %v, want ErrInjected", err)
	}
	if !stats.Aborted {
		t.Error("run should be marked aborted")
	}
}

// crashRun produces a checkpoint directory from a crashed run and returns
// the graph used.
func crashRun(t *testing.T, dir string, interval, crashSS int) {
	t.Helper()
	cfg := Config{
		Checkpoint: &CheckpointConfig{Dir: dir, Interval: interval, Keep: 4},
		Fault:      fault.NewInjector(fault.PanicAt(crashSS, -1)),
	}
	e, _ := New(chainGraph(t, 12), minProg{}, cfg)
	if _, err := e.Run(); err == nil {
		t.Fatal("expected injected crash")
	}
}

func TestResumeFallsBackWhenNewestCorrupt(t *testing.T) {
	dir := t.TempDir()
	crashRun(t, dir, 2, 7) // checkpoints resuming at 2, 4, 6

	// Truncate the newest checkpoint mid-file.
	names, err := readManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	newest := filepath.Join(dir, names[len(names)-1])
	raw, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(newest, raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	cfg := Config{Checkpoint: &CheckpointConfig{Dir: dir, Interval: 2, Keep: 4}}
	re, err := Resume(chainGraph(t, 12), minProg{}, cfg)
	if err != nil {
		t.Fatalf("resume should fall back to an older checkpoint: %v", err)
	}
	if re.ResumedFrom() != 4 {
		t.Errorf("ResumedFrom = %d, want fallback 4", re.ResumedFrom())
	}
	if _, err := re.Run(); err != nil {
		t.Fatal(err)
	}
	sameValues(t, re.Values(), runToEnd(t, 12, Config{}))
}

func TestResumeFailsWhenAllCheckpointsCorrupt(t *testing.T) {
	dir := t.TempDir()
	crashRun(t, dir, 2, 5)
	names, _ := readManifest(dir)
	for _, name := range names {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("garbage"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	cfg := Config{Checkpoint: &CheckpointConfig{Dir: dir, Interval: 2}}
	if _, err := Resume(chainGraph(t, 12), minProg{}, cfg); err == nil {
		t.Fatal("resume over all-corrupt checkpoints should fail")
	}
}

func TestResumeRejectsDifferentGraph(t *testing.T) {
	dir := t.TempDir()
	crashRun(t, dir, 2, 5)
	cfg := Config{Checkpoint: &CheckpointConfig{Dir: dir, Interval: 2}}
	if _, err := Resume(chainGraph(t, 7), minProg{}, cfg); err == nil {
		t.Fatal("resume over a different graph should fail")
	}
}

// TestCheckpointTruncationNeverPanics loads the checkpoint file truncated at
// every possible byte boundary: each must produce an error, never a panic.
func TestCheckpointTruncationNeverPanics(t *testing.T) {
	dir := t.TempDir()
	crashRun(t, dir, 2, 5)
	names, _ := readManifest(dir)
	raw, err := os.ReadFile(filepath.Join(dir, names[0]))
	if err != nil {
		t.Fatal(err)
	}
	trunc := filepath.Join(dir, "trunc.ckpt")
	for cut := 0; cut < len(raw); cut++ {
		if err := os.WriteFile(trunc, raw[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := loadCheckpoint(trunc); err == nil {
			t.Fatalf("truncation at byte %d of %d decoded without error", cut, len(raw))
		}
	}
	// Bit flips must be caught by the CRC.
	for _, pos := range []int{0, 5, len(raw) / 2, len(raw) - 5} {
		mut := append([]byte(nil), raw...)
		mut[pos] ^= 0x40
		if err := os.WriteFile(trunc, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := loadCheckpoint(trunc); err == nil {
			t.Fatalf("bit flip at byte %d decoded without error", pos)
		}
	}
}

// TestCheckpointRefusesV5: a version 5 file (binary profile and exchange-row
// sections) is refused by its version, even with a valid CRC.
func TestCheckpointRefusesV5(t *testing.T) {
	dir := t.TempDir()
	crashRun(t, dir, 2, 5)
	names, _ := readManifest(dir)
	raw, err := os.ReadFile(filepath.Join(dir, names[0]))
	if err != nil {
		t.Fatal(err)
	}
	body := raw[:len(raw)-4]
	body[4] = 5
	crc := crc32.ChecksumIEEE(body)
	old := filepath.Join(dir, "v5.ckpt")
	if err := os.WriteFile(old, append(body, byte(crc), byte(crc>>8), byte(crc>>16), byte(crc>>24)), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := loadCheckpoint(old); err == nil || !strings.Contains(err.Error(), "unsupported version 5") {
		t.Fatalf("v5 checkpoint: err = %v, want the version error", err)
	}
}

func TestContextCancellation(t *testing.T) {
	// Pre-canceled context: aborts before superstep 0.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	e, _ := New(chainGraph(t, 10), minProg{}, Config{Context: ctx})
	stats, err := e.Run()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if !stats.Aborted || stats.Supersteps != 0 {
		t.Errorf("stats = %+v, want aborted before superstep 0", stats)
	}

	// Cancel mid-run from an observer: the next barrier aborts the run.
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	obs := &cancelObserver{cancel: cancel2, at: 2}
	e2, _ := New(chainGraph(t, 10), minProg{}, Config{Context: ctx2, Observers: []Observer{obs}})
	stats2, err := e2.Run()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if stats2.Supersteps != 3 {
		t.Errorf("run stopped after %d supersteps, want 3", stats2.Supersteps)
	}
}

type cancelObserver struct {
	cancel context.CancelFunc
	at     int
}

func (o *cancelObserver) Reads() Fields                           { return 0 }
func (*cancelObserver) ObservePartition(int, int, []VertexRecord) {}
func (o *cancelObserver) ObserveSuperstep(v *SuperstepView) error {
	if v.Superstep == o.at {
		o.cancel()
	}
	return nil
}
func (o *cancelObserver) Finish(int) error { return nil }

// aggCheckProg writes an aggregator every superstep and mixes the previous
// superstep's merged value into its own, so a resume that loses aggregator
// state produces different final values.
type aggCheckProg struct{}

func (aggCheckProg) InitialValue(_ *graph.Graph, _ VertexID) value.Value {
	return value.NewFloat(0)
}

func (aggCheckProg) Compute(ctx *Context, _ []IncomingMessage) error {
	ctx.AggregateFloat("sum", AggSum, float64(ctx.ID()+1)*float64(ctx.Superstep()+1))
	prev, _ := ctx.Aggregated().Float("sum")
	ctx.SetValue(value.NewFloat(ctx.Value().Float() + prev))
	ctx.SendMessage(ctx.ID(), value.NewInt(1)) // stay active
	return nil
}

func TestResumeRestoresAggregators(t *testing.T) {
	g := chainGraph(t, 6)
	base, _ := New(g, aggCheckProg{}, Config{MaxSupersteps: 8, Partitions: 2})
	if _, err := base.Run(); err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	cfg := Config{
		MaxSupersteps: 8,
		Partitions:    2,
		Checkpoint:    &CheckpointConfig{Dir: dir, Interval: 3},
		Fault:         fault.NewInjector(fault.PanicAt(5, -1)),
	}
	e, _ := New(g, aggCheckProg{}, cfg)
	if _, err := e.Run(); err == nil {
		t.Fatal("expected injected crash")
	}
	cfg.Fault = nil
	re, err := Resume(g, aggCheckProg{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := re.Run(); err != nil {
		t.Fatal(err)
	}
	sameValues(t, re.Values(), base.Values())
}
