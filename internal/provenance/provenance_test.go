package provenance

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ariadne/internal/value"
)

func sampleLayer(ss int, nrec int) *Layer {
	l := &Layer{Superstep: ss}
	for i := 0; i < nrec; i++ {
		r := Record{
			Vertex:     VertexID(i * 3),
			PrevActive: int32(ss - 1),
			HasValue:   true,
			Value:      value.NewFloat(float64(i) * 1.5),
			SentAny:    i%2 == 0,
		}
		if i%2 == 0 {
			r.Sends = []MsgHalf{{Peer: VertexID(i + 1), Val: value.NewFloat(0.5)}}
			r.Recvs = []MsgHalf{{Peer: VertexID(i + 2), Val: value.NewString("m")}}
			r.Emitted = []Fact{{Table: "prov_error", Args: []value.Value{value.NewInt(int64(i)), value.NewFloat(0.1)}}}
		}
		l.Records = append(l.Records, r)
	}
	return l
}

func TestLayerAccounting(t *testing.T) {
	// 4 superstep + 4 value + 0 evolution (ss-1 = -1) + 2 sends + 2 recvs +
	// 2 emitted + 2 sentany
	l0 := sampleLayer(0, 4)
	for i := range l0.Records {
		l0.Records[i].PrevActive = -1
	}
	want := int64(4 + 4 + 2 + 2 + 2 + 2)
	if got := l0.NumTuples(); got != want {
		t.Errorf("NumTuples = %d, want %d", got, want)
	}
	// With evolution edges present, 4 more.
	l1 := sampleLayer(1, 4)
	if got := l1.NumTuples(); got != want+4 {
		t.Errorf("NumTuples with evolution = %d, want %d", got, want+4)
	}
}

// TestDistinctVertices counts each captured vertex once across layers,
// with IDs on both sides of a bitset page boundary and the largest ID, and
// recounts the surviving layers' vertices after TruncateLayers.
func TestDistinctVertices(t *testing.T) {
	s := NewStore(StoreConfig{})
	defer s.Close()
	layers := [][]VertexID{{0, 65535, 65536}, {65535, 1 << 31, math.MaxUint32}, {0, 7}}
	for ss, ids := range layers {
		l := &Layer{Superstep: ss}
		for _, v := range ids {
			l.Records = append(l.Records, Record{Vertex: v, PrevActive: -1})
		}
		if err := s.AppendLayer(l); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.DistinctVertices(); got != 6 {
		t.Errorf("distinct vertices = %d, want 6", got)
	}
	if err := s.TruncateLayers(1); err != nil {
		t.Fatal(err)
	}
	if got := s.DistinctVertices(); got != 3 {
		t.Errorf("distinct vertices after truncating to one layer = %d, want 3", got)
	}
}

// TestStoreWritesOverSpilledImages appends layers of shrinking and growing
// size to a spilling store, each once the previous layer's file has landed,
// so later images are written over the buffers of earlier ones: every file
// must hold exactly its own layer's bytes, none left over from another.
func TestStoreWritesOverSpilledImages(t *testing.T) {
	dir := t.TempDir()
	s := NewStore(StoreConfig{SpillAll: true, SpillDir: dir})
	defer s.Close()
	layers := []*Layer{wccLayer(0, 300, 4), sampleLayer(1, 5), trickyLayer(2), wccLayer(3, 280, 4), {Superstep: 4}, wccLayer(5, 310, 4)}
	for _, l := range layers {
		if err := s.AppendLayer(l); err != nil {
			t.Fatal(err)
		}
		if err := s.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	for i, l := range layers {
		raw, err := os.ReadFile(filepath.Join(dir, layerFileName(i)))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(raw, oracleEncodeColumnar(l, layerVersionColumnar)) {
			t.Errorf("layer %d: spilled file differs from its own layer's image", i)
		}
	}
}

func TestStoreBasic(t *testing.T) {
	s := NewStore(StoreConfig{})
	defer s.Close()
	for ss := 0; ss < 3; ss++ {
		if err := s.AppendLayer(sampleLayer(ss, 5)); err != nil {
			t.Fatal(err)
		}
	}
	if s.NumLayers() != 3 {
		t.Errorf("layers = %d", s.NumLayers())
	}
	if s.TotalBytes() <= 0 || s.TotalTuples() <= 0 {
		t.Error("size accounting should be positive")
	}
	if s.DistinctVertices() != 5 {
		t.Errorf("distinct vertices = %d, want 5", s.DistinctVertices())
	}
	l, err := s.Layer(1)
	if err != nil || l.Superstep != 1 {
		t.Errorf("Layer(1) = %v, %v", l, err)
	}
	if _, err := s.Layer(9); err == nil {
		t.Error("out-of-range layer should fail")
	}
	if err := s.AppendLayer(sampleLayer(7, 1)); err == nil {
		t.Error("out-of-order append should fail")
	}
}

func TestStoreBudgetWithoutSpillFails(t *testing.T) {
	s := NewStore(StoreConfig{MemoryBudget: 64})
	defer s.Close()
	err := s.AppendLayer(sampleLayer(0, 50))
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("want ErrBudgetExceeded, got %v", err)
	}
}

func TestStoreSpillsAndReloads(t *testing.T) {
	dir := t.TempDir()
	s := NewStore(StoreConfig{MemoryBudget: 2048, SpillDir: dir})
	defer s.Close()
	var want []*Layer
	for ss := 0; ss < 12; ss++ {
		l := sampleLayer(ss, 20)
		want = append(want, l)
		if err := s.AppendLayer(l); err != nil {
			t.Fatal(err)
		}
	}
	if s.SpilledLayers() == 0 {
		t.Fatal("expected some layers to spill")
	}
	if s.ResidentBytes() > 2048 {
		t.Errorf("resident %d exceeds budget", s.ResidentBytes())
	}
	// Spilled layers reload identically.
	for ss := 0; ss < 12; ss++ {
		got, err := s.Layer(ss)
		if err != nil {
			t.Fatalf("Layer(%d): %v", ss, err)
		}
		assertLayersEqual(t, want[ss], got)
	}
	// Spill files exist under dir once the pipeline drains.
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	files, _ := filepath.Glob(filepath.Join(dir, "layer-*.prov"))
	if len(files) != s.SpilledLayers() {
		t.Errorf("spill files %d, want %d", len(files), s.SpilledLayers())
	}
}

// TestSpillAllWithoutSpillDirAppendsNothing: the configuration error is
// reported before the layer is counted anywhere.
func TestSpillAllWithoutSpillDirAppendsNothing(t *testing.T) {
	s := NewStore(StoreConfig{SpillAll: true})
	defer s.Close()
	if err := s.AppendLayer(sampleLayer(0, 3)); err == nil {
		t.Fatal("SpillAll without a SpillDir was accepted")
	}
	if s.NumLayers() != 0 || s.TotalTuples() != 0 || s.TotalBytes() != 0 || s.ResidentBytes() != 0 || s.DistinctVertices() != 0 {
		t.Errorf("rejected layer was counted: %d layers, %d tuples, %d bytes, %d resident, %d vertices",
			s.NumLayers(), s.TotalTuples(), s.TotalBytes(), s.ResidentBytes(), s.DistinctVertices())
	}
}

func TestStoreSingleLayerOverBudget(t *testing.T) {
	dir := t.TempDir()
	s := NewStore(StoreConfig{MemoryBudget: 16, SpillDir: dir})
	defer s.Close()
	// One giant layer cannot fit even after spilling older layers: the
	// newest layer always stays resident, so this must fail like the
	// paper's ALS full-capture (§6.1).
	if err := s.AppendLayer(sampleLayer(0, 100)); !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("want ErrBudgetExceeded, got %v", err)
	}
}

func assertLayersEqual(t *testing.T, a, b *Layer) {
	t.Helper()
	if a.Superstep != b.Superstep || len(a.Records) != len(b.Records) {
		t.Fatalf("layer mismatch: ss %d/%d records %d/%d", a.Superstep, b.Superstep, len(a.Records), len(b.Records))
	}
	for i := range a.Records {
		ra, rb := &a.Records[i], &b.Records[i]
		if ra.Vertex != rb.Vertex || ra.PrevActive != rb.PrevActive ||
			ra.HasValue != rb.HasValue || ra.SentAny != rb.SentAny ||
			!ra.Value.Equal(rb.Value) && ra.HasValue {
			t.Fatalf("record %d differs: %+v vs %+v", i, ra, rb)
		}
		if len(ra.Sends) != len(rb.Sends) || len(ra.Recvs) != len(rb.Recvs) || len(ra.Emitted) != len(rb.Emitted) {
			t.Fatalf("record %d edge counts differ", i)
		}
		for j := range ra.Sends {
			if ra.Sends[j].Peer != rb.Sends[j].Peer || !ra.Sends[j].Val.Equal(rb.Sends[j].Val) {
				t.Fatalf("record %d send %d differs", i, j)
			}
		}
		for j := range ra.Emitted {
			if ra.Emitted[j].Table != rb.Emitted[j].Table || len(ra.Emitted[j].Args) != len(rb.Emitted[j].Args) {
				t.Fatalf("record %d fact %d differs", i, j)
			}
			for k := range ra.Emitted[j].Args {
				if !ra.Emitted[j].Args[k].Equal(rb.Emitted[j].Args[k]) {
					t.Fatalf("record %d fact %d arg %d differs", i, j, k)
				}
			}
		}
	}
}

// v1Fixtures maps each committed APRV v1 file under testdata/v1 — written
// by the v1 row encoder before it was deleted — to the layer it encodes.
func v1Fixtures() map[string]*Layer {
	codec := sampleLayer(5, 30)
	codec.Records[0].Value = value.NewVector([]float64{1, -2, 3})
	codec.Records[1].Value = value.NewString("")
	codec.Records[2].HasValue = false
	m := map[string]*Layer{
		"codec-5-30.prov":  codec,
		"empty-0.prov":     {Superstep: 0},
		"sample-0-6.prov":  sampleLayer(0, 6),
		"sample-3-8.prov":  sampleLayer(3, 8),
		"tricky-2.prov":    trickyLayer(2),
		"wcc-1-40-3.prov":  wccLayer(1, 40, 3),
		"wcc-3-300-4.prov": wccLayer(3, 300, 4),
	}
	for ss := 0; ss < 4; ss++ {
		m["store/"+layerFileName(ss)] = sampleLayer(ss, 12)
	}
	return m
}

func readV1Fixture(t testing.TB, name string) []byte {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", "v1", name))
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestLayerCodecCorruption: a bad magic and a version byte other than 2 or
// 3 fail to decode (TestLayerTruncationNeverPanics covers every cut).
func TestLayerCodecCorruption(t *testing.T) {
	if _, err := readRaw([]byte("XXXX"), maskAll); err == nil {
		t.Error("bad magic should fail")
	}
	bad := encodeLayerColumnar(sampleLayer(0, 6))
	bad[4] = 99
	if _, err := readRaw(bad, maskAll); err == nil || !strings.Contains(err.Error(), "unsupported layer file version 99") {
		t.Errorf("version 99 read = %v, want an unsupported-version error", err)
	}
}

// TestLayerCodecQuick round-trips random layers through the v2 codec:
// decoding a built image and building the decoded layer again reproduces
// the image byte for byte (bit-exact even for NaN inside vectors, which
// value.Equal cannot compare).
func TestLayerCodecQuick(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	for i := 0; i < 200; i++ {
		l := randomLayer(r)
		img := encodeLayerColumnar(l)
		got, err := readRaw(img, maskAll)
		if err != nil {
			t.Fatalf("layer %d: %v", i, err)
		}
		if got.Superstep != l.Superstep || len(got.Records) != len(l.Records) {
			t.Fatalf("layer %d: decoded ss %d with %d records, want ss %d with %d",
				i, got.Superstep, len(got.Records), l.Superstep, len(l.Records))
		}
		if again := encodeLayerColumnar(got); !bytes.Equal(again, img) {
			t.Fatalf("layer %d: re-encoding the decoded layer changed the image", i)
		}
	}
}
