package provenance

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"testing"

	"ariadne/internal/value"
)

// trickyLayer exercises every value representation the packed encoding
// distinguishes: negative ints, integral and fractional floats, -0.0, NaN,
// infinities, floats at the integral-encoding range boundary, empty and
// non-ASCII strings, integral and fractional vectors, repeated emitted
// table names, and records with no sends/recvs/value.
func trickyLayer(ss int) *Layer {
	vals := []value.Value{
		value.NullValue,
		value.NewBool(true),
		value.NewBool(false),
		value.NewInt(0),
		value.NewInt(-1),
		value.NewInt(math.MaxInt64),
		value.NewInt(math.MinInt64),
		value.NewFloat(0),
		value.NewFloat(math.Copysign(0, -1)), // -0.0 must not collapse to +0.0
		value.NewFloat(42),
		value.NewFloat(-1.5),
		value.NewFloat(math.NaN()),
		value.NewFloat(math.Inf(1)),
		value.NewFloat(math.Inf(-1)),
		value.NewFloat(1 << 62),
		value.NewFloat(-(1 << 62)),
		value.NewFloat(6755399441055744.5), // fractional, large
		value.NewString(""),
		value.NewString("héllo\x00world"),
		value.NewVector(nil),
		value.NewVector([]float64{1, -2, 3}),
		value.NewVector([]float64{0.5, -0.25, 1e300}),
	}
	l := &Layer{Superstep: ss}
	for i, v := range vals {
		r := Record{
			Vertex:     VertexID(i * 7),
			PrevActive: int32(ss - 1 - i%3),
			HasValue:   i%5 != 4,
			Value:      v,
			SentAny:    i%3 == 0,
		}
		if r.PrevActive < -1 {
			r.PrevActive = -1
		}
		if i%2 == 0 {
			// Peers deliberately out of order and below the vertex ID, so the
			// delta encoding sees negative deltas and order preservation is
			// observable.
			r.Sends = []MsgHalf{
				{Peer: VertexID(i + 9), Val: v},
				{Peer: VertexID(0), Val: value.NewInt(int64(i))},
				{Peer: VertexID(i + 1), Val: value.NullValue},
			}
		}
		if i%3 == 0 {
			r.Recvs = []MsgHalf{
				{Peer: VertexID(i + 2), Val: value.NewString("m")},
				{Peer: VertexID(1), Val: v},
			}
		}
		if i%4 == 0 {
			r.Emitted = []Fact{
				{Table: "prov_error", Args: []value.Value{value.NewInt(int64(i)), v}},
				{Table: "component_update", Args: nil},
				{Table: "prov_error", Args: []value.Value{value.NullValue}},
			}
		}
		l.Records = append(l.Records, r)
	}
	return l
}

// assertLayersIdentical is assertLayersEqual plus receive-message contents
// (the shared helper only checks counts there) — projection tests need to
// see exactly which columns materialized.
func assertLayersIdentical(t *testing.T, want, got *Layer) {
	t.Helper()
	assertLayersEqual(t, want, got)
	for i := range want.Records {
		ra, rb := &want.Records[i], &got.Records[i]
		for j := range ra.Recvs {
			if ra.Recvs[j].Peer != rb.Recvs[j].Peer || !ra.Recvs[j].Val.Equal(rb.Recvs[j].Val) {
				t.Fatalf("record %d recv %d differs: %+v vs %+v", i, j, ra.Recvs[j], rb.Recvs[j])
			}
		}
		if ra.HasValue && !ra.Value.Equal(rb.Value) {
			t.Fatalf("record %d value differs: %v vs %v", i, ra.Value, rb.Value)
		}
	}
}

func writeTempLayer(t *testing.T, l *Layer) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "layer.prov")
	if err := writeLayerFile(path, encodeLayerColumnar(l), l.Superstep, nil, nil); err != nil {
		t.Fatal(err)
	}
	return path
}

// readImage decodes a v2 image with the columns in mask.
func readImage(t *testing.T, img []byte, mask colMask) (*Layer, colMask) {
	t.Helper()
	l, got, err := readLayer(bytes.NewReader(img), int64(len(img)), mask)
	if err != nil {
		t.Fatal(err)
	}
	return l, got
}

func TestColumnarRoundTrip(t *testing.T) {
	for _, l := range []*Layer{trickyLayer(3), trickyLayer(0), {Superstep: 2}, sampleLayer(1, 50)} {
		path := writeTempLayer(t, l)
		got, err := readLayerFile(path)
		if err != nil {
			t.Fatal(err)
		}
		assertLayersIdentical(t, l, got)
	}
}

// TestColumnarFloatBitIdentity pins the packed float encoding to bit-exact
// round-trips: -0.0, NaN payload-default, and the int64-boundary values
// must come back with identical Float64bits.
func TestColumnarFloatBitIdentity(t *testing.T) {
	floats := []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1),
		1 << 62, -(1 << 62), 1<<63 - 1024, math.MaxFloat64, math.SmallestNonzeroFloat64, -1.5, 42}
	for _, f := range floats {
		buf := appendPackedValue(nil, value.NewFloat(f))
		c := bcursor{b: buf}
		got, err := c.packedValue()
		if err != nil {
			t.Fatalf("decode %v: %v", f, err)
		}
		if math.Float64bits(got.Float()) != math.Float64bits(f) {
			t.Errorf("float %v round-tripped to %v (bits %x vs %x)", f, got.Float(),
				math.Float64bits(f), math.Float64bits(got.Float()))
		}
	}
}

// TestColumnarVectorNaNBitIdentity covers NaN inside vectors, which
// value.Equal cannot compare (elementwise != is NaN-hostile): the packed
// encoding must still round-trip every element bit-exactly.
func TestColumnarVectorNaNBitIdentity(t *testing.T) {
	want := []float64{0.5, math.NaN(), math.Copysign(0, -1), math.Inf(-1)}
	buf := appendPackedValue(nil, value.NewVector(want))
	c := bcursor{b: buf}
	got, err := c.packedValue()
	if err != nil {
		t.Fatal(err)
	}
	vec := got.Vec()
	if len(vec) != len(want) {
		t.Fatalf("vector length %d, want %d", len(vec), len(want))
	}
	for i := range want {
		if math.Float64bits(vec[i]) != math.Float64bits(want[i]) {
			t.Errorf("element %d: %v round-tripped to %v", i, want[i], vec[i])
		}
	}
}

func TestIntegralFloat(t *testing.T) {
	if _, ok := integralFloat(math.Copysign(0, -1)); ok {
		t.Error("-0.0 must not encode as an integer (sign bit would be lost)")
	}
	if _, ok := integralFloat(math.NaN()); ok {
		t.Error("NaN must not encode as an integer")
	}
	if _, ok := integralFloat(1.5); ok {
		t.Error("fractional floats must not encode as integers")
	}
	if i, ok := integralFloat(42); !ok || i != 42 {
		t.Errorf("integralFloat(42) = %d, %v", i, ok)
	}
	if i, ok := integralFloat(-3); !ok || i != -3 {
		t.Errorf("integralFloat(-3) = %d, %v", i, ok)
	}
}

// TestColumnarProjection reads the same image under narrowing projections
// and checks exactly which columns materialize; then widens the partial
// layer with mergeLayerColumns back to full and checks identity.
func TestColumnarProjection(t *testing.T) {
	l := trickyLayer(4)
	img := encodeLayerColumnar(l)

	// Core-only projection: topology present, payload columns absent.
	core, gotMask := readImage(t, img, (&LayerProjection{}).mask())
	if gotMask != maskCore {
		t.Fatalf("core projection materialized mask %09b, want %09b", gotMask, maskCore)
	}
	for i := range l.Records {
		ra, rb := &l.Records[i], &core.Records[i]
		if ra.Vertex != rb.Vertex || ra.PrevActive != rb.PrevActive ||
			ra.HasValue != rb.HasValue || ra.SentAny != rb.SentAny {
			t.Fatalf("core record %d differs: %+v vs %+v", i, ra, rb)
		}
		if len(ra.Sends) != len(rb.Sends) {
			t.Fatalf("core record %d send count %d, want %d", i, len(rb.Sends), len(ra.Sends))
		}
		for j := range ra.Sends {
			if ra.Sends[j].Peer != rb.Sends[j].Peer {
				t.Fatalf("core record %d send peer %d differs", i, j)
			}
			if !rb.Sends[j].Val.IsNull() {
				t.Fatalf("core record %d send %d has a value despite projection", i, j)
			}
		}
		if rb.Recvs != nil || rb.Emitted != nil || !rb.Value.IsNull() {
			t.Fatalf("core record %d materialized unprojected columns: %+v", i, rb)
		}
	}

	// RecvValues implies RecvPeers.
	rp, gotMask := readImage(t, img, (&LayerProjection{RecvValues: true}).mask())
	if !gotMask.has(colRecvPeers) || !gotMask.has(colRecvValues) {
		t.Fatalf("RecvValues projection mask %09b misses recv columns", gotMask)
	}
	for i := range l.Records {
		ra, rb := &l.Records[i], &rp.Records[i]
		if len(ra.Recvs) != len(rb.Recvs) {
			t.Fatalf("record %d recv count %d, want %d", i, len(rb.Recvs), len(ra.Recvs))
		}
		for j := range ra.Recvs {
			if ra.Recvs[j].Peer != rb.Recvs[j].Peer || !ra.Recvs[j].Val.Equal(rb.Recvs[j].Val) {
				t.Fatalf("record %d recv %d differs under projection", i, j)
			}
		}
	}

	// Widening the core layer column by column converges to the full layer.
	if err := mergeLayerColumns(bytes.NewReader(img), int64(len(img)), core, maskAll&^maskCore); err != nil {
		t.Fatal(err)
	}
	assertLayersIdentical(t, l, core)
}

// TestProjectedLayerChargesLessMemory pins the satellite accounting
// contract: a partially materialized layer must have a strictly smaller
// MemSize than the full decode of the same file (decoded columns only).
func TestProjectedLayerChargesLessMemory(t *testing.T) {
	img := encodeLayerColumnar(trickyLayer(4))
	full, _ := readImage(t, img, maskAll)
	core, _ := readImage(t, img, maskCore)
	if core.MemSize() >= full.MemSize() {
		t.Errorf("projected layer MemSize %d >= full %d", core.MemSize(), full.MemSize())
	}
}

// TestColumnarSmallerThanRowFormat is a sanity floor on storage
// compression: on an int-valued message-heavy layer (the WCC shape), the
// columnar image must be at least 3x smaller than the same layer's
// committed v1 row file.
func TestColumnarSmallerThanRowFormat(t *testing.T) {
	v1 := len(readV1Fixture(t, "wcc-3-300-4.prov"))
	v2 := len(encodeLayerColumnar(wccLayer(3, 300, 4)))
	if v2*3 > v1 {
		t.Errorf("v2 image %d bytes vs v1 %d: reduction %.2fx < 3x", v2, v1, float64(v1)/float64(v2))
	}
}

// TestV1FilesRemainReadable reattaches v1 layer files (an earlier build's
// spill output) — the checkpoint/resume compatibility path. Projected reads
// against v1 files must silently degrade to full materialization.
func TestV1FilesRemainReadable(t *testing.T) {
	dir := t.TempDir()
	var want []*Layer
	for ss := 0; ss < 4; ss++ {
		name := layerFileName(ss)
		if err := os.WriteFile(filepath.Join(dir, name), readV1Fixture(t, "store/"+name), 0o644); err != nil {
			t.Fatal(err)
		}
		want = append(want, sampleLayer(ss, 12))
	}
	s := NewStore(StoreConfig{SpillAll: true, SpillDir: dir})
	if err := s.Reattach(4); err != nil {
		t.Fatalf("reattaching v1 files: %v", err)
	}
	for ss := 0; ss < 4; ss++ {
		got, err := s.LayerProjected(ss, &LayerProjection{})
		if err != nil {
			t.Fatal(err)
		}
		// v1 files have no column blocks: the projected read returns the
		// full layer.
		assertLayersIdentical(t, want[ss], got)
	}
	// New layers appended by the resumed run spill as v2; both formats then
	// coexist in one store directory.
	if err := s.AppendLayer(sampleLayer(4, 12)); err != nil {
		t.Fatal(err)
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, layerFileName(4)))
	if err != nil {
		t.Fatal(err)
	}
	if raw[4] != layerVersionColumnar {
		t.Fatalf("resumed store wrote version %d, want v2", raw[4])
	}
	got, err := s.Layer(4)
	if err != nil {
		t.Fatal(err)
	}
	if got.Superstep != 4 || len(got.Records) != 12 {
		t.Fatalf("mixed-format store misread layer 4: ss %d, %d records", got.Superstep, len(got.Records))
	}
}

// wccLayer models a WCC-style custom capture: integer component labels,
// label messages to a few neighbors, and one emitted fact per converged
// record under a shared table name — the shape the paper's Table 3/4
// storage comparisons are about.
func wccLayer(ss, nrec, fanout int) *Layer {
	l := &Layer{Superstep: ss}
	for i := 0; i < nrec; i++ {
		label := int64(i % 97)
		r := Record{
			Vertex:     VertexID(i * 2),
			PrevActive: int32(ss - 1),
			HasValue:   true,
			Value:      value.NewInt(label),
			SentAny:    true,
		}
		for k := 0; k < fanout; k++ {
			r.Sends = append(r.Sends, MsgHalf{Peer: VertexID((i*2 + k + 1) % (nrec * 2)), Val: value.NewInt(label)})
			r.Recvs = append(r.Recvs, MsgHalf{Peer: VertexID((i*2 + 2*k + 3) % (nrec * 2)), Val: value.NewInt(label + 1)})
		}
		if i%4 == 0 {
			r.Emitted = []Fact{{Table: "component_update", Args: []value.Value{value.NewInt(label), value.NewInt(int64(ss))}}}
		}
		l.Records = append(l.Records, r)
	}
	return l
}

// TestColumnarBufferRoundTrip drives the encoder/decoder through an
// in-memory image (how the store reads resident layers) rather than a file.
func TestColumnarBufferRoundTrip(t *testing.T) {
	l := trickyLayer(2)
	img := encodeLayerColumnar(l)
	cl, err := openColumnar(bytes.NewReader(img), int64(len(img)))
	if err != nil {
		t.Fatal(err)
	}
	got := &Layer{}
	if err := cl.decodeInto(got, maskAll); err != nil {
		t.Fatal(err)
	}
	assertLayersIdentical(t, l, got)
}
