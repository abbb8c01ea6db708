package provenance

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/bits"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
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
func readImage(t *testing.T, img []byte, mask colMask) *Layer {
	t.Helper()
	l, err := readRaw(img, mask)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// project copies l keeping only the core columns and those in mask, the
// layer a decode of l's image with that mask must return.
func project(l *Layer, mask colMask) *Layer {
	peersOnly := func(ms []MsgHalf) []MsgHalf {
		out := make([]MsgHalf, len(ms))
		for j := range ms {
			out[j].Peer = ms[j].Peer
		}
		return out
	}
	out := &Layer{Superstep: l.Superstep, Records: make([]Record, len(l.Records))}
	for i, r := range l.Records {
		if !mask.has(colValues) {
			r.Value = value.NullValue
		}
		if !mask.has(colSendPeers) {
			r.Sends = nil
		} else if !mask.has(colSendValues) {
			r.Sends = peersOnly(r.Sends)
		}
		if mask&maskRecvCounts != 0 {
			r.Recvs = make([]MsgHalf, len(r.Recvs))
		} else if !mask.has(colRecvPeers) {
			r.Recvs = nil
		} else if !mask.has(colRecvValues) {
			r.Recvs = peersOnly(r.Recvs)
		}
		if !mask.has(colEmitted) {
			r.Emitted = nil
		}
		out.Records[i] = r
	}
	return out
}

// columnsOf returns the core columns plus every optional column some record
// of l holds data from: a non-Null payload, send or receive peers or a fact.
func columnsOf(l *Layer) colMask {
	m := maskCore
	for i := range l.Records {
		r := &l.Records[i]
		if !r.Value.IsNull() {
			m |= 1 << colValues
		}
		if r.Sends != nil {
			m |= 1 << colSendPeers
		}
		for _, h := range r.Sends {
			if !h.Val.IsNull() {
				m |= 1 << colSendValues
			}
		}
		if r.Recvs != nil {
			m |= 1 << colRecvPeers
		}
		for _, h := range r.Recvs {
			if !h.Val.IsNull() {
				m |= 1 << colRecvValues
			}
		}
		if r.Emitted != nil {
			m |= 1 << colEmitted
		}
	}
	return m
}

func TestColumnarRoundTrip(t *testing.T) {
	for _, l := range []*Layer{trickyLayer(3), trickyLayer(0), {Superstep: 2}, sampleLayer(1, 50)} {
		f, err := os.Open(writeTempLayer(t, l))
		if err != nil {
			t.Fatal(err)
		}
		st, err := f.Stat()
		if err != nil {
			t.Fatal(err)
		}
		var v LayerViews
		var w decodeWork
		err = v.read(f, st.Size(), maskAll, &w, nil, 0)
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
		assertLayersIdentical(t, l, v.layer())
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

// TestColumnarProjection reads the same image under every projection and
// checks that each decode reads and holds exactly the core columns plus the
// projected ones, with the layer's own data in them: the send peers only
// when projected, and under RecvCounts alone as many zero receives per
// record as it received.
func TestColumnarProjection(t *testing.T) {
	l := trickyLayer(4)
	img := encodeLayerColumnar(l)
	for _, p := range []*LayerProjection{nil, {}, {Values: true}, {SendPeers: true}, {SendValues: true}, {RecvPeers: true},
		{RecvValues: true}, {Emitted: true}, {Values: true, SendValues: true, Emitted: true}, {SendPeers: true, RecvPeers: true},
		{RecvCounts: true}, {RecvCounts: true, Values: true}, {RecvCounts: true, RecvPeers: true}, {RecvCounts: true, RecvValues: true}} {
		mask := p.mask()
		if counts := mask&maskRecvCounts != 0; counts != (p != nil && p.RecvCounts && !p.RecvPeers && !p.RecvValues) {
			t.Errorf("projection %+v reads the receive counts alone: %v", p, counts)
		}
		got, work, err := readRawWork(img, nil, mask)
		if err != nil {
			t.Fatal(err)
		}
		if cols := columnsOf(got); cols != mask.blocks() {
			t.Errorf("projection %+v materialized columns %09b, want %09b", p, cols, mask.blocks())
		}
		if cols := decodedColumns(work); cols != mask.blocks() {
			t.Errorf("projection %+v decoded columns %09b, want %09b", p, cols, mask.blocks())
		}
		if peers := p == nil || p.SendPeers || p.SendValues; (work[colSendPeers].Blocks == 1) != peers {
			t.Errorf("projection %+v decoded %d sendPeers blocks, want them exactly when projected", p, work[colSendPeers].Blocks)
		}
		if !bytes.Equal(encodeLayerColumnar(got), encodeLayerColumnar(project(l, mask))) {
			t.Errorf("projection %+v decoded other data than the layer's projected columns", p)
		}
	}
}

// TestVarintEndsMatchesByteLoop: the word-at-a-time terminator count of
// varintEnds and of skip, which every full peer-column read and every
// counts-only skip rely on, agrees with a byte loop over random varint
// streams and random bytes, read from every offset of the stream and of
// a copy of it at every offset of a word. Skipping k varints ends where the
// k-th end byte does, or fails when the stream holds fewer.
func TestVarintEndsMatchesByteLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := range 120 {
		var stream []byte
		for n := rng.Intn(40); n > 0; n-- {
			if trial%2 == 0 {
				stream = binary.AppendUvarint(stream, rng.Uint64()>>rng.Intn(64))
			} else {
				stream = append(stream, byte(rng.Intn(256))|byte(rng.Intn(2))<<7)
			}
		}
		for shift := range 8 {
			b := append(make([]byte, shift), stream...)[shift:]
			for off := 0; off <= len(b); off++ {
				ends := 0
				for _, x := range b[off:] {
					if x < 0x80 {
						ends++
					}
				}
				if got := varintEnds(b[off:]); got != ends {
					t.Fatalf("trial %d shift %d offset %d: varintEnds = %d, the byte loop counts %d", trial, shift, off, got, ends)
				}
				for k := 0; k <= ends+1; k++ {
					at, left := off, k
					for ; left > 0 && at < len(b); at++ {
						if b[at] < 0x80 {
							left--
						}
					}
					c := bcursor{b: b, off: off}
					err := c.skip(k)
					if (err != nil) != (left > 0) || err == nil && c.off != at {
						t.Fatalf("trial %d shift %d offset %d: skip(%d) = %v at %d, the byte loop ends at %d with %d left",
							trial, shift, off, k, err, c.off, at, left)
					}
				}
			}
		}
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

// TestV1FilesRejected: a row-format (version 1) layer file, which earlier
// builds wrote, fails to decode under every projection with an error naming
// its version, while the same layer's columnar image decodes. A spill
// directory of them fails to reattach the same way.
func TestV1FilesRejected(t *testing.T) {
	for name, want := range v1Fixtures() {
		raw := readV1Fixture(t, name)
		for _, mask := range []colMask{maskAll, maskCore} {
			if _, err := readRaw(raw, mask); err == nil || !strings.Contains(err.Error(), "unsupported layer file version 1") {
				t.Errorf("%s: read with mask %09b = %v, want the version 1 rejection", name, mask, err)
			}
		}
		assertLayersIdentical(t, want, readImage(t, encodeLayerColumnar(want), maskAll))
	}

	dir := t.TempDir()
	for ss := 0; ss < 4; ss++ {
		name := layerFileName(ss)
		if err := os.WriteFile(filepath.Join(dir, name), readV1Fixture(t, "store/"+name), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s := NewStore(StoreConfig{SpillAll: true, SpillDir: dir})
	if err := s.Reattach(4); err == nil || !strings.Contains(err.Error(), "version 1") {
		t.Fatalf("reattaching v1 files = %v, want the version 1 rejection", err)
	}
	if s.NumLayers() != 0 {
		t.Errorf("a rejected reattach adopted %d layers", s.NumLayers())
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
	var v LayerViews
	var w decodeWork
	if err := v.read(image(img), int64(len(img)), maskAll, &w, nil, 0); err != nil {
		t.Fatal(err)
	}
	assertLayersIdentical(t, l, v.layer())
}

// TestLayerViewsGrowByDoubling reads layers of rising record count, one
// more each, into one LayerViews: its views reallocate about log2 of the
// largest layer's records times, not once per new largest layer.
func TestLayerViewsGrowByDoubling(t *testing.T) {
	const layers = 300
	s := NewStore(StoreConfig{SpillAll: true, SpillDir: t.TempDir()})
	defer s.Close()
	for ss := 0; ss < layers; ss++ {
		l := &Layer{Superstep: ss}
		for v := 0; v <= ss; v++ {
			l.Records = append(l.Records, Record{Vertex: VertexID(v), PrevActive: -1, HasValue: true, Value: value.NewInt(int64(v))})
		}
		if err := s.AppendLayer(l); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	var v LayerViews
	grew, last := 0, 0
	for i := 0; i < layers; i++ {
		if err := s.LayerProjected(i, &LayerProjection{}, &v); err != nil {
			t.Fatal(err)
		}
		if len(v.Records) != i+1 {
			t.Fatalf("layer %d: %d views, want %d", i, len(v.Records), i+1)
		}
		if views, _ := v.Capacity(); views != last {
			grew, last = grew+1, views
		}
	}
	if bound := bits.Len(layers) + 1; grew > bound {
		t.Errorf("views reallocated %d times over layers of 1..%d records, bound %d", grew, layers, bound)
	}
}
