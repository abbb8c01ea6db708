package provenance

import (
	"bytes"
	"encoding/binary"
	"math"
	"strings"
	"testing"
	"unsafe"

	"ariadne/internal/value"
)

// broadcastLayer has the shape of a PageRank or ALS layer under full
// capture: each record sends one payload to every neighbour (a fractional
// float, or on every third record a 3-dim vector), receives differing
// payloads, and every fifth record breaks its broadcast once, so its
// repeats stop and restart.
func broadcastLayer(ss, nrec, fanout int) *Layer {
	l := &Layer{Superstep: ss}
	for i := 0; i < nrec; i++ {
		payload := value.NewFloat(0.15 + float64(i)/7)
		if i%3 == 0 {
			payload = value.NewVector([]float64{float64(i) / 3, -0.5, 1e-3})
		}
		r := Record{Vertex: VertexID(i * 2), PrevActive: int32(ss - 1), HasValue: true, Value: payload, SentAny: true}
		for k := 0; k < fanout; k++ {
			val := payload
			if i%5 == 0 && k == fanout/2 {
				val = value.NewFloat(float64(k) / 9)
			}
			r.Sends = append(r.Sends, MsgHalf{Peer: VertexID((i*2 + k + 1) % (nrec * 2)), Val: val})
			r.Recvs = append(r.Recvs, MsgHalf{Peer: VertexID((i*2 + 2*k + 3) % (nrec * 2)), Val: value.NewFloat(float64(i*k) / 11)})
		}
		if i%4 == 0 {
			r.Emitted = []Fact{{Table: "prov_error", Args: []value.Value{payload, payload}}}
		}
		l.Records = append(l.Records, r)
	}
	return l
}

// layerBinary renders every field of l a layer file holds, payloads by
// AppendBinary, so two layers are bit-identical exactly when their
// renderings are equal: -0.0, NaN payloads and Int-versus-Float all show.
func layerBinary(l *Layer) []byte {
	b := binary.AppendVarint(nil, int64(l.Superstep))
	halves := func(ms []MsgHalf) {
		b = binary.AppendVarint(b, int64(len(ms)))
		for _, m := range ms {
			b = binary.AppendVarint(b, int64(m.Peer))
			b = m.Val.AppendBinary(b)
		}
	}
	for i := range l.Records {
		r := &l.Records[i]
		b = binary.AppendVarint(b, int64(r.Vertex))
		b = binary.AppendVarint(b, int64(r.PrevActive))
		b = append(b, boolByte(r.HasValue), boolByte(r.SentAny))
		if r.HasValue {
			b = r.Value.AppendBinary(b)
		}
		halves(r.Sends)
		halves(r.Recvs)
		b = binary.AppendVarint(b, int64(len(r.Emitted)))
		for _, f := range r.Emitted {
			b = append(b, f.Table...)
			b = binary.AppendVarint(b, int64(len(f.Args)))
			for _, a := range f.Args {
				b = a.AppendBinary(b)
			}
		}
	}
	return b
}

func boolByte(x bool) byte {
	if x {
		return 1
	}
	return 0
}

// sendRepeats reports, per record of img, which of its sends the
// send-value column holds as the repeat code.
func sendRepeats(t *testing.T, img []byte) [][]bool {
	t.Helper()
	l, err := readRaw(img, 1<<colSendPeers)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := openColumnar(image(img), int64(len(img)), new([]byte))
	if err != nil {
		t.Fatal(err)
	}
	off := cl.offs[colSendValues]
	c := bcursor{b: img[off : off+cl.lens[colSendValues]]}
	out := make([][]bool, len(l.Records))
	for i := range l.Records {
		for range l.Records[i].Sends {
			repeat := c.b[c.off] == pvRepeat
			if repeat {
				c.off++
			} else if _, err := c.packedValue(); err != nil {
				t.Fatal(err)
			}
			out[i] = append(out[i], repeat)
		}
	}
	if c.remaining() != 0 {
		t.Fatalf("send-value column has %d bytes past its last send", c.remaining())
	}
	return out
}

// TestSendRepeatBitExact pins the repeat rule case by case: a send is the
// repeat code exactly when its payload is bit-identical to the previous
// send's of the same record. Signed zeros, NaN payloads, Int against
// Float, strings, nil against empty vectors, equal vectors at different
// addresses and Null payloads (Query 11's send flags) each get a record.
// The builder's image must equal the byte-comparing oracle's, and decoding
// it, whole or projected, must give back the layer bit for bit.
func TestSendRepeatBitExact(t *testing.T) {
	negZero := math.Copysign(0, -1)
	nan := math.NaN()
	nan2 := math.Float64frombits(math.Float64bits(nan) ^ 1)
	vec10 := func() value.Value {
		v := make([]float64, 10)
		for i := range v {
			v[i] = float64(i)/3 - 1
		}
		v[4] = nan
		return value.NewVector(v)
	}
	f, i, s := value.NewFloat, value.NewInt, value.NewString
	cases := []struct {
		name    string
		sends   []value.Value
		repeats []bool
	}{
		{"signed zeros", []value.Value{f(0), f(negZero), f(negZero), f(0)}, []bool{false, false, true, false}},
		{"NaN payloads", []value.Value{f(nan), f(nan), f(nan2), f(nan2)}, []bool{false, true, false, true}},
		{"Int and Float", []value.Value{i(3), f(3), f(3), i(3)}, []bool{false, false, true, false}},
		{"strings", []value.Value{s("ab"), s(strings.Clone("ab")), s("ba"), s(""), s("")}, []bool{false, true, false, false, true}},
		{"vectors", []value.Value{value.NewVector(nil), value.NewVector([]float64{}), vec10(), vec10(), value.NewVector([]float64{0})},
			[]bool{false, true, false, true, false}},
		{"nulls", []value.Value{value.NullValue, value.NullValue, value.NullValue}, []bool{false, true, true}},
		// The previous record's last payload again: repeats are record-local.
		{"record-local", []value.Value{value.NullValue, value.NewBool(true), value.NewBool(true)}, []bool{false, false, true}},
	}
	l := &Layer{Superstep: 4}
	for k, c := range cases {
		r := Record{Vertex: VertexID(10 * k), PrevActive: 3, SentAny: true}
		for j, v := range c.sends {
			r.Sends = append(r.Sends, MsgHalf{Peer: VertexID(100 + j), Val: v})
			r.Recvs = append(r.Recvs, MsgHalf{Peer: VertexID(200 + j), Val: v})
		}
		l.Records = append(l.Records, r)
	}
	img := encodeLayerColumnar(l)
	if !bytes.Equal(img, oracleEncodeColumnar(l, layerVersionColumnar)) {
		t.Fatal("builder image differs from the oracle's")
	}
	got := sendRepeats(t, img)
	for k, c := range cases {
		for j := range c.repeats {
			if got[k][j] != c.repeats[j] {
				t.Errorf("%s: send %d (%v, %v) repeat = %v, want %v", c.name, j, c.sends[j], c.sends[j].Kind(), got[k][j], c.repeats[j])
			}
		}
	}

	for _, p := range []*LayerProjection{nil, {}, {SendPeers: true}, {SendValues: true}, {RecvValues: true}, {Values: true, Emitted: true}} {
		mask := p.mask()
		dec := readImage(t, img, mask)
		if !bytes.Equal(layerBinary(dec), layerBinary(project(l, mask))) {
			t.Errorf("projection %+v: decoded layer is not bit-identical to the source", p)
		}
	}
	// A repeated vector shares the slice of the send it repeats.
	dec := readImage(t, img, maskAll)
	vs := dec.Records[4].Sends
	if unsafe.SliceData(vs[3].Val.Vec()) != unsafe.SliceData(vs[2].Val.Vec()) {
		t.Error("a repeated vector payload was decoded into a slice of its own")
	}
}

// TestV2ImageDecodes: a version 2 image, which packs every send in full,
// decodes through the one decoder to the same layer, bit for bit, as the
// version 3 image of the same records, under every projection.
func TestV2ImageDecodes(t *testing.T) {
	for _, l := range []*Layer{broadcastLayer(2, 30, 5), trickyLayer(3), wccLayer(1, 40, 3), sampleLayer(3, 8), {Superstep: 0}} {
		v2 := oracleEncodeColumnar(l, layerVersionNoRepeat)
		if v2[4] != 2 {
			t.Fatalf("oracle wrote version %d, want 2", v2[4])
		}
		v3 := encodeLayerColumnar(l)
		for _, p := range []*LayerProjection{nil, {}, {SendPeers: true}, {SendValues: true}, {RecvPeers: true}, {Values: true, Emitted: true}} {
			mask := p.mask()
			want := layerBinary(project(l, mask))
			if got := layerBinary(readImage(t, v2, mask)); !bytes.Equal(got, want) {
				t.Errorf("ss %d, projection %+v: the version 2 image decodes to another layer", l.Superstep, p)
			}
			if got := layerBinary(readImage(t, v3, mask)); !bytes.Equal(got, want) {
				t.Errorf("ss %d, projection %+v: the version 3 image decodes to another layer", l.Superstep, p)
			}
		}
	}
}

// misplacedRepeat returns the builder image of a layer whose every payload
// is Null, with the last byte of column col — a Null payload's tag —
// turned into the repeat code. Two records each send, receive and hold one
// Null and emit one fact with one Null argument, so in sendValues the code
// lands on the second record's first send.
func misplacedRepeat(col int) []byte {
	l := &Layer{Superstep: 1}
	for v := VertexID(0); v < 2; v++ {
		l.Records = append(l.Records, Record{Vertex: v, PrevActive: 0, HasValue: true,
			Sends:   []MsgHalf{{Peer: 5}},
			Recvs:   []MsgHalf{{Peer: 6}},
			Emitted: []Fact{{Table: "t", Args: []value.Value{value.NullValue}}}})
	}
	img := encodeLayerColumnar(l)
	cl, err := openColumnar(image(img), int64(len(img)), new([]byte))
	if err != nil {
		panic(err)
	}
	end := cl.offs[col] + cl.lens[col] - 1
	if img[end] != pvNull {
		panic("misplacedRepeat: column does not end in a Null payload")
	}
	img[end] = pvRepeat
	return img
}

// TestRepeatCodeMisplacedRejected: the repeat code as a record's first
// send, or in any column but sendValues, fails the decode of that column
// with a clean error, while projections that skip the column still decode.
func TestRepeatCodeMisplacedRejected(t *testing.T) {
	for _, tc := range []struct {
		col  int
		want string
	}{
		{colSendValues, "repeat code as record 1's first send"},
		{colRecvValues, "repeat code outside the send-value column"},
		{colValues, "repeat code outside the send-value column"},
		{colEmitted, "repeat code outside the send-value column"},
	} {
		img := misplacedRepeat(tc.col)
		if _, err := readRaw(img, maskAll); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("column %d: full read = %v, want %q", tc.col, err, tc.want)
		}
		if _, err := readRaw(img, maskCore); err != nil {
			t.Errorf("column %d: core read = %v, want success", tc.col, err)
		}
	}
}
