package provenance

import (
	"bytes"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"ariadne/internal/engine"
	"ariadne/internal/value"
)

// comparePairs are payloads value.Compare calls equal but the encoding
// tells apart (3 and 3.0, 0.0 and -0.0), with a NaN, which Compare calls
// equal to everything: a sender's several messages to one vertex must keep
// their order among these exactly as the engine does.
var comparePairs = []value.Value{
	value.NewInt(3), value.NewFloat(3), value.NewFloat(0), value.NewFloat(math.Copysign(0, -1)),
	value.NewFloat(math.NaN()), value.NewFloat(-1.25), value.NewString("m"), value.NewVector([]float64{1, 0.5}),
}

// receivesOf returns the layer after prev whose receive payloads derive
// from prev's sends: every vertex prev sends to that keep
// admits, its receives being prev's sends to it in sender order, put into
// the engine's message order (engine.Canonicalize) as the engine delivers
// them. Each record gets a value and r's sends.
func receivesOf(prev *Layer, r *rand.Rand, keep func(VertexID) bool) *Layer {
	l := &Layer{Superstep: prev.Superstep + 1}
	in := map[VertexID][]engine.IncomingMessage{}
	var order []VertexID
	for _, s := range prev.Records {
		for _, m := range s.Sends {
			if _, ok := in[m.Peer]; !ok {
				order = append(order, m.Peer)
			}
			in[m.Peer] = append(in[m.Peer], engine.IncomingMessage{Src: s.Vertex, Val: m.Val})
		}
	}
	slices.Sort(order)
	for _, x := range order {
		if !keep(x) {
			continue
		}
		ms := in[x]
		engine.Canonicalize(ms)
		rec := Record{Vertex: x, PrevActive: int32(prev.Superstep), HasValue: true, Value: value.NewInt(int64(len(ms)))}
		for _, m := range ms {
			rec.Recvs = append(rec.Recvs, MsgHalf{Peer: m.Src, Val: m.Val})
		}
		rec.Sends = randomSends(r)
		l.Records = append(l.Records, rec)
	}
	return l
}

// randomSends draws up to five sends to vertices below 24, so a sender
// often messages one vertex several times, with payloads from comparePairs;
// a third of the senders broadcast one payload, which the repeat code stores.
func randomSends(r *rand.Rand) []MsgHalf {
	var ms []MsgHalf
	payload := comparePairs[r.Intn(len(comparePairs))]
	broadcast := r.Intn(3) == 0
	for j := r.Intn(6); j > 0; j-- {
		val := comparePairs[r.Intn(len(comparePairs))]
		if broadcast {
			val = payload
		}
		ms = append(ms, MsgHalf{Peer: VertexID(r.Intn(24)), Val: val})
	}
	return ms
}

// derivedChain returns n layers, each after the first receiving exactly
// the previous layer's sends, as a full capture's layers do.
func derivedChain(seed int64, n int) []*Layer {
	r := rand.New(rand.NewSource(seed))
	first := &Layer{Superstep: 0}
	for v := VertexID(0); v < 24; v += VertexID(1 + r.Intn(3)) {
		first.Records = append(first.Records, Record{Vertex: v, PrevActive: -1, HasValue: true, Value: value.NewFloat(float64(v)), Sends: randomSends(r)})
	}
	layers := []*Layer{first}
	for len(layers) < n {
		layers = append(layers, receivesOf(layers[len(layers)-1], r, func(VertexID) bool { return true }))
	}
	return layers
}

// encodeDerived is l's image with its receive payloads derived, l's records
// split over parts segments by vertex as the engine's partitions hold them.
func encodeDerived(l *Layer, parts int) []byte {
	segs := make([]*LayerBuilder, parts)
	for p := range segs {
		segs[p] = NewLayerBuilder(l.Superstep)
		segs[p].DeriveRecvValues()
	}
	for i := range l.Records {
		segs[int(l.Records[i].Vertex)%parts].add(&l.Records[i])
	}
	return new(stitcher).layer(l.Superstep, segs)
}

// layerImage returns the bytes of layer i's file.
func layerImage(t *testing.T, s *Store, i int) []byte {
	t.Helper()
	r, size, f, err := s.file(i)
	if err != nil {
		t.Fatal(err)
	}
	if f != nil {
		defer f.Close()
	}
	raw := make([]byte, size)
	if _, err := r.ReadAt(raw, 0); err != nil {
		t.Fatal(err)
	}
	return raw
}

// prevImage is img as every layer's file, the previous layer's of a read,
// read through a reader when reader is set, as a spilled layer is read.
type prevImage struct {
	img    []byte
	reader bool
}

func (p prevImage) file(int) (io.ReaderAt, int64, *os.File, error) {
	if p.reader {
		return bytes.NewReader(p.img), int64(len(p.img)), nil, nil
	}
	return image(p.img), int64(len(p.img)), nil, nil
}

// opens opens img as the previous layer's file (see prevImage).
func opens(img []byte, reader bool) layerFiles { return prevImage{img, reader} }

// TestDerivedLayerRoundTrip: a layer whose receive payloads derive from the
// previous layer's sends — multi-edges with Compare-equal payloads, NaN,
// broadcasts — is written as the oracle writes it, at any partition count,
// without its receive-value column, and every projected read of it, from an
// image or a reader, gives back exactly the layer the builder was fed.
func TestDerivedLayerRoundTrip(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		layers := derivedChain(seed, 4)
		for i := 1; i < len(layers); i++ {
			prev, l := encodeLayerColumnar(layers[i-1]), layers[i]
			img := oracleEncodeDerived(l)
			for _, parts := range []int{1, 4} {
				if got := encodeDerived(l, parts); !bytes.Equal(got, img) {
					t.Fatalf("seed %d layer %d over %d segments: image differs from the oracle's", seed, i, parts)
				}
			}
			cl, err := openColumnar(image(img), int64(len(img)), new([]byte))
			if err != nil {
				t.Fatal(err)
			}
			if !cl.derived || cl.present.has(colRecvValues) {
				t.Fatalf("seed %d layer %d: derived %v, receive-value column %v", seed, i, cl.derived, cl.present.has(colRecvValues))
			}
			for m := colMask(0); m <= maskAll; m += 1 << colSendPeers {
				want := layerBinary(project(l, m.closed()))
				for _, file := range []bool{false, true} {
					var v LayerViews
					var work decodeWork
					r := io.ReaderAt(image(img))
					if file {
						r = bytes.NewReader(img)
					}
					if err := v.read(r, int64(len(img)), m, &work, opens(prev, file), 1); err != nil {
						t.Fatalf("seed %d layer %d mask %09b: %v", seed, i, m, err)
					}
					if got := layerBinary(v.layer()); !bytes.Equal(got, want) {
						t.Fatalf("seed %d layer %d mask %09b: derived read differs from the layer fed", seed, i, m)
					}
					// A derived read decodes the previous layer's send
					// values besides any of the layer's own.
					sendValues := int64(boolByte(m.closed().has(colRecvValues))) + int64(boolByte(m.closed().has(colSendValues)))
					if work[colSendValues].Blocks != sendValues || work[colRecvValues].Blocks != 0 {
						t.Fatalf("seed %d layer %d mask %09b: decoded %d send-value and %d receive-value blocks",
							seed, i, m, work[colSendValues].Blocks, work[colRecvValues].Blocks)
					}
				}
			}
		}
	}
}

// TestAppendLayerDerives: the store derives the receive payloads of a
// row-shaped layer exactly when they are the previous layer's sends, so a
// replayed capture writes the capture's files; a layer whose receive
// payloads differ (the sender tally agrees, the decode does not), one that
// lacks a receive (the tally disagrees), one after a capture gap and the
// first layer store theirs. Resident or spilled, every layer reads back as
// appended.
func TestAppendLayerDerives(t *testing.T) {
	for _, cfg := range []StoreConfig{{}, {SpillAll: true}} {
		dir := t.TempDir()
		if cfg.SpillAll {
			cfg.SpillDir = dir
		}
		s := NewStore(cfg)
		layers := derivedChain(7, 7)
		off := *layers[3]
		off.Records = append([]Record(nil), off.Records...)
		off.Records[0].Recvs = append([]MsgHalf(nil), off.Records[0].Recvs...)
		off.Records[0].Recvs[0].Val = value.NewInt(99)
		layers[3] = &off
		short := *layers[5]
		short.Records = append([]Record(nil), short.Records...)
		short.Records[0].Recvs = short.Records[0].Recvs[:len(short.Records[0].Recvs)-1]
		layers[5] = &short
		for i, l := range layers {
			if i == 6 {
				s.AddGap(5, 2, "shed")
			}
			if err := s.AppendLayer(l); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Sync(); err != nil {
			t.Fatal(err)
		}
		for i, l := range layers {
			want := oracleEncodeColumnar(l, layerVersionColumnar)
			if i == 1 || i == 2 || i == 4 {
				want = oracleEncodeDerived(l)
			}
			if !bytes.Equal(layerImage(t, s, i), want) {
				t.Errorf("spill %v layer %d: image is not the expected one", cfg.SpillAll, i)
			}
			got, err := s.Layer(i)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(layerBinary(got), layerBinary(l)) {
				t.Errorf("spill %v layer %d reads back differently", cfg.SpillAll, i)
			}
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestDerivedLayerFaults: a layer that derives its receive payloads but
// whose previous layer is missing, cut short, of another superstep or
// disagrees with its stored receives fails the read with an error naming
// both layers — never a wrong payload; a read that does not project the
// payloads never opens the previous layer. Appends that would write such a
// layer are refused.
func TestDerivedLayerFaults(t *testing.T) {
	layers := derivedChain(3, 3)
	prev, img := encodeLayerColumnar(layers[1]), oracleEncodeDerived(layers[2])
	readWith := func(prev []byte, mask colMask) error {
		var v LayerViews
		var work decodeWork
		var files layerFiles
		if prev != nil {
			files = opens(prev, false)
		}
		return v.read(image(img), int64(len(img)), mask, &work, files, 1)
	}
	const named = "layer 2 derives its receive payloads from layer 1"

	moved := *layers[1]
	moved.Records = append([]Record(nil), moved.Records...)
	for i := range moved.Records {
		if len(moved.Records[i].Sends) > 0 {
			moved.Records[i].Sends = append([]MsgHalf(nil), moved.Records[i].Sends...)
			moved.Records[i].Sends[0].Peer++
			break
		}
	}
	dropped := *layers[1]
	for i, r := range dropped.Records {
		if len(r.Sends) > 0 {
			dropped.Records = append(append([]Record(nil), dropped.Records[:i]...), dropped.Records[i+1:]...)
			break
		}
	}
	// A sender renamed to a free vertex below its own sends the same
	// messages: only the stored senders tell the difference.
	renamed := *layers[1]
	renamed.Records = append([]Record(nil), renamed.Records...)
	for i, r := range renamed.Records {
		if len(r.Sends) > 0 && (i == 0 && r.Vertex > 0 || i > 0 && r.Vertex-1 > renamed.Records[i-1].Vertex) {
			renamed.Records[i].Vertex--
			break
		}
	}
	other := *layers[1]
	other.Superstep = 0
	for name, p := range map[string][]byte{
		"none":           nil,
		"cut":            prev[:len(prev)/2],
		"moved send":     encodeLayerColumnar(&moved),
		"dropped sender": encodeLayerColumnar(&dropped),
		"renamed sender": encodeLayerColumnar(&renamed),
		"superstep 0":    encodeLayerColumnar(&other),
		"itself":         img,
	} {
		err := readWith(p, maskAll)
		if err == nil || !strings.Contains(err.Error(), named) {
			t.Errorf("previous layer %s: read = %v, want an error naming both layers", name, err)
		}
		if err := readWith(p, maskCore|1<<colRecvPeers); err != nil {
			t.Errorf("previous layer %s: a read without the payloads failed: %v", name, err)
		}
	}

	// A store whose previous layer file is gone.
	dir := t.TempDir()
	s := NewStore(StoreConfig{SpillAll: true, SpillDir: dir})
	defer s.Close()
	for _, l := range layers {
		if err := s.AppendLayer(l); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, layerFileName(1))); err != nil {
		t.Fatal(err)
	}
	var v LayerViews
	if err := s.LayerProjected(2, &LayerProjection{RecvValues: true}, &v); err == nil || !strings.Contains(err.Error(), named) {
		t.Errorf("previous layer file removed: read = %v, want an error naming both layers", err)
	}
	if err := s.LayerProjected(2, &LayerProjection{RecvPeers: true}, &v); err != nil {
		t.Errorf("previous layer file removed: a read without the payloads failed: %v", err)
	}

	// The format refuses what no writer writes.
	withRecvValues := append([]byte(nil), oracleEncodeColumnar(layers[2], layerVersionColumnar)...)
	withRecvValues[5] = flagDerivedRecvs
	unknown := append([]byte(nil), img...)
	unknown[5] |= 2
	for name, raw := range map[string][]byte{"a receive-value column": withRecvValues, "an unknown flag": unknown} {
		if _, err := openColumnar(image(raw), int64(len(raw)), new([]byte)); err == nil {
			t.Errorf("a derived layer with %s opened", name)
		}
	}
	first := NewStore(StoreConfig{})
	defer first.Close()
	b := NewLayerBuilder(0)
	b.DeriveRecvValues()
	if err := first.Append(0, b); err == nil {
		t.Error("layer 0 appended deriving its receive payloads")
	}
	a, c := NewLayerBuilder(0), NewLayerBuilder(0)
	if err := first.Append(0, a); err != nil {
		t.Fatal(err)
	}
	first.AddGap(0, 1, "shed")
	a.Reset(1)
	a.DeriveRecvValues()
	if err := first.Append(1, a); err == nil {
		t.Error("a layer after a capture gap appended deriving its receive payloads")
	}
	c.Reset(1)
	if err := first.Append(1, a, c); err == nil {
		t.Error("segments that disagree on deriving appended")
	}
}
