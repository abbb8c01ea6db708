package provenance

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"sort"
	"testing"

	"ariadne/internal/value"
)

// encodeLayerColumnar is the row-to-image path: every record of l fed
// through one LayerBuilder.
func encodeLayerColumnar(l *Layer) []byte {
	b := NewLayerBuilder(l.Superstep)
	for i := range l.Records {
		b.add(&l.Records[i])
	}
	return finish(b)
}

// finish stitches b alone into its layer image, as Store.Append does for a
// single segment.
func finish(b *LayerBuilder) []byte {
	return new(stitcher).layer(b.superstep, []*LayerBuilder{b})
}

// oracleEncodeColumnar is the row-walking v2 encoder the builder replaced,
// kept verbatim as the reference: the builder must produce its bytes
// exactly, so layer files stay byte-identical across the change.
func oracleEncodeColumnar(l *Layer) []byte {
	var head []byte
	head = append(head, layerMagic[:]...)
	head = append(head, layerVersionColumnar)
	head = binary.AppendUvarint(head, uint64(l.Superstep))
	head = binary.AppendUvarint(head, uint64(len(l.Records)))

	var blocks [numColumns][]byte
	prevVertex := int64(0)
	prevBase := int64(l.Superstep - 1)
	var flagAcc byte
	flagBits := 0
	dict := map[string]int{}
	var tables []string
	var emittedBody []byte
	for i := range l.Records {
		r := &l.Records[i]
		v := int64(r.Vertex)
		blocks[colVertex] = binary.AppendUvarint(blocks[colVertex], zigzag(v-prevVertex))
		prevVertex = v
		blocks[colPrevActive] = binary.AppendUvarint(blocks[colPrevActive], zigzag(prevBase-int64(r.PrevActive)))
		var fl byte
		if r.HasValue {
			fl |= 1
		}
		if r.SentAny {
			fl |= 2
		}
		flagAcc |= fl << flagBits
		flagBits += 2
		if flagBits == 8 {
			blocks[colFlags] = append(blocks[colFlags], flagAcc)
			flagAcc, flagBits = 0, 0
		}
		blocks[colSendPeers] = oraclePeerDeltas(blocks[colSendPeers], v, r.Sends)
		for _, m := range r.Sends {
			blocks[colSendValues] = appendPackedValue(blocks[colSendValues], m.Val)
		}
		blocks[colRecvPeers] = oraclePeerDeltas(blocks[colRecvPeers], v, r.Recvs)
		for _, m := range r.Recvs {
			blocks[colRecvValues] = appendPackedValue(blocks[colRecvValues], m.Val)
		}
		if r.HasValue {
			blocks[colValues] = appendPackedValue(blocks[colValues], r.Value)
		}
		emittedBody = binary.AppendUvarint(emittedBody, uint64(len(r.Emitted)))
		for _, fc := range r.Emitted {
			idx, ok := dict[fc.Table]
			if !ok {
				idx = len(tables)
				dict[fc.Table] = idx
				tables = append(tables, fc.Table)
			}
			emittedBody = binary.AppendUvarint(emittedBody, uint64(idx))
			emittedBody = binary.AppendUvarint(emittedBody, uint64(len(fc.Args)))
			for _, a := range fc.Args {
				emittedBody = appendPackedValue(emittedBody, a)
			}
		}
	}
	if flagBits > 0 {
		blocks[colFlags] = append(blocks[colFlags], flagAcc)
	}
	var emitted []byte
	emitted = binary.AppendUvarint(emitted, uint64(len(tables)))
	for _, t := range tables {
		emitted = binary.AppendUvarint(emitted, uint64(len(t)))
		emitted = append(emitted, t...)
	}
	blocks[colEmitted] = append(emitted, emittedBody...)

	var foot []byte
	foot = binary.AppendUvarint(foot, numColumns)
	off := uint64(len(head))
	for id, b := range blocks {
		foot = binary.AppendUvarint(foot, uint64(id))
		foot = binary.AppendUvarint(foot, off)
		foot = binary.AppendUvarint(foot, uint64(len(b)))
		off += uint64(len(b))
	}
	out := head
	for _, b := range blocks {
		out = append(out, b...)
	}
	out = append(out, foot...)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(foot)))
	return append(out, layerEndMagic[:]...)
}

func oraclePeerDeltas(buf []byte, vertex int64, ms []MsgHalf) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(ms)))
	prev := vertex
	for _, m := range ms {
		p := int64(m.Peer)
		buf = binary.AppendUvarint(buf, zigzag(p-prev))
		prev = p
	}
	return buf
}

// randomValue draws every representation the packed encoding tells apart:
// null, bools, ints of any sign, integral and fractional floats, NaN, -0.0,
// infinities, range-boundary floats, strings, and integral and raw vectors.
func randomValue(r *rand.Rand) value.Value {
	switch r.Intn(10) {
	case 0:
		return value.NullValue
	case 1:
		return value.NewBool(r.Intn(2) == 0)
	case 2:
		return value.NewInt(r.Int63() - r.Int63())
	case 3:
		return value.NewFloat(float64(r.Intn(2001) - 1000))
	case 4:
		return value.NewFloat(r.NormFloat64())
	case 5:
		odd := []float64{math.NaN(), math.Copysign(0, -1), math.Inf(1), math.Inf(-1), 1 << 62, -(1 << 62), 6755399441055744.5}
		return value.NewFloat(odd[r.Intn(len(odd))])
	case 6:
		return value.NewString([]string{"", "m", "héllo\x00world"}[r.Intn(3)])
	case 7:
		vec := make([]float64, r.Intn(4))
		for i := range vec {
			vec[i] = float64(r.Intn(9) - 4)
		}
		return value.NewVector(vec)
	case 8:
		vec := make([]float64, 1+r.Intn(3))
		for i := range vec {
			vec[i] = r.NormFloat64()
		}
		if r.Intn(3) == 0 {
			vec[0] = math.NaN()
		}
		return value.NewVector(vec)
	default:
		return value.NewInt(int64(r.Intn(100)))
	}
}

// randomLayer draws a layer of up to 12 records — empty layers included —
// with sorted or shuffled vertices, PrevActive -1 or earlier, messages in
// arbitrary peer order, and emitted facts whose tables repeat.
func randomLayer(r *rand.Rand) *Layer {
	l := &Layer{Superstep: r.Intn(40)}
	n := r.Intn(13)
	v := VertexID(r.Intn(5))
	for i := 0; i < n; i++ {
		v += VertexID(r.Intn(300))
		rec := Record{Vertex: v, PrevActive: -1, SentAny: r.Intn(2) == 0}
		if l.Superstep > 0 && r.Intn(3) != 0 {
			rec.PrevActive = int32(r.Intn(l.Superstep))
		}
		if r.Intn(4) != 0 {
			rec.HasValue, rec.Value = true, randomValue(r)
		}
		for j := r.Intn(5); j > 0; j-- {
			rec.Sends = append(rec.Sends, MsgHalf{Peer: VertexID(r.Intn(1 << 20)), Val: randomValue(r)})
		}
		for j := r.Intn(5); j > 0; j-- {
			rec.Recvs = append(rec.Recvs, MsgHalf{Peer: VertexID(r.Intn(1 << 20)), Val: randomValue(r)})
		}
		for j := r.Intn(3); j > 0; j-- {
			f := Fact{Table: []string{"prov_error", "prov_prediction", "t"}[r.Intn(3)]}
			for k := r.Intn(3); k > 0; k-- {
				f.Args = append(f.Args, randomValue(r))
			}
			rec.Emitted = append(rec.Emitted, f)
		}
		l.Records = append(l.Records, rec)
	}
	if r.Intn(3) == 0 {
		r.Shuffle(len(l.Records), func(i, j int) { l.Records[i], l.Records[j] = l.Records[j], l.Records[i] })
	}
	return l
}

// TestLayerBuilderMatchesRowEncoder is the builder's property test: fed
// record by record, it produces exactly the bytes of the row encoder it
// replaced, and its tallies equal what the store used to compute by walking
// the layer — NumTuples, EncodedSize, and the captured vertices.
func TestLayerBuilderMatchesRowEncoder(t *testing.T) {
	layers := []*Layer{trickyLayer(3), trickyLayer(0), {Superstep: 2}, sampleLayer(1, 50), wccLayer(2, 300, 4)}
	r := rand.New(rand.NewSource(23))
	for i := 0; i < 400; i++ {
		layers = append(layers, randomLayer(r))
	}
	b := NewLayerBuilder(0) // reused, as capture reuses it across layers
	for i, l := range layers {
		b.Reset(l.Superstep)
		for j := range l.Records {
			b.add(&l.Records[j])
		}
		got, want := finish(b), oracleEncodeColumnar(l)
		if !bytes.Equal(got, want) {
			t.Fatalf("layer %d (ss %d, %d records): builder image differs from the row encoder\n got %x\nwant %x",
				i, l.Superstep, len(l.Records), got, want)
		}
		if b.tuples != l.NumTuples() || layerHeaderSize+b.enc != l.EncodedSize() {
			t.Fatalf("layer %d: builder tallies tuples %d, size %d; layer has %d, %d",
				i, b.tuples, layerHeaderSize+b.enc, l.NumTuples(), l.EncodedSize())
		}
		if len(b.vertices) != len(l.Records) {
			t.Fatalf("layer %d: builder tallied %d vertices for %d records", i, len(b.vertices), len(l.Records))
		}
		for j := range l.Records {
			if b.vertices[j] != l.Records[j].Vertex {
				t.Fatalf("layer %d record %d: builder tallied vertex %d, record has %d", i, j, b.vertices[j], l.Records[j].Vertex)
			}
		}
	}
}

// dictOrderLayer emits facts whose tables are first used in different
// segments once the records are split by vertex mod 2 or 4: each segment's
// own dictionary numbers them differently from the layer's, which lists
// them in order of first use in vertex order (t1, t0, t2).
func dictOrderLayer() *Layer {
	fact := func(table string, args ...value.Value) Fact { return Fact{Table: table, Args: args} }
	nan, negZero := value.NewFloat(math.NaN()), value.NewFloat(math.Copysign(0, -1))
	return &Layer{Superstep: 5, Records: []Record{
		{Vertex: 1, PrevActive: 4, Emitted: []Fact{fact("t1", nan)}},
		{Vertex: 2, PrevActive: -1, HasValue: true, Value: negZero,
			Emitted: []Fact{fact("t0", negZero, value.NewInt(-3)), fact("t1")}},
		{Vertex: 3, PrevActive: 2, Emitted: []Fact{fact("t2", value.NewString("x"))}},
		{Vertex: 4, PrevActive: 4, Sends: []MsgHalf{{Peer: 1, Val: nan}}, Emitted: []Fact{fact("t0", nan)}},
		{Vertex: 6, PrevActive: 4, Recvs: []MsgHalf{{Peer: 3, Val: negZero}}},
	}}
}

// TestStitchMatchesOneBuilder is the stitch's property test: a layer's
// records split over P segments by vertex mod P, as the engine partitions
// them, each segment encoded by its own builder, stitch into exactly the
// bytes the row encoder writes for the whole layer — for P = 1, 2, 4 and
// 19, with empty segments, records without messages, NaN and -0.0 payloads,
// and emitted tables first used in different segments. The segments'
// tallies add up to the layer's.
func TestStitchMatchesOneBuilder(t *testing.T) {
	layers := []*Layer{dictOrderLayer(), trickyLayer(3), {Superstep: 2}, sampleLayer(1, 50), wccLayer(2, 300, 4)}
	r := rand.New(rand.NewSource(31))
	for i := 0; i < 400; i++ {
		l := randomLayer(r)
		sort.SliceStable(l.Records, func(i, j int) bool { return l.Records[i].Vertex < l.Records[j].Vertex })
		layers = append(layers, l)
	}
	// Builders and stitcher are reused across layers, as capture and the
	// store reuse theirs.
	var st stitcher
	segs := make([]*LayerBuilder, 19)
	for i := range segs {
		segs[i] = NewLayerBuilder(0)
	}
	for i, l := range layers {
		want := oracleEncodeColumnar(l)
		for _, p := range []int{1, 2, 4, 19} {
			parts := segs[:p]
			for _, b := range parts {
				b.Reset(l.Superstep)
			}
			for j := range l.Records {
				parts[int(l.Records[j].Vertex)%p].add(&l.Records[j])
			}
			if got := st.layer(l.Superstep, parts); !bytes.Equal(got, want) {
				t.Fatalf("layer %d (ss %d, %d records) over %d segments: stitched image differs from the row encoder\n got %x\nwant %x",
					i, l.Superstep, len(l.Records), p, got, want)
			}
			tuples, enc := int64(0), int64(layerHeaderSize)
			for _, b := range parts {
				tuples, enc = tuples+b.tuples, enc+b.enc
			}
			if tuples != l.NumTuples() || enc != l.EncodedSize() {
				t.Fatalf("layer %d over %d segments: tallies tuples %d, size %d; layer has %d, %d",
					i, p, tuples, enc, l.NumTuples(), l.EncodedSize())
			}
		}
	}
}
