package provenance

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/bits"

	"ariadne/internal/value"
)

// Version 2 columnar layer file format. Where v1 streams self-describing
// row records, v2 splits the layer into per-column blocks so a reader can
// seek to and decode only the columns a query projects (the
// workflow-provenance-on-SPARK lesson: store provenance scan-friendly):
//
//	magic "APRV" | version:2 | superstep:uvarint | nrecords:uvarint |
//	column blocks (ascending column ID, contiguous) |
//	footer | footerLen:uint32-LE | end magic "VRPA"
//
// footer: ncols:uvarint { colID:uvarint | offset:uvarint | length:uvarint }
// with offsets absolute from the start of the file, so a reader stats the
// file, reads the 8-byte trailer, then the footer, and issues one ReadAt
// per selected column.
//
// Columns (IDs are stable on disk — append new ones, never renumber):
//
//	0 vertex      zigzag delta varints (records are sorted by vertex, so
//	              deltas are small non-negatives; zigzag keeps unsorted
//	              layers encodable)
//	1 prevActive  zigzag varint of (superstep-1 - prevActive): the common
//	              "active last superstep" case encodes as one zero byte
//	2 flags       2 bits per record (bit0 HasValue, bit1 SentAny), packed
//	              four records per byte
//	3 sendPeers   per record: count uvarint, then zigzag deltas between
//	              consecutive peer IDs (first delta from the record's own
//	              vertex); capture order is preserved — replay delivery
//	              order must stay bit-identical
//	4 sendValues  packed values, aligned by the counts in column 3
//	5 recvPeers   as column 3, for received messages
//	6 recvValues  packed values, aligned by the counts in column 5
//	7 values      packed values, one per record with HasValue set
//	8 emitted     table-name dictionary, then per record: fact count,
//	              { tableIdx uvarint | nargs uvarint | packed args }
//
// Columns 0-3 are "core": replay always needs the vertex set, activation
// lineage, flags, and the send topology to regenerate the layer's message
// structure, so every decode materializes them. Columns 4-8 decode only
// when projected, and can be merged into a cached partial layer later.

const layerVersionColumnar = 2

// Column IDs of the v2 format.
const (
	colVertex = iota
	colPrevActive
	colFlags
	colSendPeers
	colSendValues
	colRecvPeers
	colRecvValues
	colValues
	colEmitted
	numColumns
)

// colMask is a bitset of column IDs.
type colMask uint16

const (
	maskCore colMask = 1<<colVertex | 1<<colPrevActive | 1<<colFlags | 1<<colSendPeers
	maskAll  colMask = 1<<numColumns - 1
)

func (m colMask) has(col int) bool { return m&(1<<col) != 0 }

// LayerProjection selects which optional layer columns a reader needs
// materialized. The zero value requests only the core columns (vertex,
// activation, flags, send topology); a nil *LayerProjection means "all
// columns". Requesting RecvValues implies RecvPeers (values align to the
// per-record receive counts).
type LayerProjection struct {
	Values     bool // the value(X, D, I) payload column
	SendValues bool // message payloads on send_message tuples
	RecvPeers  bool // receive topology (peer IDs and counts)
	RecvValues bool // message payloads on receive_message tuples
	Emitted    bool // analytic-emitted fact tables
}

// mask folds the projection into a column bitset. nil selects every column.
func (p *LayerProjection) mask() colMask {
	if p == nil {
		return maskAll
	}
	m := maskCore
	if p.Values {
		m |= 1 << colValues
	}
	if p.SendValues {
		m |= 1 << colSendValues
	}
	if p.RecvPeers || p.RecvValues {
		m |= 1 << colRecvPeers
	}
	if p.RecvValues {
		m |= 1 << colRecvValues
	}
	if p.Emitted {
		m |= 1 << colEmitted
	}
	return m
}

var layerEndMagic = [4]byte{'V', 'R', 'P', 'A'}

func zigzag(i int64) uint64   { return uint64(i<<1) ^ uint64(i>>63) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// Packed value encoding: a tag byte selects the representation. Integers
// and integral floats become zigzag varints (graph analytics values —
// component labels, hop counts, iteration-rounded ranks — are
// overwhelmingly small integers); only genuinely fractional floats pay the
// raw 8 bytes.
const (
	pvNull     = 0
	pvFalse    = 1
	pvTrue     = 2
	pvInt      = 3 // zigzag varint
	pvFloatInt = 4 // zigzag varint, value is float64(int64)
	pvFloatRaw = 5 // 8 bytes little-endian Float64bits
	pvString   = 6 // uvarint length + bytes
	pvVecRaw   = 7 // uvarint n + n*8 bytes little-endian
	pvVecInt   = 8 // uvarint n + n zigzag varints (all elements integral)
)

// integralFloat reports whether f round-trips bit-exactly through int64
// (rejects NaN, infinities, -0.0, fractions, and magnitudes where float64
// spacing exceeds 1).
func integralFloat(f float64) (int64, bool) {
	if f != math.Trunc(f) || f < -(1<<62) || f > 1<<62 {
		return 0, false
	}
	i := int64(f)
	if math.Float64bits(float64(i)) != math.Float64bits(f) {
		return 0, false
	}
	return i, true
}

func appendPackedValue(buf []byte, v value.Value) []byte {
	switch v.Kind() {
	case value.Null:
		return append(buf, pvNull)
	case value.Bool:
		if v.Bool() {
			return append(buf, pvTrue)
		}
		return append(buf, pvFalse)
	case value.Int:
		buf = append(buf, pvInt)
		return binary.AppendUvarint(buf, zigzag(v.Int()))
	case value.Float:
		f := v.Float()
		if i, ok := integralFloat(f); ok {
			buf = append(buf, pvFloatInt)
			return binary.AppendUvarint(buf, zigzag(i))
		}
		buf = append(buf, pvFloatRaw)
		return binary.LittleEndian.AppendUint64(buf, math.Float64bits(f))
	case value.String:
		s := v.Str()
		buf = append(buf, pvString)
		buf = binary.AppendUvarint(buf, uint64(len(s)))
		return append(buf, s...)
	case value.Vector:
		vec := v.Vec()
		allInt := true
		for _, f := range vec {
			if _, ok := integralFloat(f); !ok {
				allInt = false
				break
			}
		}
		if allInt {
			buf = append(buf, pvVecInt)
			buf = binary.AppendUvarint(buf, uint64(len(vec)))
			for _, f := range vec {
				i, _ := integralFloat(f)
				buf = binary.AppendUvarint(buf, zigzag(i))
			}
			return buf
		}
		buf = append(buf, pvVecRaw)
		buf = binary.AppendUvarint(buf, uint64(len(vec)))
		for _, f := range vec {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(f))
		}
		return buf
	default:
		// Unknown kinds cannot occur from the value package; encode Null so
		// the file stays decodable.
		return append(buf, pvNull)
	}
}

// bcursor is a bounds-checked cursor over one column block. Every decode
// error is a clean "corrupt layer" error, never a panic — the fuzz target
// holds the codec to that.
type bcursor struct {
	b   []byte
	off int
}

func corruptf(format string, args ...any) error {
	return fmt.Errorf("provenance: corrupt v2 layer: "+format, args...)
}

func (c *bcursor) remaining() int { return len(c.b) - c.off }

func (c *bcursor) uvarint() (uint64, error) {
	v, n := binary.Uvarint(c.b[c.off:])
	if n <= 0 {
		return 0, corruptf("truncated varint at block offset %d", c.off)
	}
	c.off += n
	return v, nil
}

func (c *bcursor) zigzag() (int64, error) {
	u, err := c.uvarint()
	if err != nil {
		return 0, err
	}
	return unzigzag(u), nil
}

func (c *bcursor) byte() (byte, error) {
	if c.off >= len(c.b) {
		return 0, corruptf("truncated block at offset %d", c.off)
	}
	b := c.b[c.off]
	c.off++
	return b, nil
}

func (c *bcursor) take(n int) ([]byte, error) {
	if n < 0 || n > c.remaining() {
		return nil, corruptf("length %d exceeds %d remaining block bytes", n, c.remaining())
	}
	b := c.b[c.off : c.off+n]
	c.off += n
	return b, nil
}

// count reads a uvarint element count and sanity-checks it against the
// remaining block bytes at perElem minimum bytes per element, so a corrupt
// count fails before any oversized allocation.
func (c *bcursor) count(perElem int) (int, error) {
	u, err := c.uvarint()
	if err != nil {
		return 0, err
	}
	if u > uint64(maxDecodeLen) || int64(u)*int64(perElem) > int64(c.remaining()) {
		return 0, corruptf("count %d exceeds %d remaining block bytes", u, c.remaining())
	}
	return int(u), nil
}

func (c *bcursor) packedValue() (value.Value, error) {
	tag, err := c.byte()
	if err != nil {
		return value.NullValue, err
	}
	switch tag {
	case pvNull:
		return value.NullValue, nil
	case pvFalse:
		return value.NewBool(false), nil
	case pvTrue:
		return value.NewBool(true), nil
	case pvInt:
		i, err := c.zigzag()
		if err != nil {
			return value.NullValue, err
		}
		return value.NewInt(i), nil
	case pvFloatInt:
		i, err := c.zigzag()
		if err != nil {
			return value.NullValue, err
		}
		return value.NewFloat(float64(i)), nil
	case pvFloatRaw:
		raw, err := c.take(8)
		if err != nil {
			return value.NullValue, err
		}
		return value.NewFloat(math.Float64frombits(binary.LittleEndian.Uint64(raw))), nil
	case pvString:
		n, err := c.count(1)
		if err != nil {
			return value.NullValue, err
		}
		raw, err := c.take(n)
		if err != nil {
			return value.NullValue, err
		}
		return value.NewString(string(raw)), nil
	case pvVecRaw:
		n, err := c.count(8)
		if err != nil {
			return value.NullValue, err
		}
		raw, err := c.take(8 * n)
		if err != nil {
			return value.NullValue, err
		}
		vec := make([]float64, n)
		for i := range vec {
			vec[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
		}
		return value.NewVector(vec), nil
	case pvVecInt:
		n, err := c.count(1)
		if err != nil {
			return value.NullValue, err
		}
		vec := make([]float64, n)
		for i := range vec {
			z, err := c.zigzag()
			if err != nil {
				return value.NullValue, err
			}
			vec[i] = float64(z)
		}
		return value.NewVector(vec), nil
	default:
		return value.NullValue, corruptf("unknown packed value tag %d", tag)
	}
}

// LayerBuilder encodes records straight into their v2 column bytes, so
// capture never builds row-shaped Records. A builder is a segment of a
// layer: it holds the whole layer or one partition's share of it, and the
// store stitches the layer's segments into its file image (see stitcher).
// A record is Begin, then any of Value, SentAny, and exactly the
// Send/Recv/Fact calls its Begin counts announced.
//
// The columns a record owns outright — prevActive, send and receive peers
// and values, values, and its facts' arguments — are encoded here, once,
// and the builder notes where each record starts in each of them. The
// vertex deltas, the packed flags and the facts' table indices depend on
// the records around it in the merged layer, so the builder keeps those as
// plain per-record data for the stitch. It also tallies what the store
// accounts for each layer — tuples, the v1-shaped EncodedSize, and the
// captured vertices — so nothing walks the layer a second time.
//
// A builder is reusable: Reset starts the next layer, and the buffers keep
// their capacity, so a run's later layers append without regrowing.
type LayerBuilder struct {
	superstep int
	blocks    [numColumns][]byte // the record-local columns; colEmitted holds fact arguments only
	recs      []recStart
	vertices  []VertexID
	flags     []byte // per record: bit0 HasValue, bit1 SentAny
	facts     []segFact
	dict      map[string]int // table name -> index in tables, this builder's own dictionary
	tables    []string

	sendPrev, recvPrev int64

	tuples int64 // Layer.NumTuples
	enc    int64 // Layer.EncodedSize less its per-layer constant
}

// recStart is where one record starts in each record-local column block,
// indexed by column ID (the colVertex and colFlags entries are unused); for
// colEmitted it is the index of the record's first fact.
type recStart [numColumns]int

// segFact is one emitted fact: its table's index in the builder's own
// dictionary, and where its bytes (nargs, then the packed args) end in the
// colEmitted block; they start where the previous fact's bytes end.
type segFact struct{ table, end int }

// NewLayerBuilder returns a builder for the layer of superstep ss.
func NewLayerBuilder(ss int) *LayerBuilder {
	b := &LayerBuilder{dict: map[string]int{}}
	b.Reset(ss)
	return b
}

// Reset empties the builder for the layer of superstep ss.
func (b *LayerBuilder) Reset(ss int) {
	b.superstep = ss
	for i := range b.blocks {
		b.blocks[i] = b.blocks[i][:0]
	}
	b.recs, b.vertices, b.flags, b.facts = b.recs[:0], b.vertices[:0], b.flags[:0], b.facts[:0]
	clear(b.dict)
	b.tables = b.tables[:0]
	b.tuples, b.enc = 0, 0
}

// Begin starts the next record: vertex v, previously active at prevActive
// (-1: never), followed by sends Send calls, recvs Recv calls and facts Fact
// calls.
func (b *LayerBuilder) Begin(v VertexID, prevActive int32, sends, recvs, facts int) {
	b.recs = append(b.recs, b.end())
	b.vertices = append(b.vertices, v)
	b.flags = append(b.flags, 0)
	x := int64(v)
	b.blocks[colPrevActive] = binary.AppendUvarint(b.blocks[colPrevActive], zigzag(int64(b.superstep-1)-int64(prevActive)))
	b.blocks[colSendPeers] = binary.AppendUvarint(b.blocks[colSendPeers], uint64(sends))
	b.blocks[colRecvPeers] = binary.AppendUvarint(b.blocks[colRecvPeers], uint64(recvs))
	b.sendPrev, b.recvPrev = x, x
	b.tuples += int64(1 + sends + recvs + facts) // the superstep fact, one per message and fact
	if prevActive >= 0 {
		b.tuples++ // the evolution fact
	}
	b.enc += int64(10+1+2+1) + int64(5*(sends+recvs)) // Record.EncodedSize's fixed part
}

// flag sets one of the current record's two flag bits.
func (b *LayerBuilder) flag(bit byte) {
	b.flags[len(b.flags)-1] |= bit
	b.tuples++
}

// Value captures the current record's vertex value.
func (b *LayerBuilder) Value(v value.Value) {
	b.flag(1)
	b.blocks[colValues] = appendPackedValue(b.blocks[colValues], v)
	b.enc += int64(v.EncodedSize())
}

// SentAny records that the current record's vertex sent a message (the
// prov-send flag of paper Query 11).
func (b *LayerBuilder) SentAny() { b.flag(2) }

// Send appends one sent message of the current record. Peers are stored as
// zigzag deltas, the first from the record's own vertex, in capture order —
// which the bit-identity contract depends on.
func (b *LayerBuilder) Send(dst VertexID, v value.Value) {
	p := int64(dst)
	b.blocks[colSendPeers] = binary.AppendUvarint(b.blocks[colSendPeers], zigzag(p-b.sendPrev))
	b.sendPrev = p
	b.blocks[colSendValues] = appendPackedValue(b.blocks[colSendValues], v)
	b.enc += int64(v.EncodedSize())
}

// Recv appends one received message of the current record, as Send does.
func (b *LayerBuilder) Recv(src VertexID, v value.Value) {
	p := int64(src)
	b.blocks[colRecvPeers] = binary.AppendUvarint(b.blocks[colRecvPeers], zigzag(p-b.recvPrev))
	b.recvPrev = p
	b.blocks[colRecvValues] = appendPackedValue(b.blocks[colRecvValues], v)
	b.enc += int64(v.EncodedSize())
}

// Fact appends one analytic-emitted fact of the current record, its table
// name interned in the builder's dictionary.
func (b *LayerBuilder) Fact(table string, args []value.Value) {
	idx, ok := b.dict[table]
	if !ok {
		idx = len(b.tables)
		b.dict[table] = idx
		b.tables = append(b.tables, table)
	}
	e := binary.AppendUvarint(b.blocks[colEmitted], uint64(len(args)))
	b.enc += int64(2 + len(table))
	for _, a := range args {
		e = appendPackedValue(e, a)
		b.enc += int64(a.EncodedSize())
	}
	b.blocks[colEmitted] = e
	b.facts = append(b.facts, segFact{table: idx, end: len(e)})
}

// add appends one row-shaped record.
func (b *LayerBuilder) add(r *Record) {
	b.Begin(r.Vertex, r.PrevActive, len(r.Sends), len(r.Recvs), len(r.Emitted))
	if r.HasValue {
		b.Value(r.Value)
	}
	if r.SentAny {
		b.SentAny()
	}
	for _, m := range r.Sends {
		b.Send(m.Peer, m.Val)
	}
	for _, m := range r.Recvs {
		b.Recv(m.Peer, m.Val)
	}
	for _, f := range r.Emitted {
		b.Fact(f.Table, f.Args)
	}
}

// end returns where the builder's records end in each record-local column:
// the block lengths, and for colEmitted the fact count.
func (b *LayerBuilder) end() recStart {
	var at recStart
	for c := range at {
		at[c] = len(b.blocks[c])
	}
	at[colEmitted] = len(b.facts)
	return at
}

// factBytes returns fact k's bytes in the colEmitted block.
func (b *LayerBuilder) factBytes(k int) []byte {
	start := 0
	if k > 0 {
		start = b.facts[k-1].end
	}
	return b.blocks[colEmitted][start:b.facts[k].end]
}

// stitcher assembles a layer's v2 file image from its segments: builders
// that each hold records in ascending vertex order, no vertex in two of
// them (a lone segment may hold any order, and keeps it). The image is,
// byte for byte, the one a single builder fed every record in merged vertex
// order would give. The record-local columns need no re-encoding — peer
// deltas start from the record's own vertex and packed values are
// self-contained — so each record's bytes are copied once, straight into
// the image. Only the vertex deltas, the packed flags and the facts' table
// indices, renumbered into the layer's dictionary in order of first use,
// are encoded here. A stitcher keeps its scratch from layer to layer.
type stitcher struct {
	runs  []run
	heap  []int // segments with records left, least next vertex first
	heads []int // per segment: its next record
	ends  []recStart
	remap [][]int // per segment: its dictionary's indices in the layer's
	dict  map[string]int
	names []string
	vcol  []byte
	fcol  []byte
	meta  []byte

	spare   [][]byte // images of layers now in their files, to write over
	reusing bool     // spares come back, so images get headroom
}

// run is a stretch [from, to) of one segment's records that is also
// consecutive in merged vertex order, so each column copies it in one piece.
type run struct{ seg, from, to int }

// copied lists the columns whose bytes the stitch copies as the segments
// hold them.
var copied = [...]int{colPrevActive, colSendPeers, colSendValues, colRecvPeers, colRecvValues, colValues}

// layer returns the image of superstep ss's layer, stitched from segs (no
// segments: an empty layer).
func (st *stitcher) layer(ss int, segs []*LayerBuilder) []byte {
	st.merge(segs)
	n, lens := st.encodeMerged(segs)

	// meta holds the header, then the footer.
	meta := append(st.meta[:0], layerMagic[:]...)
	meta = append(meta, layerVersionColumnar)
	meta = binary.AppendUvarint(meta, uint64(ss))
	meta = binary.AppendUvarint(meta, uint64(n))
	headEnd := len(meta)
	meta = binary.AppendUvarint(meta, numColumns)
	var pos [numColumns]int // each column's write offset in the image
	off := headEnd
	for c, l := range lens {
		meta = binary.AppendUvarint(meta, uint64(c))
		meta = binary.AppendUvarint(meta, uint64(off))
		meta = binary.AppendUvarint(meta, uint64(l))
		pos[c] = off
		off += l
	}
	st.meta = meta
	foot := meta[headEnd:]

	img := st.image(off + len(foot) + 8)
	copy(img, meta[:headEnd])
	copy(img[pos[colVertex]:], st.vcol)
	copy(img[pos[colFlags]:], st.fcol)
	e := pos[colEmitted]
	e += binary.PutUvarint(img[e:], uint64(len(st.names)))
	for _, t := range st.names {
		e += binary.PutUvarint(img[e:], uint64(len(t)))
		e += copy(img[e:], t)
	}
	for _, r := range st.runs {
		b, remap := segs[r.seg], st.remap[r.seg]
		lo, hi := st.start(r.seg, b, r.from), st.start(r.seg, b, r.to)
		for _, c := range copied {
			pos[c] += copy(img[pos[c]:], b.blocks[c][lo[c]:hi[c]])
		}
		for i := r.from; i < r.to; i++ {
			f0, f1 := st.start(r.seg, b, i)[colEmitted], st.start(r.seg, b, i+1)[colEmitted]
			e += binary.PutUvarint(img[e:], uint64(f1-f0))
			for k := f0; k < f1; k++ {
				e += binary.PutUvarint(img[e:], uint64(remap[b.facts[k].table]))
				e += copy(img[e:], b.factBytes(k))
			}
		}
	}
	copy(img[off:], foot)
	binary.LittleEndian.PutUint32(img[off+len(foot):], uint32(len(foot)))
	copy(img[off+len(foot)+4:], layerEndMagic[:])
	return img
}

// reuse takes back an image nothing reads any more, its layer being in its
// file: a later layer writes over it instead of allocating and zeroing its
// own.
func (st *stitcher) reuse(img []byte) {
	st.reusing = true
	if len(st.spare) < spillQueue {
		st.spare = append(st.spare, img)
	}
}

// image returns a buffer of size bytes for a layer's image; layer writes
// every byte of it. Once spilled images come back, a new one gets an eighth
// of spare capacity, so the next layers still fit in it as their sizes
// drift.
func (st *stitcher) image(size int) []byte {
	for len(st.spare) > 0 {
		b := st.spare[len(st.spare)-1]
		st.spare = st.spare[:len(st.spare)-1]
		if cap(b) >= size {
			return b[:size]
		}
	}
	if st.reusing {
		return make([]byte, size, size+size/8)
	}
	return make([]byte, size)
}

// start returns where record i of segment s (held by b) starts in each
// record-local column; i equal to the record count gives where they end.
func (st *stitcher) start(s int, b *LayerBuilder, i int) *recStart {
	if i < len(b.recs) {
		return &b.recs[i]
	}
	return &st.ends[s]
}

// encodeMerged walks the records in merged order: it encodes the vertex and
// flags columns into scratch and numbers the emitted tables in order of
// first use. It returns the record count and every column's length.
func (st *stitcher) encodeMerged(segs []*LayerBuilder) (n int, lens [numColumns]int) {
	for len(st.remap) < len(segs) {
		st.remap = append(st.remap, nil)
	}
	st.ends = st.ends[:0]
	for s, b := range segs {
		st.ends = append(st.ends, b.end())
		m := st.remap[s][:0]
		for range b.tables {
			m = append(m, -1)
		}
		st.remap[s] = m
		for _, c := range copied {
			lens[c] += len(b.blocks[c])
		}
		lens[colEmitted] += len(b.blocks[colEmitted])
	}
	if st.dict == nil {
		st.dict = map[string]int{}
	}
	clear(st.dict)
	st.names = st.names[:0]

	vcol, fcol := st.vcol[:0], st.fcol[:0]
	prev := int64(0)
	for _, r := range st.runs {
		b, remap := segs[r.seg], st.remap[r.seg]
		for i := r.from; i < r.to; i++ {
			x := int64(b.vertices[i])
			vcol = binary.AppendUvarint(vcol, zigzag(x-prev))
			prev = x
			if n%4 == 0 {
				fcol = append(fcol, 0)
			}
			fcol[n/4] |= b.flags[i] << (n % 4 * 2)
			n++
			f0, f1 := st.start(r.seg, b, i)[colEmitted], st.start(r.seg, b, i+1)[colEmitted]
			lens[colEmitted] += uvarintLen(uint64(f1 - f0))
			for k := f0; k < f1; k++ {
				t := b.facts[k].table
				if remap[t] < 0 {
					remap[t] = st.intern(b.tables[t])
				}
				lens[colEmitted] += uvarintLen(uint64(remap[t]))
			}
		}
	}
	st.vcol, st.fcol = vcol, fcol
	lens[colVertex], lens[colFlags] = len(vcol), len(fcol)
	lens[colEmitted] += uvarintLen(uint64(len(st.names)))
	for _, t := range st.names {
		lens[colEmitted] += uvarintLen(uint64(len(t))) + len(t)
	}
	return n, lens
}

// merge orders the segments' records by vertex, as runs.
func (st *stitcher) merge(segs []*LayerBuilder) {
	runs, heads, h := st.runs[:0], st.heads[:0], st.heap[:0]
	for s, b := range segs {
		heads = append(heads, 0)
		if len(b.vertices) > 0 {
			h = append(h, s)
		}
	}
	less := func(a, b int) bool { return segs[a].vertices[heads[a]] < segs[b].vertices[heads[b]] }
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDown(h, i, less)
	}
	for len(h) > 0 {
		s := h[0]
		i := heads[s]
		heads[s]++
		if k := len(runs) - 1; k >= 0 && runs[k].seg == s {
			runs[k].to++
		} else {
			runs = append(runs, run{seg: s, from: i, to: i + 1})
		}
		if heads[s] == len(segs[s].vertices) {
			h[0] = h[len(h)-1]
			h = h[:len(h)-1]
		}
		siftDown(h, 0, less)
	}
	st.runs, st.heads, st.heap = runs, heads, h
}

// siftDown restores the heap order of h below position i.
func siftDown(h []int, i int, less func(a, b int) bool) {
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && less(h[c+1], h[c]) {
			c++
		}
		if !less(h[c], h[i]) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// intern returns table's index in the layer's dictionary, adding it.
func (st *stitcher) intern(table string) int {
	g, ok := st.dict[table]
	if !ok {
		g = len(st.names)
		st.dict[table] = g
		st.names = append(st.names, table)
	}
	return g
}

// uvarintLen returns the length of x's uvarint encoding.
func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

// columnarLayer is an opened v2 layer file: parsed header and footer, with
// column blocks still on storage until decodeInto reads the projected ones.
type columnarLayer struct {
	r         io.ReaderAt
	superstep int
	nrecords  int
	present   colMask
	offs      [numColumns]int64
	lens      [numColumns]int64
}

// openColumnar parses the header and footer of a v2 layer file of the given
// size without reading any column block.
func openColumnar(r io.ReaderAt, size int64) (*columnarLayer, error) {
	hdr := make([]byte, 64)
	if size < int64(len(hdr)) {
		hdr = hdr[:size]
	}
	if _, err := r.ReadAt(hdr, 0); err != nil {
		return nil, corruptf("short header read: %v", err)
	}
	if len(hdr) < 5 || [4]byte(hdr[:4]) != layerMagic {
		return nil, fmt.Errorf("provenance: bad layer magic %q", hdr[:min(len(hdr), 4)])
	}
	if hdr[4] != layerVersionColumnar {
		return nil, fmt.Errorf("provenance: unsupported layer version %d", hdr[4])
	}
	c := bcursor{b: hdr, off: 5}
	ss, err := c.uvarint()
	if err != nil {
		return nil, err
	}
	n, err := c.uvarint()
	if err != nil {
		return nil, err
	}
	if n > maxDecodeLen {
		return nil, corruptf("record count %d exceeds sanity cap", n)
	}
	headerEnd := int64(c.off)

	var trailer [8]byte
	if size < headerEnd+int64(len(trailer)) {
		return nil, corruptf("file size %d too small for trailer", size)
	}
	if _, err := r.ReadAt(trailer[:], size-8); err != nil {
		return nil, corruptf("short trailer read: %v", err)
	}
	if [4]byte(trailer[4:]) != layerEndMagic {
		return nil, corruptf("bad end magic %q (truncated write?)", trailer[4:])
	}
	footLen := int64(binary.LittleEndian.Uint32(trailer[:4]))
	if footLen <= 0 || footLen > size-8-headerEnd {
		return nil, corruptf("footer length %d out of range", footLen)
	}
	foot := make([]byte, footLen)
	if _, err := r.ReadAt(foot, size-8-footLen); err != nil {
		return nil, corruptf("short footer read: %v", err)
	}
	fc := bcursor{b: foot}
	ncols, err := fc.count(1)
	if err != nil {
		return nil, err
	}
	cl := &columnarLayer{r: r, superstep: int(ss), nrecords: int(n)}
	blocksEnd := size - 8 - footLen
	for i := 0; i < ncols; i++ {
		id, err := fc.uvarint()
		if err != nil {
			return nil, err
		}
		off, err := fc.uvarint()
		if err != nil {
			return nil, err
		}
		length, err := fc.uvarint()
		if err != nil {
			return nil, err
		}
		if id >= numColumns {
			// Unknown trailing columns from a future writer are skippable.
			continue
		}
		if cl.present.has(int(id)) {
			return nil, corruptf("duplicate column %d in footer", id)
		}
		if int64(off) < headerEnd || int64(off)+int64(length) > blocksEnd || int64(off)+int64(length) < int64(off) {
			return nil, corruptf("column %d extent [%d,%d) outside blocks region [%d,%d)", id, off, off+length, headerEnd, blocksEnd)
		}
		cl.present |= 1 << id
		cl.offs[id] = int64(off)
		cl.lens[id] = int64(length)
	}
	if cl.present&maskCore != maskCore {
		return nil, corruptf("missing core columns (footer mask %09b)", cl.present)
	}
	// Each record costs at least one vertex-delta byte, so the record count
	// is bounded by the vertex block length — reject a lying header before
	// allocating records.
	if int64(cl.nrecords) > cl.lens[colVertex] {
		return nil, corruptf("record count %d exceeds vertex column of %d bytes", cl.nrecords, cl.lens[colVertex])
	}
	return cl, nil
}

func (cl *columnarLayer) readBlock(col int) (*bcursor, error) {
	if !cl.present.has(col) {
		return nil, corruptf("column %d absent from footer", col)
	}
	b := make([]byte, cl.lens[col])
	if _, err := cl.r.ReadAt(b, cl.offs[col]); err != nil {
		return nil, corruptf("short read of column %d: %v", col, err)
	}
	return &bcursor{b: b}, nil
}

// decodeInto materializes the core columns plus the optional columns
// selected by mask into l (which must be empty).
func (cl *columnarLayer) decodeInto(l *Layer, mask colMask) error {
	l.Superstep = cl.superstep
	n := cl.nrecords
	l.Records = make([]Record, n)

	vc, err := cl.readBlock(colVertex)
	if err != nil {
		return err
	}
	prev := int64(0)
	for i := 0; i < n; i++ {
		d, err := vc.zigzag()
		if err != nil {
			return err
		}
		prev += d
		l.Records[i].Vertex = VertexID(prev)
	}

	pc, err := cl.readBlock(colPrevActive)
	if err != nil {
		return err
	}
	base := int64(cl.superstep - 1)
	for i := 0; i < n; i++ {
		d, err := pc.zigzag()
		if err != nil {
			return err
		}
		pa := base - d
		if pa < -1 || pa > int64(math.MaxInt32) {
			return corruptf("prevActive %d out of range for record %d", pa, i)
		}
		l.Records[i].PrevActive = int32(pa)
	}

	fc, err := cl.readBlock(colFlags)
	if err != nil {
		return err
	}
	if len(fc.b) < (n+3)/4 {
		return corruptf("flags column holds %d bytes, need %d", len(fc.b), (n+3)/4)
	}
	for i := 0; i < n; i++ {
		fl := fc.b[i/4] >> ((i % 4) * 2)
		l.Records[i].HasValue = fl&1 != 0
		l.Records[i].SentAny = fl&2 != 0
	}

	if err := cl.decodePeers(l, colSendPeers); err != nil {
		return err
	}
	for col := colSendValues; col < numColumns; col++ {
		if !mask.has(col) {
			continue
		}
		if err := cl.decodeOptional(l, col); err != nil {
			return err
		}
	}
	return nil
}

// decodePeers decodes a peer-list column (send or receive topology).
func (cl *columnarLayer) decodePeers(l *Layer, col int) error {
	c, err := cl.readBlock(col)
	if err != nil {
		return err
	}
	for i := range l.Records {
		r := &l.Records[i]
		cnt, err := c.count(1)
		if err != nil {
			return err
		}
		if cnt == 0 {
			continue
		}
		ms := make([]MsgHalf, cnt)
		prev := int64(r.Vertex)
		for j := range ms {
			d, err := c.zigzag()
			if err != nil {
				return err
			}
			prev += d
			ms[j].Peer = VertexID(prev)
		}
		if col == colSendPeers {
			r.Sends = ms
		} else {
			r.Recvs = ms
		}
	}
	return nil
}

// decodeOptional decodes one non-core column into an already-materialized
// layer. Alignment invariants: sendValues needs Sends populated (core),
// recvValues needs Recvs (so colRecvPeers must decode first — callers
// iterate columns in ID order and LayerProjection.mask guarantees the
// peers bit accompanies the values bit).
func (cl *columnarLayer) decodeOptional(l *Layer, col int) error {
	switch col {
	case colRecvPeers:
		return cl.decodePeers(l, col)
	case colSendValues, colRecvValues:
		c, err := cl.readBlock(col)
		if err != nil {
			return err
		}
		for i := range l.Records {
			ms := l.Records[i].Sends
			if col == colRecvValues {
				ms = l.Records[i].Recvs
			}
			for j := range ms {
				if ms[j].Val, err = c.packedValue(); err != nil {
					return err
				}
			}
		}
		return nil
	case colValues:
		c, err := cl.readBlock(col)
		if err != nil {
			return err
		}
		for i := range l.Records {
			if !l.Records[i].HasValue {
				continue
			}
			var err error
			if l.Records[i].Value, err = c.packedValue(); err != nil {
				return err
			}
		}
		return nil
	case colEmitted:
		c, err := cl.readBlock(col)
		if err != nil {
			return err
		}
		ntables, err := c.count(1)
		if err != nil {
			return err
		}
		tables := make([]string, ntables)
		for i := range tables {
			tl, err := c.count(1)
			if err != nil {
				return err
			}
			raw, err := c.take(tl)
			if err != nil {
				return err
			}
			tables[i] = string(raw)
		}
		for i := range l.Records {
			nf, err := c.count(1)
			if err != nil {
				return err
			}
			if nf == 0 {
				continue
			}
			facts := make([]Fact, nf)
			for j := range facts {
				ti, err := c.uvarint()
				if err != nil {
					return err
				}
				if ti >= uint64(len(tables)) {
					return corruptf("fact table index %d out of dictionary range %d", ti, len(tables))
				}
				facts[j].Table = tables[ti]
				na, err := c.count(1)
				if err != nil {
					return err
				}
				if na > 0 {
					args := make([]value.Value, na)
					for k := range args {
						if args[k], err = c.packedValue(); err != nil {
							return err
						}
					}
					facts[j].Args = args
				}
			}
			l.Records[i].Emitted = facts
		}
		return nil
	default:
		return corruptf("column %d is not decodable", col)
	}
}

// mergeInto decodes the columns in add into a layer previously materialized
// from the same file with a narrower projection ("lazily decodable"
// columns). add must contain only optional columns; if it includes
// recvValues without the layer having receive topology yet, add must also
// include recvPeers (LayerProjection.mask maintains that invariant).
func (cl *columnarLayer) mergeInto(l *Layer, add colMask) error {
	if cl.nrecords != len(l.Records) || cl.superstep != l.Superstep {
		return corruptf("merge target mismatch: file holds %d records of superstep %d, layer %d of %d",
			cl.nrecords, cl.superstep, len(l.Records), l.Superstep)
	}
	for col := colSendValues; col < numColumns; col++ {
		if !add.has(col) {
			continue
		}
		if err := cl.decodeOptional(l, col); err != nil {
			return err
		}
	}
	return nil
}
