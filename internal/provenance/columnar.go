package provenance

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/bits"
	"os"
	"slices"

	"ariadne/internal/engine"
	"ariadne/internal/pql/eval"
	"ariadne/internal/value"
)

// Columnar layer file format, version 4. It splits the layer into
// per-column blocks so a reader can seek to and decode only the columns a
// query projects (the workflow-provenance-on-SPARK lesson: store provenance
// scan-friendly):
//
//	magic "APRV" | version:4 | flags:byte | superstep:uvarint |
//	nrecords:uvarint | column blocks (ascending column ID, contiguous) |
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
//	              vertex), in capture order
//	4 sendValues  packed values, aligned by the counts in column 3; a
//	              send whose packed value would repeat the record's
//	              previous send byte for byte is the one-byte repeat code
//	              instead (a broadcast stores its payload once)
//	5 recvPeers   as column 3, for received messages
//	6 recvValues  packed values, aligned by the counts in column 5
//	7 values      packed values, one per record with HasValue set
//	8 emitted     table-name dictionary, then per record: fact count,
//	              { tableIdx uvarint | nargs uvarint | packed args }
//
// Every read decodes columns 0-2, the "core": the vertex set, activation
// lineage and flags, which every record view carries. Columns 3-8 decode
// only when projected, a value column with its peer column. Column 3 is
// still required on disk: a file without it is rejected.
//
// A read may take column 5's counts alone (LayerProjection.RecvCounts): it
// decodes each record's count and skips its peer varints by their
// terminator bytes, without decoding them. Such a read checks only that the
// block holds each record's count and that many varint ends, so a corrupt
// peer block can fail differently under it than under a read that decodes
// the peers (an overlong varint, say) — as any column a read does not
// project is not checked at all.
//
// The flags byte has one bit, flagDerivedRecvs: the layer's receive
// payloads are the previous layer's sends (paper §3: send-message and
// receive-message are two views of one message edge), so the layer holds
// no column 6. Every message sent at superstep i-1 is received at i, so a
// reader that projects the payloads decodes layer i-1's columns 0, 3 and 4
// and hands each send, in sender order, to its receiver's next stored
// receive, which must name that sender (column 5 is still stored: it holds
// the receive counts and order and checks the derivation). Each receiver's
// list is then put into the engine's message order (engine.Canonicalize):
// ascending sender, a sender's several messages ascending by
// value.Compare, ties in send order. Both layers must ascend by vertex. A
// send to a vertex the layer does not hold is skipped, as its partition's
// capture was shed; a receive no send fills is corruption. Other flag bits
// are rejected.
//
// Version 3 is version 4 without the flags byte, and version 2 version 3
// without the repeat code (tag 9), so one decoder reads all three. Writers
// write only version 4.

const (
	layerVersionColumnar = 4
	layerVersionNoFlags  = 3 // read, never written
	layerVersionNoRepeat = 2 // read, never written

	flagDerivedRecvs = 1 // the receive payloads are the previous layer's sends
)

// Column IDs of the columnar format.
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
	maskCore     colMask = 1<<colVertex | 1<<colPrevActive | 1<<colFlags // decoded by every read
	maskRequired colMask = maskCore | 1<<colSendPeers                    // held by every file
	maskAll      colMask = 1<<numColumns - 1

	// maskRecvCounts is no column: it asks for column 5's counts alone,
	// which a mask holding column 5 decodes anyway.
	maskRecvCounts colMask = 1 << numColumns
)

func (m colMask) has(col int) bool { return m&(1<<col) != 0 }

// closed returns the columns a read of m decodes: m's known columns, the
// core, and the peer column of each message value column in m (values align
// to the per-record message counts; a value column's ID is its peer
// column's plus one); and maskRecvCounts when m asks for the receive counts
// but not the receive peers.
func (m colMask) closed() colMask {
	m = m&(maskAll|maskRecvCounts) | maskCore
	m |= m & (1<<colSendValues | 1<<colRecvValues) >> 1
	if m.has(colRecvPeers) {
		m &^= maskRecvCounts
	}
	return m
}

// blocks returns the column blocks a read of m, closed, reads: its
// columns, and column 5 for the receive counts.
func (m colMask) blocks() colMask {
	if m&maskRecvCounts != 0 {
		m |= 1 << colRecvPeers
	}
	return m & maskAll
}

// LayerProjection selects which optional layer columns a reader needs
// materialized. The zero value requests only the core columns (vertex,
// activation, flags); a nil *LayerProjection means "all columns".
// Requesting a message value column implies its peer column.
//
// RecvCounts asks for the receive counts alone, for a reader that observes
// how many messages a record received but not from whom or what: each
// view's Recvs holds that many zero messages (source 0, Null payload),
// which the reader must not write to. RecvPeers or RecvValues overrides it.
type LayerProjection struct {
	Values     bool // the value(X, D, I) payload column
	SendPeers  bool // send topology (peer IDs and counts)
	SendValues bool // message payloads on send_message tuples
	RecvPeers  bool // receive topology (peer IDs and counts)
	RecvCounts bool // receive counts without peer IDs
	RecvValues bool // message payloads on receive_message tuples
	Emitted    bool // analytic-emitted fact tables
}

// mask folds the projection into the columns a read decodes. nil selects
// every column.
func (p *LayerProjection) mask() colMask {
	if p == nil {
		return maskAll
	}
	var m colMask
	for col, on := range [numColumns]bool{colValues: p.Values, colSendPeers: p.SendPeers, colSendValues: p.SendValues,
		colRecvPeers: p.RecvPeers, colRecvValues: p.RecvValues, colEmitted: p.Emitted} {
		if on {
			m |= 1 << col
		}
	}
	if p.RecvCounts {
		m |= maskRecvCounts
	}
	return m.closed()
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
	pvRepeat   = 9 // sendValues only: the record's previous send's payload
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
	return fmt.Errorf("provenance: corrupt columnar layer: "+format, args...)
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
	case pvRepeat:
		return value.NullValue, corruptf("repeat code outside the send-value column at block offset %d", c.off-1)
	default:
		return value.NullValue, corruptf("unknown packed value tag %d", tag)
	}
}

// LayerBuilder encodes records straight into their column bytes, so
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
// accounts for each layer — tuples, the logical EncodedSize, and the
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
	sendVal            value.Value // the current record's previous send payload
	sendSize           int64       // its EncodedSize; 0 before the record's first send
	deriveRecvs        bool        // see DeriveRecvValues

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
	b.sendVal, b.sendSize = value.NullValue, 0
	b.deriveRecvs = false
}

// DeriveRecvValues marks the layer's receive payloads as the previous
// layer's sends, which a reader takes them from (see the format comment):
// Recv then stores only the peer. Every segment of a layer must be marked
// alike, and the previous layer must hold every message sent to the
// layer's vertices. Reset clears the mark.
func (b *LayerBuilder) DeriveRecvValues() { b.deriveRecvs = true }

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
	b.sendSize = 0
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
// which the bit-identity contract depends on. A payload identical to the
// record's previous send's, as every send of a broadcast is, is stored as
// the repeat code: identical values are exactly those whose packed
// encodings are equal.
func (b *LayerBuilder) Send(dst VertexID, v value.Value) {
	p := int64(dst)
	b.blocks[colSendPeers] = binary.AppendUvarint(b.blocks[colSendPeers], zigzag(p-b.sendPrev))
	b.sendPrev = p
	if b.sendSize != 0 && v.Identical(b.sendVal) {
		b.blocks[colSendValues] = append(b.blocks[colSendValues], pvRepeat)
	} else {
		b.blocks[colSendValues] = appendPackedValue(b.blocks[colSendValues], v)
		b.sendVal, b.sendSize = v, int64(v.EncodedSize())
	}
	b.enc += b.sendSize
}

// Recv appends one received message of the current record, as Send does,
// but its payload only when the layer does not derive it.
func (b *LayerBuilder) Recv(src VertexID, v value.Value) {
	p := int64(src)
	b.blocks[colRecvPeers] = binary.AppendUvarint(b.blocks[colRecvPeers], zigzag(p-b.recvPrev))
	b.recvPrev = p
	if !b.deriveRecvs {
		b.blocks[colRecvValues] = appendPackedValue(b.blocks[colRecvValues], v)
	}
	b.enc += int64(v.EncodedSize())
}

// Table interns an emitted-fact table name in the builder's dictionary and
// returns its index, which Fact takes.
func (b *LayerBuilder) Table(name string) int {
	idx, ok := b.dict[name]
	if !ok {
		idx = len(b.tables)
		b.dict[name] = idx
		b.tables = append(b.tables, name)
	}
	return idx
}

// Fact appends one analytic-emitted fact of the current record: table
// dictionary index table (see Table), its arguments row row of t.
func (b *LayerBuilder) Fact(table int, t *engine.FactTable, row int) {
	b.beginFact(table, t.Arity())
	for c := range t.Arity() {
		b.factArg(t.Value(c, row))
	}
	b.endFact(table)
}

// beginFact, factArg and endFact append one fact of table index table with
// n arguments, one factArg call each.
func (b *LayerBuilder) beginFact(table, n int) {
	b.blocks[colEmitted] = binary.AppendUvarint(b.blocks[colEmitted], uint64(n))
	b.enc += int64(2 + len(b.tables[table]))
}

func (b *LayerBuilder) factArg(a value.Value) {
	b.blocks[colEmitted] = appendPackedValue(b.blocks[colEmitted], a)
	b.enc += int64(a.EncodedSize())
}

func (b *LayerBuilder) endFact(table int) {
	b.facts = append(b.facts, segFact{table: table, end: len(b.blocks[colEmitted])})
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
		idx := b.Table(f.Table)
		b.beginFact(idx, len(f.Args))
		for _, a := range f.Args {
			b.factArg(a)
		}
		b.endFact(idx)
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

// stitcher assembles a layer's file image from its segments: builders
// that each hold records in ascending vertex order, no vertex in two of
// them (a lone segment may hold any order, and keeps it). The image is,
// byte for byte, the one a single builder fed every record in merged vertex
// order would give. The record-local columns need no re-encoding — peer
// deltas start from the record's own vertex and packed values are
// self-contained — so each record's bytes are copied once, straight into
// the image (a repeat code refers only to its own record's sends). Only
// the vertex deltas, the packed flags and the facts' table indices,
// renumbered into the layer's dictionary in order of first use, are
// encoded here. A stitcher keeps its scratch from layer to layer.
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
// segments: an empty layer), which derives its receive payloads when the
// segments do (Store.Append has checked that they agree).
func (st *stitcher) layer(ss int, segs []*LayerBuilder) []byte {
	st.merge(segs)
	n, lens := st.encodeMerged(segs)
	var flags byte
	cols := numColumns
	if len(segs) > 0 && segs[0].deriveRecvs {
		flags, cols = flagDerivedRecvs, numColumns-1
	}

	// meta holds the header, then the footer.
	meta := append(st.meta[:0], layerMagic[:]...)
	meta = append(meta, layerVersionColumnar, flags)
	meta = binary.AppendUvarint(meta, uint64(ss))
	meta = binary.AppendUvarint(meta, uint64(n))
	headEnd := len(meta)
	meta = binary.AppendUvarint(meta, uint64(cols))
	var pos [numColumns]int // each column's write offset in the image
	off := headEnd
	for c, l := range lens {
		if c == colRecvValues && flags&flagDerivedRecvs != 0 {
			continue // empty: Recv stored no payload
		}
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

// columnarLayer is an opened columnar layer file: parsed header and footer,
// with column blocks still on storage until decode reads the projected ones.
type columnarLayer struct {
	r         io.ReaderAt
	superstep int
	nrecords  int
	derived   bool // flagDerivedRecvs
	present   colMask
	offs      [numColumns]int64
	lens      [numColumns]int64
}

// image is a layer file held in memory: readAt hands out subslices of it,
// not copies.
type image []byte

func (im image) ReadAt(p []byte, off int64) (int, error) { return bytes.NewReader(im).ReadAt(p, off) }

// readAt returns the n bytes of r at off, which openColumnar has checked lie
// in the file: a subslice when r is an image, otherwise read into *buf,
// which grows as needed and is overwritten by the next read.
func readAt(r io.ReaderAt, off, n int64, buf *[]byte) ([]byte, error) {
	if im, ok := r.(image); ok {
		return im[off : off+n : off+n], nil
	}
	if int64(cap(*buf)) < n {
		*buf = make([]byte, n)
	}
	b := (*buf)[:n]
	if _, err := r.ReadAt(b, off); err != nil {
		return nil, err
	}
	return b, nil
}

// openColumnar parses the header and footer of a columnar layer file
// (version 2, 3 or 4) of the given size without reading any column block.
// It reads them into *buf (see readAt).
func openColumnar(r io.ReaderAt, size int64, buf *[]byte) (*columnarLayer, error) {
	hdr, err := readAt(r, 0, min(size, 64), buf)
	if err != nil {
		return nil, corruptf("short header read: %v", err)
	}
	if len(hdr) < 5 || [4]byte(hdr[:4]) != layerMagic {
		return nil, fmt.Errorf("provenance: bad layer magic %q", hdr[:min(len(hdr), 4)])
	}
	version := hdr[4]
	if version < layerVersionNoRepeat || version > layerVersionColumnar {
		return nil, fmt.Errorf("provenance: unsupported layer file version %d", version)
	}
	c := bcursor{b: hdr, off: 5}
	var flags byte
	if version >= layerVersionColumnar {
		if flags, err = c.byte(); err != nil {
			return nil, err
		}
		if flags&^flagDerivedRecvs != 0 {
			return nil, corruptf("unknown layer flags %#x", flags)
		}
	}
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

	if size < headerEnd+8 {
		return nil, corruptf("file size %d too small for trailer", size)
	}
	trailer, err := readAt(r, size-8, 8, buf)
	if err != nil {
		return nil, corruptf("short trailer read: %v", err)
	}
	if [4]byte(trailer[4:]) != layerEndMagic {
		return nil, corruptf("bad end magic %q (truncated write?)", trailer[4:])
	}
	footLen := int64(binary.LittleEndian.Uint32(trailer[:4]))
	if footLen <= 0 || footLen > size-8-headerEnd {
		return nil, corruptf("footer length %d out of range", footLen)
	}
	foot, err := readAt(r, size-8-footLen, footLen, buf)
	if err != nil {
		return nil, corruptf("short footer read: %v", err)
	}
	fc := bcursor{b: foot}
	ncols, err := fc.count(1)
	if err != nil {
		return nil, err
	}
	cl := &columnarLayer{r: r, superstep: int(ss), nrecords: int(n), derived: flags&flagDerivedRecvs != 0}
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
	if cl.present&maskRequired != maskRequired {
		return nil, corruptf("missing required columns (footer mask %09b)", cl.present)
	}
	if cl.derived && cl.present.has(colRecvValues) {
		return nil, corruptf("layer derives its receive payloads but holds column %d", colRecvValues)
	}
	// Each record costs at least one vertex-delta byte, so the record count
	// is bounded by the vertex block length — reject a lying header before
	// allocating records.
	if int64(cl.nrecords) > cl.lens[colVertex] {
		return nil, corruptf("record count %d exceeds vertex column of %d bytes", cl.nrecords, cl.lens[colVertex])
	}
	return cl, nil
}

// LayerViews is a layer decoded into the record views the query evaluator
// reads, the one decoded form of a layer. The views, the message slices they
// borrow and their facts live in arenas and a fact store the next decode
// into the same LayerViews overwrites: a layer's views are valid until then. String and
// vector payloads are allocated by every decode, so kept Values outlive the
// views. A view's SentAny is the stored flag (prov_send also holds for a
// view with sends).
type LayerViews struct {
	Superstep int
	Records   []eval.RecordView

	sends  []engine.SentMessage
	recvs  []engine.IncomingMessage
	zeros  []engine.IncomingMessage // a counts-only receive read's, never written
	facts  engine.FactStore         // the views' facts; its tables serve every layer
	tables []string                 // the layer's fact-table dictionary
	dictID []factTable              // per dictionary index: the last arity read and its table id
	args   []value.Value            // one fact's arguments
	buf    []byte                   // header, footer and column blocks read from a file

	derive deriveScratch
}

// deriveScratch is a derivation's index of the views' receives (see
// transpose), reused from layer to layer. Views are found by vertex in an
// open-addressing table of at least twice as many slots as views, so its
// size follows the layer's record count, dense or sparse, not the span of
// its vertex IDs.
type deriveScratch struct {
	keys  []VertexID // per view: its vertex
	fills []recvFill // per view: its receives
	slots []int      // view indexes by hash of their vertex, -1 for none
	shift uint       // 64 less log2(len(slots))
}

// recvFill is one view's receives and how many of them are filled.
type recvFill struct {
	ms   []engine.IncomingMessage
	next int
}

// index indexes the receives of recs, which must ascend by vertex.
func (d *deriveScratch) index(recs []eval.RecordView) error {
	d.keys, d.fills = d.keys[:0], d.fills[:0]
	for i := range recs {
		if i > 0 && recs[i].Vertex <= recs[i-1].Vertex {
			return corruptf("receiver %d follows %d: the layer does not ascend by vertex", recs[i].Vertex, recs[i-1].Vertex)
		}
		d.keys = append(d.keys, VertexID(recs[i].Vertex))
		d.fills = append(d.fills, recvFill{ms: recs[i].Recvs})
	}
	size := 1
	for size < 2*len(d.keys) {
		size <<= 1
	}
	d.shift = uint(65 - bits.Len(uint(size)))
	d.slots = slices.Grow(d.slots[:0], size)[:size]
	for i := range d.slots {
		d.slots[i] = -1
	}
	for k, x := range d.keys {
		i := d.slot(x)
		for d.slots[i] >= 0 {
			i = (i + 1) & (size - 1)
		}
		d.slots[i] = k
	}
	return nil
}

// slot is vertex x's first slot (Fibonacci hashing; a one-slot table has
// shift 64, which Go's shift makes slot 0).
func (d *deriveScratch) slot(x VertexID) int {
	return int(uint64(x) * 0x9e3779b97f4a7c15 >> d.shift)
}

// find returns the index of the view of vertex x. Half the slots at least
// are empty, so every probe ends.
func (d *deriveScratch) find(x VertexID) (int, bool) {
	for i := d.slot(x); ; i = (i + 1) & (len(d.slots) - 1) {
		k := d.slots[i]
		if k < 0 {
			return 0, false
		}
		if d.keys[k] == x {
			return k, true
		}
	}
}

// layerFiles opens layer files by index: file returns layer i's bytes and
// size and, when they are read from an open file, that file, for the
// caller to close once it has read them.
type layerFiles interface {
	file(i int) (r io.ReaderAt, size int64, f *os.File, err error)
}

// Capacity returns how many views and messages, sent and received, the
// arenas have room for: those of the largest layer decoded into them, and
// a counts-only receive read's zero messages, as many as the largest count
// it read. A derived read streams the previous layer's sends and holds
// none of them.
func (v *LayerViews) Capacity() (views, msgs int) {
	return cap(v.Records), cap(v.sends) + cap(v.recvs) + cap(v.zeros)
}

// ColumnWork is the decode work a store's reads did on one layer column:
// the column blocks decoded and their bytes and, in a peer column, the
// peer IDs decoded and those a counts-only read skipped.
type ColumnWork struct{ Blocks, Bytes, Peers, PeersSkipped int64 }

// decodeWork is ColumnWork per column ID.
type decodeWork [numColumns]ColumnWork

// colNames names the columns by ID, as DecodeWork reports them.
var colNames = [numColumns]string{"vertex", "prevActive", "flags", "sendPeers", "sendValues", "recvPeers", "recvValues", "values", "emitted"}

// read decodes the layer file r of the given size into v: the columns of
// mask.closed(), every other column left empty (Null values, nil messages
// and facts). work counts the column blocks decoded and the peer IDs
// decoded or skipped. A layer that derives
// its receive payloads takes them, when mask projects them, from the sends
// of the previous layer, layer prev of files (nil: none is at hand).
func (v *LayerViews) read(r io.ReaderAt, size int64, mask colMask, work *decodeWork, files layerFiles, prev int) error {
	cl, err := openColumnar(r, size, &v.buf)
	if err != nil {
		return err
	}
	mask = mask.closed()
	derive := cl.derived && mask.has(colRecvValues)
	if derive {
		mask &^= 1 << colRecvValues
	}
	v.Superstep = cl.superstep
	if cap(v.Records) < cl.nrecords {
		// At least doubling: a scan whose layers grow reallocates a
		// logarithmic number of times, not at each new largest layer.
		v.Records = make([]eval.RecordView, max(cl.nrecords, 2*cap(v.Records)))
	}
	v.Records = v.Records[:cl.nrecords]
	v.sends, v.recvs = v.sends[:0], v.recvs[:0]
	v.facts.Reset()
	blocks, counts := mask.blocks(), mask&maskRecvCounts != 0
	for col := range numColumns {
		if !blocks.has(col) {
			continue
		}
		if !cl.present.has(col) {
			return corruptf("column %d absent from footer", col)
		}
		b, err := readAt(r, cl.offs[col], cl.lens[col], &v.buf)
		if err != nil {
			return corruptf("short read of column %d: %v", col, err)
		}
		w := &work[col]
		w.Blocks++
		w.Bytes += int64(len(b))
		c := &bcursor{b: b}
		if col == colRecvPeers && counts {
			n, err := v.recvCounts(c)
			if err != nil {
				return err
			}
			w.PeersSkipped += int64(n)
			continue
		}
		if err := v.decode(col, c); err != nil {
			return err
		}
		switch col {
		case colSendPeers:
			w.Peers += int64(len(v.sends))
		case colRecvPeers:
			w.Peers += int64(len(v.recvs))
		}
	}
	if derive {
		return v.deriveRecvs(files, prev, work)
	}
	return nil
}

// deriveRecvs fills the receive payloads of a layer that derives them (see
// the format comment) from the sends of the previous layer, layer prev of
// files: it streams that layer's vertex, send-peer and send-value columns
// and hands each send to its receiver's next receive. Whatever disagrees
// with the receives the views hold is an error naming both layers.
func (v *LayerViews) deriveRecvs(files layerFiles, prev int, work *decodeWork) error {
	ss := v.Superstep
	if files == nil || ss == 0 {
		return corruptf("layer %d derives its receive payloads from layer %d, which is not at hand", ss, ss-1)
	}
	r, size, f, err := files.file(prev)
	if err == nil {
		err = v.transpose(r, size, work)
		if f != nil {
			f.Close()
		}
	}
	if err != nil {
		return fmt.Errorf("provenance: layer %d derives its receive payloads from layer %d: %w", ss, ss-1, err)
	}
	return nil
}

// transpose fills the views' receive payloads from the layer file r of the
// given size, the previous layer (see deriveRecvs).
func (v *LayerViews) transpose(r io.ReaderAt, size int64, work *decodeWork) error {
	d := &v.derive
	if err := d.index(v.Records); err != nil {
		return err
	}
	cl, err := openColumnar(r, size, &v.buf)
	if err != nil {
		return err
	}
	if cl.superstep != v.Superstep-1 {
		return corruptf("the previous layer's file holds superstep %d", cl.superstep)
	}
	// One read covers the three columns, wherever the footer puts them.
	cols := [...]int{colVertex, colSendPeers, colSendValues}
	lo, hi := int64(math.MaxInt64), int64(0)
	for _, col := range cols {
		if !cl.present.has(col) {
			return corruptf("column %d absent from the previous layer's footer", col)
		}
		lo, hi = min(lo, cl.offs[col]), max(hi, cl.offs[col]+cl.lens[col])
	}
	span, err := readAt(r, lo, hi-lo, &v.buf)
	if err != nil {
		return corruptf("short read of the previous layer's sends: %v", err)
	}
	var cur [numColumns]bcursor
	for _, col := range cols {
		cur[col].b = span[cl.offs[col]-lo : cl.offs[col]-lo+cl.lens[col]]
		work[col].Blocks++
		work[col].Bytes += cl.lens[col]
	}
	vc, pc, sc := &cur[colVertex], &cur[colSendPeers], &cur[colSendValues]

	next, src := int64(0), int64(-1)
	for i := range cl.nrecords {
		if next, err = vc.peer(next); err != nil {
			return err
		}
		x := int64(VertexID(next))
		if x <= src {
			return corruptf("sender %d follows %d: the previous layer does not ascend by vertex", x, src)
		}
		src = x
		cnt, err := pc.count(1)
		if err != nil {
			return err
		}
		work[colSendPeers].Peers += int64(cnt)
		peer, val := x, value.NullValue
		for j := range cnt {
			if peer, err = pc.peer(peer); err != nil {
				return err
			}
			if val, err = sc.sendValue(i, j, val); err != nil {
				return err
			}
			k, ok := d.find(VertexID(peer))
			if !ok {
				continue // the receiver's capture was shed
			}
			f := &d.fills[k]
			if f.next == len(f.ms) || int64(f.ms[f.next].Src) != x {
				return corruptf("the send from %d to %d matches no receive", x, d.keys[k])
			}
			f.ms[f.next].Val = val
			f.next++
		}
	}
	for k, f := range d.fills {
		if f.next != len(f.ms) {
			return corruptf("the receive of %d from %d matches no send", d.keys[k], f.ms[f.next].Src)
		}
		engine.Canonicalize(f.ms)
	}
	return nil
}

// decode decodes column col from c into the views. Columns decode in ID
// order: the vertex column first, which resets each view, and a value
// column after the peer column its values align to.
func (v *LayerViews) decode(col int, c *bcursor) error {
	recs := v.Records
	var err error
	switch col {
	case colVertex:
		prev := int64(0)
		for i := range recs {
			if prev, err = c.peer(prev); err != nil {
				return err
			}
			recs[i] = eval.RecordView{Vertex: int64(VertexID(prev)), Superstep: int64(v.Superstep)}
		}
	case colPrevActive:
		base := int64(v.Superstep - 1)
		for i := range recs {
			d, err := c.zigzag()
			if err != nil {
				return err
			}
			pa := base - d
			if pa < -1 || pa > int64(math.MaxInt32) {
				return corruptf("prevActive %d out of range for record %d", pa, i)
			}
			recs[i].PrevActive = pa
		}
	case colFlags:
		if len(c.b) < (len(recs)+3)/4 {
			return corruptf("flags column holds %d bytes, need %d", len(c.b), (len(recs)+3)/4)
		}
		for i := range recs {
			fl := c.b[i/4] >> ((i % 4) * 2)
			recs[i].HasValue = fl&1 != 0
			recs[i].SentAny = fl&2 != 0
		}
	case colSendPeers:
		reserve(&v.sends, c.peers(len(recs)))
		for i := range recs {
			cnt, err := c.count(1)
			if err != nil {
				return err
			}
			ms, peer := window(&v.sends, cnt), recs[i].Vertex
			for j := range ms {
				if peer, err = c.peer(peer); err != nil {
					return err
				}
				ms[j] = engine.SentMessage{Dst: VertexID(peer)}
			}
			recs[i].Sends = ms
		}
	case colRecvPeers:
		reserve(&v.recvs, c.peers(len(recs)))
		for i := range recs {
			cnt, err := c.count(1)
			if err != nil {
				return err
			}
			ms, peer := window(&v.recvs, cnt), recs[i].Vertex
			for j := range ms {
				if peer, err = c.peer(peer); err != nil {
					return err
				}
				ms[j] = engine.IncomingMessage{Src: VertexID(peer)}
			}
			recs[i].Recvs = ms
		}
	case colSendValues:
		for i := range recs {
			ms := recs[i].Sends
			prev := value.NullValue
			for j := range ms {
				if ms[j].Val, err = c.sendValue(i, j, prev); err != nil {
					return err
				}
				prev = ms[j].Val
			}
		}
	case colRecvValues:
		for i := range recs {
			for j := range recs[i].Recvs {
				if recs[i].Recvs[j].Val, err = c.packedValue(); err != nil {
					return err
				}
			}
		}
	case colValues:
		for i := range recs {
			if recs[i].HasValue {
				if recs[i].Value, err = c.packedValue(); err != nil {
					return err
				}
			}
		}
	case colEmitted:
		return v.decodeFacts(c)
	}
	return nil
}

// sendValue decodes send j of record i from a send-value column: a packed
// value, or the repeat code for prev, the record's previous send's payload
// (Values are immutable: a repeated vector shares its slice).
func (c *bcursor) sendValue(i, j int, prev value.Value) (value.Value, error) {
	if c.off < len(c.b) && c.b[c.off] == pvRepeat {
		if j == 0 {
			return value.NullValue, corruptf("repeat code as record %d's first send", i)
		}
		c.off++
		return prev, nil
	}
	return c.packedValue()
}

// recvCounts decodes a receive-peer column's counts alone (see the format
// comment): each view's Recvs becomes as many zero messages, a window of
// v.zeros grown to the largest count, and the peer varints are skipped. It
// returns how many it skipped.
func (v *LayerViews) recvCounts(c *bcursor) (int, error) {
	skipped := 0
	for i := range v.Records {
		cnt, err := c.count(1)
		if err != nil {
			return 0, err
		}
		if err := c.skip(cnt); err != nil {
			return 0, err
		}
		if cnt > len(v.zeros) {
			v.zeros = make([]engine.IncomingMessage, cnt)
		}
		v.Records[i].Recvs = v.zeros[:cnt:cnt]
		skipped += cnt
	}
	return skipped, nil
}

// varintEnds counts the bytes of b that end a varint: those below 0x80. It
// takes eight bytes at a time (see wordEnds), the rest one by one.
func varintEnds(b []byte) int {
	n := 0
	for ; len(b) >= 8; b = b[8:] {
		n += wordEnds(binary.LittleEndian.Uint64(b))
	}
	for _, x := range b {
		if x < 0x80 {
			n++
		}
	}
	return n
}

// wordEnds counts the bytes of w, eight bytes of a varint stream, whose
// high bit is clear: the ends of varints.
func wordEnds(w uint64) int { return bits.OnesCount64(^w & 0x8080808080808080) }

// peers returns how many peers a peer column of n records holds: every
// varint ends in one byte below 0x80, and n of the varints are counts.
func (c *bcursor) peers(n int) int { return max(varintEnds(c.b)-n, 0) }

// skip moves the cursor past n varints without decoding them: whole words
// while the n-th varint's end lies beyond them (see wordEnds), then byte
// by byte. A block that ends first is a truncated varint.
func (c *bcursor) skip(n int) error {
	b, i := c.b, c.off
	for ; i+8 <= len(b); i += 8 {
		k := wordEnds(binary.LittleEndian.Uint64(b[i:]))
		if k >= n {
			break
		}
		n -= k
	}
	for ; n > 0 && i < len(b); i++ {
		if b[i] < 0x80 {
			n--
		}
	}
	if n > 0 {
		return corruptf("truncated varint at block offset %d", len(b))
	}
	c.off = i
	return nil
}

// peer decodes a zigzag delta from prev and returns the sum: the next ID
// of a delta-encoded list.
func (c *bcursor) peer(prev int64) (int64, error) {
	d, err := c.zigzag()
	return prev + d, err
}

// reserve makes room for n elements in the empty *arena, so a column sized
// up front fills it without growing it.
func reserve[M any](arena *[]M, n int) {
	if cap(*arena) < n {
		*arena = make([]M, 0, n)
	}
}

// window appends n elements to *arena and returns them. A window taken
// before the arena grows keeps the elements it had.
func window[M any](arena *[]M, n int) []M {
	at := len(*arena)
	*arena = slices.Grow(*arena, n)[:at+n]
	return (*arena)[at : at+n : at+n]
}

// factTable is a dictionary entry's table id in LayerViews.facts for one
// arity (-1: none read yet).
type factTable struct {
	arity int
	id    int32
}

// decodeFacts decodes the emitted-fact column: the layer's table
// dictionary, then each record's facts, into the views' fact store.
func (v *LayerViews) decodeFacts(c *bcursor) error {
	ntables, err := c.count(1)
	if err != nil {
		return err
	}
	v.tables, v.dictID = v.tables[:0], v.dictID[:0]
	for range ntables {
		tl, err := c.count(1)
		if err != nil {
			return err
		}
		raw, err := c.take(tl)
		if err != nil {
			return err
		}
		v.tables = append(v.tables, string(raw))
		v.dictID = append(v.dictID, factTable{arity: -1})
	}
	for i := range v.Records {
		nf, err := c.count(1)
		if err != nil {
			return err
		}
		for range nf {
			ti, err := c.uvarint()
			if err != nil {
				return err
			}
			if ti >= uint64(len(v.tables)) {
				return corruptf("fact table index %d out of dictionary range %d", ti, len(v.tables))
			}
			na, err := c.count(1)
			if err != nil {
				return err
			}
			v.args = v.args[:0]
			for range na {
				a, err := c.packedValue()
				if err != nil {
					return err
				}
				v.args = append(v.args, a)
			}
			if d := &v.dictID[ti]; d.arity != na {
				*d = factTable{arity: na, id: v.facts.Intern(v.tables[ti], na)}
			}
			v.facts.Append(v.dictID[ti].id, v.args...)
		}
		v.Records[i].Emitted = v.facts.EndRecord()
	}
	return nil
}

// layer copies the views into a row-shaped Layer, which shares only their
// payloads: v may be decoded into again.
func (v *LayerViews) layer() *Layer {
	l := &Layer{Superstep: v.Superstep, Records: make([]Record, len(v.Records))}
	msgs, nfacts, nargs := 0, 0, 0
	for i := range v.Records {
		msgs += len(v.Records[i].Sends) + len(v.Records[i].Recvs) // v.recvs holds no counts-only read's receives
		f := v.Records[i].Emitted
		nfacts += f.Len()
		for k := range f.Len() {
			t, _ := f.Fact(k)
			nargs += t.Arity()
		}
	}
	halves := make([]MsgHalf, msgs)
	facts, args := make([]Fact, 0, nfacts), make([]value.Value, 0, nargs)
	for i := range v.Records {
		rv := &v.Records[i]
		r := &l.Records[i]
		*r = Record{Vertex: VertexID(rv.Vertex), PrevActive: int32(rv.PrevActive), HasValue: rv.HasValue, Value: rv.Value, SentAny: rv.SentAny}
		if n := len(rv.Sends); n > 0 {
			r.Sends, halves = halves[:n:n], halves[n:]
			for j, m := range rv.Sends {
				r.Sends[j] = MsgHalf{Peer: m.Dst, Val: m.Val}
			}
		}
		if n := len(rv.Recvs); n > 0 {
			r.Recvs, halves = halves[:n:n], halves[n:]
			for j, m := range rv.Recvs {
				r.Recvs[j] = MsgHalf{Peer: m.Src, Val: m.Val}
			}
		}
		if n := rv.Emitted.Len(); n > 0 {
			at := len(facts)
			for k := range n {
				t, _ := rv.Emitted.Fact(k)
				a := len(args)
				args = rv.Emitted.AppendArgs(args, k)
				facts = append(facts, Fact{Table: t.Name(), Args: args[a:len(args):len(args)]})
			}
			r.Emitted = facts[at:len(facts):len(facts)]
		}
	}
	return l
}
