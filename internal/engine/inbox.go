package engine

import (
	"math"
	"slices"

	"ariadne/internal/value"
)

// inbox holds the messages in flight to one partition's vertices: a flat
// arena grouped by destination vertex, a dense table of arena spans indexed
// by local vertex (v / nParts) and the ascending list of owners (the vertices
// with messages). It is the engine's only message barrier (DESIGN.md §10):
// the master barrier, the resident barrier and Executor.Assemble call build,
// and a foreign frontier (checkpoint, wire seed, collected worker state)
// enters through install. Both cost O(messages + owners·log owners), whatever
// the partition's size: a sparse frontier touches only its owners' entries of
// the table.
//
// Arena and owner list are double-buffered: build and install write the side
// the current superstep does not read and then flip, so slices handed out by
// msgs and owners stay valid until the second rebuild after them — which lets
// VertexRecord.Received borrow the arena while observers run behind the
// barrier.
type inbox struct {
	p, nParts int
	// at[l] bounds local vertex l's messages in arena[cur]; it is zero for
	// every vertex that is not an owner.
	at    []span
	arena [2][]IncomingMessage
	own   [2][]VertexID
	cur   int
	// heap is build's merge heap, kept for the next build.
	heap []head
}

// head is a column remainder in build's merge heap, keyed by the Src of its
// first message.
type head struct {
	src  VertexID
	rest []OutMessage
}

// span is arena[lo:hi]. While a rebuild counts, hi is the number of messages
// seen so far; while it scatters, hi is the next free slot.
type span struct{ lo, hi int32 }

func newInbox(p, nParts, nVertices int) *inbox {
	n := (nVertices - p + nParts - 1) / nParts // vertices p, p+nParts, ...
	return &inbox{p: p, nParts: nParts, at: make([]span, n)}
}

func (b *inbox) local(v VertexID) int { return int(uint64(v) / uint64(b.nParts)) }

// msgs returns v's messages. After build they are in ascending Src, and
// messages of one Src in emission order; the slice stays valid until the
// second rebuild from now.
func (b *inbox) msgs(v VertexID) []IncomingMessage {
	s := b.at[b.local(v)]
	if s.lo == s.hi {
		return nil
	}
	return b.arena[b.cur][s.lo:s.hi:s.hi]
}

// owners returns the vertices that have messages, ascending; valid as long as
// a msgs slice taken at the same time.
func (b *inbox) owners() []VertexID { return b.own[b.cur] }

// size is the number of messages held.
func (b *inbox) size() int64 { return int64(len(b.arena[b.cur])) }

// begin empties the span table and returns the idle owner list to collect
// the next owners in: a vertex joins it when its count leaves zero.
func (b *inbox) begin() []VertexID {
	for _, v := range b.own[b.cur] {
		b.at[b.local(v)] = span{}
	}
	return b.own[b.cur^1][:0]
}

// layout puts the collected owners in ascending order, turns the counts the
// caller left in their spans into empty spans at their arena offsets, sizes
// the idle arena for the total and makes that side current. The caller then
// fills the returned arena, advancing each span's hi.
func (b *inbox) layout(own []VertexID) []IncomingMessage {
	// Sorting the owners costs about len(own)·log len(own) steps, reading
	// them off the table len(at): measured, the table wins from one owner in
	// 32 vertices on.
	if len(own) >= len(b.at)/32 {
		own = own[:0]
		for l := range b.at {
			if b.at[l].hi > 0 {
				own = append(own, VertexID(l*b.nParts+b.p))
			}
		}
	} else {
		slices.Sort(own)
	}
	var run int64
	for _, v := range own {
		s := &b.at[b.local(v)]
		n := s.hi
		s.lo, s.hi = int32(run), int32(run)
		run += int64(n)
	}
	if run > math.MaxInt32 {
		panic("engine: more than 2^31 messages in flight to one partition")
	}
	next := b.cur ^ 1
	arena := slices.Grow(b.arena[next][:0], int(run))[:run]
	b.arena[next], b.own[next], b.cur = arena, own, next
	return arena
}

// build replaces the inbox with the messages of columns, where columns[sp]
// is what source partition sp sent here, in emission order. A partition
// computes its vertices in ascending order, so every column is in ascending
// Src; merging the columns by Src while scattering them leaves each vertex's
// messages ordered by Src, and runPartition has nothing left to sort.
//
// With a combiner every vertex keeps one message: the first to arrive, folded
// with the later ones in ascending source partition and emission order — the
// engine's association tree — so the columns are taken whole, not merged.
func (b *inbox) build(columns [][]OutMessage, comb func(a, b value.Value) value.Value) (delivered, combined int64) {
	nParts := VertexID(b.nParts)
	at := b.at
	own := b.begin()
	var total int64
	for _, col := range columns {
		total += int64(len(col))
		for i := range col {
			s := &at[col[i].Dst/nParts]
			if s.hi == 0 {
				own = append(own, col[i].Dst)
				s.hi = 1
			} else if comb == nil {
				s.hi++
			}
		}
	}
	arena := b.layout(own)

	if comb != nil {
		for _, col := range columns {
			for i := range col {
				s := &at[col[i].Dst/nParts]
				if s.hi > s.lo {
					arena[s.lo].Val = comb(arena[s.lo].Val, col[i].Val)
					continue
				}
				arena[s.hi] = IncomingMessage{Src: col[i].Src, Val: col[i].Val}
				s.hi++
			}
		}
		return int64(len(arena)), total - int64(len(arena))
	}
	// h is a min-heap of the non-empty columns' remainders.
	h := b.heap[:0]
	for _, col := range columns {
		if len(col) > 0 {
			h = append(h, head{col[0].Src, col})
		}
	}
	sift := func(i int) {
		top := h[i]
		for {
			c := 2*i + 1
			if c >= len(h) {
				break
			}
			if c+1 < len(h) && h[c+1].src < h[c].src {
				c++
			}
			if top.src <= h[c].src {
				break
			}
			h[i] = h[c]
			i = c
		}
		h[i] = top
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		sift(i)
	}
	for len(h) > 0 {
		// The root's run extends to the smallest Src of any other column,
		// which is at one of the root's children.
		limit := VertexID(math.MaxUint32)
		for c := 1; c <= 2 && c < len(h); c++ {
			limit = min(limit, h[c].src)
		}
		col := h[0].rest
		i := 0
		for ; i < len(col) && col[i].Src <= limit; i++ {
			s := &at[col[i].Dst/nParts]
			arena[s.hi] = IncomingMessage{Src: col[i].Src, Val: col[i].Val}
			s.hi++
		}
		if i < len(col) {
			h[0] = head{col[i].Src, col[i:]}
		} else {
			h[0] = h[len(h)-1]
			h = h[:len(h)-1]
		}
		if len(h) > 1 {
			sift(0)
		}
	}
	b.heap = h
	delivered = int64(len(arena))
	return delivered, total - delivered
}

// install replaces the inbox with lists[i] as the messages of ids[i], kept in
// the order given; ids this partition does not own are skipped, so one
// frontier can be offered to every partition. The input is foreign — a
// checkpoint, a wire seed, a collected worker inbox — and nothing is assumed
// about its order: runPartition re-establishes the canonical one.
func (b *inbox) install(ids []VertexID, lists [][]IncomingMessage) {
	own := b.begin()
	for i, v := range ids {
		if n := len(lists[i]); n > 0 && b.owns(v) {
			s := &b.at[b.local(v)]
			if s.hi == 0 {
				own = append(own, v)
			}
			s.hi += int32(n)
		}
	}
	arena := b.layout(own)
	for i, v := range ids {
		if b.owns(v) {
			s := &b.at[b.local(v)]
			s.hi += int32(copy(arena[s.hi:], lists[i]))
		}
	}
}

func (b *inbox) owns(v VertexID) bool {
	return int(uint64(v)%uint64(b.nParts)) == b.p && b.local(v) < len(b.at)
}

// clone returns an independent copy of the current contents.
func (b *inbox) clone() *inbox {
	c := &inbox{p: b.p, nParts: b.nParts, at: slices.Clone(b.at)}
	c.arena[0] = slices.Clone(b.arena[b.cur])
	c.own[0] = slices.Clone(b.own[b.cur])
	return c
}
