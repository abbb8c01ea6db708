package engine

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"ariadne/internal/value"
)

// oracleDeliver is the reference barrier the flat inbox replaced, kept as the
// test oracle: collect every column's messages per destination vertex in a
// map, in ascending source partition and emission order, folding with the
// combiner when there is one; then sort each vertex's messages by (Src, Val)
// with a reflective sort, ties keeping delivery order.
func oracleDeliver(columns [][]OutMessage, comb func(a, b value.Value) value.Value) map[VertexID][]IncomingMessage {
	in := map[VertexID][]IncomingMessage{}
	for _, col := range columns {
		for _, om := range col {
			if comb != nil {
				if ex := in[om.Dst]; len(ex) > 0 {
					ex[0].Val = comb(ex[0].Val, om.Val)
					continue
				}
			}
			in[om.Dst] = append(in[om.Dst], IncomingMessage{Src: om.Src, Val: om.Val})
		}
	}
	for _, msgs := range in {
		oracleSort(msgs)
	}
	return in
}

func oracleSort(msgs []IncomingMessage) {
	sort.SliceStable(msgs, func(i, j int) bool {
		if msgs[i].Src != msgs[j].Src {
			return msgs[i].Src < msgs[j].Src
		}
		return msgs[i].Val.Compare(msgs[j].Val) < 0
	})
}

// msgBits renders messages bit for bit (NaN payloads, -0.0 and vectors
// included), so two lists compare as the bytes Compute would see.
func msgBits(msgs []IncomingMessage) string {
	var b []byte
	for _, m := range msgs {
		b = fmt.Appendf(b, "%d:", m.Src)
		b = m.Val.AppendBinary(b)
		b = append(b, '|')
	}
	return string(b)
}

// checkAgainstOracle compares one partition's inbox with the oracle's map:
// same owners, and for every vertex of the partition the same messages in
// the same order once Canonicalize — the pass runPartition applies before
// Compute — has run.
func checkAgainstOracle(t *testing.T, label string, in *inbox, nVerts int, want map[VertexID][]IncomingMessage) {
	t.Helper()
	var wantOwners []VertexID
	for v := range want {
		wantOwners = append(wantOwners, v)
	}
	slices.Sort(wantOwners)
	if !slices.Equal(in.owners(), wantOwners) {
		t.Fatalf("%s: owners %v, oracle %v", label, in.owners(), wantOwners)
	}
	var total int64
	for v := in.p; v < nVerts; v += in.nParts {
		got := in.msgs(VertexID(v))
		Canonicalize(got)
		if g, w := msgBits(got), msgBits(want[VertexID(v)]); g != w {
			t.Fatalf("%s: vertex %d receives\n  %s\noracle\n  %s", label, v, g, w)
		}
		total += int64(len(got))
	}
	if in.size() != total {
		t.Fatalf("%s: size %d, messages handed out %d", label, in.size(), total)
	}
}

// randomPayload draws from the payload shapes the analytics use plus the
// awkward ones: NaN, -0.0, an int equal to a float, vectors.
func randomPayload(rng *rand.Rand, allowNaN bool) value.Value {
	switch k := rng.Intn(10); {
	case k == 0 && allowNaN:
		return value.NewFloat(math.NaN())
	case k == 1:
		return value.NewFloat(math.Copysign(0, -1))
	case k == 2:
		return value.NewFloat(0)
	case k == 3:
		return value.NewInt(int64(rng.Intn(4)))
	case k == 4:
		return value.NewVector([]float64{float64(rng.Intn(3)), rng.Float64()})
	default:
		return value.NewFloat(float64(rng.Intn(4)) + rng.Float64()*1e-3)
	}
}

// randomColumns generates what nParts source partitions send to destination
// partition dp of an nVerts-vertex graph, shaped like runPartition's outbox:
// column sp holds messages of partition sp's vertices in ascending Src. The
// in-degree is skewed, some columns are empty, and some sources send one
// destination several messages with differing values (multi-edges); those
// never carry NaN, whose order against other values is not defined.
func randomColumns(rng *rand.Rand, nVerts, nParts, dp int) [][]OutMessage {
	owned := 0
	if nVerts > dp {
		owned = (nVerts - dp + nParts - 1) / nParts
	}
	columns := make([][]OutMessage, nParts)
	if owned == 0 {
		return columns
	}
	pick := func() VertexID { // skewed towards the low local indices
		return VertexID(rng.Intn(rng.Intn(owned)+1)*nParts + dp)
	}
	for sp := range columns {
		if rng.Intn(5) == 0 {
			continue
		}
		for src := sp; src < nVerts; src += nParts {
			seen, nan := map[VertexID]bool{}, map[VertexID]bool{}
			for k := rng.Intn(6); k > 0; k-- {
				dst := pick()
				if nan[dst] {
					continue
				}
				val := randomPayload(rng, !seen[dst])
				seen[dst] = true
				nan[dst] = val.Kind() == value.Float && math.IsNaN(val.Float())
				columns[sp] = append(columns[sp], OutMessage{Src: VertexID(src), Dst: dst, Val: val})
			}
		}
	}
	return columns
}

// lopsided is a float fold that is neither associative nor commutative, so
// any change in the association tree changes bits.
func lopsided(a, b value.Value) value.Value {
	return value.NewFloat(a.Float()*0.5 + b.Float() + 1e-9)
}

func TestInboxBuildMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, nParts := range []int{1, 2, 4, 7, 19} {
		for _, nVerts := range []int{0, 1, 5, 64, 97} {
			for _, comb := range []func(a, b value.Value) value.Value{nil, lopsided} {
				for dp := 0; dp < nParts; dp++ {
					in := newInbox(dp, nParts, nVerts)
					// Several rounds through one inbox: every build must
					// fully replace the previous contents on either side.
					for round := 0; round < 4; round++ {
						columns := randomColumns(rng, nVerts, nParts, dp)
						label := fmt.Sprintf("parts=%d verts=%d comb=%v dp=%d round=%d", nParts, nVerts, comb != nil, dp, round)
						delivered, combined := in.build(columns, comb)
						want := oracleDeliver(columns, comb)
						checkAgainstOracle(t, label, in, nVerts, want)
						var sent int64
						for _, col := range columns {
							sent += int64(len(col))
						}
						if delivered != in.size() || delivered+combined != sent {
							t.Fatalf("%s: delivered %d + combined %d, size %d, sent %d", label, delivered, combined, in.size(), sent)
						}
					}
				}
			}
		}
	}
}

// thin keeps about one message in keep, in column order.
func thin(rng *rand.Rand, columns [][]OutMessage, keep int) [][]OutMessage {
	out := make([][]OutMessage, len(columns))
	for sp, col := range columns {
		for _, om := range col {
			if rng.Intn(keep) == 0 {
				out[sp] = append(out[sp], om)
			}
		}
	}
	return out
}

// TestInboxSparseFrontier alternates frontiers that cover the partition with
// frontiers of a few vertices: a rebuild costs what the frontier costs (the
// sparse one sorts its owners, the dense one reads them off the table), and
// either must leave nothing behind of the other.
func TestInboxSparseFrontier(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	const nVerts = 4001
	for _, nParts := range []int{1, 4, 19} {
		for _, comb := range []func(a, b value.Value) value.Value{nil, lopsided} {
			dp := rng.Intn(nParts)
			in := newInbox(dp, nParts, nVerts)
			var sparse, dense bool
			for round, keep := range []int{1, 5000, 1000, 1, 1 << 30, 5000, 1} {
				columns := thin(rng, randomColumns(rng, nVerts, nParts, dp), keep)
				label := fmt.Sprintf("parts=%d comb=%v round=%d", nParts, comb != nil, round)
				in.build(columns, comb)
				if n := len(in.owners()); n > 0 && n < len(in.at)/32 {
					sparse = true
				} else if n > 0 {
					dense = true
				}
				checkAgainstOracle(t, label, in, nVerts, oracleDeliver(columns, comb))
			}
			if !sparse || !dense {
				t.Fatalf("parts=%d: sorted-owners path taken %v, table path %v; want both", nParts, sparse, dense)
			}
			// A foreign frontier of three vertices over a dense inbox.
			in.build(randomColumns(rng, nVerts, nParts, dp), comb)
			want := map[VertexID][]IncomingMessage{}
			var ids []VertexID
			var lists [][]IncomingMessage
			for _, l := range []int{170, 3, 42} {
				v := VertexID(l*nParts + dp)
				ids = append(ids, v, v) // a vertex may come in two pieces
				lists = append(lists, []IncomingMessage{{Src: 9, Val: value.NewInt(int64(l))}}, []IncomingMessage{{Src: 2, Val: value.NewInt(7)}})
				want[v] = []IncomingMessage{{Src: 2, Val: value.NewInt(7)}, {Src: 9, Val: value.NewInt(int64(l))}}
			}
			in.install(ids, lists)
			checkAgainstOracle(t, fmt.Sprintf("parts=%d install", nParts), in, nVerts, want)
		}
	}
}

// TestInboxBuildNeedsNoSort pins the canonical-order argument: when no
// source sends a vertex two messages, build alone yields (Src, Val) order —
// whichever columns are empty and wherever each column's first sender lies.
func TestInboxBuildNeedsNoSort(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const nVerts = 400
	for _, nParts := range []int{1, 2, 4, 7, 19} {
		for dp := 0; dp < nParts; dp++ {
			columns := make([][]OutMessage, nParts)
			for src := 0; src < nVerts; src++ {
				if rng.Intn(4) > 0 {
					continue // most vertices send nothing
				}
				for l := 0; l*nParts+dp < nVerts; l++ {
					if rng.Intn(3) == 0 {
						columns[src%nParts] = append(columns[src%nParts],
							OutMessage{Src: VertexID(src), Dst: VertexID(l*nParts + dp), Val: value.NewFloat(rng.Float64())})
					}
				}
			}
			in := newInbox(dp, nParts, nVerts)
			in.build(columns, nil)
			for _, v := range in.owners() {
				if !isCanonical(in.msgs(v)) {
					t.Fatalf("parts=%d dp=%d vertex %d: build left %s out of order", nParts, dp, v, msgBits(in.msgs(v)))
				}
			}
		}
	}
}

func TestInboxInstallMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for _, nParts := range []int{1, 2, 4, 7} {
		for _, nVerts := range []int{1, 5, 64, 97} {
			// One foreign frontier in arbitrary order — vertices of every
			// partition, lists unsorted, an id beyond the graph — offered
			// to each partition's inbox.
			ids := []VertexID{VertexID(nVerts + 3)}
			lists := [][]IncomingMessage{{{Src: 0, Val: value.NewInt(1)}}}
			want := map[VertexID][]IncomingMessage{}
			for _, v := range rng.Perm(nVerts) {
				var msgs []IncomingMessage
				for k := rng.Intn(5); k > 0; k-- {
					msgs = append(msgs, IncomingMessage{Src: VertexID(rng.Intn(nVerts)), Val: randomPayload(rng, false)})
				}
				ids = append(ids, VertexID(v))
				lists = append(lists, msgs)
				if len(msgs) > 0 {
					want[VertexID(v)] = slices.Clone(msgs)
					oracleSort(want[VertexID(v)])
				}
			}
			for p := 0; p < nParts; p++ {
				in := newInbox(p, nParts, nVerts)
				in.build(randomColumns(rng, nVerts, nParts, p), nil) // stale contents to replace
				in.install(ids, lists)
				mine := map[VertexID][]IncomingMessage{}
				for v, msgs := range want {
					if int(v)%nParts == p {
						mine[v] = msgs
					}
				}
				checkAgainstOracle(t, fmt.Sprintf("parts=%d verts=%d p=%d", nParts, nVerts, p), in, nVerts, mine)
			}
		}
	}
}

// TestInboxSlicesSurviveOneRebuild is the double-buffer lifetime at the unit
// level: what msgs and owners handed out stays intact across the next build
// (the barrier observers run behind), and a clone is independent for good.
func TestInboxSlicesSurviveOneRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const nVerts, nParts, dp = 97, 4, 1
	in := newInbox(dp, nParts, nVerts)
	in.build(randomColumns(rng, nVerts, nParts, dp), nil)
	owners := in.owners()
	wantOwners := slices.Clone(owners)
	var held [][]IncomingMessage
	var want []string
	for _, v := range owners {
		held = append(held, in.msgs(v))
		want = append(want, msgBits(in.msgs(v)))
	}
	snap := in.clone()

	in.build(randomColumns(rng, nVerts, nParts, dp), nil)
	if !slices.Equal(owners, wantOwners) {
		t.Fatalf("owners changed under a held slice: %v, was %v", owners, wantOwners)
	}
	for i := range held {
		if got := msgBits(held[i]); got != want[i] {
			t.Fatalf("vertex %d: held messages changed by the next build:\n  %s\nwas\n  %s", wantOwners[i], got, want[i])
		}
	}
	in.build(randomColumns(rng, nVerts, nParts, dp), nil)
	in.build(randomColumns(rng, nVerts, nParts, dp), nil)
	for i, v := range wantOwners {
		if got := msgBits(snap.msgs(v)); got != want[i] {
			t.Fatalf("vertex %d: clone changed by later builds", v)
		}
	}
}
