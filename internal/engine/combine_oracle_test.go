package engine

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"ariadne/internal/graph"
	"ariadne/internal/value"
)

// oracleFlush is the sender-side combining the dense index replaced, kept as
// the test oracle: a map from destination vertex to the index of its message
// in its destination column, made afresh for the superstep. Each vertex's
// sends, in ids order and then emission order, fold into the destination's
// first message.
func oracleFlush(nParts int, comb func(a, b value.Value) value.Value, ids []VertexID, sends func(VertexID) []SentMessage) (cols [][]OutMessage, sent, combined int64) {
	cols = make([][]OutMessage, nParts)
	idx := map[VertexID]int{}
	for _, v := range ids {
		for _, m := range sends(v) {
			sent++
			dp := int(m.Dst) % nParts
			if i, ok := idx[m.Dst]; ok {
				cols[dp][i].Val = comb(cols[dp][i].Val, m.Val)
				combined++
				continue
			}
			idx[m.Dst] = len(cols[dp])
			cols[dp] = append(cols[dp], OutMessage{Src: v, Dst: m.Dst, Val: m.Val})
		}
	}
	return cols, sent, combined
}

// outboxBits renders outbox columns bit for bit.
func outboxBits(cols [][]OutMessage) string {
	var b []byte
	for dp, col := range cols {
		b = fmt.Appendf(b, "[%d]", dp)
		for _, m := range col {
			b = fmt.Appendf(b, "%d>%d:", m.Src, m.Dst)
			b = m.Val.AppendBinary(b)
			b = append(b, '|')
		}
	}
	return string(b)
}

// scriptProg sends what sends(superstep, vertex) says, whatever the vertex
// received, and fails at vertex crashAt (when it is not -1) after sending.
type scriptProg struct {
	seed    int64
	nVerts  int
	crashAt int64
}

var errScripted = errors.New("scripted failure")

func (p *scriptProg) InitialValue(_ *graph.Graph, v VertexID) value.Value { return value.NewFloat(0) }

func (p *scriptProg) Compute(ctx *Context, _ []IncomingMessage) error {
	for _, m := range p.sends(ctx.Superstep(), ctx.ID()) {
		ctx.SendMessage(m.Dst, m.Val)
	}
	if int64(ctx.ID()) == p.crashAt {
		return errScripted
	}
	return nil
}

// sends draws up to six messages for v at ss: destinations skewed towards
// the low ids, so the vertices of a partition share them, and some repeated
// within the vertex.
func (p *scriptProg) sends(ss int, v VertexID) []SentMessage {
	rng := rand.New(rand.NewSource(p.seed<<40 ^ int64(ss)<<20 ^ int64(v)))
	out := make([]SentMessage, rng.Intn(7))
	for i := range out {
		dst := VertexID(rng.Intn(rng.Intn(p.nVerts) + 1))
		if i > 0 && rng.Intn(4) == 0 {
			dst = out[rng.Intn(i)].Dst
		}
		out[i] = SentMessage{Dst: dst, Val: value.NewFloat(float64(rng.Intn(1 << 20)))}
	}
	return out
}

// frontier draws an ascending share frac of partition p's vertices, at least
// one unless frac is 0.
func frontier(rng *rand.Rand, p, nParts, nVerts int, frac float64) []VertexID {
	var ids []VertexID
	for v := p; v < nVerts; v += nParts {
		if rng.Float64() < frac {
			ids = append(ids, VertexID(v))
		}
	}
	if len(ids) == 0 && frac > 0 && p < nVerts {
		ids = append(ids, VertexID(p))
	}
	return ids
}

// TestSenderCombiningMatchesOracle runs one partition's flush superstep after
// superstep on the same partResult, with growing, shrinking and empty
// frontiers, a supervised retry after a failure mid-superstep and the
// non-associative, non-commutative lopsided combiner, and requires the
// outbox columns, sent and combinedSender of every superstep to equal
// oracleFlush's. The index keeps its slots from earlier supersteps and
// attempts, so the test counts first sends to a destination whose slot is
// stale past the column's end, or names another destination's entry; both
// must occur (the bound check and the Dst check each guard one).
func TestSenderCombiningMatchesOracle(t *testing.T) {
	const nVerts = 400
	g, err := graph.NewFromEdges(nVerts, nil)
	if err != nil {
		t.Fatal(err)
	}
	fracs := []float64{1, 0.5, 0.1, 0, 0.05, 1, 0.3, 0, 0.02, 0.7, 1, 0.01}
	retry := map[int]bool{5: true, 9: true}
	for _, parts := range []int{1, 2, 4, 7, 19} {
		prog := &scriptProg{seed: int64(parts), nVerts: nVerts, crashAt: -1}
		e, err := New(g, prog, Config{Partitions: parts, Combiner: lopsided})
		if err != nil {
			t.Fatal(err)
		}
		e.sendComb = lopsided
		rng := rand.New(rand.NewSource(int64(parts)))
		var pastLen, foreign int
		for p := 0; p < parts; p++ {
			res := &e.results[p]
			written := make([]bool, nVerts) // a slot was set by an earlier attempt
			attempt := func(ss int, ids []VertexID) {
				e.runPartition(context.Background(), p, ss, 0, ids, res)
				for _, col := range res.outbox {
					for _, m := range col {
						written[m.Dst] = true
					}
				}
			}
			for ss, frac := range fracs {
				ids := frontier(rng, p, parts, nVerts, frac)
				label := fmt.Sprintf("partitions=%d p=%d ss=%d", parts, p, ss)
				if retry[ss] && len(ids) > 1 {
					prog.crashAt = int64(ids[len(ids)/2])
					attempt(ss, ids)
					prog.crashAt = -1
					if res.crash == nil || !errors.Is(res.crash, errScripted) {
						t.Fatalf("%s: the scripted failure did not stop the attempt: %v", label, res.crash)
					}
				}
				cols, sent, combined := oracleFlush(parts, lopsided, ids, func(v VertexID) []SentMessage { return prog.sends(ss, v) })
				for dp, col := range cols {
					if res.combIdx == nil || res.combIdx[dp] == nil {
						continue
					}
					for j, m := range col {
						if !written[m.Dst] {
							continue
						}
						if s := int(res.combIdx[dp][int(m.Dst)/parts]); s >= j {
							pastLen++
						} else if col[s].Dst != m.Dst {
							foreign++
						}
					}
				}
				attempt(ss, ids)
				if res.crash != nil {
					t.Fatalf("%s: %v", label, res.crash)
				}
				if got, want := outboxBits(res.outbox), outboxBits(cols); got != want {
					t.Fatalf("%s: outbox\n  %s\noracle\n  %s", label, got, want)
				}
				if res.sent != sent || res.combinedSender != combined {
					t.Fatalf("%s: sent %d combined %d, oracle %d and %d", label, res.sent, res.combinedSender, sent, combined)
				}
			}
		}
		if pastLen == 0 || foreign == 0 {
			t.Errorf("partitions=%d: %d stale slots past the column's end, %d naming another destination; want both", parts, pastLen, foreign)
		}
	}
}

// TestDuplicateExecCombinesLikeOracle executes superstep 1 of every
// partition twice on a worker's Executor (the first reply was lost), after
// superstep 0 left the index's slots behind, with the lopsided combiner:
// both results carry the oracle's columns, sent and combinedSender.
func TestDuplicateExecCombinesLikeOracle(t *testing.T) {
	const nVerts, parts = 300, 4
	g, err := graph.NewFromEdges(nVerts, nil)
	if err != nil {
		t.Fatal(err)
	}
	prog := &scriptProg{seed: 99, nVerts: nVerts, crashAt: -1}
	x, err := NewExecutor(g, prog, Config{Partitions: parts, Combiner: lopsided})
	if err != nil {
		t.Fatal(err)
	}
	ctx, route := context.Background(), make([]string, parts)
	active := make([][]VertexID, parts)
	for v := 0; v < nVerts; v++ {
		active[v%parts] = append(active[v%parts], VertexID(v))
	}
	outbox := make([][][]OutMessage, parts)
	for p := range outbox {
		res := x.Exec(ctx, &ExecRequest{Superstep: 0, Partition: p, Combine: true, Active: active[p], Route: route})
		if res.Crash != nil || res.StateMiss {
			t.Fatalf("superstep 0 partition %d: %+v", p, res)
		}
		outbox[p] = res.Outbox
	}
	for dp := 0; dp < parts; dp++ {
		frags, expected := make([][]OutMessage, parts), make([]int64, parts)
		for sp := range frags {
			frags[sp] = outbox[sp][dp]
			expected[sp] = int64(len(frags[sp]))
		}
		part := x.Assemble(0, dp, true, expected, frags)
		if !part.OK {
			t.Fatalf("assemble partition %d failed", dp)
		}
		active[dp] = part.Dsts
	}
	for p := 0; p < parts; p++ {
		cols, sent, combined := oracleFlush(parts, lopsided, active[p], func(v VertexID) []SentMessage { return prog.sends(1, v) })
		if combined == 0 {
			t.Fatalf("partition %d combined nothing at superstep 1; the test would prove little", p)
		}
		for attempt := 0; attempt < 2; attempt++ {
			res := x.Exec(ctx, &ExecRequest{Superstep: 1, Partition: p, Combine: true, Active: active[p], Route: route})
			if res.Crash != nil || res.StateMiss {
				t.Fatalf("partition %d attempt %d: %+v", p, attempt, res)
			}
			if got, want := outboxBits(res.Outbox), outboxBits(cols); got != want {
				t.Fatalf("partition %d attempt %d: outbox\n  %s\noracle\n  %s", p, attempt, got, want)
			}
			if res.Sent != sent || res.CombinedSender != combined {
				t.Fatalf("partition %d attempt %d: sent %d combined %d, oracle %d and %d", p, attempt, res.Sent, res.CombinedSender, sent, combined)
			}
		}
	}
}

// TestCombiningIndexBounded: after a combining SSSP flood at 4 and 16
// partitions, each sending partition's index holds at most 4 bytes per
// vertex of the graph.
func TestCombiningIndexBounded(t *testing.T) {
	g := weightedGraph(t, 5000, 8)
	for _, parts := range []int{4, 16} {
		e, err := New(g, ssspProg{}, Config{Partitions: parts, Combiner: minCombiner})
		if err != nil {
			t.Fatal(err)
		}
		st, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		if st.MessagesCombinedSender == 0 {
			t.Fatalf("partitions=%d: the sender combined nothing", parts)
		}
		for p := range e.results {
			var bytes, cols int
			for _, col := range e.results[p].combIdx {
				bytes += 4 * cap(col)
				cols += min(cap(col), 1)
			}
			if cols == 0 {
				t.Errorf("partitions=%d: partition %d never combined", parts, p)
			}
			if bytes > 4*g.NumVertices() {
				t.Errorf("partitions=%d: partition %d's index holds %d bytes, more than 4 per vertex (%d)", parts, p, bytes, 4*g.NumVertices())
			}
		}
	}
}

// TestCombiningAllocsFlat runs the flush of a combining run along a chain
// whose every link is a double edge: superstep ss computes vertex ss, which
// sends floodProg's two messages to ss+1, and the sender combines them. Once
// the partitions' buffers and index columns exist, n supersteps and 2n
// supersteps allocate nothing: combining costs no allocation per superstep.
func TestCombiningAllocsFlat(t *testing.T) {
	const n, parts = 200, 4
	edges := make([]graph.Edge, 0, 4*n)
	for v := 0; v < 2*n; v++ {
		e := graph.Edge{Src: VertexID(v), Dst: VertexID(v + 1), Weight: 1}
		edges = append(edges, e, e)
	}
	g, err := graph.NewFromEdges(2*n+1, edges)
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(g, floodProg{}, Config{Partitions: parts, Combiner: minCombiner})
	if err != nil {
		t.Fatal(err)
	}
	e.sendComb = minCombiner
	ids := make([][]VertexID, 2*n)
	for v := range ids {
		ids[v] = []VertexID{VertexID(v)}
	}
	var combined int64
	run := func(steps int) {
		for ss := 0; ss < steps; ss++ {
			p := e.partition(VertexID(ss))
			e.runPartition(context.Background(), p, ss, 0, ids[ss], &e.results[p])
			if e.results[p].crash != nil {
				t.Fatal(e.results[p].crash)
			}
			combined += e.results[p].combinedSender
		}
	}
	run(2 * n)
	if combined != 2*n {
		t.Fatalf("%d supersteps combined %d messages at the sender, want %d", 2*n, combined, 2*n)
	}
	for _, steps := range []int{n, 2 * n} {
		if a := testing.AllocsPerRun(3, func() { run(steps) }); a != 0 {
			t.Errorf("%d combining supersteps allocate %.0f times, want 0", steps, a)
		}
	}
}
