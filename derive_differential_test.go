package ariadne_test

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"testing"

	"ariadne"
	"ariadne/internal/analytics"
	"ariadne/internal/capture"
	"ariadne/internal/engine"
	"ariadne/internal/fault"
	"ariadne/internal/gen"
	"ariadne/internal/graph"
	"ariadne/internal/pql/eval"
	"ariadne/internal/provenance"
	"ariadne/internal/supervise"
	"ariadne/internal/value"
)

// recorder keeps what a capture under a policy that stores values and
// every or no emitted fact is fed: every record of a run, row shaped as the
// policy stores it.
type recorder struct {
	policy capture.Policy
	mu     sync.Mutex
	layers map[int][]provenance.Record
}

func (r *recorder) Reads() engine.Fields {
	return engine.FieldReceived | engine.FieldSent | engine.FieldEmitted
}

func (r *recorder) ObservePartition(_, ss int, recs []engine.VertexRecord) {
	rows := make([]provenance.Record, 0, len(recs))
	for _, rec := range recs {
		row := provenance.Record{Vertex: rec.ID, PrevActive: int32(rec.PrevActive), HasValue: true, Value: rec.NewValue}
		for _, m := range rec.Sent {
			if r.policy.Sends {
				row.Sends = append(row.Sends, provenance.MsgHalf{Peer: m.Dst, Val: m.Val})
			}
		}
		for _, m := range rec.Received {
			if r.policy.Recvs {
				row.Recvs = append(row.Recvs, provenance.MsgHalf{Peer: m.Src, Val: m.Val})
			}
		}
		for k := range rec.Emitted.Len() {
			if len(r.policy.Emitted) > 0 {
				t, _ := rec.Emitted.Fact(k)
				row.Emitted = append(row.Emitted, provenance.Fact{Table: t.Name(), Args: rec.Emitted.AppendArgs(nil, k)})
			}
		}
		rows = append(rows, row)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.layers[ss] = append(r.layers[ss], rows...)
}

func (*recorder) ObserveSuperstep(*engine.SuperstepView) error { return nil }
func (*recorder) Finish(int) error                             { return nil }

// layer returns superstep ss's records in vertex order, as a layer.
func (r *recorder) layer(ss int) *provenance.Layer {
	recs := r.layers[ss]
	sort.Slice(recs, func(i, j int) bool { return recs[i].Vertex < recs[j].Vertex })
	return &provenance.Layer{Superstep: ss, Records: recs}
}

// comparePayloads holds payloads value.Compare calls equal but the layer
// encoding tells apart: 3 and 3.0, 0.0 and -0.0.
var comparePayloads = []value.Value{
	value.NewInt(3), value.NewFloat(3), value.NewFloat(0), value.NewFloat(math.Copysign(0, -1)),
	value.NewFloat(-2.5), value.NewInt(-7),
}

// multiEdgeProg sends a payload of comparePayloads down each out-edge at
// the supersteps below steps, chosen by the edge's weight, the superstep
// and the vertex: over a graph with duplicate edges a vertex receives
// several messages from one sender, which the engine orders by
// value.Compare, ties in send order.
type multiEdgeProg struct{ steps int }

func (multiEdgeProg) InitialValue(*graph.Graph, graph.VertexID) value.Value { return value.NewInt(0) }

func (p multiEdgeProg) Compute(ctx *engine.Context, msgs []engine.IncomingMessage) error {
	ctx.SetValue(value.NewInt(int64(len(msgs))))
	if ctx.Superstep() >= p.steps {
		return nil
	}
	dsts, ws := ctx.OutNeighbors()
	for j, d := range dsts {
		ctx.SendMessage(d, comparePayloads[(int(ws[j])+ctx.Superstep()+int(ctx.ID()))%len(comparePayloads)])
	}
	return nil
}

// multiEdgeGraph gives each of its 12 vertices three parallel edges to the
// next vertex and two to the fifth after it.
func multiEdgeGraph(t *testing.T) *ariadne.Graph {
	const n = 12
	var edges []graph.Edge
	for v := graph.VertexID(0); v < n; v++ {
		for w := 0; w < 5; w++ {
			dst := (v + 1) % n
			if w >= 3 {
				dst = (v + 5) % n
			}
			edges = append(edges, graph.Edge{Src: v, Dst: dst, Weight: float64(w)})
		}
	}
	g, err := graph.NewFromEdges(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestDerivedReceiveDifferential: a full capture stores each layer's
// receive payloads once, as the previous layer's sends. Over PageRank,
// SSSP, WCC, ALS and a multi-edge program whose duplicate edges carry
// Compare-equal but distinct payloads, spilled and resident, every layer
// Store.Layer reads equals the capture's input bit for bit, and every
// projection LayerProjected reads equals that projection of the same layer
// appended with its payloads stored (appendStored). Reading the payloads of
// a layer after the first decodes the previous layer's send values, and no
// receive-value block. Replayed through AppendLayer, the layers write the
// capture's files again. A capture that stores receives but no sends stores
// the payloads and reads the same way.
func TestDerivedReceiveDifferential(t *testing.T) {
	bip, err := gen.Bipartite(gen.DefaultBipartite(16, 6, 3, 5))
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name  string
		g     *ariadne.Graph
		prog  engine.Program
		steps int
	}{
		{"pagerank", testGraph(t, 6, 4, 9), &analytics.PageRank{Iterations: 6}, 7},
		{"sssp", testGraph(t, 6, 4, 9), &analytics.SSSP{Source: 0}, 30},
		{"wcc", testGraph(t, 6, 4, 9), analytics.WCC{}, 30},
		{"als", bip.Graph, &analytics.ALS{NumUsers: 16, Features: 3, Seed: 2}, 5},
		{"multi-edge", multiEdgeGraph(t), multiEdgeProg{steps: 5}, 8},
	}
	policies := []struct {
		name string
		p    capture.Policy
	}{{"full", capture.FullPolicy()}, {"recvs-only", capture.Policy{Values: true, Recvs: true}}}
	for _, tc := range cases {
		for _, pol := range policies {
			for _, spill := range []bool{false, true} {
				name := fmt.Sprintf("%s/%s/spill=%v", tc.name, pol.name, spill)
				t.Run(name, func(t *testing.T) {
					derivedReceives(t, tc.g, tc.prog, tc.steps, pol.p, spill)
				})
			}
		}
	}
}

// derivedReceives is one leg of TestDerivedReceiveDifferential: prog over g
// for at most steps supersteps at 4 partitions, captured under policy.
func derivedReceives(t *testing.T, g *ariadne.Graph, prog engine.Program, steps int, policy capture.Policy, spill bool) {
	cfg := ariadne.StoreConfig{}
	if spill {
		cfg = ariadne.StoreConfig{SpillAll: true, SpillDir: t.TempDir()}
	}
	rec := &recorder{policy: policy, layers: map[int][]provenance.Record{}}
	res, err := ariadne.Run(g, prog, ariadne.WithPartitions(4), ariadne.WithMaxSupersteps(steps),
		ariadne.WithCapture(policy, cfg), ariadne.WithObserver(rec))
	if err != nil {
		t.Fatal(err)
	}
	store := res.Provenance
	defer store.Close()
	ref := provenance.NewStore(provenance.StoreConfig{})
	defer ref.Close()
	replayCfg := ariadne.StoreConfig{}
	if spill {
		replayCfg = ariadne.StoreConfig{SpillAll: true, SpillDir: t.TempDir()}
	}
	replay := provenance.NewStore(replayCfg)
	defer replay.Close()
	if store.NumLayers() < 3 {
		t.Fatalf("%d layers: too few to derive from", store.NumLayers())
	}
	for i := 0; i < store.NumLayers(); i++ {
		in := rec.layer(i)
		got, err := store.Layer(i)
		if err != nil {
			t.Fatal(err)
		}
		sameLayerBits(t, fmt.Sprintf("layer %d", i), in, got)
		if err := appendStored(ref, in); err != nil {
			t.Fatal(err)
		}
		if err := replay.AppendLayer(got); err != nil {
			t.Fatal(err)
		}
	}
	if err := errors.Join(store.Sync(), replay.Sync()); err != nil {
		t.Fatal(err)
	}
	if spill && replay.DiskBytes() != store.DiskBytes() {
		t.Errorf("replayed through AppendLayer: %d bytes on disk, the capture %d", replay.DiskBytes(), store.DiskBytes())
	}
	var a, b provenance.LayerViews
	for mask := 0; mask < 1<<6; mask++ {
		p := &provenance.LayerProjection{Values: mask&1 != 0, SendPeers: mask&2 != 0, SendValues: mask&4 != 0,
			RecvPeers: mask&8 != 0, RecvValues: mask&16 != 0, Emitted: mask&32 != 0}
		for i := 0; i < store.NumLayers(); i++ {
			if err := store.LayerProjected(i, p, &a); err != nil {
				t.Fatal(err)
			}
			if err := ref.LayerProjected(i, p, &b); err != nil {
				t.Fatal(err)
			}
			sameViews(t, fmt.Sprintf("layer %d projected %+v", i, *p), b.Records, a.Records)
		}
	}
	for i := 1; i < store.NumLayers(); i++ {
		before := store.DecodeWork()
		if err := store.LayerProjected(i, &provenance.LayerProjection{RecvValues: true}, &a); err != nil {
			t.Fatal(err)
		}
		after := store.DecodeWork()
		want := [2]int64{1, 0} // derived
		if !policy.Sends {
			want = [2]int64{0, 1}
		}
		if got := [2]int64{after["sendValues"].Blocks - before["sendValues"].Blocks, after["recvValues"].Blocks - before["recvValues"].Blocks}; got != want {
			t.Errorf("layer %d's payloads decoded %d send-value and %d receive-value blocks, want %d and %d", i, got[0], got[1], want[0], want[1])
		}
		before = ref.DecodeWork()
		if err := ref.LayerProjected(i, &provenance.LayerProjection{RecvValues: true}, &b); err != nil {
			t.Fatal(err)
		}
		if after := ref.DecodeWork(); after["recvValues"].Blocks-before["recvValues"].Blocks != 1 {
			t.Errorf("reference layer %d's payloads are not stored", i)
		}
	}
}

// appendStored appends l to s with its receive payloads stored, through a
// LayerBuilder not told to derive them.
func appendStored(s *provenance.Store, l *provenance.Layer) error {
	b := provenance.NewLayerBuilder(l.Superstep)
	var facts engine.FactStore
	for _, r := range l.Records {
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
			facts.Emit(f.Table, f.Args...)
			t, row := facts.EndRecord().Fact(0)
			b.Fact(b.Table(f.Table), t, row)
		}
	}
	return s.Append(l.Superstep, b)
}

// sameLayerBits checks got holds exactly want's records, payloads bit for
// bit.
func sameLayerBits(t *testing.T, leg string, want, got *provenance.Layer) {
	t.Helper()
	if got.Superstep != want.Superstep || len(got.Records) != len(want.Records) {
		t.Fatalf("%s: superstep %d with %d records, want %d with %d", leg, got.Superstep, len(got.Records), want.Superstep, len(want.Records))
	}
	halves := func(a, b []provenance.MsgHalf) bool {
		if len(a) != len(b) {
			return false
		}
		for j := range a {
			if a[j].Peer != b[j].Peer || !bitIdentical(a[j].Val, b[j].Val) {
				return false
			}
		}
		return true
	}
	for i := range want.Records {
		w, g := &want.Records[i], &got.Records[i]
		ok := w.Vertex == g.Vertex && w.PrevActive == g.PrevActive && w.HasValue == g.HasValue && w.SentAny == g.SentAny &&
			bitIdentical(w.Value, g.Value) && halves(w.Sends, g.Sends) && halves(w.Recvs, g.Recvs) && len(w.Emitted) == len(g.Emitted)
		for k := 0; ok && k < len(w.Emitted); k++ {
			ok = w.Emitted[k].Table == g.Emitted[k].Table && sameValues(w.Emitted[k].Args, g.Emitted[k].Args)
		}
		if !ok {
			t.Fatalf("%s record %d: %+v, want %+v", leg, i, *g, *w)
		}
	}
}

// sameViews checks got holds exactly want's record views, payloads bit for
// bit.
func sameViews(t *testing.T, leg string, want, got []eval.RecordView) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d views, want %d", leg, len(got), len(want))
	}
	for i := range want {
		w, g := &want[i], &got[i]
		ok := w.Vertex == g.Vertex && w.Superstep == g.Superstep && w.PrevActive == g.PrevActive && w.HasValue == g.HasValue &&
			w.SentAny == g.SentAny && bitIdentical(w.Value, g.Value) &&
			len(w.Sends) == len(g.Sends) && len(w.Recvs) == len(g.Recvs) && w.Emitted.Len() == g.Emitted.Len() &&
			(w.Sends == nil) == (g.Sends == nil) && (w.Recvs == nil) == (g.Recvs == nil)
		for j := 0; ok && j < len(w.Sends); j++ {
			ok = w.Sends[j].Dst == g.Sends[j].Dst && bitIdentical(w.Sends[j].Val, g.Sends[j].Val)
		}
		for j := 0; ok && j < len(w.Recvs); j++ {
			ok = w.Recvs[j].Src == g.Recvs[j].Src && bitIdentical(w.Recvs[j].Val, g.Recvs[j].Val)
		}
		for k := 0; ok && k < w.Emitted.Len(); k++ {
			wt, _ := w.Emitted.Fact(k)
			gt, _ := g.Emitted.Fact(k)
			ok = wt.Name() == gt.Name() && sameValues(w.Emitted.AppendArgs(nil, k), g.Emitted.AppendArgs(nil, k))
		}
		if !ok {
			t.Fatalf("%s view %d: %+v, want %+v", leg, i, *g, *w)
		}
	}
}

func sameValues(a, b []value.Value) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bitIdentical(a[i], b[i]) {
			return false
		}
	}
	return true
}

// TestDegradedCaptureStoresPayloads: a partition whose capture fails once
// at superstep 3 (two failures in a row would shed it) leaves layer 3
// without its vertices, so layer 4 stores its receive payloads, and layer 5
// derives them again. Layer 3 itself derives from the whole layer 2
// without the dropped vertices' receives. Every layer reads as the
// capture's input less the dropped vertices.
func TestDegradedCaptureStoresPayloads(t *testing.T) {
	g := testGraph(t, 6, 4, 9)
	store := provenance.NewStore(provenance.StoreConfig{SpillAll: true, SpillDir: t.TempDir()})
	defer store.Close()
	co := capture.NewObserver(capture.FullPolicy(), store)
	inj := fault.NewInjector(fault.Rule{Site: fault.SiteCapture, Superstep: 3, Partition: 1, Vertex: -1, Times: 1})
	co.SetDegradation(supervise.NewDegradeState(2), inj)
	rec := &recorder{policy: capture.FullPolicy(), layers: map[int][]provenance.Record{}}
	e, err := engine.New(g, &analytics.PageRank{Iterations: 6}, engine.Config{Partitions: 4, MaxSupersteps: 7,
		Observers: []engine.Observer{co, rec}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if inj.Fired() != 1 || !store.Gapped(3) || store.Gapped(2) || store.Gapped(4) {
		t.Fatalf("capture fault fired %d times, gaps %+v: want partition 1 dropped at superstep 3 only", inj.Fired(), store.Gaps())
	}
	var v provenance.LayerViews
	for i := 0; i < store.NumLayers(); i++ {
		in := rec.layer(i)
		if i == 3 {
			kept := in.Records[:0:0]
			for _, r := range in.Records {
				if e.PartitionOf(r.Vertex) != 1 {
					kept = append(kept, r)
				}
			}
			in.Records = kept
		}
		got, err := store.Layer(i)
		if err != nil {
			t.Fatal(err)
		}
		sameLayerBits(t, fmt.Sprintf("layer %d", i), in, got)
		before := store.DecodeWork()
		if err := store.LayerProjected(i, &provenance.LayerProjection{RecvValues: true}, &v); err != nil {
			t.Fatal(err)
		}
		after := store.DecodeWork()
		derived, stored := after["sendValues"].Blocks-before["sendValues"].Blocks, after["recvValues"].Blocks-before["recvValues"].Blocks
		if want := i != 0 && i != 4; (derived == 1) != want || (stored == 1) == want {
			t.Errorf("layer %d's payloads decoded %d send-value and %d receive-value blocks; derived %v", i, derived, stored, want)
		}
	}
}
