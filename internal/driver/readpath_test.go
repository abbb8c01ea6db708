package driver

import (
	"testing"

	"ariadne/internal/gen"
	"ariadne/internal/graph"
	"ariadne/internal/pql/analysis"
	"ariadne/internal/provenance"
	"ariadne/internal/queries"
)

// decodedWork runs q layered over store and returns the decode work it
// did, by column name.
func decodedWork(t *testing.T, q *analysis.Query, store *provenance.Store, g *graph.Graph) map[string]provenance.ColumnWork {
	t.Helper()
	before := store.DecodeWork()
	if _, err := Layered(q, store, g); err != nil {
		t.Fatal(err)
	}
	work := map[string]provenance.ColumnWork{}
	for col, w := range store.DecodeWork() {
		b := before[col]
		work[col] = provenance.ColumnWork{Blocks: w.Blocks - b.Blocks, Bytes: w.Bytes - b.Bytes,
			Peers: w.Peers - b.Peers, PeersSkipped: w.PeersSkipped - b.PeersSkipped}
	}
	return work
}

// decodedBlocks runs q layered over store and returns the column blocks it
// decoded, by column name.
func decodedBlocks(t *testing.T, q *analysis.Query, store *provenance.Store, g *graph.Graph) map[string]int64 {
	t.Helper()
	blocks := map[string]int64{}
	for col, w := range decodedWork(t, q, store, g) {
		blocks[col] = w.Blocks
	}
	return blocks
}

// receives returns how many messages the store's layers hold as received.
func receives(t *testing.T, store *provenance.Store) int64 {
	t.Helper()
	var n int64
	for i := 0; i < store.NumLayers(); i++ {
		l, err := store.Layer(i)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range l.Records {
			n += int64(len(r.Recvs))
		}
	}
	return n
}

// TestLayeredDecodesProjectedColumns counts the decode work of layered
// queries over a spilled SSSP full capture. Query 6 reads the core
// columns, the receive-peer column and the values, each block once per
// layer, and no other column: not the send topology, the payloads of the
// messages or the emitted facts — although every layer after the first
// derives its receive payloads from the previous layer's sends, which only
// a read of the payloads decodes (TestLayeredDerivesEachPredecessorOnce).
// Of the receive-peer column it reads the counts alone: it decodes no
// receive peer ID and skips every one the capture holds, while Queries 4
// and 5, which read the sender or the payload, decode every one. A query
// over send_message (Query 10) and one over prov_send (Query 12, which
// under full capture holds for a record with sends) read the send peers of
// every layer.
func TestLayeredDecodesProjectedColumns(t *testing.T) {
	g, store := benchCapture(t, 8)
	n := int64(store.NumLayers())
	recvs := receives(t, store)
	if recvs == 0 {
		t.Fatal("the capture holds no receive")
	}
	work := decodedWork(t, queries.SilentChange().MustBuild(), store, g)
	want := map[string]int64{"vertex": n, "prevActive": n, "flags": n, "recvPeers": n, "values": n,
		"sendPeers": 0, "sendValues": 0, "recvValues": 0, "emitted": 0}
	for col, w := range want {
		if work[col].Blocks != w {
			t.Errorf("Query 6 decoded %d %s blocks over %d layers, want %d", work[col].Blocks, col, n, w)
		}
	}
	if bytes := work["sendPeers"].Bytes; bytes != 0 {
		t.Errorf("Query 6 decoded %d sendPeers bytes, want 0", bytes)
	}
	if w := work["recvPeers"]; w.Peers != 0 || w.PeersSkipped != recvs {
		t.Errorf("Query 6 decoded %d receive peer IDs and skipped %d, want 0 and the capture's %d", w.Peers, w.PeersSkipped, recvs)
	}
	t.Logf("Query 6 over %d layers: %d receive peer IDs skipped, %d recvPeers bytes read", n, work["recvPeers"].PeersSkipped, work["recvPeers"].Bytes)
	for _, d := range []queries.Definition{queries.PageRankCheck(), queries.MonotoneCheck()} {
		if w := decodedWork(t, d.MustBuild(), store, g)["recvPeers"]; w.Peers != recvs || w.PeersSkipped != 0 {
			t.Errorf("%s decoded %d receive peer IDs and skipped %d, want the capture's %d and 0", d.Name, w.Peers, w.PeersSkipped, recvs)
		}
	}

	last, err := store.Layer(store.NumLayers() - 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(last.Records) == 0 {
		t.Fatal("the last layer holds no record to trace back from")
	}
	alpha, sigma := last.Records[0].Vertex, last.Superstep
	for _, d := range []queries.Definition{queries.BackwardTrace(alpha, sigma), queries.BackwardTraceCustom(alpha, sigma)} {
		if got := decodedBlocks(t, d.MustBuild(), store, g)["sendPeers"]; got != n {
			t.Errorf("%s decoded %d sendPeers blocks over %d layers, want %d", d.Name, got, n, n)
		}
	}
}

// TestLayeredDerivesEachPredecessorOnce counts the decode work of Query 5,
// which reads receive payloads, layered over a spilled SSSP full capture:
// every layer after the first derives them from the previous layer's
// sends, so each of its reads decodes that layer's vertices, send peers and
// send values once, and only layer 0 has a receive-value block.
func TestLayeredDerivesEachPredecessorOnce(t *testing.T) {
	g, store := benchCapture(t, 8)
	n := int64(store.NumLayers())
	got := decodedBlocks(t, queries.MonotoneCheck().MustBuild(), store, g)
	want := map[string]int64{"vertex": 2*n - 1, "prevActive": n, "flags": n, "recvPeers": n, "values": n,
		"sendPeers": n - 1, "sendValues": n - 1, "recvValues": 1, "emitted": 0}
	for col, w := range want {
		if got[col] != w {
			t.Errorf("Query 5 decoded %d %s blocks over %d layers, want %d", got[col], col, n, w)
		}
	}
}

// TestLayeredAllocsFlat: Layered's allocations do not grow with the records
// of a layer. Two SSSP captures with scalar payloads, one over a graph four
// times the other's, are cut to the same number of layers, and Query 5
// (MonotoneCheck, which derives nothing over SSSP, so no derived tuple is
// allocated) runs over each. Every layer decodes into the same arenas, so
// the larger capture may allocate only for its arenas growing, at most once
// per arena and layer, beyond the smaller one.
func TestLayeredAllocsFlat(t *testing.T) {
	const layers = 6
	allocs := func(scale int) (float64, int) {
		g, err := gen.RMAT(gen.DefaultRMAT(scale, 6, 7))
		if err != nil {
			t.Fatal(err)
		}
		store := spilledCapture(t, g, ssspProg{}, layers)
		if store.NumLayers() != layers {
			t.Fatalf("scale %d: %d layers, want %d", scale, store.NumLayers(), layers)
		}
		records := 0
		for i := 0; i < layers; i++ {
			l, err := store.Layer(i)
			if err != nil {
				t.Fatal(err)
			}
			records += len(l.Records)
		}
		q := queries.MonotoneCheck().MustBuild()
		var res *Result
		a := testing.AllocsPerRun(3, func() {
			if res, err = Layered(q, store, g); err != nil {
				t.Fatal(err)
			}
		})
		if d := res.DerivedRelations(); len(d) != 1 || d[0].Count != 0 {
			t.Fatalf("Query 5 derived %v over SSSP, want nothing", d)
		}
		return a, records
	}
	small, smallRecs := allocs(8)
	large, largeRecs := allocs(10)
	if largeRecs < 3*smallRecs {
		t.Fatalf("the larger capture holds %d records, the smaller %d: not a test of growth", largeRecs, smallRecs)
	}
	const arenas = 3 // views, sends, receives
	if large > small+arenas*layers {
		t.Errorf("Layered allocates %.0f times over %d records, %.0f over %d: more than the arenas' growth (%d)",
			large, largeRecs, small, smallRecs, arenas*layers)
	}
	t.Logf("allocations: %.0f over %d records, %.0f over %d", small, smallRecs, large, largeRecs)
}

// TestLayeredHoldsOneLayer: Layered's working memory is one layer (paper
// §5.1, Lemma 5.3). vecProg sends to every out-neighbour at every
// superstep, so its layers are alike; over n and over 2n supersteps the
// arenas hold room for the views and messages of the largest layer,
// exactly, and the same room in both runs, not the sum over the layers.
func TestLayeredHoldsOneLayer(t *testing.T) {
	g, err := gen.RMAT(gen.DefaultRMAT(8, 6, 7))
	if err != nil {
		t.Fatal(err)
	}
	const n = 4
	var first [2]int
	for _, steps := range []int{n, 2 * n} {
		store := spilledCapture(t, g, vecProg{dim: 2, steps: steps}, steps+1)
		var maxViews, maxMsgs, sumMsgs int
		for i := 0; i < store.NumLayers(); i++ {
			l, err := store.Layer(i)
			if err != nil {
				t.Fatal(err)
			}
			msgs := 0
			for _, r := range l.Records {
				msgs += len(r.Recvs) // Query 4 reads receive_message only
			}
			maxViews, maxMsgs, sumMsgs = max(maxViews, len(l.Records)), max(maxMsgs, msgs), sumMsgs+msgs
		}
		var views, msgs int
		hold := func(v *provenance.LayerViews) { views, msgs = v.Capacity() }
		if _, err := Layered(queries.PageRankCheck().MustBuild(), store, g, func(c *evalConfig) { c.onViews = hold }); err != nil {
			t.Fatal(err)
		}
		if views != maxViews || msgs != maxMsgs {
			t.Errorf("%d supersteps: arenas hold %d views and %d messages, want the largest layer's %d and %d (%d messages over all layers)",
				steps, views, msgs, maxViews, maxMsgs, sumMsgs)
		}
		if steps == n {
			first = [2]int{views, msgs}
		} else if [2]int{views, msgs} != first {
			t.Errorf("arenas hold %d views and %d messages over %d supersteps, %v over %d", views, msgs, steps, first, n)
		}
	}
}
