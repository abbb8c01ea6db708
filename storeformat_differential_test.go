package ariadne_test

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"ariadne"
	"ariadne/internal/analytics"
	"ariadne/internal/driver"
	"ariadne/internal/engine"
	"ariadne/internal/gen"
	"ariadne/internal/provenance"
	"ariadne/internal/queries"
	"ariadne/internal/value"
)

// TestStoreFormatDifferential is the projection differential of the layer
// store: over a spilled full capture of each analytic below, layered replay
// with projection pushdown, where each layer decodes only the columns the
// query reads, must derive exactly what full-width replay
// (driver.NoProjection, the reference leg) derives. Query 10 reads
// send_message and Query 12 prov_send, which a full capture holds only as
// the stored sends: a projection that drops the send peers fails both.
// Every analytic has a query over receive payloads, which every layer after
// the first derives from the previous layer's sends: Query 5 over SSSP, and
// Query 2's prov_received over the others.
func TestStoreFormatDifferential(t *testing.T) {
	cases := []struct {
		name    string
		prog    engine.Program
		steps   int
		offline []queries.Definition
	}{
		{"pagerank", &analytics.PageRank{Iterations: 8}, 9,
			[]queries.Definition{queries.PageRankCheck(), queries.BackwardTrace(3, 6), queries.BackwardTraceCustom(3, 6), queries.CaptureFull()}},
		{"sssp", &analytics.SSSP{Source: 0}, 30,
			[]queries.Definition{queries.MonotoneCheck()}},
		{"wcc", analytics.WCC{}, 30,
			[]queries.Definition{queries.SilentChange(), queries.CaptureFull()}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := testGraph(t, 5, 4, 9)
			res, err := ariadne.Run(g, tc.prog, ariadne.WithPartitions(4), ariadne.WithMaxSupersteps(tc.steps),
				ariadne.WithCaptureQuery(queries.CaptureFull(), ariadne.StoreConfig{SpillAll: true, SpillDir: t.TempDir()}))
			if err != nil {
				t.Fatal(err)
			}
			store := res.Provenance
			defer store.Close()
			for _, d := range tc.offline {
				ref, err := driver.Layered(d.MustBuild(), store, g, driver.NoProjection())
				if err != nil {
					t.Fatalf("%s/v2/unprojected: %v", d.Name, err)
				}
				got, err := driver.Layered(d.MustBuild(), store, g)
				if err != nil {
					t.Fatalf("%s/v2/projected: %v", d.Name, err)
				}
				assertSameQueryResult(t, d.Name+"/v2/projected", ref, got)
				if d.Name == queries.CaptureFull().Name && ariadne.Count(got, "prov_received") == 0 {
					t.Errorf("%s derived no prov_received", d.Name)
				}
			}
		})
	}
}

// TestLayeredProjectionDifferential: over full captures of PageRank, SSSP,
// WCC and ALS, spilled and resident, whose layers after the first derive
// their receive payloads from the previous layer's sends, every committed
// query that evaluates layered derives with projection pushdown exactly what
// a read of every column (driver.NoProjection) derives, tuple for tuple and
// in the same insertion order: dropped payload columns and the counts-only
// receive read (Query 6) change nothing a rule observes. Query 8's
// aggregate heads vary in order between two runs of one build, so its
// relations are compared as sets.
func TestLayeredProjectionDifferential(t *testing.T) {
	bip, err := gen.Bipartite(gen.DefaultBipartite(16, 6, 3, 5))
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name  string
		g     *ariadne.Graph
		prog  engine.Program
		steps int
		diff  queries.DiffFunc // Query 1's, for the analytic's values
	}{
		{"pagerank", testGraph(t, 6, 4, 9), &analytics.PageRank{Iterations: 6}, 7, nil},
		{"sssp", testGraph(t, 6, 4, 9), &analytics.SSSP{Source: 0}, 30, nil},
		{"wcc", testGraph(t, 6, 4, 9), analytics.WCC{}, 30, nil},
		{"als", bip.Graph, &analytics.ALS{NumUsers: 16, Features: 3, Seed: 2}, 5, value.EuclideanDist},
	}
	for _, tc := range cases {
		for _, spill := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/spill=%v", tc.name, spill), func(t *testing.T) {
				cfg := ariadne.StoreConfig{}
				if spill {
					cfg = ariadne.StoreConfig{SpillAll: true, SpillDir: t.TempDir()}
				}
				res, err := ariadne.Run(tc.g, tc.prog, ariadne.WithPartitions(4), ariadne.WithMaxSupersteps(tc.steps),
					ariadne.WithCaptureQuery(queries.CaptureFull(), cfg))
				if err != nil {
					t.Fatal(err)
				}
				store := res.Provenance
				defer store.Close()
				before := store.DecodeWork()["recvValues"].Blocks
				if _, err := store.Layer(1); err != nil {
					t.Fatal(err)
				}
				if store.DecodeWork()["recvValues"].Blocks != before {
					t.Fatal("layer 1 stores its receive payloads: the capture writes no derived layer")
				}
				last, err := store.Layer(store.NumLayers() - 1)
				if err != nil {
					t.Fatal(err)
				}
				alpha, sigma := last.Records[0].Vertex, last.Superstep
				defs := []queries.Definition{queries.Apt(0.5, tc.diff), queries.CaptureFull(), queries.CaptureForwardLineage(0),
					queries.PageRankCheck(), queries.MonotoneCheck(), queries.SilentChange(), queries.ALSRangeCheck(),
					queries.ALSErrorIncrease(0.01), queries.BackwardTrace(alpha, sigma), queries.CaptureBackwardCustom(),
					queries.NetGap(), queries.BackwardTraceCustom(alpha, sigma)}
				for _, d := range defs {
					q := d.MustBuild()
					if !q.Class.LayeredEvaluable() {
						continue
					}
					ref, err := driver.Layered(q, store, tc.g, driver.NoProjection())
					if err != nil {
						t.Fatalf("%s unprojected: %v", d.Name, err)
					}
					got, err := driver.Layered(q, store, tc.g)
					if err != nil {
						t.Fatalf("%s projected: %v", d.Name, err)
					}
					if d.Name == queries.SilentChange().Name && ariadne.Count(got, "neighbor_change") == 0 {
						t.Errorf("%s derived no neighbor_change", d.Name)
					}
					if d.Name == queries.ALSErrorIncrease(0).Name {
						assertSameQueryResult(t, d.Name, ref, got)
						continue
					}
					assertSameInsertionOrder(t, d.Name, ref, got)
				}
			})
		}
	}
}

// assertSameInsertionOrder checks got derives exactly the relations ref
// derives, each tuple at the same position of its relation's insertion
// order.
func assertSameInsertionOrder(t *testing.T, leg string, ref, got *ariadne.QueryResult) {
	t.Helper()
	refRels, gotRels := ref.DerivedRelations(), got.DerivedRelations()
	if !reflect.DeepEqual(refRels, gotRels) {
		t.Errorf("%s: derived relations %v != %v", leg, gotRels, refRels)
		return
	}
	for _, ri := range refRels {
		r, g := ref.Relation(ri.Name).All(), got.Relation(ri.Name).All()
		for k := range r {
			if r[k].Key() != g[k].Key() {
				t.Errorf("%s: %s tuple %d is %v, want %v", leg, ri.Name, k, g[k], r[k])
				break
			}
		}
	}
}

// TestV1StoreRejected: testdata/v1/<analytic> holds the first layer file
// an earlier build spilled, in the row format (version 1), for a full
// capture of each analytic. Only the columnar format is read, so
// reattaching it, the way a resumed run adopts a crashed run's spill
// directory, fails with an error naming the version.
func TestV1StoreRejected(t *testing.T) {
	for _, name := range []string{"pagerank", "sssp", "wcc"} {
		t.Run(name, func(t *testing.T) {
			const file = "layer-000000.prov"
			raw, err := os.ReadFile(filepath.Join("testdata", "v1", name, file))
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, file), raw, 0o644); err != nil {
				t.Fatal(err)
			}
			s := provenance.NewStore(provenance.StoreConfig{SpillAll: true, SpillDir: dir})
			defer s.Close()
			if err := s.Reattach(1); err == nil || !strings.Contains(err.Error(), "unsupported layer file version 1") {
				t.Fatalf("reattaching testdata/v1/%s = %v, want the version 1 rejection", name, err)
			}
		})
	}
}

// TestLayerFileDigests pins the on-disk format by construction: small fixed
// captures under the paper's three capture policies (Query 2 full capture,
// here of PageRank and of vector-valued, fact-emitting ALS; Query 3 forward
// lineage; Query 11 backward custom) must spill layer files whose SHA-256
// digests, and the store's totals, equal testdata/layer_digests.golden. A
// deliberate format change regenerates the golden from this test's log.
// Every partition count writes the same bytes: each partition encodes its
// own records, and the barrier's stitch must not let the split show.
func TestLayerFileDigests(t *testing.T) {
	rmat := func(t *testing.T) *ariadne.Graph { return testGraph(t, 6, 4, 3) }
	als := func(t *testing.T) *ariadne.Graph {
		r, err := gen.Bipartite(gen.DefaultBipartite(16, 6, 3, 5))
		if err != nil {
			t.Fatal(err)
		}
		return r.Graph
	}
	cases := []struct {
		name  string
		graph func(t *testing.T) *ariadne.Graph
		prog  ariadne.Program
		def   queries.Definition
		steps int
	}{
		{"full-pagerank", rmat, &analytics.PageRank{Iterations: 5}, queries.CaptureFull(), 6},
		{"full-als", als, &analytics.ALS{NumUsers: 16, Features: 3, Seed: 2}, queries.CaptureFull(), 4},
		{"fwd-lineage-sssp", rmat, &analytics.SSSP{Source: 0}, queries.CaptureForwardLineage(0), 30},
		{"backward-custom-wcc", rmat, analytics.WCC{}, queries.CaptureBackwardCustom(), 30},
	}
	want, err := os.ReadFile(filepath.Join("testdata", "layer_digests.golden"))
	if err != nil {
		t.Fatal(err)
	}
	for _, parts := range []int{1, 4, 19} {
		var b strings.Builder
		for _, c := range cases {
			dir := t.TempDir()
			res, err := ariadne.Run(c.graph(t), c.prog, ariadne.WithPartitions(parts), ariadne.WithMaxSupersteps(c.steps),
				ariadne.WithCaptureQuery(c.def, ariadne.StoreConfig{SpillAll: true, SpillDir: dir}))
			if err != nil {
				t.Fatal(err)
			}
			s := res.Provenance
			for i := 0; i < s.NumLayers(); i++ {
				raw, err := os.ReadFile(filepath.Join(dir, fmt.Sprintf("layer-%06d.prov", i)))
				if err != nil {
					t.Fatal(err)
				}
				fmt.Fprintf(&b, "%s layer %d %d %x\n", c.name, i, len(raw), sha256.Sum256(raw))
			}
			fmt.Fprintf(&b, "%s total layers=%d tuples=%d bytes=%d disk=%d vertices=%d\n", c.name,
				s.NumLayers(), s.TotalTuples(), s.TotalBytes(), s.DiskBytes(), s.DistinctVertices())
			s.Close()
		}
		if got := b.String(); got != string(want) {
			t.Errorf("%d partitions: layer files differ from testdata/layer_digests.golden; this run wrote:\n%s", parts, got)
		}
	}
}

// assertSameQueryResult checks got derives exactly the same relations as
// ref, tuple for tuple.
func assertSameQueryResult(t *testing.T, leg string, ref, got *ariadne.QueryResult) {
	t.Helper()
	if ref == nil || got == nil {
		t.Errorf("%s: missing query result (ref %v, got %v)", leg, ref != nil, got != nil)
		return
	}
	refRels, gotRels := ref.DerivedRelations(), got.DerivedRelations()
	if !reflect.DeepEqual(refRels, gotRels) {
		t.Errorf("%s: derived relations %v != %v", leg, gotRels, refRels)
		return
	}
	for _, ri := range refRels {
		r, g := ref.Relation(ri.Name), got.Relation(ri.Name)
		for _, tup := range r.All() {
			if !g.Contains(tup) {
				t.Errorf("%s: %s tuple %v missing", leg, ri.Name, tup)
			}
		}
	}
}
