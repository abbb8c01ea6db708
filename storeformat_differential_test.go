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
)

// TestStoreFormatDifferential is the compatibility check for the layer file
// formats: testdata/v1 holds the v1 row files an earlier build spilled for
// a full capture of each analytic below (testGraph(5, 4, 9), 4 partitions).
// Reattached, they must hold exactly the provenance today's columnar files
// hold for the same run, and layered replay over both stores — projection
// pushdown on and off — must derive identical results.
func TestStoreFormatDifferential(t *testing.T) {
	cases := []struct {
		name    string
		prog    engine.Program
		steps   int
		offline []queries.Definition
	}{
		{"pagerank", &analytics.PageRank{Iterations: 8}, 9,
			[]queries.Definition{queries.PageRankCheck(), queries.BackwardTrace(3, 6)}},
		{"sssp", &analytics.SSSP{Source: 0}, 30,
			[]queries.Definition{queries.MonotoneCheck()}},
		{"wcc", analytics.WCC{}, 30,
			[]queries.Definition{queries.SilentChange()}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := testGraph(t, 5, 4, 9)
			res, err := ariadne.Run(g, tc.prog, ariadne.WithPartitions(4), ariadne.WithMaxSupersteps(tc.steps),
				ariadne.WithCaptureQuery(queries.CaptureFull(), ariadne.StoreConfig{SpillAll: true, SpillDir: t.TempDir()}))
			if err != nil {
				t.Fatal(err)
			}
			v2 := res.Provenance
			defer v2.Close()
			v1 := reattachV1(t, filepath.Join("testdata", "v1", tc.name), v2.NumLayers())
			assertSameProvenance(t, v1, v2)

			// Offline layered replay: v1 without projection is the reference
			// leg; v1 projected (table-level), v2 unprojected, and v2
			// projected (column-level partial reads) must all agree with it.
			for _, d := range tc.offline {
				ref, err := driver.Layered(d.MustBuild(), v1, g, driver.NoProjection())
				if err != nil {
					t.Fatal(err)
				}
				legs := []struct {
					name  string
					store *ariadne.Store
					opts  []driver.EvalOpt
				}{
					{"v1/projected", v1, nil},
					{"v2/unprojected", v2, []driver.EvalOpt{driver.NoProjection()}},
					{"v2/projected", v2, nil},
				}
				for _, leg := range legs {
					got, err := driver.Layered(d.MustBuild(), leg.store, g, leg.opts...)
					if err != nil {
						t.Fatalf("%s/%s: %v", d.Name, leg.name, err)
					}
					assertSameQueryResult(t, d.Name+"/"+leg.name, ref, got)
				}
			}
		})
	}
}

// reattachV1 adopts a copy of the n committed v1 layer files in dir as a
// store, the way a resumed run adopts a crashed run's spill directory.
func reattachV1(t *testing.T, dir string, n int) *ariadne.Store {
	t.Helper()
	tmp := t.TempDir()
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("layer-%06d.prov", i)
		raw, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(tmp, name), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s := provenance.NewStore(provenance.StoreConfig{SpillAll: true, SpillDir: tmp})
	if err := s.Reattach(n); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
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
