package driver

import (
	"fmt"
	"runtime"
	"testing"

	"ariadne/internal/analytics"
	"ariadne/internal/capture"
	"ariadne/internal/engine"
	"ariadne/internal/gen"
	"ariadne/internal/provenance"
	"ariadne/internal/queries"
)

// TestQ7ProbesSortedRows pins Query 7's probes as counted work: ALS emits
// its per-peer facts in inbox order, ascending by peer, so on an ALS run
// every fact probe and edge probe moves a cursor along a sorted row and no
// record builds a hash index, online at 1 and 4 partitions and layered over
// a capture of the same run. The observe fixture's peers wrap around the
// vertex ids, so some of its records' facts are not sorted: those build
// indexes.
func TestQ7ProbesSortedRows(t *testing.T) {
	r, err := gen.Bipartite(gen.DefaultBipartite(60, 15, 5, 3))
	if err != nil {
		t.Fatal(err)
	}
	q7 := queries.ALSRangeCheck()
	for _, parts := range []int{1, 4} {
		t.Run(fmt.Sprintf("partitions=%d", parts), func(t *testing.T) {
			on, err := NewOnline(q7.MustBuild(), r.Graph)
			if err != nil {
				t.Fatal(err)
			}
			store := provenance.NewStore(provenance.StoreConfig{})
			prog := &analytics.ALS{NumUsers: r.NumUsers, Features: 3, Seed: 1}
			e, err := engine.New(r.Graph, prog, engine.Config{Partitions: parts, MaxSupersteps: 6,
				Observers: []engine.Observer{on, capture.NewObserver(capture.FullPolicy(), store)}})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := e.Run(); err != nil {
				t.Fatal(err)
			}
			layered, err := Layered(q7.MustBuild(), store, r.Graph)
			if err != nil {
				t.Fatal(err)
			}
			for leg, res := range map[string]*Result{"online": on.Result(), "layered": layered} {
				s := res.CompiledStats()
				t.Logf("%s: %d index builds, %d cursor probes, %d re-seeks", leg, s.IndexBuilds, s.CursorProbes, s.CursorReseeks)
				if s.IndexBuilds != 0 || s.CursorProbes == 0 || s.CursorReseeks != 0 {
					t.Errorf("%s: %d index builds, %d cursor probes, %d re-seeks; want 0, > 0, 0",
						leg, s.IndexBuilds, s.CursorProbes, s.CursorReseeks)
				}
			}
		})
	}

	g, err := gen.RMAT(gen.DefaultRMAT(6, 4, 3))
	if err != nil {
		t.Fatal(err)
	}
	on, err := NewOnline(q7.MustBuild(), g)
	if err != nil {
		t.Fatal(err)
	}
	view, parts := observeFixture(g, 8)
	if err := observe(on, view, parts); err != nil {
		t.Fatal(err)
	}
	if s := on.Result().CompiledStats(); s.IndexBuilds == 0 || s.CursorProbes == 0 {
		t.Errorf("observe fixture: %d index builds, %d cursor probes; want both > 0", s.IndexBuilds, s.CursorProbes)
	}
}

// TestObserveFreshSuperstepsAllocs pins what a new tuple costs online. Query
// 7's heads are record-scoped, so each new tuple costs its clone and
// nothing more: no key string and no whole-run set to grow. The clones are
// cut from the shards' arenas, so a fresh superstep's allocations stay
// within a constant plus one per 64 new tuples (an arena chunk holds 341 of
// Query 7's three-column tuples), early in the run and later alike.
// TestObserveSuperstepAllocsFlat re-observes one superstep; this test
// observes a new one each time.
func TestObserveFreshSuperstepsAllocs(t *testing.T) {
	g, err := gen.RMAT(gen.DefaultRMAT(6, 4, 3))
	if err != nil {
		t.Fatal(err)
	}
	o, err := NewOnline(queries.ALSRangeCheck().MustBuild(), g)
	if err != nil {
		t.Fatal(err)
	}
	view, parts := observeFixture(g, 8)
	ss := 5
	step := func() {
		view.Superstep = ss
		for p := range parts {
			for i := range parts[p] {
				parts[p][i].Superstep = ss
			}
		}
		if err := observe(o, view, parts); err != nil {
			t.Fatal(err)
		}
		ss++
	}
	window := func(n int) (allocs, tuples float64) {
		var before, after runtime.MemStats
		t0 := o.PiggybackTuples
		runtime.ReadMemStats(&before)
		for range n {
			step()
		}
		runtime.ReadMemStats(&after)
		return float64(after.Mallocs-before.Mallocs) / float64(n), float64(o.PiggybackTuples-t0) / float64(n)
	}
	for range 4 {
		step() // grow the arenas, the scratch and the shards' sets
	}
	early, tuples := window(8)
	window(32)
	late, lateTuples := window(8)
	t.Logf("%.0f new tuples per superstep; %.1f allocations per superstep early, %.1f later", tuples, early, late)
	if tuples == 0 || lateTuples != tuples {
		t.Fatalf("fixture derives %.0f then %.0f new tuples per superstep", tuples, lateTuples)
	}
	for _, a := range []float64{early, late} {
		if a > tuples/64+16 {
			t.Errorf("%.1f allocations per fresh superstep for %.0f new tuples: more than the arenas' chunks", a, tuples)
		}
	}
}
