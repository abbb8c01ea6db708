package ariadne_test

import (
	"math"
	"reflect"
	"testing"

	"ariadne"
	"ariadne/internal/analytics"
	"ariadne/internal/engine"
	"ariadne/internal/queries"
	"ariadne/internal/value"
)

// TestParallelBarrierDifferential is the non-interference check for the
// parallel barrier (Theorem 5.4 analog at the implementation level): the
// sharded delivery path with sender-side combining must produce bit-identical
// vertex values, identical RunStats message accounting, and — when capturing —
// identical provenance layers to the seed sequential barrier, for each of the
// paper's analytics. Run under -race in CI, which also exercises the shard
// goroutines for data races.
func TestParallelBarrierDifferential(t *testing.T) {
	cases := []struct {
		name     string
		prog     engine.Program
		combiner func(a, b ariadne.Value) ariadne.Value
		steps    int
	}{
		{"pagerank", &analytics.PageRank{Iterations: 10}, analytics.SumCombiner, 11},
		{"sssp", &analytics.SSSP{}, analytics.MinCombiner, 30},
		{"wcc", analytics.WCC{}, analytics.MinCombiner, 30},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := testGraph(t, 8, 6, 7)

			// Leg 1: combiner active (no capture — raw-message capture
			// disables combining by design), sequential vs parallel.
			seq, err := ariadne.Run(g, tc.prog,
				ariadne.WithMaxSupersteps(tc.steps),
				ariadne.WithPartitions(8),
				ariadne.WithCombiner(tc.combiner),
				ariadne.SequentialBarrier())
			if err != nil {
				t.Fatal(err)
			}
			par, err := ariadne.Run(g, tc.prog,
				ariadne.WithMaxSupersteps(tc.steps),
				ariadne.WithPartitions(8),
				ariadne.WithCombiner(tc.combiner))
			if err != nil {
				t.Fatal(err)
			}
			assertSameRun(t, "combined", seq, par)
			if par.Stats.MessagesCombined > 0 && par.Stats.MessagesCombinedSender == 0 {
				t.Error("parallel leg never combined at the sender")
			}
			if seq.Stats.MessagesCombinedSender != par.Stats.MessagesCombinedSender {
				t.Errorf("sender-combined %d != %d (combining semantics must be shared)",
					par.Stats.MessagesCombinedSender, seq.Stats.MessagesCombinedSender)
			}

			// Leg 1b: combining on vs off. The combiner only re-associates
			// the fold, so values agree — exactly for the idempotent min
			// combiners, within float tolerance for the PageRank sum (IEEE
			// addition is not associative).
			plain, err := ariadne.Run(g, tc.prog,
				ariadne.WithMaxSupersteps(tc.steps),
				ariadne.WithPartitions(8))
			if err != nil {
				t.Fatal(err)
			}
			if plain.Stats.MessagesSent != par.Stats.MessagesSent {
				t.Errorf("combining changed raw send count: %d != %d",
					par.Stats.MessagesSent, plain.Stats.MessagesSent)
			}
			for v := range plain.Values {
				if tc.name == "pagerank" {
					a, b := plain.Values[v].Float(), par.Values[v].Float()
					if diff := math.Abs(a - b); diff > 1e-9*math.Max(math.Abs(a), 1) {
						t.Fatalf("vertex %d combined value %v too far from uncombined %v", v, b, a)
					}
				} else if !bitIdentical(plain.Values[v], par.Values[v]) {
					t.Fatalf("vertex %d combined value %v != uncombined %v (min combiner is exact)",
						v, par.Values[v], plain.Values[v])
				}
			}

			// Leg 2: full capture (combiner auto-disabled), layers compared
			// tuple for tuple.
			seqCap, err := ariadne.Run(g, tc.prog,
				ariadne.WithMaxSupersteps(tc.steps),
				ariadne.WithPartitions(8),
				ariadne.WithCombiner(tc.combiner),
				ariadne.WithCaptureQuery(queries.CaptureFull(), ariadne.StoreConfig{}),
				ariadne.SequentialBarrier())
			if err != nil {
				t.Fatal(err)
			}
			defer seqCap.Provenance.Close()
			parCap, err := ariadne.Run(g, tc.prog,
				ariadne.WithMaxSupersteps(tc.steps),
				ariadne.WithPartitions(8),
				ariadne.WithCombiner(tc.combiner),
				ariadne.WithCaptureQuery(queries.CaptureFull(), ariadne.StoreConfig{}))
			if err != nil {
				t.Fatal(err)
			}
			defer parCap.Provenance.Close()
			assertSameRun(t, "captured", seqCap, parCap)
			assertSameProvenance(t, seqCap.Provenance, parCap.Provenance)
		})
	}
}

func assertSameRun(t *testing.T, leg string, seq, par *ariadne.Result) {
	t.Helper()
	if seq.Stats.Supersteps != par.Stats.Supersteps {
		t.Errorf("%s: supersteps %d != %d", leg, par.Stats.Supersteps, seq.Stats.Supersteps)
	}
	if seq.Stats.MessagesSent != par.Stats.MessagesSent {
		t.Errorf("%s: sent %d != %d", leg, par.Stats.MessagesSent, seq.Stats.MessagesSent)
	}
	if seq.Stats.MessagesDelivered != par.Stats.MessagesDelivered {
		t.Errorf("%s: delivered %d != %d", leg, par.Stats.MessagesDelivered, seq.Stats.MessagesDelivered)
	}
	if seq.Stats.MessagesCombined != par.Stats.MessagesCombined {
		t.Errorf("%s: combined %d != %d", leg, par.Stats.MessagesCombined, seq.Stats.MessagesCombined)
	}
	if got, want := par.Stats.MessagesSent, par.Stats.MessagesDelivered+par.Stats.MessagesCombined; got != want {
		t.Errorf("%s: sent %d != delivered+combined %d", leg, got, want)
	}
	if len(seq.Values) != len(par.Values) {
		t.Fatalf("%s: %d values != %d", leg, len(par.Values), len(seq.Values))
	}
	for v := range seq.Values {
		// Bit-identical, not approximately equal: the parallel barrier
		// preserves the sequential association order exactly.
		if !bitIdentical(seq.Values[v], par.Values[v]) {
			t.Fatalf("%s: vertex %d value %v != %v", leg, v, par.Values[v], seq.Values[v])
		}
	}
}

func bitIdentical(a, b value.Value) bool {
	return reflect.DeepEqual(a.AppendBinary(nil), b.AppendBinary(nil))
}

func assertSameProvenance(t *testing.T, seq, par *ariadne.Store) {
	t.Helper()
	if seq.NumLayers() != par.NumLayers() {
		t.Fatalf("layers %d != %d", par.NumLayers(), seq.NumLayers())
	}
	if seq.TotalTuples() != par.TotalTuples() {
		t.Errorf("tuples %d != %d", par.TotalTuples(), seq.TotalTuples())
	}
	for i := 0; i < seq.NumLayers(); i++ {
		ls, err := seq.Layer(i)
		if err != nil {
			t.Fatal(err)
		}
		lp, err := par.Layer(i)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ls, lp) {
			t.Fatalf("provenance layer %d differs between barriers", i)
		}
	}
}
