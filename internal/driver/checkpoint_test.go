package driver

import (
	"os"
	"testing"

	"ariadne/internal/analytics"
	"ariadne/internal/engine"
	"ariadne/internal/gen"
	"ariadne/internal/graph"
	"ariadne/internal/queries"
)

// resumeAt is an Online restored from blob once the run reaches superstep
// at: the supersteps up to at are replayed by the deterministic engine but
// not observed, so the driver continues from the state the checkpoint was
// taken in, as after a crash.
type resumeAt struct {
	*Online
	at   int
	blob []byte
}

func (r *resumeAt) ObserveSuperstep(v *engine.SuperstepView) error {
	switch {
	case v.Superstep < r.at:
		return nil
	case v.Superstep == r.at:
		return r.UnmarshalCheckpoint(r.blob)
	}
	return r.Online.ObserveSuperstep(v)
}

// TestOnlineResumesRetentionCheckpoint resumes materialised online
// checkpoints written by the build whose feeder kept its own per-vertex
// retention map (testdata/online_materialised_*.ckpt, marshalled after
// superstep at): the saved map is read past, the evolution joins after the
// resume take their previous values from the engine, and the resumed run
// feeds and derives what the uninterrupted one does. Query 6 keeps its
// insertion order; Query 8's aggregate heads are flushed in map order, so
// they compare as sets.
func TestOnlineResumesRetentionCheckpoint(t *testing.T) {
	sssp, err := gen.RMAT(gen.DefaultRMAT(7, 4, 23))
	if err != nil {
		t.Fatal(err)
	}
	ml, err := gen.MLDataset(-6)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		file    string
		def     queries.Definition
		g       *graph.Graph
		prog    func() engine.Program
		maxSS   int
		at      int
		ordered bool
	}{
		{"online_materialised_q6.ckpt", queries.SilentChange(), sssp,
			func() engine.Program { return ssspProg{} }, 0, 3, true},
		{"online_materialised_q8.ckpt", queries.ALSErrorIncrease(0.01), ml.Graph,
			func() engine.Program { return &analytics.ALS{NumUsers: ml.NumUsers, Features: 2, Seed: 7} }, 5, 2, false},
	}
	for _, c := range cases {
		t.Run(c.def.Name, func(t *testing.T) {
			blob, err := os.ReadFile("testdata/" + c.file)
			if err != nil {
				t.Fatal(err)
			}
			run := func(wrap func(*Online) engine.Observer) *Result {
				t.Helper()
				o, err := NewOnline(c.def.MustBuild(), c.g, materialised())
				if err != nil {
					t.Fatal(err)
				}
				e, err := engine.New(c.g, c.prog(), engine.Config{
					MaxSupersteps: c.maxSS, Partitions: 2, Observers: []engine.Observer{wrap(o)}})
				if err != nil {
					t.Fatal(err)
				}
				if _, err := e.Run(); err != nil {
					t.Fatal(err)
				}
				return o.Result()
			}
			want := run(func(o *Online) engine.Observer { return o })
			got := run(func(o *Online) engine.Observer { return &resumeAt{Online: o, at: c.at, blob: blob} })
			wantSig := relationKeys(want, !c.ordered)
			n := 0
			for _, keys := range wantSig {
				n += len(keys)
			}
			if n == 0 {
				t.Fatal("the uninterrupted run derived nothing")
			}
			requireSameSig(t, "resumed", wantSig, relationKeys(got, !c.ordered))
			if got.Facts != want.Facts {
				t.Errorf("resumed run fed %d facts, uninterrupted %d", got.Facts, want.Facts)
			}
		})
	}
}
