package driver

import (
	"bytes"
	"fmt"
	"os"
	"strings"
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

// alsQ8 returns the ML dataset's graph and a fresh ALS program for it, the
// analytic Query 8 monitors.
func alsQ8(t *testing.T) (*graph.Graph, func() engine.Program) {
	t.Helper()
	ml, err := gen.MLDataset(-6)
	if err != nil {
		t.Fatal(err)
	}
	return ml.Graph, func() engine.Program {
		return &analytics.ALS{NumUsers: ml.NumUsers, Features: 2, Seed: 7}
	}
}

// TestOnlineResumesQuery8: Query 8's aggregate heads run materialised inside
// the compiled program, so its checkpoint carries their group tables. ALS
// with Query 8 online, checkpointed at superstep 2 and resumed there, must
// derive the relations of the uninterrupted run, as sets (a group flushes
// its replacement where it was touched first), and report the same Facts,
// at 1 and 4 partitions, and end in the same state.
func TestOnlineResumesQuery8(t *testing.T) {
	g, prog := alsQ8(t)
	def := queries.ALSErrorIncrease(0.01)
	const at = 2
	for _, parts := range []int{1, 4} {
		t.Run(fmt.Sprintf("partitions=%d", parts), func(t *testing.T) {
			run := func(obs engine.Observer) {
				t.Helper()
				e, err := engine.New(g, prog(), engine.Config{MaxSupersteps: 5, Partitions: parts, Observers: []engine.Observer{obs}})
				if err != nil {
					t.Fatal(err)
				}
				if _, err := e.Run(); err != nil {
					t.Fatal(err)
				}
			}
			newOnline := func() *Online {
				o, err := NewOnline(def.MustBuild(), g)
				if err != nil {
					t.Fatal(err)
				}
				return o
			}
			ck := &checkpointAt{Online: newOnline(), at: at}
			run(ck)
			if ck.blob == nil {
				t.Fatal("no checkpoint taken")
			}
			resumed := &resumeAt{Online: newOnline(), at: at, blob: ck.blob}
			run(resumed)
			want, got := ck.Result(), resumed.Result()
			wantSig := relationKeys(want, true)
			for _, pred := range []string{"degree", "sum_error", "avg_error"} {
				if len(wantSig[pred]) == 0 {
					t.Errorf("the uninterrupted run derived no %s", pred)
				}
			}
			requireSameSig(t, "resumed", wantSig, relationKeys(got, true))
			if got.Facts != want.Facts {
				t.Errorf("resumed run evaluated %d facts, uninterrupted %d", got.Facts, want.Facts)
			}
			// The state the runs end in, group tables included, is one.
			a, errA := ck.MarshalCheckpoint()
			b, errB := resumed.MarshalCheckpoint()
			if errA != nil || errB != nil || !bytes.Equal(a, b) {
				t.Errorf("resumed run ends in a state of %d bytes, uninterrupted %d (%v, %v)", len(b), len(a), errB, errA)
			}
		})
	}
}

// TestOnlineRefusesMaterialisedCheckpoint: testdata/online_materialised_*.ckpt
// were written by the materialised evaluator, which every query ran on
// before it compiled to one program. Their state is that evaluator's, so
// resuming from one fails, naming it.
func TestOnlineRefusesMaterialisedCheckpoint(t *testing.T) {
	sssp, err := gen.RMAT(gen.DefaultRMAT(7, 4, 23))
	if err != nil {
		t.Fatal(err)
	}
	ml, _ := alsQ8(t)
	for _, c := range []struct {
		file string
		def  queries.Definition
		g    *graph.Graph
	}{
		{"online_materialised_q6.ckpt", queries.SilentChange(), sssp},
		{"online_materialised_q8.ckpt", queries.ALSErrorIncrease(0.01), ml},
	} {
		blob, err := os.ReadFile("testdata/" + c.file)
		if err != nil {
			t.Fatal(err)
		}
		o, err := NewOnline(c.def.MustBuild(), c.g)
		if err != nil {
			t.Fatal(err)
		}
		if err := o.UnmarshalCheckpoint(blob); err == nil || !strings.Contains(err.Error(), "materialised evaluator") {
			t.Errorf("%s: UnmarshalCheckpoint = %v, want an error naming the materialised evaluator", c.file, err)
		}
	}
}
