package driver

import (
	"bytes"
	"os"
	"testing"

	"ariadne/internal/engine"
	"ariadne/internal/gen"
	"ariadne/internal/graph"
	"ariadne/internal/queries"
)

// q6Graph is the RMAT graph the compiled Query 6 checkpoint was taken on.
func q6Graph(t *testing.T) *graph.Graph {
	t.Helper()
	g, err := gen.RMAT(gen.DefaultRMAT(7, 4, 23))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// q6Run runs SSSP under compiled online Query 6 on four partitions, the
// observer wrapped by wrap, and returns the driver.
func q6Run(t *testing.T, wrap func(*Online) engine.Observer) *Online {
	t.Helper()
	g := q6Graph(t)
	o, err := NewOnline(queries.SilentChange().MustBuild(), g)
	if err != nil {
		t.Fatal(err)
	}
	if !o.UsesCompiledPath() {
		t.Fatal("Query 6 did not compile")
	}
	e, err := engine.New(g, ssspProg{}, engine.Config{Partitions: 4, Observers: []engine.Observer{wrap(o)}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	return o
}

// q6CheckpointAt is the superstep testdata/online_compiled_q6.ckpt was
// marshalled after.
const q6CheckpointAt = 3

// TestQ6CheckpointBytes: neighbor_change and problem are record-keyed heads,
// whose members live in per-superstep vertex bitsets instead of string-keyed
// sets, yet a compiled Query 6 checkpoint holds what it held when every
// member was keyed by string. testdata/online_compiled_q6.ckpt was written by
// the build before record-keyed heads; the checkpoint written now must be
// byte-identical, and resuming from it must reproduce the uninterrupted run's
// relations, in insertion order.
func TestQ6CheckpointBytes(t *testing.T) {
	want, err := os.ReadFile("testdata/online_compiled_q6.ckpt")
	if err != nil {
		t.Fatal(err)
	}
	ck := &checkpointAt{at: q6CheckpointAt}
	q6Run(t, func(o *Online) engine.Observer { ck.Online = o; return ck })
	if ck.blob == nil {
		t.Fatal("no checkpoint taken")
	}
	if !bytes.Equal(ck.blob, want) {
		t.Fatalf("checkpoint of %d bytes differs from the recorded one of %d", len(ck.blob), len(want))
	}
	clean := q6Run(t, func(o *Online) engine.Observer { return o }).Result()
	resumed := q6Run(t, func(o *Online) engine.Observer {
		return &resumeAt{Online: o, at: q6CheckpointAt, blob: want}
	}).Result()
	wantSig := relationKeys(clean, false)
	if len(wantSig["neighbor_change"]) == 0 {
		t.Fatal("the uninterrupted run derived no neighbor_change tuple")
	}
	requireSameSig(t, "resumed", wantSig, relationKeys(resumed, false))
	if clean.Facts != resumed.Facts {
		t.Errorf("resumed run fed %d facts, uninterrupted %d", resumed.Facts, clean.Facts)
	}
}
