package ariadne_test

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ariadne/internal/analytics"
	"ariadne/internal/engine"
	"ariadne/internal/gen"
	"ariadne/internal/value"
)

// TestCombinerRunsGolden runs SSSP with MinCombiner and PageRank with
// SumCombiner at 1, 4 and 19 partitions under both barriers, and at 4
// partitions over two TCP workers, and digests what sender-side combining
// decides: the final value bits, the message accounting (combined at the
// sender included), the per-superstep active counts, and the superstep-6
// checkpoint's bytes with its wall times masked. The lines must equal
// testdata/combiner_runs.golden (regenerate with -update only for a
// deliberate change to the fold tree or the checkpoint format).
func TestCombinerRunsGolden(t *testing.T) {
	g, err := gen.RMAT(gen.DefaultRMAT(10, 8, 53))
	if err != nil {
		t.Fatal(err)
	}
	analyticsUnderTest := []struct {
		name string
		prog func() engine.Program
		comb func(a, b value.Value) value.Value
	}{
		{"sssp", func() engine.Program { return &analytics.SSSP{} }, analytics.MinCombiner},
		{"pagerank", func() engine.Program { return &analytics.PageRank{} }, analytics.SumCombiner},
	}
	type leg struct {
		parts, workers int
		seq            bool
	}
	legs := []leg{{1, 0, false}, {1, 0, true}, {4, 0, false}, {4, 0, true}, {19, 0, false}, {19, 0, true}, {4, 2, false}}

	var out strings.Builder
	for _, a := range analyticsUnderTest {
		for _, l := range legs {
			name := fmt.Sprintf("%s partitions=%d sequential=%v workers=%d", a.name, l.parts, l.seq, l.workers)
			dir := t.TempDir()
			cfg := engine.Config{
				Partitions: l.parts, Combiner: a.comb, SequentialBarrier: l.seq,
				Checkpoint: &engine.CheckpointConfig{Dir: dir, Interval: 3, Keep: 100},
			}
			if l.workers > 0 {
				cfg.Transport = tcpWorkersWith(t, g, a.prog, engine.Config{Partitions: l.parts, Combiner: a.comb}, l.workers)
			}
			e, err := engine.New(g, a.prog(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			st, err := e.Run()
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if st.MessagesCombinedSender == 0 {
				t.Errorf("%s: the sender combined nothing; the golden would pin little", name)
			}
			var bits []byte
			for _, v := range e.Values() {
				bits = v.AppendBinary(bits)
			}
			fmt.Fprintf(&out, "%s supersteps=%d sent=%d delivered=%d combined=%d combined_sender=%d peak=%d active=%x values=%x checkpoint6=%x\n",
				name, st.Supersteps, st.MessagesSent, st.MessagesDelivered, st.MessagesCombined, st.MessagesCombinedSender,
				st.PeakActiveVertices, sha256.Sum256([]byte(fmt.Sprint(st.ActiveVertices))), sha256.Sum256(bits),
				checkpointDigest(t, filepath.Join(dir, "checkpoint-000006.ckpt")))
		}
	}

	const golden = "testdata/combiner_runs.golden"
	if *updateOrder {
		if err := os.WriteFile(golden, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if string(want) != out.String() {
		t.Errorf("combiner runs differ from %s; this run gave:\n%s", golden, out.String())
	}
}

// checkpointDigest hashes a checkpoint file without the bytes that time the
// run: the four per-phase wall times of its run statistics and the CRC that
// covers them. It walks the file's layout (engine/checkpoint.go) up to those
// fields; everything after them is hashed as written.
func checkpointDigest(t *testing.T, path string) [32]byte {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	body := raw[:len(raw)-4]
	r := value.NewBlobReader(body[5:]) // after magic and version
	r.Uvarint()                        // resume superstep
	n := r.Count()
	r.Uvarint() // edges
	for i := 0; i < n; i++ {
		r.Value()
	}
	for i := 0; i < n; i++ {
		r.Int()
	}
	for i, owners := 0, r.Count(); i < owners; i++ {
		r.Uvarint()
		for j, msgs := 0, r.Count(); j < msgs; j++ {
			r.Uvarint()
			r.Value()
		}
	}
	for i, aggs := 0, r.Count(); i < aggs; i++ {
		r.Raw() // name
		r.Float()
	}
	r.Uvarint() // supersteps
	r.Uvarint() // sent
	for i, ss := 0, r.Count(); i < ss; i++ {
		r.Uvarint()
	}
	r.Uvarint() // delivered
	r.Uvarint() // combined
	r.Uvarint() // peak active
	wallStart := len(body) - r.Len()
	for range 4 {
		r.Uvarint()
	}
	if r.Err() != nil {
		t.Fatalf("%s: %v", path, r.Err())
	}
	return sha256.Sum256(append(body[:wallStart:wallStart], body[len(body)-r.Len():]...))
}
