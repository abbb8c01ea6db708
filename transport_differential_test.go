package ariadne_test

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"ariadne"
	"ariadne/internal/analytics"
	"ariadne/internal/capture"
	"ariadne/internal/engine"
	"ariadne/internal/gen"
	"ariadne/internal/pql/analysis"
	"ariadne/internal/queries"
	"ariadne/internal/transport"
	"ariadne/internal/value"
)

// The transport differential at the public API boundary: a run whose
// partitions execute on TCP-loopback workers must be indistinguishable from
// the in-process run — bit-identical vertex values, identical message
// accounting, tuple-identical provenance layers, and identical results for
// every paper query, online and offline, at 1 and 2 workers.

// emitSSSP is SSSP plus per-message analytics facts so the ALS monitoring
// queries (prov_error / prov_prediction) have data to chew on, mirroring
// the driver-level differential. It also exercises ProvFact emission across
// the wire, and emits only when Context.Observing says an observer reads the
// facts, as ALS does: a worker that misreads the master's record mask emits
// nothing, and the captured layers differ from the in-process run's.
type emitSSSP struct{ *analytics.SSSP }

func (p emitSSSP) Compute(ctx *engine.Context, msgs []engine.IncomingMessage) error {
	if !ctx.Observing() {
		return p.SSSP.Compute(ctx, msgs)
	}
	for _, m := range msgs {
		peer := value.NewInt(int64(m.Src))
		e := m.Val.Float()
		ctx.EmitProv("prov_error", peer, value.NewFloat(e))
		ctx.EmitProv("prov_prediction", peer, value.NewFloat(e+4))
	}
	return p.SSSP.Compute(ctx, msgs)
}

// paperQueries is the differential query set from the paper (Q1/Q2 lineage
// and trace, Q4-Q6 monitoring, Q9/Q10 ALS monitoring).
func paperQueries() []ariadne.QueryDef {
	return []ariadne.QueryDef{
		queries.CaptureForwardLineage(0),
		queries.BackwardTrace(0, 2),
		queries.PageRankCheck(),
		queries.SilentChange(),
		queries.MonotoneCheck(),
		queries.ALSRangeCheck(),
		queries.ALSErrorIncrease(0.01),
	}
}

func TestTransportDifferentialAPI(t *testing.T) {
	g, err := gen.RMAT(gen.DefaultRMAT(7, 4, 23))
	if err != nil {
		t.Fatal(err)
	}
	const parts = 8
	onlineDefs := []ariadne.QueryDef{
		queries.PageRankCheck(),
		queries.SilentChange(),
		queries.MonotoneCheck(),
	}
	commonOpts := func() []ariadne.Option {
		opts := []ariadne.Option{
			ariadne.WithMaxSupersteps(30),
			ariadne.WithPartitions(parts),
			ariadne.WithCaptureQuery(queries.CaptureFull(), ariadne.StoreConfig{}),
		}
		for _, def := range onlineDefs {
			opts = append(opts, ariadne.WithOnlineQuery(def))
		}
		return opts
	}

	base, err := ariadne.Run(g, emitSSSP{&analytics.SSSP{}}, commonOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	defer base.Provenance.Close()

	for _, nw := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("workers-%d", nw), func(t *testing.T) {
			addrs := make([]string, nw)
			for i := range addrs {
				x, err := engine.NewExecutor(g, emitSSSP{&analytics.SSSP{}}, engine.Config{Partitions: parts})
				if err != nil {
					t.Fatal(err)
				}
				w, err := transport.NewWorker(x, "127.0.0.1:0", nil)
				if err != nil {
					t.Fatal(err)
				}
				go w.Serve()
				t.Cleanup(func() { w.Close() })
				addrs[i] = w.Addr()
			}
			tr, err := transport.DialTCP(transport.TCPConfig{
				Addrs: addrs,
				Fingerprint: transport.Fingerprint{
					Partitions:  parts,
					NumVertices: g.NumVertices(),
					NumEdges:    g.NumEdges(),
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			defer tr.Close()

			res, err := ariadne.Run(g, emitSSSP{&analytics.SSSP{}},
				append(commonOpts(), ariadne.WithTransport(tr))...)
			if err != nil {
				t.Fatal(err)
			}
			defer res.Provenance.Close()

			assertSameRun(t, "tcp", base, res)
			assertSameProvenance(t, base.Provenance, res.Provenance)
			for _, def := range onlineDefs {
				sameQueryResults(t, res.Query(def.Name), base.Query(def.Name))
			}

			// Every paper query must read identically from both stores.
			// Legs must agree even on evaluability: a query that works on
			// one store and errors on the other is a divergence.
			for _, def := range paperQueries() {
				qb, errB := ariadne.QueryOffline(def, base.Provenance, g, ariadne.ModeLayered, 0)
				qt, errT := ariadne.QueryOffline(def, res.Provenance, g, ariadne.ModeLayered, 0)
				if (errB == nil) != (errT == nil) {
					t.Fatalf("query %s: inproc err=%v, tcp err=%v", def.Name, errB, errT)
				}
				if errB != nil {
					continue // not offline-evaluable; both legs agree
				}
				sameQueryResults(t, qt, qb)
			}
		})
	}
}

// TestTransportALSEmitsProvenance: ALS emits its prov_error and
// prov_prediction facts only when Context.Observing reports an observer that
// reads them. A worker's engine has no observers of its own; the master's
// record mask, sent in every ExecRequest, is what it reports. Over one
// loopback worker, ALS with Query 7 online, a query over every prov_error
// fact and a full capture must emit, derive and capture exactly what the
// in-process run does.
func TestTransportALSEmitsProvenance(t *testing.T) {
	r, err := gen.Bipartite(gen.DefaultBipartite(60, 12, 5, 7))
	if err != nil {
		t.Fatal(err)
	}
	const parts = 4
	prog := func() engine.Program { return &analytics.ALS{NumUsers: r.NumUsers, Features: 3, Seed: 2} }
	env := analysis.NewEnv()
	env.DeclareEDB("prov_error", 4)
	heard := ariadne.QueryDef{Name: "heard", Env: env, ResultPreds: []string{"heard"},
		Source: `heard(X, Y, I) :- prov_error(X, Y, E, I).`}
	defs := []ariadne.QueryDef{queries.ALSRangeCheck(), heard}
	type leg struct {
		res     *ariadne.Result
		facts   int
		digests []string
	}
	run := func(extra ...ariadne.Option) leg {
		t.Helper()
		dir := t.TempDir()
		opts := []ariadne.Option{
			ariadne.WithPartitions(parts), ariadne.WithMaxSupersteps(6),
			ariadne.WithCapture(capture.FullPolicy(), ariadne.StoreConfig{SpillAll: true, SpillDir: dir}),
		}
		for _, def := range defs {
			opts = append(opts, ariadne.WithOnlineQuery(def))
		}
		res, err := ariadne.Run(r.Graph, prog(), append(opts, extra...)...)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { res.Provenance.Close() })
		l := leg{res: res}
		for i := 0; i < res.Provenance.NumLayers(); i++ {
			layer, err := res.Provenance.Layer(i)
			if err != nil {
				t.Fatal(err)
			}
			for _, rec := range layer.Records {
				l.facts += len(rec.Emitted)
			}
			raw, err := os.ReadFile(filepath.Join(dir, fmt.Sprintf("layer-%06d.prov", i)))
			if err != nil {
				t.Fatal(err)
			}
			l.digests = append(l.digests, fmt.Sprintf("%x", sha256.Sum256(raw)))
		}
		return l
	}
	local := run()
	tcp := run(ariadne.WithTransport(tcpWorkersFor(t, r.Graph, prog, parts, 1)))
	if local.facts == 0 {
		t.Fatal("the in-process run captured no emitted facts; the test would prove nothing")
	}
	if tcp.facts != local.facts {
		t.Errorf("tcp captured %d emitted facts, in process %d", tcp.facts, local.facts)
	}
	if !slices.Equal(tcp.digests, local.digests) {
		t.Errorf("layer digests differ:\n  tcp        %v\n  in process %v", tcp.digests, local.digests)
	}
	if ariadne.Count(local.res.Query("heard"), "heard") == 0 {
		t.Fatal("no query derived from the emitted facts")
	}
	assertSameRun(t, "tcp", local.res, tcp.res)
	for _, def := range defs {
		sameQueryResults(t, tcp.res.Query(def.Name), local.res.Query(def.Name))
	}
}
