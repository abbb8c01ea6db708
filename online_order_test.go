package ariadne_test

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	"ariadne"
	"ariadne/internal/analytics"
	"ariadne/internal/capture"
	"ariadne/internal/engine"
	"ariadne/internal/fault"
	"ariadne/internal/gen"
	"ariadne/internal/queries"
	"ariadne/internal/transport"
)

var updateOrder = flag.Bool("update", false, "rewrite testdata/online_order.golden")

// relationKeys lists a result relation's canonical tuple keys in insertion
// order.
func relationKeys(r *ariadne.QueryResult, pred string) []string {
	var keys []string
	for _, t := range r.Relation(pred).All() {
		keys = append(keys, t.Key())
	}
	return keys
}

// TestOnlineOrderDifferential runs every online-evaluable paper query online
// alongside a full capture (emitted facts included) — at 1, 4 and 19
// partitions and over two TCP workers — and requires each derived relation
// to equal layered evaluation of that run's capture in insertion order. The
// per-relation digests must agree across the legs and with
// testdata/online_order.golden, the order of evaluation wholly at the
// barrier (regenerate with -update only for a deliberate change).
func TestOnlineOrderDifferential(t *testing.T) {
	g, err := gen.RMAT(gen.DefaultRMAT(7, 4, 23))
	if err != nil {
		t.Fatal(err)
	}
	var defs []ariadne.QueryDef
	for _, def := range []ariadne.QueryDef{
		queries.Apt(0.01, nil), queries.CaptureFull(), queries.CaptureForwardLineage(0),
		queries.PageRankCheck(), queries.MonotoneCheck(), queries.SilentChange(),
		queries.ALSRangeCheck(), queries.ALSErrorIncrease(0.01), queries.BackwardTrace(5, 9),
		queries.CaptureBackwardCustom(), queries.NetGap(), queries.BackwardTraceCustom(5, 9),
	} {
		if class, _, err := ariadne.Classify(def); err != nil {
			t.Fatal(err)
		} else if class == "local" || class == "forward" {
			defs = append(defs, def)
		}
	}
	if len(defs) != 9 {
		t.Fatalf("%d online-evaluable paper queries, want 9", len(defs))
	}

	var first string
	for _, leg := range []struct {
		name           string
		parts, workers int
	}{{"partitions=1", 1, 0}, {"partitions=4", 4, 0}, {"partitions=19", 19, 0}, {"tcp-2-workers", 4, 2}} {
		opts := []ariadne.Option{
			ariadne.WithPartitions(leg.parts),
			ariadne.WithCapture(capture.FullPolicy(), ariadne.StoreConfig{}),
		}
		for _, def := range defs {
			opts = append(opts, ariadne.WithOnlineQuery(def))
		}
		if leg.workers > 0 {
			opts = append(opts, ariadne.WithTransport(tcpWorkers(t, g, leg.parts, leg.workers)))
		}
		res, err := ariadne.Run(g, emitSSSP{&analytics.SSSP{}}, opts...)
		if err != nil {
			t.Fatalf("%s: %v", leg.name, err)
		}
		var digests strings.Builder
		for _, def := range defs {
			layered, err := ariadne.QueryOffline(def, res.Provenance, g, ariadne.ModeLayered, 0)
			if err != nil {
				t.Fatalf("%s %s: %v", leg.name, def.Name, err)
			}
			online := res.Query(def.Name)
			for _, rel := range online.DerivedRelations() {
				got := relationKeys(online, rel.Name)
				if want := relationKeys(layered, rel.Name); !slices.Equal(got, want) {
					t.Errorf("%s %s: online %s (%d tuples) differs from layered (%d)", leg.name, def.Name, rel.Name, len(got), len(want))
				}
				fmt.Fprintf(&digests, "%s %s %d %x\n", def.Name, rel.Name, len(got), sha256.Sum256([]byte(strings.Join(got, "\n"))))
			}
		}
		res.Provenance.Close()
		if first == "" {
			first = digests.String()
		} else if digests.String() != first {
			t.Errorf("%s: relation digests differ from partitions=1:\n%s", leg.name, digests.String())
		}
	}

	const golden = "testdata/online_order.golden"
	if *updateOrder {
		if err := os.WriteFile(golden, []byte(first), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if string(want) != first {
		t.Errorf("relation digests differ from %s:\n%s", golden, first)
	}
}

// tcpWorkers starts n loopback workers for emitSSSP over g and dials them.
func tcpWorkers(t *testing.T, g *ariadne.Graph, parts, n int) *transport.TCP {
	return tcpWorkersFor(t, g, func() engine.Program { return emitSSSP{&analytics.SSSP{}} }, parts, n)
}

// tcpWorkersFor starts n loopback workers, each with its own prog(), over g
// and dials them.
func tcpWorkersFor(t *testing.T, g *ariadne.Graph, prog func() engine.Program, parts, n int) *transport.TCP {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		x, err := engine.NewExecutor(g, prog(), engine.Config{Partitions: parts})
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
	t.Cleanup(func() { tr.Close() })
	return tr
}

// TestOnlineShedMatchesLayered sheds partition 1's capture from superstep 3
// (its first capture failure, with DegradeCaptureAfter 1) while Queries 6, 5,
// 1 and 8 run online (Query 8 on the materialised path, fed the barrier's
// merged views). Capture sheds the partition in the same superstep,
// before the online queries observe it, so each must drop the partition from
// that superstep on as well: its relations equal layered evaluation of the
// degraded store, in insertion order, and Query 6's hold fewer tuples than a
// run without the fault. Their heads of the form h(X, I) are record-keyed,
// so the shed partition's tuples must leave its shard's bitsets.
func TestOnlineShedMatchesLayered(t *testing.T) {
	g := rmatGraph(t)
	defs := []ariadne.QueryDef{queries.SilentChange(), queries.MonotoneCheck(), queries.Apt(0.5, nil), queries.ALSErrorIncrease(0.5)}
	run := func(opts ...ariadne.Option) *ariadne.Result {
		t.Helper()
		base := []ariadne.Option{
			ariadne.WithPartitions(4),
			ariadne.WithCaptureQuery(queries.CaptureFull(), ariadne.StoreConfig{}),
		}
		for _, def := range defs {
			base = append(base, ariadne.WithOnlineQuery(def))
		}
		res, err := ariadne.Run(g, &analytics.SSSP{}, append(base, opts...)...)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	clean := run()
	inj := fault.NewInjector(fault.Rule{Site: fault.SiteCapture, Superstep: 3, Partition: 1, Vertex: -1, Times: 1})
	res := run(ariadne.WithFault(inj), ariadne.WithSupervision(ariadne.SuperviseConfig{
		MaxRetries: 2, Backoff: time.Microsecond, DegradeCaptureAfter: 1,
	}))
	if inj.Fired() != 1 {
		t.Fatalf("capture fault fired %d times, want 1", inj.Fired())
	}
	if len(res.CaptureGaps) == 0 || res.CaptureGaps[0].Partition != 1 || res.CaptureGaps[0].From != 3 {
		t.Fatalf("capture gaps %+v, want partition 1 shed from superstep 3", res.CaptureGaps)
	}
	sameFinalValues(t, res.Values, clean.Values)

	for _, def := range defs {
		layered, err := ariadne.QueryOffline(def, res.Provenance, g, ariadne.ModeLayered, 0)
		if err != nil {
			t.Fatal(err)
		}
		online := res.Query(def.Name)
		for _, rel := range online.DerivedRelations() {
			got := relationKeys(online, rel.Name)
			if want := relationKeys(layered, rel.Name); !slices.Equal(got, want) {
				t.Errorf("%s: online %s (%d tuples) differs from layered over the degraded store (%d)", def.Name, rel.Name, len(got), len(want))
			}
		}
	}
	def := defs[0]
	shed, full := res.Query(def.Name).Relation("neighbor_change").Len(), clean.Query(def.Name).Relation("neighbor_change").Len()
	if shed >= full {
		t.Errorf("neighbor_change holds %d tuples shed, %d without the fault: nothing was dropped", shed, full)
	}
}
