package driver

import (
	"testing"

	"ariadne/internal/gen"
	"ariadne/internal/pql/analysis"
	"ariadne/internal/pql/eval"
	"ariadne/internal/queries"
)

// compiledFor compiles q over a small graph, every rule materialised when
// all is set.
func compiledFor(t *testing.T, q *analysis.Query, all bool) *eval.Compiled {
	t.Helper()
	g, err := gen.RMAT(gen.DefaultRMAT(4, 2, 1))
	if err != nil {
		t.Fatal(err)
	}
	c, err := compile(q, eval.NewDatabase(), g, all)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestProjectionForPageRankCheck(t *testing.T) {
	// Query 4 reads receive_message and edge only: no values, no sends, no
	// emitted tables, however it is planned. Read off the records, the
	// message payload is dropped too (M occurs once); materialised, it is not.
	q := queries.PageRankCheck().MustBuild()

	p := projectionFor(q, compiledFor(t, q, true))
	if p.Values || p.SendValues || p.Emitted {
		t.Errorf("materialised projection reads unreferenced tables: %+v", p)
	}
	if !p.RecvPeers || !p.RecvValues {
		t.Errorf("materialised projection must keep whole receive tuples: %+v", p)
	}

	p = projectionFor(q, compiledFor(t, q, false))
	if !p.RecvPeers {
		t.Errorf("compiled projection dropped receive peers (Y is in the head): %+v", p)
	}
	if p.RecvValues {
		t.Errorf("compiled projection kept the receive payload; M occurs once: %+v", p)
	}
}

func TestProjectionForMonotoneCheck(t *testing.T) {
	// Query 5 compares the message payload (M < 0): the receive payload
	// column survives even column-level refinement.
	q := queries.MonotoneCheck().MustBuild()
	p := projectionFor(q, compiledFor(t, q, false))
	if !p.RecvValues || !p.Values {
		t.Errorf("monotone check reads payloads and values: %+v", p)
	}
	if p.SendValues || p.Emitted {
		t.Errorf("monotone check reads no sends or emitted tables: %+v", p)
	}
}

func TestProjectionForBackwardTrace(t *testing.T) {
	// Query 10 walks send_message edges; the payload M occurs once, so the
	// record-sourced leg drops it while the materialised leg keeps the table
	// whole.
	q := queries.BackwardTrace(0, 2).MustBuild()
	pi := projectionFor(q, compiledFor(t, q, true))
	if !pi.SendValues {
		t.Errorf("materialised projection must keep send payloads: %+v", pi)
	}
	pc := projectionFor(q, compiledFor(t, q, false))
	if pc.SendValues {
		t.Errorf("compiled projection kept the send payload; M occurs once: %+v", pc)
	}
	if !pi.Values || !pc.Values {
		t.Error("back_lineage projects value payloads; both legs must read them")
	}
	if pi.RecvPeers || pc.RecvPeers {
		t.Error("backward trace reads no receive_message tuples")
	}
}

func TestProjectionForEmittedTables(t *testing.T) {
	// Query 7 joins two analytic-emitted tables: the emitted column is
	// needed, the built-in payload columns are not.
	q := queries.ALSRangeCheck().MustBuild()
	p := projectionFor(q, compiledFor(t, q, false))
	if !p.Emitted {
		t.Errorf("ALS range check reads emitted tables: %+v", p)
	}
	if p.Values || p.SendValues || p.RecvPeers || p.RecvValues {
		t.Errorf("ALS range check reads no built-in payload columns: %+v", p)
	}
}

func TestProjectionRecvValuesImplyPeers(t *testing.T) {
	// The store-level mask invariant: requesting receive payloads always
	// materializes the peers column they align to.
	q := queries.MonotoneCheck().MustBuild()
	p := projectionFor(q, compiledFor(t, q, false))
	if p.RecvValues && !p.RecvPeers {
		t.Fatalf("RecvValues without RecvPeers: %+v", p)
	}
}
