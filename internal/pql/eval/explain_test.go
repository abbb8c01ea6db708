package eval

import (
	"flag"
	"os"
	"strings"
	"testing"

	"ariadne/internal/queries"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/explain.golden")

// TestExplainGolden pins the lowering of all twelve committed query
// definitions. Each is one compiled program: ten are record-sourced
// throughout, and two materialise the rules the record planner refuses, for
// the reason shown (Query 8: aggregate heads and a record rule reading
// them; net-gap: store-only EDBs, loaded) — and every rule of either kind
// is a slot program, so there is no whole-query fallback to report.
// Regenerate with `go test ./internal/pql/eval -run TestExplainGolden
// -update`.
func TestExplainGolden(t *testing.T) {
	defs := []queries.Definition{
		queries.Apt(0.01, nil), queries.CaptureFull(), queries.CaptureForwardLineage(3),
		queries.PageRankCheck(), queries.MonotoneCheck(), queries.SilentChange(),
		queries.ALSRangeCheck(), queries.ALSErrorIncrease(0.5), queries.BackwardTrace(5, 9),
		queries.CaptureBackwardCustom(), queries.NetGap(), queries.BackwardTraceCustom(5, 9),
	}
	var b strings.Builder
	materialised := 0
	for _, def := range defs {
		text, err := Explain(def.MustBuild())
		if err != nil {
			t.Fatalf("%s: %v", def.Name, err)
		}
		if !strings.HasPrefix(text, "lowering:       record-sourced (") {
			t.Errorf("%s: lowering %q, want one record-sourced program", def.Name, strings.SplitN(text, "\n", 2)[0])
		}
		if strings.Contains(text, "planner=materialised") {
			materialised++
		}
		b.WriteString("== " + def.Name + " (" + def.Paper + ")\n" + text)
	}
	if materialised != 2 {
		t.Errorf("%d queries materialise a rule, want 2", materialised)
	}
	for _, reason := range []string{"aggregate head", "EDB net_rpc is not record-local", "record rule consumes global predicate avg_error"} {
		if !strings.Contains(b.String(), reason) {
			t.Errorf("no rule is materialised for the reason %q", reason)
		}
	}
	const golden = "testdata/explain.golden"
	if *updateGolden {
		if err := os.WriteFile(golden, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if string(want) != b.String() {
		t.Errorf("explain output differs from %s (rerun with -update after checking the diff):\n%s", golden, b.String())
	}
}
