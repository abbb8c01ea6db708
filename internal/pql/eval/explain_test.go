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
// definitions: ten run record-sourced, two stay on the materialised
// Evaluator for the one reason shown (Query 8: aggregate head; net-gap:
// net_rpc is not record-local) — and every rule of either kind is a slot
// program, so there is no per-rule fallback to report. Regenerate with
// `go test ./internal/pql/eval -run TestExplainGolden -update`.
func TestExplainGolden(t *testing.T) {
	defs := []queries.Definition{
		queries.Apt(0.01, nil), queries.CaptureFull(), queries.CaptureForwardLineage(3),
		queries.PageRankCheck(), queries.MonotoneCheck(), queries.SilentChange(),
		queries.ALSRangeCheck(), queries.ALSErrorIncrease(0.5), queries.BackwardTrace(5, 9),
		queries.CaptureBackwardCustom(), queries.NetGap(), queries.BackwardTraceCustom(5, 9),
	}
	var b strings.Builder
	recordSourced, materialised := 0, 0
	for _, def := range defs {
		text, err := Explain(def.MustBuild())
		if err != nil {
			t.Fatalf("%s: %v", def.Name, err)
		}
		switch {
		case strings.HasPrefix(text, "lowering:       record-sourced"):
			recordSourced++
		case strings.HasPrefix(text, "lowering:       materialised"):
			materialised++
		}
		b.WriteString("== " + def.Name + " (" + def.Paper + ")\n" + text)
	}
	if recordSourced != 10 || materialised != 2 {
		t.Errorf("%d record-sourced and %d materialised queries, want 10 and 2", recordSourced, materialised)
	}
	for _, reason := range []string{"aggregate head", "EDB net_rpc is not record-local"} {
		if !strings.Contains(b.String(), reason) {
			t.Errorf("no query stays materialised for the reason %q", reason)
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
