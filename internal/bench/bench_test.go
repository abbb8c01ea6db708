package bench

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"time"
)

// tiny returns a runner over only the smallest dataset at minimum size, so
// the experiment logic is exercised quickly; the full sweep belongs to
// cmd/ariadne-bench and the root benchmarks.
func tiny(t *testing.T) (*Runner, *bytes.Buffer) {
	t.Helper()
	var buf bytes.Buffer
	return NewRunner(Config{
		SizeFactor: -1,
		Supersteps: 10,
		Datasets:   []string{"IN-04"},
		Out:        &buf,
	}), &buf
}

func TestTable2(t *testing.T) {
	r, buf := tiny(t)
	rows, err := r.Table2()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 { // IN-04 + ML-20
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].Name != "IN-04" || rows[0].V == 0 || rows[0].AvgDegree < 10 {
		t.Errorf("IN-04 row = %+v", rows[0])
	}
	if !strings.Contains(buf.String(), "Table 2") {
		t.Error("report missing header")
	}
}

func TestTable3And4Shapes(t *testing.T) {
	r, _ := tiny(t)
	full, err := r.Table3()
	if err != nil {
		t.Fatal(err)
	}
	cust, err := r.Table4()
	if err != nil {
		t.Fatal(err)
	}
	for _, analytic := range []string{"PageRank", "SSSP", "WCC"} {
		// Paper shape: full provenance much larger than the input graph;
		// custom provenance below the full one and a fraction of the ratio.
		if full[0].Ratio[analytic] < 1.5 {
			t.Errorf("%s full ratio %.2f should exceed input", analytic, full[0].Ratio[analytic])
		}
		if cust[0].Bytes[analytic] >= full[0].Bytes[analytic] {
			t.Errorf("%s custom %d should be below full %d", analytic, cust[0].Bytes[analytic], full[0].Bytes[analytic])
		}
		// Table 4: lineage covers a large share of vertices.
		if cust[0].Coverage[analytic] < 0.5 {
			t.Errorf("%s lineage coverage %.2f too small", analytic, cust[0].Coverage[analytic])
		}
	}
	// PageRank touches every vertex every superstep: its provenance should
	// be the largest, as in Table 3.
	if full[0].Bytes["PageRank"] < full[0].Bytes["WCC"] {
		t.Errorf("PageRank provenance should exceed WCC's: %v", full[0].Bytes)
	}
}

func TestFig7Shape(t *testing.T) {
	r, _ := tiny(t)
	rows, err := r.Fig7()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	// The paper's shape — custom capture is cheaper than full capture — is
	// asserted over what each policy captured, which repeats exactly; the
	// wall-clock ratios (FullX, CustomX) are over ~1 ms baselines here and
	// belong to `make bench-full`.
	for _, row := range rows {
		if row.CustomTuples <= 0 || row.FullTuples < row.CustomTuples {
			t.Errorf("%s: full capture holds %d tuples, custom %d: want full >= custom > 0", row.Analytic, row.FullTuples, row.CustomTuples)
		}
		if row.FullBytes < row.CustomBytes {
			t.Errorf("%s: full capture holds %d bytes, custom %d: want full >= custom", row.Analytic, row.FullBytes, row.CustomBytes)
		}
		if row.Baseline <= 0 {
			t.Errorf("%s: baseline not measured", row.Analytic)
		}
	}
}

func TestFig8Shape(t *testing.T) {
	r, _ := tiny(t)
	rows, err := r.Fig8()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 { // 1 (PR) + 2 (SSSP) + 2 (WCC)
		t.Fatalf("rows = %d", len(rows))
	}
	checkModesShape(t, rows)
}

// checkModesShape asserts the paper's shape of Figures 8 and 11 — online
// cheapest, naive most expensive — over what each mode evaluated, which
// repeats exactly; the wall-clock ratios are over ~1 ms baselines here and
// belong to `make bench-full`.
func checkModesShape(t *testing.T, rows []ModesRow) {
	t.Helper()
	for _, row := range rows {
		// Layered evaluation of the full capture sees exactly the records
		// the online query saw live.
		if row.OnlineFacts <= 0 || row.LayeredFacts != row.OnlineFacts {
			t.Errorf("%s/%s: online evaluated %d, layered %d: want equal and > 0", row.Query, row.Analytic, row.OnlineFacts, row.LayeredFacts)
		}
		// Naive materialises the whole provenance graph before evaluating.
		if !row.NaiveDNF && (row.NaiveFacts < row.OnlineFacts || row.NaiveDBBytes <= 0) {
			t.Errorf("%s/%s: naive materialised %d facts (%d bytes), online evaluated %d: want naive >= online",
				row.Query, row.Analytic, row.NaiveFacts, row.NaiveDBBytes, row.OnlineFacts)
		}
		if math.IsNaN(row.OnlineX) || math.IsNaN(row.LayeredX) {
			t.Errorf("%s/%s: missing overheads", row.Query, row.Analytic)
		}
	}
}

func TestFig9Shape(t *testing.T) {
	r, _ := tiny(t)
	rows, err := r.Fig9()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 { // 3 feature counts x 2 queries
		t.Fatalf("rows = %d", len(rows))
	}
	for _, row := range rows {
		if row.OnlineX <= 0 || math.IsNaN(row.OnlineX) {
			t.Errorf("%s %s: overhead %v", row.Variant, row.Query, row.OnlineX)
		}
	}
}

func TestTables5And6Shapes(t *testing.T) {
	r, _ := tiny(t)
	t5, err := r.Table5()
	if err != nil {
		t.Fatal(err)
	}
	if len(t5) != 1 {
		t.Fatalf("t5 rows = %d", len(t5))
	}
	// Optimized PageRank loses a little rank mass: MedianB <= MedianA, and
	// the relative error stays small.
	if t5[0].MedianB > t5[0].MedianA+1e-9 {
		t.Errorf("PageRank medians: B %.4f should be <= A %.4f", t5[0].MedianB, t5[0].MedianA)
	}
	if t5[0].Error > 0.3 {
		t.Errorf("PageRank relative error %.3f too large", t5[0].Error)
	}
	t6, err := r.Table6()
	if err != nil {
		t.Fatal(err)
	}
	// SSSP approximation can only lengthen paths: MedianB >= MedianA.
	if t6[0].MedianB < t6[0].MedianA-1e-9 {
		t.Errorf("SSSP medians: B %.4f should be >= A %.4f", t6[0].MedianB, t6[0].MedianA)
	}
	if t6[0].Error > 0.2 {
		t.Errorf("SSSP relative error %.3f too large", t6[0].Error)
	}
	wcc, err := r.Fig10WCC()
	if err != nil {
		t.Fatal(err)
	}
	// The paper reports 0.9 label disagreement on its web crawls. The
	// effect depends on crawl-order ID locality dominating connectivity:
	// our scaled-down stand-ins are much denser (hub shortcuts repair the
	// suppressed updates), so here we only assert the measurement ran; the
	// deterministic demonstration of the unsafe optimization lives in
	// analytics.TestApproximateWCCUnsafe (chain topology), and the
	// discrepancy is recorded in EXPERIMENTS.md.
	if wcc[0].Error < 0 || wcc[0].Error > 1 {
		t.Errorf("WCC disagreement %.2f out of range", wcc[0].Error)
	}
}

func TestFig11And12Shapes(t *testing.T) {
	r, _ := tiny(t)
	f11, err := r.Fig11()
	if err != nil {
		t.Fatal(err)
	}
	if len(f11) != 3 {
		t.Fatalf("fig11 rows = %d", len(f11))
	}
	checkModesShape(t, f11)
	f12, err := r.Fig12()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range f12 {
		// Paper: the trace over custom provenance "contains the exact same
		// information".
		if row.TraceSize == 0 || row.CustomTraceSize != row.TraceSize {
			t.Errorf("%s/%s: trace sizes full %d, custom %d: want equal and > 0", row.Dataset, row.Analytic, row.TraceSize, row.CustomTraceSize)
		}
		// Paper shape: custom-provenance tracing beats full-provenance
		// tracing — it reads a smaller store and evaluates no more records.
		if row.CustomBytes >= row.FullBytes {
			t.Errorf("%s/%s: custom capture holds %d bytes, full %d: want custom < full", row.Dataset, row.Analytic, row.CustomBytes, row.FullBytes)
		}
		if row.CustomFacts <= 0 || row.CustomFacts > row.FullFacts {
			t.Errorf("%s/%s: custom trace evaluated %d, full %d: want 0 < custom <= full", row.Dataset, row.Analytic, row.CustomFacts, row.FullFacts)
		}
	}
}

func TestALSCapture(t *testing.T) {
	r, _ := tiny(t)
	res, err := r.ALSCapture(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if !res.FailedNoSpill {
		t.Error("ALS full capture should exceed the tight budget without spill")
	}
	if res.SpilledLayers == 0 {
		t.Error("ALS capture with spill should offload layers")
	}
}

func TestHelpers(t *testing.T) {
	if got := trimmedMean([]time.Duration{10, 100, 1000}); got != 100 {
		t.Errorf("trimmedMean = %v", got)
	}
	if got := trimmedMean([]time.Duration{10, 30}); got != 20 {
		t.Errorf("mean of two = %v", got)
	}
	if gbLike(2<<30) != "2.0GB" || gbLike(5<<20) != "5.0MB" || gbLike(512) != "0.5KB" {
		t.Errorf("gbLike wrong: %s %s %s", gbLike(2<<30), gbLike(5<<20), gbLike(512))
	}
	if !math.IsNaN(overhead(time.Second, 0)) {
		t.Error("overhead of zero baseline should be NaN")
	}
}
