package bench

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"ariadne"
	"ariadne/internal/analytics"
	"ariadne/internal/driver"
	"ariadne/internal/gen"
	"ariadne/internal/graph"
	"ariadne/internal/provenance"
	"ariadne/internal/queries"
)

// --- Table 2: dataset characteristics ---

// Table2Row mirrors the paper's Table 2.
type Table2Row struct {
	Name        string
	V, E        int
	AvgDegree   float64
	AvgDiameter float64
}

// Table2 reports the stand-in datasets' characteristics.
func (r *Runner) Table2() ([]Table2Row, error) {
	fmt.Fprintf(r.cfg.out(), "\nTable 2: Dataset characteristics (stand-ins)\n%-8s %10s %12s %10s %12s\n", "Dataset", "|V|", "|E|", "AvgDeg", "AvgDiam")
	var rows []Table2Row
	for _, d := range r.datasets() {
		g, err := r.graph(d)
		if err != nil {
			return nil, err
		}
		st := graph.ComputeStats(g, 8, d.Seed)
		row := Table2Row{Name: d.Name, V: st.NumVertices, E: st.NumEdges, AvgDegree: st.AvgDegree, AvgDiameter: st.AvgDiameter}
		rows = append(rows, row)
		fmt.Fprintf(r.cfg.out(), "%-8s %10d %12d %10.2f %12.2f\n", row.Name, row.V, row.E, row.AvgDegree, row.AvgDiameter)
	}
	ml, err := gen.MLDataset(r.cfg.SizeFactor)
	if err != nil {
		return nil, err
	}
	st := graph.ComputeStats(ml.Graph, 0, 0)
	row := Table2Row{Name: "ML-20", V: st.NumVertices, E: st.NumEdges, AvgDegree: st.AvgDegree, AvgDiameter: 1}
	rows = append(rows, row)
	fmt.Fprintf(r.cfg.out(), "%-8s %10d %12d %10.2f %12.2f\n", row.Name, row.V, row.E, row.AvgDegree, row.AvgDiameter)
	return rows, nil
}

// --- Tables 3 & 4: provenance graph sizes ---

// SizeRow is one dataset row of Table 3 or 4.
type SizeRow struct {
	Dataset    string
	InputBytes int64
	// Bytes maps analytic name to captured provenance bytes.
	Bytes map[string]int64
	// Ratio maps analytic name to provenance/input size ratio.
	Ratio map[string]float64
	// Coverage maps analytic name to the fraction of input vertices in the
	// custom provenance (Table 4 reports >80%).
	Coverage map[string]float64
}

// Table3 captures the full provenance graph (Query 2) for every analytic
// and dataset and compares sizes against the input graph.
func (r *Runner) Table3() ([]SizeRow, error) {
	fmt.Fprintf(r.cfg.out(), "\nTable 3: Full provenance graph size vs input\n%-8s %10s %14s %14s %14s\n", "Dataset", "Input", "PageRank", "SSSP", "WCC")
	return r.sizeTable(false)
}

// Table4 captures the custom (forward-lineage, Query 3) provenance graph.
func (r *Runner) Table4() ([]SizeRow, error) {
	fmt.Fprintf(r.cfg.out(), "\nTable 4: Custom provenance graph size vs input (forward lineage)\n%-8s %10s %14s %14s %14s\n", "Dataset", "Input", "PageRank", "SSSP", "WCC")
	return r.sizeTable(true)
}

func (r *Runner) sizeTable(custom bool) ([]SizeRow, error) {
	var rows []SizeRow
	for _, d := range r.datasets() {
		specs, err := r.analyticsFor(d)
		if err != nil {
			return nil, err
		}
		row := SizeRow{Dataset: d.Name, Bytes: map[string]int64{}, Ratio: map[string]float64{}, Coverage: map[string]float64{}}
		row.InputBytes = specs[0].g.MemSize()
		for _, spec := range specs {
			def := queries.CaptureFull()
			if custom {
				// Paper: source vertex for SSSP, highest-degree for the rest.
				src := graph.VertexID(0)
				if spec.name != "SSSP" {
					src = graph.HighestDegreeVertex(spec.g)
				}
				def = queries.CaptureForwardLineage(src)
			}
			opts := append([]ariadne.Option{ariadne.WithCaptureQuery(def, provenance.StoreConfig{})}, spec.opts...)
			_, res, err := r.timeRun(spec.g, spec.prog, opts...)
			if err != nil {
				return nil, err
			}
			row.Bytes[spec.name] = res.Provenance.TotalBytes()
			row.Ratio[spec.name] = float64(res.Provenance.TotalBytes()) / float64(spec.g.MemSize())
			row.Coverage[spec.name] = float64(res.Provenance.DistinctVertices()) / float64(spec.g.NumVertices())
		}
		rows = append(rows, row)
		fmt.Fprintf(r.cfg.out(), "%-8s %10s %9s %.1fx %9s %.1fx %9s %.1fx\n",
			row.Dataset, gbLike(row.InputBytes),
			gbLike(row.Bytes["PageRank"]), row.Ratio["PageRank"],
			gbLike(row.Bytes["SSSP"]), row.Ratio["SSSP"],
			gbLike(row.Bytes["WCC"]), row.Ratio["WCC"])
	}
	return rows, nil
}

// --- Figure 7: capture runtime, full vs custom ---

// CaptureTimeRow is one (dataset, analytic) bar pair of Figure 7.
type CaptureTimeRow struct {
	Dataset, Analytic string
	Baseline          time.Duration
	FullX, CustomX    float64
	// Captured volume of the two policies: deterministic, unlike the times.
	FullTuples, CustomTuples int64
	FullBytes, CustomBytes   int64
}

// Fig7 measures the runtime overhead of full (Query 2) versus custom
// (Query 3) capture over the bare analytic.
func (r *Runner) Fig7() ([]CaptureTimeRow, error) {
	fmt.Fprintf(r.cfg.out(), "\nFigure 7: Capture runtime overhead (x baseline)\n%-8s %-9s %12s %8s %8s\n", "Dataset", "Analytic", "Baseline", "Full", "Custom")
	var rows []CaptureTimeRow
	for _, d := range r.datasets() {
		specs, err := r.analyticsFor(d)
		if err != nil {
			return nil, err
		}
		for _, spec := range specs {
			base, _, err := r.timeRun(spec.g, spec.prog, spec.opts...)
			if err != nil {
				return nil, err
			}
			fullT, fullRes, err := r.timeRun(spec.g, spec.prog,
				append([]ariadne.Option{ariadne.WithCaptureQuery(queries.CaptureFull(), provenance.StoreConfig{})}, spec.opts...)...)
			if err != nil {
				return nil, err
			}
			src := graph.VertexID(0)
			if spec.name != "SSSP" {
				src = graph.HighestDegreeVertex(spec.g)
			}
			custT, custRes, err := r.timeRun(spec.g, spec.prog,
				append([]ariadne.Option{ariadne.WithCaptureQuery(queries.CaptureForwardLineage(src), provenance.StoreConfig{})}, spec.opts...)...)
			if err != nil {
				return nil, err
			}
			row := CaptureTimeRow{
				Dataset: d.Name, Analytic: spec.name, Baseline: base,
				FullX: overhead(fullT, base), CustomX: overhead(custT, base),
				FullTuples: fullRes.Provenance.TotalTuples(), CustomTuples: custRes.Provenance.TotalTuples(),
				FullBytes: fullRes.Provenance.TotalBytes(), CustomBytes: custRes.Provenance.TotalBytes(),
			}
			rows = append(rows, row)
			fmt.Fprintf(r.cfg.out(), "%-8s %-9s %12v %7.2fx %7.2fx\n", row.Dataset, row.Analytic, row.Baseline.Round(time.Millisecond), row.FullX, row.CustomX)
		}
	}
	return rows, nil
}

// --- Figures 8 and 11: query runtime across evaluation modes ---

// ModesRow is one bar group: a query on an analytic and dataset, with the
// overhead of each evaluation mode over the bare analytic.
type ModesRow struct {
	Query, Dataset, Analytic  string
	Baseline                  time.Duration
	OnlineX, LayeredX, NaiveX float64
	NaiveDNF                  bool
	// What each mode evaluated (Result.Facts: EDB facts fed, or records on
	// the compiled path) and the bytes naive evaluation held in its
	// database: deterministic, unlike the times.
	OnlineFacts, LayeredFacts, NaiveFacts int64
	NaiveDBBytes                          int64
}

// monitoringQueries maps each analytic to its §6.2.1 monitoring queries.
func monitoringQueries(analytic string) []queries.Definition {
	switch analytic {
	case "PageRank":
		return []queries.Definition{queries.PageRankCheck()}
	default: // SSSP, WCC
		return []queries.Definition{queries.MonotoneCheck(), queries.SilentChange()}
	}
}

// Fig8 measures the execution-monitoring queries (Queries 4, 5, 6) under
// Online, Layered, and Naive evaluation.
func (r *Runner) Fig8() ([]ModesRow, error) {
	fmt.Fprintf(r.cfg.out(), "\nFigure 8: Execution monitoring queries (x baseline)\n%-22s %-8s %-9s %8s %8s %8s\n", "Query", "Dataset", "Analytic", "Online", "Layered", "Naive")
	queryPick := func(a string) []queries.Definition { return monitoringQueries(a) }
	return r.modesExperiment(queryPick)
}

// Fig11 measures the motivating apt query (Query 1) under all modes.
func (r *Runner) Fig11() ([]ModesRow, error) {
	fmt.Fprintf(r.cfg.out(), "\nFigure 11: apt query (Query 1) (x baseline)\n%-22s %-8s %-9s %8s %8s %8s\n", "Query", "Dataset", "Analytic", "Online", "Layered", "Naive")
	eps := map[string]float64{"PageRank": 0.01, "SSSP": 0.1, "WCC": 1}
	queryPick := func(a string) []queries.Definition {
		return []queries.Definition{queries.Apt(eps[a], nil)}
	}
	return r.modesExperiment(queryPick)
}

func (r *Runner) modesExperiment(queryPick func(analytic string) []queries.Definition) ([]ModesRow, error) {
	var rows []ModesRow
	for _, d := range r.datasets() {
		specs, err := r.analyticsFor(d)
		if err != nil {
			return nil, err
		}
		for _, spec := range specs {
			base, _, err := r.timeRun(spec.g, spec.prog, spec.opts...)
			if err != nil {
				return nil, err
			}
			// One full capture per (dataset, analytic), reused by the
			// offline modes of every query. Captured provenance goes to
			// disk (the HDFS stand-in): offline querying pays the cost of
			// reading it back, as in the paper; online querying never does.
			spillDir, err := os.MkdirTemp("", "ariadne-bench-*")
			if err != nil {
				return nil, err
			}
			_, capRes, err := r.timeRun(spec.g, spec.prog,
				append([]ariadne.Option{ariadne.WithCaptureQuery(queries.CaptureFull(),
					provenance.StoreConfig{SpillDir: spillDir, SpillAll: true})}, spec.opts...)...)
			if err != nil {
				os.RemoveAll(spillDir)
				return nil, err
			}
			store := capRes.Provenance
			cleanup := func() {
				store.Close()
				os.RemoveAll(spillDir)
			}
			for _, def := range queryPick(spec.name) {
				row := ModesRow{Query: def.Name, Dataset: d.Name, Analytic: spec.name, Baseline: base}

				onT, onRes, err := r.timeRun(spec.g, spec.prog,
					append([]ariadne.Option{ariadne.WithOnlineQuery(def)}, spec.opts...)...)
				if err != nil {
					cleanup()
					return nil, err
				}
				row.OnlineX = overhead(onT, base)
				row.OnlineFacts = onRes.Query(def.Name).Facts

				start := time.Now()
				layered, err := ariadne.QueryOffline(def, store, spec.g, ariadne.ModeLayered, 0)
				if err != nil {
					cleanup()
					return nil, err
				}
				row.LayeredX = overhead(time.Since(start), base)
				row.LayeredFacts = layered.Facts

				start = time.Now()
				naiveRes, err := ariadne.QueryOffline(def, store, spec.g, ariadne.ModeNaive, r.cfg.naiveBudget())
				switch {
				case errors.Is(err, driver.ErrNaiveBudget):
					row.NaiveDNF = true
					row.NaiveX = math.NaN()
				case err != nil:
					cleanup()
					return nil, err
				default:
					row.NaiveX = overhead(time.Since(start), base)
					row.NaiveFacts, row.NaiveDBBytes = naiveRes.Facts, naiveRes.DBBytes()
				}

				rows = append(rows, row)
				naive := fmt.Sprintf("%7.2fx", row.NaiveX)
				if row.NaiveDNF {
					naive = "    DNF"
				}
				fmt.Fprintf(r.cfg.out(), "%-22s %-8s %-9s %7.2fx %7.2fx %s\n", row.Query, row.Dataset, row.Analytic, row.OnlineX, row.LayeredX, naive)
			}
			cleanup()
		}
	}
	return rows, nil
}

// --- Figure 9: ALS monitoring queries ---

// ALSRow is one bar of Figure 9.
type ALSRow struct {
	Variant  string // ML-20^5, ML-20^10, ML-20^15
	Query    string
	Baseline time.Duration
	OnlineX  float64
}

// Fig9 measures Queries 7 and 8 online over ALS with 5, 10, and 15
// features (the paper's ML-20^5..ML-20^15 variants).
func (r *Runner) Fig9() ([]ALSRow, error) {
	fmt.Fprintf(r.cfg.out(), "\nFigure 9: ALS monitoring queries (x baseline, online)\n%-10s %-24s %12s %8s\n", "Variant", "Query", "Baseline", "Online")
	ml, err := gen.MLDataset(r.cfg.SizeFactor)
	if err != nil {
		return nil, err
	}
	var rows []ALSRow
	for _, k := range []int{5, 10, 15} {
		prog := func() ariadne.Program {
			return &analytics.ALS{NumUsers: ml.NumUsers, Features: k, Seed: 7}
		}
		opts := []ariadne.Option{ariadne.WithMaxSupersteps(10)}
		base, _, err := r.timeRun(ml.Graph, prog, opts...)
		if err != nil {
			return nil, err
		}
		for _, def := range []queries.Definition{queries.ALSRangeCheck(), queries.ALSErrorIncrease(0.5)} {
			onT, _, err := r.timeRun(ml.Graph, prog,
				append([]ariadne.Option{ariadne.WithOnlineQuery(def)}, opts...)...)
			if err != nil {
				return nil, err
			}
			row := ALSRow{
				Variant: fmt.Sprintf("ML-20^%d", k), Query: def.Name,
				Baseline: base, OnlineX: overhead(onT, base),
			}
			rows = append(rows, row)
			fmt.Fprintf(r.cfg.out(), "%-10s %-24s %12v %7.2fx\n", row.Variant, row.Query, row.Baseline.Round(time.Millisecond), row.OnlineX)
		}
	}
	return rows, nil
}

// --- Figure 10 and Tables 5, 6: the approximate optimization ---

// ApproxRow is one dataset row of Table 5/6 plus its Figure 10 speedup bar.
type ApproxRow struct {
	Dataset  string
	Error    float64
	MedianA  float64 // original analytic
	MedianB  float64 // optimized analytic
	Speedup  float64
	Analytic string
}

// Table5 runs original versus optimized (delta) PageRank at ε=0.01.
func (r *Runner) Table5() ([]ApproxRow, error) {
	fmt.Fprintf(r.cfg.out(), "\nTable 5 + Fig 10 (left): PageRank approximate optimization (eps=0.01)\n%-8s %12s %10s %10s %9s\n", "Dataset", "Error(L2)", "MedianA", "MedianB", "Speedup")
	var rows []ApproxRow
	n := r.cfg.supersteps()
	for _, d := range r.datasets() {
		g, err := r.graph(d)
		if err != nil {
			return nil, err
		}
		baseT, baseRes, err := r.timeRun(g, func() ariadne.Program { return &analytics.PageRank{Iterations: n} }, ariadne.WithMaxSupersteps(n+1))
		if err != nil {
			return nil, err
		}
		optT, optRes, err := r.timeRun(g, func() ariadne.Program { return &analytics.DeltaPageRank{Epsilon: 0.01} }, ariadne.WithMaxSupersteps(n+1))
		if err != nil {
			return nil, err
		}
		row := ApproxRow{
			Dataset: d.Name, Analytic: "PageRank",
			Error:   lpRelativeError(baseRes.Values, optRes.Values, 2),
			MedianA: medianFloat(baseRes.Values, false),
			MedianB: medianFloat(optRes.Values, false),
			Speedup: overhead(baseT, optT),
		}
		rows = append(rows, row)
		fmt.Fprintf(r.cfg.out(), "%-8s %12.1e %10.3f %10.3f %8.2fx\n", row.Dataset, row.Error, row.MedianA, row.MedianB, row.Speedup)
	}
	return rows, nil
}

// Table6 runs original versus optimized SSSP at ε=0.1.
func (r *Runner) Table6() ([]ApproxRow, error) {
	fmt.Fprintf(r.cfg.out(), "\nTable 6 + Fig 10 (right): SSSP approximate optimization (eps=0.1)\n%-8s %12s %10s %10s %9s\n", "Dataset", "Error(L1)", "MedianA", "MedianB", "Speedup")
	var rows []ApproxRow
	for _, d := range r.datasets() {
		g, err := r.graph(d)
		if err != nil {
			return nil, err
		}
		baseT, baseRes, err := r.timeRun(g, func() ariadne.Program { return &analytics.SSSP{Source: 0} })
		if err != nil {
			return nil, err
		}
		optT, optRes, err := r.timeRun(g, func() ariadne.Program {
			apt, err := analytics.NewApproximate(&analytics.SSSP{Source: 0}, analytics.AbsDiff, 0.1)
			if err != nil {
				panic(err)
			}
			return apt
		})
		if err != nil {
			return nil, err
		}
		row := ApproxRow{
			Dataset: d.Name, Analytic: "SSSP",
			Error:   lpRelativeError(baseRes.Values, optRes.Values, 1),
			MedianA: medianFloat(baseRes.Values, true),
			MedianB: medianFloat(optRes.Values, true),
			Speedup: overhead(baseT, optT),
		}
		rows = append(rows, row)
		fmt.Fprintf(r.cfg.out(), "%-8s %12.1e %10.3f %10.3f %8.2fx\n", row.Dataset, row.Error, row.MedianA, row.MedianB, row.Speedup)
	}
	return rows, nil
}

// Fig10WCC runs the deliberately *unsafe* WCC optimization (ε=1): the apt
// query predicts it is unsafe, and the measured label disagreement (~0.9 in
// the paper) confirms it.
func (r *Runner) Fig10WCC() ([]ApproxRow, error) {
	fmt.Fprintf(r.cfg.out(), "\nWCC \"optimized\" run (unsafe per apt query; error is label disagreement)\n%-8s %12s\n", "Dataset", "Error")
	var rows []ApproxRow
	for _, d := range r.datasets() {
		u, err := r.undirected(d)
		if err != nil {
			return nil, err
		}
		_, baseRes, err := r.timeRun(u, func() ariadne.Program { return analytics.WCC{} })
		if err != nil {
			return nil, err
		}
		_, optRes, err := r.timeRun(u, func() ariadne.Program {
			apt, err := analytics.NewApproximate(analytics.WCC{}, analytics.AbsDiff, 1)
			if err != nil {
				panic(err)
			}
			return apt
		})
		if err != nil {
			return nil, err
		}
		row := ApproxRow{
			Dataset: d.Name, Analytic: "WCC",
			Error: labelDisagreement(baseRes.Values, optRes.Values),
		}
		rows = append(rows, row)
		fmt.Fprintf(r.cfg.out(), "%-8s %12.2f\n", row.Dataset, row.Error)
	}
	return rows, nil
}

// --- Figure 12: backward lineage, full vs custom provenance ---

// BackwardRow is one (dataset, analytic) bar pair of Figure 12.
type BackwardRow struct {
	Dataset, Analytic string
	Baseline          time.Duration
	FullX, CustomX    float64
	// TraceSize is the number of provenance nodes in the backward trace
	// over full provenance; CustomTraceSize the same over custom provenance
	// (identical per the paper).
	TraceSize, CustomTraceSize int
	// Stored bytes of each capture and the layered Facts each trace
	// evaluated: deterministic, unlike the times.
	FullBytes, CustomBytes int64
	FullFacts, CustomFacts int64
}

// Fig12 measures layered backward tracing (Query 10 on full provenance vs
// Query 12 on Query 11's custom provenance).
func (r *Runner) Fig12() ([]BackwardRow, error) {
	fmt.Fprintf(r.cfg.out(), "\nFigure 12: Backward lineage, layered (x baseline)\n%-8s %-9s %12s %8s %8s %10s\n", "Dataset", "Analytic", "Baseline", "Full", "Custom", "TraceSize")
	var rows []BackwardRow
	for _, d := range r.datasets() {
		specs, err := r.analyticsFor(d)
		if err != nil {
			return nil, err
		}
		for _, spec := range specs {
			base, _, err := r.timeRun(spec.g, spec.prog, spec.opts...)
			if err != nil {
				return nil, err
			}
			// Full capture to disk (the HDFS stand-in); the trace starts at a
			// vertex active in the last superstep.
			spillDir, err := os.MkdirTemp("", "ariadne-bench-*")
			if err != nil {
				return nil, err
			}
			defer os.RemoveAll(spillDir)
			_, fullRes, err := r.timeRun(spec.g, spec.prog,
				append([]ariadne.Option{ariadne.WithCaptureQuery(queries.CaptureFull(),
					provenance.StoreConfig{SpillDir: spillDir, SpillAll: true})}, spec.opts...)...)
			if err != nil {
				return nil, err
			}
			fullStore := fullRes.Provenance
			defer fullStore.Close()
			last, err := fullStore.Layer(fullStore.NumLayers() - 1)
			if err != nil {
				return nil, err
			}
			if len(last.Records) == 0 {
				return nil, fmt.Errorf("bench: no vertex active in last superstep of %s/%s", d.Name, spec.name)
			}
			alpha, sigma := last.Records[0].Vertex, last.Superstep

			start := time.Now()
			q10, err := ariadne.QueryOffline(queries.BackwardTrace(alpha, sigma), fullStore, spec.g, ariadne.ModeLayered, 0)
			if err != nil {
				return nil, err
			}
			fullT := time.Since(start)

			custDir, err := os.MkdirTemp("", "ariadne-bench-*")
			if err != nil {
				return nil, err
			}
			defer os.RemoveAll(custDir)
			_, custRes, err := r.timeRun(spec.g, spec.prog,
				append([]ariadne.Option{ariadne.WithCaptureQuery(queries.CaptureBackwardCustom(),
					provenance.StoreConfig{SpillDir: custDir, SpillAll: true})}, spec.opts...)...)
			if err != nil {
				return nil, err
			}
			defer custRes.Provenance.Close()
			start = time.Now()
			q12, err := ariadne.QueryOffline(queries.BackwardTraceCustom(alpha, sigma), custRes.Provenance, spec.g, ariadne.ModeLayered, 0)
			if err != nil {
				return nil, err
			}
			custT := time.Since(start)

			row := BackwardRow{
				Dataset: d.Name, Analytic: spec.name, Baseline: base,
				FullX: overhead(fullT, base), CustomX: overhead(custT, base),
				TraceSize:       q10.Relation("back_trace").Len(),
				CustomTraceSize: q12.Relation("back_trace").Len(),
				FullBytes:       fullStore.TotalBytes(),
				CustomBytes:     custRes.Provenance.TotalBytes(),
				FullFacts:       q10.Facts,
				CustomFacts:     q12.Facts,
			}
			if row.CustomTraceSize != row.TraceSize {
				fmt.Fprintf(r.cfg.out(), "WARNING: %s/%s trace sizes differ: full=%d custom=%d\n", d.Name, spec.name, row.TraceSize, row.CustomTraceSize)
			}
			rows = append(rows, row)
			fmt.Fprintf(r.cfg.out(), "%-8s %-9s %12v %7.2fx %7.2fx %10d\n", row.Dataset, row.Analytic, row.Baseline.Round(time.Millisecond), row.FullX, row.CustomX, row.TraceSize)
		}
	}
	return rows, nil
}

// --- §6.1 ALS capture blow-up ---

// ALSCaptureResult describes the ALS full-capture outcome under a budget.
type ALSCaptureResult struct {
	BudgetBytes   int64
	FailedNoSpill bool
	SpilledLayers int
	TotalBytes    int64
	// SpilledLayers4MB is the spilling run's count under the 4 MB budget it
	// ran under through layer format v3, kept so the row compares with its
	// earlier measurements.
	SpilledLayers4MB int
}

// ALSCapture reproduces §6.1's ALS observation: full provenance capture for
// ALS (vector values, per-edge messages) blows past a memory budget; with a
// spill directory it survives, under the same budget, by offloading layers.
func (r *Runner) ALSCapture(spillDir string) (*ALSCaptureResult, error) {
	ml, err := gen.MLDataset(r.cfg.SizeFactor)
	if err != nil {
		return nil, err
	}
	prog := func() ariadne.Program {
		return &analytics.ALS{NumUsers: ml.NumUsers, Features: 10, Seed: 7}
	}
	budget := int64(1 << 20)
	out := &ALSCaptureResult{BudgetBytes: budget}

	_, _, err = r.timeRun(ml.Graph, prog, ariadne.WithMaxSupersteps(8),
		ariadne.WithCapture(ariadne.CapturePolicy{Values: true, Sends: true, Recvs: true, Emitted: []string{"*"}},
			provenance.StoreConfig{MemoryBudget: budget}))
	out.FailedNoSpill = errors.Is(err, provenance.ErrBudgetExceeded)
	if err != nil && !out.FailedNoSpill {
		return nil, err
	}

	if spillDir != "" {
		for _, b := range []int64{budget, 4 << 20} {
			dir := filepath.Join(spillDir, gbLike(b))
			if err := os.MkdirAll(dir, 0o755); err != nil {
				return nil, err
			}
			_, res, err := r.timeRun(ml.Graph, prog, ariadne.WithMaxSupersteps(8),
				ariadne.WithCapture(ariadne.CapturePolicy{Values: true, Sends: true, Recvs: true, Emitted: []string{"*"}},
					provenance.StoreConfig{MemoryBudget: b, SpillDir: dir}))
			if err != nil {
				return nil, err
			}
			if b == budget {
				out.SpilledLayers = res.Provenance.SpilledLayers()
				out.TotalBytes = res.Provenance.TotalBytes()
			} else {
				out.SpilledLayers4MB = res.Provenance.SpilledLayers()
			}
			if err := res.Provenance.Close(); err != nil {
				return nil, err
			}
		}
	}
	fmt.Fprintf(r.cfg.out(), "\nALS full capture (§6.1): budget=%s failed-without-spill=%v spilled-layers=%d (at 4.0MB: %d) total=%s\n",
		gbLike(out.BudgetBytes), out.FailedNoSpill, out.SpilledLayers, out.SpilledLayers4MB, gbLike(out.TotalBytes))
	return out, nil
}
