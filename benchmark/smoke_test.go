package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestSmoke runs every workload at smoke-test size through both passes and
// asserts on checks, metric names, span hygiene and which layers a workload
// touches — counts only, never wall-clock, so it is deterministic.
func TestSmoke(t *testing.T) {
	spec, err := readSpec(filepath.Join("..", specFile))
	if err != nil {
		t.Fatal(err)
	}
	named := map[string]bool{}
	for _, m := range spec.PerLayer {
		named[m.Name] = true
	}

	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			out := t.TempDir()
			cfg := config{seed: 1, small: true, out: out, scratch: filepath.Join(out, "work")}

			r, err := measure(w, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if r.failed != 0 || r.attempted < minJobs {
				t.Errorf("untraced: %d of %d jobs failed", r.failed, r.attempted)
			}
			for _, m := range spec.EndToEnd {
				if r.metrics[m.Name] <= 0 {
					t.Errorf("end-to-end metric %s = %v, want > 0", m.Name, r.metrics[m.Name])
				}
			}

			tr, err := measureTraced(w, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if tr.failed != 0 {
				t.Errorf("traced: %d of %d jobs failed", tr.failed, tr.attempted)
			}
			for k := range tr.metrics {
				if !named[k] {
					t.Errorf("per-layer metric %s is not named in %s", k, specFile)
				}
			}
			for k, v := range r.counts {
				if tr.counts[k] != v {
					t.Errorf("count %s: untraced run %d, traced run %d", k, v, tr.counts[k])
				}
			}

			spans := readSpans(t, filepath.Join(out, "trace."+w.name+".json"))
			checkSpans(t, spans)
			layers := map[string]bool{}
			for _, s := range spans {
				layers[strings.SplitN(s.Name, ".", 2)[0]] = true
			}
			want := map[kind][]string{
				kindBare:    {"engine"},
				kindOnline:  {"engine", "driver"},
				kindCapture: {"engine", "capture", "provenance"},
				kindLayered: {"driver", "provenance", "eval"},
				kindTCP:     {"engine", "transport"},
			}[w.kind]
			for _, l := range []string{"engine", "capture", "provenance", "driver", "eval", "transport"} {
				if has := slices.Contains(want, l); layers[l] != has {
					t.Errorf("spans of layer %s present = %v, want %v", l, layers[l], has)
				}
			}
			if calls := tr.metrics["transport.calls"]; (calls > 0) != (w.kind == kindTCP) {
				t.Errorf("transport.calls = %v", calls)
			}
			if w.kind == kindOnline && tr.metrics["driver.online_facts"] <= 0 {
				t.Errorf("driver.online_facts = %v", tr.metrics["driver.online_facts"])
			}
			if w.kind == kindCapture && (tr.metrics["capture.facts"] <= 0 || tr.metrics["provenance.disk_bytes"] <= 0) {
				t.Errorf("capture.facts = %v, provenance.disk_bytes = %v", tr.metrics["capture.facts"], tr.metrics["provenance.disk_bytes"])
			}
			if w.kind == kindLayered && tr.metrics["eval.tuples_out"] != float64(r.counts["tuples.neighbor_change"]+r.counts["tuples.problem"]) {
				t.Errorf("eval.tuples_out = %v, the layered job derived %v", tr.metrics["eval.tuples_out"], r.counts)
			}

			// Every set-up and spill directory is gone again.
			if left, err := os.ReadDir(cfg.scratch); err != nil || len(left) != 0 {
				t.Errorf("left in the scratch directory: %v (%v)", left, err)
			}
		})
	}
}

func readSpans(t *testing.T, path string) []span {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var spans []span
	if err := json.Unmarshal(data, &spans); err != nil {
		t.Fatal(err)
	}
	return spans
}

// checkSpans asserts every span has a name, an end not before its start, and
// a parent that exists, began no later and belongs to the same job.
func checkSpans(t *testing.T, spans []span) {
	t.Helper()
	for i, s := range spans {
		if s.ID != i+1 || s.Name == "" || s.End < s.Start {
			t.Errorf("malformed span %+v", s)
		}
		if s.Parent == 0 {
			continue
		}
		if s.Parent >= s.ID {
			t.Errorf("span %+v names a parent that does not precede it", s)
			continue
		}
		if p := spans[s.Parent-1]; p.Job != s.Job || p.Start > s.Start {
			t.Errorf("span %+v does not fit its parent %+v", s, p)
		}
	}
}

// TestSpecNamesWorkloads keeps BENCHMARK.json and the program's workload
// table in step.
func TestSpecNamesWorkloads(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", specFile))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%s names %d workloads, the program has %d", specFile, len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: %s names %q, the program %q", i, specFile, w.Name, workloads[i].name)
		}
	}
}

// TestCheckCountsMismatch: an output that differs from the first job's or the
// twin's is reported, which is what feeds `failed`.
func TestCheckCountsMismatch(t *testing.T) {
	first := &outcome{digest: 1, counts: map[string]int64{"msgs": 10, "tuples.problem": 2}}
	same := &outcome{digest: 1, counts: map[string]int64{"msgs": 10, "tuples.problem": 2}}
	online := &env{w: &workload{kind: kindOnline}}
	if bad := online.check(same, first, &outcome{digest: 1}); len(bad) != 0 {
		t.Errorf("identical output rejected: %v", bad)
	}
	if bad := online.check(same, first, &outcome{digest: 2}); len(bad) != 1 {
		t.Errorf("values differing from the bare twin's: got %v", bad)
	}
	if bad := online.check(&outcome{digest: 1, counts: map[string]int64{"msgs": 10, "tuples.problem": 3}}, first, &outcome{digest: 1}); len(bad) != 1 {
		t.Errorf("count differing from the first job's: got %v", bad)
	}
	layered := &env{w: &workload{kind: kindLayered}}
	if bad := layered.check(same, first, &outcome{counts: map[string]int64{"tuples.problem": 5}}); len(bad) != 1 {
		t.Errorf("tuple count differing from the online twin's: got %v", bad)
	}
	capture := &env{w: &workload{kind: kindCapture}}
	gaps := &outcome{digest: 1, counts: map[string]int64{"capture_gaps": 1}}
	if bad := capture.check(gaps, gaps, &outcome{digest: 1}); len(bad) != 1 {
		t.Errorf("capture gaps: got %v", bad)
	}
}

// TestCoveredIsAUnion: overlapping child spans, as concurrent transport calls
// produce, are not counted twice.
func TestCoveredIsAUnion(t *testing.T) {
	tr := &tracer{spans: []span{
		{ID: 1, Name: "engine.run", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "transport.exec", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "transport.exec", Start: 20, End: 50},
		{ID: 4, Parent: 1, Name: "transport.deliver", Start: 60, End: 70},
		{ID: 5, Parent: 1, Name: "capture.observe", Start: 0, End: 100},
		{ID: 6, Parent: 2, Name: "transport.exec", Start: 80, End: 90},
	}}
	secs, calls := tr.covered(1, "transport.exec", "transport.deliver")
	if want := 50e-9; secs != want || calls != 3 {
		t.Errorf("covered = %v s over %d calls, want %v s over 3", secs, calls, want)
	}
}
