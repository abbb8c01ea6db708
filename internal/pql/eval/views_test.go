package eval

import (
	"strings"
	"testing"

	"ariadne/internal/engine"
	"ariadne/internal/pql/analysis"
	"ariadne/internal/value"
)

// viewGraph has an in-edge-less vertex 5 and an out-edge-less vertex 4, and
// its layers deliver vertex 5 a stray message from vertex 0 at superstep 1.
func viewGraph() (*fakeGraph, [][]RecordView) {
	sg := newFakeGraph(6, [][2]int64{{0, 1}, {1, 2}, {2, 0}, {1, 3}, {3, 4}, {5, 0}, {0, 4}})
	var layers [][]RecordView
	for ss := int64(0); ss < 3; ss++ {
		var l []RecordView
		for v := int64(0); v < 6; v++ {
			rv := RecordView{Vertex: v, Superstep: ss, HasValue: true, Value: value.NewFloat(float64(v + ss)), PrevActive: ss - 1}
			if ss > 0 {
				for _, src := range sg.InNeighbors(v) {
					rv.Recvs = append(rv.Recvs, engine.IncomingMessage{Src: src, Val: value.NewFloat(1)})
				}
				if v == 5 && ss == 1 {
					rv.Recvs = append(rv.Recvs, engine.IncomingMessage{Src: 0, Val: value.NewFloat(0.5)})
				}
			}
			dst, _ := sg.OutNeighbors(v)
			rv.SentAny = len(dst) > 0
			l = append(l, rv)
		}
		layers = append(layers, l)
	}
	return sg, layers
}

// TestStaticViewPlanner pins which static rules become views: h(X) :-
// edge(Y, X) (or edge(X, Y)) as h's only rule, read only with X ground. A
// view reads as planner=view and its literals as degree tests; an unbound
// scan of the head, a second rule for it, or another body keeps it static
// and its literals relation lookups. Every program must derive on the
// compiled path what the oracle and the materialised evaluator do.
func TestStaticViewPlanner(t *testing.T) {
	cases := []struct {
		name, src, planner, probe string
	}{
		{"negated in-degree", `
h(X) :- edge(Y, X).
stray(X, Y, I) :- receive_message(X, Y, M, I), !h(X).`, "view", "not graph.in_degree key[0] !h(X)"},
		{"keyed out-degree", `
h(X) :- edge(X, _).
fed(X, I) :- superstep(X, I), h(X).`, "view", "graph.out_degree key[0]  h(X)"},
		{"peer probe", `
h(X) :- edge(Y, X).
from_orphan(X, Y, I) :- receive_message(X, Y, M, I), !h(Y).`, "view", "not graph.in_degree key[0] !h(Y)"},
		{"unbound scan", `
h(X) :- edge(Y, X).
any(X, I) :- superstep(X, I), h(Z).`, "static", "relation                 h(Z)"},
		{"second rule", `
h(X) :- edge(Y, X).
h(X) :- edge(X, Y).
stray(X, Y, I) :- receive_message(X, Y, M, I), !h(X).`, "static", "not relation             !h(X)"},
		{"self loop", `
h(X) :- edge(X, X).
stray(X, Y, I) :- receive_message(X, Y, M, I), !h(X).`, "static", "not relation             !h(X)"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			text, err := Explain(analysis.MustAnalyze(c.src, analysis.NewEnv()))
			if err != nil {
				t.Fatal(err)
			}
			head := strings.SplitN(text, "\n", 4)[2]
			if !strings.Contains(head, "planner="+c.planner+" ") {
				t.Errorf("head planned %q, want planner=%s:\n%s", head, c.planner, text)
			}
			if !strings.Contains(text, c.probe) {
				t.Errorf("no step %q:\n%s", c.probe, text)
			}
			sg, layers := viewGraph()
			runAllPaths(t, c.src, analysis.NewEnv(), sg, layers)
		})
	}
}

// TestStaticViewCounts: a view's head is derived at BeginRun exactly as the
// static rule derives it — the same tuples in the same order, one emission
// per edge, one derived tuple per vertex with an in-edge — and its degree
// probes find what the relation lookups find. The reference is the same rule
// with a filter that keeps it from being a view.
func TestStaticViewCounts(t *testing.T) {
	sg, layers := viewGraph()
	run := func(src string) (*Compiled, *Database) {
		t.Helper()
		db := NewDatabase()
		c, err := Compile(analysis.MustAnalyze(src, analysis.NewEnv()), db, sg)
		if err != nil {
			t.Fatal(err)
		}
		for _, l := range layers {
			if err := c.Layer(l); err != nil {
				t.Fatal(err)
			}
		}
		return c, db
	}
	const probe = "\nstray(X, Y, I) :- receive_message(X, Y, M, I), !h(X).\n"
	view, vdb := run("h(X) :- edge(Y, X)." + probe)
	static, sdb := run("h(X) :- edge(Y, X), Y = Y." + probe)
	if view.rules[0].view != rowsInDegree || static.rules[0].view != 0 {
		t.Fatal("the reference is a view, or the view is not")
	}
	if v, s := view.DerivedTuples(), static.DerivedTuples(); v != s {
		t.Errorf("derived %d tuples, the static rule %d", v, s)
	}
	if v, s := view.Stats().Emissions["h"], static.Stats().Emissions["h"]; v != s || v != 7 {
		t.Errorf("h emitted %d times, the static rule %d, want one per edge (7)", v, s)
	}
	if got, want := keysOf(vdb.Get("h")), keysOf(sdb.Get("h")); got != want || vdb.Get("h").Len() != 5 {
		t.Errorf("h %q, the static rule's %q (5 tuples)", got, want)
	}
	if got, want := keysOf(vdb.Get("stray")), keysOf(sdb.Get("stray")); got != want || vdb.Get("stray").Len() != 1 {
		t.Errorf("stray %q, the static rule's %q (one tuple)", got, want)
	}
}

// keysOf renders a relation's tuple keys in insertion order.
func keysOf(r *Relation) string {
	var b strings.Builder
	for _, t := range r.All() {
		b.WriteString(t.Key())
		b.WriteByte('|')
	}
	return b.String()
}
