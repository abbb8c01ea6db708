package eval

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"ariadne/internal/engine"
	"ariadne/internal/pql/analysis"
	"ariadne/internal/value"
)

// TestRecordPassKeepsRuleMajorOrder pins what the record pass must keep of
// a rule-major pass. Rules 1 and 2 derive one head and share their
// prov_error scan; inside vertex 0's record rule 2 derives h(0, 1, 0)
// first (its fact with E = -1 comes first), yet rule 1, which a rule-major
// pass runs first, must own it. Rule 3 shares the scan too and fails at
// vertex 2, the middle vertex; rules 1 and 2 must still derive past it.
// Insertion order, each rule's emissions and the error are checked against
// a literal rule-major expectation, on Layer and through ObservePartition
// and MergePartitions at 1 and 3 partitions.
func TestRecordPassKeepsRuleMajorOrder(t *testing.T) {
	const src = `h(X, Y, I) :- prov_error(X, Y, E, I), E > 0.
h(X, Y, I) :- prov_error(X, Y, E, I), E < 10.
g(X, Y, I) :- prov_error(X, Y, E, I), boom(Y) = true.`
	env := analysis.NewEnv()
	env.DeclareEDB("prov_error", 4)
	env.Funcs["boom"] = analysis.Func{Arity: 1, Fn: func(a []value.Value) (value.Value, error) {
		if a[0].Int() == 99 {
			return value.NullValue, fmt.Errorf("peer 99 fails")
		}
		return value.NewBool(true), nil
	}}
	rec := func(v int64, facts ...[2]float64) RecordView {
		rv := RecordView{Vertex: v, HasValue: true, Value: value.NewFloat(0), PrevActive: -1}
		var s engine.FactStore
		for _, f := range facts {
			s.Emit("prov_error", value.NewInt(int64(f[0])), value.NewFloat(f[1]))
		}
		rv.Emitted = s.EndRecord()
		return rv
	}
	layer := []RecordView{
		rec(0, [2]float64{1, -1}, [2]float64{1, 3}),
		rec(1, [2]float64{2, 5}),
		rec(2, [2]float64{3, 20}, [2]float64{99, 4}),
		rec(3, [2]float64{4, 50}),
		rec(4, [2]float64{5, -2}),
	}
	// Rule-major: rule 1 over every record, then rule 2 (only h(4, 5, 0) is
	// new), then rule 3 up to its failure at vertex 2's second fact.
	wantH := []string{"(0, 1, 0)", "(1, 2, 0)", "(2, 3, 0)", "(2, 99, 0)", "(3, 4, 0)", "(4, 5, 0)"}
	wantG := []string{"(0, 1, 0)", "(1, 2, 0)", "(2, 3, 0)"}
	wantEmitted := []int64{5, 5, 4}
	const wantErr = "pql: 3:39: boom: peer 99 fails"

	legs := []struct {
		name string
		run  func(c *Compiled) error
	}{
		{"Layer", func(c *Compiled) error { return c.Layer(layer) }},
		{"partitions=1", func(c *Compiled) error { return partitionLeg(c, [][]RecordView{layer}, 1, nil) }},
		{"partitions=3", func(c *Compiled) error { return partitionLeg(c, [][]RecordView{layer}, 3, nil) }},
	}
	for _, leg := range legs {
		t.Run(leg.name, func(t *testing.T) {
			db := NewDatabase()
			c, err := Compile(analysis.MustAnalyze(src, env), db, newFakeGraph(5, nil))
			if err != nil {
				t.Fatal(err)
			}
			if tr := c.rules[0].trie; tr == nil || !tr.shared || len(tr.rules) != 3 || tr.buffered == nil {
				t.Fatalf("the three rules must run as one trie sharing the prov_error scan, h buffered")
			}
			if err := leg.run(c); err == nil || err.Error() != wantErr {
				t.Fatalf("error %v, want %q", err, wantErr)
			}
			for _, rel := range []struct {
				pred string
				want []string
			}{{"h", wantH}, {"g", wantG}} {
				var got []string
				for _, tu := range db.Get(rel.pred).All() {
					got = append(got, tu.String())
				}
				if !slices.Equal(got, rel.want) {
					t.Errorf("%s in insertion order %v, want %v", rel.pred, got, rel.want)
				}
			}
			for i, r := range c.rules {
				if r.emitted != wantEmitted[i] {
					t.Errorf("rule %d emitted %d, want %d", i+1, r.emitted, wantEmitted[i])
				}
			}
		})
	}
}

// TestRecordPassSplitsWideStrata runs a stratum of more record rules than
// one trie holds (its live set is one word): 66 rules of one head sharing
// their value scan become a trie of 64 and one of 2, and every path still
// agrees with the oracle and the materialised evaluator.
func TestRecordPassSplitsWideStrata(t *testing.T) {
	var src strings.Builder
	for k := 0; k < maxTrieRules+2; k++ {
		fmt.Fprintf(&src, "h(X, I) :- value(X, D, I), D > %d.\n", k)
	}
	c, err := Compile(analysis.MustAnalyze(src.String(), analysis.NewEnv()), NewDatabase(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(c.units[0]); n != 2 || len(c.units[0][0].trie.rules) != maxTrieRules || !c.units[0][0].trie.shared {
		t.Fatalf("%d units, want a shared trie of %d rules and one of 2", n, maxTrieRules)
	}
	var layers [][]RecordView
	for ss := int64(0); ss < 2; ss++ {
		var l []RecordView
		for v := int64(0); v < 10; v++ {
			l = append(l, RecordView{Vertex: v, Superstep: ss, HasValue: true,
				Value: value.NewFloat(float64((v*7 + ss*3) % 70)), PrevActive: ss - 1})
		}
		layers = append(layers, l)
	}
	runAllPaths(t, src.String(), analysis.NewEnv(), newFakeGraph(10, nil), layers)
}

// TestRecordPassCutEndsOnlyItsBranch: Query 7's algo_failed rules share
// their prov_prediction probe, which is both rules' cut step. Each rule must
// emit once per error fact, as alone — its first completion ends its own
// enumeration of the probe's rows and not its sibling's, which goes on to
// the later rows.
func TestRecordPassCutEndsOnlyItsBranch(t *testing.T) {
	const src = `a(X, Y, I) :- prov_error(X, Y, E, I), prov_prediction(X, Y, P, I), P < 0.
a(X, Y, I) :- prov_error(X, Y, E, I), prov_prediction(X, Y, P, I), P > 5.`
	env := analysis.NewEnv()
	env.DeclareEDB("prov_error", 4)
	env.DeclareEDB("prov_prediction", 4)
	fact := func(table string, y int64, v float64) testFact {
		return testFact{table, []value.Value{value.NewInt(y), value.NewFloat(v)}}
	}
	rv := RecordView{Vertex: 0, HasValue: true, Value: value.NewFloat(0), PrevActive: -1, Emitted: emitFacts(&engine.FactStore{},
		fact("prov_prediction", 1, -1), fact("prov_prediction", 1, -2), fact("prov_prediction", 1, 7),
		fact("prov_prediction", 1, 8), fact("prov_error", 1, 0.5), fact("prov_error", 1, 0.25),
	)}
	c, err := Compile(analysis.MustAnalyze(src, env), NewDatabase(), newFakeGraph(1, nil))
	if err != nil {
		t.Fatal(err)
	}
	if tr := c.rules[0].trie; !tr.shared || tr.prog.steps[1].cutMask != 3 {
		t.Fatal("the two rules must share their prov_prediction probe as their cut step")
	}
	if err := c.Layer([]RecordView{rv}); err != nil {
		t.Fatal(err)
	}
	// Per error fact, rule 1 stops at P = -1 and rule 2 at P = 7.
	for i, r := range c.rules {
		if r.emitted != 2 {
			t.Errorf("rule %d emitted %d, want 2 (one per error fact)", i+1, r.emitted)
		}
	}
}
