package analysis

import (
	"strings"
	"testing"

	"ariadne/internal/pql"
	"ariadne/internal/value"
)

func analyze(t *testing.T, src string, env *Env) *Query {
	t.Helper()
	prog, err := pql.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	q, err := Analyze(prog, env)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func analyzeErr(t *testing.T, src string, env *Env, wantSub string) {
	t.Helper()
	prog, err := pql.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Analyze(prog, env); err == nil {
		t.Errorf("Analyze(%q) should fail with %q", src, wantSub)
	} else if !strings.Contains(err.Error(), wantSub) {
		t.Errorf("Analyze(%q) error %q, want substring %q", src, err, wantSub)
	}
}

const aptSrc = `
change(X, I) :- value(X, D1, I), value(X, D2, J),
                evolution(X, J, I), udf_diff(D1, D2, $eps).
neighbor_change(X, I) :- receive_message(X, Y, M, I),
                         !change(Y, J), J = I - 1.
no_execute(X, I) :- !neighbor_change(X, I), superstep(X, I).
safe(X, I) :- no_execute(X, I), change(X, I).
unsafe(X, I) :- no_execute(X, I), !change(X, I).
`

func aptEnv() *Env {
	env := NewEnv()
	env.SetParam("eps", value.NewFloat(0.01))
	return env
}

func TestAnalyzeAptQuery(t *testing.T) {
	q := analyze(t, aptSrc, aptEnv())
	if q.Class != Forward {
		t.Errorf("apt query class = %v, want forward", q.Class)
	}
	if !q.VCCompatible {
		t.Error("apt query should be VC-compatible")
	}
	if !q.Class.OnlineEvaluable() {
		t.Error("forward queries must be online-evaluable")
	}
	// change must come before neighbor_change (negated) which must come
	// before no_execute, etc.
	if !(q.StratumOf["change"] < q.StratumOf["neighbor_change"]) {
		t.Errorf("strata: change=%d neighbor_change=%d", q.StratumOf["change"], q.StratumOf["neighbor_change"])
	}
	if !(q.StratumOf["neighbor_change"] < q.StratumOf["no_execute"]) {
		t.Error("no_execute must follow neighbor_change")
	}
	if !(q.StratumOf["change"] < q.StratumOf["unsafe"]) {
		t.Error("unsafe negates change, so it must live in a later stratum")
	}
	if q.StratumOf["unsafe"] < q.StratumOf["no_execute"] {
		t.Error("unsafe must not precede no_execute")
	}
	// udf_diff literal rewritten to a comparison.
	found := false
	for _, lit := range q.Rules[0].Body {
		if c, ok := lit.(*pql.CmpLit); ok {
			if call, ok := c.L.(*pql.Call); ok && call.Name == "udf_diff" {
				found = true
			}
		}
	}
	if !found {
		t.Error("udf_diff should be rewritten to a comparison literal")
	}
}

func TestClassifyBackward(t *testing.T) {
	// Paper Query 10.
	src := `
back_trace(X, I) :- superstep(X, I), I = $sigma, X = $alpha.
back_trace(X, I) :- send_message(X, Y, M, I), back_trace(Y, J), J = I + 1.
back_lineage(X, D) :- back_trace(X, I), value(X, D, I), I = 0.
`
	env := NewEnv()
	env.SetParam("sigma", value.NewInt(5))
	env.SetParam("alpha", value.NewInt(0))
	q := analyze(t, src, env)
	if q.Class != Backward {
		t.Errorf("class = %v, want backward", q.Class)
	}
	if q.Class.OnlineEvaluable() {
		t.Error("backward queries must not be online-evaluable")
	}
	if !q.Class.LayeredEvaluable() {
		t.Error("backward queries must be layered-evaluable")
	}
	if !q.Recursive {
		t.Error("back_trace is recursive")
	}
}

func TestClassifyLocal(t *testing.T) {
	// Paper Query 5: only local predicates.
	src := `
check_failed(X, I) :- value(X, D1, I), value(X, D2, J),
                      evolution(X, I, J), receive_message(X, Y, M, I),
                      D1 <= D2.
`
	q := analyze(t, src, NewEnv())
	if q.Class != Local {
		t.Errorf("class = %v, want local", q.Class)
	}
	if !q.Class.OnlineEvaluable() || !q.Class.LayeredEvaluable() {
		t.Error("local queries support every mode")
	}
}

func TestClassifyMixed(t *testing.T) {
	// Rule R1 from §5.1: remote tables via both send and receive guards.
	src := `
t(X, I) :- value(X, D, I).
s(X, I) :- value(X, D, I).
r1(X, I) :- t(Y, I), receive_message(X, Y, M, I),
            s(Z, I), send_message(X, Z, M, I).
`
	q := analyze(t, src, NewEnv())
	if q.Class != Mixed {
		t.Errorf("class = %v, want mixed", q.Class)
	}
	if !q.VCCompatible {
		t.Error("R1 is VC-compatible (guarded), just not directed")
	}
	if q.Class.LayeredEvaluable() {
		t.Error("mixed queries must not be layered-evaluable")
	}
}

// TestClassifyBackwardWithEvolutionIsMixed: a backward query is evaluated
// walking the layers downward, so a rule joining a vertex's previous active
// superstep (evolution) would read a layer that walk has not reached — the
// compiled path would find no predecessor value and the materialised one
// would decide negations before the value arrives. Such a query is not
// directed and must run naive.
func TestClassifyBackwardWithEvolutionIsMixed(t *testing.T) {
	src := `
back_trace(X, I) :- superstep(X, I), I = 3, X = 0.
back_trace(X, I) :- send_message(X, Y, M, I), back_trace(Y, J), J = I + 1.
grew(X, I) :- value(X, D1, I), value(X, D2, J), evolution(X, J, I), D1 > D2.
`
	q := analyze(t, src, NewEnv())
	if q.Class != Mixed {
		t.Errorf("class = %v, want mixed", q.Class)
	}
	if q.Class.LayeredEvaluable() {
		t.Error("a backward query reading predecessor values must not be layered-evaluable")
	}
}

func TestClassifyNotVCCompatible(t *testing.T) {
	// Remote table with no message guard at all.
	src := `
t(X, D) :- value(X, D, I).
bad(X, D) :- superstep(X, I), t(Y, D).
`
	q := analyze(t, src, NewEnv())
	if q.VCCompatible {
		t.Error("unguarded remote predicate must not be VC-compatible")
	}
	if q.Class != Mixed {
		t.Errorf("class = %v, want mixed", q.Class)
	}
}

func TestStaticEDBExempt(t *testing.T) {
	// Paper Query 4: edge(Y, X) is static graph structure, not remote.
	src := `
in_degree(X, COUNT(Y)) :- edge(Y, X).
check_failed(X, Y, I) :- in_degree(X, D), receive_message(X, Y, M, I), D = 0.
`
	q := analyze(t, src, NewEnv())
	if q.Class != Local {
		t.Errorf("class = %v, want local (edge is static)", q.Class)
	}
}

func TestAggregateStratification(t *testing.T) {
	// Paper Query 8 shape.
	src := `
degree(X, COUNT(Y)) :- receive_message(X, Y, M, I).
sum_error(X, I, SUM(E)) :- prov_error(X, Y, E, I).
avg_error(X, I, S / D) :- sum_error(X, I, S), degree(X, D).
problem(X, E1, E2, I) :- avg_error(X, I, E1), avg_error(X, J, E2),
                         evolution(X, J, I), E1 > E2 + $eps.
`
	env := NewEnv()
	env.SetParam("eps", value.NewFloat(0.5))
	env.DeclareEDB("prov_error", 4)
	q := analyze(t, src, env)
	if !(q.StratumOf["degree"] < q.StratumOf["avg_error"]) {
		t.Error("aggregate rule must precede its consumers")
	}
	if q.Class != Local {
		t.Errorf("class = %v, want local", q.Class)
	}
	if _, ok := q.EDBs["prov_error"]; !ok {
		t.Error("prov_error should be tracked as an EDB")
	}
}

func TestAnalyzeErrors(t *testing.T) {
	env := NewEnv()
	env.SetParam("p", value.NewInt(1))
	cases := []struct{ src, want string }{
		{`value(X, D, I) :- superstep(X, I).`, "redefines a provenance EDB"},
		{`abs(X) :- superstep(X, I).`, "collides with a function"},
		{`p(X) :- superstep(X).`, "arity"},
		{`p(X) :- nosuch(X).`, "unknown predicate"},
		{`p(X, Y) :- superstep(X, I).`, "not bound"},
		{`p(X) :- superstep(X, I), !superstep(Y, I).`, "unsafe negation"},
		{`p(X) :- superstep(X, I), Y < I.`, "comparison is not bound"},
		{`p(X) :- superstep(X, I), udf_diff(I).`, "takes 3 arguments"},
		{`p(X) :- superstep(X, I), I = $nope.`, "unbound query parameter"},
		{`p(X, _) :- superstep(X, I).`, "wildcard not allowed in rule head"},
		{`p(X) :- superstep(X, I), q(X, 2).  q(X, I) :- superstep(X, I), !p(X).`, "not stratifiable"},
		{`p(X) :- superstep(X, I), nosuchfn(I) < 3.`, "unknown function"},
		{`p(X, I) :- superstep(X, I). p(X) :- superstep(X, I).`, "arity"},
	}
	for _, c := range cases {
		analyzeErr(t, c.src, env, c.want)
	}
}

func TestPositiveRecursionAllowed(t *testing.T) {
	// Paper Query 3 (fwd-lineage) is recursive but stratifiable.
	src := `
fwd_lineage(X, V, I) :- value(X, V, I), superstep(X, I), X = $alpha, I = 0.
fwd_lineage(X, V, I) :- receive_message(X, Y, M, I), fwd_lineage(Y, W, J),
                        value(X, V, I).
`
	env := NewEnv()
	env.SetParam("alpha", value.NewInt(7))
	q := analyze(t, src, env)
	if !q.Recursive {
		t.Error("fwd_lineage is recursive")
	}
	if q.Class != Forward {
		t.Errorf("class = %v, want forward", q.Class)
	}
}

func TestEnvHelpers(t *testing.T) {
	env := NewEnv()
	env.SetParam("x", value.NewInt(2))
	env.DeclareEDB("custom", 3)
	c := env.Clone()
	c.SetParam("x", value.NewInt(9))
	if env.Params["x"].Int() != 2 {
		t.Error("clone must not share params")
	}
	if a, ok := c.EDBArity("custom"); !ok || a != 3 {
		t.Error("clone must keep extra EDBs")
	}
	if a, ok := env.EDBArity("value"); !ok || a != 3 {
		t.Errorf("builtin value arity = %d %v", a, ok)
	}
	if _, ok := env.EDBArity("zzz"); ok {
		t.Error("unknown EDB should not resolve")
	}
}

func TestUDFDiffSemantics(t *testing.T) {
	env := NewEnv()
	fn := env.Funcs["udf_diff"]
	v, err := fn.Fn([]value.Value{value.NewFloat(1.0), value.NewFloat(1.005), value.NewFloat(0.01)})
	if err != nil || !v.Bool() {
		t.Errorf("small diff should be true: %v %v", v, err)
	}
	v, err = fn.Fn([]value.Value{value.NewFloat(1.0), value.NewFloat(2.0), value.NewFloat(0.01)})
	if err != nil || v.Bool() {
		t.Errorf("large diff should be false: %v %v", v, err)
	}
	// Euclidean override for ALS.
	env.SetDiffUDF(value.EuclideanDist)
	fn = env.Funcs["udf_diff"]
	v, err = fn.Fn([]value.Value{
		value.NewVector([]float64{0, 0}), value.NewVector([]float64{3, 4}), value.NewFloat(5),
	})
	if err != nil || !v.Bool() {
		t.Errorf("euclidean 5 <= 5 should be true: %v %v", v, err)
	}
}

func TestMustAnalyzePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustAnalyze should panic on bad query")
		}
	}()
	MustAnalyze(`p(X) :- nosuch(X).`, nil)
}
