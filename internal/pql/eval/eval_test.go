package eval

import (
	"strings"
	"testing"

	"ariadne/internal/pql"
	"ariadne/internal/pql/analysis"
	"ariadne/internal/value"
)

func mkEval(t *testing.T, src string, env *analysis.Env) (*Evaluator, *Database) {
	t.Helper()
	prog, err := pql.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	q, err := analysis.Analyze(prog, env)
	if err != nil {
		t.Fatal(err)
	}
	db := NewDatabase()
	e, err := NewEvaluator(q, db)
	if err != nil {
		t.Fatal(err)
	}
	return e, db
}

func ints(vs ...int64) Tuple {
	t := make(Tuple, len(vs))
	for i, v := range vs {
		t[i] = value.NewInt(v)
	}
	return t
}

func TestRelationBasics(t *testing.T) {
	r := NewRelation(2)
	if !r.Insert(ints(1, 2)) || r.Insert(ints(1, 2)) {
		t.Error("insert/dedup wrong")
	}
	// Int/float numeric identity.
	if r.Insert(Tuple{value.NewFloat(1), value.NewFloat(2)}) {
		t.Error("1.0,2.0 should dedup against 1,2")
	}
	r.Insert(ints(1, 3))
	r.Insert(ints(2, 3))
	if r.Len() != 3 {
		t.Fatalf("len = %d", r.Len())
	}
	got := r.Lookup([]int{0}, []value.Value{value.NewInt(1)})
	if len(got) != 2 {
		t.Errorf("lookup col0=1: %d tuples", len(got))
	}
	// Index maintained across later inserts.
	r.Insert(ints(1, 9))
	got = r.Lookup([]int{0}, []value.Value{value.NewInt(1)})
	if len(got) != 3 {
		t.Errorf("after insert, lookup col0=1: %d tuples", len(got))
	}
	if r.Delete(ints(1, 9)) != 1 || r.Delete(ints(1, 9)) != 0 {
		t.Error("delete wrong")
	}
	got = r.Lookup([]int{0}, []value.Value{value.NewInt(1)})
	if len(got) != 2 {
		t.Errorf("after delete, lookup: %d tuples", len(got))
	}
	if len(r.Sorted()) != 3 {
		t.Error("sorted wrong")
	}
}

func TestSimpleJoin(t *testing.T) {
	// Transitive one-hop: reach(X, Z) via two superstep-ish tables.
	env := analysis.NewEnv()
	env.DeclareEDB("p", 2)
	env.DeclareEDB("q", 2)
	e, _ := mkEval(t, `r(X, Z) :- p(X, Y), q(Y, Z).`, env)
	e.AddFact("p", ints(1, 2))
	e.AddFact("p", ints(1, 3))
	e.AddFact("q", ints(2, 10))
	e.AddFact("q", ints(3, 30))
	e.AddFact("q", ints(4, 40))
	if err := e.Fixpoint(); err != nil {
		t.Fatal(err)
	}
	res := e.Result("r")
	if res.Len() != 2 {
		t.Fatalf("r has %d tuples: %v", res.Len(), res.All())
	}
	if !res.Contains(ints(1, 10)) || !res.Contains(ints(1, 30)) {
		t.Errorf("r = %v", res.All())
	}
}

func TestRecursionTransitiveClosure(t *testing.T) {
	env := analysis.NewEnv()
	e, _ := mkEval(t, `
reach(X, Y) :- edge(X, Y).
reach(X, Z) :- reach(X, Y), edge(Y, Z).`, env)
	for _, ed := range [][2]int64{{1, 2}, {2, 3}, {3, 4}, {5, 6}} {
		e.AddFact("edge", ints(ed[0], ed[1]))
	}
	if err := e.Fixpoint(); err != nil {
		t.Fatal(err)
	}
	res := e.Result("reach")
	want := [][2]int64{{1, 2}, {2, 3}, {3, 4}, {5, 6}, {1, 3}, {2, 4}, {1, 4}}
	if res.Len() != len(want) {
		t.Fatalf("reach has %d tuples, want %d: %v", res.Len(), len(want), res.All())
	}
	for _, w := range want {
		if !res.Contains(ints(w[0], w[1])) {
			t.Errorf("missing reach(%d,%d)", w[0], w[1])
		}
	}
}

func TestIncrementalFixpoint(t *testing.T) {
	// Layered-style: facts arrive in batches; results accumulate.
	env := analysis.NewEnv()
	e, _ := mkEval(t, `
reach(X, Y) :- edge(X, Y).
reach(X, Z) :- reach(X, Y), edge(Y, Z).`, env)
	e.AddFact("edge", ints(1, 2))
	if err := e.Fixpoint(); err != nil {
		t.Fatal(err)
	}
	if e.Result("reach").Len() != 1 {
		t.Fatalf("after batch 1: %v", e.Result("reach").All())
	}
	e.AddFact("edge", ints(2, 3))
	if err := e.Fixpoint(); err != nil {
		t.Fatal(err)
	}
	res := e.Result("reach")
	if res.Len() != 3 || !res.Contains(ints(1, 3)) {
		t.Fatalf("after batch 2: %v", res.All())
	}
	// Duplicate fact: no new derivations.
	before := e.Stats().Derivations
	e.AddFact("edge", ints(2, 3))
	if err := e.Fixpoint(); err != nil {
		t.Fatal(err)
	}
	if e.Stats().Derivations != before {
		t.Error("duplicate facts must not rederive")
	}
}

func TestNegationStratified(t *testing.T) {
	env := analysis.NewEnv()
	env.DeclareEDB("node", 1)
	e, _ := mkEval(t, `
has_out(X) :- edge(X, Y).
sink(X) :- node(X), !has_out(X).`, env)
	e.AddFact("node", ints(1))
	e.AddFact("node", ints(2))
	e.AddFact("node", ints(3))
	e.AddFact("edge", ints(1, 2))
	e.AddFact("edge", ints(2, 3))
	if err := e.Fixpoint(); err != nil {
		t.Fatal(err)
	}
	res := e.Result("sink")
	if res.Len() != 1 || !res.Contains(ints(3)) {
		t.Errorf("sink = %v", res.All())
	}
}

func TestComparisonsAndArithmetic(t *testing.T) {
	env := analysis.NewEnv()
	env.DeclareEDB("n", 2)
	e, _ := mkEval(t, `
big(X, Y2) :- n(X, Y), Y > 10, Y2 = Y * 2 + 1.
mid(X) :- n(X, Y), Y >= 5, Y <= 10, Y != 7.`, env)
	e.AddFact("n", ints(1, 11))
	e.AddFact("n", ints(2, 5))
	e.AddFact("n", ints(3, 7))
	e.AddFact("n", ints(4, 10))
	if err := e.Fixpoint(); err != nil {
		t.Fatal(err)
	}
	if b := e.Result("big"); b.Len() != 1 || !b.Contains(ints(1, 23)) {
		t.Errorf("big = %v", b.All())
	}
	if m := e.Result("mid"); m.Len() != 2 || !m.Contains(ints(2)) || !m.Contains(ints(4)) {
		t.Errorf("mid = %v", m.All())
	}
}

func TestUDFInBody(t *testing.T) {
	env := analysis.NewEnv()
	env.DeclareEDB("pair", 3)
	env.SetParam("eps", value.NewFloat(0.5))
	e, _ := mkEval(t, `close(X) :- pair(X, A, B), udf_diff(A, B, $eps).`, env)
	add := func(x int64, a, b float64) {
		e.AddFact("pair", Tuple{value.NewInt(x), value.NewFloat(a), value.NewFloat(b)})
	}
	add(1, 1.0, 1.2)
	add(2, 1.0, 3.0)
	if err := e.Fixpoint(); err != nil {
		t.Fatal(err)
	}
	res := e.Result("close")
	if res.Len() != 1 || !res.Contains(ints(1)) {
		t.Errorf("close = %v", res.All())
	}
}

func TestCountDistinct(t *testing.T) {
	env := analysis.NewEnv()
	e, _ := mkEval(t, `in_degree(X, COUNT(Y)) :- edge(Y, X).`, env)
	e.AddFact("edge", ints(1, 9))
	e.AddFact("edge", ints(2, 9))
	e.AddFact("edge", ints(2, 9)) // duplicate fact
	e.AddFact("edge", ints(3, 8))
	if err := e.Fixpoint(); err != nil {
		t.Fatal(err)
	}
	res := e.Result("in_degree")
	if !res.Contains(ints(9, 2)) || !res.Contains(ints(8, 1)) {
		t.Errorf("in_degree = %v", res.All())
	}
	if res.Len() != 2 {
		t.Errorf("len = %d", res.Len())
	}
}

func TestAggregateReplacementAcrossBatches(t *testing.T) {
	env := analysis.NewEnv()
	e, _ := mkEval(t, `in_degree(X, COUNT(Y)) :- edge(Y, X).`, env)
	e.AddFact("edge", ints(1, 9))
	if err := e.Fixpoint(); err != nil {
		t.Fatal(err)
	}
	if !e.Result("in_degree").Contains(ints(9, 1)) {
		t.Fatalf("first batch: %v", e.Result("in_degree").All())
	}
	e.AddFact("edge", ints(2, 9))
	if err := e.Fixpoint(); err != nil {
		t.Fatal(err)
	}
	res := e.Result("in_degree")
	if res.Len() != 1 || !res.Contains(ints(9, 2)) {
		t.Errorf("after growth: %v (old tuple must be replaced)", res.All())
	}
}

func TestSumAvgMinMax(t *testing.T) {
	env := analysis.NewEnv()
	env.DeclareEDB("err", 3) // err(X, Y, E)
	e, _ := mkEval(t, `
sum_error(X, SUM(E)) :- err(X, Y, E).
avg_error(X, AVG(E)) :- err(X, Y, E).
min_error(X, MIN(E)) :- err(X, Y, E).
max_error(X, MAX(E)) :- err(X, Y, E).`, env)
	add := func(x, y int64, e2 float64) {
		e.AddFact("err", Tuple{value.NewInt(x), value.NewInt(y), value.NewFloat(e2)})
	}
	add(1, 1, 0.5)
	add(1, 2, 0.5) // same value, different neighbor: SUM must count both
	add(1, 3, 2.0)
	if err := e.Fixpoint(); err != nil {
		t.Fatal(err)
	}
	check := func(pred string, want float64) {
		t.Helper()
		res := e.Result(pred)
		if res.Len() != 1 {
			t.Fatalf("%s = %v", pred, res.All())
		}
		got := res.All()[0][1].Float()
		if got != want {
			t.Errorf("%s = %v, want %v", pred, got, want)
		}
	}
	check("sum_error", 3.0)
	check("avg_error", 1.0)
	check("min_error", 0.5)
	check("max_error", 2.0)
}

func TestAggregateConsumer(t *testing.T) {
	// Aggregate feeding arithmetic in a later stratum (paper Query 8 shape).
	env := analysis.NewEnv()
	env.DeclareEDB("e", 3)
	e, _ := mkEval(t, `
deg(X, COUNT(Y)) :- e(X, Y, V).
sum(X, SUM(V)) :- e(X, Y, V).
avg(X, S / D) :- sum(X, S), deg(X, D).`, env)
	add := func(x, y int64, v float64) {
		e.AddFact("e", Tuple{value.NewInt(x), value.NewInt(y), value.NewFloat(v)})
	}
	add(1, 1, 2)
	add(1, 2, 4)
	if err := e.Fixpoint(); err != nil {
		t.Fatal(err)
	}
	res := e.Result("avg")
	if res.Len() != 1 || res.All()[0][1].Float() != 3 {
		t.Errorf("avg = %v", res.All())
	}
}

func TestFactRule(t *testing.T) {
	env := analysis.NewEnv()
	env.DeclareEDB("q", 1)
	e, _ := mkEval(t, `
seed(7, 0).
hit(X) :- q(X), seed(X, S).`, env)
	e.AddFact("q", ints(7))
	e.AddFact("q", ints(8))
	if err := e.Fixpoint(); err != nil {
		t.Fatal(err)
	}
	if res := e.Result("hit"); res.Len() != 1 || !res.Contains(ints(7)) {
		t.Errorf("hit = %v", res.All())
	}
}

func TestWildcardMatch(t *testing.T) {
	env := analysis.NewEnv()
	env.DeclareEDB("m", 3)
	e, _ := mkEval(t, `got(X) :- m(X, _, _).`, env)
	e.AddFact("m", ints(1, 5, 6))
	e.AddFact("m", ints(1, 7, 8))
	if err := e.Fixpoint(); err != nil {
		t.Fatal(err)
	}
	if res := e.Result("got"); res.Len() != 1 || !res.Contains(ints(1)) {
		t.Errorf("got = %v", res.All())
	}
}

func TestRuntimeTypeError(t *testing.T) {
	env := analysis.NewEnv()
	env.DeclareEDB("s", 2)
	e, _ := mkEval(t, `bad(X, Y2) :- s(X, Y), Y2 = Y + 1.`, env)
	e.AddFact("s", Tuple{value.NewInt(1), value.NewString("oops")})
	if err := e.Fixpoint(); err == nil {
		t.Error("string + 1 should surface a runtime error")
	}
}

func TestApproxQueryEndToEnd(t *testing.T) {
	// The full apt query over hand-built provenance facts:
	// vertex 1 changes a lot at ss1; vertex 2 changes little; vertex 3
	// receives only from 2 (small updates) so it may skip ss2.
	env := analysis.NewEnv()
	env.SetParam("eps", value.NewFloat(0.1))
	src := `
change(X, I) :- value(X, D1, I), value(X, D2, J),
                evolution(X, J, I), udf_diff(D1, D2, $eps).
neighbor_change(X, I) :- receive_message(X, Y, M, I),
                         !change(Y, J), J = I - 1.
no_execute(X, I) :- !neighbor_change(X, I), superstep(X, I).
safe(X, I) :- no_execute(X, I), change(X, I).
unsafe(X, I) :- no_execute(X, I), !change(X, I).
`
	e, _ := mkEval(t, src, env)
	f := func(pred string, vals ...any) {
		tup := make(Tuple, len(vals))
		for i, v := range vals {
			switch v := v.(type) {
			case int:
				tup[i] = value.NewInt(int64(v))
			case float64:
				tup[i] = value.NewFloat(v)
			}
		}
		e.AddFact(pred, tup)
	}
	// Superstep 0: all three vertices active with initial values.
	f("superstep", 1, 0)
	f("superstep", 2, 0)
	f("superstep", 3, 0)
	f("value", 1, 1.0, 0)
	f("value", 2, 1.0, 0)
	f("value", 3, 1.0, 0)
	// Superstep 1: 1 changes a lot, 2 changes little; both message 3.
	f("superstep", 1, 1)
	f("superstep", 2, 1)
	f("value", 1, 5.0, 1)
	f("value", 2, 1.01, 1)
	f("evolution", 1, 0, 1)
	f("evolution", 2, 0, 1)
	// Superstep 2: vertex 3 receives from 2 only (small update).
	f("superstep", 3, 2)
	f("value", 3, 1.005, 2)
	f("evolution", 3, 0, 2)
	f("receive_message", 3, 2, 1.01, 2)
	if err := e.Fixpoint(); err != nil {
		t.Fatal(err)
	}
	// change(2,1) holds (small change); change(1,1) does not.
	if !e.Result("change").Contains(ints(2, 1)) {
		t.Errorf("change = %v", e.Result("change").All())
	}
	if e.Result("change").Contains(ints(1, 1)) {
		t.Error("vertex 1's large update must not be in change")
	}
	// Vertex 3 at ss2: no neighbor with large updates -> no_execute; its own
	// change was small -> safe.
	if !e.Result("no_execute").Contains(ints(3, 2)) {
		t.Errorf("no_execute = %v", e.Result("no_execute").All())
	}
	if !e.Result("safe").Contains(ints(3, 2)) {
		t.Errorf("safe = %v", e.Result("safe").All())
	}
	if e.Result("unsafe").Contains(ints(3, 2)) {
		t.Error("vertex 3 should not be unsafe")
	}
}

func TestPlanRejectsMultipleAggregates(t *testing.T) {
	prog, err := pql.Parse(`two(X, COUNT(Y), SUM(Y)) :- edge(X, Y).`)
	if err != nil {
		t.Fatal(err)
	}
	q, err := analysis.Analyze(prog, analysis.NewEnv())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewEvaluator(q, NewDatabase()); err == nil ||
		!strings.Contains(err.Error(), "at most one aggregate") {
		t.Errorf("want multi-aggregate rejection, got %v", err)
	}
}

func TestTupleKeyNumericIdentity(t *testing.T) {
	a := Tuple{value.NewInt(3), value.NewString("x")}
	b := Tuple{value.NewFloat(3), value.NewString("x")}
	if a.Key() != b.Key() {
		t.Error("3 and 3.0 must share a tuple key")
	}
	if a.String() != "(3, x)" {
		t.Errorf("String = %q", a.String())
	}
}
