package eval

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"ariadne/internal/engine"
	"ariadne/internal/pql"
	"ariadne/internal/pql/analysis"
	"ariadne/internal/queries"
	"ariadne/internal/value"
)

// TestRepeatedFreshVariableCompiles is the regression test for a
// record-shape refusal that surfaced at run time: an IDB atom repeating a
// variable it is the first to bind, p(Z, Z), was keyed on Z's second
// occurrence by a closure that found Z unbound only while evaluating —
// after the driver had committed to the compiled path. With boundness
// decided when the rule is lowered the first occurrence binds and the
// second compares, on every path.
func TestRepeatedFreshVariableCompiles(t *testing.T) {
	src := `
p(X, Y) :- receive_message(X, Y, M, I).
selfmsg(X, I) :- superstep(X, I), p(Z, Z).
`
	sg := newFakeGraph(3, [][2]int64{{0, 1}, {1, 1}, {1, 2}})
	rec := func(v, ss int64, peers ...int64) RecordView {
		rv := RecordView{Vertex: v, Superstep: ss, HasValue: true, Value: value.NewFloat(1), PrevActive: -1}
		for _, p := range peers {
			rv.Recvs = append(rv.Recvs, engine.IncomingMessage{Src: engine.VertexID(p), Val: value.NewFloat(2)})
		}
		return rv
	}
	layers := [][]RecordView{
		{rec(0, 0), rec(1, 0, 0, 1), rec(2, 0, 1)}, // vertex 1 hears from itself
		{rec(0, 1), rec(2, 1, 1)},
	}
	runAllPaths(t, src, analysis.NewEnv(), sg, layers)

	db := NewDatabase()
	c, err := Compile(analysis.MustAnalyze(src, analysis.NewEnv()), db, sg)
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range layers {
		if err := c.Layer(l); err != nil {
			t.Fatalf("compiled query failed at run time: %v", err)
		}
	}
	if n := db.Get("selfmsg").Len(); n != 5 {
		t.Errorf("selfmsg has %d tuples, want one per record (5)", n)
	}
}

// TestUngroundMatchRejectedUpFront: a complex argument that is not ground
// when its atom is matched used to fail mid-Fixpoint, once data reached the
// literal. Both constructors now reject the shape with a position: Compile
// materialises the rule the record planner refuses, and the bottom-up plan
// cannot lower it either.
func TestUngroundMatchRejectedUpFront(t *testing.T) {
	env := analysis.NewEnv()
	env.DeclareEDB("q", 2)
	_, err := NewEvaluator(analysis.MustAnalyze(`r(X) :- q(X, K + 1).`, env), NewDatabase())
	if err == nil || !strings.Contains(err.Error(), "pql: 1:") || !strings.Contains(err.Error(), "K") {
		t.Errorf("NewEvaluator = %v, want a positioned error naming K", err)
	}

	src := `
p(X, I) :- superstep(X, I).
r(X, I) :- superstep(X, I), p(X, K + I).
`
	_, err = Compile(analysis.MustAnalyze(src, analysis.NewEnv()), NewDatabase(), newFakeGraph(1, nil))
	if err == nil || !strings.Contains(err.Error(), "pql: 3:") || !strings.Contains(err.Error(), "K") {
		t.Errorf("Compile = %v, want a positioned error naming K", err)
	}
}

// fuzzEnv binds every parameter and emitted table the seed programs use.
func fuzzEnv() *analysis.Env {
	env := analysis.NewEnv()
	env.SetParam("eps", value.NewFloat(0.5))
	env.SetParam("alpha", value.NewInt(0))
	env.SetParam("source", value.NewInt(0))
	env.SetParam("sigma", value.NewInt(3))
	env.DeclareEDB("prov_error", 4)
	env.DeclareEDB("prov_prediction", 4)
	return env
}

// fuzzBases are the programs random rules are appended to: none, every
// committed query definition, and testdata/*.pql.
func fuzzBases(tb testing.TB) []string {
	bases := []string{""}
	for _, def := range []queries.Definition{
		queries.Apt(0.5, nil), queries.CaptureFull(), queries.CaptureForwardLineage(0),
		queries.PageRankCheck(), queries.MonotoneCheck(), queries.SilentChange(),
		queries.ALSRangeCheck(), queries.ALSErrorIncrease(0.5), queries.BackwardTrace(0, 3),
		queries.CaptureBackwardCustom(), queries.NetGap(), queries.BackwardTraceCustom(0, 3),
	} {
		bases = append(bases, def.Source)
	}
	files, err := filepath.Glob("../../../testdata/*.pql")
	if err != nil || len(files) == 0 {
		tb.Fatalf("no testdata/*.pql seeds: %v", err)
	}
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			tb.Fatal(err)
		}
		bases = append(bases, string(b))
	}
	return bases
}

// genRules writes n random rules, heads g0..gn-1. Most are record rules:
// anchored at X, deriving for the current superstep I, and reading an
// earlier head only at (X, I), at a receive-guarded peer in the same
// superstep, or at such a peer in an earlier one — the forward discipline
// under which per-record and bottom-up evaluation coincide. Some of them
// get a sibling: a second rule of the same head whose body begins with the
// same literals and differs in its filters, Query 7's shape; some sibling
// pairs derive a wide head g(X, V, I), which Compile makes record-scoped
// unless a later rule reads it (as g(X, _, I), or g(X, X, I) negated). The
// rest are
// global rules, over earlier heads only, and static rules, over edges and
// comparisons only. Some record-shaped rules take a shape the record
// planner refuses, so Compile materialises them: an aggregate head (COUNT,
// SUM, MIN or MAX) over a record literal, a negated record literal, a
// record literal off the head's location variable, or a read of a global
// head. Those and the wide heads draw on shapes alone, so a program without
// them is the one rng alone would write. Safety and stratification are left
// to the analysis, which rejects some of the output.
func genRules(rng, shapes *rand.Rand, n int) string {
	pick := func(xs ...string) string { return xs[rng.Intn(len(xs))] }
	var b strings.Builder
	var readable []int // heads a record rule may read: not global
	var globals []int  // global heads, which a record rule reads only materialised
	wide := map[int]bool{}
	// at reads head g at location x and superstep i.
	at := func(g int, neg bool, x, i string) string {
		switch {
		case !wide[g] && neg:
			return fmt.Sprintf("!g%d(%s, %s)", g, x, i)
		case !wide[g]:
			return fmt.Sprintf("g%d(%s, %s)", g, x, i)
		case neg: // a negation is ground
			return fmt.Sprintf("!g%d(%s, %s, %s)", g, x, x, i)
		}
		return fmt.Sprintf("g%d(%s, _, %s)", g, x, i)
	}
	for k := 0; k < n; k++ {
		head := fmt.Sprintf("g%d(X, I)", k)
		switch {
		case k > 0 && rng.Intn(6) == 0:
			var g [8]int
			for i := range g {
				g[i] = rng.Intn(k)
			}
			fmt.Fprintf(&b, "%s :- %s.\n", head, pick(
				at(g[0], false, "X", "I")+", "+at(g[1], false, "X", "I"),
				at(g[2], false, "X", "I")+", "+at(g[3], false, "Y", "I")+", Y != X",
				at(g[4], false, "X", "J")+", "+at(g[5], false, "X", "I")+", J < I",
				at(g[6], false, "X", "I")+", "+at(g[7], true, "X", "I")))
			globals = append(globals, k)
			continue
		case rng.Intn(10) == 0:
			fmt.Fprintf(&b, "%s :- %s.\n", head, pick("edge(X, Y), I = 0", "edge(Y, X), I = Y mod 2", "edge(X, Y), X < Y, I = 1"))
			readable = append(readable, k)
			continue
		}
		var body []string
		vars := []string{"I"} // numeric variables bound so far, besides X
		peer := false
		for i, atoms := 0, 1+rng.Intn(3); i < atoms; i++ {
			if shapes.Intn(8) == 0 {
				// Shapes the record planner refuses: a negated record literal,
				// one off the location variable, a global head's tuples.
				pick := func(xs ...string) string { return xs[shapes.Intn(len(xs))] }
				switch r := shapes.Intn(3); {
				case r == 0:
					body = append(body, "superstep(X, I)", pick("!prov_send(X, I)", "!value(X, 1.5, I)", "!evolution(X, 0, I)"))
				case r == 1:
					body = append(body, "receive_message(X, Y, M, I)", pick("superstep(Y, I)", "value(Y, D3, I)", "!prov_send(Y, I)"))
					vars, peer = append(vars, "Y", "M"), true
				case len(globals) > 0:
					body = append(body, at(globals[shapes.Intn(len(globals))], false, "X", "I"), "superstep(X, I)")
				default:
					body = append(body, "superstep(X, I)")
				}
				continue
			}
			switch rng.Intn(10) {
			case 0:
				body = append(body, "superstep(X, I)")
			case 1:
				body = append(body, "value(X, D, I)")
				vars = append(vars, "D")
			case 2:
				body = append(body, "value(X, D, I)", "value(X, D2, J)", "evolution(X, J, I)")
				vars = append(vars, "D", "D2", "J")
			case 3:
				body = append(body, "receive_message(X, Y, M, I)")
				vars, peer = append(vars, "Y", "M"), true
			case 7:
				body = append(body, "send_message(X, Y, M, I)")
				vars = append(vars, "Y", "M")
			case 4:
				body = append(body, "prov_send(X, I)")
			case 5:
				body = append(body, "prov_error(X, Y, E, I)", pick("prov_prediction(X, Y, P, I)", "edge_value(X, Y, W, _)", "superstep(X, I)"))
				vars = append(vars, "Y", "E")
			case 6:
				body = append(body, "edge(Y, X)", "superstep(X, I)")
				vars, peer = append(vars, "Y"), true
			case 8:
				body = append(body, "edge(X, Y)", "superstep(X, I)")
				vars = append(vars, "Y")
			default:
				if len(readable) == 0 {
					body = append(body, "superstep(X, I)")
					break
				}
				g := readable[rng.Intn(len(readable))]
				switch {
				case peer && rng.Intn(2) == 0:
					body = append(body, at(g, false, "Y", "J2"), pick("J2 < I", "J2 = I - 1"), "superstep(X, I)")
				case peer:
					body = append(body, at(g, pick("", "!") == "!", "Y", "I"), "superstep(X, I)")
				default:
					body = append(body, at(g, pick("", "!") == "!", "X", "I"), "superstep(X, I)")
				}
			}
		}
		filters := func() []string {
			var fs []string
			for i, n := 0, rng.Intn(3); i < n; i++ {
				v := vars[rng.Intn(len(vars))]
				switch rng.Intn(6) {
				case 4: // a run-time type error when v is a float (D, M, E)
					fs = append(fs, fmt.Sprintf("R = %s mod 2", v), "R = 0")
				case 0:
					fs = append(fs, fmt.Sprintf("%s %s %d", v, pick("<", "<=", ">", ">=", "!=", "="), rng.Intn(4)))
				case 1:
					fs = append(fs, fmt.Sprintf("abs(%s - %d) %s 1.5", v, rng.Intn(4), pick("<", ">")))
				case 2:
					fs = append(fs, fmt.Sprintf("%s %s %s", v, pick("<", "!=", ">="), vars[rng.Intn(len(vars))]))
				case 3:
					fs = append(fs, fmt.Sprintf("T = %s * 2 + 1", v), "T > 2")
				default:
					if len(vars) > 1 {
						fs = append(fs, pick("!receive_message(X, V, M2, I)", "!send_message(X, V, 0.5, I)"), "M2 = 1.0", "V = "+v)
					}
				}
			}
			return fs
		}
		rng.Shuffle(len(body), func(i, j int) { body[i], body[j] = body[j], body[i] })
		if rng.Intn(3) == 0 {
			// A sibling: the same literals, then its own filter on the same
			// variable, as Query 7's W < 0 / W > 5.
			v := vars[rng.Intn(len(vars))]
			if shapes.Intn(2) == 0 {
				head, wide[k] = fmt.Sprintf("g%d(X, %s, I)", k, v), true
			}
			for _, op := range []string{"<", ">"} {
				rule := append(slices.Clone(body), fmt.Sprintf("%s %s %d", v, op, rng.Intn(4)))
				fmt.Fprintf(&b, "%s :- %s.\n", head, strings.Join(append(rule, filters()...), ", "))
			}
			readable = append(readable, k)
			continue
		}
		body = append(body, filters()...)
		rng.Shuffle(len(body), func(i, j int) { body[i], body[j] = body[j], body[i] })
		switch {
		case rng.Intn(8) == 0 && peer:
			head = fmt.Sprintf("g%d(X, COUNT(%s))", k, vars[len(vars)-1])
		case shapes.Intn(8) == 0:
			head = fmt.Sprintf("g%d(X, %s(%s))", k, []string{"SUM", "MIN", "MAX"}[shapes.Intn(3)], vars[shapes.Intn(len(vars))])
		}
		fmt.Fprintf(&b, "%s :- %s.\n", head, strings.Join(body, ", "))
		readable = append(readable, k)
	}
	return b.String()
}

// TestGeneratedRulesReachEveryLeg runs the fuzz target's generator over a
// fixed seed range and checks it has teeth: most programs must survive the
// analysis, a good share must reach the three-way comparison with tuples to
// compare, a real share of those must have a rule that takes a cut, a good
// share of the compiled programs must run some stratum in-partition, a real
// share must compile with a record pass that shares a prefix and with a
// global rule, some must have a non-recursive barrier stratum of two or
// more record rules (which run one rule to a trie), and each shape the
// record planner refuses (an aggregate head of each kind, a negated or
// off-location record literal, a read of a global head) must be drawn and
// materialised.
func TestGeneratedRulesReachEveryLeg(t *testing.T) {
	for k := range lowerOutcomes {
		delete(lowerOutcomes, k)
	}
	bases := fuzzBases(t)
	const n = 400
	for seed := int64(0); seed < n; seed++ {
		rng, shapes := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(^seed))
		src := bases[int(seed)%len(bases)] + "\n" + genRules(rng, shapes, 1+rng.Intn(4))
		build := func() (*analysis.Query, error) {
			prog, err := pql.Parse(src)
			if err != nil {
				t.Fatalf("generated program does not parse: %v\n%s", err, src)
			}
			return analysis.Analyze(prog, fuzzEnv())
		}
		sg, layers := testGraphAndLayers(seed)
		if err := checkLowering(build, sg, layers); err != nil {
			t.Fatalf("seed %d: %v\nprogram:\n%s", seed, err, src)
		}
	}
	t.Logf("outcomes over %d programs: %v", n, lowerOutcomes)
	if lowerOutcomes["analysis rejected"] > n/2 {
		t.Errorf("the analysis rejected %d of %d generated programs", lowerOutcomes["analysis rejected"], n)
	}
	if lowerOutcomes["three-way"] < n/5 || lowerOutcomes["three-way tuples"] < 10*n {
		t.Errorf("only %d of %d programs (%d tuples) reached the three-way comparison",
			lowerOutcomes["three-way"], n, lowerOutcomes["three-way tuples"])
	}
	if lowerOutcomes["in-partition strata"] < n/5 {
		t.Errorf("only %d of %d programs ran a stratum in-partition", lowerOutcomes["in-partition strata"], n)
	}
	if lowerOutcomes["three-way with a cut"] < n/10 {
		t.Errorf("only %d of %d programs reached the three-way comparison with a rule that takes a cut",
			lowerOutcomes["three-way with a cut"], n)
	}
	for _, o := range []string{"compiled with a shared prefix", "compiled with a global rule"} {
		if lowerOutcomes[o] < n/10 {
			t.Errorf("only %d of %d programs %s", lowerOutcomes[o], n, o)
		}
	}
	for _, path := range []string{"probe fact cursor", "probe fact index", "probe edge cursor", "probe re-seek",
		"dedup record-scoped", "dedup record-keyed", "dedup shard set"} {
		if lowerOutcomes[path] < n/100 {
			t.Errorf("only %d of %d programs reached %s", lowerOutcomes[path], n, path)
		}
	}
	if lowerOutcomes["compiled with a split barrier stratum"] < n/100 {
		t.Errorf("only %d of %d programs have a non-recursive barrier stratum of two or more record rules",
			lowerOutcomes["compiled with a split barrier stratum"], n)
	}
	for _, shape := range []string{"aggregate COUNT", "aggregate SUM", "aggregate MIN", "aggregate MAX",
		"negated record literal", "off-location record literal", "global read"} {
		if lowerOutcomes["materialised "+shape] < n/100 {
			t.Errorf("only %d generated rules materialised for a %s", lowerOutcomes["materialised "+shape], shape)
		}
	}
}

// TestGeneratedFactsCoverEveryColumn: the records the fuzz target reads
// hold fact tables of every column kind — an Int first column, ascending
// over a record's rows or not, a Float one and a boxed one — and a name
// under two arities.
func TestGeneratedFactsCoverEveryColumn(t *testing.T) {
	seen := map[string]int{}
	for seed := int64(0); seed < 100; seed++ {
		_, layers := testGraphAndLayers(seed)
		for _, l := range layers {
			for _, rv := range l {
				s := rv.Emitted.Store()
				arities := map[string]int{}
				for id := int32(0); id < int32(s.NumTables()); id++ {
					tab := s.Table(id)
					arities[tab.Name()]++
					lo, hi := rv.Emitted.Rows(id)
					if lo == hi {
						continue
					}
					floats := true
					for r := lo; r < hi; r++ {
						floats = floats && tab.Value(0, r).Kind() == value.Float
					}
					switch ints := tab.Ints(0); {
					case ints != nil && slices.IsSorted(ints[lo:hi]):
						seen["int ascending"]++
					case ints != nil:
						seen["int unsorted"]++
					case floats:
						seen["float"]++
					default:
						seen["boxed"]++
					}
				}
				for _, n := range arities {
					if n > 1 {
						seen["two arities"]++
					}
				}
			}
		}
	}
	t.Logf("fact tables read: %v", seen)
	for _, k := range []string{"int ascending", "int unsorted", "float", "boxed", "two arities"} {
		if seen[k] < 50 {
			t.Errorf("only %d records hold a fact table of shape %q", seen[k], k)
		}
	}
}

// FuzzRuleLowering is the semantic fuzz smoke for the rule IR: a seed
// program (chosen by base) extended with random rules, over a small random
// record stream, must evaluate identically on the oracle interpreter, the
// slot programs and the record-sourced lowering, serial and in-partition —
// or be rejected by all of them (see checkLowering for the exact contract).
func FuzzRuleLowering(f *testing.F) {
	bases := fuzzBases(f)
	for i := range bases {
		f.Add(uint8(i), int64(i))
		f.Add(uint8(i), int64(1000+i))
	}
	f.Fuzz(func(t *testing.T, base uint8, seed int64) {
		rng, shapes := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(^seed))
		src := bases[int(base)%len(bases)] + "\n" + genRules(rng, shapes, rng.Intn(5))
		build := func() (*analysis.Query, error) {
			prog, err := pql.Parse(src)
			if err != nil {
				return nil, err
			}
			return analysis.Analyze(prog, fuzzEnv())
		}
		sg, layers := testGraphAndLayers(seed)
		if err := checkLowering(build, sg, layers); err != nil {
			t.Fatalf("%v\nprogram:\n%s", err, src)
		}
	})
}
