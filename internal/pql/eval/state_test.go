package eval

import (
	"math"
	"os"
	"sort"
	"testing"

	"ariadne/internal/pql/analysis"
	"ariadne/internal/value"
)

// The aggregate resume scenario: a grouped COUNT and SUM, checkpointed after
// the first batch and resumed into a fresh evaluator that folds the second.
// Batch two folds into every group the checkpoint holds, and its Int(0) in
// group 2 equals (value.Equal) the -0.0 batch one counted there.
const aggResumeQuery = `
deg(X, COUNT(Y)) :- e(X, Y, V).
tot(X, SUM(V)) :- e(X, Y, V).`

func aggResumeEval(t *testing.T) (*Evaluator, *Database) {
	t.Helper()
	env := analysis.NewEnv()
	env.DeclareEDB("e", 3)
	return mkEval(t, aggResumeQuery, env)
}

func aggResumeBatch(e *Evaluator, batch int) {
	add := func(x int64, y value.Value, v float64) {
		e.AddFact("e", Tuple{value.NewInt(x), y, value.NewFloat(v)})
	}
	if batch == 1 {
		add(1, value.NewInt(1), 2)
		add(1, value.NewInt(2), 4)
		add(2, value.NewFloat(math.Copysign(0, -1)), 1)
		add(3, value.NewInt(1<<53), 1)
		return
	}
	add(1, value.NewInt(3), 1)
	add(2, value.NewInt(0), 5)
	add(3, value.NewInt(1<<53+1), 1)
}

func aggResumeSnapshot(t *testing.T, db *Database, e *Evaluator) []byte {
	t.Helper()
	w := value.NewBlob()
	db.SaveState(w)
	e.SaveState(w)
	return w.Bytes()
}

func aggResults(e *Evaluator) []string {
	var out []string
	for _, pred := range []string{"deg", "tot"} {
		for _, tu := range e.Result(pred).All() {
			out = append(out, pred+tu.String())
		}
	}
	sort.Strings(out)
	return out
}

// aggStateParentFile is a snapshot of the scenario after batch one, written
// by the build whose aggregate keys encoded every Int as a float and kept
// -0.0 distinct from 0 (see canonicalKey).
const aggStateParentFile = "testdata/agg_state_float_keys.ckpt"

// TestAggregateResume resumes the scenario from a snapshot taken by this
// build and from one taken by the float-key build, and requires both to
// finish exactly as an uninterrupted run does.
func TestAggregateResume(t *testing.T) {
	whole, _ := aggResumeEval(t)
	for batch := 1; batch <= 2; batch++ {
		aggResumeBatch(whole, batch)
		if err := whole.Fixpoint(); err != nil {
			t.Fatal(err)
		}
	}
	want := aggResults(whole)
	if got := want; len(got) != 6 {
		t.Fatalf("uninterrupted run: %v", got)
	}

	first, firstDB := aggResumeEval(t)
	aggResumeBatch(first, 1)
	if err := first.Fixpoint(); err != nil {
		t.Fatal(err)
	}
	parent, err := os.ReadFile(aggStateParentFile)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		snap []byte
	}{
		{"this build", aggResumeSnapshot(t, firstDB, first)},
		{"float-key build", parent},
	} {
		t.Run(c.name, func(t *testing.T) {
			e, db := aggResumeEval(t)
			r := value.NewBlobReader(c.snap)
			if err := db.LoadState(r); err != nil {
				t.Fatal(err)
			}
			if err := e.LoadState(r); err != nil {
				t.Fatal(err)
			}
			aggResumeBatch(e, 2)
			if err := e.Fixpoint(); err != nil {
				t.Fatal(err)
			}
			got := aggResults(e)
			if len(got) != len(want) {
				t.Fatalf("resumed = %v, want %v", got, want)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("resumed = %v, want %v", got, want)
				}
			}
		})
	}
}
