package eval

import (
	"math"
	"slices"
	"sort"
	"testing"

	"ariadne/internal/pql/analysis"
	"ariadne/internal/value"
)

// The aggregate resume scenario: a grouped COUNT and SUM over a loaded EDB,
// checkpointed after the first batch and resumed into a fresh compiled
// program that folds the second. Batch two folds into every group the
// checkpoint holds, and its Int(0) in group 2 equals (value.Equal) the -0.0
// batch one counted there.
const aggResumeQuery = `
deg(X, COUNT(Y)) :- e(X, Y, V).
tot(X, SUM(V)) :- e(X, Y, V).`

// aggResumeRun compiles the scenario and evaluates the given batches, one
// layer each, after restoring snap (nil: none).
func aggResumeRun(t *testing.T, snap []byte, batches ...int) (*Compiled, *Database) {
	t.Helper()
	env := analysis.NewEnv()
	env.DeclareEDB("e", 3)
	db := NewDatabase()
	c, err := Compile(analysis.MustAnalyze(aggResumeQuery, env), db, nil)
	if err != nil {
		t.Fatal(err)
	}
	if snap != nil {
		r := value.NewBlobReader(snap)
		if err := db.LoadState(r); err != nil {
			t.Fatal(err)
		}
		if err := c.LoadState(r); err != nil {
			t.Fatal(err)
		}
	}
	add := func(x int64, y value.Value, v float64) {
		db.Get("e").Insert(Tuple{value.NewInt(x), y, value.NewFloat(v)})
	}
	for _, batch := range batches {
		if batch == 1 {
			add(1, value.NewInt(1), 2)
			add(1, value.NewInt(2), 4)
			add(2, value.NewFloat(math.Copysign(0, -1)), 1)
			add(3, value.NewInt(1<<53), 1)
		} else {
			add(1, value.NewInt(3), 1)
			add(2, value.NewInt(0), 5)
			add(3, value.NewInt(1<<53+1), 1)
		}
		if err := c.Layer(nil); err != nil {
			t.Fatal(err)
		}
	}
	return c, db
}

func aggResults(db *Database) []string {
	var out []string
	for _, pred := range []string{"deg", "tot"} {
		for _, tu := range db.Get(pred).All() {
			out = append(out, pred+tu.String())
		}
	}
	sort.Strings(out)
	return out
}

// TestAggregateResume resumes the scenario from a snapshot of the database
// and the compiled program's state, group tables included, and requires it
// to finish exactly as an uninterrupted run does.
func TestAggregateResume(t *testing.T) {
	_, wholeDB := aggResumeRun(t, nil, 1, 2)
	want := aggResults(wholeDB)
	if len(want) != 6 {
		t.Fatalf("uninterrupted run: %v", want)
	}
	first, firstDB := aggResumeRun(t, nil, 1)
	w := value.NewBlob()
	firstDB.SaveState(w)
	first.SaveState(w)
	t.Run("this build", func(t *testing.T) {
		_, db := aggResumeRun(t, w.Bytes(), 2)
		if got := aggResults(db); !slices.Equal(got, want) {
			t.Fatalf("resumed = %v, want %v", got, want)
		}
	})
}
