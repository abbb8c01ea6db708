package eval

import (
	"sync"
	"testing"

	"ariadne/internal/engine"
	"ariadne/internal/pql/analysis"
	"ariadne/internal/queries"
	"ariadne/internal/value"
)

// TestScopeHeadsShape pins which heads Compile makes record-scoped: those
// of Queries 4 and 7, and any head no rule reads whose every rule is an
// in-partition record rule holding the anchor at column 0 and the current
// superstep at one column. A reader, a second column, a global rule, a
// barrier stratum or the record-keyed shape keeps the head as it was.
func TestScopeHeadsShape(t *testing.T) {
	for _, tc := range []struct {
		name, src string
		scoped    map[string]bool
	}{
		{"Query 4", queries.PageRankCheck().Source, map[string]bool{"check_failed": true, "has_in": false}},
		{"Query 7", queries.ALSRangeCheck().Source, map[string]bool{"input_failed": true, "algo_failed": true}},
		{"two rules, one column", `h(X, I, Y) :- receive_message(X, Y, M, I).
h(X, I, Y) :- send_message(X, Y, M, I).`, map[string]bool{"h": true}},
		{"two rules, two columns", `h(X, I, Y) :- receive_message(X, Y, M, I).
h(X, Y, I) :- send_message(X, Y, M, I).`, map[string]bool{"h": false}},
		{"read by a later rule", `h(X, Y, I) :- receive_message(X, Y, M, I).
r(X, I) :- superstep(X, I), !h(X, X, I).`, map[string]bool{"h": false, "r": false}},
		{"no superstep column", `h(X, Y) :- receive_message(X, Y, M, I).`, map[string]bool{"h": false}},
		{"anchor off column 0", `h(Y, X, I) :- receive_message(X, Y, M, I).`, map[string]bool{"h": false}},
		{"record-keyed", `h(X, I) :- receive_message(X, Y, M, I).`, map[string]bool{"h": false}},
		{"a global rule too", `a(X, I) :- superstep(X, I).
h(X, Y, I) :- receive_message(X, Y, M, I).
h(X, Y, I) :- a(X, I), a(Y, I), Y != X.`, map[string]bool{"h": false}},
		{"at the barrier", `a(X, I) :- superstep(X, I).
h(X, Y, I) :- receive_message(X, Y, M, I), a(Y, I).`, map[string]bool{"h": false}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, err := Compile(analysis.MustAnalyze(tc.src, fuzzEnv()), NewDatabase(), newFakeGraph(4, nil))
			if err != nil {
				t.Fatal(err)
			}
			if c.inPart != len(c.strata) && tc.name == "read by a later rule" {
				t.Fatalf("%d of %d strata in-partition: the reader must run there too", c.inPart, len(c.strata))
			}
			for _, r := range c.rules {
				want, ok := tc.scoped[r.src.Head.Pred]
				if !ok {
					continue
				}
				if r.scoped != want || r.head.scoped != want {
					t.Errorf("%s: scoped %v (relation %v), want %v", r.src, r.scoped, r.head.scoped, want)
				}
			}
		})
	}
}

// scopedLayers is one record stream for the record-scoped tests: every
// vertex hears twice from its two peers, so a record derives each of its
// tuples twice, in both its rules.
func scopedLayers(n, supersteps int) [][]RecordView {
	var layers [][]RecordView
	for ss := 0; ss < supersteps; ss++ {
		var l []RecordView
		for v := int64(0); v < int64(n); v++ {
			rv := RecordView{Vertex: v, Superstep: int64(ss), HasValue: true, Value: value.NewFloat(0), PrevActive: -1}
			for _, y := range []int64{(v + 1) % int64(n), (v + 2) % int64(n), (v + 1) % int64(n)} {
				rv.Recvs = append(rv.Recvs, engine.IncomingMessage{Src: engine.VertexID(y), Val: value.NewFloat(float64(y))})
			}
			l = append(l, rv)
		}
		layers = append(layers, l)
	}
	return layers
}

// TestScopedSameHeadRulesDedup: two rules of one record-scoped head, each
// deriving every tuple of a record twice, leave each tuple once, in the
// order a rule-major pass derives it, serial and on three partitions; the
// head keys nothing while it is evaluated, and its membership reads as its
// order once probed.
func TestScopedSameHeadRulesDedup(t *testing.T) {
	const src = `h(X, Y, I) :- receive_message(X, Y, M, I), M >= 0.
h(X, Y, I) :- receive_message(X, Y, M, I), Y < 100.`
	layers := scopedLayers(7, 3)
	q := analysis.MustAnalyze(src, analysis.NewEnv())
	serialDB, partDB := NewDatabase(), NewDatabase()
	serial, err := Compile(q, serialDB, newFakeGraph(7, nil))
	if err != nil {
		t.Fatal(err)
	}
	part, _ := Compile(q, partDB, newFakeGraph(7, nil))
	if err := serialLeg(serial, layers, nil); err != nil {
		t.Fatal(err)
	}
	if err := partitionLeg(part, layers, 3, nil); err != nil {
		t.Fatal(err)
	}
	if err := sameRelations("in-partition vs serial", insertionOrder(q, serialDB, false), insertionOrder(q, partDB, false)); err != nil {
		t.Error(err)
	}
	for leg, db := range map[string]*Database{"serial": serialDB, "in-partition": partDB} {
		rel := db.Get("h")
		if !rel.scoped || rel.set.n != 0 {
			t.Fatalf("%s: scoped %v, %d keyed", leg, rel.scoped, rel.set.n)
		}
		if want := 7 * 2 * 3; rel.Len() != want {
			t.Errorf("%s: %d tuples, want %d (two peers per record)", leg, rel.Len(), want)
		}
		if got := members(rel); got != rel.Len() {
			t.Errorf("%s: %d members, %d tuples in order", leg, got, rel.Len())
		}
	}
	if e := serial.Stats().Emissions["h"]; e != 2*3*7*3 {
		t.Errorf("%d emissions, want two rules times three messages per record", e)
	}
}

// TestScopedRelationMethods: a record-scoped relation keeps the meaning of
// every public method, its set keyed lazily from order: Contains and Insert
// see the merged tuples, Delete removes one, SaveState/LoadState round-trip
// the tuples in order, and Clear forgets the set with the tuples.
func TestScopedRelationMethods(t *testing.T) {
	const src = `h(X, Y, I) :- receive_message(X, Y, M, I).`
	q := analysis.MustAnalyze(src, analysis.NewEnv())
	db := NewDatabase()
	c, err := Compile(q, db, newFakeGraph(5, nil))
	if err != nil {
		t.Fatal(err)
	}
	if err := partitionLeg(c, scopedLayers(5, 2), 2, nil); err != nil {
		t.Fatal(err)
	}
	rel := db.Get("h")
	n := rel.Len()
	if !rel.scoped || n != 5*2*2 || rel.set.n != 0 {
		t.Fatalf("scoped %v, %d tuples, %d keyed", rel.scoped, n, rel.set.n)
	}
	for _, tu := range rel.All() {
		if !rel.Contains(tu) {
			t.Fatalf("%v is in order but not a member", tu)
		}
	}
	// 3.0 and 3 are one value (appendNorm), so a Float twin is a member.
	twin := Tuple{value.NewFloat(0), value.NewFloat(1), value.NewInt(0)}
	if !rel.Contains(twin) || rel.Insert(twin) {
		t.Errorf("the Float twin of h(0, 1, 0) is not a member")
	}
	if !rel.Insert(ints(0, 4, 0)) || rel.Insert(ints(0, 4, 0)) || rel.Len() != n+1 {
		t.Errorf("Insert of a new tuple and its repeat: %d tuples, want %d", rel.Len(), n+1)
	}
	if rel.Delete(ints(0, 4, 0)) != 1 || rel.Contains(ints(0, 4, 0)) || !rel.Contains(ints(0, 1, 0)) || rel.Len() != n {
		t.Errorf("Delete left %d tuples, want %d", rel.Len(), n)
	}
	var w value.Blob
	db.SaveState(&w)
	saved := insertionOrder(q, db, false)
	rel.Clear()
	if rel.Len() != 0 || rel.Contains(ints(0, 1, 0)) || rel.set.n != 0 || len(rel.supersteps) != 0 {
		t.Fatal("Clear left members behind")
	}
	if err := db.LoadState(value.NewBlobReader(w.Bytes())); err != nil {
		t.Fatal(err)
	}
	if err := sameRelations("restored", saved, insertionOrder(q, db, false)); err != nil {
		t.Error(err)
	}
	if got := members(rel); got != n {
		t.Errorf("restored relation has %d members, want %d", got, n)
	}
}

// TestScopedReobserveConcurrent: partitions that observe, at once, a
// superstep a record-scoped head holds already key the head's order once
// between them (under its lock) and all probe it, so they derive nothing
// new; concurrent Contains calls key it alike. Run with -race.
func TestScopedReobserveConcurrent(t *testing.T) {
	const src = `h(X, Y, I) :- receive_message(X, Y, M, I).`
	const parts = 3
	q := analysis.MustAnalyze(src, analysis.NewEnv())
	db := NewDatabase()
	c, err := Compile(q, db, newFakeGraph(9, nil))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.BeginRun(); err != nil {
		t.Fatal(err)
	}
	split := make([][]RecordView, parts)
	for _, rv := range scopedLayers(9, 1)[0] {
		split[rv.Vertex%parts] = append(split[rv.Vertex%parts], rv)
	}
	observe := func() {
		var wg sync.WaitGroup
		for p := range split {
			sh := c.partShard(p)
			wg.Add(1)
			go func() {
				defer wg.Done()
				sh.layer(0, split[p])
			}()
		}
		wg.Wait()
		if err := c.MergePartitions(0, nil); err != nil {
			t.Fatal(err)
		}
	}
	observe()
	rel := db.Get("h")
	want := insertionOrder(q, db, false)
	if rel.Len() != 9*2 || rel.set.n != 0 {
		t.Fatalf("%d tuples, %d keyed after the first observation", rel.Len(), rel.set.n)
	}
	observe()
	if err := sameRelations("re-observed", want, insertionOrder(q, db, false)); err != nil {
		t.Error(err)
	}
	rel.unkey()
	var wg sync.WaitGroup
	for _, tu := range rel.All() {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if !rel.Contains(tu) {
				t.Errorf("%v is in order but not a member", tu)
			}
		}()
	}
	wg.Wait()
}
