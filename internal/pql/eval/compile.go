package eval

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"

	"ariadne/internal/engine"
	"ariadne/internal/pql"
	"ariadne/internal/pql/analysis"
	"ariadne/internal/value"
)

// This file implements the paper's query compiler (§4: "ARIADNE
// incorporates a compiler that maps query evaluation to vertex programs";
// §2.2: "ARIADNE compiles this query into a provenance query vertex
// program"). It is a second planner over the slot IR of slots.go: a
// compiled query's rules run as slot programs whose record-local EDB steps
// read each vertex's transient provenance record — value, previous value
// (evolution), messages, emitted facts, static edges — as virtual relations
// (record.go), without materializing any EDB tuple in the Datalog database.
// Only derived (IDB) tuples are stored, which is what makes online
// evaluation cheap.
//
// Not every PQL query compiles: aggregates, EDBs that are not record-local,
// and unrestricted cross-layer joins run on the materialised Evaluator (the
// drivers handle the choice transparently, once, before the run starts).

// ErrNotCompilable reports that a query needs the materialised evaluator.
var ErrNotCompilable = errors.New("pql: query is not compilable to a vertex program")

func notCompilable(pos pql.Pos, format string, args ...any) error {
	return fmt.Errorf("%w: %s: %s", ErrNotCompilable, pos, fmt.Sprintf(format, args...))
}

// Compiled is a query compiled to a per-record vertex program.
//
// Its strata run in one of two places. The in-partition prefix (strata[:inPart])
// runs online on each engine partition's goroutine, right after that
// partition's compute: a partition shard evaluates its records against the
// database, frozen while partitions compute, and keeps what it derives in its
// own dedup sets. At the barrier MergePartitions appends the shards' tuples in
// the order one serial pass would have, and the remaining strata run there on
// the main shard, as does every stratum of a layered (offline) evaluation.
type Compiled struct {
	// strata[i] holds the compiled rules of stratum i; recursive[i] marks a
	// stratum some rule of which reads a head of that stratum, the only kind
	// Layer iterates to an in-layer fixpoint. passes[i] counts the passes
	// over stratum i. rules lists every rule in (stratum, rule) order.
	strata    [][]*crule
	recursive []bool
	passes    []int64
	rules     []*crule
	// strata[:inPart] run in-partition; their rules are rules[:partRules].
	inPart    int
	partRules int

	// main is the barrier's scratch; noRecord stands in for the record of
	// global and static rules, which read none.
	main     *shard
	noRecord RecordView

	// parts are the partition shards, created on first use; mu guards the
	// slice. live and heads are MergePartitions' scratch.
	mu    sync.Mutex
	parts []*shard
	live  []*shard
	heads []int

	staticDone bool
	staticErr  error
	derived    int64
	records    int64
}

// crule is one compiled rule.
type crule struct {
	src  *pql.Rule
	kind ruleKind
	prog *program
	// idx is the rule's position in Compiled.rules; head its relation.
	idx  int
	head *Relation
	// Global rules are driven by the new tuples of one IDB relation
	// (semi-naive): drivePred names it — the program's rowsDelta step —
	// and driveCursor tracks the insertion-order position already consumed.
	drivePred   string
	driveCursor int
	// anchor is a record rule's location variable (the head's first
	// argument). seedSS: the rule's current-superstep variable is pre-bound
	// in slot 1 to the record's superstep, as the anchor is in slot 0 to its
	// vertex.
	anchor string
	seedSS bool
	// keyed: the rule derives exactly (anchor, current superstep); once
	// Compile returns, that its head is record-keyed (see keyHeads).
	keyed bool
	// emitted counts every emission, duplicates included.
	emitted int64
	// view is rowsInDegree or rowsOutDegree when the rule is a static view
	// (see makeViews): BeginRun still derives its head, but every literal
	// reading it is a degree test. Zero otherwise.
	view rowSource
}

// planner names the rule's kind for Explain.
func (r *crule) planner() string {
	if r.view != 0 {
		return "view"
	}
	return r.kind.String()
}

// shard is one evaluation context: slot scratch, head-key buffer and the
// rule whose emissions it is sinking. The main shard inserts straight into
// the database. A partition shard (ovl != nil) runs the in-partition strata
// over one partition's records on that partition's goroutine: it reads the
// database (frozen meanwhile) and then its overlay. Each overlay relation
// holds this superstep's new tuples of one head in order, for positive reads,
// and in rows the shard's dedup set of that head: every tuple the shard
// derived, registered with the head relation (Relation.sets), which the
// tuple never leaves. out lists the superstep's new tuples for the merge.
type shard struct {
	c       *Compiled
	rn      slotRun
	headKey []byte
	cur     *crule
	sink    func(Tuple) error

	ovl     *Database
	ovlHead []*Relation    // per rule: the overlay relation of its head
	ss      int            // the superstep observed last and not merged, or -1
	out     [][]shardTuple // per rule: the new tuples, in derivation order
	emitted []int64        // per rule
	records int64
	// err is the first error; errRule and errVertex locate it.
	err       error
	errRule   int
	errVertex int64
}

// shardTuple is a tuple a partition shard derived: the anchor vertex of the
// record that derived it and the tuple (already cloned).
type shardTuple struct {
	vertex int64
	t      Tuple
}

func (c *Compiled) newShard(db *Database, sg StaticGraph, ovl *Database) *shard {
	sh := &shard{c: c, ovl: ovl, ss: -1}
	sh.rn = slotRun{db: db, sg: sg, ovl: ovl, rv: &c.noRecord}
	sh.sink = sh.emit
	return sh
}

// emit is the shard's sink for the current rule's head tuples.
func (sh *shard) emit(t Tuple) error {
	r := sh.cur
	if sh.ovl == nil {
		r.emitted++
		if _, ok := r.head.insertCopy(t, &sh.headKey); ok {
			sh.c.derived++
		}
		return nil
	}
	sh.emitted[r.idx]++
	ovl := sh.ovlHead[r.idx]
	if v, s, ok := r.head.bitOf(t); ok {
		if r.head.bits.has(v, s) || ovl.bits.has(v, s) {
			return nil
		}
		ovl.bits.set(v, s)
		ovl.appendNew(sh.keep(r.idx, t))
		return nil
	}
	sh.headKey = appendKey(sh.headKey[:0], t)
	if r.head.inRows(sh.headKey) || ovl.inRows(sh.headKey) {
		return nil
	}
	ovl.add(string(sh.headKey), sh.keep(r.idx, t))
	return nil
}

// keep clones a new tuple of rule ri's head, lists it for the merge and
// returns the clone.
func (sh *shard) keep(ri int, t Tuple) Tuple {
	c := t.Clone()
	sh.out[ri] = append(sh.out[ri], shardTuple{vertex: sh.rn.rv.Vertex, t: c})
	return c
}

type ruleKind uint8

const (
	ruleRecord ruleKind = iota // anchored at each record
	ruleGlobal                 // driven by the new tuples of its first IDB
	ruleStatic                 // only static EDBs: evaluated once
)

func (k ruleKind) String() string { return [...]string{"record", "global", "static"}[k] }

// Compile compiles an analyzed query. Returns ErrNotCompilable (wrapped)
// when the query requires the materialised evaluator; a query that
// compiles never fails for a compile-time reason at run time.
func Compile(q *analysis.Query, db *Database, sg StaticGraph) (*Compiled, error) {
	n := len(q.Strata)
	c := &Compiled{strata: make([][]*crule, n), recursive: make([]bool, n), passes: make([]int64, n)}
	c.main = c.newShard(db, sg, nil)
	for name, arity := range q.IDBs {
		db.Relation(name, arity)
	}
	globalHeads := map[string]bool{}
	var plans []*recordPlan // by rule index
	for si, stratum := range q.Strata {
		heads := map[string]bool{}
		for _, r := range stratum {
			heads[r.Head.Pred] = true
		}
		for _, r := range stratum {
			rp, err := planRecordRule(r, q)
			if err != nil {
				return nil, err
			}
			cr := &crule{src: r, kind: rp.kind, drivePred: rp.drivePred, seedSS: len(rp.anchor) > 1,
				idx: len(c.rules), head: db.Relation(r.Head.Pred, len(r.Head.Args)),
				keyed: rp.kind == ruleRecord && derivesRecord(r.Head, rp.anchor)}
			if cr.kind == ruleRecord {
				cr.anchor = rp.anchor[0]
			}
			if cr.prog, err = lower(rp.steps, r.Head.Args, q.Env(), rp.anchor...); err != nil {
				return nil, fmt.Errorf("%w: %v", ErrNotCompilable, err)
			}
			plans = append(plans, rp)
			if cr.kind == ruleGlobal {
				globalHeads[r.Head.Pred] = true
			}
			for _, lit := range r.Body {
				if pl, ok := lit.(*pql.PredLit); ok && heads[pl.Atom.Pred] {
					c.recursive[si] = true
				}
			}
			c.strata[si] = append(c.strata[si], cr)
			c.rules = append(c.rules, cr)
		}
	}
	if err := c.makeViews(q, plans); err != nil {
		return nil, err
	}
	// Soundness guard: record rules re-evaluate per record, so they must
	// not consume predicates whose tuples may appear without a matching
	// record (global-rule heads complete only at FinishRun).
	for _, cr := range c.rules {
		if cr.kind != ruleRecord {
			continue
		}
		for _, lit := range cr.src.Body {
			if pl, ok := lit.(*pql.PredLit); ok && globalHeads[pl.Atom.Pred] {
				return nil, notCompilable(cr.src.Pos, "record rule consumes global predicate %s", pl.Atom.Pred)
			}
		}
	}
	c.inPart = c.partitionPrefix(q)
	for _, stratum := range c.strata[:c.inPart] {
		c.partRules += len(stratum)
	}
	c.keyHeads(sg)
	return c, nil
}

// makeViews turns static degree rules into views. A static rule
// h(X) :- edge(Y, X) (or edge(X, Y)) holds exactly the vertices with an in-
// (out-) edge, so when it is h's only rule and every literal reading h has
// X ground, the literal becomes a degree test over the graph instead of a
// probe of the relation. BeginRun still derives the relation, for its
// readers and its counts. plans are the rules' plans by index; the rules
// reading a view are lowered again from them.
func (c *Compiled) makeViews(q *analysis.Query, plans []*recordPlan) error {
	rulesOf := map[string]int{}
	for _, r := range c.rules {
		rulesOf[r.src.Head.Pred]++
	}
	views := map[string]rowSource{}
	for _, r := range c.rules {
		if src, ok := degreeRule(r.src); ok && rulesOf[r.src.Head.Pred] == 1 {
			views[r.src.Head.Pred] = src
		}
	}
	// A negation is ground by construction; a positive read must be keyed on
	// the view's column. A scan, or a global rule's delta drive, keeps the
	// rule static.
	for _, r := range c.rules {
		for _, st := range r.prog.steps {
			if _, ok := views[st.pred]; ok && st.kind == stepPositive && (st.rows != rowsRelation || len(st.lookupCols) != 1) {
				delete(views, st.pred)
			}
		}
	}
	for i, r := range c.rules {
		if src, ok := views[r.src.Head.Pred]; ok {
			r.view = src
			continue
		}
		rp, reads := plans[i], false
		for j := range rp.steps {
			if ps := &rp.steps[j]; ps.atom != nil {
				if src, ok := views[ps.atom.Pred]; ok {
					ps.rows, reads = src, true
				}
			}
		}
		if !reads {
			continue
		}
		var err error
		if r.prog, err = lower(rp.steps, r.src.Head.Args, q.Env(), rp.anchor...); err != nil {
			return fmt.Errorf("%w: %v", ErrNotCompilable, err)
		}
	}
	return nil
}

// keyHeads makes record-keyed the heads every rule of which derives exactly
// (anchor, current superstep) — the provenance graph's node, one bit per
// record (Relation.bits) — and clears keyed on the rules of every other head.
// A graph-less compilation keys them over no vertex: every tuple falls back
// to its string key.
func (c *Compiled) keyHeads(sg StaticGraph) {
	keyed := map[*Relation]bool{}
	for _, r := range c.rules {
		prev, seen := keyed[r.head]
		keyed[r.head] = r.keyed && (prev || !seen)
	}
	n := 0
	if sg != nil {
		n = sg.NumVertices()
	}
	for _, r := range c.rules {
		if r.keyed = keyed[r.head]; r.keyed {
			r.head.keyRecords(n)
		}
	}
}

// derivesRecord reports whether head is h(A, I), A and I the record rule's
// anchor and current-superstep variables.
func derivesRecord(head *pql.Atom, anchor []string) bool {
	if len(head.Args) != 2 || len(anchor) != 2 {
		return false
	}
	x, ok0 := asVar(head.Args[0])
	i, ok1 := asVar(head.Args[1])
	return ok0 && ok1 && x == anchor[0] && i == anchor[1]
}

// degreeRule reports whether r is h(X) :- edge(Y, X) or h(X) :- edge(X, Y),
// Y any other variable, and which degree it tests.
func degreeRule(r *pql.Rule) (rowSource, bool) {
	if len(r.Head.Args) != 1 || len(r.Body) != 1 {
		return 0, false
	}
	pl, ok := r.Body[0].(*pql.PredLit)
	if !ok || pl.Negated || pl.Atom.Pred != "edge" || len(pl.Atom.Args) != 2 {
		return 0, false
	}
	x, ok := asVar(r.Head.Args[0])
	src, ok0 := pl.Atom.Args[0].(*pql.Var)
	dst, ok1 := pl.Atom.Args[1].(*pql.Var)
	switch {
	case !ok || !ok0 || !ok1:
		return 0, false
	case dst.Name == x && src.Name != x:
		return rowsInDegree, true
	case src.Name == x && dst.Name != x:
		return rowsOutDegree, true
	}
	return 0, false
}

// partitionPrefix returns how many strata, from the first, run inside the
// partitions. A stratum does when it is non-recursive, has no global rule
// (static rules ran before superstep 0), and every IDB literal of its record
// rules is located at the rule's anchor or names a predicate only static
// rules define: then everything a record reads was derived before the layer
// or by the partition owning the record's vertex, and every head it derives
// is located at that vertex too. The first stratum that fails the test ends
// the prefix; it and every stratum above it run at the barrier.
func (c *Compiled) partitionPrefix(q *analysis.Query) int {
	staticOnly := map[string]bool{}
	for _, r := range c.rules {
		pred := r.src.Head.Pred
		only, seen := staticOnly[pred]
		staticOnly[pred] = (only || !seen) && r.kind == ruleStatic
	}
	for si, stratum := range c.strata {
		if c.recursive[si] {
			return si
		}
		for _, r := range stratum {
			if r.kind == ruleGlobal {
				return si
			}
			for _, lit := range r.src.Body {
				pl, ok := lit.(*pql.PredLit)
				if !ok || r.kind != ruleRecord || staticOnly[pl.Atom.Pred] {
					continue
				}
				if _, idb := q.IDBs[pl.Atom.Pred]; !idb {
					continue
				}
				if v, ok := asVar(pl.Atom.Args[0]); !ok || v != r.anchor {
					return si
				}
			}
		}
	}
	return len(c.strata)
}

// recordPlan is planRecordRule's result: the rule's kind, its ordered body
// with a row source per predicate step, and — for record rules — the
// anchor variables bound before the first step: the record's vertex and,
// when the rule has one, its current superstep.
type recordPlan struct {
	kind      ruleKind
	steps     []planStep
	anchor    []string
	drivePred string
}

// recordPlanner orders one rule for evaluation against transient records.
//
// Shape requirements (anything else is ErrNotCompilable):
//   - no aggregates in the head;
//   - every record-local EDB literal (superstep, value, evolution,
//     send/receive_message, prov_send, emitted tables, edge_value) is
//     located at the head's location variable;
//   - superstep positions use a single "current" variable, or — for value
//     literals — the predecessor variable introduced by an evolution
//     literal (satisfied from retention);
//   - remote access happens only through IDB predicates (database lookups)
//     or static edges, exactly the VC-compatible discipline of Def. 4.1.
type recordPlanner struct {
	recordPlan
	r     *pql.Rule
	q     *analysis.Query
	bound map[string]bool

	curSS  string // the current-superstep variable
	prevSS string // the evolution predecessor variable, if any
}

func planRecordRule(r *pql.Rule, q *analysis.Query) (*recordPlan, error) {
	for _, a := range r.Head.Args {
		if containsAgg(a) {
			return nil, notCompilable(r.Pos, "aggregate head")
		}
	}
	rp := &recordPlanner{r: r, q: q, bound: map[string]bool{}}

	// Classify the body and identify the anchor (head location) variable.
	anchor := ""
	if len(r.Head.Args) > 0 {
		anchor, _ = asVar(r.Head.Args[0])
	}
	hasRecordLocal, hasStatic, hasIDB := false, false, false
	for _, lit := range r.Body {
		pl, ok := lit.(*pql.PredLit)
		if !ok {
			continue
		}
		pred := pl.Atom.Pred
		switch {
		case pred == "edge":
			hasStatic = true
		case rp.recordLocal(pred):
			hasRecordLocal = true
			if pl.Negated && pred != "receive_message" && pred != "send_message" {
				return nil, notCompilable(pl.Atom.Pos, "negated %s", pred)
			}
			if v, ok := asVar(pl.Atom.Args[0]); !ok || v != anchor {
				return nil, notCompilable(pl.Atom.Pos, "record predicate %s must be located at the head's location variable", pred)
			}
		case rp.isIDB(pred):
			hasIDB = true
		default:
			return nil, notCompilable(pl.Atom.Pos, "EDB %s is not record-local", pred)
		}
	}
	// Discover the evolution variables first (they type the ss positions).
	for _, lit := range r.Body {
		pl, ok := lit.(*pql.PredLit)
		if !ok || pl.Negated || pl.Atom.Pred != "evolution" {
			continue
		}
		if rp.prevSS != "" {
			return nil, notCompilable(pl.Atom.Pos, "multiple evolution literals")
		}
		j, ok1 := asVar(pl.Atom.Args[1])
		i, ok2 := asVar(pl.Atom.Args[2])
		if !ok1 || !ok2 {
			return nil, notCompilable(pl.Atom.Pos, "evolution needs variable superstep arguments")
		}
		rp.prevSS, rp.curSS = j, i
	}

	switch {
	case hasRecordLocal:
		rp.kind = ruleRecord
		rp.anchor = []string{anchor}
		rp.bound[anchor] = true
	case !hasIDB && (hasStatic || len(r.Body) == 0):
		rp.kind = ruleStatic
	default:
		rp.kind = ruleGlobal
	}

	// Greedy scheduling: bindable comparisons and ground negations first,
	// then the cheapest positive literal — record-locals before enumerators
	// before IDB lookups.
	remaining := append([]pql.Literal(nil), r.Body...)
	for len(remaining) > 0 {
		progressed := false
		for i := 0; i < len(remaining); i++ {
			if !schedulable(remaining[i], rp.bound) {
				continue
			}
			switch lit := remaining[i].(type) {
			case *pql.CmpLit:
				rp.steps = append(rp.steps, planStep{kind: stepCompare, cmp: lit})
				bindCmpVars(lit, rp.bound)
			case *pql.PredLit:
				rows, err := rp.negatedSource(lit.Atom)
				if err != nil {
					return nil, err
				}
				rp.steps = append(rp.steps, planStep{kind: stepNegated, atom: lit.Atom, rows: rows})
			}
			remaining = append(remaining[:i], remaining[i+1:]...)
			i--
			progressed = true
		}
		bestIdx, bestCost := -1, 1<<30
		for i, lit := range remaining {
			pl, ok := lit.(*pql.PredLit)
			if !ok || pl.Negated {
				continue
			}
			if cost := rp.literalCost(pl.Atom); cost < bestCost {
				bestIdx, bestCost = i, cost
			}
		}
		if bestIdx >= 0 {
			a := remaining[bestIdx].(*pql.PredLit).Atom
			rows, err := rp.source(a)
			if err != nil {
				return nil, err
			}
			if rp.kind == ruleGlobal && rp.drivePred == "" && rp.isIDB(a.Pred) {
				// The first IDB drives the rule semi-naively: its step
				// scans the relation's new tuples, not the relation.
				rp.drivePred, rows = a.Pred, rowsDelta
			}
			rp.steps = append(rp.steps, planStep{kind: stepPositive, atom: a, rows: rows})
			bindAtomVars(a, rp.bound)
			remaining = append(remaining[:bestIdx], remaining[bestIdx+1:]...)
			progressed = true
		}
		if !progressed {
			return nil, notCompilable(r.Pos, "cannot schedule rule body for compilation")
		}
	}
	if rp.kind == ruleGlobal && rp.drivePred == "" {
		return nil, notCompilable(r.Pos, "global rule without an IDB driver")
	}
	// Every record source yields the record's superstep in its superstep
	// column, so the current-superstep variable is bound from the start;
	// the schedule above stays the one planned without it.
	if rp.kind == ruleRecord && rp.curSS != "" && rp.curSS != anchor {
		rp.anchor = append(rp.anchor, rp.curSS)
	}
	return &rp.recordPlan, nil
}

func (rp *recordPlanner) isIDB(pred string) bool {
	_, ok := rp.q.IDBs[pred]
	return ok
}

// recordLocal reports whether pred is satisfiable from a RecordView.
func (rp *recordPlanner) recordLocal(pred string) bool {
	switch pred {
	case "superstep", "value", "evolution", "send_message", "receive_message", "prov_send", "edge_value":
		return true
	}
	// Emitted analytic tables are extra EDBs.
	_, ok := rp.q.Env().ExtraEDBs[pred]
	return ok
}

// literalCost orders positive literals for scheduling: lower is earlier.
func (rp *recordPlanner) literalCost(a *pql.Atom) int {
	if rp.isIDB(a.Pred) {
		if rp.kind == ruleGlobal {
			return 50 // the driving scan
		}
		return 100
	}
	switch a.Pred {
	case "superstep", "prov_send", "evolution":
		return 1
	case "value":
		return 2
	case "receive_message", "send_message":
		return 10
	case "edge":
		if staticGround(a.Args[0], rp.bound) && staticGround(a.Args[1], rp.bound) {
			return 5 // membership test
		}
		return 20
	case "edge_value":
		if staticGround(a.Args[1], rp.bound) {
			return 6
		}
		return 20
	default: // emitted tables
		return 10
	}
}

// checkSS validates the superstep argument of a record-local literal: it
// must be the rule's current-superstep variable (or a constant/bound term).
func (rp *recordPlanner) checkSS(t pql.Term) error {
	v, ok := asVar(t)
	if !ok {
		return nil
	}
	if v == rp.prevSS {
		return notCompilable(rp.r.Pos, "only value literals may reference the evolution predecessor superstep")
	}
	if rp.curSS == "" {
		rp.curSS = v
	}
	if v != rp.curSS && !rp.bound[v] {
		return notCompilable(rp.r.Pos, "superstep variable %s does not match the rule's current superstep", v)
	}
	return nil
}

// source picks the row source of a positive literal.
func (rp *recordPlanner) source(a *pql.Atom) (rowSource, error) {
	if rp.isIDB(a.Pred) {
		return rowsRelation, nil
	}
	last := a.Args[len(a.Args)-1]
	switch a.Pred {
	case "superstep":
		return rowsSuperstep, rp.checkSS(last)
	case "value":
		if v, ok := asVar(last); ok && v == rp.prevSS {
			return rowsPrevValue, nil
		}
		return rowsValue, rp.checkSS(last)
	case "evolution":
		return rowsEvolution, nil
	case "receive_message":
		return rowsRecvs, rp.checkSS(last)
	case "send_message":
		return rowsSends, rp.checkSS(last)
	case "prov_send":
		return rowsProvSend, rp.checkSS(last)
	case "edge":
		if rp.kind != ruleStatic && !staticGround(a.Args[0], rp.bound) && !staticGround(a.Args[1], rp.bound) {
			return 0, notCompilable(a.Pos, "unanchored edge scan outside a static rule")
		}
		return rowsEdge, nil
	case "edge_value":
		return rowsEdgeValue, nil
	default: // emitted analytic table, laid out table(X, payload..., I)
		return rowsEmitted, rp.checkSS(last)
	}
}

// negatedSource picks the row source of !p(args...) with ground arguments:
// an IDB or record-local message membership test.
func (rp *recordPlanner) negatedSource(a *pql.Atom) (rowSource, error) {
	switch {
	case rp.isIDB(a.Pred):
		return rowsRelation, nil
	case a.Pred == "receive_message":
		return rowsRecvs, nil
	case a.Pred == "send_message":
		return rowsSends, nil
	}
	return 0, notCompilable(a.Pos, "negated %s is not compilable", a.Pred)
}

// DerivedTuples returns how many head tuples were inserted.
func (c *Compiled) DerivedTuples() int64 { return c.derived }

// Records returns how many records were processed.
func (c *Compiled) Records() int64 { return c.records }

// CompiledStats is a snapshot of a compiled query's work counters.
type CompiledStats struct {
	// PassesPerStratum counts Layer's passes per stratum: one per layer,
	// plus one per pass of a recursive stratum that derived something.
	PassesPerStratum []int64
	// Emissions counts the head tuples each predicate's rules emitted,
	// duplicates included; a cut rule emits each tuple once per binding of
	// the steps before its cut.
	Emissions map[string]int64
}

// Stats returns a snapshot of the work counters.
func (c *Compiled) Stats() CompiledStats {
	s := CompiledStats{PassesPerStratum: append([]int64(nil), c.passes...), Emissions: map[string]int64{}}
	for _, stratum := range c.strata {
		for _, r := range stratum {
			s.Emissions[r.src.Head.Pred] += r.emitted
		}
	}
	return s
}

// BeginRun evaluates the static rules (bodies over static EDBs only), once:
// later calls return the first call's error.
func (c *Compiled) BeginRun() error {
	if c.staticDone {
		return c.staticErr
	}
	c.staticDone = true
	for _, r := range c.rules {
		if r.kind != ruleStatic {
			continue
		}
		c.main.start(r, nil)
		if err := r.prog.run(&c.main.rn, 0); err != nil {
			c.staticErr = err
			return err
		}
	}
	return nil
}

// Layer evaluates one provenance layer's records: every stratum in order,
// once — a recursive stratum until a pass derives nothing (an in-layer
// fixpoint). A non-recursive stratum reads only lower strata, which a
// second pass would find unchanged.
func (c *Compiled) Layer(recs []RecordView) error {
	if err := c.BeginRun(); err != nil {
		return err
	}
	c.records += int64(len(recs))
	return c.layerFrom(0, recs)
}

// BarrierLayer evaluates the strata above the in-partition prefix over one
// layer's records, after MergePartitions has merged the prefix's tuples.
func (c *Compiled) BarrierLayer(recs []RecordView) error {
	return c.layerFrom(c.inPart, recs)
}

// HasBarrierStrata reports whether any stratum runs at the barrier.
func (c *Compiled) HasBarrierStrata() bool { return c.inPart < len(c.strata) }

// layerFrom runs strata[from:] over recs on the main shard.
func (c *Compiled) layerFrom(from int, recs []RecordView) error {
	for si := from; si < len(c.strata); si++ {
		for {
			c.passes[si]++
			before := c.derived
			for _, r := range c.strata[si] {
				switch r.kind {
				case ruleStatic:
					// done in BeginRun
				case ruleGlobal:
					if err := c.main.evalGlobal(r); err != nil {
						return err
					}
				default:
					if err := c.main.evalRecords(r, recs); err != nil {
						return err
					}
				}
			}
			if !c.recursive[si] || c.derived == before {
				break
			}
		}
	}
	return nil
}

// FinishRun completes evaluation after the last layer: global rules rescan
// their driving relations in full once, catching any cross-layer
// compositions their incremental passes could not see.
func (c *Compiled) FinishRun() error {
	for _, stratum := range c.strata {
		for {
			before := c.derived
			for _, r := range stratum {
				if r.kind != ruleGlobal {
					continue
				}
				r.driveCursor = 0
				if err := c.main.evalGlobal(r); err != nil {
					return err
				}
			}
			if c.derived == before {
				break
			}
		}
	}
	return nil
}

// ObservePartition evaluates the in-partition strata over the views of
// partition p's records of one superstep, on the calling goroutine, and
// counts the records. Partitions call it concurrently, after BeginRun and
// while nothing writes the database. It reports nothing: MergePartitions
// merges the result and reports the error.
func (c *Compiled) ObservePartition(p, superstep int, recs []RecordView) {
	if !c.staticDone || c.staticErr != nil {
		return
	}
	c.partShard(p).layer(superstep, recs)
}

// layer runs the in-partition rules over one partition's records of a
// superstep, in vertex order, into the overlay. The tuples of a superstep
// observed before and never merged (an aborted one) are dropped first.
func (sh *shard) layer(superstep int, recs []RecordView) {
	sh.drop()
	sh.ss, sh.records, sh.err = superstep, int64(len(recs)), nil
	for _, rel := range sh.ovl.rels {
		rel.truncate()
	}
	clear(sh.emitted)
	for _, r := range sh.c.rules[:sh.c.partRules] {
		if r.kind != ruleRecord {
			continue
		}
		if err := sh.evalRecords(r, recs); err != nil {
			sh.err, sh.errRule, sh.errVertex = err, r.idx, sh.rn.rv.Vertex
			return
		}
	}
}

// partShard returns partition p's shard, creating it (and any below it) on
// first use.
func (c *Compiled) partShard(p int) *shard {
	c.mu.Lock()
	defer c.mu.Unlock()
	for len(c.parts) <= p {
		ovl := NewDatabase()
		sh := c.newShard(c.main.rn.db, c.main.rn.sg, ovl)
		sh.ovlHead = make([]*Relation, c.partRules)
		sh.out = make([][]shardTuple, c.partRules)
		sh.emitted = make([]int64, c.partRules)
		for _, r := range c.rules[:c.partRules] {
			if r.kind == ruleRecord && ovl.Get(r.src.Head.Pred) == nil {
				o := ovl.Relation(r.src.Head.Pred, r.head.arity)
				r.head.sets = append(r.head.sets, o.rows)
				if r.head.bits != nil {
					o.bits = &recordBits{n: r.head.bits.n}
					r.head.bitSets = append(r.head.bitSets, o.bits)
				}
			}
			sh.ovlHead[r.idx] = ovl.Get(r.src.Head.Pred)
		}
		c.parts = append(c.parts, sh)
	}
	return c.parts[p]
}

// MergePartitions appends what the partition shards derived at superstep to
// the head relations, in the order one serial pass over the layer would have
// (stratum, rule, anchor vertex, then derivation order), and counts their
// records, emissions and passes. Nothing is probed: the tuples stay in the
// dedup sets of the shards, which probed the frozen database, and a head is
// located at its anchor vertex, which one partition owns. shed (nil: none)
// names the partitions whose records are dropped. When shards failed it
// merges what a serial pass derives before its first failure and returns
// that failure: the lowest by (stratum, rule, vertex). The sets forget every
// tuple not merged. A static rule's error, which kept the partitions from
// observing, is returned first.
func (c *Compiled) MergePartitions(superstep int, shed func(p int) bool) error {
	if err := c.BeginRun(); err != nil {
		return err
	}
	c.live = c.live[:0]
	for p, sh := range c.parts {
		if sh.ss == superstep && (shed == nil || !shed(p)) {
			c.live = append(c.live, sh)
			continue
		}
		sh.drop()
	}
	var failed *shard
	for _, sh := range c.live {
		c.records += sh.records
		if sh.err != nil && (failed == nil || sh.errRule < failed.errRule ||
			sh.errRule == failed.errRule && sh.errVertex < failed.errVertex) {
			failed = sh
		}
	}
	var err error
	for si := 0; si < c.inPart && err == nil; si++ {
		c.passes[si]++
		for _, r := range c.strata[si] {
			if r.kind != ruleRecord || err != nil {
				continue
			}
			last := int64(math.MaxInt64)
			if failed != nil && r.idx == failed.errRule {
				last, err = failed.errVertex, failed.err
			}
			c.mergeRule(r, last)
		}
	}
	for _, sh := range c.live {
		sh.drop() // the rules past a failure
	}
	return err
}

// mergeRule appends the live shards' new tuples of rule r up to anchor vertex
// last to its head, in vertex order: each shard's list is ascending already,
// and a vertex belongs to one partition. The rest are forgotten.
func (c *Compiled) mergeRule(r *crule, last int64) {
	heads := slices.Grow(c.heads[:0], len(c.live))[:len(c.live)]
	clear(heads)
	c.heads = heads
	n := 0
	for _, sh := range c.live {
		r.emitted += sh.emitted[r.idx]
		n += len(sh.out[r.idx])
	}
	r.head.order = slices.Grow(r.head.order, n)
	for {
		best := -1
		var bestV int64
		for i, sh := range c.live {
			if out := sh.out[r.idx]; heads[i] < len(out) && (best < 0 || out[heads[i]].vertex < bestV) {
				best, bestV = i, out[heads[i]].vertex
			}
		}
		if best < 0 || bestV > last {
			break
		}
		r.head.appendNew(c.live[best].out[r.idx][heads[best]].t)
		heads[best]++
		c.derived++
	}
	for i, sh := range c.live {
		sh.forget(r.idx, heads[i])
	}
}

// forget deletes the tuples of out[ri][from:], which the merge did not take,
// from the shard's dedup set, and empties out[ri].
func (sh *shard) forget(ri, from int) {
	ovl := sh.ovlHead[ri]
	for _, st := range sh.out[ri][from:] {
		if v, s, ok := ovl.bitOf(st.t); ok {
			ovl.bits.unset(v, s)
		} else {
			delete(ovl.rows, st.t.Key())
		}
	}
	sh.out[ri] = sh.out[ri][:0]
}

// drop forgets every new tuple the merge has not taken: all of the superstep
// the shard observed last unless it was merged, which empties out.
func (sh *shard) drop() {
	for ri := range sh.out {
		sh.forget(ri, 0)
	}
	sh.ss = -1
}

// start points the shard's run at rule r's program, with deltas as its delta
// batch.
func (sh *shard) start(r *crule, deltas []Tuple) {
	sh.cur = r
	sh.rn.prep(r.prog, deltas, sh.sink)
}

// evalRecords runs a record rule once per record, the anchor slots holding
// the record's vertex and superstep.
func (sh *shard) evalRecords(r *crule, recs []RecordView) error {
	sh.start(r, nil)
	rn := &sh.rn
	for i := range recs {
		rn.rv = &recs[i]
		rn.recSeq++
		rn.slots[0] = value.NewInt(recs[i].Vertex)
		if r.seedSS {
			rn.slots[1] = value.NewInt(recs[i].Superstep)
		}
		if err := r.prog.run(rn, 0); err != nil {
			return err
		}
	}
	return nil
}

// evalGlobal runs a global rule over the driving relation's tuples that
// arrived since the rule's last pass.
func (sh *shard) evalGlobal(r *crule) error {
	all := sh.rn.db.Get(r.drivePred).All()
	if r.driveCursor >= len(all) {
		return nil
	}
	start := r.driveCursor
	r.driveCursor = len(all)
	sh.start(r, all[start:])
	return r.prog.run(&sh.rn, 0)
}

// EngineViews writes the views of live engine records into dst, reused
// across supersteps. Each view is a header over the record: its message and
// fact slices are the engine's own, borrowed for as long as the engine keeps
// the records. The engine supplies each record's previous value itself.
func EngineViews(dst []RecordView, recs []engine.VertexRecord) []RecordView {
	dst = slices.Grow(dst[:0], len(recs))[:len(recs)]
	for i := range recs {
		r := &recs[i]
		rv := RecordView{
			Vertex:     int64(r.ID),
			Superstep:  int64(r.Superstep),
			HasValue:   true,
			Value:      r.NewValue,
			PrevActive: int64(r.PrevActive),
			SentAny:    r.SentAny,
			Sends:      r.Sent,
			Recvs:      r.Received,
			Emitted:    r.Emitted,
		}
		if r.PrevActive >= 0 {
			// The engine's OldValue is the value after the previous compute,
			// i.e. exactly the value at PrevActive.
			rv.PrevValue = r.OldValue
			rv.HasPrevValue = true
		}
		dst[i] = rv
	}
	return dst
}
