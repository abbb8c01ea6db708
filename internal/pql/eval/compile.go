package eval

import (
	"errors"
	"fmt"

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
type Compiled struct {
	// strata[i] holds the compiled rules of stratum i; recursive[i] marks a
	// stratum some rule of which reads a head of that stratum, the only kind
	// Layer iterates to an in-layer fixpoint. passes[i] counts Layer's passes
	// over stratum i.
	strata    [][]*crule
	recursive []bool
	passes    []int64
	// rn is the evaluation scratch (evaluation is single-threaded: it runs
	// at the superstep barrier); noRecord stands in for the record of
	// global and static rules, which read none.
	rn       slotRun
	noRecord RecordView
	headKey  []byte // the emit sinks' canonical-key scratch

	staticDone bool
	derived    int64
	records    int64
}

// crule is one compiled rule.
type crule struct {
	src  *pql.Rule
	kind ruleKind
	prog *program
	// Global rules are driven by the new tuples of one IDB relation
	// (semi-naive): drivePred names it — the program's rowsDelta step —
	// and driveCursor tracks the insertion-order position already consumed.
	drivePred   string
	driveCursor int
	// seedSS: the rule's current-superstep variable is pre-bound in slot 1
	// to the record's superstep, as the anchor is in slot 0 to its vertex.
	seedSS bool
	// emit inserts a head tuple and counts it; emitted counts every
	// emission, duplicates included.
	emit    func(Tuple) error
	emitted int64
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
	c.rn = slotRun{db: db, sg: sg, rv: &c.noRecord}
	for name, arity := range q.IDBs {
		db.Relation(name, arity)
	}
	globalHeads := map[string]bool{}
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
			cr := &crule{src: r, kind: rp.kind, drivePred: rp.drivePred, seedSS: len(rp.anchor) > 1}
			if cr.prog, err = lower(rp.steps, r.Head.Args, q.Env(), rp.anchor...); err != nil {
				return nil, fmt.Errorf("%w: %v", ErrNotCompilable, err)
			}
			head := db.Relation(r.Head.Pred, len(r.Head.Args))
			cr.emit = func(t Tuple) error {
				cr.emitted++
				if _, ok := head.insertCopy(t, &c.headKey); ok {
					c.derived++
				}
				return nil
			}
			if cr.kind == ruleGlobal {
				globalHeads[r.Head.Pred] = true
			}
			for _, lit := range r.Body {
				if pl, ok := lit.(*pql.PredLit); ok && heads[pl.Atom.Pred] {
					c.recursive[si] = true
				}
			}
			c.strata[si] = append(c.strata[si], cr)
		}
	}
	// Soundness guard: record rules re-evaluate per record, so they must
	// not consume predicates whose tuples may appear without a matching
	// record (global-rule heads complete only at FinishRun).
	for _, stratum := range c.strata {
		for _, cr := range stratum {
			if cr.kind != ruleRecord {
				continue
			}
			for _, lit := range cr.src.Body {
				if pl, ok := lit.(*pql.PredLit); ok && globalHeads[pl.Atom.Pred] {
					return nil, notCompilable(cr.src.Pos, "record rule consumes global predicate %s", pl.Atom.Pred)
				}
			}
		}
	}
	return c, nil
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

// BeginRun evaluates the static rules (bodies over static EDBs only).
func (c *Compiled) BeginRun() error {
	if c.staticDone {
		return nil
	}
	c.staticDone = true
	for _, stratum := range c.strata {
		for _, r := range stratum {
			if r.kind != ruleStatic {
				continue
			}
			c.rn.prep(r.prog, nil, r.emit)
			if err := r.prog.run(&c.rn, 0); err != nil {
				return err
			}
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
	for si, stratum := range c.strata {
		for {
			c.passes[si]++
			before := c.derived
			for _, r := range stratum {
				switch r.kind {
				case ruleStatic:
					// done in BeginRun
				case ruleGlobal:
					if err := c.evalGlobal(r); err != nil {
						return err
					}
				default:
					if err := c.evalRecords(r, recs); err != nil {
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
				if err := c.evalGlobal(r); err != nil {
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

// evalRecords runs a record rule once per record, the anchor slots holding
// the record's vertex and superstep.
func (c *Compiled) evalRecords(r *crule, recs []RecordView) error {
	c.rn.prep(r.prog, nil, r.emit)
	for i := range recs {
		c.rn.rv = &recs[i]
		c.rn.recSeq++
		c.rn.slots[0] = value.NewInt(recs[i].Vertex)
		if r.seedSS {
			c.rn.slots[1] = value.NewInt(recs[i].Superstep)
		}
		if err := r.prog.run(&c.rn, 0); err != nil {
			return err
		}
	}
	return nil
}

// evalGlobal runs a global rule over the driving relation's tuples that
// arrived since the rule's last pass.
func (c *Compiled) evalGlobal(r *crule) error {
	all := c.rn.db.Get(r.drivePred).All()
	if r.driveCursor >= len(all) {
		return nil
	}
	start := r.driveCursor
	r.driveCursor = len(all)
	c.rn.prep(r.prog, all[start:], r.emit)
	return r.prog.run(&c.rn, 0)
}
