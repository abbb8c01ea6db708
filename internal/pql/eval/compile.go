package eval

import (
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
// program"). It plans rules with the scheduler of plan.go, on its own path
// (recordPlanner), into the slot IR of slots.go: a compiled query's rules
// run as slot programs whose record-local EDB steps
// read each vertex's transient provenance record — value, previous value
// (evolution), messages, emitted facts, static edges — as virtual relations
// (record.go), without materializing any EDB tuple in the Datalog database.
// Only derived (IDB) tuples are stored, which is what makes online
// evaluation cheap.
//
// A rule the record planner refuses — an aggregate head, a store-only EDB,
// a negated or off-location record literal, two evolution literals, a read
// of a global head — is materialised: planned bottom-up (the bottomUp path)
// as a global rule over EDB relations, each filled by one copy rule, a
// record rule of a new lowest stratum such as
// receive_message(X, Y, M, I) :- receive_message(X, Y, M, I). The store-only
// EDBs (capture gaps, telemetry) have no record to copy from: the caller
// loads them (Loads). There is one program either way, and no other
// evaluator to fall back to.

// notCompilable is the record planner's refusal, positioned: it names why a
// rule is materialised.
func notCompilable(pos pql.Pos, format string, args ...any) error {
	return fmt.Errorf("%s: %s", pos, fmt.Sprintf(format, args...))
}

// Compiled is a query compiled to a per-record vertex program.
//
// Its strata run in one of two places. The in-partition prefix (strata[:inPart])
// runs online on each engine partition's goroutine, right after that
// partition's compute: a partition shard evaluates its records against the
// database, frozen while partitions compute, keeps what it derives in its
// overlay and keeps the records' views. At the barrier MergePartitions
// appends the shards' tuples in the order one serial pass would have, and the
// remaining strata run there on the main shard (BarrierLayer), over the
// merged views. Layer runs the same schedule with one partition, shard 0, so
// Layered and Naive evaluation run the record passes online evaluation does.
type Compiled struct {
	// strata[i] holds the compiled rules of stratum i; recursive[i] marks a
	// stratum some rule of which reads a head of that stratum, the only kind
	// Layer iterates to an in-layer fixpoint. passes[i] counts the passes
	// over stratum i. rules lists every rule in (stratum, rule) order.
	strata    [][]*crule
	recursive []bool
	passes    []int64
	rules     []*crule
	// units[i] is what a pass over stratum i runs, in rule order: its global
	// rules, and its record rules as record passes (trie.go), a run of them
	// between two global rules to a trie. tables names the emitted tables
	// the record steps read, by id.
	units  [][]unit
	tables []string
	// strata[:inPart] run in-partition; their rules are rules[:partRules].
	inPart    int
	partRules int

	// main is the barrier's shard; noRecord stands in for the record of
	// global and static rules, which read none. delta is fireGlobal's
	// scratch.
	main     *shard
	noRecord RecordView
	delta    map[string][]Tuple

	// parts are the partition shards, created on first use; mu guards the
	// slice. live lists the shards MergePartitions merged last; heads is the
	// merges' scratch, and views holds BarrierLayer's merge of their views,
	// reused across supersteps.
	mu    sync.Mutex
	parts []*shard
	live  []*shard
	heads []int
	views []RecordView

	// mats names the EDB relations the program materialises, copied or
	// loaded; loads those the caller loads. aggs holds the aggregate heads'
	// group tables, in rule order.
	mats  []string
	loads []string
	aggs  []*aggTable

	staticDone bool
	staticErr  error
	derived    int64
	records    int64
	// work sums the merged partition shards' record-step work.
	work workCounts
}

// unit is one step of a stratum's pass: a global rule's firing, or a record
// pass.
type unit struct {
	global *crule
	trie   *trie
}

// crule is one compiled rule.
type crule struct {
	src  *pql.Rule
	kind ruleKind
	// plan holds the rule's ordered bodies and programs. A record or static
	// rule has one, prog (plan.fact). A global rule fires semi-naively
	// (fireGlobal): one program per positive IDB literal, or with none its
	// one program every pass; cursors[i] counts the tuples of
	// plan.positivePreds[i]'s relation its passes consumed.
	plan    *rulePlan
	prog    *program
	cursors []int
	// idx is the rule's position in Compiled.rules; head its relation.
	idx  int
	head *Relation
	// anchor lists the variables a record rule binds before its first step:
	// its location variable (the head's first argument), in slot 0, to the
	// record's vertex, and its current-superstep variable, when it has one,
	// in slot 1, to the record's superstep.
	anchor []string
	// keyed: the rule derives exactly (anchor, current superstep); once
	// Compile returns, that its head is record-keyed (see keyHeads).
	keyed bool
	// scoped: its head is record-scoped (see scopeHeads).
	scoped bool
	// emitted counts every emission, duplicates included.
	emitted int64
	// view is rowsInDegree or rowsOutDegree when the rule is a static view
	// (see makeViews): BeginRun still derives its head, but every literal
	// reading it is a degree test. Zero otherwise.
	view rowSource
	// trie is the record pass a record rule runs in.
	trie *trie
	// mat marks a materialised rule, a global rule planned bottom-up; why is
	// the record planner's refusal ("" when it accepted the rule and every
	// rule is materialised). agg folds and flushes an aggregate head's
	// groups. copy marks a copy rule.
	mat  bool
	why  string
	agg  *aggTable
	copy bool
}

// lower compiles the rule's plan into its programs.
func (r *crule) lower(env *analysis.Env) error {
	if err := r.plan.lower(r.src, env, r.anchor...); err != nil {
		return err
	}
	r.prog = r.plan.fact
	return nil
}

// planner names the rule's kind for Explain.
func (r *crule) planner() string {
	switch {
	case r.view != 0:
		return "view"
	case r.copy:
		return "copy"
	case r.mat:
		return "materialised"
	}
	return r.kind.String()
}

// shard is one evaluation context: slot scratch and the rules whose
// emissions it is sinking, by branch. A partition shard (ovl != nil) runs
// the in-partition strata over one partition's records on that partition's
// goroutine: it reads the database (frozen meanwhile) and then its overlay.
// Each overlay relation holds, in order and keyed in its set, one head's
// new tuples of the superstep, which a tuple the shard derives must be new
// to, as to the head's own (unless probe skips a record-scoped head's); a
// tuple with a bit is in the overlay's bitset instead, registered with the
// head (Relation.bitSets), which it never leaves once merged. out lists the
// superstep's new tuples for the merge, and views the records it observed,
// for the barrier; arena holds ObservePartition's views of the engine's
// records, reused across supersteps.
//
// The main shard runs the barrier strata, global and static rules. Its
// record passes hold one rule each, so it inserts straight into the
// database as it derives.
type shard struct {
	c  *Compiled
	rn slotRun
	// sink (emit) and bufSink (buffer) are the shard's sinks, made once.
	sink    func(Tuple) error
	bufSink func(Tuple) error
	rules   []*crule
	// buffered[b] (nil: none) holds branch b's derivations until the end of
	// the record, in buf[b], heads laid end to end.
	buffered []bool
	buf      [][]value.Value

	ovl     *Database
	ovlHead []*Relation // per rule: the overlay relation of its head
	probe   []bool      // per rule: its head is probed this superstep (see layer)
	ss      int         // the superstep observed last and not merged, or -1
	out     [][]Tuple   // per rule: the new tuples (cloned), in derivation order
	chunk   arena       // the tuple arena keep cuts clones from
	emitted []int64     // per rule
	views   []RecordView
	arena   []RecordView
	// outV lists per rule the anchor vertex of each tuple of out, and marks,
	// for each record the rule emitted at, how many emissions came before:
	// the merge interleaves the shards' tuples by vertex, and counts a
	// failing rule's emissions only up to the failure. A shard alone in its
	// merge (Layer's) keeps neither: its tuples are in order already, and
	// its failing rule stopped at its failure.
	outV    [][]int64
	marks   [][]emitMark
	alone   bool
	records int64
	// err is the first error; errRule and errVertex locate it.
	err       error
	errRule   int
	errVertex int64
}

// emitMark notes that a rule's emissions before the first at vertex's
// record numbered n.
type emitMark struct {
	vertex, n int64
}

func (c *Compiled) newShard(db *Database, sg StaticGraph, ovl *Database) *shard {
	sh := &shard{c: c, ovl: ovl, ss: -1}
	sh.rn = slotRun{db: db, sg: sg, ovl: ovl, rv: &c.noRecord}
	sh.sink, sh.bufSink = sh.emit, sh.buffer
	return sh
}

// buffer is the sink of a pass with buffered branches: a buffered branch's
// head waits for the end of the record, any other is emitted now.
func (sh *shard) buffer(t Tuple) error {
	if b := sh.rn.branch; sh.buffered[b] {
		sh.buf[b] = append(sh.buf[b], t...)
		return nil
	}
	return sh.emit(t)
}

// emit sinks one head tuple of the rule of branch rn.branch.
func (sh *shard) emit(t Tuple) error {
	r := sh.rules[sh.rn.branch]
	if sh.ovl == nil {
		r.emitted++
		if _, ok := r.head.insertCopy(t); ok {
			sh.c.derived++
		}
		return nil
	}
	if v, m := sh.rn.rv.Vertex, sh.marks[r.idx]; !sh.alone && (len(m) == 0 || m[len(m)-1].vertex != v) {
		sh.marks[r.idx] = append(m, emitMark{vertex: v, n: sh.emitted[r.idx]})
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
	h := hashTuple(t)
	if ovl.has(t, h) || sh.probe[r.idx] && r.head.has(t, h) {
		return nil
	}
	ovl.appendKeyed(sh.keep(r.idx, t), h)
	return nil
}

// flush emits the record's buffered derivations, branch by branch in rule
// order, up to the failing branch: a later branch's would not have been
// derived by a rule-major pass, which stops at the failure.
func (sh *shard) flush() {
	limit := len(sh.buf)
	if sh.rn.err != nil {
		limit = sh.rn.errBranch + 1
	}
	for b, buf := range sh.buf {
		if b < limit && len(buf) > 0 {
			sh.rn.branch = b
			for n := sh.rules[b].head.arity; len(buf) >= n; buf = buf[n:] {
				sh.emit(buf[:n])
			}
		}
		sh.buf[b] = sh.buf[b][:0]
	}
}

// keep clones a new tuple of rule ri's head, lists it for the merge and
// returns the clone.
func (sh *shard) keep(ri int, t Tuple) Tuple {
	c := sh.chunk.clone(t)
	if cap(sh.out[ri]) == 0 {
		// Most rules derive about a tuple per record, if any.
		sh.out[ri] = make([]Tuple, 0, len(sh.views))
	}
	sh.out[ri] = append(sh.out[ri], c)
	if !sh.alone {
		sh.outV[ri] = append(sh.outV[ri], sh.rn.rv.Vertex)
	}
	return c
}

// tupleChunk is how many values a chunk of a tuple arena holds at most;
// the first holds 64, and each next one twice its predecessor.
const tupleChunk = 1024

// arena is a tuple arena: the chunk of values clone cuts copies from.
type arena []value.Value

// clone copies t into the arena, a chunk at a time, and returns the copy,
// capped at its length. A chunk is never reused: the tuples cut from it
// keep it, and a full one is left to them.
func (a *arena) clone(t Tuple) Tuple {
	n := len(t)
	if cap(*a)-len(*a) < n {
		*a = make(arena, 0, max(min(2*cap(*a), tupleChunk), 64, n))
	}
	at := len(*a)
	*a = append(*a, t...)
	return Tuple((*a)[at : at+n : at+n])
}

type ruleKind uint8

const (
	ruleRecord ruleKind = iota // anchored at each record
	ruleGlobal                 // reads IDBs and no record: fired semi-naively each pass
	ruleStatic                 // no record and no IDB: evaluated once
)

func (k ruleKind) String() string { return [...]string{"record", "global", "static"}[k] }

// Compile compiles an analyzed query into one program: every rule the record
// planner accepts runs record-sourced, every other is materialised (see the
// top of this file). A rule neither path can lower is a positioned error; a
// query that compiles never fails for a compile-time reason at run time.
func Compile(q *analysis.Query, db *Database, sg StaticGraph) (*Compiled, error) {
	return compile(q, db, sg, false)
}

// CompileMaterialised compiles q with every rule materialised: the EDBs the
// rules read become relations, copied from every record, and the rules run
// bottom-up over them — the paper's Naive evaluation, and the
// relation-sourced reference for the record-sourced plans.
func CompileMaterialised(q *analysis.Query, db *Database, sg StaticGraph) (*Compiled, error) {
	return compile(q, db, sg, true)
}

func compile(q *analysis.Query, db *Database, sg StaticGraph, all bool) (*Compiled, error) {
	for name, arity := range q.IDBs {
		db.Relation(name, arity)
	}
	strata := make([][]*crule, len(q.Strata))
	global := map[string]bool{}
	for si, stratum := range q.Strata {
		for _, r := range stratum {
			cr, err := planRecordRule(r, q)
			if err == nil {
				err = cr.lower(q.Env())
			}
			if all || err != nil {
				if cr, err = materialise(r, q, err); err != nil {
					return nil, err
				}
			}
			global[r.Head.Pred] = global[r.Head.Pred] || cr.kind == ruleGlobal
			strata[si] = append(strata[si], cr)
		}
	}
	// Record rules evaluate each record once, in its layer, so they must not
	// consume predicates whose tuples may appear without a matching record (a
	// global rule's head gains tuples from joins that complete in any later
	// layer): such a rule is materialised, and its head becomes global too.
	for changed := true; changed; {
		changed = false
		for _, stratum := range strata {
			for i, cr := range stratum {
				if pred := readsAny(cr, global); cr.kind == ruleRecord && pred != "" {
					m, err := materialise(cr.src, q, notCompilable(cr.src.Pos, "record rule consumes global predicate %s", pred))
					if err != nil {
						return nil, err
					}
					stratum[i], global[cr.src.Head.Pred], changed = m, true, true
				}
			}
		}
	}
	recursive := make([]bool, len(strata))
	for si, stratum := range strata {
		heads := map[string]bool{}
		for _, cr := range stratum {
			heads[cr.src.Head.Pred] = true
		}
		for _, cr := range stratum {
			recursive[si] = recursive[si] || readsAny(cr, heads) != ""
		}
	}
	c := &Compiled{delta: map[string][]Tuple{}}
	copies, err := c.copyRules(q, strata)
	if err != nil {
		return nil, err
	}
	if len(copies) > 0 {
		strata, recursive = append([][]*crule{copies}, strata...), append([]bool{false}, recursive...)
	}
	c.strata, c.recursive, c.passes = strata, recursive, make([]int64, len(strata))
	c.main = c.newShard(db, sg, nil)
	for _, name := range c.loads {
		db.Relation(name, q.EDBs[name])
	}
	for _, stratum := range strata {
		for _, cr := range stratum {
			pred := cr.src.Head.Pred
			cr.idx, cr.head = len(c.rules), db.Relation(pred, len(cr.src.Head.Args))
			cr.keyed = cr.kind == ruleRecord && derivesRecord(cr.src.Head, cr.anchor)
			cr.cursors = make([]int, len(cr.plan.positivePreds))
			c.rules = append(c.rules, cr)
			if cr.agg == nil {
				continue
			}
			for _, a := range c.aggs {
				if a.pred == pred {
					return nil, fmt.Errorf("pql: %s: aggregate predicate %s has multiple defining rules", cr.src.Pos, pred)
				}
			}
			c.aggs = append(c.aggs, cr.agg)
		}
	}
	if err := c.makeViews(q); err != nil {
		return nil, err
	}
	c.inPart = c.partitionPrefix(q)
	for _, stratum := range c.strata[:c.inPart] {
		c.partRules += len(stratum)
	}
	c.keyHeads(sg)
	c.scopeHeads()
	c.planPasses()
	return c, nil
}

// materialise plans r bottom-up, as a global rule whose every positive
// literal is a delta literal over a relation; why is the record planner's
// refusal, or nil.
func materialise(r *pql.Rule, q *analysis.Query, why error) (*crule, error) {
	plan, err := planRule(r, bottomUp{})
	if err == nil {
		err = plan.lower(r, q.Env())
	}
	if err != nil {
		return nil, err
	}
	cr := &crule{src: r, kind: ruleGlobal, plan: plan, mat: true}
	if why != nil {
		cr.why = why.Error()
	}
	if plan.aggregates {
		cr.agg = newAggTable(r, plan)
	}
	return cr, nil
}

// readsAny returns the first body predicate of r in preds, or "".
func readsAny(r *crule, preds map[string]bool) string {
	for _, lit := range r.src.Body {
		if pl, ok := lit.(*pql.PredLit); ok && preds[pl.Atom.Pred] {
			return pl.Atom.Pred
		}
	}
	return ""
}

// copyArgs are the arguments of a built-in record EDB's copy rule; an emitted
// table's are X, A1.., I.
var copyArgs = map[string]string{
	"superstep": "X, I", "value": "X, D, I", "evolution": "X, J, I", "prov_send": "X, I",
	"send_message": "X, Y, M, I", "receive_message": "X, Y, M, I", "edge_value": "X, Y, W, S", "edge": "X, Y",
}

// copyRules returns the copy rules that fill the EDB relations the
// materialised rules read, in the order the rules first read them — each a
// record rule, edge a static one — and lists those relations in c.mats, and
// in c.loads the EDBs no record holds, which the caller loads. With value
// copied, a query that reads evolution also copies each record's previous
// value at its predecessor superstep, so a join at J resolves without layer
// J; a backward walk reaches layer J after I anyway.
func (c *Compiled) copyRules(q *analysis.Query, strata [][]*crule) ([]*crule, error) {
	rp := &recordPlanner{q: q}
	var srcs []string
	for _, stratum := range strata {
		for _, cr := range stratum {
			for _, lit := range cr.src.Body {
				pl, ok := lit.(*pql.PredLit)
				if !ok || !cr.mat || rp.isIDB(pl.Atom.Pred) || slices.Contains(c.mats, pl.Atom.Pred) || slices.Contains(c.loads, pl.Atom.Pred) {
					continue
				}
				name := pl.Atom.Pred
				args, builtin := copyArgs[name]
				switch {
				case !builtin && !rp.recordLocal(name):
					c.loads = append(c.loads, name)
					continue
				case !builtin:
					args = "X"
					for i := 1; i < q.EDBs[name]-1; i++ {
						args += fmt.Sprintf(", A%d", i)
					}
					args += ", I"
				}
				c.mats = append(c.mats, name)
				srcs = append(srcs, fmt.Sprintf("%s(%s) :- %s(%s).", name, args, name, args))
			}
		}
	}
	if _, evo := q.EDBs["evolution"]; evo && slices.Contains(c.mats, "value") && q.Class != analysis.Backward {
		srcs = append(srcs, "value(X, D, J) :- evolution(X, J, I), value(X, D, J).")
	}
	c.mats = append(c.mats, c.loads...)
	copies := make([]*crule, len(srcs))
	for i, src := range srcs {
		r, err := pql.ParseRule(src)
		if err == nil {
			copies[i], err = planRecordRule(r, q)
		}
		if err == nil {
			err = copies[i].lower(q.Env())
		}
		if err != nil {
			return nil, fmt.Errorf("pql: copy rule %s: %v", src, err)
		}
		copies[i].copy = true
	}
	return copies, nil
}

// planPasses numbers the emitted tables the record steps read and splits
// each stratum into units. A barrier stratum's record rules run one to a
// trie, as a recursive stratum's do: the main shard inserts as it derives.
func (c *Compiled) planPasses() {
	ids := map[string]int{}
	for _, r := range c.rules {
		for _, p := range r.plan.programs() {
			for i := range p.steps {
				st := &p.steps[i]
				if st.kind == stepCompare || st.rows != rowsEmitted {
					continue
				}
				id, ok := ids[st.pred]
				if !ok {
					id = len(c.tables)
					ids[st.pred] = id
					c.tables = append(c.tables, st.pred)
				}
				st.table = id
			}
		}
	}
	c.units = make([][]unit, len(c.strata))
	for si, stratum := range c.strata {
		var run []*crule
		flush := func() {
			for _, t := range recordTries(run, c.recursive[si] || si >= c.inPart) {
				c.units[si] = append(c.units[si], unit{trie: t})
				for _, r := range t.rules {
					r.trie = t
				}
			}
			run = nil
		}
		for _, r := range stratum {
			switch r.kind {
			case ruleRecord:
				run = append(run, r)
			case ruleGlobal:
				flush()
				c.units[si] = append(c.units[si], unit{global: r})
			}
		}
		flush()
	}
	c.main.rn.facts.tables = c.tables
}

// makeViews turns static degree rules into views. A static rule
// h(X) :- edge(Y, X) (or edge(X, Y)) holds exactly the vertices with an in-
// (out-) edge, so when it is h's only rule and every literal reading h has
// X ground, the literal becomes a degree test over the graph instead of a
// probe of the relation. BeginRun still derives the relation, for its
// readers and its counts. The rules reading a view are lowered again.
func (c *Compiled) makeViews(q *analysis.Query) error {
	rulesOf := map[string]int{}
	for _, r := range c.rules {
		rulesOf[r.src.Head.Pred]++
	}
	views := map[string]rowSource{}
	for _, r := range c.rules {
		if src, ok := degreeRule(r.src); ok && r.kind == ruleStatic && rulesOf[r.src.Head.Pred] == 1 {
			views[r.src.Head.Pred] = src
		}
	}
	// A negation is ground by construction; a positive read must be keyed on
	// the view's column. A scan, a global rule's delta program, or any read
	// by a materialised rule, which reads relations only, keeps the rule
	// static.
	for _, r := range c.rules {
		for _, p := range r.plan.programs() {
			for _, st := range p.steps {
				if _, ok := views[st.pred]; ok && (r.mat || st.kind == stepPositive && (st.rows != rowsRelation || len(st.lookupCols) != 1)) {
					delete(views, st.pred)
				}
			}
		}
	}
	for _, r := range c.rules {
		if src, ok := views[r.src.Head.Pred]; ok {
			r.view = src
			continue
		}
		reads := false
		for _, steps := range r.plan.bodies() {
			for j := range steps {
				if ps := &steps[j]; ps.atom != nil {
					if src, ok := views[ps.atom.Pred]; ok {
						ps.rows, reads = src, true
					}
				}
			}
		}
		if !reads {
			continue
		}
		if err := r.lower(q.Env()); err != nil {
			return err
		}
	}
	return nil
}

// keyHeads makes record-keyed the heads every rule of which derives exactly
// (anchor, current superstep) — the provenance graph's node, one bit per
// record (Relation.bits) — and clears keyed on the rules of every other head.
// A graph-less compilation keys them over no vertex: every tuple falls back
// to the tuple set. The bits beat the set: with no head keyed, Query 6's
// jobs ran 29 % slower online and 83 % slower layered (benchmark medians).
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

// scopeHeads makes record-scoped the heads no rule reads whose every rule is
// an in-partition record rule with the anchor vertex at head column 0 and
// the current superstep at one column, the same in every rule, unless the
// head is record-keyed: such a tuple can equal only tuples derived at its
// own record (see Relation). Query 4's check_failed and Query 7's heads are.
// Scoping pays: with no head scoped, Query 7's online job ran 6 % slower.
func (c *Compiled) scopeHeads() {
	read := map[string]bool{}
	for _, r := range c.rules {
		for _, lit := range r.src.Body {
			if pl, ok := lit.(*pql.PredLit); ok {
				read[pl.Atom.Pred] = true
			}
		}
	}
	col := map[*Relation]int{}
	for _, r := range c.rules {
		s := -1
		if r.kind == ruleRecord && r.idx < c.partRules && !r.keyed && !read[r.src.Head.Pred] {
			s = scopeColumn(r.src.Head, r.anchor)
		}
		if prev, seen := col[r.head]; seen && prev != s {
			s = -1
		}
		col[r.head] = s
	}
	for _, r := range c.rules {
		if s := col[r.head]; s >= 0 {
			r.head.scopeRecords(s)
			r.scoped = r.head.scoped
		}
	}
}

// scopeColumn returns the first column of head holding the record rule's
// current-superstep variable, when its column 0 holds the anchor vertex,
// or -1.
func scopeColumn(head *pql.Atom, anchor []string) int {
	if len(anchor) != 2 || len(head.Args) == 0 {
		return -1
	}
	if x, ok := asVar(head.Args[0]); !ok || x != anchor[0] {
		return -1
	}
	for i, a := range head.Args {
		if v, ok := asVar(a); ok && v == anchor[1] {
			return i
		}
	}
	return -1
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
				if v, ok := asVar(pl.Atom.Args[0]); !ok || v != r.anchor[0] {
					return si
				}
			}
		}
	}
	return len(c.strata)
}

// recordPlanner is the compiled path the scheduler plans rules on, against
// transient records.
//
// Shape requirements (anything else is materialised):
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
	r    *pql.Rule
	q    *analysis.Query
	kind ruleKind

	curSS  string // the current-superstep variable
	prevSS string // the evolution predecessor variable, if any
}

// planRecordRule classifies r and plans it on the compiled path: the
// returned rule has its kind, its plan (not yet lowered) and, for a record
// rule, its anchor.
func planRecordRule(r *pql.Rule, q *analysis.Query) (*crule, error) {
	for _, a := range r.Head.Args {
		if containsAgg(a) {
			return nil, notCompilable(r.Pos, "aggregate head")
		}
	}
	rp := &recordPlanner{r: r, q: q}

	// Classify the body and identify the anchor (head location) variable.
	anchor := ""
	if len(r.Head.Args) > 0 {
		anchor, _ = asVar(r.Head.Args[0])
	}
	hasRecordLocal, hasIDB := false, false
	for _, lit := range r.Body {
		pl, ok := lit.(*pql.PredLit)
		if !ok {
			continue
		}
		pred := pl.Atom.Pred
		switch {
		case pred == "edge":
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

	cr, bound := &crule{src: r, plan: &rulePlan{}}, map[string]bool{}
	switch {
	case hasRecordLocal:
		rp.kind, cr.anchor = ruleRecord, []string{anchor}
		bound[anchor] = true
	case hasIDB:
		rp.kind = ruleGlobal
	default:
		rp.kind = ruleStatic
	}
	cr.kind = rp.kind
	var err error
	if rp.kind == ruleGlobal {
		cr.plan, err = planRule(r, rp)
	} else {
		cr.plan.factSteps, err = schedule(r, nil, bound, rp)
	}
	if err != nil {
		return nil, err
	}
	// Every record source yields the record's superstep in its superstep
	// column, so the current-superstep variable is bound from the start;
	// the schedule above stays the one planned without it.
	if rp.kind == ruleRecord && rp.curSS != "" && rp.curSS != anchor {
		cr.anchor = append(cr.anchor, rp.curSS)
	}
	return cr, nil
}

// delta reports whether a positive literal over pred gets a delta program
// in a global rule: it does over an IDB.
func (rp *recordPlanner) delta(pred string) bool { return rp.isIDB(pred) }

// rows picks the row source of a predicate step. A negated step's
// arguments are ground: it is an IDB or record-local message membership
// test.
func (rp *recordPlanner) rows(kind stepKind, a *pql.Atom, bound map[string]bool) (rowSource, error) {
	switch {
	case rp.isIDB(a.Pred):
		return rowsRelation, nil
	case kind == stepPositive:
		return rp.source(a, bound)
	case a.Pred == "receive_message":
		return rowsRecvs, nil
	case a.Pred == "send_message":
		return rowsSends, nil
	}
	return 0, notCompilable(a.Pos, "negated %s is not compilable", a.Pred)
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

// cost orders positive literals for scheduling, lower earlier:
// record-locals before enumerators before IDB lookups.
func (rp *recordPlanner) cost(a *pql.Atom, bound map[string]bool) int {
	if rp.isIDB(a.Pred) {
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
		if staticGround(a.Args[0], bound) && staticGround(a.Args[1], bound) {
			return 5 // membership test
		}
		return 20
	case "edge_value":
		if staticGround(a.Args[1], bound) {
			return 6
		}
		return 20
	default: // emitted tables
		return 10
	}
}

// checkSS validates the superstep argument of a record-local literal: it
// must be the rule's current-superstep variable (or a constant/bound term).
func (rp *recordPlanner) checkSS(t pql.Term, bound map[string]bool) error {
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
	if v != rp.curSS && !bound[v] {
		return notCompilable(rp.r.Pos, "superstep variable %s does not match the rule's current superstep", v)
	}
	return nil
}

// source picks the row source of a positive EDB literal.
func (rp *recordPlanner) source(a *pql.Atom, bound map[string]bool) (rowSource, error) {
	last := a.Args[len(a.Args)-1]
	switch a.Pred {
	case "superstep":
		return rowsSuperstep, rp.checkSS(last, bound)
	case "value":
		if v, ok := asVar(last); ok && v == rp.prevSS {
			return rowsPrevValue, nil
		}
		return rowsValue, rp.checkSS(last, bound)
	case "evolution":
		return rowsEvolution, nil
	case "receive_message":
		return rowsRecvs, rp.checkSS(last, bound)
	case "send_message":
		return rowsSends, rp.checkSS(last, bound)
	case "prov_send":
		return rowsProvSend, rp.checkSS(last, bound)
	case "edge":
		if rp.kind != ruleStatic && !staticGround(a.Args[0], bound) && !staticGround(a.Args[1], bound) {
			return 0, notCompilable(a.Pos, "unanchored edge scan outside a static rule")
		}
		return rowsEdge, nil
	case "edge_value":
		return rowsEdgeValue, nil
	default: // emitted analytic table, laid out table(X, payload..., I)
		return rowsEmitted, rp.checkSS(last, bound)
	}
}

// DerivedTuples returns how many head tuples were inserted.
func (c *Compiled) DerivedTuples() int64 { return c.derived }

// Facts returns the records processed plus the EDB tuples materialised: what
// the evaluation consumed.
func (c *Compiled) Facts() int64 {
	n := c.records
	for _, name := range c.mats {
		n += int64(c.main.rn.db.Get(name).Len())
	}
	return n
}

// Materialises reports whether EDB pred is held as a relation, whole tuples
// deduplicated, rather than read off each record column by column.
func (c *Compiled) Materialises(pred string) bool { return slices.Contains(c.mats, pred) }

// Loads names the EDBs no record holds that the program materialises: the
// caller inserts their tuples into the database before the first layer.
func (c *Compiled) Loads() []string { return c.loads }

// CompiledStats is a snapshot of a compiled query's work counters.
type CompiledStats struct {
	// PassesPerStratum counts Layer's passes per stratum: one per layer,
	// plus one per pass of a recursive stratum that derived something.
	PassesPerStratum []int64
	// Emissions counts the head tuples each predicate's rules emitted,
	// duplicates included; a cut rule emits each tuple once per binding of
	// the steps before its cut.
	Emissions map[string]int64
	// IndexBuilds counts the per-record hash indexes built over an emitted
	// table's facts: one per record and table probed with a key its sorted
	// bucket cannot take, or whose facts are not sorted (see recordFacts).
	IndexBuilds int64
	// CursorProbes counts the probes a record step answered by moving a
	// cursor along a sorted row, a record's fact bucket or an out-edge row;
	// CursorReseeks those of them that sought back by binary search.
	CursorProbes  int64
	CursorReseeks int64
}

// Stats returns a snapshot of the work counters: the partition shards'
// merged so far, and the main shard's.
func (c *Compiled) Stats() CompiledStats {
	s := CompiledStats{PassesPerStratum: append([]int64(nil), c.passes...), Emissions: map[string]int64{}}
	for _, r := range c.rules {
		s.Emissions[r.src.Head.Pred] += r.emitted
	}
	w := c.work
	w.add(c.main.rn.work)
	s.IndexBuilds, s.CursorProbes, s.CursorReseeks = w.indexBuilds, w.factProbes+w.edgeProbes, w.reseeks
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
		c.main.use(r)
		c.main.rn.prep(r.prog, nil, c.main.sink)
		if err := r.prog.start(&c.main.rn); err != nil {
			c.staticErr = err
			return err
		}
	}
	return nil
}

// Layer evaluates one provenance layer's records, in vertex order, on the
// schedule of an online superstep with one partition: shard 0 runs the
// in-partition strata, MergePartitions merges them, and BarrierLayer runs
// every other stratum over the same records — a recursive one until a pass
// derives nothing (an in-layer fixpoint). A non-recursive stratum reads
// only lower strata, which a second pass would find unchanged. Naive hands
// every layer over at once, in capture order: its in-partition strata hold
// only copy rules, which cannot fail, so no merge stops at a vertex.
func (c *Compiled) Layer(recs []RecordView) error {
	if err := c.BeginRun(); err != nil {
		return err
	}
	sh := c.partShard(0)
	sh.alone = true
	sh.layer(0, recs)
	if err := c.MergePartitions(0, nil); err != nil {
		return err
	}
	return c.BarrierLayer()
}

// BarrierLayer evaluates the strata above the in-partition prefix on the main
// shard, over the views of the shards MergePartitions merged last, in vertex
// order.
func (c *Compiled) BarrierLayer() error {
	if c.inPart == len(c.strata) {
		return nil
	}
	recs := c.mergeViews()
	for si := c.inPart; si < len(c.strata); si++ {
		for {
			c.passes[si]++
			before := c.derived
			for _, u := range c.units[si] {
				var err error
				if u.global != nil {
					err = c.fireGlobal(u.global)
				} else {
					c.main.pass(u.trie, recs)
					err = c.main.err
				}
				if err != nil {
					return err
				}
			}
			if !c.recursive[si] || c.derived == before {
				break
			}
		}
	}
	return nil
}

// ObservePartition evaluates the in-partition strata over partition p's
// records of one superstep, on the calling goroutine, and counts the
// records. The shard converts the records to views in its own arena, which
// borrow the records' slices until the barrier's BarrierLayer has read them.
// Partitions call it concurrently, after BeginRun and while nothing writes
// the database. It reports nothing: MergePartitions merges the result and
// reports the error.
func (c *Compiled) ObservePartition(p, superstep int, recs []engine.VertexRecord) {
	if !c.staticDone || c.staticErr != nil {
		return
	}
	sh := c.partShard(p)
	sh.arena = EngineViews(sh.arena, recs)
	sh.alone = false
	sh.layer(superstep, sh.arena)
}

// layer runs the in-partition strata over one partition's records of a
// superstep, in vertex order, into the emptied overlay, up to the first
// stratum that fails, and keeps the records for the barrier. The tuples of
// a superstep observed before and never merged (an aborted one) are dropped
// first. A tuple carrying its record's vertex and superstep can equal only
// one derived at that record: a record-scoped head is probed only when it
// holds the superstep already.
func (sh *shard) layer(superstep int, recs []RecordView) {
	sh.drop()
	sh.ss, sh.views, sh.records, sh.err, sh.rn.work = superstep, recs, int64(len(recs)), nil, workCounts{}
	for _, rel := range sh.ovl.rels {
		rel.truncate()
	}
	for _, r := range sh.c.rules[:sh.c.partRules] {
		sh.probe[r.idx] = !r.scoped || r.head.holds(recs)
	}
	clear(sh.emitted)
	for ri := range sh.marks {
		sh.marks[ri] = sh.marks[ri][:0]
	}
	for _, units := range sh.c.units[:sh.c.inPart] {
		for _, u := range units {
			if sh.pass(u.trie, recs); sh.err != nil {
				return
			}
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
		sh.rn.facts.tables = c.tables
		sh.ovlHead = make([]*Relation, c.partRules)
		sh.probe = make([]bool, c.partRules)
		sh.out = make([][]Tuple, c.partRules)
		sh.outV = make([][]int64, c.partRules)
		sh.emitted = make([]int64, c.partRules)
		sh.marks = make([][]emitMark, c.partRules)
		for _, r := range c.rules[:c.partRules] {
			if r.kind == ruleRecord && ovl.Get(r.src.Head.Pred) == nil {
				o := ovl.Relation(r.src.Head.Pred, r.head.arity)
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
// records, emissions and passes. Nothing is probed or keyed: the shards
// probed the frozen database, a head is located at its anchor vertex, which
// one partition owns, and the head keys what it gains at its next probe.
// shed (nil: none) names the partitions whose records are dropped;
// BarrierLayer reads the views of the shards merged. When shards failed it
// merges what a serial pass derives before its first failure and returns
// that failure: the lowest by (stratum, rule, vertex). The shards' bitsets
// forget every tuple not merged. A static rule's error, which kept the
// partitions from observing, is returned first.
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
		c.work.add(sh.rn.work)
		sh.rn.work = workCounts{}
		if sh.err != nil && (failed == nil || sh.errRule < failed.errRule ||
			sh.errRule == failed.errRule && sh.errVertex < failed.errVertex) {
			failed = sh
		}
	}
	var err error
	for si := 0; si < c.inPart && err == nil; si++ {
		c.passes[si]++
		err = c.mergeRules(c.strata[si], failed)
	}
	for _, sh := range c.live {
		sh.drop() // the rules past a failure
	}
	return err
}

// mergeRules merges the live shards' new tuples of the record rules among
// rules, in order, up to failed's failure (nil: none), and returns that
// failure when it is one of theirs.
func (c *Compiled) mergeRules(rules []*crule, failed *shard) error {
	for _, r := range rules {
		if r.kind != ruleRecord {
			continue
		}
		if failed == nil || failed.err == nil || r.idx < failed.errRule {
			c.mergeRule(r, math.MaxInt64)
			continue
		}
		if r.idx == failed.errRule {
			c.mergeRule(r, failed.errVertex)
		}
		return failed.err
	}
	return nil
}

// mergeRule appends the live shards' new tuples of rule r up to anchor vertex
// last to its head, in vertex order: each shard's list is ascending already,
// and a vertex belongs to one partition. The rest are forgotten. A shard
// alone in the merge derived none past last.
func (c *Compiled) mergeRule(r *crule, last int64) {
	heads := c.liveHeads()
	n := 0
	for _, sh := range c.live {
		r.emitted += sh.emittedUpTo(r.idx, last)
		n += len(sh.out[r.idx])
	}
	if o := r.head.order; cap(o)-len(o) < n {
		// At least doubling: a head growing by a layer's tuples at a time
		// reallocates a logarithmic number of times, not once per layer.
		r.head.order = slices.Grow(o, max(n, len(o)))
	}
	if len(c.live) == 1 && c.live[0].alone {
		for _, t := range c.live[0].out[r.idx] {
			r.head.appendNew(t)
		}
		c.derived += int64(n)
		c.live[0].forget(r.idx, n)
		return
	}
	for {
		best := -1
		var bestV int64
		for i, sh := range c.live {
			if vs := sh.outV[r.idx]; heads[i] < len(vs) && (best < 0 || vs[heads[i]] < bestV) {
				best, bestV = i, vs[heads[i]]
			}
		}
		if best < 0 || bestV > last {
			break
		}
		r.head.appendNew(c.live[best].out[r.idx][heads[best]])
		heads[best]++
		c.derived++
	}
	for i, sh := range c.live {
		sh.forget(r.idx, heads[i])
	}
}

// mergeViews returns the live shards' views in vertex order, merged as
// mergeRule merges their tuples; one shard's as they are.
func (c *Compiled) mergeViews() []RecordView {
	if len(c.live) == 1 {
		return c.live[0].views
	}
	heads, n := c.liveHeads(), 0
	for _, sh := range c.live {
		n += len(sh.views)
	}
	views := slices.Grow(c.views[:0], n)
	for len(views) < n {
		best := -1
		for i, sh := range c.live {
			if heads[i] < len(sh.views) && (best < 0 || sh.views[heads[i]].Vertex < c.live[best].views[heads[best]].Vertex) {
				best = i
			}
		}
		views = append(views, c.live[best].views[heads[best]])
		heads[best]++
	}
	c.views = views
	return views
}

// liveHeads returns a zeroed cursor per live shard, reusing c.heads.
func (c *Compiled) liveHeads() []int {
	c.heads = slices.Grow(c.heads[:0], len(c.live))[:len(c.live)]
	clear(c.heads)
	return c.heads
}

// emittedUpTo counts rule ri's emissions at vertices up to last.
func (sh *shard) emittedUpTo(ri int, last int64) int64 {
	if last < math.MaxInt64 {
		for _, m := range sh.marks[ri] {
			if m.vertex > last {
				return m.n
			}
		}
	}
	return sh.emitted[ri]
}

// forget unsets the bits of the tuples of out[ri][from:], which the merge
// did not take, in the shard's bitset, and empties out[ri]. The overlay's
// set forgets the superstep's tuples when the next is observed (layer).
func (sh *shard) forget(ri, from int) {
	ovl := sh.ovlHead[ri]
	for _, t := range sh.out[ri][from:] {
		if v, s, ok := ovl.bitOf(t); ok {
			ovl.bits.unset(v, s)
		}
	}
	sh.out[ri], sh.outV[ri] = sh.out[ri][:0], sh.outV[ri][:0]
}

// drop forgets every new tuple the merge has not taken: all of the superstep
// the shard observed last unless it was merged, which empties out.
func (sh *shard) drop() {
	for ri := range sh.out {
		sh.forget(ri, 0)
	}
	sh.ss = -1
}

// use points the shard's sink at rule r alone, emitting at once.
func (sh *shard) use(r *crule) {
	sh.rules, sh.buffered = sh.c.rules[r.idx:r.idx+1], nil
}

// pass runs record pass t over recs, record by record, the anchor slots
// holding the record's vertex and superstep: the record's branches, then
// its buffered derivations in rule order. A failing branch stops itself and
// every later one; the earlier ones finish the records. The failure a
// rule-major pass would have met first, the lowest by (rule, vertex), is
// left in err, errRule and errVertex.
func (sh *shard) pass(t *trie, recs []RecordView) {
	rn := &sh.rn
	sh.rules, sh.buffered, sh.err = t.rules, t.buffered, nil
	if t.buffered != nil {
		sh.buf = slices.Grow(sh.buf[:0], len(t.rules))[:len(t.rules)]
	}
	sink := sh.sink
	if t.buffered != nil {
		sink = sh.bufSink
	}
	rn.prep(t.prog, nil, sink)
	rn.err = nil
	for i := range recs {
		rn.rv = &recs[i]
		rn.recSeq++
		rn.slots[0] = value.NewInt(recs[i].Vertex)
		if t.ss {
			rn.slots[1] = value.NewInt(recs[i].Superstep)
		}
		rn.done = 0
		if err := t.prog.start(rn); err != nil && err != errCut {
			rn.fail(t.prog.all(), err)
		}
		if t.buffered != nil {
			sh.flush()
		}
		if rn.live == 0 {
			break
		}
	}
	if rn.err != nil {
		sh.err, sh.errRule, sh.errVertex = rn.err, t.rules[rn.errBranch].idx, rn.errVertex
	}
}

// fireGlobal runs one pass of a global rule: each positive delta literal's
// program over the tuples that literal's relation gained since the rule's
// last pass, every other literal reading its whole relation — or, with no
// delta literal, the rule's one program. A tuple the pass adds to a
// relation the rule reads is the next pass's delta, so a join completes in
// the pass after its last tuple arrives, in whichever layer that is.
//
// A cursor counts the relation's appends, not positions: an aggregate flush
// deletes a group's old tuple from the middle of its head, and the tuples
// appended since are still the relation's last ones (when one of those was
// deleted again the delta starts early, re-deriving only what the rule
// derived before). An aggregate rule folds and flushes (aggTable.fire).
func (c *Compiled) fireGlobal(r *crule) error {
	db := c.main.rn.db
	for i, pred := range r.plan.positivePreds {
		rel := db.Get(pred)
		c.delta[pred] = rel.order[len(rel.order)-min(len(rel.order), rel.appends-r.cursors[i]):]
		r.cursors[i] = rel.appends
	}
	c.main.use(r)
	if r.agg != nil {
		return r.agg.fire(&c.main.rn, c.delta, r.head, c.main.sink)
	}
	return r.plan.fire(&c.main.rn, c.delta, c.main.sink)
}

// EngineViews writes the views of live engine records into dst, reused
// across supersteps and grown only to the largest superstep's records. Each
// view is a header over the record: its message and fact slices are the
// engine's own, borrowed for as long as the engine keeps the records. The
// engine supplies each record's previous value itself.
func EngineViews(dst []RecordView, recs []engine.VertexRecord) []RecordView {
	if cap(dst) < len(recs) {
		dst = make([]RecordView, len(recs))
	}
	dst = dst[:len(recs)]
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
