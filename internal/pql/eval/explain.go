package eval

import (
	"fmt"
	"strings"

	"ariadne/internal/pql/analysis"
)

// Explain reports how q is lowered: how many of its rules the record planner
// refused, so that they run materialised, and the EDBs loaded from a store;
// then per rule the planner kind, the join order, each step's row source
// with its key columns, the slot count and the cut (cut=k: every head
// variable is bound before step k+1, so the first completion ends that
// step's enumeration), and keys=record when the rule's head is record-keyed
// (one bit per (vertex, superstep) member) or keys=scoped when it is
// record-scoped (deduplicated per record, keyed only on demand). A step
// that probes a sorted row with a cursor ends in "cursor": an out-edge row,
// or an emitted table's facts, whose bucket falls back to a hash index when
// they are not sorted by an Int first argument. A global rule shows one program
// per delta literal; a materialised one is a global rule over relations,
// and shows the record planner's refusal. The copy rules that fill the
// relations it reads (planner=copy) come first, in a stratum of their own.
// A record-sourced stratum marked recursive iterates to an in-layer
// fixpoint; every other runs once per layer. Each stratum shows its online
// placement: partition (on each engine partition's goroutine, right after
// its compute) or barrier. Record rules that share steps (one record pass,
// trie.go) show their headers, each with branch=n, then the trie once.
// Every rule shown is a slot program; there is no other way a rule can run.
func Explain(q *analysis.Query) (string, error) {
	var b strings.Builder
	c, err := Compile(q, NewDatabase(), nil)
	if err != nil {
		return "", err
	}
	fmt.Fprintf(&b, "lowering:       record-sourced (%d rules", len(q.Rules))
	mat := 0
	for _, r := range c.rules {
		if r.mat {
			mat++
		}
	}
	if mat > 0 {
		fmt.Fprintf(&b, ", %d materialised", mat)
	}
	b.WriteString(")\n")
	if len(c.loads) > 0 {
		fmt.Fprintf(&b, "loaded:         %s\n", strings.Join(c.loads, ", "))
	}
	for si, stratum := range c.strata {
		label := fmt.Sprint(si)
		if c.recursive[si] {
			label += " recursive"
		}
		if si < c.inPart {
			label += " partition"
		} else {
			label += " barrier"
		}
		for _, r := range stratum {
			t := r.trie
			switch {
			case r.kind == ruleGlobal:
				why := ""
				if r.why != "" {
					why = " (" + r.why + ")"
				}
				fmt.Fprintf(&b, "  [%s] %s\n      planner=%s%s\n", label, r.src, r.planner(), why)
				r.plan.describe(&b)
			case t == nil || !t.shared:
				r.describe(&b, label, "")
				r.prog.describe(&b, "      ")
			case t.rules[0] == r:
				for bi, tr := range t.rules {
					tr.describe(&b, label, fmt.Sprintf(" branch=%d", bi+1))
				}
				t.prog.describe(&b, "      ")
			}
		}
	}
	return b.String(), nil
}

// describe writes a record or static rule's header: the rule, its planner,
// slot count, cut and keys, then note.
func (r *crule) describe(b *strings.Builder, label, note string) {
	keys := ""
	switch {
	case r.keyed:
		keys = " keys=record"
	case r.scoped:
		keys = " keys=scoped"
	}
	fmt.Fprintf(b, "  [%s] %s\n      planner=%s slots=%d%s%s%s\n", label, r.src, r.planner(),
		r.prog.nSlots, r.prog.cutNote(), keys, note)
}

// cutNote renders a one-rule program's cut for Explain, or nothing without
// one.
func (p *program) cutNote() string {
	if cut := p.branches[0].cut; cut >= 0 {
		return fmt.Sprintf(" cut=%d", cut)
	}
	return ""
}

// describe writes the plan's programs: the fact program, or one per delta
// literal.
func (p *rulePlan) describe(b *strings.Builder) {
	if p.fact != nil {
		fmt.Fprintf(b, "      fact: slots=%d%s\n", p.fact.nSlots, p.fact.cutNote())
		p.fact.describe(b, "        ")
	}
	for vi, prog := range p.progs {
		fmt.Fprintf(b, "      delta %s: slots=%d%s\n", p.positivePreds[vi], prog.nSlots, prog.cutNote())
		prog.describe(b, "        ")
	}
}

// describe writes the program's steps, each once, in execution order,
// numbered by depth: a one-rule program's one after the other, a trie's
// where its branches part under a label naming the branches below (numbered
// from 1, in rule order), one indent deeper.
func (p *program) describe(b *strings.Builder, indent string) {
	p.describeKids(b, p.roots, 0, indent)
}

// describe writes the step's line, numbered n: what it runs and its
// literal.
func (st *slotStep) describe(b *strings.Builder, n int, indent string) {
	what := ""
	switch {
	case st.kind == stepCompare && st.bindSlot >= 0:
		what = "bind"
	case st.kind == stepCompare:
		what = "filter"
	default:
		what = st.rows.String()
		if st.kind == stepNegated {
			what = "not " + what
		}
		if len(st.lookupCols) > 0 {
			what += fmt.Sprintf(" key%v", st.lookupCols)
		}
	}
	cursor := ""
	if st.cursor() {
		cursor = " cursor"
	}
	fmt.Fprintf(b, "%s%d. %-24s %s%s\n", indent, n, what, st.text, cursor)
}

// cursor reports whether the step probes a sorted row with a cursor: an
// emitted table or edge_value keyed on the peer, or an edge membership test.
func (st *slotStep) cursor() bool {
	switch {
	case st.kind == stepCompare:
		return false
	case st.rows == rowsEmitted, st.rows == rowsEdgeValue:
		return len(st.lookupCols) > 0
	case st.rows == rowsEdge:
		return len(st.lookupCols) == 2
	}
	return false
}
