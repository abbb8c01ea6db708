package eval

import (
	"fmt"
	"strings"

	"ariadne/internal/pql/analysis"
)

// Explain reports how q is lowered: whether its rules run record-sourced (as
// a query vertex program) or on the materialised Evaluator — and then the
// one reason why — and per rule the planner kind, the join order, each
// step's row source with its key columns, the slot count and the cut
// (cut=k: every head variable is bound before step k+1, so the first
// completion ends that step's enumeration). A record-sourced stratum marked
// recursive iterates to an in-layer fixpoint; every other runs once per
// layer. Each record-sourced stratum shows its online placement: partition
// (on each engine partition's goroutine, right after its compute) or
// barrier. Every rule shown is a slot program; there is no other way a rule
// can run.
func Explain(q *analysis.Query) (string, error) {
	var b strings.Builder
	c, cerr := Compile(q, NewDatabase(), nil)
	if cerr == nil {
		fmt.Fprintf(&b, "lowering:       record-sourced (%d rules)\n", len(q.Rules))
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
				fmt.Fprintf(&b, "  [%s] %s\n      planner=%s slots=%d%s\n", label, r.src, r.kind, r.prog.nSlots, r.prog.cutNote())
				r.prog.describe(&b, "      ")
			}
		}
		return b.String(), nil
	}
	ev, err := NewEvaluator(q, NewDatabase())
	if err != nil {
		return "", err
	}
	reason := strings.TrimPrefix(cerr.Error(), ErrNotCompilable.Error()+": ")
	fmt.Fprintf(&b, "lowering:       materialised (%d rules) — %s\n", len(q.Rules), reason)
	for si, stratum := range q.Strata {
		for _, r := range stratum {
			plan := ev.plans[r]
			fmt.Fprintf(&b, "  [%d] %s\n      planner=materialised\n", si, r)
			if plan.fact != nil {
				fmt.Fprintf(&b, "      fact: slots=%d%s\n", plan.fact.nSlots, plan.fact.cutNote())
				plan.fact.describe(&b, "        ")
			}
			for vi, p := range plan.progs {
				fmt.Fprintf(&b, "      delta %s: slots=%d%s\n", plan.positivePreds[vi], p.nSlots, p.cutNote())
				p.describe(&b, "        ")
			}
		}
	}
	return b.String(), nil
}

// cutNote renders the program's cut for Explain, or nothing without one.
func (p *program) cutNote() string {
	if p.cut < 0 {
		return ""
	}
	return fmt.Sprintf(" cut=%d", p.cut)
}

// describe writes one line per step, in execution order.
func (p *program) describe(b *strings.Builder, indent string) {
	for i := range p.steps {
		st := &p.steps[i]
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
		fmt.Fprintf(b, "%s%d. %-24s %s\n", indent, i+1, what, st.text)
	}
}
