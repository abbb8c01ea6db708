package eval

import (
	"fmt"
	"math/bits"
	"strings"
)

// A record pass runs a stratum's record rules record by record as one
// prefix trie (Palgol's many rules compiled into one per-vertex step): the
// rules whose lowered programs begin with the same steps — up to variable
// names, under the same anchor — share those steps, so a record's rows of
// the shared prefix are enumerated once and each rule's suffix runs on
// them, as one branch of the trie's program. Query 7's four rules become one
// scan of a record's prov_error facts, then per fact one edge_value probe
// under which the two input_failed filters run and one prov_prediction
// probe under which the two algo_failed filters run.
//
// Sharing keeps every rule's own enumeration: a shared step is one the rules
// run in the same order over the same rows, and a branch's cut ends only
// that branch's enumeration — the branch is done, and the steps below its
// cut step skip it (slotRun.done), so an errCut never ends a sibling's.
// Two limits keep the trie small:
//   - a shared prefix ends at a step that binds a slot: a prefix that binds
//     nothing is an existence test, and sharing it saves no enumeration;
//   - a trie holds at most 64 rules (a pass's live set is one word); a
//     longer run of record rules is a sequence of tries, as a recursive
//     stratum is a sequence of one-rule tries.
//
// Which rule derives a tuple first, and so owns it, is the rule-major
// pass's: the branches of a head two rules of the trie derive buffer their
// derivations per record, and the shard flushes them in rule order at the
// record's end (shard.flush). A failing branch stops itself and every later
// branch (slotRun.fail); the earlier ones finish the records.

// maxTrieRules bounds the rules of one trie: the live set is one word.
const maxTrieRules = 64

// trie is one record pass: rules, in rule order, run as prog's branches.
type trie struct {
	prog  *program
	rules []*crule
	// ss reports whether some rule binds the current superstep in slot 1
	// before its first step.
	ss bool
	// buffered[b] (nil: none) reports whether branch b shares its head with
	// another branch, so its derivations wait for the record's end.
	buffered []bool
	// shared reports whether some step runs for two or more branches.
	shared bool
}

// tnode is a step of a trie under construction: a copy of the step of the
// rule that placed it, the branches below it, those whose cut step it is,
// and what follows it in placement order. anchors is the placing rule's
// anchor count.
type tnode struct {
	st      slotStep
	mask    uint64
	cutMask uint64
	anchors int
	kids    []tkid
}

// tkid follows a step: a step, or (n nil) the end of branch b.
type tkid struct {
	n *tnode
	b int
}

// newTrie merges record rules, in rule order, into one trie.
func newTrie(rules []*crule) *trie {
	t := &trie{rules: rules}
	var roots []tkid
	nSlots := 0
	heads := map[*Relation]int{}
	for b, r := range rules {
		p := r.prog
		nSlots = max(nSlots, p.nSlots)
		t.ss = t.ss || len(r.anchor) > 1
		heads[r.head]++
		// The longest prefix placed by earlier rules that this rule shares,
		// backed up to its last binding step.
		var path []*tnode
		kids := &roots
		for d := range p.steps {
			var next *tnode
			for _, k := range *kids {
				if k.n != nil && k.n.anchors == len(r.anchor) && k.n.st.sig == p.steps[d].sig {
					next = k.n
					break
				}
			}
			if next == nil {
				break
			}
			path, kids = append(path, next), &next.kids
		}
		for len(path) > 0 && !path[len(path)-1].st.binds {
			path = path[:len(path)-1]
		}
		kids = &roots
		if len(path) > 0 {
			kids = &path[len(path)-1].kids
		}
		for d := len(path); d < len(p.steps); d++ {
			n := &tnode{st: p.steps[d], anchors: len(r.anchor)}
			*kids = append(*kids, tkid{n: n})
			path, kids = append(path, n), &n.kids
		}
		*kids = append(*kids, tkid{b: b})
		for _, n := range path {
			n.mask |= 1 << uint(b)
		}
		if cut := p.branches[0].cut; cut >= 0 {
			path[cut].cutMask |= 1 << uint(b)
		}
	}
	for b, r := range rules {
		if heads[r.head] > 1 {
			if t.buffered == nil {
				t.buffered = make([]bool, len(rules))
			}
			t.buffered[b] = true
		}
	}
	// Lay the steps out depth first, each pointing at its kids by index.
	p := &program{nSlots: nSlots}
	var lay func(ks []tkid) []kid
	lay = func(ks []tkid) []kid {
		out := make([]kid, len(ks))
		for i, k := range ks {
			if k.n == nil {
				out[i] = kid{to: ^int32(k.b), mask: 1 << uint(k.b)}
				continue
			}
			si := len(p.steps)
			p.steps = append(p.steps, k.n.st)
			p.steps[si].mask, p.steps[si].cutMask = k.n.mask, k.n.cutMask
			t.shared = t.shared || bits.OnesCount64(k.n.mask) > 1
			kids := lay(k.n.kids)
			p.steps[si].kids = kids
			out[i] = kid{to: int32(si), mask: k.n.mask}
		}
		return out
	}
	p.roots = lay(roots)
	for _, r := range rules {
		p.branches = append(p.branches, r.prog.branches[0])
	}
	t.prog = p
	return t
}

// recordTries splits record rules, in rule order, into tries: a recursive
// stratum's rules one to a trie, any other's up to maxTrieRules to one, as
// long as they anchor as many slots. A pass writes the record's superstep to
// slot 1 once per record, which a rule without a current-superstep variable
// binds a variable of its own to.
func recordTries(rules []*crule, recursive bool) []*trie {
	var out []*trie
	for len(rules) > 0 {
		n := 1
		for !recursive && n < min(len(rules), maxTrieRules) && len(rules[n].anchor) == len(rules[0].anchor) {
			n++
		}
		out = append(out, newTrie(rules[:n]))
		rules = rules[n:]
	}
	return out
}

// describeKids writes what kids run, numbering their steps from depth+1.
func (p *program) describeKids(b *strings.Builder, kids []kid, depth int, indent string) {
	if len(kids) == 1 {
		if kids[0].to >= 0 {
			p.describeFrom(b, int(kids[0].to), depth, indent)
		}
		return
	}
	for _, k := range kids {
		if k.to < 0 {
			fmt.Fprintf(b, "%sbranch %d: emits\n", indent, ^k.to+1)
			continue
		}
		var names []string
		for m := k.mask; m != 0; m &= m - 1 {
			names = append(names, fmt.Sprint(bits.TrailingZeros64(m)+1))
		}
		label := "branch "
		if len(names) > 1 {
			label = "branches "
		}
		fmt.Fprintf(b, "%s%s%s:\n", indent, label, strings.Join(names, ", "))
		p.describeFrom(b, int(k.to), depth, indent+"  ")
	}
}

// describeFrom writes step si, numbered depth+1, and what follows it.
func (p *program) describeFrom(b *strings.Builder, si, depth int, indent string) {
	p.steps[si].describe(b, depth+1, indent)
	p.describeKids(b, p.steps[si].kids, depth+1, indent)
}
