package analysis

import (
	"ariadne/internal/pql"
)

// classify performs the paper's location analysis. Every PQL predicate's
// first argument is its location specifier (§4.2). For a rule with head
// location X, a body predicate located at Y != X is *remote*; evaluating it
// requires Y to ship its partition to X. The rule is VC-compatible
// (Def. 4.1) iff each such Y is guarded by a message predicate connecting X
// and Y: receive_message(X, Y, _, _) — X heard from Y — or
// send_message(X, Y, _, _) — X messaged Y. The query is *forward* if only
// receive guards occur, *backward* if only send guards (Def. 5.2), *local*
// if no remote predicates exist, and *mixed* otherwise.
func (q *Query) classify() error {
	q.VCCompatible = true
	usesRecvGuards := false
	usesSendGuards := false
	readsPredecessor := false

	for _, r := range q.Rules {
		for _, lit := range r.Body {
			if pl, ok := lit.(*pql.PredLit); ok && !pl.Negated && pl.Atom.Pred == "evolution" {
				readsPredecessor = true
			}
		}
		headLoc, ok := locationVar(r.Head)
		if !ok {
			// Constant location (e.g. a fact): no remote access possible.
			continue
		}

		// Collect guard pairs available in this rule's body. Message
		// predicates guard their peer; static input edges guard too
		// (paper §6.3: "for analytics where vertices send messages to all
		// their outgoing neighbors ... the same information is encoded in
		// the edges of the input graph" — Query 12 traces along
		// edge + prov_send instead of send_message). edge(X, Y) lets X
		// reach its out-neighbor Y (send direction); edge(Y, X) lets X
		// hear from its in-neighbor Y (receive direction).
		recvGuarded := map[string]bool{} // var names Y with receive_message(X, Y, ...)
		sendGuarded := map[string]bool{}
		for _, lit := range r.Body {
			pl, ok := lit.(*pql.PredLit)
			if !ok || pl.Negated {
				continue
			}
			if len(pl.Atom.Args) < 2 {
				continue
			}
			switch pl.Atom.Pred {
			case "receive_message", "send_message":
				loc, lok := asVarName(pl.Atom.Args[0])
				peer, pok := asVarName(pl.Atom.Args[1])
				if !lok || !pok || loc != headLoc {
					continue
				}
				if pl.Atom.Pred == "receive_message" {
					recvGuarded[peer] = true
				} else {
					sendGuarded[peer] = true
				}
			case "edge":
				a0, ok0 := asVarName(pl.Atom.Args[0])
				a1, ok1 := asVarName(pl.Atom.Args[1])
				if ok0 && ok1 {
					if a0 == headLoc {
						sendGuarded[a1] = true
					}
					if a1 == headLoc {
						recvGuarded[a0] = true
					}
				}
			}
		}

		// Check every body predicate's location.
		for _, lit := range r.Body {
			pl, ok := lit.(*pql.PredLit)
			if !ok {
				continue
			}
			if IsStaticEDB(pl.Atom.Pred) {
				continue
			}
			loc, lok := asVarName(pl.Atom.Args[0])
			if !lok {
				continue // constant location: reachable without messages? No —
				// constant-located atoms select one node's partition; treat
				// as local since the tuple location is fixed, not shipped.
			}
			if loc == headLoc {
				continue
			}
			// Remote predicate at location `loc`.
			switch {
			case recvGuarded[loc] && !sendGuarded[loc]:
				usesRecvGuards = true
			case sendGuarded[loc] && !recvGuarded[loc]:
				usesSendGuards = true
			case recvGuarded[loc] && sendGuarded[loc]:
				// Guarded both ways: VC-compatible but direction-ambiguous.
				usesRecvGuards = true
				usesSendGuards = true
			default:
				q.VCCompatible = false
			}
		}
	}

	switch {
	case !q.VCCompatible:
		q.Class = Mixed
	case usesRecvGuards && usesSendGuards:
		q.Class = Mixed
	case usesSendGuards && readsPredecessor:
		// A backward query walks the layers downward, but an evolution
		// literal reads the vertex's previous active superstep, which that
		// walk reaches only later: the query is not directed either way.
		q.Class = Mixed
	case usesRecvGuards:
		q.Class = Forward
	case usesSendGuards:
		q.Class = Backward
	default:
		q.Class = Local
	}
	return nil
}

// locationVar returns the head's location variable name, or ok=false when
// the location is a constant.
func locationVar(a *pql.Atom) (string, bool) {
	return asVarName(a.Args[0])
}

func asVarName(t pql.Term) (string, bool) {
	v, ok := t.(*pql.Var)
	if !ok || v.Wildcard() {
		return "", false
	}
	return v.Name, true
}
