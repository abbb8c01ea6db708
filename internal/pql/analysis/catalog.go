package analysis

// The built-in provenance EDB predicates (paper Table 1 plus the compact-
// graph extras of §3 and §6.3). By convention the first argument of every
// predicate is the location specifier.
//
//	superstep(X, I)             vertex X was active at superstep I
//	value(X, D, I)              vertex X had value D at superstep I
//	evolution(X, J, I)          X active at J and I, J the predecessor of I
//	send_message(X, Y, M, I)    X sent message M to Y at superstep I
//	receive_message(X, Y, M, I) X received message M from Y at superstep I
//	edge_value(X, Y, D, I)      value D of edge X->Y at superstep I
//	edge(Y, X)                  static input-graph edge Y->X
//	prov_send(X, I)             X sent at least one message at superstep I
//	                            (custom capture, paper Query 11)
//	capture_gap(P, F, T)        provenance capture for partition P was shed
//	                            for supersteps F..T (degraded-mode record;
//	                            P = -1 means all partitions)
//
// Telemetry-as-EDB (PR 7): the run's own execution profile is queryable
// alongside provenance, so "why was superstep 3 slow" joins with "what did
// vertex X do at superstep 3".
//
//	superstep_profile(S, Phase, Partition, Nanos, Tuples)
//	                            phase Phase ("compute", "barrier", "observe",
//	                            "spill", "checkpoint") of superstep S took
//	                            Nanos; Partition = -1 for whole-superstep
//	                            rows, >= 0 for per-partition compute rows
//	net_rpc(S, Partition, Bytes, Retries, Nanos)
//	                            the exchange RPC for Partition at superstep S
//	                            moved Bytes over the wire, needed Retries
//	                            retransmits, and took Nanos end to end
var builtinEDBs = map[string]int{
	"superstep":         2,
	"value":             3,
	"evolution":         3,
	"send_message":      4,
	"receive_message":   4,
	"edge_value":        4,
	"edge":              2,
	"prov_send":         2,
	"capture_gap":       3,
	"superstep_profile": 5,
	"net_rpc":           5,
}

// staticEDBs hold input-graph structure rather than per-vertex provenance.
// They are exempt from location analysis: real VC systems replicate or
// co-locate graph structure with vertices (e.g. Giraph keeps out-edges at
// the source and can precompute in-degrees), so joining on them requires no
// message exchange.
var staticEDBs = map[string]bool{
	"edge": true,
	// capture_gap records degraded-mode shed ranges; they are run-global
	// metadata (a handful of tuples), replicated everywhere for free.
	"capture_gap": true,
	// Telemetry tables are run-global: O(supersteps × phases) and
	// O(supersteps × partitions) tuples owned by the master, not located at
	// any vertex.
	"superstep_profile": true,
	"net_rpc":           true,
}

// EDBArity returns the arity of an EDB predicate and whether it exists,
// considering both built-ins and env-declared tables.
func (e *Env) EDBArity(name string) (int, bool) {
	if a, ok := builtinEDBs[name]; ok {
		return a, true
	}
	a, ok := e.ExtraEDBs[name]
	return a, ok
}

// IsStaticEDB reports whether the predicate is location-free static data.
func IsStaticEDB(name string) bool { return staticEDBs[name] }

// storeEDBs are fed only from a captured store: the degraded-mode gaps and
// the run telemetry it carries. Online evaluation has no store to read them
// from.
var storeEDBs = []string{"capture_gap", "net_rpc", "superstep_profile"}

// StoreEDB returns the first EDB of q, by name, that only a captured store
// holds, or "" when q reads none.
func (q *Query) StoreEDB() string {
	for _, name := range storeEDBs {
		if _, ok := q.EDBs[name]; ok {
			return name
		}
	}
	return ""
}
