package capture

import (
	"slices"
	"strings"
	"sync"
	"testing"

	"ariadne/internal/engine"
	"ariadne/internal/graph"
	"ariadne/internal/pql"
	"ariadne/internal/pql/analysis"
	"ariadne/internal/provenance"
	"ariadne/internal/value"
)

// observe drives one superstep through o the way the engine does: the
// records, in ascending vertex order, are split over parts partitions by
// vertex id, each partition's share goes to ObservePartition on its own
// goroutine, and ObserveSuperstep runs once they all returned.
func observe(o *Observer, parts, ss int, recs ...engine.VertexRecord) error {
	split := make([][]engine.VertexRecord, parts)
	for _, r := range recs {
		p := int(r.ID) % parts
		split[p] = append(split[p], r)
	}
	var wg sync.WaitGroup
	for p, rs := range split {
		wg.Add(1)
		go func(p int, rs []engine.VertexRecord) {
			defer wg.Done()
			o.ObservePartition(p, ss, rs)
		}(p, rs)
	}
	wg.Wait()
	return o.ObserveSuperstep(&engine.SuperstepView{Superstep: ss})
}

func rec(id graph.VertexID, prev int, val float64, sent []engine.SentMessage, recv []engine.IncomingMessage) engine.VertexRecord {
	return engine.VertexRecord{
		ID: id, PrevActive: prev,
		NewValue: value.NewFloat(val),
		Sent:     sent, Received: recv,
		SentAny: len(sent) > 0,
	}
}

func TestFullPolicyCapturesEverything(t *testing.T) {
	store := provenance.NewStore(provenance.StoreConfig{})
	o := NewObserver(FullPolicy(), store)
	if o.Reads() != engine.FieldReceived|engine.FieldSent|engine.FieldEmitted {
		t.Errorf("full policy reads %b, want receives, sends and emitted facts", o.Reads())
	}
	sent := []engine.SentMessage{{Dst: 2, Val: value.NewFloat(1)}}
	recv := []engine.IncomingMessage{{Src: 3, Val: value.NewFloat(2)}}
	r := rec(1, -1, 0.5, sent, recv)
	r.Emitted = []engine.ProvFact{{Table: "prov_error", Args: []value.Value{value.NewInt(3)}}}
	if err := observe(o, 1, 0, r); err != nil {
		t.Fatal(err)
	}
	l, err := store.Layer(0)
	if err != nil {
		t.Fatal(err)
	}
	got := l.Records[0]
	if !got.HasValue || got.Value.Float() != 0.5 {
		t.Errorf("value not captured: %+v", got)
	}
	if len(got.Sends) != 1 || got.Sends[0].Peer != 2 {
		t.Errorf("sends not captured: %+v", got.Sends)
	}
	if len(got.Recvs) != 1 || got.Recvs[0].Peer != 3 {
		t.Errorf("recvs not captured: %+v", got.Recvs)
	}
	if len(got.Emitted) != 1 || got.Emitted[0].Table != "prov_error" {
		t.Errorf("emitted facts not captured: %+v", got.Emitted)
	}
}

func TestBackwardCustomPolicyDropsMessageValues(t *testing.T) {
	store := provenance.NewStore(provenance.StoreConfig{})
	o := NewObserver(BackwardCustomPolicy(), store)
	if o.Reads() != 0 {
		t.Errorf("send-flag capture reads %b, want no optional field", o.Reads())
	}
	sent := []engine.SentMessage{{Dst: 2, Val: value.NewFloat(1)}}
	if err := observe(o, 1, 0, rec(1, -1, 0.5, sent, nil)); err != nil {
		t.Fatal(err)
	}
	l, _ := store.Layer(0)
	got := l.Records[0]
	if len(got.Sends) != 0 {
		t.Error("send tuples must not be captured")
	}
	if !got.SentAny {
		t.Error("send flag must be captured")
	}
	if !got.HasValue {
		t.Error("values must be captured")
	}
}

func TestTaintPropagation(t *testing.T) {
	store := provenance.NewStore(provenance.StoreConfig{})
	o := NewObserver(ForwardLineagePolicy(0), store)

	// ss0: all three vertices compute; only source 0 is tainted.
	if err := observe(o, 3, 0,
		rec(0, -1, 1, []engine.SentMessage{{Dst: 1, Val: value.NewFloat(1)}}, nil),
		rec(1, -1, 1, nil, nil),
		rec(2, -1, 1, nil, nil),
	); err != nil {
		t.Fatal(err)
	}
	l0, _ := store.Layer(0)
	if len(l0.Records) != 1 || l0.Records[0].Vertex != 0 {
		t.Fatalf("layer 0 should contain only the source: %+v", l0.Records)
	}

	// ss1: vertex 1 receives from 0 (tainted), vertex 2 from 1 (1 was NOT
	// tainted when it sent, i.e. before this layer).
	if err := observe(o, 3, 1,
		rec(1, 0, 2, nil, []engine.IncomingMessage{{Src: 0, Val: value.NewFloat(1)}}),
		rec(2, 0, 2, nil, []engine.IncomingMessage{{Src: 1, Val: value.NewFloat(1)}}),
	); err != nil {
		t.Fatal(err)
	}
	l1, _ := store.Layer(1)
	if len(l1.Records) != 1 || l1.Records[0].Vertex != 1 {
		t.Fatalf("layer 1 should contain only vertex 1: %+v", l1.Records)
	}

	// ss2: now 1 is tainted, so 2 receiving from 1 joins the lineage.
	if err := observe(o, 3, 2,
		rec(2, 0, 3, nil, []engine.IncomingMessage{{Src: 1, Val: value.NewFloat(2)}}),
	); err != nil {
		t.Fatal(err)
	}
	l2, _ := store.Layer(2)
	if len(l2.Records) != 1 || l2.Records[0].Vertex != 2 {
		t.Fatalf("layer 2 should contain vertex 2: %+v", l2.Records)
	}
	if store.DistinctVertices() != 3 {
		t.Errorf("lineage covers %d vertices, want 3", store.DistinctVertices())
	}
}

// TestForwardLineageAcrossPartitions pins when a taint found in one
// partition reaches another. Vertex 2 (partition 0) joins the lineage at
// superstep 1; vertex 3 (partition 1), receiving from 2 in that superstep,
// must not join until superstep 2, even though partition 0 is observed
// first: partitions read the taint set frozen at the last barrier.
func TestForwardLineageAcrossPartitions(t *testing.T) {
	store := provenance.NewStore(provenance.StoreConfig{})
	o := NewObserver(ForwardLineagePolicy(0), store)
	from := func(src graph.VertexID) []engine.IncomingMessage {
		return []engine.IncomingMessage{{Src: src, Val: value.NewFloat(1)}}
	}
	steps := []struct {
		parts [2][]engine.VertexRecord // by partition, vertex mod 2
		want  []graph.VertexID
	}{
		{[2][]engine.VertexRecord{
			{rec(0, -1, 1, nil, nil), rec(2, -1, 1, nil, nil)},
			{rec(1, -1, 1, nil, nil), rec(3, -1, 1, nil, nil)},
		}, []graph.VertexID{0}},
		{[2][]engine.VertexRecord{
			{rec(2, 0, 2, nil, from(0)), rec(4, -1, 2, nil, from(2))},
			{rec(1, 0, 2, nil, from(0)), rec(3, 0, 2, nil, from(2))},
		}, []graph.VertexID{1, 2}},
		// Partition 0 hands nothing over: its superstep-1 segment must not
		// be stitched again.
		{[2][]engine.VertexRecord{nil, {rec(3, 1, 3, nil, from(2))}}, []graph.VertexID{3}},
	}
	for ss, step := range steps {
		for p, recs := range step.parts {
			if recs != nil {
				o.ObservePartition(p, ss, recs)
			}
		}
		if err := o.ObserveSuperstep(&engine.SuperstepView{Superstep: ss}); err != nil {
			t.Fatal(err)
		}
		l, err := store.Layer(ss)
		if err != nil {
			t.Fatal(err)
		}
		var got []graph.VertexID
		for _, r := range l.Records {
			got = append(got, r.Vertex)
		}
		if !slices.Equal(got, step.want) {
			t.Errorf("superstep %d captured %v, want %v", ss, got, step.want)
		}
	}
	if store.DistinctVertices() != 4 {
		t.Errorf("lineage covers %d vertices, want 4", store.DistinctVertices())
	}
}

func TestEmittedFilter(t *testing.T) {
	store := provenance.NewStore(provenance.StoreConfig{})
	o := NewObserver(Policy{Values: true, Emitted: []string{"keep"}}, store)
	r := rec(1, -1, 1, nil, nil)
	r.Emitted = []engine.ProvFact{
		{Table: "keep", Args: []value.Value{value.NewInt(1)}},
		{Table: "drop", Args: []value.Value{value.NewInt(2)}},
	}
	if err := observe(o, 1, 0, r); err != nil {
		t.Fatal(err)
	}
	l, _ := store.Layer(0)
	if len(l.Records[0].Emitted) != 1 || l.Records[0].Emitted[0].Table != "keep" {
		t.Errorf("emitted filter wrong: %+v", l.Records[0].Emitted)
	}
}

func mustQuery(t *testing.T, src string, env *analysis.Env) *analysis.Query {
	t.Helper()
	prog, err := pql.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	q, err := analysis.Analyze(prog, env)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func TestFromQueryShapes(t *testing.T) {
	env := analysis.NewEnv()

	// Query 2 shape: full capture.
	q2 := mustQuery(t, `
p_v(X, V, I) :- value(X, V, I), superstep(X, I).
p_s(X, Y, M, I) :- send_message(X, Y, M, I), superstep(X, I).
p_r(X, Y, M, I) :- receive_message(X, Y, M, I), superstep(X, I).`, env)
	pol, err := FromQuery(q2, env)
	if err != nil {
		t.Fatal(err)
	}
	if !pol.Values || !pol.Sends || !pol.Recvs || pol.SendFlags {
		t.Errorf("query 2 policy = %+v", pol)
	}

	// Query 11 shape: values + send flags only.
	q11 := mustQuery(t, `
prov_value(X, V, I) :- value(X, V, I), superstep(X, I).
flag(X, I) :- send_message(X, Y, M, I).`, env)
	pol, err = FromQuery(q11, env)
	if err != nil {
		t.Fatal(err)
	}
	if !pol.Values || pol.Sends || !pol.SendFlags {
		t.Errorf("query 11 policy = %+v", pol)
	}

	// Query 3 shape: recursive forward lineage with $source.
	env3 := analysis.NewEnv()
	env3.SetParam("alpha", value.NewInt(7))
	env3.SetParam("source", value.NewInt(7))
	q3 := mustQuery(t, `
fwd(X, V, I) :- value(X, V, I), superstep(X, I), X = $alpha, I = 0.
fwd(X, V, I) :- receive_message(X, Y, M, I), fwd(Y, W, J), value(X, V, I).`, env3)
	pol, err = FromQuery(q3, env3)
	if err != nil {
		t.Fatal(err)
	}
	if pol.TaintSource == nil || *pol.TaintSource != 7 {
		t.Errorf("query 3 policy missing taint source: %+v", pol)
	}
	// The receive_message literal is only the taint guard (its payload M
	// never reaches the head), so receive tuples are NOT persisted — this
	// is what keeps Table 4's custom provenance small.
	if !pol.Values || pol.Recvs {
		t.Errorf("query 3 policy = %+v", pol)
	}
}

func TestFromQueryErrors(t *testing.T) {
	env := analysis.NewEnv()
	// Not a capture query at all.
	q := mustQuery(t, `p(X, I) :- superstep(X, I).`, env)
	if _, err := FromQuery(q, env); err == nil || !strings.Contains(err.Error(), "capture query") {
		t.Errorf("want capture-shape error, got %v", err)
	}
	// Recursive forward rule without $source.
	env2 := analysis.NewEnv()
	env2.SetParam("alpha", value.NewInt(7))
	q3 := mustQuery(t, `
fwd(X, V, I) :- value(X, V, I), X = $alpha, I = 0.
fwd(X, V, I) :- receive_message(X, Y, M, I), fwd(Y, W, J), value(X, V, I).`, env2)
	if _, err := FromQuery(q3, env2); err == nil || !strings.Contains(err.Error(), "$source") {
		t.Errorf("want $source error, got %v", err)
	}
}

// TestFromQueryRefusesFilters: outside forward lineage a policy keeps whole
// streams, so a comparison or negation that would narrow one is a
// positioned error instead of a silent capture of everything; and a head
// keeping a message's peer without its payload is one instead of an empty
// policy or a send flag.
func TestFromQueryRefusesFilters(t *testing.T) {
	env := analysis.NewEnv()
	for _, tc := range []struct{ src, want string }{
		{"cap(X, D, I) :- value(X, D, I), D > 100.", "capture: 1:33: comparison D > 100"},
		{"cap(X, D, I) :- value(X, D, I), X = 3.", "capture: 1:33: comparison X = 3"},
		{"cap(X, D, I) :- value(X, D, I), !send_message(X, X, D, I).", "capture: 1:34: negated literal !send_message(X, X, D, I)"},
		{"cap(X, Y, I) :- receive_message(X, Y, M, I).", "capture: 1:17: receive_message(X, Y, M, I) keeps the peer Y but not the payload M"},
		{"cap(X, Y, I) :- send_message(X, Y, M, I).", "capture: 1:17: send_message(X, Y, M, I) keeps the peer Y but not the payload M"},
	} {
		pol, err := FromQuery(mustQuery(t, tc.src, env), env)
		if err == nil || !strings.HasPrefix(err.Error(), tc.want) {
			t.Errorf("%s: policy %+v, err %v; want error %q", tc.src, pol, err, tc.want)
		}
	}
}
