package transport

import (
	"testing"

	"ariadne/internal/engine"
	"ariadne/internal/obs"
	"ariadne/internal/value"
)

// Trace context rides in every ExecRequest, delta or seed, and worker-side
// spans piggyback on every ExecResult — including crash results, whose span
// section is simply empty.

func TestWireTraceContextRoundTrip(t *testing.T) {
	for _, req := range []*engine.ExecRequest{{
		Superstep: 2, Partition: 0,
		Active:  []engine.VertexID{3},
		Route:   []string{".", "10.0.0.2:9"},
		TraceID: 0xdeadbeef, ParentSpan: 77,
	}, {
		Superstep: 2, Partition: 0, Mode: engine.ModeSeed,
		Active:    []engine.VertexID{3},
		AllValues: []value.Value{value.NewFloat(1)},
		AllActive: []int32{-1},
		Inbox:     [][]engine.IncomingMessage{nil},
		TraceID:   0xdeadbeef, ParentSpan: 77,
	}} {
		rt, err := decodeExecRequest(encodeExecRequest(req))
		if err != nil {
			t.Fatal(err)
		}
		if rt.TraceID != req.TraceID || rt.ParentSpan != req.ParentSpan {
			t.Fatalf("mode %d: trace context lost: got (%#x, %d), want (%#x, %d)",
				req.Mode, rt.TraceID, rt.ParentSpan, req.TraceID, req.ParentSpan)
		}
		if !wireEqual(req, rt) {
			t.Fatalf("mode %d: roundtrip mismatch:\n  in  %+v\n  out %+v", req.Mode, req, rt)
		}
	}
}

func TestWireResultSpanRoundTrip(t *testing.T) {
	res := &engine.ExecResult{
		Partition: 1,
		Outbox:    [][]engine.OutMessage{nil},
		DstCounts: []int64{2},
		Spans: []obs.Span{
			{TraceID: 9, Parent: 4, Proc: "worker:a", Name: obs.SpanDecode,
				Superstep: 2, Partition: 1, Start: 12345, Dur: 10, Bytes: 99},
			{TraceID: 9, Parent: 4, Proc: "worker:a", Name: obs.SpanWorkerCompute,
				Superstep: 2, Partition: 1, Start: 12355, Dur: 20, Tuples: 1},
		},
	}
	rt, err := decodeExecResult(encodeExecResult(res))
	if err != nil {
		t.Fatal(err)
	}
	if !wireEqual(res, rt) {
		t.Fatalf("roundtrip mismatch:\n  in  %+v\n  out %+v", res, rt)
	}

	// Crash results carry an (empty) span section too — the decoder must not
	// trip over it.
	crash := &engine.ExecResult{Partition: 0, Crash: &engine.RemoteCrash{
		Vertex: 1, Superstep: 3, Message: "boom",
	}}
	rt, err = decodeExecResult(encodeExecResult(crash))
	if err != nil {
		t.Fatal(err)
	}
	if !wireEqual(crash, rt) {
		t.Fatalf("crash roundtrip mismatch:\n  in  %+v\n  out %+v", crash, rt)
	}

	// Untraced results must encode a zero-length span section, not omit it.
	plain := &engine.ExecResult{Partition: 0, Outbox: [][]engine.OutMessage{}}
	rt, err = decodeExecResult(encodeExecResult(plain))
	if err != nil {
		t.Fatal(err)
	}
	if len(rt.Spans) != 0 {
		t.Fatalf("untraced result grew spans: %+v", rt.Spans)
	}
}
