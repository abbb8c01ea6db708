package main

import (
	"context"
	"encoding/json"
	"os"
	"slices"
	"sort"
	"sync"
	"time"

	"ariadne/internal/engine"
)

// span is one timed call into a layer. Parent is the ID of the span that
// caused it (0 for a root); spans of one job share Job (0 for set-up and the
// isolated layer probes). Start and End are nanoseconds since the tracer was
// created.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Job    int    `json:"job"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until write. A nil *tracer records nothing:
// untraced jobs never construct the timing decorators, so the gated numbers
// carry no tracing cost at all.
type tracer struct {
	mu    sync.Mutex // transport spans begin on the engine's partition goroutines
	t0    time.Time
	spans []span
	job   int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its ID.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Job: t.job, Name: name, Start: now})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// nextJob starts a new per-job span identifier.
func (t *tracer) nextJob() {
	if t != nil {
		t.job++
	}
}

// seconds returns the duration of span id.
func (t *tracer) seconds(id int) float64 {
	s := t.spans[id-1]
	return float64(s.End-s.Start) / 1e9
}

// covered returns the seconds of span id's interval that its direct children
// with one of the given names cover — the union of their intervals, because
// the engine calls the transport from several partition goroutines at once. A
// layer's self time is its span minus what its children cover.
func (t *tracer) covered(id int, names ...string) (secs float64, calls int64) {
	var iv [][2]int64
	for _, s := range t.spans {
		if s.Parent == id && slices.Contains(names, s.Name) {
			iv = append(iv, [2]int64{s.Start, s.End})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, hi int64
	for _, x := range iv {
		if x[0] > hi {
			hi = x[0]
		}
		if x[1] > hi {
			total += x[1] - hi
			hi = x[1]
		}
	}
	return float64(total) / 1e9, int64(len(iv))
}

// write dumps every span once, when the benchmark ends.
func (t *tracer) write(path string) error {
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// Span names, one per layer boundary the benchmark times from outside.
const (
	spanJob           = "job"
	spanEngineRun     = "engine.run"
	spanCapture       = "capture.observe"
	spanOnline        = "driver.online_observe"
	spanLayered       = "driver.layered"
	spanTransportExec = "transport.exec"
	spanTransportDlv  = "transport.deliver"
	spanGenBuild      = "gen.build"
	spanInEdges       = "graph.in_edges"
	spanAppend        = "provenance.append"
	spanLayerPass     = "provenance.layer"
	spanFixpoint      = "eval.fixpoint"
)

// timedObserver wraps an engine.Observer (the capture observer or an online
// query driver) with a span around every ObserveSuperstep and Finish.
type timedObserver struct {
	engine.Observer
	t      *tracer
	name   string
	parent int
}

func (o *timedObserver) ObserveSuperstep(v *engine.SuperstepView) error {
	id := o.t.begin(o.name, o.parent)
	err := o.Observer.ObserveSuperstep(v)
	o.t.end(id)
	return err
}

func (o *timedObserver) Finish(last int) error {
	id := o.t.begin(o.name, o.parent)
	err := o.Observer.Finish(last)
	o.t.end(id)
	return err
}

// timedTransport forwards to a stateful transport (the TCP client) with a
// span around every Exec and Deliver. It keeps Resident and Deliver visible,
// so the engine still runs the worker-resident delta protocol through it.
type timedTransport struct {
	engine.StatefulTransport
	t      *tracer
	parent int
}

func (x *timedTransport) Exec(ctx context.Context, req *engine.ExecRequest) (*engine.ExecResult, error) {
	id := x.t.begin(spanTransportExec, x.parent)
	res, err := x.StatefulTransport.Exec(ctx, req)
	x.t.end(id)
	return res, err
}

func (x *timedTransport) Deliver(ctx context.Context, req *engine.DeliverRequest) (*engine.DeliverResult, error) {
	id := x.t.begin(spanTransportDlv, x.parent)
	res, err := x.StatefulTransport.Deliver(ctx, req)
	x.t.end(id)
	return res, err
}
