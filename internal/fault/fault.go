// Package fault provides deterministic fault injection for the engine,
// checkpoint, and provenance-spill I/O paths. Production code consults an
// (always optional, nil-safe) *Injector at named sites; tests and the
// `ariadne run -faults` flag arm it with rules that fire panics or
// transient I/O errors at chosen (site, superstep, partition, vertex)
// points. Injection is deterministic: a rule fires whenever its selectors
// match, up to its Times budget, independent of goroutine scheduling —
// matching is keyed on the site coordinates, never on wall clock or
// randomness, so a crash-recovery test replays exactly.
package fault

import (
	"context"
	"errors"
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Injection sites. Each names one guarded operation.
const (
	// SiteCompute guards each vertex-program Compute call. Panic rules here
	// simulate a crashing vertex program on a worker.
	SiteCompute = "compute"
	// SiteSpillWrite guards provenance layer-file writes.
	SiteSpillWrite = "spill.write"
	// SiteCheckpointWrite guards engine checkpoint-file writes.
	SiteCheckpointWrite = "checkpoint.write"
	// SiteCapture guards per-partition provenance capture at the superstep
	// barrier. Error rules here simulate a failing capture side-channel
	// (the degraded-mode trigger); the analytic itself is unaffected.
	SiteCapture = "capture"
	// SiteNetSend guards each transport frame send on the master side; the
	// vertex coordinate carries the message sequence number. Drop/Dup/Reset
	// rules here simulate lossy, duplicating, or resetting links on the
	// request direction; Delay simulates a slow link.
	SiteNetSend = "net.send"
	// SiteNetRecv guards each transport reply receive on the master side
	// (same coordinates as SiteNetSend). A Drop rule here models the
	// one-way-partition scenario: requests arrive at the worker but replies
	// never make it back.
	SiteNetRecv = "net.recv"
	// SitePeerSend guards each worker→worker fragment send on the peer mesh
	// (PR 9); the partition coordinate is the destination partition and the
	// vertex slot carries the frame sequence number. Armed on the *worker*
	// injector, not the master's — the master never sees these frames.
	SitePeerSend = "peer.send"
	// SitePeerRecv guards each fragment receive on the peer mesh (same
	// coordinates as SitePeerSend, consulted by the receiving worker).
	SitePeerRecv = "peer.recv"
)

// ErrInjected is the base error of injected (transient) I/O failures.
var ErrInjected = errors.New("fault: injected error")

// Rule selects an injection point. Zero selectors (or -1) are wildcards.
type Rule struct {
	// Site names the guarded operation (SiteCompute, SiteSpillWrite, ...).
	Site string
	// Superstep restricts the rule to one superstep; -1 matches any.
	Superstep int
	// Partition restricts the rule to one worker partition; -1 matches any.
	Partition int
	// Vertex restricts the rule to one vertex; -1 matches any.
	Vertex int64
	// Times bounds how often the rule fires; 0 means once.
	Times int
	// Panic makes the site panic instead of returning an error — the
	// worker-crash scenario (the engine's recover() converts it into a
	// CrashError).
	Panic bool
	// Hang makes the site block until the HitWait context is done — the
	// hung-worker scenario. Without a deadline or cancellation on the
	// context the site blocks forever, exactly like a real wedged worker;
	// partition supervision bounds it with a per-partition deadline.
	Hang bool
	// Delay makes the site sleep before proceeding — the straggler
	// scenario. A pure-delay rule (Panic false) returns nil after
	// sleeping: the operation is slow, not failed. The sleep is cut short
	// by the context passed to HitWait, in which case the rule reports an
	// injected error wrapping the context error.
	Delay time.Duration
	// Network actions, consulted only by NetHit at the net.* sites. Drop
	// discards the frame silently (lost packet), Dup delivers it twice
	// (retransmit-induced duplicate the receiver must dedup), Reset tears
	// the connection down (peer reset). At most one should be set.
	Drop  bool
	Dup   bool
	Reset bool
}

func (r Rule) times() int {
	if r.Times <= 0 {
		return 1
	}
	return r.Times
}

type armedRule struct {
	Rule
	fired int
}

// Injector holds armed rules. A nil *Injector is valid and injects nothing,
// so call sites need no guards.
type Injector struct {
	mu    sync.Mutex
	rules []*armedRule
	total int
}

// NewInjector arms the given rules.
func NewInjector(rules ...Rule) *Injector {
	in := &Injector{}
	for _, r := range rules {
		in.rules = append(in.rules, &armedRule{Rule: r})
	}
	return in
}

// PanicAt is a convenience rule: panic in Compute at (superstep, vertex).
// vertex -1 crashes the first vertex computed at that superstep.
func PanicAt(superstep int, vertex int64) Rule {
	return Rule{Site: SiteCompute, Superstep: superstep, Partition: -1, Vertex: vertex, Panic: true}
}

// IOErrors is a convenience rule: fail the named I/O site times times.
func IOErrors(site string, times int) Rule {
	return Rule{Site: site, Superstep: -1, Partition: -1, Vertex: -1, Times: times}
}

// Matrix returns the canonical partition-targeted fault scenarios, keyed by
// name, against the given partition: a worker panic and a worker hang at
// superstep ss, a Delay-long slowdown at every superstep, and captureFails
// consecutive capture-side failures. Supervision tests and the CI
// fault-matrix job iterate over these so every failure domain the
// supervisor handles is exercised by one table.
func Matrix(partition, ss int, delay time.Duration, captureFails int) map[string][]Rule {
	return map[string][]Rule{
		"panic": {{Site: SiteCompute, Superstep: ss, Partition: partition, Vertex: -1, Panic: true}},
		"hang":  {{Site: SiteCompute, Superstep: ss, Partition: partition, Vertex: -1, Hang: true}},
		"delay": {{Site: SiteCompute, Superstep: ss, Partition: partition, Vertex: -1, Delay: delay}},
		"capture-fail": {{Site: SiteCapture, Superstep: -1, Partition: partition, Vertex: -1,
			Times: captureFails}},
	}
}

// NetAction is the outcome NetHit prescribes for one transport frame.
type NetAction int

// Network frame outcomes.
const (
	// NetPass delivers the frame normally (possibly after an injected delay).
	NetPass NetAction = iota
	// NetDrop discards the frame silently; the sender's deadline fires.
	NetDrop
	// NetDup delivers the frame twice; the receiver's dedup must absorb it.
	NetDup
	// NetReset tears down the connection as if the peer reset it.
	NetReset
)

// NetHit consults the injector at a network site (SiteNetSend or
// SiteNetRecv). The coordinates are (superstep, partition, seq) — seq rides
// in the vertex selector slot, so rules can target one specific frame. A
// matching rule yields its action (after any injected delay, interruptible
// by ctx); a rule with no Drop/Dup/Reset flag is an error rule and returns
// a wrapped ErrInjected like HitWait does. nil injector always passes.
func (in *Injector) NetHit(ctx context.Context, site string, superstep, partition int, seq int64) (NetAction, error) {
	if in == nil {
		return NetPass, nil
	}
	fire := in.match(site, superstep, partition, seq)
	if fire == nil {
		return NetPass, nil
	}
	if fire.Delay > 0 {
		t := time.NewTimer(fire.Delay)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return NetPass, fmt.Errorf("%w: delay interrupted at %s (superstep %d, partition %d, seq %d): %w",
				ErrInjected, site, superstep, partition, seq, ctx.Err())
		}
	}
	switch {
	case fire.Drop:
		return NetDrop, nil
	case fire.Dup:
		return NetDup, nil
	case fire.Reset:
		return NetReset, nil
	case fire.Delay > 0:
		return NetPass, nil // pure slow link
	}
	return NetPass, fmt.Errorf("%w: %s (superstep %d, partition %d, seq %d)",
		ErrInjected, site, superstep, partition, seq)
}

// match finds and consumes the first armed rule matching the coordinates.
func (in *Injector) match(site string, superstep, partition int, vertex int64) *armedRule {
	in.mu.Lock()
	defer in.mu.Unlock()
	for _, r := range in.rules {
		if r.Site != site || r.fired >= r.times() {
			continue
		}
		if r.Superstep >= 0 && r.Superstep != superstep {
			continue
		}
		if r.Partition >= 0 && r.Partition != partition {
			continue
		}
		if r.Vertex >= 0 && r.Vertex != vertex {
			continue
		}
		r.fired++
		in.total++
		return r
	}
	return nil
}

// NetMatrix returns the canonical network fault scenarios against one
// partition's transport leg, keyed by name: a dropped request (retransmit
// recovers), a slow link (delay, no loss), a duplicated frame (receiver
// dedup absorbs it), a connection reset (reconnect recovers), a one-way
// partition (requests arrive, replies drop — deadline plus retransmit
// recover), and an unreachable peer (everything drops past any retry
// budget — the engine falls back to local execution and sheds capture).
// The transport fault matrix test and the CI fault-matrix-net job iterate
// over these.
func NetMatrix(partition, ss int, delay time.Duration) map[string][]Rule {
	return map[string][]Rule{
		"drop":  {{Site: SiteNetSend, Superstep: ss, Partition: partition, Vertex: -1, Drop: true}},
		"delay": {{Site: SiteNetSend, Superstep: -1, Partition: partition, Vertex: -1, Delay: delay, Times: 1 << 20}},
		"dup":   {{Site: SiteNetSend, Superstep: ss, Partition: partition, Vertex: -1, Dup: true}},
		"reset": {{Site: SiteNetSend, Superstep: ss, Partition: partition, Vertex: -1, Reset: true}},
		"oneway": {{Site: SiteNetRecv, Superstep: ss, Partition: partition, Vertex: -1, Drop: true,
			Times: 2}},
		"unreachable": {{Site: SiteNetSend, Superstep: -1, Partition: partition, Vertex: -1, Drop: true,
			Times: 1 << 20}},
	}
}

// NetMatrixPeer extends NetMatrix to the worker→worker mesh links (PR 9):
// the same drop/delay/dup/reset scenarios, but at the peer.* sites, so the
// fragment routing between workers is exercised rather than the
// master↔worker legs. These rules are armed on the *workers'* injectors.
// A dropped or reset fragment either recovers via the sender's mesh retry
// or surfaces as a missing fragment at the delivery barrier, where the
// master replays the partition's inbox deterministically — either way the
// run stays bit-identical. The peer fault matrix test and the CI
// fault-matrix-net job iterate over these.
func NetMatrixPeer(partition, ss int, delay time.Duration) map[string][]Rule {
	return map[string][]Rule{
		"peer-drop":  {{Site: SitePeerSend, Superstep: ss, Partition: partition, Vertex: -1, Drop: true}},
		"peer-delay": {{Site: SitePeerSend, Superstep: -1, Partition: partition, Vertex: -1, Delay: delay, Times: 1 << 20}},
		"peer-dup":   {{Site: SitePeerSend, Superstep: ss, Partition: partition, Vertex: -1, Dup: true}},
		"peer-reset": {{Site: SitePeerSend, Superstep: ss, Partition: partition, Vertex: -1, Reset: true}},
		"peer-recv-drop": {{Site: SitePeerRecv, Superstep: ss, Partition: partition, Vertex: -1, Drop: true,
			Times: 2}},
	}
}

// Hit consults the injector at a site. It panics if a matching Panic rule
// fires, returns a wrapped ErrInjected if a matching error rule fires, and
// returns nil otherwise. Pass -1 for coordinates a site does not have.
// Hang and Delay rules block against context.Background() — use HitWait at
// sites that run under a supervision deadline.
func (in *Injector) Hit(site string, superstep, partition int, vertex int64) error {
	return in.HitWait(context.Background(), site, superstep, partition, vertex)
}

// HitWait is Hit with a context bounding injected hangs and delays: a Hang
// rule blocks until ctx is done, a Delay rule sleeps (interruptibly) before
// the rule's normal outcome. The returned error wraps ErrInjected and, when
// the wait was cut short, the context error — so supervision can classify a
// deadline-expired hang as retryable via errors.Is(err, ctx.Err()).
func (in *Injector) HitWait(ctx context.Context, site string, superstep, partition int, vertex int64) error {
	if in == nil {
		return nil
	}
	fire := in.match(site, superstep, partition, vertex)
	if fire == nil {
		return nil
	}
	if fire.Hang {
		<-ctx.Done()
		return fmt.Errorf("%w: hang at %s (superstep %d, partition %d, vertex %d): %w",
			ErrInjected, site, superstep, partition, vertex, ctx.Err())
	}
	if fire.Delay > 0 {
		t := time.NewTimer(fire.Delay)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return fmt.Errorf("%w: delay interrupted at %s (superstep %d, partition %d, vertex %d): %w",
				ErrInjected, site, superstep, partition, vertex, ctx.Err())
		}
		if !fire.Panic {
			// Pure slowdown: the operation is late, not broken.
			return nil
		}
	}
	if fire.Panic {
		panic(fmt.Sprintf("fault: injected panic at %s (superstep %d, partition %d, vertex %d)",
			site, superstep, partition, vertex))
	}
	return fmt.Errorf("%w: %s (superstep %d, partition %d, vertex %d)",
		ErrInjected, site, superstep, partition, vertex)
}

// Fired returns how many injections have fired so far.
func (in *Injector) Fired() int {
	if in == nil {
		return 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.total
}

// ParseSpec parses the CLI fault specification: semicolon-separated
// clauses, each "site[:key=value...]" with keys ss (superstep), part
// (partition), vertex, times, delay (Go duration), and
// mode=panic|error|hang. Examples:
//
//	compute:mode=panic:ss=3
//	compute:mode=panic:ss=2:vertex=17;spill.write:times=2
//	compute:mode=hang:ss=4:part=1
//	compute:delay=50ms:part=2;capture:part=1:times=8
func ParseSpec(spec string) ([]Rule, error) {
	var rules []Rule
	for _, clause := range strings.Split(spec, ";") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		parts := strings.Split(clause, ":")
		r := Rule{Site: parts[0], Superstep: -1, Partition: -1, Vertex: -1}
		switch r.Site {
		case SiteCompute, SiteSpillWrite, SiteCheckpointWrite, SiteCapture,
			SiteNetSend, SiteNetRecv, SitePeerSend, SitePeerRecv:
		default:
			return nil, fmt.Errorf("fault: unknown site %q (want %s, %s, %s, %s, %s, %s, %s, or %s)",
				r.Site, SiteCompute, SiteSpillWrite, SiteCheckpointWrite, SiteCapture,
				SiteNetSend, SiteNetRecv, SitePeerSend, SitePeerRecv)
		}
		for _, kv := range parts[1:] {
			key, val, ok := strings.Cut(kv, "=")
			if !ok {
				return nil, fmt.Errorf("fault: malformed option %q in clause %q", kv, clause)
			}
			switch key {
			case "mode":
				switch val {
				case "panic":
					r.Panic = true
				case "error":
					r.Panic = false
				case "hang":
					r.Hang = true
				case "drop":
					r.Drop = true
				case "dup":
					r.Dup = true
				case "reset":
					r.Reset = true
				default:
					return nil, fmt.Errorf("fault: unknown mode %q (want panic, error, hang, drop, dup, or reset)", val)
				}
			case "delay":
				d, err := time.ParseDuration(val)
				if err != nil {
					return nil, fmt.Errorf("fault: bad delay %q: %v", val, err)
				}
				r.Delay = d
			case "ss", "superstep":
				n, err := strconv.Atoi(val)
				if err != nil {
					return nil, fmt.Errorf("fault: bad superstep %q: %v", val, err)
				}
				r.Superstep = n
			case "part", "partition":
				n, err := strconv.Atoi(val)
				if err != nil {
					return nil, fmt.Errorf("fault: bad partition %q: %v", val, err)
				}
				r.Partition = n
			case "vertex":
				n, err := strconv.ParseInt(val, 10, 64)
				if err != nil {
					return nil, fmt.Errorf("fault: bad vertex %q: %v", val, err)
				}
				r.Vertex = n
			case "times":
				n, err := strconv.Atoi(val)
				if err != nil {
					return nil, fmt.Errorf("fault: bad times %q: %v", val, err)
				}
				r.Times = n
			default:
				return nil, fmt.Errorf("fault: unknown option %q in clause %q", key, clause)
			}
		}
		rules = append(rules, r)
	}
	if len(rules) == 0 {
		return nil, errors.New("fault: empty specification")
	}
	return rules, nil
}

// WriteFileAtomic writes data to path via a temp file beside it, fsync and
// rename, so a crash or I/O error mid-write never leaves a partial file at
// path; on failure the temp file is removed. The spill and checkpoint
// writers retry it under RetryNotify.
func WriteFileAtomic(path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
	}
	return err
}

// Retry runs f up to attempts times, sleeping base, 2*base, 4*base, ...
// (capped at 50ms) between tries — the capped exponential backoff used by
// the spill and checkpoint writers for transient I/O errors. The last
// error is returned when every attempt fails.
func Retry(attempts int, base time.Duration, f func() error) error {
	return RetryNotify(attempts, base, f, nil)
}

// RetryNotify is Retry with a retry hook: notify (when non-nil) is called
// with the 1-based failed attempt number and its error before each backoff
// sleep — i.e. only when another attempt will follow — so callers can
// surface transient-fault fallbacks (trace events, retry counters) instead
// of retrying silently. The final failure is returned, not notified.
func RetryNotify(attempts int, base time.Duration, f func() error, notify func(attempt int, err error)) error {
	if attempts <= 0 {
		attempts = 1
	}
	var err error
	for i := 0; i < attempts; i++ {
		if err = f(); err == nil {
			return nil
		}
		if i < attempts-1 {
			if notify != nil {
				notify(i+1, err)
			}
			d := base << uint(i)
			if max := 50 * time.Millisecond; d > max {
				d = max
			}
			time.Sleep(d)
		}
	}
	return err
}
