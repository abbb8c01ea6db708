package fault

import (
	"context"
	"errors"
	"testing"
	"time"
)

func TestNilInjectorIsInert(t *testing.T) {
	var in *Injector
	if err := in.Hit(SiteCompute, 0, 0, 0); err != nil {
		t.Fatalf("nil injector injected: %v", err)
	}
	if in.Fired() != 0 {
		t.Fatalf("nil injector fired %d times", in.Fired())
	}
}

func TestRuleSelectors(t *testing.T) {
	in := NewInjector(Rule{Site: SiteSpillWrite, Superstep: 2, Partition: -1, Vertex: -1})
	if err := in.Hit(SiteCompute, 2, 0, 0); err != nil {
		t.Errorf("wrong site fired: %v", err)
	}
	if err := in.Hit(SiteSpillWrite, 1, 0, 0); err != nil {
		t.Errorf("wrong superstep fired: %v", err)
	}
	err := in.Hit(SiteSpillWrite, 2, -1, -1)
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("matching hit = %v, want ErrInjected", err)
	}
	// Times defaults to once: the rule is exhausted now.
	if err := in.Hit(SiteSpillWrite, 2, -1, -1); err != nil {
		t.Errorf("exhausted rule fired again: %v", err)
	}
	if in.Fired() != 1 {
		t.Errorf("Fired = %d, want 1", in.Fired())
	}
}

func TestTimesBudget(t *testing.T) {
	in := NewInjector(IOErrors(SiteCheckpointWrite, 3))
	fired := 0
	for i := 0; i < 10; i++ {
		if in.Hit(SiteCheckpointWrite, i, -1, -1) != nil {
			fired++
		}
	}
	if fired != 3 {
		t.Fatalf("fired %d times, want 3", fired)
	}
}

func TestPanicRule(t *testing.T) {
	in := NewInjector(PanicAt(1, 7))
	if err := in.Hit(SiteCompute, 1, 0, 3); err != nil {
		t.Fatalf("non-matching vertex fired: %v", err)
	}
	defer func() {
		if recover() == nil {
			t.Error("matching panic rule did not panic")
		}
	}()
	in.Hit(SiteCompute, 1, 0, 7)
}

func TestParseSpec(t *testing.T) {
	rules, err := ParseSpec("compute:mode=panic:ss=3:vertex=17; spill.write:times=2")
	if err != nil {
		t.Fatal(err)
	}
	if len(rules) != 2 {
		t.Fatalf("got %d rules, want 2", len(rules))
	}
	if !rules[0].Panic || rules[0].Superstep != 3 || rules[0].Vertex != 17 || rules[0].Site != SiteCompute {
		t.Errorf("rule 0 = %+v", rules[0])
	}
	if rules[1].Panic || rules[1].Times != 2 || rules[1].Site != SiteSpillWrite {
		t.Errorf("rule 1 = %+v", rules[1])
	}

	for _, bad := range []string{"", "explode", "compute:ss", "compute:mode=sometimes", "compute:ss=x"} {
		if _, err := ParseSpec(bad); err == nil {
			t.Errorf("ParseSpec(%q) should fail", bad)
		}
	}
}

func TestHitWaitHang(t *testing.T) {
	in := NewInjector(Rule{Site: SiteCompute, Superstep: -1, Partition: 1, Vertex: -1, Hang: true})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	deadline, _ := ctx.Deadline()
	err := in.HitWait(ctx, SiteCompute, 3, 1, 42)
	if !errors.Is(err, ErrInjected) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("hang = %v, want ErrInjected wrapping DeadlineExceeded", err)
	}
	if time.Now().Before(deadline) {
		t.Fatal("hang returned before the context deadline")
	}
	// Non-matching partition passes through untouched.
	if err := in.HitWait(ctx, SiteCompute, 3, 0, 42); err != nil {
		t.Fatalf("non-matching hit = %v", err)
	}
}

func TestHitWaitDelay(t *testing.T) {
	// A completed pure delay is slow, not failed.
	in := NewInjector(Rule{Site: SiteCompute, Superstep: -1, Partition: -1, Vertex: -1, Delay: time.Millisecond})
	start := time.Now()
	if err := in.HitWait(context.Background(), SiteCompute, 0, 0, 0); err != nil {
		t.Fatalf("completed delay = %v, want nil", err)
	}
	if time.Since(start) < time.Millisecond {
		t.Fatal("delay rule did not sleep")
	}

	// An interrupted delay reports the injected error with the context cause.
	in2 := NewInjector(Rule{Site: SiteCompute, Superstep: -1, Partition: -1, Vertex: -1, Delay: time.Minute})
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	err := in2.HitWait(ctx, SiteCompute, 0, 0, 0)
	if !errors.Is(err, ErrInjected) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("interrupted delay = %v, want ErrInjected wrapping DeadlineExceeded", err)
	}
}

func TestParseSpecHangDelayCapture(t *testing.T) {
	rules, err := ParseSpec("compute:mode=hang:ss=4:part=1; compute:delay=50ms:part=2; capture:part=0:times=3")
	if err != nil {
		t.Fatal(err)
	}
	if len(rules) != 3 {
		t.Fatalf("got %d rules, want 3", len(rules))
	}
	if !rules[0].Hang || rules[0].Superstep != 4 || rules[0].Partition != 1 {
		t.Errorf("hang rule = %+v", rules[0])
	}
	if rules[1].Delay != 50*time.Millisecond || rules[1].Partition != 2 {
		t.Errorf("delay rule = %+v", rules[1])
	}
	if rules[2].Site != SiteCapture || rules[2].Times != 3 || rules[2].Partition != 0 {
		t.Errorf("capture rule = %+v", rules[2])
	}
	if _, err := ParseSpec("compute:delay=fast"); err == nil {
		t.Error("bad delay should fail")
	}
}

func TestMatrix(t *testing.T) {
	m := Matrix(1, 3, 10*time.Millisecond, 4)
	for _, name := range []string{"panic", "hang", "delay", "capture-fail"} {
		if len(m[name]) == 0 {
			t.Fatalf("Matrix missing scenario %q", name)
		}
	}
	if r := m["panic"][0]; !r.Panic || r.Partition != 1 || r.Superstep != 3 {
		t.Errorf("panic scenario = %+v", r)
	}
	if r := m["hang"][0]; !r.Hang || r.Partition != 1 {
		t.Errorf("hang scenario = %+v", r)
	}
	if r := m["delay"][0]; r.Delay != 10*time.Millisecond {
		t.Errorf("delay scenario = %+v", r)
	}
	if r := m["capture-fail"][0]; r.Site != SiteCapture || r.Times != 4 || r.Superstep != -1 {
		t.Errorf("capture-fail scenario = %+v", r)
	}
}

func TestRetry(t *testing.T) {
	in := NewInjector(IOErrors(SiteSpillWrite, 2))
	calls := 0
	err := Retry(4, time.Microsecond, func() error {
		calls++
		return in.Hit(SiteSpillWrite, -1, -1, -1)
	})
	if err != nil {
		t.Fatalf("retry should recover from 2 transient errors: %v", err)
	}
	if calls != 3 {
		t.Errorf("calls = %d, want 3", calls)
	}

	in2 := NewInjector(IOErrors(SiteSpillWrite, 10))
	err = Retry(4, time.Microsecond, func() error {
		return in2.Hit(SiteSpillWrite, -1, -1, -1)
	})
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("exhausted retry = %v, want ErrInjected", err)
	}
	if in2.Fired() != 4 {
		t.Errorf("attempts = %d, want 4", in2.Fired())
	}
}

func TestNetHitActions(t *testing.T) {
	in := NewInjector(
		Rule{Site: SiteNetSend, Superstep: 1, Partition: 0, Vertex: -1, Drop: true, Times: 1},
		Rule{Site: SiteNetSend, Superstep: 2, Partition: 0, Vertex: -1, Dup: true, Times: 1},
		Rule{Site: SiteNetRecv, Superstep: 3, Partition: 0, Vertex: -1, Reset: true, Times: 1},
	)
	ctx := context.Background()
	cases := []struct {
		site string
		ss   int
		want NetAction
	}{
		{SiteNetSend, 0, NetPass}, // no rule matches
		{SiteNetSend, 1, NetDrop},
		{SiteNetSend, 1, NetPass}, // times budget spent
		{SiteNetSend, 2, NetDup},
		{SiteNetRecv, 3, NetReset},
		{SiteNetRecv, 4, NetPass},
	}
	for i, tc := range cases {
		act, err := in.NetHit(ctx, tc.site, tc.ss, 0, int64(i))
		if err != nil {
			t.Errorf("case %d: action rules never error, got %v", i, err)
		}
		if act != tc.want {
			t.Errorf("case %d: action = %v, want %v", i, act, tc.want)
		}
	}
	if in.Fired() != 3 {
		t.Errorf("fired = %d, want 3", in.Fired())
	}
}

func TestNetHitDelay(t *testing.T) {
	in := NewInjector(Rule{Site: SiteNetSend, Superstep: -1, Partition: -1, Vertex: -1,
		Delay: 5 * time.Millisecond, Times: 1})
	start := time.Now()
	act, err := in.NetHit(context.Background(), SiteNetSend, 0, 0, 1)
	if err != nil || act != NetPass {
		t.Fatalf("pure delay should pass: act=%v err=%v", act, err)
	}
	if d := time.Since(start); d < 5*time.Millisecond {
		t.Errorf("delay not applied: %v", d)
	}
	// A canceled context interrupts the delay instead of sleeping it out.
	in2 := NewInjector(Rule{Site: SiteNetSend, Superstep: -1, Partition: -1, Vertex: -1,
		Delay: time.Minute, Times: 1})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start = time.Now()
	if _, err := in2.NetHit(ctx, SiteNetSend, 0, 0, 1); err == nil {
		t.Error("canceled delay should report the context error")
	}
	if d := time.Since(start); d > time.Second {
		t.Errorf("canceled delay still slept %v", d)
	}
}

func TestParseSpecNetModes(t *testing.T) {
	rules, err := ParseSpec("net.send:mode=drop:part=1:ss=2; net.recv:mode=reset:times=3; net.send:mode=dup")
	if err != nil {
		t.Fatal(err)
	}
	if !rules[0].Drop || rules[0].Site != SiteNetSend || rules[0].Partition != 1 || rules[0].Superstep != 2 {
		t.Errorf("rule 0 = %+v", rules[0])
	}
	if !rules[1].Reset || rules[1].Site != SiteNetRecv || rules[1].Times != 3 {
		t.Errorf("rule 1 = %+v", rules[1])
	}
	if !rules[2].Dup || rules[2].Site != SiteNetSend {
		t.Errorf("rule 2 = %+v", rules[2])
	}
}

func TestNetMatrixScenarios(t *testing.T) {
	m := NetMatrix(1, 2, time.Millisecond)
	for _, key := range []string{"drop", "delay", "dup", "reset", "oneway", "unreachable"} {
		rules, ok := m[key]
		if !ok || len(rules) == 0 {
			t.Errorf("matrix missing scenario %q", key)
		}
		for _, r := range rules {
			if r.Site != SiteNetSend && r.Site != SiteNetRecv {
				t.Errorf("%s: rule on non-net site %s", key, r.Site)
			}
		}
	}
	// unreachable must outlast any realistic retry budget.
	if m["unreachable"][0].Times < 1000 {
		t.Errorf("unreachable budget %d too small", m["unreachable"][0].Times)
	}
}
