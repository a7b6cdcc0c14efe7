package shell

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// manual is a clock that moves only when the test advances it; its timers
// fire on the advancing goroutine.
type manual struct {
	mu     sync.Mutex
	t      time.Time
	timers []*manualTimer
}

type manualTimer struct {
	c     *manual
	at    time.Time
	f     func()
	armed bool
}

func (c *manual) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *manual) afterFunc(d time.Duration, f func()) timer {
	c.mu.Lock()
	defer c.mu.Unlock()
	t := &manualTimer{c: c, at: c.t.Add(d), f: f, armed: true}
	c.timers = append(c.timers, t)
	return t
}

func (t *manualTimer) Reset(d time.Duration) bool {
	t.c.mu.Lock()
	defer t.c.mu.Unlock()
	was := t.armed
	t.at, t.armed = t.c.t.Add(d), true
	return was
}

func (t *manualTimer) Stop() bool {
	t.c.mu.Lock()
	defer t.c.mu.Unlock()
	was := t.armed
	t.armed = false
	return was
}

// advance moves the clock by d and runs the callbacks of the timers then due.
func (c *manual) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	var due []func()
	for _, t := range c.timers {
		if t.armed && !t.at.After(c.t) {
			t.armed = false
			due = append(due, t.f)
		}
	}
	c.mu.Unlock()
	for _, f := range due {
		f()
	}
}

// eff is the test effect: arm the timer for at (when set), and a tag.
type eff struct {
	at  time.Time
	tag int
}

func due(e eff) (time.Time, bool) { return e.at, !e.at.IsZero() }

func noRun([]eff) {}

func TestEarliestArmWins(t *testing.T) {
	clk := &manual{t: time.Unix(1000, 0)}
	t0 := clk.t
	var ticks []time.Duration
	s := New(noRun, due, func(now time.Time, buf []eff) []eff {
		ticks = append(ticks, now.Sub(t0))
		return buf
	})
	s.clk = clk
	arm := func(after time.Duration) {
		s.Step(func(now time.Time, buf []eff) []eff { return append(buf, eff{at: now.Add(after)}) })
	}
	ms := time.Millisecond

	arm(10 * ms)
	arm(5 * ms) // earlier: replaces the 10 ms deadline
	clk.advance(5 * ms)
	arm(30 * ms) // later than 20 ms below: must not delay it
	arm(15 * ms) // 20 ms since t0
	clk.advance(15 * ms)
	clk.advance(30 * ms)
	want := []time.Duration{5 * ms, 20 * ms}
	if len(ticks) != len(want) {
		t.Fatalf("ticks at %v, want %v", ticks, want)
	}
	for i := range want {
		if ticks[i] != want[i] {
			t.Fatalf("ticks at %v, want %v", ticks, want)
		}
	}
}

// TestTimerArmedInTheFirstStep: a deadline already due when the first step
// arms it fires at once, on the timer's goroutine, and the tick re-arms the
// timer. The timer must be stored by then (the race detector and a nil timer
// both catch a store outside the lock).
func TestTimerArmedInTheFirstStep(t *testing.T) {
	for i := 0; i < 20; i++ {
		var n atomic.Int32
		done := make(chan struct{})
		s := New(noRun, due, func(now time.Time, buf []eff) []eff {
			if n.Add(1) == 50 {
				close(done)
				return buf
			}
			return append(buf, eff{at: now})
		})
		s.Step(func(now time.Time, buf []eff) []eff { return append(buf, eff{at: now}) })
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("%d ticks", n.Load())
		}
		s.Close()
	}
}

func TestEffectMayStepAgain(t *testing.T) {
	var s *Shell[eff]
	var inner atomic.Bool
	s = New(func(effs []eff) {
		for _, e := range effs {
			if e.tag == 1 {
				s.Step(func(_ time.Time, buf []eff) []eff {
					inner.Store(true)
					return append(buf, eff{tag: 2})
				})
			}
		}
	}, nil, nil)
	done := make(chan struct{})
	go func() {
		s.Step(func(_ time.Time, buf []eff) []eff { return append(buf, eff{tag: 1}) })
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("a step whose effect steps again never returned")
	}
	if !inner.Load() {
		t.Fatal("the inner step did not run")
	}
}

func TestCloseWaitsForEffectsAndRunner(t *testing.T) {
	entered, release := make(chan struct{}), make(chan struct{})
	s := New(func(effs []eff) {
		if len(effs) > 0 && effs[0].tag == 1 {
			close(entered)
			<-release
		}
	}, nil, nil)
	stepped := make(chan bool)
	go func() { stepped <- s.Step(func(_ time.Time, buf []eff) []eff { return append(buf, eff{tag: 1}) }) }()
	<-entered
	var cancelled atomic.Bool
	s.Go(func(ctx context.Context) {
		<-ctx.Done()
		cancelled.Store(true)
	})
	closed := make(chan struct{})
	go func() {
		s.Close()
		close(closed)
	}()
	select {
	case <-closed:
		t.Fatal("Close returned while a step's effects were running")
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	if !<-stepped {
		t.Fatal("the step in flight reported refused")
	}
	<-closed
	if !cancelled.Load() {
		t.Fatal("Close returned before the runner's goroutine")
	}
	if s.Step(func(_ time.Time, buf []eff) []eff {
		t.Error("a step ran after Close")
		return buf
	}) {
		t.Fatal("Step after Close reported run")
	}
	if s.Go(func(context.Context) { t.Error("a goroutine started after Close") }) {
		t.Fatal("Go after Close reported run")
	}
	if s.Close() {
		t.Fatal("a second Close reported closing")
	}
}

// TestConcurrentStepsOwnTheirBuffers: Steps from many goroutines at once
// each fill and read back a buffer no other step touches (run under -race).
func TestConcurrentStepsOwnTheirBuffers(t *testing.T) {
	var inUse sync.Map
	s := New(func(effs []eff) {
		if _, busy := inUse.LoadOrStore(&effs[0], true); busy {
			t.Error("two steps hold one effect buffer")
		}
		for _, e := range effs {
			if e.tag != effs[0].tag {
				t.Errorf("a step's effects read %d and %d", effs[0].tag, e.tag)
			}
		}
		inUse.Delete(&effs[0])
	}, nil, nil)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				tag := g*1000 + i
				s.Step(func(_ time.Time, buf []eff) []eff {
					for k := 0; k < 4; k++ {
						buf = append(buf, eff{tag: tag})
					}
					return buf
				})
			}
		}()
	}
	wg.Wait()
	s.Close()
}
