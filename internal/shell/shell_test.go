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

// TestEarliestArmWins: the timer fires for the earliest deadline armed, and a
// later arm does not delay it. A fire kicks the tick, which runs on the kick's
// goroutine, so the test waits for each tick before it moves the clock on.
func TestEarliestArmWins(t *testing.T) {
	clk := &manual{t: time.Unix(1000, 0)}
	t0 := clk.t
	ticked := make(chan time.Duration, 8)
	s := New(noRun, due, func(now time.Time, buf []eff) []eff {
		ticked <- now.Sub(t0)
		return buf
	})
	s.clk = clk
	defer s.Close()
	arm := func(after time.Duration) {
		s.Step(func(now time.Time, buf []eff) []eff { return append(buf, eff{at: now.Add(after)}) })
	}
	tickAt := func(want time.Duration) {
		t.Helper()
		select {
		case got := <-ticked:
			if got != want {
				t.Fatalf("ticked at %v, want %v", got, want)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("no tick at %v", want)
		}
	}
	ms := time.Millisecond

	arm(10 * ms)
	arm(5 * ms) // earlier: replaces the 10 ms deadline
	clk.advance(5 * ms)
	tickAt(5 * ms)
	arm(30 * ms) // later than 20 ms below: must not delay it
	arm(15 * ms) // 20 ms since t0
	clk.advance(15 * ms)
	tickAt(20 * ms)
	clk.advance(30 * ms)
	select {
	case got := <-ticked:
		t.Fatalf("a third tick at %v: the 30 ms deadline was replaced by the earlier one", got)
	case <-time.After(20 * time.Millisecond):
	}
}

// TestTimerArmedInTheFirstStep: a deadline already due when the first step
// arms it fires at once, kicking the tick, and the tick re-arms the timer. The timer must be stored by then (the race detector and a nil timer
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

// TestKicksBeforeTheTickShareIt: kicks that come before the tick runs share
// one tick; a kick after it gets its own. Holding the lock keeps the kicked
// goroutine from beginning its tick until all three kicks are in.
func TestKicksBeforeTheTickShareIt(t *testing.T) {
	var ticks atomic.Int32
	s := New(noRun, nil, func(_ time.Time, buf []eff) []eff {
		ticks.Add(1)
		return buf
	})
	defer s.Close()
	s.Lock()
	s.Kick()
	s.Kick()
	s.Kick()
	s.Unlock()
	for want := int32(1); want <= 2; want++ {
		deadline := time.Now().Add(10 * time.Second)
		for ticks.Load() < want {
			if time.Now().After(deadline) {
				t.Fatalf("%d ticks, want %d", ticks.Load(), want)
			}
			time.Sleep(time.Millisecond)
		}
		time.Sleep(20 * time.Millisecond)
		if n := ticks.Load(); n != want {
			t.Fatalf("%d ticks, want %d: kicks before a tick share it", n, want)
		}
		s.Kick()
	}
}

// TestKickDuringATickGetsOneMore: kicks that arrive while a tick runs are
// not lost — exactly one more tick runs after it.
func TestKickDuringATickGetsOneMore(t *testing.T) {
	entered, release := make(chan struct{}), make(chan struct{})
	var ticks atomic.Int32
	s := New(noRun, nil, func(_ time.Time, buf []eff) []eff {
		if ticks.Add(1) == 1 {
			close(entered)
			<-release
		}
		return buf
	})
	defer s.Close()
	s.Kick()
	<-entered
	s.Kick()
	s.Kick()
	close(release)
	deadline := time.Now().Add(10 * time.Second)
	for ticks.Load() < 2 {
		if time.Now().After(deadline) {
			t.Fatal("a kick during a tick was lost")
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(50 * time.Millisecond)
	if n := ticks.Load(); n != 2 {
		t.Fatalf("%d ticks, want 2: the kicks during the first share the second", n)
	}
}

// TestTicksNeverOverlap: kicked and fired ticks, each with its effects, run
// one at a time, however many goroutines kick (run under -race). Every tick
// arms the timer a little ahead, so fires keep landing among the kicks.
func TestTicksNeverOverlap(t *testing.T) {
	var busy atomic.Bool
	var ticks atomic.Int32
	s := New(func(effs []eff) {
		if len(effs) == 0 {
			return // a fire's own step
		}
		time.Sleep(20 * time.Microsecond)
		busy.Store(false)
	}, due, func(now time.Time, buf []eff) []eff {
		if !busy.CompareAndSwap(false, true) {
			t.Error("a tick began while another tick's effects ran")
		}
		ticks.Add(1)
		return append(buf, eff{at: now.Add(30 * time.Microsecond), tag: 1})
	})
	var wg sync.WaitGroup
	deadline := time.Now().Add(10 * time.Second)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ticks.Load() < 300 && time.Now().Before(deadline) {
				s.Kick()
				time.Sleep(10 * time.Microsecond)
			}
		}()
	}
	wg.Wait()
	s.Close()
	if n := ticks.Load(); n < 300 {
		t.Fatalf("%d ticks in 10 s", n)
	}
}

// TestKickAfterCloseRunsNothing: once Close has returned, a Kick starts no
// tick.
func TestKickAfterCloseRunsNothing(t *testing.T) {
	var ticks atomic.Int32
	s := New(noRun, nil, func(_ time.Time, buf []eff) []eff {
		ticks.Add(1)
		return buf
	})
	s.Close()
	s.Kick()
	time.Sleep(20 * time.Millisecond)
	if n := ticks.Load(); n != 0 {
		t.Fatalf("%d ticks after Close", n)
	}
}
