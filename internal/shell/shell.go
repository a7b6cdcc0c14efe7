// Package shell is the one loop every protocol step runs in. Each state keeps
// its own step and effect type; a Shell owns the rest: the mutex, lock → step →
// unlock → effects in order, one timer for the earliest armed deadline, a
// lock-free Kick, ticks that run one at a time, a Close that waits for the
// steps in flight, and a runner for the goroutines.
package shell

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// clock is where a shell reads the time and gets its timer; tests swap it.
type clock interface {
	now() time.Time
	afterFunc(d time.Duration, f func()) timer
}

type timer interface {
	Reset(d time.Duration) bool
	Stop() bool
}

type wallClock struct{}

func (wallClock) now() time.Time                            { return time.Now() }
func (wallClock) afterFunc(d time.Duration, f func()) timer { return time.AfterFunc(d, f) }

// Shell runs the steps of one state whose effects are Es. The embedded mutex
// guards the state: the owner locks it to read the state, and may lend it.
type Shell[E any] struct {
	sync.Mutex
	run  func(effs []E)                   // carries out one step's effects
	due  func(e E) (time.Time, bool)      // whether e arms the timer, for when
	tick func(now time.Time, buf []E) []E // the step the timer runs

	clk    clock
	timer  timer     // made by the first arm, under the lock
	at     time.Time // the armed deadline; zero: none
	closed bool
	kicks  atomic.Int32        // kicks no tick has covered yet; the first starts ticks
	steps  sync.WaitGroup      // steps whose effects are running
	spare  atomic.Pointer[[]E] // an effect buffer no step holds
	ctx    context.Context     // the runner's; Close cancels it
	cancel context.CancelFunc
	goes   sync.WaitGroup // the runner's goroutines
}

// New returns a shell that runs each step's effects with run. due, when not
// nil, picks out the effects that arm the timer; once the earliest armed
// deadline passes, the timer steps tick, as Kick does at once.
func New[E any](run func(effs []E), due func(e E) (time.Time, bool), tick func(now time.Time, buf []E) []E) *Shell[E] {
	s := &Shell[E]{run: run, due: due, tick: tick, clk: wallClock{}}
	s.ctx, s.cancel = context.WithCancel(context.Background())
	return s
}

// Step runs f under the lock with the time and an empty effect buffer, arms
// the timer for the deadlines among the effects f returns, and runs them in
// order once the lock is released. Concurrent steps get buffers of their
// own; an effect may step again. It reports false, running nothing, once
// Close has begun.
func (s *Shell[E]) Step(f func(now time.Time, buf []E) []E) bool {
	buf := s.spare.Swap(nil)
	if buf == nil {
		buf = new([]E)
	}
	s.Lock()
	if s.closed {
		s.Unlock()
		return false
	}
	s.steps.Add(1)
	defer s.steps.Done()
	now := s.clk.now()
	effs := f(now, (*buf)[:0])
	for i := 0; s.due != nil && i < len(effs); i++ {
		if at, ok := s.due(effs[i]); ok && (s.at.IsZero() || at.Before(s.at)) {
			s.at = at // earlier than what is armed: the timer is made or moved under the lock
			if s.timer == nil {
				s.timer = s.clk.afterFunc(at.Sub(now), s.fire)
			} else {
				s.timer.Reset(at.Sub(now))
			}
		}
	}
	s.Unlock()
	s.run(effs)
	clear(effs) // a reused buffer must keep nothing a step sent alive
	*buf = effs[:0]
	s.spare.Store(buf)
	return true
}

// fire is the timer's callback: once the deadline has come, it disarms the
// timer and kicks the tick. A fire that finds none armed is stale (its
// deadline ticked) and does nothing.
func (s *Shell[E]) fire() {
	s.Step(func(now time.Time, buf []E) []E {
		switch {
		case s.at.IsZero():
		case now.Before(s.at):
			s.timer.Reset(s.at.Sub(now))
		default:
			s.at = time.Time{}
			s.Kick()
		}
		return buf
	})
}

// Kick steps tick soon without blocking or taking the lock: kicks before that
// tick share it, one during a tick gets one more, and after Close none runs.
func (s *Shell[E]) Kick() {
	if s.kicks.Add(1) == 1 {
		go ticks(s)
	}
}

// ticks steps tick, kicked or fired, one tick at a time and effects included,
// until every kick is covered by a tick begun after it. Close waits for it.
func ticks[E any](s *Shell[E]) {
	s.Lock()
	if s.closed {
		s.Unlock()
		return
	}
	s.steps.Add(1)
	s.Unlock()
	defer s.steps.Done()
	for n := s.kicks.Load(); n > 0; n = s.kicks.Add(-n) {
		if !s.Step(s.tick) {
			return
		}
	}
}

// Go runs f on a goroutine of the runner; Close cancels ctx and waits for f.
// It reports false, running nothing, once Close has begun. Callers must not
// hold the lock.
func (s *Shell[E]) Go(f func(ctx context.Context)) bool {
	s.Lock()
	defer s.Unlock()
	if s.closed {
		return false
	}
	s.goes.Add(1)
	go func() {
		defer s.goes.Done()
		f(s.ctx)
	}()
	return true
}

// Done is closed when Close, the steps in flight done, stops the runner.
func (s *Shell[E]) Done() <-chan struct{} { return s.ctx.Done() }

// Closed reports whether Close has begun. Callers hold the lock.
func (s *Shell[E]) Closed() bool { return s.closed }

// Close refuses new steps and goroutines, stops the timer, waits for the
// steps in flight, then cancels the runner's context and waits for its
// goroutines. It reports whether this call closed the shell; a later one
// returns at once. Running it in an effect or on the runner waits forever.
func (s *Shell[E]) Close() bool {
	s.Lock()
	if s.closed {
		s.Unlock()
		return false
	}
	s.closed = true
	if s.timer != nil {
		s.timer.Stop()
	}
	s.Unlock()
	s.steps.Wait()
	s.cancel()
	s.goes.Wait()
	return true
}
