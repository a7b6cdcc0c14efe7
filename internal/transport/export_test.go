package transport

import (
	"sync"
	"time"
)

// testClock is a clock the Batcher tests set: time stands still until a test
// moves it, so "held", "quiet" and "one window old" are facts, not races.
type testClock struct {
	mu sync.Mutex
	t  time.Time
}

func newTestClock() *testClock { return &testClock{t: time.Unix(1_000_000_000, 0)} }

func (c *testClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *testClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// SetClock substitutes the Batcher's clock; call it before the first Send.
func (b *Batcher) SetClock(c *testClock) {
	b.mu.Lock()
	b.now = c.Now
	b.mu.Unlock()
}

// Pass runs one flusher pass on the caller's goroutine — what the flusher
// does when it is woken — and returns how long the timer would be armed for.
func (b *Batcher) Pass() time.Duration { return b.flushDue() }

// Passes counts flusher passes, the flusher goroutine's and Pass's alike.
func (b *Batcher) Passes() uint64 { return b.passes.Load() }

// Links counts the destinations the Batcher keeps a buffer for.
func (b *Batcher) Links() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.bufs)
}

// Busy backdates the from→to link's current run of data by window/quietDiv,
// as if data had flowed on it that long with no quiet gap: the next data
// message, if it comes before the link goes quiet, finds the link busy. Call
// it after the link's last data message.
func (b *Batcher) Busy(from, to string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	buf := b.bufs[[2]string{from, to}]
	buf.burst = buf.lastData.Add(-b.window / quietDiv)
}
