package transport

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/wire"
)

// MemOptions configures the in-memory router.
type MemOptions struct {
	// Seed drives the deterministic jitter generator.
	Seed int64
	// MaxDelay, when positive, delays each delivery by a deterministic
	// pseudo-random duration in [0, MaxDelay). Only meaningful in
	// asynchronous mode.
	MaxDelay time.Duration
	// Synchronous switches to BSP mode: sends buffer until Step delivers
	// them as one round.
	Synchronous bool
}

// Mem is the in-memory transport: a router with one serial dispatcher per
// node, unbounded mailboxes, delay injection and pairwise partitions. It
// counts the messages in its mailboxes and handlers, but only to pace Step:
// whether the network has settled is the peers' counter balance, as on every
// other transport.
type Mem struct {
	opts MemOptions

	mu       sync.Mutex
	cond     *sync.Cond
	rng      *rand.Rand
	inflight int
	closed   bool
	nodes    map[string]*mailbox
	blocked  map[[2]string]bool // unordered pair partitions
	pending  []wire.Envelope    // synchronous mode round buffer
	dropped  uint64

	wg sync.WaitGroup
}

type mailbox struct {
	mu      sync.Mutex
	cond    *sync.Cond
	queue   []wire.Envelope
	handler Handler
	closed  bool
}

// NewMem creates an in-memory transport.
func NewMem(opts MemOptions) *Mem {
	m := &Mem{
		opts:    opts,
		nodes:   map[string]*mailbox{},
		blocked: map[[2]string]bool{},
		rng:     rand.New(rand.NewSource(opts.Seed)),
	}
	m.cond = sync.NewCond(&m.mu)
	return m
}

// Register implements Transport.
func (m *Mem) Register(node string, h Handler) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return ErrClosed
	}
	if _, ok := m.nodes[node]; ok {
		return addressError("re-register", node)
	}
	box := &mailbox{handler: h}
	box.cond = sync.NewCond(&box.mu)
	m.nodes[node] = box
	m.wg.Add(1)
	go m.dispatch(box)
	return nil
}

// dispatch runs a node's serial delivery loop.
func (m *Mem) dispatch(box *mailbox) {
	defer m.wg.Done()
	for {
		box.mu.Lock()
		for len(box.queue) == 0 && !box.closed {
			box.cond.Wait()
		}
		if box.closed && len(box.queue) == 0 {
			box.mu.Unlock()
			return
		}
		env := box.queue[0]
		box.queue[0] = wire.Envelope{} // or the array keeps the message reachable
		box.queue = box.queue[1:]
		box.mu.Unlock()

		box.handler(env)
		m.done(1)
	}
}

func (m *Mem) done(n int) {
	m.mu.Lock()
	m.inflight -= n
	// Broadcast on every decrement: Step waits on inflight ==
	// len(pending), which can be reached without inflight hitting zero.
	m.cond.Broadcast()
	m.mu.Unlock()
}

// Send implements Transport. In asynchronous mode the message is enqueued
// (possibly after a deterministic delay); in synchronous mode it is buffered
// for the next Step.
func (m *Mem) Send(from, to string, msg wire.Message) error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return ErrClosed
	}
	box, ok := m.nodes[to]
	if !ok {
		m.mu.Unlock()
		return addressError("send to", to)
	}
	if m.blocked[pairKey(from, to)] {
		m.dropped++
		m.mu.Unlock()
		return fmt.Errorf("%w: %s -> %s", ErrPartitioned, from, to)
	}
	env := wire.Envelope{From: from, To: to, Msg: msg}
	m.inflight++
	if m.opts.Synchronous {
		m.pending = append(m.pending, env)
		m.mu.Unlock()
		return nil
	}
	var delay time.Duration
	if m.opts.MaxDelay > 0 {
		delay = time.Duration(m.rng.Int63n(int64(m.opts.MaxDelay)))
	}
	m.mu.Unlock()

	if delay > 0 {
		time.AfterFunc(delay, func() { m.enqueue(box, env) })
		return nil
	}
	m.enqueue(box, env)
	return nil
}

func (m *Mem) enqueue(box *mailbox, env wire.Envelope) {
	box.mu.Lock()
	if box.closed {
		box.mu.Unlock()
		m.done(1)
		return
	}
	box.queue = append(box.queue, env)
	box.cond.Signal()
	box.mu.Unlock()
}

// Step delivers the currently buffered round in synchronous mode and waits
// until every handler has returned; sends made while handling go to the next
// round. It returns the number of messages delivered. In asynchronous mode it
// is a no-op returning 0.
func (m *Mem) Step() int {
	m.mu.Lock()
	if !m.opts.Synchronous || m.closed {
		m.mu.Unlock()
		return 0
	}
	round := m.pending
	m.pending = nil
	boxes := m.nodes
	m.mu.Unlock()

	for _, env := range round {
		m.enqueue(boxes[env.To], env)
	}
	// Wait until in-flight equals the size of the next round buffer (all
	// delivered messages handled; their sends are buffered, not in-flight
	// in mailboxes).
	m.mu.Lock()
	for m.inflight != len(m.pending) && !m.closed {
		m.cond.Wait()
	}
	m.mu.Unlock()
	return len(round)
}

// WaitQuiescent blocks until no message is in flight anywhere (all mailboxes
// empty, all handlers returned, no delayed deliveries pending) or the
// context is cancelled. Orchestration does not use it; it stays for
// benchmark/trace.go and for the router's own tests.
func (m *Mem) WaitQuiescent(ctx context.Context) error {
	done := make(chan struct{})
	//lint:allow goroshutdown exits when the net quiesces or Close broadcasts; a cancelled ctx broadcasts below to re-check
	go func() {
		m.mu.Lock()
		for m.inflight != 0 && !m.closed {
			m.cond.Wait()
		}
		m.mu.Unlock()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		// Wake the waiter so its goroutine exits eventually.
		m.cond.Broadcast()
		return ctx.Err()
	}
}

// Inflight reports the number of undelivered or currently handled messages.
// It stays for benchmark/trace.go and for tests that audit the balance.
func (m *Mem) Inflight() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.inflight
}

// TrackWork adds delta to the in-flight count. Nothing in the program calls
// it; it stays only because benchmark/trace.go delegates to it.
func (m *Mem) TrackWork(delta int) {
	m.mu.Lock()
	m.inflight += delta
	m.cond.Broadcast()
	m.mu.Unlock()
}

// Dropped reports how many sends partitions refused.
func (m *Mem) Dropped() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.dropped
}

// Partition blocks both directions between two nodes.
func (m *Mem) Partition(a, b string) {
	m.mu.Lock()
	m.blocked[pairKey(a, b)] = true
	m.mu.Unlock()
}

// Heal removes a partition.
func (m *Mem) Heal(a, b string) {
	m.mu.Lock()
	delete(m.blocked, pairKey(a, b))
	m.mu.Unlock()
}

func pairKey(a, b string) [2]string {
	if a < b {
		return [2]string{a, b}
	}
	return [2]string{b, a}
}

// Close implements Transport: it stops all dispatchers after their queues
// drain is NOT guaranteed; pending messages are discarded.
func (m *Mem) Close() error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil
	}
	m.closed = true
	discarded := len(m.pending)
	m.pending = nil
	boxes := make([]*mailbox, 0, len(m.nodes))
	for _, b := range m.nodes {
		boxes = append(boxes, b)
	}
	m.cond.Broadcast()
	m.mu.Unlock()

	drop := 0
	for _, b := range boxes {
		b.mu.Lock()
		b.closed = true
		drop += len(b.queue)
		b.queue = nil
		b.cond.Broadcast()
		b.mu.Unlock()
	}
	m.done(discarded + drop)
	m.wg.Wait()
	return nil
}

var (
	_ Transport     = (*Mem)(nil)
	_ Stepper       = (*Mem)(nil)
	_ FaultInjector = (*Mem)(nil)
)
