package transport

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/wire"
)

// Batcher wraps any Transport with a batched, ack-piggybacked wire protocol:
// Answers bound for the same destination coalesce into a single
// wire.AnswerBatch frame within a small time/size window, AnswerAcks owed to
// that destination piggyback on the same frame instead of paying their own,
// and (in cluster mode) a pending membership Heartbeat rides along too. Every
// other message kind flushes the destination's buffer first and passes
// through unbatched, so ordering between data and control frames (Queries,
// Goodbyes, coordinator verbs) is preserved.
//
// The paper's update propagation only requires per-update closure, not
// per-tuple messaging: on chatty topologies (cliques, cycles) most frames are
// small answers and their acks between the same pair of peers, and batching
// them amortises the per-frame overhead by an order of magnitude without
// changing the fix-point — receivers apply a batch's contents exactly as if
// each message had arrived alone.
//
// Quiescence: the Batcher accounts for nothing. Its sender counted a held
// message sent when Send returned, and nobody counts it received before its
// frame is delivered and handled, so the counter balance reads it in flight
// until then. A frame whose flush fails is lost like any dropped message.
//
// Flush rule, as Nagle's: a message is held only while its link is busy. A
// data message to a destination that has been quiet is handed to the flusher
// goroutine at once and leaves with whatever the same handler turn added
// before the hand-off completed; what follows while the link stays busy
// waits, at most one window from the oldest held message — the window is the
// longest hold, not the usual one. Close ships everything still held.
type Batcher struct {
	inner   Transport
	window  time.Duration
	maxByte int
	now     func() time.Time // time.Now; tests substitute a clock they set

	mu     sync.Mutex
	bufs   map[[2]string]*batchBuf // kept across flushes while lastData matters
	closed bool

	wake     chan struct{} // cap 1: a buffer is ready, started holding, or came due
	quit     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
	passes   atomic.Uint64 // flusher passes; an idle Batcher makes none

	frames    atomic.Uint64 // frames handed to the inner transport
	coalesced atomic.Uint64 // messages that shared a frame instead of paying their own
	piggyAcks atomic.Uint64 // acks that piggybacked on a batched frame
	piggyHB   atomic.Uint64 // heartbeats that piggybacked on a batched frame
}

// BatcherOptions tunes a Batcher.
type BatcherOptions struct {
	// Window is the longest hold (default 2ms): a message to a quiet
	// destination ships at once, one that arrives while the link is busy
	// leaves at most this long after the oldest message held with it.
	Window time.Duration
	// MaxBytes flushes a destination's buffer once its estimated payload
	// reaches this size, so a burst never builds an oversized frame
	// (default 64KiB).
	MaxBytes int
}

// BatchStats snapshots a Batcher's frame accounting.
type BatchStats struct {
	// Frames counts wire frames handed to the inner transport (batched
	// frames, flushed singles and passthroughs alike).
	Frames uint64
	// Coalesced counts messages that shared a frame with an earlier message
	// instead of paying their own — the frames saved by batching.
	Coalesced uint64
	// PiggybackedAcks counts AnswerAcks that rode in a batched frame.
	PiggybackedAcks uint64
	// PiggybackedBeats counts Heartbeats that rode in a batched frame.
	PiggybackedBeats uint64
}

// batchBuf is the held traffic for one (from, to) pair.
type batchBuf struct {
	answers    []wire.Answer
	acks       []wire.AnswerAck
	beat       *wire.Heartbeat
	repAppends []wire.ReplicaAppend
	repAcks    []wire.ReplicaAck
	deltas     []wire.WatchDelta
	bytes      int
	since      time.Time // when the oldest held message arrived
	lastData   time.Time // when the latest data message arrived, across flushes
	ready      bool      // a message found the link quiet: ship at the next flusher pass
}

func (b *batchBuf) held() int {
	n := len(b.answers) + len(b.acks) + len(b.repAppends) + len(b.repAcks) + len(b.deltas)
	if b.beat != nil {
		n++
	}
	return n
}

// NewBatcher wraps inner with batching. The Batcher owns the inner transport:
// Close flushes all buffers and closes it.
func NewBatcher(inner Transport, opts BatcherOptions) *Batcher {
	if opts.Window <= 0 {
		opts.Window = 2 * time.Millisecond
	}
	if opts.MaxBytes <= 0 {
		opts.MaxBytes = 64 << 10
	}
	b := &Batcher{
		inner:   inner,
		window:  opts.Window,
		maxByte: opts.MaxBytes,
		now:     time.Now,
		bufs:    map[[2]string]*batchBuf{},
		wake:    make(chan struct{}, 1),
		quit:    make(chan struct{}),
	}
	b.wg.Add(1)
	go b.flushLoop()
	return b
}

// Inner returns the wrapped transport. Orchestration asserts transport
// capabilities (Stepper, FaultInjector) against it: the Batcher itself is a
// send-side buffer.
func (b *Batcher) Inner() Transport { return b.inner }

// Stats snapshots the frame accounting.
func (b *Batcher) Stats() BatchStats {
	return BatchStats{
		Frames:           b.frames.Load(),
		Coalesced:        b.coalesced.Load(),
		PiggybackedAcks:  b.piggyAcks.Load(),
		PiggybackedBeats: b.piggyHB.Load(),
	}
}

// Register implements Transport (handlers attach to the inner transport;
// receiving is untouched by batching).
func (b *Batcher) Register(node string, h Handler) error { return b.inner.Register(node, h) }

// quietDiv sets when a link counts as quiet: no data message to the
// destination for window/quietDiv (250µs by default). The messages of one
// handler turn, and of back-to-back turns of an update wave, follow each
// other within microseconds, so only the first of a burst finds the link
// quiet and the rest coalesce behind it; live events further apart each ship
// at once. It is a dial between latency and frames, measured at 4, 8 and 64:
// 4 reads like 8; 64 takes live-fanout's p50 from 2.3 to 0.9–1.9 ms and E16's
// frame reduction from 52–58× to 18–20× (clique) and 18–22× to 12–17× (ring),
// against a floor of 10×.
const quietDiv = 8

// Send implements Transport. Answers, acks, replica and watch traffic and
// Heartbeats are held for coalescing; any other kind flushes the destination
// first and passes through, preserving order.
func (b *Batcher) Send(from, to string, msg wire.Message) error {
	key := [2]string{from, to}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return ErrClosed
	}
	buf := b.bufs[key]
	if buf == nil {
		buf = &batchBuf{}
		b.bufs[key] = buf
	}
	now, first := b.now(), buf.held() == 0
	if first {
		buf.since = now
	}
	switch m := msg.(type) {
	case wire.Answer:
		buf.answers = append(buf.answers, m)
	case wire.AnswerAck:
		buf.acks = append(buf.acks, m)
	case wire.ReplicaAppend:
		// The replication stream batches like the answer stream it mirrors:
		// a primary's flush round produces one append per relation per
		// mirror, and they share a frame per destination.
		buf.repAppends = append(buf.repAppends, m)
	case wire.ReplicaAck:
		buf.repAcks = append(buf.repAcks, m)
	case wire.WatchDelta:
		// Watch-stream deliveries batch like the answer stream: a hot relation
		// fanning out to many remote watchers of one client shares frames.
		buf.deltas = append(buf.deltas, m)
	case wire.Heartbeat:
		// A heartbeat never ships early and does not make the link busy: it
		// rides the next frame or waits the window.
		buf.beat = &m // latest wins: a heartbeat only asserts "still alive"
		if first {
			b.poke() // only to arm the timer for it
		}
		return nil
	default:
		// A failed flush loses the held frame, not msg: only msg's own error
		// goes back to the sender, whose counters take back exactly what it
		// reports refused.
		_ = b.flushLocked(key)
		b.frames.Add(1)
		// The lock must span flush + pass-through or another sender could
		// interleave a frame between them and break FIFO per destination.
		// Both inner transports enqueue or spawn without waiting on delivery.
		return b.inner.Send(from, to, msg) //lint:allow locksend inner.Send enqueues/spawns (TCP outbox, Mem inbox) and never blocks on the network; the lock preserves flush-then-frame order
	}
	// Every data kind: a full buffer ships inline, a message that found the
	// link quiet makes its buffer ready, anything else waits for the timer.
	buf.bytes += msg.Size()
	quiet := now.Sub(buf.lastData) >= b.window/quietDiv
	buf.lastData = now
	if buf.bytes >= b.maxByte {
		return b.flushLocked(key)
	}
	buf.ready = buf.ready || quiet
	if quiet || first {
		b.poke()
	}
	return nil
}

// poke wakes the flusher for a pass. It never blocks, so callers may hold mu.
func (b *Batcher) poke() {
	select {
	case b.wake <- struct{}{}:
	default: // a wake-up is already pending; its pass will see this buffer too
	}
}

// flushLocked ships one destination's held traffic: a lone message goes out
// as itself (wire compatibility — an unbatched receiver understands it), two
// or more coalesce into an AnswerBatch. Callers hold mu.
func (b *Batcher) flushLocked(key [2]string) error {
	buf := b.bufs[key]
	if buf == nil || buf.held() == 0 {
		return nil
	}
	n := buf.held()
	var msg wire.Message
	switch {
	case n == 1 && len(buf.answers) == 1:
		msg = buf.answers[0]
	case n == 1 && len(buf.acks) == 1:
		msg = buf.acks[0]
	case n == 1 && buf.beat != nil:
		msg = *buf.beat
	case n == 1 && len(buf.repAppends) == 1:
		msg = buf.repAppends[0]
	case n == 1 && len(buf.repAcks) == 1:
		msg = buf.repAcks[0]
	case n == 1 && len(buf.deltas) == 1:
		msg = buf.deltas[0]
	default:
		ab := wire.AnswerBatch{Answers: buf.answers, Acks: buf.acks,
			RepAppends: buf.repAppends, RepAcks: buf.repAcks,
			WatchDeltas: buf.deltas}
		if buf.beat != nil {
			ab.Beats = []wire.Heartbeat{*buf.beat}
		}
		msg = ab
		b.coalesced.Add(uint64(n - 1))
		b.piggyAcks.Add(uint64(len(buf.acks)))
		if buf.beat != nil {
			b.piggyHB.Add(1)
		}
	}
	*buf = batchBuf{lastData: buf.lastData}
	b.frames.Add(1)
	return b.inner.Send(key[0], key[1], msg)
}

// flushLoop is the flusher goroutine: woken by Send for a ready buffer, and
// by one timer armed for the earliest since+window among the held buffers.
// While nothing is held the timer is parked and the goroutine never wakes.
func (b *Batcher) flushLoop() {
	defer b.wg.Done()
	t := time.AfterFunc(b.window, b.poke)
	t.Stop() // parked until a pass finds something held
	defer t.Stop()
	for {
		select {
		case <-b.quit:
			return
		case <-b.wake:
		}
		if wait := b.flushDue(); wait > 0 {
			t.Reset(wait)
		} else {
			t.Stop()
		}
	}
}

// flushDue is one flusher pass: it ships every buffer that is ready or one
// window old, and returns how long until the next held buffer is due (zero:
// nothing is held, the timer parks).
func (b *Batcher) flushDue() time.Duration {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.passes.Add(1)
	now := b.now()
	var wait time.Duration
	for key, buf := range b.bufs {
		if buf.held() == 0 {
			if now.Sub(buf.lastData) >= b.window {
				delete(b.bufs, key) // long quiet: a missing buffer reads as quiet too
			}
			continue
		}
		if due := buf.since.Add(b.window).Sub(now); buf.ready || due <= 0 {
			_ = b.flushLocked(key)
		} else if wait == 0 || due < wait {
			wait = due
		}
	}
	return wait
}

// Close flushes every buffer and closes the inner transport (flush-on-Close:
// trailing acks and Goodbyes queued behind held answers still drain).
func (b *Batcher) Close() error {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return b.inner.Close()
	}
	b.closed = true
	for key := range b.bufs {
		_ = b.flushLocked(key) // shutdown send errors surface via inner.Close
	}
	b.mu.Unlock()
	b.stopOnce.Do(func() { close(b.quit) })
	b.wg.Wait()
	return b.inner.Close()
}

var _ Transport = (*Batcher)(nil)
