package serving

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/relalg"
)

// Policy is a watcher's slow-consumer behaviour once its bounded queue is
// full. Whatever the policy, the hub's pump never waits on a consumer.
type Policy uint8

const (
	// Block is the lossless default: overflow coalesces into the newest
	// queued batch, so a stalled consumer's backpressure lands on itself —
	// it holds at most QueueCap pending batches whose union is exactly its
	// undelivered result suffix — while memory stays bounded by the
	// (deduplicated) result set and delivery stays exactly-once.
	Block Policy = iota
	// DropOldest discards the oldest undelivered batch to admit the newest.
	// A local consumer loses the dropped tuples for good; a remote one gets
	// them back by reconnecting with its resume token (at-least-once).
	DropOldest
	// Cancel closes the watcher outright on overflow: the consumer observes
	// a closed stream with Err() set and must re-register (with a resume
	// token, if it kept one).
	Cancel
)

// String names the policy (the queue-gauge class label).
func (p Policy) String() string {
	switch p {
	case DropOldest:
		return "drop-oldest"
	case Cancel:
		return "cancel"
	default:
		return "block"
	}
}

// ParsePolicy reads a Policy from its wire/flag spelling ("" = Block).
func ParsePolicy(s string) (Policy, bool) {
	switch s {
	case "", "block":
		return Block, true
	case "drop-oldest", "dropOldest", "drop_oldest":
		return DropOldest, true
	case "cancel":
		return Cancel, true
	}
	return Block, false
}

// defaultQueueCap bounds a watcher's undelivered batches when the
// registration does not say otherwise.
const defaultQueueCap = 64

// CloseDrainTimeout bounds how long a closed watcher waits for a consumer to
// drain the final batches before dropping them (a variable so tests shorten
// the wait; not for production tuning).
var CloseDrainTimeout = 5 * time.Second

// Batch is one result-delta delivery. Marks is the per-relation high-water
// frontier the consumer's accumulated state covers after applying the batch —
// echoed back as a resume token, it makes a reconnect re-receive exactly the
// unconfirmed suffix.
type Batch struct {
	Seq   uint64 // per-watcher, contiguous from 1 (the prime)
	Prime bool   // registration sync point: the current result, or the resume catch-up
	// Tuples is read-only: the slice is shared with the other watchers of the
	// class the pass staged it for.
	Tuples []relalg.Tuple
	Marks  map[string]uint64
}

// Watcher is one continuous query registered at a Hub; Out() is its stream.
type Watcher struct {
	hub    *Hub
	class  *class
	id     uint64
	policy Policy
	qcap   int

	// Pump-owned state (guarded by the hub's passMu).
	primed bool
	resume map[string]uint64
	seq    uint64

	qmu     sync.Mutex
	qcond   *sync.Cond
	queue   []Batch
	qclosed bool
	// lastPop is the frontier of the batch most recently handed to the
	// delivery goroutine; gapMarks, once a DropOldest queue discards a batch,
	// freezes the resume frontier at the coverage just before the gap — later
	// batches must not claim the dropped range, or a reconnect-with-token
	// would silently skip it. Both under qmu.
	lastPop  map[string]uint64
	gapMarks map[string]uint64

	out  chan Batch
	quit chan struct{}

	closeMu sync.Mutex
	closed  bool
	errMsg  atomic.Value // string: why the hub cancelled the watcher

	staged    atomic.Uint64 // batches placed on the queue
	delivered atomic.Uint64 // batches handed to the consumer
	droppedN  atomic.Uint64 // batches this queue discarded (DropOldest)
	coalesced atomic.Uint64 // batches merged into the tail (Block overflow)
}

func newWatcher(h *Hub, cl *class, id uint64, o WatchOptions) *Watcher {
	w := &Watcher{
		hub:    h,
		class:  cl,
		id:     id,
		policy: o.Policy,
		qcap:   o.QueueCap,
		resume: o.Resume,
		out:    make(chan Batch, 16),
		quit:   make(chan struct{}),
	}
	w.qcond = sync.NewCond(&w.qmu)
	return w
}

// ID returns the hub-local watcher id.
func (w *Watcher) ID() uint64 { return w.id }

// Out returns the metadata-bearing delivery stream. It closes after Close
// (or a policy cancellation) once the final batches have drained.
func (w *Watcher) Out() <-chan Batch { return w.out }

// Err reports why the hub closed the watcher ("" for a consumer-requested
// Close or an orchestration shutdown; non-empty after a Cancel-policy
// overflow).
func (w *Watcher) Err() string {
	if s, ok := w.errMsg.Load().(string); ok {
		return s
	}
	return ""
}

// Depth reports the undelivered batches currently queued.
func (w *Watcher) Depth() int {
	w.qmu.Lock()
	defer w.qmu.Unlock()
	return len(w.queue)
}

// Lag reports how many staged batches the consumer has not yet received.
func (w *Watcher) Lag() uint64 {
	s, d := w.staged.Load(), w.delivered.Load()
	if s < d {
		return 0
	}
	return s - d
}

// Dropped reports the batches this queue discarded (DropOldest overflow).
func (w *Watcher) Dropped() uint64 { return w.droppedN.Load() }

// Policy returns the watcher's slow-consumer policy.
func (w *Watcher) Policy() Policy { return w.policy }

// Close deregisters the watcher after one final shared pass, so a draining
// consumer still receives everything inserted before the Close. Safe to call
// more than once and concurrently with delivery.
func (w *Watcher) Close() { w.shutdown(true, "") }

// shutdown closes the watcher. finalPass runs one last extraction round (the
// consumer-facing Close path); the hub's own teardown and the Cancel policy
// skip it — the former already ran a shared final pass, the latter runs
// inside one.
func (w *Watcher) shutdown(finalPass bool, reason string) {
	w.closeMu.Lock()
	if w.closed {
		w.closeMu.Unlock()
		return
	}
	w.closed = true
	w.closeMu.Unlock()
	if reason != "" {
		w.errMsg.Store(reason)
	}
	if finalPass {
		w.hub.pass()
	}
	w.hub.detach(w)
	w.qmu.Lock()
	w.qclosed = true
	w.qcond.Broadcast()
	w.qmu.Unlock()
	close(w.quit)
}

// stage stamps a batch with the watcher's next sequence number and the
// frontier. The tuples are shared with every watcher the pass stages them
// for, so the slice is capacity-clipped: a Block coalesce appending to it
// copies instead of writing into another watcher's batch or the class set's
// log. Callers hold the hub's passMu.
func (w *Watcher) stage(tuples []relalg.Tuple, frontier map[string]uint64, prime bool) Batch {
	w.seq++
	return Batch{Seq: w.seq, Prime: prime, Tuples: tuples[:len(tuples):len(tuples)], Marks: frontier}
}

// enqueue places one staged batch on the bounded queue, applying the
// slow-consumer policy on overflow. It never blocks: the hub's pump calls it
// with no locks held.
func (w *Watcher) enqueue(b Batch) {
	w.qmu.Lock()
	if w.qclosed {
		w.qmu.Unlock()
		return
	}
	w.staged.Add(1)
	if w.gapMarks != nil {
		// A batch was dropped earlier: the consumer's coverage is frozen at
		// the gap until it reconnects with its token, so no later batch may
		// advance the resume frontier past data it will never see.
		b.Marks = w.gapMarks
	}
	if len(w.queue) < w.qcap || b.Prime {
		w.queue = append(w.queue, b)
		w.qcond.Signal()
		w.qmu.Unlock()
		return
	}
	switch w.policy {
	case DropOldest:
		// Spare a still-undelivered prime: dropping the sync point would
		// desynchronise the consumer for good, not just lose a delta.
		drop := 0
		for drop < len(w.queue) && w.queue[drop].Prime {
			drop++
		}
		if drop == len(w.queue) {
			w.queue = append(w.queue, b)
		} else {
			if w.gapMarks == nil {
				// Coverage just before the victim: the previous queued batch,
				// or the last one handed to delivery.
				if drop > 0 {
					w.gapMarks = w.queue[drop-1].Marks
				} else {
					w.gapMarks = w.lastPop
				}
			}
			copy(w.queue[drop:], w.queue[drop+1:])
			w.queue[len(w.queue)-1] = b
			for i := drop; i < len(w.queue); i++ {
				w.queue[i].Marks = w.gapMarks
			}
			w.droppedN.Add(1)
			w.hub.dropped.Add(1)
		}
		w.qcond.Signal()
		w.qmu.Unlock()
	case Cancel:
		w.qmu.Unlock()
		w.hub.canceled.Add(1)
		w.shutdown(false, "slow consumer: queue overflow")
	default: // Block: lossless coalescing into the newest queued batch
		// A staged slice is capacity-clipped, so the first append copies.
		tail := &w.queue[len(w.queue)-1]
		tail.Tuples = append(tail.Tuples, b.Tuples...)
		tail.Seq = b.Seq
		tail.Marks = b.Marks
		w.coalesced.Add(1)
		w.qcond.Signal()
		w.qmu.Unlock()
	}
}

// run is the delivery goroutine: it moves batches from the bounded queue to
// the consumer channel. After Close it keeps draining for a bounded grace
// period, then drops the tail — the channel always closes, the goroutine
// always exits, even when the consumer is gone.
func (w *Watcher) run() {
	defer close(w.out)
	var deadline <-chan time.Time
	var timer *time.Timer
	defer func() {
		if timer != nil {
			timer.Stop()
		}
	}()
	for {
		w.qmu.Lock()
		for len(w.queue) == 0 && !w.qclosed {
			w.qcond.Wait()
		}
		if len(w.queue) == 0 {
			w.qmu.Unlock()
			return
		}
		b := w.queue[0]
		copy(w.queue, w.queue[1:])
		// The vacated slot must not pin a view of an outgrown class log.
		w.queue[len(w.queue)-1] = Batch{}
		w.queue = w.queue[:len(w.queue)-1]
		w.lastPop = b.Marks
		w.qmu.Unlock()

		if deadline == nil {
			select {
			case w.out <- b:
				w.delivered.Add(1)
				continue
			case <-w.quit:
				timer = time.NewTimer(CloseDrainTimeout)
				deadline = timer.C
			}
		}
		select {
		case w.out <- b:
			w.delivered.Add(1)
		case <-deadline:
			return // consumer gone: drop the tail, the channel still closes
		}
	}
}
