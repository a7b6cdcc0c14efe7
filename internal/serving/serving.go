// Package serving is the hosted fan-out read path: one delta extraction per
// storage change, shared across every continuous-query watcher of the node,
// distributed through bounded per-watcher queues with an explicit
// slow-consumer policy.
//
// The previous watcher model gave every watcher its own pump goroutine, and
// each pump paid its own DeltaSince + EvalDelta per change: W watchers of one
// relation cost W extractions per insert. A Hub inverts that. Watchers
// register into *classes* — one class per distinct (conjunction, columns)
// pair — and a single pump goroutine services all of them: each wake-up does
// exactly one delta extraction over the union of watched relations, one
// semi-naive evaluation per affected class, and fans the class result out to
// every watcher of the class through its own bounded queue. Deduplication is
// per class too — one exactly-once set per class, not per watcher. Re-primes
// (rule redefinition) share the same path: one full evaluation per class
// serves all its re-primed watchers.
//
// Extraction and evaluation run under the peer's mutex (serialising with
// protocol inserts, like every other evaluation); queue delivery happens
// after it is released and never blocks the pump, so a stalled consumer can
// slow only itself — never the fix-point, never another watcher.
package serving

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/cq"
	"repro/internal/relalg"
	"repro/internal/storage"
)

// WatchOptions tunes one watcher registration.
type WatchOptions struct {
	// Policy picks the slow-consumer behaviour once the queue is full
	// (default Block: lossless coalescing).
	Policy Policy
	// QueueCap bounds the undelivered-batch queue (default 64).
	QueueCap int
	// Resume, when non-nil, registers the watcher at an earlier confirmed
	// frontier instead of priming with the full current result: the first
	// batch is the delta derivable from tuples past the given per-relation
	// high-water marks — exactly the suffix a reconnecting consumer has not
	// confirmed. Join results re-derived across the boundary may repeat in
	// the catch-up (at-least-once on resume); after it the watcher is
	// exactly-once, like every other watcher of its class.
	Resume map[string]uint64
}

// Hub shares delta extraction across every watcher of one node. All methods
// are safe for concurrent use; Notify additionally never blocks and may be
// called while the peer's mutex is held (it is the database's insert
// listener).
type Hub struct {
	db *storage.DB
	mu sync.Locker // the peer's mutex: extraction serialises with inserts

	// Registration state. Guarded by wmu, not the peer mutex: Notify runs
	// from the insert listener, possibly while the peer mutex is held.
	wmu     sync.Mutex
	classes map[string]*class
	relRefs map[string]int // watched relation -> watcher count
	nextID  uint64
	closed  bool
	started bool
	nwatch  atomic.Int32 // fast path for Notify

	sig  chan struct{} // capacity 1: wake-up, coalescing
	quit chan struct{}
	wg   sync.WaitGroup

	// Pump state, serialised by passMu (the pump goroutine and the final
	// pass a Close runs share it).
	passMu sync.Mutex
	marks  storage.Marks // shared frontier over every watched relation

	extractions atomic.Uint64 // change-driven shared delta extractions
	resumeExtr  atomic.Uint64 // per-watcher catch-up extractions (resume)
	evaluations atomic.Uint64 // Eval/EvalDelta calls (one per class per pass)
	naive       atomic.Uint64 // extractions the one-pump-per-watcher model would have paid
	dropped     atomic.Uint64 // batches discarded by DropOldest queues
	canceled    atomic.Uint64 // watchers cancelled by the Cancel policy
}

// class groups the watchers of one distinct (conjunction, columns) pair: one
// evaluation per pass serves them all.
type class struct {
	key      string
	conj     cq.Conjunction
	cols     []string
	rels     []string
	relSet   map[string]bool
	watchers map[uint64]*Watcher
	reprime  bool // next pass must re-run the full conjunction (rule change)

	// sent is the class result delivered so far. Every primed watcher
	// already covers it, so a derived tuple is fresh for all of them or for
	// none. Pump-owned (guarded by the hub's passMu); retained mirrors its
	// size for Metrics.
	sent     relalg.TupleSet
	retained atomic.Int64
}

// admit adds tuples to the class set and returns the ones it did not hold: a
// view of the set's log, shared by every watcher the pass stages it for.
// Callers hold the hub's passMu.
func (cl *class) admit(tuples []relalg.Tuple) []relalg.Tuple {
	n := cl.sent.Len()
	for _, t := range tuples {
		cl.sent.Add(t)
	}
	cl.retained.Store(int64(cl.sent.Len()))
	return cl.sent.All()[n:]
}

// NewHub builds the fan-out hub over one node's database. mu is the peer's
// mutex; evaluation runs under it. The pump goroutine starts lazily with the
// first registration.
func NewHub(db *storage.DB, mu sync.Locker) *Hub {
	return &Hub{
		db:      db,
		mu:      mu,
		classes: map[string]*class{},
		relRefs: map[string]int{},
		sig:     make(chan struct{}, 1),
		quit:    make(chan struct{}),
		marks:   storage.Marks{},
	}
}

// Register adds a continuous query to the hub. The first batch staged for the
// watcher is its prime (the current full result, or the resume catch-up
// delta), always delivered even when empty — the registration sync point.
// The conjunction is assumed validated by the caller (declared relations,
// range-restricted columns).
func (h *Hub) Register(conj cq.Conjunction, cols []string, o WatchOptions) (*Watcher, error) {
	if o.QueueCap <= 0 {
		o.QueueCap = defaultQueueCap
	}
	key := classKey(conj, cols)
	h.wmu.Lock()
	if h.closed {
		h.wmu.Unlock()
		return nil, fmt.Errorf("serving: watch after shutdown")
	}
	cl := h.classes[key]
	if cl == nil {
		cl = &class{
			key:      key,
			conj:     conj,
			cols:     append([]string(nil), cols...),
			relSet:   map[string]bool{},
			watchers: map[uint64]*Watcher{},
		}
		for _, a := range conj.Atoms {
			if !cl.relSet[a.Rel] {
				cl.relSet[a.Rel] = true
				cl.rels = append(cl.rels, a.Rel)
			}
		}
		sort.Strings(cl.rels)
		h.classes[key] = cl
	}
	h.nextID++
	w := newWatcher(h, cl, h.nextID, o)
	cl.watchers[w.id] = w
	for _, rel := range cl.rels {
		h.relRefs[rel]++
	}
	if !h.started {
		h.started = true
		h.wg.Add(1)
		go h.pump()
	}
	h.wmu.Unlock()
	h.nwatch.Add(1)
	go w.run()
	h.wake()
	return w, nil
}

// Notify wakes the pump when the relation is watched. It runs from the
// database's insert listener — possibly while the peer's mutex is held — so
// it must not take that mutex and never blocks (capacity-1 signal).
func (h *Hub) Notify(rel string) {
	if h.nwatch.Load() == 0 {
		return
	}
	h.wmu.Lock()
	n := h.relRefs[rel]
	h.wmu.Unlock()
	if n == 0 {
		return
	}
	h.wake()
}

// Reprime asks every class to re-run its full conjunction on the next pass
// (rule redefinition may have changed what the local database derives). One
// evaluation per class serves all its watchers; only what the class set does
// not hold yet is delivered, so deliveries stay exactly-once.
func (h *Hub) Reprime() {
	if h.nwatch.Load() == 0 {
		return
	}
	h.wmu.Lock()
	for _, cl := range h.classes {
		cl.reprime = true
	}
	h.wmu.Unlock()
	h.wake()
}

// WatcherCount reports the live watchers.
func (h *Hub) WatcherCount() int { return int(h.nwatch.Load()) }

// Close drains one final shared pass into every queue, closes every watcher
// and rejects future registrations (orchestration shutdown).
func (h *Hub) Close() {
	h.wmu.Lock()
	if h.closed {
		h.wmu.Unlock()
		return
	}
	h.closed = true
	var ws []*Watcher
	for _, cl := range h.classes {
		for _, w := range cl.watchers {
			ws = append(ws, w)
		}
	}
	started := h.started
	h.wmu.Unlock()
	if len(ws) > 0 {
		h.pass()
	}
	for _, w := range ws {
		w.shutdown(false, "")
	}
	if started {
		close(h.quit)
		h.wg.Wait()
	}
}

func (h *Hub) wake() {
	select {
	case h.sig <- struct{}{}:
	default:
	}
}

// detach removes the watcher from the registration state (its queue closes
// separately).
func (h *Hub) detach(w *Watcher) {
	h.wmu.Lock()
	cl := w.class
	if _, ok := cl.watchers[w.id]; ok {
		delete(cl.watchers, w.id)
		for _, rel := range cl.rels {
			if h.relRefs[rel]--; h.relRefs[rel] <= 0 {
				delete(h.relRefs, rel)
			}
		}
		if len(cl.watchers) == 0 {
			delete(h.classes, cl.key)
		}
		h.nwatch.Add(-1)
	}
	h.wmu.Unlock()
}

// pump is the hub's single extraction goroutine.
func (h *Hub) pump() {
	defer h.wg.Done()
	for {
		select {
		case <-h.sig:
			h.pass()
		case <-h.quit:
			return
		}
	}
}

// classWork is one pass's snapshot of a class.
type classWork struct {
	cl       *class
	full     bool // run the full conjunction (reprime or a fresh watcher)
	primed   int  // watchers already primed: the class's news goes to them
	watchers []*Watcher
}

// delivery is one staged batch bound for one watcher's queue.
type delivery struct {
	w *Watcher
	b Batch
}

// pass runs one shared extraction round: exactly one DeltaSince over the
// union of watched relations, one evaluation and one dedup per affected
// class, then queue delivery outside the peer mutex. Serialised by passMu
// with the final pass Close runs.
func (h *Hub) pass() {
	h.passMu.Lock()
	defer h.passMu.Unlock()

	// Snapshot the registration state; new watchers racing this pass are
	// simply served by the next one.
	h.wmu.Lock()
	work := make([]classWork, 0, len(h.classes))
	rels := make([]string, 0, len(h.relRefs))
	for rel := range h.relRefs {
		rels = append(rels, rel)
	}
	for _, cl := range h.classes {
		cw := classWork{cl: cl}
		for _, w := range cl.watchers {
			cw.watchers = append(cw.watchers, w)
			if w.primed {
				cw.primed++
			} else if w.resume == nil {
				cw.full = true
			}
		}
		cw.full = cw.full || cl.reprime && cw.primed > 0
		cl.reprime = false
		work = append(work, cw)
	}
	h.wmu.Unlock()
	if len(work) == 0 {
		return
	}
	sort.Slice(work, func(i, j int) bool { return work[i].cl.key < work[j].cl.key })
	for _, cw := range work {
		sort.Slice(cw.watchers, func(i, j int) bool { return cw.watchers[i].id < cw.watchers[j].id })
	}
	sort.Strings(rels)

	var out []delivery
	h.mu.Lock()
	// One shared extraction covers every relation already on the frontier.
	var delta map[string][]relalg.Tuple
	known := rels[:0:0]
	for _, rel := range rels {
		if _, ok := h.marks[rel]; ok {
			known = append(known, rel)
		}
	}
	if len(known) > 0 {
		var next storage.Marks
		delta, next = h.db.DeltaSince(h.marks, known)
		if len(delta) > 0 {
			h.extractions.Add(1)
		}
		for rel, seq := range next {
			h.marks[rel] = seq
		}
	}
	// Newly watched relations enter the frontier at the current high water;
	// the priming evaluation below covers everything up to it.
	for _, rel := range rels {
		if _, ok := h.marks[rel]; !ok {
			fresh := h.db.MarksFor([]string{rel})
			h.marks[rel] = fresh[rel]
		}
	}
	frontier := make(map[string]uint64, len(h.marks))
	for rel, seq := range h.marks {
		frontier[rel] = seq
	}

	for _, cw := range work {
		cl := cw.cl
		classDelta := intersectDelta(delta, cl.relSet)
		// What the one-pump-per-watcher model would have paid this change:
		// one extraction per already-primed watcher of an affected class.
		if len(classDelta) > 0 {
			h.naive.Add(uint64(cw.primed))
		}
		// One evaluation and one dedup serve the class: every primed watcher
		// already covers the class set, so what it lacks is news to them all.
		var res []relalg.Tuple
		switch {
		case cw.full:
			res, _ = cq.Eval(h.db, cl.conj, cl.cols)
			h.evaluations.Add(1)
		case len(classDelta) > 0 && cw.primed > 0:
			res, _ = cq.EvalDelta(h.db, cl.conj, cl.cols, classDelta)
			h.evaluations.Add(1)
		}
		news := cl.admit(res)
		for _, w := range cw.watchers {
			switch {
			case w.primed:
				if len(news) > 0 {
					out = append(out, delivery{w, w.stage(news, frontier, false)})
				}
			case w.resume == nil:
				w.primed = true
				out = append(out, delivery{w, w.stage(res, frontier, true)})
			default:
				// The token covers everything up to its frontier and the
				// catch-up the rest, so from here on the watcher covers the
				// class set too.
				catch := h.resumeCatchUp(cl, w.resume)
				cl.admit(catch)
				w.primed = true
				out = append(out, delivery{w, w.stage(catch, frontier, true)})
			}
		}
	}
	h.mu.Unlock()

	// Queue delivery outside the peer mutex: enqueue never blocks, so a full
	// queue costs its own watcher (per policy), never the pump.
	for _, d := range out {
		d.w.enqueue(d.b)
	}
}

// resumeCatchUp extracts the delta between a resuming consumer's confirmed
// frontier and now, and evaluates the class conjunction over it. Callers hold
// the peer mutex.
func (h *Hub) resumeCatchUp(cl *class, resume map[string]uint64) []relalg.Tuple {
	from := storage.Marks{}
	for _, rel := range cl.rels {
		from[rel] = resume[rel] // absent rels resume from zero
	}
	catch, _ := h.db.DeltaSince(from, cl.rels)
	h.resumeExtr.Add(1)
	if len(catch) == 0 {
		return nil
	}
	res, _ := cq.EvalDelta(h.db, cl.conj, cl.cols, catch)
	return res
}

func intersectDelta(delta map[string][]relalg.Tuple, rels map[string]bool) map[string][]relalg.Tuple {
	if len(delta) == 0 {
		return nil
	}
	var out map[string][]relalg.Tuple
	for rel, tuples := range delta {
		if rels[rel] {
			if out == nil {
				out = make(map[string][]relalg.Tuple, len(rels))
			}
			out[rel] = tuples
		}
	}
	return out
}

func classKey(conj cq.Conjunction, cols []string) string {
	return conj.String() + "\x1f" + strings.Join(cols, ",")
}
