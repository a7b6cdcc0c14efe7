// Package serving is the hosted fan-out read path: one delta extraction per
// storage change, shared across every continuous-query watcher of the node,
// distributed through bounded per-watcher queues with an explicit
// slow-consumer policy.
//
// The previous watcher model gave every watcher its own pump goroutine, and
// each pump paid its own DeltaSince + EvalDelta per change: W watchers of one
// relation cost W extractions per insert. A Hub inverts that. Watchers
// register into *classes* — one class per distinct (conjunction, columns)
// pair — and one pass services all of them: each does exactly one delta
// extraction over the union of watched relations, one semi-naive evaluation
// per affected class, and fans the class result out to every watcher of the
// class through its own bounded queue. Deduplication is
// per class too — at most one exactly-once set per class, not per watcher,
// and none for a set-free class (see setFree). A rule redefinition costs the
// hub nothing: it evaluates over stored, append-only relations, so a class's
// prime plus its deltas already are its full result at the frontier.
//
// The pass is the tick of a shell.Shell: a watched insert or a registration
// kicks it, and passes run one at a time, deliveries included. Extraction and
// evaluation run under the peer's mutex (serialising with protocol inserts,
// like every other evaluation); queue delivery happens after it is released
// and never blocks the pass, so a stalled consumer can slow only itself —
// never the fix-point, never another watcher.
//
// A local watcher's queue feeds its Out channel through a delivery goroutine
// of its own. A remote watcher (RegisterRemote) has none: the pass itself
// drains its queue into its Sink — the wire, for a peer — one client's
// watchers in a row, then flushes them as one run, so one change's batches
// for a client reach the transport together and share a frame; the End that
// closes a stream follows the last batch of the pass that closed it.
package serving

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cq"
	"repro/internal/relalg"
	"repro/internal/shell"
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
	nwatch  atomic.Int32 // fast path for Notify

	sh *shell.Shell[struct{}] // runs the pass as its tick

	// Pass state, serialised by passMu (a tick and the final pass a Close
	// runs share it).
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
	setFree  bool // no sent set: see setFree

	// sent is the class result delivered so far. Every primed watcher
	// already covers it, so a derived tuple is fresh for all of them or for
	// none. Pass-owned (guarded by the hub's passMu); retained mirrors its
	// size for Metrics. A set-free class leaves it empty.
	sent     relalg.TupleSet
	retained atomic.Int64
}

// admit adds tuples to the class set and returns the ones it did not hold,
// as views of the set's rows, shared by every watcher the pass stages them
// for. A set-free class holds no set: every tuple it is given is news.
// Callers hold the hub's passMu.
func (cl *class) admit(tuples []relalg.Tuple) []relalg.Tuple {
	if cl.setFree {
		return tuples
	}
	var news []relalg.Tuple
	for _, t := range tuples {
		if cl.sent.Add(t) {
			news = append(news, cl.sent.At(cl.sent.Len()-1))
		}
	}
	cl.retained.Store(int64(cl.sent.Len()))
	return news
}

// setFree reports whether a class needs no exactly-once set: its conjunction
// is one atom and every variable of that atom is a column. Storage is
// append-only and deduplicates each relation on insert, so each stored tuple
// maps to its own result tuple and no later pass can derive a result again.
// Constants, repeated variables and built-ins only filter, so they keep the
// projection injective; a join or a dropped variable can re-derive a result.
func setFree(conj cq.Conjunction, cols []string) bool {
	if len(conj.Atoms) != 1 {
		return false
	}
	for _, v := range conj.Atoms[0].Vars() {
		if !slices.Contains(cols, v) {
			return false
		}
	}
	return true
}

// NewHub builds the fan-out hub over one node's database. mu is the peer's
// mutex; evaluation runs under it.
func NewHub(db *storage.DB, mu sync.Locker) *Hub {
	h := &Hub{
		db:      db,
		mu:      mu,
		classes: map[string]*class{},
		relRefs: map[string]int{},
		marks:   storage.Marks{},
	}
	h.sh = shell.New(func([]struct{}) {}, nil, func(_ time.Time, buf []struct{}) []struct{} {
		h.pass()
		return buf
	})
	return h
}

// Register adds a local continuous query to the hub; Out() is its stream.
// The first batch staged for the watcher is its prime (the current full
// result, or the resume catch-up delta), always delivered even when empty —
// the registration sync point. The conjunction is assumed validated by the
// caller (declared relations, range-restricted columns).
func (h *Hub) Register(conj cq.Conjunction, cols []string, o WatchOptions) (*Watcher, error) {
	w, err := h.register(conj, cols, o, "", nil)
	if err != nil {
		return nil, err
	}
	go w.run()
	h.sh.Kick()
	return w, nil
}

// RegisterRemote adds a continuous query whose stream is sink: the pass that
// stages a batch also hands it over, with no goroutine of the watcher's own,
// and drains the remote watchers of one group (one client) in a row, then
// flushes the group, so their batches reach the transport as one run.
// Otherwise as Register.
func (h *Hub) RegisterRemote(conj cq.Conjunction, cols []string, o WatchOptions, group string, sink Sink) (*Watcher, error) {
	w, err := h.register(conj, cols, o, group, sink)
	if err != nil {
		return nil, err
	}
	h.sh.Kick()
	return w, nil
}

func (h *Hub) register(conj cq.Conjunction, cols []string, o WatchOptions, group string, sink Sink) (*Watcher, error) {
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
			setFree:  setFree(conj, cols),
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
	w := newWatcher(h, cl, h.nextID, o, group, sink)
	cl.watchers[w.id] = w
	for _, rel := range cl.rels {
		h.relRefs[rel]++
	}
	h.wmu.Unlock()
	h.nwatch.Add(1)
	return w, nil
}

// Notify kicks a pass when the relation is watched. It runs from the
// database's insert listener — possibly while the peer's mutex is held — so
// it must not take that mutex and never blocks (Kick takes no lock).
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
	h.sh.Kick()
}

// WatcherCount reports the live watchers.
func (h *Hub) WatcherCount() int { return int(h.nwatch.Load()) }

// Close rejects future registrations, waits for a pass in flight, drains one
// final shared pass into every queue and closes every watcher (orchestration
// shutdown).
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
	h.wmu.Unlock()
	h.sh.Close()
	var finish []*Watcher
	for _, w := range ws {
		if w.markClosed("") {
			finish = append(finish, w)
		}
	}
	if len(finish) > 0 {
		h.pass(finish...)
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

// classWork is one pass's snapshot of a class.
type classWork struct {
	cl       *class
	full     bool // run the full conjunction (a fresh watcher)
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
// class, then queue delivery outside the peer mutex. The watchers in finish
// (closed, still attached) are detached after their last batch is queued.
// Then the remote watchers' queues drain into their sinks, one group after
// another. Serialised by passMu with the final passes Close and
// Watcher.Close run.
func (h *Hub) pass(finish ...*Watcher) {
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
		// One evaluation and one dedup serve a class with a set: every primed
		// watcher already covers the class set, so what it lacks is news to
		// them all. A set-free class's news is its delta's result as it is,
		// and a fresh watcher's prime the full result at the frontier.
		var res, news []relalg.Tuple
		if cw.full {
			res, _ = cq.Eval(h.db, cl.conj, cl.cols)
			h.evaluations.Add(1)
		}
		switch {
		case cw.full && !cl.setFree:
			news = res
		case len(classDelta) > 0 && cw.primed > 0:
			news, _ = cq.EvalDelta(h.db, cl.conj, cl.cols, classDelta)
			h.evaluations.Add(1)
		}
		news = cl.admit(news)
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
	// queue costs its own watcher (per policy), never the pass.
	for _, d := range out {
		d.w.enqueue(d.b)
	}
	for _, w := range finish {
		w.finish()
	}
	// Every remote watcher with a batch queued or its End due is in this
	// pass's snapshot: batches are queued and watchers closed only by a pass
	// (Cancel too), and every one it finishes was still attached.
	var remote []*Watcher
	for _, cw := range work {
		for _, w := range cw.watchers {
			if w.sink != nil {
				remote = append(remote, w)
			}
		}
	}
	sort.Slice(remote, func(i, j int) bool {
		if remote[i].group != remote[j].group {
			return remote[i].group < remote[j].group
		}
		return remote[i].id < remote[j].id
	})
	for i, w := range remote {
		w.drain()
		if i == len(remote)-1 || remote[i+1].group != w.group {
			w.sink.Flush()
		}
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
