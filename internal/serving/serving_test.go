package serving

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cq"
	"repro/internal/relalg"
	"repro/internal/storage"
)

// harness is a hub over a bare database with a plain mutex standing in for
// the peer's (the hub never cares whose Locker it shares with extraction).
type harness struct {
	db  *storage.DB
	mu  sync.Mutex
	hub *Hub
}

func newHarness(t *testing.T, schemas ...relalg.Schema) *harness {
	t.Helper()
	h := &harness{db: storage.New(schemas...)}
	h.hub = NewHub(h.db, &h.mu)
	h.db.AddInsertListener(func(rel string, _ []relalg.Tuple, _ uint64) { h.hub.Notify(rel) })
	t.Cleanup(h.hub.Close)
	return h
}

func (h *harness) insert(t *testing.T, rel string, vals ...string) {
	t.Helper()
	tup := make(relalg.Tuple, len(vals))
	for i, v := range vals {
		tup[i] = relalg.S(v)
	}
	h.mu.Lock()
	_, err := h.db.Insert(rel, tup, storage.InsertExact)
	h.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
}

func mustConj(t *testing.T, src string) cq.Conjunction {
	t.Helper()
	conj, err := cq.ParseConjunction(src)
	if err != nil {
		t.Fatal(err)
	}
	return conj
}

// recvBatch reads one batch with a deadline.
func recvBatch(t *testing.T, w *Watcher) Batch {
	t.Helper()
	select {
	case b, ok := <-w.Out():
		if !ok {
			t.Fatal("watcher stream closed early")
		}
		return b
	case <-time.After(5 * time.Second):
		t.Fatal("no batch within deadline")
	}
	return Batch{}
}

// waitUntil polls cond for up to 5s.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timeout waiting for %s", what)
}

// TestSingleExtractionPerChange is the tentpole invariant: with W watchers on
// one relation, one storage change costs exactly one shared delta extraction
// and one evaluation, for W across three orders of magnitude.
func TestSingleExtractionPerChange(t *testing.T) {
	for _, W := range []int{1, 64, 512} {
		t.Run(fmt.Sprintf("W=%d", W), func(t *testing.T) {
			h := newHarness(t, relalg.MakeSchema("p", 1))
			conj := mustConj(t, "p(X)")
			ws := make([]*Watcher, W)
			for i := range ws {
				w, err := h.hub.Register(conj, []string{"X"}, WatchOptions{})
				if err != nil {
					t.Fatal(err)
				}
				ws[i] = w
			}
			for _, w := range ws {
				if b := recvBatch(t, w); !b.Prime {
					t.Fatalf("first batch not the prime: %+v", b)
				}
			}
			extr0 := h.hub.Metrics().Extractions
			eval0 := h.hub.Metrics().Evaluations
			h.insert(t, "p", "v1")
			for _, w := range ws {
				b := recvBatch(t, w)
				if len(b.Tuples) != 1 {
					t.Fatalf("delta batch has %d tuples, want 1", len(b.Tuples))
				}
			}
			m := h.hub.Metrics()
			if got := m.Extractions - extr0; got != 1 {
				t.Fatalf("one change with %d watchers cost %d extractions, want exactly 1", W, got)
			}
			if got := m.Evaluations - eval0; got != 1 {
				t.Fatalf("one change over one class cost %d evaluations, want exactly 1", got)
			}
			if W > 1 && m.SavedExtractions == 0 {
				t.Fatalf("sharing saved nothing with %d watchers", W)
			}
		})
	}
}

// TestDistinctClassesEvaluateIndependently: watchers of different
// (conjunction, columns) pairs pay one evaluation each — sharing is per class,
// not a single global query.
func TestDistinctClassesEvaluateIndependently(t *testing.T) {
	h := newHarness(t, relalg.MakeSchema("p", 2))
	wa, err := h.hub.Register(mustConj(t, "p(X,Y)"), []string{"X"}, WatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	wb, err := h.hub.Register(mustConj(t, "p(X,Y)"), []string{"Y"}, WatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	recvBatch(t, wa)
	recvBatch(t, wb)
	extr0, eval0 := h.hub.Metrics().Extractions, h.hub.Metrics().Evaluations
	h.insert(t, "p", "a", "b")
	recvBatch(t, wa)
	recvBatch(t, wb)
	m := h.hub.Metrics()
	if got := m.Extractions - extr0; got != 1 {
		t.Fatalf("one change cost %d extractions across two classes, want 1", got)
	}
	if got := m.Evaluations - eval0; got != 2 {
		t.Fatalf("two distinct classes cost %d evaluations, want 2", got)
	}
}

// TestStalledBlockWatcherStallsNobody: a consumer that never reads holds at
// most its queue bound in pending batches (lossless coalescing) while other
// watchers of the same relation — and the inserter — proceed at full speed.
func TestStalledBlockWatcherStallsNobody(t *testing.T) {
	h := newHarness(t, relalg.MakeSchema("p", 1))
	conj := mustConj(t, "p(X)")
	stalled, err := h.hub.Register(conj, []string{"X"}, WatchOptions{QueueCap: 4})
	if err != nil {
		t.Fatal(err)
	}
	live, err := h.hub.Register(conj, []string{"X"}, WatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]int{}
	var seenMu sync.Mutex
	done := make(chan struct{})
	go func() {
		defer close(done)
		for b := range live.Out() {
			seenMu.Lock()
			for _, tup := range b.Tuples {
				seen[tup.Key()]++
			}
			seenMu.Unlock()
		}
	}()
	const total = 300
	for i := 0; i < total; i++ {
		h.insert(t, "p", fmt.Sprintf("v%d", i))
	}
	waitUntil(t, "the live watcher to catch up", func() bool {
		seenMu.Lock()
		defer seenMu.Unlock()
		return len(seen) == total
	})
	seenMu.Lock()
	for k, n := range seen {
		if n != 1 {
			t.Fatalf("tuple %s delivered %d times to the live watcher", k, n)
		}
	}
	seenMu.Unlock()
	// Bounded memory: the stalled queue holds at most its cap in batches.
	if d := stalled.Depth(); d > 4 {
		t.Fatalf("stalled Block queue grew to %d batches, cap 4", d)
	}
	if stalled.Dropped() != 0 {
		t.Fatal("Block policy must not drop")
	}
	// Lossless: once the stalled consumer wakes up, the coalesced batches
	// still union to every tuple, exactly once.
	got := map[string]int{}
	wake := make(chan struct{})
	go func() {
		defer close(wake)
		for b := range stalled.Out() {
			for _, tup := range b.Tuples {
				got[tup.Key()]++
			}
		}
	}()
	stalled.Close()
	live.Close()
	<-wake
	<-done
	if len(got) != total {
		t.Fatalf("woken Block consumer saw %d distinct tuples, want %d", len(got), total)
	}
	for k, n := range got {
		if n != 1 {
			t.Fatalf("tuple %s delivered %d times after coalescing", k, n)
		}
	}
}

// TestDropOldestStaysAtLeastOnceWithResume: a drop-oldest watcher loses
// batches under overflow, but a reconnect with the resume token of its last
// consumed batch re-receives everything it missed — at-least-once end to end.
func TestDropOldestStaysAtLeastOnceWithResume(t *testing.T) {
	h := newHarness(t, relalg.MakeSchema("p", 1))
	conj := mustConj(t, "p(X)")
	w, err := h.hub.Register(conj, []string{"X"}, WatchOptions{Policy: DropOldest, QueueCap: 2})
	if err != nil {
		t.Fatal(err)
	}
	// A draining watcher of the same class paces the passes: one insert, one
	// pass, one batch — so the stalled queue overflows deterministically.
	pacer, err := h.hub.Register(conj, []string{"X"}, WatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	recvBatch(t, pacer)
	prime := recvBatch(t, w)
	confirmed := prime.Marks
	seen := map[string]bool{}
	const total = 60
	for i := 0; i < total; i++ {
		h.insert(t, "p", fmt.Sprintf("v%d", i))
		recvBatch(t, pacer)
	}
	pacer.Close()
	if w.Dropped() == 0 {
		t.Fatal("test never exercised drop-oldest overflow")
	}
	// Consume whatever survived, remembering the frontier of the last batch
	// actually processed — the resume token.
	w.Close()
	for b := range w.Out() {
		for _, tup := range b.Tuples {
			seen[tup.Key()] = true
		}
		confirmed = b.Marks
	}
	if len(seen) == total {
		t.Fatal("test never exercised loss: every tuple arrived despite drops")
	}
	// Reconnect with the token: the prime is the unconfirmed suffix.
	w2, err := h.hub.Register(conj, []string{"X"}, WatchOptions{Resume: confirmed})
	if err != nil {
		t.Fatal(err)
	}
	catch := recvBatch(t, w2)
	if !catch.Prime {
		t.Fatalf("resume catch-up not a prime: %+v", catch)
	}
	for _, tup := range catch.Tuples {
		seen[tup.Key()] = true
	}
	if len(seen) != total {
		t.Fatalf("after reconnect-with-resume %d distinct tuples, want %d (at-least-once broken)", len(seen), total)
	}
}

// TestCancelPolicyClosesTheSlowWatcher: overflow under Cancel ends the stream
// with a reason, counts the cancellation, and leaves the hub serving others.
func TestCancelPolicyClosesTheSlowWatcher(t *testing.T) {
	h := newHarness(t, relalg.MakeSchema("p", 1))
	conj := mustConj(t, "p(X)")
	doomed, err := h.hub.Register(conj, []string{"X"}, WatchOptions{Policy: Cancel, QueueCap: 2})
	if err != nil {
		t.Fatal(err)
	}
	survivor, err := h.hub.Register(conj, []string{"X"}, WatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	recvBatch(t, survivor)
	// The survivor paces the passes (one insert, one pass, one batch), so the
	// doomed queue overflows deterministically partway through.
	got := map[string]bool{}
	const total = 60
	for i := 0; i < total; i++ {
		h.insert(t, "p", fmt.Sprintf("v%d", i))
		b := recvBatch(t, survivor)
		for _, tup := range b.Tuples {
			got[tup.Key()] = true
		}
	}
	waitUntil(t, "the cancel policy to fire", func() bool { return h.hub.Metrics().CanceledWatchers == 1 })
	waitUntil(t, "the doomed stream to close", func() bool {
		select {
		case _, ok := <-doomed.Out():
			return !ok
		default:
			return false
		}
	})
	if doomed.Err() == "" {
		t.Fatal("cancelled watcher must report why")
	}
	if len(got) != total {
		t.Fatalf("survivor saw %d distinct tuples, want %d", len(got), total)
	}
	survivor.Close()
}

// TestJoinClassSharesOneDelta: a two-atom class still pays one extraction and
// one semi-naive evaluation per change, whichever atom's relation changed.
func TestJoinClassSharesOneDelta(t *testing.T) {
	h := newHarness(t,
		relalg.MakeSchema("b", 2), relalg.MakeSchema("c", 2))
	conj := mustConj(t, "b(X,Y), c(Y,Z)")
	var ws []*Watcher
	for i := 0; i < 16; i++ {
		w, err := h.hub.Register(conj, []string{"X", "Z"}, WatchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		ws = append(ws, w)
		recvBatch(t, w)
	}
	h.insert(t, "b", "l", "k")
	waitUntil(t, "the b-delta pass", func() bool { return h.hub.Metrics().Extractions >= 1 })
	extr0 := h.hub.Metrics().Extractions
	h.insert(t, "c", "k", "r")
	for _, w := range ws {
		b := recvBatch(t, w)
		if len(b.Tuples) != 1 {
			t.Fatalf("join delta carried %d tuples, want 1", len(b.Tuples))
		}
	}
	if got := h.hub.Metrics().Extractions - extr0; got != 1 {
		t.Fatalf("join change cost %d extractions over 16 watchers, want 1", got)
	}
}

// TestWatchAfterCloseFails pins the shutdown contract.
func TestWatchAfterCloseFails(t *testing.T) {
	h := newHarness(t, relalg.MakeSchema("p", 1))
	h.hub.Close()
	if _, err := h.hub.Register(mustConj(t, "p(X)"), []string{"X"}, WatchOptions{}); err == nil {
		t.Fatal("register after Close must fail")
	}
	if n := h.hub.WatcherCount(); n != 0 {
		t.Fatalf("closed hub reports %d watchers", n)
	}
}

// stream records every batch one watcher receives, until its channel closes.
type stream struct {
	w       *Watcher
	mu      sync.Mutex
	batches []Batch
	done    chan struct{}
}

func follow(w *Watcher) *stream {
	s := &stream{w: w, done: make(chan struct{})}
	go func() {
		defer close(s.done)
		for b := range w.Out() {
			s.mu.Lock()
			s.batches = append(s.batches, b)
			s.mu.Unlock()
		}
	}()
	return s
}

// counts tallies each tuple over the stream's batches.
func (s *stream) counts() map[string]int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := map[string]int{}
	for _, b := range s.batches {
		for _, tup := range b.Tuples {
			n[tup.Key()]++
		}
	}
	return n
}

func (s *stream) batchCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.batches)
}

func (s *stream) batch(i int) Batch {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.batches[i]
}

func sameKeys(got map[string]int, want map[string]bool) bool {
	if len(got) != len(want) {
		return false
	}
	for k := range got {
		if !want[k] {
			return false
		}
	}
	return true
}

// TestOneDedupSetPerClass is the exactly-once spec under one shared set per
// class. X is re-derived through different Y; watchers join at three passes,
// one resumes from a token and one drops oldest. Every
// freshly primed watcher's batches still union to cq.Eval's result with no
// tuple twice, the resumed stream repeats nothing after its catch-up, and the
// hub holds one copy of the result however many watchers share it.
func TestOneDedupSetPerClass(t *testing.T) {
	const W = 512
	h := newHarness(t, relalg.MakeSchema("p", 2), relalg.MakeSchema("q", 1))
	conj := mustConj(t, "p(X,Y), q(Y)")
	cols := []string{"X"}
	derive := func(x, y string) {
		h.insert(t, "p", x, y)
		h.insert(t, "q", y)
	}
	want := func() map[string]bool {
		h.mu.Lock()
		defer h.mu.Unlock()
		res, err := cq.Eval(h.db, conj, cols)
		if err != nil {
			t.Fatal(err)
		}
		out := map[string]bool{}
		for _, tup := range res {
			out[tup.Key()] = true
		}
		return out
	}
	watch := func(o WatchOptions) *stream {
		w, err := h.hub.Register(conj, cols, o)
		if err != nil {
			t.Fatal(err)
		}
		return follow(w)
	}
	primed := func(ss ...*stream) {
		for _, s := range ss {
			waitUntil(t, "a prime", func() bool { return s.batchCount() > 0 })
		}
	}
	settle := func(ss ...*stream) {
		for _, s := range ss {
			waitUntil(t, "the watcher to cover the result", func() bool { return sameKeys(s.counts(), want()) })
		}
	}

	derive("a", "1")
	h.insert(t, "p", "b", "2")
	// Pass 1: the class is born with one watcher, whose prime seeds the set.
	first := watch(WatchOptions{})
	primed(first)
	token := first.batch(0).Marks
	derive("a", "3") // a again, through a new Y: news to nobody
	h.insert(t, "q", "2")
	settle(first)

	// Pass 2: a drop-oldest watcher joins the primed class.
	dropper := watch(WatchOptions{Policy: DropOldest})
	primed(dropper)
	derive("c", "4")
	derive("b", "5")
	settle(first, dropper)

	// Pass 3: one watcher resumes from first's prime, the rest are fresh.
	resumed := watch(WatchOptions{Resume: token})
	fresh := []*stream{first, dropper}
	for len(fresh) < W-1 {
		fresh = append(fresh, watch(WatchOptions{}))
	}
	primed(fresh...)
	primed(resumed)
	for i := 0; i < 16; i++ {
		derive(fmt.Sprintf("x%02d", i), fmt.Sprintf("y%02d", i))
		derive(fmt.Sprintf("x%02d", i/2), fmt.Sprintf("z%02d", i))
	}
	derive("a", "6")
	settle(fresh...)
	result := want()
	waitUntil(t, "the token and the resumed watcher to cover the result", func() bool {
		got := resumed.counts()
		for _, tup := range first.batch(0).Tuples {
			got[tup.Key()]++
		}
		return sameKeys(got, result)
	})
	if m := h.hub.Metrics(); m.Classes != 1 || m.Retained != len(result) {
		t.Fatalf("%d watchers of one class: metrics report %d classes retaining %d tuples, want 1 class retaining the %d distinct results",
			W, m.Classes, m.Retained, len(result))
	}

	h.hub.Close()
	for _, s := range append(fresh, resumed) {
		<-s.done
	}
	for i, s := range fresh {
		got := s.counts()
		if !sameKeys(got, result) {
			t.Fatalf("fresh watcher %d: batches union to %d tuples, cq.Eval has %d", i, len(got), len(result))
		}
		for k, n := range got {
			if n != 1 {
				t.Fatalf("fresh watcher %d was sent %s %d times", i, k, n)
			}
		}
	}
	if dropper.w.Dropped() != 0 {
		t.Fatalf("drop-oldest watcher dropped %d batches; the spec needs its full stream", dropper.w.Dropped())
	}
	// The catch-up is a set and everything after it is news to the class.
	for k, n := range resumed.counts() {
		if n != 1 {
			t.Fatalf("resumed watcher was sent %s %d times", k, n)
		}
	}
}

// TestCoalescingReachesOnlyItsOwnWatcher: a batch's tuples are one slice
// shared by the class's watchers — a view of the class set's log — so a
// stalled Block watcher coalescing later deltas into its tail must copy, not
// append into the shared array. Rows from before the watchers' frontier enter
// the set only through a later catch-up from zero; after that the set's log
// holds rows nobody was sent as news, which an in-place append would
// overwrite, and the next appends would overwrite the other watcher's batches.
func TestCoalescingReachesOnlyItsOwnWatcher(t *testing.T) {
	h := newHarness(t, relalg.MakeSchema("p", 1))
	conj := mustConj(t, "p(X)")
	cols := []string{"X"}
	h.insert(t, "p", "old")
	h.mu.Lock()
	front := h.db.MarksFor([]string{"p"})
	h.mu.Unlock()
	stalled, err := h.hub.Register(conj, cols, WatchOptions{QueueCap: 1, Resume: front})
	if err != nil {
		t.Fatal(err)
	}
	live, err := h.hub.Register(conj, cols, WatchOptions{Resume: front})
	if err != nil {
		t.Fatal(err)
	}
	recvBatch(t, live)
	// Room in the class log for every row below: the log never moves, so a
	// stalled tail that is a view of it always has the log's spare capacity.
	h.hub.passMu.Lock()
	h.hub.wmu.Lock()
	for _, cl := range h.hub.classes {
		cl.sent.Grow(4096)
	}
	h.hub.wmu.Unlock()
	h.hub.passMu.Unlock()
	var held []Batch
	var sent [][]relalg.Tuple
	rows := 0
	step := func() {
		h.insert(t, "p", fmt.Sprintf("v%03d", rows))
		rows++
		b := recvBatch(t, live)
		held = append(held, b)
		sent = append(sent, append([]relalg.Tuple(nil), b.Tuples...))
	}
	// Stall the watcher: its channel full, its delivery goroutine holding a
	// batch it cannot send and one batch queued. From here on every delta
	// coalesces into that tail.
	undelivered := func() uint64 {
		return stalled.staged.Load() - stalled.coalesced.Load() - stalled.delivered.Load()
	}
	for len(stalled.out) < cap(stalled.out) || undelivered() < 2 {
		step()
	}
	zero, err := h.hub.Register(conj, cols, WatchOptions{Resume: map[string]uint64{}})
	if err != nil {
		t.Fatal(err)
	}
	if b := recvBatch(t, zero); len(b.Tuples) != rows+1 {
		t.Fatalf("catch-up from zero carried %d rows, want %d", len(b.Tuples), rows+1)
	}
	zero.Close()
	for i := 0; i < 16; i++ {
		step()
	}
	if n := stalled.coalesced.Load(); n < 16 {
		t.Fatalf("stalled watcher coalesced %d batches; the test needs it to coalesce every delta", n)
	}
	for k, b := range held {
		if len(b.Tuples) != len(sent[k]) || !slices.EqualFunc(b.Tuples, sent[k], relalg.Tuple.Equal) {
			t.Fatalf("live watcher's batch %d now holds %v; it was sent %v", b.Seq, b.Tuples, sent[k])
		}
	}
	got := map[string]int{}
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		for b := range stalled.Out() {
			for _, tup := range b.Tuples {
				got[tup.Key()]++
			}
		}
	}()
	stalled.Close()
	<-drained
	if len(got) != rows {
		t.Fatalf("stalled watcher drained %d distinct rows, want %d", len(got), rows)
	}
	for k, n := range got {
		if n != 1 {
			t.Fatalf("stalled watcher was sent %s %d times", k, n)
		}
	}
}

// TestCoalescingReachesOnlyItsOwnWatcherWithSet runs
// TestCoalescingReachesOnlyItsOwnWatcher's schedule on a class that keeps a
// set: p(X,Y) projected on X drops Y, so each batch is a view of the set's
// log. Every row has its own X, so the projection is one row per insert and
// the counts match the set-free test's.
func TestCoalescingReachesOnlyItsOwnWatcherWithSet(t *testing.T) {
	h := newHarness(t, relalg.MakeSchema("p", 2))
	conj := mustConj(t, "p(X,Y)")
	cols := []string{"X"}
	h.insert(t, "p", "old", "y")
	h.mu.Lock()
	front := h.db.MarksFor([]string{"p"})
	h.mu.Unlock()
	stalled, err := h.hub.Register(conj, cols, WatchOptions{QueueCap: 1, Resume: front})
	if err != nil {
		t.Fatal(err)
	}
	live, err := h.hub.Register(conj, cols, WatchOptions{Resume: front})
	if err != nil {
		t.Fatal(err)
	}
	recvBatch(t, live)
	h.hub.passMu.Lock()
	h.hub.wmu.Lock()
	for _, cl := range h.hub.classes {
		if cl.setFree {
			t.Fatal("p(X,Y) on [X] drops Y; its class must keep a set")
		}
		cl.sent.Grow(4096)
	}
	h.hub.wmu.Unlock()
	h.hub.passMu.Unlock()
	var held []Batch
	var sent [][]relalg.Tuple
	rows := 0
	step := func() {
		h.insert(t, "p", fmt.Sprintf("v%03d", rows), "y")
		rows++
		b := recvBatch(t, live)
		held = append(held, b)
		sent = append(sent, append([]relalg.Tuple(nil), b.Tuples...))
	}
	undelivered := func() uint64 {
		return stalled.staged.Load() - stalled.coalesced.Load() - stalled.delivered.Load()
	}
	for len(stalled.out) < cap(stalled.out) || undelivered() < 2 {
		step()
	}
	zero, err := h.hub.Register(conj, cols, WatchOptions{Resume: map[string]uint64{}})
	if err != nil {
		t.Fatal(err)
	}
	if b := recvBatch(t, zero); len(b.Tuples) != rows+1 {
		t.Fatalf("catch-up from zero carried %d rows, want %d", len(b.Tuples), rows+1)
	}
	zero.Close()
	for i := 0; i < 16; i++ {
		step()
	}
	if n := stalled.coalesced.Load(); n < 16 {
		t.Fatalf("stalled watcher coalesced %d batches; the test needs it to coalesce every delta", n)
	}
	for k, b := range held {
		if len(b.Tuples) != len(sent[k]) || !slices.EqualFunc(b.Tuples, sent[k], relalg.Tuple.Equal) {
			t.Fatalf("live watcher's batch %d now holds %v; it was sent %v", b.Seq, b.Tuples, sent[k])
		}
	}
	got := map[string]int{}
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		for b := range stalled.Out() {
			for _, tup := range b.Tuples {
				got[tup.Key()]++
			}
		}
	}()
	stalled.Close()
	<-drained
	if len(got) != rows {
		t.Fatalf("stalled watcher drained %d distinct rows, want %d", len(got), rows)
	}
	for k, n := range got {
		if n != 1 {
			t.Fatalf("stalled watcher was sent %s %d times", k, n)
		}
	}
}

// TestSetFreeClassExactlyOnce runs TestOneDedupSetPerClass's schedule over
// classes of one atom. Where every variable of the atom is a column — with a
// constant, a repeated variable or a built-in filtering it — the class is
// set-free: it retains nothing, yet every freshly primed watcher's batches
// still union to cq.Eval's result with no tuple twice. The projection arm
// drops Y, so X is re-derived through a new Y: that class keeps its set and
// still delivers each X once.
func TestSetFreeClassExactlyOnce(t *testing.T) {
	for _, arm := range []struct {
		name, conj string
		cols       []string
		setFree    bool
	}{
		{"columns", "p(X,Y)", []string{"X", "Y"}, true},
		{"constant", "p(a,Y)", []string{"Y"}, true},
		{"repeated", "p(X,X)", []string{"X"}, true},
		{"builtin", "p(X,Y), X <> Y", []string{"Y", "X"}, true},
		{"projection", "p(X,Y)", []string{"X"}, false},
	} {
		t.Run(arm.name, func(t *testing.T) {
			testSetFreeSchedule(t, mustConj(t, arm.conj), arm.cols, arm.setFree)
		})
	}
}

func testSetFreeSchedule(t *testing.T, conj cq.Conjunction, cols []string, setFree bool) {
	const W = 64
	h := newHarness(t, relalg.MakeSchema("p", 2))
	want := func() map[string]bool {
		h.mu.Lock()
		defer h.mu.Unlock()
		res, err := cq.Eval(h.db, conj, cols)
		if err != nil {
			t.Fatal(err)
		}
		out := map[string]bool{}
		for _, tup := range res {
			out[tup.Key()] = true
		}
		return out
	}
	watch := func(o WatchOptions) *stream {
		w, err := h.hub.Register(conj, cols, o)
		if err != nil {
			t.Fatal(err)
		}
		return follow(w)
	}
	primed := func(ss ...*stream) {
		for _, s := range ss {
			waitUntil(t, "a prime", func() bool { return s.batchCount() > 0 })
		}
	}
	settle := func(ss ...*stream) {
		for _, s := range ss {
			waitUntil(t, "the watcher to cover the result", func() bool { return sameKeys(s.counts(), want()) })
		}
	}
	// rows inserts p(x, y) for each pair: every arm matches some of each call.
	rows := func(pairs ...string) {
		for i := 0; i < len(pairs); i += 2 {
			h.insert(t, "p", pairs[i], pairs[i+1])
		}
	}

	rows("a", "1", "b", "b", "b", "2")
	// Pass 1: the class is born with one watcher.
	first := watch(WatchOptions{})
	primed(first)
	token := first.batch(0).Marks
	rows("a", "3", "c", "c", "b", "4") // a and b again, through a new Y
	settle(first)

	// Pass 2: a drop-oldest watcher joins the primed class.
	dropper := watch(WatchOptions{Policy: DropOldest})
	primed(dropper)
	rows("c", "5", "a", "a", "b", "6")
	settle(first, dropper)

	// Pass 3: one watcher resumes from first's prime, the rest are fresh.
	resumed := watch(WatchOptions{Resume: token})
	fresh := []*stream{first, dropper}
	for len(fresh) < W-1 {
		fresh = append(fresh, watch(WatchOptions{}))
	}
	primed(fresh...)
	primed(resumed)
	for i := 0; i < 16; i++ {
		rows(fmt.Sprintf("x%02d", i), fmt.Sprintf("y%02d", i),
			fmt.Sprintf("x%02d", i/2), fmt.Sprintf("z%02d", i),
			"a", fmt.Sprintf("w%02d", i),
			fmt.Sprintf("v%02d", i), fmt.Sprintf("v%02d", i))
	}
	rows("a", "7")
	settle(fresh...)
	result := want()
	waitUntil(t, "the token and the resumed watcher to cover the result", func() bool {
		got := resumed.counts()
		for _, tup := range first.batch(0).Tuples {
			got[tup.Key()]++
		}
		return sameKeys(got, result)
	})
	m := h.hub.Metrics()

	h.hub.Close()
	for _, s := range append(fresh, resumed) {
		<-s.done
	}
	for i, s := range fresh {
		got := s.counts()
		if !sameKeys(got, result) {
			t.Fatalf("fresh watcher %d: batches union to %d tuples, cq.Eval has %d", i, len(got), len(result))
		}
		for k, n := range got {
			if n != 1 {
				t.Fatalf("fresh watcher %d was sent %s %d times", i, k, n)
			}
		}
	}
	if dropper.w.Dropped() != 0 {
		t.Fatalf("drop-oldest watcher dropped %d batches; the spec needs its full stream", dropper.w.Dropped())
	}
	for k, n := range resumed.counts() {
		if n != 1 {
			t.Fatalf("resumed watcher was sent %s %d times", k, n)
		}
	}
	wantRetained := len(result)
	if setFree {
		wantRetained = 0
	}
	if m.Classes != 1 || m.Retained != wantRetained {
		t.Fatalf("%d watchers of one class: metrics report %d classes retaining %d tuples, want 1 class retaining %d",
			W, m.Classes, m.Retained, wantRetained)
	}
}

// sinkLog records, in order, every call the hub's pass makes on the sinks
// that share it. A Flush with nothing delivered since the last one is not
// recorded: every pass flushes every group.
type sinkLog struct {
	mu    sync.Mutex
	calls []string
	dirty bool
}

func (l *sinkLog) add(s string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if s == "flush" && !l.dirty {
		return
	}
	l.dirty = s != "flush"
	l.calls = append(l.calls, s)
}

// take returns the calls so far once there are n of them, and forgets them.
func (l *sinkLog) take(t *testing.T, n int) []string {
	t.Helper()
	waitUntil(t, fmt.Sprintf("%d sink calls", n), func() bool {
		l.mu.Lock()
		defer l.mu.Unlock()
		return len(l.calls) >= n
	})
	l.mu.Lock()
	defer l.mu.Unlock()
	calls := l.calls
	l.calls = nil
	return calls
}

type logSink struct {
	log  *sinkLog
	name string
}

func (s logSink) Deliver(b Batch)   { s.log.add(fmt.Sprintf("%s:%d:%d", s.name, b.Seq, len(b.Tuples))) }
func (s logSink) End(reason string) { s.log.add(s.name + ":end" + reason) }
func (s logSink) Flush()            { s.log.add("flush") }

// TestRemoteWatchersDrainAtThePass: the pass hands a remote watcher's
// batches to its sink, one group's watchers in a row and then one Flush for
// the group, and a closed watcher's End follows its last batch.
func TestRemoteWatchersDrainAtThePass(t *testing.T) {
	h := newHarness(t, relalg.MakeSchema("p", 1))
	conj := mustConj(t, "p(X)")
	log := &sinkLog{}
	register := func(name, group string) *Watcher {
		w, err := h.hub.RegisterRemote(conj, []string{"X"}, WatchOptions{}, group, logSink{log, name})
		if err != nil {
			t.Fatal(err)
		}
		log.take(t, 2) // the prime and its group's flush
		return w
	}
	register("a1", "g1")
	register("b1", "g2")
	a2 := register("a2", "g1")
	if a2.Out() != nil {
		t.Fatal("a remote watcher has a delivery channel")
	}
	h.insert(t, "p", "v1")
	want := []string{"a1:2:1", "a2:2:1", "flush", "b1:2:1", "flush"}
	if got := log.take(t, len(want)); !slices.Equal(got, want) {
		t.Fatalf("sink calls %v, want %v", got, want)
	}
	// v2's pass and a2's final pass may run in either order, or be one
	// pass; the hub's close waits for both and ends the other two.
	h.insert(t, "p", "v2")
	a2.Close()
	h.hub.Close()
	calls := log.take(t, 0)
	for _, name := range []string{"a1", "a2", "b1"} {
		var own []string
		for _, c := range calls {
			if strings.HasPrefix(c, name+":") {
				own = append(own, c)
			}
		}
		if want := []string{name + ":3:1", name + ":end"}; !slices.Equal(own, want) {
			t.Errorf("%s's sink calls %v, want %v (in %v)", name, own, want, calls)
		}
	}
	if calls[len(calls)-1] != "flush" {
		t.Errorf("sink calls %v end unflushed", calls)
	}
}
