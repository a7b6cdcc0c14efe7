package serving

import (
	"fmt"
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
	h.db.AddInsertListener(func(rel string, _ relalg.Tuple, _ uint64) { h.hub.Notify(rel) })
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

// TestReprimeSharesEvaluation is the re-prime satellite: a rule-redefinition
// re-prime pays one shared full evaluation per class — not one per watcher —
// and the dedup windows keep it silent when nothing changed.
func TestReprimeSharesEvaluation(t *testing.T) {
	const W = 8
	h := newHarness(t, relalg.MakeSchema("p", 1))
	conj := mustConj(t, "p(X)")
	h.insert(t, "p", "v0")
	ws := make([]*Watcher, W)
	for i := range ws {
		w, err := h.hub.Register(conj, []string{"X"}, WatchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		ws[i] = w
		if b := recvBatch(t, w); !b.Prime || len(b.Tuples) != 1 {
			t.Fatalf("prime carried %d tuples, want the 1 existing", len(b.Tuples))
		}
	}
	eval0 := h.hub.Metrics().Evaluations
	extr0 := h.hub.Metrics().Extractions
	h.hub.Reprime()
	waitUntil(t, "the re-prime pass", func() bool { return h.hub.Metrics().Evaluations > eval0 })
	m := h.hub.Metrics()
	if got := m.Evaluations - eval0; got != 1 {
		t.Fatalf("re-priming %d watchers cost %d evaluations, want exactly 1 shared", W, got)
	}
	if got := m.Extractions - extr0; got != 0 {
		t.Fatalf("re-prime paid %d delta extractions, want 0", got)
	}
	// Nothing changed, so the dedup windows must have swallowed the re-primed
	// result: the next batch each watcher sees is the fresh insert, alone.
	h.insert(t, "p", "v1")
	for _, w := range ws {
		b := recvBatch(t, w)
		if len(b.Tuples) != 1 || b.Tuples[0].Key() != (relalg.Tuple{relalg.S("v1")}).Key() {
			t.Fatalf("post-reprime batch not the fresh insert alone: %v", b.Tuples)
		}
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
