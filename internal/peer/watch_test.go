package peer

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/relalg"
	"repro/internal/serving"
	"repro/internal/transport"
)

func newWatchPeer(t *testing.T) *Peer {
	t.Helper()
	tr := transport.NewMem(transport.MemOptions{})
	t.Cleanup(func() { _ = tr.Close() })
	p, err := New("W", []relalg.Schema{relalg.MakeSchema("p", 1)}, nil, tr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestWatchRejectsDoomedQueries(t *testing.T) {
	p := newWatchPeer(t)
	if _, err := p.Watch("broken(", []string{"X"}); err == nil {
		t.Error("unparsable body must fail")
	}
	if _, err := p.Watch("nosuch(X)", []string{"X"}); err == nil {
		t.Error("undeclared relation must fail")
	}
	if _, err := p.Watch("p(X)", []string{"Y"}); err == nil {
		t.Error("unbound output variable must fail")
	}
}

func TestInsertLocalBatchIsAtomic(t *testing.T) {
	p := newWatchPeer(t)
	added, err := p.InsertLocal("p",
		relalg.Tuple{relalg.S("ok")},
		relalg.Tuple{relalg.S("too"), relalg.S("wide")})
	if err == nil {
		t.Fatal("arity mismatch must fail")
	}
	if added != 0 || p.DB().Count("p") != 0 {
		t.Fatalf("failed batch must write nothing: added=%d count=%d", added, p.DB().Count("p"))
	}
	if _, err := p.InsertLocal("nosuch", relalg.Tuple{relalg.S("x")}); err == nil {
		t.Fatal("undeclared relation must fail")
	}
}

// TestWatcherCloseWithAbandonedConsumer: even when nobody drains the channel
// and the pump is blocked mid-delivery, Close must let the pump exit and the
// channel close within the bounded drain grace period — no leaked goroutine,
// no never-closing stream.
func TestWatcherCloseWithAbandonedConsumer(t *testing.T) {
	old := serving.CloseDrainTimeout
	serving.CloseDrainTimeout = 50 * time.Millisecond
	defer func() { serving.CloseDrainTimeout = old }()

	p := newWatchPeer(t)
	w, err := p.Watch("p(X)", []string{"X"})
	if err != nil {
		t.Fatal(err)
	}
	// Fill the delivery buffer with one batch per insert (paced so the pump
	// flushes each separately) until the pump blocks on a full channel.
	for i := 0; i < 24; i++ {
		if _, err := p.InsertLocal("p", relalg.Tuple{relalg.S(fmt.Sprintf("v%d", i))}); err != nil {
			t.Fatal(err)
		}
		time.Sleep(2 * time.Millisecond)
	}
	w.Close()

	// A late reader must still observe a closed channel (draining whatever
	// was buffered) well within the grace period plus slack.
	closed := make(chan int, 1)
	go func() {
		n := 0
		for batch := range w.Out() {
			n += len(batch.Tuples)
		}
		closed <- n
	}()
	select {
	case n := <-closed:
		if n == 0 {
			t.Error("buffered batches were lost entirely")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("watcher channel never closed after Close with an abandoned consumer")
	}
}

// TestWatcherDrainingConsumerGetsEverything: a consumer that keeps reading
// through Close receives every inserted tuple exactly once.
func TestWatcherDrainingConsumerGetsEverything(t *testing.T) {
	p := newWatchPeer(t)
	w, err := p.Watch("p(X)", []string{"X"})
	if err != nil {
		t.Fatal(err)
	}
	got := make(chan map[string]int, 1)
	go func() {
		seen := map[string]int{}
		for batch := range w.Out() {
			for _, tup := range batch.Tuples {
				seen[tup.Key()]++
			}
		}
		got <- seen
	}()
	const total = 200
	for i := 0; i < total; i++ {
		if _, err := p.InsertLocal("p", relalg.Tuple{relalg.S(fmt.Sprintf("v%d", i))}); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()
	seen := <-got
	if len(seen) != total {
		t.Fatalf("draining consumer saw %d distinct tuples, want %d", len(seen), total)
	}
	for k, n := range seen {
		if n != 1 {
			t.Fatalf("tuple %s delivered %d times", k, n)
		}
	}
}

func TestWatchAfterCloseWatchersFails(t *testing.T) {
	p := newWatchPeer(t)
	w, err := p.Watch("p(X)", []string{"X"})
	if err != nil {
		t.Fatal(err)
	}
	p.CloseWatchers()
	if _, open := <-w.Out(); open {
		// prime batch (empty result, always sent) then close
		if _, open := <-w.Out(); open {
			t.Fatal("watcher channel must close after CloseWatchers")
		}
	}
	if _, err := p.Watch("p(X)", []string{"X"}); err == nil {
		t.Fatal("watch after CloseWatchers must fail")
	}
}

// TestRuleChangeCostsTheHubNothing: adding, redefining and deleting a rule
// leave the watchers alone. The hub evaluates over stored, append-only
// relations, which a rule change does not rewrite, so no class re-evaluates
// — not even one that keeps an exactly-once set (p(X,Y) watched on [X]) —
// and no watcher is staged a batch. Closing the hub runs one last pass, which
// would serve any re-evaluation still pending.
func TestRuleChangeCostsTheHubNothing(t *testing.T) {
	const W = 8
	tr := transport.NewMem(transport.MemOptions{})
	t.Cleanup(func() { _ = tr.Close() })
	p, err := New("W", []relalg.Schema{relalg.MakeSchema("p", 2)}, nil, tr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Seed("p", relalg.Tuple{relalg.S("v0"), relalg.S("w0")}); err != nil {
		t.Fatal(err)
	}
	ws := make([]*Watcher, W)
	for i := range ws {
		if ws[i], err = p.Watch("p(X,Y)", []string{"X"}); err != nil {
			t.Fatal(err)
		}
		if b := <-ws[i].Out(); !b.Prime || len(b.Tuples) != 1 {
			t.Fatalf("prime carried %d tuples, want the 1 existing", len(b.Tuples))
		}
	}
	eval0 := p.hub.Metrics().Evaluations
	for _, rule := range []string{"r1: S:s(X,Y) -> W:p(X,Y)", "r1: S:s(Y,X) -> W:p(X,Y)"} {
		if err := p.AddRuleLocal(rule); err != nil {
			t.Fatal(err)
		}
	}
	p.DeleteRuleLocal("r1")
	p.CloseWatchers()
	if got := p.hub.Metrics().Evaluations - eval0; got != 0 {
		t.Fatalf("rule changes cost the hub %d evaluations, want 0", got)
	}
	for _, w := range ws {
		for b := range w.Out() {
			t.Fatalf("a rule change staged a batch of %d tuples", len(b.Tuples))
		}
	}
}

// TestSeedInsertLocalAndWatchRaceExactlyOnce: seeding, online inserts and
// registrations race on a set-free class (one atom, every variable a column),
// whose watchers rely on the peer's mutex alone for exactly-once delivery: a
// prime must cover precisely the frontier its pass extracted up to, so no
// insert may land between the extraction and the evaluation. Every watcher's
// batches union to every tuple, each once. Run it under -race.
func TestSeedInsertLocalAndWatchRaceExactlyOnce(t *testing.T) {
	const N, W = 400, 24
	p := newWatchPeer(t)
	var wg sync.WaitGroup
	var seen []map[string]int // appended by the registering goroutine alone
	wg.Add(3)
	go func() {
		defer wg.Done()
		for i := 0; i < N; i++ {
			if err := p.Seed("p", relalg.Tuple{relalg.S(fmt.Sprintf("s%d", i))}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < N; i++ {
			if _, err := p.InsertLocal("p", relalg.Tuple{relalg.S(fmt.Sprintf("l%d", i))}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	var drained sync.WaitGroup
	go func() {
		defer wg.Done()
		for i := 0; i < W; i++ {
			w, err := p.Watch("p(X)", []string{"X"})
			if err != nil {
				t.Error(err)
				return
			}
			got := map[string]int{}
			seen = append(seen, got)
			drained.Add(1)
			go func() {
				defer drained.Done()
				for b := range w.Out() {
					for _, tup := range b.Tuples {
						got[tup.Key()]++
					}
				}
			}()
			time.Sleep(100 * time.Microsecond)
		}
	}()
	wg.Wait()
	p.CloseWatchers()
	drained.Wait()
	if len(seen) != W {
		t.Fatalf("%d watchers registered, want %d", len(seen), W)
	}
	for i, got := range seen {
		if len(got) != 2*N {
			t.Errorf("watcher %d saw %d distinct tuples, want %d", i, len(got), 2*N)
		}
		for k, n := range got {
			if n != 1 {
				t.Errorf("watcher %d was sent %s %d times", i, k, n)
			}
		}
	}
}
