package peer

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/relalg"
	"repro/internal/transport"
	"repro/internal/wire"
)

// watchClient is a bare wire client of a peer named W: it answers for C on
// the Mem transport and records every watch delta it receives, batched or
// alone, per watch id and in arrival order.
type watchClient struct {
	tr *transport.Mem

	mu     sync.Mutex
	deltas map[uint64][]wire.WatchDelta
	wake   chan struct{} // one slot: a delta arrived since the last look
}

func newWatchClient(t *testing.T, tr *transport.Mem) *watchClient {
	t.Helper()
	c := &watchClient{tr: tr, deltas: map[uint64][]wire.WatchDelta{}, wake: make(chan struct{}, 1)}
	if err := tr.Register("C", c.handle); err != nil {
		t.Fatal(err)
	}
	return c
}

func (c *watchClient) handle(env wire.Envelope) {
	var ds []wire.WatchDelta
	switch m := env.Msg.(type) {
	case wire.WatchDelta:
		ds = []wire.WatchDelta{m}
	case wire.AnswerBatch:
		ds = m.WatchDeltas
	}
	c.mu.Lock()
	for _, d := range ds {
		c.deltas[d.ID] = append(c.deltas[d.ID], d)
	}
	c.mu.Unlock()
	select {
	case c.wake <- struct{}{}:
	default:
	}
}

// watch asks W for a remote watch of body with id.
func (c *watchClient) watch(t *testing.T, id uint64, body string) {
	t.Helper()
	if err := c.tr.Send("C", "W", wire.WatchRequest{ID: id, Body: body, Cols: []string{"X"}}); err != nil {
		t.Fatal(err)
	}
}

func (c *watchClient) cancel(t *testing.T, id uint64) {
	t.Helper()
	if err := c.tr.Send("C", "W", wire.WatchCancel{ID: id}); err != nil {
		t.Fatal(err)
	}
}

// await waits until cond holds over the deltas received so far.
func (c *watchClient) await(t *testing.T, what string, cond func(map[uint64][]wire.WatchDelta) bool) {
	t.Helper()
	timeout := time.After(10 * time.Second)
	for {
		c.mu.Lock()
		ok := cond(c.deltas)
		c.mu.Unlock()
		if ok {
			return
		}
		select {
		case <-c.wake:
		case <-timeout:
			c.mu.Lock()
			defer c.mu.Unlock()
			t.Fatalf("timeout waiting for %s: %v", what, c.deltas)
		}
	}
}

// each holds when every one of ids has received at least n deltas.
func each(ids, n int) func(map[uint64][]wire.WatchDelta) bool {
	return func(ds map[uint64][]wire.WatchDelta) bool {
		for id := 1; id <= ids; id++ {
			if len(ds[uint64(id)]) < n {
				return false
			}
		}
		return true
	}
}

func newRemoteWatchPeer(t *testing.T, tr transport.Transport) *Peer {
	t.Helper()
	p, err := New("W", []relalg.Schema{relalg.MakeSchema("p", 1)}, nil, tr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.CloseWatchers)
	return p
}

func (p *Peer) remoteWatchCount() int {
	p.rwmu.Lock()
	defer p.rwmu.Unlock()
	return len(p.remoteWatches)
}

// TestRemoteWatchesHaveNoGoroutines: a remote watch is drained by the hub's
// pass, so 64 of them from one client add fewer than 64 goroutines (they
// added two each, a delivery goroutine and a forwarder), and once they are
// cancelled the count is back where it started.
func TestRemoteWatchesHaveNoGoroutines(t *testing.T) {
	const n = 64
	tr := transport.NewMem(transport.MemOptions{})
	t.Cleanup(func() { _ = tr.Close() })
	p := newRemoteWatchPeer(t, tr)
	c := newWatchClient(t, tr)
	base := runtime.NumGoroutine()
	for id := uint64(1); id <= n; id++ {
		c.watch(t, id, "p(X)")
	}
	c.await(t, "every prime", each(n, 1))
	if added := runtime.NumGoroutine() - base; added >= n {
		t.Errorf("%d primed remote watches added %d goroutines, want fewer than %d", n, added, n)
	}
	if _, err := p.InsertLocal("p", relalg.Tuple{relalg.S("v")}); err != nil {
		t.Fatal(err)
	}
	c.await(t, "the insert at every watch", each(n, 2))
	for id := uint64(1); id <= n; id++ {
		c.cancel(t, id)
	}
	c.await(t, "every terminal frame", each(n, 3))
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after every watch closed, %d before the first", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
	if k := p.remoteWatchCount(); k != 0 {
		t.Fatalf("%d remote watches still registered after every one closed", k)
	}
}

// TestOneInsertReachesSixteenWatchesInTwoFrames: the pass hands one insert's
// 16 deltas to the Batcher in one run of sends, so at most one flusher pass
// lands inside the run, and every watch receives the insert.
func TestOneInsertReachesSixteenWatchesInTwoFrames(t *testing.T) {
	const n = 16
	mem := transport.NewMem(transport.MemOptions{})
	b := transport.NewBatcher(mem, transport.BatcherOptions{Window: 2 * time.Millisecond})
	t.Cleanup(func() { _ = b.Close() })
	p := newRemoteWatchPeer(t, b)
	c := newWatchClient(t, mem)
	for id := uint64(1); id <= n; id++ {
		c.watch(t, id, "p(X)")
	}
	c.await(t, "every prime", each(n, 1))
	frames := b.Stats().Frames
	if _, err := p.InsertLocal("p", relalg.Tuple{relalg.S("v")}); err != nil {
		t.Fatal(err)
	}
	c.await(t, "the insert at every watch", each(n, 2))
	if got := b.Stats().Frames - frames; got > 2 {
		t.Errorf("one insert reached %d remote watches in %d frames, want at most 2", n, got)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for id := uint64(1); id <= n; id++ {
		if d := c.deltas[id][1]; d.Seq != 2 || len(d.Tuples) != 1 || d.Tuples[0][0] != relalg.S("v") {
			t.Errorf("watch %d received %+v, want the insert as its second batch", id, d)
		}
	}
}

// TestRemoteWatchEndsAfterItsLastBatch: however a remote watch ends — a
// WatchCancel, the hub closing, a refused registration — its terminal frame
// carries the reason and leaves after its last batch, and the peer drops the
// watch's registration with it.
func TestRemoteWatchEndsAfterItsLastBatch(t *testing.T) {
	const inserts = 20
	// stream checks one watch's deltas: the prime, then batches numbered on
	// from it holding every inserted tuple once, then the terminal frame.
	stream := func(t *testing.T, ds []wire.WatchDelta) {
		t.Helper()
		if len(ds) < 2 || !ds[0].Prime {
			t.Fatalf("stream %+v: want a prime first and a terminal frame", ds)
		}
		seen := map[relalg.Value]bool{}
		for i, d := range ds[:len(ds)-1] {
			if d.Closed || d.Seq != uint64(i+1) {
				t.Fatalf("delta %d is %+v, want batch %d", i, d, i+1)
			}
			for _, tu := range d.Tuples {
				if seen[tu[0]] {
					t.Fatalf("tuple %v delivered twice", tu)
				}
				seen[tu[0]] = true
			}
		}
		if end := ds[len(ds)-1]; !end.Closed || end.Err != "" {
			t.Fatalf("last frame %+v, want Closed with no error", end)
		}
		if len(seen) != inserts {
			t.Fatalf("%d of %d tuples inserted before the close were delivered", len(seen), inserts)
		}
	}
	insertAll := func(t *testing.T, p *Peer) {
		t.Helper()
		for i := 0; i < inserts; i++ {
			if _, err := p.InsertLocal("p", relalg.Tuple{relalg.S(fmt.Sprintf("v%02d", i))}); err != nil {
				t.Fatal(err)
			}
		}
	}
	setup := func(t *testing.T) (*Peer, *watchClient) {
		tr := transport.NewMem(transport.MemOptions{})
		t.Cleanup(func() { _ = tr.Close() })
		p := newRemoteWatchPeer(t, tr)
		c := newWatchClient(t, tr)
		c.watch(t, 1, "p(X)")
		c.watch(t, 2, "p(X)")
		c.await(t, "both primes", each(2, 1))
		return p, c
	}
	closed := func(ds map[uint64][]wire.WatchDelta, id uint64) bool {
		n := len(ds[id])
		return n > 0 && ds[id][n-1].Closed
	}

	t.Run("cancel", func(t *testing.T) {
		p, c := setup(t)
		insertAll(t, p)
		c.cancel(t, 1) // its final pass ships what the inserts left undelivered
		c.await(t, "the terminal frame", func(ds map[uint64][]wire.WatchDelta) bool { return closed(ds, 1) })
		c.mu.Lock()
		stream(t, c.deltas[1])
		c.mu.Unlock()
		deadline := time.Now().Add(10 * time.Second)
		for p.remoteWatchCount() != 1 {
			if time.Now().After(deadline) {
				t.Fatalf("%d remote watches registered, want the other one only", p.remoteWatchCount())
			}
			time.Sleep(time.Millisecond)
		}
		if n := p.Serving().WatcherCount(); n != 1 {
			t.Fatalf("%d watchers at the hub, want the other one only", n)
		}
	})
	t.Run("hub close", func(t *testing.T) {
		p, c := setup(t)
		insertAll(t, p)
		p.CloseWatchers()
		if k := p.remoteWatchCount(); k != 0 {
			t.Fatalf("%d remote watches registered after the hub closed", k)
		}
		c.await(t, "both terminal frames", func(ds map[uint64][]wire.WatchDelta) bool { return closed(ds, 1) && closed(ds, 2) })
		c.mu.Lock()
		defer c.mu.Unlock()
		stream(t, c.deltas[1])
		stream(t, c.deltas[2])
	})
	t.Run("refused", func(t *testing.T) {
		p, c := setup(t)
		c.watch(t, 3, "nosuch(X)")
		c.await(t, "the refusal", func(ds map[uint64][]wire.WatchDelta) bool { return closed(ds, 3) })
		c.mu.Lock()
		ds := c.deltas[3]
		c.mu.Unlock()
		if len(ds) != 1 || ds[0].Err == "" {
			t.Fatalf("refused watch received %+v, want one terminal frame with the reason", ds)
		}
		if k := p.remoteWatchCount(); k != 2 {
			t.Fatalf("%d remote watches registered, want the two accepted ones", k)
		}
	})
}
