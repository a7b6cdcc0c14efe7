package cluster

import (
	"context"
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/relalg"
	"repro/internal/rules"
	"repro/internal/serving"
	"repro/internal/wire"
)

const watchNet = `
node A { rel a(x,y) }
super A
`

// TestRemoteWatchResumeReceivesExactSuffix is the serving wire protocol's
// acceptance oracle: a coordinator watch killed mid-stream and reconnected
// with its resume token must re-receive exactly the unconfirmed suffix —
// every tuple Next never returned, and none it did.
func TestRemoteWatchResumeReceivesExactSuffix(t *testing.T) {
	if testing.Short() {
		t.Skip("remote watch skipped in -short mode")
	}
	def, err := rules.ParseNetwork(watchNet)
	if err != nil {
		t.Fatal(err)
	}
	n, tr := startMember(t, watchNet, "A", map[string]string{}, "")
	defer n.Close()
	coord, err := NewCoordinator(def, "127.0.0.1:0", map[string]string{"A": tr.Addr()}, fastCoordOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	ctx := testCtx(t)
	if err := coord.WaitMembers(ctx, 1); err != nil {
		t.Fatal(err)
	}

	tup := func(i int) relalg.Tuple {
		return relalg.Tuple{relalg.S(fmt.Sprintf("k%03d", i)), relalg.I(int64(i))}
	}
	key := func(tu relalg.Tuple) string { return fmt.Sprintf("%v", tu) }

	// Pre-existing rows arrive in the prime.
	for i := 0; i < 5; i++ {
		if _, err := n.Peer("A").InsertLocal("a", tup(i)); err != nil {
			t.Fatal(err)
		}
	}
	w, err := coord.Watch("A", "a(X,Y)", []string{"X", "Y"}, WatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	confirmed := map[string]bool{}
	d, err := w.Next(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Prime {
		t.Fatalf("first delta is not the prime: %+v", d)
	}
	for _, tu := range d.Tuples {
		confirmed[key(tu)] = true
	}

	// Live phase: consume (and thereby confirm) tuples 5..14.
	for i := 5; i < 15; i++ {
		if _, err := n.Peer("A").InsertLocal("a", tup(i)); err != nil {
			t.Fatal(err)
		}
	}
	for len(confirmed) < 15 {
		d, err := w.Next(ctx)
		if err != nil {
			t.Fatalf("next (confirmed %d/15): %v", len(confirmed), err)
		}
		for _, tu := range d.Tuples {
			confirmed[key(tu)] = true
		}
	}

	// Token covers exactly the 15 confirmed tuples. Insert 25 more: they are
	// extracted and shipped, but never consumed — then kill the watch. The
	// buffered, unreturned deltas must stay unconfirmed.
	token := w.Token()
	for i := 15; i < 40; i++ {
		if _, err := n.Peer("A").InsertLocal("a", tup(i)); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()

	// Reconnect with the token: the catch-up prime plus any follow-up deltas
	// must deliver exactly tuples 15..39, with no confirmed tuple repeated.
	w2, err := coord.Watch("A", "a(X,Y)", []string{"X", "Y"}, WatchOptions{ResumeToken: token})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	resumed := map[string]bool{}
	deadline, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	for len(resumed) < 25 {
		d, err := w2.Next(deadline)
		if err != nil {
			t.Fatalf("resume next (resumed %d/25): %v", len(resumed), err)
		}
		if d.Closed {
			t.Fatalf("resume watch closed early: %q", d.Err)
		}
		for _, tu := range d.Tuples {
			k := key(tu)
			if confirmed[k] {
				t.Fatalf("confirmed tuple %s re-delivered after resume", k)
			}
			if resumed[k] {
				t.Fatalf("tuple %s delivered twice in the resumed stream", k)
			}
			resumed[k] = true
		}
	}

	// The centralized oracle: resumed ∪ confirmed == every inserted tuple.
	for i := 0; i < 40; i++ {
		k := key(tup(i))
		if !confirmed[k] && !resumed[k] {
			t.Errorf("tuple %s lost across the kill/resume", k)
		}
	}
	if len(confirmed)+len(resumed) != 40 {
		t.Errorf("delivered %d+%d tuples, want exactly 40", len(confirmed), len(resumed))
	}
}

// TestRemoteWatchLiveDeltaAfterPrime pins the basic stream shape: an empty
// prime, then one live delta per insert, with a non-empty token afterwards.
func TestRemoteWatchLiveDeltaAfterPrime(t *testing.T) {
	if testing.Short() {
		t.Skip("remote watch skipped in -short mode")
	}
	def, err := rules.ParseNetwork(watchNet)
	if err != nil {
		t.Fatal(err)
	}
	n, tr := startMember(t, watchNet, "A", map[string]string{}, "")
	defer n.Close()
	coord, err := NewCoordinator(def, "127.0.0.1:0", map[string]string{"A": tr.Addr()}, fastCoordOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	ctx := testCtx(t)
	if err := coord.WaitMembers(ctx, 1); err != nil {
		t.Fatal(err)
	}
	w, err := coord.Watch("A", "a(X,Y)", []string{"X", "Y"}, WatchOptions{Policy: "block"})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if d, err := w.Next(ctx); err != nil || !d.Prime || len(d.Tuples) != 0 {
		t.Fatalf("empty prime expected, got %+v err=%v", d, err)
	}
	if _, err := n.Peer("A").InsertLocal("a", relalg.Tuple{relalg.S("x"), relalg.I(1)}); err != nil {
		t.Fatal(err)
	}
	d, err := w.Next(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if d.Prime || len(d.Tuples) != 1 {
		t.Fatalf("live delta expected, got %+v", d)
	}
	if tok := w.Token(); tok == "" {
		t.Fatal("token empty after confirmed delta")
	}
}

// TestMetricsReportOneRetainedSetPerClass: a member serving W remote watches
// of one class retains each delivered tuple once, not W times. The class
// a(X,Y) with columns [X] drops Y, so it keeps a set: after N inserts of
// distinct X /metrics and expvar "p2pdb" both report retained == N, for W = 1
// and W = 16. The set-free class a(X,Y) with columns [X,Y] retains nothing.
func TestMetricsReportOneRetainedSetPerClass(t *testing.T) {
	if testing.Short() {
		t.Skip("remote watch skipped in -short mode")
	}
	const N = 40
	for _, arm := range []struct {
		name     string
		W        int
		cols     []string
		retained int
	}{
		{"W=1", 1, []string{"X"}, N},
		{"W=16", 16, []string{"X"}, N},
		{"set-free", 16, []string{"X", "Y"}, 0},
	} {
		W := arm.W
		t.Run(arm.name, func(t *testing.T) {
			def := mustDef(t, watchNet)
			cfg := LoopbackConfig(def, "A", map[string]string{}, "", 0, 0)
			cfg.Control = nil
			m := bootMember(t, cfg)
			defer m.Close()
			addr, closeMetrics, err := StartMetrics("127.0.0.1:0", m.Metrics)
			if err != nil {
				t.Fatal(err)
			}
			defer closeMetrics()
			coord, err := NewCoordinator(def, "127.0.0.1:0", map[string]string{"A": m.Transport().Addr()}, fastCoordOpts())
			if err != nil {
				t.Fatal(err)
			}
			defer coord.Close()
			ctx := testCtx(t)
			if err := coord.WaitMembers(ctx, 1); err != nil {
				t.Fatal(err)
			}
			ws := make([]*RemoteWatch, W)
			for i := range ws {
				if ws[i], err = coord.Watch("A", "a(X,Y)", arm.cols, WatchOptions{}); err != nil {
					t.Fatal(err)
				}
				defer ws[i].Close()
				if d, err := ws[i].Next(ctx); err != nil || !d.Prime {
					t.Fatalf("watch %d: prime expected, got %+v err=%v", i, d, err)
				}
			}
			for i := 0; i < N; i++ {
				if _, err := m.Network().Peer("A").InsertLocal("a", relalg.Tuple{relalg.S(fmt.Sprintf("r%02d", i)), relalg.I(int64(i))}); err != nil {
					t.Fatal(err)
				}
			}
			for i, w := range ws {
				for got := 0; got < N; {
					d, err := w.Next(ctx)
					if err != nil {
						t.Fatalf("watch %d after %d/%d tuples: %v", i, got, N, err)
					}
					got += len(d.Tuples)
				}
			}
			var metrics NodeMetrics
			getJSON(t, addr, "/metrics", &metrics)
			var vars struct {
				P2PDB NodeMetrics `json:"p2pdb"`
			}
			getJSON(t, addr, "/debug/vars", &vars)
			for name, got := range map[string]NodeMetrics{"/metrics": metrics, "expvar p2pdb": vars.P2PDB} {
				s := got.Serving
				if s == nil || s.Watchers != W || s.Classes != 1 || s.Retained != arm.retained {
					t.Errorf("%s: serving %+v; want %d watchers in 1 class retaining %d tuples", name, s, W, arm.retained)
				}
			}
		})
	}
}

// sinkCoordinator returns a coordinator whose one member, A, is a bare
// transport that discards whatever it receives: a watch registered there
// stays idle unless the test hands it deltas itself.
func sinkCoordinator(t *testing.T) *Coordinator {
	t.Helper()
	def, err := rules.ParseNetwork(watchNet)
	if err != nil {
		t.Fatal(err)
	}
	sink, err := New("A", "127.0.0.1:0", nil, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = sink.Close() })
	if err := sink.Register("A", func(wire.Envelope) {}); err != nil {
		t.Fatal(err)
	}
	coord, err := NewCoordinator(def, "127.0.0.1:0", map[string]string{"A": sink.Addr()}, fastCoordOpts())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = coord.Close() })
	return coord
}

// TestIdleWatchesCostLittle: a watch holds nothing for deltas it has not
// received. A queue made at its full 1 024-delta bound cost 80 KB per watch,
// 1.25 MB of live-fanout's heap for its 16 watches.
func TestIdleWatchesCostLittle(t *testing.T) {
	coord := sinkCoordinator(t)
	const n = 1000
	watches := make([]*RemoteWatch, 0, n)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		w, err := coord.Watch("A", "a(X,Y)", []string{"X", "Y"}, WatchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		watches = append(watches, w)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if per := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / n; per > 1024 {
		t.Errorf("%d idle watches hold %d bytes each, want well under 1 KB", n, per)
	}
	runtime.KeepAlive(watches)
}

// TestWatchDropsPastItsBacklog: a watch whose client stopped consuming holds
// 1 024 deltas and drops the next without blocking the transport; Next hands
// out the held ones in order, and once the client has caught up a delta is
// queued again.
func TestWatchDropsPastItsBacklog(t *testing.T) {
	const backlog = 1024
	coord := sinkCoordinator(t)
	w, err := coord.Watch("A", "a(X,Y)", []string{"X", "Y"}, WatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for seq := uint64(1); seq <= backlog+1; seq++ {
		coord.handleWatchDelta(wire.WatchDelta{ID: w.id, Seq: seq})
	}
	ctx := testCtx(t)
	for seq := uint64(1); seq <= backlog; seq++ {
		if d, err := w.Next(ctx); err != nil || d.Seq != seq {
			t.Fatalf("Next = delta %d, %v; want delta %d", d.Seq, err, seq)
		}
	}
	short, cancel := context.WithTimeout(ctx, 50*time.Millisecond)
	defer cancel()
	if d, err := w.Next(short); err == nil {
		t.Fatalf("delta %d, past the backlog of %d, was kept", d.Seq, backlog)
	}
	coord.handleWatchDelta(wire.WatchDelta{ID: w.id, Seq: backlog + 2})
	if d, err := w.Next(ctx); err != nil || d.Seq != backlog+2 {
		t.Fatalf("after catching up Next = delta %d, %v; want delta %d", d.Seq, err, backlog+2)
	}
}

// TestWatchQueueKeepsOrder: deltas handed to a watch while its client
// consumes reach Next in the order they arrived, with none lost while fewer
// than the backlog wait, and the queue stays as long as the backlog it held.
// Run it with -race.
func TestWatchQueueKeepsOrder(t *testing.T) {
	const n = 1000
	coord := sinkCoordinator(t)
	w, err := coord.Watch("A", "a(X,Y)", []string{"X", "Y"}, WatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for seq := uint64(1); seq <= n; seq++ {
			coord.handleWatchDelta(wire.WatchDelta{ID: w.id, Seq: seq})
		}
	}()
	ctx := testCtx(t)
	for seq := uint64(1); seq <= n; seq++ {
		if d, err := w.Next(ctx); err != nil || d.Seq != seq {
			t.Fatalf("Next = delta %d, %v; want delta %d", d.Seq, err, seq)
		}
	}
	if tok := w.Token(); tok != serving.FormatToken(nil, n) {
		t.Errorf("token %q after %d deltas", tok, n)
	}

	// A client one delta behind never empties the queue, yet the queue
	// reuses the slots Next emptied instead of growing with the stream.
	lag, err := coord.Watch("A", "a(X,Y)", []string{"X", "Y"}, WatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	coord.handleWatchDelta(wire.WatchDelta{ID: lag.id, Seq: 1})
	for seq := uint64(1); seq <= 10*n; seq++ {
		coord.handleWatchDelta(wire.WatchDelta{ID: lag.id, Seq: seq + 1})
		if d, err := lag.Next(ctx); err != nil || d.Seq != seq {
			t.Fatalf("Next = delta %d, %v; want delta %d", d.Seq, err, seq)
		}
	}
	lag.mu.Lock()
	defer lag.mu.Unlock()
	if c := cap(lag.queue); c > 16 {
		t.Errorf("a queue never more than 2 deltas long has grown to %d slots", c)
	}
}
