package transport

import (
	"sync"
	"testing"
	"time"

	"repro/internal/wire"
)

// Async-outbox tests (ROADMAP "cluster hardening (a)"): with OutboxSize set,
// a send to a slow or dead remote must return immediately — the dedicated
// writer eats the dial/write cost — and an overflowing queue drops its
// oldest frames into a counter instead of blocking or growing without bound.

func newOutboxPair(t *testing.T, size int) (a, b *TCP, got chan wire.Envelope) {
	t.Helper()
	b, err := NewTCP("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = b.Close() })
	got = make(chan wire.Envelope, 1024)
	if err := b.Register("B", func(env wire.Envelope) { got <- env }); err != nil {
		t.Fatal(err)
	}
	a, err = NewTCP("127.0.0.1:0", map[string]string{"B": b.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	a.OutboxSize = size
	t.Cleanup(func() { _ = a.Close() })
	return a, b, got
}

func TestOutboxDeliversInOrder(t *testing.T) {
	a, _, got := newOutboxPair(t, 64)
	const n = 50
	for i := 0; i < n; i++ {
		if err := a.Send("A", "B", wire.StartUpdate{Epoch: uint64(i + 1), Origin: "A"}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		select {
		case env := <-got:
			if e := env.Msg.(wire.StartUpdate).Epoch; e != uint64(i+1) {
				t.Fatalf("frame %d arrived with epoch %d: outbox reordered", i, e)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("only %d of %d frames arrived", i, n)
		}
	}
	if dropped, werrs := a.OutboxStats(); dropped != 0 || werrs != 0 {
		t.Fatalf("healthy link lost frames: dropped=%d writeErrs=%d", dropped, werrs)
	}
}

func TestOutboxSendNeverBlocksOnDeadPeer(t *testing.T) {
	// Reserve a port nobody listens on.
	ghost, err := NewTCP("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := ghost.Addr()
	_ = ghost.Close()

	a, err := NewTCP("127.0.0.1:0", map[string]string{"D": deadAddr})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	a.OutboxSize = 4
	a.dialTimeout = 200 * time.Millisecond
	a.maxBackoff = 100 * time.Millisecond

	start := time.Now()
	const n = 40
	for i := 0; i < n; i++ {
		if err := a.Send("A", "D", wire.StartUpdate{Epoch: uint64(i)}); err != nil {
			t.Fatalf("async send surfaced %v", err)
		}
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("%d sends to a dead peer took %v: the outbox did not absorb the stall", n, elapsed)
	}
	// The writer keeps failing; overflow must show up as dropped-oldest or
	// write errors, never as blocked senders.
	deadline := time.Now().Add(5 * time.Second)
	for {
		dropped, werrs := a.OutboxStats()
		if dropped+werrs >= n-4 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("loss counters never converged: dropped=%d writeErrs=%d", dropped, werrs)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestOutboxDrainsOnClose(t *testing.T) {
	a, _, got := newOutboxPair(t, 64)
	if err := a.Send("A", "B", wire.Goodbye{Node: "A"}); err != nil {
		t.Fatal(err)
	}
	// Close immediately: the drain phase must flush the queued frame before
	// the sockets are swept (this is how a clean leave's Goodbye survives).
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case env := <-got:
		if _, ok := env.Msg.(wire.Goodbye); !ok {
			t.Fatalf("drained frame was %T", env.Msg)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("queued frame was discarded by Close instead of drained")
	}
}

func TestOutboxConcurrentSendersSafe(t *testing.T) {
	a, _, got := newOutboxPair(t, 8)
	var wg sync.WaitGroup
	const senders, each = 8, 25
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				_ = a.Send("A", "B", wire.Heartbeat{Node: "A"})
			}
		}()
	}
	wg.Wait()
	// Drain whatever arrived; with a tiny queue some frames may drop, but
	// received + dropped must account for every send and nothing may hang.
	deadline := time.Now().Add(5 * time.Second)
	received := 0
	for {
		dropped, _ := a.OutboxStats()
		if uint64(received)+dropped >= senders*each {
			break
		}
		select {
		case <-got:
			received++
		case <-time.After(100 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			t.Fatalf("accounting never converged: received=%d dropped=%d", received, dropped)
		}
	}
}

// TestOutboxEvictionSparesControlFrames pins the overflow policy: when the
// queue is full, push evicts the oldest *data* frame and never an exempt one
// (acks, membership lifecycle, coordinator verbs). Before this policy a burst
// of answers could push the AnswerAck that gates the sender's durable
// frontier — or a clean leave's Goodbye — off the back of the queue, turning
// a transient stall into a pointless timeout re-send or a suspicion window.
func TestOutboxEvictionSparesControlFrames(t *testing.T) {
	ob := newOutbox(4)
	push := func(tag string, exempt bool) { ob.push([]byte(tag), exempt) }
	push("ack0", true)
	push("data0", false)
	push("data1", false)
	push("data2", false)
	// Full. The next push must evict data0 (oldest non-exempt), not ack0.
	if dropped, ok := ob.push([]byte("data3"), false); !dropped || !ok {
		t.Fatalf("push on full queue: dropped=%v ok=%v, want eviction", dropped, ok)
	}
	// Still full. An exempt push also evicts the oldest data frame.
	if dropped, ok := ob.push([]byte("ack1"), true); !dropped || !ok {
		t.Fatalf("exempt push on full queue: dropped=%v ok=%v, want data eviction", dropped, ok)
	}
	ob.close()
	var got []string
	for {
		frame, ok := ob.pop()
		if !ok {
			break
		}
		got = append(got, string(frame))
	}
	want := []string{"ack0", "data2", "data3", "ack1"}
	if len(got) != len(want) {
		t.Fatalf("drained %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("drained %v, want %v", got, want)
		}
	}
}

// TestOutboxAllExemptGrowsPastCap: when every queued frame is exempt there is
// nothing safe to evict, so the queue overshoots its nominal capacity rather
// than dropping a control frame.
func TestOutboxAllExemptGrowsPastCap(t *testing.T) {
	ob := newOutbox(2)
	for i := 0; i < 5; i++ {
		if dropped, ok := ob.push([]byte{byte(i)}, true); dropped || !ok {
			t.Fatalf("push %d: dropped=%v ok=%v, want growth without loss", i, dropped, ok)
		}
	}
	ob.close()
	n := 0
	for {
		if _, ok := ob.pop(); !ok {
			break
		}
		n++
	}
	if n != 5 {
		t.Fatalf("drained %d exempt frames, want all 5", n)
	}
}

// TestEvictionExemptClassification pins which kinds ride out overflow.
func TestEvictionExemptClassification(t *testing.T) {
	exempt := []wire.Message{
		wire.AnswerAck{RuleID: "r"},
		wire.Join{Node: "A"},
		wire.JoinAck{},
		wire.Heartbeat{Node: "A"},
		wire.Goodbye{Node: "A"},
		wire.StatsRequest{},
		wire.UpdateRequest{},
	}
	for _, m := range exempt {
		if !evictionExempt(m) {
			t.Errorf("%T (%s) must be eviction-exempt", m, m.Kind())
		}
	}
	data := []wire.Message{
		wire.Answer{RuleID: "r"},
		wire.AnswerBatch{},
		wire.Query{RuleID: "r"},
		wire.StartUpdate{Epoch: 1},
	}
	for _, m := range data {
		if evictionExempt(m) {
			t.Errorf("%T (%s) must stay evictable (the ack frontier re-ships it)", m, m.Kind())
		}
	}
}

// TestBatchedWatchDeltasAreEvictionExempt: a batch is judged by what it
// carries, not by its kind. A lone WatchDelta is exempt (a control kind),
// and a batch holding one is too: nothing re-ships a dropped delta, and the
// client's next delta would move its resume token past it. A batch of
// answers and acks stays evictable, so the outbox bound still holds.
func TestBatchedWatchDeltasAreEvictionExempt(t *testing.T) {
	delta := wire.WatchDelta{ID: 1, Seq: 2}
	for _, m := range []wire.Message{
		delta,
		wire.AnswerBatch{WatchDeltas: []wire.WatchDelta{delta, delta}},
		wire.AnswerBatch{Answers: []wire.Answer{{RuleID: "r"}}, WatchDeltas: []wire.WatchDelta{delta}},
	} {
		if !evictionExempt(m) {
			t.Errorf("%+v must be eviction-exempt", m)
		}
	}
	for _, m := range []wire.Message{
		wire.AnswerBatch{Answers: []wire.Answer{{RuleID: "r"}, {RuleID: "s"}}},
		wire.AnswerBatch{Answers: []wire.Answer{{RuleID: "r"}}, Acks: []wire.AnswerAck{{RuleID: "r"}}},
		wire.AnswerBatch{RepAppends: []wire.ReplicaAppend{{Rel: "a"}, {Rel: "b"}}},
	} {
		if evictionExempt(m) {
			t.Errorf("%+v must stay evictable (the ack frontier re-ships it)", m)
		}
	}
}

// TestOutboxOverflowKeepsBatchedWatchDeltas: a full outbox to a watch client
// evicts its batches of answers, oldest first, and never a batch of watch
// deltas.
func TestOutboxOverflowKeepsBatchedWatchDeltas(t *testing.T) {
	const size = 4
	ob := newOutbox(size)
	answers := wire.AnswerBatch{Answers: []wire.Answer{{RuleID: "r"}, {RuleID: "s"}}}
	deltas := func(seq uint64) wire.AnswerBatch {
		return wire.AnswerBatch{WatchDeltas: []wire.WatchDelta{{ID: 1, Seq: seq}, {ID: 2, Seq: seq}}}
	}
	push := func(tag string, m wire.Message) bool {
		dropped, ok := ob.push([]byte(tag), evictionExempt(m))
		if !ok {
			t.Fatalf("push %s refused", tag)
		}
		return dropped
	}
	dropped := 0
	for i, tag := range []string{"answers0", "deltas1", "answers1", "deltas2", "deltas3", "answers2", "deltas4", "deltas5"} {
		var m wire.Message = answers
		if tag[0] == 'd' {
			m = deltas(uint64(i))
		}
		if push(tag, m) {
			dropped++
		}
	}
	ob.close()
	var got []string
	for {
		frame, ok := ob.pop()
		if !ok {
			break
		}
		got = append(got, string(frame))
	}
	want := []string{"deltas1", "deltas2", "deltas3", "deltas4", "deltas5"}
	if len(got) != len(want) || dropped != 3 {
		t.Fatalf("drained %v after %d evictions, want %v after 3", got, dropped, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("drained %v, want %v", got, want)
		}
	}
}
