package transport

import (
	"sync"
	"testing"
	"time"

	"repro/internal/relalg"
	"repro/internal/wire"
)

// Batcher tests. The flush rule is pinned on a clock the test sets (see
// export_test.go): the window is an hour, so the real timer never fires, time
// moves only when a test moves it, and a flusher pass run on the test's own
// goroutine (Pass) decides what is due. The one thing left to the scheduler is
// when the flusher goroutine ships a ready buffer; tests wait for that frame.

// recordingInner captures every frame the Batcher hands to the wire.
type recordingInner struct {
	mu     sync.Mutex
	envs   []wire.Envelope
	closed bool
	sent   chan struct{} // one token per frame, for waitFrames
}

func newRecordingInner() *recordingInner {
	return &recordingInner{sent: make(chan struct{}, 1024)} // more than any test sends
}

func (r *recordingInner) Register(string, Handler) error { return nil }

func (r *recordingInner) Send(from, to string, msg wire.Message) error {
	r.mu.Lock()
	r.envs = append(r.envs, wire.Envelope{From: from, To: to, Msg: msg})
	r.mu.Unlock()
	r.sent <- struct{}{}
	return nil
}

func (r *recordingInner) Close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.closed = true
	return nil
}

func (r *recordingInner) frames() []wire.Envelope {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]wire.Envelope(nil), r.envs...)
}

// waitFrames blocks until n frames have reached the wire and returns them.
func (r *recordingInner) waitFrames(t *testing.T, n int) []wire.Envelope {
	t.Helper()
	timeout := time.After(10 * time.Second)
	for len(r.frames()) < n {
		select {
		case <-r.sent:
		case <-timeout:
			t.Fatalf("only %d of %d frames reached the wire: %+v", len(r.frames()), n, r.frames())
		}
	}
	return r.frames()
}

func testAnswer(i int) wire.Answer {
	return wire.Answer{Epoch: 1, RuleID: "r", Part: "S", SubID: uint64(i),
		Tuples: []relalg.Tuple{{relalg.S("v")}}}
}

const testWindow = time.Hour

// clockedBatcher is a Batcher over a recording wire whose time stands still.
func clockedBatcher(opts BatcherOptions) (*Batcher, *recordingInner, *testClock) {
	inner, clk := newRecordingInner(), newTestClock()
	if opts.Window == 0 {
		opts.Window = testWindow
	}
	b := NewBatcher(inner, opts)
	b.SetClock(clk)
	return b, inner, clk
}

// lead sends the first message on the A→B link and waits until the flusher
// has shipped it, so that whatever follows finds the link busy.
func lead(t *testing.T, b *Batcher, inner *recordingInner) {
	t.Helper()
	if err := b.Send("A", "B", testAnswer(0)); err != nil {
		t.Fatal(err)
	}
	got := inner.waitFrames(t, 1)
	if a, ok := got[0].Msg.(wire.Answer); !ok || a.SubID != 0 {
		t.Fatalf("lead left as %T %+v, want the plain Answer", got[0].Msg, got[0].Msg)
	}
}

// subIDs lists the answers of a frame, plain or batched.
func subIDs(t *testing.T, env wire.Envelope) []uint64 {
	t.Helper()
	switch m := env.Msg.(type) {
	case wire.Answer:
		return []uint64{m.SubID}
	case wire.AnswerBatch:
		var ids []uint64
		for _, a := range m.Answers {
			ids = append(ids, a.SubID)
		}
		return ids
	}
	t.Fatalf("frame is %T, want Answer or AnswerBatch", env.Msg)
	return nil
}

// TestBatcherFlushRule pins the contract one case at a time: a message is
// held only while its link is busy, and then for at most the window.
func TestBatcherFlushRule(t *testing.T) {
	t.Run("a lone message ships without the clock moving", func(t *testing.T) {
		b, inner, _ := clockedBatcher(BatcherOptions{})
		defer b.Close()
		lead(t, b, inner)
		if st := b.Stats(); st.Frames != 1 || st.Coalesced != 0 {
			t.Fatalf("stats = %+v, want Frames=1 Coalesced=0", st)
		}
	})
	t.Run("a message behind it is held until since+window", func(t *testing.T) {
		b, inner, clk := clockedBatcher(BatcherOptions{})
		defer b.Close()
		lead(t, b, inner)
		clk.Advance(testWindow/quietDiv - 1) // one tick short of quiet
		_ = b.Send("A", "B", testAnswer(1))
		if wait := b.Pass(); wait != testWindow {
			t.Fatalf("timer armed for %v, want the whole window", wait)
		}
		clk.Advance(testWindow - 1)
		if wait := b.Pass(); wait != 1 || len(inner.frames()) != 1 {
			t.Fatalf("one tick before the window closes: %d frames, timer %v; want 1 frame, 1ns", len(inner.frames()), wait)
		}
		clk.Advance(1)
		if wait := b.Pass(); wait != 0 {
			t.Fatalf("timer armed for %v with nothing held", wait)
		}
		if got := inner.frames(); len(got) != 2 || subIDs(t, got[1])[0] != 1 {
			t.Fatalf("the window closed and the held answer did not leave: %+v", got)
		}
		clk.Advance(testWindow)
		b.Pass()
		if n := b.Links(); n != 0 {
			t.Fatalf("%d buffers kept for links that have been quiet a whole window", n)
		}
	})
	t.Run("a message after a quiet gap ships at once, with what was held", func(t *testing.T) {
		b, inner, clk := clockedBatcher(BatcherOptions{})
		defer b.Close()
		lead(t, b, inner)
		_ = b.Send("A", "B", testAnswer(1)) // busy: held
		clk.Advance(testWindow / quietDiv)
		_ = b.Send("A", "B", testAnswer(2)) // quiet again: ready
		got := inner.waitFrames(t, 2)
		if ids := subIDs(t, got[1]); len(ids) != 2 || ids[0] != 1 || ids[1] != 2 {
			t.Fatalf("second frame carries %v, want the held answer then the new one", ids)
		}
	})
	t.Run("one turn's burst to one destination leaves in at most two frames", func(t *testing.T) {
		b, inner, clk := clockedBatcher(BatcherOptions{})
		defer b.Close()
		const n = 50
		for i := 0; i < n; i++ {
			_ = b.Send("A", "B", testAnswer(i))
		}
		// The first made the buffer ready; the flusher took it and however
		// much of the burst was in by then. The rest waits for the window.
		clk.Advance(testWindow)
		b.Pass()
		got := inner.frames()
		if len(got) > 2 {
			t.Fatalf("%d answers in one turn left in %d frames, want at most 2", n, len(got))
		}
		var ids []uint64
		for _, env := range got {
			ids = append(ids, subIDs(t, env)...)
		}
		for i, id := range ids {
			if id != uint64(i) {
				t.Fatalf("burst reordered: %v", ids)
			}
		}
		if st := b.Stats(); len(ids) != n || st.Coalesced != uint64(n-len(got)) {
			t.Fatalf("%d of %d answers shipped, stats %+v over %d frames", len(ids), n, st, len(got))
		}
	})
	t.Run("a heartbeat alone waits the window", func(t *testing.T) {
		b, inner, clk := clockedBatcher(BatcherOptions{})
		defer b.Close()
		_ = b.Send("A", "B", wire.Heartbeat{Node: "A"})
		if wait := b.Pass(); wait != testWindow || len(inner.frames()) != 0 {
			t.Fatalf("heartbeat on a quiet link: %d frames, timer %v; want held for the window", len(inner.frames()), wait)
		}
		clk.Advance(testWindow)
		b.Pass()
		if got := inner.frames(); len(got) != 1 {
			t.Fatalf("got %d frames, want the heartbeat", len(got))
		} else if _, ok := got[0].Msg.(wire.Heartbeat); !ok {
			t.Fatalf("a lone heartbeat left as %T, want plain", got[0].Msg)
		}
	})
	t.Run("a heartbeat does not make the link busy", func(t *testing.T) {
		b, inner, clk := clockedBatcher(BatcherOptions{})
		defer b.Close()
		lead(t, b, inner)
		clk.Advance(testWindow / quietDiv)
		_ = b.Send("A", "B", wire.Heartbeat{Node: "A"})
		_ = b.Send("A", "B", testAnswer(1)) // still quiet for data: ships, beat aboard
		got := inner.waitFrames(t, 2)
		if batch, ok := got[1].Msg.(wire.AnswerBatch); !ok || len(batch.Beats) != 1 || len(batch.Answers) != 1 {
			t.Fatalf("second frame is %T %+v, want one answer with the heartbeat riding", got[1].Msg, got[1].Msg)
		}
	})
	t.Run("each destination has its own link", func(t *testing.T) {
		b, inner, _ := clockedBatcher(BatcherOptions{})
		defer b.Close()
		lead(t, b, inner)
		_ = b.Send("A", "B", testAnswer(1)) // B is busy
		_ = b.Send("A", "C", testAnswer(2)) // C is quiet
		got := inner.waitFrames(t, 2)
		if got[1].To != "C" {
			t.Fatalf("second frame went to %q, want the quiet link C", got[1].To)
		}
		if b.Pass(); len(inner.frames()) != 2 {
			t.Fatalf("the answer held for B left early: %+v", inner.frames())
		}
	})
}

// TestBatcherCoalescesPerDestination: what is held for one destination
// leaves as one AnswerBatch in send order, a lone message leaves plain (wire
// compatibility), and the accounting counts the frames saved.
func TestBatcherCoalescesPerDestination(t *testing.T) {
	b, inner, clk := clockedBatcher(BatcherOptions{})
	defer b.Close()
	lead(t, b, inner)
	for i := 1; i <= 5; i++ {
		if err := b.Send("A", "B", testAnswer(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Send("A", "C", testAnswer(99)); err != nil {
		t.Fatal(err)
	}
	got := inner.waitFrames(t, 2) // C was quiet
	if _, ok := got[1].Msg.(wire.Answer); !ok || got[1].To != "C" {
		t.Fatalf("lone message to C left as %T to %q, want a plain Answer", got[1].Msg, got[1].To)
	}
	if b.Pass(); len(inner.frames()) != 2 {
		t.Fatalf("batcher leaked %d frames before the window closed", len(inner.frames())-2)
	}
	clk.Advance(testWindow)
	b.Pass()
	got = inner.frames()
	if len(got) != 3 || got[2].To != "B" {
		t.Fatalf("got %d frames, want lead, C, then one batch to B: %+v", len(got), got)
	}
	if _, ok := got[2].Msg.(wire.AnswerBatch); !ok {
		t.Fatalf("frame to B is %T, want AnswerBatch", got[2].Msg)
	}
	if ids := subIDs(t, got[2]); len(ids) != 5 || ids[0] != 1 || ids[4] != 5 {
		t.Fatalf("batch to B holds %v, want answers 1..5 in order", ids)
	}
	if st := b.Stats(); st.Frames != 3 || st.Coalesced != 4 {
		t.Fatalf("stats = %+v, want Frames=3 Coalesced=4", st)
	}
}

func TestBatcherPiggybacksAcksAndLatestHeartbeat(t *testing.T) {
	b, inner, clk := clockedBatcher(BatcherOptions{})
	defer b.Close()
	lead(t, b, inner)
	_ = b.Send("A", "B", testAnswer(1))
	_ = b.Send("A", "B", wire.AnswerAck{RuleID: "r", SubID: 1, Seqs: map[string]uint64{"s": 3}})
	_ = b.Send("A", "B", wire.Heartbeat{Node: "A", Addr: "old"})
	_ = b.Send("A", "B", wire.Heartbeat{Node: "A", Addr: "new"})
	_ = b.Send("A", "B", testAnswer(2))
	clk.Advance(testWindow)
	b.Pass()
	got := inner.frames()
	if len(got) != 2 {
		t.Fatalf("got %d frames, want the lead and one batch: %+v", len(got), got)
	}
	batch, ok := got[1].Msg.(wire.AnswerBatch)
	if !ok {
		t.Fatalf("frame is %T, want AnswerBatch", got[1].Msg)
	}
	if len(batch.Answers) != 2 || len(batch.Acks) != 1 {
		t.Fatalf("batch = %d answers / %d acks, want 2/1", len(batch.Answers), len(batch.Acks))
	}
	// Heartbeats are latest-wins: only the newest address matters.
	if len(batch.Beats) != 1 || batch.Beats[0].Addr != "new" {
		t.Fatalf("beats = %+v, want exactly the latest heartbeat", batch.Beats)
	}
	st := b.Stats()
	if st.PiggybackedAcks != 1 || st.PiggybackedBeats != 1 {
		t.Fatalf("stats = %+v, want PiggybackedAcks=1 PiggybackedBeats=1", st)
	}
}

// TestBatcherFlushesBeforePassthrough pins ordering: a non-batchable frame
// (here a Query) must not overtake answers already held for the same
// destination, so one link carries [lead] [held batch] [query] in that order.
func TestBatcherFlushesBeforePassthrough(t *testing.T) {
	b, inner, _ := clockedBatcher(BatcherOptions{})
	defer b.Close()
	lead(t, b, inner)
	_ = b.Send("A", "B", testAnswer(1))
	_ = b.Send("A", "B", testAnswer(2))
	_ = b.Send("A", "B", wire.Query{Epoch: 1, RuleID: "r"})
	got := inner.frames()
	if len(got) != 3 {
		t.Fatalf("got %d frames, want lead, batch, query: %+v", len(got), got)
	}
	if ids := subIDs(t, got[1]); len(ids) != 2 || ids[0] != 1 || ids[1] != 2 {
		t.Fatalf("second frame carries %v, want the held answers 1, 2", ids)
	}
	if _, ok := got[2].Msg.(wire.Query); !ok {
		t.Fatalf("third frame is %T, want the Query", got[2].Msg)
	}
}

// TestBatcherFlushOnIdle runs on the real clock and the real timer: a message
// behind the lead leaves with no further traffic and nobody calling Pass,
// whether it found the link busy (the timer ships it) or quiet again.
func TestBatcherFlushOnIdle(t *testing.T) {
	inner := newRecordingInner()
	b := NewBatcher(inner, BatcherOptions{Window: 2 * time.Millisecond})
	defer b.Close()
	lead(t, b, inner)
	_ = b.Send("A", "B", testAnswer(1))
	if got := inner.waitFrames(t, 2); subIDs(t, got[1])[0] != 1 {
		t.Fatalf("trailing frame carries %v", subIDs(t, got[1]))
	}
}

// TestBatcherIdleMakesNoPasses: the flusher has no ticker. It passes when it
// is woken for a buffer and parks its timer when nothing is held, so a member
// with no traffic costs no wake-ups however long it sits.
func TestBatcherIdleMakesNoPasses(t *testing.T) {
	const window = time.Millisecond
	inner := newRecordingInner()
	b := NewBatcher(inner, BatcherOptions{Window: window})
	time.Sleep(20 * window) // real time has to pass for a stray timer to show
	if n := b.Passes(); n != 0 {
		t.Fatalf("%d flusher passes on a Batcher that never held a message", n)
	}
	lead(t, b, inner)
	_ = b.Send("A", "B", testAnswer(1))
	inner.waitFrames(t, 2)
	if wait := b.Pass(); wait != 0 {
		t.Fatalf("timer armed for %v with nothing held", wait)
	}
	if err := b.Close(); err != nil { // joins the flusher: the count below is final
		t.Fatal(err)
	}
	busy := b.Passes()
	time.Sleep(20 * window)
	if n := b.Passes(); n != busy {
		t.Fatalf("%d passes after the last frame left", n-busy)
	}
}

func TestBatcherFlushOnClose(t *testing.T) {
	b, inner, _ := clockedBatcher(BatcherOptions{})
	lead(t, b, inner)
	_ = b.Send("A", "B", testAnswer(1))
	_ = b.Send("A", "B", testAnswer(2))
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	got := inner.frames()
	if len(got) != 2 {
		t.Fatalf("Close discarded held answers: %+v", got)
	}
	if batch, ok := got[1].Msg.(wire.AnswerBatch); !ok || len(batch.Answers) != 2 {
		t.Fatalf("Close flushed %T %+v, want a 2-answer batch", got[1].Msg, got[1].Msg)
	}
	if !inner.closed {
		t.Fatal("Close did not close the inner transport")
	}
	if err := b.Send("A", "B", testAnswer(3)); err == nil {
		t.Fatal("Send after Close must error")
	}
}

func TestBatcherMaxBytesFlushesEarly(t *testing.T) {
	a := testAnswer(1)
	b, inner, _ := clockedBatcher(BatcherOptions{MaxBytes: 2 * a.Size()})
	defer b.Close()
	lead(t, b, inner)
	for i := 1; i <= 6; i++ {
		_ = b.Send("A", "B", testAnswer(i))
	}
	if got := inner.frames(); len(got) != 4 {
		t.Fatalf("size trigger: %d frames for a lead and 6 held answers at 2 per frame, want 4", len(got))
	}
}

// refusingInner refuses every frame but a Query, as a link that lost its
// batched traffic.
type refusingInner struct{ *recordingInner }

func (r refusingInner) Send(from, to string, msg wire.Message) error {
	if _, ok := msg.(wire.Query); !ok {
		return ErrPartitioned
	}
	return r.recordingInner.Send(from, to, msg)
}

// TestBatcherPassThroughReportsOnlyItsOwnError: a control message flushes what
// its link holds before it passes through. When that flush fails and the
// message itself leaves, its sender must hear nil: an error would make the
// sender take back a message that was delivered, and the counter balance would
// read a surplus from then on.
func TestBatcherPassThroughReportsOnlyItsOwnError(t *testing.T) {
	inner := refusingInner{newRecordingInner()}
	b := NewBatcher(inner, BatcherOptions{Window: testWindow})
	defer b.Close()
	if err := b.Send("A", "B", wire.Heartbeat{Node: "A"}); err != nil { // held: it never ships early
		t.Fatal(err)
	}
	if err := b.Send("A", "B", wire.Query{RuleID: "r"}); err != nil {
		t.Fatalf("the query left, yet Send reported %v (the lost flush's error)", err)
	}
	if got := inner.frames(); len(got) != 1 {
		t.Fatalf("%d frames reached the wire, want the query alone", len(got))
	}
}
