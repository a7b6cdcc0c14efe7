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
// has shipped it. It starts a run of data on the link: what follows at the
// same instant is still young and ships too.
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

// busyLead is lead on a link whose run of data is already window/quietDiv
// old (Busy), so that whatever follows without a quiet gap finds the link
// busy and is held.
func busyLead(t *testing.T, b *Batcher, inner *recordingInner) {
	t.Helper()
	lead(t, b, inner)
	b.Busy("A", "B")
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
// held only while its link is busy — once data has flowed on it for
// window/quietDiv with no quiet gap — and then for at most the window.
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
		busyLead(t, b, inner)
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
		busyLead(t, b, inner)
		_ = b.Send("A", "B", testAnswer(1)) // busy: held
		clk.Advance(testWindow / quietDiv)
		_ = b.Send("A", "B", testAnswer(2)) // quiet again: ready
		got := inner.waitFrames(t, 2)
		if ids := subIDs(t, got[1]); len(ids) != 2 || ids[0] != 1 || ids[1] != 2 {
			t.Fatalf("second frame carries %v, want the held answer then the new one", ids)
		}
	})
	t.Run("a young burst leaves in order with the clock stopped", func(t *testing.T) {
		b, inner, _ := clockedBatcher(BatcherOptions{})
		defer b.Close()
		const n = 50
		for i := 0; i < n; i++ {
			_ = b.Send("A", "B", testAnswer(i))
		}
		// The whole burst is one young run: the flusher took however much
		// was in at each pass, and this pass takes the rest.
		if wait := b.Pass(); wait != 0 {
			t.Fatalf("timer armed for %v: part of a young burst was held", wait)
		}
		got := inner.frames()
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
		busyLead(t, b, inner)
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
	t.Run("the tail of a young burst ships at the next pass", func(t *testing.T) {
		// One insert's watch deltas reach the link from as many forwarder
		// goroutines at once, just behind the first: none waits the window.
		b, inner, _ := clockedBatcher(BatcherOptions{})
		defer b.Close()
		lead(t, b, inner)
		const n = 15
		var wg sync.WaitGroup
		for i := 1; i <= n; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				_ = b.Send("A", "B", testAnswer(i))
			}(i)
		}
		wg.Wait()
		if wait := b.Pass(); wait != 0 {
			t.Fatalf("timer armed for %v: the tail of a young burst was held", wait)
		}
		seen := map[uint64]int{}
		for _, env := range inner.frames()[1:] {
			for _, id := range subIDs(t, env) {
				seen[id]++
			}
		}
		for i := uint64(1); i <= n; i++ {
			if seen[i] != 1 {
				t.Fatalf("answer %d shipped %d times, want once: %v", i, seen[i], seen)
			}
		}
	})
	t.Run("a prime on a busy link ships at the next pass", func(t *testing.T) {
		// A watch's prime is a reply: its client is blocked waiting for it.
		b, inner, _ := clockedBatcher(BatcherOptions{})
		defer b.Close()
		busyLead(t, b, inner)
		_ = b.Send("A", "B", testAnswer(1)) // busy: held
		_ = b.Send("A", "B", wire.WatchDelta{ID: 1, Seq: 1, Prime: true})
		if wait := b.Pass(); wait != 0 {
			t.Fatalf("timer armed for %v: the prime was held", wait)
		}
		got := inner.frames()
		if len(got) != 2 {
			t.Fatalf("got %d frames, want the lead and the prime with the held answer", len(got))
		}
		if batch, ok := got[1].Msg.(wire.AnswerBatch); !ok || len(batch.Answers) != 1 || len(batch.WatchDeltas) != 1 || !batch.WatchDeltas[0].Prime {
			t.Fatalf("second frame is %T %+v, want the held answer and the prime", got[1].Msg, got[1].Msg)
		}
		_ = b.Send("A", "B", wire.WatchDelta{ID: 1, Seq: 2}) // a live delta is data like any other
		if wait := b.Pass(); wait != testWindow {
			t.Fatalf("timer %v, want a live delta on the busy link held the whole window", wait)
		}
	})
	t.Run("a quiet gap starts a new young run", func(t *testing.T) {
		b, inner, clk := clockedBatcher(BatcherOptions{})
		defer b.Close()
		young := func(i int) {
			t.Helper()
			_ = b.Send("A", "B", testAnswer(i))
			if wait := b.Pass(); wait != 0 {
				t.Fatalf("answer %d held (timer %v), want it shipped with the young run", i, wait)
			}
		}
		held := func(i int) {
			t.Helper()
			_ = b.Send("A", "B", testAnswer(i))
			if wait := b.Pass(); wait != testWindow {
				t.Fatalf("answer %d: timer %v, want it held the whole window", i, wait)
			}
		}
		lead(t, b, inner)
		clk.Advance(testWindow/quietDiv - 1)
		young(1)
		clk.Advance(1) // the run is window/quietDiv old, with no gap in it
		held(2)
		clk.Advance(testWindow / quietDiv)
		young(3) // a gap: 3 starts a new run and takes 2 along
		clk.Advance(testWindow/quietDiv - 1)
		young(4) // the new run's age counts from 3, not from the lead
		clk.Advance(1)
		held(5)
		got := inner.frames()
		var frames [][]uint64
		for _, env := range got {
			frames = append(frames, subIDs(t, env))
		}
		if len(got) != 4 || len(frames[2]) != 2 || frames[2][0] != 2 || frames[2][1] != 3 || frames[3][0] != 4 {
			t.Fatalf("frames carry %v, want [0] [1] [2 3] [4] with 5 held", frames)
		}
	})
	t.Run("an old run waits since+window", func(t *testing.T) {
		// Steady data — an update wave — coalesces: what follows the first
		// quarter of a millisecond of a run leaves once a window.
		b, inner, clk := clockedBatcher(BatcherOptions{})
		defer b.Close()
		lead(t, b, inner)
		clk.Advance(testWindow/quietDiv - 1)
		_ = b.Send("A", "B", testAnswer(1)) // still young
		b.Pass()
		clk.Advance(1)
		for i := 2; i <= 4; i++ {
			_ = b.Send("A", "B", testAnswer(i)) // the run is old: held
		}
		if wait := b.Pass(); wait != testWindow || len(inner.frames()) != 2 {
			t.Fatalf("%d frames, timer %v; want the lead and 1 out, 2..4 held the whole window", len(inner.frames()), wait)
		}
		clk.Advance(testWindow - 1)
		if wait := b.Pass(); wait != 1 || len(inner.frames()) != 2 {
			t.Fatalf("one tick before the window closes: %d frames, timer %v; want 2 frames, 1ns", len(inner.frames()), wait)
		}
		clk.Advance(1)
		if wait := b.Pass(); wait != 0 {
			t.Fatalf("timer armed for %v with nothing held", wait)
		}
		if got := inner.frames(); len(got) != 3 {
			t.Fatalf("got %d frames, want the lead, 1, then one batch of 2..4", len(got))
		} else if ids := subIDs(t, got[2]); len(ids) != 3 || ids[0] != 2 || ids[2] != 4 {
			t.Fatalf("the held batch carries %v, want 2..4", ids)
		}
	})
}

// TestBatcherSendRunSharesAFrame: a run enters the buffer under one hold of
// the lock, so even on a young link, where the flusher ships whatever it
// finds, the run leaves in one frame, in order.
func TestBatcherSendRunSharesAFrame(t *testing.T) {
	b, inner, _ := clockedBatcher(BatcherOptions{})
	defer b.Close()
	lead(t, b, inner)
	const n = 16
	var run []wire.Message
	for i := 1; i <= n; i++ {
		run = append(run, wire.WatchDelta{ID: uint64(i), Seq: 2})
	}
	if sent, err := SendRun(b, "A", "B", run); sent != n || err != nil {
		t.Fatalf("SendRun took %d of %d: %v", sent, n, err)
	}
	b.Pass()
	got := inner.frames()
	if len(got) != 2 {
		t.Fatalf("the run left in %d frames after the lead, want 1", len(got)-1)
	}
	batch, ok := got[1].Msg.(wire.AnswerBatch)
	if !ok || len(batch.WatchDeltas) != n {
		t.Fatalf("the run's frame is %T %+v, want one batch of %d deltas", got[1].Msg, got[1].Msg, n)
	}
	for i, d := range batch.WatchDeltas {
		if d.ID != uint64(i+1) {
			t.Fatalf("the run left reordered: delta %d is watch %d", i, d.ID)
		}
	}
	if st := b.Stats(); st.Frames != 2 || st.Coalesced != n-1 {
		t.Fatalf("stats = %+v, want 2 frames and %d coalesced", st, n-1)
	}
}

// TestBatcherCoalescesPerDestination: what is held for one destination
// leaves as one AnswerBatch in send order, a lone message leaves plain (wire
// compatibility), and the accounting counts the frames saved.
func TestBatcherCoalescesPerDestination(t *testing.T) {
	b, inner, clk := clockedBatcher(BatcherOptions{})
	defer b.Close()
	busyLead(t, b, inner)
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
	busyLead(t, b, inner)
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
	busyLead(t, b, inner)
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
	busyLead(t, b, inner)
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
	b, inner, _ := clockedBatcher(BatcherOptions{MaxBytes: 2 * wire.Size(a)})
	defer b.Close()
	busyLead(t, b, inner)
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
