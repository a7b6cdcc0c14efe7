package stats

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCountersBasics(t *testing.T) {
	c := NewCounters("A")
	c.Sent("query", 100)
	c.Sent("query", 50)
	c.Sent("answer", 10)
	c.Received("answer", 30)
	c.AddQueries(2)
	c.AddInserted(5)
	c.AddDuplicate(1)
	c.AddDuplicateQueries(3)
	c.AddTruncated(1)
	c.SetUpdateClosed(5 * time.Millisecond)

	s := c.Snapshot()
	if s.Node != "A" {
		t.Errorf("node = %q", s.Node)
	}
	if s.MsgsSent["query"] != 2 || s.MsgsSent["answer"] != 1 {
		t.Errorf("sent = %v", s.MsgsSent)
	}
	if s.TotalSent() != 3 || s.TotalReceived() != 1 {
		t.Errorf("totals = %d/%d", s.TotalSent(), s.TotalReceived())
	}
	if s.BytesSent != 160 || s.BytesRecv != 30 {
		t.Errorf("bytes = %d/%d", s.BytesSent, s.BytesRecv)
	}
	if s.QueriesExecuted != 2 || s.TuplesInserted != 5 || s.TuplesDuplicate != 1 ||
		s.DuplicateQueries != 3 || s.Truncated != 1 {
		t.Errorf("counters = %+v", s)
	}
	if s.UpdateClosed != 5*time.Millisecond {
		t.Errorf("update closed = %v", s.UpdateClosed)
	}
}

func TestDiscoveryClosedFirstWins(t *testing.T) {
	c := NewCounters("A")
	c.SetDiscoveryClosed(2 * time.Millisecond)
	c.SetDiscoveryClosed(9 * time.Millisecond)
	if got := c.Snapshot().DiscoveryClosed; got != 2*time.Millisecond {
		t.Errorf("discovery closed = %v", got)
	}
	// Update closure: last wins (re-opening extends it).
	c.SetUpdateClosed(2 * time.Millisecond)
	c.SetUpdateClosed(9 * time.Millisecond)
	if got := c.Snapshot().UpdateClosed; got != 9*time.Millisecond {
		t.Errorf("update closed = %v", got)
	}
}

func TestSnapshotIsolation(t *testing.T) {
	c := NewCounters("A")
	c.Sent("q", 1)
	s := c.Snapshot()
	c.Sent("q", 1)
	if s.MsgsSent["q"] != 1 {
		t.Error("snapshot must not see later sends")
	}
	s.MsgsSent["q"] = 99
	if c.Snapshot().MsgsSent["q"] != 2 {
		t.Error("mutating a snapshot must not affect the counters")
	}
}

func TestReset(t *testing.T) {
	c := NewCounters("A")
	c.Sent("q", 10)
	c.AddInserted(4)
	c.Reset()
	s := c.Snapshot()
	if s.TotalSent() != 0 || s.TuplesInserted != 0 || s.Node != "A" {
		t.Errorf("after reset: %+v", s)
	}
}

func TestMerge(t *testing.T) {
	a := NewCounters("A")
	a.Sent("query", 10)
	a.AddInserted(1)
	b := NewCounters("B")
	b.Sent("query", 5)
	b.Sent("answer", 7)
	b.AddInserted(2)
	b.SetUpdateClosed(3 * time.Millisecond)

	m := Merge([]Snapshot{a.Snapshot(), b.Snapshot()})
	if m.Node != "*" {
		t.Errorf("merged node = %q", m.Node)
	}
	if m.MsgsSent["query"] != 2 || m.MsgsSent["answer"] != 1 {
		t.Errorf("merged sends = %v", m.MsgsSent)
	}
	if m.BytesSent != 22 || m.TuplesInserted != 3 {
		t.Errorf("merged = %+v", m)
	}
	if m.UpdateClosed != 3*time.Millisecond {
		t.Errorf("merged closure = %v", m.UpdateClosed)
	}
}

func TestTableRendersAllNodes(t *testing.T) {
	a := NewCounters("A")
	a.Sent("q", 1)
	b := NewCounters("B")
	b.Sent("q", 2)
	out := Table([]Snapshot{b.Snapshot(), a.Snapshot()})
	if !strings.Contains(out, "node") || !strings.Contains(out, "\nA") {
		t.Errorf("table missing header or node A:\n%s", out)
	}
	// Sorted: A row must come before B row; merged * row last.
	ai, bi, star := strings.Index(out, "\nA"), strings.Index(out, "\nB"), strings.Index(out, "\n*")
	if !(ai < bi && bi < star) {
		t.Errorf("row order wrong:\n%s", out)
	}
}

func TestCountersConcurrentUse(t *testing.T) {
	c := NewCounters("A")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Sent("q", 1)
				c.Received("q", 1)
				c.AddInserted(1)
			}
		}()
	}
	wg.Wait()
	s := c.Snapshot()
	if s.TotalSent() != 8000 || s.TuplesInserted != 8000 {
		t.Errorf("lost updates: %+v", s)
	}
}

// TestTallyIsTheJoinedBalance drives three counters through sends, refusals,
// receipts and a reset, joining one of them late with messages of its own in
// flight. After every step the tally must equal the joined counters' started −
// finished, and a wake must be waiting exactly when a step brought it to zero.
func TestTallyIsTheJoinedBalance(t *testing.T) {
	tally := NewTally()
	a, b, late := NewCounters("A"), NewCounters("B"), NewCounters("C")
	a.Join(tally)
	b.Join(tally)
	joined := []*Counters{a, b}
	steps := []struct {
		name string
		do   func()
	}{
		{"A sends", func() { a.Sent("query", 1) }},
		{"B receives", func() { b.Received("query", 1) }},
		{"A sends twice", func() { a.Sent("answer", 1); a.Sent("answer", 1) }},
		{"one is refused", func() { a.SendFailed("answer", 1) }},
		{"B receives the other", func() { b.Received("answer", 1) }},
		{"B sends, then a reset", func() { b.Sent("answer", 1); b.Reset() }},
		{"the late one receives before joining", func() { late.Received("answer", 1) }},
		{"the late one joins", func() { late.Join(tally); joined = append(joined, late) }},
		{"the late one sends", func() { late.Sent("query", 1) }},
		{"the last one is refused", func() { late.SendFailed("query", 1) }},
		{"A sends to nobody hosted", func() { a.Sent("query", 1) }},
		{"and it is refused", func() { a.SendFailed("query", 1) }},
	}
	for _, st := range steps {
		st.do()
		var balance int64
		for _, c := range joined {
			started, finished := c.Totals()
			balance += int64(started) - int64(finished)
		}
		woken := false
		select {
		case <-tally.Zero():
			woken = true
		default:
		}
		if got := tally.Load(); got != balance || woken != (balance == 0) {
			t.Errorf("%s: tally %d (woken %v), joined balance %d", st.name, got, woken, balance)
		}
	}
}

// TestTotalsTrackTheKindMaps pins the totals read against the per-kind maps
// it spares a poller from copying, through a failed send, up to a reset.
func TestTotalsTrackTheKindMaps(t *testing.T) {
	c := NewCounters("A")
	check := func(when string) {
		t.Helper()
		s := c.Snapshot()
		if started, finished := c.Totals(); started != s.TotalSent() || finished != s.TotalReceived() {
			t.Errorf("%s: totals %d/%d, maps %d/%d", when, started, finished, s.TotalSent(), s.TotalReceived())
		}
	}
	c.Sent("query", 100)
	c.Sent("answer", 10)
	c.Received("answer", 30)
	check("after traffic")
	// A refused send was never started: it must not read as in flight.
	c.Sent("answer", 7)
	c.SendFailed("answer", 7)
	check("after a failed send")
	s := c.Snapshot()
	if s.MsgsSent["answer"] != 1 || s.BytesSent != 110 || s.SendErrors != 1 {
		t.Errorf("failed send left answer=%d bytes=%d errors=%d, want 1, 110, 1", s.MsgsSent["answer"], s.BytesSent, s.SendErrors)
	}
	// A reset zeroes the statistics, not the balance: a message in flight
	// across it must still read started here and finished there. And a send
	// refused after it takes back nothing the maps no longer hold.
	c.Sent("answer", 7)
	c.Reset()
	c.SendFailed("answer", 7)
	if started, finished := c.Totals(); started != 2 || finished != 1 {
		t.Errorf("reset and a refused send left totals %d/%d, want 2/1", started, finished)
	}
	if s := c.Snapshot(); s.TotalSent() != 0 || s.BytesSent != 0 || s.SendErrors != 1 {
		t.Errorf("after reset, a refused send left sent=%d bytes=%d errors=%d, want 0, 0, 1", s.TotalSent(), s.BytesSent, s.SendErrors)
	}
}
