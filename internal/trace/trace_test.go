package trace

import (
	"strings"
	"sync"
	"testing"
)

func TestRecorderBasics(t *testing.T) {
	r := NewRecorder(0)
	r.Record("A", "B", "query", "r1")
	r.Record("B", "A", "answer", "r1 (3 tuples)")
	ev := r.Events()
	if len(ev) != 2 || ev[0].Kind != "query" || ev[1].From != "B" {
		t.Fatalf("events = %+v", ev)
	}
}

func TestRecorderLimit(t *testing.T) {
	r := NewRecorder(2)
	for i := 0; i < 5; i++ {
		r.Record("A", "B", "query", "")
	}
	if len(r.Events()) != 2 || r.Dropped() != 3 {
		t.Fatalf("events=%d dropped=%d", len(r.Events()), r.Dropped())
	}
}

func TestNilRecorderIsSafe(t *testing.T) {
	var r *Recorder
	r.Record("A", "B", "query", "") // must not panic
}

func TestRecorderConcurrent(t *testing.T) {
	r := NewRecorder(0)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				r.Record("A", "B", "query", "")
			}
		}()
	}
	wg.Wait()
	if len(r.Events()) != 800 {
		t.Fatalf("got %d events", len(r.Events()))
	}
}

func TestSequenceChart(t *testing.T) {
	events := []Event{
		{From: "A", To: "B", Kind: "requestNodes"},
		{From: "B", To: "C", Kind: "query"},
		{From: "C", To: "B", Kind: "answer"},
	}
	out := Sequence(events, []string{"A", "B", "C"})
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("chart lines = %d:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], ":A") || !strings.Contains(lines[0], ":B") {
		t.Errorf("header = %q", lines[0])
	}
	if !strings.Contains(lines[1], ">") || strings.Contains(lines[1], "<") {
		t.Errorf("rightward arrow wrong: %q", lines[1])
	}
	if !strings.Contains(lines[3], "<") {
		t.Errorf("leftward arrow wrong: %q", lines[3])
	}
	if !strings.Contains(out, "query") || !strings.Contains(out, "answer") {
		t.Error("labels missing")
	}
}

func TestSequenceSkipsUnknownParticipants(t *testing.T) {
	events := []Event{
		{From: "A", To: "Z", Kind: "query"},
		{From: "A", To: "A", Kind: "self"},
		{From: "A", To: "B", Kind: "query"},
	}
	out := Sequence(events, []string{"A", "B"})
	if strings.Count(out, "\n") != 2 { // header + one arrow
		t.Errorf("unexpected chart:\n%s", out)
	}
}
