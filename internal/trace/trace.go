// Package trace records protocol events and renders them as an ASCII message
// sequence chart, reproducing Figure 1 of the paper ("a sample execution of
// the discovery and update algorithm").
package trace

import (
	"strings"
	"sync"
	"time"
)

// Event is one recorded protocol step.
type Event struct {
	At   time.Time
	From string
	To   string
	Kind string // message kind, e.g. requestNodes, query, answer
	Note string // free-form detail (rule id, tuple count, ...)
}

// Recorder accumulates events; safe for concurrent use. A zero limit keeps
// everything; otherwise the earliest events beyond the limit are dropped and
// counted.
type Recorder struct {
	mu      sync.Mutex
	events  []Event
	limit   int
	dropped int
}

// NewRecorder creates a recorder keeping at most limit events (0 = all).
func NewRecorder(limit int) *Recorder {
	return &Recorder{limit: limit}
}

// Record appends an event.
func (r *Recorder) Record(from, to, kind, note string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if r.limit > 0 && len(r.events) >= r.limit {
		r.dropped++
	} else {
		r.events = append(r.events, Event{At: time.Now(), From: from, To: to, Kind: kind, Note: note})
	}
	r.mu.Unlock()
}

// Events returns a copy of the recorded events in order.
func (r *Recorder) Events() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Event, len(r.events))
	copy(out, r.events)
	return out
}

// Dropped reports how many events exceeded the limit.
func (r *Recorder) Dropped() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}

// Sequence renders a message sequence chart in the style of the paper's
// Figure 1: one column per participant, one row per message, an arrow from
// sender to receiver labelled with the kind.
//
//	:A        :B        :C
//	 |--query->|         |
//	 |         |--query->|
//	 |<-answer-|         |
func Sequence(events []Event, participants []string) string {
	const colWidth = 14
	col := map[string]int{}
	for i, p := range participants {
		col[p] = i
	}
	var b strings.Builder
	for i, p := range participants {
		cell := ":" + p
		b.WriteString(cell)
		if i != len(participants)-1 {
			b.WriteString(strings.Repeat(" ", max(1, colWidth-len(cell))))
		}
	}
	b.WriteString("\n")
	for _, e := range events {
		from, okF := col[e.From]
		to, okT := col[e.To]
		if !okF || !okT || from == to {
			continue
		}
		lo, hi := from, to
		rightward := from < to
		if !rightward {
			lo, hi = to, from
		}
		line := make([]byte, colWidth*len(participants))
		for i := range line {
			line[i] = ' '
		}
		for i := range participants {
			line[i*colWidth] = '|'
		}
		span := (hi - lo) * colWidth
		label := e.Kind
		if len(label) > span-3 && span > 5 {
			label = label[:span-3]
		}
		arrow := make([]byte, span-1)
		for i := range arrow {
			arrow[i] = '-'
		}
		pos := (span - 1 - len(label)) / 2
		if pos < 0 {
			pos = 0
		}
		copy(arrow[pos:], label)
		if rightward {
			arrow[len(arrow)-1] = '>'
		} else {
			arrow[0] = '<'
		}
		copy(line[lo*colWidth+1:], arrow)
		b.Write(trimRight(line))
		b.WriteString("\n")
	}
	return b.String()
}

func trimRight(line []byte) []byte {
	end := len(line)
	for end > 0 && line[end-1] == ' ' {
		end--
	}
	return line[:end]
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
