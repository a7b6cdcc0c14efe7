package storage

import (
	"reflect"
	"testing"
)

// TestExtend pins the one frontier rule: how a range (base, to] meets a
// frontier, and where a receiver applying it starts (front−base).
func TestExtend(t *testing.T) {
	cases := []struct {
		name            string
		front, base, to uint64
		want            Extension
	}{
		{"contiguous", 2, 2, 4, Extends},
		{"from nothing", 0, 0, 3, Extends},
		{"overlap trimmed", 3, 1, 5, Extends},
		{"entirely old", 5, 1, 3, Old},
		{"ends at the frontier", 5, 3, 5, Old},
		{"gap", 2, 3, 5, Gap},
		{"gap over an old end", 2, 3, 2, Gap},
	}
	for _, tc := range cases {
		if got := Extend(tc.front, tc.base, tc.to); got != tc.want {
			t.Errorf("%s: Extend(%d, %d, %d) = %d, want %d", tc.name, tc.front, tc.base, tc.to, got, tc.want)
		}
	}
}

// TestStream is the stream's spec, one case per rule, on relation "r" (and
// "u" where a second relation matters). Subscriptions and mirror streams
// both run on it; their own tests (peer/ack_test.go, replica/replica_test.go)
// drive the same rules through the protocol.
func TestStream(t *testing.T) {
	type step func(t *testing.T, s *Stream)
	rekey := func(from Marks) step { return func(_ *testing.T, s *Stream) { *s = *NewStream(from) } }
	ship := func(to uint64) step { return func(_ *testing.T, s *Stream) { s.Ship(Marks{"r": to}) } }
	ack := func(base, to uint64, durable, wantReceived, wantDurable bool) step {
		return func(t *testing.T, s *Stream) {
			t.Helper()
			r, d := s.Ack("r", base, to, durable)
			if r != wantReceived || d != wantDurable {
				t.Fatalf("Ack(%d, %d, durable=%v) advanced received=%v durable=%v, want %v %v", base, to, durable, r, d, wantReceived, wantDurable)
			}
		}
	}
	rewind := func(l Level) step { return func(_ *testing.T, s *Stream) { s.Rewind(l) } }
	seal := func(_ *testing.T, s *Stream) { s.Seal() }

	cases := []struct {
		name                       string
		steps                      []step
		shipped, received, durable Marks
		pendingReceived, pendingDu bool
	}{
		{"contiguous durable ack",
			[]step{ship(4), ack(0, 4, true, true, true)},
			Marks{"r": 4}, Marks{"r": 4}, Marks{"r": 4}, false, false},
		{"overlapping ack extends",
			[]step{ship(4), ack(0, 2, true, true, true), ack(1, 4, true, true, true)},
			Marks{"r": 4}, Marks{"r": 4}, Marks{"r": 4}, false, false},
		{"entirely old ack changes nothing",
			[]step{ship(4), ack(0, 4, true, true, true), ack(0, 2, true, false, false)},
			Marks{"r": 4}, Marks{"r": 4}, Marks{"r": 4}, false, false},
		{"gapped ack leaves the gap open",
			[]step{ship(6), ack(0, 2, true, true, true), ack(4, 6, true, false, false)},
			Marks{"r": 6}, Marks{"r": 2}, Marks{"r": 2}, true, true},
		{"non-durable ack confirms receipt only",
			[]step{ship(4), ack(0, 4, false, true, false)},
			Marks{"r": 4}, Marks{"r": 4}, Marks{}, false, true},
		// A contiguous ack is taken even past what was shipped (a late ack of
		// an answer shipped before a rewind); the mirror stream, whose acks
		// carry no base, filters those itself.
		{"contiguous ack beyond shipped",
			[]step{ship(2), ack(0, 2, true, true, true), ack(2, 5, false, true, false)},
			Marks{"r": 2}, Marks{"r": 5}, Marks{"r": 2}, false, false},
		{"rewind to received",
			[]step{ship(6), ack(0, 2, true, true, true), ack(2, 4, false, true, false), rewind(Received)},
			Marks{"r": 4}, Marks{"r": 4}, Marks{"r": 2}, false, true},
		{"rewind to durable",
			[]step{ship(6), ack(0, 2, true, true, true), ack(2, 4, false, true, false), rewind(Durable)},
			Marks{"r": 2}, Marks{"r": 4}, Marks{"r": 2}, false, false},
		{"seal promotes received to durable",
			[]step{ship(6), ack(0, 4, false, true, false), seal},
			Marks{"r": 6}, Marks{"r": 4}, Marks{"r": 4}, true, true},
		{"restore clamps to the recovered seqs",
			[]step{func(_ *testing.T, s *Stream) { *s = *RestoreStream(Marks{"r": 9, "u": 3}, Marks{"r": 5}) }},
			Marks{"r": 5, "u": 0}, Marks{"r": 5, "u": 0}, Marks{"r": 5, "u": 0}, false, false},
		{"re-key moves every frontier",
			[]step{ship(6), ack(0, 6, true, true, true), rekey(Marks{"r": 2})},
			Marks{"r": 2}, Marks{"r": 2}, Marks{"r": 2}, false, false},
		{"ship never moves backwards",
			[]step{rekey(Marks{"r": 7, "u": 1}), ship(5)},
			Marks{"r": 7, "u": 1}, Marks{"r": 7, "u": 1}, Marks{"r": 7, "u": 1}, false, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := NewStream(nil)
			// Every shipped map handed out must stay as it was handed out:
			// answers keep them as their stamps.
			var handed []Marks
			var copies []Marks
			for _, st := range tc.steps {
				st(t, s)
				handed = append(handed, s.Shipped())
				copies = append(copies, s.Shipped().Clone())
			}
			for i := range handed {
				if !reflect.DeepEqual(handed[i], copies[i]) {
					t.Fatalf("a shipped map was written after it was handed out: %v, was %v", handed[i], copies[i])
				}
			}
			if !reflect.DeepEqual(s.Shipped(), tc.shipped) || !reflect.DeepEqual(s.Frontier(Received), tc.received) || !reflect.DeepEqual(s.Frontier(Durable), tc.durable) {
				t.Fatalf("shipped %v received %v durable %v, want %v %v %v",
					s.Shipped(), s.Frontier(Received), s.Frontier(Durable), tc.shipped, tc.received, tc.durable)
			}
			if s.Pending(Received) != tc.pendingReceived || s.Pending(Durable) != tc.pendingDu {
				t.Fatalf("pending received=%v durable=%v, want %v %v", s.Pending(Received), s.Pending(Durable), tc.pendingReceived, tc.pendingDu)
			}
		})
	}
}
