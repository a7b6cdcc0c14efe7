package core

import (
	"context"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/transport"
	"repro/internal/wire"
	"repro/internal/workload"
)

// stepTransport is a single-threaded transport: every link is a FIFO, Send
// only enqueues, and Step delivers one message on the caller's goroutine — the
// head of the next link picked by a seeded generator among the non-empty ones
// in sorted order. Quiesce steps it until nothing is scheduled, so a schedule
// is a function of the seed alone and a failure replays exactly.
type stepTransport struct {
	rng       *rand.Rand
	handlers  map[string]transport.Handler
	queues    map[[2]string][]wire.Envelope
	settles   int // Steps that found nothing scheduled: one per settle of a balanced network
	delivered int
}

func newStepTransport(seed int64) *stepTransport {
	return &stepTransport{
		rng:      rand.New(rand.NewSource(seed)),
		handlers: map[string]transport.Handler{},
		queues:   map[[2]string][]wire.Envelope{},
	}
}

func (s *stepTransport) Register(node string, h transport.Handler) error {
	s.handlers[node] = h
	return nil
}

func (s *stepTransport) Send(from, to string, msg wire.Message) error {
	if s.handlers[to] == nil {
		return transport.ErrUnknownPeer
	}
	k := [2]string{from, to}
	s.queues[k] = append(s.queues[k], wire.Envelope{From: from, To: to, Msg: msg})
	return nil
}

func (s *stepTransport) Close() error { return nil }

func (s *stepTransport) Step() int {
	var links [][2]string
	for k, q := range s.queues {
		if len(q) > 0 {
			links = append(links, k)
		}
	}
	if len(links) == 0 {
		s.settles++
		return 0
	}
	sort.Slice(links, func(i, j int) bool {
		if links[i][0] != links[j][0] {
			return links[i][0] < links[j][0]
		}
		return links[i][1] < links[j][1]
	})
	k := links[s.rng.Intn(len(links))]
	env := s.queues[k][0]
	s.queues[k] = s.queues[k][1:]
	s.handlers[k[1]](env)
	s.delivered++
	return 1
}

// TestPinnedSchedulesCloseUnprobed replays the delivery schedules on which a
// Clique(4) wave — no Discover first, so every node's own discovery wave
// completes inside the epoch — used to settle with nodes open: confirmations
// for a node's cyclic paths passed before the node knew the paths, and
// nothing regenerated them (eight probe rounds changed nothing). The seeds are
// every failing one in 0–13999 before peers re-originated on completing their
// own wave; each must now close on the first settle, with no probe.
func TestPinnedSchedulesCloseUnprobed(t *testing.T) {
	def, err := workload.Generate(workload.Clique(4), workload.DataSpec{RecordsPerNode: 5, Seed: 1, Style: workload.StyleCopy})
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range []int64{1930, 5296, 7537, 7714, 8695, 13592} {
		tr := newStepTransport(seed)
		n, err := Build(def, Options{Delta: true, Transport: tr})
		if err != nil {
			t.Fatal(err)
		}
		if err := n.Update(context.Background()); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
		if open := n.OpenPeers(); len(open) > 0 {
			t.Errorf("seed %d: still open: %v", seed, open)
		}
		if tr.settles != 1 {
			t.Errorf("seed %d: %d probe round(s) after %d messages, want none", seed, tr.settles-1, tr.delivered)
		}
		if err := n.ValidateAgainstCentralized(); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
		t.Logf("seed %d: closed after %d messages", seed, tr.delivered)
		_ = n.Close()
	}
}
