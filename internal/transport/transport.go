// Package transport carries protocol messages between peers. It replaces the
// paper's JXTA layer with implementations sharing one interface: an
// in-memory router (deterministic, with seeded delay injection, partitions,
// and a synchronous/BSP stepping mode used by the "synchronous alternative"
// the paper mentions), a TCP transport (length-prefixed wire frames over
// stdlib net) for running peers as separate processes, and a TCP mesh that
// gives every registered peer its own socket listener so a whole network runs
// over loopback sockets in one process.
//
// The base Transport interface is deliberately minimal — register, send,
// close — because that is all the protocol needs. Two capabilities go beyond
// it: BSP round stepping (Stepper), which delivers only when stepped, and
// taking a run of messages to one destination at once (RunSender). The
// in-memory router also injects partitions (Mem.Partition), for the tests.
// No transport decides when a
// network has settled: on every one, as in the paper's JXTA deployment,
// orchestration reads the peers' counters, which balance exactly when nothing
// is in flight.
package transport

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/wire"
)

// Handler consumes one incoming envelope. Transports invoke a node's handler
// from a single goroutine, so peer state needs no internal locking.
type Handler func(env wire.Envelope)

// Transport moves messages between named peers.
type Transport interface {
	// Register attaches the handler for a node. It must be called before
	// any message is sent to that node.
	Register(node string, h Handler) error
	// Send delivers msg from one node to another, asynchronously.
	Send(from, to string, msg wire.Message) error
	// Close stops delivery and releases resources.
	Close() error
}

// Quiescer is the in-memory router's own view of quiescence: no message
// undelivered or in a handler. Orchestration does not consult it; it stays
// only because benchmark/trace.go asserts it.
type Quiescer interface {
	// WaitQuiescent blocks until nothing is in flight or ctx is cancelled.
	WaitQuiescent(ctx context.Context) error
	// Inflight reports the number of undelivered or in-handler messages.
	Inflight() int
}

// Stepper is the capability of delivering only when stepped: BSP rounds (the
// paper's "synchronous alternative"), or a test's seeded scheduler.
type Stepper interface {
	// Step delivers what is scheduled next — the buffered round, or one
	// message — and returns how many messages it delivered; 0 means nothing
	// was scheduled.
	Step() int
}

// RunSender is the capability of taking a run of messages to one
// destination in one call, as if each were sent in turn with nothing else
// in between: the Batcher holds its lock across the run, so no flusher pass
// lands inside it and the run shares a frame.
type RunSender interface {
	// SendRun sends msgs in order and returns how many it took before the
	// first error.
	SendRun(from, to string, msgs []wire.Message) (int, error)
}

// SendRun sends msgs from one node to another in order: as one run when tr
// is a RunSender, one Send at a time otherwise. It returns how many messages
// were taken before the first error.
func SendRun(tr Transport, from, to string, msgs []wire.Message) (int, error) {
	if rs, ok := tr.(RunSender); ok {
		return rs.SendRun(from, to, msgs)
	}
	for i, m := range msgs {
		if err := tr.Send(from, to, m); err != nil {
			return i, err
		}
	}
	return len(msgs), nil
}

// WorkTracker adjusts a router's in-flight count from outside it. Nothing in
// the program calls it; it stays only because benchmark/trace.go asserts it.
type WorkTracker interface {
	// TrackWork adjusts the router's in-flight count by delta.
	TrackWork(delta int)
}

// ErrUnknownPeer is returned when sending to an unregistered node.
var ErrUnknownPeer = errors.New("transport: unknown peer")

// ErrClosed is returned when using a transport after Close.
var ErrClosed = errors.New("transport: closed")

// ErrPartitioned is returned for a send across an injected partition: the
// message is refused, so the sender's counters take it back, as for a dead link.
var ErrPartitioned = errors.New("transport: partitioned")

func addressError(op, node string) error {
	return fmt.Errorf("%w: %s %q", ErrUnknownPeer, op, node)
}
