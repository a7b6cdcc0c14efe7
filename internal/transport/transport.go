// Package transport carries protocol messages between peers. It replaces the
// paper's JXTA layer with implementations sharing one interface: an
// in-memory router (deterministic, with seeded delay injection, partitions, a
// global quiescence detector, and a synchronous/BSP stepping mode used by the
// "synchronous alternative" the paper mentions), a TCP transport
// (length-prefixed wire frames over stdlib net) for running peers as separate
// processes, and a TCP mesh that gives every registered peer its own socket
// listener so a whole network runs over loopback sockets in one process.
//
// The base Transport interface is deliberately minimal — register, send,
// close — because that is all the protocol needs. Everything beyond reliable
// point-to-point messaging is a capability a particular implementation may or
// may not have: a global quiescence oracle (Quiescer), BSP round stepping
// (Stepper), partition/drop fault injection (FaultInjector). Orchestration
// type-asserts for the capability and falls back to protocol-visible signals
// when it is absent (the paper's JXTA situation): the peers' state reports,
// and their counters, which balance exactly when nothing is in flight.
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

// Quiescer is the capability of detecting global quiescence: no message
// undelivered, in a handler, or scheduled for delayed delivery anywhere.
// Only transports that see all traffic (the in-memory router) can offer it;
// distributed transports cannot, and orchestration balances peer counters.
type Quiescer interface {
	// WaitQuiescent blocks until nothing is in flight or ctx is cancelled.
	WaitQuiescent(ctx context.Context) error
	// Inflight reports the number of undelivered or in-handler messages.
	Inflight() int
}

// Stepper is the capability of BSP round stepping (the paper's "synchronous
// alternative"): sends buffer until Step delivers them as one round.
type Stepper interface {
	// Step delivers the buffered round, returning how many messages it held.
	Step() int
	// StepAll drives rounds until none remain, returning the round count.
	StepAll(maxRounds int) int
}

// WorkTracker is the capability of accounting work held OUTSIDE the
// transport's own queues toward its quiescence oracle: a layer that buffers
// messages before handing them over (the Batcher), or a peer that defers
// acknowledgment side effects to a background worker, tracks each pending
// item with TrackWork(+1) and releases it with TrackWork(-1) once the work
// reaches the transport (or completes). Without it, a quiescence oracle
// would declare the network settled while batched frames or pipelined
// fsync/ack work were still pending.
type WorkTracker interface {
	// TrackWork adjusts the in-flight work accounted by the quiescence
	// oracle by delta (positive when work is taken on, negative when done).
	TrackWork(delta int)
}

// FaultInjector is the capability of injecting link faults for robustness
// experiments: pairwise partitions and a drop counter.
type FaultInjector interface {
	// Partition blocks both directions between two nodes.
	Partition(a, b string)
	// Heal removes a partition.
	Heal(a, b string)
	// Dropped reports how many messages partitions ate.
	Dropped() uint64
}

// ErrUnknownPeer is returned when sending to an unregistered node.
var ErrUnknownPeer = errors.New("transport: unknown peer")

// ErrClosed is returned when using a transport after Close.
var ErrClosed = errors.New("transport: closed")

func addressError(op, node string) error {
	return fmt.Errorf("%w: %s %q", ErrUnknownPeer, op, node)
}
