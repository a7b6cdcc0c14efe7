// Package consensus is a Paxos-style replicated log over a fixed peer set,
// carried as wire control frames over whatever transport the cluster already
// runs (the 6.824 Paxos library shape: a sequence of numbered instances, each
// independently agreed by Prepare/Accept/Learn rounds, tolerating partitions
// and message loss; "Distributed Agreement in Dynamic Peer-to-Peer Networks"
// is the theory anchor). The cluster control plane is re-founded on it: the
// member table, epoch bumps and discovery/update/rule-change kick-offs become
// agreed wire.Command entries applied in sequence by every member, so any
// member can host control requests and a killed proposer's in-flight work is
// re-driven by a survivor instead of stalling the network.
//
// The protocol is one pure step (step.go): a member's acceptor, learner and
// proposer state is a state value, and step(now, from, event) takes a
// consensus frame, a submit, an abandoned submit, an applied entry or a timer
// tick and returns effects — send a frame, persist a vote, append an applied
// entry, apply or restore it, serve a snapshot, complete a submit, arm the
// one timer. A proposal is a record the step advances on each Promise,
// Accepted or tick. Node runs the step in a shell.Shell — the lock, the one
// timer, the runner the applier goroutine lives on — and owns the files: it
// persists votes and appends entries under the lock, sends after it, and wakes
// a blocked Submit when its value is decided. TestConsensusModelCheck drives
// step directly.
//
// Guarantees and their boundaries:
//
//   - Agreement: two members never apply different commands at the same
//     instance. Majority-quorum intersection does the work: a value accepted
//     by a majority is seen by every later Prepare majority — which is why,
//     with Options.LogPath set, every promise and accepted value is persisted
//     (one write + fsync) BEFORE the matching reply leaves: a vote a peer may
//     have counted towards a quorum survives this member's crash, so a
//     restarted member cannot re-promise or re-accept conflictingly. Without
//     LogPath nothing is durable and a crash-restart under the same name can
//     violate earlier promises — run memory-only members only where restarts
//     mean fresh processes (tests, experiments).
//   - Progress: a proposer that can reach a majority decides; one cut off
//     with a minority retries forever and makes no progress until healed —
//     exactly the partition behaviour the control plane wants (a minority
//     must not change the member table or kick epochs).
//   - Ordering: Apply is called exactly once per instance, in instance order,
//     with no gaps, from one goroutine. Gaps left by dead proposers are
//     filled with no-ops after 4×Retry (times one plus the member's index).
//   - Restart: applied entries are replayed from an append-only log file
//     (Options.LogPath), so a restarted member rebuilds its applied state
//     offline and catches up only the suffix from its peers; the acceptor
//     log beside it restores this member's votes for still-undecided
//     instances. A member that lost its disk entirely re-enters at applied
//     zero and is caught up from a peer — entry by entry while the prefix is
//     still retained, by state transfer (Options.Snapshot/Restore) once the
//     prefix has been garbage-collected.
//
// Instance garbage-collection rides on piggybacked done-frontiers: every
// frame carries the sender's highest applied instance, each member remembers
// the latest value per peer (latest, not maximum: a restarted member's zero
// must pull the floor back down), and instances below min(done)-keepWindow
// are forgotten.
package consensus

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/shell"
	"repro/internal/wire"
)

// Sender ships one consensus frame to a named peer. Sends are asynchronous
// and may fail silently — the proposer retries, the Learn echo on decided
// instances and the catch-up rounds together tolerate arbitrary loss.
type Sender func(to string, msg wire.Message) error

// Apply consumes one decided entry. It is called in strict instance order
// (no gaps, exactly once per instance) from the node's single applier
// goroutine; it must not call back into Submit synchronously.
type Apply func(instance uint64, cmd wire.Command)

// Options tunes a consensus node.
type Options struct {
	// Retry is the proposer's base retry pause after a rejected or timed-out
	// round (default 50ms). Each retry adds jitter and doubles both the pause
	// and the time a round waits for its quorum — 2×Retry per phase at first,
	// 32×Retry from the fifth attempt on — so a cluster whose round trips
	// outlast the base timeout (a loaded box, acceptors fsyncing their votes
	// on a busy disk) still decides instead of timing every ballot out.
	// Partitioned proposers retry at the capped cadence forever.
	Retry time.Duration
	// SyncEvery is the catch-up cadence (default 500ms): each round
	// advertises the done-frontier to one peer round-robin and pulls any
	// decided instances this member missed.
	SyncEvery time.Duration
	// LogPath, when set, appends every applied entry to this file and
	// replays it on construction (through Apply) before any message flows.
	// The acceptor log at LogPath+".acc" rides along: this member's votes
	// are fsynced there before each Promise/Accepted reply, so a restarted
	// member still honours them (without LogPath a crash-restart can break
	// agreement; see the package comment).
	LogPath string
	// Snapshot and Restore, when both set, enable state-transfer catch-up
	// for a member whose applied frontier fell below its peers' GC floor
	// (it lost its log, or was down long past the GC window). Snapshot returns
	// an opaque encoding of the application state after every applied entry
	// so far; Restore installs such an encoding in place of the per-entry
	// Apply calls for the skipped prefix. Restore runs where Apply runs: on
	// the applier goroutine (or synchronously during New when the applied
	// log ends in a state-transfer marker).
	Snapshot func() []byte
	Restore  func(through uint64, state []byte)

	// keepWindow is how many applied instances are retained below the
	// collective done floor so restarted members can catch up from peers
	// (default 256); the GC tests shrink it.
	keepWindow uint64
}

func (o Options) withDefaults() Options {
	if o.Retry <= 0 {
		o.Retry = 50 * time.Millisecond
	}
	if o.SyncEvery <= 0 {
		o.SyncEvery = 500 * time.Millisecond
	}
	if o.keepWindow == 0 {
		o.keepWindow = 256
	}
	return o
}

// Metrics is a consensus node's observability snapshot (the serve metrics
// endpoint renders it; fail-over is watched through these numbers).
type Metrics struct {
	Quorum      int    `json:"quorum"`
	Peers       int    `json:"peers"`
	MaxProposed uint64 `json:"max_proposed"` // highest instance this member opened a ballot for
	MaxAccepted uint64 `json:"max_accepted"` // highest instance this member accepted a value in
	MaxDecided  uint64 `json:"max_decided"`  // highest instance known decided
	Applied     uint64 `json:"applied"`      // applied frontier (== done advertised to peers)
	Floor       uint64 `json:"gc_floor"`     // instances at or below are forgotten
	Proposals   uint64 `json:"proposals"`    // Submit calls
	NoopFills   uint64 `json:"noop_fills"`   // gap instances this member filled
}

var errClosed = errors.New("consensus: closed")

// compactAt is how many votes the acceptor log takes before it is rewritten
// down to the live ones.
const compactAt = 4096

// Node is one member's consensus node: the state and the shell around it.
type Node struct {
	sender Sender
	apply  Apply

	sh *shell.Shell[effect]
	*state
	started bool                   // the timer runs from Start on
	waiters map[uint64]chan uint64 // blocked Submits by Seq
	queue   []logEntry             // handed to the applier, not yet applied

	log     *frameLog[logEntry]
	acc     *frameLog[accEntry]
	applyCh chan struct{}
}

// New builds a consensus node for self over the fixed peer set (self must be
// listed). When Options.LogPath names an existing log, its entries replay
// through apply before New returns. Call Start to run the applier and the
// timer, Handle on every incoming consensus frame.
func New(self string, peers []string, send Sender, apply Apply, opts Options) (*Node, error) {
	opts = opts.withDefaults()
	st := newState(self, peers, opts, uint64(time.Now().UnixNano()))
	if st == nil {
		return nil, fmt.Errorf("consensus: self %q not in peer set %v", self, peers)
	}
	n := &Node{
		sender:  send,
		apply:   apply,
		state:   st,
		waiters: map[uint64]chan uint64{},
		applyCh: make(chan struct{}, 1),
	}
	n.sh = shell.New(n.flush, func(e effect) (time.Time, bool) { return e.when, e.kind == effArmTimer && n.started },
		func(now time.Time, buf []effect) []effect { return n.run(n.step(now, "", tick{}), buf) })
	if opts.LogPath == "" {
		return n, nil
	}
	entries, lw, err := openFrameLog[logEntry](opts.LogPath)
	if err != nil {
		return nil, err
	}
	votes, aw, err := openFrameLog[accEntry](opts.LogPath + ".acc")
	if err != nil {
		lw.close()
		return nil, err
	}
	n.log, n.acc = lw, aw
	for _, e := range st.replay(entries, votes) {
		n.applyEntry(e.entry)
	}
	return n, nil
}

// snapshotMarker is the Command.Kind of the applied log's state-transfer
// marker entries. Appliers never see it (it stands in for entries, it is not
// one), so the name cannot collide with real command kinds.
const snapshotMarker = "\x00snapshot"

// applyEntry runs Apply for one entry, or Restore for a marker.
func (n *Node) applyEntry(e logEntry) {
	if e.Cmd.Kind != snapshotMarker {
		n.apply(e.Instance, e.Cmd)
	} else if n.opts.Restore != nil {
		n.opts.Restore(e.Instance, []byte(e.Cmd.Text))
	}
}

// Start runs the applier on the shell's runner and the first tick, which
// starts the catch-up cadence; the timer runs from here on.
func (n *Node) Start() {
	n.sh.Go(n.applyLoop)
	n.sh.Step(func(now time.Time, buf []effect) []effect {
		n.started = true
		return n.run(n.step(now, "", tick{}), buf)
	})
}

// Close stops the timer and the applier. In-flight Submits return with an
// error.
func (n *Node) Close() {
	if n.sh.Close() {
		n.log.close()
		n.acc.close()
	}
}

// Metrics snapshots the observability counters.
func (n *Node) Metrics() Metrics {
	n.sh.Lock()
	defer n.sh.Unlock()
	m := Metrics{
		Quorum:      n.quorum,
		Peers:       len(n.peers),
		MaxProposed: n.proposed,
		MaxAccepted: n.accepted,
		MaxDecided:  n.applied,
		Applied:     n.applied,
		Floor:       n.floor,
		Proposals:   n.props,
		NoopFills:   n.noops,
	}
	for i, in := range n.insts {
		if in.decided && i > m.MaxDecided {
			m.MaxDecided = i
		}
	}
	return m
}

// Submit proposes cmd and blocks until it is decided at some instance (whose
// number it returns) or ctx expires. Origin and Seq are stamped here; the
// caller's other fields travel verbatim. A minority-partitioned member blocks
// in Submit until the partition heals — by design, that member must not make
// control-plane progress.
func (n *Node) Submit(ctx context.Context, cmd wire.Command) (uint64, error) {
	return n.submit(ctx, submitCmd{cmd})
}

// Propose is Submit at one instance: when another value is decided at the
// instance it is trying, it gives up and returns 0, so a command premised on
// the log the caller read does not land past entries it never read. The
// caller reads the new entries and proposes again if it still must.
func (n *Node) Propose(ctx context.Context, cmd wire.Command) (uint64, error) {
	return n.submit(ctx, proposeCmd{cmd})
}

func (n *Node) submit(ctx context.Context, ev any) (uint64, error) {
	decided := make(chan uint64, 1)
	var seq uint64
	if !n.sh.Step(func(now time.Time, buf []effect) []effect {
		effs := n.step(now, "", ev)
		seq = n.seq
		n.waiters[seq] = decided
		return n.run(effs, buf)
	}) {
		return 0, errClosed
	}
	select {
	case at := <-decided:
		return at, nil
	case <-ctx.Done():
	case <-n.sh.Done():
	}
	n.sh.Step(func(now time.Time, buf []effect) []effect {
		delete(n.waiters, seq)
		return n.run(n.step(now, "", abandon{seq}), buf)
	})
	select {
	case at := <-decided: // decided while we gave up
		return at, nil
	default:
	}
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	return 0, errClosed
}

// Handle consumes one consensus frame; it reports false when the envelope is
// not consensus vocabulary (the cluster dispatcher then routes it onward).
func (n *Node) Handle(env wire.Envelope) bool {
	if _, ok := frameDone(env.Msg); !ok {
		return false
	}
	n.deliver(env.From, env.Msg)
	return true
}

// deliver steps one event.
func (n *Node) deliver(from string, ev any) {
	n.sh.Step(func(now time.Time, buf []effect) []effect { return n.run(n.step(now, from, ev), buf) })
}

// run carries out the effects that must happen under the lock, in order:
// votes are fsynced and entries appended before any frame leaves, entries go
// to the applier's queue and decided submits to their waiters. It appends to
// buf what the shell does after the lock — the sends, the snapshots to serve
// (flush) and the timer arm.
func (n *Node) run(effs, buf []effect) []effect {
	for _, e := range effs {
		switch e.kind {
		case effPersistVote:
			n.acc.append(e.vote, true)
			if n.acc != nil && n.acc.count >= compactAt {
				n.acc.rewrite(n.liveVotes())
			}
		case effAppend:
			if e.entry.Cmd.Kind == snapshotMarker {
				n.log.rewrite([]logEntry{e.entry})
			} else {
				n.log.append(e.entry, false)
			}
		case effApply:
			n.queue = append(n.queue, e.entry)
			select {
			case n.applyCh <- struct{}{}:
			default:
			}
		case effComplete:
			if ch, ok := n.waiters[e.seq]; ok {
				delete(n.waiters, e.seq)
				select {
				case ch <- e.at: // buffered, one value ever
				default:
				}
			}
		default:
			buf = append(buf, e)
		}
	}
	return buf
}

// flush sends what run left for after the lock.
func (n *Node) flush(later []effect) {
	for _, e := range later {
		switch e.kind {
		case effSend:
			_ = n.sender(e.to, e.msg)
		case effServeSnapshot:
			if snap, ok := n.takeSnapshot(); ok {
				_ = n.sender(e.to, snap)
			}
		}
	}
}

// takeSnapshot captures the application state together with the applied
// frontier it covers. The two reads race the applier, so retry until a
// Snapshot call is bracketed by an unchanged frontier; a busy applier just
// defers the transfer to the requester's next catch-up round.
func (n *Node) takeSnapshot() (wire.Snapshot, bool) {
	for tries := 0; tries < 4; tries++ {
		n.sh.Lock()
		before := n.applied
		n.sh.Unlock()
		state := n.opts.Snapshot()
		n.sh.Lock()
		after := n.applied
		n.sh.Unlock()
		if before == after {
			return wire.Snapshot{Through: after, State: state, Done: after}, true
		}
	}
	return wire.Snapshot{}, false
}

// applyLoop runs the queued Apply and Restore calls in order, reporting
// each back to the step once it returns: applied (and done) pass an entry
// only once it is applied, so a snapshot bracketed by applied never claims
// an entry its state lacks.
func (n *Node) applyLoop(ctx context.Context) {
	for {
		select {
		case <-ctx.Done():
			return
		case <-n.applyCh:
		}
		for {
			n.sh.Lock()
			if len(n.queue) == 0 || n.sh.Closed() {
				n.sh.Unlock()
				break
			}
			e := n.queue[0]
			n.queue = n.queue[1:]
			n.sh.Unlock()
			n.applyEntry(e)
			n.deliver("", appliedThrough{e.Instance})
		}
	}
}
