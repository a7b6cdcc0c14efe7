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
//     filled with no-ops after GapFill.
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
// must pull the floor back down), and instances below min(done)-KeepWindow
// are forgotten.
package consensus

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"repro/internal/wire"
)

// Sender ships one consensus frame to a named peer. Sends are asynchronous
// and may fail silently — the proposer retry loop, the Learn echo on decided
// instances and the catch-up ticker together tolerate arbitrary loss.
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
	// SyncEvery is the catch-up ticker cadence (default 500ms): each tick
	// advertises the done-frontier to one peer round-robin and pulls any
	// decided instances this member missed.
	SyncEvery time.Duration
	// GapFill is how long an undecided instance may block the applier while
	// later instances are known decided before a no-op is proposed for it
	// (default 4×Retry). Gaps appear when a proposer dies between Accept and
	// Learn.
	GapFill time.Duration
	// KeepWindow is how many applied instances are retained below the
	// collective done floor so restarted members can catch up from peers
	// (default 256).
	KeepWindow uint64
	// LogPath, when set, appends every applied entry to this file and
	// replays it on construction (through Apply) before any message flows.
	// The acceptor log at LogPath+".acc" rides along: this member's votes
	// are fsynced there before each Promise/Accepted reply, so a restarted
	// member still honours them (without LogPath a crash-restart can break
	// agreement; see the package comment).
	LogPath string
	// Snapshot and Restore, when both set, enable state-transfer catch-up
	// for a member whose applied frontier fell below its peers' GC floor
	// (it lost its log, or was down long past KeepWindow). Snapshot returns
	// an opaque encoding of the application state after every applied entry
	// so far; Restore installs such an encoding in place of the per-entry
	// Apply calls for the skipped prefix. Restore runs where Apply runs: on
	// the applier goroutine (or synchronously during New when the applied
	// log ends in a state-transfer marker).
	Snapshot func() []byte
	Restore  func(through uint64, state []byte)
}

func (o Options) withDefaults() Options {
	if o.Retry <= 0 {
		o.Retry = 50 * time.Millisecond
	}
	if o.SyncEvery <= 0 {
		o.SyncEvery = 500 * time.Millisecond
	}
	if o.GapFill <= 0 {
		o.GapFill = 4 * o.Retry
	}
	if o.KeepWindow == 0 {
		o.KeepWindow = 256
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

// inst is one log instance's acceptor/learner state.
type inst struct {
	promised  uint64 // highest ballot promised (acceptor phase 1)
	accBallot uint64 // highest ballot accepted (acceptor phase 2)
	accVal    wire.Command
	decided   bool
	val       wire.Command
	gapSince  time.Time // when the applier first saw this instance block a decided successor
}

// round collects one proposer ballot's votes.
type round struct {
	promises map[string]wire.Promise
	accepts  map[string]wire.Accepted
}

type roundKey struct {
	instance, ballot uint64
}

// Node is one member's consensus state over the fixed peer set.
type Node struct {
	self   string
	peers  []string // sorted, includes self
	idx    uint64   // self's position (ballot uniqueness)
	quorum int
	send   Sender
	apply  Apply
	opts   Options

	mu       sync.Mutex
	insts    map[uint64]*inst
	rounds   map[roundKey]*round
	done     map[string]uint64 // latest done-frontier reported per peer
	applied  uint64            // contiguous applied frontier
	floor    uint64            // GC floor: instances <= floor forgotten
	maxSeen  uint64            // highest instance seen in any message
	seq      uint64            // Submit sequence (Origin#Seq dedup)
	chosen   map[uint64]uint64 // our Seq -> instance it was decided at
	proposed uint64            // metrics: highest instance we opened a ballot for
	accepted uint64            // metrics: highest instance we accepted in
	props    uint64            // metrics: Submit count
	noops    uint64            // metrics: gap fills
	filling  map[uint64]bool   // instances with an in-flight gap-fill proposer
	balK     uint64            // proposer ballot epoch (see nextBallot)
	rrNext   int               // round-robin catch-up target
	closed   bool

	log     *frameLog[logEntry]
	acc     *frameLog[accEntry]
	snap    *wire.Snapshot // pending state transfer, installed by the applier
	applyCh chan struct{}
	quit    chan struct{}
	wg      sync.WaitGroup
}

// New builds a consensus node for self over the fixed peer set (self must be
// listed). When Options.LogPath names an existing log, its entries replay
// through apply before New returns. Call Start to run the applier and
// catch-up loops, Handle on every incoming consensus frame.
func New(self string, peers []string, send Sender, apply Apply, opts Options) (*Node, error) {
	opts = opts.withDefaults()
	sorted := append([]string(nil), peers...)
	sort.Strings(sorted)
	idx := -1
	for i, p := range sorted {
		if p == self {
			idx = i
		}
	}
	if idx < 0 {
		return nil, fmt.Errorf("consensus: self %q not in peer set %v", self, sorted)
	}
	n := &Node{
		self:    self,
		peers:   sorted,
		idx:     uint64(idx),
		quorum:  len(sorted)/2 + 1,
		send:    send,
		apply:   apply,
		opts:    opts,
		insts:   map[uint64]*inst{},
		rounds:  map[roundKey]*round{},
		done:    map[string]uint64{},
		chosen:  map[uint64]uint64{},
		filling: map[uint64]bool{},
		applyCh: make(chan struct{}, 1),
		quit:    make(chan struct{}),
	}
	if opts.LogPath != "" {
		entries, w, err := openFrameLog[logEntry](opts.LogPath)
		if err != nil {
			return nil, err
		}
		n.log = w
		for _, e := range entries {
			if e.Cmd.Kind == snapshotMarker {
				// A state-transfer marker: entries up to Instance were never
				// held locally; the recorded state stands in for them.
				if e.Instance < n.applied {
					break // implausible ordering: trust only the prefix so far
				}
				n.applied = e.Instance
				if e.Instance > n.maxSeen {
					n.maxSeen = e.Instance
				}
				if e.Instance > n.floor {
					n.floor = e.Instance
				}
				if opts.Restore != nil {
					opts.Restore(e.Instance, []byte(e.Cmd.Text))
				}
				continue
			}
			if e.Instance != n.applied+1 {
				// A torn or reordered log tail: trust only the contiguous
				// prefix, the rest comes back through catch-up.
				break
			}
			n.applied = e.Instance
			if e.Instance > n.maxSeen {
				n.maxSeen = e.Instance
			}
			if e.Cmd.Origin == self {
				n.chosen[e.Cmd.Seq] = e.Instance
				if e.Cmd.Seq >= n.seq {
					n.seq = e.Cmd.Seq
				}
			}
			apply(e.Instance, e.Cmd)
		}
		n.done[self] = n.applied

		// Replay this member's durable votes for instances still in play, so
		// promises and accepted values survive a crash-restart (the agreement
		// guarantee; see the package comment). Stale votes — instances already
		// applied or below the floor — are dropped here and removed from the
		// file at the next compaction.
		votes, aw, err := openFrameLog[accEntry](opts.LogPath + ".acc")
		if err != nil {
			n.log.close()
			return nil, err
		}
		n.acc = aw
		for _, v := range votes {
			if v.Instance <= n.applied || v.Instance <= n.floor {
				continue
			}
			in := &inst{promised: v.Promised, accBallot: v.AccBallot}
			if v.HasVal {
				in.accVal = v.Val
			}
			n.insts[v.Instance] = in // latest entry per instance wins
			if v.Instance > n.maxSeen {
				n.maxSeen = v.Instance
			}
		}
	}
	return n, nil
}

// snapshotMarker is the Command.Kind of the applied log's state-transfer
// marker entries. Appliers never see it (it stands in for entries, it is not
// one), so the name cannot collide with real command kinds.
const snapshotMarker = "\x00snapshot"

// Start runs the applier and catch-up goroutines.
func (n *Node) Start() {
	n.wg.Add(2)
	go n.applyLoop()
	go n.syncLoop()
}

// Close stops the loops. In-flight Submits return with an error.
func (n *Node) Close() {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	n.closed = true
	n.mu.Unlock()
	close(n.quit)
	n.wg.Wait()
	n.log.close()
	n.acc.close()
}

// Self returns the member name.
func (n *Node) Self() string { return n.self }

// Quorum returns the majority size over the fixed peer set.
func (n *Node) Quorum() int { return n.quorum }

// Metrics snapshots the observability counters.
func (n *Node) Metrics() Metrics {
	n.mu.Lock()
	defer n.mu.Unlock()
	m := Metrics{
		Quorum:      n.quorum,
		Peers:       len(n.peers),
		MaxProposed: n.proposed,
		MaxAccepted: n.accepted,
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
	if n.applied > m.MaxDecided {
		m.MaxDecided = n.applied
	}
	return m
}

// Submit proposes cmd and blocks until it is decided at some instance (whose
// number it returns) or ctx expires. Origin and Seq are stamped here; the
// caller's other fields travel verbatim. A minority-partitioned member blocks
// in Submit until the partition heals — by design, that member must not make
// control-plane progress.
func (n *Node) Submit(ctx context.Context, cmd wire.Command) (uint64, error) {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return 0, fmt.Errorf("consensus: closed")
	}
	n.seq++
	cmd.Origin = n.self
	cmd.Seq = n.seq
	n.props++
	target := n.nextFreeLocked()
	n.mu.Unlock()

	for {
		decidedAt, val, err := n.proposeOnce(ctx, target, cmd)
		if err != nil {
			return 0, err
		}
		if val.Origin == cmd.Origin && val.Seq == cmd.Seq {
			return decidedAt, nil
		}
		// Another proposer won this instance; ours is still unchosen. But a
		// concurrent retry path (gap fill racing us, a peer echoing a Learn)
		// may have decided it elsewhere meanwhile — check before moving on.
		n.mu.Lock()
		if at, ok := n.chosen[cmd.Seq]; ok {
			n.mu.Unlock()
			return at, nil
		}
		next := n.nextFreeLocked()
		n.mu.Unlock()
		if next <= target {
			next = target + 1
		}
		target = next
	}
}

// nextFreeLocked picks the lowest instance not known decided and above
// everything seen so far. Callers hold mu.
func (n *Node) nextFreeLocked() uint64 {
	i := n.maxSeen + 1
	if i <= n.applied {
		i = n.applied + 1
	}
	for {
		if in, ok := n.insts[i]; !ok || !in.decided {
			return i
		}
		i++
	}
}

// proposeOnce drives ONE instance to a decision (retrying ballots with
// backoff until it is decided by anyone) and reports the decided value —
// which may be another proposer's. Paxos obliges a proposer that learns of
// an earlier accepted value to adopt it, so "my command won" is checked by
// the caller, not here.
func (n *Node) proposeOnce(ctx context.Context, instance uint64, cmd wire.Command) (uint64, wire.Command, error) {
	ballot := n.nextBallot(0)
	for attempt := 0; ; attempt++ {
		if done, val := n.decidedValue(instance); done {
			return instance, val, nil
		}
		if err := ctx.Err(); err != nil {
			return 0, wire.Command{}, err
		}
		shift := attempt
		if shift > 4 {
			shift = 4
		}
		base := n.opts.Retry << uint(shift)
		outcome := n.runBallot(ctx, instance, ballot, cmd, 2*base)
		switch outcome.state {
		case ballotDecided:
			return instance, outcome.val, nil
		case ballotRejected:
			// Jump past the conflicting ballot instead of walking.
			ballot = n.nextBallot(outcome.conflict)
		case ballotTimeout:
			ballot = n.nextBallot(ballot)
		}
		// Randomised, exponentially growing backoff un-synchronises duelling
		// proposers: with a fixed interval, N contenders re-arriving faster
		// than a two-phase round completes preempt each other's Accepts
		// forever, and the ballot numbers escalate without a decision.
		pause := base + time.Duration(rand.Int63n(int64(base)))
		select {
		case <-ctx.Done():
			return 0, wire.Command{}, ctx.Err()
		case <-n.quit:
			return 0, wire.Command{}, fmt.Errorf("consensus: closed")
		case <-time.After(pause):
		}
	}
}

// Ballot numbering: ballots are unique per proposer (b ≡ idx mod len(peers),
// offset by one so 0 means "none") and totally ordered across proposers. The
// per-node epoch counter additionally makes every LOCAL round's ballot
// unique: this node's proposers can run concurrently (a Submit against a
// gap-fill no-op, two hosted control verbs), and two rounds sharing one
// (instance, ballot) key would ship two different values under one ballot —
// acceptors could then accept either, splitting a quorum on a single ballot.
// Pass the ballot to beat (a rejection's conflict, or the round's own timed-
// out ballot); zero asks for the next fresh ballot.
func (n *Node) nextBallot(above uint64) uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	k := n.balK + 1
	if ak := above/uint64(len(n.peers)) + 1; ak > k {
		k = ak
	}
	n.balK = k
	return k*uint64(len(n.peers)) + n.idx + 1
}

type ballotState int

const (
	ballotDecided ballotState = iota
	ballotRejected
	ballotTimeout
)

type ballotOutcome struct {
	state    ballotState
	val      wire.Command
	conflict uint64 // rejected: the ballot an acceptor is bound to
}

// runBallot runs one full Prepare/Accept round for (instance, ballot), giving
// each phase up to wait for its quorum.
func (n *Node) runBallot(ctx context.Context, instance, ballot uint64, cmd wire.Command, wait time.Duration) ballotOutcome {
	key := roundKey{instance, ballot}
	n.mu.Lock()
	n.rounds[key] = &round{promises: map[string]wire.Promise{}, accepts: map[string]wire.Accepted{}}
	if instance > n.proposed {
		n.proposed = instance
	}
	done := n.applied
	n.mu.Unlock()
	defer func() {
		n.mu.Lock()
		delete(n.rounds, key)
		n.mu.Unlock()
	}()

	n.broadcast(wire.Prepare{Instance: instance, Ballot: ballot, Done: done})

	// Phase 1: majority of promises (or a rejection / a decision).
	deadline := time.Now().Add(wait)
	var adopted wire.Command
	var adoptedBallot uint64
	useCmd := true
	for {
		n.mu.Lock()
		if in, ok := n.insts[instance]; ok && in.decided {
			val := in.val
			n.mu.Unlock()
			return ballotOutcome{state: ballotDecided, val: val}
		}
		r := n.rounds[key]
		if r == nil {
			// Unreachable by construction (nextBallot makes local round keys
			// unique), but a panic here would unwind into the cleanup defer
			// with n.mu still held and wedge the whole node.
			n.mu.Unlock()
			return ballotOutcome{state: ballotTimeout}
		}
		oks := 0
		var conflict uint64
		for _, p := range r.promises {
			if !p.OK {
				if p.Promised > conflict {
					conflict = p.Promised
				}
				continue
			}
			oks++
			if p.HasVal && p.AccBallot > adoptedBallot {
				adoptedBallot, adopted = p.AccBallot, p.Val
				useCmd = false
			}
		}
		n.mu.Unlock()
		if conflict > 0 {
			return ballotOutcome{state: ballotRejected, conflict: conflict}
		}
		if oks >= n.quorum {
			break
		}
		if time.Now().After(deadline) {
			return ballotOutcome{state: ballotTimeout}
		}
		if !sleepCtx(ctx, n.quit, 2*time.Millisecond) {
			return ballotOutcome{state: ballotTimeout}
		}
	}

	val := cmd
	if !useCmd {
		val = adopted
	}
	n.broadcast(wire.Accept{Instance: instance, Ballot: ballot, Val: val, Done: done})

	// Phase 2: majority of accepts.
	deadline = time.Now().Add(wait)
	for {
		n.mu.Lock()
		if in, ok := n.insts[instance]; ok && in.decided {
			v := in.val
			n.mu.Unlock()
			return ballotOutcome{state: ballotDecided, val: v}
		}
		r := n.rounds[key]
		if r == nil {
			n.mu.Unlock()
			return ballotOutcome{state: ballotTimeout}
		}
		oks := 0
		var conflict uint64
		for _, a := range r.accepts {
			if !a.OK {
				if a.Promised > conflict {
					conflict = a.Promised
				}
				continue
			}
			oks++
		}
		n.mu.Unlock()
		if conflict > 0 {
			return ballotOutcome{state: ballotRejected, conflict: conflict}
		}
		if oks >= n.quorum {
			n.decide(instance, val)
			n.broadcast(wire.Learn{Instance: instance, Val: val, Done: done})
			return ballotOutcome{state: ballotDecided, val: val}
		}
		if time.Now().After(deadline) {
			return ballotOutcome{state: ballotTimeout}
		}
		if !sleepCtx(ctx, n.quit, 2*time.Millisecond) {
			return ballotOutcome{state: ballotTimeout}
		}
	}
}

// sleepCtx pauses briefly, returning false when ctx or quit fired.
func sleepCtx(ctx context.Context, quit <-chan struct{}, d time.Duration) bool {
	select {
	case <-ctx.Done():
		return false
	case <-quit:
		return false
	case <-time.After(d):
		return true
	}
}

// decidedValue reports whether instance is known decided, and its value.
func (n *Node) decidedValue(instance uint64) (bool, wire.Command) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if instance <= n.applied {
		// Applied but possibly forgotten: report decided with what we have.
		if in, ok := n.insts[instance]; ok {
			return true, in.val
		}
		return true, wire.Command{Kind: "noop"}
	}
	if in, ok := n.insts[instance]; ok && in.decided {
		return true, in.val
	}
	return false, wire.Command{}
}

// broadcast ships one frame to every peer; the self-copy short-circuits
// through Handle without touching the transport.
func (n *Node) broadcast(msg wire.Message) {
	for _, p := range n.peers {
		if p == n.self {
			n.Handle(wire.Envelope{From: n.self, To: n.self, Msg: msg})
			continue
		}
		_ = n.send(p, msg)
	}
}

// reply ships one frame to a single peer (self short-circuits as above).
func (n *Node) reply(to string, msg wire.Message) {
	if to == n.self {
		n.Handle(wire.Envelope{From: n.self, To: n.self, Msg: msg})
		return
	}
	_ = n.send(to, msg)
}

// Handle consumes one consensus frame; it reports false when the envelope is
// not consensus vocabulary (the cluster dispatcher then routes it onward).
// Frames from names outside the fixed peer set are dropped: a coordinator or
// a renamed process must not vote.
func (n *Node) Handle(env wire.Envelope) bool {
	switch m := env.Msg.(type) {
	case wire.Prepare:
		if !n.isPeer(env.From) {
			return true
		}
		n.observeDone(env.From, m.Done)
		n.handlePrepare(env.From, m)
	case wire.Promise:
		if !n.isPeer(env.From) {
			return true
		}
		n.observeDone(env.From, m.Done)
		n.recordPromise(env.From, m)
	case wire.Accept:
		if !n.isPeer(env.From) {
			return true
		}
		n.observeDone(env.From, m.Done)
		n.handleAccept(env.From, m)
	case wire.Accepted:
		if !n.isPeer(env.From) {
			return true
		}
		n.observeDone(env.From, m.Done)
		n.recordAccepted(env.From, m)
	case wire.Learn:
		if !n.isPeer(env.From) {
			return true
		}
		n.observeDone(env.From, m.Done)
		n.decide(m.Instance, m.Val)
	case wire.CatchUp:
		if !n.isPeer(env.From) {
			return true
		}
		n.observeDone(env.From, m.Done)
		n.handleCatchUp(env.From, m)
	case wire.Snapshot:
		if !n.isPeer(env.From) {
			return true
		}
		n.observeDone(env.From, m.Done)
		n.acceptSnapshot(m)
	default:
		return false
	}
	return true
}

func (n *Node) isPeer(name string) bool {
	for _, p := range n.peers {
		if p == name {
			return true
		}
	}
	return false
}

// instLocked returns (creating if needed) the state of one instance. Callers
// hold mu. Forgotten instances (at or below the GC floor) return nil.
func (n *Node) instLocked(i uint64) *inst {
	if i <= n.floor {
		return nil
	}
	in, ok := n.insts[i]
	if !ok {
		in = &inst{}
		n.insts[i] = in
	}
	if i > n.maxSeen {
		n.maxSeen = i
	}
	return in
}

func (n *Node) handlePrepare(from string, m wire.Prepare) {
	n.mu.Lock()
	in := n.instLocked(m.Instance)
	if in == nil {
		n.mu.Unlock()
		return // forgotten: globally applied, nothing to promise
	}
	if in.decided {
		msg := wire.Learn{Instance: m.Instance, Val: in.val, Done: n.applied}
		n.mu.Unlock()
		n.reply(from, msg)
		return
	}
	var msg wire.Promise
	if m.Ballot > in.promised {
		in.promised = m.Ballot
		n.persistVoteLocked(m.Instance, in)
		msg = wire.Promise{Instance: m.Instance, Ballot: m.Ballot, OK: true,
			AccBallot: in.accBallot, HasVal: in.accBallot > 0, Val: in.accVal, Done: n.applied}
	} else {
		msg = wire.Promise{Instance: m.Instance, Ballot: m.Ballot, Promised: in.promised, Done: n.applied}
	}
	n.mu.Unlock()
	n.reply(from, msg)
}

func (n *Node) handleAccept(from string, m wire.Accept) {
	n.mu.Lock()
	in := n.instLocked(m.Instance)
	if in == nil {
		n.mu.Unlock()
		return
	}
	if in.decided {
		msg := wire.Learn{Instance: m.Instance, Val: in.val, Done: n.applied}
		n.mu.Unlock()
		n.reply(from, msg)
		return
	}
	var msg wire.Accepted
	if m.Ballot >= in.promised {
		in.promised = m.Ballot
		in.accBallot = m.Ballot
		in.accVal = m.Val
		n.persistVoteLocked(m.Instance, in)
		if m.Instance > n.accepted {
			n.accepted = m.Instance
		}
		msg = wire.Accepted{Instance: m.Instance, Ballot: m.Ballot, OK: true, Done: n.applied}
	} else {
		msg = wire.Accepted{Instance: m.Instance, Ballot: m.Ballot, Promised: in.promised, Done: n.applied}
	}
	n.mu.Unlock()
	n.reply(from, msg)
}

// persistVoteLocked makes one acceptor vote durable before its reply leaves
// (callers hold mu and send the Promise/Accepted only after this returns).
// Once the file accumulates enough dead entries it is compacted down to the
// live votes — instances above the floor and not yet decided. No-op for
// memory-only nodes.
func (n *Node) persistVoteLocked(instance uint64, in *inst) {
	if n.acc == nil {
		return
	}
	n.acc.append(accEntry{
		Instance:  instance,
		Promised:  in.promised,
		AccBallot: in.accBallot,
		HasVal:    in.accBallot > 0,
		Val:       in.accVal,
	}, true)
	const compactAt = 4096
	if n.acc.count < compactAt {
		return
	}
	var live []accEntry
	for i, st := range n.insts {
		if i <= n.floor || st.decided || (st.promised == 0 && st.accBallot == 0) {
			continue
		}
		live = append(live, accEntry{Instance: i, Promised: st.promised,
			AccBallot: st.accBallot, HasVal: st.accBallot > 0, Val: st.accVal})
	}
	n.acc.rewrite(live)
}

func (n *Node) recordPromise(from string, m wire.Promise) {
	n.mu.Lock()
	if r, ok := n.rounds[roundKey{m.Instance, m.Ballot}]; ok {
		r.promises[from] = m
	}
	n.mu.Unlock()
}

func (n *Node) recordAccepted(from string, m wire.Accepted) {
	n.mu.Lock()
	if r, ok := n.rounds[roundKey{m.Instance, m.Ballot}]; ok {
		r.accepts[from] = m
	}
	n.mu.Unlock()
}

func (n *Node) handleCatchUp(from string, m wire.CatchUp) {
	const maxLearns = 64
	n.mu.Lock()
	// A request below the GC floor asks for instances this member has
	// forgotten: no Learn can serve it, so a member that lost its log would
	// stall at applied zero forever (and its zero done-frontier would halt GC
	// cluster-wide). State transfer covers the forgotten prefix instead.
	needSnap := m.From <= n.floor && n.opts.Snapshot != nil
	var out []wire.Learn
	for i := m.From; i <= n.maxSeen && len(out) < maxLearns; i++ {
		if in, ok := n.insts[i]; ok && in.decided {
			out = append(out, wire.Learn{Instance: i, Val: in.val, Done: n.applied})
		}
	}
	n.mu.Unlock()
	if needSnap {
		if snap, ok := n.takeSnapshot(); ok {
			n.reply(from, snap)
		}
	}
	for _, l := range out {
		n.reply(from, l)
	}
}

// takeSnapshot captures the application state together with the applied
// frontier it covers. The two reads race the applier, so retry until a
// Snapshot call is bracketed by an unchanged frontier; a busy applier just
// defers the transfer to the requester's next catch-up tick.
func (n *Node) takeSnapshot() (wire.Snapshot, bool) {
	for tries := 0; tries < 4; tries++ {
		n.mu.Lock()
		before := n.applied
		n.mu.Unlock()
		state := n.opts.Snapshot()
		n.mu.Lock()
		after := n.applied
		n.mu.Unlock()
		if before == after {
			return wire.Snapshot{Through: after, State: state, Done: after}, true
		}
	}
	return wire.Snapshot{}, false
}

// acceptSnapshot queues a received state transfer for the applier (Restore
// must run where Apply runs, strictly ordered against it). Snapshots that
// do not advance the applied frontier are dropped.
func (n *Node) acceptSnapshot(m wire.Snapshot) {
	if n.opts.Restore == nil {
		return
	}
	n.mu.Lock()
	if m.Through <= n.applied || (n.snap != nil && n.snap.Through >= m.Through) {
		n.mu.Unlock()
		return
	}
	n.snap = &m
	n.mu.Unlock()
	select {
	case n.applyCh <- struct{}{}:
	default:
	}
}

// decide marks an instance decided and wakes the applier.
func (n *Node) decide(instance uint64, val wire.Command) {
	n.mu.Lock()
	in := n.instLocked(instance)
	if in == nil || in.decided {
		n.mu.Unlock()
		return
	}
	in.decided = true
	in.val = val
	if val.Origin == n.self {
		n.chosen[val.Seq] = instance
	}
	n.mu.Unlock()
	select {
	case n.applyCh <- struct{}{}:
	default:
	}
}

// observeDone records a peer's advertised applied frontier. Latest wins, not
// maximum: a restarted member re-reports zero, and the floor must follow it
// back down so GC pauses until the member has caught up.
func (n *Node) observeDone(peer string, done uint64) {
	n.mu.Lock()
	n.done[peer] = done
	n.mu.Unlock()
}

// applyLoop applies decided instances in order and garbage-collects below
// the collective done floor (minus the keep window).
func (n *Node) applyLoop() {
	defer n.wg.Done()
	for {
		select {
		case <-n.quit:
			return
		case <-n.applyCh:
		}
		for {
			n.mu.Lock()
			if s := n.installSnapshotLocked(); /* unlocks when non-nil */ s != nil {
				n.opts.Restore(s.Through, s.State)
				continue
			}
			// A cursor of its own reads the batch: applied (and done) pass
			// an entry only once it is applied, so a snapshot bracketed by
			// applied never claims an entry its state lacks.
			var batch []wire.Command
			first := n.applied + 1
			for {
				in, ok := n.insts[first+uint64(len(batch))]
				if !ok || !in.decided {
					break
				}
				batch = append(batch, in.val)
			}
			n.gcLocked()
			n.mu.Unlock()
			if len(batch) == 0 {
				break
			}
			for i, cmd := range batch {
				n.log.append(logEntry{Instance: first + uint64(i), Cmd: cmd}, false)
				n.apply(first+uint64(i), cmd)
				n.mu.Lock()
				n.applied = first + uint64(i)
				n.done[n.self] = n.applied
				n.mu.Unlock()
			}
		}
	}
}

// installSnapshotLocked moves the node past a queued state transfer: the
// applied frontier jumps to Through, everything at or below it is forgotten
// (the floor follows — this member cannot serve a prefix it never held), and
// the applied log restarts from a marker entry so the next replay restores
// the same state instead of finding a gap. Called with mu held; when a
// transfer was pending it unlocks mu and returns it so the caller can run
// Restore (and then re-check for decided successors), otherwise mu stays
// held and nil is returned.
func (n *Node) installSnapshotLocked() *wire.Snapshot {
	s := n.snap
	n.snap = nil
	if s == nil || s.Through <= n.applied {
		return nil
	}
	for i := range n.insts {
		if i <= s.Through {
			delete(n.insts, i)
		}
	}
	n.applied = s.Through
	if s.Through > n.maxSeen {
		n.maxSeen = s.Through
	}
	if s.Through > n.floor {
		n.floor = s.Through
	}
	n.done[n.self] = n.applied
	n.mu.Unlock()
	n.log.rewrite([]logEntry{{Instance: s.Through,
		Cmd: wire.Command{Kind: snapshotMarker, Text: string(s.State)}}})
	return s
}

// gcLocked forgets instances every peer has applied, keeping a tail window
// for restarted members. Callers hold mu.
func (n *Node) gcLocked() {
	min := n.applied
	for _, p := range n.peers {
		if d := n.done[p]; d < min {
			min = d
		}
	}
	if min <= n.opts.KeepWindow {
		return
	}
	floor := min - n.opts.KeepWindow
	if floor <= n.floor {
		return
	}
	for i := n.floor + 1; i <= floor; i++ {
		delete(n.insts, i)
	}
	n.floor = floor
}

// syncLoop is the catch-up ticker: every SyncEvery it advertises the applied
// frontier to one peer round-robin (pulling any decided instances this member
// missed), and fills gaps that have blocked the applier past GapFill with
// no-op proposals.
func (n *Node) syncLoop() {
	defer n.wg.Done()
	ticker := time.NewTicker(n.opts.SyncEvery)
	defer ticker.Stop()
	for {
		select {
		case <-n.quit:
			return
		case <-ticker.C:
		}

		n.mu.Lock()
		// Behind (a later instance is known or advertised beyond applied)?
		behind := n.maxSeen > n.applied
		for _, d := range n.done {
			if d > n.applied {
				behind = true
			}
		}
		var target string
		if len(n.peers) > 1 {
			for range n.peers {
				t := n.peers[n.rrNext%len(n.peers)]
				n.rrNext++
				if t != n.self {
					target = t
					break
				}
			}
		}
		msg := wire.CatchUp{From: n.applied + 1, Done: n.applied}

		// Gap fill: the lowest unapplied instance undecided while a higher
		// one is decided means its proposer died mid-round; propose a no-op
		// so the applier can move (Paxos adopts any already-accepted value
		// instead, so a merely-slow proposer's command survives).
		var gap uint64
		if behind {
			i := n.applied + 1
			in, ok := n.insts[i]
			if !ok || !in.decided {
				if ok && in.gapSince.IsZero() {
					in.gapSince = time.Now()
				} else if !ok {
					in = n.instLocked(i)
					if in != nil {
						in.gapSince = time.Now()
					}
				}
				// Stagger the trigger by member index: the lowest-index member
				// fills first and the others step in only if the gap outlives
				// their (longer) fuse — N symmetric fillers would duel.
				fuse := n.opts.GapFill * time.Duration(1+n.idx)
				if in != nil && !in.gapSince.IsZero() && time.Since(in.gapSince) > fuse &&
					n.decidedAboveLocked(i) && !n.filling[i] {
					// One in-flight filler per instance: stacking a fresh
					// proposer on every tick escalates ballots faster than any
					// of them can finish both phases — with several members
					// doing the same, the instance livelocks and the applier
					// (and everything folded from the log) stalls behind it.
					gap = i
					n.filling[i] = true
					in.gapSince = time.Now() // restart the clock; don't spam proposals
				}
			}
		}
		n.mu.Unlock()

		if target != "" {
			_ = n.send(target, msg)
		}
		if gap > 0 {
			n.mu.Lock()
			n.noops++
			n.mu.Unlock()
			//lint:allow goroshutdown bounded by the 40×Retry context below; the filling guard caps it at one per instance
			go func(i uint64) {
				// A generous budget: a filler that dies mid-duel just forces
				// its successor to an even higher ballot. The filling guard
				// above keeps this to one proposer per instance per member.
				ctx, cancel := context.WithTimeout(context.Background(), 40*n.opts.Retry)
				defer cancel()
				_, _, _ = n.proposeOnce(ctx, i, wire.Command{Kind: "noop", Origin: n.self})
				n.mu.Lock()
				delete(n.filling, i)
				n.mu.Unlock()
			}(gap)
		}
	}
}

// decidedAboveLocked reports whether any instance above i is known decided —
// the applier is genuinely blocked, not merely idle. Callers hold mu.
func (n *Node) decidedAboveLocked(i uint64) bool {
	for j, in := range n.insts {
		if j > i && in.decided {
			return true
		}
	}
	return false
}
