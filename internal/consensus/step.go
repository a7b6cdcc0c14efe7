package consensus

import (
	"slices"
	"time"

	"repro/internal/wire"
)

// The log as one pure step (see the package doc). TestPeerStepIsPure keeps
// this file free of locks, clocks, goroutines, package-level randomness and
// I/O.

// state is one member's acceptor, learner and proposer state. Node guards it
// with its mutex.
type state struct {
	self   string
	peers  []string // sorted, includes self
	idx    uint64   // self's position (ballot uniqueness)
	quorum int
	opts   Options // step reads the policy fields; Snapshot and Restore are the shell's to call

	insts     map[uint64]*inst
	done      map[string]uint64 // latest done-frontier reported per peer
	applied   uint64            // Apply (or Restore) has returned through here
	queued    uint64            // handed to the applier through here
	floor     uint64            // GC floor: instances <= floor forgotten
	maxSeen   uint64            // highest instance seen in any message
	seq       uint64            // Submit sequence (Origin#Seq)
	proposals []*proposal       // in flight: this member's submits and gap fills
	balK      uint64            // proposer ballot epoch (see nextBallot)
	rrNext    int               // round-robin catch-up target
	pulled    uint64            // the first missing instance last asked for at once (pull)
	rng       uint64            // jitter source (xorshift; never zero)
	nextSync  time.Time         // when the next catch-up round is due
	armed     time.Time         // when the armed timer fires (zero: not armed)

	proposed uint64 // metrics: highest instance we opened a ballot for
	accepted uint64 // metrics: highest instance we accepted in
	props    uint64 // metrics: Submit count
	noops    uint64 // metrics: gap fills

	// The step in progress: its time, the frames it sent to this member
	// (handled before it returns) and the effects it has asked for.
	now   time.Time
	inbox []any
	out   []effect
}

// inst is one log instance's acceptor/learner state.
type inst struct {
	promised  uint64 // highest ballot promised (acceptor phase 1)
	accBallot uint64 // highest ballot accepted (acceptor phase 2)
	accVal    wire.Command
	decided   bool
	val       wire.Command
	gapSince  time.Time // when catch-up first saw this instance block a decided successor
}

// proposal is one value this member is driving into the log: a submit, or a
// no-op filling a gap. Each Promise, Accepted or tick advances it; it is
// dropped when its value is decided (or, for a gap fill, its instance is).
type proposal struct {
	seq      uint64 // the submit's Seq; 0 for a gap fill
	once     bool   // a Propose: completes undecided when its instance is lost
	cmd      wire.Command
	instance uint64
	ballot   uint64 // the current round's, or the next one's while pausing
	phase    phase
	votes    map[string]bool // promises (prepare) or accepts (accept) of this round
	adopted  wire.Command    // highest-ballot value among the promises
	adBallot uint64          // its ballot (0: none, propose cmd)
	val      wire.Command    // what the accept phase proposes
	attempt  int
	deadline time.Time // the phase times out, or the pause ends
	expires  time.Time // a gap fill gives up at its first deadline past this
}

type phase uint8

const (
	phasePause   phase = iota // backing off before the next ballot
	phasePrepare              // waiting for a quorum of promises
	phaseAccept               // waiting for a quorum of accepts
)

// effect is one thing a step asks of the shell, in order.
type effect struct {
	kind  effectKind
	to    string       // send, serveSnapshot
	msg   wire.Message // send
	vote  accEntry     // persistVote
	entry logEntry     // appendEntry, apply: a snapshotMarker entry restarts the log / runs Restore
	seq   uint64       // complete: the submit
	at    uint64       // complete: the instance its value was decided at
	when  time.Time    // armTimer
}

type effectKind uint8

const (
	effSend          effectKind = iota // send msg to to
	effPersistVote                     // make vote durable, before the reply it guards
	effAppend                          // append entry to the applied log
	effApply                           // run Apply (or Restore) for entry on the applier
	effServeSnapshot                   // ship the application state to to
	effComplete                        // the submit seq was decided at instance at (0: lost, a Propose)
	effArmTimer                        // deliver a tick at when
)

// The local events beside the consensus frames.
type (
	submitCmd      struct{ cmd wire.Command } // a Submit call: the step stamps Origin and Seq
	proposeCmd     struct{ cmd wire.Command } // a Propose call: a submit at one instance
	abandon        struct{ seq uint64 }       // the Submit's ctx is done
	appliedThrough struct{ instance uint64 }  // the applier returned from entry instance
	tick           struct{}                   // the armed timer fired
)

// newState builds a member's state over the fixed peer set (self must be
// listed); seed drives the retry jitter.
func newState(self string, peers []string, opts Options, seed uint64) *state {
	sorted := slices.Clone(peers)
	slices.Sort(sorted)
	idx := slices.Index(sorted, self)
	if idx < 0 {
		return nil
	}
	return &state{
		self:   self,
		peers:  sorted,
		idx:    uint64(idx),
		quorum: len(sorted)/2 + 1,
		opts:   opts,
		insts:  map[uint64]*inst{},
		done:   map[string]uint64{},
		rng:    seed | 1,
	}
}

// replay rebuilds the state a restart finds on disk — the applied log's
// entries and this member's durable votes — and returns the Apply and
// Restore calls that rebuild the application, to run before anything else.
func (s *state) replay(entries []logEntry, votes []accEntry) []effect {
	s.out = nil
	for _, e := range entries {
		if e.Cmd.Kind == snapshotMarker {
			// A state-transfer marker: entries up to Instance were never
			// held locally; the recorded state stands in for them.
			if e.Instance < s.queued {
				break // implausible ordering: trust only the prefix so far
			}
			s.queued = e.Instance
			s.floor = max(s.floor, e.Instance)
		} else if e.Instance != s.queued+1 {
			// A torn or reordered log tail: trust only the contiguous
			// prefix, the rest comes back through catch-up.
			break
		} else {
			// The entry stays known decided: an acceptor that voted afresh
			// on an instance it already applied could help a stale ballot
			// to a second value.
			s.queued = e.Instance
			s.insts[e.Instance] = &inst{decided: true, val: e.Cmd}
			if e.Cmd.Origin == s.self {
				s.seq = max(s.seq, e.Cmd.Seq)
			}
		}
		s.maxSeen = max(s.maxSeen, e.Instance)
		s.emit(effect{kind: effApply, entry: e})
	}
	s.applied = s.queued
	s.done[s.self] = s.applied
	// Votes for instances still in play survive the crash (the agreement
	// guarantee); stale ones are dropped here and from the file at the next
	// compaction.
	for _, v := range votes {
		if v.Instance <= s.applied || v.Instance <= s.floor {
			continue
		}
		in := &inst{promised: v.Promised, accBallot: v.AccBallot}
		if v.HasVal {
			in.accVal = v.Val
		}
		s.insts[v.Instance] = in // latest entry per instance wins
		s.maxSeen = max(s.maxSeen, v.Instance)
	}
	return s.out
}

// step applies one event at time now — a consensus frame from a peer, or
// one of the local events above — and returns the effects.
func (s *state) step(now time.Time, from string, ev any) []effect {
	s.now, s.out = now, nil
	s.handle(from, ev)
	for len(s.inbox) > 0 {
		m := s.inbox[0]
		s.inbox = s.inbox[1:]
		s.handle(s.self, m)
	}
	s.inbox = nil
	s.gc()
	s.arm()
	return s.out
}

func (s *state) handle(from string, ev any) {
	if d, ok := frameDone(ev); ok {
		// Frames from names outside the fixed peer set are dropped: a
		// coordinator or a renamed process must not vote. A member's own
		// frontier is its applier's to report.
		if !slices.Contains(s.peers, from) {
			return
		}
		if from != s.self {
			s.done[from] = d
		}
	}
	switch m := ev.(type) {
	case wire.Prepare:
		s.handlePrepare(from, m)
	case wire.Promise:
		if p := s.round(m.Instance, m.Ballot, phasePrepare); p != nil {
			s.promised(p, from, m)
		}
	case wire.Accept:
		s.handleAccept(from, m)
	case wire.Accepted:
		if p := s.round(m.Instance, m.Ballot, phaseAccept); p != nil {
			s.acceptedBy(p, from, m)
		}
	case wire.Learn:
		s.decide(m.Instance, m.Val)
		s.pull(from, m.Instance)
	case wire.CatchUp:
		s.handleCatchUp(from, m)
	case wire.Snapshot:
		s.install(m)
	case submitCmd:
		s.submit(m.cmd, false)
	case proposeCmd:
		s.submit(m.cmd, true)
	case abandon:
		s.proposals = slices.DeleteFunc(s.proposals, func(p *proposal) bool { return p.seq == m.seq })
	case appliedThrough:
		s.applied = max(s.applied, m.instance)
		s.done[s.self] = s.applied
	case tick:
		s.tick()
	}
}

// frameDone returns the done-frontier a consensus frame carries, and whether
// msg is one.
func frameDone(msg any) (uint64, bool) {
	switch m := msg.(type) {
	case wire.Prepare:
		return m.Done, true
	case wire.Promise:
		return m.Done, true
	case wire.Accept:
		return m.Done, true
	case wire.Accepted:
		return m.Done, true
	case wire.Learn:
		return m.Done, true
	case wire.CatchUp:
		return m.Done, true
	case wire.Snapshot:
		return m.Done, true
	}
	return 0, false
}

func (s *state) emit(e effect) { s.out = append(s.out, e) }

// submit opens a proposal for a local command at the next free instance.
func (s *state) submit(cmd wire.Command, once bool) {
	s.seq++
	s.props++
	cmd.Origin, cmd.Seq = s.self, s.seq
	p := &proposal{seq: s.seq, once: once, cmd: cmd, instance: s.nextFree(0)}
	s.proposals = append(s.proposals, p)
	s.startRound(p, s.nextBallot(0))
}

// send ships one frame; a frame to this member is handled before the step
// returns, without touching the transport.
func (s *state) send(to string, msg wire.Message) {
	if to == s.self {
		s.inbox = append(s.inbox, msg)
		return
	}
	s.emit(effect{kind: effSend, to: to, msg: msg})
}

func (s *state) broadcast(msg wire.Message) {
	for _, p := range s.peers {
		s.send(p, msg)
	}
}

// instAt returns (creating if needed) the state of one instance. Forgotten
// instances (at or below the GC floor) return nil.
func (s *state) instAt(i uint64) *inst {
	if i <= s.floor {
		return nil
	}
	in, ok := s.insts[i]
	if !ok {
		in = &inst{}
		s.insts[i] = in
	}
	s.maxSeen = max(s.maxSeen, i)
	return in
}

// vote makes in's acceptor state durable; the reply it guards is sent after.
func (s *state) vote(i uint64, in *inst) {
	s.emit(effect{kind: effPersistVote, vote: accEntry{Instance: i, Promised: in.promised,
		AccBallot: in.accBallot, HasVal: in.accBallot > 0, Val: in.accVal}})
}

func (s *state) handlePrepare(from string, m wire.Prepare) {
	in := s.instAt(m.Instance)
	switch {
	case in == nil: // forgotten: globally applied, nothing to promise
	case in.decided:
		s.send(from, wire.Learn{Instance: m.Instance, Val: in.val, Done: s.applied})
	case m.Ballot > in.promised:
		in.promised = m.Ballot
		s.vote(m.Instance, in)
		s.send(from, wire.Promise{Instance: m.Instance, Ballot: m.Ballot, OK: true,
			AccBallot: in.accBallot, HasVal: in.accBallot > 0, Val: in.accVal, Done: s.applied})
	default:
		s.send(from, wire.Promise{Instance: m.Instance, Ballot: m.Ballot, Promised: in.promised, Done: s.applied})
	}
}

func (s *state) handleAccept(from string, m wire.Accept) {
	in := s.instAt(m.Instance)
	switch {
	case in == nil:
	case in.decided:
		s.send(from, wire.Learn{Instance: m.Instance, Val: in.val, Done: s.applied})
	case m.Ballot >= in.promised:
		in.promised, in.accBallot, in.accVal = m.Ballot, m.Ballot, m.Val
		s.vote(m.Instance, in)
		s.accepted = max(s.accepted, m.Instance)
		s.send(from, wire.Accepted{Instance: m.Instance, Ballot: m.Ballot, OK: true, Done: s.applied})
	default:
		s.send(from, wire.Accepted{Instance: m.Instance, Ballot: m.Ballot, Promised: in.promised, Done: s.applied})
	}
}

// pull asks from at once for the instances missing below i, which it just
// taught this member: a member that joined after they were decided would
// otherwise wait for its next catch-up round. Once per stuck frontier; the
// catch-up round covers a lost reply.
func (s *state) pull(from string, i uint64) {
	if from != s.self && i > s.queued && s.pulled != s.queued+1 {
		s.pulled = s.queued + 1
		s.send(from, wire.CatchUp{From: s.queued + 1, Done: s.applied})
	}
}

func (s *state) handleCatchUp(from string, m wire.CatchUp) {
	// A request below the GC floor asks for instances this member has
	// forgotten: no Learn can serve it, so a member that lost its log would
	// stall at applied zero forever (and its zero done-frontier would halt GC
	// cluster-wide). State transfer covers the forgotten prefix instead.
	if m.From <= s.floor && s.opts.Snapshot != nil {
		s.emit(effect{kind: effServeSnapshot, to: from})
	}
	const maxLearns = 64
	for i, n := m.From, 0; i <= s.maxSeen && n < maxLearns; i++ {
		if in, ok := s.insts[i]; ok && in.decided {
			s.send(from, wire.Learn{Instance: i, Val: in.val, Done: s.applied})
			n++
		}
	}
}

// install moves the member past a state transfer: the queued frontier jumps
// to Through, everything at or below it is forgotten (the floor follows —
// this member cannot serve a prefix it never held), and the applied log
// restarts from a marker entry so the next replay restores the same state
// instead of finding a gap. Transfers that do not advance the frontier are
// dropped.
func (s *state) install(m wire.Snapshot) {
	if s.opts.Restore == nil || m.Through <= s.queued {
		return
	}
	for i := range s.insts {
		if i <= m.Through {
			delete(s.insts, i)
		}
	}
	s.queued = m.Through
	s.maxSeen = max(s.maxSeen, m.Through)
	s.floor = max(s.floor, m.Through)
	e := logEntry{Instance: m.Through, Cmd: wire.Command{Kind: snapshotMarker, Text: string(m.State)}}
	s.emit(effect{kind: effAppend, entry: e})
	s.emit(effect{kind: effApply, entry: e})
	s.advance()
	// A proposal below the transfer lost its instance to a value it cannot
	// see: a gap fill is done, a submit tries the next free instance.
	for _, p := range slices.Clone(s.proposals) {
		if p.instance <= m.Through {
			s.lost(p)
		}
	}
}

// decide marks an instance decided, settles the proposals it answers and
// hands the entries it unblocks to the applier.
func (s *state) decide(i uint64, val wire.Command) {
	in := s.instAt(i)
	if in == nil || in.decided {
		return
	}
	in.decided, in.val = true, val
	s.advance()
	for _, p := range slices.Clone(s.proposals) {
		switch {
		case p.seq != 0 && val.Origin == s.self && val.Seq == p.seq:
			s.remove(p)
			s.emit(effect{kind: effComplete, seq: p.seq, at: i})
		case p.instance == i:
			s.lost(p)
		}
	}
}

// advance appends and applies, in instance order, every decided entry past
// the queued frontier.
func (s *state) advance() {
	for {
		in, ok := s.insts[s.queued+1]
		if !ok || !in.decided {
			return
		}
		s.queued++
		e := logEntry{Instance: s.queued, Cmd: in.val}
		s.emit(effect{kind: effAppend, entry: e})
		s.emit(effect{kind: effApply, entry: e})
	}
}

// lost settles a proposal whose instance was decided with another value: a
// gap fill is done, a Propose completes undecided, and a submit — still
// unchosen — moves to the next free instance with a fresh ballot.
func (s *state) lost(p *proposal) {
	switch {
	case p.seq == 0:
		s.remove(p)
		return
	case p.once:
		s.remove(p)
		s.emit(effect{kind: effComplete, seq: p.seq})
		return
	}
	p.instance = s.nextFree(p.instance)
	p.attempt = 0
	s.startRound(p, s.nextBallot(0))
}

func (s *state) remove(p *proposal) {
	s.proposals = slices.DeleteFunc(s.proposals, func(q *proposal) bool { return q == p })
}

// nextFree picks the lowest instance above after, above everything seen so
// far and not known decided.
func (s *state) nextFree(after uint64) uint64 {
	i := max(s.maxSeen, s.queued, after) + 1
	for {
		if in, ok := s.insts[i]; !ok || !in.decided {
			return i
		}
		i++
	}
}

// Ballot numbering: ballots are unique per proposer (b ≡ idx mod len(peers),
// offset by one so 0 means "none") and totally ordered across proposers. The
// per-member epoch counter additionally makes every local round's ballot
// unique: this member can drive several proposals at once (a submit beside a
// gap fill, two hosted control verbs), and two rounds sharing one (instance,
// ballot) would ship two different values under one ballot — acceptors could
// then accept either, splitting a quorum on a single ballot. Pass the ballot
// to beat (a rejection's conflict, or the round's own timed-out ballot); zero
// asks for the next fresh ballot.
func (s *state) nextBallot(above uint64) uint64 {
	n := uint64(len(s.peers))
	s.balK = max(s.balK+1, above/n+1)
	return s.balK*n + s.idx + 1
}

// round finds the proposal waiting in ph for replies to (instance, ballot).
func (s *state) round(instance, ballot uint64, ph phase) *proposal {
	for _, p := range s.proposals {
		if p.instance == instance && p.ballot == ballot && p.phase == ph {
			return p
		}
	}
	return nil
}

// wait is how long a phase of p's current attempt waits for its quorum:
// 2×Retry at first, doubling per attempt up to 32×Retry, so a cluster whose
// round trips outlast the base timeout still decides.
func (p *proposal) wait(retry time.Duration) time.Duration {
	return 2 * retry << min(p.attempt, 4)
}

func (s *state) startRound(p *proposal, ballot uint64) {
	p.ballot, p.phase, p.votes = ballot, phasePrepare, map[string]bool{}
	p.adopted, p.adBallot = wire.Command{}, 0
	p.deadline = s.now.Add(p.wait(s.opts.Retry))
	s.proposed = max(s.proposed, p.instance)
	s.broadcast(wire.Prepare{Instance: p.instance, Ballot: ballot, Done: s.applied})
}

func (s *state) promised(p *proposal, from string, m wire.Promise) {
	if !m.OK {
		s.retry(p, m.Promised) // jump past the conflicting ballot instead of walking
		return
	}
	p.votes[from] = true
	// Paxos obliges a proposer to adopt the highest-ballot value its
	// promises report: that value may already be chosen.
	if m.HasVal && m.AccBallot > p.adBallot {
		p.adBallot, p.adopted = m.AccBallot, m.Val
	}
	if len(p.votes) < s.quorum {
		return
	}
	p.val = p.cmd
	if p.adBallot > 0 {
		p.val = p.adopted
	}
	p.phase, p.votes = phaseAccept, map[string]bool{}
	p.deadline = s.now.Add(p.wait(s.opts.Retry))
	s.broadcast(wire.Accept{Instance: p.instance, Ballot: p.ballot, Val: p.val, Done: s.applied})
}

func (s *state) acceptedBy(p *proposal, from string, m wire.Accepted) {
	if !m.OK {
		s.retry(p, m.Promised)
		return
	}
	p.votes[from] = true
	if len(p.votes) >= s.quorum {
		i, val := p.instance, p.val
		s.decide(i, val)
		s.broadcast(wire.Learn{Instance: i, Val: val, Done: s.applied})
	}
}

// retry ends p's round, rejected or timed out, and pauses before a ballot
// above the one that beat it. The randomised, exponentially growing pause
// un-synchronises duelling proposers: with a fixed interval, contenders
// re-arriving faster than a two-phase round completes preempt each other's
// Accepts forever.
func (s *state) retry(p *proposal, above uint64) {
	base := p.wait(s.opts.Retry) / 2
	p.ballot, p.phase = s.nextBallot(above), phasePause
	p.attempt++
	s.rng ^= s.rng << 13
	s.rng ^= s.rng >> 7
	s.rng ^= s.rng << 17
	p.deadline = s.now.Add(base + time.Duration(s.rng%uint64(base)))
}

// tick advances every proposal whose deadline passed and runs the catch-up
// round when it is due.
func (s *state) tick() {
	s.armed = time.Time{}
	for _, p := range slices.Clone(s.proposals) {
		switch {
		case s.now.Before(p.deadline):
		case !p.expires.IsZero() && !s.now.Before(p.expires):
			s.remove(p) // a gap fill that dies mid-duel forces its successor higher
		case p.phase == phasePause:
			s.startRound(p, p.ballot)
		default:
			s.retry(p, p.ballot)
		}
	}
	if !s.now.Before(s.nextSync) {
		s.nextSync = s.now.Add(s.opts.SyncEvery)
		s.catchUp()
	}
}

// catchUp advertises the applied frontier to one peer round-robin (pulling
// any decided instances this member missed) and fills a gap that has
// blocked the applier too long with a no-op.
func (s *state) catchUp() {
	if len(s.peers) > 1 {
		for range s.peers {
			t := s.peers[s.rrNext%len(s.peers)]
			s.rrNext++
			if t != s.self {
				s.send(t, wire.CatchUp{From: s.queued + 1, Done: s.applied})
				break
			}
		}
	}
	behind := s.maxSeen > s.queued
	for _, d := range s.done {
		behind = behind || d > s.queued
	}
	if !behind {
		return
	}
	// The lowest undecided instance while a higher one is decided means its
	// proposer died mid-round; propose a no-op so the applier can move (Paxos
	// adopts any already-accepted value instead, so a merely-slow proposer's
	// command survives).
	i := s.queued + 1
	in := s.instAt(i)
	if in == nil {
		return
	}
	if in.gapSince.IsZero() {
		in.gapSince = s.now
		return
	}
	// Stagger the trigger by member index: the lowest-index member fills
	// first and the others step in only if the gap outlives their (longer)
	// fuse — N symmetric fillers would duel. One filler per instance:
	// stacking a fresh one on every round escalates ballots faster than any
	// of them can finish both phases.
	fuse := 4 * s.opts.Retry * time.Duration(1+s.idx)
	if s.now.Sub(in.gapSince) <= fuse || !s.decidedAbove(i) ||
		slices.ContainsFunc(s.proposals, func(p *proposal) bool { return p.seq == 0 && p.instance == i }) {
		return
	}
	in.gapSince = s.now // restart the clock; don't spam proposals
	s.noops++
	p := &proposal{cmd: wire.Command{Kind: "noop", Origin: s.self}, instance: i, expires: s.now.Add(40 * s.opts.Retry)}
	s.proposals = append(s.proposals, p)
	s.startRound(p, s.nextBallot(0))
}

// decidedAbove reports whether any instance above i is known decided — the
// applier is genuinely blocked, not merely idle.
func (s *state) decidedAbove(i uint64) bool {
	for j, in := range s.insts {
		if j > i && in.decided {
			return true
		}
	}
	return false
}

// gc forgets instances every peer has applied, keeping a tail window for
// restarted members.
func (s *state) gc() {
	low := s.applied
	for _, p := range s.peers {
		low = min(low, s.done[p])
	}
	if low <= s.opts.keepWindow || low-s.opts.keepWindow <= s.floor {
		return
	}
	for i := s.floor + 1; i <= low-s.opts.keepWindow; i++ {
		delete(s.insts, i)
	}
	s.floor = low - s.opts.keepWindow
}

// arm asks for the timer at the earliest deadline: the next catch-up round
// or a proposal's phase timeout or pause.
func (s *state) arm() {
	next := s.nextSync
	for _, p := range s.proposals {
		if p.deadline.Before(next) {
			next = p.deadline
		}
	}
	if !next.Equal(s.armed) {
		s.armed = next
		s.emit(effect{kind: effArmTimer, when: next})
	}
}

// liveVotes lists the votes a compacted acceptor log must keep: instances
// above the floor and not yet decided.
func (s *state) liveVotes() []accEntry {
	var live []accEntry
	for i, in := range s.insts {
		if i <= s.floor || in.decided || (in.promised == 0 && in.accBallot == 0) {
			continue
		}
		live = append(live, accEntry{Instance: i, Promised: in.promised,
			AccBallot: in.accBallot, HasVal: in.accBallot > 0, Val: in.accVal})
	}
	return live
}
