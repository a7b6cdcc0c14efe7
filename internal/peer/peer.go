// Package peer implements the peer runtime of the distributed algorithm: the
// topology-discovery state machine (algorithms A1–A3 of the paper), the
// database-update state machine (A4–A6), local query answering, and the
// control verbs of Sections 4 and 5 (dynamic rule changes, super-peer rule
// broadcast, statistics collection).
//
// A Peer corresponds to one node of the P2P system: a local database with a
// shared schema, the set of coordination rules of which the node is the
// target, and the protocol state.
//
// The protocol is one pure step: peerState (step.go) holds everything the
// algorithm keeps, and step(now, from, event) applies one message, local verb
// or resend tick to it and returns effects — send, persist part tuples, owe an
// acknowledgment, a durable frontier moved, arm the resend timer. The step
// takes no lock, reads no clock, starts no goroutine and touches no
// transport, log or watcher hub, so a model checker drives it directly
// (step_check_test.go). Peer runs the step in a shell.Shell — the mutex over
// the state, the resend timer, the runner the ack worker and the remote
// watches live on — and carries out the effects: the transport, the counters
// and recorder every send goes through, the durability hooks, the ack worker,
// the serving hub. Handle and every local verb are one shell step, lock →
// step → unlock → effects; the mutex orders concurrent Handles (TCP runs one
// per connection), the local verbs and the inspection API.
//
// The paper's owner relation — a source re-answers every subscriber when its
// data changes — is kept as a table of the distinct questions asked, with the
// subscriptions pointing into it: per-question work (parse, validate,
// evaluate a delta) is done once per change, not once per subscriber.
package peer

import (
	"context"
	"fmt"
	"maps"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/cq"
	"repro/internal/graph"
	"repro/internal/relalg"
	"repro/internal/rules"
	"repro/internal/serving"
	"repro/internal/shell"
	"repro/internal/stats"
	"repro/internal/storage"
	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/wal"
	"repro/internal/wire"
)

// UpdateState is the paper's state_u: open until the node reaches its
// fix-point, then closed (it may re-open when new data or changes arrive).
type UpdateState uint8

// Update states.
const (
	Open UpdateState = iota
	Closed
)

// String renders the state.
func (s UpdateState) String() string {
	if s == Closed {
		return "closed"
	}
	return "open"
}

// Options tunes a peer's behaviour.
type Options struct {
	// Delta enables the paper's delta optimisation ("minimize data transfer
	// and duplication"): each subscription tracks per-relation high-water
	// marks, and a re-answer joins only the tuples inserted since the marks
	// against the full extents of the remaining atoms (semi-naive), so
	// answers and pushes carry only what was not previously shipped; a node
	// also forwards its own queries once per epoch instead of once per
	// incoming query (the faithful A4 re-forwards every time, enumerating
	// every dependency path — measurably exponential on diamond-rich DAGs
	// and cliques). Fresh subscriptions (new rule, changed columns,
	// unsubscribe/resubscribe) run one full evaluation that primes the
	// marks. Fresh pulls triggered by news, probes or topology changes are
	// always sent; cyclic closure liveness is unaffected. With Delta off the
	// faithful mode deliberately re-ships full results and re-joins the
	// whole accumulated part results — the independent reference the
	// oracles compare delta mode against.
	Delta bool
	// InsertMode selects exact or core (subsumption) redundancy checking.
	InsertMode storage.InsertMode
	// MaxNullDepth bounds existential-null invention (0 = default).
	MaxNullDepth int
	// Maps holds the domain relations translating incoming values (the
	// future-work extension of §2); only entries with To == this peer
	// matter.
	Maps rules.MapSet
	// Recorder, when set, records protocol events for sequence charts.
	Recorder *trace.Recorder
	// DB, when set, is the peer's database — typically recovered from a
	// durable store; the declared schemas are added on top (identical
	// redeclarations are no-ops, conflicts error). When nil the peer starts
	// empty.
	DB *storage.DB
	// Restore, when set, reloads protocol state persisted by a durable
	// store: the update epoch, the subscriptions this node serves (with
	// their ACKED frontiers, clamped to the recovered relation seqs, so
	// re-answers stay delta-only across both clean and crash restarts) and
	// the accumulated part results of its rules (so multi-source old×new
	// joins survive, exactly as across epoch bumps). Orchestration clears
	// the subscriptions after an unclean shutdown only when the
	// acknowledgment handshake was not in force — see wal.Recovered.Clean.
	Restore *wal.State
	// SyncForAck, when set, runs before this peer acknowledges a received
	// answer (AnswerAck): orchestration wires it to the durable store's Sync,
	// so the acknowledged tuples are on stable storage before the source is
	// allowed to advance its durable marks past them. A returned error
	// withholds the acknowledgment — the source re-sends later. Nil
	// acknowledges on receipt (pure in-memory durability).
	SyncForAck func() error
	// PersistParts, when set, receives the tuples newly merged into a rule
	// part's accumulated result set, before the answer is acknowledged
	// (orchestration wires it to wal.Store.AppendParts). Without it a crash
	// would lose acknowledged part tuples the source will never re-send.
	PersistParts func(p wal.PartState)
	// PersistMarks, when set, runs after an acknowledgment advances a
	// subscription's durable frontier (orchestration wires it to
	// wal.Store.SaveMarks), outside the peer mutex.
	PersistMarks func()
	// ResendEvery, when positive, re-answers subscriptions whose shipped
	// frontier stayed unacknowledged for that long: the re-answer rewinds to
	// the acked frontier, so a delta lost to a transport error or a dead
	// dependent ships again. The timer runs only while a frontier is out.
	// Retries per stalled frontier are bounded (an explicit trigger —
	// acknowledgment progress, member rejoin, a new epoch — resets the
	// budget), so a permanently dead dependent cannot keep the network
	// chattering forever. Only meaningful with Delta (the marks it rewinds
	// exist only there); zero disables it (deterministic in-process runs rely
	// on epoch-bump re-pulls instead).
	ResendEvery time.Duration
}

// pendingAck is an acknowledgment owed for an applied answer; it is sent once
// the durability hooks ran, so an fsync never blocks the actor.
type pendingAck struct {
	to  string
	msg wire.AnswerAck
}

// ackWork is one Handle's acknowledgment effects, handed to the ack worker
// (durable peers) so the pre-ack fsync pipelines with the actor instead of
// serialising behind it; cause is counted received after them.
type ackWork struct {
	cause wire.Envelope // Msg nil for a local verb
	parts []wal.PartState
	acks  []pendingAck
	dirty bool
}

func (w ackWork) empty() bool { return len(w.parts) == 0 && len(w.acks) == 0 && !w.dirty }

// Peer is one node of the P2P database network: the shell around its
// protocol state.
type Peer struct {
	*peerState // guarded by sh; id, db, ct and opts never change

	sh *shell.Shell[effect]
	tr transport.Transport

	// Continuous-query fan-out (watch.go, internal/serving): one shared
	// extraction per change serves every watcher. The hub keeps its own
	// registration lock — the database's insert listener wakes it while the
	// shell's lock may be held.
	hub *serving.Hub

	// Remote watches served over the wire (remote_watch.go). Guarded by rwmu,
	// not sh: registration runs off the actor goroutine.
	rwmu          sync.Mutex
	remoteWatches map[remoteWatchKey]*remoteWatch
	// watchRun is the hub pass's deltas for one client, sent as one run
	// when the pass flushes the client's watches. Owned by the pass.
	watchRun []wire.Message

	// Pipelined acknowledgment worker (durable peers only): Handle hands its
	// ack effects over a channel so the group-commit fsync overlaps the
	// actor's next dispatch instead of serialising with it. Only steps send,
	// and the shell's Close stops the worker after the last step, so no
	// enqueue races the stop. Queued work needs no accounting of its own: its
	// cause is counted received only once it is applied.
	ackCh chan ackWork
}

// New creates a peer with its schemas and the rules targeting it.
func New(id string, schemas []relalg.Schema, ruleSet []rules.Rule, tr transport.Transport, opts Options) (*Peer, error) {
	db := opts.DB
	if db == nil {
		db = storage.New()
	}
	for _, s := range schemas {
		if err := db.AddSchema(s); err != nil {
			return nil, fmt.Errorf("peer %s: %w", id, err)
		}
	}
	st, err := newPeerState(id, uint64(time.Now().UnixNano()), db, ruleSet, opts)
	if err != nil {
		return nil, err
	}
	if opts.Restore != nil {
		restore(st, opts.Restore)
	}
	p := &Peer{peerState: st, tr: tr, remoteWatches: map[remoteWatchKey]*remoteWatch{}}
	p.sh = shell.New(p.run, func(e effect) (time.Time, bool) { return e.when, e.kind == effArmTimer },
		func(now time.Time, buf []effect) []effect { return p.step(now, "", resendTick{}, buf) })
	p.hub = serving.NewHub(db, p.sh)
	// The insert listener may run under the lock: the hub's Notify never
	// blocks. It fires once per committed run of a batch.
	db.AddInsertListener(func(rel string, _ []relalg.Tuple, _ uint64) { p.hub.Notify(rel) })
	if opts.SyncForAck != nil {
		// Durable peers pipeline the pre-ack group commit: Handle enqueues,
		// the worker batches whatever accumulated behind one fsync.
		p.ackCh = make(chan ackWork, 256)
		p.sh.Go(p.ackLoop)
	}
	if err := tr.Register(id, p.Handle); err != nil {
		p.sh.Close()
		return nil, err
	}
	return p, nil
}

// restore reloads protocol state persisted by a durable store into a state
// no message has reached yet.
func restore(s *peerState, st *wal.State) {
	s.epoch = st.Epoch
	// Offset the subscription-id namespace by the restart epoch: ids are the
	// AnswerAck stale-instance guard, and a fresh process counting from 1
	// could collide with a previous lifetime's ids — a late ack still queued
	// somewhere (a dependent's outbox) across a fast restart would then
	// advance a frontier it does not describe.
	s.subSeq = st.Epoch << 20
	for _, rs := range st.Subs {
		q, err := s.question(rs.Conj, slices.Clone(rs.Cols))
		if err != nil {
			continue // a subscription that no longer parses is re-created by its owner
		}
		sub := &subscription{dependent: rs.Dependent, ruleID: rs.RuleID, epoch: rs.Epoch, q: q}
		if s.opts.Delta {
			// The persisted marks are the durable frontier.
			sub.st = storage.RestoreStream(rs.Marks, s.db.MarksFor(q.rels))
			sub.primed = rs.Primed
		}
		s.subSeq++
		sub.id = s.subSeq
		s.subscribe(sub)
	}
	for _, rp := range st.Parts {
		r, ok := s.rules[rp.RuleID]
		if !ok || len(r.SourceNodes()) == 1 {
			// The rule was dropped from this node's definition, or it has
			// one source and needs no part history (a DataDir from before
			// single-source rules stopped recording one).
			continue
		}
		if s.parts[rp.RuleID] == nil {
			s.parts[rp.RuleID] = map[string]*partResult{}
		}
		pr := &partResult{cols: slices.Clone(rp.Cols), tuples: relalg.MakeTupleSet(len(rp.Cols))}
		for _, t := range rp.Tuples {
			pr.tuples.Add(t)
		}
		s.parts[rp.RuleID][rp.Part] = pr
	}
}

// durableSubs renders the subscriptions in their durable form, sorted. The
// persisted marks are the DURABILITY-confirmed frontier, not the shipped or
// merely receipt-confirmed ones: a restart may only trust what dependents
// confirmed having on stable storage — everything beyond that frontier must
// ship again. SealFrontiers promotes receipt to durability grade at a clean
// close, where the sealing store makes it so.
func durableSubs(s *peerState) []wal.SubState {
	out := make([]wal.SubState, 0, len(s.subs))
	for _, k := range sortedKeys(s.subs) {
		sub := s.subs[k]
		ss := wal.SubState{
			Dependent: sub.dependent,
			RuleID:    sub.ruleID,
			Epoch:     sub.epoch,
			Conj:      sub.q.conj.String(),
			Cols:      slices.Clone(sub.q.cols),
			Primed:    sub.primed,
		}
		if sub.st != nil {
			ss.Marks = sub.st.Frontier(storage.Durable).Clone()
		}
		out = append(out, ss)
	}
	return out
}

// durableState is the protocol state a durable store persists beside the
// database: the update epoch, the subscriptions this node serves with their
// acknowledged frontiers, and the accumulated part results of its rules.
func durableState(s *peerState) wal.State {
	st := wal.State{Epoch: s.epoch, Subs: durableSubs(s)}
	for _, id := range sortedKeys(s.parts) {
		for _, part := range sortedKeys(s.parts[id]) {
			pr := s.parts[id][part]
			st.Parts = append(st.Parts, wal.PartState{
				RuleID: id,
				Part:   part,
				Cols:   slices.Clone(pr.cols),
				Tuples: pr.tuples.All(), // members are never dropped: a stable snapshot
			})
		}
	}
	return st
}

// SealFrontiers promotes every subscription's receipt-confirmed frontier to
// durability grade. Orchestration calls it on the clean-close path, after
// the transport stopped and before the stores seal: a clean network-wide
// close seals every dependent's store too (under every fsync policy), which
// upgrades everything they confirmed receiving into something they durably
// hold — the same reasoning the pre-handshake design used for trusting
// clean-close marks, now scoped to receipt-confirmed data only. Never call
// it on a crash path — that is exactly the laundering the two-frontier
// split exists to prevent.
func (p *Peer) SealFrontiers() {
	p.sh.Lock()
	defer p.sh.Unlock()
	for _, sub := range p.subs {
		if sub.st != nil {
			sub.st.Seal()
		}
	}
}

// DurableSubs snapshots the subscriptions with their acknowledged frontiers
// (the payload of the store's marks records; see wal.Store.SaveMarks).
func (p *Peer) DurableSubs() []wal.SubState {
	p.sh.Lock()
	defer p.sh.Unlock()
	return durableSubs(p.peerState)
}

// DurableState snapshots the protocol state a durable store persists beside
// the database (see durableState). Orchestration wires it as the store's
// state source, so checkpoints and clean closes carry it to disk.
func (p *Peer) DurableState() wal.State {
	p.sh.Lock()
	defer p.sh.Unlock()
	return durableState(p.peerState)
}

// DB exposes the local database (reads are safe; writes must go through the
// protocol or seeding helpers).
func (p *Peer) DB() *storage.DB { return p.db }

// Counters exposes the statistics module.
func (p *Peer) Counters() *stats.Counters { return p.ct }

// AddNeighbor records a pipe-level acquaintance (used by the StartUpdate
// flood; the paper's prototype opens pipes in both rule directions).
func (p *Peer) AddNeighbor(n string) {
	p.sh.Lock()
	if n != p.id {
		p.neighbors[n] = true
	}
	p.sh.Unlock()
}

// Seed inserts ground facts into the local database (initial data loading;
// not part of the protocol). Like every insert it holds the peer's mutex, so
// a watcher's prime never sees a tuple its next delta also carries.
func (p *Peer) Seed(rel string, tuples ...relalg.Tuple) error {
	p.sh.Lock()
	defer p.sh.Unlock()
	_, err := p.db.InsertAll(rel, tuples, p.opts.InsertMode)
	return err
}

// State returns the current update state.
func (p *Peer) State() UpdateState {
	p.sh.Lock()
	defer p.sh.Unlock()
	return p.stateU
}

// Activated reports whether the peer has joined the current update epoch.
func (p *Peer) Activated() bool {
	p.sh.Lock()
	defer p.sh.Unlock()
	return p.activated
}

// Epoch returns the current update epoch.
func (p *Peer) Epoch() uint64 {
	p.sh.Lock()
	defer p.sh.Unlock()
	return p.epoch
}

// PathsReady reports whether the peer's own discovery wave has completed.
func (p *Peer) PathsReady() bool {
	p.sh.Lock()
	defer p.sh.Unlock()
	return p.pathsReady
}

// AllMaximalPaths returns the complete set of maximal dependency paths from
// this node (Definitions 6–7) computed over current knowledge, including the
// unconfirmable inner-repeat paths excluded from the closure flag set.
func (p *Peer) AllMaximalPaths() []graph.Path {
	p.sh.Lock()
	defer p.sh.Unlock()
	return p.knowledgeGraph().MaximalPaths(p.id)
}

// Paths returns the peer's closure-tracked maximal dependency paths (the
// confirmable subset; see recomputePaths) and their stability flags.
func (p *Peer) Paths() map[string]bool {
	p.sh.Lock()
	defer p.sh.Unlock()
	out := make(map[string]bool, len(p.paths))
	for k, rec := range p.paths {
		out[k] = rec.stable
	}
	return out
}

// KnownEdges returns the currently known dependency edges, sorted.
func (p *Peer) KnownEdges() []graph.Edge {
	p.sh.Lock()
	defer p.sh.Unlock()
	var out []graph.Edge
	for _, ne := range p.knowledge {
		for _, t := range ne.Targets {
			out = append(out, graph.Edge{From: ne.Node, To: t})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].From != out[j].From {
			return out[i].From < out[j].From
		}
		return out[i].To < out[j].To
	})
	return out
}

// Rules returns the ids of the rules targeting this node, sorted.
func (p *Peer) Rules() []string {
	p.sh.Lock()
	defer p.sh.Unlock()
	return sortedKeys(p.rules)
}

// WaitingOn lists what an open node's closure is waiting on, sorted: its
// unflagged cyclic dependency paths ("X→Y→X") and the sources that have not
// declared themselves complete. The update driver prints it for a node still
// open at a settled network.
func (p *Peer) WaitingOn() []string {
	p.sh.Lock()
	defer p.sh.Unlock()
	return p.waitingOn()
}

// StatsReports returns the per-node snapshots a super-peer has collected.
func (p *Peer) StatsReports() map[string]stats.Snapshot {
	p.sh.Lock()
	defer p.sh.Unlock()
	return maps.Clone(p.statsReports)
}

// LocalQuery evaluates a conjunctive query against the local database only
// (Definition 4: after a completed update, local answers are global
// answers). The rows come back in canonical order.
func (p *Peer) LocalQuery(body string, outVars []string) ([]relalg.Tuple, error) {
	return p.localQuery(body, outVars) // reads only the database, which locks itself
}

// ---------------------------------------------------------------------------
// Local verbs: each is one event into step.

// local steps one local event.
func (p *Peer) local(ev any) {
	p.sh.Step(func(now time.Time, buf []effect) []effect { return p.step(now, "", ev, buf) })
}

// StartDiscovery begins a fresh discovery wave with this peer as origin
// (algorithm A1, run by the super-peer). It returns the wave id.
func (p *Peer) StartDiscovery() (wave string) {
	p.sh.Step(func(now time.Time, buf []effect) []effect {
		buf = p.step(now, "", wire.DiscoverRequest{}, buf)
		wave = p.selfWave
		return buf
	})
	return wave
}

// StartUpdateWave makes this peer the update super-node: it bumps the epoch,
// activates itself and floods StartUpdate over acquaintance links. It
// returns the new epoch.
func (p *Peer) StartUpdateWave() (epoch uint64) {
	p.sh.Step(func(now time.Time, buf []effect) []effect {
		buf = p.step(now, "", wire.UpdateRequest{}, buf)
		epoch = p.epoch
		return buf
	})
	return epoch
}

// Probe is the orchestration layer's closure probe: when the network is
// settled but this node is still open, it regenerates the confirming cascades
// (see probe), each probe at fix-point cost.
func (p *Peer) Probe() { p.local(closureProbe{}) }

// ActivateQuiet joins the update epoch without flooding the kick-off and
// without pulling: the staged strategy's orchestrator (the paper's §3 note on
// exploiting known topological structure) drives pulls SCC by SCC in
// dependency order, so each stage reads already-final sources. A peer with no
// rules closes immediately, as in the normal activation.
func (p *Peer) ActivateQuiet(epoch uint64) { p.local(activateQuiet{epoch}) }

// ForcePull issues this peer's own queries unconditionally (fresh requester
// chain), regardless of state or forwarding dedup. Used by the staged update
// strategy and by operators.
func (p *Peer) ForcePull() { p.local(forcePull{}) }

// QueryDependentUpdate starts a scoped pull wave that materialises only the
// data relevant to the given local query body (Section 5's query-dependent
// updates). The caller should wait for network quiescence and then evaluate
// the query locally.
func (p *Peer) QueryDependentUpdate(body string) error {
	conj, err := cq.ParseConjunction(body)
	if err != nil {
		return err
	}
	need := map[string]bool{}
	for _, a := range conj.Atoms {
		need[a.Rel] = true
	}
	p.local(scopedPull{need})
	return nil
}

// AddRuleLocal applies addLink directly on this peer (the in-process
// equivalent of receiving an AddRuleNotice; used by orchestration).
func (p *Peer) AddRuleLocal(ruleText string) error {
	r, err := rules.ParseRule(ruleText)
	if err != nil {
		return err
	}
	if r.HeadNode != p.id {
		return fmt.Errorf("peer %s: rule %s targets %s", p.id, r.ID, r.HeadNode)
	}
	p.local(wire.AddRuleNotice{RuleText: ruleText})
	return nil
}

// DeleteRuleLocal applies deleteLink directly on this peer.
func (p *Peer) DeleteRuleLocal(ruleID string) { p.local(wire.DeleteRuleNotice{RuleID: ruleID}) }

// ResendUnackedTo rewinds every subscription of one dependent to its
// DURABILITY-confirmed frontier and re-answers immediately, resetting the
// retry budget. The cluster layer calls it when a suspected or departed
// member comes back alive: the return may be a healed partition (the member
// still holds everything it received) or a crash restart (it only holds
// what its durability gate confirmed), and the transport cannot tell the
// two apart — so the re-send covers the larger window and the member
// deduplicates the overlap.
func (p *Peer) ResendUnackedTo(dependent string) { p.local(resendTo{dependent}) }

// ---------------------------------------------------------------------------
// The shell: messages in, effects out

// Send dispatches a message, recording statistics and trace events; the error
// is for orchestration that sends in the node's name, the protocol tolerates it.
func (p *Peer) Send(to string, m wire.Message) error {
	p.sending(to, m)
	err := p.tr.Send(p.id, to, m)
	if err != nil {
		p.refused(to, m, err)
	}
	return err
}

// sendRun dispatches msgs to one node as one run (transport.SendRun), with
// Send's statistics and trace events for each.
func (p *Peer) sendRun(to string, msgs []wire.Message) {
	for _, m := range msgs {
		p.sending(to, m)
	}
	n, err := transport.SendRun(p.tr, p.id, to, msgs)
	for _, m := range msgs[n:] {
		p.refused(to, m, err)
	}
}

// sending counts a message sent and traces it.
func (p *Peer) sending(to string, m wire.Message) {
	p.ct.Sent(m.Kind(), wire.Size(m))
	if p.opts.Recorder != nil {
		note := ""
		switch msg := m.(type) {
		case wire.Query:
			note = msg.RuleID
		case wire.Answer:
			note = fmt.Sprintf("%s (%d tuples)", msg.RuleID, len(msg.Tuples))
		case wire.RequestNodes:
			note = msg.Wave
		case wire.DiscoveryAnswer:
			note = msg.Wave
		}
		p.opts.Recorder.Record(p.id, to, m.Kind(), note)
	}
}

// refused takes back a message the transport refused. Unknown or unreachable
// peers are a dynamic-network fact of life the protocol tolerates (Section
// 4) — but a lost message must be observable, not invisible: the statistical
// module counts it and the recorder traces it. Payload recovery is the
// acknowledgment frontier's job: an answer that never arrives is never
// acked, so its tuples ship again from the acked marks.
func (p *Peer) refused(to string, m wire.Message, err error) {
	p.ct.SendFailed(m.Kind(), wire.Size(m))
	if p.opts.Recorder != nil {
		p.opts.Recorder.Record(p.id, to, "sendError", m.Kind()+": "+err.Error())
	}
}

// Handle processes one incoming envelope in one shell step: effects after
// the lock (an fsync must not block the actor). The acknowledgment effects go
// to the ack worker on durable peers, which pipelines the group-commit fsync
// with the next dispatch; elsewhere they run inline, still inside Handle.
// Either way the envelope is counted received only after them. StateRequest
// and the remote watches read what only the shell holds; a watch registers
// on the runner, since registration reaches the hub's pass lock and, through
// it, this peer's mutex.
func (p *Peer) Handle(env wire.Envelope) {
	switch m := env.Msg.(type) {
	case wire.WatchRequest:
		p.sh.Go(func(context.Context) { p.serveRemoteWatch(env.From, m) })
	case wire.WatchCancel:
		p.sh.Go(func(context.Context) { p.cancelRemoteWatch(env.From, m.ID) })
	}
	p.sh.Step(func(now time.Time, buf []effect) []effect {
		switch env.Msg.(type) {
		case wire.StateRequest:
			buf = append(buf, effect{kind: effSend, to: env.From, msg: p.stateReport()})
		case wire.WatchRequest, wire.WatchCancel:
		default:
			buf = p.step(now, env.From, env.Msg, buf)
		}
		return append(buf, effect{kind: effReceived, to: env.From, msg: env.Msg})
	})
}

// run carries out a step's effects in order: sends at once, the
// acknowledgment effects as one work item, handed to the ack worker or
// applied inline.
func (p *Peer) run(effs []effect) {
	var work ackWork
	for _, e := range effs {
		switch e.kind {
		case effSend:
			p.Send(e.to, e.msg)
		case effPersistParts:
			work.parts = append(work.parts, wal.PartState{RuleID: e.parts.rule, Part: e.parts.part, Cols: e.parts.cols, Tuples: e.parts.tuples})
		case effOweAck:
			work.acks = append(work.acks, pendingAck{to: e.to, msg: e.msg.(wire.AnswerAck)})
		case effFrontierDirty:
			work.dirty = true
		case effReceived:
			work.cause = wire.Envelope{From: e.to, Msg: e.msg}
		}
	}
	switch {
	case p.ackCh != nil && !work.empty():
		p.ackCh <- work
	case !work.empty() || work.cause.Msg != nil:
		p.applyAckWork([]ackWork{work})
	}
}

// stateReport answers a StateRequest. Callers hold the lock.
func (p *Peer) stateReport() wire.StateReport {
	sm := p.hub.Metrics()
	var badFrames uint64
	if fc, ok := p.tr.(interface{ BadFrames() uint64 }); ok {
		badFrames = fc.BadFrames()
	}
	depth := 0
	for _, g := range sm.Queues {
		depth += g.Depth
	}
	return wire.StateReport{
		Node:           p.id,
		Epoch:          p.epoch,
		Activated:      p.activated,
		Closed:         p.stateU == Closed,
		PathsReady:     p.pathsReady,
		Waves:          p.waveSeq,
		Tuples:         p.db.TotalTuples(),
		Watchers:       sm.Watchers,
		WatchQueued:    depth,
		WatchSaved:     sm.SavedExtractions,
		WatchDropped:   sm.DroppedBatches,
		WatchCanceled:  sm.CanceledWatchers,
		WatchExtracted: sm.Extractions,
		BadFrames:      badFrames,
	}
}

// received counts a message Received. Invariant: everything it caused is
// already counted Sent, and it was counted Sent itself — a coordinator keeps
// no counters, so what it sends is not counted here either — so network-wide
// sent = received means nothing is in flight. A batched frame counts as its
// contained messages: the statistical module measures the protocol, the
// Batcher's stats the framing.
func (p *Peer) received(env wire.Envelope) {
	if strings.HasPrefix(env.From, wire.CoordinatorPrefix) {
		return
	}
	m := env.Msg
	if ab, ok := m.(wire.AnswerBatch); ok {
		for _, a := range ab.Acks {
			p.ct.Received(a.Kind(), wire.Size(a))
		}
		for _, a := range ab.Answers {
			p.ct.Received(a.Kind(), wire.Size(a))
		}
		return
	}
	p.ct.Received(m.Kind(), wire.Size(m))
}

// ackLoop is the durable peers' acknowledgment pipeline: it batches whatever
// Handle enqueued since the last round behind ONE group-commit fsync, so
// fsync latency overlaps dispatch and network latency instead of adding to
// them, and frontiers persist once per batch rather than once per answer.
// Once the shell's Close has seen the last step out it cancels ctx; the
// worker then drains the queue and returns.
func (p *Peer) ackLoop(ctx context.Context) {
	for {
		var batch []ackWork
		select {
		case w := <-p.ackCh:
			batch = append(batch, w)
		case <-ctx.Done():
		}
	drain:
		for {
			select {
			case w := <-p.ackCh:
				batch = append(batch, w)
			default:
				break drain
			}
		}
		if len(batch) == 0 {
			return // cancelled, and nothing is queued
		}
		p.applyAckWork(batch)
	}
}

// applyAckWork runs the acknowledgment side effects for one batch of Handle
// rounds: persist the part tuples, pass ONE durability gate, send the merged
// acks, persist the advanced frontier once, count the causes received. Hooks
// are set before construction and never change: no mutex needed to read them.
func (p *Peer) applyAckWork(batch []ackWork) {
	syncForAck := p.opts.SyncForAck
	persistParts := p.opts.PersistParts
	persistMarks := p.opts.PersistMarks

	var acks []pendingAck
	dirty := false
	for _, w := range batch {
		if persistParts != nil {
			for _, pd := range w.parts {
				persistParts(pd)
			}
		}
		acks = append(acks, w.acks...)
		dirty = dirty || w.dirty
	}
	acks = mergeAcks(acks)
	// Append the advanced acked frontier BEFORE the durability gate, so the
	// same group-commit fsync that covers the part tuples covers the marks
	// record. Appending it after the gate would leave the frontier in the
	// unsynced tail under sync-point policies — at quiescence no later sync
	// arrives, so a crash would forget every acknowledgment this node ever
	// received and the restart would re-ship full result sets.
	if dirty && persistMarks != nil {
		persistMarks()
	}
	if len(acks) > 0 || dirty {
		ok := true
		if syncForAck != nil {
			// Durability gate: acknowledge only what is on stable storage.
			// On failure the ack is withheld; the source re-sends later.
			// A marks-only batch (incoming acks, nothing to acknowledge
			// ourselves) passes the same gate to commit its frontier record.
			ok = syncForAck() == nil
		}
		if ok {
			for _, a := range acks {
				// Durable is an honest signal, not a promise: only an ack
				// that passed a sync gate may advance the source's PERSISTED
				// frontier. Ungated acks (no store) still advance the
				// in-memory receipt frontier that drives live retransmission.
				a.msg.Durable = syncForAck != nil
				p.Send(a.to, a.msg)
			}
		}
	}
	for _, w := range batch {
		if w.cause.Msg != nil {
			p.received(w.cause)
		}
	}
}

// mergeAcks folds acknowledgments for the same subscription into one: a
// batched frame (or a pipelined batch of frames) carrying several answers of
// one subscription earns a single AnswerAck whose frontier covers them all —
// the receipt and durable frontiers extend once per batch, not once per
// answer. Acks for distinct subscriptions pass through untouched; order
// among first occurrences is preserved.
func mergeAcks(in []pendingAck) []pendingAck {
	if len(in) < 2 {
		return in
	}
	type ackKey struct {
		to     string
		ruleID string
		subID  uint64
	}
	idx := map[ackKey]int{}
	out := make([]pendingAck, 0, len(in))
	for _, a := range in {
		k := ackKey{to: a.to, ruleID: a.msg.RuleID, subID: a.msg.SubID}
		i, seen := idx[k]
		if seen && !rangesTouch(out[i].msg, a.msg) {
			// A gap between the two ranges is a dropped answer: folding them
			// would acknowledge it. Keep this ack apart (the source ignores
			// it until the gap is re-sent).
			seen = false
		}
		if !seen {
			// Clone the maps: the merged ack must not mutate frontier maps
			// shared with the answers they were built from.
			c := a
			c.msg.Base = maps.Clone(a.msg.Base)
			c.msg.Seqs = maps.Clone(a.msg.Seqs)
			idx[k] = len(out)
			out = append(out, c)
			continue
		}
		// Per relation the merged range runs from the lowest base to the
		// highest seq of the acks covering it. An ack without a Base entry
		// starts at zero (the priming answer's empty frontier), and so does
		// the merge: adopting the other ack's base would make the source see
		// a gap below it and drop the whole ack.
		m := &out[i].msg
		for rel, seq := range a.msg.Seqs {
			base := a.msg.Base[rel]
			cur, covered := m.Seqs[rel]
			if covered && m.Base[rel] < base {
				base = m.Base[rel]
			}
			if !covered || seq > cur {
				if m.Seqs == nil {
					m.Seqs = map[string]uint64{}
				}
				m.Seqs[rel] = seq
			}
			if base == 0 {
				delete(m.Base, rel)
				continue
			}
			if m.Base == nil {
				m.Base = map[string]uint64{}
			}
			m.Base[rel] = base
		}
	}
	return out
}

// rangesTouch reports whether, on every relation both acks cover, their
// Base..Seqs ranges overlap or abut.
func rangesTouch(a, b wire.AnswerAck) bool {
	for rel, aSeq := range a.Seqs {
		bSeq, both := b.Seqs[rel]
		if both && (a.Base[rel] > bSeq || b.Base[rel] > aSeq) {
			return false
		}
	}
	return true
}
