// Package cluster turns the reproduction into a deployable system: it hosts
// one database peer per OS process over the TCP wire protocol, replacing the
// paper's JXTA peer-group layer with three pieces.
//
// The membership transport (Transport) wraps a transport.TCP listener with a
// member table: a starting process seeds the table from its address book
// (the net-file's addr lines), dials the members it knows, announces itself
// with its listen address (Join), learns transitively reachable members from
// the acknowledgments (JoinAck gossip), and keeps liveness fresh with
// heartbeats — a member that falls silent is marked suspect rather than hung
// on, a member that says Goodbye is marked left, and a restarted member
// re-joining under a fresh port overrides the stale address everywhere it
// announces. Membership frames are intercepted below the peer runtime: the
// hosted peer never sees them and they never touch the protocol counters
// that quiescence polling reads.
//
// The coordinator (Coordinator) is the remote control plane: a thin client
// that joins the cluster under a reserved name and speaks the wire control
// verbs against the live serve processes — broadcast rules, start discovery
// and update waves, add and delete links, collect statistics, evaluate
// remote queries, and detect quiescence and closure by polling the peers'
// protocol counters and states over the wire, the rule in-process
// orchestration applies to its own peers on every transport.
//
// Because Transport implements transport.Transport, core.Build and the peer
// runtime run unchanged inside each serve process (Options.Hosted restricts
// a build to the local node), including Options.DataDir: each process
// recovers its own write-ahead log on restart and re-joins delta-only after
// a clean close.
//
// Member (Boot) is the one recipe that puts a serve process together:
// transport, hosted network, and — when configured — the agreed control plane
// (ControlPlane) and the replica manager (internal/replica), with the hooks
// the layers need from each other.
package cluster

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/shell"
	"repro/internal/transport"
	"repro/internal/wire"
)

// CoordinatorName is the reserved member name of the control-plane
// coordinator. The "@" prefix keeps it out of the database namespace: node
// names in network descriptions should not start with '@'.
const CoordinatorName = "@ctl"

// Status is a member's liveness as seen by one process.
type Status uint8

// Member statuses.
const (
	// StatusBook members are known from the address book or gossip but have
	// never been heard from directly; join announcements retry each tick.
	StatusBook Status = iota
	// StatusAlive members sent a Join, JoinAck or Heartbeat recently.
	StatusAlive
	// StatusSuspect members fell silent for longer than the suspicion
	// window. Sends still reach for them (they may return); the dial
	// backoff bounds what an actually-dead process costs.
	StatusSuspect
	// StatusLeft members said Goodbye. They re-enter as alive on re-join.
	StatusLeft
	// StatusDead members have been declared permanently dead by the agreed
	// control plane: suspicion persisted past the configured grace window and
	// a consensus member entry recorded it. The gossip detector itself never
	// produces dead — it cannot tell a long partition from a lost disk — so
	// the status only ever appears in the agreed view, where it triggers
	// replica promotion and re-homing (internal/replica).
	StatusDead
)

// String renders the status.
func (s Status) String() string {
	switch s {
	case StatusAlive:
		return "alive"
	case StatusSuspect:
		return "suspect"
	case StatusLeft:
		return "left"
	case StatusDead:
		return "dead"
	default:
		return "book"
	}
}

// MemberInfo is one row of the member table.
type MemberInfo struct {
	Name     string
	Addr     string
	Status   Status
	LastSeen time.Time // zero for members never heard from
}

// outboxSize bounds the per-member asynchronous send queue of the underlying
// TCP transport: a slow or dead member costs its dedicated writer goroutine
// the dial/write timeouts instead of stalling the handler that sends to it,
// and an overflowing queue drops its oldest data frames (counted; the
// acknowledgment frontier re-ships lost deltas; control frames and acks are
// exempt from eviction).
const outboxSize = 256

// Options tunes the membership layer.
type Options struct {
	// HeartbeatEvery is the liveness and join-retry cadence (default 1s).
	HeartbeatEvery time.Duration
	// SuspectAfter is the silence window after which an alive member becomes
	// suspect (default 3×HeartbeatEvery).
	SuspectAfter time.Duration
	// BatchWindow, when positive, batches the wire protocol: Answers and
	// AnswerAcks bound for the same member coalesce into wire.AnswerBatch
	// frames, and pending heartbeats piggyback on those frames instead of
	// paying their own (transport.NewBatcher, shared by the hosted peer's
	// traffic and the membership plane). The window is the longest hold: a
	// message to a quiet member leaves at once, one that finds the link busy
	// waits at most this long. Zero keeps one frame per message.
	BatchWindow time.Duration
	// BatchBytes flushes a batch early once its encoded payload reaches
	// this size (default 64KiB). Ignored without BatchWindow.
	BatchBytes int
}

func (o Options) withDefaults() Options {
	if o.HeartbeatEvery <= 0 {
		o.HeartbeatEvery = time.Second
	}
	if o.SuspectAfter <= 0 {
		o.SuspectAfter = 3 * o.HeartbeatEvery
	}
	return o
}

// Transport is the cluster membership transport: a transport.Transport that
// hosts one local name (the process's database peer, or the coordinator) plus
// any names it adopted after a promotion, and routes every other name through
// the member table. The failure detector's step (detector.go) runs in the
// transport's shell: lock → step → unlock → effects, with the one timer the
// step arms.
type Transport struct {
	self string
	opts Options
	tcp  *transport.TCP
	// out is what every send goes through: the Batcher over tcp when
	// Options.BatchWindow asked for the batched wire protocol (so the
	// membership plane's heartbeats share frames with the hosted peer's
	// answers and acks), plain tcp otherwise.
	out     transport.Transport
	batcher *transport.Batcher // non-nil when out is the Batcher

	// sh runs the detector's step; its lock guards the fields below. Close
	// waits for the steps in flight, so no heartbeat or JoinAck leaves after
	// the Goodbye.
	sh  *shell.Shell[detEffect]
	det *detector // the failure detector and member table (detector.go)
	// changed is fired on every member-status change (WaitMembers wakes on it).
	changed wake
	// handlers holds the handler of every name this process answers for: its
	// own (absent until Register) and the adopted peers of re-homed nodes.
	// Heartbeats for an adopted name carry this process's listen address, so
	// the rest of the cluster re-homes the name.
	handlers   map[string]transport.Handler
	onMemberUp func(node string) // fired when a suspect/left member returns alive
	// onStatus is fired on every member-status transition (alive, suspect,
	// left). Runs outside the table lock.
	onStatus func(node string, st Status)
	// propose submits the detector's member commands through the attached
	// control plane (nil: none attached).
	propose func(cmd wire.Command)
	// intercept, when set, sees every non-membership frame before the hosted
	// peer; returning true consumes it. The replicated control plane hooks
	// its consensus rounds and control verbs here (SetConsensus).
	intercept func(env wire.Envelope) bool
	// replica, when set, sees replication stream frames (ReplicaAppend and
	// friends, plus the replica halves of an AnswerBatch) before the control
	// plane and the hosted peer (SetReplica). The replica manager hooks here.
	replica func(env wire.Envelope) bool
	// aliasOK holds node names AllowAlias pre-authorised for Register.
	aliasOK map[string]bool
	// linkDown names the members whose links are cut, frames to and from
	// them dropped — transient-partition injection for the tests
	// (setLinkDown). It is nil while no link is cut, so the frame paths read
	// one pointer and take no lock; a cut replaces the whole map.
	linkDown atomic.Pointer[map[string]bool]
}

// New starts a cluster member: a TCP listener on listenAddr and a member
// table seeded from the address book (node -> host:port; typically the
// net-file's addr lines). The returned transport is ready for core.Build
// with Options.Hosted = []string{self}; call Announce once the peer is
// registered to run the join handshake.
func New(self, listenAddr string, book map[string]string, opts Options) (*Transport, error) {
	if self == "" {
		return nil, fmt.Errorf("cluster: empty member name")
	}
	opts = opts.withDefaults()
	tcp, err := transport.NewTCP(listenAddr, nil)
	if err != nil {
		return nil, err
	}
	tcp.OutboxSize = outboxSize
	c := &Transport{
		self:     self,
		opts:     opts,
		tcp:      tcp,
		out:      tcp,
		det:      newDetector(self, tcp.Addr(), book, opts, time.Now()),
		handlers: map[string]transport.Handler{},
		aliasOK:  map[string]bool{},
	}
	if opts.BatchWindow > 0 {
		c.batcher = transport.NewBatcher(tcp, transport.BatcherOptions{
			Window:   opts.BatchWindow,
			MaxBytes: opts.BatchBytes,
		})
		c.out = c.batcher
	}
	c.sh = shell.New(c.run, func(e detEffect) (time.Time, bool) { return e.when, e.kind == detArm },
		func(now time.Time, _ []detEffect) []detEffect { return c.det.step(now, detTick{}) })
	// The first beat is due a beat from now.
	c.sh.Step(func(_ time.Time, buf []detEffect) []detEffect {
		return append(buf, detEffect{kind: detArm, when: c.det.nextBeat})
	})
	if err := tcp.Register(self, func(env wire.Envelope) { c.dispatch(self, env) }); err != nil {
		c.stop()
		_ = tcp.Close()
		return nil, err
	}
	return c, nil
}

// Self returns the local member name.
func (c *Transport) Self() string { return c.self }

// Addr returns the local listen address.
func (c *Transport) Addr() string { return c.tcp.Addr() }

// Members snapshots the member table, sorted by name. The local member is
// not listed.
func (c *Transport) Members() []MemberInfo {
	c.sh.Lock()
	defer c.sh.Unlock()
	out := make([]MemberInfo, 0, len(c.det.members))
	for name, m := range c.det.members {
		out = append(out, MemberInfo{Name: name, Addr: m.addr, Status: m.status, LastSeen: m.lastSeen})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Announce runs the join handshake: a Join (name, listen address, gossiped
// member table) to every known member. Acknowledgments and their gossip feed
// the table, and the detector keeps re-announcing to members that have not
// answered yet, so a process started before its dependencies converges once
// they come up.
func (c *Transport) Announce() { c.deliver(announce{}) }

// deliver steps the detector with one event. After Close or Abandon events
// are dropped.
func (c *Transport) deliver(ev any) {
	c.sh.Step(func(now time.Time, _ []detEffect) []detEffect { return c.det.step(now, ev) })
}

// run carries out the detector's effects once the lock is released.
func (c *Transport) run(effs []detEffect) {
	c.sh.Lock()
	up, onStatus, propose := c.onMemberUp, c.onStatus, c.propose
	c.sh.Unlock()
	for _, e := range effs {
		switch e.kind {
		case detSend:
			_ = c.transmit(e.from, e.node, e.msg)
		case detStatus:
			if e.up && up != nil {
				up(e.node)
			}
			if onStatus != nil {
				onStatus(e.node, e.status)
			}
			c.changed.fire()
		case detPropose:
			if propose != nil {
				propose(e.cmd)
			}
		}
	}
}

// cut reports whether the link to member is cut (setLinkDown).
func (c *Transport) cut(member string) bool {
	down := c.linkDown.Load()
	return down != nil && (*down)[member]
}

// transmit is the egress point (SendRun the same for a run): every frame
// this process originates (membership, hosted peer, control plane) passes the
// link-fault filter, and points the socket layer at the member table's
// address for its addressee, before reaching the wire.
func (c *Transport) transmit(from, to string, msg wire.Message) error {
	if !c.addressTo(to) {
		return nil // a cut link eats frames silently, like a real partition
	}
	return c.out.Send(from, to, msg)
}

// SendRun implements transport.RunSender: one run through the Batcher, so
// one pass's watch deltas to a client share a frame.
func (c *Transport) SendRun(from, to string, msgs []wire.Message) (int, error) {
	if !c.addressTo(to) {
		return len(msgs), nil
	}
	return transport.SendRun(c.out, from, to, msgs)
}

// addressTo points the socket layer's address book at the member table's
// address for to, and reports false when the link to it is cut.
func (c *Transport) addressTo(to string) bool {
	if c.cut(to) {
		return false
	}
	c.sh.Lock()
	var addr string
	if m := c.det.members[to]; m != nil {
		addr = m.addr
	}
	c.sh.Unlock()
	if addr != "" {
		c.tcp.SetPeerAddr(to, addr)
	}
	return true
}

// dispatch is the TCP handler of every name this process answers for — its
// own and each adopted one alike. Membership frames are consumed here, a
// batch is split into its planes here (and nowhere else), and everything
// else goes through route to the name's peer.
func (c *Transport) dispatch(name string, env wire.Envelope) {
	// Frames from a member this process considers cut are dropped on ingress
	// too: a partition severs both directions even when only this side
	// injected it (the TCP socket itself stays up).
	if c.cut(env.From) {
		return
	}
	switch m := env.Msg.(type) {
	case wire.Join:
		c.deliver(heard{node: m.Node, addr: m.Addr, book: m.Members, ackFrom: name})
	case wire.JoinAck:
		c.deliver(heard{node: env.From, book: m.Members}) // address already known: we dialled it
	case wire.Heartbeat:
		c.deliver(heard{node: m.Node, addr: m.Addr})
	case wire.Goodbye:
		c.deliver(goodbye{node: m.Node})
	case wire.AnswerBatch:
		// A batched frame carries up to four planes. Piggybacked heartbeats
		// are membership (consumed as a bare Heartbeat would be); replication
		// frames and watch deltas fan back out one by one, in order, exactly
		// as if each had paid its own frame; the database-plane remainder —
		// if any — reaches the peer as a batch.
		for _, hb := range m.Beats {
			c.deliver(heard{node: hb.Node, addr: hb.Addr})
		}
		for _, ra := range m.RepAcks {
			c.route(name, wire.Envelope{From: env.From, To: env.To, Msg: ra})
		}
		for _, ra := range m.RepAppends {
			c.route(name, wire.Envelope{From: env.From, To: env.To, Msg: ra})
		}
		for _, wd := range m.WatchDeltas {
			c.route(name, wire.Envelope{From: env.From, To: env.To, Msg: wd})
		}
		if len(m.Answers) > 0 || len(m.Acks) > 0 {
			env.Msg = wire.AnswerBatch{Answers: m.Answers, Acks: m.Acks}
			c.route(name, env)
		}
	default:
		c.route(name, env)
	}
}

// route delivers one non-membership frame addressed to a hosted name: the
// replication stream to the replica manager, everything else past the
// control plane's interceptor to the name's peer (dropped while none is
// registered — the protocol tolerates lost messages by design). The only
// name-dependent rule: an adopted name drops consensus rounds. A dead
// member's Paxos identity is not inherited — answering rounds under a second
// name would double-count this process's vote.
func (c *Transport) route(name string, env wire.Envelope) {
	c.sh.Lock()
	rep, ic, h := c.replica, c.intercept, c.handlers[name]
	c.sh.Unlock()
	switch env.Msg.(type) {
	case wire.ReplicaAppend, wire.ReplicaAck, wire.ReplicaSyncReq,
		wire.ReplicaState, wire.ReplicaStatusRequest:
		// Consumed below the peer runtime, like membership and consensus
		// frames. Without a registered manager they are dropped — the
		// stream's ack discipline re-ships anything that mattered.
		if rep != nil {
			rep(env)
		}
		return
	case wire.Prepare, wire.Promise, wire.Accept, wire.Accepted,
		wire.Learn, wire.CatchUp, wire.Snapshot:
		if name != c.self {
			return
		}
	}
	if ic != nil && ic(env) {
		return
	}
	if h != nil {
		h(env)
	}
}

// SetReplica installs the replica manager's frame handler: it consumes the
// replication stream (appends, acks, anti-entropy requests, shipped state,
// status requests) below the control plane and the hosted peer. The callback
// runs on transport goroutines; it must not block on quorum waits.
func (c *Transport) SetReplica(fn func(env wire.Envelope) bool) {
	c.sh.Lock()
	c.replica = fn
	c.sh.Unlock()
}

// SetConsensus installs the control-plane interceptor: it sees every frame
// the membership layer did not consume, before the hosted peer, and eats the
// ones it returns true for (consensus rounds, control verbs routed through
// the replicated log). The callback runs on transport goroutines — it must
// not block on quorum waits (the control plane submits from fresh
// goroutines).
func (c *Transport) SetConsensus(fn func(env wire.Envelope) bool) {
	c.sh.Lock()
	c.intercept = fn
	c.sh.Unlock()
}

// SetOnStatusChange registers a callback fired on every member-status
// transition this process observes (alive, suspect, left) — the failure
// detector's edge events. Member uses it to drop the wire watches of a client
// that said Goodbye. Runs on transport goroutines and the detector's timer,
// outside the table lock.
func (c *Transport) SetOnStatusChange(fn func(node string, st Status)) {
	c.sh.Lock()
	c.onStatus = fn
	c.sh.Unlock()
}

// attachPlane hands reconciliation to a control plane: from now on the
// detector compares its readings with the agreed view (view first, then each
// one the plane delivers) whenever either changes, and every reconcileEvery
// as a retry, escalates deadAfter of continuous suspicion to death (zero:
// never), and proposes what differs through propose, which must not block.
func (c *Transport) attachPlane(propose func(cmd wire.Command), reconcileEvery, deadAfter time.Duration, view agreedView) {
	c.sh.Step(func(now time.Time, _ []detEffect) []detEffect {
		c.propose = propose
		c.det.attach(reconcileEvery, deadAfter)
		return c.det.step(now, view)
	})
}

// SetOnMemberUp registers a callback fired when a member previously marked
// suspect or left comes back alive (a rejoin or a healed partition, as seen
// from this process). Orchestration wires it to the hosted peer's
// ResendUnackedTo: the returning member is exactly the dependent whose
// acknowledgments stopped, so whatever accumulated past its acked frontier
// while it was gone ships now instead of waiting for the next epoch. The
// callback runs on transport goroutines, outside the member-table lock; keep
// it non-blocking towards the cluster layer.
func (c *Transport) SetOnMemberUp(fn func(node string)) {
	c.sh.Lock()
	c.onMemberUp = fn
	c.sh.Unlock()
}

// Register implements transport.Transport. A cluster transport hosts its own
// node (or the coordinator), whose name was fixed at New — plus any adopted
// peers whose names were pre-authorised with AllowAlias (replica promotion
// re-homes a dead member's database peer into this process). An adopted name
// is an ordinary registration: frames addressed to it that reach this
// process's listener take the same dispatch, and the failure detector starts
// announcing the name at this process's address so the rest of the cluster
// re-homes it (every member's observe adopts the newest directly-asserted
// address). Sources then fire their member-up resend hook for the name, which
// re-ships whatever accumulated past its acked frontiers while the original
// host was dying.
func (c *Transport) Register(node string, h transport.Handler) error {
	c.sh.Lock()
	switch {
	case c.sh.Closed():
		c.sh.Unlock()
		return transport.ErrClosed
	case node != c.self && !c.aliasOK[node]:
		c.sh.Unlock()
		return fmt.Errorf("cluster: this process hosts %q, cannot register %q", c.self, node)
	case c.handlers[node] != nil:
		c.sh.Unlock()
		return fmt.Errorf("cluster: %q already registered", node)
	}
	c.handlers[node] = h
	c.sh.Unlock()
	if node == c.self {
		return nil
	}
	if err := c.tcp.Register(node, func(env wire.Envelope) { c.dispatch(node, env) }); err != nil {
		c.sh.Lock()
		delete(c.handlers, node)
		c.sh.Unlock()
		return err
	}
	c.deliver(hosting{node: node, on: true})
	return nil
}

// AllowAlias pre-authorises hosting an adopted peer under the given node
// name: the next Register(node, ...) — which peer construction performs —
// binds it instead of being rejected. Replica promotion calls it right
// before re-building the dead member's peer in this process.
func (c *Transport) AllowAlias(node string) {
	c.sh.Lock()
	c.aliasOK[node] = true
	c.sh.Unlock()
}

// Unregister stops answering for an adopted name (the agreed log re-homed it
// to another member): its frames are no longer dispatched, the detector
// stops asserting this process's address under it, and the table entry ages
// like any other member's again. The process's own name cannot be
// unregistered.
func (c *Transport) Unregister(node string) {
	if node == c.self {
		return
	}
	c.sh.Lock()
	delete(c.handlers, node)
	delete(c.aliasOK, node)
	c.sh.Unlock()
	c.tcp.Unregister(node)
	c.deliver(hosting{node: node})
}

// Send implements transport.Transport: the member table has already fed the
// TCP address book, so sends resolve through it (via the Batcher when the
// batched wire protocol is on). Unknown members are an addressing error the
// protocol tolerates.
func (c *Transport) Send(from, to string, msg wire.Message) error {
	return c.transmit(from, to, msg)
}

// Close implements transport.Transport: a clean leave. Alive members get a
// Goodbye (so they mark this process left instead of suspecting it), the
// detector stops, and the listener closes. The Goodbye goes through
// the Batcher, whose flush-on-Close drains it behind any held answers.
func (c *Transport) Close() error {
	alive, ok := c.stop()
	for _, name := range alive {
		_ = c.transmit(c.self, name, wire.Goodbye{Node: c.self})
	}
	if !ok {
		return nil
	}
	return c.out.Close()
}

// Abandon closes the listener without a Goodbye — the crash path. Remaining
// members must detect the loss through heartbeat suspicion. (Tests and crash
// simulation; a real crash needs no call at all.) Held batches are dropped
// with the sockets, as a real crash would drop them.
func (c *Transport) Abandon() error {
	if _, ok := c.stop(); !ok {
		return nil
	}
	err := c.tcp.Close()
	if c.batcher != nil {
		// Stop the flusher goroutine; its remaining flushes hit the closed
		// TCP transport and are discarded, matching crash semantics.
		_ = c.batcher.Close()
	}
	return err
}

// stop ends the detector — no event is stepped after it, and the steps in
// flight have run their effects when it returns — and lists the members then
// alive. It reports false when the transport was stopped already.
func (c *Transport) stop() ([]string, bool) {
	if !c.sh.Close() {
		return nil, false
	}
	c.sh.Lock()
	defer c.sh.Unlock()
	var alive []string
	for _, name := range sortedKeys(c.det.members) {
		if c.det.members[name].status == StatusAlive {
			alive = append(alive, name)
		}
	}
	return alive, true
}

// TCP exposes the underlying socket transport (deadline/backoff tuning).
func (c *Transport) TCP() *transport.TCP { return c.tcp }

// BadFrames reports the frames this process received but could not decode;
// hosted peers copy it into their StateReport for `ctl status`.
func (c *Transport) BadFrames() uint64 { return c.tcp.BadFrames() }

// BatchStats reports the Batcher's frame accounting; ok is false when the
// member runs unbatched (Options.BatchWindow zero).
func (c *Transport) BatchStats() (transport.BatchStats, bool) {
	if c.batcher == nil {
		return transport.BatchStats{}, false
	}
	return c.batcher.Stats(), true
}

// wake is a broadcast: fire closes the channel every waiter holds.
type wake struct {
	mu sync.Mutex
	ch chan struct{}
}

// wait returns a channel the next fire closes. Take it before reading what
// the fire announces, so that no fire in between is missed.
func (w *wake) wait() <-chan struct{} {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.ch == nil {
		w.ch = make(chan struct{})
	}
	return w.ch
}

func (w *wake) fire() {
	w.mu.Lock()
	if w.ch != nil {
		close(w.ch)
		w.ch = nil
	}
	w.mu.Unlock()
}

// IsCoordinator reports whether a member name belongs to the control plane
// rather than the database network.
func IsCoordinator(name string) bool { return strings.HasPrefix(name, wire.CoordinatorPrefix) }

var (
	_ transport.Transport = (*Transport)(nil)
	_ transport.RunSender = (*Transport)(nil)
)
