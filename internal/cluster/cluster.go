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
	"time"

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

// Options tunes the membership layer.
type Options struct {
	// HeartbeatEvery is the liveness and join-retry cadence (default 1s).
	HeartbeatEvery time.Duration
	// SuspectAfter is the silence window after which an alive member becomes
	// suspect (default 3×HeartbeatEvery).
	SuspectAfter time.Duration
	// OutboxSize bounds the per-member asynchronous send queue of the
	// underlying TCP transport (default 256 frames): a slow or dead member
	// costs its dedicated writer goroutine the dial/write timeouts instead
	// of stalling the handler that sends to it, and an overflowing queue
	// drops its oldest data frames (counted; the acknowledgment frontier
	// re-ships lost deltas; control frames and acks are exempt from
	// eviction). Negative restores synchronous sends.
	OutboxSize int
	// BatchWindow, when positive, batches the wire protocol: Answers and
	// AnswerAcks bound for the same member coalesce into wire.AnswerBatch
	// frames, and pending heartbeats piggyback on those frames instead of
	// paying their own (transport.NewBatcher, shared by the hosted peer's
	// traffic and the membership plane). The window is the longest hold: a
	// message to a quiet member leaves at once, one that finds the link busy
	// waits at most this long. Zero keeps one frame per message.
	BatchWindow time.Duration
	// BatchBytes flushes a batch early once its payload estimate reaches
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
	if o.OutboxSize == 0 {
		o.OutboxSize = 256
	}
	return o
}

// member is the mutable table entry behind a MemberInfo row.
type member struct {
	addr     string
	status   Status
	lastSeen time.Time
}

// Transport is the cluster membership transport: a transport.Transport that
// hosts one local name (the process's database peer, or the coordinator) plus
// any names it adopted after a promotion, and routes every other name through
// the member table.
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

	mu      sync.Mutex
	members map[string]*member
	// handlers holds the handler of every name this process answers for: its
	// own (absent until Register) and the adopted peers of re-homed nodes.
	// Heartbeats for an adopted name carry this process's listen address, so
	// the rest of the cluster re-homes the name.
	handlers   map[string]transport.Handler
	onMemberUp func(node string) // fired when a suspect/left member returns alive
	// onStatus is fired on every member-status transition (alive, suspect,
	// left). Runs outside the table lock.
	onStatus func(node string, st Status)
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
	// linkDown cuts outgoing frames per destination — transient-partition
	// injection for tests and experiments (cut both directions by calling it
	// on each side).
	linkDown map[string]bool
	closed   bool

	quit chan struct{}
	wg   sync.WaitGroup
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
	if opts.OutboxSize > 0 {
		tcp.OutboxSize = opts.OutboxSize
	}
	c := &Transport{
		self:     self,
		opts:     opts,
		tcp:      tcp,
		out:      tcp,
		members:  map[string]*member{},
		handlers: map[string]transport.Handler{},
		linkDown: map[string]bool{},
		aliasOK:  map[string]bool{},
		quit:     make(chan struct{}),
	}
	if opts.BatchWindow > 0 {
		c.batcher = transport.NewBatcher(tcp, transport.BatcherOptions{
			Window:   opts.BatchWindow,
			MaxBytes: opts.BatchBytes,
		})
		c.out = c.batcher
	}
	for node, addr := range book {
		if node == self || addr == "" {
			continue
		}
		c.members[node] = &member{addr: addr, status: StatusBook}
		tcp.SetPeerAddr(node, addr)
	}
	if err := tcp.Register(self, func(env wire.Envelope) { c.dispatch(self, env) }); err != nil {
		_ = tcp.Close()
		return nil, err
	}
	c.wg.Add(1)
	go c.heartbeatLoop()
	return c, nil
}

// Self returns the local member name.
func (c *Transport) Self() string { return c.self }

// Addr returns the local listen address.
func (c *Transport) Addr() string { return c.tcp.Addr() }

// Members snapshots the member table, sorted by name. The local member is
// not listed.
func (c *Transport) Members() []MemberInfo {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]MemberInfo, 0, len(c.members))
	for name, m := range c.members {
		out = append(out, MemberInfo{Name: name, Addr: m.addr, Status: m.status, LastSeen: m.lastSeen})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Announce runs the join handshake: a Join (name, listen address, gossiped
// member table) to every known member. Acknowledgments and their gossip feed
// the table, and the heartbeat loop keeps re-announcing to members that have
// not answered yet, so a process started before its dependencies converges
// once they come up.
func (c *Transport) Announce() {
	for _, name := range c.targets(func(m *member) bool { return m.status != StatusLeft }) {
		c.sendJoin(name)
	}
}

// targets lists member names matching the filter. It takes and releases the
// lock: callers send outside it.
func (c *Transport) targets(keep func(*member) bool) []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, 0, len(c.members))
	for name, m := range c.members {
		if keep(m) {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// bookSnapshot renders the member table as gossip (name -> address),
// including the local member. Departed members are withheld: gossiping a
// Goodbye'd member's dead address would make every later joiner adopt it
// and retry joins against it forever (a returning member re-announces
// itself directly, which overrides Left everywhere it matters).
func (c *Transport) bookSnapshot() map[string]string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]string, len(c.members)+1)
	out[c.self] = c.tcp.Addr()
	for name, m := range c.members {
		if m.addr != "" && m.status != StatusLeft {
			out[name] = m.addr
		}
	}
	return out
}

func (c *Transport) sendJoin(to string) {
	_ = c.transmit(c.self, to, wire.Join{Node: c.self, Addr: c.tcp.Addr(), Members: c.bookSnapshot()})
}

// transmit is the single egress point: every frame this process originates
// (membership, hosted peer, control plane) passes the link-fault filter
// before reaching the wire.
func (c *Transport) transmit(from, to string, msg wire.Message) error {
	c.mu.Lock()
	down := c.linkDown[to]
	c.mu.Unlock()
	if down {
		return nil // a cut link eats frames silently, like a real partition
	}
	return c.out.Send(from, to, msg)
}

// SetLinkDown cuts (or restores) this process's outgoing frames to one
// member — transient-partition injection for tests and experiments. A
// symmetric partition needs the mirror call on the other side. Heartbeats
// stop crossing a cut link, so suspicion and the agreed member view react
// exactly as they would to a dropped network segment.
func (c *Transport) SetLinkDown(to string, down bool) {
	c.mu.Lock()
	c.linkDown[to] = down
	c.mu.Unlock()
}

// dispatch is the TCP handler of every name this process answers for — its
// own and each adopted one alike. Membership frames are consumed here, a
// batch is split into its planes here (and nowhere else), and everything
// else goes through route to the name's peer.
func (c *Transport) dispatch(name string, env wire.Envelope) {
	// Frames from a member this process considers cut are dropped on ingress
	// too: a partition severs both directions even when only this side
	// injected it (the TCP socket itself stays up).
	c.mu.Lock()
	down := c.linkDown[env.From]
	c.mu.Unlock()
	if down {
		return
	}
	switch m := env.Msg.(type) {
	case wire.Join:
		c.observe(m.Node, m.Addr)
		c.merge(m.Members)
		_ = c.transmit(name, m.Node, wire.JoinAck{Members: c.bookSnapshot()})
	case wire.JoinAck:
		c.observe(env.From, "") // address already known: we dialled it
		c.merge(m.Members)
	case wire.Heartbeat:
		c.observe(m.Node, m.Addr)
	case wire.Goodbye:
		c.mu.Lock()
		var fire func(string, Status)
		if entry, ok := c.members[m.Node]; ok && entry.status != StatusLeft {
			entry.status = StatusLeft
			fire = c.onStatus
		}
		c.mu.Unlock()
		if fire != nil {
			fire(m.Node, StatusLeft)
		}
	case wire.AnswerBatch:
		// A batched frame carries up to four planes. Piggybacked heartbeats
		// are membership (consumed as a bare Heartbeat would be); replication
		// frames and watch deltas fan back out one by one, in order, exactly
		// as if each had paid its own frame; the database-plane remainder —
		// if any — reaches the peer as a batch.
		for _, hb := range m.Beats {
			c.observe(hb.Node, hb.Addr)
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
	c.mu.Lock()
	rep, ic, h := c.replica, c.intercept, c.handlers[name]
	c.mu.Unlock()
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
	c.mu.Lock()
	c.replica = fn
	c.mu.Unlock()
}

// SetConsensus installs the control-plane interceptor: it sees every frame
// the membership layer did not consume, before the hosted peer, and eats the
// ones it returns true for (consensus rounds, control verbs routed through
// the replicated log). The callback runs on transport goroutines — it must
// not block on quorum waits (the control plane submits from fresh
// goroutines).
func (c *Transport) SetConsensus(fn func(env wire.Envelope) bool) {
	c.mu.Lock()
	c.intercept = fn
	c.mu.Unlock()
}

// SetOnStatusChange registers a callback fired on every member-status
// transition this process observes (alive, suspect, left) — the failure
// detector's edge events. Member uses it to drop the wire watches of a client
// that said Goodbye; the control plane's reconciliation loop polls Members()
// instead, so a transition seen during a minority partition never blocks a
// transport goroutine on an unreachable quorum. Runs on transport goroutines,
// outside the table lock.
func (c *Transport) SetOnStatusChange(fn func(node string, st Status)) {
	c.mu.Lock()
	c.onStatus = fn
	c.mu.Unlock()
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
	c.mu.Lock()
	c.onMemberUp = fn
	c.mu.Unlock()
}

// observe records direct contact with a member: it becomes alive and, when
// it asserted an address, that address wins over anything gossiped or stale
// (the restarted-process case).
func (c *Transport) observe(node, addr string) {
	if node == c.self || node == "" {
		return
	}
	c.mu.Lock()
	m, ok := c.members[node]
	if !ok {
		m = &member{}
		c.members[node] = m
	}
	// First contact (book entries, brand-new members) is not a rejoin: only
	// a member this process had already written off coming back counts.
	rejoined := ok && (m.status == StatusSuspect || m.status == StatusLeft)
	becameAlive := m.status != StatusAlive
	if addr != "" {
		m.addr = addr
	}
	m.status = StatusAlive
	m.lastSeen = time.Now()
	addr = m.addr
	up := c.onMemberUp
	statusFn := c.onStatus
	c.mu.Unlock()
	if addr != "" {
		c.tcp.SetPeerAddr(node, addr)
	}
	if rejoined && up != nil {
		up(node)
	}
	if becameAlive && statusFn != nil {
		statusFn(node, StatusAlive)
	}
}

// merge folds gossiped book entries in. Gossip only fills names this process
// has never seen — it never overwrites a known address, so a stale gossiped
// entry cannot undo a direct observation.
func (c *Transport) merge(book map[string]string) {
	var added []string
	c.mu.Lock()
	for name, addr := range book {
		if name == c.self || addr == "" {
			continue
		}
		if _, known := c.members[name]; known {
			continue
		}
		c.members[name] = &member{addr: addr, status: StatusBook}
		added = append(added, name)
	}
	c.mu.Unlock()
	for _, name := range added {
		c.tcp.SetPeerAddr(name, book[name])
		c.sendJoin(name) // transitive announce: the new member learns us too
	}
}

// heartbeatLoop keeps liveness fresh: alive members get heartbeats, members
// never (or no longer) confirmed get join retries, silent members become
// suspect.
func (c *Transport) heartbeatLoop() {
	defer c.wg.Done()
	ticker := time.NewTicker(c.opts.HeartbeatEvery)
	defer ticker.Stop()
	for {
		select {
		case <-c.quit:
			return
		case <-ticker.C:
		}
		now := time.Now()
		type task struct {
			name string
			join bool
		}
		var tasks []task
		var suspected []string
		var hosted []string
		c.mu.Lock()
		for name := range c.handlers {
			if name == c.self {
				continue
			}
			// Adopted peers live exactly as long as this process: their table
			// entries never age into suspicion here, and the loop announces
			// them below so everyone else keeps them alive too.
			if m, ok := c.members[name]; ok {
				m.status = StatusAlive
				m.lastSeen = now
			}
			hosted = append(hosted, name)
		}
		for name, m := range c.members {
			switch m.status {
			case StatusAlive:
				if now.Sub(m.lastSeen) > c.opts.SuspectAfter {
					m.status = StatusSuspect
					suspected = append(suspected, name)
					tasks = append(tasks, task{name, true})
				} else {
					tasks = append(tasks, task{name, false})
				}
			case StatusBook, StatusSuspect:
				tasks = append(tasks, task{name, true})
			}
		}
		statusFn := c.onStatus
		c.mu.Unlock()
		if statusFn != nil {
			for _, name := range suspected {
				statusFn(name, StatusSuspect)
			}
		}
		addr := c.tcp.Addr()
		sort.Strings(hosted)
		for _, tk := range tasks {
			if tk.join {
				c.sendJoin(tk.name)
			} else {
				// Through transmit/out: with batching on, the heartbeat waits
				// one window for a data frame to ride on (latest wins when
				// several queue) instead of always paying its own frame.
				_ = c.transmit(c.self, tk.name, wire.Heartbeat{Node: c.self, Addr: addr})
				// Heartbeats on behalf of adopted peers assert this process's
				// address under their names — the re-homing signal.
				for _, alias := range hosted {
					if alias != tk.name {
						_ = c.transmit(alias, tk.name, wire.Heartbeat{Node: alias, Addr: addr})
					}
				}
			}
		}
	}
}

// Register implements transport.Transport. A cluster transport hosts its own
// node (or the coordinator), whose name was fixed at New — plus any adopted
// peers whose names were pre-authorised with AllowAlias (replica promotion
// re-homes a dead member's database peer into this process). An adopted name
// is an ordinary registration: frames addressed to it that reach this
// process's listener take the same dispatch, and the heartbeat loop starts
// announcing the name at this process's address so the rest of the cluster
// re-homes it (every member's observe adopts the newest directly-asserted
// address). Sources then fire their member-up resend hook for the name, which
// re-ships whatever accumulated past its acked frontiers while the original
// host was dying.
func (c *Transport) Register(node string, h transport.Handler) error {
	c.mu.Lock()
	switch {
	case c.closed:
		c.mu.Unlock()
		return transport.ErrClosed
	case node != c.self && !c.aliasOK[node]:
		c.mu.Unlock()
		return fmt.Errorf("cluster: this process hosts %q, cannot register %q", c.self, node)
	case c.handlers[node] != nil:
		c.mu.Unlock()
		return fmt.Errorf("cluster: %q already registered", node)
	}
	c.handlers[node] = h
	if node == c.self {
		c.mu.Unlock()
		return nil
	}
	// The local table entry stops aging: this process answers for the name
	// now, so its own failure detector must not keep calling it suspect.
	m, ok := c.members[node]
	if !ok {
		m = &member{}
		c.members[node] = m
	}
	m.status = StatusAlive
	m.lastSeen = time.Now()
	m.addr = c.tcp.Addr()
	c.mu.Unlock()
	if err := c.tcp.Register(node, func(env wire.Envelope) { c.dispatch(node, env) }); err != nil {
		c.mu.Lock()
		delete(c.handlers, node)
		c.mu.Unlock()
		return err
	}
	// Announce immediately on behalf of the name: a Join asserting this
	// process's address re-homes it everywhere without waiting a heartbeat
	// tick.
	for _, name := range c.targets(func(m *member) bool { return m.status != StatusLeft }) {
		if name != node {
			_ = c.transmit(node, name, wire.Join{Node: node, Addr: c.tcp.Addr(), Members: c.bookSnapshot()})
		}
	}
	return nil
}

// AllowAlias pre-authorises hosting an adopted peer under the given node
// name: the next Register(node, ...) — which peer construction performs —
// binds it instead of being rejected. Replica promotion calls it right
// before re-building the dead member's peer in this process.
func (c *Transport) AllowAlias(node string) {
	c.mu.Lock()
	c.aliasOK[node] = true
	c.mu.Unlock()
}

// Unregister stops answering for an adopted name (the agreed log re-homed it
// to another member): its frames are no longer dispatched, the heartbeat loop
// stops asserting this process's address under it, and the table entry ages
// like any other member's again. The process's own name cannot be
// unregistered.
func (c *Transport) Unregister(node string) {
	if node == c.self {
		return
	}
	c.mu.Lock()
	delete(c.handlers, node)
	delete(c.aliasOK, node)
	c.mu.Unlock()
	c.tcp.Unregister(node)
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
// heartbeat loop stops, and the listener closes. The Goodbye goes through
// the Batcher, whose flush-on-Close drains it behind any held answers.
func (c *Transport) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.mu.Unlock()
	close(c.quit)
	c.wg.Wait()
	for _, name := range c.targets(func(m *member) bool { return m.status == StatusAlive }) {
		_ = c.transmit(c.self, name, wire.Goodbye{Node: c.self})
	}
	return c.out.Close()
}

// Abandon closes the listener without a Goodbye — the crash path. Remaining
// members must detect the loss through heartbeat suspicion. (Tests and crash
// simulation; a real crash needs no call at all.) Held batches are dropped
// with the sockets, as a real crash would drop them.
func (c *Transport) Abandon() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.mu.Unlock()
	close(c.quit)
	c.wg.Wait()
	err := c.tcp.Close()
	if c.batcher != nil {
		// Stop the flusher goroutine; its remaining flushes hit the closed
		// TCP transport and are discarded, matching crash semantics.
		_ = c.batcher.Close()
	}
	return err
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

// IsCoordinator reports whether a member name belongs to the control plane
// rather than the database network.
func IsCoordinator(name string) bool { return strings.HasPrefix(name, wire.CoordinatorPrefix) }

var _ transport.Transport = (*Transport)(nil)
