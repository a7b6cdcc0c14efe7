// Package replica keeps each node's extensional relations alive on k other
// serve members. Placement is the pure rendezvous function over the
// consensus-agreed member table (cluster.RendezvousPlacement), so every
// member derives the same replica sets from the same agreed view without any
// placement protocol of its own. The data path is mirror-driven: a member
// that finds itself in a node's placement opens a durable mirror store and
// solicits the stream with a ReplicaSyncReq carrying its recovered frontier;
// the primary then ships WAL-seq-stamped suffixes (ReplicaAppend, batched by
// transport.Batcher alongside the answer traffic) over one storage.Stream per
// mirror — the frontier rule subscriptions use too. A mirror applies a suffix
// as storage.Extend says and syncs its store before it acks, and only durable
// acks advance the stream, so its relation sequence numbers equal the
// primary's — which is what lets the primary's shipped subscription marks
// remain valid against the mirror after a promotion re-homes the node.
//
// A Manager runs both halves in a shell.Shell: each inbound frame is one
// step, and the pass that ships is the shell's tick, which an insert or a
// solicitation kicks and the shell's timer fires. Frames leave as effects
// after the lock; ticks run one at a time, effects included, so a stream's
// appends leave in the order they were cut.
//
// The control plane (internal/cluster) owns the decisions: it declares
// primaries permanently dead, runs the promotion election over the durable
// frontiers this package reports, and calls back into the winner, which
// promotes its mirror into a live peer (core.Network.Adopt).
package replica

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"time"

	"repro/internal/relalg"
	"repro/internal/shell"
	"repro/internal/storage"
	"repro/internal/wal"
	"repro/internal/wire"
)

// Control is the slice of the agreed control plane the replica manager reads.
// *cluster.ControlPlane satisfies it.
type Control interface {
	// PlacementFor returns the members that should hold a node's replicas
	// under the current agreed view, plus the view version pinning the
	// placement epoch.
	PlacementFor(node string) ([]string, uint64)
	// HostOf returns the member currently hosting a node's primary.
	HostOf(node string) string
	// OnViewChange registers wake, to be called whenever what PlacementFor
	// and HostOf answer may have changed; wake does not block.
	OnViewChange(wake func())
}

// Options tunes a Manager.
type Options struct {
	// Member is this process's member name (stream endpoints speak member
	// names; the replicated nodes ride inside the frames).
	Member string
	// Nodes is the node universe — the network definition's node names.
	// Mirrors are only ever created for these.
	Nodes []string
	// K is the replica count per node.
	K int
	// DataDir hosts the mirror stores, one per mirrored node at
	// DataDir/<node>.replica. Empty keeps mirrors purely in memory (tests;
	// a crash then loses the mirror, but the anti-entropy handshake rebuilds
	// it from the primary).
	DataDir string
	// WAL tunes the mirror stores (ignored without DataDir).
	WAL wal.Options
	// FlushEvery is the shortest pause between two passes the manager's
	// shell timer starts (default 20ms): a rewind or a state ship due sooner
	// waits for it. Inserts and sync requests do not wait: they kick a pass
	// at once, which ships the new suffix.
	FlushEvery time.Duration
	// ResendAfter rewinds a stream to its acked frontier after this long
	// without acknowledgment progress, so a frame lost to a link error or a
	// restarting mirror ships again (default 750ms).
	ResendAfter time.Duration
	// ReconcileEvery is the retry/anti-entropy period of the placement pass
	// (default 250ms), which re-derives which nodes this member should
	// mirror, opens the missing mirrors and re-solicits quiet streams. The
	// pass also runs as soon as the control plane applies a new view
	// (Control.OnViewChange). An idle manager's shell timer fires for nothing
	// else.
	ReconcileEvery time.Duration
	// SyncReqEvery rate-limits anti-entropy requests per node: a mirror that
	// received nothing for this long re-solicits the stream from the current
	// primary (also what re-establishes streams after a primary restart;
	// default 1s).
	SyncReqEvery time.Duration
	// StateEvery is the protocol-state ship cadence: the primary's durable
	// state (epoch, subscription marks, part results) goes to each replica
	// at most this often, and only when it changed (default 500ms).
	StateEvery time.Duration
}

func (o Options) withDefaults() Options {
	if o.FlushEvery <= 0 {
		o.FlushEvery = 20 * time.Millisecond
	}
	if o.ResendAfter <= 0 {
		o.ResendAfter = 750 * time.Millisecond
	}
	if o.ReconcileEvery <= 0 {
		o.ReconcileEvery = 250 * time.Millisecond
	}
	if o.SyncReqEvery <= 0 {
		o.SyncReqEvery = time.Second
	}
	if o.StateEvery <= 0 {
		o.StateEvery = 500 * time.Millisecond
	}
	return o
}

// destStream is a primary's outbound replication stream to one mirror. Only
// durable acks reach the stream, so its received and durable frontiers agree.
type destStream struct {
	*storage.Stream
	progress  time.Time // last ack advance (or stream establishment)
	lastState []byte    // last protocol-state blob shipped (dedup)
}

// primary is one node whose relations this member ships outward.
type primary struct {
	node     string
	db       *storage.DB
	stateFn  func() wal.State // live protocol state (nil: no state shipping)
	dests    map[string]*destStream
	lastShip time.Time // last state-ship attempt
	stateSeq uint64    // monotonic protocol-state ship counter
}

// mirror is one node whose relations this member replicates inward.
type mirror struct {
	node        string
	db          *storage.DB
	st          *wal.Store // nil for in-memory mirrors
	state       []byte     // latest shipped protocol-state blob
	stateEpoch  uint64
	lastAppend  time.Time // last append applied (lag detection)
	lastSyncReq time.Time // anti-entropy rate limit
	diverged    uint64    // appends whose post-apply seq missed the stamp
}

// Metrics snapshots a Manager for the serve metrics endpoint.
type Metrics struct {
	Primaries       int    `json:"primaries"`        // nodes shipped outward (own + adopted)
	Mirrors         int    `json:"mirrors"`          // nodes replicated inward
	UnderReplicated int    `json:"under_replicated"` // streams short of the primary frontier (plus missing ones)
	Appends         uint64 `json:"appends"`          // ReplicaAppend frames shipped
	Acks            uint64 `json:"acks"`             // durable acks received
	SyncReqs        uint64 `json:"sync_reqs"`        // anti-entropy requests sent
	Rewinds         uint64 `json:"rewinds"`          // streams rewound to the acked frontier
	Promotions      uint64 `json:"promotions"`       // mirrors promoted to primaries here
	Diverged        uint64 `json:"diverged"`         // appends that left a mirror off the seq stamp
}

// Manager runs both halves of the replication data path for one serve member,
// as steps of one shell.Shell (see the package comment).
type Manager struct {
	opts Options
	ctl  Control
	send func(from, to string, msg wire.Message) error
	sh   *shell.Shell[effect] // guards everything below

	primaries     map[string]*primary
	mirrors       map[string]*mirror
	nextReconcile time.Time

	appends    uint64
	acks       uint64
	syncReqs   uint64
	rewinds    uint64
	promotions uint64
}

// effect is one frame a step sends once the lock is released, or, with no
// frame, the timer armed for when. A frame with a store is an ack: it leaves
// only once the store has synced, so the acknowledged range is durable.
type effect struct {
	to   string
	msg  wire.Message
	st   *wal.Store
	when time.Time
}

// New starts a replica manager. send carries frames to other members (wire
// it through the Batcher so appends and acks coalesce); the caller must
// route inbound replication frames to Handle (cluster.Transport.SetReplica).
// Every view ctl applies makes the placement pass due at once.
func New(ctl Control, send func(from, to string, msg wire.Message) error, opts Options) *Manager {
	m := &Manager{
		opts:      opts.withDefaults(),
		ctl:       ctl,
		send:      send,
		primaries: map[string]*primary{},
		mirrors:   map[string]*mirror{},
	}
	m.nextReconcile = time.Now().Add(m.opts.ReconcileEvery)
	m.sh = shell.New(m.run, func(e effect) (time.Time, bool) { return e.when, e.msg == nil }, m.tick)
	m.sh.Kick() // the first tick arms the timer for the first placement pass
	ctl.OnViewChange(m.placementDue)
	return m
}

// placementDue makes the placement pass due and kicks a tick to run it.
func (m *Manager) placementDue() {
	m.sh.Lock()
	m.nextReconcile = time.Time{}
	m.sh.Unlock()
	m.sh.Kick()
}

// run sends one step's frames in order. An ack whose store fails to sync is
// not sent: the primary re-sends. A sync request the transport refused was
// not sent (see unsent).
func (m *Manager) run(effs []effect) {
	for _, e := range effs {
		if e.msg != nil && (e.st == nil || e.st.Sync() == nil) {
			if err := m.send(m.opts.Member, e.to, e.msg); err != nil {
				if req, ok := e.msg.(wire.ReplicaSyncReq); ok {
					m.unsent(req.Node)
				}
			}
		}
	}
}

// unsent takes back a sync request for node the transport refused: a
// placement pass can run on a view that names the host before this member
// has heard the host's address. It does not hold the next request back for
// SyncReqEvery, and the placement pass runs again a FlushEvery from now
// instead of a ReconcileEvery.
func (m *Manager) unsent(node string) {
	m.sh.Step(func(now time.Time, buf []effect) []effect {
		m.syncReqs--
		if mi := m.mirrors[node]; mi != nil {
			mi.lastSyncReq = time.Time{}
		}
		m.nextReconcile = earlier(m.nextReconcile, now.Add(m.opts.FlushEvery))
		return append(buf, effect{when: m.nextReconcile})
	})
}

// Close refuses further steps, waits for those in flight, and cleanly closes
// every mirror store (their state records make the next open recover the
// applied frontier without replay distrust; a crash instead recovers from
// the log tail).
func (m *Manager) Close() {
	if m.sh.Close() {
		m.sh.Lock()
		defer m.sh.Unlock()
		for _, mi := range m.mirrors {
			if mi.st != nil {
				_ = mi.st.Close()
			}
		}
	}
}

// BecomePrimary registers a node this member hosts: db is its live database,
// stateFn its durable protocol state (peer.DurableState; nil ships no state).
// Called for the member's own node at boot and for every adopted node after
// a promotion. Idempotent — a repeated promotion of the same node just
// refreshes the callbacks.
func (m *Manager) BecomePrimary(node string, db *storage.DB, stateFn func() wal.State) {
	m.sh.Lock()
	p := m.primaries[node]
	fresh := p == nil || p.db != db
	if p == nil {
		m.primaries[node] = &primary{node: node, db: db, stateFn: stateFn, dests: map[string]*destStream{}}
	} else {
		p.db, p.stateFn = db, stateFn
	}
	m.sh.Unlock()
	// Inserts kick a pass, once per committed run, so replication latency is
	// one scheduling hop. The listener runs under the peer's lock, which a
	// pass takes through stateFn, so it must not take the manager's: Kick
	// takes none.
	if fresh {
		db.AddInsertListener(func(string, []relalg.Tuple, uint64) { m.sh.Kick() })
	}
	m.sh.Kick()
}

// Resign is BecomePrimary's inverse: the agreed log re-homed a node this
// member hosted to another member, so its outbound streams stop. st is the
// store Promote handed out for it (nil for an in-memory mirror): the deposed
// copy may hold writes the new primary never saw, so it is discarded with its
// directory, and a later mirror of the node starts from the new primary's
// stream instead. The lock is held throughout so the placement pass cannot
// reopen the directory in between.
func (m *Manager) Resign(node string, st *wal.Store) {
	m.sh.Lock()
	defer m.sh.Unlock()
	delete(m.primaries, node)
	if st != nil {
		st.Abort()
		_ = os.RemoveAll(filepath.Join(m.opts.DataDir, node+".replica"))
	}
}

// Frontier reports this member's durable replication frontier for a node:
// the sum of its mirror's per-relation applied sequences — the promotion
// bid. Zero without a mirror. (A promoted or primary node reports its live
// database's frontier: the member already has everything.)
func (m *Manager) Frontier(node string) uint64 {
	m.sh.Lock()
	defer m.sh.Unlock()
	var db *storage.DB
	if p := m.primaries[node]; p != nil {
		db = p.db
	} else if mi := m.mirrors[node]; mi != nil {
		db = mi.db
	}
	if db == nil {
		return 0
	}
	return marksSum(dbMarks(db))
}

// Promote hands a node's mirror over for adoption: the mirror leaves the
// manager (the caller re-registers the node via BecomePrimary once the peer
// is live) and its database, attached store and last shipped protocol state
// become the adopted peer's substrate. A member elected without a mirror —
// possible when every replica holder died and the electorate fell back to
// fresh members — gets an empty database and a fresh store: the data is
// gone, but the node's name lives on and re-derivations repopulate it.
func (m *Manager) Promote(node string) (*storage.DB, *wal.Store, *wal.State, error) {
	m.sh.Lock()
	mi := m.mirrors[node]
	delete(m.mirrors, node)
	if mi == nil {
		var err error
		if mi, err = m.openMirrorLocked(node); err != nil {
			m.sh.Unlock()
			return nil, nil, nil, err
		}
		delete(m.mirrors, node)
	}
	m.promotions++
	blob := mi.state
	m.sh.Unlock()
	var restore *wal.State
	if len(blob) > 0 {
		if st, err := wal.UnmarshalState(blob); err == nil {
			restore = &st
		}
	}
	return mi.db, mi.st, restore, nil
}

// Handle consumes one inbound replication frame as one step; it reports
// false for anything that is not one (the cluster dispatcher then routes it
// onward). After Close a frame is consumed and does nothing.
func (m *Manager) Handle(env wire.Envelope) bool {
	switch env.Msg.(type) {
	case wire.ReplicaAppend, wire.ReplicaAck, wire.ReplicaSyncReq, wire.ReplicaState, wire.ReplicaStatusRequest:
	default:
		return false
	}
	m.sh.Step(func(now time.Time, buf []effect) []effect {
		switch msg := env.Msg.(type) {
		case wire.ReplicaAppend:
			return m.applyAppend(now, env.From, msg, buf)
		case wire.ReplicaAck:
			m.applyAck(now, env.From, msg)
		case wire.ReplicaSyncReq:
			m.applySyncReq(now, env.From, msg)
		case wire.ReplicaState:
			m.applyState(msg)
		case wire.ReplicaStatusRequest:
			return append(buf, effect{to: env.From, msg: m.statusReport()})
		}
		return buf
	})
	return true
}

// applyAppend ingests one shipped suffix at a mirror: storage.Extend decides
// against the durable frontier. An overlap is trimmed (the primary rewound
// further back than needed), a gap triggers anti-entropy. The ack carries
// the mirror's store, so it leaves only once that has synced.
func (m *Manager) applyAppend(now time.Time, from string, msg wire.ReplicaAppend, buf []effect) []effect {
	mi := m.mirrors[msg.Node]
	if mi == nil {
		// Not (or no longer) our mirror — placement moved, or the frame
		// predates a promotion. Drop; the primary's stream to us ages out.
		return buf
	}
	mi.lastAppend = now
	if !mi.db.HasRelation(msg.Rel) {
		if err := mi.db.AddSchema(relalg.Schema{Name: msg.Rel, Attrs: msg.Attrs}); err != nil {
			return buf
		}
	}
	frontier := mi.db.MarksFor([]string{msg.Rel})[msg.Rel]
	switch storage.Extend(frontier, msg.Base, msg.To) {
	case storage.Gap:
		// A frame before this one was lost or we restarted behind the
		// stream. Re-solicit from our durable frontier.
		return m.syncReq(now, mi, buf)
	case storage.Old:
		// A rewound primary re-shipping; re-ack so the primary's stream
		// advances past it.
	case storage.Extends:
		if _, err := mi.db.InsertAll(msg.Rel, msg.Tuples[frontier-msg.Base:], storage.InsertExact); err != nil {
			return buf
		}
		applied := mi.db.MarksFor([]string{msg.Rel})[msg.Rel]
		if applied != msg.To {
			// The mirror accepted a different tuple count than the primary
			// stamped — the replicas diverged (should be impossible while
			// both apply in insertion order). Count it and fall back to
			// anti-entropy rather than acking a frontier we do not hold.
			mi.diverged++
			return m.syncReq(now, mi, buf)
		}
		frontier = applied
	}
	// Ack the frame's stamp (or our frontier when it was entirely old): the
	// acknowledged range is on stable storage once the store has synced.
	ack := wire.ReplicaAck{Node: msg.Node, Rel: msg.Rel, To: min(msg.To, frontier), Durable: true}
	return append(buf, effect{to: from, msg: ack, st: mi.st})
}

// applyAck advances a primary's stream on a mirror's durable acknowledgment.
func (m *Manager) applyAck(now time.Time, from string, msg wire.ReplicaAck) {
	if !msg.Durable {
		return // only durable acks advance the stream
	}
	m.acks++
	p := m.primaries[msg.Node]
	if p == nil {
		return
	}
	d := p.dests[from]
	if d == nil {
		return // stream re-established meanwhile; a fresh sync req re-keys it
	}
	// A mirror acks its whole frontier, (0, To]. One beyond anything this
	// stream shipped predates the re-key that started it.
	if msg.To > d.Shipped()[msg.Rel] {
		return
	}
	if advanced, _ := d.Ack(msg.Rel, 0, msg.To, true); advanced {
		d.progress = now
	}
}

// applySyncReq (primary side) establishes or rewinds a stream to the
// mirror's durable frontier — the anti-entropy handshake — and kicks a pass
// to ship it. Streams exist only mirror-solicited: a primary never pushes to
// a member that has not told it where to start, which makes full re-ships
// explicit rather than accidental.
func (m *Manager) applySyncReq(now time.Time, member string, msg wire.ReplicaSyncReq) {
	p := m.primaries[msg.Node]
	if p == nil {
		return
	}
	p.dests[member] = &destStream{Stream: storage.NewStream(msg.Frontier), progress: now}
	m.sh.Kick()
}

// applyState (mirror side) retains the latest shipped protocol state; the
// blob becomes the adopted peer's restore state after a promotion.
func (m *Manager) applyState(msg wire.ReplicaState) {
	mi := m.mirrors[msg.Node]
	if mi == nil || msg.Epoch < mi.stateEpoch {
		return
	}
	mi.stateEpoch = msg.Epoch
	mi.state = msg.State
}

// syncReq appends to buf (rate-limited) an anti-entropy request for one
// mirror, addressed to the node's current primary host.
func (m *Manager) syncReq(now time.Time, mi *mirror, buf []effect) []effect {
	if now.Sub(mi.lastSyncReq) < m.opts.SyncReqEvery {
		return buf
	}
	mi.lastSyncReq = now
	m.syncReqs++
	req := wire.ReplicaSyncReq{Node: mi.node, Frontier: dbMarks(mi.db)}
	return append(buf, effect{to: m.ctl.HostOf(mi.node), msg: req})
}

// tick is the pass every kick and the timer start: the placement pass when it
// is due (a new view, or ReconcileEvery has come round), then the
// primary-side shipping. It re-arms the timer for the earliest deadline left,
// no sooner than FlushEvery.
func (m *Manager) tick(now time.Time, buf []effect) []effect {
	if !now.Before(m.nextReconcile) {
		buf = m.reconcile(now, buf)
		m.nextReconcile = now.Add(m.opts.ReconcileEvery)
	}
	buf, due := m.flush(now, buf)
	if floor := now.Add(m.opts.FlushEvery); due.Before(floor) {
		due = floor
	}
	return append(buf, effect{when: due})
}

// flush is the primary-side shipping: each primary's un-shipped suffix goes
// to every established stream, streams silent for ResendAfter rewind to
// their acked frontier, and changed protocol state ships every StateEvery. It
// returns when the next rewind, state ship or placement pass is due.
func (m *Manager) flush(now time.Time, buf []effect) ([]effect, time.Time) {
	due := m.nextReconcile
	for _, p := range m.primaries {
		rels := relNames(p.db)
		shipState := p.stateFn != nil && now.Sub(p.lastShip) >= m.opts.StateEvery
		if shipState {
			p.lastShip = now
		}
		if p.stateFn != nil && len(p.dests) > 0 {
			due = earlier(due, p.lastShip.Add(m.opts.StateEvery))
		}
		var blob []byte
		for member, d := range p.dests {
			// Rewind-on-silence: shipped beyond acked with no progress for
			// ResendAfter means a frame (or its ack) was lost — re-ship the
			// unacknowledged suffix.
			if d.Pending(storage.Durable) && now.Sub(d.progress) >= m.opts.ResendAfter {
				d.Rewind(storage.Durable)
				d.progress = now
				m.rewinds++
			}
			delta, next := p.db.DeltaSince(d.Shipped(), rels)
			for rel, tuples := range delta {
				buf = append(buf, effect{to: member, msg: wire.ReplicaAppend{
					Node:   p.node,
					Rel:    rel,
					Attrs:  relAttrs(p.db, rel),
					Base:   d.Shipped()[rel],
					To:     next[rel],
					Tuples: tuples,
				}})
				m.appends++
			}
			d.Ship(next)
			if d.Pending(storage.Durable) {
				due = earlier(due, d.progress.Add(m.opts.ResendAfter))
			}
			if shipState {
				if blob == nil {
					blob = wal.MarshalState(p.stateFn())
				}
				if len(blob) > 0 && !bytes.Equal(blob, d.lastState) {
					d.lastState = blob
					p.stateSeq++
					buf = append(buf, effect{to: member, msg: wire.ReplicaState{
						Node: p.node, Epoch: p.stateSeq, State: blob,
					}})
				}
			}
		}
	}
	return buf, due
}

func earlier(a, b time.Time) time.Time {
	if b.Before(a) {
		return b
	}
	return a
}

// reconcile is the mirror-side placement pass: this member re-derives which
// nodes' placements include it, opens missing mirrors (recovering whatever
// an earlier lifetime left on disk) and re-solicits streams that have gone
// quiet — the join/lag anti-entropy.
func (m *Manager) reconcile(now time.Time, buf []effect) []effect {
	for _, node := range m.opts.Nodes {
		if m.primaries[node] != nil || m.ctl.HostOf(node) == m.opts.Member {
			continue // we host it (or are about to): primaries do not mirror themselves
		}
		if placement, _ := m.ctl.PlacementFor(node); !slices.Contains(placement, m.opts.Member) {
			// Out of the placement: keep the mirror (it may swing back under
			// churn, and stale data only trims future re-ships), just stop
			// soliciting.
			continue
		}
		mi := m.mirrors[node]
		if mi == nil {
			var err error
			if mi, err = m.openMirrorLocked(node); err != nil {
				continue // disk trouble: retry next tick
			}
		}
		if now.Sub(mi.lastAppend) >= m.opts.SyncReqEvery {
			buf = m.syncReq(now, mi, buf)
		}
	}
	return buf
}

// openMirrorLocked creates (or re-opens from disk) the mirror for one node
// and registers it. Callers hold the lock.
func (m *Manager) openMirrorLocked(node string) (*mirror, error) {
	mi := &mirror{node: node}
	if m.opts.DataDir != "" {
		st, rec, err := wal.Open(filepath.Join(m.opts.DataDir, node+".replica"), m.opts.WAL)
		if err != nil {
			return nil, err
		}
		mi.st = st
		mi.db = rec.DB
		if rec.State.Epoch > 0 || len(rec.State.Subs) > 0 || len(rec.State.Parts) > 0 {
			// A previous lifetime promoted this mirror and the adopted peer
			// wrote its protocol state into this store; surface it so a boot
			// re-adoption restores subscriptions instead of starting unprimed.
			mi.state = wal.MarshalState(rec.State)
		}
		// Attach logs every applied insert; recovery above already replayed
		// the previous lifetime's log into the database, so the durable
		// frontier survives mirror restarts for free.
		st.Attach(mi.db)
	} else {
		mi.db = storage.New()
	}
	m.mirrors[node] = mi
	return mi, nil
}

// Metrics snapshots the manager.
func (m *Manager) Metrics() Metrics {
	m.sh.Lock()
	defer m.sh.Unlock()
	out := Metrics{
		Primaries:  len(m.primaries),
		Mirrors:    len(m.mirrors),
		Appends:    m.appends,
		Acks:       m.acks,
		SyncReqs:   m.syncReqs,
		Rewinds:    m.rewinds,
		Promotions: m.promotions,
	}
	for _, mi := range m.mirrors {
		out.Diverged += mi.diverged
	}
	out.UnderReplicated = m.underReplicatedLocked()
	return out
}

// underReplicatedLocked counts, across hosted primaries, how many of the K
// wanted replica streams are missing or behind the primary frontier right
// now. Zero means every replica of everything this member hosts is caught
// up. Callers hold the lock.
func (m *Manager) underReplicatedLocked() int {
	short := 0
	for _, p := range m.primaries {
		frontier := dbMarks(p.db)
		placement, _ := m.ctl.PlacementFor(p.node)
		for _, member := range placement {
			d := p.dests[member]
			if d == nil || !d.Frontier(storage.Durable).Covers(frontier) {
				short++
			}
		}
	}
	return short
}

// StatusReport builds the wire status snapshot: one entry per outbound
// stream and one per mirror, for `p2pdb ctl status` and the E18 experiment.
func (m *Manager) StatusReport() wire.ReplicaStatusReport {
	m.sh.Lock()
	defer m.sh.Unlock()
	return m.statusReport()
}

func (m *Manager) statusReport() wire.ReplicaStatusReport {
	rep := wire.ReplicaStatusReport{
		Member:          m.opts.Member,
		K:               m.opts.K,
		UnderReplicated: m.underReplicatedLocked(),
	}
	for _, p := range m.primaries {
		target := marksSum(dbMarks(p.db))
		for member, d := range p.dests {
			rep.Entries = append(rep.Entries, wire.ReplicaStatus{
				Node: p.node, Role: "primary", Peer: member,
				Applied: marksSum(d.Frontier(storage.Durable)), Target: target,
			})
		}
	}
	for _, mi := range m.mirrors {
		rep.Entries = append(rep.Entries, wire.ReplicaStatus{
			Node: mi.node, Role: "mirror", Peer: m.ctl.HostOf(mi.node),
			Applied: marksSum(dbMarks(mi.db)), Target: marksSum(dbMarks(mi.db)),
		})
	}
	sort.Slice(rep.Entries, func(i, j int) bool {
		a, b := rep.Entries[i], rep.Entries[j]
		if a.Node != b.Node {
			return a.Node < b.Node
		}
		if a.Role != b.Role {
			return a.Role < b.Role
		}
		return a.Peer < b.Peer
	})
	return rep
}

// dbMarks reads a database's full high-water vector.
func dbMarks(db *storage.DB) storage.Marks {
	return db.MarksFor(relNames(db))
}

func relNames(db *storage.DB) []string {
	schemas := db.Schemas()
	out := make([]string, len(schemas))
	for i, s := range schemas {
		out[i] = s.Name
	}
	return out
}

func relAttrs(db *storage.DB, rel string) []string {
	for _, s := range db.Schemas() {
		if s.Name == rel {
			return s.Attrs
		}
	}
	return nil
}

func marksSum(m storage.Marks) uint64 {
	var n uint64
	for _, v := range m {
		n += v
	}
	return n
}
