package cluster

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/consensus"
	"repro/internal/core"
	"repro/internal/peer"
	"repro/internal/rules"
	"repro/internal/wire"
)

// The replicated control plane: every serve process runs a consensus.Node
// over the net-file's fixed member set, and the cluster-level decisions that
// PR 4's single @ctl coordinator used to hold alone — who is in the member
// table, when an update or discovery wave starts, which coordination rules
// exist — become agreed log entries applied in sequence by every member.
// Any member can host a ctl request (the coordinator now just picks a live
// one), and the member that kicks an update doubles as its *driver*: it runs
// the one update driver (core.DriveUpdate) over the others' polled protocol
// states until the wave closes, then commits an updateDone entry. The driver
// role itself is derived deterministically from the agreed member view, so
// when the acting driver dies mid-update, the suspicion-driven member entry
// that records its death also elects its successor — which re-kicks the wave
// instead of letting the network stall. Rumour-level membership
// (Join/Heartbeat gossip) stays the failure detector and address book
// underneath; the agreed view is what control decisions read.

// HostedPeer is the slice of the peer runtime the control plane drives.
// *peer.Peer satisfies it.
type HostedPeer interface {
	StartDiscovery() string
	StartUpdateWave() uint64
	Probe()
	AddRuleLocal(ruleText string) error
	DeleteRuleLocal(ruleID string)
	Epoch() uint64
	Activated() bool
	State() peer.UpdateState
}

// ControlPlaneOptions tunes the agreed control plane.
type ControlPlaneOptions struct {
	// PollEvery is the driver's state-poll cadence while an update is in
	// flight (default 100ms).
	PollEvery time.Duration
	// RoundTimeout bounds one driver poll round (default 2s).
	RoundTimeout time.Duration
	// Settle is how many consecutive complete rounds must read the same
	// before the driver judges the wave (default 3): all closed commits
	// updateDone, anything open is probed — one round can race a
	// still-traveling confirming cascade.
	Settle int
	// ReconcileEvery is the cadence of the gossip→log reconciliation loop
	// (default 500ms): agreed member statuses that drifted from what the
	// failure detector sees are re-proposed until the log catches up.
	ReconcileEvery time.Duration
	// Consensus tunes the underlying replicated log (including LogPath for
	// the applied-entry control log).
	Consensus consensus.Options
	// Replication configures k-way replica placement and fail-over
	// (internal/replica). Zero K disables all of it.
	Replication ReplicationOptions
}

// ReplicationOptions wires the control plane to the replica subsystem: the
// plane owns the agreed decisions (placement inputs, death declarations,
// promotion elections, the host map), the replica.Manager owns the data
// stream. The hooks decouple the two packages.
type ReplicationOptions struct {
	// K is the replica count per node: each node's extensional relations are
	// mirrored on the K highest-scoring eligible members under
	// RendezvousPlacement. Zero disables replication entirely.
	K int
	// DeadAfter is how long a member must stay continuously suspect before
	// the reconciliation loop proposes declaring it permanently dead —
	// the trigger for promotion. Crash-restarts faster than this window
	// rejoin unharmed (default 10s). Declaring death is a judgement call no
	// failure detector gets right in all worlds: a member partitioned away
	// longer than DeadAfter is deposed and must rejoin as a fresh process.
	DeadAfter time.Duration
	// Frontier reports this member's durable replication frontier for a
	// node (the sum of its mirror's per-relation applied sequences) — the
	// promotion bid. Zero when no mirror exists.
	Frontier func(node string) uint64
	// OnPromote fires when this member wins a node's promotion election:
	// adopt the node's peer (rebuild it from the mirror and the shipped
	// subscription state) and start replicating it onward. Fired from a
	// fresh goroutine, never during control-log replay (boot recovery asks
	// AdoptedNodes instead).
	OnPromote func(node string)
	// OnDeposed fires when the agreed log re-homes a node this member hosts —
	// its own or an adopted one — to another member (this process was
	// declared dead, usually wrongly from its point of view: a long
	// partition). It must stop serving the node; a deposed primary that kept
	// accepting writes would fork the fix-point.
	OnDeposed func(node string)
}

func (o ControlPlaneOptions) withDefaults() ControlPlaneOptions {
	if o.PollEvery <= 0 {
		o.PollEvery = 100 * time.Millisecond
	}
	if o.RoundTimeout <= 0 {
		o.RoundTimeout = 2 * time.Second
	}
	if o.Settle <= 0 {
		o.Settle = 3
	}
	if o.ReconcileEvery <= 0 {
		o.ReconcileEvery = 500 * time.Millisecond
	}
	if o.Replication.K > 0 && o.Replication.DeadAfter <= 0 {
		o.Replication.DeadAfter = 10 * time.Second
	}
	return o
}

// ControlPlaneMetrics is the consensus slice of a serve process's
// observability snapshot.
type ControlPlaneMetrics struct {
	consensus.Metrics
	ViewVersion uint64 `json:"view_version"`   // agreed member-entry count applied
	Driver      string `json:"driver"`         // elected update driver ("" when none eligible)
	Failovers   uint64 `json:"failovers"`      // driver changes while an update was in flight
	PendingInst uint64 `json:"pending_update"` // log instance of the in-flight update (0 = none)
	ProbeRounds uint64 `json:"probe_rounds"`   // closure-probe rounds the updates this member drove needed (healthy: 0)

	// Replication slice (zero-valued when Replication.K == 0).
	Adopted       []string `json:"adopted,omitempty"`        // nodes this member hosts besides its own
	Deposed       bool     `json:"deposed,omitempty"`        // this member's own node was re-homed elsewhere
	OpenElections int      `json:"open_elections,omitempty"` // promotion elections not yet decided
	Promotions    uint64   `json:"promotions,omitempty"`     // elections this member won
}

// pendingUpdate is the agreed update entry not yet matched by an updateDone.
type pendingUpdate struct {
	instance uint64 // the update entry's log instance (updateDone's Ref)
	node     string // preferred driver: the member that accepted the kick
}

// ControlPlane is one serve member's agreed control plane.
type ControlPlane struct {
	tr      *Transport
	peer    HostedPeer
	self    string
	members []string
	opts    ControlPlaneOptions
	cons    *consensus.Node

	mu        sync.Mutex
	view      map[string]Status // agreed statuses (absent = book)
	version   uint64
	pending   *pendingUpdate
	driver    string
	failovers uint64
	states    inbox[wire.StateReport]
	rules     map[string]string // agreed rule set: rule ID -> rule text
	driveGen  uint64            // invalidates superseded driver goroutines
	replaying bool              // control-log replay in progress: fold only, no side effects
	closed    bool

	// Replication fold (all agreed state, rebuilt by log replay).
	hosts      map[string]string            // node -> member hosting it (absent = itself)
	elections  map[string]map[string]uint64 // open promotions: node -> bidder -> frontier
	promotions uint64                       // elections this member won
	// deadAt is when this member folded each agreed death: local evidence
	// bookkeeping, not agreed state (a restart starts it, and the detector
	// it is compared against, afresh).
	deadAt map[string]time.Time
	// deadInst is the instance that folded each agreed death; folded the last
	// member entry folded here, the premise (Ref) of this member's proposals:
	// an alive premised on less than the death it meets had not seen it.
	deadInst map[string]uint64
	folded   atomic.Uint64

	probeRounds atomic.Uint64 // closure-probe rounds the driven updates needed

	ctx  context.Context // cancelled by Close: every loop and driver selects on it
	stop context.CancelFunc
	wg   sync.WaitGroup
}

// NewControlPlane starts the agreed control plane for one serve member.
// members is the fixed consensus set — the net-file's database nodes,
// identical at every member — and must include tr.Self(). The hosted peer
// must already be registered on tr (control-log replay applies rule and
// kick entries to it synchronously, before any network frame flows).
// Replay is fold-only: it rebuilds the agreed view, rule set and pending
// update, but fires none of the entries' side effects — in particular a
// replayed update entry must not re-kick a cluster-wide wave for an update
// that completed before the restart. Only after replay finishes does the
// plane act on what remains genuinely pending.
func NewControlPlane(tr *Transport, hosted HostedPeer, members []string, opts ControlPlaneOptions) (*ControlPlane, error) {
	opts = opts.withDefaults()
	cp := &ControlPlane{
		tr:        tr,
		peer:      hosted,
		self:      tr.Self(),
		members:   append([]string(nil), members...),
		opts:      opts,
		view:      map[string]Status{},
		rules:     map[string]string{},
		hosts:     map[string]string{},
		elections: map[string]map[string]uint64{},
		deadAt:    map[string]time.Time{},
		deadInst:  map[string]uint64{},
		replaying: true,
	}
	cp.ctx, cp.stop = context.WithCancel(context.Background())
	sort.Strings(cp.members)
	copts := opts.Consensus
	copts.Snapshot = cp.snapshotState
	copts.Restore = cp.restoreState
	cons, err := consensus.New(cp.self, cp.members, cp.send, cp.applyEntry, copts)
	if err != nil {
		return nil, err
	}
	cp.cons = cons
	// Replay done (New replays the control log synchronously). If an update
	// entry survived without its updateDone, it really is still in flight:
	// elect and drive it now, exactly once.
	cp.mu.Lock()
	cp.replaying = false
	cp.startDrivingLocked()
	// Elections that replay left open really are undecided: re-submit this
	// member's bid (max-merge in the fold makes duplicates harmless) and
	// re-check completion now that side effects may fire.
	for node := range cp.elections {
		cp.checkElectionLocked(node)
	}
	cp.mu.Unlock()
	tr.SetConsensus(cp.intercept)
	cons.Start()
	cp.wg.Add(1)
	go cp.reconcileLoop()
	return cp, nil
}

// Close stops the control plane (driver and reconciliation loops, then the
// consensus node). Call before the network/transport closes.
func (cp *ControlPlane) Close() {
	cp.mu.Lock()
	if cp.closed {
		cp.mu.Unlock()
		return
	}
	cp.closed = true
	cp.mu.Unlock()
	cp.stop()
	cp.wg.Wait()
	cp.cons.Close()
}

// send ships one control-plane frame from this member.
func (cp *ControlPlane) send(to string, msg wire.Message) error {
	return cp.tr.Send(cp.self, to, msg)
}

// Consensus exposes the underlying replicated log node.
func (cp *ControlPlane) Consensus() *consensus.Node { return cp.cons }

// AgreedView snapshots the agreed member table (absent members are book) and
// its version — the number of member entries applied. Every member's view at
// the same version is identical by construction: it is a fold over the same
// log prefix.
func (cp *ControlPlane) AgreedView() (map[string]Status, uint64) {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	out := make(map[string]Status, len(cp.members))
	for _, m := range cp.members {
		out[m] = cp.view[m]
	}
	return out, cp.version
}

// Driver returns the currently elected update driver.
func (cp *ControlPlane) Driver() string {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	return cp.driver
}

// PlacementFor returns the members that should hold a node's replicas under
// the current agreed view, plus the view version pinning this placement
// epoch. Deterministic across members at the same version.
func (cp *ControlPlane) PlacementFor(node string) ([]string, uint64) {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	return cp.electorateLocked(node), cp.version
}

// HostOf returns the member hosting a node's primary — the node itself until
// a promotion election re-homed it.
func (cp *ControlPlane) HostOf(node string) string {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	return cp.hostOfLocked(node)
}

// AdoptedNodes lists the nodes (other than its own) whose primaries this
// member hosts per the agreed log — what a restarting serve process must
// re-adopt before traffic flows.
func (cp *ControlPlane) AdoptedNodes() []string {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	var out []string
	for n, h := range cp.hosts {
		if h == cp.self && n != cp.self {
			out = append(out, n)
		}
	}
	sort.Strings(out)
	return out
}

// Deposed reports whether the agreed log has re-homed this member's own node
// to another member: the cluster declared this process dead while it lived.
// A deposed process must not serve.
func (cp *ControlPlane) Deposed() bool {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	return cp.hostOfLocked(cp.self) != cp.self
}

// Metrics snapshots the control plane for the serve metrics endpoint.
func (cp *ControlPlane) Metrics() ControlPlaneMetrics {
	m := ControlPlaneMetrics{Metrics: cp.cons.Metrics(), ProbeRounds: cp.probeRounds.Load()}
	cp.mu.Lock()
	m.ViewVersion = cp.version
	m.Driver = cp.driver
	m.Failovers = cp.failovers
	if cp.pending != nil {
		m.PendingInst = cp.pending.instance
	}
	for n, h := range cp.hosts {
		if h == cp.self && n != cp.self {
			m.Adopted = append(m.Adopted, n)
		}
	}
	sort.Strings(m.Adopted)
	m.Deposed = cp.hostOfLocked(cp.self) != cp.self
	m.OpenElections = len(cp.elections)
	m.Promotions = cp.promotions
	cp.mu.Unlock()
	return m
}

// Submit proposes one control command through the log (exported for tests
// and experiments; serve traffic arrives through the interceptor).
func (cp *ControlPlane) Submit(ctx context.Context, cmd wire.Command) (uint64, error) {
	return cp.cons.Submit(ctx, cmd)
}

// intercept consumes control-plane frames below the hosted peer: consensus
// rounds, the driver's StateReport replies (the peer ignores them anyway),
// and the coordinator's kick-off verbs — which become agreed log entries
// instead of direct peer actions. Everything else flows to the peer.
func (cp *ControlPlane) intercept(env wire.Envelope) bool {
	if cp.cons.Handle(env) {
		return true
	}
	switch m := env.Msg.(type) {
	case wire.StateReport:
		cp.states.put(m.Node, m)
		return true
	case wire.DiscoverRequest:
		go cp.submitAsync(wire.Command{Kind: "discover", Node: cp.self})
		return true
	case wire.UpdateRequest:
		go cp.submitAsync(wire.Command{Kind: "update", Node: cp.self})
		return true
	case wire.AddRuleNotice:
		if IsCoordinator(env.From) {
			go cp.submitAsync(wire.Command{Kind: "addRule", Text: m.RuleText})
			return true
		}
	case wire.DeleteRuleNotice:
		if IsCoordinator(env.From) {
			go cp.submitAsync(wire.Command{Kind: "deleteRule", Text: m.RuleID})
			return true
		}
	}
	return false
}

// submitAsync proposes one command off the transport goroutine. A member cut
// off with a minority blocks here until the partition heals — by design: a
// minority must not start waves or change the member table. Close unparks a
// blocked proposal by cancelling its context, so a shutdown never waits out
// the quorum timeout.
func (cp *ControlPlane) submitAsync(cmd wire.Command) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	done := make(chan struct{})
	//lint:allow goroshutdown bounded: Submit returns once ctx is cancelled, which the select below guarantees on quit
	go func() {
		defer close(done)
		_, _ = cp.cons.Submit(ctx, cmd)
	}()
	select {
	case <-done:
	case <-cp.ctx.Done():
		cancel()
		<-done
	}
}

// applyEntry folds one agreed entry into the control state. Runs on the
// consensus applier goroutine, in instance order, identically at every
// member; per-node side effects (starting a wave, adding a rule) fire only
// at the member the entry names.
func (cp *ControlPlane) applyEntry(instance uint64, cmd wire.Command) {
	switch cmd.Kind {
	case "member":
		cp.mu.Lock()
		cp.folded.Store(instance)
		prev := cp.view[cmd.Node]
		if prev == StatusDead && Status(cmd.Status) == StatusAlive && cmd.Ref != 0 && cmd.Ref < cp.deadInst[cmd.Node] {
			// Proposed before its proposer had folded the death (Ref 0: no
			// premise, honoured): it would delete the election for nothing.
			cp.mu.Unlock()
			return
		}
		cp.view[cmd.Node] = Status(cmd.Status)
		cp.version++
		switch {
		case Status(cmd.Status) == StatusDead && prev != StatusDead:
			// A death declaration opens a promotion election for the dead
			// member's own node and for every node it had adopted — all of
			// them just lost their primary.
			cp.deadAt[cmd.Node] = time.Now()
			cp.deadInst[cmd.Node] = instance
			cp.startElectionLocked(cmd.Node)
			for n, h := range cp.hosts {
				if h == cmd.Node {
					cp.startElectionLocked(n)
				}
			}
		case Status(cmd.Status) == StatusAlive:
			// The member is heard from again before any election decided: the
			// sitting primary is back, the elections are moot. (After a
			// decision this entry usually records the adopter heartbeating on
			// the dead name's behalf — the elections are long gone by then.)
			delete(cp.elections, cmd.Node)
			for n, h := range cp.hosts {
				if h == cmd.Node {
					delete(cp.elections, n)
				}
			}
		}
		// Any view change can shrink an election's expected electorate (a
		// bidder died) or re-add a bidder: re-check every open election.
		for node := range cp.elections {
			cp.checkElectionLocked(node)
		}
		wasDriver := cp.driver
		cp.reelectLocked()
		// A view change hands the driver role over only on an actual change
		// of holder; the sitting driver's goroutine keeps running untouched.
		if cp.driver == cp.self && wasDriver != cp.self {
			cp.startDrivingLocked()
		}
		cp.mu.Unlock()
	case "promoteBid":
		cp.mu.Lock()
		if bids, open := cp.elections[cmd.Node]; open {
			// Max-merge: a bidder may re-submit after a restart with a fresher
			// frontier; presence in the map is what marks the bid cast.
			if old, ok := bids[cmd.Origin]; !ok || cmd.Ref > old {
				bids[cmd.Origin] = cmd.Ref
			}
			cp.checkElectionLocked(cmd.Node)
		}
		cp.mu.Unlock()
	case "discover":
		cp.mu.Lock()
		starter := cp.electLocked(cmd.Node)
		replay := cp.replaying
		cp.mu.Unlock()
		// A replayed discover already ran before the restart; re-folding it
		// must not re-flood the cluster.
		if starter == cp.self && !replay {
			//lint:allow goroshutdown bounded kick: StartDiscovery floods the wave request and returns; answers flow back through the transport
			go cp.peer.StartDiscovery()
		}
	case "update":
		cp.mu.Lock()
		cp.pending = &pendingUpdate{instance: instance, node: cmd.Node}
		cp.reelectLocked()
		// Always start a fresh drive for the new instance — even when this
		// member was already driving an older update (that goroutine notices
		// the superseded instance and exits).
		cp.startDrivingLocked()
		cp.mu.Unlock()
	case "updateDone":
		cp.mu.Lock()
		if cp.pending != nil && cp.pending.instance == cmd.Ref {
			cp.pending = nil
			cp.reelectLocked()
		}
		cp.mu.Unlock()
	case "addRule":
		r, err := rules.ParseRule(cmd.Text)
		if err != nil {
			return
		}
		cp.mu.Lock()
		cp.rules[r.ID] = cmd.Text
		cp.mu.Unlock()
		if r.HeadNode == cp.self {
			_ = cp.peer.AddRuleLocal(cmd.Text)
		}
	case "deleteRule":
		// Delete-by-id is a no-op at every member but the rule's head, so the
		// entry needs no routing — any member can host the request and a dead
		// head applies it from its control log on restart.
		cp.mu.Lock()
		delete(cp.rules, cmd.Text)
		cp.mu.Unlock()
		cp.peer.DeleteRuleLocal(cmd.Text)
	}
}

// statusOKLocked reports whether a member is eligible for driver duty (and
// replica placement) under the agreed view: never-heard-from (book) counts as
// eligible so a freshly booted cluster with an empty log can still elect.
// Re-homed members are never eligible even when the view shows them alive —
// after a promotion the adopter heartbeats on the dead name's behalf (so
// sends re-route), and electing a name with no consensus node behind it as
// update driver would stall the wave forever. Callers hold mu.
func (cp *ControlPlane) statusOKLocked(name string) bool {
	if h, ok := cp.hosts[name]; ok && h != name {
		return false
	}
	st := cp.view[name]
	return st == StatusBook || st == StatusAlive
}

// electLocked picks the member responsible for a kick: the preferred member
// when eligible, else the first eligible in sorted order. Callers hold mu.
func (cp *ControlPlane) electLocked(prefer string) string {
	if prefer != "" && cp.statusOKLocked(prefer) {
		return prefer
	}
	for _, m := range cp.members {
		if cp.statusOKLocked(m) {
			return m
		}
	}
	return ""
}

// reelectLocked recomputes the update driver after view or pending changes.
// A change of holder while an update is in flight counts as a fail-over.
// Callers hold mu.
func (cp *ControlPlane) reelectLocked() {
	if cp.pending == nil {
		cp.driver = ""
		return
	}
	next := cp.electLocked(cp.pending.node)
	if next != cp.driver && cp.driver != "" && next != "" {
		cp.failovers++
	}
	cp.driver = next
}

// hostOfLocked resolves the member currently hosting a node's primary (the
// node itself until a promotion re-homed it). Callers hold mu.
func (cp *ControlPlane) hostOfLocked(node string) string {
	if h, ok := cp.hosts[node]; ok && h != "" {
		return h
	}
	return node
}

// electorateLocked computes a node's promotion electorate — the members that
// should hold its replicas under the current agreed view: the k
// rendezvous-highest eligible members, excluding the node's current host (the
// primary is not its own replica). Every member computes the same set from
// the same fold, so election completion is agreed without its own protocol.
// Callers hold mu.
func (cp *ControlPlane) electorateLocked(node string) []string {
	host := cp.hostOfLocked(node)
	return RendezvousPlacement(node, cp.members, cp.opts.Replication.K,
		func(m string) bool { return m != host && cp.statusOKLocked(m) })
}

// startElectionLocked opens a promotion election for a node that lost its
// primary, and casts this member's bid when it is in the electorate. Callers
// hold mu.
func (cp *ControlPlane) startElectionLocked(node string) {
	if cp.opts.Replication.K <= 0 {
		return
	}
	if _, open := cp.elections[node]; open {
		return
	}
	cp.elections[node] = map[string]uint64{}
	cp.bidLocked(node)
}

// bidLocked submits this member's promotion bid for an open election it
// belongs to: an agreed promoteBid entry carrying the durable replication
// frontier of its mirror. Replay never bids (the log already holds whatever
// this member bid before the restart; NewControlPlane re-bids after replay if
// the election is still open). Callers hold mu.
func (cp *ControlPlane) bidLocked(node string) {
	if cp.replaying || cp.closed {
		return
	}
	inSet := false
	for _, e := range cp.electorateLocked(node) {
		if e == cp.self {
			inSet = true
			break
		}
	}
	if !inSet {
		return
	}
	frontier := cp.opts.Replication.Frontier
	self := cp.self
	// Frontier and Submit both run off the applier goroutine: the frontier
	// callback takes the replica manager's lock, and Submit blocks on quorum
	// — a minority member parks here until the partition heals, which is the
	// "minority replicas refuse promotion" rule falling out of consensus.
	//lint:allow goroshutdown bounded: one frontier read, then submitAsync, which selects on quit
	go func() {
		var f uint64
		if frontier != nil {
			f = frontier(node)
		}
		cp.submitAsync(wire.Command{Kind: "promoteBid", Origin: self, Node: node, Ref: f})
	}()
}

// checkElectionLocked decides an open election once every expected bidder has
// bid: the highest durable frontier wins (ties to the lexicographically least
// name), the host map re-homes the node, and — outside replay — the winner
// starts its promotion while a deposed previous host learns its fate. When this
// member's own bid is the missing one (a bidder died and the electorate
// shrank onto us, or we just finished replay), it re-bids. Callers hold mu.
func (cp *ControlPlane) checkElectionLocked(node string) {
	bids, open := cp.elections[node]
	if !open {
		return
	}
	expect := cp.electorateLocked(node)
	if len(expect) == 0 {
		// Nobody eligible can host the node right now; the election stays
		// open until a member entry changes the electorate.
		return
	}
	for _, e := range expect {
		if _, ok := bids[e]; !ok {
			if e == cp.self {
				cp.bidLocked(node)
			}
			return
		}
	}
	var winner string
	var best uint64
	for _, e := range expect {
		if f := bids[e]; winner == "" || f > best || (f == best && e < winner) {
			winner, best = e, f
		}
	}
	delete(cp.elections, node)
	loser := cp.hostOfLocked(node)
	cp.hosts[node] = winner
	if winner == cp.self {
		cp.promotions++
	}
	if !cp.replaying {
		if winner == cp.self {
			//lint:allow goroshutdown bounded: OnPromote adopts the node and returns, then submitAsync selects on quit
			go cp.runPromotion(node)
		} else if loser == cp.self {
			// This process is alive but the cluster agreed it was dead — a
			// partition or stall outlasted DeadAfter — and the node it hosted
			// (its own or an adopted one) now lives elsewhere. A node has at
			// most one live host: this one must stop serving it.
			cp.deposeLocked(node)
		}
	}
}

// deposeLocked tells the member, off the applier goroutine, that a node it
// hosted was re-homed elsewhere. Callers hold mu.
func (cp *ControlPlane) deposeLocked(node string) {
	if fn := cp.opts.Replication.OnDeposed; fn != nil {
		//lint:allow goroshutdown bounded callback: OnDeposed stops serving the node and returns
		go fn(node)
	}
}

// runPromotion executes a won election off the applier goroutine: adopt the
// node (rebuild its peer from the mirror and shipped subscription state),
// then kick a cluster-wide update wave so re-driven subscriptions and resends
// re-converge the fix-point through the new home.
func (cp *ControlPlane) runPromotion(node string) {
	if fn := cp.opts.Replication.OnPromote; fn != nil {
		fn(node)
	}
	cp.submitAsync(wire.Command{Kind: "update", Node: cp.self})
}

// startDrivingLocked spawns a driver goroutine for the pending update under
// a fresh generation. Callers hold mu and have established that this member
// is the driver.
func (cp *ControlPlane) startDrivingLocked() {
	if cp.driver != cp.self || cp.pending == nil || cp.closed || cp.replaying {
		return
	}
	cp.driveGen++
	inst := cp.pending.instance
	gen := cp.driveGen
	cp.wg.Add(1)
	go cp.drive(inst, gen)
}

// stillDriving reports whether a driver goroutine remains current: the same
// update is pending, this member is still the driver, and no newer driver
// generation superseded it.
func (cp *ControlPlane) stillDriving(inst, gen uint64) bool {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	return !cp.closed && cp.pending != nil && cp.pending.instance == inst &&
		cp.driver == cp.self && cp.driveGen == gen
}

// errSuperseded ends a drive whose update is no longer this member's to
// drive: it completed, a newer one replaced it, or the role moved on.
var errSuperseded = errors.New("cluster: update driver superseded")

// drive is the elected member's update driver: the one update driver
// (core.DriveUpdate) observed through the agreed member view, then
// updateDone. Patience is unbounded: a wave the driver gives up on — a dead
// member's dependents stay open until it restarts, a partition outlasts the
// probe budget — is kicked afresh, so the next epoch re-pulls from the
// acknowledged frontiers, rather than a half-done update being declared
// finished.
func (cp *ControlPlane) drive(inst, gen uint64) {
	defer cp.wg.Done()
	for {
		probes, err := core.DriveUpdate(cp.ctx, &planeWave{cp: cp, inst: inst, gen: gen})
		cp.probeRounds.Add(uint64(probes))
		if err == nil {
			cp.commitDone(inst, gen)
			return
		}
		if !cp.stillDriving(inst, gen) {
			return
		}
		fmt.Fprintf(os.Stderr, "%s: update %d: %v; kicking a fresh wave\n", cp.self, inst, err)
	}
}

// planeWave observes one update wave from the elected driver: its own peer
// directly, every other eligible member through StateRequest rounds.
type planeWave struct {
	cp        *ControlPlane
	inst, gen uint64
	kickEpoch uint64
	states    map[string]wire.StateReport // the round the wave settled on
}

// Kick re-checks before the kick, not just before each poll: a newer update
// (or this one's updateDone) may have been applied between startDrivingLocked
// and this goroutine getting scheduled, and a stale kick is a full
// cluster-wide epoch bump.
func (w *planeWave) Kick(context.Context, int) (bool, error) {
	if !w.cp.stillDriving(w.inst, w.gen) {
		return false, errSuperseded
	}
	w.kickEpoch = w.cp.peer.StartUpdateWave()
	return true, nil
}

// Settle waits until Settle consecutive complete rounds read the same: every
// eligible member at the same epoch with the same open set — one clean round
// can race a still-traveling confirming cascade — and, while any node is
// open, the same tuple counts, so a wave that is still moving data is not
// probed. A member that does not answer keeps the round incomplete, so the
// driver waits for it.
func (w *planeWave) Settle(ctx context.Context) error {
	cp := w.cp
	need := func(string) int { return cp.opts.Settle - 1 }
	_, err := core.HoldStill(ctx, cp.opts.PollEvery, need, func(ctx context.Context) (string, bool, error) {
		cp.mu.Lock()
		var targets []string
		for _, m := range cp.members {
			if m != cp.self && cp.statusOKLocked(m) {
				targets = append(targets, m)
			}
		}
		cp.mu.Unlock()
		states, complete, err := round(ctx, cp.send, targets, wire.StateRequest{}, cp.opts.RoundTimeout, &cp.states, nil)
		if err != nil {
			return "", false, err
		}
		if !cp.stillDriving(w.inst, w.gen) {
			return "", false, errSuperseded
		}
		states[cp.self] = wire.StateReport{Node: cp.self, Epoch: cp.peer.Epoch(),
			Activated: cp.peer.Activated(), Closed: cp.peer.State() == peer.Closed}
		w.states = states
		// What must hold still, per node (fmt prints maps in key order, so
		// equal rounds print equal).
		type still struct {
			epoch             uint64
			activated, closed bool
			tuples            int
		}
		moving := len(openNodes(states)) > 0
		sum := map[string]still{}
		for node, st := range states {
			if !moving {
				st.Tuples = 0
			}
			sum[node] = still{st.Epoch, st.Activated, st.Closed, st.Tuples}
		}
		return fmt.Sprint(sum), complete && states[cp.self].Epoch >= w.kickEpoch, nil
	})
	return err
}

func (w *planeWave) Open(context.Context) ([]core.OpenNode, bool, error) {
	return openNodes(w.states), true, nil
}

func (w *planeWave) Probe(open []core.OpenNode) {
	for _, on := range open {
		if on.Name == w.cp.self {
			w.cp.peer.Probe()
		} else {
			_ = w.cp.send(on.Name, wire.ProbeRequest{})
		}
	}
}

// commitDone proposes the updateDone entry naming the driven update. Retries
// until it lands or the drive is superseded (a fail-over mid-commit: the new
// driver re-drives and commits instead).
func (cp *ControlPlane) commitDone(inst, gen uint64) {
	for cp.stillDriving(inst, gen) {
		ctx, cancel := context.WithTimeout(context.Background(), cp.opts.RoundTimeout)
		_, err := cp.cons.Submit(ctx, wire.Command{Kind: "updateDone", Ref: inst})
		cancel()
		if err == nil {
			return
		}
	}
}

// reconcileLoop keeps the agreed member view converged with the failure
// detector: whenever a consensus member's gossip status (alive, suspect,
// left) differs from the agreed view, propose the correction. Proposals are
// cheap no-ops when a concurrent proposer got there first (apply is
// idempotent), and a member holding stale suspicions after a heal simply
// re-proposes the fresh status on the next tick — the loop converges on
// whatever the detector currently believes.
func (cp *ControlPlane) reconcileLoop() {
	defer cp.wg.Done()
	inSet := map[string]bool{}
	for _, m := range cp.members {
		inSet[m] = true
	}
	// suspectSince tracks how long each member has been *continuously*
	// suspect by the local detector; past Replication.DeadAfter the loop
	// escalates the proposal from suspect to dead — the agreed declaration
	// that triggers promotion. Any other status resets the clock, so a
	// crash-restart (or a heal) inside the window never escalates.
	suspectSince := map[string]time.Time{}
	for {
		select {
		case <-cp.ctx.Done():
			return
		case <-time.After(cp.opts.ReconcileEvery):
		}
		for _, m := range cp.tr.Members() {
			if !inSet[m.Name] || m.Status == StatusBook {
				continue
			}
			// A re-homed name has no liveness of its own: what the detector
			// sees under it is its adopter's heartbeats, and an adopter that
			// merely stalls must not get the name declared dead a second
			// time while it still serves it. The adopter's own death already
			// reopens elections for everything it hosted.
			if cp.HostOf(m.Name) != m.Name {
				delete(suspectSince, m.Name)
				continue
			}
			want := m.Status
			if cp.opts.Replication.K > 0 && m.Status == StatusSuspect {
				since, ok := suspectSince[m.Name]
				if !ok {
					suspectSince[m.Name] = time.Now()
				} else if time.Since(since) >= cp.opts.Replication.DeadAfter {
					want = StatusDead
				}
			} else {
				delete(suspectSince, m.Name)
			}
			premise := cp.folded.Load() // read before judging: what the proposal knows of the log
			if !cp.mayPropose(m, want) {
				continue
			}
			// Re-check right before proposing: the quorum wait below can
			// outlive the transition that motivated it.
			cur, ok := cp.gossipStatus(m.Name)
			if !ok || cur != m.Status {
				continue
			}
			ctx, cancel := context.WithTimeout(context.Background(), cp.opts.RoundTimeout)
			_, _ = cp.cons.Submit(ctx, wire.Command{
				Kind: "member", Node: m.Name, Addr: m.Addr, Status: uint8(want), Ref: premise,
			})
			cancel()
		}
	}
}

// mayPropose reports whether the detector's reading m of one member justifies
// proposing want over its agreed status. Death is sticky: once agreed dead,
// only a live return of the member itself may overwrite it — proposing mere
// suspicion would re-open a decided election's premise, and so would an
// "alive" from a detector that simply has not timed the member out yet: its
// alive entry deletes the open election and nobody re-declares the death. An
// alive over a death this member has folded (one it has not is refused by the
// fold, applyEntry) must rest on evidence the dead member cannot have left
// behind: a heartbeat heard more than a suspicion window after the fold —
// inside it the member's last frames may still be queued here.
func (cp *ControlPlane) mayPropose(m MemberInfo, want Status) bool {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	agreed := cp.view[m.Name]
	if agreed == StatusDead {
		return want == StatusAlive && m.LastSeen.After(cp.deadAt[m.Name].Add(cp.tr.opts.SuspectAfter))
	}
	return agreed != want
}

// gossipStatus reads the failure detector's current belief about one member.
func (cp *ControlPlane) gossipStatus(name string) (Status, bool) {
	for _, m := range cp.tr.Members() {
		if m.Name == name {
			return m.Status, true
		}
	}
	return StatusBook, false
}

// controlState is the gob-encoded control-plane fold shipped in a consensus
// state transfer (consensus.Options.Snapshot/Restore): everything applyEntry
// derives from the log prefix, so a member that lost its disk can resume
// from a peer's applied frontier instead of stalling below the GC floor.
type controlState struct {
	View        map[string]uint8
	Version     uint64
	PendingInst uint64
	PendingNode string
	Rules       map[string]string            // rule ID -> rule text
	Hosts       map[string]string            // node -> hosting member
	Elections   map[string]map[string]uint64 // open promotions: node -> bidder -> frontier
	DeadInst    map[string]uint64            // node -> instance that folded its agreed death
}

// snapshotState serialises the current fold for a catching-up peer.
func (cp *ControlPlane) snapshotState() []byte {
	cp.mu.Lock()
	st := controlState{
		View:    make(map[string]uint8, len(cp.view)),
		Version: cp.version,
		Rules:   make(map[string]string, len(cp.rules)),
	}
	for n, s := range cp.view {
		st.View[n] = uint8(s)
	}
	for id, text := range cp.rules {
		st.Rules[id] = text
	}
	st.Hosts = make(map[string]string, len(cp.hosts))
	for n, h := range cp.hosts {
		st.Hosts[n] = h
	}
	st.Elections = make(map[string]map[string]uint64, len(cp.elections))
	for n, bids := range cp.elections {
		cp2 := make(map[string]uint64, len(bids))
		for b, f := range bids {
			cp2[b] = f
		}
		st.Elections[n] = cp2
	}
	st.DeadInst = make(map[string]uint64, len(cp.deadInst))
	for n, i := range cp.deadInst {
		st.DeadInst[n] = i
	}
	if cp.pending != nil {
		st.PendingInst = cp.pending.instance
		st.PendingNode = cp.pending.node
	}
	cp.mu.Unlock()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(st); err != nil {
		return nil
	}
	return buf.Bytes()
}

// restoreState installs a transferred fold: the agreed view, pending update
// and rule set are replaced wholesale, then the local side effects are
// re-derived — driver election (gated like any apply during log replay) and
// this member's head-local rules. Runs on the consensus applier goroutine,
// or synchronously inside New when the applied log opens with a snapshot
// marker from an earlier transfer.
func (cp *ControlPlane) restoreState(through uint64, data []byte) {
	var st controlState
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&st); err != nil {
		return
	}
	cp.mu.Lock()
	cp.folded.Store(through)
	prevView := cp.view
	cp.view = make(map[string]Status, len(st.View))
	for n, s := range st.View {
		cp.view[n] = Status(s)
		if Status(s) == StatusDead && prevView[n] != StatusDead {
			cp.deadAt[n] = time.Now() // a death learned by transfer is folded now
		}
	}
	cp.version = st.Version
	old := cp.rules
	cp.rules = st.Rules
	if cp.rules == nil {
		cp.rules = map[string]string{}
	}
	oldHosts := cp.hosts
	cp.hosts = st.Hosts
	if cp.hosts == nil {
		cp.hosts = map[string]string{}
	}
	cp.elections = st.Elections
	if cp.elections == nil {
		cp.elections = map[string]map[string]uint64{}
	}
	cp.deadInst = st.DeadInst
	if cp.deadInst == nil {
		cp.deadInst = map[string]uint64{}
	}
	cp.pending = nil
	if st.PendingInst > 0 {
		cp.pending = &pendingUpdate{instance: st.PendingInst, node: st.PendingNode}
	}
	cp.reelectLocked()
	cp.startDrivingLocked()
	// Promotions the transferred fold decided while this member was away:
	// anything newly homed on us must be adopted now (outside replay; boot
	// recovery re-adopts from AdoptedNodes instead), and anything we hosted
	// that is homed elsewhere now — our own node included — must stop being
	// served here. Open elections get our bid re-cast via the usual check.
	var promote []string
	if !cp.replaying {
		for n, h := range cp.hosts {
			was := oldHosts[n] == cp.self || (oldHosts[n] == "" && n == cp.self)
			switch {
			case h == cp.self && n != cp.self && !was:
				promote = append(promote, n)
			case h != cp.self && was:
				cp.deposeLocked(n)
			}
		}
		for node := range cp.elections {
			cp.checkElectionLocked(node)
		}
	}
	cp.mu.Unlock()
	sort.Strings(promote)
	for _, n := range promote {
		//lint:allow goroshutdown bounded: OnPromote adopts the node and returns, then submitAsync selects on quit
		go cp.runPromotion(n)
	}
	for _, text := range st.Rules {
		if r, err := rules.ParseRule(text); err == nil && r.HeadNode == cp.self {
			_ = cp.peer.AddRuleLocal(text)
		}
	}
	// Rules this member knew before the transfer but the snapshot no longer
	// carries were deleted while it was away.
	for id := range old {
		if _, ok := st.Rules[id]; !ok {
			cp.peer.DeleteRuleLocal(id)
		}
	}
}
