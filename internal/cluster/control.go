package cluster

import (
	"context"
	"errors"
	"fmt"
	"os"
	"slices"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/consensus"
	"repro/internal/core"
	"repro/internal/peer"
	"repro/internal/shell"
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
//
// The agreed state and its transitions are the pure fold in fold.go; the
// ControlPlane is its shell: it feeds the fold the applied entries and runs
// the effects addressed to this member.

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
	// PollEvery is the longest pause between the update driver's samples of
	// the members' states while a wave settles (default 100ms), and the
	// spacing of the Settle rounds that must read the same; while the rounds
	// change, they come sooner (core.HoldStill). Each sample is one state
	// round, which ends as soon as every member has answered.
	PollEvery time.Duration
	// Settle is how many consecutive complete rounds must read the same
	// before the driver judges the wave (default 3): all closed commits
	// updateDone, anything open is probed — one round can race a
	// still-traveling confirming cascade.
	Settle int
	// ReconcileEvery is the retry/anti-entropy period of the failure
	// detector's reconciliation pass (default 500ms). The pass runs when what
	// it compares changes — a consensus member's status as the detector sees
	// it, or the agreed view — and when a suspect member's DeadAfter runs out;
	// agreed member statuses that drifted from what the detector sees are
	// proposed, one proposal in flight at a time, until the log catches up.
	// The period re-runs it after a proposal that was not decided.
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
	// the failure detector's reconciliation proposes declaring it
	// permanently dead — the trigger for promotion. Crash-restarts faster than this window
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
	// subscription state) and start replicating it onward. Fired on the
	// plane's runner, which Close waits for, never during control-log replay
	// (boot recovery asks AdoptedNodes instead).
	OnPromote func(node string)
	// OnDeposed fires when the agreed log re-homes a node this member hosts —
	// its own or an adopted one — to another member (this process was
	// declared dead, usually wrongly from its point of view: a long
	// partition). It must stop serving the node; a deposed primary that kept
	// accepting writes would fork the fix-point. Fired on the plane's runner,
	// like OnPromote, so it must not wait for the plane to close.
	OnDeposed func(node string)
}

func (o ControlPlaneOptions) withDefaults() ControlPlaneOptions {
	if o.PollEvery <= 0 {
		o.PollEvery = 100 * time.Millisecond
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

// ControlPlane is one serve member's agreed control plane.
type ControlPlane struct {
	tr      *Transport
	peer    HostedPeer
	self    string
	members []string
	opts    ControlPlaneOptions
	cons    *consensus.Node // nil while consensus.New replays the control log

	// sh folds the applied entries; its lock guards the fields below, and its
	// runner carries the drivers, the proposals and the callbacks.
	sh       *shell.Shell[effect]
	st       *foldState // the agreed fold
	onView   func()     // called after each applied change to the agreed view (OnViewChange)
	states   inbox[wire.StateReport]
	driveGen uint64 // invalidates superseded driver goroutines

	promotions  atomic.Uint64 // elections this member won
	probeRounds atomic.Uint64 // closure-probe rounds the driven updates needed
}

// NewControlPlane starts the agreed control plane for one serve member.
// members is the fixed consensus set — the net-file's database nodes,
// identical at every member — and must include tr.Self(). The hosted peer
// must already be registered on tr (control-log replay applies rule entries
// to it synchronously, before any network frame flows). Replay re-folds the
// log and runs only the rule changes of the effects: in particular a
// replayed update entry must not re-kick a cluster-wide wave for an update
// that completed before the restart. Only after replay finishes does the
// plane act on what remains genuinely owed (foldState.resume).
func NewControlPlane(tr *Transport, hosted HostedPeer, members []string, opts ControlPlaneOptions) (*ControlPlane, error) {
	opts = opts.withDefaults()
	cp := &ControlPlane{
		tr:      tr,
		peer:    hosted,
		self:    tr.Self(),
		members: append([]string(nil), members...),
		opts:    opts,
	}
	cp.sh = shell.New(cp.run, nil, nil)
	sort.Strings(cp.members)
	cp.st = newFoldState(cp.members, opts.Replication.K)
	copts := opts.Consensus
	copts.Snapshot = cp.snapshotState
	copts.Restore = cp.restoreState
	cons, err := consensus.New(cp.self, cp.members, cp.send, cp.applyEntry, copts)
	if err != nil {
		return nil, err
	}
	cp.cons = cons
	// Replay done (New replays the control log synchronously). An update
	// entry that survived without its updateDone really is still in flight,
	// and elections replay left open really are undecided: drive and bid now,
	// exactly once (max-merge in the fold makes a duplicate bid harmless).
	var view agreedView
	cp.sh.Step(func(time.Time, []effect) []effect {
		effs := cp.st.resume()
		view = cp.agreedView()
		return effs
	})
	tr.SetConsensus(cp.intercept)
	var deadAfter time.Duration
	if opts.Replication.K > 0 {
		deadAfter = opts.Replication.DeadAfter
	}
	tr.attachPlane(cp.proposeMember, opts.ReconcileEvery, deadAfter, view)
	cons.Start()
	return cp, nil
}

// Close stops the control plane: the consensus node first, so no entry is
// applied after the fold stops, then the drivers, the proposals and the
// callbacks, which Close waits for. Call before the network/transport closes.
func (cp *ControlPlane) Close() {
	cp.cons.Close()
	cp.sh.Close()
}

// send ships one control-plane frame from this member.
func (cp *ControlPlane) send(to string, msg wire.Message) error {
	return cp.tr.Send(cp.self, to, msg)
}

// AgreedView snapshots the agreed member table (absent members are book) and
// its version — the number of member entries applied. Every member's view at
// the same version is identical by construction: it is a fold over the same
// log prefix.
func (cp *ControlPlane) AgreedView() (map[string]Status, uint64) {
	cp.sh.Lock()
	defer cp.sh.Unlock()
	out := make(map[string]Status, len(cp.members))
	for _, m := range cp.members {
		out[m] = cp.st.View[m]
	}
	return out, cp.st.Version
}

// PlacementFor returns the members that should hold a node's replicas under
// the current agreed view, plus the view version pinning this placement
// epoch. Deterministic across members at the same version.
func (cp *ControlPlane) PlacementFor(node string) ([]string, uint64) {
	cp.sh.Lock()
	defer cp.sh.Unlock()
	return cp.st.electorate(node), cp.st.Version
}

// HostOf returns the member hosting a node's primary — the node itself until
// a promotion election re-homed it.
func (cp *ControlPlane) HostOf(node string) string {
	cp.sh.Lock()
	defer cp.sh.Unlock()
	return cp.st.hostOf(node)
}

// AdoptedNodes lists the nodes (other than its own) whose primaries this
// member hosts per the agreed log — what a restarting serve process must
// re-adopt before traffic flows.
func (cp *ControlPlane) AdoptedNodes() []string {
	cp.sh.Lock()
	defer cp.sh.Unlock()
	return cp.st.adopted(cp.self)
}

// Deposed reports whether the agreed log has re-homed this member's own node
// to another member: the cluster declared this process dead while it lived.
// A deposed process must not serve.
func (cp *ControlPlane) Deposed() bool {
	cp.sh.Lock()
	defer cp.sh.Unlock()
	return cp.st.hostOf(cp.self) != cp.self
}

// OnViewChange registers wake, called outside the plane's lock after every
// applied entry that changes the agreed view or a host — where the failure
// detector gets the new view. The replica manager's placement pass runs on
// it.
func (cp *ControlPlane) OnViewChange(wake func()) {
	cp.sh.Lock()
	cp.onView = wake
	cp.sh.Unlock()
}

// Metrics snapshots the control plane for the serve metrics endpoint.
func (cp *ControlPlane) Metrics() ControlPlaneMetrics {
	m := ControlPlaneMetrics{Metrics: cp.cons.Metrics(), ProbeRounds: cp.probeRounds.Load(), Promotions: cp.promotions.Load()}
	cp.sh.Lock()
	defer cp.sh.Unlock()
	m.ViewVersion = cp.st.Version
	m.Driver = cp.st.driver()
	m.Failovers = cp.st.Failovers
	m.PendingInst = cp.st.PendingInst
	m.Adopted = cp.st.adopted(cp.self)
	m.Deposed = cp.st.hostOf(cp.self) != cp.self
	m.OpenElections = len(cp.st.Elections)
	return m
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
		cp.submitAsync(wire.Command{Kind: "discover", Node: cp.self})
		return true
	case wire.UpdateRequest:
		cp.submitAsync(wire.Command{Kind: "update", Node: cp.self})
		return true
	case wire.AddRuleNotice:
		if IsCoordinator(env.From) {
			cp.submitAsync(wire.Command{Kind: "addRule", Text: m.RuleText})
			return true
		}
	case wire.DeleteRuleNotice:
		if IsCoordinator(env.From) {
			cp.submitAsync(wire.Command{Kind: "deleteRule", Text: m.RuleID})
			return true
		}
	}
	return false
}

// submitAsync proposes one command on the plane's runner, off the transport
// goroutine. A member cut off with a minority blocks there until the
// partition heals — by design: a minority must not start waves or change the
// member table. The proposal's context is the runner's, so Close unparks it
// and then drains it; after Close nothing is proposed.
func (cp *ControlPlane) submitAsync(cmd wire.Command) {
	cp.sh.Go(func(ctx context.Context) {
		ctx, cancel := context.WithTimeout(ctx, 5*time.Minute)
		defer cancel()
		_, _ = cp.cons.Submit(ctx, cmd)
	})
}

// proposeMember is submitAsync for the failure detector's member commands: it
// waits at most roundTimeout, then tells the detector the proposal returned
// and at which instance it was decided (0: not decided), so its
// reconciliation pass goes on once it has read that instance. It proposes at
// one instance (consensus.Propose): a command carried past the entry that
// took its instance would still be premised on the view before it — at boot
// on none (Ref 0, which the fold honours even over a death) — and could land
// after a death declared meanwhile. The detector proposes again on the view
// it then reads.
func (cp *ControlPlane) proposeMember(cmd wire.Command) {
	cp.sh.Go(func(ctx context.Context) {
		ctx, cancel := context.WithTimeout(ctx, roundTimeout)
		defer cancel()
		inst, _ := cp.cons.Propose(ctx, cmd)
		cp.tr.deliver(proposed{node: cmd.Node, inst: inst})
	})
}

// applyEntry folds one agreed entry and runs what it asks of this member. It
// runs on the consensus applier goroutine in instance order — or inside
// consensus.New, replaying the control log.
func (cp *ControlPlane) applyEntry(instance uint64, cmd wire.Command) {
	var view *agreedView
	var wake func()
	cp.sh.Step(func(time.Time, []effect) []effect {
		effs := cp.st.fold(instance, cmd)
		// Only member entries and decided elections change what the detector
		// reads; while replaying (no cons yet) the plane attaches with the result.
		if cp.cons != nil && (cmd.Kind == "member" || slices.ContainsFunc(effs, func(e effect) bool { return e.kind == effPromote })) {
			v := cp.agreedView()
			view, wake = &v, cp.onView
		}
		return effs
	})
	if view != nil {
		cp.tr.deliver(*view)
	}
	if wake != nil {
		wake()
	}
}

// agreedView renders the fold for the failure detector. Callers hold cp.mu.
func (cp *ControlPlane) agreedView() agreedView {
	v := agreedView{members: make(map[string]agreedMember, len(cp.members)), premise: cp.st.Applied}
	for _, m := range cp.members {
		if m != cp.self {
			v.members[m] = agreedMember{status: cp.st.View[m], deadInst: cp.st.DeadInst[m], rehomed: cp.st.hostOf(m) != m}
		}
	}
	return v
}

// snapshotState encodes the fold for a catching-up peer.
func (cp *ControlPlane) snapshotState() []byte {
	cp.sh.Lock()
	defer cp.sh.Unlock()
	return cp.st.snapshot()
}

// restoreState installs a transferred fold in place of the per-entry folds of
// the prefix it covers, and runs what the difference between the two states
// asks of this member. It runs where applyEntry runs, or inside
// consensus.New when the control log opens with a snapshot marker from an
// earlier transfer.
func (cp *ControlPlane) restoreState(through uint64, data []byte) {
	next, err := cp.st.restore(through, data) // reads only the fold's configuration
	if err != nil {
		return
	}
	var view agreedView
	var wake func()
	if cp.sh.Step(func(time.Time, []effect) []effect {
		effs := cp.st.transfer(next)
		cp.st = next
		view, wake = cp.agreedView(), cp.onView
		return effs
	}) && cp.cons != nil {
		cp.tr.deliver(view)
		if wake != nil {
			wake()
		}
	}
}

// run carries out the effects addressed to this member: rule changes in log
// order on the applier goroutine, a drive under a fresh generation, and what
// calls out or proposes — a bid, a promotion, a deposal, a discovery kick —
// on a goroutine of the runner, which Close waits for. During control-log
// replay (consensus.New replays before it returns, so cons is still nil) only
// the rule changes run: the rest happened before the restart, and the resume
// step re-derives what is still owed.
func (cp *ControlPlane) run(effs []effect) {
	replay := cp.cons == nil
	for _, e := range effs {
		if e.member != cp.self && e.member != everyMember {
			continue
		}
		if e.kind == effPromote {
			cp.promotions.Add(1)
		}
		switch {
		case e.kind == effAddRule:
			_ = cp.peer.AddRuleLocal(e.text)
		case e.kind == effDeleteRule:
			cp.peer.DeleteRuleLocal(e.text)
		case replay: // happened before the restart
		case e.kind == effDrive:
			cp.startDriving(e.inst)
		default:
			cp.sh.Go(func(context.Context) { cp.runAsync(e) })
		}
	}
}

// runAsync carries out one effect that leaves the plane.
func (cp *ControlPlane) runAsync(e effect) {
	rep := cp.opts.Replication
	switch e.kind {
	case effDiscover:
		cp.peer.StartDiscovery()
	case effBid:
		// The frontier callback takes the replica manager's lock, and Submit
		// blocks on quorum — a minority member parks here until the partition
		// heals, which is the "minority replicas refuse promotion" rule falling
		// out of consensus.
		var f uint64
		if rep.Frontier != nil {
			f = rep.Frontier(e.node)
		}
		cp.submitAsync(wire.Command{Kind: "promoteBid", Origin: cp.self, Node: e.node, Ref: f})
	case effPromote:
		// Adopt the node (rebuild its peer from the mirror and the shipped
		// subscription state), then kick a cluster-wide update so re-driven
		// subscriptions and resends re-converge the fix-point through the new
		// home.
		if rep.OnPromote != nil {
			rep.OnPromote(e.node)
		}
		cp.submitAsync(wire.Command{Kind: "update", Node: cp.self})
	case effDepose:
		// This process is alive but the cluster agreed it was dead — a
		// partition or stall outlasted DeadAfter — and the node it hosted (its
		// own or an adopted one) now lives elsewhere. A node has at most one
		// live host: this one must stop serving it.
		if rep.OnDeposed != nil {
			rep.OnDeposed(e.node)
		}
	}
}

// startDriving runs a driver for update inst under a fresh generation; an
// older one notices it was superseded and exits.
func (cp *ControlPlane) startDriving(inst uint64) {
	cp.sh.Lock()
	cp.driveGen++
	gen := cp.driveGen
	cp.sh.Unlock()
	cp.sh.Go(func(ctx context.Context) { cp.drive(ctx, inst, gen) })
}

// stillDriving reports whether a driver goroutine remains current: the same
// update is pending, this member is still the driver, and no newer driver
// generation superseded it.
func (cp *ControlPlane) stillDriving(inst, gen uint64) bool {
	cp.sh.Lock()
	defer cp.sh.Unlock()
	return !cp.sh.Closed() && cp.st.PendingInst == inst && cp.st.driver() == cp.self && cp.driveGen == gen
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
func (cp *ControlPlane) drive(ctx context.Context, inst, gen uint64) {
	for {
		probes, err := core.DriveUpdate(ctx, &planeWave{cp: cp, inst: inst, gen: gen})
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
// (or this one's updateDone) may have been applied between startDriving and
// this goroutine getting scheduled, and a stale kick is a full
// cluster-wide epoch bump.
func (w *planeWave) Kick(context.Context, int) (bool, error) {
	if !w.cp.stillDriving(w.inst, w.gen) {
		return false, errSuperseded
	}
	w.kickEpoch = w.cp.peer.StartUpdateWave()
	return true, nil
}

// Settle waits until Settle consecutive complete rounds, a full PollEvery
// apart, read the same: every eligible member at the same epoch with the same
// open set — one clean round can race a still-traveling confirming cascade —
// and, while any node is open, the same tuple counts, so a wave that is still
// moving data is not probed. A member that does not answer keeps the round
// incomplete, so the driver waits for it.
func (w *planeWave) Settle(ctx context.Context) error {
	cp := w.cp
	need := func(string) int { return cp.opts.Settle - 1 }
	_, err := core.HoldStill(ctx, cp.opts.PollEvery, nil, need, func(ctx context.Context) (string, bool, error) {
		cp.sh.Lock()
		var targets []string
		for _, m := range cp.members {
			if m != cp.self && cp.st.statusOK(m) {
				targets = append(targets, m)
			}
		}
		cp.sh.Unlock()
		states, complete, err := round(ctx, cp.send, targets, wire.StateRequest{}, roundTimeout, &cp.states, nil)
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
		ctx, cancel := context.WithTimeout(context.Background(), roundTimeout)
		_, err := cp.cons.Submit(ctx, wire.Command{Kind: "updateDone", Ref: inst})
		cancel()
		if err == nil {
			return
		}
	}
}
