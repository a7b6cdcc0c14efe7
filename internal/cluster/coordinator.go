package cluster

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/relalg"
	"repro/internal/rules"
	"repro/internal/stats"
	"repro/internal/wire"
)

// CoordinatorOptions tunes the control plane on top of the membership layer.
type CoordinatorOptions struct {
	// Membership is the underlying member-table tuning.
	Membership Options
	// PollEvery is the longest pause between Quiesce's samples of the
	// members' counter balance, and between a kick-off verb's samples of their
	// states for the kick (default 50ms); while the samples move, they come
	// sooner (core.HoldStill). Each sample is one request round, which ends as
	// soon as every member has answered; WaitMembers wakes on status changes
	// instead.
	PollEvery time.Duration
	// Name is this coordinator's member name (default CoordinatorName). A
	// long-lived session sharing a cluster with other coordinator processes
	// — a `ctl watch` stream running beside one-shot ctl verbs — must pick a
	// unique "@"-prefixed name, or the one-shot joins overwrite its address
	// in every member's book and streamed frames route to a dead port.
	Name string

	// roundTimeout replaces the package's roundTimeout for this coordinator:
	// tests that cut links shorten it, and the race detector's soak stretches
	// it.
	roundTimeout time.Duration
}

func (o CoordinatorOptions) withDefaults() CoordinatorOptions {
	if o.PollEvery <= 0 {
		o.PollEvery = 50 * time.Millisecond
	}
	if o.roundTimeout <= 0 {
		o.roundTimeout = roundTimeout
	}
	if o.Name == "" {
		o.Name = CoordinatorName
	}
	return o
}

// report is one collected reply with its arrival number.
type report[T any] struct {
	n   uint64
	val T
}

// inbox keeps the latest reply of one kind per sender. Each reply is numbered
// in arrival order, so a round can tell the replies that arrived after its
// request left from the ones stored before.
type inbox[T any] struct {
	mu      sync.Mutex
	n       uint64 // arrivals so far
	last    map[string]report[T]
	arrived wake
}

func (in *inbox[T]) put(from string, val T) {
	in.mu.Lock()
	if in.last == nil {
		in.last = map[string]report[T]{}
	}
	in.n++
	in.last[from] = report[T]{n: in.n, val: val}
	in.mu.Unlock()
	in.arrived.fire()
}

// roundTimeout bounds one request round: how long to wait for every alive
// peer's reply before treating the round as incomplete. It also bounds the
// control plane's member proposals and updateDone submits.
const roundTimeout = 2 * time.Second

// round runs one request round against targets: send one request to each,
// then wait, waking on each arrival, until every one of them has a reply that
// arrived after the request left (or timeout passes) and answers req — a nil
// answers takes any: arrival order alone cannot tell a late reply to an
// earlier round from this one's. It returns the fresh replies and whether the
// round was complete. The coordinator's polls and the control plane's driver
// polls are both this function.
func round[T any](ctx context.Context, send func(to string, msg wire.Message) error, targets []string, req wire.Message, timeout time.Duration, in *inbox[T], answers func(T) bool) (map[string]T, bool, error) {
	in.mu.Lock()
	start := in.n
	in.mu.Unlock()
	for _, p := range targets {
		_ = send(p, req)
	}
	deadline, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	for {
		arrived := in.arrived.wait()
		fresh := map[string]T{}
		in.mu.Lock()
		for name, r := range in.last {
			if r.n > start && (answers == nil || answers(r.val)) {
				fresh[name] = r.val
			}
		}
		in.mu.Unlock()
		complete := true
		for _, p := range targets {
			if _, ok := fresh[p]; !ok {
				complete = false
				break
			}
		}
		if complete {
			return fresh, true, nil
		}
		select {
		case <-deadline.Done():
			if err := ctx.Err(); err != nil {
				return nil, false, err
			}
			return fresh, false, nil
		case <-arrived:
		}
	}
}

// Coordinator is the remote control plane: it joins the cluster under
// CoordinatorName and orchestrates the serve processes through wire control
// verbs — the super-peer role of Section 5 played from outside the database
// network, against peers it can only reach by messages, exactly the paper's
// JXTA situation.
type Coordinator struct {
	def  *rules.Network
	tr   *Transport
	opts CoordinatorOptions

	stats    inbox[wire.StatsReport]
	statsSeq atomic.Uint64 // last StatsRequest.Seq; starts at the clock, so a namesake's late replies read stale
	states   inbox[wire.StateReport]
	replicas inbox[wire.ReplicaStatusReport]

	probeRounds atomic.Uint64 // closure-probe rounds the updates needed

	mu      sync.Mutex
	queries map[uint64]chan wire.QueryResult
	qseq    uint64
	watches map[uint64]*RemoteWatch
	wseq    uint64
}

// NewCoordinator joins the cluster as the control plane. The address book is
// the definition's addr lines plus extra (extra wins); listenAddr is this
// process's own listener (typically "127.0.0.1:0").
func NewCoordinator(def *rules.Network, listenAddr string, extra map[string]string, opts CoordinatorOptions) (*Coordinator, error) {
	opts = opts.withDefaults()
	book := map[string]string{}
	for node, addr := range def.Addrs {
		book[node] = addr
	}
	for node, addr := range extra {
		book[node] = addr
	}
	tr, err := New(opts.Name, listenAddr, book, opts.Membership)
	if err != nil {
		return nil, err
	}
	c := &Coordinator{
		def:     def,
		tr:      tr,
		opts:    opts,
		queries: map[uint64]chan wire.QueryResult{},
		watches: map[uint64]*RemoteWatch{},
	}
	c.statsSeq.Store(uint64(time.Now().UnixNano()))
	if err := tr.Register(opts.Name, c.handle); err != nil {
		_ = tr.Close()
		return nil, err
	}
	tr.Announce()
	return c, nil
}

// Close leaves the cluster cleanly.
func (c *Coordinator) Close() error { return c.tr.Close() }

// Transport exposes the membership layer (member table, addresses).
func (c *Coordinator) Transport() *Transport { return c.tr }

// handle consumes the peers' control-plane replies.
func (c *Coordinator) handle(env wire.Envelope) {
	switch m := env.Msg.(type) {
	case wire.StatsReport:
		c.stats.put(m.Snapshot.Node, m)
	case wire.StateReport:
		c.states.put(m.Node, m)
	case wire.ReplicaStatusReport:
		c.replicas.put(m.Member, m)
	case wire.QueryResult:
		c.mu.Lock()
		ch := c.queries[m.ID]
		delete(c.queries, m.ID)
		c.mu.Unlock()
		if ch != nil {
			ch <- m
		}
	case wire.WatchDelta:
		c.handleWatchDelta(m)
	}
}

// Super returns the node the kick-off verbs target: the definition's
// super-peer, or its first node in sorted order.
func (c *Coordinator) Super() string {
	if c.def.Super != "" {
		return c.def.Super
	}
	names := make([]string, 0, len(c.def.Nodes))
	for _, d := range c.def.Nodes {
		names = append(names, d.Name)
	}
	sort.Strings(names)
	if len(names) == 0 {
		return ""
	}
	return names[0]
}

// alivePeers lists the alive database members (coordinators excluded).
func (c *Coordinator) alivePeers() []string {
	var out []string
	for _, m := range c.tr.Members() {
		if m.Status == StatusAlive && !IsCoordinator(m.Name) {
			out = append(out, m.Name)
		}
	}
	return out
}

// kickTarget picks the member a kick-off verb or rule notice goes to: the
// preferred node when it is alive, else the first alive member in sorted
// order — any member of a consensus-run cluster can host a control request
// (a rule change travels as an agreed log entry and applies at its head node
// whenever that returns), so an unreachable super-peer or head falls through
// to the next live member instead of erroring out. Retries (attempt > 0)
// rotate through the other live members.
func (c *Coordinator) kickTarget(prefer string, attempt int) (string, error) {
	alive := c.alivePeers()
	if len(alive) == 0 {
		return "", fmt.Errorf("cluster: no alive member to target (preferred %q)", prefer)
	}
	sort.Strings(alive)
	for i, p := range alive {
		if p == prefer {
			alive[0], alive[i] = alive[i], alive[0]
		}
	}
	return alive[attempt%len(alive)], nil
}

// WaitMembers blocks until at least want database peers are alive (the
// join handshake and heartbeat retries run underneath). It wakes on each
// member-status change.
func (c *Coordinator) WaitMembers(ctx context.Context, want int) error {
	for {
		changed := c.tr.changed.wait()
		if len(c.alivePeers()) >= want {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("cluster: %d of %d members alive: %w", len(c.alivePeers()), want, ctx.Err())
		case <-changed:
		}
	}
}

// send ships one control verb from the coordinator.
func (c *Coordinator) send(to string, msg wire.Message) error {
	return c.tr.Send(c.opts.Name, to, msg)
}

// ask runs one request round against the alive peers.
func ask[T any](ctx context.Context, c *Coordinator, req wire.Message, in *inbox[T]) (map[string]T, bool, error) {
	return round(ctx, c.send, c.alivePeers(), req, c.opts.roundTimeout, in, nil)
}

// askStats runs one statistics round. The request carries a number the reports
// echo, so every snapshot returned was taken after this round's request left.
func (c *Coordinator) askStats(ctx context.Context) (map[string]stats.Snapshot, bool, error) {
	seq := c.statsSeq.Add(1)
	reps, complete, err := round(ctx, c.send, c.alivePeers(), wire.StatsRequest{Seq: seq}, c.opts.roundTimeout, &c.stats,
		func(r wire.StatsReport) bool { return r.Seq >= seq })
	snaps := make(map[string]stats.Snapshot, len(reps))
	for name, r := range reps {
		snaps[name] = r.Snapshot
	}
	return snaps, complete, err
}

// CollectStats gathers every alive peer's statistics snapshot through the
// wire (the super-peer verb of Section 5, played remotely).
func (c *Coordinator) CollectStats(ctx context.Context) (map[string]stats.Snapshot, error) {
	snaps, _, err := c.askStats(ctx)
	return snaps, err
}

// ResetStats zeroes every alive peer's counters.
func (c *Coordinator) ResetStats() {
	for _, p := range c.alivePeers() {
		_ = c.send(p, wire.StatsReset{})
	}
}

// ReplicaStatuses polls every alive member's replication status (stream
// frontiers, mirrors, the under_replicated gauge). Members running without
// -replicas never answer, so the round is allowed to come back partial: the
// fresh reports are returned as they stand at the round deadline.
func (c *Coordinator) ReplicaStatuses(ctx context.Context) (map[string]wire.ReplicaStatusReport, error) {
	reps, _, err := ask(ctx, c, wire.ReplicaStatusRequest{}, &c.replicas)
	return reps, err
}

// States polls every alive peer's protocol state.
func (c *Coordinator) States(ctx context.Context) (map[string]wire.StateReport, error) {
	states, _, err := ask(ctx, c, wire.StateRequest{}, &c.states)
	return states, err
}

// protocolTotals sums the peers' sent (started) and received (finished)
// counters, excluding the control-plane kinds: the polling itself must not
// look like traffic, and replies flowing to the counter-less coordinator must
// not register as a permanent deficit.
func protocolTotals(snaps map[string]stats.Snapshot) (started, finished uint64) {
	for _, s := range snaps {
		for kind, n := range s.MsgsSent {
			if !wire.ControlKinds[kind] {
				started += n
			}
		}
		for kind, n := range s.MsgsReceived {
			if !wire.ControlKinds[kind] {
				finished += n
			}
		}
	}
	return started, finished
}

// Quiesce blocks until the database network has settled, judged purely by
// protocol-visible signals: core.Network.Quiesce's counter balance across wire
// rounds. When one complete round's finished total equals the started total
// of the next, over the same members, nothing was in flight between them — a
// round that balances within itself is confirmed at once by a second. That is
// exact while the counters read are every node's since it booted; when a node
// is missing from the round (dead, re-homed) a balance proves nothing, and
// like totals that do not balance (a lost message) the wait ends once 25
// rounds, a full PollEvery apart, have read the same. While the totals move,
// the rounds come sooner (core.HoldStill), so an exact balance ends the wait
// within about one round of the wave's end. A member that restarted, or a
// StatsReset that landed mid-wave, has forgotten messages the others still
// count: a surplus of finished over started gives that away and is treated
// alike.
func (c *Coordinator) Quiesce(ctx context.Context) error {
	return core.AwaitBalance(ctx, c.opts.PollEvery, nil, 25, func(ctx context.Context) (core.Balance, bool, error) {
		first, complete, err := c.askStats(ctx)
		b := core.Balance{Exact: true}
		b.Started, b.Finished = protocolTotals(first)
		for _, d := range c.def.Nodes {
			_, heard := first[d.Name]
			b.Exact = b.Exact && heard
		}
		if err != nil || !complete || !b.Exact || b.Started != b.Finished {
			return b, complete, err
		}
		second, complete, err := c.askStats(ctx)
		complete = complete && len(first) == len(second)
		for name := range first {
			_, heard := second[name]
			complete = complete && heard
		}
		b.Started, _ = protocolTotals(second)
		return b, complete, err
	})
}

// awaitKick samples the peers' states until landed sees the kick in them, or
// reports false when a round timeout passes first. It is a poll, on the
// sampler Quiesce uses, paced like it (at most PollEvery apart, sooner while
// the wait is young): no member pushes its state when a kick lands, so there
// is no arrival to wake on.
func (c *Coordinator) awaitKick(ctx context.Context, landed func(map[string]wire.StateReport) bool) (bool, error) {
	expired, cancel := context.WithTimeout(ctx, c.opts.roundTimeout)
	defer cancel()
	// A sample counts as complete only once the kick shows; then it is final.
	ok, _ := core.HoldStill(expired, c.opts.PollEvery, nil, func(bool) int { return 0 }, func(context.Context) (bool, bool, error) {
		states, _, err := ask(ctx, c, wire.StateRequest{}, &c.states)
		ok := err == nil && landed(states)
		return ok, ok, err
	})
	if ok {
		return true, nil
	}
	return false, ctx.Err() // ask fails only on ctx; past the round timeout ctx is still live
}

// Discover kicks a topology-discovery wave — at the super-peer when it is
// alive, else at the next live member — and returns at quiescence (every
// reached node then knows its maximal dependency paths; participants
// self-discover lazily, as in the in-process runs). With a control plane the
// kick lands asynchronously (request → agreed entry → the elected member
// starts the wave), so the network is judged only once the kick shows: some
// node reports more discovery waves started (StateReport.Waves) than before.
func (c *Coordinator) Discover(ctx context.Context) error {
	before, _, err := ask(ctx, c, wire.StateRequest{}, &c.states)
	if err != nil {
		return err
	}
	target, err := c.kickTarget(c.Super(), 0)
	if err != nil {
		return err
	}
	if err := c.send(target, wire.DiscoverRequest{}); err != nil {
		return fmt.Errorf("cluster: discover kick-off: %w", err)
	}
	landed, err := c.awaitKick(ctx, func(now map[string]wire.StateReport) bool {
		for node, st := range now {
			if st.Waves > before[node].Waves {
				return true
			}
		}
		return false
	})
	if err != nil {
		return err
	}
	if !landed {
		return fmt.Errorf("cluster: %w: no discovery wave started after kicking %s", core.ErrKickLost, target)
	}
	return c.Quiesce(ctx)
}

// maxEpoch returns the highest epoch any polled peer reports.
func maxEpoch(states map[string]wire.StateReport) uint64 {
	var max uint64
	for _, st := range states {
		if st.Epoch > max {
			max = st.Epoch
		}
	}
	return max
}

// openNodes lists the activated, not closed nodes among polled states, sorted.
func openNodes(states map[string]wire.StateReport) []core.OpenNode {
	var open []core.OpenNode
	for node, st := range states {
		if st.Activated && !st.Closed {
			open = append(open, core.OpenNode{Name: node})
		}
	}
	sort.Slice(open, func(i, j int) bool { return open[i].Name < open[j].Name })
	return open
}

// Update runs the global update to completion through the one update driver
// (core.DriveUpdate), observed over the wire: kick the wave at the
// super-peer, wait for quiescence, and verify closure through state polling.
func (c *Coordinator) Update(ctx context.Context) error {
	// Pin the epoch before kicking: with the replicated control plane the
	// kick lands asynchronously (request → agreed log entry → elected driver
	// starts the wave), so quiescence must not be declared against the
	// still-settled counters of the PREVIOUS epoch. Waiting for the epoch to
	// advance closes that window; a plane-less member advances it
	// synchronously, so the wait is immediate there.
	before, _, err := ask(ctx, c, wire.StateRequest{}, &c.states)
	if err != nil {
		return err
	}
	w := &wireWave{c: c, epoch0: maxEpoch(before)}
	probes, err := core.DriveUpdate(ctx, w)
	c.probeRounds.Add(uint64(probes))
	if errors.Is(err, core.ErrKickLost) {
		return fmt.Errorf("cluster: %w: epoch still %d after kicking %v", err, w.epoch0, w.tried)
	}
	return err
}

// ProbeRounds reports how many closure-probe rounds this coordinator's
// updates needed; zero is the healthy answer.
func (c *Coordinator) ProbeRounds() uint64 { return c.probeRounds.Load() }

// wireWave observes one update wave through wire rounds only.
type wireWave struct {
	c      *Coordinator
	epoch0 uint64   // highest epoch before the kick
	tried  []string // kick targets so far
}

// Kick sends the kick-off, then verifies the kick LANDED by watching the
// epoch advance. A kick can be swallowed whole — the target crashed right
// after the send, or the elected driver sits in a partition — and declaring
// success by polling an already-settled network at the old epoch would report
// an update that never ran. A deadline without an epoch bump reports the kick
// as not landed; the next attempt goes to the next live member.
func (w *wireWave) Kick(ctx context.Context, attempt int) (bool, error) {
	c := w.c
	target, err := c.kickTarget(c.Super(), attempt)
	if err != nil {
		return false, err
	}
	w.tried = append(w.tried, target)
	if err := c.send(target, wire.UpdateRequest{}); err != nil {
		return false, fmt.Errorf("cluster: update kick-off: %w", err)
	}
	return c.awaitKick(ctx, func(states map[string]wire.StateReport) bool { return maxEpoch(states) > w.epoch0 })
}

func (w *wireWave) Settle(ctx context.Context) error { return w.c.Quiesce(ctx) }

func (w *wireWave) Open(ctx context.Context) ([]core.OpenNode, bool, error) {
	states, complete, err := ask(ctx, w.c, wire.StateRequest{}, &w.c.states)
	return openNodes(states), complete, err
}

func (w *wireWave) Probe(open []core.OpenNode) {
	for _, on := range open {
		_ = w.c.send(on.Name, wire.ProbeRequest{})
	}
}

// Query evaluates a conjunctive query against one peer's local database
// (Definition 4 through the wire: globally sound and complete once the
// network is quiescent after an update).
func (c *Coordinator) Query(ctx context.Context, node, body string, outVars []string) ([]relalg.Tuple, error) {
	c.mu.Lock()
	c.qseq++
	id := c.qseq
	ch := make(chan wire.QueryResult, 1)
	c.queries[id] = ch
	c.mu.Unlock()
	if err := c.tr.Send(c.opts.Name, node, wire.QueryRequest{ID: id, Body: body, Cols: outVars}); err != nil {
		c.mu.Lock()
		delete(c.queries, id)
		c.mu.Unlock()
		return nil, err
	}
	select {
	case res := <-ch:
		if res.Err != "" {
			return nil, fmt.Errorf("cluster: query at %s: %s", node, res.Err)
		}
		return res.Tuples, nil
	case <-time.After(c.opts.roundTimeout):
		c.mu.Lock()
		delete(c.queries, id)
		c.mu.Unlock()
		return nil, fmt.Errorf("cluster: query at %s timed out", node)
	case <-ctx.Done():
		c.mu.Lock()
		delete(c.queries, id)
		c.mu.Unlock()
		return nil, ctx.Err()
	}
}

// Broadcast ships a network-description file to every alive peer (Section 5:
// the super-peer "can read coordination rules for all peers from a file and
// broadcast this file", changing the topology at runtime).
func (c *Coordinator) Broadcast(text string) error {
	if _, err := rules.ParseNetwork(text); err != nil {
		return err
	}
	for _, p := range c.alivePeers() {
		if err := c.tr.Send(c.opts.Name, p, wire.SetNetwork{Text: text}); err != nil {
			return err
		}
	}
	return nil
}

// AddLink applies addLink(i,j,rule,id) remotely: the head node is notified
// when alive; otherwise the next live member takes the request (under the
// replicated control plane the rule travels as a log entry and applies at
// the head whenever it returns — the entry, not the notice, is the record).
func (c *Coordinator) AddLink(ruleText string) error {
	r, err := rules.ParseRule(ruleText)
	if err != nil {
		return err
	}
	// Validate against the net-file schemas before anything ships: a rule
	// that parses but is ill-formed (reads its own head node, wrong arity)
	// would otherwise become an agreed log entry the head node can neither
	// apply nor skip, wedging every later update wave.
	if err := r.Validate(c.def.Lookup()); err != nil {
		return err
	}
	target, err := c.kickTarget(r.HeadNode, 0)
	if err != nil {
		return err
	}
	return c.tr.Send(c.opts.Name, target, wire.AddRuleNotice{RuleText: ruleText})
}

// DeleteLink applies deleteLink(i,j,id) remotely: the head node is notified
// when alive; otherwise the next live member takes the request (the agreed
// deleteRule entry is a no-op everywhere but the head, which applies it —
// live or from its control log on restart).
func (c *Coordinator) DeleteLink(headNode, ruleID string) error {
	target, err := c.kickTarget(headNode, 0)
	if err != nil {
		return err
	}
	return c.tr.Send(c.opts.Name, target, wire.DeleteRuleNotice{RuleID: ruleID})
}
