package cluster

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/relalg"
	"repro/internal/rules"
	"repro/internal/stats"
	"repro/internal/wire"
)

// CoordinatorOptions tunes the control plane on top of the membership layer.
type CoordinatorOptions struct {
	// Membership is the underlying member-table tuning.
	Membership Options
	// PollEvery is the pause between quiescence polling rounds (default 50ms).
	PollEvery time.Duration
	// RoundTimeout bounds one request round — how long to wait for every
	// alive peer's report before treating the round as incomplete (default 2s).
	RoundTimeout time.Duration
	// Settle is how many consecutive still, balanced polling rounds declare
	// quiescence (default 5); an unbalanced sent/recv sum needs SettleDeficit
	// rounds (default 25) — in-flight and lost traffic look identical from
	// counters, so the deficit case gets several times longer to drain.
	Settle, SettleDeficit int
	// Probes bounds the closure probes of Update (default 8).
	Probes int
	// Name is this coordinator's member name (default CoordinatorName). A
	// long-lived session sharing a cluster with other coordinator processes
	// — a `ctl watch` stream running beside one-shot ctl verbs — must pick a
	// unique "@"-prefixed name, or the one-shot joins overwrite its address
	// in every member's book and streamed frames route to a dead port.
	Name string
}

func (o CoordinatorOptions) withDefaults() CoordinatorOptions {
	if o.PollEvery <= 0 {
		o.PollEvery = 50 * time.Millisecond
	}
	if o.RoundTimeout <= 0 {
		o.RoundTimeout = 2 * time.Second
	}
	if o.Settle <= 0 {
		o.Settle = 5
	}
	if o.SettleDeficit <= 0 {
		o.SettleDeficit = 25
	}
	if o.Probes <= 0 {
		o.Probes = 8
	}
	if o.Name == "" {
		o.Name = CoordinatorName
	}
	return o
}

// report is one collected reply with its arrival time (rounds only accept
// replies fresher than the round's start).
type report[T any] struct {
	at  time.Time
	val T
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

	mu       sync.Mutex
	stats    map[string]report[stats.Snapshot]
	states   map[string]report[wire.StateReport]
	replicas map[string]report[wire.ReplicaStatusReport]
	queries  map[uint64]chan wire.QueryResult
	qseq     uint64
	watches  map[uint64]*RemoteWatch
	wseq     uint64
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
		def:      def,
		tr:       tr,
		opts:     opts,
		stats:    map[string]report[stats.Snapshot]{},
		states:   map[string]report[wire.StateReport]{},
		replicas: map[string]report[wire.ReplicaStatusReport]{},
		queries:  map[uint64]chan wire.QueryResult{},
		watches:  map[uint64]*RemoteWatch{},
	}
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
		c.mu.Lock()
		c.stats[m.Snapshot.Node] = report[stats.Snapshot]{at: time.Now(), val: m.Snapshot}
		c.mu.Unlock()
	case wire.StateReport:
		c.mu.Lock()
		c.states[m.Node] = report[wire.StateReport]{at: time.Now(), val: m}
		c.mu.Unlock()
	case wire.ReplicaStatusReport:
		c.mu.Lock()
		c.replicas[m.Member] = report[wire.ReplicaStatusReport]{at: time.Now(), val: m}
		c.mu.Unlock()
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
// to the next live member instead of erroring out.
func (c *Coordinator) kickTarget(prefer string) (string, error) {
	alive := c.alivePeers()
	sort.Strings(alive)
	for _, p := range alive {
		if p == prefer {
			return p, nil
		}
	}
	if len(alive) > 0 {
		return alive[0], nil
	}
	return "", fmt.Errorf("cluster: no alive member to target (preferred %q)", prefer)
}

// WaitMembers blocks until at least want database peers are alive (the
// join handshake and heartbeat retries run underneath).
func (c *Coordinator) WaitMembers(ctx context.Context, want int) error {
	for {
		if len(c.alivePeers()) >= want {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("cluster: %d of %d members alive: %w", len(c.alivePeers()), want, ctx.Err())
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// round runs one request round against the alive peers: send one request per
// peer, wait until every one of them has a reply fresher than the round
// start (or the round times out). It returns the fresh replies and whether
// the round was complete.
func round[T any](ctx context.Context, c *Coordinator, req wire.Message, table func() map[string]report[T]) (map[string]T, bool, error) {
	peers := c.alivePeers()
	start := time.Now()
	for _, p := range peers {
		_ = c.tr.Send(c.opts.Name, p, req)
	}
	deadline := start.Add(c.opts.RoundTimeout)
	for {
		fresh := map[string]T{}
		c.mu.Lock()
		for name, r := range table() {
			if !r.at.Before(start) {
				fresh[name] = r.val
			}
		}
		c.mu.Unlock()
		complete := true
		for _, p := range peers {
			if _, ok := fresh[p]; !ok {
				complete = false
				break
			}
		}
		if complete || time.Now().After(deadline) {
			return fresh, complete, nil
		}
		select {
		case <-ctx.Done():
			return nil, false, ctx.Err()
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// CollectStats gathers every alive peer's statistics snapshot through the
// wire (the super-peer verb of Section 5, played remotely).
func (c *Coordinator) CollectStats(ctx context.Context) (map[string]stats.Snapshot, error) {
	snaps, _, err := round(ctx, c, wire.StatsRequest{}, func() map[string]report[stats.Snapshot] { return c.stats })
	return snaps, err
}

// ResetStats zeroes every alive peer's counters.
func (c *Coordinator) ResetStats() {
	for _, p := range c.alivePeers() {
		_ = c.tr.Send(c.opts.Name, p, wire.StatsReset{})
	}
}

// ReplicaStatuses polls every alive member's replication status (stream
// frontiers, mirrors, the under_replicated gauge). Members running without
// -replicas never answer, so the round is allowed to come back partial: the
// fresh reports are returned as they stand at the round deadline.
func (c *Coordinator) ReplicaStatuses(ctx context.Context) (map[string]wire.ReplicaStatusReport, error) {
	reps, _, err := round(ctx, c, wire.ReplicaStatusRequest{}, func() map[string]report[wire.ReplicaStatusReport] { return c.replicas })
	return reps, err
}

// States polls every alive peer's protocol state.
func (c *Coordinator) States(ctx context.Context) (map[string]wire.StateReport, error) {
	states, _, err := round(ctx, c, wire.StateRequest{}, func() map[string]report[wire.StateReport] { return c.states })
	return states, err
}

// protocolTotals sums the peers' sent/received counters, excluding the
// control-plane kinds: the polling itself must not look like traffic, and
// replies flowing to the counter-less coordinator must not register as a
// permanent deficit.
func protocolTotals(snaps map[string]stats.Snapshot) (sent, recv uint64) {
	ctl := wire.ControlKinds()
	for _, s := range snaps {
		for kind, n := range s.MsgsSent {
			if !ctl[kind] {
				sent += n
			}
		}
		for kind, n := range s.MsgsReceived {
			if !ctl[kind] {
				recv += n
			}
		}
	}
	return sent, recv
}

// Quiesce blocks until the database network has settled, judged purely by
// protocol-visible signals: the protocol counter sums across all alive peers
// must hold still for several consecutive complete rounds — longer when the
// sent/received totals do not balance, since in-flight and lost messages are
// indistinguishable from outside (see core.Network.Quiesce's polling
// fallback, of which this is the cross-process form).
func (c *Coordinator) Quiesce(ctx context.Context) error {
	var last [2]uint64
	stable := 0
	first := true
	for {
		snaps, complete, err := round(ctx, c, wire.StatsRequest{}, func() map[string]report[stats.Snapshot] { return c.stats })
		if err != nil {
			return err
		}
		sent, recv := protocolTotals(snaps)
		cur := [2]uint64{sent, recv}
		if complete && !first && cur == last {
			stable++
			need := c.opts.Settle
			if sent != recv {
				need = c.opts.SettleDeficit
			}
			if stable >= need {
				return nil
			}
		} else {
			stable = 0
		}
		last, first = cur, false
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(c.opts.PollEvery):
		}
	}
}

// Discover kicks a topology-discovery wave — at the super-peer when it is
// alive, else at the next live member — and returns at quiescence (every
// reached node then knows its maximal dependency paths; participants
// self-discover lazily, as in the in-process runs).
func (c *Coordinator) Discover(ctx context.Context) error {
	target, err := c.kickTarget(c.Super())
	if err != nil {
		return err
	}
	if err := c.tr.Send(c.opts.Name, target, wire.DiscoverRequest{}); err != nil {
		return fmt.Errorf("cluster: discover kick-off: %w", err)
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

// Update runs the global update to completion: kick the wave at the
// super-peer, wait for quiescence, and verify closure through state polling.
// If the network went quiescent with open nodes (a race swallowed a
// confirming cascade — or a message died with a process), closure probes ask
// the open nodes to re-issue their queries, each probe at fix-point cost.
func (c *Coordinator) Update(ctx context.Context) error {
	// Pin the epoch before kicking: with the replicated control plane the
	// kick lands asynchronously (request → agreed log entry → elected driver
	// starts the wave), so quiescence must not be declared against the
	// still-settled counters of the PREVIOUS epoch. Waiting for the epoch to
	// advance closes that window; the pre-consensus path advances it
	// synchronously, so the wait is immediate there.
	before, _, err := round(ctx, c, wire.StateRequest{}, func() map[string]report[wire.StateReport] { return c.states })
	if err != nil {
		return err
	}
	epoch0 := maxEpoch(before)
	// Kick, then verify the kick LANDED by watching the epoch advance. A
	// kick can be swallowed whole — the target crashed right after the send,
	// or the elected driver sits in a partition — and declaring success by
	// polling an already-settled network at the old epoch would report an
	// update that never ran. A deadline without an epoch bump retries the
	// kick against the next live member; only exhausting the attempt budget
	// with the epoch still pinned is an error.
	kicked := false
	var tried []string
	for attempt := 0; !kicked; attempt++ {
		alive := c.alivePeers()
		sort.Strings(alive)
		if len(alive) == 0 {
			return fmt.Errorf("cluster: no alive member to kick the update")
		}
		// Preferred member first, then rotate through the others on retries.
		if super := c.Super(); super != "" {
			for i, p := range alive {
				if p == super {
					alive[0], alive[i] = alive[i], alive[0]
					break
				}
			}
		}
		target := alive[attempt%len(alive)]
		tried = append(tried, target)
		if err := c.tr.Send(c.opts.Name, target, wire.UpdateRequest{}); err != nil {
			return fmt.Errorf("cluster: update kick-off: %w", err)
		}
		kickDeadline := time.Now().Add(c.opts.RoundTimeout)
		for !kicked {
			states, _, err := round(ctx, c, wire.StateRequest{}, func() map[string]report[wire.StateReport] { return c.states })
			if err != nil {
				return err
			}
			if maxEpoch(states) > epoch0 {
				kicked = true
				break
			}
			if time.Now().After(kickDeadline) {
				break
			}
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(c.opts.PollEvery):
			}
		}
		if !kicked && attempt+1 >= c.opts.Probes {
			return fmt.Errorf("cluster: update kick never took: epoch still %d after kicking %v", epoch0, tried)
		}
	}
	for attempt := 0; ; attempt++ {
		if err := c.Quiesce(ctx); err != nil {
			return err
		}
		states, complete, err := round(ctx, c, wire.StateRequest{}, func() map[string]report[wire.StateReport] { return c.states })
		if err != nil {
			return err
		}
		if !complete {
			// A peer's state never arrived: absence must not read as
			// closure. Retry (bounded by the probe budget).
			if attempt >= c.opts.Probes {
				return fmt.Errorf("cluster: state round incomplete after %d attempts (members %v)", attempt, c.tr.Members())
			}
			continue
		}
		var open []string
		for node, st := range states {
			if st.Activated && !st.Closed {
				open = append(open, node)
			}
		}
		if len(open) == 0 {
			return nil
		}
		sort.Strings(open)
		if attempt >= c.opts.Probes {
			return fmt.Errorf("cluster: %d node(s) still open after %d closure probes: %v", len(open), c.opts.Probes, open)
		}
		for _, node := range open {
			_ = c.tr.Send(c.opts.Name, node, wire.ProbeRequest{})
		}
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
	case <-time.After(c.opts.RoundTimeout):
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
	target, err := c.kickTarget(r.HeadNode)
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
	target, err := c.kickTarget(headNode)
	if err != nil {
		return err
	}
	return c.tr.Send(c.opts.Name, target, wire.DeleteRuleNotice{RuleID: ruleID})
}
