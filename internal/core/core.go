// Package core orchestrates a P2P database network: it builds peers from a
// network description, runs the two phases of the distributed algorithm
// (topology discovery, then the database update) to completion, answers
// local and query-dependent-update queries, applies dynamic changes, and
// collects statistics. It is the paper's primary contribution assembled into
// a runnable system: the peers execute the protocol; core only starts
// waves, waits for quiescence/closure, and exposes inspection.
package core

import (
	"context"
	"fmt"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/baseline"
	"repro/internal/peer"
	"repro/internal/relalg"
	"repro/internal/rules"
	"repro/internal/stats"
	"repro/internal/storage"
	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/wal"
	"repro/internal/wire"
)

// Options configures a network run.
type Options struct {
	// Seed drives deterministic delay injection.
	Seed int64
	// MaxDelay, when positive, delays message delivery pseudo-randomly (the
	// asynchronous model's adversarial scheduling).
	MaxDelay time.Duration
	// Synchronous switches the built-in router to BSP rounds (the paper's
	// "synchronous alternative"), which Quiesce steps.
	Synchronous bool
	// Delta enables the delta optimisation on all peers (semi-naive
	// re-answers from per-subscription marks; see peer.Options.Delta). Off is
	// the paper's faithful mode, the reference the oracles compare against.
	Delta bool
	// InsertMode selects exact or core insertion.
	InsertMode storage.InsertMode
	// MaxNullDepth bounds existential invention (0 = default).
	MaxNullDepth int
	// Transport, when set, carries all protocol messages and the network
	// takes ownership of it (Close closes it). When nil, Build constructs an
	// in-memory router from Seed/MaxDelay/Synchronous, which configure only
	// that router. Every transport settles by the same rule, the peers'
	// counter balance (Quiesce); one implementing transport.Stepper is
	// stepped first, and one implementing transport.FaultInjector is what
	// Faults returns.
	Transport transport.Transport
	// Recorder, when set, records all protocol sends for sequence charts.
	Recorder *trace.Recorder
	// DataDir, when set, makes the network durable: every node opens a
	// log-structured store under DataDir/<node> (see internal/wal), inserts
	// are logged as they commit, and a rebuilt network recovers each node's
	// relations, epoch, subscriptions and part results from disk. The
	// persisted subscription marks are the durability-confirmed frontiers of
	// the acknowledgment handshake (dependents confirm each answer's
	// sequence range with wire.AnswerAck; only acks sent after the
	// dependent's store synced carry the Durable flag that lets a frontier
	// be persisted), so with Delta BOTH clean and crash restarts re-answer
	// delta-only: the re-send after a crash is exactly the unconfirmed
	// suffix, which receivers deduplicate. Under wal.FsyncNever routine
	// appends skip fsync but acks still gate on a group-commit sync point
	// (wal.Store.SyncPoint), so crash restarts are delta-only there too;
	// without the handshake (Delta off) crash restarts drop the
	// subscriptions entirely. Empty DataDir keeps the network purely
	// in-memory.
	DataDir string
	// Fsync selects the stores' durability policy (wal.FsyncInterval
	// default; see wal.FsyncPolicy). Ignored without DataDir.
	Fsync wal.FsyncPolicy
	// ResendEvery, when positive, starts a per-peer background loop that
	// re-ships unacknowledged subscription deltas from the acked frontier
	// (see peer.Options.ResendEvery). Deployments (cmd/p2pdb serve) enable
	// it so a delta lost to a dead or unreachable member ships again without
	// waiting for the next epoch; deterministic in-process runs leave it 0.
	// Build rejects it without Delta: the resend loop re-ships from acked
	// frontiers, which only exist there, so a misconfigured deployment fails
	// loudly instead of silently never re-sending.
	ResendEvery time.Duration
	// BatchWindow, when positive, wraps the transport in a Batcher
	// (transport.NewBatcher): Answers and AnswerAcks bound for the same peer
	// coalesce into wire.AnswerBatch frames, and pending acks piggyback on
	// the next outgoing frame instead of paying their own — the batched,
	// ack-piggybacked wire protocol. The window is the longest hold: a
	// message to a quiet peer leaves at once, one that finds the link busy
	// waits at most this long. Zero sends every message as its own frame.
	// Ignored in Synchronous mode, whose BSP stepping needs every send
	// delivered by the next round.
	BatchWindow time.Duration
	// Hosted, when non-empty, restricts the network to hosting only the named
	// nodes of the definition: only their peers are built, seeded and (with
	// DataDir) given durable stores, while the full definition still
	// validates and supplies the rule topology. This is the multi-process
	// deployment mode (internal/cluster, cmd/p2pdb serve): each OS process
	// hosts one peer over a shared transport that routes the remaining node
	// names to other processes. Orchestration methods only see the hosted
	// peers — Quiesce polls their counters alone and Discover/Update require
	// the super-peer to be hosted — so cluster-wide orchestration belongs to
	// a coordinator speaking the wire control verbs. Empty hosts every node,
	// as before.
	Hosted []string
}

// Network is a running P2P database network over any transport.
type Network struct {
	defMu   sync.Mutex // guards def (Broadcast replaces it, Insert appends facts)
	def     *rules.Network
	tr      transport.Transport // what peers send through (the Batcher when batching)
	batcher *transport.Batcher  // non-nil when Options.BatchWindow wrapped the transport
	peers   map[string]*peer.Peer
	stores  map[string]*wal.Store // durable backends (nil entries when DataDir unset)
	order   []string
	super   string
	opts    Options

	inflight    *stats.Tally  // every hosted peer's counters joined: Quiesce's wake
	probeRounds atomic.Uint64 // closure-probe rounds the updates needed (see ProbeRounds)
	closed      atomic.Bool   // Close or Crash ran: Quiesce returns transport.ErrClosed
}

// Build constructs peers, pipes and seed data from a network description.
// With Options.Transport unset the network runs over the in-memory router;
// any transport.Transport works, and every one settles by the peers'
// counters.
func Build(def *rules.Network, opts Options) (*Network, error) {
	if err := def.Validate(); err != nil {
		if opts.Transport != nil {
			_ = opts.Transport.Close() // ownership starts at the call, not at success
		}
		return nil, err
	}
	if opts.ResendEvery > 0 && !opts.Delta {
		if opts.Transport != nil {
			_ = opts.Transport.Close()
		}
		return nil, fmt.Errorf("core: ResendEvery requires Delta (the resend loop re-ships unacknowledged deltas from the acked frontiers, which only delta mode maintains)")
	}
	tr := opts.Transport
	if tr == nil {
		tr = transport.NewMem(transport.MemOptions{
			Seed:        opts.Seed,
			MaxDelay:    opts.MaxDelay,
			Synchronous: opts.Synchronous,
		})
	}
	var batcher *transport.Batcher
	if opts.BatchWindow > 0 && !opts.Synchronous {
		// The batched wire protocol: peers send through the Batcher, which
		// coalesces Answers and piggybacks acks per destination. Capability
		// asserts (stepping, faults) go to the inner transport —
		// see capTransport. Synchronous mode is exempt: BSP rounds require
		// every send buffered for the NEXT Step, not held in a side buffer
		// the stepper cannot see.
		batcher = transport.NewBatcher(tr, transport.BatcherOptions{Window: opts.BatchWindow})
		tr = batcher
	}
	n := &Network{def: def, tr: tr, batcher: batcher, peers: map[string]*peer.Peer{}, stores: map[string]*wal.Store{}, opts: opts, inflight: stats.NewTally()}

	// Hosted-subset mode: build only the named peers; everything else in the
	// definition is a remote node reached through the transport.
	hosted := map[string]bool{}
	for _, name := range opts.Hosted {
		if _, ok := def.Node(name); !ok {
			tr.Close()
			return nil, fmt.Errorf("core: hosted node %q not in the definition", name)
		}
		hosted[name] = true
	}
	isHosted := func(name string) bool { return len(hosted) == 0 || hosted[name] }

	// Durable backends: one store per node, opened before the peers so the
	// recovered epochs can be aligned (each node persists its own; the
	// maximum becomes everyone's restart epoch, keeping the next update wave
	// strictly newer than anything in flight before the shutdown).
	recovered := map[string]*wal.Recovered{}
	// A failed Build abandons the stores with Abort, never Close: Close
	// would append a clean-close record carrying the recovered state, which
	// after a crash would launder the very marks recovery had distrusted
	// back into trusted ones.
	closeStores := func() {
		for _, st := range n.stores {
			st.Abort()
		}
	}
	var restartEpoch uint64
	cleanRestart := true
	if opts.DataDir != "" {
		for _, decl := range def.Nodes {
			if !isHosted(decl.Name) {
				continue
			}
			st, rec, err := wal.Open(filepath.Join(opts.DataDir, decl.Name), wal.Options{Fsync: opts.Fsync})
			if err != nil {
				closeStores()
				tr.Close()
				return nil, fmt.Errorf("core: open store for %s: %w", decl.Name, err)
			}
			n.stores[decl.Name] = st
			recovered[decl.Name] = rec
			if !rec.Clean {
				cleanRestart = false
			}
			if rec.State.Epoch > restartEpoch {
				restartEpoch = rec.State.Epoch
			}
		}
	}

	byNode := wiring(def)
	for _, decl := range def.Nodes {
		if !isHosted(decl.Name) {
			continue
		}
		var db *storage.DB
		var restore *wal.State
		if rec := recovered[decl.Name]; rec != nil {
			db = rec.DB
			state := rec.State
			state.Epoch = restartEpoch
			// With Delta the acknowledgment handshake is in force: persisted
			// marks are durability-confirmed frontiers and stay trusted after
			// a crash under ANY fsync policy — the gating happens at write
			// time, not restore time: only acks from dependents that synced
			// first (AnswerAck.Durable) ever advance the persisted frontier,
			// clean closes promote receipt-confirmed frontiers only while
			// sealing every store, and peers clamp a frontier to their
			// recovered relation seqs on restore. Without the handshake a
			// crash anywhere may have lost answers in flight to anyone, so
			// the marks are dropped and sources re-answer in full.
			if !cleanRestart && !opts.Delta {
				state.Subs = nil
			}
			restore = &state
		}
		st := n.stores[decl.Name]
		p, err := n.newPeer(decl, byNode[decl.Name], db, st, restore)
		if err != nil {
			closeStores()
			tr.Close()
			return nil, err
		}
		if st != nil {
			st.Attach(p.DB())
		}
		n.peers[decl.Name] = p
		n.order = append(n.order, decl.Name)
	}
	sort.Strings(n.order)

	for _, f := range def.Facts {
		if !isHosted(f.Node) {
			continue
		}
		if err := n.peers[f.Node].Seed(f.Rel, f.Tuple); err != nil {
			closeStores()
			tr.Close()
			return nil, err
		}
	}
	n.super = def.Super
	if n.super == "" && len(n.order) > 0 {
		n.super = n.order[0]
	}
	return n, nil
}

// nodeWires is what the rule set says about one node: the rules it is the head
// of, and its pipe acquaintances — pipes exist in both rule directions
// (Section 5 of the paper).
type nodeWires struct {
	head      []rules.Rule
	neighbors []string
}

// wiring indexes a definition's rules by node in one pass.
func wiring(def *rules.Network) map[string]nodeWires {
	out := map[string]nodeWires{}
	for _, r := range def.Rules {
		h := out[r.HeadNode]
		h.head = append(h.head, r)
		for _, src := range r.SourceNodes() {
			h.neighbors = append(h.neighbors, src)
			s := out[src]
			s.neighbors = append(s.neighbors, r.HeadNode)
			out[src] = s
		}
		out[r.HeadNode] = h
	}
	return out
}

// newPeer is the one peer construction recipe, shared by Build (a node's
// original home) and Adopt (a re-homed node): the network's options, the
// acknowledgment durability hooks over the node's store (nil without
// DataDir), and the node's rules and pipe acquaintances — only the local end
// of a pipe is wired; a remote end is wired by the process hosting it. db and
// restore carry recovered or mirrored state (nil: the peer starts empty). The
// caller installs the peer in the tables.
func (n *Network) newPeer(decl rules.NodeDecl, w nodeWires, db *storage.DB, st *wal.Store, restore *wal.State) (*peer.Peer, error) {
	pOpts := peer.Options{
		Delta:        n.opts.Delta,
		InsertMode:   n.opts.InsertMode,
		MaxNullDepth: n.opts.MaxNullDepth,
		Maps:         n.def.MapSet(),
		Recorder:     n.opts.Recorder,
		ResendEvery:  n.opts.ResendEvery,
		DB:           db,
		Restore:      restore,
	}
	if st != nil {
		// Part tuples are logged before the ack, the store syncs before the
		// ack leaves, and an advanced frontier is appended as a marks record.
		// Under FsyncNever the per-record fsyncs stay off, but acks still
		// gate on a group-commit sync point (many acks amortise one fsync),
		// so crash restarts trust the recovered marks in every policy.
		pOpts.PersistParts = func(pd wal.PartState) { _ = st.AppendParts(pd) }
		pOpts.PersistMarks = func() { _ = st.SaveMarks() }
		if n.opts.Fsync != wal.FsyncNever {
			pOpts.SyncForAck = st.Sync
		} else {
			pOpts.SyncForAck = st.SyncPoint
		}
	}
	p, err := peer.New(decl.Name, decl.Schemas, w.head, n.tr, pOpts)
	if err != nil {
		return nil, err
	}
	p.Counters().Join(n.inflight)
	if st != nil {
		st.SetStateSource(p.DurableState)
		st.SetMarksSource(p.DurableSubs)
	}
	for _, nb := range w.neighbors {
		p.AddNeighbor(nb)
	}
	return p, nil
}

// BuildWith is Build over an explicit transport (the network takes
// ownership: Close closes it).
func BuildWith(def *rules.Network, tr transport.Transport, opts Options) (*Network, error) {
	opts.Transport = tr
	return Build(def, opts)
}

// Close shuts the network down: every live watcher is closed (their channels
// drain and close), the transport is released, and every durable store
// flushes its tail, appends a clean-close state record (epoch, subscription
// marks, part results) and seals — so a rebuilt network resumes its standing
// subscriptions delta-only. Call Quiesce first when data may still be in
// flight: marks written at Close cover everything evaluated and sent, and a
// quiescent network is what guarantees all of it was also received.
func (n *Network) Close() error {
	n.closed.Store(true)
	peers, stores, order := n.hosted()
	for _, p := range peers {
		p.CloseWatchers()
	}
	err := n.tr.Close()
	for _, id := range order {
		if st := stores[id]; st != nil {
			// Clean close: receipt-confirmed frontiers become durability
			// grade (the network-wide close seals every dependent's store,
			// making received data durable) before the state is captured.
			// Crash() deliberately skips this promotion.
			peers[id].SealFrontiers()
			if cerr := st.Close(); cerr != nil && err == nil {
				err = cerr
			}
		}
	}
	return err
}

// Crash simulates power loss for durability tests: watchers close, the
// transport drops, and every durable store is abandoned mid-flight — no
// clean-close record, unflushed records lost — exactly the state a killed
// process leaves on disk. A subsequent Build with the same DataDir exercises
// crash recovery. On an in-memory network it behaves like Close.
func (n *Network) Crash() error {
	n.closed.Store(true)
	peers, stores, order := n.hosted()
	for _, p := range peers {
		p.CloseWatchers()
	}
	err := n.tr.Close()
	for _, id := range order {
		if st := stores[id]; st != nil {
			st.Abort()
		}
	}
	return err
}

// Super returns the super-peer's node name.
func (n *Network) Super() string { return n.super }

// Peer returns a peer by name (nil if absent).
func (n *Network) Peer(id string) *peer.Peer {
	peers, _, _ := n.hosted()
	return peers[id]
}

// Store returns a hosted node's durable store (nil without Options.DataDir
// or for a node this process does not host). Exposed for observability: the
// serve metrics endpoint reports each store's appended-record high water.
func (n *Network) Store(id string) *wal.Store {
	_, stores, _ := n.hosted()
	return stores[id]
}

// Nodes returns all node names this process hosts, sorted.
func (n *Network) Nodes() []string {
	_, _, order := n.hosted()
	return append([]string(nil), order...)
}

// Transport exposes the transport carrying the network's messages (the
// Batcher when Options.BatchWindow wrapped one around the base transport).
func (n *Network) Transport() transport.Transport { return n.tr }

// capTransport is where transport capabilities are asserted: the base
// transport under any Batcher wrapper. The Batcher is a send-side buffer —
// BSP stepping and fault injection live underneath it.
func (n *Network) capTransport() transport.Transport {
	if n.batcher != nil {
		return n.batcher.Inner()
	}
	return n.tr
}

// BatchStats reports the Batcher's frame accounting; ok is false when the
// network runs unbatched (Options.BatchWindow zero or Synchronous).
func (n *Network) BatchStats() (transport.BatchStats, bool) {
	if n.batcher == nil {
		return transport.BatchStats{}, false
	}
	return n.batcher.Stats(), true
}

// Faults returns the transport's fault-injection capability (partitions,
// drop counters), or nil when the transport has none.
func (n *Network) Faults() transport.FaultInjector {
	f, _ := n.capTransport().(transport.FaultInjector)
	return f
}

// Quiesce waits until the network has settled. On every transport it judges
// that as a deployment must (the paper's JXTA situation): from the peers'
// message counters, which balance when nothing is in flight. One balanced
// sample (readBalance) is exact on a fully hosted network, so the first ends
// the wait. It is taken when the hosted peers' in-flight tally comes back to
// zero, or 20 ms after the last sample, whichever is first. A Stepper
// transport delivers only when stepped, so each sample first steps it until
// nothing is scheduled (checking ctx between steps): a durable peer's ack
// worker may send after a round has returned, and the next sample delivers
// that. Totals that do not balance are messages in flight — or lost to a dead
// peer, which counters cannot tell apart: such a sample ends the wait only
// after standing still for about a second, and so does every sample of a
// network with a node hosted elsewhere, whose counters are not in the sums.
// After Close or Crash it returns transport.ErrClosed at the next sample.
func (n *Network) Quiesce(ctx context.Context) error {
	st, _ := n.capTransport().(transport.Stepper)
	return AwaitBalance(ctx, 20*time.Millisecond, n.inflight.Zero(), 50, func(ctx context.Context) (Balance, bool, error) {
		if n.closed.Load() {
			return Balance{}, false, transport.ErrClosed
		}
		for st != nil && ctx.Err() == nil && st.Step() > 0 {
		}
		n.defMu.Lock()
		peers, order, all := n.peers, n.order, len(n.def.Nodes)
		n.defMu.Unlock()
		b := readBalance(len(order), func(i int) (uint64, uint64) {
			return peers[order[i]].Counters().Totals()
		})
		b.Exact = len(order) == all
		return b, true, nil
	})
}

// Discover runs phase one: the super-peer starts topology discovery (every
// participating node lazily discovers for itself too) and the call returns
// at quiescence, when every reached node knows its maximal dependency paths.
func (n *Network) Discover(ctx context.Context) error {
	sp := n.Peer(n.super)
	if sp == nil {
		return fmt.Errorf("core: super-peer %q not in network", n.super)
	}
	sp.StartDiscovery()
	return n.Quiesce(ctx)
}

// Update runs phase two to completion: the super-peer floods the update
// kick-off; the call returns once the network is quiescent and every node
// reports state_u = closed (DriveUpdate). Nodes close by themselves; a wave
// that settles with nodes open is probed, counted in ProbeRounds, and — past
// the budget — reported with what each open node was waiting on.
func (n *Network) Update(ctx context.Context) error {
	sp := n.Peer(n.super)
	if sp == nil {
		return fmt.Errorf("core: super-peer %q not in network", n.super)
	}
	return n.drive(ctx, localWave{kick: func() { sp.StartUpdateWave() }})
}

// OpenPeers returns the activated nodes that have not reached state closed,
// sorted. Nodes the kick-off flood never reached (other weakly connected
// components) are not counted: the wave covers its own component, as in the
// paper.
func (n *Network) OpenPeers() []string {
	open, _, _ := localWave{n: n}.Open(context.Background())
	var out []string
	for _, on := range open {
		out = append(out, on.Name)
	}
	return out
}

// AllClosed reports whether every activated node reached its fix-point.
func (n *Network) AllClosed() bool { return len(n.OpenPeers()) == 0 }

// LocalQuery evaluates a query body at a node against its local database
// only (Definition 4; sound and complete globally once Update finished).
func (n *Network) LocalQuery(node, body string, outVars []string) ([]relalg.Tuple, error) {
	p := n.Peer(node)
	if p == nil {
		return nil, fmt.Errorf("core: unknown node %q", node)
	}
	return p.LocalQuery(body, outVars)
}

// QueryDependentUpdate runs a scoped update wave materialising only the data
// relevant to the query, waits for quiescence, and evaluates locally
// (Section 5's query-dependent updates / distributed query answering).
func (n *Network) QueryDependentUpdate(ctx context.Context, node, body string, outVars []string) ([]relalg.Tuple, error) {
	p := n.Peer(node)
	if p == nil {
		return nil, fmt.Errorf("core: unknown node %q", node)
	}
	if err := p.QueryDependentUpdate(body); err != nil {
		return nil, err
	}
	if err := n.Quiesce(ctx); err != nil {
		return nil, err
	}
	return p.LocalQuery(body, outVars)
}

// AddLink applies the addLink(i,j,rule,id) atomic change: the head node is
// notified (Section 4). The rule text carries all four components.
func (n *Network) AddLink(ruleText string) error {
	r, err := rules.ParseRule(ruleText)
	if err != nil {
		return err
	}
	peers, _, _ := n.hosted()
	p, ok := peers[r.HeadNode]
	if !ok {
		return fmt.Errorf("core: addLink targets unknown node %q", r.HeadNode)
	}
	for _, src := range r.SourceNodes() {
		if _, ok := peers[src]; !ok {
			return fmt.Errorf("core: addLink reads unknown node %q", src)
		}
	}
	return p.AddRuleLocal(ruleText)
}

// DeleteLink applies the deleteLink(i,j,id) atomic change at the head node.
func (n *Network) DeleteLink(headNode, ruleID string) error {
	p := n.Peer(headNode)
	if p == nil {
		return fmt.Errorf("core: deleteLink at unknown node %q", headNode)
	}
	p.DeleteRuleLocal(ruleID)
	return nil
}

// Stats snapshots every node's counters.
func (n *Network) Stats() []stats.Snapshot {
	peers, _, order := n.hosted()
	out := make([]stats.Snapshot, 0, len(order))
	for _, id := range order {
		out = append(out, peers[id].Counters().Snapshot())
	}
	return out
}

// ResetStats zeroes every node's counters.
func (n *Network) ResetStats() {
	peers, _, order := n.hosted()
	for _, id := range order {
		peers[id].Counters().Reset()
	}
}

// Snapshot deep-copies every node's database (for validation).
func (n *Network) Snapshot() map[string]*storage.DB {
	peers, _, _ := n.hosted()
	out := make(map[string]*storage.DB, len(peers))
	for id, p := range peers {
		out[id] = p.DB().Clone()
	}
	return out
}

// ValidateAgainstCentralized compares the network's databases with the
// centralised fix-point of the same definition, returning an error naming
// the first differing node.
func (n *Network) ValidateAgainstCentralized() error {
	n.defMu.Lock()
	cp := *n.def // shallow copy with its own Facts slice: Insert keeps appending
	cp.Facts = append([]rules.Fact(nil), n.def.Facts...)
	n.defMu.Unlock()
	def := &cp
	want, err := baseline.Centralized(def, rules.ApplyOptions{
		Mode:         n.opts.InsertMode,
		MaxNullDepth: n.opts.MaxNullDepth,
	})
	if err != nil {
		return err
	}
	if len(n.opts.Hosted) > 0 {
		// A hosted-subset process can only vouch for its own peers (including
		// adopted ones); remote nodes' databases live in other processes.
		peers, _, _ := n.hosted()
		trimmed := make(map[string]*storage.DB, len(peers))
		for id := range peers {
			trimmed[id] = want.DBs[id]
		}
		want.DBs = trimmed
	}
	got := n.Snapshot()
	if ok, node := baseline.Equal(got, want.DBs); !ok {
		return fmt.Errorf("core: node %s diverges from the centralised fix-point:\n got: %s\nwant: %s",
			node, got[node].Dump(), want.DBs[node].Dump())
	}
	return nil
}

// RunToFixpoint is the end-to-end convenience used by examples and
// benchmarks: discovery, then update, then validation hooks are up to the
// caller.
func (n *Network) RunToFixpoint(ctx context.Context) error {
	if err := n.Discover(ctx); err != nil {
		return err
	}
	return n.Update(ctx)
}

// Broadcast sends a network-description file from the super-peer to every
// peer (Section 5: the super-peer "can read coordination rules for all peers
// from a file and broadcast this file to all peers on the network", changing
// the topology at runtime). Peers adopt the rules and schemas relevant to
// them and re-discover; seed facts in the broadcast text are ignored by
// running peers (their databases persist). The network definition used by
// ValidateAgainstCentralized and UpdateStaged is replaced accordingly, with
// the original seed facts retained.
func (n *Network) Broadcast(text string) error {
	def, err := rules.ParseNetwork(text)
	if err != nil {
		return err
	}
	peers, _, order := n.hosted()
	sp, ok := peers[n.super]
	if !ok {
		return fmt.Errorf("core: super-peer %q not in network", n.super)
	}
	n.defMu.Lock()
	def.Facts = n.def.Facts // databases are not reseeded; keep the originals
	n.def = def
	n.defMu.Unlock()
	for _, id := range order {
		if err := sp.Send(id, wire.SetNetwork{Text: text}); err != nil {
			return err
		}
	}
	return nil
}

// CollectStats gathers every peer's statistics snapshot through the wire
// (StatsRequest/StatsReport, the super-peer verbs of Section 5) and returns
// them keyed by node, including the super-peer's own.
func (n *Network) CollectStats(ctx context.Context) (map[string]stats.Snapshot, error) {
	peers, _, order := n.hosted()
	sp, ok := peers[n.super]
	if !ok {
		return nil, fmt.Errorf("core: super-peer %q not in network", n.super)
	}
	for _, id := range order {
		if id == n.super {
			continue
		}
		if err := sp.Send(id, wire.StatsRequest{}); err != nil {
			return nil, err
		}
	}
	if err := n.Quiesce(ctx); err != nil {
		return nil, err
	}
	out := sp.StatsReports()
	out[n.super] = sp.Counters().Snapshot()
	return out, nil
}
