// Package peer implements the peer runtime of the distributed algorithm: the
// topology-discovery state machine (algorithms A1–A3 of the paper), the
// database-update state machine (A4–A6), local query answering, and the
// control verbs of Sections 4 and 5 (dynamic rule changes, super-peer rule
// broadcast, statistics collection).
//
// A Peer corresponds to one node of the P2P system: a local database with a
// shared schema, the set of coordination rules of which the node is the
// target, and the protocol state. Transports invoke Handle from a single
// goroutine per peer (actor discipline); the internal mutex additionally
// protects the public inspection API used by orchestration and tests.
//
// The paper's owner relation — a source re-answers every subscriber when its
// data changes — is kept as a table of the distinct questions asked, with the
// subscriptions pointing into it: per-question work (parse, validate,
// evaluate a delta) is done once per change, not once per subscriber.
package peer

import (
	"fmt"
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
	// ResendEvery, when positive, starts a background loop re-answering
	// subscriptions whose shipped frontier stayed unacknowledged for a full
	// tick: the re-answer rewinds to the acked frontier, so a delta lost to a
	// transport error or a dead dependent ships again. Retries per stalled
	// frontier are bounded (an explicit trigger — acknowledgment progress,
	// member rejoin, a new epoch — resets the budget), so a permanently dead
	// dependent cannot keep the network chattering forever. Only meaningful
	// with Delta (the marks it rewinds exist only there); zero disables the
	// loop (deterministic in-process runs rely on epoch-bump re-pulls instead).
	ResendEvery time.Duration
}

// question is what subscriptions ask: a rule body part and the columns it is
// projected on. A certain answer is a function of the source's data and the
// question alone, never of who asked, so a peer keeps one question per
// distinct (conjunction text, column list), parsed and validated once, when
// it enters the table; it leaves with its last subscription. In-tree senders
// render the text with Conjunction.String, so text identity is canonical
// identity; a differently spelled equal conjunction is merely another
// question, whose subscriber re-primes.
//
// last is the latest evaluation: of the delta between the frontiers base and
// next, or (nil base) of the whole relations as they stood at next. Both are
// pure functions of append-only logs, so nothing is ever invalidated:
// comparing a subscription's marks with base and the relations' with next IS
// the validity check (fits), and a rewound subscription simply fails it and
// evaluates from its own frontier. The tuples are read-only for every holder:
// Batcher, codec and, over Mem, the receivers themselves
// (DomainMap.TranslateTuples copies when it maps).
//
// Retention: inside one push the sharing is unconditional; across dispatches
// an evaluation is kept only while the node is open (a clique's three primes
// of one question arrive in three dispatches): closing drops them all, and a
// closed node that evaluates drops them when done. Kept unconditionally they
// pinned every tree leaf's prime result: dblp-mem heap_mb 55.84 → 58.24,
// +4.3 % against a 5 % bound.
type question struct {
	key  string // conjunction text + columns: the table key
	conj cq.Conjunction
	cols []string
	rels []string // the distinct relations conj reads, in body order
	subs int      // subscriptions pointing here
	last *evaluation
}

type evaluation struct {
	base, next storage.Marks
	tuples     []relalg.Tuple
}

// fits reports whether the held evaluation answers a subscription standing at
// marks (nil: unprimed, it wants the full result) with the relations at now.
func (q *question) fits(marks, now storage.Marks) bool {
	e := q.last
	if e == nil || (marks == nil) != (e.base == nil) {
		return false
	}
	for _, rel := range q.rels {
		if e.base[rel] != marks[rel] || e.next[rel] != now[rel] {
			return false
		}
	}
	return true
}

// questionLocked returns the table's question for a conjunction text and
// column list, or a fresh one on a miss (subscribeLocked enters it). One that
// cannot be evaluated — unparsable, or an output column no atom binds, which
// every cq.Eval rejects — is an error, not a subscription that silently ships
// nothing. Callers hold mu.
func (p *Peer) questionLocked(text string, cols []string) (*question, error) {
	key := text + "\x00" + strings.Join(cols, "\x00")
	if q, ok := p.questions[key]; ok {
		return q, nil
	}
	conj, err := cq.ParseConjunction(text)
	if err == nil {
		// Over no data only the slot resolution runs: range restriction.
		_, err = cq.Eval(cq.MapSource(nil), conj, cols)
	}
	if err != nil {
		return nil, err
	}
	q := &question{key: key, conj: conj, cols: cols}
	for _, a := range conj.Atoms {
		if !slices.Contains(q.rels, a.Rel) {
			q.rels = append(q.rels, a.Rel)
		}
	}
	return q, nil
}

// subscribeLocked installs a subscription (over the one it replaces) and
// unsubscribeLocked removes one; the table holds exactly the questions asked.
func (p *Peer) subscribeLocked(sub *subscription) {
	sub.q.subs++
	p.questions[sub.q.key] = sub.q
	key := subKey(sub.dependent, sub.ruleID)
	p.unsubscribeLocked(key)
	p.subs[key] = sub
}

func (p *Peer) unsubscribeLocked(key string) {
	if sub, ok := p.subs[key]; ok {
		delete(p.subs, key)
		if sub.q.subs--; sub.q.subs == 0 {
			delete(p.questions, sub.q.key)
		}
	}
}

// dropIfClosedLocked is the retention rule: a closed node keeps no evaluation
// past the push that made it. Callers hold mu.
func (p *Peer) dropIfClosedLocked() {
	if p.stateU != Closed {
		return
	}
	for _, q := range p.questions {
		q.last = nil
	}
}

// subscription is the source-side registration created by a Query: one edge
// of the paper's owner relation, from a dependent's rule to the question it
// asks. The source re-answers its subscribers whenever its data changes (A5),
// evaluating each question once per change however many ask it.
//
// In delta mode st is what the dependent holds: evaluations ship on it,
// AnswerAcks carrying this subscription's id acknowledge on it. Live
// retransmission (timeouts, same-incarnation epoch bumps) rewinds to the
// received frontier; persistence, recovery, and re-sends to a
// possibly-restarted dependent (member rejoin, incarnation change) use the
// durable one.
type subscription struct {
	dependent string
	ruleID    string
	id        uint64 // instance id echoed by AnswerAck (stale-ack guard)
	epoch     uint64
	q         *question
	st        *storage.Stream // delta mode only (nil in faithful mode)
	primed    bool            // full evaluation done; st's shipped frontier is authoritative

	lastInc     uint64    // dependent incarnation of the last carried query
	lastSent    time.Time // last answer carrying a frontier
	resendTries int       // bounded retransmit budget for the current stalled frontier
}

// pendingAck is an acknowledgment owed for an answer applied under the peer
// mutex; it is sent after the mutex is released (and after the durability
// hooks ran), so an fsync never blocks the actor.
type pendingAck struct {
	to  string
	msg wire.AnswerAck
}

// ackWork is one Handle's acknowledgment side effects, handed to the ack
// worker (durable peers) so the pre-ack fsync pipelines with the actor
// instead of serialising behind it; cause is counted received after them.
type ackWork struct {
	cause wire.Envelope
	parts []wal.PartState
	acks  []pendingAck
	dirty bool
}

func (w ackWork) empty() bool { return len(w.parts) == 0 && len(w.acks) == 0 && !w.dirty }

// partResult accumulates the result set received for one body part of a
// multi-source rule: the head node joins a new answer against the other
// parts' history. A rule with one source keeps none (see handleAnswer).
type partResult struct {
	cols   []string
	tuples relalg.TupleSet
}

// discWave is the per-wave discovery state (A2–A3): the spanning-tree echo
// bookkeeping for one origin's discovery run.
type discWave struct {
	parent     string          // "" when this peer is the wave origin
	requesters map[string]bool // everyone awaiting answers for this wave
	pendingSrc map[string]bool // rule sources whose branch has not finished
	finished   bool
}

// Peer is one node of the P2P database network.
type Peer struct {
	id  string
	inc uint64 // incarnation nonce: fresh per process lifetime (stamped on queries)
	db  *storage.DB
	tr  transport.Transport
	ct  *stats.Counters

	mu   sync.Mutex
	opts Options

	// Static-ish configuration.
	rules     map[string]rules.Rule // rules of which this node is the target
	neighbors map[string]bool       // pipe-level acquaintances (both directions)

	// Topology knowledge: per asserting node, its versioned edge targets.
	knowledge  map[string]wire.NodeEdges
	ownVersion uint64
	waves      map[string]*discWave
	waveSeq    uint64
	selfWave   string // id of this peer's own discovery wave ("" = none yet)
	pathsReady bool
	paths      map[string]bool // maximal dependency path key -> flagged stable
	// cycleVia is derived from paths and rebuilt with it: the key of each path
	// cycling back here -> the source it leaves through ("" under three nodes).
	cycleVia    map[string]string
	discStarted time.Time

	// Update state.
	epoch        uint64
	activated    bool
	forwarded    bool // own queries sent this epoch (delta-mode dedup)
	stateU       UpdateState
	ruleComplete map[string]map[string]bool // ruleID -> part -> sender complete
	parts        map[string]map[string]*partResult
	subs         map[string]*subscription // key dependent+"\x00"+ruleID
	questions    map[string]*question     // what the subscriptions ask, by question.key
	evals        uint64                   // cq evaluations actually run (read by tests)
	subSeq       uint64                   // subscription instance ids (AnswerAck matching)
	started      time.Time

	// Acknowledgment side effects collected under mu during Handle and
	// flushed after it unlocks: part persistence, fsync, the acks themselves,
	// and the durable-frontier persist hook.
	pendingAcks  []pendingAck
	pendingParts []wal.PartState
	ackDirty     bool // an AnswerAck advanced a durable frontier

	// Dynamic-change bookkeeping.
	seenChanges  map[string]bool
	statsReports map[string]stats.Snapshot // super-peer: collected reports

	// Continuous-query fan-out (watch.go, internal/serving): one shared
	// extraction per change serves every watcher. The hub keeps its own
	// registration lock — the database's insert listener wakes it while mu
	// may be held.
	hub *serving.Hub

	// Remote watches served over the wire (remote_watch.go). Guarded by rwmu,
	// not mu: registration runs off the actor goroutine.
	rwmu          sync.Mutex
	remoteWatches map[remoteWatchKey]*remoteWatch

	// Ack-resend loop (Options.ResendEvery): stopped by CloseWatchers.
	resendQuit chan struct{}
	resendOnce sync.Once

	// Pipelined acknowledgment worker (durable peers only): Handle hands its
	// ack side effects over a channel so the group-commit fsync overlaps the
	// actor's next dispatch instead of serialising with it. Guarded by ackMu
	// so an enqueue can never race the close; tw (the transport's WorkTracker
	// capability, when present) accounts queued work toward the quiescence
	// oracle.
	ackCh     chan ackWork
	ackMu     sync.Mutex
	ackClosed bool
	ackOnce   sync.Once
	ackWG     sync.WaitGroup
	tw        transport.WorkTracker
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
	p := &Peer{
		id:           id,
		inc:          uint64(time.Now().UnixNano()),
		db:           db,
		tr:           tr,
		ct:           stats.NewCounters(id),
		opts:         opts,
		rules:        map[string]rules.Rule{},
		neighbors:    map[string]bool{},
		knowledge:    map[string]wire.NodeEdges{},
		waves:        map[string]*discWave{},
		paths:        map[string]bool{},
		ruleComplete: map[string]map[string]bool{},
		parts:        map[string]map[string]*partResult{},
		subs:         map[string]*subscription{},
		questions:    map[string]*question{},
		seenChanges:  map[string]bool{},
		statsReports: map[string]stats.Snapshot{},
	}
	p.hub = serving.NewHub(db, &p.mu)
	p.remoteWatches = map[remoteWatchKey]*remoteWatch{}
	for _, r := range ruleSet {
		if r.HeadNode != id {
			return nil, fmt.Errorf("peer %s: rule %s targets %s", id, r.ID, r.HeadNode)
		}
		p.rules[r.ID] = r
	}
	p.refreshOwnEdges()
	if opts.Restore != nil {
		p.applyRestore(opts.Restore)
	}
	p.db.AddInsertListener(func(rel string, _ relalg.Tuple, _ uint64) { p.notifyWatchers(rel) })
	if opts.ResendEvery > 0 && opts.Delta {
		p.resendQuit = make(chan struct{})
		go p.resendLoop(opts.ResendEvery)
	}
	p.tw, _ = tr.(transport.WorkTracker)
	if opts.SyncForAck != nil {
		// Durable peers pipeline the pre-ack group commit: Handle enqueues,
		// the worker batches whatever accumulated behind one fsync.
		p.ackCh = make(chan ackWork, 256)
		p.ackWG.Add(1)
		go p.ackLoop()
	}
	if err := tr.Register(id, p.Handle); err != nil {
		p.stopResend()
		p.stopAck()
		return nil, err
	}
	return p, nil
}

// applyRestore reloads protocol state persisted by a durable store. It runs
// during construction, before the transport can deliver messages.
func (p *Peer) applyRestore(st *wal.State) {
	p.epoch = st.Epoch
	// Offset the subscription-id namespace by the restart epoch: ids are the
	// AnswerAck stale-instance guard, and a fresh process counting from 1
	// could collide with a previous lifetime's ids — a late ack still queued
	// somewhere (a dependent's outbox) across a fast restart would then
	// advance a frontier it does not describe.
	p.subSeq = st.Epoch << 20
	for _, rs := range st.Subs {
		q, err := p.questionLocked(rs.Conj, append([]string(nil), rs.Cols...))
		if err != nil {
			continue // a subscription that no longer parses is re-created by its owner
		}
		sub := &subscription{dependent: rs.Dependent, ruleID: rs.RuleID, epoch: rs.Epoch, q: q}
		if p.opts.Delta {
			// The persisted marks are the durable frontier.
			sub.st = storage.RestoreStream(rs.Marks, p.db.MarksFor(q.rels))
			sub.primed = rs.Primed
		}
		p.subSeq++
		sub.id = p.subSeq
		p.subscribeLocked(sub)
	}
	for _, rp := range st.Parts {
		r, ok := p.rules[rp.RuleID]
		if !ok || len(r.SourceNodes()) == 1 {
			// The rule was dropped from this node's definition, or it has
			// one source and needs no part history (a DataDir from before
			// single-source rules stopped recording one).
			continue
		}
		byPart := p.parts[rp.RuleID]
		if byPart == nil {
			byPart = map[string]*partResult{}
			p.parts[rp.RuleID] = byPart
		}
		pr := &partResult{cols: append([]string(nil), rp.Cols...)}
		for _, t := range rp.Tuples {
			pr.tuples.Add(t)
		}
		byPart[rp.Part] = pr
	}
}

// durableSubsLocked renders the subscriptions in their durable form, sorted.
// The persisted marks are the DURABILITY-confirmed frontier, not the
// shipped or merely receipt-confirmed ones: a restart may only
// trust what dependents confirmed having on stable storage — everything
// beyond that frontier must ship again. SealFrontiers promotes receipt to
// durability grade at a clean close, where the sealing store makes it so.
// Callers hold mu.
func (p *Peer) durableSubsLocked() []wal.SubState {
	out := make([]wal.SubState, 0, len(p.subs))
	for _, k := range p.subKeysLocked() {
		sub := p.subs[k]
		ss := wal.SubState{
			Dependent: sub.dependent,
			RuleID:    sub.ruleID,
			Epoch:     sub.epoch,
			Conj:      sub.q.conj.String(),
			Cols:      append([]string(nil), sub.q.cols...),
			Primed:    sub.primed,
		}
		if sub.st != nil {
			ss.Marks = sub.st.Frontier(storage.Durable).Clone()
		}
		out = append(out, ss)
	}
	return out
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
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, sub := range p.subs {
		if sub.st != nil {
			sub.st.Seal()
		}
	}
}

// DurableSubs snapshots the subscriptions with their acknowledged frontiers
// (the payload of the store's marks records; see wal.Store.SaveMarks).
func (p *Peer) DurableSubs() []wal.SubState {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.durableSubsLocked()
}

// DurableState snapshots the protocol state a durable store persists beside
// the database: the update epoch, the subscriptions this node serves with
// their acknowledged frontiers, and the accumulated part results of its
// rules. Orchestration wires it as the store's state source, so checkpoints
// and clean closes carry it to disk.
func (p *Peer) DurableState() wal.State {
	p.mu.Lock()
	defer p.mu.Unlock()
	st := wal.State{Epoch: p.epoch}
	st.Subs = p.durableSubsLocked()
	ruleIDs := make([]string, 0, len(p.parts))
	for id := range p.parts {
		ruleIDs = append(ruleIDs, id)
	}
	sort.Strings(ruleIDs)
	for _, id := range ruleIDs {
		partNames := make([]string, 0, len(p.parts[id]))
		for part := range p.parts[id] {
			partNames = append(partNames, part)
		}
		sort.Strings(partNames)
		for _, part := range partNames {
			pr := p.parts[id][part]
			st.Parts = append(st.Parts, wal.PartState{
				RuleID: id,
				Part:   part,
				Cols:   append([]string(nil), pr.cols...),
				Tuples: pr.tuples.All(), // members are never dropped: a stable snapshot
			})
		}
	}
	return st
}

// ID returns the node identifier.
func (p *Peer) ID() string { return p.id }

// DB exposes the local database (reads are safe; writes must go through the
// protocol or seeding helpers).
func (p *Peer) DB() *storage.DB { return p.db }

// Counters exposes the statistics module.
func (p *Peer) Counters() *stats.Counters { return p.ct }

// AddNeighbor records a pipe-level acquaintance (used by the StartUpdate
// flood; the paper's prototype opens pipes in both rule directions).
func (p *Peer) AddNeighbor(n string) {
	p.mu.Lock()
	if n != p.id {
		p.neighbors[n] = true
	}
	p.mu.Unlock()
}

// Seed inserts ground facts into the local database (initial data loading;
// not part of the protocol).
func (p *Peer) Seed(rel string, tuples ...relalg.Tuple) error {
	for _, t := range tuples {
		if _, err := p.db.Insert(rel, t, p.opts.InsertMode); err != nil {
			return err
		}
	}
	return nil
}

// State returns the current update state.
func (p *Peer) State() UpdateState {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stateU
}

// Activated reports whether the peer has joined the current update epoch.
func (p *Peer) Activated() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.activated
}

// Epoch returns the current update epoch.
func (p *Peer) Epoch() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.epoch
}

// PathsReady reports whether the peer's own discovery wave has completed.
func (p *Peer) PathsReady() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.pathsReady
}

// AllMaximalPaths returns the complete set of maximal dependency paths from
// this node (Definitions 6–7) computed over current knowledge, including the
// unconfirmable inner-repeat paths excluded from the closure flag set.
func (p *Peer) AllMaximalPaths() []graph.Path {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.knowledgeGraph().MaximalPaths(p.id)
}

// Paths returns the peer's closure-tracked maximal dependency paths (the
// confirmable subset; see recomputePaths) and their stability flags.
func (p *Peer) Paths() map[string]bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make(map[string]bool, len(p.paths))
	for k, v := range p.paths {
		out[k] = v
	}
	return out
}

// KnownEdges returns the currently known dependency edges, sorted.
func (p *Peer) KnownEdges() []graph.Edge {
	p.mu.Lock()
	defer p.mu.Unlock()
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
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]string, 0, len(p.rules))
	for id := range p.rules {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// LocalQuery evaluates a conjunctive query against the local database only
// (Definition 4: after a completed update, local answers are global
// answers). The rows come back in canonical order.
func (p *Peer) LocalQuery(body string, outVars []string) ([]relalg.Tuple, error) {
	conj, err := cq.ParseConjunction(body)
	if err != nil {
		return nil, err
	}
	p.ct.AddQueries(1)
	rows, err := cq.Eval(p.db, conj, outVars)
	relalg.SortTuples(rows)
	return rows, err
}

// StatsReports returns the per-node snapshots a super-peer has collected.
func (p *Peer) StatsReports() map[string]stats.Snapshot {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make(map[string]stats.Snapshot, len(p.statsReports))
	for k, v := range p.statsReports {
		out[k] = v
	}
	return out
}

// ---------------------------------------------------------------------------
// Messaging helpers

// Send dispatches a message, recording statistics and trace events; the error
// is for orchestration that sends in the node's name, the protocol tolerates it.
func (p *Peer) Send(to string, m wire.Message) error {
	p.ct.Sent(m.Kind(), m.Size())
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
	err := p.tr.Send(p.id, to, m)
	if err != nil {
		// Unknown or unreachable peers are a dynamic-network fact of life
		// the protocol tolerates (Section 4) — but a lost message must be
		// observable, not invisible: the statistical module counts it and
		// the recorder traces it. Payload recovery is the acknowledgment
		// frontier's job: an answer that never arrives is never acked, so
		// its tuples ship again from the acked marks.
		p.ct.SendFailed(m.Kind(), m.Size())
		if p.opts.Recorder != nil {
			p.opts.Recorder.Record(p.id, to, "sendError", m.Kind()+": "+err.Error())
		}
	}
	return err
}

// Handle processes one incoming envelope; transports call it serially. The
// protocol reaction runs under the mutex; acknowledgment side effects (part
// persistence, the pre-ack fsync, the AnswerAck sends, the durable-frontier
// persist) run after it is released — an fsync must not block the actor. On
// durable peers they are handed to the ack worker, which pipelines the
// group-commit fsync with the actor's next dispatch and accounts the queued
// work toward the transport's quiescence oracle (WorkTracker); elsewhere
// they run inline, still inside Handle.
func (p *Peer) Handle(env wire.Envelope) {
	p.mu.Lock()
	p.dispatchLocked(env)
	work := ackWork{cause: env, parts: p.pendingParts, acks: p.pendingAcks, dirty: p.ackDirty}
	p.pendingAcks, p.pendingParts, p.ackDirty = nil, nil, false
	p.mu.Unlock()

	if p.ackCh != nil && !work.empty() {
		p.ackMu.Lock()
		if !p.ackClosed {
			if p.tw != nil {
				p.tw.TrackWork(1)
			}
			// The mutex exists solely to fence this send against Close's
			// close(ackCh); the consumer (ackLoop) never takes ackMu, so a
			// full queue delays Handle but cannot form a lock cycle.
			p.ackCh <- work //lint:allow locksend ackMu only fences close(ackCh); ackLoop drains without taking it, so no cycle
			p.ackMu.Unlock()
			return
		}
		p.ackMu.Unlock()
		// Worker already stopped (shutdown is in progress): apply inline.
		// The store may be sealed by now; the sync gate then withholds the
		// acks, which is the correct shutdown behaviour.
	}
	p.applyAckWork([]ackWork{work})
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
			p.ct.Received(a.Kind(), a.Size())
		}
		for _, a := range ab.Answers {
			p.ct.Received(a.Kind(), a.Size())
		}
		return
	}
	p.ct.Received(m.Kind(), m.Size())
}

// ackLoop is the durable peers' acknowledgment pipeline: it batches whatever
// Handle enqueued since the last round behind ONE group-commit fsync, so
// fsync latency overlaps dispatch and network latency instead of adding to
// them, and frontiers persist once per batch rather than once per answer.
func (p *Peer) ackLoop() {
	defer p.ackWG.Done()
	for {
		w, ok := <-p.ackCh
		if !ok {
			return
		}
		batch := []ackWork{w}
	drain:
		for {
			select {
			case w2, ok2 := <-p.ackCh:
				if !ok2 {
					break drain
				}
				batch = append(batch, w2)
			default:
				break drain
			}
		}
		p.applyAckWork(batch)
		if p.tw != nil {
			p.tw.TrackWork(-len(batch))
		}
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
		p.received(w.cause)
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
			c.msg.Base = cloneSeqMap(a.msg.Base)
			c.msg.Seqs = cloneSeqMap(a.msg.Seqs)
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

func cloneSeqMap(in map[string]uint64) map[string]uint64 {
	if in == nil {
		return nil
	}
	out := make(map[string]uint64, len(in))
	for k, v := range in {
		out[k] = v
	}
	return out
}

// stopAck shuts the acknowledgment worker down and waits for its backlog to
// drain, so orchestration can seal the stores knowing no fsync or ack send
// is still in flight. Handles racing the stop fall back to the inline path.
func (p *Peer) stopAck() {
	p.ackOnce.Do(func() {
		if p.ackCh == nil {
			return
		}
		p.ackMu.Lock()
		p.ackClosed = true
		close(p.ackCh)
		p.ackMu.Unlock()
		p.ackWG.Wait()
	})
}

// dispatchLocked routes one envelope to its protocol handler. Callers hold mu.
func (p *Peer) dispatchLocked(env wire.Envelope) {
	switch m := env.Msg.(type) {
	case wire.RequestNodes:
		p.handleRequestNodes(env.From, m)
	case wire.DiscoveryAnswer:
		p.handleDiscoveryAnswer(env.From, m)
	case wire.StartUpdate:
		p.handleStartUpdate(env.From, m)
	case wire.Query:
		p.handleQuery(env.From, m)
	case wire.Answer:
		p.handleAnswer(env.From, m)
	case wire.AnswerAck:
		p.handleAnswerAck(env.From, m)
	//lint:allow wireexhaustive Beats/RepAppends/RepAcks/WatchDeltas are consumed by the cluster layer before a batch reaches a hosted peer; without a cluster those planes are never emitted
	case wire.AnswerBatch:
		// A coalesced frame applies exactly as its contents would have
		// alone: acks first (they were owed before the answers were built),
		// then the answers in send order. Heartbeats are membership-plane;
		// the cluster layer consumed them before forwarding.
		for _, ack := range m.Acks {
			p.handleAnswerAck(env.From, ack)
		}
		for _, ans := range m.Answers {
			p.handleAnswer(env.From, ans)
		}
	case wire.Unsubscribe:
		p.unsubscribeLocked(subKey(env.From, m.RuleID))
	case wire.AddRuleNotice:
		p.handleAddRule(m)
	case wire.DeleteRuleNotice:
		p.handleDeleteRule(m)
	case wire.TopoChanged:
		p.handleTopoChanged(m)
	case wire.SetNetwork:
		p.handleSetNetwork(m)
	case wire.StatsRequest:
		snap := p.ct.Snapshot()
		p.Send(env.From, wire.StatsReport{Snapshot: snap, Seq: m.Seq})
	case wire.StatsReport:
		p.statsReports[m.Snapshot.Node] = m.Snapshot
	case wire.StatsReset:
		p.ct.Reset()
	case wire.DiscoverRequest:
		p.startDiscoveryLocked()
	case wire.UpdateRequest:
		p.activateLocked(p.epoch+1, "", false)
	case wire.ProbeRequest:
		p.probeLocked()
	case wire.StateRequest:
		sm := p.hub.Metrics()
		var badFrames uint64
		if fc, ok := p.tr.(interface{ BadFrames() uint64 }); ok {
			badFrames = fc.BadFrames()
		}
		p.Send(env.From, wire.StateReport{
			Node:           p.id,
			Epoch:          p.epoch,
			Activated:      p.activated,
			Closed:         p.stateU == Closed,
			PathsReady:     p.pathsReady,
			Waves:          p.waveSeq,
			Tuples:         p.db.TotalTuples(),
			Watchers:       sm.Watchers,
			WatchQueued:    servingDepth(sm),
			WatchSaved:     sm.SavedExtractions,
			WatchDropped:   sm.DroppedBatches,
			WatchCanceled:  sm.CanceledWatchers,
			WatchExtracted: sm.Extractions,
			BadFrames:      badFrames,
		})
	case wire.QueryRequest:
		p.handleQueryRequest(env.From, m)
	case wire.WatchRequest:
		// Registration reaches the hub's pass lock and, through it, this
		// peer's mutex — which Handle holds here. Serve it off the actor.
		//lint:allow goroshutdown bounded: registers the watch and returns; the long-lived forwarder it spawns ranges over the watcher's channel, ended by Close
		go p.serveRemoteWatch(env.From, m)
	case wire.WatchCancel:
		//lint:allow goroshutdown bounded: looks up the watch under rwmu and closes it
		go p.cancelRemoteWatch(env.From, m.ID)
	}
}

// servingDepth sums the queue depth across every watcher class.
func servingDepth(m serving.Metrics) int {
	depth := 0
	for _, g := range m.Queues {
		depth += g.Depth
	}
	return depth
}

// handleQueryRequest evaluates a remote local query (the coordinator's form
// of Definition 4) and ships the rows — or the error — back. Callers hold mu.
func (p *Peer) handleQueryRequest(from string, m wire.QueryRequest) {
	res := wire.QueryResult{ID: m.ID, Columns: m.Cols}
	conj, err := cq.ParseConjunction(m.Body)
	if err != nil {
		res.Err = err.Error()
		p.Send(from, res)
		return
	}
	p.ct.AddQueries(1)
	rows, err := cq.Eval(p.db, conj, m.Cols)
	if err != nil {
		res.Err = err.Error()
	} else {
		relalg.SortTuples(rows)
		res.Tuples = rows
	}
	p.Send(from, res)
}

// WatcherCount reports the number of live continuous-query watchers (exposed
// by the serve metrics endpoint).
func (p *Peer) WatcherCount() int { return p.hub.WatcherCount() }

func subKey(dependent, ruleID string) string { return dependent + "\x00" + ruleID }

// ---------------------------------------------------------------------------
// Acknowledgment-driven retransmission

// maxAckResends bounds the timeout-driven retransmits per stalled frontier:
// a dependent that is gone for good must not keep the network chattering
// (and polling quiescence detectors churning) forever. The budget resets
// whenever the frontier makes progress, a member rejoins, or a new epoch
// re-pulls.
const maxAckResends = 3

// resendLoop periodically re-ships unacknowledged deltas (Options.
// ResendEvery). Stopped by CloseWatchers (orchestration shutdown).
func (p *Peer) resendLoop(every time.Duration) {
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-p.resendQuit:
			return
		case <-t.C:
			p.resendStale(every)
		}
	}
}

func (p *Peer) stopResend() {
	p.resendOnce.Do(func() {
		if p.resendQuit != nil {
			close(p.resendQuit)
		}
	})
}

// resendStale rewinds every subscription whose shipped frontier has been
// waiting unacknowledged for at least minAge back to the acked frontier and
// re-answers it, within the per-frontier retry budget.
func (p *Peer) resendStale(minAge time.Duration) {
	p.mu.Lock()
	defer p.mu.Unlock()
	now := time.Now()
	for _, k := range p.subKeysLocked() {
		sub := p.subs[k]
		if sub.st == nil || !sub.primed || !sub.st.Pending(storage.Received) {
			continue
		}
		if now.Sub(sub.lastSent) < minAge || sub.resendTries >= maxAckResends {
			continue
		}
		sub.resendTries++
		p.resendFromLocked(sub, storage.Received)
	}
}

// ResendUnackedTo rewinds every subscription of one dependent to its
// DURABILITY-confirmed frontier and re-answers immediately, resetting the
// retry budget. The cluster layer calls it when a suspected or departed
// member comes back alive: the return may be a healed partition (the member
// still holds everything it received) or a crash restart (it only holds
// what its durability gate confirmed), and the transport cannot tell the
// two apart — so the re-send covers the larger window and the member
// deduplicates the overlap.
func (p *Peer) ResendUnackedTo(dependent string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, k := range p.subKeysLocked() {
		sub := p.subs[k]
		if sub.dependent != dependent || sub.st == nil || !sub.primed || !sub.st.Pending(storage.Durable) {
			continue
		}
		sub.resendTries = 0
		p.resendFromLocked(sub, storage.Durable)
	}
}

// resendFromLocked re-evaluates a subscription from a confirmed frontier:
// the shipped frontier rewinds to it, so the evaluation re-ships exactly the
// unconfirmed suffix (receivers deduplicate any overlap with answers that
// did arrive). Callers hold mu.
func (p *Peer) resendFromLocked(sub *subscription, from storage.Level) {
	sub.st.Rewind(from)
	p.evalAndSendLocked(sub, []string{p.id})
	p.dropIfClosedLocked()
}

// subKeysLocked lists the subscription keys in deterministic order. Callers
// hold mu.
func (p *Peer) subKeysLocked() []string {
	keys := make([]string, 0, len(p.subs))
	for k := range p.subs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// refreshOwnEdges recomputes this node's self-asserted dependency edges from
// its rule set and bumps the version.
func (p *Peer) refreshOwnEdges() {
	targets := map[string]bool{}
	for _, r := range p.rules {
		for _, src := range r.SourceNodes() {
			targets[src] = true
		}
	}
	list := make([]string, 0, len(targets))
	for t := range targets {
		list = append(list, t)
	}
	sort.Strings(list)
	p.ownVersion++
	p.knowledge[p.id] = wire.NodeEdges{Node: p.id, Version: p.ownVersion, Targets: list}
}

// mergeKnowledge folds received edge assertions in, replacing stale versions.
// It reports whether anything changed.
func (p *Peer) mergeKnowledge(in []wire.NodeEdges) bool {
	changed := false
	for _, ne := range in {
		cur, ok := p.knowledge[ne.Node]
		if ok && cur.Version >= ne.Version {
			continue
		}
		p.knowledge[ne.Node] = ne
		changed = true
	}
	return changed
}

// knowledgeList snapshots the knowledge map in deterministic order.
func (p *Peer) knowledgeList() []wire.NodeEdges {
	out := make([]wire.NodeEdges, 0, len(p.knowledge))
	for _, ne := range p.knowledge {
		out = append(out, ne)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Node < out[j].Node })
	return out
}

// knowledgeGraph materialises the known edges as a graph.
func (p *Peer) knowledgeGraph() *graph.Graph {
	g := graph.New()
	g.AddNode(p.id)
	for _, ne := range p.knowledge {
		g.AddNode(ne.Node)
		for _, t := range ne.Targets {
			g.AddEdge(ne.Node, t)
		}
	}
	return g
}

// recomputePaths re-derives the maximal dependency paths from current
// knowledge, preserving stability flags of surviving paths, and reports
// whether a path appeared that was not tracked before (it starts unflagged).
// Callers hold mu.
//
// Only *confirmable* maximal paths enter the closure flag set: those ending
// at a dead-end node or cycling back to this node. A maximal path ending at
// an inner repeat (say X→Y→Z→Y seen from X) can never be traversed by a
// no-news cascade — the paper's own stop rule halts the result set at the
// repeated node (Y), so the confirmation can never reach X. The stability of
// such inner cycles is certified at their own nodes (Y's path Y→Z→Y), whose
// closure propagates through rule-completeness; keeping the unconfirmable
// paths in the flag set would block closure forever on any clique of three
// or more nodes.
func (p *Peer) recomputePaths() (added bool) {
	g := p.knowledgeGraph()
	fresh := map[string]bool{}
	cycleVia := map[string]string{}
	for _, path := range g.MaximalPaths(p.id) {
		last := path[len(path)-1]
		if last != p.id && len(g.Succ(last)) > 0 {
			continue // inner-repeat ending: unconfirmable by construction
		}
		k := path.Key()
		if last == p.id {
			cycleVia[k] = ""
			if len(path) >= 3 {
				cycleVia[k] = path[1]
			}
		}
		stable, known := p.paths[k]
		fresh[k] = stable // unknown paths start unflagged (false)
		added = added || !known
	}
	p.paths, p.cycleVia = fresh, cycleVia
	return added
}

// pathKeyOf converts a route (oldest node first) arriving at this peer into
// the dependency-path key it confirms: reverse(route) prefixed with this id.
func (p *Peer) pathKeyOf(route []string) string {
	parts := make([]string, 0, len(route)+1)
	parts = append(parts, p.id)
	for i := len(route) - 1; i >= 0; i-- {
		parts = append(parts, route[i])
	}
	return strings.Join(parts, "\x00")
}

func routeContains(route []string, id string) bool {
	for _, n := range route {
		if n == id {
			return true
		}
	}
	return false
}
