package peer

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"time"

	"repro/internal/cq"
	"repro/internal/graph"
	"repro/internal/relalg"
	"repro/internal/rules"
	"repro/internal/stats"
	"repro/internal/storage"
	"repro/internal/wire"
)

// The protocol as one pure step (see the package doc). Its handlers live here
// and in discovery.go, update.go and control.go; TestPeerStepIsPure keeps them
// free of locks, clocks, goroutines and I/O.

// peerState is one node's protocol state. Peer guards it with its mutex.
type peerState struct {
	id   string
	inc  uint64 // incarnation nonce: fresh per process lifetime (stamped on queries)
	db   *storage.DB
	ct   *stats.Counters
	opts Options // step reads the policy fields; the hooks are the shell's to run

	// Static-ish configuration.
	rules     map[string]rules.Rule // rules of which this node is the target
	neighbors map[string]bool       // pipe-level acquaintances (both directions)

	// Topology knowledge: per asserting node, its versioned edge targets.
	knowledge   map[string]wire.NodeEdges
	ownVersion  uint64
	waves       map[string]*discWave
	waveSeq     uint64
	selfWave    string // id of this peer's own discovery wave ("" = none yet)
	pathsReady  bool
	paths       map[string]*pathRec // closure-tracked maximal dependency path key -> its record
	cycles      int                 // how many of them cycle back here
	discStarted time.Time

	// Update state.
	epoch        uint64
	activated    bool
	forwarded    bool // own queries sent this epoch (delta-mode dedup)
	stateU       UpdateState
	ruleComplete map[string]map[string]bool // ruleID -> part -> sender complete
	parts        map[string]map[string]*partResult
	partBuf      []relalg.Tuple           // scratch of the part joins (see partsOf)
	subs         map[string]*subscription // key dependent+"\x00"+ruleID
	questions    map[string]*question     // what the subscriptions ask, by question.key
	evals        uint64                   // cq evaluations actually run (read by tests)
	subSeq       uint64                   // subscription instance ids (AnswerAck matching)
	started      time.Time

	// Dynamic-change bookkeeping.
	seenChanges  map[string]bool
	statsReports map[string]stats.Snapshot // super-peer: collected reports

	// The step in progress: its time and the effects it has asked for.
	now time.Time
	out []effect
}

// pathRec is one closure-tracked maximal dependency path: whether a no-news
// cascade flagged it stable, and, for a path cycling back to this node, the
// source it leaves through ("" under three nodes).
type pathRec struct {
	stable, cyclic bool
	via            string
}

// effect is one thing a step asks of the shell, in order.
type effect struct {
	kind  effectKind
	to    string       // send, oweAck: the addressee; received: the sender
	msg   wire.Message // send: the message; oweAck: the wire.AnswerAck; received: the message
	parts *partDelta   // persistParts
	when  time.Time    // armTimer
}

type effectKind uint8

const (
	effSend          effectKind = iota // send msg to to
	effPersistParts                    // log part tuples newly accumulated, before the ack that covers them
	effOweAck                          // acknowledge an applied answer once it is durable
	effFrontierDirty                   // an ack advanced a durable frontier: persist the marks
	effArmTimer                        // deliver a resendTick at when
	effReceived                        // Handle's own: count the message received once its acks are out
)

// partDelta is what one answer added to a multi-source rule's part result.
type partDelta struct {
	rule, part string
	cols       []string
	tuples     []relalg.Tuple
}

// The local events: verbs the orchestration and the shell's timer put into
// step beside the messages.
type (
	activateQuiet struct{ epoch uint64 }         // join an epoch without flooding or pulling
	closureProbe  struct{}                       // the orchestration's probe (Probe)
	forcePull     struct{}                       // send this node's own queries now
	scopedPull    struct{ need map[string]bool } // a query-dependent pull
	localNews     struct{ added int }            // InsertLocal wrote news: push it
	resendTo      struct{ dependent string }     // re-ship what a returning member never made durable
	resendTick    struct{}                       // the armed resend timer fired
)

// newPeerState builds a node's state over db with the rules targeting it.
func newPeerState(id string, inc uint64, db *storage.DB, ruleSet []rules.Rule, opts Options) (*peerState, error) {
	s := &peerState{
		id:           id,
		inc:          inc,
		db:           db,
		ct:           stats.NewCounters(id),
		opts:         opts,
		rules:        map[string]rules.Rule{},
		neighbors:    map[string]bool{},
		knowledge:    map[string]wire.NodeEdges{},
		waves:        map[string]*discWave{},
		paths:        map[string]*pathRec{},
		ruleComplete: map[string]map[string]bool{},
		parts:        map[string]map[string]*partResult{},
		subs:         map[string]*subscription{},
		questions:    map[string]*question{},
		seenChanges:  map[string]bool{},
		statsReports: map[string]stats.Snapshot{},
	}
	for _, r := range ruleSet {
		if r.HeadNode != id {
			return nil, fmt.Errorf("peer %s: rule %s targets %s", id, r.ID, r.HeadNode)
		}
		s.rules[r.ID] = r
	}
	s.refreshOwnEdges()
	return s, nil
}

// step applies one event at time now and returns the effects, appended to
// buf[:0].
func (s *peerState) step(now time.Time, from string, msg any, buf []effect) []effect {
	s.now, s.out = now, buf[:0]
	switch m := msg.(type) {
	case wire.RequestNodes:
		s.handleRequestNodes(from, m)
	case wire.DiscoveryAnswer:
		s.handleDiscoveryAnswer(from, m)
	case wire.StartUpdate: // the kick-off flood
		if !s.activated || m.Epoch > s.epoch {
			s.activate(m.Epoch, from, false)
		}
	case wire.Query:
		s.handleQuery(from, m)
	case wire.Answer:
		s.handleAnswer(from, m)
	case wire.AnswerAck:
		s.handleAnswerAck(from, m)
	//lint:allow wireexhaustive Beats/RepAppends/RepAcks/WatchDeltas are consumed by the cluster layer before a batch reaches a hosted peer; without a cluster those planes are never emitted
	case wire.AnswerBatch:
		// A coalesced frame applies exactly as its contents would have
		// alone: acks first (they were owed before the answers were built),
		// then the answers in send order. Heartbeats are membership-plane;
		// the cluster layer consumed them before forwarding.
		for _, ack := range m.Acks {
			s.handleAnswerAck(from, ack)
		}
		for _, ans := range m.Answers {
			s.handleAnswer(from, ans)
		}
	case wire.Unsubscribe:
		s.unsubscribe(subKey(from, m.RuleID))
	case wire.AddRuleNotice:
		s.handleAddRule(m)
	case wire.DeleteRuleNotice:
		s.handleDeleteRule(m)
	case wire.TopoChanged:
		s.handleTopoChanged(m)
	case wire.SetNetwork:
		s.handleSetNetwork(m)
	case wire.StatsRequest:
		s.send(from, wire.StatsReport{Snapshot: s.ct.Snapshot(), Seq: m.Seq})
	case wire.StatsReport:
		s.statsReports[m.Snapshot.Node] = m.Snapshot
	case wire.StatsReset:
		s.ct.Reset()
	case wire.DiscoverRequest:
		s.startDiscovery()
	case wire.UpdateRequest:
		s.activate(s.epoch+1, "", false)
	case wire.ProbeRequest, closureProbe:
		s.probe()
	case wire.QueryRequest:
		s.handleQueryRequest(from, m)
	case activateQuiet:
		if !s.activated || s.epoch < m.epoch {
			s.activate(m.epoch, "", true)
		}
	case forcePull:
		if s.activated && len(s.rules) > 0 {
			s.sendQueries(nil, false, nil)
		}
	case scopedPull:
		s.sendQueries(nil, true, m.need)
	case localNews:
		// Local news restarts a push route here, exactly like a derived
		// change in A5; receivers chase it, re-open if their closure breaks,
		// and the fix-point rule terminates the cascade.
		s.ct.AddInserted(uint64(m.added))
		s.pushToSubs([]string{s.id})
	case resendTo:
		s.resend(storage.Durable, m.dependent)
	case resendTick:
		s.resend(storage.Received, "")
	}
	out := s.out
	s.out = nil
	return out
}

// send asks the shell to send m to a peer.
func (s *peerState) send(to string, m wire.Message) {
	s.out = append(s.out, effect{kind: effSend, to: to, msg: m})
}

func (s *peerState) emit(kind effectKind) { s.out = append(s.out, effect{kind: kind}) }

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

// question returns the table's question for a conjunction text and column
// list, or a fresh one on a miss (subscribe enters it). One that cannot be
// evaluated — unparsable, or an output column no atom binds, which every
// cq.Eval rejects — is an error, not a subscription that silently ships
// nothing.
func (s *peerState) question(text string, cols []string) (*question, error) {
	key := text + "\x00" + strings.Join(cols, "\x00")
	if q, ok := s.questions[key]; ok {
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

// subscribe installs a subscription (over the one it replaces) and
// unsubscribe removes one; the table holds exactly the questions asked.
func (s *peerState) subscribe(sub *subscription) {
	sub.q.subs++
	s.questions[sub.q.key] = sub.q
	key := subKey(sub.dependent, sub.ruleID)
	s.unsubscribe(key)
	s.subs[key] = sub
}

func (s *peerState) unsubscribe(key string) {
	if sub, ok := s.subs[key]; ok {
		delete(s.subs, key)
		if sub.q.subs--; sub.q.subs == 0 {
			delete(s.questions, sub.q.key)
		}
	}
}

// dropIfClosed is the retention rule: a closed node keeps no evaluation past
// the push that made it.
func (s *peerState) dropIfClosed() {
	if s.stateU != Closed {
		return
	}
	for _, q := range s.questions {
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

// partResult accumulates the result set received for one body part of a
// multi-source rule: the head node joins a new answer against the other
// parts' history. A rule with one source keeps none (see handleAnswer). The
// set takes its arity from cols (relalg.MakeTupleSet), so a received tuple of
// another width is skipped: it is never stored.
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

func subKey(dependent, ruleID string) string { return dependent + "\x00" + ruleID }

// ---------------------------------------------------------------------------
// Acknowledgment-driven retransmission

// maxAckResends bounds the timeout-driven retransmits per stalled frontier:
// a dependent that is gone for good must not keep the network chattering
// (and polling quiescence detectors churning) forever. The budget resets
// whenever the frontier makes progress, a member rejoins, or a new epoch
// re-pulls.
const maxAckResends = 3

// armResend asks the shell for a resend tick Options.ResendEvery from now;
// the shell keeps the earliest tick asked for, so one already due stands.
func (s *peerState) armResend() {
	if s.opts.ResendEvery > 0 {
		s.out = append(s.out, effect{kind: effArmTimer, when: s.now.Add(s.opts.ResendEvery)})
	}
}

// resend re-ships the unconfirmed suffix of every primed subscription pending
// at level: the shipped frontier rewinds to the confirmed one and the
// evaluation ships exactly what is past it (receivers deduplicate any overlap
// with answers that did arrive). With a dependent named (resendTo) only its
// subscriptions, from the durable frontier, with the retry budget reset; on a
// tick, from the received frontier, each that waited unacknowledged a full
// ResendEvery, within the budget — one still too young re-arms the timer.
func (s *peerState) resend(level storage.Level, dependent string) {
	for _, k := range sortedKeys(s.subs) {
		sub := s.subs[k]
		if sub.st == nil || !sub.primed || !sub.st.Pending(level) || dependent != "" && sub.dependent != dependent {
			continue
		}
		switch {
		case dependent != "":
			sub.resendTries = 0
		case sub.resendTries >= maxAckResends:
			continue
		case s.now.Sub(sub.lastSent) < s.opts.ResendEvery:
			s.armResend()
			continue
		default:
			sub.resendTries++
		}
		sub.st.Rewind(level)
		s.evalAndSend(sub, []string{s.id})
		s.dropIfClosed()
	}
}

// ---------------------------------------------------------------------------
// Topology knowledge and dependency paths

// refreshOwnEdges recomputes this node's self-asserted dependency edges from
// its rule set and bumps the version.
func (s *peerState) refreshOwnEdges() {
	s.ownVersion++
	s.knowledge[s.id] = wire.NodeEdges{Node: s.id, Version: s.ownVersion, Targets: s.ruleSources()}
}

// ruleSources returns the distinct source nodes of this peer's rules, sorted.
func (s *peerState) ruleSources() []string {
	set := map[string]bool{}
	for _, r := range s.rules {
		for _, src := range r.SourceNodes() {
			set[src] = true
		}
	}
	return sortedKeys(set)
}

// mergeKnowledge folds received edge assertions in, replacing stale versions.
// It reports whether anything changed.
func (s *peerState) mergeKnowledge(in []wire.NodeEdges) bool {
	changed := false
	for _, ne := range in {
		cur, ok := s.knowledge[ne.Node]
		if ok && cur.Version >= ne.Version {
			continue
		}
		s.knowledge[ne.Node] = ne
		changed = true
	}
	return changed
}

// knowledgeList snapshots the knowledge map in deterministic order.
func (s *peerState) knowledgeList() []wire.NodeEdges {
	out := make([]wire.NodeEdges, 0, len(s.knowledge))
	for _, ne := range s.knowledge {
		out = append(out, ne)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Node < out[j].Node })
	return out
}

// knowledgeGraph materialises the known edges as a graph.
func (s *peerState) knowledgeGraph() *graph.Graph {
	g := graph.New()
	g.AddNode(s.id)
	for _, ne := range s.knowledge {
		g.AddNode(ne.Node)
		for _, t := range ne.Targets {
			g.AddEdge(ne.Node, t)
		}
	}
	return g
}

// recomputePaths re-derives the maximal dependency paths from current
// knowledge, preserving the records of surviving paths, and reports whether
// a path appeared that was not tracked before (it starts unflagged).
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
func (s *peerState) recomputePaths() (added bool) {
	g := s.knowledgeGraph()
	fresh := map[string]*pathRec{}
	s.cycles = 0
	for _, path := range g.MaximalPaths(s.id) {
		last := path[len(path)-1]
		if last != s.id && len(g.Succ(last)) > 0 {
			continue // inner-repeat ending: unconfirmable by construction
		}
		k := path.Key()
		rec, known := s.paths[k]
		if !known {
			rec = &pathRec{cyclic: last == s.id} // unknown paths start unflagged
			if rec.cyclic && len(path) >= 3 {
				rec.via = path[1]
			}
		}
		fresh[k] = rec
		if rec.cyclic {
			s.cycles++
		}
		added = added || !known
	}
	s.paths = fresh
	return added
}

// pathKeyOf converts a route (oldest node first) arriving at this peer into
// the dependency-path key it confirms: reverse(route) prefixed with this id.
func (s *peerState) pathKeyOf(route []string) string {
	parts := make([]string, 0, len(route)+1)
	parts = append(parts, s.id)
	for i := len(route) - 1; i >= 0; i-- {
		parts = append(parts, route[i])
	}
	return strings.Join(parts, "\x00")
}
