package peer

import (
	"slices"
	"sort"
	"strings"

	"repro/internal/cq"
	"repro/internal/relalg"
	"repro/internal/rules"
	"repro/internal/storage"
	"repro/internal/wire"
)

// Database update (algorithms A4–A6 of the paper).
//
// The global update is a pull-push fix-point: Query messages travel up
// dependency edges carrying the requester chain SN (loop control: a node
// forwards its own queries only while open and absent from SN — this is what
// enumerates the dependency paths), every query is answered immediately with
// the current evaluation of the rule body part, and every applied answer
// that changes the database triggers re-answers to all subscribers (the
// owner relation). An Answer carries the route the result set has travelled;
// the paper's fix-point rule — stop propagating iff the receiver is on the
// route and the answer brings no new data — terminates cycles, and a no-news
// answer whose reversed route matches one of the receiver's maximal
// dependency paths flags that path stable. A node closes when either all its
// rules' parts are complete (acyclic closure) or all its maximal dependency
// paths are flagged stable (cyclic closure); new data re-opens it, making
// the protocol self-stabilising under races and dynamic change.
//
// A node whose paths become known mid-epoch re-originates. A cyclic path
// X→…→Y→X is only ever flagged by a no-news cascade whose route starts at X
// (X answers its dependent Y with route [X], Y relays it onward), and a
// confirmation arriving before X knows the path is dropped. So whenever X's
// path set is (re)computed while X is activated and open — its own discovery
// wave completing inside an epoch, gossip adding a path afterwards, a closure
// probe — X re-queries its sources (cascades that start there) AND re-answers
// its subscribers with route [X] (the cascades that start here): probe.

// activate (re)enters the update epoch: reset per-epoch state, flood the
// kick-off onward, lazily self-discover, and pull from all rule sources. A
// quiet activation (the staged strategy's) neither floods nor pulls: the
// orchestrator decides when this peer pulls.
//
// Accumulated part results (s.parts) survive the epoch bump deliberately:
// the model is monotone (no retraction), so everything a source ever
// answered stays true, and sources holding per-subscription high-water
// marks ship only deltas on re-query — a head that restarted
// its parts from scratch would lose old×new join combinations of
// multi-source rules forever. Parts are dropped only when their rule is
// deleted or redefined.
func (s *peerState) activate(epoch uint64, from string, quiet bool) {
	s.epoch = epoch
	s.activated = true
	s.started = s.now
	s.ruleComplete = map[string]map[string]bool{}
	s.forwarded = false
	s.unflagPaths()
	s.stateU = Open

	// Flood over acquaintances (both rule directions) except the sender.
	if !quiet {
		for _, n := range sortedKeys(s.neighbors) {
			if n != from {
				s.send(n, wire.StartUpdate{Epoch: epoch, Origin: s.id})
			}
		}
	}
	if len(s.rules) == 0 {
		// A node with no incoming rules holds final data from the start.
		s.stateU = Closed
		s.ct.SetUpdateClosed(0)
		s.dropIfClosed()
		s.notifySubs(true)
		return
	}
	if s.selfWave == "" || !s.pathsReady {
		// No wave of its own yet, or one that a lost message (a crashed
		// member) keeps from finishing: a new epoch starts a fresh one.
		s.startDiscovery()
	}
	if !quiet {
		s.sendQueries(nil, false, nil)
	}
}

// unflagPaths clears every path's stability flag: new data, or a new epoch.
func (s *peerState) unflagPaths() {
	for _, rec := range s.paths {
		rec.stable = false
	}
}

// sendQueries sends this node's own queries for every rule part, with
// requester chain [self]+basePath (A4's ID+SN). Scoped pulls restrict to
// rules with a head atom writing a relation in needRels.
func (s *peerState) sendQueries(basePath []string, scoped bool, needRels map[string]bool) {
	s.forwarded = true
	path := make([]string, 0, len(basePath)+1)
	path = append(path, s.id)
	path = append(path, basePath...)
	for _, id := range sortedKeys(s.rules) {
		r := s.rules[id]
		if !scoped || slices.ContainsFunc(r.Head, func(a cq.Atom) bool { return needRels[a.Rel] }) {
			s.sendRuleQueries(r, path, scoped)
		}
	}
}

// sendRuleQueries asks every source of r for its body part.
func (s *peerState) sendRuleQueries(r rules.Rule, path []string, scoped bool) {
	for _, src := range r.SourceNodes() {
		part, cols := r.BodyPart(src)
		if len(part.Atoms) == 0 {
			continue
		}
		s.send(src, wire.Query{
			Epoch:       s.epoch,
			RuleID:      r.ID,
			Conj:        part.String(),
			Cols:        cols,
			Path:        path,
			Scoped:      scoped,
			Incarnation: s.inc,
		})
	}
}

// handleQuery implements A4 (source side).
func (s *peerState) handleQuery(from string, m wire.Query) {
	if m.Epoch > s.epoch {
		// A query from a newer epoch activates this node for it. Full
		// activation matters: the node must also forward the kick-off
		// flood, otherwise a query racing ahead of the StartUpdate message
		// would swallow the wave and leave parts of the component asleep.
		s.activate(m.Epoch, "", false)
	}

	q, err := s.question(m.Conj, m.Cols)
	if err != nil {
		// Malformed query: answer empty so the requester does not hang.
		s.send(from, wire.Answer{Epoch: m.Epoch, RuleID: m.RuleID, Part: s.id,
			Complete: s.stateU == Closed, Route: []string{s.id}})
		return
	}

	prev, resub := s.subs[subKey(from, m.RuleID)]
	if resub && prev.epoch == m.Epoch {
		s.ct.AddDuplicateQueries(1)
	}
	sub := &subscription{dependent: from, ruleID: m.RuleID, epoch: m.Epoch, q: q}
	if s.opts.Delta {
		// Delta state carries over only while the subscription asks the same
		// question: a changed conjunction or column list (rule redefinition)
		// re-primes from scratch, otherwise results of the new body over old
		// data would never ship.
		if resub && prev.q == q && prev.st != nil {
			sub.id, sub.st, sub.primed = prev.id, prev.st, prev.primed
			switch {
			case m.Incarnation != prev.lastInc:
				// The requester runs in a fresh process lifetime: it
				// only still holds what reached its stable storage, so
				// the re-answer resumes from the DURABILITY-confirmed
				// frontier. A cleanly restarted dependent costs nothing
				// (its close sealed everything it had received); a
				// crashed one gets exactly what its durability gate
				// never confirmed.
				sub.st.Rewind(storage.Durable)
			case m.Epoch > prev.epoch:
				// A fresh epoch within one requester lifetime re-pulls
				// from the RECEIPT-confirmed frontier, not the shipped
				// one: everything evaluated but never acknowledged —
				// sends that failed while the dependent was unreachable,
				// answers a transport dropped — ships again here. On a
				// healthy network the frontiers coincide at the epoch
				// bump (quiescence drained the acks), so this costs
				// nothing; same-epoch re-queries keep the shipped
				// frontier, so chatty cyclic cascades do not re-ship data
				// whose ack is merely still in flight.
				sub.st.Rewind(storage.Received)
			}
		} else {
			sub.st = storage.NewStream(nil)
			s.subSeq++
			sub.id = s.subSeq
		}
		sub.lastInc = m.Incarnation
	}
	s.subscribe(sub)

	// Immediate answer with the current evaluation (A4's first step).
	ans := wire.Answer{
		Epoch:    m.Epoch,
		RuleID:   m.RuleID,
		Part:     s.id,
		Columns:  q.cols,
		Complete: s.stateU == Closed,
		Delta:    s.opts.Delta,
		Route:    []string{s.id},
	}
	s.evalForSub(sub, &ans)
	s.send(from, ans)
	s.dropIfClosed()

	// Forward own queries while open and not already on the chain (A4).
	// In delta mode the forwarding is deduplicated per epoch: re-forwarding
	// on every incoming query (the faithful behaviour) enumerates every
	// dependency path, which is the message blow-up the paper's delta
	// optimisation exists to avoid.
	if s.opts.Delta && s.forwarded {
		return
	}
	if s.stateU == Open && !slices.Contains(m.Path, s.id) {
		var need map[string]bool
		if m.Scoped {
			need = map[string]bool{}
			for _, rel := range q.rels {
				need[rel] = true
			}
		}
		s.sendQueries(m.Path, m.Scoped, need)
	}
}

// evalForSub evaluates a subscription's question into a's payload: the full
// result in faithful mode, the delta past the shipped frontier in delta mode,
// stamped once primed with the instance and the range it covers (the
// stream's shipped maps before and after). The dependent echoes the stamp in
// an AnswerAck once the payload is applied (on a durable node, persisted).
// QueriesExecuted counts answers computed for a subscriber, shared or not;
// evals counts the evaluations actually run.
func (s *peerState) evalForSub(sub *subscription, a *wire.Answer) {
	s.ct.AddQueries(1)
	if sub.st == nil {
		s.evals++
		if result, err := cq.Eval(s.db, sub.q.conj, sub.q.cols); err == nil {
			a.Tuples = result
		}
		return
	}
	base := sub.st.Shipped()
	a.Tuples = s.evalDeltaForSub(sub)
	if sub.primed {
		a.SubID, a.Base, a.Seqs = sub.id, base, sub.st.Shipped()
		sub.lastSent = s.now
		s.armResend()
	}
}

// evalDeltaForSub is the semi-naive path: the first evaluation runs the full
// conjunction and records per-relation high-water marks; every later
// re-answer extracts the tuples inserted since the marks and joins only
// those against the remaining atoms' full extents, so a push after a small
// change costs O(delta) instead of O(result). A projection occasionally
// re-derived through a new tuple may ship twice; the subscriber's insert
// step deduplicates, so only bytes — not correctness — are at stake. The
// evaluation is the question's: a subscription it fits takes its tuples (see
// question). The stream ships only past an evaluation that succeeded.
func (s *peerState) evalDeltaForSub(sub *subscription) []relalg.Tuple {
	q := sub.q
	var base, next storage.Marks // base nil: the full evaluation that primes
	var delta map[string][]relalg.Tuple
	if sub.primed {
		base = sub.st.Shipped()
		if delta, next = s.db.DeltaSince(base, q.rels); len(delta) == 0 {
			sub.st.Ship(next)
			return nil
		}
	} else {
		next = s.db.MarksFor(q.rels)
	}
	if !q.fits(base, next) {
		var out []relalg.Tuple
		var err error
		s.evals++
		if base == nil {
			out, err = cq.Eval(s.db, q.conj, q.cols)
		} else {
			out, err = cq.EvalDelta(s.db, q.conj, q.cols, delta)
		}
		if err != nil {
			return nil
		}
		q.last = &evaluation{base: base, next: next, tuples: out}
	}
	sub.st.Ship(next)
	sub.primed = true
	return q.last.tuples
}

// handleAnswer implements A5 + A6.
func (s *peerState) handleAnswer(from string, m wire.Answer) {
	if m.Epoch != s.epoch {
		if m.Epoch < s.epoch {
			return // stale epoch
		}
		// Future epoch: full activation (see handleQuery).
		s.activate(m.Epoch, "", false)
	}
	r, ok := s.rules[m.RuleID]
	if !ok {
		// The rule was deleted while the answer was in flight.
		s.send(from, wire.Unsubscribe{RuleID: m.RuleID})
		return
	}

	// A6: chase the rule with the joined parts. A rule with one source has
	// no other part to join a later answer against, so nothing of the answer
	// is kept and nothing is joined: the received tuples go to the chase as
	// they are (rules.ApplyPart), and the relation's own duplicate check
	// absorbs a re-sent one. An answer from a node that is not the rule's
	// source derives nothing.
	dm := s.opts.Maps.For(m.Part, s.id)
	opts := rules.ApplyOptions{Mode: s.opts.InsertMode, MaxNullDepth: s.opts.MaxNullDepth}
	var res rules.ApplyResult
	var err error
	if sources := r.SourceNodes(); len(sources) != 1 {
		res, err = rules.Apply(s.db, r, s.joinAnswer(r, m, dm), opts)
	} else if sources[0] == m.Part {
		res, err = rules.ApplyPart(s.db, r, rules.PartTuples{Cols: m.Columns, Tuples: dm.TranslateTuples(m.Tuples)}, opts)
	}
	if err != nil {
		return
	}
	if m.Seqs != nil {
		// The answer carried a sequence range: owe the source an
		// acknowledgment echoing it. The shell sends it after the store
		// synced — which is also when its Durable flag is decided — so the
		// source's persisted frontier never runs ahead of what this node can
		// actually recover.
		s.out = append(s.out, effect{kind: effOweAck, to: from,
			msg: wire.AnswerAck{RuleID: m.RuleID, SubID: m.SubID, Base: m.Base, Seqs: m.Seqs}})
	}
	news := res.Added > 0
	s.ct.AddInserted(uint64(res.Added))
	s.ct.AddTruncated(uint64(res.Truncated))
	if news {
		s.ct.AddUpdates(1)
	} else {
		s.ct.AddDuplicate(1)
	}

	// Rule-part completeness (acyclic closure input).
	rc := s.ruleComplete[m.RuleID]
	if rc == nil {
		rc = map[string]bool{}
		s.ruleComplete[m.RuleID] = rc
	}
	rc[m.Part] = m.Complete

	if news {
		// New data invalidates path stability and may re-open the node.
		s.unflagPaths()
	} else if len(m.Route) > 0 {
		// The fix-point rule's positive side: a no-news round trip along a
		// maximal dependency path flags it stable.
		if rec := s.paths[s.pathKeyOf(m.Route)]; rec != nil {
			rec.stable = true
		}
	}

	// Propagation (A5): stop iff on the route with no news. A push that
	// carries newly derived data is a fresh result set originating here, so
	// its route restarts at this node; a no-news push relays a confirmation
	// of an earlier result set and extends its route — these extending
	// no-news cascades are what eventually traverse (and flag) every
	// maximal dependency path.
	if news {
		s.pushToSubs([]string{s.id})
	} else if !slices.Contains(m.Route, s.id) {
		route := make([]string, 0, len(m.Route)+1)
		route = append(route, m.Route...)
		route = append(route, s.id)
		s.pushToSubs(route)
	}

	s.checkClosure()

	// Closure liveness in cycles: new data must trigger fresh confirming
	// cascades along this node's dependency paths.
	if news && s.cycles > 0 && s.pathsReady && s.stateU == Open {
		s.sendQueries(nil, false, nil)
	}
}

// handleAnswerAck acknowledges the echoed range (Base, Seqs] on the
// subscription's stream: the dependent has confirmed receiving — and, when
// Durable, persisting — the answer covering it. An ack whose base lies
// beyond a frontier is the shadow of an earlier answer that was dropped
// (outbox overflow, write error): the stream leaves that gap open and the
// retransmission paths re-ship it. A stale instance id — the subscription
// was re-primed or re-created with a different question since the answer
// shipped — is ignored: acknowledged seqs of the old question say nothing
// about what of the new one has arrived.
func (s *peerState) handleAnswerAck(from string, m wire.AnswerAck) {
	sub, ok := s.subs[subKey(from, m.RuleID)]
	if !ok || sub.id != m.SubID || sub.st == nil {
		return
	}
	dirty := false
	for rel, seq := range m.Seqs {
		// A missing base reads as zero: the priming answer's empty frontier.
		received, durable := sub.st.Ack(rel, m.Base[rel], seq, m.Durable)
		if received {
			sub.resendTries = 0
			if sub.st.Pending(storage.Received) {
				s.armResend()
			}
		}
		dirty = dirty || durable
	}
	if dirty {
		s.emit(effFrontierDirty)
	}
}

// joinAnswer merges one answer into the accumulated part results of a
// multi-source rule (monotone union; no retraction in the model, so delta and
// full answers merge identically) and joins it with the other parts. In delta
// mode only bindings a newly received tuple contributes to are derived; the
// faithful path re-joins the whole accumulated result set every time.
func (s *peerState) joinAnswer(r rules.Rule, m wire.Answer, dm *rules.DomainMap) []relalg.Tuple {
	byPart := s.parts[m.RuleID]
	if byPart == nil {
		byPart = map[string]*partResult{}
		s.parts[m.RuleID] = byPart
	}
	pr := byPart[m.Part]
	if pr == nil {
		pr = &partResult{cols: m.Columns, tuples: relalg.MakeTupleSet(len(m.Columns))}
		byPart[m.Part] = pr
	}
	var fresh []relalg.Tuple
	persist := s.opts.PersistParts != nil
	for _, t := range m.Tuples {
		if pr.tuples.Add(dm.TranslateTuple(t)) && (s.opts.Delta || persist) {
			fresh = append(fresh, pr.tuples.At(pr.tuples.Len()-1))
		}
	}
	if persist && len(fresh) > 0 {
		// Persist the newly accumulated part tuples before the answer is
		// acknowledged: the source will never re-send below the acked
		// frontier, so anything backing future multi-source joins must be
		// recoverable here, not only at the next checkpoint.
		s.out = append(s.out, effect{kind: effPersistParts, parts: &partDelta{
			rule: m.RuleID, part: m.Part, cols: slices.Clone(pr.cols), tuples: slices.Clone(fresh)}})
	}
	if s.opts.Delta {
		return s.joinPartsDelta(r, m.Part, fresh)
	}
	return s.joinParts(r)
}

// joinParts joins the accumulated part results of a rule into bindings over
// the rule's export variables (in ExportVars order).
func (s *peerState) joinParts(r rules.Rule) []relalg.Tuple {
	return rules.JoinParts(r, s.partsOf(r, "", nil))
}

// joinPartsDelta joins the newly received tuples of one part against the
// full accumulated extents of the other parts (semi-naive at the answer
// level). Every binding of the full join that uses at least one new tuple of
// this part is produced; bindings over old tuples only were already chased by
// an earlier answer.
func (s *peerState) joinPartsDelta(r rules.Rule, part string, fresh []relalg.Tuple) []relalg.Tuple {
	if len(fresh) == 0 {
		return nil
	}
	return rules.JoinParts(r, s.partsOf(r, part, fresh))
}

// partsOf lists a rule's part results for rules.JoinParts, the named part as
// fresh and every other one walked by position, as views of its rows, into
// the reused scratch partBuf: the lists hold until the next part join.
func (s *peerState) partsOf(r rules.Rule, part string, fresh []relalg.Tuple) map[string]rules.PartTuples {
	parts := make(map[string]rules.PartTuples, len(s.parts[r.ID]))
	s.partBuf = s.partBuf[:0]
	for src, pr := range s.parts[r.ID] {
		tuples, from := fresh, len(s.partBuf)
		if src != part {
			for i := range pr.tuples.Len() {
				s.partBuf = append(s.partBuf, pr.tuples.At(i))
			}
			tuples = s.partBuf[from:len(s.partBuf):len(s.partBuf)]
		}
		parts[src] = rules.PartTuples{Cols: pr.cols, Tuples: tuples}
	}
	return parts
}

// pushToSubs re-answers every subscriber with the current evaluation (A5's
// owner push), extending the route.
func (s *peerState) pushToSubs(route []string) {
	for _, k := range sortedKeys(s.subs) {
		s.evalAndSend(s.subs[k], route)
	}
	s.dropIfClosed()
}

// answerTo starts an answer to sub carrying this node's state.
func (s *peerState) answerTo(sub *subscription, route []string) wire.Answer {
	return wire.Answer{
		Epoch:    max(sub.epoch, s.epoch),
		RuleID:   sub.ruleID,
		Part:     s.id,
		Columns:  sub.q.cols,
		Complete: s.stateU == Closed,
		Delta:    s.opts.Delta,
		Route:    route,
	}
}

// evalAndSend re-evaluates one subscription and ships the answer, stamped
// with the sequence range the evaluation covered.
func (s *peerState) evalAndSend(sub *subscription, route []string) {
	a := s.answerTo(sub, route)
	s.evalForSub(sub, &a)
	s.send(sub.dependent, a)
}

// notifySubs ships empty state-change notifications (closure or re-opening)
// to all subscribers.
func (s *peerState) notifySubs(complete bool) {
	for _, k := range sortedKeys(s.subs) {
		sub := s.subs[k]
		a := s.answerTo(sub, []string{s.id})
		a.Complete, a.Delta = complete, true // empty delta: a pure flag carrier
		s.send(sub.dependent, a)
	}
}

// checkClosure recomputes state_u from the closure conditions and performs
// the open↔closed transition with subscriber notification.
func (s *peerState) checkClosure() {
	if !s.activated {
		return
	}
	closed := s.closureHolds()
	switch {
	case closed && s.stateU == Open:
		s.stateU = Closed
		s.ct.SetUpdateClosed(s.now.Sub(s.started))
		s.dropIfClosed()
		s.notifySubs(true)
	case !closed && s.stateU == Closed:
		s.reopen()
	}
}

// reopen makes a closed node open again and tells its subscribers.
func (s *peerState) reopen() {
	if s.stateU == Closed {
		s.stateU = Open
		s.notifySubs(false)
	}
}

// probe regenerates the confirming cascades of an open node in both
// directions: re-pulling makes the sources re-answer (routes that start at
// them and confirm the paths of the nodes they pass), re-originating this
// node's own result set to its subscribers (an empty delta per subscription
// in delta mode) starts the routes that come back around and confirm this
// node's own cyclic paths.
func (s *peerState) probe() {
	if s.activated && s.stateU == Open {
		s.sendQueries(nil, false, nil)
		s.pushToSubs([]string{s.id})
	}
}

// closureHolds evaluates Lemma 1's fix-point condition per rule part: for
// every source either the source declared itself complete (acyclic closure:
// its data is final and incorporated) or every cyclic dependency path
// through that source — the paths whose confirming cascades this node
// itself regenerates by re-querying — is flagged stable. Dead-end paths
// through a source are subsumed by that source's own completeness; mixing
// the two conditions globally would deadlock two open cycle partners whose
// other branches lead into already-closed regions (closed nodes never
// re-query, so those branch confirmations could not regenerate).
func (s *peerState) closureHolds() bool {
	for id, r := range s.rules {
		rc := s.ruleComplete[id]
		for _, src := range r.SourceNodes() {
			if rc[src] {
				continue
			}
			// Source not complete: fall back to cyclic confirmation.
			if !s.pathsReady {
				return false
			}
			confirmed := false
			for _, rec := range s.paths {
				if !rec.cyclic || rec.via != src {
					continue // not a cyclic path through this source
				}
				if !rec.stable {
					return false
				}
				confirmed = true
			}
			if !confirmed {
				return false
			}
		}
	}
	return true
}

// waitingOn lists what an open node's closure is waiting on, sorted: its
// unflagged cyclic dependency paths ("X→Y→X") and the sources that have not
// declared themselves complete.
func (s *peerState) waitingOn() []string {
	var out []string
	for key, rec := range s.paths {
		if rec.cyclic && !rec.stable {
			out = append(out, strings.ReplaceAll(key, "\x00", "→"))
		}
	}
	for id, r := range s.rules {
		for _, src := range r.SourceNodes() {
			if !s.ruleComplete[id][src] {
				out = append(out, "source "+src+" of rule "+id)
			}
		}
	}
	sort.Strings(out)
	return out
}

// sortedKeys lists a set's members in order: the step sends in a fixed order.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
