package peer

import (
	"sort"
	"strings"
	"time"

	"repro/internal/cq"
	"repro/internal/relalg"
	"repro/internal/rules"
	"repro/internal/storage"
	"repro/internal/wal"
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
// its subscribers with route [X] (the cascades that start here): probeLocked.

// StartUpdateWave makes this peer the update super-node: it bumps the epoch,
// activates itself and floods StartUpdate over acquaintance links. It
// returns the new epoch.
func (p *Peer) StartUpdateWave() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	epoch := p.epoch + 1
	p.activateLocked(epoch, "", false)
	return epoch
}

// handleStartUpdate implements the kick-off flood. Callers hold mu.
func (p *Peer) handleStartUpdate(from string, m wire.StartUpdate) {
	if p.activated && m.Epoch <= p.epoch {
		return
	}
	p.activateLocked(m.Epoch, from, false)
}

// activateLocked (re)enters the update epoch: reset per-epoch state, flood
// the kick-off onward, lazily self-discover, and pull from all rule sources.
// A quiet activation (the staged strategy's) neither floods nor pulls: the
// orchestrator decides when this peer pulls.
//
// Accumulated part results (p.parts) survive the epoch bump deliberately:
// the model is monotone (no retraction), so everything a source ever
// answered stays true, and sources holding per-subscription high-water
// marks ship only deltas on re-query — a head that restarted
// its parts from scratch would lose old×new join combinations of
// multi-source rules forever. Parts are dropped only when their rule is
// deleted or redefined.
func (p *Peer) activateLocked(epoch uint64, from string, quiet bool) {
	p.epoch = epoch
	p.activated = true
	p.started = time.Now()
	p.ruleComplete = map[string]map[string]bool{}
	p.forwarded = false
	for k := range p.paths {
		p.paths[k] = false
	}
	p.stateU = Open

	// Flood over acquaintances (both rule directions) except the sender.
	for n := range p.neighbors {
		if n != from && !quiet {
			p.Send(n, wire.StartUpdate{Epoch: epoch, Origin: p.id})
		}
	}
	if len(p.rules) == 0 {
		// A node with no incoming rules holds final data from the start.
		p.stateU = Closed
		p.ct.SetUpdateClosed(0)
		p.dropIfClosedLocked()
		p.notifySubsLocked(true)
		return
	}
	if p.selfWave == "" {
		p.startDiscoveryLocked()
	}
	if !quiet {
		p.sendQueriesLocked(nil, false, nil)
	}
}

// sendQueriesLocked sends this node's own queries for every rule part, with
// requester chain [self]+basePath (A4's ID+SN). Scoped pulls restrict to
// rules whose head relations intersect needRels.
func (p *Peer) sendQueriesLocked(basePath []string, scoped bool, needRels map[string]bool) {
	p.forwarded = true
	path := make([]string, 0, len(basePath)+1)
	path = append(path, p.id)
	path = append(path, basePath...)

	ids := make([]string, 0, len(p.rules))
	for id := range p.rules {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		r := p.rules[id]
		if scoped && !ruleTargets(r, needRels) {
			continue
		}
		for _, src := range r.SourceNodes() {
			part, cols := r.BodyPart(src)
			if len(part.Atoms) == 0 {
				continue
			}
			p.Send(src, wire.Query{
				Epoch:       p.epoch,
				RuleID:      r.ID,
				Conj:        part.String(),
				Cols:        cols,
				Path:        path,
				Scoped:      scoped,
				Incarnation: p.inc,
			})
		}
	}
}

// ruleTargets reports whether any head atom of r writes a relation in rels.
func ruleTargets(r rules.Rule, rels map[string]bool) bool {
	if rels == nil {
		return true
	}
	for _, a := range r.Head {
		if rels[a.Rel] {
			return true
		}
	}
	return false
}

// handleQuery implements A4 (source side). Callers hold mu.
func (p *Peer) handleQuery(from string, m wire.Query) {
	if m.Epoch > p.epoch {
		// A query from a newer epoch activates this node for it. Full
		// activation matters: the node must also forward the kick-off
		// flood, otherwise a query racing ahead of the StartUpdate message
		// would swallow the wave and leave parts of the component asleep.
		p.activateLocked(m.Epoch, "", false)
	}

	q, err := p.questionLocked(m.Conj, m.Cols)
	if err != nil {
		// Malformed query: answer empty so the requester does not hang.
		p.Send(from, wire.Answer{Epoch: m.Epoch, RuleID: m.RuleID, Part: p.id,
			Complete: p.stateU == Closed, Route: []string{p.id}})
		return
	}

	prev, resub := p.subs[subKey(from, m.RuleID)]
	if resub && prev.epoch == m.Epoch {
		p.ct.AddDuplicateQueries(1)
	}
	sub := &subscription{dependent: from, ruleID: m.RuleID, epoch: m.Epoch, q: q}
	if p.opts.Delta {
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
			p.subSeq++
			sub.id = p.subSeq
		}
		sub.lastInc = m.Incarnation
	}
	p.subscribeLocked(sub)

	// Immediate answer with the current evaluation (A4's first step).
	ans := wire.Answer{
		Epoch:    m.Epoch,
		RuleID:   m.RuleID,
		Part:     p.id,
		Columns:  q.cols,
		Complete: p.stateU == Closed,
		Delta:    p.opts.Delta,
		Route:    []string{p.id},
	}
	p.evalForSub(sub, &ans)
	p.Send(from, ans)
	p.dropIfClosedLocked()

	// Forward own queries while open and not already on the chain (A4).
	// In delta mode the forwarding is deduplicated per epoch: re-forwarding
	// on every incoming query (the faithful behaviour) enumerates every
	// dependency path, which is the message blow-up the paper's delta
	// optimisation exists to avoid.
	if p.opts.Delta && p.forwarded {
		return
	}
	if p.stateU == Open && !routeContains(m.Path, p.id) {
		var need map[string]bool
		if m.Scoped {
			need = map[string]bool{}
			for _, rel := range q.rels {
				need[rel] = true
			}
		}
		p.sendQueriesLocked(m.Path, m.Scoped, need)
	}
}

// evalForSub evaluates a subscription's question into a's payload: the full
// result in faithful mode, the delta past the shipped frontier in delta mode,
// stamped once primed with the instance and the range it covers (the
// stream's shipped maps before and after). The dependent echoes the stamp in
// an AnswerAck once the payload is applied (on a durable node, persisted).
// QueriesExecuted counts answers computed for a subscriber, shared or not;
// evals counts the evaluations actually run. Callers hold mu.
func (p *Peer) evalForSub(sub *subscription, a *wire.Answer) {
	p.ct.AddQueries(1)
	if sub.st == nil {
		p.evals++
		if result, err := cq.Eval(p.db, sub.q.conj, sub.q.cols); err == nil {
			a.Tuples = result
		}
		return
	}
	base := sub.st.Shipped()
	a.Tuples = p.evalDeltaForSub(sub)
	if sub.primed {
		a.SubID, a.Base, a.Seqs = sub.id, base, sub.st.Shipped()
		sub.lastSent = time.Now()
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
// Callers hold mu.
func (p *Peer) evalDeltaForSub(sub *subscription) []relalg.Tuple {
	q := sub.q
	var base, next storage.Marks // base nil: the full evaluation that primes
	var delta map[string][]relalg.Tuple
	if sub.primed {
		base = sub.st.Shipped()
		if delta, next = p.db.DeltaSince(base, q.rels); len(delta) == 0 {
			sub.st.Ship(next)
			return nil
		}
	} else {
		next = p.db.MarksFor(q.rels)
	}
	if !q.fits(base, next) {
		var out []relalg.Tuple
		var err error
		p.evals++
		if base == nil {
			out, err = cq.Eval(p.db, q.conj, q.cols)
		} else {
			out, err = cq.EvalDelta(p.db, q.conj, q.cols, delta)
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

// handleAnswer implements A5 + A6. Callers hold mu.
func (p *Peer) handleAnswer(from string, m wire.Answer) {
	if m.Epoch != p.epoch {
		if m.Epoch < p.epoch {
			return // stale epoch
		}
		// Future epoch: full activation (see handleQuery).
		p.activateLocked(m.Epoch, "", false)
	}
	r, ok := p.rules[m.RuleID]
	if !ok {
		// The rule was deleted while the answer was in flight.
		p.Send(from, wire.Unsubscribe{RuleID: m.RuleID})
		return
	}

	// A6: chase the rule with the joined parts. A rule with one source has
	// no other part to join a later answer against, so nothing of the answer
	// is kept and nothing is joined: the received tuples go to the chase as
	// they are (rules.ApplyPart), and the relation's own duplicate check
	// absorbs a re-sent one. An answer from a node that is not the rule's
	// source derives nothing.
	dm := p.opts.Maps.For(m.Part, p.id)
	opts := rules.ApplyOptions{Mode: p.opts.InsertMode, MaxNullDepth: p.opts.MaxNullDepth}
	var res rules.ApplyResult
	var err error
	if sources := r.SourceNodes(); len(sources) != 1 {
		res, err = rules.Apply(p.db, r, p.joinAnswerLocked(r, m, dm), opts)
	} else if sources[0] == m.Part {
		res, err = rules.ApplyPart(p.db, r, rules.PartTuples{Cols: m.Columns, Tuples: dm.TranslateTuples(m.Tuples)}, opts)
	}
	if err != nil {
		return
	}
	if m.Seqs != nil {
		// The answer carried a sequence range: owe the source an
		// acknowledgment echoing it. It is sent after the mutex is released
		// — and, on a durable node, after the store synced, which is also
		// when its Durable flag is decided — so the source's persisted
		// frontier never runs ahead of what this node can actually recover.
		p.pendingAcks = append(p.pendingAcks, pendingAck{
			to:  from,
			msg: wire.AnswerAck{RuleID: m.RuleID, SubID: m.SubID, Base: m.Base, Seqs: m.Seqs},
		})
	}
	news := res.Added > 0
	p.ct.AddInserted(uint64(res.Added))
	p.ct.AddTruncated(uint64(res.Truncated))
	if news {
		p.ct.AddUpdates(1)
	} else {
		p.ct.AddDuplicate(1)
	}

	// Rule-part completeness (acyclic closure input).
	rc := p.ruleComplete[m.RuleID]
	if rc == nil {
		rc = map[string]bool{}
		p.ruleComplete[m.RuleID] = rc
	}
	rc[m.Part] = m.Complete

	if news {
		// New data invalidates path stability and may re-open the node.
		for k := range p.paths {
			p.paths[k] = false
		}
	} else {
		// The fix-point rule's positive side: a no-news round trip along a
		// maximal dependency path flags it stable.
		if k := p.pathKeyOf(m.Route); len(m.Route) > 0 {
			if _, exists := p.paths[k]; exists {
				p.paths[k] = true
			}
		}
	}

	// Propagation (A5): stop iff on the route with no news. A push that
	// carries newly derived data is a fresh result set originating here, so
	// its route restarts at this node; a no-news push relays a confirmation
	// of an earlier result set and extends its route — these extending
	// no-news cascades are what eventually traverse (and flag) every
	// maximal dependency path.
	if news {
		p.pushToSubsLocked([]string{p.id})
	} else if !routeContains(m.Route, p.id) {
		route := make([]string, 0, len(m.Route)+1)
		route = append(route, m.Route...)
		route = append(route, p.id)
		p.pushToSubsLocked(route)
	}

	p.checkClosureLocked()

	// Closure liveness in cycles: new data must trigger fresh confirming
	// cascades along this node's dependency paths.
	if news && len(p.cycleVia) > 0 && p.pathsReady && p.stateU == Open {
		p.sendQueriesLocked(nil, false, nil)
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
// about what of the new one has arrived. Callers hold mu.
func (p *Peer) handleAnswerAck(from string, m wire.AnswerAck) {
	sub, ok := p.subs[subKey(from, m.RuleID)]
	if !ok || sub.id != m.SubID || sub.st == nil {
		return
	}
	for rel, seq := range m.Seqs {
		// A missing base reads as zero: the priming answer's empty frontier.
		received, durable := sub.st.Ack(rel, m.Base[rel], seq, m.Durable)
		if received {
			sub.resendTries = 0
		}
		if durable {
			p.ackDirty = true // Handle persists the new durable frontier after unlock
		}
	}
}

// joinAnswerLocked merges one answer into the accumulated part results of a
// multi-source rule (monotone union; no retraction in the model, so delta and
// full answers merge identically) and joins it with the other parts. In delta
// mode only bindings a newly received tuple contributes to are derived; the
// faithful path re-joins the whole accumulated result set every time. Callers
// hold mu.
func (p *Peer) joinAnswerLocked(r rules.Rule, m wire.Answer, dm *rules.DomainMap) []relalg.Tuple {
	byPart := p.parts[m.RuleID]
	if byPart == nil {
		byPart = map[string]*partResult{}
		p.parts[m.RuleID] = byPart
	}
	pr := byPart[m.Part]
	if pr == nil {
		pr = &partResult{cols: m.Columns}
		byPart[m.Part] = pr
	}
	var fresh []relalg.Tuple
	collectFresh := p.opts.Delta || p.opts.PersistParts != nil
	for _, t := range m.Tuples {
		t = dm.TranslateTuple(t)
		if pr.tuples.Add(t) && collectFresh {
			fresh = append(fresh, t)
		}
	}
	if p.opts.PersistParts != nil && len(fresh) > 0 {
		// Persist the newly accumulated part tuples before the answer is
		// acknowledged: the source will never re-send below the acked
		// frontier, so anything backing future multi-source joins must be
		// recoverable here, not only at the next checkpoint.
		p.pendingParts = append(p.pendingParts, wal.PartState{
			RuleID: m.RuleID,
			Part:   m.Part,
			Cols:   append([]string(nil), pr.cols...),
			Tuples: append([]relalg.Tuple(nil), fresh...),
		})
	}
	if p.opts.Delta {
		return p.joinPartsDeltaLocked(r, m.Part, fresh)
	}
	return p.joinPartsLocked(r)
}

// joinPartsLocked joins the accumulated part results of a rule into bindings
// over the rule's export variables (in ExportVars order). Callers hold mu.
func (p *Peer) joinPartsLocked(r rules.Rule) []relalg.Tuple {
	byPart := p.parts[r.ID]
	parts := make(map[string]rules.PartTuples, len(byPart))
	for src, pr := range byPart {
		parts[src] = rules.PartTuples{Cols: pr.cols, Tuples: pr.tuples.All()}
	}
	return rules.JoinParts(r, parts)
}

// joinPartsDeltaLocked joins the newly received tuples of one part against
// the full accumulated extents of the other parts (semi-naive at the answer
// level). Every binding of the full join that uses at least one new tuple of
// this part is produced; bindings over old tuples only were already chased by
// an earlier answer. Callers hold mu.
func (p *Peer) joinPartsDeltaLocked(r rules.Rule, part string, fresh []relalg.Tuple) []relalg.Tuple {
	if len(fresh) == 0 {
		return nil
	}
	byPart := p.parts[r.ID]
	parts := make(map[string]rules.PartTuples, len(byPart))
	for src, pr := range byPart {
		if src == part {
			parts[src] = rules.PartTuples{Cols: pr.cols, Tuples: fresh}
			continue
		}
		parts[src] = rules.PartTuples{Cols: pr.cols, Tuples: pr.tuples.All()}
	}
	return rules.JoinParts(r, parts)
}

// pushToSubsLocked re-answers every subscriber with the current evaluation
// (A5's owner push), extending the route. Callers hold mu.
func (p *Peer) pushToSubsLocked(route []string) {
	for _, k := range p.subKeysLocked() {
		p.evalAndSendLocked(p.subs[k], route)
	}
	p.dropIfClosedLocked()
}

// evalAndSendLocked re-evaluates one subscription and ships the answer,
// stamped with the sequence range the evaluation covered. Callers hold mu.
func (p *Peer) evalAndSendLocked(sub *subscription, route []string) {
	epoch := sub.epoch
	if p.epoch > epoch {
		epoch = p.epoch
	}
	a := wire.Answer{
		Epoch:    epoch,
		RuleID:   sub.ruleID,
		Part:     p.id,
		Columns:  sub.q.cols,
		Complete: p.stateU == Closed,
		Delta:    p.opts.Delta,
		Route:    route,
	}
	p.evalForSub(sub, &a)
	p.Send(sub.dependent, a)
}

// notifySubsLocked ships empty state-change notifications (closure or
// re-opening) to all subscribers. Callers hold mu.
func (p *Peer) notifySubsLocked(complete bool) {
	for _, k := range p.subKeysLocked() {
		sub := p.subs[k]
		epoch := sub.epoch
		if p.epoch > epoch {
			epoch = p.epoch
		}
		p.Send(sub.dependent, wire.Answer{
			Epoch:    epoch,
			RuleID:   sub.ruleID,
			Part:     p.id,
			Columns:  sub.q.cols,
			Complete: complete,
			Delta:    true, // empty delta: a pure flag carrier
			Route:    []string{p.id},
		})
	}
}

// checkClosureLocked recomputes state_u from the closure conditions and
// performs the open↔closed transition with subscriber notification. Callers
// hold mu.
func (p *Peer) checkClosureLocked() {
	if !p.activated {
		return
	}
	closed := p.closureHoldsLocked()
	switch {
	case closed && p.stateU == Open:
		p.stateU = Closed
		p.ct.SetUpdateClosed(time.Since(p.started))
		p.dropIfClosedLocked()
		p.notifySubsLocked(true)
	case !closed && p.stateU == Closed:
		p.stateU = Open
		p.notifySubsLocked(false)
	}
}

// probeLocked regenerates the confirming cascades of an open node in both
// directions: re-pulling makes the sources re-answer (routes that start at
// them and confirm the paths of the nodes they pass), re-originating this
// node's own result set to its subscribers (an empty delta per subscription
// in delta mode) starts the routes that come back around and confirm this
// node's own cyclic paths. Callers hold mu.
func (p *Peer) probeLocked() {
	if p.activated && p.stateU == Open {
		p.sendQueriesLocked(nil, false, nil)
		p.pushToSubsLocked([]string{p.id})
	}
}

// closureHoldsLocked evaluates Lemma 1's fix-point condition per rule part:
// for every source either the source declared itself complete (acyclic
// closure: its data is final and incorporated) or every cyclic dependency
// path through that source — the paths whose confirming cascades this node
// itself regenerates by re-querying — is flagged stable. Dead-end paths
// through a source are subsumed by that source's own completeness; mixing
// the two conditions globally would deadlock two open cycle partners whose
// other branches lead into already-closed regions (closed nodes never
// re-query, so those branch confirmations could not regenerate).
func (p *Peer) closureHoldsLocked() bool {
	if len(p.rules) == 0 {
		return true
	}
	for id, r := range p.rules {
		rc := p.ruleComplete[id]
		for _, src := range r.SourceNodes() {
			if rc != nil && rc[src] {
				continue
			}
			// Source not complete: fall back to cyclic confirmation.
			if !p.pathsReady {
				return false
			}
			confirmed := false
			for key, via := range p.cycleVia {
				if via != src {
					continue // not a cyclic path through this source
				}
				if !p.paths[key] {
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

// WaitingOn lists what an open node's closure is waiting on, sorted: its
// unflagged cyclic dependency paths ("X→Y→X") and the sources that have not
// declared themselves complete. The update driver prints it for a node still
// open at a settled network.
func (p *Peer) WaitingOn() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	var out []string
	for key := range p.cycleVia {
		if !p.paths[key] {
			out = append(out, strings.ReplaceAll(key, "\x00", "→"))
		}
	}
	for id, r := range p.rules {
		for _, src := range r.SourceNodes() {
			if !p.ruleComplete[id][src] {
				out = append(out, "source "+src+" of rule "+id)
			}
		}
	}
	sort.Strings(out)
	return out
}

// QueryDependentUpdate starts a scoped pull wave that materialises only the
// data relevant to the given local query body (Section 5's query-dependent
// updates). The caller should wait for network quiescence and then evaluate
// the query locally.
func (p *Peer) QueryDependentUpdate(body string) error {
	conj, err := cq.ParseConjunction(body)
	if err != nil {
		return err
	}
	need := map[string]bool{}
	for _, a := range conj.Atoms {
		need[a.Rel] = true
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.sendQueriesLocked(nil, true, need)
	return nil
}
