package peer

import (
	"fmt"

	"repro/internal/cq"
	"repro/internal/relalg"
	"repro/internal/rules"
	"repro/internal/wire"
)

// Dynamic network changes (Section 4) and super-peer verbs (Section 5).
//
// addLink/deleteLink notify the head node of the changed rule
// (AddRuleNotice/DeleteRuleNotice). The head node adopts the change, bumps
// its self-asserted edge version, floods a TopoChanged hint to its transitive
// dependents (whose maximal dependency paths may traverse the changed edge),
// and re-discovers. Dependents receiving the hint do the same lazily. A
// super-peer can broadcast a whole network file (SetNetwork) and collect or
// reset statistics.

// handleAddRule implements the addLink notification.
func (s *peerState) handleAddRule(m wire.AddRuleNotice) {
	r, err := rules.ParseRule(m.RuleText)
	if err != nil || r.HeadNode != s.id {
		return
	}
	// Redefining an existing id invalidates its accumulated part results
	// (different body, different columns); fresh pulls rebuild them.
	if prev, ok := s.rules[r.ID]; ok && prev.String() != r.String() {
		s.forgetRule(r.ID)
	}
	s.rules[r.ID] = r
	for _, src := range r.SourceNodes() {
		s.neighbors[src] = true
	}
	s.afterTopologyChange()

	// Pull through the new rule immediately when an update is running.
	if s.activated {
		s.reopen()
		s.sendRuleQueries(r, []string{s.id}, false)
	}
}

// forgetRule drops what a deleted or redefined rule accumulated here. The
// watchers are left alone: the hub evaluates over stored, append-only
// relations, which a rule change does not rewrite, so every class's prime
// plus its deltas still are its full result at the frontier.
func (s *peerState) forgetRule(id string) {
	delete(s.ruleComplete, id)
	delete(s.parts, id)
}

// handleDeleteRule implements the deleteLink notification.
func (s *peerState) handleDeleteRule(m wire.DeleteRuleNotice) {
	r, ok := s.rules[m.RuleID]
	if !ok {
		return
	}
	delete(s.rules, m.RuleID)
	s.forgetRule(m.RuleID)
	for _, src := range r.SourceNodes() {
		s.send(src, wire.Unsubscribe{RuleID: m.RuleID})
	}
	s.afterTopologyChange()
	// Fewer rules can only make closure easier; recheck.
	s.checkClosure()
}

// afterTopologyChange re-asserts this node's edges, floods a TopoChanged hint
// to the transitive dependents, and starts a fresh discovery wave so paths
// are recomputed against current topology.
func (s *peerState) afterTopologyChange() {
	s.refreshOwnEdges()
	changeID := fmt.Sprintf("%s@%d", s.id, s.ownVersion)
	s.seenChanges[changeID] = true
	s.tellDependents(changeID)
	if len(s.rules) > 0 || s.selfWave != "" {
		s.startDiscovery()
	}
}

// tellDependents forwards a TopoChanged hint to each distinct subscriber.
func (s *peerState) tellDependents(changeID string) {
	told := map[string]bool{}
	for _, k := range sortedKeys(s.subs) {
		if dep := s.subs[k].dependent; !told[dep] {
			told[dep] = true
			s.send(dep, wire.TopoChanged{ChangeID: changeID})
		}
	}
}

// handleTopoChanged marks discovered paths stale and lazily re-discovers,
// forwarding the hint to this node's own dependents.
func (s *peerState) handleTopoChanged(m wire.TopoChanged) {
	if s.seenChanges[m.ChangeID] {
		return
	}
	s.seenChanges[m.ChangeID] = true
	s.tellDependents(m.ChangeID)
	if len(s.rules) > 0 {
		s.startDiscovery() // recomputes paths; re-pulls when it completes
	}
}

// handleSetNetwork adopts the relevant part of a broadcast network file
// (Section 5: the super-peer "can read coordination rules for all peers from
// a file and broadcast this file to all peers").
func (s *peerState) handleSetNetwork(m wire.SetNetwork) {
	net, err := rules.ParseNetwork(m.Text)
	if err != nil {
		return
	}
	if decl, ok := net.Node(s.id); ok {
		for _, sc := range decl.Schemas {
			_ = s.db.AddSchema(sc)
		}
	}
	fresh := map[string]rules.Rule{}
	for _, r := range net.Rules {
		if r.HeadNode == s.id {
			fresh[r.ID] = r
			for _, src := range r.SourceNodes() {
				s.neighbors[src] = true
			}
		}
		for _, src := range r.SourceNodes() {
			if src == s.id {
				s.neighbors[r.HeadNode] = true
			}
		}
	}
	// Unsubscribe from sources of dropped rules; redefined rules lose their
	// accumulated part results too (fresh pulls rebuild them).
	for _, id := range sortedKeys(s.rules) {
		r := s.rules[id]
		if kept, ok := fresh[id]; !ok {
			for _, src := range r.SourceNodes() {
				s.send(src, wire.Unsubscribe{RuleID: id})
			}
			s.forgetRule(id)
		} else if kept.String() != r.String() {
			s.forgetRule(id)
		}
	}
	s.rules = fresh
	s.afterTopologyChange()
	if s.activated && len(s.rules) > 0 {
		s.reopen()
		s.sendQueries(nil, false, nil)
	}
}

// handleQueryRequest evaluates a remote local query (the coordinator's form
// of Definition 4) and ships the rows — or the error — back.
func (s *peerState) handleQueryRequest(from string, m wire.QueryRequest) {
	res := wire.QueryResult{ID: m.ID, Columns: m.Cols}
	if rows, err := s.localQuery(m.Body, m.Cols); err != nil {
		res.Err = err.Error()
	} else {
		res.Tuples = rows
	}
	s.send(from, res)
}

// localQuery evaluates a conjunctive query against the local database only
// (Definition 4: after a completed update, local answers are global
// answers). The rows come back in canonical order.
func (s *peerState) localQuery(body string, outVars []string) ([]relalg.Tuple, error) {
	conj, err := cq.ParseConjunction(body)
	if err != nil {
		return nil, err
	}
	s.ct.AddQueries(1)
	rows, err := cq.Eval(s.db, conj, outVars)
	relalg.SortTuples(rows)
	return rows, err
}
