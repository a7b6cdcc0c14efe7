package peer

import (
	"fmt"

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

// handleAddRule implements the addLink notification. Callers hold mu.
func (p *Peer) handleAddRule(m wire.AddRuleNotice) {
	r, err := rules.ParseRule(m.RuleText)
	if err != nil || r.HeadNode != p.id {
		return
	}
	// Redefining an existing id invalidates its accumulated part results
	// (different body, different columns); fresh pulls rebuild them.
	if prev, ok := p.rules[r.ID]; ok && prev.String() != r.String() {
		delete(p.parts, r.ID)
		delete(p.ruleComplete, r.ID)
		p.reprimeWatchers()
	}
	p.rules[r.ID] = r
	for _, src := range r.SourceNodes() {
		p.neighbors[src] = true
	}
	p.afterTopologyChangeLocked()

	// Pull through the new rule immediately when an update is running.
	if p.activated {
		if p.stateU == Closed {
			p.stateU = Open
			p.notifySubsLocked(false)
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
				Path:        []string{p.id},
				Incarnation: p.inc,
			})
		}
	}
}

// handleDeleteRule implements the deleteLink notification. Callers hold mu.
func (p *Peer) handleDeleteRule(m wire.DeleteRuleNotice) {
	r, ok := p.rules[m.RuleID]
	if !ok {
		return
	}
	delete(p.rules, m.RuleID)
	delete(p.ruleComplete, m.RuleID)
	delete(p.parts, m.RuleID)
	p.reprimeWatchers()
	for _, src := range r.SourceNodes() {
		p.Send(src, wire.Unsubscribe{RuleID: m.RuleID})
	}
	p.afterTopologyChangeLocked()
	// Fewer rules can only make closure easier; recheck.
	p.checkClosureLocked()
}

// afterTopologyChangeLocked re-asserts this node's edges, floods a
// TopoChanged hint to the transitive dependents, and starts a fresh
// discovery wave so paths are recomputed against current topology. Callers
// hold mu.
func (p *Peer) afterTopologyChangeLocked() {
	p.refreshOwnEdges()
	changeID := fmt.Sprintf("%s@%d", p.id, p.ownVersion)
	p.seenChanges[changeID] = true
	for _, dep := range p.dependentsLocked() {
		p.Send(dep, wire.TopoChanged{ChangeID: changeID})
	}
	if len(p.rules) > 0 || p.selfWave != "" {
		p.startDiscoveryLocked()
	}
}

// dependentsLocked lists the distinct subscribers of this node.
func (p *Peer) dependentsLocked() []string {
	set := map[string]bool{}
	for _, sub := range p.subs {
		set[sub.dependent] = true
	}
	out := make([]string, 0, len(set))
	for d := range set {
		out = append(out, d)
	}
	return out
}

// handleTopoChanged marks discovered paths stale and lazily re-discovers,
// forwarding the hint to this node's own dependents. Callers hold mu.
func (p *Peer) handleTopoChanged(m wire.TopoChanged) {
	if p.seenChanges[m.ChangeID] {
		return
	}
	p.seenChanges[m.ChangeID] = true
	for _, dep := range p.dependentsLocked() {
		p.Send(dep, wire.TopoChanged{ChangeID: m.ChangeID})
	}
	if len(p.rules) > 0 {
		p.startDiscoveryLocked() // recomputes paths; re-pulls when it completes
	}
}

// handleSetNetwork adopts the relevant part of a broadcast network file
// (Section 5: the super-peer "can read coordination rules for all peers from
// a file and broadcast this file to all peers"). Callers hold mu.
func (p *Peer) handleSetNetwork(m wire.SetNetwork) {
	net, err := rules.ParseNetwork(m.Text)
	if err != nil {
		return
	}
	if decl, ok := net.Node(p.id); ok {
		for _, s := range decl.Schemas {
			_ = p.db.AddSchema(s)
		}
	}
	fresh := map[string]rules.Rule{}
	for _, r := range net.Rules {
		if r.HeadNode == p.id {
			fresh[r.ID] = r
			for _, src := range r.SourceNodes() {
				p.neighbors[src] = true
			}
		}
		for _, src := range r.SourceNodes() {
			if src == p.id {
				p.neighbors[r.HeadNode] = true
			}
		}
	}
	// Unsubscribe from sources of dropped rules; redefined rules lose their
	// accumulated part results too (fresh pulls rebuild them).
	for id, r := range p.rules {
		if kept, ok := fresh[id]; !ok {
			for _, src := range r.SourceNodes() {
				p.Send(src, wire.Unsubscribe{RuleID: id})
			}
			delete(p.ruleComplete, id)
			delete(p.parts, id)
			p.reprimeWatchers()
		} else if kept.String() != r.String() {
			delete(p.ruleComplete, id)
			delete(p.parts, id)
			p.reprimeWatchers()
		}
	}
	p.rules = fresh
	p.afterTopologyChangeLocked()
	if p.activated && len(p.rules) > 0 {
		if p.stateU == Closed {
			p.stateU = Open
			p.notifySubsLocked(false)
		}
		p.sendQueriesLocked(nil, false, nil)
	}
}

// AddRuleLocal applies addLink directly on this peer (the in-process
// equivalent of receiving an AddRuleNotice; used by orchestration).
func (p *Peer) AddRuleLocal(ruleText string) error {
	r, err := rules.ParseRule(ruleText)
	if err != nil {
		return err
	}
	if r.HeadNode != p.id {
		return fmt.Errorf("peer %s: rule %s targets %s", p.id, r.ID, r.HeadNode)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.handleAddRule(wire.AddRuleNotice{RuleText: ruleText})
	return nil
}

// DeleteRuleLocal applies deleteLink directly on this peer.
func (p *Peer) DeleteRuleLocal(ruleID string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.handleDeleteRule(wire.DeleteRuleNotice{RuleID: ruleID})
}

// Probe is the orchestration layer's closure probe: when the network is
// settled but this node is still open, it regenerates the confirming cascades
// (see probeLocked), each probe at fix-point cost.
func (p *Peer) Probe() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.probeLocked()
}
