package peer

// Support for the topology-aware update strategy (the paper's §3 note that
// optimisations can "exploit the knowledge of specific topological
// structures"). The orchestrator activates every peer quietly, then drives
// pulls SCC by SCC in dependency order, so each stage reads already-final
// sources: no intermediate change waves, no redundant re-pulls.

// ActivateQuiet joins the update epoch without flooding the kick-off and
// without pulling: the orchestrator controls when this peer pulls. A peer
// with no rules closes immediately, as in the normal activation.
func (p *Peer) ActivateQuiet(epoch uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.activated || p.epoch < epoch {
		p.activateLocked(epoch, "", true)
	}
}

// ForcePull issues this peer's own queries unconditionally (fresh requester
// chain), regardless of state or forwarding dedup. Used by the staged update
// strategy and by operators.
func (p *Peer) ForcePull() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.activated || len(p.rules) == 0 {
		return
	}
	p.sendQueriesLocked(nil, false, nil)
}
