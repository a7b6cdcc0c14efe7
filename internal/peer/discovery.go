package peer

import (
	"fmt"
	"time"

	"repro/internal/wire"
)

// Topology discovery (algorithms A1–A3 of the paper).
//
// Each discovery run is a wave identified by "origin#seq". The wave flows
// along dependency edges (towards rule sources) as requestNodes messages and
// echoes versioned edge knowledge back as processAnswer messages. The first
// request a node sees for a wave makes the sender its tree parent; repeated
// requests are answered immediately with the node's current knowledge and
// Finished=true (the branch terminates there — the loop case of A2).
// Whenever a node's accumulated knowledge grows, it pushes the new state to
// every requester of every live wave (the gossip of A3), so at quiescence
// every participating node holds the complete edge set of its reachable
// subgraph and can compute its maximal dependency paths locally.

// StartDiscovery begins a fresh discovery wave with this peer as origin
// (algorithm A1, run by the super-peer — or by any peer lazily when it first
// participates in a wave or an update). It returns the wave id.
func (p *Peer) StartDiscovery() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.startDiscoveryLocked()
}

func (p *Peer) startDiscoveryLocked() string {
	p.waveSeq++
	wave := fmt.Sprintf("%s#%d", p.id, p.waveSeq)
	p.selfWave = wave
	p.pathsReady = false
	p.discStarted = time.Now()

	w := &discWave{requesters: map[string]bool{}, pendingSrc: map[string]bool{}}
	p.waves[wave] = w
	for _, src := range p.ruleSources() {
		w.pendingSrc[src] = true
	}
	if len(w.pendingSrc) == 0 {
		// A1: a node with no rules knows the whole (empty) reachable
		// topology immediately: Paths = ∅, state_d = closed.
		p.completeOwnWave(w)
		return wave
	}
	for src := range w.pendingSrc {
		p.Send(src, wire.RequestNodes{Wave: wave})
	}
	return wave
}

// ruleSources returns the distinct source nodes of this peer's rules.
func (p *Peer) ruleSources() []string {
	set := map[string]bool{}
	for _, r := range p.rules {
		for _, s := range r.SourceNodes() {
			set[s] = true
		}
	}
	out := make([]string, 0, len(set))
	for s := range set {
		out = append(out, s)
	}
	return out
}

// isOwnWave reports whether the wave id was originated by the node.
func isOwnWave(wave, id string) bool {
	return len(wave) > len(id) && wave[:len(id)] == id && wave[len(id)] == '#'
}

// handleRequestNodes implements A2. Callers hold mu.
func (p *Peer) handleRequestNodes(from string, m wire.RequestNodes) {
	// Participating in any wave lazily triggers this node's own discovery,
	// so that "each node will know about all the maximal dependency paths
	// starting from it" even with a single initiating super-peer.
	if p.selfWave == "" && !isOwnWave(m.Wave, p.id) && len(p.rules) > 0 {
		p.startDiscoveryLocked()
	}

	w, known := p.waves[m.Wave]
	if !known {
		// First request for this wave: the sender becomes the tree parent.
		w = &discWave{parent: from, requesters: map[string]bool{from: true}, pendingSrc: map[string]bool{}}
		p.waves[m.Wave] = w
		for _, src := range p.ruleSources() {
			w.pendingSrc[src] = true
		}
		if len(w.pendingSrc) == 0 {
			// Leaf: answer immediately, branch finished.
			w.finished = true
			p.Send(from, wire.DiscoveryAnswer{Wave: m.Wave, Knowledge: p.knowledgeList(), Finished: true})
			return
		}
		for src := range w.pendingSrc {
			p.Send(src, wire.RequestNodes{Wave: m.Wave})
		}
		// Streaming partial answer (A2 answers the requester right away).
		p.Send(from, wire.DiscoveryAnswer{Wave: m.Wave, Knowledge: p.knowledgeList(), Finished: false})
		return
	}
	// Repeat request (non-tree edge / loop): answer immediately with the
	// current knowledge and terminate the branch for the requester (A2's
	// else sets finished). The requester keeps receiving gossip pushes as
	// the wave progresses, so its knowledge still converges; completeness
	// at the origin is guaranteed by the spanning tree, which visits every
	// reachable node exactly once.
	w.requesters[from] = true
	p.Send(from, wire.DiscoveryAnswer{Wave: m.Wave, Knowledge: p.knowledgeList(), Finished: true})
}

// handleDiscoveryAnswer implements A3. Callers hold mu.
func (p *Peer) handleDiscoveryAnswer(from string, m wire.DiscoveryAnswer) {
	grew := p.mergeKnowledge(m.Knowledge)

	w, known := p.waves[m.Wave]
	if known && !w.finished {
		if m.Finished {
			delete(w.pendingSrc, from)
		}
		if len(w.pendingSrc) == 0 {
			w.finished = true
			if w.parent == "" && p.selfWave == m.Wave {
				p.completeOwnWave(w)
			}
			// Echo completion (with full knowledge) to everyone awaiting
			// this wave.
			for r := range w.requesters {
				p.Send(r, wire.DiscoveryAnswer{Wave: m.Wave, Knowledge: p.knowledgeList(), Finished: true})
			}
			grew = false // the sends above already carry the latest state
		}
	}

	if grew {
		// Gossip: push improved knowledge to every requester of every
		// still-relevant wave, and keep local paths fresh. A path that only
		// appears now starts unflagged like the ones completeOwnWave computes,
		// and is owed the same regenerated cascades.
		if p.pathsReady && p.recomputePaths() {
			p.probeLocked()
		}
		seen := map[string]bool{}
		for waveID, lw := range p.waves {
			for r := range lw.requesters {
				if seen[r+waveID] {
					continue
				}
				seen[r+waveID] = true
				p.Send(r, wire.DiscoveryAnswer{Wave: waveID, Knowledge: p.knowledgeList(), Finished: lw.finished})
			}
		}
	}
}

// completeOwnWave finalises this node's own discovery: compute the maximal
// dependency paths (Definitions 6–7) and mark state_d closed. Callers hold
// mu.
func (p *Peer) completeOwnWave(w *discWave) {
	w.finished = true
	p.recomputePaths()
	p.pathsReady = true
	p.ct.SetDiscoveryClosed(time.Since(p.discStarted))
	// If an update epoch is already running, the freshly computed paths start
	// unflagged and the cascades that would have confirmed them may already
	// have passed: regenerate them (closure liveness).
	p.probeLocked()
}
