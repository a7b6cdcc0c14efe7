package peer

import (
	"fmt"
	"strings"

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

// startDiscovery begins a fresh discovery wave with this peer as origin
// (algorithm A1, run by the super-peer — or by any peer lazily when it first
// participates in a wave or an update).
func (s *peerState) startDiscovery() {
	s.waveSeq++
	wave := fmt.Sprintf("%s#%d", s.id, s.waveSeq)
	s.selfWave = wave
	s.pathsReady = false
	s.discStarted = s.now

	w := s.newWave("", wave)
	if len(w.pendingSrc) == 0 {
		// A1: a node with no rules knows the whole (empty) reachable
		// topology immediately: Paths = ∅, state_d = closed.
		s.completeOwnWave(w)
	}
}

// newWave enters a wave this node takes part in, with the given tree parent,
// and asks every rule source for its part of it.
func (s *peerState) newWave(parent, wave string) *discWave {
	w := &discWave{parent: parent, requesters: map[string]bool{}, pendingSrc: map[string]bool{}}
	if parent != "" {
		w.requesters[parent] = true
	}
	s.waves[wave] = w
	for _, src := range s.ruleSources() {
		w.pendingSrc[src] = true
		s.send(src, wire.RequestNodes{Wave: wave})
	}
	return w
}

// handleRequestNodes implements A2.
func (s *peerState) handleRequestNodes(from string, m wire.RequestNodes) {
	// Participating in any wave lazily triggers this node's own discovery,
	// so that "each node will know about all the maximal dependency paths
	// starting from it" even with a single initiating super-peer.
	if s.selfWave == "" && !strings.HasPrefix(m.Wave, s.id+"#") && len(s.rules) > 0 {
		s.startDiscovery()
	}

	w, known := s.waves[m.Wave]
	if !known {
		// First request for this wave: the sender becomes the tree parent.
		// A leaf's branch is finished at once; an inner node streams a
		// partial answer (A2 answers the requester right away).
		w = s.newWave(from, m.Wave)
		w.finished = len(w.pendingSrc) == 0
		s.send(from, wire.DiscoveryAnswer{Wave: m.Wave, Knowledge: s.knowledgeList(), Finished: w.finished})
		return
	}
	// Repeat request (non-tree edge / loop): answer immediately with the
	// current knowledge and terminate the branch for the requester (A2's
	// else sets finished). The requester keeps receiving gossip pushes as
	// the wave progresses, so its knowledge still converges; completeness
	// at the origin is guaranteed by the spanning tree, which visits every
	// reachable node exactly once.
	w.requesters[from] = true
	s.send(from, wire.DiscoveryAnswer{Wave: m.Wave, Knowledge: s.knowledgeList(), Finished: true})
}

// handleDiscoveryAnswer implements A3.
func (s *peerState) handleDiscoveryAnswer(from string, m wire.DiscoveryAnswer) {
	grew := s.mergeKnowledge(m.Knowledge)

	w, known := s.waves[m.Wave]
	if known && !w.finished {
		if m.Finished {
			delete(w.pendingSrc, from)
		}
		if len(w.pendingSrc) == 0 {
			w.finished = true
			if w.parent == "" && s.selfWave == m.Wave {
				s.completeOwnWave(w)
			}
			// Echo completion (with full knowledge) to everyone awaiting
			// this wave.
			for _, r := range sortedKeys(w.requesters) {
				s.send(r, wire.DiscoveryAnswer{Wave: m.Wave, Knowledge: s.knowledgeList(), Finished: true})
			}
			grew = false // the sends above already carry the latest state
		}
	}

	if grew {
		// Gossip: push improved knowledge to every requester of every
		// still-relevant wave, and keep local paths fresh. A path that only
		// appears now starts unflagged like the ones completeOwnWave computes,
		// and is owed the same regenerated cascades.
		if s.pathsReady && s.recomputePaths() {
			s.probe()
		}
		for _, waveID := range sortedKeys(s.waves) {
			lw := s.waves[waveID]
			for _, r := range sortedKeys(lw.requesters) {
				s.send(r, wire.DiscoveryAnswer{Wave: waveID, Knowledge: s.knowledgeList(), Finished: lw.finished})
			}
		}
	}
}

// completeOwnWave finalises this node's own discovery: compute the maximal
// dependency paths (Definitions 6–7) and mark state_d closed.
func (s *peerState) completeOwnWave(w *discWave) {
	w.finished = true
	s.recomputePaths()
	s.pathsReady = true
	s.ct.SetDiscoveryClosed(s.now.Sub(s.discStarted))
	// If an update epoch is already running, the freshly computed paths start
	// unflagged and the cascades that would have confirmed them may already
	// have passed: regenerate them (closure liveness).
	s.probe()
}
