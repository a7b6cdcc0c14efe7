package core

import (
	"context"
	"fmt"

	"repro/internal/peer"
	"repro/internal/relalg"
	"repro/internal/rules"
)

// Node is a live handle on one peer of a running network: the online half of
// the API. Where Discover/Update/LocalQuery treat the network as a batch
// system, a Node accepts writes at any time (Insert, propagated incrementally
// through the standing subscriptions without restarting a full Update) and
// registers continuous queries (Watch, streaming result deltas as imported or
// local tuples arrive) — the long-lived regime the paper's model describes.
type Node struct {
	n  *Network
	p  *peer.Peer
	id string
}

// Watcher is a continuous query's delta stream; re-exported from the peer
// runtime so orchestration callers need not import it.
type Watcher = peer.Watcher

// Node returns a live handle on the named peer, or nil when the node does
// not exist (the handle's methods then report the error).
func (n *Network) Node(id string) *Node {
	p := n.Peer(id)
	if p == nil {
		return nil
	}
	return &Node{n: n, p: p, id: id}
}

// Insert performs an online local write: the tuples enter the node's
// database immediately and anything new flows to all subscribed dependents
// as an incremental re-answer (semi-naive under Options.Delta), without
// restarting a full Update. The batch is validated up front and applied
// all-or-nothing; on success the network definition records the facts, so
// ValidateAgainstCentralized stays an oracle for the live workload. It
// returns how many tuples were new. Call Quiesce to wait until the implied
// data has finished propagating.
func (h *Node) Insert(ctx context.Context, rel string, tuples ...relalg.Tuple) (int, error) {
	if h == nil {
		return 0, fmt.Errorf("core: insert at unknown node")
	}
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	added, err := h.p.InsertLocal(rel, tuples...)
	if err != nil {
		return added, err
	}
	if added > 0 { // a fully-duplicate batch must not grow the definition
		h.n.defMu.Lock()
		for _, t := range tuples {
			h.n.def.Facts = append(h.n.def.Facts, rules.Fact{Node: h.id, Rel: rel, Tuple: t.Clone()})
		}
		h.n.defMu.Unlock()
	}
	return added, nil
}

// Watch registers a continuous query over the node's local database: the
// first batch on the channel is the current result (possibly empty; always
// sent), every later batch the freshly derivable result tuples, each exactly
// once. The watcher closes with the network, or earlier via its own Close.
func (h *Node) Watch(body string, outVars []string) (*Watcher, error) {
	if h == nil {
		return nil, fmt.Errorf("core: watch at unknown node")
	}
	return h.p.Watch(body, outVars)
}

// Query answers a conjunctive query from the node's local database only
// (Definition 4; globally sound and complete once the network is quiescent).
func (h *Node) Query(body string, outVars []string) ([]relalg.Tuple, error) {
	if h == nil {
		return nil, fmt.Errorf("core: query at unknown node")
	}
	return h.p.LocalQuery(body, outVars)
}
