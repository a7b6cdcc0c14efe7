package core

import (
	"fmt"
	"sort"

	"repro/internal/peer"
	"repro/internal/storage"
	"repro/internal/wal"
)

// Re-homing: when a node's primary dies permanently, the control plane elects
// the replica with the highest durable frontier and that member *adopts* the
// node — builds a live peer for it from the mirror database, the mirror's
// write-ahead store and the last shipped protocol state, and serves it under
// the dead node's name. The network definition never changes: adoption only
// moves where one of its nodes runs.

// hosted snapshots the peer table, store table and node order under defMu.
// Adopt and Release replace all three copy-on-write, so a returned snapshot
// is immutable and safe to iterate without holding the lock.
func (n *Network) hosted() (map[string]*peer.Peer, map[string]*wal.Store, []string) {
	n.defMu.Lock()
	defer n.defMu.Unlock()
	return n.peers, n.stores, n.order
}

// Adopt builds and wires a peer for a node this process did not host: db is
// the promoted mirror's database (its relation seqs must equal the dead
// primary's — the replication stream guarantees it), st its already-attached
// durable store (nil for an in-memory network; Adopt must NOT re-attach it,
// the mirror has been logging applied inserts since creation), and restore
// the last protocol state the dead primary shipped (nil when none arrived:
// the peer starts with no standing subscriptions and the next update wave
// rebuilds them). The transport must already route the node's name to this
// process (cluster.Transport.AllowAlias). Adopting an already-hosted node is
// an error — promotions are agreed, so a double adoption is a logic bug.
func (n *Network) Adopt(node string, db *storage.DB, st *wal.Store, restore *wal.State) error {
	n.defMu.Lock()
	defer n.defMu.Unlock()
	if _, ok := n.peers[node]; ok {
		return fmt.Errorf("core: node %q is already hosted here", node)
	}
	decl, ok := n.def.Node(node)
	if !ok {
		return fmt.Errorf("core: adopt unknown node %q", node)
	}
	// Peers this process already hosts learned the node's name at Build time
	// (neighbor wiring reads the full definition), so only the adopted side
	// needs edges — which newPeer wires.
	p, err := n.newPeer(decl, wiring(n.def)[node], db, st, restore)
	if err != nil {
		return err
	}
	n.installLocked(node, p, st)
	return nil
}

// Release is Adopt's inverse: the agreed log re-homed the node to another
// member, so this process stops serving it. The peer's watchers, resend loop
// and ack worker stop, and it leaves the tables; its store (nil for an
// in-memory network) is handed back unsealed for the caller to discard — the
// copy is no longer authoritative. The caller also stops routing the name
// here (cluster.Transport.Unregister). Releasing a node not hosted here is a
// no-op returning nil.
func (n *Network) Release(node string) *wal.Store {
	n.defMu.Lock()
	p, st := n.peers[node], n.stores[node]
	if p != nil {
		n.installLocked(node, nil, nil)
	}
	n.defMu.Unlock()
	if p != nil {
		p.CloseWatchers()
	}
	return st
}

// installLocked replaces the peer, store and order tables copy-on-write with
// node set to p/st (removed when p is nil): snapshots handed out by hosted()
// before this point stay valid and immutable. Callers hold defMu.
func (n *Network) installLocked(node string, p *peer.Peer, st *wal.Store) {
	peers := make(map[string]*peer.Peer, len(n.peers)+1)
	for k, v := range n.peers {
		peers[k] = v
	}
	stores := make(map[string]*wal.Store, len(n.stores)+1)
	for k, v := range n.stores {
		stores[k] = v
	}
	delete(peers, node)
	delete(stores, node)
	if p != nil {
		peers[node] = p
		if st != nil {
			stores[node] = st
		}
	}
	order := make([]string, 0, len(peers))
	for k := range peers {
		order = append(order, k)
	}
	sort.Strings(order)
	n.peers, n.stores, n.order = peers, stores, order
}
