package cluster

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/consensus"
	"repro/internal/core"
	"repro/internal/peer"
	"repro/internal/replica"
	"repro/internal/rules"
)

// MemberConfig is everything one cluster member boots from: which node of
// which definition it hosts, where it listens, and the four layers' own
// options passed through unchanged. Nothing here is a tunable of its own.
type MemberConfig struct {
	Def    *rules.Network
	Node   string
	Listen string            // this member's listen address
	Book   map[string]string // address book: node -> host:port of the members known so far

	Cluster Options
	// Core configures the hosted network. Boot sets Transport and Hosted.
	Core core.Options
	// Control, when non-nil, runs the agreed control plane over the
	// definition's node set; with Core.DataDir set the applied entries persist
	// at DataDir/<node>.control.log unless Consensus.LogPath says otherwise.
	// Boot installs the replication hooks (Frontier, OnPromote, OnDeposed).
	// Nil leaves the peer handling the kick-off verbs directly.
	Control *ControlPlaneOptions
	// Replica tunes the replica manager, which runs when
	// Control.Replication.K is positive. Boot sets Member, Nodes, K, DataDir
	// and WAL.Fsync from the other fields.
	Replica replica.Options
}

// Member is one booted cluster member: the membership transport, the hosted
// network on it, and — when configured — the agreed control plane and the
// replica manager, wired together the one way `p2pdb serve` needs them. It
// owns what the layers need from each other: the hooks between control plane
// and replica manager, promotion and boot re-adoption of re-homed nodes,
// giving a node up when the agreed log moves it elsewhere, the member-up
// resend hook and the departed-client watch cancel.
type Member struct {
	node string
	tr   *Transport
	net  *core.Network
	cp   *ControlPlane
	mgr  *replica.Manager

	// The control plane and the replica manager are mutually referential —
	// the plane's election hooks call into the manager, the manager reads the
	// plane's agreed placement — so the manager is built right after the
	// plane and the hooks wait on mgrReady (mgr stays nil if Boot failed or
	// replication is off).
	mgrReady chan struct{}
	// hostMu serialises promote and depose: a won election and a lost one for
	// the same node run on separate goroutines, and each re-reads the agreed
	// host under the lock, so the last to run leaves what the log says.
	hostMu sync.Mutex

	deposed    chan struct{}
	deposeOnce sync.Once

	closeOnce sync.Once // Close, Crash and a deposal of the member's own node race; the first one shuts it down
	closeErr  error
}

// Boot starts one member and joins it to the cluster. It fails when the
// agreed log of a previous lifetime already re-homed the member's own node:
// serving on would fork it.
func Boot(cfg MemberConfig) (*Member, error) {
	tr, err := New(cfg.Node, cfg.Listen, cfg.Book, cfg.Cluster)
	if err != nil {
		return nil, err
	}
	co := cfg.Core
	co.Transport = tr
	co.Hosted = []string{cfg.Node}
	n, err := core.Build(cfg.Def, co) // Build owns tr from here (closes it on error)
	if err != nil {
		return nil, err
	}
	m := &Member{node: cfg.Node, tr: tr, net: n, mgrReady: make(chan struct{}), deposed: make(chan struct{})}
	// A member coming back from suspicion or a clean leave is a dependent
	// whose acknowledgments stopped: re-ship everything past its acked
	// frontier now, instead of waiting for the resend timeout or the next
	// epoch.
	tr.SetOnMemberUp(func(member string) {
		m.eachPeer(func(p *peer.Peer) { p.ResendUnackedTo(member) })
	})
	// A client that said Goodbye will never consume another watch delta: drop
	// its wire watches now, so their queues stop accumulating. One that
	// merely blinked reconnects with its resume token and loses nothing.
	tr.SetOnStatusChange(func(member string, st Status) {
		if st == StatusLeft {
			m.eachPeer(func(p *peer.Peer) { p.CancelRemoteWatches(member) })
		}
	})
	if cfg.Control != nil {
		err := m.bootControl(cfg)
		close(m.mgrReady) // the hooks may run now; they find mgr nil if boot failed or replication is off
		if err != nil {
			_ = m.Close()
			return nil, err
		}
		if m.mgr != nil {
			// Promotions agreed in a previous lifetime re-adopt from the mirror
			// stores before the member serves traffic.
			for _, node := range m.cp.AdoptedNodes() {
				m.promote(node)
			}
		}
	}
	tr.Announce()
	return m, nil
}

// eachPeer visits every peer this member hosts: its own and the adopted ones.
func (m *Member) eachPeer(fn func(*peer.Peer)) {
	for _, id := range m.net.Nodes() {
		if p := m.net.Peer(id); p != nil {
			fn(p)
		}
	}
}

// bootControl starts the control plane and, with replication on, the replica
// manager.
func (m *Member) bootControl(cfg MemberConfig) error {
	var names []string
	for _, d := range cfg.Def.Nodes {
		names = append(names, d.Name)
	}
	copts := *cfg.Control
	if copts.Consensus.LogPath == "" && cfg.Core.DataDir != "" {
		copts.Consensus.LogPath = filepath.Join(cfg.Core.DataDir, m.node+".control.log")
	}
	k := copts.Replication.K
	if k > 0 {
		copts.Replication.Frontier = func(node string) uint64 {
			<-m.mgrReady
			if m.mgr == nil {
				return 0
			}
			return m.mgr.Frontier(node)
		}
		copts.Replication.OnPromote = m.promote
		copts.Replication.OnDeposed = m.depose
	}
	cp, err := NewControlPlane(m.tr, m.net.Peer(m.node), names, copts)
	if err != nil {
		return err
	}
	m.cp = cp
	if cp.Deposed() {
		return fmt.Errorf("%s was declared dead and re-homed to %s; refusing to serve (clear the data dir to rejoin fresh)", m.node, cp.HostOf(m.node))
	}
	if k == 0 {
		return nil
	}
	ropts := cfg.Replica
	ropts.Member, ropts.Nodes, ropts.K = m.node, names, k
	ropts.DataDir, ropts.WAL.Fsync = cfg.Core.DataDir, cfg.Core.Fsync
	m.mgr = replica.New(cp, m.tr.Send, ropts)
	m.tr.SetReplica(m.mgr.Handle)
	own := m.net.Peer(m.node)
	m.mgr.BecomePrimary(m.node, own.DB(), own.DurableState)
	return nil
}

// promote makes this member the live host of a node it won the election for:
// the mirror becomes a peer (AllowAlias → Promote → Adopt) and the manager
// starts replicating it onward.
func (m *Member) promote(node string) {
	<-m.mgrReady
	m.hostMu.Lock()
	defer m.hostMu.Unlock()
	if m.mgr == nil || m.cp.HostOf(node) != m.node {
		return // Boot failed, or the log moved the node on before this ran
	}
	if p := m.net.Peer(node); p != nil {
		// Already hosted here (boot re-adoption raced a replayed promotion):
		// just refresh the manager's callbacks.
		m.mgr.BecomePrimary(node, p.DB(), p.DurableState)
		return
	}
	m.tr.AllowAlias(node)
	db, st, restore, err := m.mgr.Promote(node)
	if err == nil {
		err = m.net.Adopt(node, db, st, restore)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: promote %s: %v\n", m.node, node, err)
		return
	}
	p := m.net.Peer(node)
	m.mgr.BecomePrimary(node, p.DB(), p.DurableState)
}

// depose stops hosting a node the agreed log re-homed to another member. An
// adopted node is released outright — peer stopped, name unregistered, the
// deposed copy discarded. The member's own node cannot be taken out from
// under its control plane, so the whole member shuts down: Deposed() fires
// first (an owner waiting on it can tell why), then the member closes — a
// deposed primary that kept its listener up would go on accepting writes
// until somebody noticed.
func (m *Member) depose(node string) {
	if node == m.node {
		m.deposeOnce.Do(func() { close(m.deposed) })
		// This runs on the control plane's runner, which the plane's Close
		// waits for: the member closes on a goroutine of its own.
		go func() {
			<-m.mgrReady
			_ = m.Close()
		}()
		return
	}
	<-m.mgrReady
	m.hostMu.Lock()
	defer m.hostMu.Unlock()
	if m.mgr == nil || m.cp.HostOf(node) == m.node || m.net.Peer(node) == nil {
		return
	}
	st := m.net.Release(node)
	m.tr.Unregister(node)
	m.mgr.Resign(node, st)
}

// Transport returns the membership transport.
func (m *Member) Transport() *Transport { return m.tr }

// Network returns the hosted network (the member's own node plus adopted ones).
func (m *Member) Network() *core.Network { return m.net }

// Control returns the agreed control plane (nil when none was configured).
func (m *Member) Control() *ControlPlane { return m.cp }

// Replica returns the replica manager (nil without replication).
func (m *Member) Replica() *replica.Manager { return m.mgr }

// Deposed is closed once the agreed log has re-homed the member's own node:
// the cluster declared this member dead while it lived. The member stops
// serving by itself; Close then only waits for that to finish.
func (m *Member) Deposed() <-chan struct{} { return m.deposed }

// Metrics snapshots the member for the serve metrics endpoint.
func (m *Member) Metrics() NodeMetrics {
	nm := CollectNodeMetrics(m.net, m.tr, m.cp, m.node)
	if m.mgr != nil {
		rm := CollectReplicationMetrics(m.mgr, m.cp, m.node)
		nm.Replication = &rm
	}
	return nm
}

// Close leaves the cluster cleanly: the control plane stops proposing and
// driving before the transport goes away, the mirror stores seal with
// clean-close records, watchers drain, the transport says Goodbye and the
// durable stores seal. Closing twice, or after Crash, is a no-op returning
// the first shutdown's error.
func (m *Member) Close() error {
	m.closeOnce.Do(func() {
		m.stopPlanes()
		m.closeErr = m.net.Close()
	})
	return m.closeErr
}

// Crash kills the member without a goodbye: the listener dies first, so the
// network teardown cannot announce a clean leave, and the stores are
// abandoned mid-flight. The remaining members must detect the loss through
// suspicion.
func (m *Member) Crash() error {
	m.closeOnce.Do(func() {
		_ = m.tr.Abandon()
		m.closeErr = m.net.Crash()
		m.stopPlanes()
	})
	return m.closeErr
}

func (m *Member) stopPlanes() {
	if m.cp != nil {
		m.cp.Close()
	}
	if m.mgr != nil {
		m.mgr.Close()
	}
}

// LoopbackConfig is the member configuration of the in-process harnesses —
// experiments E17–E19 and this package's tests — which run a whole cluster
// over loopback sockets in seconds: delta mode, the resend loop on, and every
// layer's timers compressed from the deployment defaults. k replicas per node
// (0: no replication) with death declared after deadAfter of continuous
// suspicion; dataDir "" keeps the member in memory.
func LoopbackConfig(def *rules.Network, node string, book map[string]string, dataDir string, k int, deadAfter time.Duration) MemberConfig {
	return MemberConfig{
		Def: def, Node: node, Listen: "127.0.0.1:0", Book: book,
		Cluster: Options{HeartbeatEvery: 25 * time.Millisecond, SuspectAfter: 150 * time.Millisecond},
		Core:    core.Options{Delta: true, DataDir: dataDir, ResendEvery: 250 * time.Millisecond},
		Control: &ControlPlaneOptions{
			PollEvery:      25 * time.Millisecond,
			Settle:         2,
			ReconcileEvery: 50 * time.Millisecond,
			Consensus:      consensus.Options{Retry: 10 * time.Millisecond, SyncEvery: 50 * time.Millisecond},
			Replication:    ReplicationOptions{K: k, DeadAfter: deadAfter},
		},
		Replica: replica.Options{
			FlushEvery:     10 * time.Millisecond,
			ResendAfter:    250 * time.Millisecond,
			ReconcileEvery: 50 * time.Millisecond,
			SyncReqEvery:   250 * time.Millisecond,
			StateEvery:     50 * time.Millisecond,
		},
	}
}
