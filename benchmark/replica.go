package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/consensus"
	"repro/internal/core"
	"repro/internal/relalg"
	"repro/internal/replica"
	"repro/internal/rules"
	"repro/internal/wal"
	"repro/internal/wire"
)

const (
	shipK     = 2
	shipChunk = 250 // tuples per InsertLocal call
)

var shipNodes = []string{"A", "B", "C"}

// shipRel is each node's relation in liveNet, the definition this workload
// shares: its rules are declared but never fire, because no update wave is
// ever kicked off.
var shipRel = map[string]string{"A": "a", "B": "b", "C": "c"}

// shipMember is one member with the full `p2pdb serve` wiring: cluster
// transport, hosted peer with a WAL, replicated control plane, replica
// manager.
type shipMember struct {
	net *core.Network
	tr  *cluster.Transport
	cp  *cluster.ControlPlane
	mgr *replica.Manager
}

func (m *shipMember) close() error {
	if m.cp != nil {
		m.cp.Close()
	}
	if m.mgr != nil {
		m.mgr.Close()
	}
	return m.net.Close()
}

// bootShipMember follows experiments.e18Boot, the wiring of cmd/p2pdb serve.
func bootShipMember(def *rules.Network, node string, book map[string]string, dir string, tr *tracer) (*shipMember, error) {
	seed := map[string]string{}
	for k, v := range book {
		seed[k] = v
	}
	ct, err := cluster.New(node, "127.0.0.1:0", seed, cluster.Options{
		HeartbeatEvery: liveBeat, SuspectAfter: liveSuspect, BatchWindow: liveBatch,
	})
	if err != nil {
		return nil, err
	}
	opts := core.Options{Delta: true, Hosted: []string{node}, Transport: ct, DataDir: dir,
		Fsync: wal.FsyncInterval, ResendEvery: 250 * time.Millisecond}
	send := ct.Send
	if tr != nil {
		wrapped := tr.wrap(ct)
		opts.Transport, send = wrapped, wrapped.Send
	}
	n, err := core.Build(def, opts)
	if err != nil {
		return nil, err
	}
	ct.SetOnMemberUp(func(member string) {
		if p := n.Peer(node); p != nil {
			p.ResendUnackedTo(member)
		}
	})
	m := &shipMember{net: n, tr: ct}
	mgrReady := make(chan struct{})
	promote := func(dead string) {
		<-mgrReady
		if p := n.Peer(dead); p != nil {
			m.mgr.BecomePrimary(dead, p.DB(), p.DurableState)
			return
		}
		ct.AllowAlias(dead)
		db, st, restore, err := m.mgr.Promote(dead)
		if err != nil {
			return
		}
		if err := n.Adopt(dead, db, st, restore); err != nil {
			return
		}
		p := n.Peer(dead)
		m.mgr.BecomePrimary(dead, p.DB(), p.DurableState)
	}
	m.cp, err = cluster.NewControlPlane(ct, n.Peer(node), shipNodes, cluster.ControlPlaneOptions{
		PollEvery:      liveBeat,
		Settle:         2,
		ReconcileEvery: 50 * time.Millisecond,
		Consensus: consensus.Options{
			Retry:     10 * time.Millisecond,
			SyncEvery: 50 * time.Millisecond,
			LogPath:   filepath.Join(dir, node+".control.log"),
		},
		Replication: cluster.ReplicationOptions{
			K:         shipK,
			DeadAfter: time.Minute, // nobody dies here; a stalled CPU must not look like a death
			Frontier: func(dead string) uint64 {
				<-mgrReady
				return m.mgr.Frontier(dead)
			},
			OnPromote: promote,
			OnDeposed: func(string) {},
		},
	})
	if err != nil {
		_ = n.Close()
		return nil, err
	}
	m.mgr = replica.New(m.cp, send, replica.Options{
		Member:         node,
		Nodes:          shipNodes,
		K:              shipK,
		DataDir:        dir,
		WAL:            wal.Options{Fsync: wal.FsyncInterval},
		FlushEvery:     10 * time.Millisecond,
		ResendAfter:    250 * time.Millisecond,
		ReconcileEvery: 50 * time.Millisecond,
		SyncReqEvery:   250 * time.Millisecond,
		StateEvery:     50 * time.Millisecond,
	})
	handle := m.mgr.Handle
	if tr != nil {
		handle = func(env wire.Envelope) bool {
			id := tr.beginHandle(node, env)
			defer tr.endHandle(node, id)
			return m.mgr.Handle(env)
		}
	}
	ct.SetReplica(handle)
	m.mgr.BecomePrimary(node, n.Peer(node).DB(), n.Peer(node).DurableState)
	close(mgrReady)
	ct.Announce()
	return m, nil
}

// waitFor polls cond every 2 ms until it holds or the limit passes.
func waitFor(ctx context.Context, limit time.Duration, cond func() bool) bool {
	deadline := time.Now().Add(limit)
	for !cond() {
		if time.Now().After(deadline) || ctx.Err() != nil {
			return false
		}
		time.Sleep(2 * time.Millisecond)
	}
	return true
}

// shipTuples makes the tuples one node inserts, from the seed.
func shipTuples(seed int64, node string, n int) []relalg.Tuple {
	rng := rand.New(rand.NewSource(seed + int64(node[0])))
	out := make([]relalg.Tuple, n)
	for i := range out {
		out[i] = relalg.Tuple{relalg.S(fmt.Sprintf("%s-%d-%08x", node, i, rng.Uint32())), relalg.I(int64(i))}
	}
	return out
}

// replicated reports whether every stream is acknowledged at its primary's
// frontier and every mirror has applied that frontier.
func replicated(members map[string]*shipMember) bool {
	for _, m := range members {
		if m.mgr.Metrics().UnderReplicated != 0 {
			return false
		}
	}
	for node, m := range members {
		front := m.mgr.Frontier(node)
		placement, _ := m.cp.PlacementFor(node)
		if len(placement) != shipK {
			return false
		}
		for _, mirror := range placement {
			if members[mirror].mgr.Frontier(node) != front {
				return false
			}
		}
	}
	return true
}

func runReplica(ctx context.Context, e *env) error {
	perNode := 5000
	if e.cfg.smoke {
		perNode = 300
	}
	def, err := rules.ParseNetwork(liveNet)
	if err != nil {
		return err
	}
	err = iterate(e, 4, func(r *recorder, i int, traced bool) error {
		return shipIteration(ctx, e, r, def, i, perNode, traced)
	})
	if err == nil && e.cfg.trace {
		codecProbe(e.rec, e.trace.frames, liveBatch, median(e.rec.samples["raw."+convergeName(true)])/1e3)
	}
	return err
}

// shipIteration boots three members, waits until they agree on the
// membership and every replication stream is established, bulk-inserts at
// every node, and times first insert -> every mirror durable.
func shipIteration(ctx context.Context, e *env, r *recorder, def *rules.Network, i, perNode int, traced bool) error {
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	root := filepath.Join(e.cfg.dir, fmt.Sprintf("ship-%d", i+1))
	defer os.RemoveAll(root)
	members := map[string]*shipMember{}
	closed := false
	closeAll := func() error {
		if closed {
			return nil
		}
		closed = true
		var first error
		for _, m := range members {
			if err := m.close(); err != nil && first == nil {
				first = err
			}
		}
		return first
	}
	defer closeAll()

	t0 := time.Now()
	book := map[string]string{}
	for _, node := range shipNodes {
		m, err := bootShipMember(def, node, book, filepath.Join(root, node), tr)
		if err != nil {
			return fmt.Errorf("boot %s: %w", node, err)
		}
		members[node] = m
		book[node] = m.tr.Addr()
	}
	agreed := waitFor(ctx, 20*time.Second, func() bool {
		for _, m := range members {
			view, _ := m.cp.AgreedView()
			for _, node := range shipNodes {
				if view[node] != cluster.StatusAlive {
					return false
				}
			}
		}
		return true
	})
	r.op()
	if !agreed {
		r.fail("members never agreed on the membership")
		return nil
	}
	r.add("consensus.agree_ms", ms(time.Since(t0)))
	if !waitFor(ctx, 20*time.Second, func() bool { return replicated(members) }) {
		r.fail("replication streams never established")
		return nil
	}
	r.add("setup_s", time.Since(t0).Seconds())

	// The lag sampler of the traced run.
	stopSampler := func() {}
	if traced {
		quit := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			tick := time.NewTicker(50 * time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-quit:
					return
				case <-tick.C:
					var lag uint64
					for node, m := range members {
						lag += cluster.CollectReplicationMetrics(m.mgr, m.cp, node).FrontierLag
					}
					r.add("replica.lag_tuples", float64(lag))
				}
			}
		}()
		stopSampler = func() { close(quit); wg.Wait() }
	}

	data := map[string][]relalg.Tuple{}
	for _, node := range shipNodes {
		data[node] = shipTuples(e.cfg.seed, node, perNode)
	}
	cal := calibrate()
	m0 := mallocs()
	var callMax time.Duration
	r.op()
	tI := time.Now()
	for off := 0; off < perNode; off += shipChunk {
		for _, node := range shipNodes {
			t := time.Now()
			_, err := members[node].net.Peer(node).InsertLocal(shipRel[node], data[node][off:min(off+shipChunk, perNode)]...)
			if err != nil {
				stopSampler()
				return fmt.Errorf("insert at %s: %w", node, err)
			}
			if d := time.Since(t); d > callMax {
				callMax = d
			}
		}
	}
	done := waitFor(ctx, 30*time.Second, func() bool { return replicated(members) })
	converge := time.Since(tI)
	stopSampler()
	if !done {
		r.fail("mirrors never reached their primaries' frontier")
		return nil
	}
	recordConverge(r, traced, converge, cal)
	r.add("heap_mb", heapMB())
	stored := float64(len(shipNodes) * perNode)
	r.add("core.allocs_per_tuple", ratio(float64(mallocs()-m0), stored))
	r.add("core.tuples_per_s", ratio(stored, converge.Seconds()))
	r.add("peer.insert_call_ms_max", ms(callMax))
	if traced {
		r.add("replica.lag_tuples_p50", median(r.samples["replica.lag_tuples"]))
		delete(r.samples, "replica.lag_tuples")
	}
	var rm replica.Metrics
	var frames, coalesced, piggy, dropped, sendErrs float64
	before := map[string]string{}
	placements := map[string][]string{}
	for node, m := range members {
		mm := m.mgr.Metrics()
		rm.Appends += mm.Appends
		rm.Acks += mm.Acks
		rm.Rewinds += mm.Rewinds
		rm.SyncReqs += mm.SyncReqs
		nm := cluster.CollectNodeMetrics(m.net, m.tr, m.cp, node)
		frames += float64(nm.WireFrames)
		coalesced += float64(nm.Coalesced)
		piggy += float64(nm.PiggyAcks)
		dropped += float64(nm.OutboxDrops)
		sendErrs += float64(nm.SendErrors)
		before[node] = m.net.Peer(node).DB().Dump()
		placements[node], _ = m.cp.PlacementFor(node)
	}
	r.add("replica.appends", float64(rm.Appends))
	r.add("replica.acks", float64(rm.Acks))
	r.add("replica.rewinds", float64(rm.Rewinds))
	r.add("replica.sync_reqs", float64(rm.SyncReqs))
	r.add("replica.tuples_per_append", ratio(stored*shipK, float64(rm.Appends)))
	r.add("transport.frames_per_tuple", ratio(frames, stored))
	r.add("transport.coalesced_ratio", ratio(coalesced, frames+coalesced))
	r.add("transport.acks_piggybacked", piggy)
	r.add("transport.outbox_dropped", dropped)
	r.add("peer.send_errors", sendErrs)

	if err := closeAll(); err != nil {
		return fmt.Errorf("close: %w", err)
	}
	if tr != nil {
		e.trace.absorb(tr, r)
	}
	// Every mirror, read back from what it left on disk, must equal its
	// primary.
	r.op()
	for node, mirrors := range placements {
		for _, mirror := range mirrors {
			rec, err := wal.Inspect(filepath.Join(root, mirror, node+".replica"))
			if err != nil {
				r.fail("mirror of %s at %s unreadable: %v", node, mirror, err)
			} else if rec.DB.Dump() != before[node] {
				r.fail("mirror of %s at %s differs from its primary", node, mirror)
			}
		}
	}
	bytes, err := dirBytes(root)
	if err != nil {
		return err
	}
	r.add("wal.disk_bytes_per_tuple", ratio(float64(bytes), stored))
	return nil
}
