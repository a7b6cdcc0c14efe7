package peer

import (
	"fmt"

	"repro/internal/serving"
	"repro/internal/wire"
)

// Remote watches: the wire face of the serving hub. A client (the coordinator,
// `ctl watch`, a bench goroutine) sends WatchRequest to a hosted member; the
// peer registers the continuous query with its hub as a remote watcher whose
// sink is the wire. The hub's pass hands every batch it stages to the
// transport as a WatchDelta, one client's watches in one run
// (transport.SendRun), so one change's deltas for a client share a Batcher
// frame; no watch has a goroutine of its own. The final frame carries Closed
// (and the cancellation reason, if any) and leaves after the last batch; the
// registration is dropped with it. Each delta carries the per-relation
// frontier its batch covers; the client folds those into a resume token, and
// a reconnect with the token re-receives exactly the unconfirmed suffix as
// its new prime.
//
// A cluster member's sends never block (its TCP transport queues frames in
// per-destination outboxes), so the pass never waits on a client and a
// remote watcher's queue never fills: what bounds a slow remote consumer is
// the client's own backlog (cluster.RemoteWatch drops past it) and its
// resume token, which re-ships whatever it dropped.

// remoteWatchKey identifies one client's watch: ids are client-scoped, so two
// clients may both use id 1.
type remoteWatchKey struct {
	client string
	id     uint64
}

// remoteWatch is one served wire watch and its serving.Sink.
type remoteWatch struct {
	p   *Peer
	key remoteWatchKey
	// w is the hub's watcher once registered; canceled records a
	// WatchCancel that came before it was. Both guarded by p.rwmu.
	w        *serving.Watcher
	canceled bool
}

// Deliver adds one staged batch to the client's run.
func (rw *remoteWatch) Deliver(b serving.Batch) {
	rw.p.watchRun = append(rw.p.watchRun, wire.WatchDelta{
		ID:     rw.key.id,
		Seq:    b.Seq,
		Prime:  b.Prime,
		Tuples: b.Tuples,
		Marks:  b.Marks,
	})
}

// End adds the terminal frame to the client's run and drops the
// registration.
func (rw *remoteWatch) End(reason string) {
	rw.p.watchRun = append(rw.p.watchRun, wire.WatchDelta{ID: rw.key.id, Closed: true, Err: reason})
	rw.drop()
}

// Flush sends the client's run: what the pass drained from all of the
// client's watches.
func (rw *remoteWatch) Flush() {
	if len(rw.p.watchRun) == 0 {
		return
	}
	rw.p.sendRun(rw.key.client, rw.p.watchRun)
	clear(rw.p.watchRun) // the run must not pin the batches' tuples
	rw.p.watchRun = rw.p.watchRun[:0]
}

// drop removes the registration unless a reconnect replaced it.
func (rw *remoteWatch) drop() {
	rw.p.rwmu.Lock()
	if rw.p.remoteWatches[rw.key] == rw {
		delete(rw.p.remoteWatches, rw.key)
	}
	rw.p.rwmu.Unlock()
}

// cancel closes the watch, now or as soon as it is registered.
func (rw *remoteWatch) cancel() {
	rw.p.rwmu.Lock()
	w := rw.w
	rw.canceled = w == nil
	rw.p.rwmu.Unlock()
	if w != nil {
		w.Close()
	}
}

// serveRemoteWatch registers a wire watch. It runs on the peer's runner, off
// the transport goroutine: closing a replaced watch runs a final pass, which
// takes the hub's pass lock and the peer mutex.
func (p *Peer) serveRemoteWatch(from string, m wire.WatchRequest) {
	policy, ok := serving.ParsePolicy(m.Policy)
	if !ok {
		p.Send(from, wire.WatchDelta{ID: m.ID, Closed: true,
			Err: "unknown slow-consumer policy " + m.Policy})
		return
	}
	o := serving.WatchOptions{Policy: policy, QueueCap: m.QueueCap}
	if m.Resume {
		o.Resume = m.Marks
		if o.Resume == nil {
			o.Resume = map[string]uint64{} // resume-from-zero, not a fresh prime
		}
	}
	// The entry goes in first, so the pass that ends the watch — it may run
	// before RegisterRemote returns — finds it to drop.
	rw := &remoteWatch{p: p, key: remoteWatchKey{client: from, id: m.ID}}
	p.rwmu.Lock()
	prev := p.remoteWatches[rw.key]
	p.remoteWatches[rw.key] = rw
	p.rwmu.Unlock()
	if prev != nil {
		// A re-sent id is a reconnect: the old stream's consumer is gone.
		prev.cancel()
	}
	conj, err := p.watchQuery(m.Body, m.Cols)
	var w *serving.Watcher
	if err == nil {
		if w, err = p.hub.RegisterRemote(conj, m.Cols, o, from, rw); err != nil {
			err = fmt.Errorf("peer %s: %w", p.id, err)
		}
	}
	if err != nil {
		p.Send(from, wire.WatchDelta{ID: m.ID, Closed: true, Err: err.Error()})
		rw.drop()
		return
	}
	p.rwmu.Lock()
	rw.w = w
	canceled := rw.canceled
	p.rwmu.Unlock()
	if canceled {
		w.Close()
	}
}

// cancelRemoteWatch closes one wire watch (WatchCancel). Runs on the peer's
// runner: Close runs a final shared pass through the peer mutex.
func (p *Peer) cancelRemoteWatch(from string, id uint64) {
	p.rwmu.Lock()
	rw := p.remoteWatches[remoteWatchKey{client: from, id: id}]
	p.rwmu.Unlock()
	if rw != nil {
		rw.cancel()
	}
}

// CancelRemoteWatches closes every watch a client holds — the member-down
// hook: a dead client will never confirm another frame, so its watches must
// not keep shipping to it. Safe to call for unknown clients.
func (p *Peer) CancelRemoteWatches(client string) {
	p.rwmu.Lock()
	var rws []*remoteWatch
	for key, rw := range p.remoteWatches {
		if key.client == client {
			rws = append(rws, rw)
		}
	}
	p.rwmu.Unlock()
	for _, rw := range rws {
		rw.cancel()
	}
}
