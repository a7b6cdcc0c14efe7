package peer

import (
	"repro/internal/serving"
	"repro/internal/wire"
)

// Remote watches: the wire face of the serving hub. A client (the coordinator,
// `ctl watch`, a bench goroutine) sends WatchRequest to a hosted member; the
// peer registers the continuous query with its hub like any local Watch and a
// goroutine of the peer's runner streams every staged batch back as
// WatchDelta frames — riding the transport's Batcher alongside answer traffic. The final frame
// carries Closed (and the cancellation reason, if any). Each delta carries the
// per-relation frontier its batch covers; the client folds those into a resume
// token, and a reconnect with the token re-receives exactly the unconfirmed
// suffix as its new prime.

// remoteWatchKey identifies one client's watch: ids are client-scoped, so two
// clients may both use id 1.
type remoteWatchKey struct {
	client string
	id     uint64
}

// remoteWatch is one served wire watch.
type remoteWatch struct {
	w *serving.Watcher
}

// serveRemoteWatch registers a wire watch and then forwards it. It runs on
// the peer's runner, off the transport goroutine: registration reaches the
// hub's pass lock and the peer mutex, and forwarding lasts as long as the
// watch.
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
	w, err := p.WatchWith(m.Body, m.Cols, o)
	if err != nil {
		p.Send(from, wire.WatchDelta{ID: m.ID, Closed: true, Err: err.Error()})
		return
	}
	key := remoteWatchKey{client: from, id: m.ID}
	p.rwmu.Lock()
	prev := p.remoteWatches[key]
	p.remoteWatches[key] = &remoteWatch{w: w}
	p.rwmu.Unlock()
	if prev != nil {
		// A re-sent id is a reconnect: the old stream's consumer is gone.
		prev.w.Close()
	}
	p.forwardWatch(from, m.ID, w)
}

// forwardWatch streams one watcher's batches to its wire client until the
// watcher closes, then sends the terminal frame and drops the registration.
func (p *Peer) forwardWatch(to string, id uint64, w *serving.Watcher) {
	for b := range w.Out() {
		p.Send(to, wire.WatchDelta{
			ID:     id,
			Seq:    b.Seq,
			Prime:  b.Prime,
			Tuples: b.Tuples,
			Marks:  b.Marks,
		})
	}
	p.Send(to, wire.WatchDelta{ID: id, Closed: true, Err: w.Err()})
	key := remoteWatchKey{client: to, id: id}
	p.rwmu.Lock()
	if rw := p.remoteWatches[key]; rw != nil && rw.w == w {
		delete(p.remoteWatches, key)
	}
	p.rwmu.Unlock()
}

// cancelRemoteWatch closes one wire watch (WatchCancel). Runs on the peer's
// runner: Close runs a final shared pass through the peer mutex.
func (p *Peer) cancelRemoteWatch(from string, id uint64) {
	p.rwmu.Lock()
	rw := p.remoteWatches[remoteWatchKey{client: from, id: id}]
	p.rwmu.Unlock()
	if rw != nil {
		rw.w.Close()
	}
}

// CancelRemoteWatches closes every watch a client holds — the member-down
// hook: a dead client will never confirm another frame, so its queues must
// not accumulate until the policy fires. Safe to call for unknown clients.
func (p *Peer) CancelRemoteWatches(client string) {
	p.rwmu.Lock()
	var ws []*serving.Watcher
	for key, rw := range p.remoteWatches {
		if key.client == client {
			ws = append(ws, rw.w)
		}
	}
	p.rwmu.Unlock()
	for _, w := range ws {
		w.Close()
	}
}
