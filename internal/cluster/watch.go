package cluster

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/serving"
	"repro/internal/wire"
)

// Remote watches: the coordinator's client half of the serving wire protocol.
// Watch registers a continuous query at a hosted member; the member streams
// WatchDelta frames back (riding the answer Batcher) and the RemoteWatch hands
// them out one at a time through Next. Consuming a delta confirms it: the
// watch folds the delta's frontier into its resume token, so after a crash or
// disconnect a new Watch carrying Token() re-receives exactly the suffix Next
// never returned.

// WatchOptions tunes a coordinator watch registration.
type WatchOptions struct {
	// Policy is the server-side slow-consumer policy ("", "block",
	// "drop-oldest", "cancel").
	Policy string
	// QueueCap bounds the server-side delivery queue (0 = server default).
	QueueCap int
	// ResumeToken, when non-empty, resumes from a previous watch's Token():
	// the prime becomes the unconfirmed suffix past the token's frontier.
	ResumeToken string
}

// watchBacklog bounds the deltas a RemoteWatch holds that Next has not
// returned; a delta past it is dropped, and the client repairs the gap by
// reconnecting with its token.
const watchBacklog = 1024

// RemoteWatch is one live watch against a hosted member.
type RemoteWatch struct {
	c    *Coordinator
	node string
	id   uint64
	wake chan struct{} // one slot: a delta was queued since Next last looked

	mu    sync.Mutex
	queue []wire.WatchDelta // queue[head:] await Next
	head  int
	marks map[string]uint64
	seq   uint64
	done  bool
}

// Watch registers a continuous query at node. The first delta is the prime:
// the query's current result, or — with a ResumeToken — the unconfirmed
// suffix past the token's frontier.
func (c *Coordinator) Watch(node, body string, cols []string, o WatchOptions) (*RemoteWatch, error) {
	req := wire.WatchRequest{Body: body, Cols: cols, Policy: o.Policy, QueueCap: o.QueueCap}
	var marks map[string]uint64
	var seq uint64
	if o.ResumeToken != "" {
		var err error
		marks, seq, err = serving.ParseToken(o.ResumeToken)
		if err != nil {
			return nil, err
		}
		req.Resume = true
		req.Marks = marks
	}
	w := &RemoteWatch{c: c, node: node, wake: make(chan struct{}, 1), marks: marks, seq: seq}
	if w.marks == nil {
		w.marks = map[string]uint64{}
	}
	c.mu.Lock()
	c.wseq++
	w.id = c.wseq
	c.watches[w.id] = w
	c.mu.Unlock()
	req.ID = w.id
	if err := c.tr.Send(c.opts.Name, node, req); err != nil {
		c.mu.Lock()
		delete(c.watches, w.id)
		c.mu.Unlock()
		return nil, fmt.Errorf("cluster: watch %s: %w", node, err)
	}
	return w, nil
}

// handleWatchDelta routes one delta frame to its watch. It runs on transport
// goroutines and never blocks: a watch whose client stopped consuming drops
// frames here and repairs itself later by reconnecting with its token.
func (c *Coordinator) handleWatchDelta(m wire.WatchDelta) {
	c.mu.Lock()
	w := c.watches[m.ID]
	if w != nil {
		w.push(m)
		if m.Closed {
			delete(c.watches, m.ID)
		}
	}
	c.mu.Unlock()
}

// push queues a delta for Next, or drops it when watchBacklog are queued.
func (w *RemoteWatch) push(d wire.WatchDelta) {
	w.mu.Lock()
	if len(w.queue)-w.head < watchBacklog {
		if len(w.queue) == cap(w.queue) && w.head > 0 { // reuse the slots Next emptied
			n := copy(w.queue, w.queue[w.head:])
			clear(w.queue[n:])
			w.queue, w.head = w.queue[:n], 0
		}
		w.queue = append(w.queue, d)
	}
	w.mu.Unlock()
	select {
	case w.wake <- struct{}{}:
	default:
	}
}

// Next returns the next delta. Consuming a delta confirms it: the watch's
// resume token advances to the delta's frontier. The terminal delta carries
// Closed (with Err set when the server cancelled the stream); after it, or
// when ctx expires, Next returns an error.
func (w *RemoteWatch) Next(ctx context.Context) (wire.WatchDelta, error) {
	w.mu.Lock()
	done := w.done
	w.mu.Unlock()
	if done {
		return wire.WatchDelta{}, fmt.Errorf("cluster: watch %d at %s is closed", w.id, w.node)
	}
	for {
		w.mu.Lock()
		if w.head < len(w.queue) {
			d := w.queue[w.head]
			w.queue[w.head] = wire.WatchDelta{}
			if w.head++; w.head == len(w.queue) {
				w.queue, w.head = w.queue[:0], 0
			}
			if d.Closed {
				w.done = true
			} else {
				for rel, seqno := range d.Marks {
					w.marks[rel] = seqno
				}
				w.seq = d.Seq
			}
			w.mu.Unlock()
			return d, nil
		}
		w.mu.Unlock()
		select {
		case <-w.wake:
		case <-ctx.Done():
			return wire.WatchDelta{}, ctx.Err()
		}
	}
}

// Token renders the resume token covering every delta Next has returned.
func (w *RemoteWatch) Token() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return serving.FormatToken(w.marks, w.seq)
}

// Close cancels the watch at the member (best effort) and stops delivery.
// Deltas not yet returned by Next stay unconfirmed: a later Watch with the
// token re-receives them.
func (w *RemoteWatch) Close() {
	w.c.mu.Lock()
	delete(w.c.watches, w.id)
	w.c.mu.Unlock()
	w.mu.Lock()
	w.done = true
	w.mu.Unlock()
	_ = w.c.tr.Send(w.c.opts.Name, w.node, wire.WatchCancel{ID: w.id})
}
