package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"repro/internal/transport"
	"repro/internal/wire"
)

// span is one traced call at a layer boundary: a Send into the transport or
// one handler invocation out of it. Parent is the handler span that was
// running on the sending node when the send happened (0 = sent from outside
// any handler: the orchestrator, the generator, a background flusher).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     string `json:"op"`   // "send" or "handle"
	Name   string `json:"name"` // message kind
	Node   string `json:"node"` // where the call ran
	Peer   string `json:"peer"` // the other end
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Tuples int    `json:"tuples"`
}

// frame is one message captured on its way into the transport, kept for the
// replay probes.
type frame struct {
	from, to string
	msg      wire.Message
	at       int64 // ns since the tracer started
}

// maxFrames bounds what the replay probes keep; spans are all kept.
const maxFrames = 50000

// tracer is the transport decorator of the traced run. It touches the
// program only through transport.Transport: it wraps every handler it
// registers and every Send, keeps the spans in memory, and derives the two
// boundary latencies no counter gives: transit (Send called -> handler
// started, matched first-in first-out per sender, receiver and kind) and
// ack round trip (Answer sent -> its AnswerAck handled).
type tracer struct {
	t0 time.Time

	mu      sync.Mutex
	spans   []span
	running map[string][]int   // node -> handler spans in progress, oldest first
	sentAt  map[string][]int64 // from|to|unit -> Send call times not yet received
	ansAt   map[string]int64   // receiver|sender|rule|sub|frontier -> Answer send time
	frames  []frame
	transit []float64 // ms
	ackRTT  []float64 // ms
}

func newTracer() *tracer {
	return &tracer{
		t0:      time.Now(),
		running: map[string][]int{},
		sentAt:  map[string][]int64{},
		ansAt:   map[string]int64{},
	}
}

// traced is one transport seen through the tracer. The members of a cluster
// run each wrap their own transport and share the tracer.
type traced struct {
	t     *tracer
	inner transport.Transport
}

func (t *tracer) wrap(inner transport.Transport) *traced { return &traced{t: t, inner: inner} }

// memTracer adds the in-memory router's capabilities, which orchestration
// and the Batcher discover by type assertion on Options.Transport.
type memTracer struct {
	*traced
	mem *transport.Mem
}

func (t *tracer) wrapMem(mem *transport.Mem) memTracer { return memTracer{t.wrap(mem), mem} }

func (m memTracer) WaitQuiescent(ctx context.Context) error { return m.mem.WaitQuiescent(ctx) }
func (m memTracer) Inflight() int                           { return m.mem.Inflight() }
func (m memTracer) TrackWork(delta int)                     { m.mem.TrackWork(delta) }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// units lists what a message carries for matching purposes: one entry per
// contained Answer, ack, append or delta, so a batch frame matches the
// messages it was built from whichever side of a Batcher the tracer sits.
func units(msg wire.Message) []wire.Message {
	b, ok := msg.(wire.AnswerBatch)
	if !ok {
		return []wire.Message{msg}
	}
	var out []wire.Message
	for _, m := range b.Acks {
		out = append(out, m)
	}
	for _, m := range b.Answers {
		out = append(out, m)
	}
	for _, m := range b.RepAcks {
		out = append(out, m)
	}
	for _, m := range b.RepAppends {
		out = append(out, m)
	}
	for _, m := range b.WatchDeltas {
		out = append(out, m)
	}
	return out
}

// tuplesIn counts the data tuples a message carries.
func tuplesIn(msg wire.Message) int {
	n := 0
	for _, u := range units(msg) {
		switch m := u.(type) {
		case wire.Answer:
			n += len(m.Tuples)
		case wire.ReplicaAppend:
			n += len(m.Tuples)
		case wire.WatchDelta:
			n += len(m.Tuples)
		}
	}
	return n
}

func frontier(m map[string]uint64) uint64 {
	var s uint64
	for _, v := range m {
		s += v
	}
	return s
}

func ackKey(source, dependent, rule string, sub, front uint64) string {
	return fmt.Sprintf("%s|%s|%s|%d|%d", source, dependent, rule, sub, front)
}

// Register implements transport.Transport.
func (tr *traced) Register(node string, h transport.Handler) error {
	return tr.inner.Register(node, tr.t.handler(node, h))
}

// handler wraps one node's handler in a span.
func (t *tracer) handler(node string, h transport.Handler) transport.Handler {
	return func(env wire.Envelope) {
		id := t.beginHandle(node, env)
		h(env)
		t.endHandle(node, id)
	}
}

func (t *tracer) beginHandle(node string, env wire.Envelope) int {
	now := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, u := range units(env.Msg) {
		key := env.From + "|" + node + "|" + u.Kind()
		if q := t.sentAt[key]; len(q) > 0 {
			t.transit = append(t.transit, float64(now-q[0])/1e6)
			t.sentAt[key] = q[1:]
		}
		if a, ok := u.(wire.AnswerAck); ok {
			k := ackKey(node, env.From, a.RuleID, a.SubID, frontier(a.Seqs))
			if at, ok := t.ansAt[k]; ok {
				t.ackRTT = append(t.ackRTT, float64(now-at)/1e6)
				delete(t.ansAt, k)
			}
		}
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Op: "handle", Name: env.Msg.Kind(), Node: node,
		Peer: env.From, Start: now, Tuples: tuplesIn(env.Msg)})
	t.running[node] = append(t.running[node], id)
	return id
}

func (t *tracer) endHandle(node string, id int) {
	now := t.now()
	t.mu.Lock()
	t.spans[id-1].End = now
	run := t.running[node]
	for i, r := range run {
		if r == id {
			t.running[node] = append(run[:i:i], run[i+1:]...)
			break
		}
	}
	t.mu.Unlock()
}

// Send implements transport.Transport.
func (tr *traced) Send(from, to string, msg wire.Message) error {
	t := tr.t
	start := t.now()
	t.mu.Lock()
	id := len(t.spans) + 1
	parent := 0
	if run := t.running[from]; len(run) > 0 {
		parent = run[0]
	}
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: "send", Name: msg.Kind(), Node: from,
		Peer: to, Start: start, Tuples: tuplesIn(msg)})
	if len(t.frames) < maxFrames {
		t.frames = append(t.frames, frame{from: from, to: to, msg: msg, at: start})
	}
	// Queued before the message leaves: its handler may start before the
	// inner Send returns.
	for _, u := range units(msg) {
		key := from + "|" + to + "|" + u.Kind()
		t.sentAt[key] = append(t.sentAt[key], start)
		if a, ok := u.(wire.Answer); ok && a.Seqs != nil {
			t.ansAt[ackKey(from, to, a.RuleID, a.SubID, frontier(a.Seqs))] = start
		}
	}
	t.mu.Unlock()

	err := tr.inner.Send(from, to, msg)

	end := t.now()
	t.mu.Lock()
	t.spans[id-1].End = end
	t.mu.Unlock()
	return err
}

// captured returns the frames kept so far.
func (t *tracer) captured() []frame {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.frames[:len(t.frames):len(t.frames)]
}

// Close implements transport.Transport.
func (tr *traced) Close() error { return tr.inner.Close() }

// traceTotals is what one traced stretch of a run boils down to.
type traceTotals struct {
	spans        []span
	frames       []frame
	handlerBusyS float64 // handler self time, summed
	sendCallMS   []float64
	transitMS    []float64
	ackRTTMS     []float64
}

// totals snapshots the stretch. A goroutine the program leaves behind may
// still send through a closed transport, so everything is taken under the
// lock and later sends are simply not part of the stretch.
func (t *tracer) totals() traceTotals {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := traceTotals{spans: append([]span(nil), t.spans...), frames: t.frames[:len(t.frames):len(t.frames)],
		transitMS: t.transit[:len(t.transit):len(t.transit)], ackRTTMS: t.ackRTT[:len(t.ackRTT):len(t.ackRTT)]}
	for i := range out.spans {
		if s := &out.spans[i]; s.End < s.Start {
			s.End = s.Start // still in progress: no duration yet
		}
	}
	self := selfTimes(out.spans)
	for _, s := range out.spans {
		switch s.Op {
		case "handle":
			out.handlerBusyS += float64(self[s.ID]) / 1e9
		case "send":
			out.sendCallMS = append(out.sendCallMS, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// traceLog is the run-level trace: the spans of every traced stretch, the
// pooled boundary latencies, and the frames of the last stretch for the
// replay probes.
type traceLog struct {
	spans                     []span
	frames                    []frame
	sendCall, transit, ackRTT []float64
}

// absorb folds one finished tracer into the log and records the stretch's
// handler busy time.
func (l *traceLog) absorb(t *tracer, r *recorder) {
	tot := t.totals()
	r.add("peer.handler_busy_s", tot.handlerBusyS)
	l.sendCall = append(l.sendCall, tot.sendCallMS...)
	l.transit = append(l.transit, tot.transitMS...)
	l.ackRTT = append(l.ackRTT, tot.ackRTTMS...)
	off := len(l.spans)
	for _, s := range tot.spans {
		s.ID += off
		if s.Parent != 0 {
			s.Parent += off
		}
		l.spans = append(l.spans, s)
	}
	l.frames = tot.frames
}

// finish records the pooled latencies and writes the span file.
func (l *traceLog) finish(r *recorder, path string) error {
	r.add("transport.send_call_ms_p99", percentile(l.sendCall, 0.99))
	r.add("transport.transit_ms_p50", percentile(l.transit, 0.50))
	r.add("transport.transit_ms_p99", percentile(l.transit, 0.99))
	r.add("peer.ack_rtt_ms_p50", percentile(l.ackRTT, 0.50))
	r.add("peer.ack_rtt_ms_p99", percentile(l.ackRTT, 0.99))
	return writeSpans(path, l.spans)
}

// selfTimes returns, per span, its duration minus the part of its interval
// that its child spans cover (children may overlap each other and may stick
// out of the parent; neither is counted twice or beyond the parent).
func selfTimes(spans []span) map[int]int64 {
	byID := make(map[int]span, len(spans))
	kids := map[int][]span{}
	for _, s := range spans {
		byID[s.ID] = s
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[int]int64, len(spans))
	for _, s := range spans {
		total := s.End - s.Start
		cs := kids[s.ID]
		sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
		covered, edge := int64(0), s.Start
		for _, c := range cs {
			lo, hi := max(c.Start, edge), min(c.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		out[s.ID] = total - covered
	}
	return out
}

// writeSpans writes the spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			_ = f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}

var (
	_ transport.Transport   = (*traced)(nil)
	_ transport.Quiescer    = memTracer{}
	_ transport.WorkTracker = memTracer{}
)
