package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/wire"
)

// Framing: a 4-byte big-endian length, then that many bytes of wire.Encode
// output. MaxFrame bounds the length at both ends — a sender refuses a larger
// frame with ErrFrameTooLarge instead of shipping something the receiver
// would hang up on (and the ack frontier would then re-ship forever), and a
// receiver treats a larger length as a protocol violation.
const (
	frameHeader = 4
	MaxFrame    = 64 << 20
	// readBuf is the size of a connection's reusable read buffer.
	readBuf = 4096
	// readTimeout bounds reading a frame body once its length header has
	// arrived. Idle connections — no header in flight — carry no deadline:
	// silence between frames is normal on a quiescent network.
	readTimeout = 10 * time.Second
)

// ErrFrameTooLarge is returned by Send for a message that encodes to more
// than MaxFrame bytes.
var ErrFrameTooLarge = errors.New("transport: frame exceeds MaxFrame")

// TCP is a transport running each peer over real sockets, one length-prefixed
// wire.Envelope per frame. One TCP value serves one process, which may host
// one or many local peers (Register). Remote peers are reached through a
// static address book; dials are lazy, connections are cached and re-dialled
// on failure.
type TCP struct {
	mu       sync.Mutex
	self     string // listen address
	listener net.Listener
	book     map[string]string // node -> address
	local    map[string]Handler
	conns    map[string]net.Conn
	accepted map[net.Conn]bool
	fails    map[string]*dialFailure // node -> reconnect backoff state
	outboxes map[string]*outbox      // node -> async send queue (OutboxSize > 0)
	closed   bool                    // no new sends/registrations; outbox writers may still drain
	tornDown bool                    // sockets are being swept; no new dials
	wg       sync.WaitGroup
	obWG     sync.WaitGroup // outbox writer goroutines (drained before teardown)

	obDropped   atomic.Uint64 // frames dropped oldest-first on outbox overflow
	obWriteErrs atomic.Uint64 // frames lost to write/dial errors in writer loops
	badFrames   atomic.Uint64 // frames received whole but rejected by wire.Decode

	// dialTimeout bounds connection attempts (default 2s).
	dialTimeout time.Duration
	// writeTimeout bounds each frame write, so a stalled remote whose socket
	// buffer filled up cannot wedge a sender indefinitely (default 5s).
	writeTimeout time.Duration
	// maxBackoff caps the exponential reconnect backoff after failed dials
	// (default 2s). During the backoff window sends to the unreachable peer
	// fail immediately instead of re-dialling, so a dead process costs one
	// timed-out dial per window rather than one per message.
	maxBackoff time.Duration
	// OutboxSize, when positive, makes remote sends asynchronous: each
	// remote peer gets a bounded outbox drained by a dedicated writer
	// goroutine, so a slow or dead remote costs its writer the dial/write
	// timeouts instead of stalling the sending handler — the cluster
	// hardening that keeps one wedged member from freezing everyone's
	// actors. On overflow the OLDEST DATA frame is dropped and counted
	// (OutboxStats): the protocol tolerates data loss by design and the
	// acknowledgment frontier re-ships dropped deltas, while dropping the
	// newest would starve fresh data behind a backlog destined to time out.
	// Control-plane frames, membership frames and acks are exempt from
	// eviction — a dropped Goodbye turns a clean leave into a suspicion
	// timeout and a dropped AnswerAck forces a pointless timeout re-send —
	// so the outbox may exceed its nominal size by the number of queued
	// exempt frames. Zero (the default) keeps sends synchronous: errors
	// surface to the caller, as the in-process tests expect. Set before the
	// first Send.
	OutboxSize int
}

// obFrame is one queued frame (header and encoded envelope); exempt frames
// (control plane, membership, acks) are never evicted on overflow.
type obFrame struct {
	data   []byte
	exempt bool
}

// outbox is one remote peer's bounded asynchronous send queue: a deque so
// overflow can evict the oldest non-exempt frame rather than whatever
// happens to be at the head.
type outbox struct {
	mu     sync.Mutex
	cond   *sync.Cond
	cap    int
	q      []obFrame
	closed bool
}

func newOutbox(capacity int) *outbox {
	ob := &outbox{cap: capacity}
	ob.cond = sync.NewCond(&ob.mu)
	return ob
}

// push enqueues one frame. When full it drops the oldest non-exempt queued
// frame; if every queued frame is exempt the queue grows past its nominal
// capacity instead (exempt frames are few — Goodbyes, acks, coordinator
// verbs — so the overshoot is bounded in practice). It reports
// (dropped, ok); ok=false means the outbox is closed.
func (ob *outbox) push(frame []byte, exempt bool) (dropped, ok bool) {
	ob.mu.Lock()
	defer ob.mu.Unlock()
	if ob.closed {
		return false, false
	}
	if len(ob.q) >= ob.cap {
		for i := range ob.q {
			if !ob.q[i].exempt {
				ob.q = append(ob.q[:i], ob.q[i+1:]...)
				dropped = true
				break
			}
		}
	}
	ob.q = append(ob.q, obFrame{data: frame, exempt: exempt})
	ob.cond.Signal()
	return dropped, true
}

// pop dequeues the next frame, blocking while the outbox is open and empty.
// After close it keeps returning queued frames until the backlog drains, then
// reports ok=false — drain-on-close is what lets a clean leave's Goodbye out.
func (ob *outbox) pop() (frame []byte, ok bool) {
	ob.mu.Lock()
	defer ob.mu.Unlock()
	for len(ob.q) == 0 && !ob.closed {
		ob.cond.Wait()
	}
	if len(ob.q) == 0 {
		return nil, false
	}
	frame = ob.q[0].data
	ob.q = ob.q[1:]
	return frame, true
}

func (ob *outbox) close() {
	ob.mu.Lock()
	if !ob.closed {
		ob.closed = true
		ob.cond.Broadcast()
	}
	ob.mu.Unlock()
}

// evictionExempt reports whether a message must survive outbox overflow:
// membership lifecycle frames (a dropped Goodbye turns a clean leave into a
// suspicion timeout), acknowledgments (a dropped ack forces a pointless
// timeout re-send), the remote-control plane (a dropped coordinator verb
// wedges its caller) and watch deltas, alone or batched (nothing re-ships a
// dropped delta, and the client's next one moves its resume token past it).
// Data frames — answers, batches of them and of acks, queries — stay
// evictable: the acknowledgment frontier re-ships them.
func evictionExempt(msg wire.Message) bool {
	switch msg.(type) {
	case wire.AnswerAck, wire.Join, wire.JoinAck, wire.Heartbeat, wire.Goodbye:
		return true
	// The replication stream's control half: a dropped ReplicaAck forces a
	// pointless rewind-and-reship, a dropped ReplicaSyncReq leaves a lagging
	// mirror waiting a full retry cycle, and a dropped ReplicaState would let
	// a promotion restore stale subscription marks. ReplicaAppend itself
	// stays evictable — the ack frontier re-ships it like any data frame.
	case wire.ReplicaAck, wire.ReplicaSyncReq, wire.ReplicaState:
		return true
	}
	if ab, ok := msg.(wire.AnswerBatch); ok {
		return len(ab.WatchDeltas) > 0
	}
	return wire.ControlKinds[msg.Kind()]
}

// dialFailure tracks the reconnect backoff for one unreachable peer.
type dialFailure struct {
	at    time.Time // when the last dial failed
	count int       // consecutive failures
	err   error     // the failure returned while backing off
}

// NewTCP starts listening on listenAddr and routes to remote peers using the
// address book (node name -> host:port). Local peers are added by Register.
func NewTCP(listenAddr string, book map[string]string) (*TCP, error) {
	ln, err := net.Listen("tcp", listenAddr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", listenAddr, err)
	}
	t := &TCP{
		self:         ln.Addr().String(),
		listener:     ln,
		book:         map[string]string{},
		local:        map[string]Handler{},
		conns:        map[string]net.Conn{},
		accepted:     map[net.Conn]bool{},
		fails:        map[string]*dialFailure{},
		outboxes:     map[string]*outbox{},
		dialTimeout:  2 * time.Second,
		writeTimeout: 5 * time.Second,
		maxBackoff:   2 * time.Second,
	}
	for k, v := range book {
		t.book[k] = v
	}
	t.wg.Add(1)
	go t.acceptLoop()
	return t, nil
}

// Addr returns the bound listen address (useful with ":0").
func (t *TCP) Addr() string { return t.self }

// SetPeerAddr adds or updates an address book entry. A changed address also
// clears the node's reconnect backoff and cached connection: a restarted
// process announcing a fresh port must be dialled immediately, not after the
// old address's backoff window.
func (t *TCP) SetPeerAddr(node, addr string) {
	t.mu.Lock()
	var stale net.Conn
	if prev, ok := t.book[node]; ok && prev != addr {
		delete(t.fails, node)
		if c, ok := t.conns[node]; ok {
			stale = c
			delete(t.conns, node)
		}
	}
	t.book[node] = addr
	t.mu.Unlock()
	if stale != nil {
		_ = stale.Close()
	}
}

// Register implements Transport for peers hosted in this process.
func (t *TCP) Register(node string, h Handler) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return ErrClosed
	}
	if _, ok := t.local[node]; ok {
		return addressError("re-register", node)
	}
	t.local[node] = h
	return nil
}

// Unregister detaches a local peer: frames addressed to it are dropped from
// now on, and the name can be registered again.
func (t *TCP) Unregister(node string) {
	t.mu.Lock()
	delete(t.local, node)
	t.mu.Unlock()
}

// Send implements Transport: local peers short-circuit in process (still
// asynchronously, preserving the actor discipline); remote peers get a
// framed envelope.
func (t *TCP) Send(from, to string, msg wire.Message) error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return ErrClosed
	}
	if h, ok := t.local[to]; ok {
		t.mu.Unlock()
		// In-process delivery: spawn to keep Send non-blocking. Ordering
		// between two local peers is preserved well enough for the
		// protocol, which tolerates reordering by design.
		env := wire.Envelope{From: from, To: to, Msg: msg}
		t.wg.Add(1)
		go func() {
			defer t.wg.Done()
			h(env)
		}()
		return nil
	}
	addr, ok := t.book[to]
	async := t.OutboxSize > 0
	t.mu.Unlock()
	if !ok {
		return addressError("send to", to)
	}
	frame, err := wire.EncodeFrame(frameHeader, wire.Envelope{From: from, To: to, Msg: msg})
	if err != nil {
		return err
	}
	size := len(frame) - frameHeader
	if size > MaxFrame {
		return fmt.Errorf("%w: %s for %s is %d bytes", ErrFrameTooLarge, msg.Kind(), to, size)
	}
	binary.BigEndian.PutUint32(frame, uint32(size))
	if async {
		return t.enqueue(to, frame, evictionExempt(msg))
	}
	return t.write(to, addr, frame)
}

// enqueue hands one frame to the peer's writer goroutine,
// creating outbox and writer on first use. Enqueueing never blocks: a full
// outbox drops its oldest non-exempt frame (counted; the ack frontier
// re-ships lost deltas).
func (t *TCP) enqueue(node string, frame []byte, exempt bool) error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return ErrClosed
	}
	ob := t.outboxes[node]
	if ob == nil {
		ob = newOutbox(t.OutboxSize)
		t.outboxes[node] = ob
		t.obWG.Add(1)
		go t.writerLoop(node, ob)
	}
	t.mu.Unlock()
	dropped, ok := ob.push(frame, exempt)
	if dropped {
		t.obDropped.Add(1)
	}
	if !ok {
		return ErrClosed
	}
	return nil
}

// writerLoop drains one peer's outbox onto the wire, resolving the address
// per frame (a restarted member may have announced a new port between
// enqueue and write). It exits when the outbox closes and is drained; while
// the transport is closing, a first write failure discards the remaining
// backlog instead of burning a timeout per frame.
func (t *TCP) writerLoop(node string, ob *outbox) {
	defer t.obWG.Done()
	for {
		frame, ok := ob.pop()
		if !ok {
			return
		}
		t.mu.Lock()
		addr, booked := t.book[node]
		closing := t.closed
		t.mu.Unlock()
		var err error
		if !booked {
			err = addressError("send to", node)
		} else {
			err = t.write(node, addr, frame)
		}
		if err != nil {
			t.obWriteErrs.Add(1)
			if closing {
				for {
					if _, ok := ob.pop(); !ok {
						return
					}
					t.obWriteErrs.Add(1)
				}
			}
		}
	}
}

// OutboxStats reports the asynchronous send queues' loss counters: frames
// dropped oldest-first on overflow and frames lost to write or dial errors.
// Both are zero in synchronous mode (OutboxSize == 0), where errors surface
// to the sender instead.
func (t *TCP) OutboxStats() (dropped, writeErrs uint64) {
	return t.obDropped.Load(), t.obWriteErrs.Load()
}

// BadFrames reports how many frames arrived whole but failed wire.Decode —
// another format version, an unknown kind, or corruption. The connection
// survives each one; a count that keeps rising next to healthy peers means
// members of different wire versions share the cluster.
func (t *TCP) BadFrames() uint64 { return t.badFrames.Load() }

// write puts one frame (header included) on the node's connection.
func (t *TCP) write(node, addr string, frame []byte) error {
	conn, err := t.conn(node, addr)
	if err != nil {
		return err
	}
	_ = conn.SetWriteDeadline(time.Now().Add(t.writeTimeout))
	if _, err := conn.Write(frame); err != nil {
		// Drop the cached connection and retry once with a fresh dial.
		t.dropConn(node)
		conn, derr := t.conn(node, addr)
		if derr != nil {
			return derr
		}
		_ = conn.SetWriteDeadline(time.Now().Add(t.writeTimeout))
		if _, werr := conn.Write(frame); werr != nil {
			t.dropConn(node)
			return fmt.Errorf("transport: write to %s: %w", node, werr)
		}
	}
	return nil
}

// backoffFor returns the reconnect delay after n consecutive dial failures:
// 50ms doubling per failure, capped at maxBackoff.
func (t *TCP) backoffFor(n int) time.Duration {
	d := 50 * time.Millisecond
	for i := 1; i < n && d < t.maxBackoff; i++ {
		d *= 2
	}
	if d > t.maxBackoff {
		d = t.maxBackoff
	}
	return d
}

func (t *TCP) conn(node, addr string) (net.Conn, error) {
	t.mu.Lock()
	if c, ok := t.conns[node]; ok {
		t.mu.Unlock()
		return c, nil
	}
	if f, ok := t.fails[node]; ok && time.Since(f.at) < t.backoffFor(f.count) {
		t.mu.Unlock()
		return nil, fmt.Errorf("transport: %s backing off after %d failed dial(s): %w", node, f.count, f.err)
	}
	timeout := t.dialTimeout
	t.mu.Unlock()
	c, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		err = fmt.Errorf("transport: dial %s (%s): %w", node, addr, err)
		t.mu.Lock()
		if f, ok := t.fails[node]; ok {
			f.at, f.err = time.Now(), err
			f.count++
		} else {
			t.fails[node] = &dialFailure{at: time.Now(), count: 1, err: err}
		}
		t.mu.Unlock()
		return nil, err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	delete(t.fails, node)
	// Dials are refused only once the socket sweep has begun: between Close
	// and the sweep, outbox writers still drain their backlog (clean-leave
	// frames ride there), and any connection cached here is swept after.
	if t.tornDown {
		_ = c.Close()
		return nil, ErrClosed
	}
	if existing, ok := t.conns[node]; ok {
		_ = c.Close()
		return existing, nil
	}
	t.conns[node] = c
	return c, nil
}

func (t *TCP) dropConn(node string) {
	t.mu.Lock()
	if c, ok := t.conns[node]; ok {
		_ = c.Close()
		delete(t.conns, node)
	}
	t.mu.Unlock()
}

func (t *TCP) acceptLoop() {
	defer t.wg.Done()
	for {
		conn, err := t.listener.Accept()
		if err != nil {
			return // listener closed
		}
		t.mu.Lock()
		if t.closed {
			t.mu.Unlock()
			_ = conn.Close()
			return
		}
		t.accepted[conn] = true
		t.mu.Unlock()
		t.wg.Add(1)
		go t.readLoop(conn)
	}
}

func (t *TCP) readLoop(conn net.Conn) {
	defer t.wg.Done()
	defer func() {
		_ = conn.Close()
		t.mu.Lock()
		delete(t.accepted, conn)
		t.mu.Unlock()
	}()
	header := make([]byte, frameHeader)
	// Frames up to readBuf bytes — acks, beats, single-tuple deltas, most
	// batches — are read into one buffer per connection: Decode copies
	// whatever it keeps, and the handler has returned before the next frame
	// overwrites it. A larger frame gets memory of its own, so a priming
	// answer does not stay pinned by every idle connection.
	buf := make([]byte, readBuf)
	for {
		// Waiting for the first byte of the next frame may take arbitrarily
		// long (an idle but healthy connection); once a frame has started,
		// the rest of the header and the body must arrive within the read
		// timeout — a sender that stalls mid-frame would otherwise pin this
		// goroutine and the connection forever.
		_ = conn.SetReadDeadline(time.Time{})
		if _, err := io.ReadFull(conn, header[:1]); err != nil {
			return
		}
		_ = conn.SetReadDeadline(time.Now().Add(readTimeout))
		if _, err := io.ReadFull(conn, header[1:]); err != nil {
			return
		}
		size := int(binary.BigEndian.Uint32(header))
		if size == 0 || size > MaxFrame {
			return // protocol violation; drop the connection
		}
		data := buf[:min(size, readBuf)]
		if size > readBuf {
			data = make([]byte, size)
		}
		if _, err := io.ReadFull(conn, data); err != nil {
			return
		}
		env, err := wire.Decode(data)
		if err != nil {
			t.badFrames.Add(1)
			continue // skip the frame, keep the connection
		}
		t.mu.Lock()
		h, ok := t.local[env.To]
		closed := t.closed
		t.mu.Unlock()
		if closed {
			return
		}
		if ok {
			h(env)
		}
	}
}

// Close implements Transport.
func (t *TCP) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	outboxes := make([]*outbox, 0, len(t.outboxes))
	for _, ob := range t.outboxes {
		outboxes = append(outboxes, ob)
	}
	t.mu.Unlock()

	// Drain phase: closing an outbox lets its writer flush the backlog (a
	// clean leave's Goodbye is typically the last frame queued) before the
	// sockets go; a writer that hits an error now discards its remainder
	// instead of burning a timeout per frame.
	for _, ob := range outboxes {
		ob.close()
	}
	t.obWG.Wait()

	// Teardown phase: sweep every socket and stop the loops.
	t.mu.Lock()
	t.tornDown = true
	ln := t.listener
	conns := t.conns
	t.conns = map[string]net.Conn{}
	accepted := make([]net.Conn, 0, len(t.accepted))
	for c := range t.accepted {
		accepted = append(accepted, c)
	}
	t.mu.Unlock()

	_ = ln.Close()
	for _, c := range conns {
		_ = c.Close()
	}
	for _, c := range accepted {
		_ = c.Close() // unblocks readLoop's io.ReadFull
	}
	t.wg.Wait()
	return nil
}

var _ Transport = (*TCP)(nil)
