package transport

import (
	"encoding/binary"
	"errors"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/relalg"
	"repro/internal/wire"
)

// Failure-path coverage for the TCP transport: dead peers, dropped and
// re-dialled connections, and Close racing in-flight sends. The protocol
// treats send errors as a dynamic-network fact of life, so the transport
// must fail cleanly, never hang or panic.

// deadAddr returns a loopback address nothing listens on.
func deadAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	_ = ln.Close()
	return addr
}

func TestTCPSendToDeadPeer(t *testing.T) {
	tr, err := NewTCP("127.0.0.1:0", map[string]string{"ghost": deadAddr(t)})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	tr.dialTimeout = 250 * time.Millisecond
	if err := tr.Register("A", func(wire.Envelope) {}); err != nil {
		t.Fatal(err)
	}
	if err := tr.Send("A", "ghost", wire.StartUpdate{Epoch: 1}); err == nil {
		t.Fatal("send to a dead peer must fail")
	}
	// The failed dial must not poison later sends to healthy peers.
	if err := tr.Send("A", "A", wire.StartUpdate{Epoch: 1}); err != nil {
		t.Fatalf("local send after a failed dial: %v", err)
	}
}

func TestTCPReconnectAfterDrop(t *testing.T) {
	got := make(chan wire.Envelope, 8)
	b, err := NewTCP("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if err := b.Register("B", func(env wire.Envelope) { got <- env }); err != nil {
		t.Fatal(err)
	}
	a, err := NewTCP("127.0.0.1:0", map[string]string{"B": b.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	recv := func(what string) {
		t.Helper()
		select {
		case <-got:
		case <-time.After(5 * time.Second):
			t.Fatalf("%s: message not delivered", what)
		}
	}
	if err := a.Send("A", "B", wire.StartUpdate{Epoch: 1}); err != nil {
		t.Fatal(err)
	}
	recv("initial send")

	// An explicitly dropped connection must be re-dialled lazily.
	a.dropConn("B")
	if err := a.Send("A", "B", wire.StartUpdate{Epoch: 2}); err != nil {
		t.Fatal(err)
	}
	recv("send after dropConn")

	// A connection that dies under the sender's feet (the remote closed it,
	// a NAT timed out) surfaces as a write error; Send must retry once on a
	// fresh dial.
	a.mu.Lock()
	conn := a.conns["B"]
	a.mu.Unlock()
	if conn == nil {
		t.Fatal("no cached connection after send")
	}
	_ = conn.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		// The first write after the close may still land in the kernel
		// buffer of the dead socket; keep sending until the retry path has
		// demonstrably delivered.
		if err := a.Send("A", "B", wire.StartUpdate{Epoch: 3}); err != nil {
			t.Fatalf("send after remote close: %v", err)
		}
		select {
		case <-got:
			return
		case <-time.After(100 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			t.Fatal("send after broken connection never delivered")
		}
	}
}

// TestTCPDialBackoff pins the bounded-reconnect behaviour: after a failed
// dial, further sends inside the backoff window fail immediately without
// re-dialling, and a successful dial (or a changed address) clears the state.
func TestTCPDialBackoff(t *testing.T) {
	tr, err := NewTCP("127.0.0.1:0", map[string]string{"ghost": deadAddr(t)})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	tr.dialTimeout = 250 * time.Millisecond
	tr.maxBackoff = 10 * time.Second
	if err := tr.Register("A", func(wire.Envelope) {}); err != nil {
		t.Fatal(err)
	}
	if err := tr.Send("A", "ghost", wire.StartUpdate{}); err == nil {
		t.Fatal("send to a dead peer must fail")
	}
	// Drive the failure count up so the window is comfortably long (the 5th
	// failure opens an 800ms window; the fail-fast check below runs within it).
	for i := 0; i < 4; i++ {
		time.Sleep(tr.backoffFor(i + 1))
		_ = tr.Send("A", "ghost", wire.StartUpdate{})
	}
	start := time.Now()
	err = tr.Send("A", "ghost", wire.StartUpdate{})
	if err == nil {
		t.Fatal("send during backoff must fail")
	}
	if elapsed := time.Since(start); elapsed > 100*time.Millisecond {
		t.Fatalf("backed-off send took %v; it must fail fast, not re-dial", elapsed)
	}
	if !strings.Contains(err.Error(), "backing off") {
		t.Fatalf("backed-off send error = %v", err)
	}

	// A live listener appearing under a NEW address (the restarted-process
	// case) must be reachable immediately: SetPeerAddr clears the backoff.
	live, err := NewTCP("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer live.Close()
	got := make(chan wire.Envelope, 1)
	if err := live.Register("ghost", func(env wire.Envelope) { got <- env }); err != nil {
		t.Fatal(err)
	}
	tr.SetPeerAddr("ghost", live.Addr())
	if err := tr.Send("A", "ghost", wire.StartUpdate{Epoch: 9}); err != nil {
		t.Fatalf("send after address change: %v", err)
	}
	select {
	case <-got:
	case <-time.After(5 * time.Second):
		t.Fatal("send after address change not delivered")
	}
}

// TestTCPWriteDeadlineUnwedgesStalledReceiver fills a stalled receiver's
// socket until writes block, and checks the write deadline turns the wedge
// into a bounded error instead of an indefinite hang.
func TestTCPWriteDeadlineUnwedgesStalledReceiver(t *testing.T) {
	if testing.Short() {
		t.Skip("socket-buffer filling skipped in -short mode")
	}
	// A listener that accepts and then never reads: the OS buffers fill and
	// the sender's Write eventually blocks.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		time.Sleep(30 * time.Second) // stall far beyond the test horizon
	}()

	tr, err := NewTCP("127.0.0.1:0", map[string]string{"stalled": ln.Addr().String()})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	tr.writeTimeout = 250 * time.Millisecond
	if err := tr.Register("A", func(wire.Envelope) {}); err != nil {
		t.Fatal(err)
	}
	// Each 1MB frame either lands in socket buffers (fast) or blocks on the
	// stalled receiver until the deadline fires; in both cases the call must
	// return within the bound. Without SetWriteDeadline the first blocked
	// write would hang for the receiver's full 30s stall. The deadline path
	// drops the connection and retries on a fresh dial, so errors here are
	// the bounded failure the protocol tolerates, not a test failure.
	payload := make([]byte, 1<<20)
	for i := 0; i < 12; i++ {
		start := time.Now()
		_ = tr.write("stalled", ln.Addr().String(), payload)
		// Worst case: two deadline-bounded writes plus a loopback redial.
		if elapsed := time.Since(start); elapsed > 4*tr.writeTimeout {
			t.Fatalf("write %d blocked %v despite a %v deadline", i, elapsed, tr.writeTimeout)
		}
	}
}

func TestTCPCloseWhileSending(t *testing.T) {
	b, err := NewTCP("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if err := b.Register("B", func(wire.Envelope) {}); err != nil {
		t.Fatal(err)
	}
	a, err := NewTCP("127.0.0.1:0", map[string]string{"B": b.Addr()})
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for j := 0; j < 50; j++ {
				// Errors are fine (ErrClosed, broken writes); panics or
				// hangs are not.
				_ = a.Send("A", "B", wire.StartUpdate{Epoch: uint64(j)})
			}
		}()
	}
	close(start)
	time.Sleep(time.Millisecond)
	if err := a.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	wg.Wait()
	if err := a.Send("A", "B", wire.StartUpdate{}); !errors.Is(err, ErrClosed) {
		t.Fatalf("send after close = %v, want ErrClosed", err)
	}
	if err := a.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}

func TestTCPMeshDelivery(t *testing.T) {
	m := NewTCPMesh("127.0.0.1:0")
	defer m.Close()
	got := make(chan wire.Envelope, 2)
	if err := m.Register("A", func(wire.Envelope) {}); err != nil {
		t.Fatal(err)
	}
	if err := m.Register("B", func(env wire.Envelope) { got <- env }); err != nil {
		t.Fatal(err)
	}
	if err := m.Register("A", func(wire.Envelope) {}); err == nil {
		t.Fatal("re-register must fail")
	}
	if err := m.Send("nobody", "B", wire.StartUpdate{}); err == nil {
		t.Fatal("send from an unregistered node must fail")
	}
	if m.Addr("A") == "" || m.Addr("A") == m.Addr("B") {
		t.Fatalf("mesh nodes must own distinct listeners: %q vs %q", m.Addr("A"), m.Addr("B"))
	}
	if err := m.Send("A", "B", wire.StartUpdate{Epoch: 7}); err != nil {
		t.Fatal(err)
	}
	select {
	case env := <-got:
		if env.From != "A" || env.Msg.(wire.StartUpdate).Epoch != 7 {
			t.Fatalf("unexpected envelope %+v", env)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("mesh send not delivered over sockets")
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if err := m.Send("A", "B", wire.StartUpdate{}); !errors.Is(err, ErrClosed) {
		t.Fatalf("send after close = %v, want ErrClosed", err)
	}
	if err := m.Register("C", func(wire.Envelope) {}); !errors.Is(err, ErrClosed) {
		t.Fatalf("register after close = %v, want ErrClosed", err)
	}
}

// TestTCPOversizeFrameIsASendError pins the frame limit at the sending end:
// a message that encodes past MaxFrame used to be written anyway, the
// receiver hung up without a trace, and the ack frontier re-shipped the same
// answer forever. Send now refuses it (peer.send counts the error), nothing
// reaches the socket, and the connection keeps working.
func TestTCPOversizeFrameIsASendError(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 64 MiB message")
	}
	got := make(chan wire.Envelope, 1)
	b, err := NewTCP("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if err := b.Register("B", func(env wire.Envelope) { got <- env }); err != nil {
		t.Fatal(err)
	}
	a, err := NewTCP("127.0.0.1:0", map[string]string{"B": b.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	huge := wire.Answer{RuleID: "r", Tuples: []relalg.Tuple{{relalg.S(strings.Repeat("x", MaxFrame))}}}
	if err := a.Send("A", "B", huge); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversize send: got %v, want ErrFrameTooLarge", err)
	}
	if err := a.Send("A", "B", wire.StartUpdate{Epoch: 1}); err != nil {
		t.Fatal(err)
	}
	select {
	case env := <-got:
		if _, ok := env.Msg.(wire.StartUpdate); !ok {
			t.Fatalf("delivered %T, want the StartUpdate sent after the refusal", env.Msg)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("send after a refused oversize frame never delivered")
	}
}

// TestTCPUndecodableFrameIsCounted: a frame in another format version (what
// every frame of a mixed-version cluster looks like) is counted in BadFrames
// and skipped; the connection survives and the next good frame is delivered.
func TestTCPUndecodableFrameIsCounted(t *testing.T) {
	got := make(chan wire.Envelope, 1)
	b, err := NewTCP("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if err := b.Register("B", func(env wire.Envelope) { got <- env }); err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", b.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	good, err := wire.Encode(wire.Envelope{From: "A", To: "B", Msg: wire.StartUpdate{Epoch: 7}})
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), good...)
	bad[0]++ // the version byte
	if _, err := wire.Decode(bad); !errors.Is(err, wire.ErrVersion) {
		t.Fatalf("decode of a wrong-version frame: got %v, want ErrVersion", err)
	}
	for _, payload := range [][]byte{bad, good} {
		frame := binary.BigEndian.AppendUint32(nil, uint32(len(payload)))
		if _, err := conn.Write(append(frame, payload...)); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case env := <-got:
		if m, ok := env.Msg.(wire.StartUpdate); !ok || m.Epoch != 7 {
			t.Fatalf("delivered %+v, want the good frame behind the bad one", env.Msg)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("good frame behind an undecodable one never delivered")
	}
	if n := b.BadFrames(); n != 1 {
		t.Fatalf("BadFrames = %d, want 1", n)
	}
}
