package transport

import (
	"sync"

	"repro/internal/wire"
)

// TCPMesh runs a whole network over real loopback sockets inside one
// process: every registered peer gets its own TCP listener and address book,
// and every send between two peers traverses a real socket (no in-process
// short-circuit, unlike a single TCP value hosting many peers). It
// demonstrates — and tests — that the protocol needs nothing beyond reliable
// point-to-point messaging: the mesh offers no stepping and no fault
// injection — it implements Transport and nothing else — and orchestration
// detects quiescence from the peers' own counters, as on every transport and
// as a deployment over the paper's JXTA pipes would.
type TCPMesh struct {
	mu     sync.Mutex
	listen string // listen address pattern, e.g. "127.0.0.1:0"
	nodes  map[string]*TCP
	closed bool
}

// NewTCPMesh creates an empty mesh whose per-peer listeners bind to the given
// address (typically "127.0.0.1:0" for ephemeral loopback ports).
func NewTCPMesh(listenAddr string) *TCPMesh {
	return &TCPMesh{listen: listenAddr, nodes: map[string]*TCP{}}
}

// Register implements Transport: it starts a dedicated listener for the node
// and exchanges addresses with every peer already in the mesh.
func (m *TCPMesh) Register(node string, h Handler) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return ErrClosed
	}
	if _, ok := m.nodes[node]; ok {
		return addressError("re-register", node)
	}
	tr, err := NewTCP(m.listen, nil)
	if err != nil {
		return err
	}
	if err := tr.Register(node, h); err != nil {
		_ = tr.Close()
		return err
	}
	for name, other := range m.nodes {
		tr.SetPeerAddr(name, other.Addr())
		other.SetPeerAddr(node, tr.Addr())
	}
	m.nodes[node] = tr
	return nil
}

// Send implements Transport: the message leaves through the sender's own
// listener-side transport and arrives at the receiver's socket. An
// unregistered sender is as much an addressing error as an unregistered
// receiver.
func (m *TCPMesh) Send(from, to string, msg wire.Message) error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return ErrClosed
	}
	tr, ok := m.nodes[from]
	m.mu.Unlock()
	if !ok {
		return addressError("send from", from)
	}
	return tr.Send(from, to, msg)
}

// Addr returns the listen address of a registered node ("" if absent).
func (m *TCPMesh) Addr(node string) string {
	m.mu.Lock()
	defer m.mu.Unlock()
	if tr, ok := m.nodes[node]; ok {
		return tr.Addr()
	}
	return ""
}

// Close implements Transport, closing every per-peer listener.
func (m *TCPMesh) Close() error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil
	}
	m.closed = true
	trs := make([]*TCP, 0, len(m.nodes))
	for _, tr := range m.nodes {
		trs = append(trs, tr)
	}
	m.mu.Unlock()

	var first error
	for _, tr := range trs {
		if err := tr.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

var _ Transport = (*TCPMesh)(nil)
