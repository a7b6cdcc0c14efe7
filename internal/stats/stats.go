// Package stats implements the per-node statistical module of Section 5: it
// accumulates message/byte counters by message kind, query and update
// counters, duplicate and truncation counters, and closure latencies. The
// super-peer can collect and reset these counters across the network.
// Counters are safe for concurrent use.
package stats

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"text/tabwriter"
	"time"
)

// Counters accumulates one node's statistics.
type Counters struct {
	mu sync.Mutex
	s  Snapshot
	// started and finished count every message sent (and not refused) and
	// received; Reset leaves them, so a quiescence balance survives one.
	started, finished uint64
	tally             *Tally // moves with started − finished once joined
}

// Tally is the in-flight count shared by the counters of one process's peers:
// the sum of started − finished over every joined Counters. It is a hint, not
// a verdict — a waiter re-reads the exact totals when woken — so its one job is
// to say when that sum comes back to zero.
type Tally struct {
	n    atomic.Int64
	zero chan struct{}
}

// NewTally makes an empty tally.
func NewTally() *Tally { return &Tally{zero: make(chan struct{}, 1)} }

// Zero receives when a move has brought the tally to zero since the last
// receive; the one slot keeps a move from ever blocking.
func (t *Tally) Zero() <-chan struct{} { return t.zero }

// Load reads the tally.
func (t *Tally) Load() int64 { return t.n.Load() }

func (t *Tally) move(d int64) {
	if t != nil && d != 0 && t.n.Add(d) == 0 {
		select {
		case t.zero <- struct{}{}:
		default:
		}
	}
}

// Join makes the counters move t from now on, bringing in what they already
// have in flight, so a peer that received before joining leaves t exact.
func (c *Counters) Join(t *Tally) {
	c.mu.Lock()
	c.tally = t
	t.move(int64(c.started) - int64(c.finished))
	c.mu.Unlock()
}

// Snapshot is an immutable copy of the counters, mergeable across nodes.
type Snapshot struct {
	Node string

	MsgsSent     map[string]uint64 // by message kind
	MsgsReceived map[string]uint64
	BytesSent    uint64 // encoded message bytes (wire.Size), no envelope
	BytesRecv    uint64

	QueriesExecuted  uint64 // local body evaluations
	UpdatesApplied   uint64 // chase steps that changed the database
	TuplesInserted   uint64
	TuplesDuplicate  uint64 // answers carrying no new data
	DuplicateQueries uint64 // repeated query for the same (rule, wave)
	Truncated        uint64 // null-depth-bound hits
	SendErrors       uint64 // transport sends that returned an error (message lost)

	DiscoveryClosed time.Duration // time from start to state_d = closed
	UpdateClosed    time.Duration // time from start to state_u = closed
}

// NewCounters creates counters for a node.
func NewCounters(node string) *Counters {
	return &Counters{s: Snapshot{
		Node:         node,
		MsgsSent:     map[string]uint64{},
		MsgsReceived: map[string]uint64{},
	}}
}

// Sent records an outgoing message, before the transport gets it.
func (c *Counters) Sent(kind string, bytes int) {
	c.mu.Lock()
	c.started++
	c.tally.move(1)
	c.s.MsgsSent[kind]++
	c.s.BytesSent += uint64(bytes)
	c.mu.Unlock()
}

// Received records an incoming message, once its handling is finished.
func (c *Counters) Received(kind string, bytes int) {
	c.mu.Lock()
	c.finished++
	c.tally.move(-1)
	c.s.MsgsReceived[kind]++
	c.s.BytesRecv += uint64(bytes)
	c.mu.Unlock()
}

// AddQueries adds to the local-evaluation counter.
func (c *Counters) AddQueries(n uint64) { c.add(func(s *Snapshot) { s.QueriesExecuted += n }) }

// AddUpdates adds to the effective-update counter.
func (c *Counters) AddUpdates(n uint64) { c.add(func(s *Snapshot) { s.UpdatesApplied += n }) }

// AddInserted adds to the inserted-tuples counter.
func (c *Counters) AddInserted(n uint64) { c.add(func(s *Snapshot) { s.TuplesInserted += n }) }

// AddDuplicate adds to the no-new-data answer counter.
func (c *Counters) AddDuplicate(n uint64) { c.add(func(s *Snapshot) { s.TuplesDuplicate += n }) }

// AddDuplicateQueries counts repeated queries for the same rule and wave
// ("number of queries received ... for the same original query" in §5).
func (c *Counters) AddDuplicateQueries(n uint64) {
	c.add(func(s *Snapshot) { s.DuplicateQueries += n })
}

// AddTruncated counts null-depth-bound hits.
func (c *Counters) AddTruncated(n uint64) { c.add(func(s *Snapshot) { s.Truncated += n }) }

// SendFailed takes back a Sent the transport refused — nobody will receive it,
// so it must not read as in flight — and counts the loss (the protocol
// tolerates it by design, Section 4) where operators can see it.
func (c *Counters) SendFailed(kind string, bytes int) {
	c.mu.Lock()
	c.started--
	c.tally.move(-1)
	if c.s.MsgsSent[kind] > 0 { // a Reset may have come between
		c.s.MsgsSent[kind]--
		c.s.BytesSent -= min(c.s.BytesSent, uint64(bytes))
	}
	c.s.SendErrors++
	c.mu.Unlock()
}

// Totals reads the messages started (sent) and finished (received) since the
// counters were made. Over a whole network, finished read first and started
// second, the sums are equal exactly when nothing is in flight.
func (c *Counters) Totals() (started, finished uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.started, c.finished
}

// SetDiscoveryClosed records the discovery closure latency (first wins).
func (c *Counters) SetDiscoveryClosed(d time.Duration) {
	c.add(func(s *Snapshot) {
		if s.DiscoveryClosed == 0 {
			s.DiscoveryClosed = d
		}
	})
}

// SetUpdateClosed records the update closure latency (last wins: reopening
// extends it).
func (c *Counters) SetUpdateClosed(d time.Duration) {
	c.add(func(s *Snapshot) { s.UpdateClosed = d })
}

func (c *Counters) add(f func(*Snapshot)) {
	c.mu.Lock()
	f(&c.s)
	c.mu.Unlock()
}

// Snapshot returns a deep copy of the current counters.
func (c *Counters) Snapshot() Snapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.s.clone()
}

// Reset zeroes all counters (the super-peer "reset statistics" command).
func (c *Counters) Reset() {
	c.mu.Lock()
	node := c.s.Node
	c.s = Snapshot{Node: node, MsgsSent: map[string]uint64{}, MsgsReceived: map[string]uint64{}}
	c.mu.Unlock()
}

func (s Snapshot) clone() Snapshot {
	out := s
	out.MsgsSent = make(map[string]uint64, len(s.MsgsSent))
	for k, v := range s.MsgsSent {
		out.MsgsSent[k] = v
	}
	out.MsgsReceived = make(map[string]uint64, len(s.MsgsReceived))
	for k, v := range s.MsgsReceived {
		out.MsgsReceived[k] = v
	}
	return out
}

// TotalSent returns the total number of messages sent.
func (s Snapshot) TotalSent() uint64 {
	var n uint64
	for _, v := range s.MsgsSent {
		n += v
	}
	return n
}

// TotalReceived returns the total number of messages received.
func (s Snapshot) TotalReceived() uint64 {
	var n uint64
	for _, v := range s.MsgsReceived {
		n += v
	}
	return n
}

// Merge folds multiple node snapshots into a network-wide aggregate (node
// name "*").
func Merge(snaps []Snapshot) Snapshot {
	out := Snapshot{Node: "*", MsgsSent: map[string]uint64{}, MsgsReceived: map[string]uint64{}}
	for _, s := range snaps {
		for k, v := range s.MsgsSent {
			out.MsgsSent[k] += v
		}
		for k, v := range s.MsgsReceived {
			out.MsgsReceived[k] += v
		}
		out.BytesSent += s.BytesSent
		out.BytesRecv += s.BytesRecv
		out.QueriesExecuted += s.QueriesExecuted
		out.UpdatesApplied += s.UpdatesApplied
		out.TuplesInserted += s.TuplesInserted
		out.TuplesDuplicate += s.TuplesDuplicate
		out.DuplicateQueries += s.DuplicateQueries
		out.Truncated += s.Truncated
		out.SendErrors += s.SendErrors
		if s.DiscoveryClosed > out.DiscoveryClosed {
			out.DiscoveryClosed = s.DiscoveryClosed
		}
		if s.UpdateClosed > out.UpdateClosed {
			out.UpdateClosed = s.UpdateClosed
		}
	}
	return out
}

// Table renders snapshots as an aligned text table (one row per node plus a
// merged total), suitable for the experiment reports.
func Table(snaps []Snapshot) string {
	rows := append([]Snapshot(nil), snaps...)
	sort.Slice(rows, func(i, j int) bool { return rows[i].Node < rows[j].Node })
	rows = append(rows, Merge(snaps))

	var b strings.Builder
	w := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "node\tsent\trecv\tbytes_out\tqueries\tinserted\tdup\tdupq\tsend_err\tclosed_ms")
	for _, s := range rows {
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%.2f\n",
			s.Node, s.TotalSent(), s.TotalReceived(), s.BytesSent,
			s.QueriesExecuted, s.TuplesInserted, s.TuplesDuplicate, s.DuplicateQueries,
			s.SendErrors, float64(s.UpdateClosed.Microseconds())/1000.0)
	}
	_ = w.Flush()
	return b.String()
}
