// Package p2pdb is a Go implementation of the distributed algorithm for
// robust data sharing and updates in P2P database networks of Franconi,
// Kuper, Lopatenko and Zaihrayeu (EDBT P2P&DB Workshop, 2004).
//
// A network is a set of peers, each holding a local relational database,
// connected by coordination rules — conjunctive queries whose bodies read
// source nodes and whose heads write the target node, possibly inventing
// fresh values for existential variables. The library implements both
// phases of the paper's algorithm: topology discovery (every node learns
// its maximal dependency paths) and the asynchronous distributed update
// (every node imports all data implied by the rules, detecting its local
// fix-point even on cyclic topologies), together with the dynamic-network
// semantics of Section 4 (addLink/deleteLink at runtime with sound and
// complete results) and the super-peer operations of Section 5.
//
// Quickstart:
//
//	def, _ := p2pdb.ParseNetwork(`
//	  node A { rel a(x,y) }
//	  node B { rel b(x,y) }
//	  rule r1: B:b(X,Y) -> A:a(Y,X)
//	  fact B:b('1','2')
//	  super A
//	`)
//	net, _ := p2pdb.Build(def, p2pdb.Options{Delta: true})
//	defer net.Close()
//	_ = net.RunToFixpoint(context.Background())
//	rows, _ := net.LocalQuery("A", "a(X,Y)", []string{"X", "Y"})
//
// The network is live, not batch-shaped: after (or even during) a run, node
// handles accept online writes that propagate incrementally through the
// standing subscriptions, and continuous queries stream result deltas as
// implied tuples arrive:
//
//	w, _ := net.Node("A").Watch("a(X,Y)", []string{"X", "Y"})
//	current := <-w.Out()            // first batch: the current result (.Tuples maybe empty)
//	_, _ = net.Node("B").Insert(ctx, "b", p2pdb.Tuple{p2pdb.S("3"), p2pdb.S("4")})
//	_ = net.Quiesce(ctx)            // let the implied data finish propagating
//	delta := <-w.Out()              // .Tuples: the a-tuples newly derived from the insert
//
// Networks are transport-agnostic: Options.Transport (or BuildWith) accepts
// any message carrier. The default is the deterministic in-memory router;
// NewTCPMesh runs every peer behind its own real loopback socket. On either,
// orchestration judges quiescence as the paper's JXTA deployment must: from
// the peers' own message counters, never from the transport.
//
// The network also deploys as one peer per OS process: Options.Hosted
// restricts a Build to a subset of the definition's nodes, and
// internal/cluster supplies the membership transport (net-file address book,
// join handshake, heartbeats and dead-peer suspicion) plus a remote control
// plane speaking the wire control verbs — see `p2pdb serve` / `p2pdb ctl`
// and the README's Deployment walkthrough.
//
// Options.Delta enables the paper's delta optimisation (ship only unsent
// tuples per subscription), evaluated semi-naively: sources track
// per-relation high-water marks per subscription and re-answer by joining
// only the tuples inserted since the marks, so fix-point cost tracks the
// changed data rather than growing quadratically with the materialised
// result. Without it the network runs the paper's faithful mode.
//
// Options.DataDir makes the network durable: every node runs over a
// log-structured store (internal/wal) and a rebuilt network recovers its
// relations, epoch, subscriptions and part results from disk. Subscription
// marks are governed by a per-subscription acknowledgment handshake
// (wire.AnswerAck): dependents confirm each answer's sequence frontier
// after applying — and persisting — it, sources persist only those acked
// frontiers, and re-answers after restarts, timeouts or member rejoins
// resume from them. Both clean Close and crash restarts therefore re-answer
// delta-only (exactly the unacknowledged suffix); under FsyncNever a crash
// falls back to a full re-answer, since its acks are not durability-gated.
// Options.Fsync picks the durability/throughput trade (FsyncAlways,
// FsyncInterval, FsyncNever).
//
// The facade re-exports the core orchestration API; the full surface
// (relational engine, rule model, graph algorithms, transports, baselines,
// workload generators) lives in the internal packages and is exercised by
// the cmd/ tools, the examples and the benchmark suite.
package p2pdb

import (
	"repro/internal/core"
	"repro/internal/relalg"
	"repro/internal/rules"
	"repro/internal/storage"
	"repro/internal/transport"
	"repro/internal/wal"
)

// Network is a running P2P database network.
type Network = core.Network

// Node is a live handle on one peer: online writes (Insert) and continuous
// queries (Watch). Obtain one with Network.Node.
type Node = core.Node

// Watcher is a continuous query's result-delta stream (Node.Watch).
type Watcher = core.Watcher

// Options configures a network run.
type Options = core.Options

// Transport carries protocol messages between peers. The in-memory router
// (default) and the TCP mesh both implement it; orchestration discovers
// optional powers (BSP stepping, fault injection) through the capability
// interfaces in the transport package.
type Transport = transport.Transport

// Definition is a parsed network description (nodes, schemas, rules, seed
// facts, super-peer).
type Definition = rules.Network

// Rule is one coordination rule.
type Rule = rules.Rule

// Tuple is one database row; Value its attribute values.
type (
	Tuple = relalg.Tuple
	Value = relalg.Value
)

// S builds a string-constant value, I an integer-constant value (for
// constructing tuples passed to Node.Insert).
func S(s string) Value { return relalg.S(s) }
func I(n int64) Value  { return relalg.I(n) }

// InsertExact and InsertCore select the redundancy check used when
// materialising imported data.
const (
	InsertExact = storage.InsertExact
	InsertCore  = storage.InsertCore
)

// FsyncPolicy selects when a durable network's stores force appended records
// to stable storage (Options.Fsync; meaningful with Options.DataDir set).
type FsyncPolicy = wal.FsyncPolicy

// Fsync policies for Options.Fsync: FsyncInterval (default) flushes on a
// background cadence, FsyncAlways makes every write durable before it
// returns (group-committed), FsyncNever leaves flushing to seals and Close.
const (
	FsyncInterval = wal.FsyncInterval
	FsyncAlways   = wal.FsyncAlways
	FsyncNever    = wal.FsyncNever
)

// ParseNetwork parses a network-description file (see rules.ParseNetwork
// for the grammar).
func ParseNetwork(src string) (*Definition, error) { return rules.ParseNetwork(src) }

// ParseRule parses "id: body -> head" rule syntax.
func ParseRule(src string) (Rule, error) { return rules.ParseRule(src) }

// Build constructs a network from a definition (over Options.Transport, or
// the in-memory router when unset).
func Build(def *Definition, opts Options) (*Network, error) { return core.Build(def, opts) }

// BuildWith is Build over an explicit transport; the network takes
// ownership (Close closes it).
func BuildWith(def *Definition, tr Transport, opts Options) (*Network, error) {
	return core.BuildWith(def, tr, opts)
}

// NewTCPMesh creates a transport that gives every peer its own real TCP
// listener on the given address pattern (e.g. "127.0.0.1:0"), so a whole
// network runs over loopback sockets in one process.
func NewTCPMesh(listenAddr string) Transport { return transport.NewTCPMesh(listenAddr) }

// PaperExample returns the running example of Section 2 of the paper
// (nodes A–E, rules r1–r7), with seed data.
func PaperExample() *Definition { return rules.PaperExampleSeeded() }
