// Package wire defines the protocol vocabulary of the distributed algorithm:
// the discovery-phase messages (A1–A3 of the paper), the update-phase
// messages (A4–A5), and the control plane a super-peer uses (rule broadcast,
// dynamic add/delete notifications, statistics collection). Messages are
// self-describing (Kind); the TCP transport encodes them with the binary
// codec of codec.go and the in-memory transport passes them by value. Either
// way a message's bytes, as the statistical module and the Batcher count
// them, are its encoded length (Size), which the codec's own arms compute.
package wire

import (
	"repro/internal/relalg"
	"repro/internal/stats"
)

// Message is any protocol message.
type Message interface {
	// Kind returns a short stable name used for statistics and tracing.
	Kind() string
}

// Envelope wraps a message with addressing for transports.
type Envelope struct {
	From, To string
	Msg      Message
}

// ---------------------------------------------------------------------------
// Discovery phase (A1–A3)

// NodeEdges is one node's self-asserted outgoing dependency edges (the node
// depends on each target), stamped with a version so receivers can replace
// stale knowledge after dynamic rule changes.
type NodeEdges struct {
	Node    string
	Version uint64
	Targets []string
}

// RequestNodes asks the receiver to take part in topology discovery for the
// given wave (the paper's requestNodes(IDs, IDo); the sender is in the
// envelope). Wave identifies one origin's discovery run ("origin#seq").
type RequestNodes struct {
	Wave string
}

// Kind implements Message.
func (RequestNodes) Kind() string { return "requestNodes" }

// DiscoveryAnswer streams accumulated dependency-edge knowledge back towards
// the wave origin (the paper's processAnswer). Finished reports that
// discovery through the answering branch is complete (echo).
type DiscoveryAnswer struct {
	Wave      string
	Knowledge []NodeEdges
	Finished  bool
}

// Kind implements Message.
func (DiscoveryAnswer) Kind() string { return "processAnswer" }

// ---------------------------------------------------------------------------
// Update phase (A4–A5)

// StartUpdate floods the global-update kick-off through the network over
// acquaintance links (both directions of dependency edges) so every node of
// the weakly connected component activates and starts pulling from its rule
// sources.
type StartUpdate struct {
	Epoch  uint64
	Origin string
}

// Kind implements Message.
func (StartUpdate) Kind() string { return "startUpdate" }

// Query asks the receiver to evaluate one body part of a coordination rule
// on behalf of the sender (the paper's Query(IDs, Q, SN)). The conjunction
// travels with the query (sources need not know rule definitions), Cols fix
// the result columns, and Path is the requester chain SN (most recent
// requester first) used for loop control. Scoped queries (query-dependent
// updates) restrict forwarding to rules relevant to the queried relations.
// Incarnation is a nonce fresh per requester process lifetime: a source
// carrying delta state across re-queries resumes from the receipt-confirmed
// frontier while the incarnation is unchanged, but falls back to the
// durability-confirmed frontier when it changes — a restarted requester
// only still holds what it had on stable storage.
type Query struct {
	Epoch       uint64
	RuleID      string
	Conj        string   // surface syntax of the body part local to the receiver
	Cols        []string // variables the result tuples are projected onto
	Path        []string // SN: requester chain, most recent first
	Scoped      bool
	Incarnation uint64
}

// Kind implements Message.
func (Query) Kind() string { return "query" }

// Answer returns (or pushes) the result set of a rule's body part (the
// paper's Answer(ID, QA, SN, state)). Route lists the nodes the result set
// has passed through, oldest first; the fix-point rule of Section 3 — stop
// propagating iff the receiver is on the route and the answer brings no new
// data — and the path-flag closure both read it.
//
// Semi-naive sources additionally stamp each answer with the subscription
// instance (SubID) and the per-relation sequence range the answer covers:
// Base is the frontier the evaluation started from, Seqs the frontier it
// reaches. The receiver echoes instance and range back in an AnswerAck once
// it has applied — and, on a durable node, persisted — the result set; the
// source advances a confirmed frontier only when it already covers the
// acknowledged Base (contiguous extension), so an ack for a later answer
// can never paper over an earlier answer that was dropped. Answers without
// Seqs (faithful mode, sent-set delta mode, pure state-flag notifications)
// need no acknowledgment.
type Answer struct {
	Epoch    uint64
	RuleID   string
	Part     string   // source node this result set evaluates (body part)
	Columns  []string // exported variables fixing tuple column order
	Tuples   []relalg.Tuple
	Complete bool // sender's state_u == closed
	Delta    bool // tuples extend earlier answers instead of replacing them
	Route    []string
	SubID    uint64            // subscription instance the answer belongs to
	Base     map[string]uint64 // per-relation frontier the delta starts from
	Seqs     map[string]uint64 // per-relation frontier this answer reaches (nil = unacked)
}

// Kind implements Message.
func (Answer) Kind() string { return "answer" }

// AnswerAck confirms receipt — and, when Durable, persistence — of an
// Answer's result set covering the sequence range (Base, Seqs]. The
// dependent echoes the answer's SubID and range back to the source, which
// extends a confirmed frontier per relation only where it already covers
// the Base: a dropped earlier answer leaves a gap no later ack can close,
// and the unacknowledged range ships again from the acked frontier (timeout
// resend, member rejoin, or the next epoch's re-pull). Durable is set when
// the dependent's store synced before the ack left; only durably confirmed
// frontiers are sealed to disk, so a source's crash recovery never skips
// data a dependent cannot actually recover. A stale SubID (the subscription
// was re-primed meanwhile) is ignored. Acknowledgments are protocol
// traffic: quiescence counting must include them, so a network is not
// declared settled with frontiers still in flight.
type AnswerAck struct {
	RuleID  string
	SubID   uint64
	Base    map[string]uint64
	Seqs    map[string]uint64
	Durable bool
}

// Kind implements Message.
func (AnswerAck) Kind() string { return "answerAck" }

// AnswerBatch coalesces several update-phase messages bound for one peer
// into a single wire frame: the Answers a source produced within a batching
// window (in send order), any AnswerAcks the sender owed the receiver
// (piggybacked instead of paying their own frame), and — in cluster mode —
// a pending membership Heartbeat riding along. Receivers apply the contents
// exactly as if each message had arrived alone and in the same order (acks
// first, then answers), and statistics count the contained messages
// individually, so a batched network keeps the same logical message counts
// and quiescence behaviour as an unbatched one — only the frame count drops.
// The transport.Batcher layer builds these frames; no protocol handler ever
// sends one directly.
type AnswerBatch struct {
	Answers []Answer
	Acks    []AnswerAck
	Beats   []Heartbeat
	// Replication stream frames riding the same batching window: appends a
	// primary owed this destination and acks a replica owed its primary.
	// They are split off and dispatched before the protocol contents, in
	// order, exactly as if each had paid its own frame.
	RepAppends []ReplicaAppend
	RepAcks    []ReplicaAck
	// Watch-stream deltas riding the window (internal/serving): split off and
	// forwarded one by one ahead of the protocol contents, like the
	// replication frames.
	WatchDeltas []WatchDelta
}

// Kind implements Message.
func (AnswerBatch) Kind() string { return "answerBatch" }

// Unsubscribe cancels the sender's subscription for a rule at the receiver
// (sent when a coordination rule is deleted at runtime).
type Unsubscribe struct {
	RuleID string
}

// Kind implements Message.
func (Unsubscribe) Kind() string { return "unsubscribe" }

// ---------------------------------------------------------------------------
// Control plane (Section 4 notifications and Section 5 super-peer verbs)

// AddRuleNotice notifies the head node of addLink(i,j,rule,id): the receiver
// gains a coordination rule it can fetch data by. RuleText is the surface
// syntax ("id: body -> head"), parsed on receipt.
type AddRuleNotice struct {
	RuleText string
}

// Kind implements Message.
func (AddRuleNotice) Kind() string { return "addRule" }

// DeleteRuleNotice notifies the head node of deleteLink(i,j,id).
type DeleteRuleNotice struct {
	RuleID string
}

// Kind implements Message.
func (DeleteRuleNotice) Kind() string { return "deleteRule" }

// TopoChanged propagates a topology-change hint from the head node of a
// changed rule to its transitive dependents, which mark their discovered
// paths stale and lazily re-discover. ChangeID deduplicates the flood.
type TopoChanged struct {
	ChangeID string
}

// Kind implements Message.
func (TopoChanged) Kind() string { return "topoChanged" }

// SetNetwork broadcasts a full network-description file; each peer adopts
// the rules targeting it (Section 5: "one peer can change the network
// topology at runtime").
type SetNetwork struct {
	Text string
}

// Kind implements Message.
func (SetNetwork) Kind() string { return "setNetwork" }

// StatsRequest asks a peer for its statistics snapshot. The report echoes
// Seq, so a poller can tell the answer to this request from a late one.
type StatsRequest struct{ Seq uint64 }

// Kind implements Message.
func (StatsRequest) Kind() string { return "statsRequest" }

// StatsReport carries a peer's statistics snapshot to the super-peer.
type StatsReport struct {
	Snapshot stats.Snapshot
	Seq      uint64 // the request's
}

// Kind implements Message.
func (StatsReport) Kind() string { return "statsReport" }

// StatsReset zeroes a peer's statistics.
type StatsReset struct{}

// Kind implements Message.
func (StatsReset) Kind() string { return "statsReset" }

// ---------------------------------------------------------------------------
// Cluster membership (multi-process deployment)
//
// These frames replace the paper's JXTA peer-discovery layer when every
// database peer runs as its own OS process (cmd/p2pdb serve): a starting
// process dials the members it knows from its address book, announces itself
// with its listen address, learns the transitively reachable member set from
// the acknowledgments, and keeps liveness fresh with heartbeats. They are
// handled by the cluster transport itself, below the peer runtime — a peer
// never sees them and they never touch the protocol counters the polling
// quiescence fallback reads.

// Join announces the sender as a cluster member: its node name, its listen
// address, and everything it currently knows about other members (gossip).
type Join struct {
	Node    string
	Addr    string
	Members map[string]string // node -> listen address
}

// Kind implements Message.
func (Join) Kind() string { return "join" }

// JoinAck acknowledges a Join with the receiver's merged member table, so the
// joiner learns members reachable only transitively.
type JoinAck struct {
	Members map[string]string
}

// Kind implements Message.
func (JoinAck) Kind() string { return "joinAck" }

// Heartbeat keeps a membership entry alive; Addr re-asserts the sender's
// listen address so a restarted process corrects stale book entries.
type Heartbeat struct {
	Node string
	Addr string
}

// Kind implements Message.
func (Heartbeat) Kind() string { return "heartbeat" }

// Goodbye is a clean leave: receivers mark the member as departed instead of
// waiting out the suspicion window.
type Goodbye struct {
	Node string
}

// Kind implements Message.
func (Goodbye) Kind() string { return "goodbye" }

// ---------------------------------------------------------------------------
// Replicated consensus control plane (internal/consensus)
//
// A Paxos-style replicated log over the fixed serve-member set re-founds the
// cluster control plane: membership changes, epoch bumps and
// discovery/update/rule-change kick-offs become agreed log entries applied in
// sequence by every member, so any member can host control requests and a
// killed proposer's in-flight update is re-driven by a new one. These frames
// are — like the membership frames above — consumed below the peer runtime by
// the cluster transport's consensus interceptor: a database peer never sees
// them and they never touch the protocol counters quiescence polling reads.
// Every frame piggybacks the sender's done-frontier (the highest log instance
// it has applied) for instance garbage-collection.

// Command is one replicated control-plane log entry. It is deliberately one
// flat struct rather than an interface: the codec stays simple, fuzzing
// reaches every field, and unknown Kinds are skipped by appliers instead of
// failing to decode (forward compatibility across member versions).
type Command struct {
	// Kind discriminates the entry: "noop" (gap fill), "member" (agreed
	// status change), "discover", "update", "updateDone", "addRule",
	// "deleteRule", "setNetwork", "promoteBid" (a replica's claim to succeed
	// a dead primary, carrying its durable replication frontier in Ref).
	Kind string
	// Origin is the proposing member; Seq its proposer-local sequence number.
	// Origin#Seq identifies one submission across proposer retries.
	Origin string
	Seq    uint64
	// Node is the subject: the member whose status changed ("member"), the
	// kick-off node ("discover"/"update"), or the head node ("deleteRule").
	Node string
	// Addr is the member's latest listen address ("member" entries).
	Addr string
	// Status is the agreed member status ("member" entries; cluster.Status).
	Status uint8
	// Text carries the rule text ("addRule"), the rule ID ("deleteRule"), or
	// the network description ("setNetwork").
	Text string
	// Ref links an entry to an earlier instance: an "updateDone" names the
	// log instance of the "update" it closes, so a stale done from a deposed
	// driver cannot clear a newer in-flight update; a "member" names the last
	// entry its proposer had folded (0: none), its premise.
	Ref uint64
}

// Kind strings of the consensus frames, also their stats/trace names.
const (
	KindPrepare  = "prepare"
	KindPromise  = "promise"
	KindAccept   = "accept"
	KindAccepted = "accepted"
	KindLearn    = "learn"
	KindCatchUp  = "catchUp"
	KindSnapshot = "ctlSnapshot"
)

// Prepare opens a ballot for one log instance (phase 1a).
type Prepare struct {
	Instance uint64
	Ballot   uint64
	Done     uint64 // sender's applied frontier (instance GC)
}

// Kind implements Message.
func (Prepare) Kind() string { return KindPrepare }

// Promise answers a Prepare (phase 1b). OK false is a rejection; Promised
// then carries the ballot the acceptor is already bound to, so the proposer
// can jump past it instead of walking ballots one by one. When the acceptor
// has accepted a value in an earlier ballot, HasVal/AccBallot/Val carry it —
// the proposer must adopt the highest-ballot such value.
type Promise struct {
	Instance  uint64
	Ballot    uint64
	OK        bool
	Promised  uint64 // on rejection: the ballot already promised
	AccBallot uint64 // highest ballot accepted so far (0 = none)
	HasVal    bool
	Val       Command
	Done      uint64
}

// Kind implements Message.
func (Promise) Kind() string { return KindPromise }

// Accept asks acceptors to accept a value under a ballot (phase 2a).
type Accept struct {
	Instance uint64
	Ballot   uint64
	Val      Command
	Done     uint64
}

// Kind implements Message.
func (Accept) Kind() string { return KindAccept }

// Accepted answers an Accept (phase 2b). OK false is a rejection with the
// conflicting promised ballot.
type Accepted struct {
	Instance uint64
	Ballot   uint64
	OK       bool
	Promised uint64
	Done     uint64
}

// Kind implements Message.
func (Accepted) Kind() string { return KindAccepted }

// Learn announces a decided instance (the proposer broadcasts it on reaching
// a majority of Accepted; acceptors also reply with it when a round arrives
// for an instance they already know decided, which is the catch-up path).
type Learn struct {
	Instance uint64
	Val      Command
	Done     uint64
}

// Kind implements Message.
func (Learn) Kind() string { return KindLearn }

// CatchUp asks a peer to re-send Learns for decided instances at or above
// From. Members also send it periodically as a done-frontier advertisement:
// it is the only consensus frame an idle, fully caught-up cluster exchanges.
type CatchUp struct {
	From uint64
	Done uint64
}

// Kind implements Message.
func (CatchUp) Kind() string { return KindCatchUp }

// Snapshot is a state transfer: the answer to a CatchUp whose From fell
// below the sender's instance-GC floor (the requester lost its control log,
// or was down far longer than the keep window — either way the prefix it
// needs is forgotten cluster-wide). State is the sender's opaque application
// state covering every instance up to Through; the receiver installs it in
// place of replaying those instances and resumes entry-wise catch-up above.
type Snapshot struct {
	Through uint64 // applied frontier the state covers
	State   []byte
	Done    uint64
}

// Kind implements Message.
func (Snapshot) Kind() string { return KindSnapshot }

// ---------------------------------------------------------------------------
// Replication (internal/replica)
//
// Each node's extensional relations are replicated k-way across serve
// members, with placement chosen deterministically from the consensus-agreed
// member table (rendezvous hash over member IDs). The primary streams its
// WAL-seq-stamped inserts to every placement replica and the replicas confirm
// with the same durable-ack discipline the subscription handshake uses: an
// append covers the per-relation sequence range (Base, To], a replica applies
// it only as a contiguous extension of its frontier (a gap triggers
// anti-entropy instead of a hole), and the primary's sent frontier rewinds to
// the acked one on silence. Like membership and consensus frames, replica
// frames are consumed below the peer runtime — the hosted peer never sees
// them and they never touch the protocol counters quiescence polling reads.

// ReplicaAppend streams one relation's inserts of a replicated peer from its
// primary to a placement replica: Tuples are the primary's accepted inserts
// with per-relation sequence numbers in (Base, To], in insertion order. A
// replica applies the frame only when Base matches its applied frontier for
// the relation (contiguity keeps the replica's own insert sequence aligned
// with the primary's, which is what makes restored subscription marks valid
// after a promotion); anything else is answered with a ReplicaSyncReq.
type ReplicaAppend struct {
	Node   string // the replicated peer whose relation this extends
	Rel    string
	Attrs  []string // the relation's schema attributes (lets a mirror declare it)
	Base   uint64   // frontier the range starts from (exclusive)
	To     uint64   // frontier the range reaches (inclusive)
	Tuples []relalg.Tuple
}

// Kind implements Message.
func (ReplicaAppend) Kind() string { return "replicaAppend" }

// ReplicaAck confirms a replica applied (and, when Durable, persisted) one
// relation of a replicated peer through sequence To. The primary extends the
// destination's acked frontier monotonically — a replica only ever acks a
// contiguous extension of what it holds, so max-merge is safe — and only the
// durable frontier enters promotion bids.
type ReplicaAck struct {
	Node    string
	Rel     string
	To      uint64
	Durable bool
}

// Kind implements Message.
func (ReplicaAck) Kind() string { return "replicaAck" }

// ReplicaSyncReq is the anti-entropy request: a replica (newly assigned,
// restarted, or handed a gapped append) tells the primary its applied
// frontier per relation, and the primary rewinds its sent frontier to it so
// the stream re-ships everything above. Re-shipped overlap deduplicates at
// the replica without disturbing sequence alignment.
type ReplicaSyncReq struct {
	Node     string
	Frontier map[string]uint64
}

// Kind implements Message.
func (ReplicaSyncReq) Kind() string { return "replicaSync" }

// ReplicaState ships the primary's protocol state (wal.MarshalState bytes:
// epoch, source-side subscription marks, part results) to its replicas, so a
// promoted replica restores the peer's standing subscriptions and re-joins
// delta-only instead of re-answering the world. State is shipped through the
// same stream as the data it describes, after the data of the flush round
// that captured it — restored marks never run ahead of the mirrored
// relations, and the peer clamps them to its recovered sequence numbers on
// restore anyway.
type ReplicaState struct {
	Node  string
	Epoch uint64
	State []byte
}

// Kind implements Message.
func (ReplicaState) Kind() string { return "replicaState" }

// ReplicaStatus is one row of a member's replication report: a replicated
// peer, the role this member plays for it, the counterpart member, and the
// summed per-relation frontier Applied has reached chasing Target.
type ReplicaStatus struct {
	Node    string // replicated peer the row is about
	Role    string // "primary" or "replica"
	Peer    string // counterpart member (destination replica, or the primary)
	Applied uint64 // summed frontier applied (replica) or durably acked (primary view)
	Target  uint64 // the primary's summed insert sequence the frontier chases
}

// ReplicaStatusRequest asks a member for its replication report (ctl status,
// metrics collection).
type ReplicaStatusRequest struct{}

// Kind implements Message.
func (ReplicaStatusRequest) Kind() string { return "replicaStatusRequest" }

// ReplicaStatusReport carries a member's replication report: its placement
// rows and the under-replication gauge (hosted peers whose live, caught-up
// replica count is below K).
type ReplicaStatusReport struct {
	Member          string
	K               int
	UnderReplicated int
	Entries         []ReplicaStatus
}

// Kind implements Message.
func (ReplicaStatusReport) Kind() string { return "replicaStatusReport" }

// ---------------------------------------------------------------------------
// Remote control plane (cluster coordinator verbs)
//
// A thin coordinator (cmd/p2pdb ctl) orchestrates live serve processes over
// the wire: it kicks discovery and update waves, probes open nodes, polls
// protocol state for closure detection, and evaluates remote local queries.
// These frames go through Peer.Handle like every other message; the
// coordinator's quiescence polling excludes their kinds from the counter
// sums (a poll must not look like protocol traffic).

// DiscoverRequest asks the receiver to start a topology-discovery wave with
// itself as origin (the remote form of the super-peer's A1 kick-off).
type DiscoverRequest struct{}

// Kind implements Message.
func (DiscoverRequest) Kind() string { return "discoverRequest" }

// UpdateRequest asks the receiver to become the update super-node: bump the
// epoch and flood the kick-off (the remote form of StartUpdateWave).
type UpdateRequest struct{}

// Kind implements Message.
func (UpdateRequest) Kind() string { return "updateRequest" }

// ProbeRequest asks a still-open receiver to re-issue its own queries and
// re-originate its result set to its subscribers (the remote form of the
// closure probe the update driver sends at a settled wave with open nodes).
type ProbeRequest struct{}

// Kind implements Message.
func (ProbeRequest) Kind() string { return "probeRequest" }

// StateRequest asks a peer for its protocol state (answered with a
// StateReport to the sender).
type StateRequest struct{}

// Kind implements Message.
func (StateRequest) Kind() string { return "stateRequest" }

// StateReport carries one peer's protocol state to the coordinator: the
// update epoch, whether the node joined the current wave, whether it reached
// its fix-point, whether its discovery completed, and its tuple count.
type StateReport struct {
	Node       string
	Epoch      uint64
	Activated  bool
	Closed     bool
	PathsReady bool
	Waves      uint64 // discovery waves this node has started since it booted
	Tuples     int
	// Serving gauges (internal/serving): live watchers, their summed queue
	// depth, and the hub's sharing/loss counters since start.
	Watchers       int
	WatchQueued    int
	WatchExtracted uint64 // shared delta extractions paid
	WatchSaved     uint64 // extractions saved vs one-per-watcher
	WatchDropped   uint64 // batches discarded by drop-oldest queues
	WatchCanceled  uint64 // watchers closed by the cancel policy
	// BadFrames counts frames the node's transport received but could not
	// decode — the visible symptom of members speaking different wire
	// format versions.
	BadFrames uint64
}

// Kind implements Message.
func (StateReport) Kind() string { return "stateReport" }

// QueryRequest evaluates a conjunctive query against the receiver's local
// database (Definition 4 through the wire; sound and complete globally once
// the network is quiescent). ID matches the QueryResult to the caller.
type QueryRequest struct {
	ID   uint64
	Body string
	Cols []string
}

// Kind implements Message.
func (QueryRequest) Kind() string { return "queryRequest" }

// QueryResult returns a QueryRequest's rows (or its error).
type QueryResult struct {
	ID      uint64
	Columns []string
	Tuples  []relalg.Tuple
	Err     string
}

// Kind implements Message.
func (QueryResult) Kind() string { return "queryResult" }

// WatchRequest registers a continuous query at the receiver (the wire face of
// internal/serving): the current result arrives as a Prime WatchDelta, then
// every later delta streams as tuples arrive, until a WatchCancel, a
// registration error, or the slow-consumer policy ends the stream. ID is
// client-scoped — re-sending an id is a reconnect and replaces the old stream.
type WatchRequest struct {
	ID       uint64
	Body     string   // conjunction source text
	Cols     []string // output columns
	Policy   string   // "", "block", "drop-oldest", "cancel"
	QueueCap int      // 0 = server default
	// Resume marks a reconnect: Marks is the per-relation frontier from the
	// client's resume token and the prime becomes exactly the unconfirmed
	// suffix past it. A flag rather than Marks != nil — an empty map decodes
	// as nil, and resume-from-zero is not a fresh prime.
	Resume bool
	Marks  map[string]uint64
}

// Kind implements Message.
func (WatchRequest) Kind() string { return "watchRequest" }

// WatchDelta is one delivery on a wire watch: the batch's tuples plus the
// per-relation frontier the client's accumulated state covers after applying
// it (the resume-token payload). The terminal frame carries Closed — with Err
// set when the server cancelled the stream rather than the client.
type WatchDelta struct {
	ID     uint64
	Seq    uint64 // per-watch, contiguous from 1 (the prime)
	Prime  bool
	Tuples []relalg.Tuple
	Marks  map[string]uint64
	Closed bool
	Err    string
}

// Kind implements Message.
func (WatchDelta) Kind() string { return "watchDelta" }

// WatchCancel ends a wire watch; the server still sends the terminal Closed
// delta so the client can tell a drained stream from a lost one.
type WatchCancel struct {
	ID uint64
}

// Kind implements Message.
func (WatchCancel) Kind() string { return "watchCancel" }

// CoordinatorPrefix starts the name of every control-plane endpoint. One keeps
// no message counters: what it sends is counted by nobody, its receiver included.
const CoordinatorPrefix = "@"

// ControlKinds is the (read-only) set of message kinds that belong to the
// remote control plane rather than the distributed algorithm itself: statistics
// collection and the coordinator verbs above. Quiescence detection by counters
// must exclude them — the polling itself generates them, and their replies
// flow to a coordinator that keeps no counters, so including them would
// either never settle or register as a permanent send/receive deficit.
// The consensus frames are listed too: they never reach a peer (the cluster
// transport consumes them below the peer runtime), so excluding them from
// counter sums is moot, but membership in this set also makes them exempt
// from TCP outbox eviction — dropping a Promise or Learn to make room for a
// re-shippable data frame would stall agreement for a full retry cycle.
var ControlKinds = map[string]bool{
	"statsRequest": true, "statsReport": true, "statsReset": true,
	"discoverRequest": true, "updateRequest": true, "probeRequest": true,
	"stateRequest": true, "stateReport": true,
	"queryRequest": true, "queryResult": true,
	"watchRequest": true, "watchDelta": true, "watchCancel": true,
	"replicaStatusRequest": true, "replicaStatusReport": true,
	KindPrepare: true, KindPromise: true, KindAccept: true,
	KindAccepted: true, KindLearn: true, KindCatchUp: true,
	KindSnapshot: true,
}
