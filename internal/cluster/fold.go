package cluster

import (
	"bytes"
	"encoding/gob"
	"sort"

	"repro/internal/rules"
	"repro/internal/wire"
)

// The agreed fold: the control plane's state is a pure function of the
// control log's applied prefix. fold applies one entry and returns the
// effects it asks of the members, each naming the member that runs it; the
// shell (ControlPlane) runs the ones addressed to itself. The fold takes no
// lock, reads no clock, starts no goroutine and touches no peer, so it is the
// same at every member, a control-log replay is a re-fold, and a model
// checker drives it directly.

// foldState is the agreed control state. Its exported fields are the
// state-transfer snapshot, gob-encoded: the field names are the format.
type foldState struct {
	members []string // the consensus set, sorted (configuration: never encoded)
	k       int      // replicas per node, ReplicationOptions.K (configuration)

	View        map[string]Status            // agreed member statuses (absent = book)
	Version     uint64                       // member entries applied
	PendingInst uint64                       // log instance of the update not yet matched by an updateDone (0: none)
	PendingNode string                       // its preferred driver: the member that accepted the kick
	Rules       map[string]string            // agreed rule set: rule ID -> rule text
	Hosts       map[string]string            // node -> member hosting it (absent: itself)
	Elections   map[string]map[string]uint64 // open promotions: node -> bidder -> frontier
	DeadInst    map[string]uint64            // member -> instance that folded its agreed death
	// Applied is the last instance folded: the premise (Command.Ref) of this
	// member's member proposals. An alive premised on less than the death it
	// meets had not seen that death.
	Applied   uint64
	Failovers uint64 // driver changes while an update was in flight
}

// effect is one thing an applied entry asks of one member (or of all).
type effect struct {
	kind   effectKind
	member string // who runs it; everyMember for all of them
	node   string // bid, promote, depose: the node concerned
	text   string // addRule: the rule text; deleteRule: the rule ID
	inst   uint64 // drive: the update instance
}

type effectKind string

const (
	effBid        effectKind = "bid"        // propose a promoteBid for node with the member's frontier
	effPromote    effectKind = "promote"    // the member won node's election: adopt it
	effDepose     effectKind = "depose"     // node was re-homed away from the member: stop serving it
	effDrive      effectKind = "drive"      // drive update inst to closure, then commit updateDone
	effDiscover   effectKind = "discover"   // start a discovery wave
	effAddRule    effectKind = "addRule"    // install the rule (addressed to its head)
	effDeleteRule effectKind = "deleteRule" // drop the rule (a no-op but at its head)
)

// everyMember addresses an effect to all members: a deleteRule needs no
// routing, since the agreed rule set need not know the rule's head.
const everyMember = "*"

func newFoldState(members []string, k int) *foldState {
	return &foldState{
		members: members, k: k,
		View: map[string]Status{}, Rules: map[string]string{}, Hosts: map[string]string{},
		Elections: map[string]map[string]uint64{}, DeadInst: map[string]uint64{},
	}
}

// fold applies one agreed entry and returns what it asks of the members.
func (s *foldState) fold(instance uint64, cmd wire.Command) []effect {
	s.Applied = instance
	switch cmd.Kind {
	case "member":
		return s.member(instance, cmd)
	case "promoteBid":
		bids, open := s.Elections[cmd.Node]
		if !open {
			return nil
		}
		// Max-merge: a bidder may re-submit after a restart with a fresher
		// frontier; presence in the map is what marks the bid cast.
		if old, ok := bids[cmd.Origin]; !ok || cmd.Ref > old {
			bids[cmd.Origin] = cmd.Ref
		}
		// A bid changes no electorate, so the missing bidders have been asked
		// already: only a decision is news.
		if effs := s.check(cmd.Node); len(effs) > 0 && effs[0].kind == effPromote {
			return effs
		}
	case "discover":
		if starter := s.elect(cmd.Node); starter != "" {
			return []effect{{kind: effDiscover, member: starter}}
		}
	case "update":
		// Always a fresh drive for the new instance — even by a member already
		// driving an older update (that drive notices it was superseded).
		was := s.driver()
		s.PendingInst, s.PendingNode = instance, cmd.Node
		return s.handOver(was, true)
	case "updateDone":
		if s.PendingInst == cmd.Ref {
			s.PendingInst, s.PendingNode = 0, ""
		}
	case "addRule":
		if r, err := rules.ParseRule(cmd.Text); err == nil {
			s.Rules[r.ID] = cmd.Text
			return []effect{{kind: effAddRule, member: r.HeadNode, text: cmd.Text}}
		}
	case "deleteRule":
		// Any member can host the request, and a dead head applies it from its
		// control log on restart.
		delete(s.Rules, cmd.Text)
		return []effect{{kind: effDeleteRule, member: everyMember, text: cmd.Text}}
	}
	return nil
}

// member folds an agreed status change.
func (s *foldState) member(instance uint64, cmd wire.Command) []effect {
	prev, st := s.View[cmd.Node], Status(cmd.Status)
	if prev == StatusDead && st != StatusDead && cmd.Ref != 0 && cmd.Ref < s.DeadInst[cmd.Node] {
		// Proposed before its proposer had folded the death (Ref 0: no
		// premise, honoured). An alive would delete the election for nothing;
		// a suspicion would let the next alive, premised on it, do the same.
		return nil
	}
	was := s.driver()
	s.View[cmd.Node] = st
	s.Version++
	// The member's own node and every node it adopted lose (or regain) their
	// primary with it.
	hosted := append([]string{cmd.Node}, s.adopted(cmd.Node)...)
	switch {
	case st == StatusDead && prev != StatusDead:
		// A death declaration opens a promotion election for each of them.
		s.DeadInst[cmd.Node] = instance
		for _, n := range hosted {
			if _, open := s.Elections[n]; !open && s.k > 0 {
				s.Elections[n] = map[string]uint64{}
			}
		}
	case st == StatusAlive:
		// The member is heard from again before any election decided: the
		// sitting primary is back, the elections are moot. (After a decision
		// this entry usually records the adopter heartbeating on the dead
		// name's behalf — the elections are long gone by then.)
		for _, n := range hosted {
			delete(s.Elections, n)
		}
	}
	// Any view change can shrink an election's expected electorate (a bidder
	// died) or re-add a bidder: re-check every open election (in node order,
	// so the effect list is the same at every member).
	var effs []effect
	for _, n := range sortedKeys(s.Elections) {
		effs = append(effs, s.check(n)...)
	}
	return append(effs, s.handOver(was, false)...)
}

// handOver follows the driver role after a view or pending change from the
// holder was: a change of holder while an update is in flight counts as a
// fail-over, and the pending update goes to its driver — on a fresh update
// always, otherwise only on a change of holder (the sitting driver's
// goroutine keeps running untouched).
func (s *foldState) handOver(was string, fresh bool) []effect {
	d := s.driver()
	if d != was && was != "" && d != "" {
		s.Failovers++
	}
	if d == "" || (d == was && !fresh) {
		return nil
	}
	return []effect{{kind: effDrive, member: d, inst: s.PendingInst}}
}

// check decides an open election once every expected bidder has bid: the
// highest durable frontier wins (ties to the lexicographically least name),
// the host map re-homes the node, the winner promotes and the previous host
// is deposed. Until then it asks every missing bidder for its bid — the
// electorate may have shrunk onto it, or it restarted. With nobody eligible
// the election stays open until a member entry changes the electorate.
func (s *foldState) check(node string) []effect {
	bids, open := s.Elections[node]
	if !open {
		return nil
	}
	expect := s.electorate(node)
	if len(expect) == 0 {
		return nil
	}
	var effs []effect
	var winner string
	var best uint64
	for _, e := range expect {
		if f, ok := bids[e]; !ok {
			effs = append(effs, effect{kind: effBid, member: e, node: node})
		} else if winner == "" || f > best || (f == best && e < winner) {
			winner, best = e, f
		}
	}
	if effs != nil {
		return effs
	}
	delete(s.Elections, node)
	loser := s.hostOf(node)
	s.Hosts[node] = winner
	return []effect{{kind: effPromote, member: winner, node: node}, {kind: effDepose, member: loser, node: node}}
}

// resume lists what a member that has just replayed its control log still
// owes: the pending update's drive and the open elections' missing bids.
// Everything else the replayed entries asked for happened before the restart.
func (s *foldState) resume() []effect {
	var effs []effect
	if d := s.driver(); d != "" {
		effs = append(effs, effect{kind: effDrive, member: d, inst: s.PendingInst})
	}
	for _, n := range sortedKeys(s.Elections) {
		effs = append(effs, s.check(n)...)
	}
	return effs
}

// transfer lists what replacing s by a transferred fold asks of the members:
// the difference of the two states. Each re-homed node's promotion and
// deposal; the rules that are new or whose text changed, and those that are
// gone; the pending update's drive when it or its driver changed; and the
// open elections' missing bids.
func (s *foldState) transfer(next *foldState) []effect {
	var effs []effect
	for _, n := range s.members {
		if was, now := s.hostOf(n), next.hostOf(n); was != now {
			effs = append(effs, effect{kind: effPromote, member: now, node: n}, effect{kind: effDepose, member: was, node: n})
		}
	}
	for _, id := range sortedKeys(next.Rules) {
		if text := next.Rules[id]; s.Rules[id] != text {
			if r, err := rules.ParseRule(text); err == nil {
				effs = append(effs, effect{kind: effAddRule, member: r.HeadNode, text: text})
			}
		}
	}
	for _, id := range sortedKeys(s.Rules) {
		if _, ok := next.Rules[id]; !ok {
			effs = append(effs, effect{kind: effDeleteRule, member: everyMember, text: id})
		}
	}
	if d := next.driver(); d != "" && (d != s.driver() || next.PendingInst != s.PendingInst) {
		effs = append(effs, effect{kind: effDrive, member: d, inst: next.PendingInst})
	}
	for _, n := range sortedKeys(next.Elections) {
		effs = append(effs, next.check(n)...)
	}
	return effs
}

// snapshot encodes the fold for a state transfer (nil if it cannot).
func (s *foldState) snapshot() []byte {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(s); err != nil {
		return nil
	}
	return buf.Bytes()
}

// restore decodes a transferred fold of the log through instance through,
// under s's configuration. A snapshot written before Applied was part of the
// state does not carry it; through is its value by definition.
func (s *foldState) restore(through uint64, data []byte) (*foldState, error) {
	next := newFoldState(s.members, s.k)
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(next); err != nil {
		return nil, err
	}
	next.Applied = through
	return next, nil
}

// statusOK reports whether a member is eligible for driver duty and replica
// placement: never-heard-from (book) counts as eligible so a freshly booted
// cluster with an empty log can still elect. Re-homed members are never
// eligible even when the view shows them alive — after a promotion the
// adopter heartbeats on the dead name's behalf (so sends re-route), and
// electing a name with no consensus node behind it as update driver would
// stall the wave forever.
func (s *foldState) statusOK(name string) bool {
	if h, ok := s.Hosts[name]; ok && h != name {
		return false
	}
	st := s.View[name]
	return st == StatusBook || st == StatusAlive
}

// elect picks the member responsible for a kick: the preferred member when
// eligible, else the first eligible in sorted order ("" when none is).
func (s *foldState) elect(prefer string) string {
	if prefer != "" && s.statusOK(prefer) {
		return prefer
	}
	for _, m := range s.members {
		if s.statusOK(m) {
			return m
		}
	}
	return ""
}

// driver is the elected driver of the pending update ("" when none).
func (s *foldState) driver() string {
	if s.PendingInst == 0 {
		return ""
	}
	return s.elect(s.PendingNode)
}

// hostOf resolves the member hosting a node's primary (the node itself until
// a promotion re-homed it).
func (s *foldState) hostOf(node string) string {
	if h, ok := s.Hosts[node]; ok && h != "" {
		return h
	}
	return node
}

// adopted lists, sorted, the nodes other than its own that a member hosts.
func (s *foldState) adopted(member string) []string {
	var out []string
	for _, n := range sortedKeys(s.Hosts) {
		if n != member && s.Hosts[n] == member {
			out = append(out, n)
		}
	}
	return out
}

// electorate computes a node's promotion electorate — the members that should
// hold its replicas under the agreed view: the k rendezvous-highest eligible
// members, excluding the node's current host (the primary is not its own
// replica). Every member computes the same set from the same fold, so
// election completion is agreed without a protocol of its own.
func (s *foldState) electorate(node string) []string {
	host := s.hostOf(node)
	return RendezvousPlacement(node, s.members, s.k,
		func(m string) bool { return m != host && s.statusOK(m) })
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
