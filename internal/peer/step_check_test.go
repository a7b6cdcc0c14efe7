package peer

import (
	"flag"
	"fmt"
	"hash/fnv"
	"maps"
	"slices"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/baseline"
	"repro/internal/graph"
	"repro/internal/rules"
	"repro/internal/storage"
	"repro/internal/wire"
	"repro/internal/workload"
)

// TestProtocolModelCheck explores the paper's protocol through peerState.step:
// the paper's example, Ring(3), Clique(3) and Tree(2,2), each in faithful and
// in delta mode, every link a FIFO, from the super-peer's update kick (no
// Discover first: every node's own discovery wave runs inside the epoch).
// Two bounded exhaustive searches over these events (a state reached twice is
// explored once): one fault at states of the fair run from the kick, where
// answers and acks are in flight; then every interleaving from the kick,
// deepening one event at a time, so a counterexample it reports is a
// shortest one.
//
//	deliver L    the head of link L arrives
//	dup L        the head of link L arrives twice (a transport retry)
//	crash X      X's process dies, losing what is in flight to it, and
//	             restarts from its DurableState() over its database with a
//	             new incarnation (a durable store: every ack is Durable)
//	change C     a rule is redefined (same id, its body atoms reordered: a
//	             new question with the same answers), deleted, or added (a
//	             two-source rule) at its head
//
// A path holds at most one fault (dup, crash or change). Each leaf is drained
// to quiescence by a fixed fair schedule (round-robin over the links); after
// a crash the super-peer kicks a fresh epoch, as an operator's next Update
// does (a restarted member joins no epoch by itself), and the network drains
// again. At that quiescent state it asserts
//
//	Def. 9   every node's database equals the centralised fix-point
//	         (baseline.Centralized) of the final rules — after a deletion,
//	         between that and the fix-point of every rule it ever had;
//	Lemma 1  every node is Closed, with no probe round, and Closed exactly
//	         when every maximal dependency path has reported: each rule
//	         source declared itself complete, or every confirmable cyclic
//	         path through it is flagged stable; and discovery found exactly
//	         the confirmable maximal paths of the true dependency graph;
//	resend   every acknowledged stream is settled (shipped = received =
//	         durable), so a resend — a tick — re-ships exactly the unacked
//	         suffix, which is empty: it sends nothing;
//
// and no evaluation is retained at a closed node. After every delivery of an
// AnswerAck it asserts that an ack echoing another subscription instance
// moved no frontier.
//
// It reports, per network, the depth, the distinct states explored, the
// leaves drained and the runtime. This is the bounded search every test run
// does (~3 s on two cores): one fault at six states spread over the scheduled
// run, then depth 2. TestProtocolModelCheckFull goes further.
func TestProtocolModelCheck(t *testing.T) { runProtocolCheck(t, 2, 6) }

// TestProtocolModelCheckFull is the full-depth search: one fault at every
// state of the scheduled run, then depth 4 (~2 min on two cores). It runs only
// when -run names it, as CI's "Protocol model check (full depth)" step does:
//
//	go test -run TestProtocolModelCheckFull -v ./internal/peer/
func TestProtocolModelCheckFull(t *testing.T) {
	if f := flag.Lookup("test.run"); f == nil || !strings.Contains(f.Value.String(), "TestProtocolModelCheckFull") {
		t.Skip("the full-depth protocol search runs only when -run names it")
	}
	runProtocolCheck(t, 4, 0)
}

// runProtocolCheck searches every network in both modes, in parallel; the
// first counterexample stops every search. points 0 starts a fault at every
// state of the scheduled run.
func runProtocolCheck(t *testing.T, depth, points int) {
	stop := new(atomic.Bool)
	for _, net := range mcNetworks(t) {
		for _, delta := range []bool{true, false} {
			c := newProtoChecker(t, net, delta, stop)
			t.Run(c.name, func(t *testing.T) {
				t.Parallel()
				c.t = t
				start := time.Now()
				c.check(depth, points)
				if c.fail != "" {
					stop.Store(true)
					t.Fatalf("%s: %s", c.name, c.fail)
				}
				t.Logf("%s: one fault at %d of the scheduled run's %d states, then depth %d: %d distinct states, %d leaves drained (%d deliveries), %v",
					c.name, c.points, c.spineLen+1, depth, len(c.seen), c.leaves, c.delivered, time.Since(start).Round(time.Millisecond))
			})
		}
	}
}

// mcNet is a network the checker runs, with the rule changes it may make.
type mcNet struct {
	name    string
	def     *rules.Network
	changes []mcChange
}

// mcChange is a rule change delivered at its head: a redefinition or an
// addition (text) or a deletion (id).
type mcChange struct {
	head, text, del string
}

func mcNetworks(t *testing.T) []mcNet {
	var nets []mcNet
	for _, topo := range []workload.Topology{workload.Ring(3), workload.Clique(3), workload.Tree(2, 2)} {
		def, err := workload.Generate(topo, workload.DataSpec{RecordsPerNode: 1, Seed: 1, Style: workload.StyleCopy})
		if err != nil {
			t.Fatal(err)
		}
		first, last := def.Rules[0], def.Rules[len(def.Rules)-1]
		src := first.SourceNodes()[0]
		nets = append(nets, mcNet{name: topo.Name, def: def, changes: []mcChange{
			{head: first.HeadNode, text: fmt.Sprintf("%s: %s:wrote(A,K), %s:pub(K,T,Y) -> %s:pub(K,T,Y), %s:wrote(A,K)",
				first.ID, src, src, first.HeadNode, first.HeadNode)},
			{head: last.HeadNode, del: last.ID},
			{head: "N00", text: "rx: N01:pub(K,T,Y), N02:wrote(A,K) -> N00:wrote(A,K)"},
		}})
	}
	// The running example over the smallest seed that fires every rule, the
	// cyclic r2/r3 pair included.
	paper, err := rules.ParseNetwork(rules.PaperExampleText + "fact E:e('u', 'v')\nfact E:e('v', 'u')\n")
	if err != nil {
		t.Fatal(err)
	}
	return append(nets, mcNet{name: "paper", def: paper, changes: []mcChange{
		{head: "C", text: "r2: B:b(Y,Z), B:b(X,Y) -> C:c(X,Z)"},
		{head: "C", del: "r5"},
		{head: "C", text: "r8: A:a(X,Y), D:d(Y,X) -> C:c(X,Y)"},
	}})
}

// mcNow is every step's clock: the checker runs no resend timer.
var mcNow = time.Unix(1, 0)

type protoChecker struct {
	t      testing.TB
	name   string
	net    mcNet
	opts   Options
	origin string
	nodes  []string // sorted
	idx    map[string]int
	// want[k] is the fix-point after change k (k = len(changes): none); upper
	// the fix-point of every rule the network ever has.
	want  []map[string]*storage.DB
	upper []map[string]*storage.DB
	paths []map[string]map[string]bool // per change: node -> true confirmable maximal path keys

	seen      map[uint64]int
	spineLen  int // deliveries of the fixed schedule's run from the kick
	points    int // states of that run the fault search started from
	prefix    int // how many of the current path's events follow that schedule
	leaves    int
	delivered int
	fail      string
	stop      *atomic.Bool
}

func newProtoChecker(t testing.TB, net mcNet, delta bool, stop *atomic.Bool) *protoChecker {
	c := &protoChecker{t: t, net: net, opts: Options{Delta: delta}, origin: net.def.Super, idx: map[string]int{}, stop: stop}
	c.name = net.name + " faithful"
	if delta {
		c.name = net.name + " delta"
	}
	for _, d := range net.def.Nodes {
		c.nodes = append(c.nodes, d.Name)
	}
	sort.Strings(c.nodes)
	for i, n := range c.nodes {
		c.idx[n] = i
	}
	for k := 0; k <= len(net.changes); k++ {
		final, all := slices.Clone(net.def.Rules), slices.Clone(net.def.Rules)
		if k < len(net.changes) {
			final = net.changes[k].apply(final)
			if net.changes[k].del == "" {
				all = final
			}
		}
		c.want = append(c.want, c.fixpoint(final))
		c.upper = append(c.upper, c.fixpoint(all))
		g := graph.FromRules(final)
		byNode := map[string]map[string]bool{}
		for _, n := range c.nodes {
			byNode[n] = map[string]bool{}
			g.AddNode(n)
			for _, p := range g.MaximalPaths(n) {
				if last := p[len(p)-1]; last == n || len(g.Succ(last)) == 0 {
					byNode[n][p.Key()] = true
				}
			}
		}
		c.paths = append(c.paths, byNode)
	}
	return c
}

func (ch mcChange) apply(rs []rules.Rule) []rules.Rule {
	id := ch.del
	var r rules.Rule
	if ch.text != "" {
		var err error
		if r, err = rules.ParseRule(ch.text); err != nil {
			panic(err)
		}
		id = r.ID
	}
	rs = slices.DeleteFunc(rs, func(x rules.Rule) bool { return x.ID == id })
	if ch.text != "" {
		rs = append(rs, r)
	}
	return rs
}

func (ch mcChange) msg() any {
	if ch.del != "" {
		return wire.DeleteRuleNotice{RuleID: ch.del}
	}
	return wire.AddRuleNotice{RuleText: ch.text}
}

func (c *protoChecker) fixpoint(rs []rules.Rule) map[string]*storage.DB {
	def := *c.net.def
	def.Rules = rs
	res, err := baseline.Centralized(&def, rules.ApplyOptions{})
	if err != nil {
		c.t.Fatal(err)
	}
	return res.DBs
}

// mcWorld is one state of the whole network: every node's protocol state and
// every link's queue. hist[i] digests the events node i has taken, so two
// worlds whose nodes took the same events and whose links hold the same
// messages are the same state.
type mcWorld struct {
	peers  []*peerState
	hist   []uint64
	links  map[[2]string][]mcMsg
	order  [][2]string // every link used so far, sorted
	fault  bool
	change int // the change applied; len(changes) for none
	crash  bool
}

type mcMsg struct {
	msg wire.Message
	sum uint64
}

type mcEvent struct {
	what  string // deliver, dup, crash, change
	link  [2]string
	node  string
	index int
}

func (e mcEvent) label(c *protoChecker) string {
	switch e.what {
	case "deliver", "dup":
		return fmt.Sprintf("%s %s→%s", e.what, e.link[0], e.link[1])
	case "crash":
		return "crash " + e.node
	}
	ch := c.net.changes[e.index]
	if ch.del != "" {
		return fmt.Sprintf("delete %s at %s", ch.del, ch.head)
	}
	return fmt.Sprintf("add %q at %s", ch.text, ch.head)
}

// initial builds every node over its seeded database and kicks the update.
func (c *protoChecker) initial() *mcWorld {
	w := &mcWorld{links: map[[2]string][]mcMsg{}, change: len(c.net.changes), hist: make([]uint64, len(c.nodes))}
	dbs, err := baseline.Build(c.net.def)
	if err != nil {
		c.t.Fatal(err)
	}
	for _, n := range c.nodes {
		var mine []rules.Rule
		for _, r := range c.net.def.Rules {
			if r.HeadNode == n {
				mine = append(mine, r)
			}
		}
		s, err := newPeerState(n, 1, dbs[n], mine, c.opts)
		if err != nil {
			c.t.Fatal(err)
		}
		w.peers = append(w.peers, s)
	}
	for _, r := range c.net.def.Rules {
		for _, src := range r.SourceNodes() {
			w.peer(c, r.HeadNode).neighbors[src] = true
			w.peer(c, src).neighbors[r.HeadNode] = true
		}
	}
	c.local(w, c.origin, wire.UpdateRequest{}, 1)
	return w
}

func (w *mcWorld) peer(c *protoChecker, n string) *peerState { return w.peers[c.idx[n]] }

// replay rebuilds the world a path of events leads to.
func (c *protoChecker) replay(path []mcEvent) *mcWorld {
	w := c.initial()
	for _, ev := range path {
		c.apply(w, ev)
	}
	return w
}

func (c *protoChecker) apply(w *mcWorld, ev mcEvent) {
	switch ev.what {
	case "deliver":
		q := w.links[ev.link]
		w.links[ev.link] = q[1:]
		c.deliver(w, ev.link, q[0])
	case "dup":
		w.fault = true
		c.deliver(w, ev.link, w.links[ev.link][0])
	case "crash":
		w.fault, w.crash = true, true
		c.crash(w, ev.node)
	case "change":
		w.fault, w.change = true, ev.index
		ch := c.net.changes[ev.index]
		c.local(w, ch.head, ch.msg(), uint64(100+ev.index))
	}
}

// local steps an event at node n that no link carried.
func (c *protoChecker) local(w *mcWorld, n string, ev any, sum uint64) {
	i := c.idx[n]
	w.hist[i] = mix(w.hist[i], sum)
	c.run(w, i, w.peers[i].step(mcNow, "", ev, nil))
}

func (c *protoChecker) deliver(w *mcWorld, link [2]string, m mcMsg) {
	c.delivered++
	i := c.idx[link[1]]
	s := w.peers[i]
	var before []storage.Marks
	var stale *subscription
	if ack, ok := m.msg.(wire.AnswerAck); ok {
		if sub := s.subs[subKey(link[0], ack.RuleID)]; sub != nil && sub.st != nil && sub.id != ack.SubID {
			stale = sub
			before = []storage.Marks{sub.st.Frontier(storage.Received).Clone(), sub.st.Frontier(storage.Durable).Clone()}
		}
	}
	w.hist[i] = mix(w.hist[i], m.sum)
	c.run(w, i, s.step(mcNow, link[0], m.msg, nil))
	if stale != nil && c.fail == "" &&
		(!sameMarks(before[0], stale.st.Frontier(storage.Received)) || !sameMarks(before[1], stale.st.Frontier(storage.Durable))) {
		c.fail = fmt.Sprintf("an AnswerAck of instance %d from %s moved instance %d's frontier at %s: %v -> %v",
			m.msg.(wire.AnswerAck).SubID, link[0], stale.id, link[1], before[0], stale.st.Frontier(storage.Received))
	}
}

// run carries out what a step of node i asked, as the shell of a durable
// peer does: the sends in order, then the merged acknowledgments, Durable. A
// message's digest is its sender's history and its place among the step's
// sends: the step is a function of the history.
func (c *protoChecker) run(w *mcWorld, i int, effs []effect) {
	var acks []pendingAck
	sent := uint64(0)
	send := func(to string, m wire.Message) {
		sent++
		if _, ok := c.idx[to]; !ok {
			return // no such peer: the transport refuses it
		}
		k := [2]string{c.nodes[i], to}
		q, used := w.links[k]
		if !used {
			at, _ := slices.BinarySearchFunc(w.order, k, func(a, b [2]string) int { return strings.Compare(a[0]+">"+a[1], b[0]+">"+b[1]) })
			w.order = slices.Insert(w.order, at, k)
		}
		w.links[k] = append(q, mcMsg{msg: m, sum: mix(w.hist[i], sent)})
	}
	for _, e := range effs {
		switch e.kind {
		case effSend:
			send(e.to, e.msg)
		case effOweAck:
			acks = append(acks, pendingAck{to: e.to, msg: e.msg.(wire.AnswerAck)})
		}
	}
	for _, a := range mergeAcks(acks) {
		a.msg.Durable = true
		send(a.to, a.msg)
	}
}

// crash kills node n — everything in flight to it is lost — and restarts it
// from its durable state over its database, under its current rules.
func (c *protoChecker) crash(w *mcWorld, n string) {
	i := c.idx[n]
	old := w.peers[i]
	st := durableState(old)
	s, err := newPeerState(n, old.inc+1, old.db, ruleList(old.rules), c.opts)
	if err != nil {
		c.t.Fatal(err)
	}
	s.neighbors = maps.Clone(old.neighbors)
	restore(s, &st)
	w.peers[i] = s
	for k := range w.links {
		if k[1] == n {
			w.links[k] = nil
		}
	}
	w.hist[i] = mix(w.hist[i], 7)
}

// events lists every enabled event: faults first, so a fault-dependent
// counterexample is found early.
func (c *protoChecker) events(w *mcWorld) []mcEvent {
	var out []mcEvent
	links := w.busy()
	if !w.fault {
		for k := range c.net.changes {
			out = append(out, mcEvent{what: "change", index: k})
		}
		for _, n := range c.nodes {
			out = append(out, mcEvent{what: "crash", node: n})
		}
		for _, l := range links {
			out = append(out, mcEvent{what: "dup", link: l})
		}
	}
	for _, l := range links {
		out = append(out, mcEvent{what: "deliver", link: l})
	}
	return out
}

// busy lists the non-empty links in order.
func (w *mcWorld) busy() [][2]string {
	var out [][2]string
	for _, k := range w.order {
		if len(w.links[k]) > 0 {
			out = append(out, k)
		}
	}
	return out
}

func (w *mcWorld) hash() uint64 {
	h := fnv.New64a()
	b := make([]byte, 0, 256)
	for _, x := range w.hist {
		b = appendU64(b, x)
	}
	for _, l := range w.busy() {
		b = append(append(append(b, l[0]...), '>'), l[1]...)
		for _, m := range w.links[l] {
			b = appendU64(b, m.sum)
		}
	}
	b = append(b, byte(w.change), bit(w.fault), bit(w.crash))
	_, _ = h.Write(b)
	return h.Sum64()
}

func appendU64(b []byte, x uint64) []byte {
	for i := 0; i < 8; i++ {
		b = append(b, byte(x>>(8*i)))
	}
	return b
}

func bit(v bool) byte {
	if v {
		return 1
	}
	return 0
}

func mix(h, x uint64) uint64 { return (h^x)*1099511628211 + 0x9e3779b97f4a7c15 }

// check runs the two searches. First one fault — a crash, a rule change or a
// duplicate — at states of the fixed schedule's run from the kick (the faults
// that matter mid-wave, with answers and acks in flight): at points states
// evenly spread over the run, or at every state when points is 0. Then every
// interleaving from the kick, deepening one event at a time to depth.
func (c *protoChecker) check(depth, points int) {
	w := c.initial()
	var spine []mcEvent
	c.drain(w, &spine)
	c.spineLen = len(spine)
	c.seen = map[uint64]int{}
	stride := 1
	if points > 0 {
		stride = max(1, len(spine)/points)
	}
	for k := stride / 2; k <= len(spine) && c.fail == "" && !c.stop.Load(); k += stride {
		c.prefix = k
		c.points++
		for _, ev := range c.events(c.replay(spine[:k])) {
			if ev.what != "deliver" {
				c.explore(append(spine[:k:k], ev), 0)
			}
		}
	}
	c.prefix = 0
	for d := 1; d <= depth && c.fail == "" && !c.stop.Load(); d++ {
		c.seen = map[uint64]int{}
		c.explore(nil, d)
	}
}

// explore visits the world path leads to with left events to go.
func (c *protoChecker) explore(path []mcEvent, left int) {
	if c.fail != "" || c.stop.Load() {
		return
	}
	w := c.replay(path)
	key := w.hash()
	if d, seen := c.seen[key]; seen && d >= left {
		return
	}
	c.seen[key] = left
	evs := c.events(w)
	if left == 0 || len(evs) == 0 {
		c.finish(w)
	} else {
		for _, ev := range evs {
			c.explore(append(path, ev), left-1)
			if c.fail != "" {
				break
			}
		}
	}
	if c.fail != "" && !strings.Contains(c.fail, "\ntrace:") {
		labels := []string{"kick at " + c.origin}
		if c.prefix > 0 {
			labels = append(labels, fmt.Sprintf("the first %d deliveries of the fixed schedule", c.prefix))
		}
		for _, ev := range path[c.prefix:] {
			labels = append(labels, ev.label(c))
		}
		c.fail += "\ntrace:\n  " + strings.Join(append(labels, "(drain)"), "\n  ")
	}
}

// finish drains a leaf to quiescence — kicking a fresh epoch after a crash or
// a rule change — and checks the quiescent state.
func (c *protoChecker) finish(w *mcWorld) {
	c.leaves++
	c.drain(w, nil)
	if w.crash {
		c.local(w, c.origin, wire.UpdateRequest{}, 2)
		c.drain(w, nil)
	}
	if c.fail == "" {
		c.fail = c.violation(w)
	}
}

// drain delivers round-robin — the head of each non-empty link in turn, in
// link order — until no link holds a message, recording the deliveries in rec
// (if any). A fair schedule: a busy pair of links cannot starve the rest.
func (c *protoChecker) drain(w *mcWorld, rec *[]mcEvent) {
	for n, at := 0, 0; c.fail == ""; n++ {
		i := slices.IndexFunc(w.order[at:], func(k [2]string) bool { return len(w.links[k]) > 0 })
		if i < 0 {
			if i = slices.IndexFunc(w.order, func(k [2]string) bool { return len(w.links[k]) > 0 }); i < 0 {
				return
			}
		} else {
			i += at
		}
		if n > 200_000 {
			c.fail = "the network did not quiesce in 200 000 deliveries"
			return
		}
		ev := mcEvent{what: "deliver", link: w.order[i]}
		c.apply(w, ev)
		if rec != nil {
			*rec = append(*rec, ev)
		}
		at = i + 1
	}
}

// violation checks a quiescent world.
func (c *protoChecker) violation(w *mcWorld) string {
	k := w.change
	deleted := k < len(c.net.changes) && c.net.changes[k].del != ""
	for i, n := range c.nodes {
		s := w.peers[i]
		want, upper := c.want[k][n], c.upper[k][n]
		if ok := s.db.Equal(want) || deleted && dbWithin(want, s.db) && dbWithin(s.db, upper); !ok {
			return fmt.Sprintf("Def. 9: %s holds\n%s\nthe centralised fix-point is\n%s", n, s.db.Dump(), want.Dump())
		}
		if s.stateU != Closed {
			return fmt.Sprintf("Lemma 1: %s is still open at quiescence (no probe round): waiting on %v", n, s.waitingOn())
		}
		if len(s.rules) > 0 {
			if got, want := sortedKeys(s.paths), sortedKeys(c.paths[k][n]); !s.pathsReady || !slices.Equal(got, want) {
				return fmt.Sprintf("Lemma 1: %s tracks paths %q (ready %v), the dependency graph has %q", n, got, s.pathsReady, want)
			}
			if !reported(s) {
				return fmt.Sprintf("Lemma 1: %s is closed but not every maximal dependency path has reported: %v", n, s.waitingOn())
			}
		}
		for key, q := range s.questions {
			if q.last != nil {
				return fmt.Sprintf("%s is closed and still holds an evaluation of %q", n, key)
			}
		}
		for _, sk := range sortedKeys(s.subs) {
			sub := s.subs[sk]
			if sub.st == nil || !sub.primed {
				continue
			}
			shipped, rcv, dur := sub.st.Shipped(), sub.st.Frontier(storage.Received), sub.st.Frontier(storage.Durable)
			if !sameMarks(shipped, rcv) || !sameMarks(rcv, dur) {
				return fmt.Sprintf("resend: %s's stream to %s for %s is unsettled at quiescence: shipped %v, received %v, durable %v",
					n, sub.dependent, sub.ruleID, shipped, rcv, dur)
			}
		}
		for _, e := range s.step(mcNow, "", resendTick{}, nil) {
			if e.kind == effSend {
				return fmt.Sprintf("resend: a tick at quiescent %s re-sent %s to %s", n, e.msg.Kind(), e.to)
			}
		}
	}
	return ""
}

// reported is Lemma 1's condition, read from the paths alone: every rule
// source declared itself complete, or every cyclic path leaving through it
// is flagged stable (and there is one).
func reported(s *peerState) bool {
	for id, r := range s.rules {
		for _, src := range r.SourceNodes() {
			if s.ruleComplete[id][src] {
				continue
			}
			cycles := 0
			for key, rec := range s.paths {
				nodes := strings.Split(key, "\x00")
				if len(nodes) >= 3 && nodes[1] == src && nodes[len(nodes)-1] == s.id {
					if !rec.stable {
						return false
					}
					cycles++
				}
			}
			if cycles == 0 {
				return false
			}
		}
	}
	return true
}

func ruleList(m map[string]rules.Rule) []rules.Rule {
	var out []rules.Rule
	for _, id := range sortedKeys(m) {
		out = append(out, m[id])
	}
	return out
}

// sameMarks compares frontiers, a missing relation reading zero.
func sameMarks(a, b storage.Marks) bool { return a.Covers(b) && b.Covers(a) }

// dbWithin reports whether every tuple of a is in b.
func dbWithin(a, b *storage.DB) bool {
	for _, sc := range a.Schemas() {
		for _, t := range a.Rel(sc.Name).All() {
			if rb := b.Rel(sc.Name); rb == nil || !rb.Contains(t) {
				return false
			}
		}
	}
	return true
}
