package cluster

import (
	"fmt"
	"hash/fnv"
	"maps"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/wire"
)

// TestFoldModelCheck explores the agreed fold exhaustively: three members A,
// B and C, each hosting its own node, with K = 1 and K = 2, starting from a
// running cluster (everybody agreed alive and folded), through every
// interleaving of these events up to a depth (a state reached twice is
// explored once):
//
//	crash X     X's process dies; the churn adversary of "Distributed
//	            Agreement in Dynamic P2P Networks", which replaces members
//	            between folds (one member away at a time: two keep a quorum)
//	restart X   X boots from its control log: replay, the Deposed check,
//	            re-adoption of AdoptedNodes, the resume step
//	cut X       X keeps running but is cut off from the other two (heal X
//	            ends it): it folds and proposes nothing meanwhile
//	apply X     X folds the next agreed entry and runs what it asks of X
//	transfer X  X, lagging, installs a snapshot of the whole log's fold
//	P: X is S   P's reconcile loop proposes what its detector reads of X,
//	            premised on P's fold, when mayPropose lets it: a reachable
//	            member reads alive; one crashed or cut off reads suspect, or
//	            dead once suspicion outlasted DeadAfter, or alive on a stale
//	            heartbeat heard inside the suspicion window after it went.
//	            P stamps a death when it folds it.
//	P bids N    P proposes the promotion bid the fold asked of it
//	tick        the clock advances half a suspicion window
//
// After every step it asserts: at most one live host per node among the
// members that have applied the whole log; no election is lost while its
// node is really dead; a deposed member hosts nothing. Each way a member
// comes by its fold — applying an entry, installing a transfer, replaying
// and resuming at a restart — must yield the replay of its log prefix. And
// for every log, the snapshot of its prefix one entry shorter plus that entry
// equals the full replay, deeply (nil and empty maps differ), so by induction
// the snapshot at any cut plus the suffix does.
//
// The search deepens one step at a time, so a counterexample it reports is a
// shortest one.
func TestFoldModelCheck(t *testing.T) {
	depth := 8
	if testing.Short() {
		depth = 6
	}
	for _, k := range []int{1, 2} {
		c := newChecker(k)
		start := time.Now()
		for d := 1; d <= depth && c.fail == ""; d++ {
			c.seen, c.visits = map[uint64]int{}, 0
			c.explore(c.initial(), d)
		}
		if c.fail != "" {
			t.Fatalf("K=%d: %s", k, c.fail)
		}
		t.Logf("K=%d, depth %d: %d states (%d distinct), %d distinct logs, %v",
			k, depth, c.visits, len(c.seen), len(c.logs), time.Since(start).Round(time.Millisecond))
	}
}

var mcNames = [3]string{"A", "B", "C"}

const (
	mcWindow   = 2 // the suspicion window, in ticks
	mcMaxTicks = 3
)

func mcTime(tick int8) time.Time { return time.Unix(int64(tick), 0) }

func mcBit(node string) uint8 { return 1 << (node[0] - 'A') }

// mcWorld is the whole model state. A member's fold is the replay of its log
// prefix (every transition checks it), so a log id stands for it.
type mcWorld struct {
	now int8
	log int32 // the agreed log so far
	m   [3]mcMember
}

type mcMember struct {
	log                int32 // the log prefix it has folded (its control log)
	up, cut, gone      bool  // gone: deposed, it shut down for good
	serving, owed      uint8 // the nodes it serves; those whose bid the fold asked of it
	wentAt, crashLen   int8  // when it last went away; the log length when its process stopped
	stampInst, stampAt [3]int8
}

// mcLog is one distinct agreed log, folded once.
type mcLog struct {
	parent   int32
	n        int
	cmd      wire.Command // its last entry
	replay   *foldState   // the fold of the whole log (never mutated)
	restored *foldState   // that fold through a snapshot (never mutated)
	effs     []effect     // what folding cmd asked of the members
}

type checker struct {
	logs     []mcLog
	child    map[mcChild]int32
	transfer map[[2]int32][]effect // (member's log, whole log) -> transfer effects
	resume   map[int32][]effect
	seen     map[uint64]int
	visits   int
	path     []string
	fail     string
}

type mcChild struct {
	parent int32
	cmd    wire.Command
}

func newChecker(k int) *checker {
	s := newFoldState(mcNames[:], k)
	return &checker{
		logs:  []mcLog{{parent: -1, replay: s, restored: s}},
		child: map[mcChild]int32{}, transfer: map[[2]int32][]effect{}, resume: map[int32][]effect{},
	}
}

func (c *checker) initial() mcWorld {
	var w mcWorld
	for _, name := range mcNames {
		w.log = c.append(w.log, wire.Command{Kind: "member", Node: name, Status: uint8(StatusAlive)})
	}
	for i, name := range mcNames {
		w.m[i] = mcMember{log: w.log, up: true, serving: mcBit(name)}
	}
	return w
}

func cloneFold(s *foldState) *foldState {
	c := *s
	c.View, c.Rules, c.Hosts, c.DeadInst = maps.Clone(s.View), maps.Clone(s.Rules), maps.Clone(s.Hosts), maps.Clone(s.DeadInst)
	c.Elections = make(map[string]map[string]uint64, len(s.Elections))
	for n, bids := range s.Elections {
		c.Elections[n] = maps.Clone(bids)
	}
	return &c
}

// append returns the log parent extended by cmd, folding it the first time:
// directly, and from the parent's snapshot, which must agree.
func (c *checker) append(parent int32, cmd wire.Command) int32 {
	key := mcChild{parent, cmd}
	if id, ok := c.child[key]; ok {
		return id
	}
	p := c.logs[parent]
	l := mcLog{parent: parent, n: p.n + 1, cmd: cmd, replay: cloneFold(p.replay)}
	l.effs = l.replay.fold(uint64(l.n), cmd)
	viaSnapshot := cloneFold(p.restored)
	viaSnapshot.fold(uint64(l.n), cmd)
	if !reflect.DeepEqual(viaSnapshot, l.replay) && c.fail == "" {
		c.fail = fmt.Sprintf("the snapshot at %d plus entry %d is not the replay:\n got %+v\nwant %+v", p.n, l.n, *viaSnapshot, *l.replay)
	}
	var err error
	if l.restored, err = l.replay.restore(uint64(l.n), l.replay.snapshot()); err != nil {
		panic(err)
	}
	id := int32(len(c.logs))
	c.logs = append(c.logs, l)
	c.child[key] = id
	return id
}

// prefix is the log's prefix of n entries.
func (c *checker) prefix(log int32, n int) int32 {
	for c.logs[log].n > n {
		log = c.logs[log].parent
	}
	return log
}

func (c *checker) fold(m mcMember) *foldState { return c.logs[m.log].replay }

func (c *checker) explore(w mcWorld, left int) {
	c.visits++
	key := w.hash()
	d, seen := c.seen[key]
	if seen && d >= left {
		return
	}
	c.seen[key] = left
	if !seen && c.fail == "" {
		c.fail = c.violation(w)
	}
	if c.fail != "" {
		c.fail += "\ntrace:\n  " + strings.Join(c.path, "\n  ") + "\nlog:\n" + c.logString(w.log)
		return
	}
	if left == 0 {
		return
	}
	for _, ev := range c.events(w) {
		c.path = append(c.path, ev.label())
		c.explore(ev.next, left-1)
		c.path = c.path[:len(c.path)-1]
		if c.fail != "" {
			return
		}
	}
}

type mcEvent struct {
	what string
	i, j int
	want Status
	next mcWorld
}

func (e mcEvent) label() string {
	switch e.what {
	case "says":
		return fmt.Sprintf("%s: %s is %v", mcNames[e.i], mcNames[e.j], e.want)
	case "bids":
		return fmt.Sprintf("%s bids %s", mcNames[e.i], mcNames[e.j])
	case "tick":
		return "tick"
	}
	return e.what + " " + mcNames[e.i]
}

// events lists every enabled event with the world it leads to.
func (c *checker) events(w mcWorld) []mcEvent {
	var out []mcEvent
	away := 0
	for _, m := range w.m {
		if !m.up || m.cut {
			away++
		}
	}
	logLen := c.logs[w.log].n
	for i := range mcNames {
		m := w.m[i]
		switch {
		case m.up && !m.cut && away == 0:
			n := w
			n.stop(i, false, logLen)
			out = append(out, mcEvent{what: "crash", i: i, next: n})
			n = w
			n.m[i].cut, n.m[i].wentAt = true, w.now
			out = append(out, mcEvent{what: "cut", i: i, next: n})
		case m.cut:
			n := w
			n.m[i].cut = false
			out = append(out, mcEvent{what: "heal", i: i, next: n})
		case !m.up && !m.gone:
			out = append(out, mcEvent{what: "restart", i: i, next: c.restart(w, i)})
		}
		if !m.up || m.cut {
			continue
		}
		if applied := c.logs[m.log].n; applied < logLen {
			n := w
			n.m[i].log = c.prefix(w.log, applied+1)
			c.settle(&n, i, c.logs[n.m[i].log].effs)
			out = append(out, mcEvent{what: "apply", i: i, next: n})

			n = w
			n.m[i].log = w.log
			c.settle(&n, i, c.transferEffects(m.log, w.log))
			out = append(out, mcEvent{what: "transfer", i: i, next: n})
		}
		st := c.fold(m)
		for j, x := range mcNames {
			if j == i || st.hostOf(x) != x {
				continue // a re-homed name has no liveness of its own
			}
			wants := []Status{StatusAlive}
			if o := w.m[j]; !o.up || o.cut {
				wants = []Status{StatusSuspect, StatusDead}
				if w.now < o.wentAt+mcWindow {
					wants = append(wants, StatusAlive)
				}
			}
			for _, want := range wants {
				heard := MemberInfo{Name: x, Status: want, LastSeen: mcTime(w.now)}
				if mayPropose(st.View[x], mcTime(m.stampAt[j]), heard, want, mcWindow*time.Second) {
					n := w
					n.log = c.append(w.log, wire.Command{Kind: "member", Node: x, Status: uint8(want), Ref: st.Applied})
					out = append(out, mcEvent{what: "says", i: i, j: j, want: want, next: n})
				}
			}
		}
		for j, node := range mcNames {
			if m.owed&mcBit(node) != 0 {
				n := w
				n.log = c.append(w.log, wire.Command{Kind: "promoteBid", Origin: mcNames[i], Node: node, Ref: uint64(i + 1)})
				n.m[i].owed &^= mcBit(node)
				out = append(out, mcEvent{what: "bids", i: i, j: j, next: n})
			}
		}
	}
	if w.now < mcMaxTicks {
		n := w
		n.now++
		out = append(out, mcEvent{what: "tick", next: n})
	}
	return out
}

// transferEffects is what installing the snapshot of log to over a member's
// fold of log from asks of it; installing it must leave the replay of to.
func (c *checker) transferEffects(from, to int32) []effect {
	key := [2]int32{from, to}
	if effs, ok := c.transfer[key]; ok {
		return effs
	}
	next := cloneFold(c.logs[to].restored)
	effs := c.logs[from].replay.transfer(next)
	if !reflect.DeepEqual(next, c.logs[to].replay) && c.fail == "" {
		c.fail = fmt.Sprintf("a transferred fold is not the replay of its log:\n got %+v\nwant %+v", *next, *c.logs[to].replay)
	}
	c.transfer[key] = effs
	return effs
}

// restart boots member i from its control log, as Boot does: the replay
// (which runs no effect the model tracks), the Deposed check, re-adoption,
// and the resume step, which must leave the replayed fold as it is.
func (c *checker) restart(w mcWorld, i int) mcWorld {
	n := w
	m := &n.m[i]
	m.stampInst, m.stampAt = [3]int8{}, [3]int8{}
	st := c.fold(*m)
	if st.hostOf(mcNames[i]) != mcNames[i] {
		m.gone = true // Boot refuses: the log re-homed its node
		return n
	}
	m.up, m.serving = true, mcBit(mcNames[i])
	for _, node := range st.adopted(mcNames[i]) {
		m.serving |= mcBit(node)
	}
	effs, ok := c.resume[m.log]
	if !ok {
		resumed := cloneFold(st)
		effs = resumed.resume()
		if !reflect.DeepEqual(resumed, st) && c.fail == "" {
			c.fail = fmt.Sprintf("resuming changed the replayed fold:\n got %+v\nwant %+v", *resumed, *st)
		}
		c.resume[m.log] = effs
	}
	c.settle(&n, i, effs)
	return n
}

// stop ends member i's process at log length logLen; a deposed member stops
// for good.
func (w *mcWorld) stop(i int, gone bool, logLen int) {
	m := &w.m[i]
	m.up, m.gone, m.serving, m.owed = false, gone, 0, 0
	m.wentAt, m.crashLen = w.now, int8(logLen)
}

// settle stamps the deaths member i's fold shows, as its reconcile loop would
// on its next read, and runs the effects addressed to it as the shell and the
// Member hooks do.
func (c *checker) settle(w *mcWorld, i int, effs []effect) {
	m := &w.m[i]
	st := c.fold(*m)
	for j, x := range mcNames {
		switch {
		case st.View[x] != StatusDead:
			m.stampInst[j], m.stampAt[j] = 0, 0
		case m.stampInst[j] != int8(st.DeadInst[x]):
			m.stampInst[j], m.stampAt[j] = int8(st.DeadInst[x]), w.now
		}
	}
	me := mcNames[i]
	for _, e := range effs {
		if e.member != me && e.member != everyMember {
			continue
		}
		switch e.kind {
		case effBid:
			m.owed |= mcBit(e.node)
		case effPromote:
			if st.hostOf(e.node) == me { // Member.promote re-reads the host
				m.serving |= mcBit(e.node)
			}
		case effDepose:
			if e.node == me {
				w.stop(i, true, c.logs[w.log].n) // Member.depose closes the member
				return
			}
			m.serving &^= mcBit(e.node)
		}
	}
}

// violation checks the invariants in state w.
func (c *checker) violation(w mcWorld) string {
	whole := c.logs[w.log].replay
	for i, me := range mcNames {
		m := w.m[i]
		if st := c.fold(m); st.hostOf(me) != me && m.serving != 0 {
			return fmt.Sprintf("%s is deposed (its node lives at %s) and still serves %03b", me, st.hostOf(me), m.serving)
		}
	}
	for _, node := range mcNames {
		var hosts []string
		for i, me := range mcNames {
			if m := w.m[i]; m.up && m.log == w.log && m.serving&mcBit(node) != 0 {
				hosts = append(hosts, me)
			}
		}
		if len(hosts) > 1 {
			return fmt.Sprintf("node %s has %d live hosts: %v", node, len(hosts), hosts)
		}
		h := whole.hostOf(node)
		host := w.m[h[0]-'A']
		if _, open := whole.Elections[node]; !host.up && whole.DeadInst[h] > uint64(host.crashLen) && !open {
			return fmt.Sprintf("node %s lost its election: its host %s is dead and was declared so at %d, but the agreed view says %v",
				node, h, whole.DeadInst[h], whole.View[h])
		}
	}
	return ""
}

func (w mcWorld) hash() uint64 {
	b := make([]byte, 0, 64)
	b = append(b, byte(w.now), byte(w.log), byte(w.log>>8), byte(w.log>>16), byte(w.log>>24))
	for _, m := range w.m {
		b = append(b, byte(m.log), byte(m.log>>8), byte(m.log>>16), byte(m.log>>24),
			flag(m.up)|flag(m.cut)<<1|flag(m.gone)<<2, m.serving, m.owed, byte(m.wentAt), byte(m.crashLen))
		for j := range m.stampAt {
			b = append(b, byte(m.stampInst[j]), byte(m.stampAt[j]))
		}
	}
	h := fnv.New64a()
	_, _ = h.Write(b)
	return h.Sum64()
}

func flag(b bool) byte {
	if b {
		return 1
	}
	return 0
}

func (c *checker) logString(log int32) string {
	var lines []string
	for ; log > 0; log = c.logs[log].parent {
		l := c.logs[log]
		if cmd := l.cmd; cmd.Kind == "member" {
			lines = append(lines, fmt.Sprintf("  %d: member %s %v (premise %d)", l.n, cmd.Node, Status(cmd.Status), cmd.Ref))
		} else {
			lines = append(lines, fmt.Sprintf("  %d: %s %s for %s (frontier %d)", l.n, cmd.Kind, cmd.Origin, cmd.Node, cmd.Ref))
		}
	}
	for i, j := 0, len(lines)-1; i < j; i, j = i+1, j-1 {
		lines[i], lines[j] = lines[j], lines[i]
	}
	return strings.Join(lines, "\n")
}
