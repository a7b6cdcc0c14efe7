package consensus

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"flag"
	"fmt"
	"hash/fnv"
	"maps"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/wire"
)

// TestConsensusModelCheck explores the replicated log through state.step:
// three members A, B and C with durable votes, a submit at A and one at C in
// flight from the start. An iterative-deepening search (a state reached
// twice, by its hash, is explored once) takes these events:
//
//	deliver m    an in-flight frame arrives — any of them, in any order
//	drop m       it is lost
//	dup m        it arrives and stays in flight (a transport retry)
//	tick X       X's armed timer fires: a phase times out, a pause ends, a
//	             catch-up round runs (the first is the one Start fires)
//	…, crash k   the deliver or tick at X carries out only the first k
//	             effects of its step, then X's process dies, losing its
//	             memory and what is in flight to it
//	restart X    X comes back from what its persist and append effects
//	             wrote; one member is down at a time
//
// A path holds a bounded number of faults (drop, dup, crash) and of ticks.
// After every step it asserts
//
//	agreement  no two members learn different values for one instance, no
//	           ballot proposes another value where one was chosen (accepted
//	           by a quorum in a lower ballot), and applied sequences are
//	           prefixes of each other;
//	validity   every decided value was submitted or is a gap-fill no-op, and
//	           each Origin#Seq is decided at one instance at most;
//	order      Apply and Restore run in instance order, gap-free and exactly
//	           once — also across the replay of a restart;
//	promises   no acceptor answers below a ballot it promised before a crash;
//	submits    a completed submit reports the instance its value was decided
//	           at;
//
// and every leaf of the shallower depths is drained by a fair schedule — the
// down member restarts, frames arrive in the order sent, and the earliest
// timer fires when none is in flight — until every submit whose member did
// not crash has completed and every member has applied every decided
// instance. This is the bounded search every test run does;
// TestConsensusModelCheckFull goes deeper.
func TestConsensusModelCheck(t *testing.T) {
	runConsensusCheck(t, mcBounds{depth: 5, faults: 1, ticks: 1, drain: 4})
}

// TestConsensusModelCheckFull is the full-depth search. It runs only when
// -run names it, as CI's "Consensus model check (full depth)" step does:
//
//	go test -run TestConsensusModelCheckFull -v ./internal/consensus/
func TestConsensusModelCheckFull(t *testing.T) {
	if f := flag.Lookup("test.run"); f == nil || !strings.Contains(f.Value.String(), "TestConsensusModelCheckFull") {
		t.Skip("the full-depth consensus search runs only when -run names it")
	}
	runConsensusCheck(t, mcBounds{depth: 7, faults: 2, ticks: 2, drain: 5})
}

// mcBounds bounds a search: its depth, the faults and ticks a path may hold,
// and the depth up to which leaves are drained.
type mcBounds struct {
	depth, faults, ticks, drain int
}

func runConsensusCheck(t *testing.T, b mcBounds) {
	c := &mcChecker{b: b}
	start := time.Now()
	for d := 1; d <= b.depth && c.fail == ""; d++ {
		c.seen = map[uint64]int{}
		c.explore(c.initial(), nil, d)
		c.states += len(c.seen)
	}
	if c.fail != "" {
		t.Fatal(c.fail)
	}
	t.Logf("depth %d, %d faults, %d ticks a path: %d distinct states (summed over the deepening), %d leaves drained (%d events), %v",
		b.depth, b.faults, b.ticks, c.states, c.leaves, c.drained, time.Since(start).Round(time.Millisecond))
}

var mcNames = []string{"A", "B", "C"}

// mcStart is every member's clock at the start; a tick moves it to the
// member's armed time.
var mcStart = time.Unix(1, 0)

// mcOpts are the members' options. Snapshot and Restore are set so the step
// serves and installs state transfers (the checker carries them out), and a
// keep window of one lets the floor pass applied instances.
var mcOpts = Options{Retry: 10 * time.Millisecond, SyncEvery: 25 * time.Millisecond, keepWindow: 1,
	Snapshot: func() []byte { return nil }, Restore: func(uint64, []byte) {}}

type mcChecker struct {
	b       mcBounds
	seen    map[uint64]int
	states  int
	leaves  int
	drained int
	fail    string
}

// mcMember is one member: its process (nil while down) and its disk.
type mcMember struct {
	s     *state
	clock time.Time
	votes map[uint64]accEntry // the acceptor log: latest vote per instance
	log   []logEntry          // the applied log
	app   []logEntry          // what Apply and Restore built in this incarnation
	// answered is, per instance, the highest ballot this member promised or
	// accepted — in a reply or on disk — across its crashes.
	answered map[uint64]uint64
}

type mcMsg struct {
	from, to int
	msg      wire.Message
}

type mcSubmit struct {
	node       int
	cmd        wire.Command // as stamped
	done, dead bool
}

// mcChosen is a value a quorum accepted in one ballot.
type mcChosen struct {
	ballot uint64
	val    wire.Command
}

type mcWorld struct {
	m       []*mcMember
	net     []mcMsg
	subs    []mcSubmit
	decided map[uint64]wire.Command    // learned by any member, per instance
	at      map[string]uint64          // Origin#Seq -> the instance it was decided at
	chosen  map[uint64]mcChosen        // per instance, in its lowest ballot
	accepts map[[2]uint64]map[int]bool // (instance, ballot) -> the acceptors that accepted it
	down    int                        // -1: none
	faults  int
	ticks   int
}

type mcEvent struct {
	what  string // deliver, drop, dup, tick, restart
	msg   int    // deliver, drop, dup: index into net
	node  int    // tick, restart
	crash int    // deliver, tick: crash after this many effects (-1: none)
}

func (c *mcChecker) label(w *mcWorld, ev mcEvent) string {
	var s string
	switch ev.what {
	case "tick", "restart":
		s = ev.what + " " + mcNames[ev.node]
	default:
		m := w.net[ev.msg]
		s = fmt.Sprintf("%s %s→%s %T%+v", ev.what, mcNames[m.from], mcNames[m.to], m.msg, m.msg)
	}
	if ev.crash >= 0 {
		s += fmt.Sprintf(", crash after %d effects", ev.crash)
	}
	return s
}

// initial builds the three members and submits at A and at C.
func (c *mcChecker) initial() *mcWorld {
	w := &mcWorld{decided: map[uint64]wire.Command{}, at: map[string]uint64{}, chosen: map[uint64]mcChosen{},
		accepts: map[[2]uint64]map[int]bool{}, down: -1}
	for i, n := range mcNames {
		w.m = append(w.m, &mcMember{s: newState(n, mcNames, mcOpts, uint64(i+1)), clock: mcStart,
			votes: map[uint64]accEntry{}, answered: map[uint64]uint64{}})
	}
	for _, i := range []int{0, 2} {
		m := w.m[i]
		effs := m.s.step(m.clock, "", submitCmd{wire.Command{Kind: "member", Node: mcNames[i]}})
		w.subs = append(w.subs, mcSubmit{node: i, cmd: m.s.proposals[len(m.s.proposals)-1].cmd})
		c.run(w, i, effs, -1)
	}
	return w
}

// events lists every enabled event, faults first.
func (c *mcChecker) events(w *mcWorld) []mcEvent {
	var out []mcEvent
	fault := w.faults < c.b.faults
	if w.down >= 0 {
		out = append(out, mcEvent{what: "restart", node: w.down, crash: -1})
	}
	var msgs []int
	for j := range w.net {
		if !slices.ContainsFunc(w.net[:j], func(m mcMsg) bool { return reflect.DeepEqual(m, w.net[j]) }) {
			msgs = append(msgs, j)
		}
	}
	if fault && w.down < 0 {
		for _, j := range msgs {
			for k := 0; k <= c.effectsOf(w, w.net[j].to, mcNames[w.net[j].from], w.net[j].msg); k++ {
				out = append(out, mcEvent{what: "deliver", msg: j, crash: k})
			}
		}
		if w.ticks < c.b.ticks {
			for i := range w.m {
				for k := 0; k <= c.effectsOf(w, i, "", tick{}); k++ {
					out = append(out, mcEvent{what: "tick", node: i, crash: k})
				}
			}
		}
	}
	if fault {
		for _, j := range msgs {
			out = append(out, mcEvent{what: "drop", msg: j, crash: -1}, mcEvent{what: "dup", msg: j, crash: -1})
		}
	}
	for _, j := range msgs {
		out = append(out, mcEvent{what: "deliver", msg: j, crash: -1})
	}
	if w.ticks < c.b.ticks {
		for i, m := range w.m {
			if m.s != nil {
				out = append(out, mcEvent{what: "tick", node: i, crash: -1})
			}
		}
	}
	return out
}

// effectsOf counts the effects a step at member i would ask for (-1: it is
// down).
func (c *mcChecker) effectsOf(w *mcWorld, i int, from string, ev any) int {
	m := w.m[i]
	if m.s == nil {
		return -1
	}
	now := m.clock
	if _, ok := ev.(tick); ok {
		now = tickTime(m)
	}
	return len(cloneState(m.s).step(now, from, ev))
}

func tickTime(m *mcMember) time.Time {
	if m.s.armed.After(m.clock) {
		return m.s.armed
	}
	return m.clock
}

// apply takes one event in w.
func (c *mcChecker) apply(w *mcWorld, ev mcEvent) {
	switch ev.what {
	case "restart":
		c.restart(w, ev.node)
	case "drop":
		w.faults++
		w.net = slices.Delete(slices.Clone(w.net), ev.msg, ev.msg+1)
	case "deliver", "dup":
		msg := w.net[ev.msg]
		if ev.what == "dup" {
			w.faults++
		} else {
			w.net = slices.Delete(slices.Clone(w.net), ev.msg, ev.msg+1)
		}
		m := w.m[msg.to]
		if m.s == nil {
			return
		}
		c.run(w, msg.to, m.s.step(m.clock, mcNames[msg.from], msg.msg), ev.crash)
		if ev.crash >= 0 {
			c.crash(w, msg.to)
		}
	case "tick":
		w.ticks++
		m := w.m[ev.node]
		if m.s == nil {
			return
		}
		m.clock = tickTime(m)
		c.run(w, ev.node, m.s.step(m.clock, "", tick{}), ev.crash)
		if ev.crash >= 0 {
			c.crash(w, ev.node)
		}
	}
	c.observe(w)
}

// run carries out the first limit effects of a step of member i (all of
// them when limit is negative), as a durable member's shell does, with the
// applier inline.
func (c *mcChecker) run(w *mcWorld, i int, effs []effect, limit int) {
	m := w.m[i]
	for n, e := range effs {
		if n == limit || c.fail != "" {
			return
		}
		switch e.kind {
		case effSend:
			c.sent(w, i, e.msg)
			to := slices.Index(mcNames, e.to)
			if w.m[to].s != nil {
				w.net = append(slices.Clip(w.net), mcMsg{from: i, to: to, msg: e.msg})
			}
		case effPersistVote:
			m.votes[e.vote.Instance] = e.vote
			m.answered[e.vote.Instance] = max(m.answered[e.vote.Instance], e.vote.Promised)
			if e.vote.AccBallot > 0 {
				c.accepted(w, i, e.vote)
			}
		case effAppend:
			if e.entry.Cmd.Kind == snapshotMarker {
				m.log = []logEntry{e.entry}
			} else {
				m.log = append(slices.Clip(m.log), e.entry)
			}
		case effApply:
			c.applyEntry(w, i, e.entry)
			c.run(w, i, m.s.step(m.clock, "", appliedThrough{e.entry.Instance}), -1)
		case effServeSnapshot:
			to := slices.Index(mcNames, e.to)
			if w.m[to].s != nil {
				snap := wire.Snapshot{Through: m.s.applied, State: encodeApp(m.app), Done: m.s.applied}
				w.net = append(slices.Clip(w.net), mcMsg{from: i, to: to, msg: snap})
			}
		case effComplete:
			k := slices.IndexFunc(w.subs, func(s mcSubmit) bool { return s.node == i && s.cmd.Seq == e.seq })
			in := m.s.insts[e.at]
			switch {
			case k < 0 || w.subs[k].done || w.subs[k].dead:
				c.fail = fmt.Sprintf("submits: %s completed submit %d, which is not in flight", mcNames[i], e.seq)
			case in == nil || !in.decided || in.val != w.subs[k].cmd:
				c.fail = fmt.Sprintf("submits: %s completed submit %d at instance %d, which holds %+v", mcNames[i], e.seq, e.at, in)
			default:
				w.subs = slices.Clone(w.subs)
				w.subs[k].done = true
			}
		}
	}
}

// sent checks one frame member i ships: an acceptor's answer never goes
// below a ballot it promised, and no ballot proposes a value other than one
// already chosen.
func (c *mcChecker) sent(w *mcWorld, i int, msg wire.Message) {
	m := w.m[i]
	switch x := msg.(type) {
	case wire.Promise:
		if x.OK {
			if x.Ballot < m.answered[x.Instance] {
				c.fail = fmt.Sprintf("promises: %s promised ballot %d at instance %d after answering %d",
					mcNames[i], x.Ballot, x.Instance, m.answered[x.Instance])
			}
			m.answered[x.Instance] = max(m.answered[x.Instance], x.Ballot)
		}
	case wire.Accepted:
		if x.OK {
			if x.Ballot < m.answered[x.Instance] {
				c.fail = fmt.Sprintf("promises: %s accepted ballot %d at instance %d after answering %d",
					mcNames[i], x.Ballot, x.Instance, m.answered[x.Instance])
			}
			m.answered[x.Instance] = max(m.answered[x.Instance], x.Ballot)
		}
	case wire.Accept:
		if ch, ok := w.chosen[x.Instance]; ok && x.Ballot > ch.ballot && x.Val != ch.val {
			c.fail = fmt.Sprintf("agreement: %s proposes %+v in ballot %d at instance %d, where %+v was chosen in ballot %d",
				mcNames[i], x.Val, x.Ballot, x.Instance, ch.val, ch.ballot)
		}
	}
}

// accepted records that member i accepted vote's value, and whether a
// quorum now has.
func (c *mcChecker) accepted(w *mcWorld, i int, v accEntry) {
	key := [2]uint64{v.Instance, v.AccBallot}
	if w.accepts[key][i] {
		return
	}
	set := maps.Clone(w.accepts[key])
	if set == nil {
		set = map[int]bool{}
	}
	set[i] = true
	w.accepts[key] = set
	if len(set) < len(mcNames)/2+1 {
		return
	}
	if ch, ok := w.chosen[v.Instance]; ok && ch.val != v.Val {
		c.fail = fmt.Sprintf("agreement: instance %d chose %+v in ballot %d and %+v in ballot %d",
			v.Instance, ch.val, ch.ballot, v.Val, v.AccBallot)
	} else if !ok || v.AccBallot < ch.ballot {
		w.chosen[v.Instance] = mcChosen{ballot: v.AccBallot, val: v.Val}
	}
}

// applyEntry is member i's Apply or Restore, checking the order.
func (c *mcChecker) applyEntry(w *mcWorld, i int, e logEntry) {
	m := w.m[i]
	last := uint64(0)
	if len(m.app) > 0 {
		last = m.app[len(m.app)-1].Instance
	}
	if e.Cmd.Kind == snapshotMarker {
		app := decodeApp(e.Cmd.Text)
		if e.Instance <= last || uint64(len(app)) != e.Instance {
			c.fail = fmt.Sprintf("order: %s restored a state of %d entries through %d after applying through %d",
				mcNames[i], len(app), e.Instance, last)
		}
		m.app = app
		return
	}
	if e.Instance != last+1 {
		c.fail = fmt.Sprintf("order: %s applied instance %d after %d", mcNames[i], e.Instance, last)
	}
	m.app = append(slices.Clip(m.app), e)
}

// encodeApp and decodeApp carry an application state — the applied
// entries — through a Snapshot frame.
func encodeApp(app []logEntry) []byte {
	var b []byte
	for _, e := range app {
		b = fmt.Appendf(b, "%d\x01%s\x01%s\x01%d\x01%s\x02", e.Instance, e.Cmd.Kind, e.Cmd.Origin, e.Cmd.Seq, e.Cmd.Node)
	}
	return b
}

func decodeApp(s string) []logEntry {
	var app []logEntry
	for _, rec := range strings.Split(s, "\x02") {
		f := strings.Split(rec, "\x01")
		if len(f) != 5 {
			continue
		}
		var e logEntry
		fmt.Sscan(f[0], &e.Instance)
		fmt.Sscan(f[3], &e.Cmd.Seq)
		e.Cmd.Kind, e.Cmd.Origin, e.Cmd.Node = f[1], f[2], f[4]
		app = append(app, e)
	}
	return app
}

// crash kills member i: its memory and everything in flight to it are lost.
func (c *mcChecker) crash(w *mcWorld, i int) {
	w.faults++
	w.down = i
	w.m[i].s, w.m[i].app = nil, nil
	w.net = slices.DeleteFunc(slices.Clone(w.net), func(m mcMsg) bool { return m.to == i })
	w.subs = slices.Clone(w.subs)
	for k := range w.subs {
		if w.subs[k].node == i && !w.subs[k].done {
			w.subs[k].dead = true
		}
	}
}

// restart brings member i back from its disk, replaying it as New does.
func (c *mcChecker) restart(w *mcWorld, i int) {
	m := w.m[i]
	m.s = newState(mcNames[i], mcNames, mcOpts, uint64(i+1))
	votes := sortedKeys(m.votes)
	var vs []accEntry
	for _, k := range votes {
		vs = append(vs, m.votes[k])
	}
	for _, e := range m.s.replay(m.log, vs) {
		c.applyEntry(w, i, e.entry)
	}
	w.down = -1
}

// observe checks what the members have learned after a step.
func (c *mcChecker) observe(w *mcWorld) {
	for i, m := range w.m {
		if m.s == nil || c.fail != "" {
			continue
		}
		for _, k := range sortedKeys(m.s.insts) {
			in := m.s.insts[k]
			if in.decided {
				c.learned(w, i, k, in.val)
			}
		}
		for _, e := range m.app {
			c.learned(w, i, e.Instance, e.Cmd)
		}
	}
}

func (c *mcChecker) learned(w *mcWorld, i int, inst uint64, val wire.Command) {
	if c.fail != "" {
		return
	}
	if v, ok := w.decided[inst]; ok {
		if v != val {
			c.fail = fmt.Sprintf("agreement: %s learned %+v at instance %d, another member %+v", mcNames[i], val, inst, v)
		}
		return
	}
	if ch, ok := w.chosen[inst]; ok && ch.val != val {
		c.fail = fmt.Sprintf("agreement: %s learned %+v at instance %d, where %+v was chosen", mcNames[i], val, inst, ch.val)
		return
	}
	noop := val.Kind == "noop" && val.Seq == 0 && slices.Contains(mcNames, val.Origin)
	if !noop && !slices.ContainsFunc(w.subs, func(s mcSubmit) bool { return s.cmd == val }) {
		c.fail = fmt.Sprintf("validity: %s learned %+v at instance %d, which nobody submitted", mcNames[i], val, inst)
		return
	}
	if !noop {
		id := fmt.Sprintf("%s#%d", val.Origin, val.Seq)
		if at, ok := w.at[id]; ok && at != inst {
			c.fail = fmt.Sprintf("validity: %s is decided at instances %d and %d", id, at, inst)
			return
		}
		w.at[id] = inst
	}
	w.decided[inst] = val
}

// explore visits w, which path leads to, with left events to go.
func (c *mcChecker) explore(w *mcWorld, path []string, left int) {
	if c.fail != "" {
		return
	}
	key := w.hash()
	if d, seen := c.seen[key]; seen && d >= left {
		return
	}
	c.seen[key] = left
	evs := c.events(w)
	if left == 0 || len(evs) == 0 {
		if len(path) <= c.b.drain {
			c.drain(w.clone())
		}
	} else {
		for _, ev := range evs {
			next := w.clone()
			label := c.label(w, ev)
			c.apply(next, ev)
			c.explore(next, append(path, label), left-1)
			if c.fail != "" {
				break
			}
		}
	}
	if c.fail != "" && !strings.Contains(c.fail, "\ntrace:") {
		c.fail += "\ntrace:\n  submit at A, submit at C\n  " + strings.Join(path, "\n  ")
		if len(path) <= c.b.drain && left == 0 {
			c.fail += "\n  (drain)"
		}
	}
}

// drain runs a leaf fairly to its end: the down member restarts, frames
// arrive in the order sent, and when none is in flight the earliest timer
// fires.
func (c *mcChecker) drain(w *mcWorld) {
	c.leaves++
	if w.down >= 0 {
		c.apply(w, mcEvent{what: "restart", node: w.down, crash: -1})
	}
	for n := 0; c.fail == ""; n++ {
		if w.settled() {
			return
		}
		if n == 5000 {
			c.fail = fmt.Sprintf("progress: 5 000 events after the leaf, submits %+v, applied %v", w.subs, w.applied())
			return
		}
		c.drained++
		if len(w.net) > 0 {
			c.apply(w, mcEvent{what: "deliver", msg: 0, crash: -1})
			continue
		}
		next := 0
		for i, m := range w.m {
			if tickTime(m).Before(tickTime(w.m[next])) {
				next = i
			}
		}
		c.apply(w, mcEvent{what: "tick", node: next, crash: -1})
	}
}

// settled reports whether every live submit completed and every member
// applied every decided instance.
func (w *mcWorld) settled() bool {
	for _, s := range w.subs {
		if !s.done && !s.dead {
			return false
		}
	}
	top := uint64(0)
	for k := range w.decided {
		top = max(top, k)
	}
	for _, m := range w.m {
		if m.s.applied != top {
			return false
		}
	}
	return true
}

func (w *mcWorld) applied() []uint64 {
	var out []uint64
	for _, m := range w.m {
		if m.s != nil {
			out = append(out, m.s.applied)
		}
	}
	return out
}

func (w *mcWorld) clone() *mcWorld {
	x := *w
	x.m = make([]*mcMember, len(w.m))
	for i, m := range w.m {
		y := *m
		if m.s != nil {
			y.s = cloneState(m.s)
		}
		y.votes = maps.Clone(m.votes)
		y.answered = maps.Clone(m.answered)
		y.log, y.app = slices.Clip(m.log), slices.Clip(m.app)
		x.m[i] = &y
	}
	x.net = slices.Clip(w.net)
	x.decided = maps.Clone(w.decided)
	x.at = maps.Clone(w.at)
	x.chosen = maps.Clone(w.chosen)
	x.accepts = maps.Clone(w.accepts) // the sets are copied on write
	return &x
}

func cloneState(s *state) *state {
	x := *s
	x.insts = make(map[uint64]*inst, len(s.insts))
	for k, in := range s.insts {
		v := *in
		x.insts[k] = &v
	}
	x.done = maps.Clone(s.done)
	x.proposals = make([]*proposal, len(s.proposals))
	for i, p := range s.proposals {
		q := *p
		q.votes = maps.Clone(p.votes)
		x.proposals[i] = &q
	}
	return &x
}

// hash digests everything that decides the world's future and its checks.
func (w *mcWorld) hash() uint64 {
	e := mcEnc{b: make([]byte, 0, 4096)}
	for _, m := range w.m {
		e.state(m.s)
		e.t(m.clock)
		for _, k := range sortedKeys(m.votes) {
			v := m.votes[k]
			e.u(v.Instance, v.Promised, v.AccBallot)
			e.cmd(v.Val)
		}
		for _, k := range sortedKeys(m.answered) {
			e.u(k, m.answered[k])
		}
		e.entries(m.log)
		e.entries(m.app)
	}
	var msgs [][]byte
	for _, m := range w.net {
		var me mcEnc
		me.msg(m)
		msgs = append(msgs, me.b)
	}
	slices.SortFunc(msgs, bytes.Compare)
	for _, m := range msgs {
		e.b = append(e.b, m...)
	}
	for _, s := range w.subs {
		e.u(uint64(s.node), s.cmd.Seq, bit(s.done), bit(s.dead))
	}
	for _, k := range sortedKeys(w.chosen) {
		e.u(k, w.chosen[k].ballot)
		e.cmd(w.chosen[k].val)
	}
	e.u(uint64(w.down), uint64(w.faults), uint64(w.ticks))
	h := fnv.New64a()
	_, _ = h.Write(e.b)
	return h.Sum64()
}

// mcEnc encodes world parts for the hash.
type mcEnc struct{ b []byte }

func (e *mcEnc) u(xs ...uint64) {
	for _, x := range xs {
		e.b = binary.LittleEndian.AppendUint64(e.b, x)
	}
}

func (e *mcEnc) str(x string) {
	e.u(uint64(len(x)))
	e.b = append(e.b, x...)
}

func (e *mcEnc) t(x time.Time) { e.u(uint64(x.UnixNano())) }

func (e *mcEnc) cmd(c wire.Command) {
	e.str(c.Kind)
	e.str(c.Origin)
	e.str(c.Node)
	e.str(c.Addr)
	e.str(c.Text)
	e.u(c.Seq, c.Ref, uint64(c.Status))
}

func (e *mcEnc) entries(es []logEntry) {
	e.u(uint64(len(es)))
	for _, x := range es {
		e.u(x.Instance)
		e.cmd(x.Cmd)
	}
}

func (e *mcEnc) msg(m mcMsg) {
	e.u(uint64(m.from), uint64(m.to))
	switch x := m.msg.(type) {
	case wire.Prepare:
		e.u(1, x.Instance, x.Ballot, x.Done)
	case wire.Promise:
		e.u(2, x.Instance, x.Ballot, bit(x.OK), x.Promised, x.AccBallot, bit(x.HasVal), x.Done)
		e.cmd(x.Val)
	case wire.Accept:
		e.u(3, x.Instance, x.Ballot, x.Done)
		e.cmd(x.Val)
	case wire.Accepted:
		e.u(4, x.Instance, x.Ballot, bit(x.OK), x.Promised, x.Done)
	case wire.Learn:
		e.u(5, x.Instance, x.Done)
		e.cmd(x.Val)
	case wire.CatchUp:
		e.u(6, x.From, x.Done)
	case wire.Snapshot:
		e.u(7, x.Through, x.Done)
		e.str(string(x.State))
	}
}

func (e *mcEnc) state(s *state) {
	if s == nil {
		e.u(0)
		return
	}
	for _, k := range sortedKeys(s.insts) {
		in := s.insts[k]
		e.u(k, in.promised, in.accBallot, bit(in.decided))
		e.cmd(in.accVal)
		e.cmd(in.val)
		e.t(in.gapSince)
	}
	for _, p := range s.proposals {
		e.u(p.seq, p.instance, p.ballot, uint64(p.phase), p.adBallot, uint64(p.attempt))
		for _, n := range sortedKeys(p.votes) {
			e.str(n)
		}
		e.cmd(p.cmd)
		e.cmd(p.adopted)
		e.cmd(p.val)
		e.t(p.deadline)
		e.t(p.expires)
	}
	for _, n := range s.peers {
		e.u(s.done[n])
	}
	e.u(s.applied, s.queued, s.floor, s.maxSeen, s.seq, s.balK, uint64(s.rrNext), s.rng)
	e.t(s.nextSync)
	e.t(s.armed)
}

func bit(v bool) uint64 {
	if v {
		return 1
	}
	return 0
}

func sortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}
