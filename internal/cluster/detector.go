package cluster

import (
	"time"

	"repro/internal/wire"
)

// The failure detector as one pure step: the member table, heartbeats and
// join retries, suspicion and — once a control plane attaches — the
// reconciliation of the agreed member view with what the detector sees.
// Transport runs it in a shell.Shell, whose lock guards it and whose one timer
// the step arms, and carries out the effects. TestPeerStepIsPure keeps this
// file free of locks, clocks, goroutines and I/O.

// member is one row of the table.
type member struct {
	addr     string
	status   Status
	since    time.Time // when status began
	lastSeen time.Time // zero for members never heard from
}

// agreedMember is the control plane's reading of one consensus member, and
// deadAt when this detector first read its death: the evidence mayPropose
// weighs a return against. deadAt is local, not agreed — a restart starts it
// afresh, together with the table it is compared with.
type agreedMember struct {
	status   Status
	deadInst uint64 // the instance that folded its latest death
	rehomed  bool   // its node is hosted by another member
	deadAt   time.Time
}

// detector is one process's failure detector. The table never lists the
// process's own name; adopted names are listed and never age.
type detector struct {
	self, addr              string // name and listen address
	beatEvery, suspectAfter time.Duration
	members                 map[string]*member
	hosted                  map[string]bool // adopted names

	// The control plane's half: reconcileEvery is zero until one attaches,
	// deadAfter zero when suspicion never escalates.
	reconcileEvery, deadAfter time.Duration
	agreed                    map[string]agreedMember // the consensus set but self
	premise                   uint64                  // the last instance the plane folded
	proposing                 string                  // whose command is in flight ("": none)
	returned                  bool                    // its submit returned...
	decided                   uint64                  // ...decided at this instance (0: undecided)
	stale                     bool                    // what the pass compares changed since the pass began

	nextBeat, nextReconcile time.Time

	now time.Time // the step in progress
	out []detEffect
}

// detEffect is one thing a step asks of the shell, in order.
type detEffect struct {
	kind       detKind
	from, node string       // send: the hosted name speaking and the addressee; status: the member
	msg        wire.Message // send
	status     Status       // status
	up         bool         // status: a member written off (suspect, left) is back
	cmd        wire.Command // propose
	when       time.Time    // arm
}

type detKind uint8

const (
	detSend    detKind = iota // send msg from from to node
	detStatus                 // node's status changed: run the onMemberUp and onStatus callbacks
	detPropose                // submit cmd through the attached plane, then deliver proposed
	detArm                    // deliver a detTick at when
)

// The events.
type (
	// heard is direct contact — a Join (ackFrom, the hosted name it was
	// addressed to, answers with a JoinAck), a JoinAck or a heartbeat: addr is
	// the address the member asserted ("" when none), book its gossip.
	heard struct {
		node, addr, ackFrom string
		book                map[string]string
	}
	goodbye  struct{ node string }
	announce struct{} // Announce: join every member not known to have left
	hosting  struct { // an adopted name was registered here (on) or unregistered
		node string
		on   bool
	}
	detTick  struct{} // the armed timer fired
	proposed struct { // the submit of node's command returned, decided at inst (0: undecided)
		node string
		inst uint64
	}
	agreedView struct { // the plane's fold after an applied entry
		members map[string]agreedMember
		premise uint64
	}
)

// newDetector builds the table from the address book. The first beat is due
// a beat after now; the shell arms the timer for it.
func newDetector(self, addr string, book map[string]string, opts Options, now time.Time) *detector {
	d := &detector{self: self, addr: addr, beatEvery: opts.HeartbeatEvery, suspectAfter: opts.SuspectAfter,
		members: map[string]*member{}, hosted: map[string]bool{}, nextBeat: now.Add(opts.HeartbeatEvery)}
	for node, a := range book {
		if node != self && a != "" {
			d.members[node] = &member{addr: a, since: now}
		}
	}
	return d
}

// attach starts reconciliation, escalating deadAfter of continuous suspicion
// to death (zero: never). The agreed view follows, and with it the first
// pass; reconcileEvery is the retry/anti-entropy period.
func (d *detector) attach(reconcileEvery, deadAfter time.Duration) {
	d.reconcileEvery, d.deadAfter = reconcileEvery, deadAfter
	d.agreed = map[string]agreedMember{}
}

func (d *detector) step(now time.Time, ev any) []detEffect {
	d.now, d.out = now, nil
	switch e := ev.(type) {
	case heard:
		d.observe(e.node, e.addr)
		d.merge(e.book)
		if e.ackFrom != "" {
			d.send(e.ackFrom, e.node, wire.JoinAck{Members: d.book()})
		}
	case goodbye:
		if m := d.members[e.node]; m != nil && m.status != StatusLeft {
			d.set(e.node, m, StatusLeft, false)
		}
	case announce:
		d.announce(d.self)
	case hosting:
		// A registered name stops aging — this process answers for it now —
		// and a Join under it re-homes it everywhere without waiting a beat.
		if !e.on {
			delete(d.hosted, e.node)
			break
		}
		d.hosted[e.node] = true
		d.refresh(e.node)
		d.announce(e.node)
	case detTick:
		if !now.Before(d.nextBeat) {
			d.beat()
			d.nextBeat = now.Add(d.beatEvery)
		}
	case proposed:
		if e.node == d.proposing && !d.returned {
			// A decided command waits for the plane's view of it — the
			// applier delivers it apart from the submit — a period at most.
			d.returned, d.decided = true, e.inst
			d.nextReconcile = now.Add(d.reconcileEvery)
		}
	case agreedView:
		if d.agreed != nil {
			d.apply(e)
		}
	}
	if d.reconcileEvery > 0 {
		d.reconcileDue()
	}
	d.out = append(d.out, detEffect{kind: detArm, when: d.deadline()})
	out := d.out
	d.out = nil
	return out
}

// observe records direct contact: the member is alive and, when it asserted
// an address, that address wins over anything gossiped or stale (the
// restarted-process case). First contact is not a rejoin: only a member this
// process had written off coming back counts.
func (d *detector) observe(node, addr string) {
	if node == d.self || node == "" {
		return
	}
	m, known := d.members[node]
	if !known {
		m = &member{}
		d.members[node] = m
	}
	if addr != "" {
		m.addr = addr
	}
	m.lastSeen = d.now
	if m.status != StatusAlive {
		d.set(node, m, StatusAlive, known && (m.status == StatusSuspect || m.status == StatusLeft))
	}
}

// merge folds gossip in. It only fills names never seen — stale gossip cannot
// undo a direct observation — and announces this process to each of them.
func (d *detector) merge(book map[string]string) {
	var added []string
	for _, name := range sortedKeys(book) {
		if name != d.self && book[name] != "" && d.members[name] == nil {
			d.members[name] = &member{addr: book[name], since: d.now}
			added = append(added, name)
		}
	}
	for _, name := range added {
		d.join(d.self, name)
	}
}

// beat is the heartbeat pass: adopted names are refreshed, alive members get
// heartbeats from this process and on behalf of every adopted name (the
// re-homing signal), silent ones become suspect, and members never (or no
// longer) confirmed get join retries.
func (d *detector) beat() {
	hosted := sortedKeys(d.hosted)
	for _, name := range hosted {
		d.refresh(name)
	}
	for _, name := range sortedKeys(d.members) {
		switch m := d.members[name]; {
		case m.status == StatusAlive && d.now.Sub(m.lastSeen) > d.suspectAfter:
			d.set(name, m, StatusSuspect, false)
			d.join(d.self, name)
		case m.status == StatusAlive:
			// Through the shell's Batcher: a heartbeat rides on a data frame
			// when one is going that way.
			d.send(d.self, name, wire.Heartbeat{Node: d.self, Addr: d.addr})
			for _, alias := range hosted {
				if alias != name {
					d.send(alias, name, wire.Heartbeat{Node: alias, Addr: d.addr})
				}
			}
		case m.status == StatusBook || m.status == StatusSuspect:
			d.join(d.self, name)
		}
	}
}

// reconcileDue runs the reconciliation pass where this step made it due. With
// none in flight, a pass begins when what it compares changed (stale) or the
// period came round. The one in flight goes on once its proposal returned
// and, when decided, the plane's view has reached its instance — or a period
// after it returned, should that view never come.
func (d *detector) reconcileDue() {
	switch {
	case d.proposing == "":
		if d.stale || !d.now.Before(d.nextReconcile) {
			d.reconcile("")
		}
	case d.returned && (d.premise >= d.decided || !d.now.Before(d.nextReconcile)):
		after := d.proposing
		d.proposing = ""
		d.reconcile(after)
	}
}

// reconcile is the reconciliation pass over the consensus members in name
// order, resumed after the member named after ("" starts it). It proposes the
// detector's reading of the next member where that differs from the agreed
// view and mayPropose allows it, and goes on when the proposal returns: one
// command is in flight at a time, read off the table as it goes out. A pass
// that ends with something changed since it began starts over from the first
// name, so a change to a member it had passed is not left to the period. A
// member continuously suspect for deadAfter is proposed dead — the agreed
// declaration that triggers promotion — and the next pass is due no later
// than that moment. A re-homed name has no liveness of its own: the detector
// hears its adopter's heartbeats under it, and an adopter that merely stalls
// must not get the name declared dead a second time while it still serves it
// (the adopter's own death reopens elections for everything it hosted).
func (d *detector) reconcile(after string) {
	for ; ; after = "" {
		if after == "" {
			d.stale = false
		}
		for _, name := range sortedKeys(d.agreed) {
			m, a := d.members[name], d.agreed[name]
			if name <= after || m == nil || m.status == StatusBook || a.rehomed {
				continue
			}
			want := m.status
			if m.status == StatusSuspect && d.deadAfter > 0 && d.now.Sub(m.since) >= d.deadAfter {
				want = StatusDead
			}
			if mayPropose(a.status, a.deadAt, MemberInfo{Name: name, Addr: m.addr, Status: m.status, LastSeen: m.lastSeen}, want, d.suspectAfter) {
				d.proposing, d.returned = name, false
				d.out = append(d.out, detEffect{kind: detPropose, cmd: wire.Command{
					Kind: "member", Node: name, Addr: m.addr, Status: uint8(want), Ref: d.premise,
				}})
				return
			}
		}
		if !d.stale {
			break
		}
	}
	d.nextReconcile = d.now.Add(d.reconcileEvery)
	for name, a := range d.agreed {
		m := d.members[name]
		if m == nil || m.status != StatusSuspect || a.rehomed || a.status == StatusDead || d.deadAfter == 0 {
			continue
		}
		if death := m.since.Add(d.deadAfter); death.After(d.now) && death.Before(d.nextReconcile) {
			d.nextReconcile = death
		}
	}
}

// apply takes an agreed view in, stamping each death when first read: a pass
// is due.
func (d *detector) apply(v agreedView) {
	for name, a := range v.members {
		if old := d.agreed[name]; a.status == StatusDead && old.status == StatusDead && old.deadInst == a.deadInst {
			a.deadAt = old.deadAt
		} else if a.status == StatusDead {
			a.deadAt = d.now
		}
		d.agreed[name] = a
	}
	d.premise = v.premise
	d.stale = true
}

// mayPropose reports whether the detector's reading m of one member justifies
// proposing want over its agreed status. Death is sticky: once agreed dead,
// only a live return of the member itself may overwrite it — proposing mere
// suspicion would re-open a decided election's premise, and so would an
// "alive" from a detector that simply has not timed the member out yet: its
// alive entry deletes the open election and nobody re-declares the death. An
// alive over a death this member has read (one it has not is refused by the
// fold, through the proposal's premise) must rest on evidence the dead member
// cannot have left behind: a heartbeat heard more than a suspicion window
// after deadAt, when the proposer first read the death — inside it the
// member's last frames may still be queued here.
func mayPropose(agreed Status, deadAt time.Time, m MemberInfo, want Status, suspectAfter time.Duration) bool {
	if agreed == StatusDead {
		return want == StatusAlive && m.LastSeen.After(deadAt.Add(suspectAfter))
	}
	return agreed != want
}

// set moves a member to a new status and reports the change; a consensus
// member's makes a pass due.
func (d *detector) set(name string, m *member, st Status, up bool) {
	m.status, m.since = st, d.now
	if _, ok := d.agreed[name]; ok {
		d.stale = true
	}
	d.out = append(d.out, detEffect{kind: detStatus, node: name, status: st, up: up})
}

// refresh keeps an adopted name alive at this process's address. It is no
// news: as far as this process is concerned the name never left.
func (d *detector) refresh(name string) {
	m := d.members[name]
	if m == nil {
		m = &member{}
		d.members[name] = m
	}
	if m.status != StatusAlive {
		m.status, m.since = StatusAlive, d.now
	}
	m.addr, m.lastSeen = d.addr, d.now
}

// announce sends a Join under the hosted name from to every other member not
// known to have left.
func (d *detector) announce(from string) {
	for _, name := range sortedKeys(d.members) {
		if name != from && d.members[name].status != StatusLeft {
			d.join(from, name)
		}
	}
}

func (d *detector) join(from, to string) {
	d.send(from, to, wire.Join{Node: from, Addr: d.addr, Members: d.book()})
}

func (d *detector) send(from, to string, msg wire.Message) {
	d.out = append(d.out, detEffect{kind: detSend, from: from, node: to, msg: msg})
}

// book renders the table as gossip (name -> address), this process included.
// Departed members are withheld: gossiping a Goodbye'd member's dead address
// would make every later joiner adopt it and retry joins against it forever
// (a returning member re-announces itself directly, which overrides left
// everywhere it matters).
func (d *detector) book() map[string]string {
	out := map[string]string{d.self: d.addr}
	for name, m := range d.members {
		if m.addr != "" && m.status != StatusLeft {
			out[name] = m.addr
		}
	}
	return out
}

// deadline is when the detector next needs a tick: the next beat or
// reconciliation pass (none while a pass waits on a submit). Every step arms
// the timer for it; the shell keeps the earliest deadline.
func (d *detector) deadline() time.Time {
	next := d.nextBeat
	if d.reconcileEvery > 0 && (d.proposing == "" || d.returned) && d.nextReconcile.Before(next) {
		next = d.nextReconcile
	}
	return next
}
