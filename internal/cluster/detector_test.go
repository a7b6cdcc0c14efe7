package cluster

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"repro/internal/wire"
)

// detStep is one event of a detector-step case, at an offset from the
// case's start, and the effects it must ask for (timer arms left out),
// rendered by renderDet.
type detStep struct {
	at   time.Duration
	ev   any
	want []string
}

func renderDet(effs []detEffect) []string {
	out := []string{}
	for _, e := range effs {
		switch e.kind {
		case detSend:
			kind := map[string]string{"wire.Join": "join", "wire.JoinAck": "ack", "wire.Heartbeat": "beat"}[fmt.Sprintf("%T", e.msg)]
			out = append(out, fmt.Sprintf("%s %s>%s", kind, e.from, e.node))
		case detStatus:
			s := e.node + " " + e.status.String()
			if e.up {
				s += " up"
			}
			out = append(out, s)
		case detPropose:
			out = append(out, fmt.Sprintf("propose %s %s ref %d", e.cmd.Node, Status(e.cmd.Status), e.cmd.Ref))
		}
	}
	return out
}

// attached is a test step, not an event: a control plane attaches
// (a retry period of 50ms, death after 200ms of continuous suspicion) and its
// first view is stepped.
type attached agreedView

func plane(premise uint64, view map[string]agreedMember) attached {
	return attached{members: view, premise: premise}
}

// armedAt is a test step, not an event: the timer is armed for this offset.
type armedAt time.Duration

// TestDetectorStep drives the failure detector's step with no clock: A beats
// every 10ms, suspects after 30ms of silence, and — once a plane attaches —
// reconciles when a member's status or the agreed view changes (and every
// 50ms), and escalates 200ms of continuous suspicion to death.
// Each case lists the effects every event asks for, in order.
func TestDetectorStep(t *testing.T) {
	ms := time.Millisecond
	alive := agreedMember{status: StatusAlive}
	B := func(addr string) heard { return heard{node: "B", addr: addr} }
	cases := []struct {
		name  string
		steps []detStep
	}{
		{"first contact is not a rejoin", []detStep{
			{0, B("b:2"), []string{"B alive"}},
			{1 * ms, heard{node: "C", addr: "c:1", ackFrom: "A"}, []string{"C alive", "ack A>C"}},
			// Gossip fills only names never seen, and announces A to them.
			{2 * ms, heard{node: "C", book: map[string]string{"A": "x", "B": "b:9", "D": "d:1"}}, []string{"join A>D"}},
			{3 * ms, heard{node: "A", addr: "a:9"}, []string{}},
		}},
		{"silence longer than SuspectAfter makes a member suspect", []detStep{
			{0, B(""), []string{"B alive"}},
			{10 * ms, detTick{}, []string{"beat A>B"}},
			{30 * ms, detTick{}, []string{"beat A>B"}}, // silent for exactly SuspectAfter
			{35 * ms, detTick{}, []string{}},           // no beat due
			{40 * ms, detTick{}, []string{"B suspect", "join A>B"}},
			{50 * ms, detTick{}, []string{"join A>B"}},
		}},
		{"a return from suspect or left fires member-up", []detStep{
			{0, B(""), []string{"B alive"}},
			{40 * ms, detTick{}, []string{"B suspect", "join A>B"}},
			{45 * ms, B(""), []string{"B alive up"}},
			{46 * ms, goodbye{"B"}, []string{"B left"}},
			{47 * ms, goodbye{"B"}, []string{}},
			{48 * ms, announce{}, []string{}},
			{50 * ms, detTick{}, []string{}},
			{60 * ms, B("b:2"), []string{"B alive up"}},
		}},
		{"a hosted or adopted name never ages", []detStep{
			{0, B(""), []string{"B alive"}},
			{1 * ms, hosting{"X", true}, []string{"join X>B"}},
			{10 * ms, detTick{}, []string{"beat A>B", "beat X>B", "beat A>X"}},
			{1000 * ms, detTick{}, []string{"B suspect", "join A>B", "beat A>X"}},
			{1001 * ms, hosting{node: "X"}, []string{}},
			{1010 * ms, detTick{}, []string{"join A>B", "beat A>X"}},
			{1040 * ms, detTick{}, []string{"join A>B", "X suspect", "join A>X"}},
		}},
		{"the first pass runs at attach", []detStep{
			{0, B(""), []string{"B alive"}},
			{1 * ms, heard{node: "C", addr: "c:1"}, []string{"C alive"}},
			{5 * ms, plane(1, map[string]agreedMember{"B": alive, "C": {status: StatusBook}}), []string{"propose C alive ref 1"}},
		}},
		{"dead is proposed only after DeadAfter of continuous suspicion", []detStep{
			{0, plane(3, map[string]agreedMember{"B": alive}), []string{}},
			{0, B(""), []string{"B alive"}},
			{40 * ms, detTick{}, []string{"B suspect", "join A>B", "propose B suspect ref 3"}},
			{50 * ms, detTick{}, []string{"join A>B"}},
			{55 * ms, detTick{}, []string{}},
			{56 * ms, proposed{node: "B", inst: 4}, []string{}},
			{57 * ms, agreedView{members: map[string]agreedMember{"B": {status: StatusSuspect}}, premise: 4}, []string{}},
			{200 * ms, detTick{}, []string{"join A>B"}}, // suspect for 160ms
			{250 * ms, detTick{}, []string{"join A>B", "propose B dead ref 4"}},
		}},
		{"dead is proposed at exactly since + DeadAfter", []detStep{
			{0, plane(3, map[string]agreedMember{"B": alive}), []string{}},
			{0, B(""), []string{"B alive"}},
			{40 * ms, detTick{}, []string{"B suspect", "join A>B", "propose B suspect ref 3"}},
			{41 * ms, proposed{node: "B", inst: 4}, []string{}},
			{42 * ms, agreedView{members: map[string]agreedMember{"B": {status: StatusSuspect}}, premise: 4}, []string{}},
			{192 * ms, detTick{}, []string{"join A>B"}},
			{239 * ms, detTick{}, []string{"join A>B"}}, // suspect for 199ms
			{239 * ms, armedAt(240 * ms), nil},          // not the next beat (249ms) or period (242ms)
			{240 * ms, detTick{}, []string{"propose B dead ref 4"}},
		}},
		{"a heal inside DeadAfter starts the window again", []detStep{
			{0, plane(3, map[string]agreedMember{"B": alive}), []string{}},
			{0, B(""), []string{"B alive"}},
			{40 * ms, detTick{}, []string{"B suspect", "join A>B", "propose B suspect ref 3"}},
			{41 * ms, proposed{node: "B", inst: 4}, []string{}},
			{42 * ms, agreedView{members: map[string]agreedMember{"B": {status: StatusSuspect}}, premise: 4}, []string{}},
			{120 * ms, B(""), []string{"B alive up", "propose B alive ref 4"}},
			{121 * ms, proposed{node: "B"}, []string{}}, // not decided: the agreed view stays suspect
			{160 * ms, detTick{}, []string{"B suspect", "join A>B"}},
			{250 * ms, detTick{}, []string{"join A>B"}}, // 210ms since the first suspicion, 90ms since the second
			{360 * ms, detTick{}, []string{"join A>B", "propose B dead ref 4"}},
		}},
		{"a re-homed name never escalates", []detStep{
			{0, plane(3, map[string]agreedMember{"B": {status: StatusAlive, rehomed: true}}), []string{}},
			{0, B(""), []string{"B alive"}},
			{40 * ms, detTick{}, []string{"B suspect", "join A>B"}},
			{1000 * ms, detTick{}, []string{"join A>B"}},
		}},
		{"alive over a death needs a heartbeat a suspicion window after the death was read", []detStep{
			{0, plane(1, map[string]agreedMember{"B": alive}), []string{}},
			{0, B(""), []string{"B alive"}},
			{10 * ms, agreedView{members: map[string]agreedMember{"B": {status: StatusDead, deadInst: 5}}, premise: 5}, []string{}},
			{20 * ms, B(""), []string{}},
			{40 * ms, B(""), []string{}},               // exactly a suspicion window after the death was read
			{60 * ms, detTick{}, []string{"beat A>B"}}, // the period's pass weighs it
			{90 * ms, B(""), []string{}},
			// The same death read again: the evidence is still weighed against the first read.
			{95 * ms, agreedView{members: map[string]agreedMember{"B": {status: StatusDead, deadInst: 5}}, premise: 6}, []string{"propose B alive ref 6"}},
		}},
		{"one proposal in flight: the pass goes on when it returns", []detStep{
			{0, plane(1, map[string]agreedMember{"B": alive, "C": alive}), []string{}},
			{0, B(""), []string{"B alive"}},
			{1 * ms, heard{node: "C", addr: "c:1"}, []string{"C alive"}},
			{2 * ms, goodbye{"B"}, []string{"B left", "propose B left ref 1"}},
			{3 * ms, goodbye{"C"}, []string{"C left"}}, // waits for the one in flight
			{50 * ms, detTick{}, []string{}},
			{61 * ms, proposed{node: "C", inst: 2}, []string{}}, // not the one in flight
			{62 * ms, proposed{node: "B", inst: 2}, []string{}}, // decided: the pass waits to read it
			{63 * ms, agreedView{members: map[string]agreedMember{"B": {status: StatusLeft}, "C": alive}, premise: 2}, []string{"propose C left ref 2"}},
			{64 * ms, agreedView{members: map[string]agreedMember{"B": {status: StatusLeft}, "C": {status: StatusLeft}}, premise: 3}, []string{}},
			{65 * ms, proposed{node: "C", inst: 3}, []string{}}, // read already: the pass is through, the next is due at 115ms
			{114 * ms, detTick{}, []string{}},
			{114 * ms, armedAt(115 * ms), nil},
		}},
		{"a change during an in-flight proposal is proposed when it returns", []detStep{
			{0, plane(1, map[string]agreedMember{"B": alive, "C": alive}), []string{}},
			{0, B(""), []string{"B alive"}},
			{1 * ms, heard{node: "C", addr: "c:1"}, []string{"C alive"}},
			{2 * ms, goodbye{"C"}, []string{"C left", "propose C left ref 1"}},
			{3 * ms, goodbye{"B"}, []string{"B left"}}, // before C in the pass, which has gone past it
			{4 * ms, proposed{node: "C", inst: 2}, []string{}},
			{5 * ms, agreedView{members: map[string]agreedMember{"B": alive, "C": {status: StatusLeft}}, premise: 2}, []string{"propose B left ref 2"}},
		}},
		{"an undecided proposal is retried one ReconcileEvery later", []detStep{
			{0, plane(1, map[string]agreedMember{"B": alive}), []string{}},
			{0, B(""), []string{"B alive"}},
			{1 * ms, goodbye{"B"}, []string{"B left", "propose B left ref 1"}},
			{2 * ms, proposed{node: "B"}, []string{}},
			{51 * ms, detTick{}, []string{}},
			{52 * ms, detTick{}, []string{"propose B left ref 1"}},
		}},
		{"a decided proposal whose view never comes is let go a period later", []detStep{
			{0, plane(1, map[string]agreedMember{"B": alive, "C": alive}), []string{}},
			{0, B(""), []string{"B alive"}},
			{1 * ms, heard{node: "C", addr: "c:1"}, []string{"C alive"}},
			{2 * ms, goodbye{"B"}, []string{"B left", "propose B left ref 1"}},
			{3 * ms, goodbye{"C"}, []string{"C left"}},
			{4 * ms, proposed{node: "B", inst: 2}, []string{}},
			{53 * ms, detTick{}, []string{}},
			{54 * ms, detTick{}, []string{"propose C left ref 1"}},
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			t0 := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
			d := newDetector("A", "a:1", map[string]string{"B": "b:1"}, Options{HeartbeatEvery: 10 * ms, SuspectAfter: 30 * ms}, t0)
			for i, s := range c.steps {
				if at, ok := s.ev.(armedAt); ok {
					if got := d.deadline().Sub(t0); got != time.Duration(at) {
						t.Fatalf("step %d at %v: the timer is armed for %v, want %v", i, s.at, got, time.Duration(at))
					}
					continue
				}
				ev := s.ev
				if a, ok := ev.(attached); ok {
					d.attach(50*ms, 200*ms)
					ev = agreedView(a)
				}
				effs := d.step(t0.Add(s.at), ev)
				if got := renderDet(effs); !slices.Equal(got, s.want) {
					t.Fatalf("step %d (%T at %v): effects %q, want %q", i, s.ev, s.at, got, s.want)
				}
				// Every step arms the timer for the detector's next deadline, and
				// a tick moves it past now. A step between a deadline and its
				// tick (these cases skip ticks) arms the due one, which fires at once.
				_, tick := ev.(detTick)
				for _, e := range effs {
					if e.kind == detArm && (!e.when.Equal(d.deadline()) || tick && !e.when.After(t0.Add(s.at))) {
						t.Fatalf("step %d (%T at %v) armed the timer for %v", i, s.ev, s.at, e.when.Sub(t0))
					}
				}
			}
		})
	}
}

// TestStaleAliveDoesNotCloseAnElection replays the fold trace behind the
// TestRehomedNodeHasOneHost flake: E is agreed dead and its promotion election
// opens; D's detector has not timed E out yet, so it still reads E alive — on
// heartbeats older than the death. Proposing that reading would fold an alive
// entry, which deletes the election, and nobody re-declares the death. The
// proposer must hold back until it hears E a suspicion window after it read
// the death: E's last frames may still be queued at D when it does.
func TestStaleAliveDoesNotCloseAnElection(t *testing.T) {
	s := newFoldState(members5, 2)
	const suspectAfter = 150 * time.Millisecond
	heard := time.Now() // E's last heartbeat, before anyone declared it dead
	member := func(st Status) wire.Command {
		return wire.Command{Kind: "member", Node: "E", Status: uint8(st)}
	}
	s.fold(1, member(StatusAlive))
	s.fold(2, member(StatusDead))
	if n := len(s.Elections); n != 1 {
		t.Fatalf("the agreed death opened %d elections, want 1", n)
	}
	deadAt := time.Now() // when D's proposer first read the death
	propose := func(m MemberInfo, want Status) bool {
		return mayPropose(s.View["E"], deadAt, m, want, suspectAfter)
	}

	stale := MemberInfo{Name: "E", Status: StatusAlive, LastSeen: heard}
	if propose(stale, StatusAlive) {
		t.Fatal("a detector that last heard E before its death may propose it alive")
	}
	// E's last frames, still queued at D when it read the death.
	stale.LastSeen = deadAt.Add(suspectAfter)
	if propose(stale, StatusAlive) {
		t.Fatal("a heartbeat inside the suspicion window after the death may propose E alive")
	}
	if propose(MemberInfo{Name: "E", Status: StatusSuspect, LastSeen: heard}, StatusSuspect) {
		t.Fatal("suspicion may be proposed over an agreed death")
	}
	if n := len(s.Elections); n != 1 {
		t.Fatalf("%d elections open after the stale readings, want the one still open", n)
	}

	back := MemberInfo{Name: "E", Status: StatusAlive, LastSeen: deadAt.Add(suspectAfter + 1)}
	if !propose(back, StatusAlive) {
		t.Fatal("a heartbeat heard a suspicion window after the death must be allowed to propose E alive")
	}
	// What the stale proposal would have done, and the fresh one rightly does.
	s.fold(3, member(StatusAlive))
	if n := len(s.Elections); n != 0 {
		t.Fatalf("E is back and %d elections stay open", n)
	}
	if propose(back, StatusAlive) {
		t.Fatal("alive over agreed alive is not a proposal")
	}
}

// TestDetectorTimerSetBeforeFirstTick: the detector's timer may fire before
// New returns — here at once — and its tick re-arms the timer. New must have
// stored the timer by then, under the lock the tick takes (the race detector
// and a nil timer both catch a store outside it).
func TestDetectorTimerSetBeforeFirstTick(t *testing.T) {
	for i := 0; i < 20; i++ {
		tr, err := New("A", "127.0.0.1:0", map[string]string{"B": "127.0.0.1:1"}, Options{HeartbeatEvery: time.Microsecond})
		if err != nil {
			t.Fatal(err)
		}
		time.Sleep(2 * time.Millisecond)
		_ = tr.Abandon()
	}
}
