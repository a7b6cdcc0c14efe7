package replica

import (
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/relalg"
	"repro/internal/storage"
	"repro/internal/wal"
	"repro/internal/wire"
)

// fakeControl is a fixed agreed view: node E lives at member P and is
// mirrored at member M. wake, when set, receives the manager's wake.
type fakeControl struct{ wake *func() }

func (c fakeControl) OnViewChange(wake func()) {
	if c.wake != nil {
		*c.wake = wake
	}
}

func (fakeControl) PlacementFor(node string) ([]string, uint64) {
	if node == "E" {
		return []string{"M"}, 1
	}
	return nil, 1
}

func (fakeControl) HostOf(node string) string {
	if node == "E" {
		return "P"
	}
	return node
}

// outbox captures what a manager sends. Appends leave from a tick's
// goroutine, so reads wait.
type outbox struct {
	mu     sync.Mutex
	frames []wire.Envelope
}

func (o *outbox) send(from, to string, msg wire.Message) error {
	o.mu.Lock()
	o.frames = append(o.frames, wire.Envelope{From: from, To: to, Msg: msg})
	o.mu.Unlock()
	return nil
}

// next returns the oldest captured frame, waiting for one to arrive.
func (o *outbox) next(t *testing.T) wire.Envelope {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		o.mu.Lock()
		if len(o.frames) > 0 {
			env := o.frames[0]
			o.frames = o.frames[1:]
			o.mu.Unlock()
			return env
		}
		o.mu.Unlock()
		if time.Now().After(deadline) {
			t.Fatal("no frame was sent")
		}
		time.Sleep(time.Millisecond)
	}
}

// none asserts nothing (more) was sent, giving a stray goroutine send a
// moment to land.
func (o *outbox) none(t *testing.T) {
	t.Helper()
	time.Sleep(20 * time.Millisecond)
	o.mu.Lock()
	defer o.mu.Unlock()
	if len(o.frames) > 0 {
		t.Fatalf("unexpected frames: %+v", o.frames)
	}
}

// newManager builds a manager for one member whose timer never fires within a
// test: the reconcile pass runs when the test calls it, and the shipping pass
// only on a kick (an insert, a solicitation, or sh.Kick).
func newManager(t *testing.T, member string, out *outbox) *Manager {
	t.Helper()
	m := New(fakeControl{}, out.send, Options{
		Member: member, Nodes: []string{"E", "M", "P"}, K: 1,
		FlushEvery:     time.Hour,
		ReconcileEvery: time.Hour,
		SyncReqEvery:   time.Hour,
		StateEvery:     time.Hour,
		ResendAfter:    time.Nanosecond, // any unacknowledged shipment counts as silence
	})
	t.Cleanup(m.Close)
	return m
}

// reconcileOnce runs the placement pass now, as a tick does once
// ReconcileEvery has come round.
func (m *Manager) reconcileOnce() { m.sh.Step(m.reconcile) }

func tup(i int) relalg.Tuple { return relalg.Tuple{relalg.S(fmt.Sprintf("v%d", i))} }

func appendOf(base, to uint64, from int) wire.ReplicaAppend {
	a := wire.ReplicaAppend{Node: "E", Rel: "e", Attrs: []string{"x"}, Base: base, To: to}
	for i := uint64(0); i < to-base; i++ {
		a.Tuples = append(a.Tuples, tup(from+int(i)))
	}
	return a
}

// TestMirrorAppliesOnlyContiguousExtensions drives the mirror half: it
// solicits the stream from the node's host with its frontier, applies a
// contiguous extension, trims an overlap, re-acks an entirely old range
// without applying it, and answers a gap with one — rate-limited —
// anti-entropy request instead of an ack.
func TestMirrorAppliesOnlyContiguousExtensions(t *testing.T) {
	var out outbox
	m := newManager(t, "M", &out)

	m.reconcileOnce()
	req, ok := out.next(t).Msg.(wire.ReplicaSyncReq)
	if !ok || req.Node != "E" || len(req.Frontier) != 0 {
		t.Fatalf("first solicitation = %+v, want an empty-frontier ReplicaSyncReq for E", req)
	}
	out.none(t) // M and P are hosted elsewhere but not placed here: no mirror, no request

	ackAfter := func(a wire.ReplicaAppend, wantTo uint64, wantFrontier uint64) {
		t.Helper()
		if !m.Handle(wire.Envelope{From: "P", To: "M", Msg: a}) {
			t.Fatal("Handle refused a ReplicaAppend")
		}
		env := out.next(t)
		ack, ok := env.Msg.(wire.ReplicaAck)
		if !ok || env.To != "P" || ack.Node != "E" || ack.Rel != "e" || ack.To != wantTo || !ack.Durable {
			t.Fatalf("after append (%d,%d]: sent %+v to %s, want a durable ack to %d for P", a.Base, a.To, env.Msg, env.To, wantTo)
		}
		if got := m.Frontier("E"); got != wantFrontier {
			t.Fatalf("after append (%d,%d]: frontier %d, want %d", a.Base, a.To, got, wantFrontier)
		}
	}
	ackAfter(appendOf(0, 2, 0), 2, 2) // contiguous: v0 v1
	ackAfter(appendOf(1, 3, 1), 3, 3) // overlap (Base < frontier < To): v1 trimmed, v2 applied
	ackAfter(appendOf(0, 2, 0), 2, 3) // entirely old: nothing applied, its own stamp re-acked

	m.sh.Lock()
	mi := m.mirrors["E"]
	got := mi.db.Rel("e").All()
	mi.lastSyncReq = time.Time{} // the boot solicitation is an hour old, as far as the limiter knows
	m.sh.Unlock()
	if len(got) != 3 || !got[0].Equal(tup(0)) || !got[1].Equal(tup(1)) || !got[2].Equal(tup(2)) {
		t.Fatalf("mirror holds %v, want v0 v1 v2 in the primary's order", got)
	}

	// A gap: the frame before this one never arrived. No ack, no apply — the
	// mirror re-solicits from its durable frontier, once per SyncReqEvery.
	m.Handle(wire.Envelope{From: "P", To: "M", Msg: appendOf(5, 6, 5)})
	env := out.next(t)
	req, ok = env.Msg.(wire.ReplicaSyncReq)
	if !ok || env.To != "P" || req.Frontier["e"] != 3 {
		t.Fatalf("a gap sent %+v to %s, want a ReplicaSyncReq at frontier 3 to P", env.Msg, env.To)
	}
	m.Handle(wire.Envelope{From: "P", To: "M", Msg: appendOf(6, 7, 6)})
	out.none(t)
	if got := m.Frontier("E"); got != 3 {
		t.Fatalf("a gap advanced the frontier to %d", got)
	}
	if sm := m.Metrics(); sm.SyncReqs != 2 || sm.Mirrors != 1 || sm.Diverged != 0 {
		t.Fatalf("metrics %+v, want 2 sync requests, 1 mirror, 0 diverged", sm)
	}
}

// TestViewChangeRunsThePlacementPass: the control plane's wake runs the
// placement pass at once, not a ReconcileEvery (here an hour) later — the
// mirror opens and solicits its stream from the node's host.
func TestViewChangeRunsThePlacementPass(t *testing.T) {
	var out outbox
	var wake func()
	m := New(fakeControl{wake: &wake}, out.send, Options{
		Member: "M", Nodes: []string{"E", "M", "P"}, K: 1,
		FlushEvery:     time.Hour,
		ReconcileEvery: time.Hour,
		SyncReqEvery:   time.Hour,
		StateEvery:     time.Hour,
	})
	t.Cleanup(m.Close)
	if wake == nil {
		t.Fatal("New handed the control plane no wake")
	}
	out.none(t)
	wake()
	env := out.next(t)
	if req, ok := env.Msg.(wire.ReplicaSyncReq); !ok || env.To != "P" || req.Node != "E" || len(req.Frontier) != 0 {
		t.Fatalf("after the wake: sent %+v to %s, want an empty-frontier ReplicaSyncReq for E to P", env.Msg, env.To)
	}
	out.none(t)
	if sm := m.Metrics(); sm.Mirrors != 1 || sm.SyncReqs != 1 {
		t.Fatalf("after the wake: %+v, want 1 mirror and 1 sync request", sm)
	}
}

// TestRefusedSyncReqIsRetriedSoon: a sync request the transport refuses (the
// host's address is not known yet) does not count against SyncReqEvery, and
// the placement pass asks again a FlushEvery later, not a ReconcileEvery.
func TestRefusedSyncReqIsRetriedSoon(t *testing.T) {
	var out outbox
	var mu sync.Mutex
	refuse := true
	m := New(fakeControl{}, func(from, to string, msg wire.Message) error {
		mu.Lock()
		defer mu.Unlock()
		if refuse {
			refuse = false
			return errors.New("unknown peer")
		}
		return out.send(from, to, msg)
	}, Options{
		Member: "M", Nodes: []string{"E", "M", "P"}, K: 1,
		FlushEvery:     5 * time.Millisecond,
		ReconcileEvery: time.Hour,
		SyncReqEvery:   time.Hour,
		StateEvery:     time.Hour,
	})
	t.Cleanup(m.Close)
	m.reconcileOnce()
	if env := out.next(t); env.To != "P" || env.Msg.(wire.ReplicaSyncReq).Node != "E" {
		t.Fatalf("after a refused request: sent %+v to %s, want a ReplicaSyncReq for E to P", env.Msg, env.To)
	}
	m.reconcileOnce()
	out.none(t) // the one that left holds the next back
	if got := m.Metrics().SyncReqs; got != 1 {
		t.Fatalf("sync_reqs = %d, want 1: a refused request was not sent", got)
	}
}

// TestPrimaryShipsOnSolicitationAndAdvancesOnDurableAcks drives the primary
// half: nothing ships before a mirror says where to start, only durable acks
// advance a stream, silence rewinds it to the acked frontier, and a fresh
// solicitation re-keys it.
func TestPrimaryShipsOnSolicitationAndAdvancesOnDurableAcks(t *testing.T) {
	var out outbox
	p := newManager(t, "P", &out)
	db := storage.New(relalg.MakeSchema("e", 1))
	insert := func(i int) {
		t.Helper()
		if _, err := db.Insert("e", tup(i), storage.InsertExact); err != nil {
			t.Fatal(err)
		}
	}
	insert(0)
	insert(1)
	p.BecomePrimary("E", db, nil)
	out.none(t)
	if got := p.Metrics().UnderReplicated; got != 1 {
		t.Fatalf("under_replicated = %d before any stream exists, want 1", got)
	}

	shipped := func(wantBase, wantTo uint64) {
		t.Helper()
		env := out.next(t)
		a, ok := env.Msg.(wire.ReplicaAppend)
		if !ok || env.To != "M" || a.Node != "E" || a.Base != wantBase || a.To != wantTo || uint64(len(a.Tuples)) != wantTo-wantBase {
			t.Fatalf("shipped %+v to %s, want E's range (%d,%d] to M", env.Msg, env.To, wantBase, wantTo)
		}
	}
	ack := func(from string, to uint64, durable bool) {
		p.Handle(wire.Envelope{From: from, To: "P", Msg: wire.ReplicaAck{Node: "E", Rel: "e", To: to, Durable: durable}})
	}

	p.Handle(wire.Envelope{From: "M", To: "P", Msg: wire.ReplicaSyncReq{Node: "E"}})
	shipped(0, 2)

	ack("M", 2, false) // not durable: the mirror may still lose it
	ack("X", 2, true)  // no stream to X
	if got := p.Metrics().UnderReplicated; got != 1 {
		t.Fatalf("under_replicated = %d after a non-durable ack, want 1", got)
	}
	// Nothing acknowledged: the next flush treats the silence as a lost frame
	// and re-ships from the acked frontier.
	p.sh.Kick()
	shipped(0, 2)
	if got := p.Metrics().Rewinds; got != 1 {
		t.Fatalf("rewinds = %d, want 1", got)
	}
	ack("M", 2, true)
	if got := p.Metrics().UnderReplicated; got != 0 {
		t.Fatalf("under_replicated = %d after the durable ack, want 0", got)
	}
	p.sh.Kick()
	out.none(t) // caught up: no rewind, nothing to ship

	insert(2)
	shipped(2, 3)
	p.sh.Kick()
	shipped(2, 3) // unacknowledged: rewound to the acked frontier 2, not to 0
	ack("M", 3, true)

	// The mirror restarted behind the stream: its solicitation re-keys the
	// stream to the frontier it reports.
	p.Handle(wire.Envelope{From: "M", To: "P", Msg: wire.ReplicaSyncReq{Node: "E", Frontier: map[string]uint64{"e": 1}}})
	if got := p.Metrics().UnderReplicated; got != 1 {
		t.Fatalf("under_replicated = %d after the stream was re-keyed behind the frontier, want 1", got)
	}
	shipped(1, 3)

	// Resign: the node lives elsewhere now; its streams stop.
	p.Resign("E", nil)
	insert(3)
	out.none(t)
	if sm := p.Metrics(); sm.Primaries != 0 || sm.UnderReplicated != 0 {
		t.Fatalf("after Resign: %+v", sm)
	}
}

// TestPromoteHandsTheMirrorOver: promotion removes the mirror from the
// manager and returns its database; without a mirror the winner gets an
// empty one rather than an error.
func TestPromoteHandsTheMirrorOver(t *testing.T) {
	var out outbox
	m := newManager(t, "M", &out)
	m.reconcileOnce()
	out.next(t)
	m.Handle(wire.Envelope{From: "P", To: "M", Msg: appendOf(0, 2, 0)})
	out.next(t)

	db, st, restore, err := m.Promote("E")
	if err != nil || st != nil || restore != nil {
		t.Fatalf("Promote = store %v, restore %v, err %v; want an in-memory mirror with no shipped state", st, restore, err)
	}
	if db.Count("e") != 2 {
		t.Fatalf("promoted database holds %d tuples, want 2", db.Count("e"))
	}
	if sm := m.Metrics(); sm.Mirrors != 0 || sm.Promotions != 1 {
		t.Fatalf("after Promote: %+v", sm)
	}
	m.BecomePrimary("E", db, nil)
	if got := m.Frontier("E"); got != 2 {
		t.Fatalf("primary frontier %d, want 2", got)
	}
	if db, _, _, err := m.Promote("P"); err != nil || db.TotalTuples() != 0 {
		t.Fatalf("promoting a node never mirrored here: db %v err %v, want an empty database", db, err)
	}
}

// TestStalledStreamRewindsOnTheTimer: with no insert and no solicitation to
// kick it, the manager's one timer still rewinds a stream left unacknowledged
// for ResendAfter — and not sooner — then stays quiet once the ack arrives.
func TestStalledStreamRewindsOnTheTimer(t *testing.T) {
	var out outbox
	const resendAfter = 100 * time.Millisecond
	p := New(fakeControl{}, out.send, Options{
		Member: "P", Nodes: []string{"E", "M", "P"}, K: 1,
		FlushEvery:     time.Millisecond,
		ResendAfter:    resendAfter,
		ReconcileEvery: time.Hour,
		SyncReqEvery:   time.Hour,
		StateEvery:     time.Hour,
	})
	t.Cleanup(p.Close)
	db := storage.New(relalg.MakeSchema("e", 1))
	if _, err := db.Insert("e", tup(0), storage.InsertExact); err != nil {
		t.Fatal(err)
	}
	p.BecomePrimary("E", db, nil)
	start := time.Now()
	p.Handle(wire.Envelope{From: "M", To: "P", Msg: wire.ReplicaSyncReq{Node: "E"}})
	for i := 0; i < 2; i++ {
		if a, ok := out.next(t).Msg.(wire.ReplicaAppend); !ok || a.Base != 0 || a.To != 1 {
			t.Fatalf("shipment %d = %+v, want E's range (0,1]", i, a)
		}
	}
	if elapsed := time.Since(start); elapsed < resendAfter {
		t.Fatalf("the stream rewound after %v, before ResendAfter (%v)", elapsed, resendAfter)
	}
	if got := p.Metrics().Rewinds; got != 1 {
		t.Fatalf("rewinds = %d, want 1", got)
	}
	p.Handle(wire.Envelope{From: "M", To: "P", Msg: wire.ReplicaAck{Node: "E", Rel: "e", To: 1, Durable: true}})
	time.Sleep(2 * resendAfter)
	out.none(t)
}

// TestNoDurableAckAfterClose: after Close a mirror takes no step, so an
// append neither lands nor is acknowledged — its closed store could not have
// made it durable — and the store recovers the frontier Close left.
func TestNoDurableAckAfterClose(t *testing.T) {
	dir := t.TempDir()
	var out outbox
	m := New(fakeControl{}, out.send, Options{
		Member: "M", Nodes: []string{"E", "M", "P"}, K: 1,
		DataDir:        dir,
		WAL:            wal.Options{Fsync: wal.FsyncInterval},
		FlushEvery:     time.Hour,
		ReconcileEvery: time.Hour,
		SyncReqEvery:   time.Hour,
		StateEvery:     time.Hour,
	})
	t.Cleanup(m.Close)
	m.reconcileOnce()
	out.next(t) // the solicitation
	m.Handle(wire.Envelope{From: "P", To: "M", Msg: appendOf(0, 2, 0)})
	if ack, ok := out.next(t).Msg.(wire.ReplicaAck); !ok || ack.To != 2 || !ack.Durable {
		t.Fatalf("append (0,2] was answered with %+v, want a durable ack to 2", ack)
	}
	m.Close()
	m.Handle(wire.Envelope{From: "P", To: "M", Msg: appendOf(2, 4, 2)})
	out.none(t)
	rec, err := wal.Inspect(filepath.Join(dir, "E.replica"))
	if err != nil {
		t.Fatal(err)
	}
	if got := marksSum(dbMarks(rec.DB)); got != 2 {
		t.Fatalf("the mirror store recovers frontier %d, want 2", got)
	}
}

// TestAppendsLeaveInStreamOrder: under inserts from 4 goroutines, the passes
// that ship them run one at a time, effects included, so each ReplicaAppend
// to the mirror starts where the previous one of its relation ended, and the
// mirror never finds a gap to re-solicit.
func TestAppendsLeaveInStreamOrder(t *testing.T) {
	var (
		mu      sync.Mutex
		appends []wire.ReplicaAppend
		reqs    int
		p, m    *Manager
	)
	opts := func(member string) Options {
		return Options{
			Member: member, Nodes: []string{"E", "M", "P"}, K: 1,
			FlushEvery:     time.Hour,
			ReconcileEvery: time.Hour,
			SyncReqEvery:   time.Hour,
			StateEvery:     time.Hour,
		}
	}
	p = New(fakeControl{}, func(from, to string, msg wire.Message) error {
		if a, ok := msg.(wire.ReplicaAppend); ok {
			mu.Lock()
			appends = append(appends, a)
			mu.Unlock()
		}
		m.Handle(wire.Envelope{From: from, To: to, Msg: msg})
		return nil
	}, opts("P"))
	m = New(fakeControl{}, func(from, to string, msg wire.Message) error {
		if _, ok := msg.(wire.ReplicaSyncReq); ok {
			mu.Lock()
			reqs++
			mu.Unlock()
		}
		p.Handle(wire.Envelope{From: from, To: to, Msg: msg})
		return nil
	}, opts("M"))
	t.Cleanup(p.Close)
	t.Cleanup(m.Close)
	db := storage.New(relalg.MakeSchema("e", 1), relalg.MakeSchema("f", 1))
	p.BecomePrimary("E", db, nil)
	m.reconcileOnce() // the first ReplicaSyncReq opens the stream

	const perG = 200
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rel := []string{"e", "f"}[g%2]
			for i := 0; i < perG; i++ {
				if _, err := db.Insert(rel, tup(g*perG+i), storage.InsertExact); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	deadline := time.Now().Add(10 * time.Second)
	for m.Frontier("E") < 4*perG {
		if time.Now().After(deadline) {
			t.Fatalf("the mirror's frontier is %d, want %d", m.Frontier("E"), 4*perG)
		}
		time.Sleep(time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	ended := map[string]uint64{}
	for i, a := range appends {
		if a.Base != ended[a.Rel] {
			t.Fatalf("append %d ships %s (%d,%d], but the previous one ended at %d", i, a.Rel, a.Base, a.To, ended[a.Rel])
		}
		ended[a.Rel] = a.To
	}
	if reqs != 1 {
		t.Fatalf("%d sync requests, want only the first", reqs)
	}
}

// TestInsertDoesNotWaitForAPass: the insert listener only kicks. An insert
// made under a lock the primary's stateFn takes (the peer's, in a member)
// returns while a pass is parked inside stateFn waiting for that lock.
func TestInsertDoesNotWaitForAPass(t *testing.T) {
	var out outbox
	p := New(fakeControl{}, out.send, Options{
		Member: "P", Nodes: []string{"E", "M", "P"}, K: 1,
		FlushEvery:     time.Hour,
		ReconcileEvery: time.Hour,
		SyncReqEvery:   time.Hour,
		StateEvery:     time.Nanosecond, // every pass with a stream asks for the state
	})
	t.Cleanup(p.Close)
	db := storage.New(relalg.MakeSchema("e", 1))
	var peerMu sync.Mutex
	parked := make(chan struct{})
	var once sync.Once
	p.BecomePrimary("E", db, func() wal.State {
		once.Do(func() { close(parked) })
		peerMu.Lock()
		defer peerMu.Unlock()
		return wal.State{Epoch: 1}
	})
	peerMu.Lock()
	p.Handle(wire.Envelope{From: "M", To: "P", Msg: wire.ReplicaSyncReq{Node: "E"}})
	select {
	case <-parked:
	case <-time.After(5 * time.Second):
		peerMu.Unlock()
		t.Fatal("no pass asked for the protocol state")
	}
	inserted := make(chan error, 1)
	go func() {
		_, err := db.Insert("e", tup(0), storage.InsertExact)
		inserted <- err
	}()
	select {
	case err := <-inserted:
		peerMu.Unlock()
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		peerMu.Unlock()
		t.Fatal("an insert under the lock stateFn takes waited for the pass parked in stateFn")
	}
	if _, ok := out.next(t).Msg.(wire.ReplicaState); !ok {
		t.Fatal("the parked pass did not ship the state")
	}
	if a, ok := out.next(t).Msg.(wire.ReplicaAppend); !ok || a.Base != 0 || a.To != 1 {
		t.Fatalf("the insert's kick shipped %+v, want E's range (0,1]", a)
	}
}
