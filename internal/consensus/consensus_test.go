package consensus

import (
	"bytes"
	"context"
	"encoding/gob"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/wire"
)

// fakeNet is an in-memory message fabric with per-pair partitions and random
// loss — the failure modes Paxos must absorb. Delivery is asynchronous (one
// goroutine per frame), like the real TCP outbox.
type fakeNet struct {
	mu      sync.Mutex
	nodes   map[string]*Node
	cut     map[[2]string]bool // unordered pair → partitioned
	dropPct int                // percent of frames lost at random
	delay   time.Duration      // one-way latency of every frame
	rng     *rand.Rand
	wg      sync.WaitGroup
}

func newFakeNet() *fakeNet {
	return &fakeNet{nodes: map[string]*Node{}, cut: map[[2]string]bool{}, rng: rand.New(rand.NewSource(1))}
}

func pairKey(a, b string) [2]string {
	if a > b {
		a, b = b, a
	}
	return [2]string{a, b}
}

func (f *fakeNet) sender(from string) Sender {
	return func(to string, msg wire.Message) error {
		f.mu.Lock()
		blocked := f.cut[pairKey(from, to)]
		dropped := f.dropPct > 0 && f.rng.Intn(100) < f.dropPct
		dst := f.nodes[to]
		delay := f.delay
		f.mu.Unlock()
		if blocked || dropped || dst == nil {
			return nil // silent loss, like an async outbox
		}
		f.wg.Add(1)
		go func() {
			defer f.wg.Done()
			time.Sleep(delay)
			dst.Handle(wire.Envelope{From: from, To: to, Msg: msg})
		}()
		return nil
	}
}

// partition cuts every pair straddling the two groups.
func (f *fakeNet) partition(a, b []string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, x := range a {
		for _, y := range b {
			f.cut[pairKey(x, y)] = true
		}
	}
}

func (f *fakeNet) heal() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.cut = map[[2]string]bool{}
}

// applyLog records the applied sequence of one member.
type applyLog struct {
	mu      sync.Mutex
	entries []logEntry
}

func (l *applyLog) apply(i uint64, c wire.Command) {
	l.mu.Lock()
	l.entries = append(l.entries, logEntry{Instance: i, Cmd: c})
	l.mu.Unlock()
}

func (l *applyLog) snapshot() []logEntry {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]logEntry(nil), l.entries...)
}

// stateBytes/installState wire an applyLog as a state-transfer application:
// the "state" is simply the applied sequence so far.
func (l *applyLog) stateBytes() []byte {
	l.mu.Lock()
	defer l.mu.Unlock()
	var buf bytes.Buffer
	_ = gob.NewEncoder(&buf).Encode(l.entries)
	return buf.Bytes()
}

func (l *applyLog) installState(_ uint64, data []byte) {
	var entries []logEntry
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&entries); err != nil {
		return
	}
	l.mu.Lock()
	l.entries = entries
	l.mu.Unlock()
}

func fastOpts() Options {
	return Options{Retry: 10 * time.Millisecond, SyncEvery: 25 * time.Millisecond, keepWindow: 1 << 20}
}

// startCluster builds and starts n members A, B, C, ... on one fabric.
func startCluster(t *testing.T, f *fakeNet, names []string, opts Options) (map[string]*Node, map[string]*applyLog) {
	t.Helper()
	nodes := map[string]*Node{}
	logs := map[string]*applyLog{}
	for _, name := range names {
		al := &applyLog{}
		n, err := New(name, names, f.sender(name), al.apply, opts)
		if err != nil {
			t.Fatal(err)
		}
		nodes[name] = n
		logs[name] = al
		f.mu.Lock()
		f.nodes[name] = n
		f.mu.Unlock()
	}
	for _, n := range nodes {
		n.Start()
	}
	t.Cleanup(func() {
		for _, n := range nodes {
			n.Close()
		}
		f.wg.Wait()
	})
	return nodes, logs
}

func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timeout waiting for %s", what)
}

func submit(t *testing.T, n *Node, kind, text string) uint64 {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	at, err := n.Submit(ctx, wire.Command{Kind: kind, Text: text})
	if err != nil {
		t.Fatalf("submit %s/%s on %s: %v", kind, text, n.self, err)
	}
	return at
}

// sameOrder asserts every member applied the identical command sequence.
func sameOrder(t *testing.T, logs map[string]*applyLog, want int) {
	t.Helper()
	var ref []logEntry
	var refName string
	for name, l := range logs {
		got := l.snapshot()
		if len(got) != want {
			t.Fatalf("%s applied %d entries, want %d", name, len(got), want)
		}
		if ref == nil {
			ref, refName = got, name
			continue
		}
		for i := range got {
			if got[i].Instance != ref[i].Instance || got[i].Cmd != ref[i].Cmd {
				t.Fatalf("divergence at %d: %s=%+v %s=%+v", i, refName, ref[i], name, got[i])
			}
		}
	}
}

func TestSingleProposerOrdersAll(t *testing.T) {
	f := newFakeNet()
	names := []string{"A", "B", "C"}
	nodes, logs := startCluster(t, f, names, fastOpts())
	for i := 0; i < 8; i++ {
		submit(t, nodes["A"], "noop", fmt.Sprint(i))
	}
	waitFor(t, 5*time.Second, "all applied", func() bool {
		for _, l := range logs {
			if len(l.snapshot()) != 8 {
				return false
			}
		}
		return true
	})
	sameOrder(t, logs, 8)
	for i, e := range logs["B"].snapshot() {
		if e.Cmd.Text != fmt.Sprint(i) {
			t.Fatalf("entry %d out of submission order: %+v", i, e)
		}
	}
}

func TestContendingProposersNeverDiverge(t *testing.T) {
	f := newFakeNet()
	names := []string{"A", "B", "C"}
	nodes, logs := startCluster(t, f, names, fastOpts())
	const per = 5
	var wg sync.WaitGroup
	for _, name := range names {
		wg.Add(1)
		go func(n *Node) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				submit(t, n, "noop", fmt.Sprintf("%s-%d", n.self, i))
			}
		}(nodes[name])
	}
	wg.Wait()
	want := per * len(names)
	waitFor(t, 10*time.Second, "all applied", func() bool {
		for _, l := range logs {
			if len(l.snapshot()) < want {
				return false
			}
		}
		return true
	})
	total := len(logs["A"].snapshot())
	sameOrder(t, logs, total)
	// Every submission decided exactly once (no duplicates, no losses).
	seen := map[string]int{}
	for _, e := range logs["A"].snapshot() {
		seen[e.Cmd.Origin+"#"+fmt.Sprint(e.Cmd.Seq)]++
	}
	if len(seen) != total {
		t.Fatalf("duplicate decisions: %d unique of %d", len(seen), total)
	}
}

// TestConcurrentLocalProposersKeepDistinctBallots hammers ONE node with
// parallel Submits. Before ballots carried a per-node epoch, two concurrent
// local rounds could pick the same (instance, ballot) key — one's cleanup
// deleted the other's round state mid-flight (a nil-dereference panic under
// the node mutex), and worse, the two rounds could ship different values
// under a single ballot. All submissions must decide, exactly once, in the
// same order everywhere.
func TestConcurrentLocalProposersKeepDistinctBallots(t *testing.T) {
	f := newFakeNet()
	names := []string{"A", "B", "C"}
	nodes, logs := startCluster(t, f, names, fastOpts())
	const par = 8
	var wg sync.WaitGroup
	for i := 0; i < par; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			submit(t, nodes["A"], "noop", fmt.Sprint(i))
		}(i)
	}
	wg.Wait()
	waitFor(t, 10*time.Second, "all applied", func() bool {
		for _, l := range logs {
			if len(l.snapshot()) < par {
				return false
			}
		}
		return true
	})
	total := len(logs["A"].snapshot())
	sameOrder(t, logs, total)
	seen := map[string]int{}
	for _, e := range logs["A"].snapshot() {
		seen[e.Cmd.Origin+"#"+fmt.Sprint(e.Cmd.Seq)]++
	}
	if len(seen) != total {
		t.Fatalf("duplicate decisions: %d unique of %d", len(seen), total)
	}
}

func TestMessageLossStillDecides(t *testing.T) {
	f := newFakeNet()
	f.dropPct = 20
	names := []string{"A", "B", "C"}
	nodes, logs := startCluster(t, f, names, fastOpts())
	for i := 0; i < 6; i++ {
		submit(t, nodes[names[i%3]], "noop", fmt.Sprint(i))
	}
	waitFor(t, 15*time.Second, "all applied despite loss", func() bool {
		for _, l := range logs {
			if len(l.snapshot()) < 6 {
				return false
			}
		}
		return true
	})
	sameOrder(t, logs, len(logs["A"].snapshot()))
}

func TestMinorityMakesNoProgress(t *testing.T) {
	f := newFakeNet()
	names := []string{"A", "B", "C", "D", "E"}
	nodes, logs := startCluster(t, f, names, fastOpts())
	submit(t, nodes["A"], "noop", "warmup")

	f.partition([]string{"A", "B"}, []string{"C", "D", "E"})

	// The minority proposer must block until its context expires.
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	_, err := nodes["A"].Submit(ctx, wire.Command{Kind: "noop", Text: "minority"})
	cancel()
	if err == nil {
		t.Fatal("minority proposer decided without a quorum")
	}
	minorityApplied := len(logs["A"].snapshot())

	// The majority side keeps deciding.
	submit(t, nodes["C"], "noop", "majority-1")
	submit(t, nodes["D"], "noop", "majority-2")
	waitFor(t, 5*time.Second, "majority applied", func() bool {
		return len(logs["E"].snapshot()) >= 3
	})
	if got := len(logs["A"].snapshot()); got != minorityApplied {
		t.Fatalf("minority advanced during partition: %d -> %d", minorityApplied, got)
	}

	// Healed: the minority catches up and a fresh submit from it decides.
	f.heal()
	submit(t, nodes["A"], "noop", "healed")
	waitFor(t, 5*time.Second, "all converged", func() bool {
		n := len(logs["C"].snapshot())
		for _, l := range logs {
			if len(l.snapshot()) != n {
				return false
			}
		}
		return n >= 4
	})
	sameOrder(t, logs, len(logs["A"].snapshot()))
}

func TestCatchUpAfterSilence(t *testing.T) {
	f := newFakeNet()
	names := []string{"A", "B", "C"}
	nodes, logs := startCluster(t, f, names, fastOpts())
	f.partition([]string{"C"}, []string{"A", "B"})
	for i := 0; i < 5; i++ {
		submit(t, nodes["A"], "noop", fmt.Sprint(i))
	}
	if n := len(logs["C"].snapshot()); n != 0 {
		t.Fatalf("isolated member applied %d entries", n)
	}
	f.heal()
	// No further proposals: the catch-up ticker alone must close the gap.
	waitFor(t, 5*time.Second, "C caught up", func() bool {
		return len(logs["C"].snapshot()) == 5
	})
	sameOrder(t, logs, 5)
}

// TestGapFill injects a decided successor with an undecided predecessor — the
// state a proposer's death between Accept and Learn leaves behind — and
// expects a no-op fill to unblock the applier.
func TestGapFill(t *testing.T) {
	f := newFakeNet()
	names := []string{"A", "B", "C"}
	nodes, logs := startCluster(t, f, names, fastOpts())
	for _, n := range nodes {
		n.Handle(wire.Envelope{From: "A", To: n.self,
			Msg: wire.Learn{Instance: 2, Val: wire.Command{Kind: "member", Origin: "A", Seq: 99, Node: "Z"}}})
	}
	waitFor(t, 5*time.Second, "gap filled and both applied", func() bool {
		for _, l := range logs {
			if len(l.snapshot()) != 2 {
				return false
			}
		}
		return true
	})
	sameOrder(t, logs, 2)
	first := logs["A"].snapshot()[0]
	if first.Instance != 1 || first.Cmd.Kind != "noop" {
		t.Fatalf("gap not filled with noop: %+v", first)
	}
	if m := nodes["A"].Metrics(); m.NoopFills == 0 && nodes["B"].Metrics().NoopFills == 0 && nodes["C"].Metrics().NoopFills == 0 {
		t.Errorf("no member counted a noop fill: %+v", m)
	}
}

func TestGCBoundsInstanceState(t *testing.T) {
	opts := fastOpts()
	opts.keepWindow = 8
	f := newFakeNet()
	names := []string{"A", "B", "C"}
	nodes, logs := startCluster(t, f, names, opts)
	const total = 40
	for i := 0; i < total; i++ {
		submit(t, nodes[names[i%3]], "noop", fmt.Sprint(i))
	}
	waitFor(t, 10*time.Second, "all applied", func() bool {
		for _, l := range logs {
			if len(l.snapshot()) < total {
				return false
			}
		}
		return true
	})
	// Done frontiers ride on the periodic catch-up; give them a few ticks.
	waitFor(t, 5*time.Second, "GC floor advanced", func() bool {
		for _, n := range nodes {
			if n.Metrics().Floor == 0 {
				return false
			}
		}
		return true
	})
	for name, n := range nodes {
		m := n.Metrics()
		n.sh.Lock()
		kept := len(n.insts)
		var own []uint64
		for _, p := range n.proposals {
			if p.seq != 0 {
				own = append(own, p.seq)
			}
		}
		n.sh.Unlock()
		if uint64(kept) > m.Applied-m.Floor+4 {
			t.Errorf("%s retains %d instances above floor %d (applied %d)", name, kept, m.Floor, m.Applied)
		}
		if len(own) > 0 {
			t.Errorf("%s still keeps records of its completed submits %v", name, own)
		}
	}
}

// TestRestartReplaysControlLog runs each member with its own control log,
// kills one (Close + detach), decides more entries, restarts it from its log
// and expects offline replay + network catch-up to converge it.
func TestRestartReplaysControlLog(t *testing.T) {
	dir := t.TempDir()
	names := []string{"A", "B", "C"}
	f := newFakeNet()
	nodes := map[string]*Node{}
	logs := map[string]*applyLog{}
	// open builds a member from its control log; join attaches it to the
	// fabric and starts it. Between the two the member has only replayed.
	open := func(name string) {
		al := &applyLog{}
		opts := fastOpts()
		opts.LogPath = filepath.Join(dir, name+".control.log")
		n, err := New(name, names, f.sender(name), al.apply, opts)
		if err != nil {
			t.Fatal(err)
		}
		nodes[name], logs[name] = n, al
	}
	join := func(name string) {
		f.mu.Lock()
		f.nodes[name] = nodes[name]
		f.mu.Unlock()
		nodes[name].Start()
	}
	for _, name := range names {
		open(name)
		join(name)
	}
	defer func() {
		for _, n := range nodes {
			n.Close()
		}
		f.wg.Wait()
	}()

	for i := 0; i < 6; i++ {
		submit(t, nodes["A"], "noop", fmt.Sprint(i))
	}
	waitFor(t, 5*time.Second, "all applied", func() bool {
		for _, l := range logs {
			if len(l.snapshot()) != 6 {
				return false
			}
		}
		return true
	})

	// "Crash" C: close it and detach it from the fabric.
	nodes["C"].Close()
	f.mu.Lock()
	delete(f.nodes, "C")
	f.mu.Unlock()
	preCrash := logs["C"].snapshot()

	submit(t, nodes["A"], "noop", "while-down-1")
	submit(t, nodes["B"], "noop", "while-down-2")

	// Restart C from its control log (open installs a fresh applyLog): New
	// replays the persisted prefix synchronously, before any network frame —
	// so read what it replayed before C joins the fabric, where catching up
	// on the two entries decided while it was down may start at once.
	open("C")
	replayed := logs["C"].snapshot()
	join("C")
	if len(replayed) != len(preCrash) {
		t.Fatalf("replay produced %d entries, want %d", len(replayed), len(preCrash))
	}
	for i, e := range preCrash {
		if replayed[i].Instance != e.Instance || replayed[i].Cmd != e.Cmd {
			t.Fatalf("replay diverged at %d: %+v vs %+v", i, replayed[i], e)
		}
	}
	waitFor(t, 5*time.Second, "C caught up past crash window", func() bool {
		return len(logs["C"].snapshot()) == len(preCrash)+2
	})
	if m := nodes["C"].Metrics(); m.Applied != 8 {
		t.Fatalf("restarted member applied=%d, want 8", m.Applied)
	}
}

// TestRestartHonoursDurableVotes pins the acceptor-durability rule: a vote
// (a promise, or an accepted ballot and value) is fsynced before the reply
// leaves, so a crash-restart cannot forget it — a restarted member still
// rejects lower ballots and surfaces its accepted value to higher ones.
// Forgetting either would let two majorities accept different values at the
// same instance (broken quorum intersection).
func TestRestartHonoursDurableVotes(t *testing.T) {
	dir := t.TempDir()
	var mu sync.Mutex
	var sent []wire.Message
	send := func(to string, msg wire.Message) error {
		mu.Lock()
		sent = append(sent, msg)
		mu.Unlock()
		return nil
	}
	last := func() wire.Message {
		mu.Lock()
		defer mu.Unlock()
		if len(sent) == 0 {
			t.Fatal("no reply captured")
		}
		return sent[len(sent)-1]
	}
	opts := fastOpts()
	opts.LogPath = filepath.Join(dir, "B.control.log")
	mk := func() *Node {
		n, err := New("B", []string{"A", "B", "C"}, send, func(uint64, wire.Command) {}, opts)
		if err != nil {
			t.Fatal(err)
		}
		return n
	}

	val := wire.Command{Kind: "member", Origin: "A", Seq: 7, Node: "X"}
	n := mk()
	n.Handle(wire.Envelope{From: "A", To: "B", Msg: wire.Prepare{Instance: 1, Ballot: 5}})
	if p, ok := last().(wire.Promise); !ok || !p.OK {
		t.Fatalf("pre-crash promise: %+v", last())
	}
	n.Handle(wire.Envelope{From: "A", To: "B", Msg: wire.Accept{Instance: 1, Ballot: 5, Val: val}})
	if a, ok := last().(wire.Accepted); !ok || !a.OK {
		t.Fatalf("pre-crash accept: %+v", last())
	}
	n.Close() // crash stand-in: only what reached the acceptor log survives

	n = mk()
	defer n.Close()
	// Lower ballots must still bounce off the restored promise.
	n.Handle(wire.Envelope{From: "C", To: "B", Msg: wire.Prepare{Instance: 1, Ballot: 3}})
	if p, ok := last().(wire.Promise); !ok || p.OK || p.Promised != 5 {
		t.Fatalf("restarted acceptor re-promised below its durable promise: %+v", last())
	}
	n.Handle(wire.Envelope{From: "C", To: "B", Msg: wire.Accept{Instance: 1, Ballot: 3, Val: wire.Command{Kind: "noop"}}})
	if a, ok := last().(wire.Accepted); !ok || a.OK || a.Promised != 5 {
		t.Fatalf("restarted acceptor re-accepted below its durable promise: %+v", last())
	}
	// A higher ballot's Prepare must surface the durable accepted value.
	n.Handle(wire.Envelope{From: "C", To: "B", Msg: wire.Prepare{Instance: 1, Ballot: 9}})
	if p, ok := last().(wire.Promise); !ok || !p.OK || !p.HasVal || p.AccBallot != 5 || p.Val != val {
		t.Fatalf("restarted acceptor lost its durable accepted value: %+v", last())
	}
}

// TestLostDiskStateTransferCatchUp rejoins a member whose disk is gone after
// its needed prefix was GC'd at every peer: no Learn can serve instances
// below the floor, so only the Snapshot/Restore state transfer can catch it
// up — and its recovered done-frontier must let GC resume cluster-wide.
func TestLostDiskStateTransferCatchUp(t *testing.T) {
	dir := t.TempDir()
	names := []string{"A", "B", "C"}
	f := newFakeNet()
	nodes := map[string]*Node{}
	logs := map[string]*applyLog{}
	mk := func(name string) {
		al := &applyLog{}
		opts := fastOpts()
		opts.keepWindow = 4
		opts.LogPath = filepath.Join(dir, name+".control.log")
		opts.Snapshot = al.stateBytes
		opts.Restore = al.installState
		n, err := New(name, names, f.sender(name), al.apply, opts)
		if err != nil {
			t.Fatal(err)
		}
		nodes[name], logs[name] = n, al
		f.mu.Lock()
		f.nodes[name] = n
		f.mu.Unlock()
		n.Start()
	}
	for _, name := range names {
		mk(name)
	}
	defer func() {
		for _, n := range nodes {
			n.Close()
		}
		f.wg.Wait()
	}()

	const total = 30
	for i := 0; i < total; i++ {
		submit(t, nodes[names[i%3]], "noop", fmt.Sprint(i))
	}
	waitFor(t, 10*time.Second, "all applied", func() bool {
		for _, l := range logs {
			if len(l.snapshot()) < total {
				return false
			}
		}
		return true
	})
	waitFor(t, 5*time.Second, "GC floor advanced", func() bool {
		return nodes["A"].Metrics().Floor > 0 && nodes["B"].Metrics().Floor > 0
	})

	// Crash C and destroy its disk: both log files gone, fresh applyLog.
	nodes["C"].Close()
	f.mu.Lock()
	delete(f.nodes, "C")
	f.mu.Unlock()
	os.Remove(filepath.Join(dir, "C.control.log"))
	os.Remove(filepath.Join(dir, "C.control.log.acc"))

	submit(t, nodes["A"], "noop", "while-down")

	mk("C") // re-enters at applied zero, below every peer's floor
	waitFor(t, 10*time.Second, "C restored by state transfer and caught up", func() bool {
		return len(logs["C"].snapshot()) == len(logs["A"].snapshot()) &&
			nodes["C"].Metrics().Applied == nodes["A"].Metrics().Applied
	})
	a, c := logs["A"].snapshot(), logs["C"].snapshot()
	for i := range a {
		if c[i] != a[i] {
			t.Fatalf("C diverges at %d: %+v vs %+v", i, c[i], a[i])
		}
	}

	// GC resumes: C's done-frontier recovered, so new decisions push the
	// floor past its pre-crash value everywhere.
	preFloor := nodes["A"].Metrics().Floor
	for i := 0; i < 10; i++ {
		submit(t, nodes["A"], "noop", fmt.Sprintf("post-%d", i))
	}
	waitFor(t, 10*time.Second, "floor advanced past its pre-crash value", func() bool {
		for _, n := range nodes {
			if n.Metrics().Floor <= preFloor {
				return false
			}
		}
		return true
	})
}

// TestSnapshotLabelMatchesItsState parks the applier inside a batch of three
// decided entries and takes a state transfer: its Through must name the
// entries the state holds, not the last instance of the batch being applied.
func TestSnapshotLabelMatchesItsState(t *testing.T) {
	al := &applyLog{}
	parked, release := make(chan struct{}), make(chan struct{})
	apply := func(i uint64, c wire.Command) {
		if i == 2 {
			close(parked)
			<-release
		}
		al.apply(i, c)
	}
	opts := fastOpts()
	opts.Snapshot = al.stateBytes
	n, err := New("A", []string{"A"}, func(string, wire.Message) error { return nil }, apply, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	for i := uint64(1); i <= 3; i++ {
		n.deliver(n.self, wire.Learn{Instance: i, Val: wire.Command{Kind: "noop", Text: fmt.Sprint(i)}})
	}
	n.Start() // the applier takes all three in one batch
	select {
	case <-parked:
	case <-time.After(5 * time.Second):
		close(release)
		t.Fatal("the applier never reached the second entry")
	}
	snap, ok := n.takeSnapshot()
	close(release)
	if !ok {
		t.Fatal("no snapshot while the applier was parked")
	}
	var held []logEntry
	if err := gob.NewDecoder(bytes.NewReader(snap.State)).Decode(&held); err != nil {
		t.Fatal(err)
	}
	if snap.Through != uint64(len(held)) {
		t.Fatalf("snapshot labelled through %d holds %d entries", snap.Through, len(held))
	}
}

// TestAdoptsAcceptedValue pins the core safety rule: a new ballot must adopt
// a value any acceptor has already accepted, not its own.
func TestAdoptsAcceptedValue(t *testing.T) {
	f := newFakeNet()
	names := []string{"A", "B", "C"}
	nodes, logs := startCluster(t, f, names, fastOpts())
	// Hand-feed B an accepted value at instance 1 (ballot 5, command "early").
	early := wire.Command{Kind: "member", Origin: "Z", Seq: 1, Node: "N"}
	nodes["B"].Handle(wire.Envelope{From: "A", To: "B", Msg: wire.Prepare{Instance: 1, Ballot: 5}})
	nodes["B"].Handle(wire.Envelope{From: "A", To: "B", Msg: wire.Accept{Instance: 1, Ballot: 5, Val: early}})
	// Now C proposes its own command at the same instance; the Prepare round
	// must surface B's accepted value and decide it instead. The rule binds
	// only a promise quorum that contains B — a value accepted by a minority
	// is not chosen, and a quorum of A and C alone may rightly decide C's own
	// command (which is what happened whenever B's promise was the slow one,
	// and the wait below then expired on a log that held one entry for good).
	// Cutting A from C makes every quorum contain B.
	f.partition([]string{"A"}, []string{"C"})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := nodes["C"].Submit(ctx, wire.Command{Kind: "noop", Text: "late"}); err != nil {
		t.Fatal(err)
	}
	f.heal()
	waitFor(t, 5*time.Second, "two entries applied", func() bool {
		return len(logs["A"].snapshot()) >= 2
	})
	first := logs["A"].snapshot()[0]
	if first.Cmd.Origin != "Z" || first.Cmd.Kind != "member" {
		t.Fatalf("instance 1 decided %+v, want the earlier accepted value", first.Cmd)
	}
}

// TestProposeGivesUpItsLostInstance: a Propose whose instance is decided
// with another value returns 0 instead of moving on to the next instance, as
// a Submit does — its command, premised on the log before that value, must
// not land after it.
func TestProposeGivesUpItsLostInstance(t *testing.T) {
	f := newFakeNet()
	names := []string{"A", "B", "C"}
	nodes, logs := startCluster(t, f, names, fastOpts())
	// B holds an accepted value at instance 1, and every quorum of C's holds B
	// (as in TestAdoptsAcceptedValue): C's round at instance 1 decides it.
	early := wire.Command{Kind: "member", Origin: "Z", Seq: 1, Node: "N"}
	nodes["B"].Handle(wire.Envelope{From: "A", To: "B", Msg: wire.Prepare{Instance: 1, Ballot: 5}})
	nodes["B"].Handle(wire.Envelope{From: "A", To: "B", Msg: wire.Accept{Instance: 1, Ballot: 5, Val: early}})
	f.partition([]string{"A"}, []string{"C"})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	inst, err := nodes["C"].Propose(ctx, wire.Command{Kind: "noop", Text: "late"})
	if err != nil || inst != 0 {
		t.Fatalf("Propose over a lost instance = %d, %v; want 0, nil", inst, err)
	}
	f.heal()
	// The same command submitted moves on and decides at instance 2.
	if inst, err := nodes["C"].Submit(ctx, wire.Command{Kind: "noop", Text: "late"}); err != nil || inst != 2 {
		t.Fatalf("Submit = %d, %v; want instance 2", inst, err)
	}
	waitFor(t, 5*time.Second, "two entries applied", func() bool {
		return len(logs["A"].snapshot()) >= 2
	})
	for i, e := range logs["A"].snapshot() {
		if e.Cmd.Text == "late" && e.Cmd.Origin == "C" && e.Cmd.Seq == 1 {
			t.Fatalf("the given-up Propose was decided at instance %d", i+1)
		}
	}
}

// TestSlowRoundTripsStillDecide: when every round trip outlasts the base
// phase timeout (a loaded box, acceptors fsyncing votes on a busy disk — here
// 30ms each way against 2×Retry = 20ms), a proposer must not time every
// ballot out forever: each retry waits longer for its quorum, so the third
// attempt's phases (80ms) cover the 60ms round trip and the command decides.
func TestSlowRoundTripsStillDecide(t *testing.T) {
	f := newFakeNet()
	f.delay = 30 * time.Millisecond
	names := []string{"A", "B", "C"}
	nodes, logs := startCluster(t, f, names, fastOpts())
	submit(t, nodes["A"], "noop", "slow")
	waitFor(t, 10*time.Second, "applied everywhere", func() bool {
		for _, l := range logs {
			if len(l.snapshot()) != 1 {
				return false
			}
		}
		return true
	})
	sameOrder(t, logs, 1)
}

func TestMetricsShape(t *testing.T) {
	f := newFakeNet()
	names := []string{"A", "B", "C"}
	nodes, logs := startCluster(t, f, names, fastOpts())
	submit(t, nodes["A"], "noop", "x")
	waitFor(t, 5*time.Second, "applied", func() bool { return len(logs["A"].snapshot()) == 1 })
	m := nodes["A"].Metrics()
	if m.Quorum != 2 || m.Peers != 3 {
		t.Fatalf("quorum/peers: %+v", m)
	}
	if m.Applied != 1 || m.MaxDecided < 1 || m.MaxProposed < 1 || m.Proposals != 1 {
		t.Fatalf("counters: %+v", m)
	}
}

// TestLearnAboveAGapPullsTheGap: a member taught an instance above ones it
// never learned (it joined after they were decided) asks the teacher for the
// missing ones at once, once per stuck frontier, instead of waiting for its
// next catch-up round.
func TestLearnAboveAGapPullsTheGap(t *testing.T) {
	s := newState("C", []string{"A", "B", "C"}, fastOpts().withDefaults(), 1)
	pulls := func(effs []effect) []string {
		var out []string
		for _, e := range effs {
			if m, ok := e.msg.(wire.CatchUp); ok && e.kind == effSend {
				out = append(out, fmt.Sprintf("%s from %d", e.to, m.From))
			}
		}
		return out
	}
	now := time.Now()
	learn := func(i uint64) wire.Learn {
		return wire.Learn{Instance: i, Val: wire.Command{Kind: "noop", Text: fmt.Sprint(i)}}
	}
	if got := pulls(s.step(now, "A", learn(3))); len(got) != 1 || got[0] != "A from 1" {
		t.Fatalf("a Learn above a gap pulled %v, want one CatchUp from 1 to A", got)
	}
	if got := pulls(s.step(now, "B", learn(4))); len(got) != 0 {
		t.Fatalf("a second Learn at the same stuck frontier pulled %v, want nothing", got)
	}
	s.step(now, "A", learn(1))
	if got := pulls(s.step(now, "A", learn(5))); len(got) != 1 || got[0] != "A from 2" {
		t.Fatalf("a Learn above the moved frontier pulled %v, want one CatchUp from 2 to A", got)
	}
	if got := pulls(s.step(now, "A", learn(2))); len(got) != 0 {
		t.Fatalf("the Learn that closes the gap pulled %v", got)
	}
}
