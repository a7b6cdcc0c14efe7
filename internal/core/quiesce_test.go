package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/relalg"
	"repro/internal/stats"
	"repro/internal/transport"
	"repro/internal/wire"
	"repro/internal/workload"
)

// Polling quiescence — the counter balance, the only settle rule on every
// transport — under adversarial delivery timing. A slowTransport models a TCP
// peer whose deliveries stall in transit — longer than the base settle window
// — without offering any of the in-memory router's capabilities, and Quiesce
// must not conclude early while the stalled messages are still on their way.

// slowTransport wraps a transport, delaying every delivery by a fixed lag.
// It deliberately implements only the base Transport interface: no Stepper,
// no partitions — orchestration sees a bare real-world pipe.
type slowTransport struct {
	inner transport.Transport
	lag   time.Duration
	wg    sync.WaitGroup

	mu     sync.Mutex
	closed bool
}

func newSlowTransport(lag time.Duration) *slowTransport {
	return &slowTransport{inner: transport.NewMem(transport.MemOptions{}), lag: lag}
}

func (s *slowTransport) Register(node string, h transport.Handler) error {
	return s.inner.Register(node, func(env wire.Envelope) {
		s.mu.Lock()
		closed := s.closed
		if !closed {
			s.wg.Add(1)
		}
		s.mu.Unlock()
		if closed {
			return
		}
		defer s.wg.Done()
		time.Sleep(s.lag)
		h(env)
	})
}

func (s *slowTransport) Send(from, to string, msg wire.Message) error {
	return s.inner.Send(from, to, msg)
}

func (s *slowTransport) Close() error {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	err := s.inner.Close()
	s.wg.Wait()
	return err
}

// TestPollingQuiesceSlowPeer drives an update and a live insert over a
// transport whose every hop stalls for longer than the base settle window
// (200ms). A premature quiescence verdict would return while derived data is
// still in flight and the centralized cross-check would catch the divergence.
func TestPollingQuiesceSlowPeer(t *testing.T) {
	if testing.Short() {
		t.Skip("deliberately slow transport skipped in -short mode")
	}
	def := mustParse(t, chainNet)
	n, err := BuildWith(def, newSlowTransport(300*time.Millisecond), Options{Delta: true})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()

	c, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if err := n.RunToFixpoint(c); err != nil {
		t.Fatal(err)
	}
	if !n.AllClosed() {
		t.Fatalf("open peers after update: %v", n.OpenPeers())
	}
	if err := n.ValidateAgainstCentralized(); err != nil {
		t.Fatalf("update concluded before slow deliveries landed: %v", err)
	}

	// A bare Insert+Quiesce has no probe loop to absorb residue: the polled
	// verdict alone must cover the two slow hops C→B→A.
	if _, err := n.Node("C").Insert(c, "c", relalg.Tuple{relalg.S("9"), relalg.S("10")}); err != nil {
		t.Fatal(err)
	}
	if err := n.Quiesce(c); err != nil {
		t.Fatal(err)
	}
	if err := n.ValidateAgainstCentralized(); err != nil {
		t.Fatalf("quiesce returned early under a slow peer: %v", err)
	}
}

// TestPollingQuiesceHonorsContext cancels mid-wait: the polling loop must
// return the context error promptly instead of spinning to a verdict.
func TestPollingQuiesceHonorsContext(t *testing.T) {
	def := mustParse(t, chainNet)
	n, err := BuildWith(def, newSlowTransport(250*time.Millisecond), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()

	// Keep traffic perpetually in flight so no verdict can be reached before
	// the cancellation fires.
	n.Peer(n.Super()).StartUpdateWave()
	c, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer cancel()
	start := time.Now()
	err = n.Quiesce(c)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Quiesce = %v, want context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("cancelled Quiesce returned after %v", elapsed)
	}
	// Let the wave finish cleanly before Close tears the transport down.
	c2, cancel2 := context.WithTimeout(context.Background(), time.Minute)
	defer cancel2()
	if err := n.Update(c2); err != nil {
		t.Fatal(err)
	}
}

// TestPollingQuiesceStalledHandler is the case a silence window cannot get
// right at any length: every message has been delivered, and one handler is
// still working on its own. B's insert listener stalls once for longer than
// the 200 ms window that used to pass for quiescence — a slow disk, a watcher
// — while it applies C's answer, so the tuple has not yet been pushed on to A.
// Counted at delivery, sent = received throughout the stall; counted when
// handling is finished, the balance is out until B has forwarded it.
func TestPollingQuiesceStalledHandler(t *testing.T) {
	def := mustParse(t, chainNet)
	n, err := BuildWith(def, transport.NewTCPMesh("127.0.0.1:0"), Options{Delta: true})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	c, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := n.RunToFixpoint(c); err != nil {
		t.Fatal(err)
	}

	const stall = 400 * time.Millisecond
	var once sync.Once
	var handlerDone time.Time // written inside once, read after Quiesce returned
	n.Peer("B").DB().AddInsertListener(func(string, []relalg.Tuple, uint64) {
		once.Do(func() {
			time.Sleep(stall)
			handlerDone = time.Now()
		})
	})
	if _, err := n.Node("C").Insert(c, "c", relalg.Tuple{relalg.S("9"), relalg.S("10")}); err != nil {
		t.Fatal(err)
	}
	if err := n.Quiesce(c); err != nil {
		t.Fatal(err)
	}
	returned := time.Now()
	if err := n.ValidateAgainstCentralized(); err != nil {
		t.Fatalf("quiesce returned while B was still handling C's answer: %v", err)
	}
	once.Do(func() { t.Error("B's listener never ran") })
	// No window after the balance: the verdict follows the handler by a poll
	// or two (5–21 ms here), not by a fifth of a second; the bound leaves room
	// for a loaded box without admitting the old window.
	lag := returned.Sub(handlerDone)
	t.Logf("quiesce returned %v after the stalled handler", lag)
	if lag > 150*time.Millisecond {
		t.Errorf("quiesce returned %v after the stalled handler finished", lag)
	}
}

// TestReadBalance pins the sampling order that makes one sample decide. A
// token travels a three-peer ring by scripted steps (send: started+1 at the
// holder; finish: finished+1 at the receiver, after anything the receiver
// sends on), and the reader's 2n reads are interleaved with the script at
// every possible pair of instants. Whenever the token is outstanding at the
// instant between the two passes, the sample must not balance; when a sample
// does balance, the script must have nothing left that happens without an
// outside input.
func TestReadBalance(t *testing.T) {
	const peers = 3
	type step struct {
		peer     int
		started  bool // else finished
		external bool // an outside input (an Insert), not an effect of a message
	}
	// Two waves: peer 0 sends to 1 (outside input); 1 forwards to 2 before it
	// finishes; 2 finishes; 1 finishes. Then the same from peer 2 round to 1.
	script := []step{
		{0, true, true}, {1, true, false}, {2, false, false}, {1, false, false},
		{2, true, true}, {0, true, false}, {1, false, false}, {0, false, false},
	}
	inFlight := func(upto int) (n int) {
		for _, s := range script[:upto] {
			if s.started {
				n++
			} else {
				n--
			}
		}
		return n
	}
	// The reader performs 2*peers reads; cut[i] is how many script steps have
	// run before read i. Cuts are non-decreasing; enumerating the instant of
	// every read independently covers every interleaving.
	var cut [2 * peers]int
	var enumerate func(read int)
	samples, balanced := 0, 0
	enumerate = func(read int) {
		if read == len(cut) {
			reads := 0
			b := readBalance(peers, func(i int) (s, f uint64) {
				for _, st := range script[:cut[reads]] {
					if st.peer == i && st.started {
						s++
					} else if st.peer == i {
						f++
					}
				}
				reads++
				return s, f
			})
			started, finished := b.Started, b.Finished
			samples++
			// Any instant between the passes: after the last finished read,
			// before the first started read.
			for at := cut[peers-1]; at <= cut[peers]; at++ {
				if inFlight(at) > 0 && started == finished {
					t.Fatalf("cuts %v: %d in flight after step %d, sample reads %d = %d", cut, inFlight(at), at, started, finished)
				}
			}
			if started == finished {
				balanced++
				for _, st := range script[cut[peers-1]:] {
					if st.external {
						break
					}
					t.Fatalf("cuts %v: balanced at %d, yet step %+v follows with no outside input", cut, started, st)
				}
			}
			return
		}
		lo := 0
		if read > 0 {
			lo = cut[read-1]
		}
		for at := lo; at <= len(script); at++ {
			cut[read] = at
			enumerate(read + 1)
		}
	}
	enumerate(0)
	if balanced == 0 || balanced == samples {
		t.Fatalf("%d of %d samples balanced: the script exercises one side only", balanced, samples)
	}
}

// TestOrchestrationSendsAreCounted: CollectStats and Broadcast speak in the
// super-peer's name, and a balance only sees what the counters saw. Sent past
// them, a request would be in flight with sent = received (the collection
// returns before a report is in), and its receipt an excess that no later
// sample balances (every later Quiesce waits out the standstill window).
func TestOrchestrationSendsAreCounted(t *testing.T) {
	def := mustParse(t, chainNet)
	n, err := BuildWith(def, transport.NewTCPMesh("127.0.0.1:0"), Options{Delta: true})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	c, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := n.RunToFixpoint(c); err != nil {
		t.Fatal(err)
	}
	reports, err := n.CollectStats(c)
	if err != nil || len(reports) != 3 {
		t.Fatalf("CollectStats = %d reports (err %v), want one per node", len(reports), err)
	}
	if err := n.Broadcast(def.Format()); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := n.Quiesce(c); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took > 500*time.Millisecond {
		t.Errorf("Quiesce after the orchestration verbs took %v: their messages left the counters out of balance", took)
	}
}

// TestAwaitBalanceTrustsOnlyCoveringCounters: a balance ends the wait at once
// only when the counters cover the network and have never read a surplus —
// finished ahead of started is a message somebody forgot having sent (a
// restart, a member gone), and with one forgotten, a wave with one in flight
// reads balanced. Everything else must stand still for the stall window.
func TestAwaitBalanceTrustsOnlyCoveringCounters(t *testing.T) {
	for _, tc := range []struct {
		name    string
		script  []Balance // the last one repeats
		samples int       // how many the wait must take
	}{
		{"exact balance decides", []Balance{{3, 2, true}, {3, 3, true}}, 2},
		{"a balance over a missing peer proves nothing", []Balance{{3, 3, false}}, 5},
		{"a deficit stands still", []Balance{{4, 3, true}}, 5},
		{"no balance is trusted after a surplus", []Balance{{2, 3, true}, {3, 3, true}}, 6},
	} {
		t.Run(tc.name, func(t *testing.T) {
			taken := 0
			err := AwaitBalance(context.Background(), time.Microsecond, nil, 4, func(context.Context) (Balance, bool, error) {
				b := tc.script[min(taken, len(tc.script)-1)]
				taken++
				return b, true, nil
			})
			if err != nil || taken != tc.samples {
				t.Fatalf("took %d samples (err %v), want %d", taken, err, tc.samples)
			}
		})
	}
}

// TestAwaitBalanceWakesOnTheLastFinish: with an hour between polls, the wait
// still ends as soon as the last message in flight finishes — through the
// tally's wake, since the timer cannot have fired.
func TestAwaitBalanceWakesOnTheLastFinish(t *testing.T) {
	tally := stats.NewTally()
	a, b := stats.NewCounters("A"), stats.NewCounters("B")
	a.Join(tally)
	b.Join(tally)
	a.Sent("answer", 1)
	sampled := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		<-sampled // the wait has seen the message in flight
		time.Sleep(20 * time.Millisecond)
		b.Received("answer", 1)
	}()
	counters := []*stats.Counters{a, b}
	samples := 0
	c, cancel := context.WithTimeout(context.Background(), 5*time.Second) // fail, not hang, without a wake
	defer cancel()
	start := time.Now()
	err := AwaitBalance(c, time.Hour, tally.Zero(), 50, func(context.Context) (Balance, bool, error) {
		if samples++; samples == 1 {
			close(sampled)
		}
		bal := readBalance(len(counters), func(i int) (uint64, uint64) { return counters[i].Totals() })
		bal.Exact = true
		return bal, true, nil
	})
	<-done
	if took := time.Since(start); err != nil || took > time.Second || samples != 2 {
		t.Fatalf("AwaitBalance = %v after %v and %d samples, want nil within 1s after 2", err, took, samples)
	}
}

// TestAwaitBalanceWakeIsNoVerdict: on a partially hosted network the hosted
// counters' tally crosses zero while the samples, which miss a peer, prove
// nothing. Wakes may bring samples sooner, but the wait still needs stall
// identical samples after the last move, and all but the first of them a full
// period apart.
func TestAwaitBalanceWakeIsNoVerdict(t *testing.T) {
	tally := stats.NewTally()
	c := stats.NewCounters("A")
	c.Join(tally)
	const moving, stall, every = 20, 5, 10 * time.Millisecond
	samples := 0
	var lastMove time.Time
	err := AwaitBalance(context.Background(), every, tally.Zero(), stall, func(context.Context) (Balance, bool, error) {
		if samples++; samples <= moving { // a zero crossing per sample: a wake is always waiting
			c.Sent("answer", 1)
			c.Received("answer", 1)
			lastMove = time.Now()
		}
		started, finished := c.Totals()
		return Balance{Started: started, Finished: finished}, true, nil
	})
	if err != nil || samples != moving+stall {
		t.Fatalf("AwaitBalance = %v after %d samples, want %d", err, samples, moving+stall)
	}
	if still := time.Since(lastMove); still < (stall-1)*every {
		t.Errorf("standstill took %v after the last move, want at least %v", still, (stall-1)*every)
	}
}

// TestMemOracleAgreesWithTheBalance audits the settle rule on Mem, which
// settles by the counter balance like every deployment while its router still
// sees every mailbox. Wherever the balance ends a wait, the router must agree:
// readBalance over every peer exact and balanced, the tally at zero, and
// nothing left in a mailbox — the router drains at once, its in-flight count
// is zero, and the balance reads the same afterwards, so nothing was
// delivered or sent after the verdict.
func TestMemOracleAgreesWithTheBalance(t *testing.T) {
	topos := []workload.Topology{workload.Tree(2, 2), workload.Tree(3, 2), workload.Ring(3), workload.Ring(5), workload.Clique(3)}
	if !testing.Short() {
		topos = append(topos, workload.Clique(4))
	}
	for _, topo := range topos {
		for _, opts := range []Options{
			{}, {Delta: true}, {Delta: true, BatchWindow: time.Millisecond},
			{Delta: true, Seed: 3, MaxDelay: 200 * time.Microsecond},
			{Delta: true, BatchWindow: time.Millisecond, DataDir: t.TempDir()}, // acks leave from the ack worker
		} {
			def, err := workload.Generate(topo, workload.DataSpec{RecordsPerNode: 8, Seed: 5, Style: workload.StyleCopy})
			if err != nil {
				t.Fatal(err)
			}
			n, err := Build(def, opts)
			if err != nil {
				t.Fatal(err)
			}
			mem := n.capTransport().(*transport.Mem)
			check := func(after string) {
				t.Helper()
				peers, _, order := n.hosted()
				balance := func() Balance {
					return readBalance(len(order), func(i int) (uint64, uint64) { return peers[order[i]].Counters().Totals() })
				}
				b := balance()
				if len(order) != len(def.Nodes) || b.Started != b.Finished || n.inflight.Load() != 0 {
					t.Errorf("%s %+v, after %s: %d of %d peers read started %d finished %d, tally %d",
						topo, opts, after, len(order), len(def.Nodes), b.Started, b.Finished, n.inflight.Load())
				}
				// A handler may still be returning after it counted its message.
				drained, cancel := context.WithTimeout(context.Background(), time.Second)
				defer cancel()
				if err := mem.WaitQuiescent(drained); err != nil || mem.Inflight() != 0 {
					t.Errorf("%s %+v, after %s: the balance settled with the router holding %d message(s) (%v)",
						topo, opts, after, mem.Inflight(), err)
				}
				if again := balance(); again != b {
					t.Errorf("%s %+v, after %s: balance %+v at the verdict, %+v once the router drained", topo, opts, after, b, again)
				}
			}
			if err := n.Discover(ctx(t)); err != nil {
				t.Fatal(err)
			}
			check("Discover")
			for i := 0; i < 2; i++ {
				if err := n.Update(ctx(t)); err != nil {
					t.Fatal(err)
				}
				check(fmt.Sprintf("Update %d", i+1))
			}
			if err := n.ValidateAgainstCentralized(); err != nil {
				t.Fatal(err)
			}
			_ = n.Close()
		}
	}
}

// TestPollingQuiescePartiallyHosted: with a node hosted elsewhere the hosted
// counters miss one side of every message that crosses, so equal sums are a
// coincidence — here A's request to the absent B is refused and taken back,
// every total reads zero — and the wait must be the standstill window's.
func TestPollingQuiescePartiallyHosted(t *testing.T) {
	def := mustParse(t, "node A { rel a(X,Y) }\nnode B { rel b(X,Y) }\nrule r1: B:b(X,Y) -> A:a(X,Y)\n")
	n, err := BuildWith(def, transport.NewTCPMesh("127.0.0.1:0"), Options{Delta: true, Hosted: []string{"A"}})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	start := time.Now()
	if err := n.Quiesce(context.Background()); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took < 900*time.Millisecond {
		t.Errorf("Quiesce over 1 of 2 nodes returned after %v: it trusted a balance of counters that miss a peer", took)
	}
}

// TestQuiesceWaitsForAHeldMessage: a message the Batcher holds was counted
// sent when its sender handed it over and is finished by nobody until its
// frame is delivered and handled, so the balance keeps Quiesce waiting until
// the window ships it. A heartbeat is the message held for certain: it never
// ships before the window, busy link or not. The window is shorter than the
// standstill, which would otherwise end the wait first.
func TestQuiesceWaitsForAHeldMessage(t *testing.T) {
	const window = 300 * time.Millisecond
	n := build(t, chainNet, Options{Delta: true, BatchWindow: window})
	b := n.Peer("B")
	_, before := b.Counters().Totals()
	sent := time.Now()
	if err := n.Peer("A").Send("B", wire.Heartbeat{Node: "A"}); err != nil {
		t.Fatal(err)
	}
	if err := n.Quiesce(ctx(t)); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(sent); took < window {
		t.Errorf("Quiesce returned %v after the send, while the Batcher held the message for %v", took, window)
	}
	if _, after := b.Counters().Totals(); after != before+1 {
		t.Errorf("Quiesce returned with B's finished total at %d, want %d: the held message was not handled", after, before+1)
	}
}

// TestPartitionIsARefusedSend: a send across a Mem partition is refused, so
// the sender takes it back (SendFailed) and the balance stays exact — a
// Quiesce across the partition returns at once instead of standing still for
// the second a lost message costs. Dropped still counts it.
func TestPartitionIsARefusedSend(t *testing.T) {
	n := build(t, chainNet, Options{Delta: true})
	runAndValidate(t, n)
	held := n.Peer("B").DB().Count("b")
	n.faults().Partition("B", "C")
	if _, err := n.Node("C").Insert(ctx(t), "c", relalg.Tuple{relalg.S("9"), relalg.S("10")}); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := n.Quiesce(ctx(t)); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took > 500*time.Millisecond {
		t.Errorf("Quiesce across a partition took %v: the refused send read as in flight", took)
	}
	if errs := n.Peer("C").Counters().Snapshot().SendErrors; errs == 0 {
		t.Error("C's answer across the partition was not counted as a send error")
	}
	if n.faults().Dropped() == 0 {
		t.Error("the partition dropped nothing")
	}
	if got := n.Peer("B").DB().Count("b"); got != held {
		t.Errorf("B holds %d b-tuples behind the partition, want %d", got, held)
	}
}

// TestClosedNetworkStopsWaiting: Close or Crash ends a running wait with
// transport.ErrClosed at the next sample, and refuses every later one, on every
// transport. Over TCP a crash loses the messages in flight, so without this
// the interrupted driver stood still for about a second per settle. A stalled
// handler at A keeps the wave open until the crash.
func TestClosedNetworkStopsWaiting(t *testing.T) {
	for _, tc := range []struct {
		name string
		tr   func() transport.Transport
	}{
		{"mem", func() transport.Transport { return transport.NewMem(transport.MemOptions{}) }},
		{"tcp-mesh", func() transport.Transport { return transport.NewTCPMesh("127.0.0.1:0") }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n, err := BuildWith(mustParse(t, durableChainDef(20)), tc.tr(), Options{Delta: true})
			if err != nil {
				t.Fatal(err)
			}
			stalled := make(chan struct{})
			var once sync.Once
			n.Peer("A").DB().AddInsertListener(func(string, []relalg.Tuple, uint64) {
				once.Do(func() {
					close(stalled)
					time.Sleep(100 * time.Millisecond)
				})
			})
			done := make(chan error, 1)
			go func() { done <- n.RunToFixpoint(context.Background()) }()
			<-stalled
			_ = n.Crash()
			crashed := time.Now()
			select {
			case err := <-done:
				if took := time.Since(crashed); took > 200*time.Millisecond {
					t.Errorf("the interrupted run returned %v after the crash (err %v)", took, err)
				}
				if !errors.Is(err, transport.ErrClosed) {
					t.Errorf("the interrupted run returned %v, want transport.ErrClosed", err)
				}
			case <-time.After(30 * time.Second):
				t.Fatal("the interrupted run never returned")
			}
			if err := n.Quiesce(context.Background()); !errors.Is(err, transport.ErrClosed) {
				t.Errorf("Quiesce after the crash = %v, want transport.ErrClosed", err)
			}
		})
	}
}
