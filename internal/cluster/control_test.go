package cluster

import (
	"context"
	"maps"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/peer"
	"repro/internal/relalg"
	"repro/internal/wire"
)

// A five-node chain: facts enter at E and flow up to the sink A, so every
// member's database participates in the global fix-point and a dead member
// anywhere in the chain blocks closure until it returns.
const chainNet5 = `
node A { rel a(x,y) }
node B { rel b(x,y) }
node C { rel c(x,y) }
node D { rel d(x,y) }
node E { rel e(x,y) }
rule re: E:e(X,Y) -> D:d(X,Y)
rule rd: D:d(X,Y) -> C:c(X,Y)
rule rc: C:c(X,Y) -> B:b(X,Y)
rule rb: B:b(X,Y) -> A:a(Y,X)
fact E:e('1','2')
fact E:e('3','4')
super A
`

func fastCPOpts(logPath string) ControlPlaneOptions {
	o := *LoopbackConfig(nil, "", nil, "", 0, 0).Control
	o.Consensus.LogPath = logPath
	return o
}

// setLinkDown cuts (or restores) this process's outgoing frames to one
// member. A symmetric partition needs the mirror call on the other side.
// Heartbeats stop crossing a cut link, so suspicion and the agreed member
// view react exactly as they would to a dropped network segment.
func (c *Transport) setLinkDown(to string, down bool) {
	c.sh.Lock() // serialises the cuts; the frame paths only load the map
	defer c.sh.Unlock()
	next := map[string]bool{}
	if cur := c.linkDown.Load(); cur != nil {
		maps.Copy(next, *cur)
	}
	if down {
		next[to] = true
	} else {
		delete(next, to)
	}
	if len(next) == 0 {
		c.linkDown.Store(nil)
		return
	}
	c.linkDown.Store(&next)
}

// startCPMember boots one "process" with the replicated control plane on it.
func startCPMember(t *testing.T, defText, node string, book map[string]string, dataDir string) (*core.Network, *Transport, *ControlPlane) {
	t.Helper()
	m := bootMember(t, LoopbackConfig(mustDef(t, defText), node, book, dataDir, 0, 0))
	return m.Network(), m.Transport(), m.Control()
}

// TestControlPlaneFailoverKillDriverMidUpdate is the acceptance scenario: a
// five-member cluster, the member that accepted the update kick (and so
// elected itself driver) is killed mid-update, and the agreed control plane
// must elect a successor that re-drives the wave to closure — converging on
// the oracle fix-point with a non-divergent agreed member table, without any
// new ctl request.
func TestControlPlaneFailoverKillDriverMidUpdate(t *testing.T) {
	if testing.Short() {
		t.Skip("control-plane fail-over skipped in -short mode")
	}
	ctx := testCtx(t)

	// The in-memory reference fix-point, kept in lockstep with the cluster.
	memNet, err := core.Build(mustDef(t, chainNet5), core.Options{Delta: true})
	if err != nil {
		t.Fatal(err)
	}
	defer memNet.Close()
	if err := memNet.RunToFixpoint(ctx); err != nil {
		t.Fatal(err)
	}

	dataRoot := t.TempDir()
	book := map[string]string{}
	nets := map[string]*core.Network{}
	trs := map[string]*Transport{}
	cps := map[string]*ControlPlane{}
	boot := func(node string) {
		seed := map[string]string{}
		for k, v := range book {
			seed[k] = v
		}
		n, tr, cp := startCPMember(t, chainNet5, node, seed, filepath.Join(dataRoot, node))
		nets[node], trs[node], cps[node] = n, tr, cp
		book[node] = tr.Addr()
	}
	for _, node := range []string{"A", "B", "C", "D", "E"} {
		boot(node)
	}
	defer func() {
		for _, cp := range cps {
			cp.Close()
		}
		for _, n := range nets {
			_ = n.Close()
		}
	}()

	coord, err := NewCoordinator(mustDef(t, chainNet5), "127.0.0.1:0", book, fastCoordOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	if err := coord.WaitMembers(ctx, 5); err != nil {
		t.Fatal(err)
	}
	if err := coord.Discover(ctx); err != nil {
		t.Fatal(err)
	}
	if err := coord.Update(ctx); err != nil {
		t.Fatal(err)
	}
	for node, n := range nets {
		if got, want := n.Peer(node).DB().Dump(), memNet.Peer(node).DB().Dump(); got != want {
			t.Fatalf("baseline: node %s diverges:\n got: %s\nwant: %s", node, got, want)
		}
	}

	// New facts at the source, mirrored into the reference.
	for _, tup := range []relalg.Tuple{{relalg.S("5"), relalg.S("6")}, {relalg.S("7"), relalg.S("8")}} {
		if _, err := nets["E"].Peer("E").InsertLocal("e", tup); err != nil {
			t.Fatal(err)
		}
		if _, err := memNet.Peer("E").InsertLocal("e", tup); err != nil {
			t.Fatal(err)
		}
	}
	if err := memNet.Update(ctx); err != nil {
		t.Fatal(err)
	}

	// Kick the update at E — E accepts, logs the entry, elects itself driver
	// and starts the wave. Then kill it before closure.
	if err := coord.Transport().Send(CoordinatorName, "E", wire.UpdateRequest{}); err != nil {
		t.Fatal(err)
	}
	// Wait for E's entry specifically: the coordinator's earlier update may
	// still be folding its updateDone at B, so a bare PendingInst > 0 can
	// briefly reflect the OLD pending update (with its own driver).
	waitFor(t, 10*time.Second, func() bool {
		m := cps["B"].Metrics()
		return m.PendingInst > 0 && m.Driver == "E"
	}, "the update entry from E never reached B's applied log")
	if err := nets["E"].Crash(); err != nil {
		t.Fatal(err)
	}
	cps["E"].Close()
	delete(nets, "E")
	delete(cps, "E")

	// Suspicion → agreed member entry → fail-over: A (first eligible in
	// sorted order) takes the driver role and re-kicks.
	waitFor(t, 15*time.Second, func() bool {
		m := cps["A"].Metrics()
		return m.Failovers >= 1 && m.Driver == "A"
	}, "no driver fail-over after the kill")

	// Restart E from its WAL and control log; the driver's unbounded probes
	// then pull the chain to closure and commit updateDone.
	boot("E")
	waitFor(t, 30*time.Second, func() bool {
		for _, cp := range cps {
			if cp.Metrics().PendingInst != 0 {
				return false
			}
		}
		return true
	}, "the re-driven update never committed updateDone")

	waitFor(t, 30*time.Second, func() bool {
		for node, n := range nets {
			if n.Peer(node).DB().Dump() != memNet.Peer(node).DB().Dump() {
				return false
			}
		}
		return true
	}, "cluster never converged on the oracle fix-point after fail-over")

	// The agreed member table must be identical everywhere (same fold of the
	// same log) and settle on all-alive once E is back.
	waitFor(t, 15*time.Second, func() bool {
		refView, refVer := cps["A"].AgreedView()
		for _, m := range []string{"A", "B", "C", "D", "E"} {
			if cps[m].Metrics().ViewVersion != refVer {
				return false
			}
			view, ver := cps[m].AgreedView()
			if ver != refVer {
				return false
			}
			for node, st := range refView {
				if view[node] != st {
					return false
				}
			}
		}
		for _, st := range refView {
			if st != StatusAlive {
				return false
			}
		}
		return true
	}, "agreed member views never converged to an identical all-alive table")
}

// TestControlPlaneMinorityPartition pins the quorum rule end to end: a
// minority cut off from the cluster can neither advance the log nor mutate
// the agreed member table, while the majority keeps deciding; on heal the
// minority catches up to the identical view.
func TestControlPlaneMinorityPartition(t *testing.T) {
	if testing.Short() {
		t.Skip("partition test skipped in -short mode")
	}
	book := map[string]string{}
	trs := map[string]*Transport{}
	cps := map[string]*ControlPlane{}
	var nets []*core.Network
	members := []string{"A", "B", "C", "D", "E"}
	for _, node := range members {
		seed := map[string]string{}
		for k, v := range book {
			seed[k] = v
		}
		n, tr, cp := startCPMember(t, chainNet5, node, seed, "")
		nets = append(nets, n)
		trs[node], cps[node] = tr, cp
		book[node] = tr.Addr()
	}
	defer func() {
		for _, cp := range cps {
			cp.Close()
		}
		for _, n := range nets {
			_ = n.Close()
		}
	}()
	waitFor(t, 10*time.Second, func() bool {
		for _, tr := range trs {
			alive := 0
			for _, m := range tr.Members() {
				if m.Status == StatusAlive {
					alive++
				}
			}
			if alive < 4 {
				return false
			}
		}
		return true
	}, "membership never converged")

	// Warm-up decision proves the log works whole.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	warm, err := cps["A"].cons.Submit(ctx, wire.Command{Kind: "noop"})
	cancel()
	if err != nil {
		t.Fatal(err)
	}

	// Cut {D,E} off from {A,B,C}, both directions.
	cut := func(down bool) {
		for _, x := range []string{"A", "B", "C"} {
			for _, y := range []string{"D", "E"} {
				trs[x].setLinkDown(y, down)
				trs[y].setLinkDown(x, down)
			}
		}
	}
	cut(true)

	// The minority proposer must block until its context gives up.
	ctx, cancel = context.WithTimeout(context.Background(), 500*time.Millisecond)
	_, err = cps["D"].cons.Submit(ctx, wire.Command{Kind: "noop"})
	cancel()
	if err == nil {
		t.Fatal("minority member decided a log entry without a quorum")
	}
	minorityApplied := cps["D"].Metrics().Applied

	// The majority keeps deciding, and its agreed view records the cut.
	ctx, cancel = context.WithTimeout(context.Background(), 10*time.Second)
	majority, err := cps["A"].cons.Submit(ctx, wire.Command{Kind: "noop"})
	cancel()
	if err != nil {
		t.Fatalf("majority member could not decide during the partition: %v", err)
	}
	if majority <= warm {
		t.Fatalf("instances not monotone: warm=%d majority=%d", warm, majority)
	}
	waitFor(t, 10*time.Second, func() bool {
		view, _ := cps["A"].AgreedView()
		return view["D"] == StatusSuspect && view["E"] == StatusSuspect
	}, "the majority's agreed view never recorded the isolated minority")

	if got := cps["D"].Metrics().Applied; got != minorityApplied {
		t.Fatalf("minority advanced its applied frontier during the partition: %d -> %d", minorityApplied, got)
	}

	// Heal: the minority catches up to the identical agreed state and the
	// table returns to all-alive.
	cut(false)
	waitFor(t, 15*time.Second, func() bool {
		if cps["D"].Metrics().Applied < majority || cps["E"].Metrics().Applied < majority {
			return false
		}
		refView, refVer := cps["A"].AgreedView()
		for _, st := range refView {
			if st != StatusAlive {
				return false
			}
		}
		for _, m := range members {
			view, ver := cps[m].AgreedView()
			if ver != refVer {
				return false
			}
			for node, st := range refView {
				if view[node] != st {
					return false
				}
			}
		}
		return true
	}, "cluster never re-converged after the heal")
}

// A three-node chain for the coordinator-routing tests below.
const chainNet3 = `
node A { rel a(x,y) }
node B { rel b(x,y) }
node C { rel c(x,y) }
rule rc: C:c(X,Y) -> B:b(X,Y)
rule rb: B:b(X,Y) -> A:a(X,Y)
fact C:c('1','2')
super A
`

// TestUpdateErrorsWhenKickCannotLand pins Update's kick verification: with
// every member unreachable from the coordinator, no epoch can advance, and
// Update must report that instead of polling the settled network at the old
// epoch and returning nil with no update run.
func TestUpdateErrorsWhenKickCannotLand(t *testing.T) {
	if testing.Short() {
		t.Skip("kick verification test skipped in -short mode")
	}
	book := map[string]string{}
	nets := map[string]*core.Network{}
	for _, node := range []string{"B", "C"} {
		seed := map[string]string{}
		for k, v := range book {
			seed[k] = v
		}
		n, tr := startMember(t, chainNet3, node, seed, "")
		nets[node] = n
		book[node] = tr.Addr()
	}
	defer func() {
		for _, n := range nets {
			_ = n.Close()
		}
	}()
	opts := fastCoordOpts()
	opts.roundTimeout = 300 * time.Millisecond
	coord, err := NewCoordinator(mustDef(t, chainNet3), "127.0.0.1:0", book, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	ctx := testCtx(t)
	if err := coord.WaitMembers(ctx, 2); err != nil {
		t.Fatal(err)
	}
	coord.Transport().setLinkDown("B", true)
	coord.Transport().setLinkDown("C", true)
	if err := coord.Update(ctx); err == nil {
		t.Fatal("Update returned nil though its kick could not have landed")
	}
}

// TestUpdateRetargetsUnreachableSuper: the preferred kick target (the super)
// is cut off from the coordinator, and Update must still land its kick on
// another member and run a real wave — verified by the epoch advancing.
func TestUpdateRetargetsUnreachableSuper(t *testing.T) {
	if testing.Short() {
		t.Skip("kick retarget test skipped in -short mode")
	}
	book := map[string]string{}
	nets := map[string]*core.Network{}
	for _, node := range []string{"A", "B", "C"} {
		seed := map[string]string{}
		for k, v := range book {
			seed[k] = v
		}
		n, tr := startMember(t, chainNet3, node, seed, "")
		nets[node] = n
		book[node] = tr.Addr()
	}
	defer func() {
		for _, n := range nets {
			_ = n.Close()
		}
	}()
	opts := fastCoordOpts()
	opts.roundTimeout = 300 * time.Millisecond
	coord, err := NewCoordinator(mustDef(t, chainNet3), "127.0.0.1:0", book, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	ctx := testCtx(t)
	if err := coord.WaitMembers(ctx, 3); err != nil {
		t.Fatal(err)
	}
	if err := coord.Discover(ctx); err != nil {
		t.Fatal(err)
	}
	// Cut the coordinator off from the super only; member-to-member links
	// stay up, so the wave still crosses the whole chain.
	coord.Transport().setLinkDown("A", true)
	if err := coord.Update(ctx); err != nil {
		t.Fatalf("update with an unreachable super: %v", err)
	}
	if got := nets["B"].Peer("B").Epoch(); got == 0 {
		t.Fatal("Update returned nil but no wave ran (epoch still 0)")
	}
}

// fakeHosted is a HostedPeer stub whose update waves close instantly; it
// counts the kicks it receives.
type fakeHosted struct {
	waves atomic.Uint64
}

func (h *fakeHosted) StartDiscovery() string    { return "" }
func (h *fakeHosted) StartUpdateWave() uint64   { return h.waves.Add(1) }
func (h *fakeHosted) Probe()                    {}
func (h *fakeHosted) AddRuleLocal(string) error { return nil }
func (h *fakeHosted) DeleteRuleLocal(string)    {}
func (h *fakeHosted) Epoch() uint64             { return h.waves.Load() }
func (h *fakeHosted) Activated() bool           { return true }
func (h *fakeHosted) State() peer.UpdateState   { return peer.Closed }

// openHosted never closes its wave, so a driven update stays pending.
type openHosted struct{ fakeHosted }

func (h *openHosted) State() peer.UpdateState { return peer.Open }

// gatedHosted stays open until told to close.
type gatedHosted struct {
	fakeHosted
	closed atomic.Bool
}

func (h *gatedHosted) State() peer.UpdateState {
	if h.closed.Load() {
		return peer.Closed
	}
	return peer.Open
}

// TestSupersededDriverDoesNotCommit: a second agreed update supersedes the
// drive of the first. When the waves then close, only the current driver may
// commit updateDone — a stale one naming the older instance would be a
// proposal too many.
func TestSupersededDriverDoesNotCommit(t *testing.T) {
	h := &gatedHosted{}
	tr, cp := bootSoloCP(t, filepath.Join(t.TempDir(), "A.control.log"), h)
	defer func() {
		cp.Close()
		_ = tr.Close()
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for want := uint64(1); want <= 2; want++ {
		if _, err := cp.cons.Submit(ctx, wire.Command{Kind: "update", Node: "A"}); err != nil {
			t.Fatal(err)
		}
		waitFor(t, 10*time.Second, func() bool { return h.waves.Load() >= want }, "an agreed update was never kicked")
	}
	h.closed.Store(true)
	waitFor(t, 10*time.Second, func() bool { return cp.Metrics().PendingInst == 0 }, "the current driver never committed updateDone")
	time.Sleep(250 * time.Millisecond) // several poll periods for a stale driver to show itself
	if got := cp.Metrics().Proposals; got != 3 {
		t.Fatalf("%d proposals, want 3 (two updates, one updateDone)", got)
	}
}

// blockingHosted parks StartDiscovery until released.
type blockingHosted struct {
	fakeHosted
	entered, release chan struct{}
}

func (h *blockingHosted) StartDiscovery() string {
	close(h.entered)
	<-h.release
	return ""
}

// TestCloseWaitsForThePlanesCallbacks: a callback the plane runs — here an
// agreed discovery kick into a peer that blocks — finishes before Close
// returns, so nothing the plane started still runs after it.
func TestCloseWaitsForThePlanesCallbacks(t *testing.T) {
	h := &blockingHosted{entered: make(chan struct{}), release: make(chan struct{})}
	tr, cp := bootSoloCP(t, filepath.Join(t.TempDir(), "A.control.log"), h)
	defer func() { _ = tr.Close() }()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := cp.cons.Submit(ctx, wire.Command{Kind: "discover", Node: "A"}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-h.entered:
	case <-ctx.Done():
		t.Fatal("the agreed discovery never reached the peer")
	}
	closed := make(chan struct{})
	go func() {
		cp.Close()
		close(closed)
	}()
	select {
	case <-closed:
		t.Fatal("Close returned while StartDiscovery was still running")
	case <-time.After(200 * time.Millisecond):
	}
	close(h.release)
	select {
	case <-closed:
	case <-ctx.Done():
		t.Fatal("Close never returned after StartDiscovery did")
	}
}

// bootSoloCP boots a single-member control plane around a stub peer (quorum
// one: every submit decides locally, replay is the whole story on restart).
func bootSoloCP(t *testing.T, logPath string, h HostedPeer) (*Transport, *ControlPlane) {
	t.Helper()
	tr, err := New("A", "127.0.0.1:0", nil, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	cp, err := NewControlPlane(tr, h, []string{"A"}, fastCPOpts(logPath))
	if err != nil {
		_ = tr.Close()
		t.Fatal(err)
	}
	return tr, cp
}

// TestControlLogReplayDoesNotRekickUpdate pins restart idempotence: a control
// log holding update…updateDone replays as a pure fold — the completed update
// must not be re-driven into a fresh cluster-wide wave.
func TestControlLogReplayDoesNotRekickUpdate(t *testing.T) {
	logPath := filepath.Join(t.TempDir(), "A.control.log")
	h1 := &fakeHosted{}
	tr1, cp1 := bootSoloCP(t, logPath, h1)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	if _, err := cp1.cons.Submit(ctx, wire.Command{Kind: "update", Node: "A"}); err != nil {
		t.Fatal(err)
	}
	cancel()
	waitFor(t, 10*time.Second, func() bool {
		return h1.waves.Load() == 1 && cp1.Metrics().PendingInst == 0
	}, "the driven update never committed updateDone")
	cp1.Close()
	_ = tr1.Close()

	h2 := &fakeHosted{}
	tr2, cp2 := bootSoloCP(t, logPath, h2)
	defer func() {
		cp2.Close()
		_ = tr2.Close()
	}()
	if got := cp2.Metrics().PendingInst; got != 0 {
		t.Fatalf("replay left a completed update pending at instance %d", got)
	}
	// Give a would-be stale drive several poll periods to fire.
	time.Sleep(250 * time.Millisecond)
	if got := h2.waves.Load(); got != 0 {
		t.Fatalf("replay re-kicked %d update wave(s) for a completed update", got)
	}
}

// TestControlLogReplayRedrivesPendingUpdate is the counterpart: an update
// logged WITHOUT its updateDone really is still in flight, and the restarted
// member must elect itself and drive it to completion — exactly once.
func TestControlLogReplayRedrivesPendingUpdate(t *testing.T) {
	logPath := filepath.Join(t.TempDir(), "A.control.log")
	h1 := &openHosted{}
	tr1, cp1 := bootSoloCP(t, logPath, h1)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	if _, err := cp1.cons.Submit(ctx, wire.Command{Kind: "update", Node: "A"}); err != nil {
		t.Fatal(err)
	}
	cancel()
	waitFor(t, 10*time.Second, func() bool {
		return h1.waves.Load() == 1 && cp1.Metrics().PendingInst > 0
	}, "the update was never kicked")
	cp1.Close() // crash mid-update: the wave never closed
	_ = tr1.Close()

	h2 := &fakeHosted{}
	tr2, cp2 := bootSoloCP(t, logPath, h2)
	defer func() {
		cp2.Close()
		_ = tr2.Close()
	}()
	waitFor(t, 10*time.Second, func() bool {
		return h2.waves.Load() == 1 && cp2.Metrics().PendingInst == 0
	}, "the replayed pending update was not re-driven to completion")
}

// TestControlPlaneRoutedRuleChange pins the log-routed rule verbs: an
// AddRuleNotice from the coordinator becomes an agreed entry applied at the
// head node, at every member's control plane, in the same log position.
func TestControlPlaneRoutedRuleChange(t *testing.T) {
	if testing.Short() {
		t.Skip("control-plane rule routing skipped in -short mode")
	}
	book := map[string]string{}
	cps := map[string]*ControlPlane{}
	nets := map[string]*core.Network{}
	for _, node := range []string{"A", "B", "C", "D", "E"} {
		seed := map[string]string{}
		for k, v := range book {
			seed[k] = v
		}
		n, tr, cp := startCPMember(t, chainNet5, node, seed, "")
		nets[node], cps[node] = n, cp
		book[node] = tr.Addr()
	}
	defer func() {
		for _, cp := range cps {
			cp.Close()
		}
		for _, n := range nets {
			_ = n.Close()
		}
	}()
	coord, err := NewCoordinator(mustDef(t, chainNet5), "127.0.0.1:0", book, fastCoordOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	ctx := testCtx(t)
	if err := coord.WaitMembers(ctx, 5); err != nil {
		t.Fatal(err)
	}
	// New coordination rule with head A: travels as a log entry, applies at A.
	if err := coord.AddLink("rx: C:c(X,Y) -> A:a(X,Y)"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, func() bool {
		for _, r := range nets["A"].Peer("A").Rules() {
			if r == "rx" {
				return true
			}
		}
		return false
	}, "the routed addRule entry never applied at the head node")
	// Every member applied the same entry (same log): applied frontiers agree
	// on at least one instance carrying it.
	waitFor(t, 10*time.Second, func() bool {
		for _, cp := range cps {
			if cp.Metrics().Applied == 0 {
				return false
			}
		}
		return true
	}, "the rule entry never reached every member's applied log")
}

// TestAddLinkValidatesRule pins the ctl-addlink validation gap: a rule that
// parses but is ill-formed — reading its own head node, or contradicting a
// declared schema arity — must be rejected at the coordinator, before it
// ships as a notice or a log entry no head node can apply (the failure mode
// was a wedged update wave, diagnosable only from the head's log).
func TestAddLinkValidatesRule(t *testing.T) {
	coord, err := NewCoordinator(mustDef(t, chainNet3), "127.0.0.1:0", nil, fastCoordOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	// Body atom at the head node: Definition 2 demands distinct indices.
	if err := coord.AddLink("rz: A:a(X,Y) -> A:a(X,Y)"); err == nil ||
		!strings.Contains(err.Error(), "reads its own head node") {
		t.Fatalf("self-reading rule not rejected by validation: %v", err)
	}
	// Body arity contradicting the net-file schema (c is declared binary).
	if err := coord.AddLink("rw: C:c(X) -> A:a(X,X)"); err == nil ||
		!strings.Contains(err.Error(), "arity") {
		t.Fatalf("schema-violating rule not rejected by validation: %v", err)
	}
	// A well-formed rule passes validation: with no members alive the error,
	// if any, comes from routing — never from the rules checks.
	if err := coord.AddLink("ry: C:c(X,Y) -> B:b(Y,X)"); err != nil &&
		strings.Contains(err.Error(), "rules:") {
		t.Fatalf("well-formed rule rejected by validation: %v", err)
	}
}
