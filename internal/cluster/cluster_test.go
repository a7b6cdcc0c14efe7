package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/relalg"
	"repro/internal/rules"
	"repro/internal/stats"
	"repro/internal/wire"
)

// Fast membership tuning for tests: real sockets, the harness timers.
func fastOpts() Options { return LoopbackConfig(nil, "", nil, "", 0, 0).Cluster }

func fastCoordOpts() CoordinatorOptions {
	return CoordinatorOptions{Membership: fastOpts(), PollEvery: 25 * time.Millisecond}
}

func testCtx(t *testing.T) context.Context {
	t.Helper()
	c, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	t.Cleanup(cancel)
	return c
}

// bootMember boots one "process" from a member configuration; the test
// closes (or crashes) it itself.
func bootMember(t *testing.T, cfg MemberConfig) *Member {
	t.Helper()
	m, err := Boot(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// startMember boots one "process" without a control plane: a cluster
// transport plus a hosted-subset build of the definition, announced into the
// cluster.
func startMember(t *testing.T, defText, node string, book map[string]string, dataDir string) (*core.Network, *Transport) {
	t.Helper()
	cfg := LoopbackConfig(mustDef(t, defText), node, book, dataDir, 0, 0)
	cfg.Control = nil
	m := bootMember(t, cfg)
	return m.Network(), m.Transport()
}

// TestClusterMatchesMemFixpoint is the cross-transport oracle extended to
// cluster mode: the paper example run as one cluster member per node (each
// its own listener, join handshake, heartbeats, remote orchestration) must
// reach exactly the fix-point of the in-process Mem run.
func TestClusterMatchesMemFixpoint(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster oracle skipped in -short mode")
	}
	// The in-memory reference fix-point.
	memNet, err := core.Build(rules.PaperExampleSeeded(), core.Options{Delta: true})
	if err != nil {
		t.Fatal(err)
	}
	defer memNet.Close()
	if err := memNet.RunToFixpoint(testCtx(t)); err != nil {
		t.Fatal(err)
	}

	// One member per node. Each later member's book holds every earlier
	// address (the net-file situation); the first member starts blind and
	// must learn everyone from their join announcements.
	def := rules.PaperExampleSeeded()
	defText := def.Format()
	book := map[string]string{}
	nets := map[string]*core.Network{}
	var firstNode, firstAddr string
	for _, decl := range def.Nodes {
		seed := map[string]string{}
		for k, v := range book {
			seed[k] = v
		}
		n, tr := startMember(t, defText, decl.Name, seed, "")
		defer n.Close()
		nets[decl.Name] = n
		book[decl.Name] = tr.Addr()
		if firstNode == "" {
			firstNode, firstAddr = decl.Name, tr.Addr()
		}
	}

	// The coordinator knows a single member and must reach the rest through
	// gossip (transitive member learning).
	coord, err := NewCoordinator(def, "127.0.0.1:0", map[string]string{firstNode: firstAddr}, fastCoordOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	ctx := testCtx(t)
	if err := coord.WaitMembers(ctx, len(def.Nodes)); err != nil {
		t.Fatalf("membership never converged: %v (members %v)", err, coord.Transport().Members())
	}
	if err := coord.Discover(ctx); err != nil {
		t.Fatal(err)
	}
	if err := coord.Update(ctx); err != nil {
		t.Fatal(err)
	}

	for node, n := range nets {
		got := n.Peer(node).DB().Dump()
		want := memNet.Peer(node).DB().Dump()
		if got != want {
			t.Errorf("node %s diverges from the Mem fix-point:\n got: %s\nwant: %s", node, got, want)
		}
	}

	// Remote query against a peer == local query against the Mem run.
	rows, err := coord.Query(ctx, "A", "a(X,Y)", []string{"X", "Y"})
	if err != nil {
		t.Fatal(err)
	}
	wantRows, err := memNet.LocalQuery("A", "a(X,Y)", []string{"X", "Y"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(wantRows) {
		t.Errorf("remote query returned %d rows, Mem run %d", len(rows), len(wantRows))
	}

	// Stats collection reaches every member over the wire.
	snaps, err := coord.CollectStats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != len(def.Nodes) {
		t.Errorf("collected stats from %d nodes, want %d", len(snaps), len(def.Nodes))
	}
}

const chainNet = `
node A { rel a(x,y) }
node B { rel b(x,y) }
node C { rel c(x,y) }
rule rb: C:c(X,Y) -> B:b(X,Y)
rule ra: B:b(X,Y) -> A:a(Y,X)
fact C:c('1','2')
fact C:c('3','4')
super A
`

// TestClusterCleanRestartDeltaOnly is the durability acceptance path: a
// member that closes cleanly and rejoins under a fresh port recovers its
// database from its own WAL, re-announces, and the next update re-converges
// without re-shipping anything (marks on both sides survived).
func TestClusterCleanRestartDeltaOnly(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster restart skipped in -short mode")
	}
	dataRoot := t.TempDir()
	book := map[string]string{}
	nets := map[string]*core.Network{}
	trs := map[string]*Transport{}
	for _, node := range []string{"A", "B", "C"} {
		seed := map[string]string{}
		for k, v := range book {
			seed[k] = v
		}
		n, tr := startMember(t, chainNet, node, seed, filepath.Join(dataRoot, node))
		nets[node] = n
		trs[node] = tr
		book[node] = tr.Addr()
	}
	defer func() {
		for _, n := range nets {
			_ = n.Close()
		}
	}()

	coord, err := NewCoordinator(mustDef(t, chainNet), "127.0.0.1:0", book, fastCoordOpts())
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
	if err := coord.Update(ctx); err != nil {
		t.Fatal(err)
	}
	rows, err := coord.Query(ctx, "A", "a(X,Y)", []string{"X", "Y"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("A answers %d rows, want 2", len(rows))
	}

	// Clean close of B's "process": Goodbye, WAL sealed.
	if err := nets["B"].Close(); err != nil {
		t.Fatalf("clean close of B: %v", err)
	}
	delete(nets, "B")
	waitFor(t, time.Second, func() bool {
		for _, m := range trs["A"].Members() {
			if m.Name == "B" {
				return m.Status == StatusLeft
			}
		}
		return false
	}, "A never saw B leave")

	// Restart B under a fresh port; its database must come back from disk
	// before any message flows.
	n2, tr2 := startMember(t, chainNet, "B", map[string]string{"A": book["A"], "C": book["C"]}, filepath.Join(dataRoot, "B"))
	nets["B"] = n2
	if got := n2.Peer("B").DB().TotalTuples(); got != 2 {
		t.Fatalf("B recovered %d tuples from its WAL, want 2", got)
	}
	if err := coord.WaitMembers(ctx, 3); err != nil {
		t.Fatalf("B never re-joined: %v (members %v)", err, coord.Transport().Members())
	}

	// Re-converge and prove it was delta-only: with every mark intact on
	// both sides, nobody inserts anything.
	coord.ResetStats()
	if err := coord.Update(ctx); err != nil {
		t.Fatal(err)
	}
	snaps, err := coord.CollectStats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for node, s := range snaps {
		if s.TuplesInserted != 0 {
			t.Errorf("%s inserted %d tuples on the post-restart update; a clean rejoin must be delta-only (zero)", node, s.TuplesInserted)
		}
	}
	rows, err = coord.Query(ctx, "A", "a(X,Y)", []string{"X", "Y"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("A answers %d rows after B's restart, want 2", len(rows))
	}
	_ = tr2
}

// TestMembershipSuspicion pins the dead-process detection: a member that
// vanishes without a Goodbye is marked suspect within the suspicion window,
// and sends towards it keep failing fast instead of wedging.
func TestMembershipSuspicion(t *testing.T) {
	a, err := New("A", "127.0.0.1:0", nil, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := New("B", "127.0.0.1:0", map[string]string{"A": a.Addr()}, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	b.Announce()
	waitFor(t, 2*time.Second, func() bool { return statusOf(a, "B") == StatusAlive }, "A never saw B alive")
	waitFor(t, 2*time.Second, func() bool { return statusOf(b, "A") == StatusAlive }, "B never saw A alive")

	// Vanish without a Goodbye: the crash path.
	if err := b.Abandon(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, func() bool { return statusOf(a, "B") == StatusSuspect }, "A never suspected the vanished B")

	// A clean leave is recorded as left, not suspect.
	c, err := New("C", "127.0.0.1:0", map[string]string{"A": a.Addr()}, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	c.Announce()
	waitFor(t, 2*time.Second, func() bool { return statusOf(a, "C") == StatusAlive }, "A never saw C alive")
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 2*time.Second, func() bool { return statusOf(a, "C") == StatusLeft }, "A never saw C's goodbye")
}

// TestClusterRegisterSinglePeer pins the one-peer-per-process contract.
func TestClusterRegisterSinglePeer(t *testing.T) {
	tr, err := New("A", "127.0.0.1:0", nil, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	if err := tr.Register("B", nil); err == nil {
		t.Fatal("registering a foreign node must fail")
	}
	if err := tr.Register("A", func(wire.Envelope) {}); err != nil {
		t.Fatal(err)
	}
	if err := tr.Register("A", func(wire.Envelope) {}); err == nil {
		t.Fatal("double registration must fail")
	}
}

// TestMetricsEndpoint drives the serve observability surface end to end.
func TestMetricsEndpoint(t *testing.T) {
	n, tr := startMember(t, chainNet, "C", nil, t.TempDir())
	defer n.Close()
	addr, closeMetrics, err := StartMetrics("127.0.0.1:0", func() NodeMetrics {
		return CollectNodeMetrics(n, tr, nil, "C")
	})
	if err != nil {
		t.Fatal(err)
	}
	defer closeMetrics()

	resp, err := http.Get(fmt.Sprintf("http://%s/metrics", addr))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m NodeMetrics
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	if m.Node != "C" || m.Tuples != 2 || m.Addr == "" {
		t.Fatalf("metrics = %+v", m)
	}
	if m.WalSeq == 0 {
		t.Error("wal_seq must reflect the seeded appends")
	}
	for _, path := range []string{"/debug/vars", "/debug/pprof/", "/debug/pprof/heap?debug=1"} {
		resp, err := http.Get(fmt.Sprintf("http://%s%s", addr, path))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s status %d", path, resp.StatusCode)
		}
	}
}

// TestMetricsReportTheSymbolTable: a serving member's /metrics and its expvar
// "p2pdb" variable both size the process's symbol table, texts and null terms
// apart, and an insert of a text and a Skolem null never seen before shows in
// both: the text among the symbols, the null among the nulls.
func TestMetricsReportTheSymbolTable(t *testing.T) {
	cfg := LoopbackConfig(mustDef(t, chainNet), "C", nil, "", 0, 0)
	cfg.Control = nil
	m := bootMember(t, cfg)
	defer m.Close()
	addr, closeMetrics, err := StartMetrics("127.0.0.1:0", m.Metrics)
	if err != nil {
		t.Fatal(err)
	}
	defer closeMetrics()

	before := relalg.SymbolStats()
	fresh := fmt.Sprintf("symbol-metrics-%d", time.Now().UnixNano())
	null := relalg.Skolem(1, relalg.S("r"), relalg.S("V"), relalg.Tuple{relalg.I(time.Now().UnixNano())})
	if _, err := m.Network().Peer("C").InsertLocal("c", relalg.Tuple{relalg.S(fresh), null}); err != nil {
		t.Fatal(err)
	}
	var metrics NodeMetrics
	getJSON(t, addr, "/metrics", &metrics)
	var vars struct {
		P2PDB NodeMetrics `json:"p2pdb"`
	}
	getJSON(t, addr, "/debug/vars", &vars)
	for name, got := range map[string]NodeMetrics{"/metrics": metrics, "expvar p2pdb": vars.P2PDB} {
		if got.Symbols < before.Texts+1 || got.SymbolBytes < before.TextBytes+len(fresh) {
			t.Errorf("%s reports %d symbols, %d bytes; before the insert of %q the table held %d, %d",
				name, got.Symbols, got.SymbolBytes, fresh, before.Texts, before.TextBytes)
		}
		if got.Nulls < before.Nulls+1 || got.NullBytes <= before.NullBytes {
			t.Errorf("%s reports %d nulls, %d bytes; before the insert of %s the table held %d, %d",
				name, got.Nulls, got.NullBytes, null.Quoted(), before.Nulls, before.NullBytes)
		}
	}
}

// getJSON decodes the JSON a metrics endpoint serves at path.
func getJSON(t *testing.T, addr, path string, into any) {
	t.Helper()
	resp, err := http.Get(fmt.Sprintf("http://%s%s", addr, path))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
}

func mustDef(t *testing.T, text string) *rules.Network {
	t.Helper()
	def, err := rules.ParseNetwork(text)
	if err != nil {
		t.Fatal(err)
	}
	return def
}

func statusOf(tr *Transport, name string) Status {
	for _, m := range tr.Members() {
		if m.Name == name {
			return m.Status
		}
	}
	return StatusBook
}

func waitFor(t *testing.T, max time.Duration, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(max)
	for {
		if cond() {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal(msg)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestOnMemberUpFiresOnRejoin pins the re-send trigger: a member that was
// suspected (or said goodbye) and then comes back alive must fire the
// OnMemberUp callback exactly for that member — the hook serve wires to
// peer.ResendUnackedTo, so deltas evaluated while the member was down ship
// the moment it returns.
func TestOnMemberUpFiresOnRejoin(t *testing.T) {
	a, err := New("A", "127.0.0.1:0", nil, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	up := make(chan string, 16)
	a.SetOnMemberUp(func(node string) { up <- node })

	b, err := New("B", "127.0.0.1:0", map[string]string{"A": a.Addr()}, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	b.Announce()
	waitFor(t, 2*time.Second, func() bool { return statusOf(a, "B") == StatusAlive }, "A never saw B alive")
	// First contact is not a rejoin: the callback must stay silent.
	select {
	case node := <-up:
		t.Fatalf("OnMemberUp fired on first contact with %q", node)
	case <-time.After(200 * time.Millisecond):
	}

	// Crash B (no goodbye) and let A suspect it.
	if err := b.Abandon(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, func() bool { return statusOf(a, "B") == StatusSuspect }, "A never suspected B")

	// Restart B under a fresh port: its announcement must fire the callback.
	b2, err := New("B", "127.0.0.1:0", map[string]string{"A": a.Addr()}, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer b2.Close()
	b2.Announce()
	deadline := time.After(5 * time.Second)
	for {
		select {
		case node := <-up:
			if node != "B" {
				t.Fatalf("OnMemberUp fired for %q, want B", node)
			}
			return
		case <-deadline:
			t.Fatal("OnMemberUp never fired for the rejoined member")
		}
	}
}

// stallPoll is the coordinator's cadence in the stalled-handler tests: long
// enough that two rounds and five still ones are told apart by more than a
// loaded box's jitter.
const stallPoll = 100 * time.Millisecond

// chainCluster boots chainNet as three plain members and a coordinator polling
// every stallPoll, and runs discovery and the first update.
func chainCluster(t *testing.T) (*Coordinator, map[string]*core.Network) {
	coord, nets := bootChain(t, stallPoll)
	ctx := testCtx(t)
	if err := coord.Discover(ctx); err != nil {
		t.Fatal(err)
	}
	if err := coord.Update(ctx); err != nil {
		t.Fatal(err)
	}
	return coord, nets
}

// bootChain boots chainNet as three plain members and a coordinator whose
// longest pause is poll, and waits until it sees every member.
func bootChain(t *testing.T, poll time.Duration) (*Coordinator, map[string]*core.Network) {
	def := mustDef(t, chainNet)
	book := map[string]string{}
	nets := map[string]*core.Network{}
	for _, decl := range def.Nodes {
		seed := map[string]string{}
		for k, v := range book {
			seed[k] = v
		}
		n, tr := startMember(t, chainNet, decl.Name, seed, "")
		t.Cleanup(func() { n.Close() })
		nets[decl.Name] = n
		book[decl.Name] = tr.Addr()
	}
	opts := fastCoordOpts()
	opts.PollEvery = poll
	coord, err := NewCoordinator(def, "127.0.0.1:0", book, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { coord.Close() })
	if err := coord.WaitMembers(testCtx(t), len(def.Nodes)); err != nil {
		t.Fatal(err)
	}
	return coord, nets
}

// TestCoordinatorSettlesAtTheSpeedOfTheWave: the coordinator's waits look
// again soon while the samples move, so a wave that ends in milliseconds is
// judged in milliseconds, whatever PollEvery is. With a one-second PollEvery,
// a discovery and three updates — each a kick seen landing and an exact
// counter balance — take well under a second together; a wait that paused a
// full period after a sample that caught its wave in flight would take one
// on its own.
func TestCoordinatorSettlesAtTheSpeedOfTheWave(t *testing.T) {
	coord, nets := bootChain(t, time.Second)
	ctx := testCtx(t)
	start := time.Now()
	if err := coord.Discover(ctx); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := coord.Update(ctx); err != nil {
			t.Fatal(err)
		}
	}
	took := time.Since(start)
	t.Logf("discover + 3 updates: %v", took)
	if took >= time.Second {
		t.Errorf("discover + 3 updates took %v with PollEvery 1s, want under 1s", took)
	}
	if got := nets["A"].Peer("A").DB().TotalTuples(); got != 2 {
		t.Errorf("A holds %d tuples after the updates, want 2", got)
	}
}

// quiesceAcrossAStall inserts at C while B's insert listener stalls once, past
// the five still rounds that used to settle; want is what A must hold when
// Quiesce returns, which must be about two rounds after the handler and not
// the five still ones (five polls and more) that used to follow it.
func quiesceAcrossAStall(t *testing.T, coord *Coordinator, nets map[string]*core.Network, want int) {
	ctx := testCtx(t)
	var once sync.Once
	var handlerDone time.Time // written inside once, read after Quiesce returned
	nets["B"].Peer("B").DB().AddInsertListener(func(string, []relalg.Tuple, uint64) {
		once.Do(func() {
			time.Sleep(6 * stallPoll)
			handlerDone = time.Now()
		})
	})
	if _, err := nets["C"].Node("C").Insert(ctx, "c", relalg.Tuple{relalg.S("9"), relalg.S("10")}); err != nil {
		t.Fatal(err)
	}
	if err := coord.Quiesce(ctx); err != nil {
		t.Fatal(err)
	}
	returned := time.Now()
	rows, err := coord.Query(ctx, "A", "a(X,Y)", []string{"X", "Y"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != want {
		t.Fatalf("quiesce returned while B was still handling C's answer: A holds %v", rows)
	}
	once.Do(func() { t.Error("B's listener never ran") })
	lag := returned.Sub(handlerDone)
	t.Logf("quiesce returned %v after the stalled handler", lag)
	if lag > 7*stallPoll/2 {
		t.Errorf("quiesce returned %v after the stalled handler finished, want about two rounds", lag)
	}
}

// TestCoordinatorQuiesceStalledHandler is core's stalled-handler case judged
// over the wire. While B's handler stalls B answers no round, and the round
// that finally completes mixes reports read half a second apart: A and C as
// they were when the round was asked, B as it is after forwarding to A. It
// must not be taken for settled together with whatever came before, and the
// confirming round must not be one that was asked before B had finished.
func TestCoordinatorQuiesceStalledHandler(t *testing.T) {
	coord, nets := chainCluster(t)
	quiesceAcrossAStall(t, coord, nets, 3)
}

// TestCoordinatorVerbsLeaveTheCountersBalanced: a coordinator keeps no
// counters, so what it sends — a broadcast, a rule notice — is started by
// nobody and must be finished by nobody. Counted received, each would leave
// the totals one surplus message at rest, and a wave with exactly that many
// in flight would read balanced in two rounds running.
func TestCoordinatorVerbsLeaveTheCountersBalanced(t *testing.T) {
	coord, nets := chainCluster(t)
	ctx := testCtx(t)
	if err := coord.Broadcast(chainNet); err != nil {
		t.Fatal(err)
	}
	if err := coord.AddLink("rx: C:c(X,Y) -> A:a(X,Y)"); err != nil {
		t.Fatal(err)
	}
	if err := coord.Update(ctx); err != nil {
		t.Fatal(err)
	}
	snaps, err := coord.CollectStats(ctx)
	if err != nil || len(snaps) != 3 {
		t.Fatalf("CollectStats = %d snapshots, err %v", len(snaps), err)
	}
	if started, finished := protocolTotals(snaps); started != finished {
		t.Fatalf("at rest after a broadcast and an addLink: %d started, %d finished", started, finished)
	}
	// So the next wave is judged from zero: not early, and with no window.
	quiesceAcrossAStall(t, coord, nets, 6)
}

// TestDiscoverWaitsForAnAsynchronousKick pins Discover against a member that
// behaves as one under the control plane does: the request becomes an agreed
// log entry first and the wave starts later. A scripted member (real
// transport, no peer) runs its "wave" 200 ms after taking the request and
// reports it started (StateReport.Waves) from then on; a balance read before
// that is a network that has not begun. Discover must wait for the wave, and
// return a round or two after it rather than a window later.
func TestDiscoverWaitsForAnAsynchronousKick(t *testing.T) {
	tr, err := New("A", "127.0.0.1:0", nil, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	const kickDelay = 200 * time.Millisecond
	var waves atomic.Uint64
	if err := tr.Register("A", func(env wire.Envelope) {
		switch m := env.Msg.(type) {
		case wire.DiscoverRequest:
			time.AfterFunc(kickDelay, func() { waves.Add(1) })
		case wire.StateRequest:
			_ = tr.Send("A", env.From, wire.StateReport{Node: "A", Waves: waves.Load()})
		case wire.StatsRequest:
			n := waves.Load()
			_ = tr.Send("A", env.From, wire.StatsReport{Seq: m.Seq, Snapshot: stats.Snapshot{Node: "A",
				MsgsSent: map[string]uint64{"requestNodes": n}, MsgsReceived: map[string]uint64{"discoveryAnswer": n}}})
		}
	}); err != nil {
		t.Fatal(err)
	}
	tr.Announce()
	coord, err := NewCoordinator(mustDef(t, "node A { rel a(x,y) }\n"), "127.0.0.1:0", map[string]string{"A": tr.Addr()}, fastCoordOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	ctx := testCtx(t)
	if err := coord.WaitMembers(ctx, 1); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := coord.Discover(ctx); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); waves.Load() != 1 || took > kickDelay+12*fastCoordOpts().PollEvery {
		t.Fatalf("Discover returned after %v with %d waves run, want the one wave and a few rounds past %v", took, waves.Load(), kickDelay)
	}
}
