package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/rules"
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
	vars, err := http.Get(fmt.Sprintf("http://%s/debug/vars", addr))
	if err != nil {
		t.Fatal(err)
	}
	vars.Body.Close()
	if vars.StatusCode != http.StatusOK {
		t.Fatalf("/debug/vars status %d", vars.StatusCode)
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
