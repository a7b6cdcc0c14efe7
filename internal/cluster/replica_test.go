package cluster

import (
	"context"
	"fmt"
	"net"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/relalg"
	"repro/internal/replica"
	"repro/internal/wire"
	"repro/internal/workload"
)

// replicaMember is one "process" of a replicated cluster in-process: a booted
// Member with its parts at hand.
type replicaMember struct {
	*Member
	n   *core.Network
	tr  *Transport
	cp  *ControlPlane
	mgr *replica.Manager
}

// crash kills the member without a goodbye.
func (rm *replicaMember) crash() { _ = rm.Crash() }

func (rm *replicaMember) shutdown() { _ = rm.Close() }

// startReplicaMember boots one replicated member with the harness timers.
func startReplicaMember(t *testing.T, defText, node string, book map[string]string, dataDir string, k int, deadAfter time.Duration) *replicaMember {
	t.Helper()
	return startReplicaMemberOpts(t, defText, node, book, dataDir, k, deadAfter, fastOpts())
}

// startReplicaMemberOpts is startReplicaMember with explicit membership
// timers: the churn soak needs a suspicion window wide enough to survive the
// race detector's scheduling delays without flapping the member table.
func startReplicaMemberOpts(t *testing.T, defText, node string, book map[string]string, dataDir string, k int, deadAfter time.Duration, mo Options) *replicaMember {
	t.Helper()
	cfg := LoopbackConfig(mustDef(t, defText), node, book, dataDir, k, deadAfter)
	cfg.Cluster = mo
	m := bootMember(t, cfg)
	return &replicaMember{Member: m, n: m.Network(), tr: m.Transport(), cp: m.Control(), mgr: m.Replica()}
}

// TestReplicaPromotionZeroLoss is the tentpole acceptance scenario in-process:
// a five-member chain with k=2 replication, the source member E is killed
// without a goodbye after its relations are durably replicated, and the
// control plane must declare it dead, elect the replica with the highest
// durable frontier, re-home E's peer there and re-converge on the oracle
// fix-point with zero lost extensional tuples.
func TestReplicaPromotionZeroLoss(t *testing.T) {
	if testing.Short() {
		t.Skip("replica promotion skipped in -short mode")
	}
	ctx := testCtx(t)

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
	members := map[string]*replicaMember{}
	const deadAfter = 400 * time.Millisecond
	for _, node := range []string{"A", "B", "C", "D", "E"} {
		seed := map[string]string{}
		for k, v := range book {
			seed[k] = v
		}
		rm := startReplicaMember(t, chainNet5, node, seed, filepath.Join(dataRoot, node), 2, deadAfter)
		members[node] = rm
		book[node] = rm.tr.Addr()
	}
	defer func() {
		for _, rm := range members {
			rm.shutdown()
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

	// New extensional facts at the source, mirrored into the oracle.
	for _, tup := range []relalg.Tuple{{relalg.S("5"), relalg.S("6")}, {relalg.S("7"), relalg.S("8")}} {
		if _, err := members["E"].n.Peer("E").InsertLocal("e", tup); err != nil {
			t.Fatal(err)
		}
		if _, err := memNet.Peer("E").InsertLocal("e", tup); err != nil {
			t.Fatal(err)
		}
	}
	if err := memNet.Update(ctx); err != nil {
		t.Fatal(err)
	}

	// Wait until every placement member's durable frontier covers E's primary
	// frontier — the precondition under which the kill must lose nothing.
	placement, _ := members["A"].cp.PlacementFor("E")
	if len(placement) != 2 {
		t.Fatalf("placement for E = %v, want 2 members", placement)
	}
	wantFrontier := members["E"].mgr.Frontier("E")
	if wantFrontier == 0 {
		t.Fatal("E's primary frontier is zero — nothing was ever logged")
	}
	waitFor(t, 15*time.Second, func() bool {
		for _, p := range placement {
			if members[p].mgr.Frontier("E") < wantFrontier {
				return false
			}
		}
		return true
	}, "E's replicas never caught up to its durable frontier")

	// Kill E without a goodbye. Suspicion must escalate to an agreed death,
	// the election must pick a caught-up replica, and that member adopts E.
	members["E"].crash()
	delete(members, "E")

	var host string
	waitFor(t, 20*time.Second, func() bool {
		h := members["A"].cp.HostOf("E")
		if h == "E" {
			return false
		}
		rm := members[h]
		if rm == nil || rm.n.Peer("E") == nil {
			return false
		}
		host = h
		return true
	}, "no member ever adopted E after its death")
	inPlacement := false
	for _, p := range placement {
		if p == host {
			inPlacement = true
		}
	}
	if !inPlacement {
		t.Fatalf("E re-homed to %s, which held no replica (placement %v)", host, placement)
	}
	if members[host].cp.Metrics().Promotions == 0 {
		t.Fatalf("adopter %s reports no promotions", host)
	}

	// Zero lost extensional tuples: the adopted E's database equals the
	// oracle's, and the re-driven update re-converges every survivor.
	waitFor(t, 30*time.Second, func() bool {
		if members[host].n.Peer("E").DB().Dump() != memNet.Peer("E").DB().Dump() {
			return false
		}
		for _, node := range []string{"A", "B", "C", "D"} {
			if members[node].n.Peer(node).DB().Dump() != memNet.Peer(node).DB().Dump() {
				return false
			}
		}
		return true
	}, "cluster never re-converged on the oracle fix-point after the promotion")

	// The new primary must close E's under-replication window: the survivors
	// in E's new placement re-sync from the adopter.
	waitFor(t, 20*time.Second, func() bool {
		return members[host].mgr.Metrics().UnderReplicated == 0
	}, "the under-replication window never closed after the promotion")
}

// TestBootAgreesAtTheSpeedOfTheLog: at the deployment periods — the plane's
// reconciliation every 500ms, the replica manager's placement pass every
// 250ms — three booting members agree that all three are alive and close
// every under-replication window within 150ms of the last boot. Both passes
// run when the view they read changes; the periods are only the retry net.
func TestBootAgreesAtTheSpeedOfTheLog(t *testing.T) {
	nodes := []string{"A", "B", "C"}
	book := map[string]string{}
	var members []*replicaMember
	for _, node := range nodes {
		seed := map[string]string{}
		for k, v := range book {
			seed[k] = v
		}
		cfg := LoopbackConfig(mustDef(t, chainNet), node, seed, "", 2, time.Minute)
		cfg.Control.ReconcileEvery = 500 * time.Millisecond
		cfg.Replica.ReconcileEvery = 250 * time.Millisecond
		m := bootMember(t, cfg)
		defer m.Close()
		members = append(members, &replicaMember{Member: m, n: m.Network(), tr: m.Transport(), cp: m.Control(), mgr: m.Replica()})
		book[node] = m.Transport().Addr()
	}
	booted := time.Now()
	settled := func() bool {
		for _, rm := range members {
			view, _ := rm.cp.AgreedView()
			for _, node := range nodes {
				if view[node] != StatusAlive {
					return false
				}
			}
			if rm.mgr.Metrics().UnderReplicated != 0 {
				return false
			}
		}
		return true
	}
	for !settled() {
		if took := time.Since(booted); took > 150*time.Millisecond {
			for _, rm := range members {
				view, version := rm.cp.AgreedView()
				t.Logf("%s: agreed view %v (version %d), replication %+v", rm.tr.Self(), view, version, rm.mgr.Metrics())
			}
			t.Fatalf("not agreed and replicated %v after the last boot, want within 150ms", took)
		}
		time.Sleep(time.Millisecond)
	}
	t.Logf("agreed and replicated %v after the last boot", time.Since(booted))
}

// TestRehomedNodeHasOneHost pins "a node has at most one live host" across a
// second death verdict on an already re-homed name. E dies and is adopted;
// then the agreed log is told E is alive and dead again — what a stalled
// adopter's heartbeats used to make the failure detector propose on its own.
// The second election excludes the sitting host, so E moves on, and the first
// adopter must stop serving it: exactly one network hosts a peer named E, it
// still holds E's full data, and every under-replication window closes. No
// verdict here comes from a timer (DeadAfter is a minute): each is submitted.
func TestRehomedNodeHasOneHost(t *testing.T) {
	if testing.Short() {
		t.Skip("spins a replicated TCP cluster; skipped in -short mode")
	}
	ctx := testCtx(t)
	def := mustDef(t, chainNet5)
	var wantE string
	{
		ref, err := core.Build(mustDef(t, chainNet5), core.Options{Delta: true})
		if err != nil {
			t.Fatal(err)
		}
		wantE = ref.Peer("E").DB().Dump()
		_ = ref.Close()
	}

	dataRoot := t.TempDir()
	names := []string{"A", "B", "C", "D", "E"}
	book := map[string]string{}
	members := map[string]*replicaMember{}
	for _, node := range names {
		rm := startReplicaMember(t, chainNet5, node, book, filepath.Join(dataRoot, node), 2, time.Minute)
		members[node] = rm
		book[node] = rm.tr.Addr()
	}
	defer func() {
		for _, rm := range members {
			rm.shutdown()
		}
	}()
	// A wait that gives up says what it was looking at (runs before shutdown).
	defer func() {
		if t.Failed() {
			t.Log("cluster state at the failure:" + rehomingState(members, names))
		}
	}()
	coord, err := NewCoordinator(def, "127.0.0.1:0", book, fastCoordOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	if err := coord.WaitMembers(ctx, len(names)); err != nil {
		t.Fatal(err)
	}
	settled := func() bool {
		for _, rm := range members {
			if rm.mgr.Metrics().UnderReplicated != 0 {
				return false
			}
		}
		return true
	}
	waitFor(t, 30*time.Second, settled, "the cluster never reached k durable copies of every node")

	verdict := func(st Status) {
		t.Helper()
		cmd := wire.Command{Kind: "member", Node: "E", Status: uint8(st)}
		if _, err := members["A"].cp.cons.Submit(ctx, cmd); err != nil {
			t.Fatalf("submit member E %s: %v", st, err)
		}
	}
	// hostOfE waits until every survivor agrees E lives at one member other
	// than not, and that member serves it.
	hostOfE := func(not string) string {
		t.Helper()
		var host string
		waitFor(t, 30*time.Second, func() bool {
			host = members["A"].cp.HostOf("E")
			if host == not || members[host] == nil || members[host].n.Peer("E") == nil {
				return false
			}
			for _, rm := range members {
				if rm.cp.HostOf("E") != host {
					return false
				}
			}
			return true
		}, "E was never re-homed away from "+not)
		return host
	}

	members["E"].crash()
	delete(members, "E")
	verdict(StatusDead)
	first := hostOfE("E")
	waitFor(t, 30*time.Second, settled, "the first adopter never re-replicated E")

	verdict(StatusAlive)
	verdict(StatusDead)
	second := hostOfE(first)

	waitFor(t, 30*time.Second, func() bool {
		return members[first].n.Peer("E") == nil
	}, first+" still serves E after the agreed log re-homed it to "+second)
	for node, rm := range members {
		if (rm.n.Peer("E") != nil) != (node == second) {
			t.Errorf("%s hosts E: %v (agreed host %s)", node, rm.n.Peer("E") != nil, second)
		}
	}
	if got := members[second].n.Peer("E").DB().Dump(); got != wantE {
		t.Errorf("E lost data across two re-homings:\n got: %s\nwant: %s", got, wantE)
	}
	waitFor(t, 30*time.Second, settled, "an under-replication window stayed open after the second re-homing")

	// A member deposed of its OWN node shuts itself down. Cut a live member
	// off until the survivors suspect it, submit the death verdict, and once
	// its node is re-homed let it hear the log again: it must fire Deposed()
	// and stop listening without anyone calling Close on it.
	var victim string
	for _, node := range []string{"B", "C", "D"} {
		if node != first && node != second {
			victim = node
			break
		}
	}
	v := members[victim]
	cut := func(down bool) {
		for _, node := range names { // E too: its adopter answers under that name
			if node != victim {
				v.tr.setLinkDown(node, down)
			}
		}
	}
	cut(true)
	waitFor(t, 30*time.Second, func() bool {
		view, _ := members["A"].cp.AgreedView()
		return view[victim] == StatusSuspect
	}, "the survivors never agreed "+victim+" was suspect")
	cmd := wire.Command{Kind: "member", Node: victim, Status: uint8(StatusDead)}
	if _, err := members["A"].cp.cons.Submit(ctx, cmd); err != nil {
		t.Fatalf("submit member %s dead: %v", victim, err)
	}
	waitFor(t, 30*time.Second, func() bool { return members["A"].cp.HostOf(victim) != victim },
		victim+" was never re-homed")
	cut(false)
	select {
	case <-v.Deposed():
	case <-time.After(30 * time.Second):
		t.Fatalf("%s never learned it was deposed", victim)
	}
	waitFor(t, 30*time.Second, func() bool {
		conn, err := net.DialTimeout("tcp", v.tr.Addr(), time.Second)
		if err == nil {
			_ = conn.Close()
		}
		return err != nil
	}, "deposed "+victim+" kept its listener up")
}

// rehomingState renders what the re-homing waits look at, at every member
// still in the map: the agreed view, the agreed host of every node and whether
// the member serves it, and the promotion counters — enough to tell a verdict
// that was never agreed from an election that never closed from an adopter
// that never adopted.
func rehomingState(members map[string]*replicaMember, nodes []string) string {
	names := make([]string, 0, len(members))
	for name := range members {
		names = append(names, name)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, name := range names {
		rm := members[name]
		view, version := rm.cp.AgreedView()
		m := rm.cp.Metrics()
		fmt.Fprintf(&b, "\n  at %s: view v%d=%v open_elections=%d promotions=%d adopted=%v hosts:",
			name, version, view, m.OpenElections, m.Promotions, m.Adopted)
		for _, node := range nodes {
			fmt.Fprintf(&b, " %s@%s", node, rm.cp.HostOf(node))
			if rm.n.Peer(node) != nil {
				b.WriteString("(served here)")
			}
		}
	}
	return b.String()
}

// TestReplicaChurnSoak is the long referee run: a five-member ring with k=2
// replication under a seeded churn schedule (inserts, goodbye-less crashes,
// restarts from disk, settle checkpoints), judged at the end against an
// in-memory oracle network fed the identical inserts — which itself must pass
// ValidateAgainstCentralized.
func TestReplicaChurnSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("churn soak skipped in -short mode")
	}
	// The soak needs more than the harness' default 2 minutes under the race
	// detector, where each settle round runs an order of magnitude slower.
	ctx, cancel := context.WithTimeout(context.Background(), 8*time.Minute)
	defer cancel()

	const nodes = 5
	def, err := workload.Generate(workload.Ring(nodes), workload.DataSpec{
		RecordsPerNode: 3,
		Seed:           7,
		Style:          workload.StyleCopy,
	})
	if err != nil {
		t.Fatal(err)
	}
	defText := def.Format()

	memNet, err := core.Build(mustDef(t, defText), core.Options{Delta: true})
	if err != nil {
		t.Fatal(err)
	}
	defer memNet.Close()
	if err := memNet.RunToFixpoint(ctx); err != nil {
		t.Fatal(err)
	}

	dataRoot := t.TempDir()
	book := map[string]string{}
	members := map[string]*replicaMember{}
	// DeadAfter far beyond any down window: the soak exercises replication
	// and rejoin under churn; permanent death is the promotion test's job.
	const deadAfter = 30 * time.Second
	// Wide suspicion window: the soak's crash windows are short and recovery
	// rides on rejoin resend, not on suspicion — and under the race detector
	// the fast 150ms window flaps healthy members off the table.
	soakOpts := Options{HeartbeatEvery: 50 * time.Millisecond, SuspectAfter: 2 * time.Second}
	boot := func(node string) {
		seed := map[string]string{}
		for k, v := range book {
			seed[k] = v
		}
		rm := startReplicaMemberOpts(t, defText, node, seed, filepath.Join(dataRoot, node), 2, deadAfter, soakOpts)
		members[node] = rm
		book[node] = rm.tr.Addr()
	}
	for i := 0; i < nodes; i++ {
		boot(workload.NodeName(i))
	}
	defer func() {
		for _, rm := range members {
			rm.shutdown()
		}
	}()

	coord, err := NewCoordinator(mustDef(t, defText), "127.0.0.1:0", book, CoordinatorOptions{
		Membership:   soakOpts,
		PollEvery:    25 * time.Millisecond,
		roundTimeout: 5 * time.Second, // the race detector stretches every wave
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	if err := coord.WaitMembers(ctx, nodes); err != nil {
		t.Fatal(err)
	}
	if err := coord.Discover(ctx); err != nil {
		t.Fatal(err)
	}
	if err := coord.Update(ctx); err != nil {
		t.Fatal(err)
	}

	events := churn(nodes, churnSpec{
		Events:      110,
		Seed:        11,
		CrashEvery:  8,
		MaxDown:     1,
		DownFor:     5,
		SettleEvery: 30,
		Protected:   []string{workload.NodeName(0)}, // the super drives updates
	})
	inserts, crashes, settles := 0, 0, 0
	for i, ev := range events {
		switch ev.Op {
		case churnInsert:
			inserts++
			for _, f := range ev.Facts {
				if _, err := members[f.Node].n.Peer(f.Node).InsertLocal(f.Rel, f.Tuple); err != nil {
					t.Fatalf("event %d: insert at %s: %v", i, f.Node, err)
				}
				if _, err := memNet.Node(f.Node).Insert(ctx, f.Rel, f.Tuple); err != nil {
					t.Fatalf("event %d: oracle insert at %s: %v", i, f.Node, err)
				}
			}
		case churnCrash:
			crashes++
			members[ev.Node].crash()
			delete(members, ev.Node)
		case churnRestart:
			boot(ev.Node)
		case churnSettle:
			if len(members) < nodes {
				continue // a member is down; the final settle runs whole
			}
			// A settle can land right after a restart, while the rejoined
			// member is still re-announcing — retry instead of failing the
			// whole soak on a mid-run checkpoint (the final settle below is
			// the strict referee).
			var uerr error
			for try := 0; try < 3; try++ {
				if uerr = coord.Update(ctx); uerr == nil {
					break
				}
				time.Sleep(250 * time.Millisecond)
			}
			if uerr != nil {
				t.Logf("event %d: mid-run settle skipped: %v", i, uerr)
				continue
			}
			settles++
			if err := memNet.Update(ctx); err != nil {
				t.Fatalf("event %d: oracle update: %v", i, err)
			}
		}
		// A small beat per event so crash windows outlast the suspicion
		// timeout often enough to exercise the rejoin resend path.
		time.Sleep(20 * time.Millisecond)
	}
	if inserts == 0 || crashes == 0 {
		t.Fatalf("vacuous soak: %d inserts, %d crashes", inserts, crashes)
	}
	t.Logf("soak: %d events (%d inserts, %d crashes, %d mid-run settles)", len(events), inserts, crashes, settles)

	// Final referee: a strict whole-cluster settle, then the oracle itself
	// must match the centralized evaluation of everything inserted, and every
	// member must match the oracle.
	var uerr error
	for try := 0; try < 5; try++ {
		if uerr = coord.Update(ctx); uerr == nil {
			break
		}
		time.Sleep(500 * time.Millisecond)
	}
	if uerr != nil {
		t.Fatalf("final settle never closed: %v", uerr)
	}
	if err := memNet.Update(ctx); err != nil {
		t.Fatal(err)
	}
	if err := memNet.ValidateAgainstCentralized(); err != nil {
		t.Fatalf("oracle diverges from centralized evaluation: %v", err)
	}
	waitFor(t, 60*time.Second, func() bool {
		for node, rm := range members {
			if rm.n.Peer(node) == nil || rm.n.Peer(node).DB().Dump() != memNet.Peer(node).DB().Dump() {
				return false
			}
		}
		return true
	}, "a member never converged on the oracle fix-point after the churn drain")

	// Replication must be whole again at the end: every member's hosted
	// primaries fully covered on their placements.
	waitFor(t, 30*time.Second, func() bool {
		for _, rm := range members {
			if rm.mgr.Metrics().UnderReplicated != 0 {
				return false
			}
		}
		return true
	}, "under-replication never closed after the churn drain")
}
