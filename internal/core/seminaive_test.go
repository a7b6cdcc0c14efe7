package core

import (
	"strings"
	"testing"

	"repro/internal/relalg"
	"repro/internal/workload"
)

// snapshotsEqual compares two per-node database snapshots tuple for tuple.
func snapshotsEqual(t *testing.T, label string, a, b *Network) {
	t.Helper()
	sa, sb := a.Snapshot(), b.Snapshot()
	for node, dbA := range sa {
		dbB, ok := sb[node]
		if !ok {
			t.Fatalf("%s: node %s missing from second run", label, node)
		}
		if !dbA.Equal(dbB) {
			t.Fatalf("%s: node %s diverges between delta and faithful mode:\n   delta: %s\nfaithful: %s",
				label, node, dbA.Dump(), dbB.Dump())
		}
	}
}

// TestDeltaOracleRandomNetworks is the network-level oracle for the delta
// (semi-naive marks) path: across randomized topologies and workloads, a
// delta run and a faithful run — the independent reference, which re-ships
// full results and re-joins whole part sets — must both close, both match
// the centralised baseline, and converge to DB.Equal fix-points on every
// node.
func TestDeltaOracleRandomNetworks(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-topology soak; skipped in -short mode")
	}
	cases := []struct {
		topo  workload.Topology
		style workload.RuleStyle
	}{
		{workload.Chain(5), workload.StyleMixed},
		{workload.Grid(2, 3), workload.StyleCopy},
		{workload.Tree(2, 2), workload.StyleMixed},
		{workload.Ring(4), workload.StyleCopy},
		{workload.Clique(3), workload.StyleCopy},
		{workload.RandomDAG(7, 0.35, 11), workload.StyleMixed},
		{workload.RandomDigraph(5, 0.2, 13), workload.StyleCopy},
	}
	for i, tc := range cases {
		def, err := workload.Generate(tc.topo, workload.DataSpec{
			RecordsPerNode: 8, Seed: int64(100 + i), Style: tc.style,
		})
		if err != nil {
			t.Fatal(err)
		}
		delta, err := Build(def, Options{Seed: int64(i), Delta: true})
		if err != nil {
			t.Fatal(err)
		}
		faithful, err := Build(def, Options{Seed: int64(i)})
		if err != nil {
			t.Fatal(err)
		}
		for mode, n := range map[string]*Network{"delta": delta, "faithful": faithful} {
			if err := n.RunToFixpoint(ctx(t)); err != nil {
				t.Fatalf("%s %s: %v", tc.topo, mode, err)
			}
			if err := n.ValidateAgainstCentralized(); err != nil {
				t.Fatalf("%s %s: %v", tc.topo, mode, err)
			}
		}
		snapshotsEqual(t, tc.topo.String(), delta, faithful)
		_ = delta.Close()
		_ = faithful.Close()
	}
}

// dynamicScript drives one network through a dynamic life cycle:
// initial fix-point, an addLink plus fresh data and a new update wave, then
// a deleteLink plus more data and a final wave. It exercises the marks
// carry-over across epochs and the marks reset on unsubscribe/resubscribe.
func dynamicScript(t *testing.T, n *Network) {
	t.Helper()
	if err := n.RunToFixpoint(ctx(t)); err != nil {
		t.Fatal(err)
	}
	if err := n.AddLink("rnew: C:c(X,Y) -> A:a(X,Y)"); err != nil {
		t.Fatal(err)
	}
	if err := n.Quiesce(ctx(t)); err != nil {
		t.Fatal(err)
	}
	if err := n.Peer("C").Seed("c", relalg.Tuple{relalg.S("5"), relalg.S("6")}); err != nil {
		t.Fatal(err)
	}
	if err := n.Update(ctx(t)); err != nil {
		t.Fatal(err)
	}
	if err := n.DeleteLink("B", "rb"); err != nil {
		t.Fatal(err)
	}
	if err := n.Quiesce(ctx(t)); err != nil {
		t.Fatal(err)
	}
	if err := n.Peer("C").Seed("c", relalg.Tuple{relalg.S("7"), relalg.S("8")}); err != nil {
		t.Fatal(err)
	}
	if err := n.Update(ctx(t)); err != nil {
		t.Fatal(err)
	}
	if !n.AllClosed() {
		t.Fatalf("open peers after dynamic script: %v", n.OpenPeers())
	}
}

// TestDeltaDynamicConvergence runs the same addLink/deleteLink script in
// delta and in faithful mode; the resulting databases must agree on every
// node, proving the per-subscription marks survive epoch bumps and reset
// correctly when subscriptions are torn down and re-created.
func TestDeltaDynamicConvergence(t *testing.T) {
	on := build(t, chainNet, Options{Delta: true})
	dynamicScript(t, on)
	off := build(t, chainNet, Options{})
	dynamicScript(t, off)
	snapshotsEqual(t, "dynamic chain", on, off)

	// Pairs present before the deleteLink arrive in both orientations (ra
	// swaps through B, rnew copies verbatim); the pair seeded after it can
	// only take the direct route: 3 pairs × 2 + 1.
	rows, err := on.LocalQuery("A", "a(X,Y)", []string{"X", "Y"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 7 {
		t.Fatalf("a = %v", rows)
	}
}

// TestMultiSourceDeltaAcrossEpochs pins the cross-epoch completeness of
// multi-source rules in delta mode: a second update wave wipes nothing the
// join still needs. The head's accumulated part results must survive epoch
// bumps, because sources holding high-water marks ship only
// deltas on re-query — if the head restarted its parts from scratch, an
// old×new combination (here: old c-tuple × new b-tuple) would be lost
// forever.
func TestMultiSourceDeltaAcrossEpochs(t *testing.T) {
	const net = `
node A { rel a(x,z) }
node B { rel b(x,y) }
node C { rel c(y,z) }
rule rj: B:b(X,Y), C:c(Y,Z) -> A:a(X,Z)
fact B:b('1','k')
fact C:c('k','9')
super A
`
	// The second wave runs flooded and staged: a quiet activation is an epoch
	// bump like any other and must keep the parts too.
	for _, mode := range []string{"delta", "faithful", "delta staged", "faithful staged"} {
		n := build(t, net, Options{Delta: strings.HasPrefix(mode, "delta")})
		if err := n.RunToFixpoint(ctx(t)); err != nil {
			t.Fatalf("mode %v: %v", mode, err)
		}
		if got := n.Peer("A").DB().Count("a"); got != 1 {
			t.Fatalf("mode %v: a = %d after first wave", mode, got)
		}
		// New b-tuple joins the old c-tuple: only B has news in epoch 2.
		if err := n.Peer("B").Seed("b", relalg.Tuple{relalg.S("2"), relalg.S("k")}); err != nil {
			t.Fatal(err)
		}
		second := n.Update
		if strings.HasSuffix(mode, "staged") {
			second = n.UpdateStaged
		}
		if err := second(ctx(t)); err != nil {
			t.Fatalf("mode %v: %v", mode, err)
		}
		if got := n.Peer("A").DB().Count("a"); got != 2 {
			t.Fatalf("mode %v: a = %d after second wave (old×new join lost)", mode, got)
		}
	}
}

// TestDeltaIncrementalEpochs verifies the cross-epoch behaviour at the
// orchestration level, in delta and in faithful mode: after a fix-point, each
// new seed tuple plus a new update wave must land exactly the incremental
// derivations.
func TestDeltaIncrementalEpochs(t *testing.T) {
	for _, mode := range []string{"delta", "faithful"} {
		n := build(t, chainNet, Options{Delta: mode == "delta"})
		runAndValidate(t, n)
		for i := 0; i < 3; i++ {
			v := relalg.S(string(rune('p' + i)))
			if err := n.Peer("C").Seed("c", relalg.Tuple{v, v}); err != nil {
				t.Fatal(err)
			}
			if err := n.Update(ctx(t)); err != nil {
				t.Fatalf("%s epoch %d: %v", mode, i, err)
			}
			if got, want := n.Peer("A").DB().Count("a"), 3+i; got != want {
				t.Fatalf("%s epoch %d: A.a = %d, want %d", mode, i, got, want)
			}
		}
	}
}
