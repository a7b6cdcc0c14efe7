package core

import (
	"context"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/peer"
	"repro/internal/relalg"
	"repro/internal/rules"
	"repro/internal/transport"
)

func ctx(t *testing.T) context.Context {
	t.Helper()
	c, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	t.Cleanup(cancel)
	return c
}

func build(t *testing.T, src string, opts Options) *Network {
	t.Helper()
	def, err := rules.ParseNetwork(src)
	if err != nil {
		t.Fatal(err)
	}
	n, err := Build(def, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = n.Close() })
	return n
}

// faults returns the in-memory router, which injects partitions and counts
// the sends they refuse, or nil on any other transport.
func (n *Network) faults() *transport.Mem {
	f, _ := n.capTransport().(*transport.Mem)
	return f
}

func runAndValidate(t *testing.T, n *Network) {
	t.Helper()
	if err := n.RunToFixpoint(ctx(t)); err != nil {
		t.Fatal(err)
	}
	if !n.AllClosed() {
		t.Fatalf("open peers after update: %v", n.OpenPeers())
	}
	if err := n.ValidateAgainstCentralized(); err != nil {
		t.Fatal(err)
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

func TestChainUpdate(t *testing.T) {
	n := build(t, chainNet, Options{})
	runAndValidate(t, n)
	got, err := n.LocalQuery("A", "a(X,Y)", []string{"X", "Y"})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("A has %d tuples: %v", len(got), got)
	}
	if got[0][0] != relalg.S("2") || got[0][1] != relalg.S("1") {
		t.Fatalf("swap rule not applied: %v", got)
	}
}

func TestChainClosureLatencyRecorded(t *testing.T) {
	n := build(t, chainNet, Options{})
	runAndValidate(t, n)
	for _, s := range n.Stats() {
		if s.Node == "C" {
			continue // leaves close instantly (recorded as 0)
		}
		if s.UpdateClosed <= 0 {
			t.Errorf("node %s: closure latency not recorded (%v)", s.Node, s.UpdateClosed)
		}
	}
}

func TestTwoCycle(t *testing.T) {
	// B and C copy from each other: the smallest cyclic network.
	src := `
node B { rel b(x,y) }
node C { rel c(x,y) }
rule rc: B:b(X,Y) -> C:c(X,Y)
rule rb: C:c(X,Y) -> B:b(X,Y)
fact B:b('u','v')
fact C:c('p','q')
super B
`
	n := build(t, src, Options{})
	runAndValidate(t, n)
	for _, node := range []string{"B", "C"} {
		rel := "b"
		if node == "C" {
			rel = "c"
		}
		if got := n.Peer(node).DB().Count(rel); got != 2 {
			t.Errorf("%s.%s has %d tuples, want 2", node, rel, got)
		}
	}
}

func TestTwoCycleWithDerivation(t *testing.T) {
	// The cycle computes transitive closure across two nodes: C derives
	// compositions of B pairs, B copies them back, repeat to fix-point.
	src := `
node B { rel b(x,y) }
node C { rel c(x,y) }
rule rc: B:b(X,Y), B:b(Y,Z) -> C:c(X,Z)
rule rb: C:c(X,Y) -> B:b(X,Y)
fact B:b('1','2')
fact B:b('2','3')
fact B:b('3','4')
fact B:b('4','5')
super B
`
	n := build(t, src, Options{})
	runAndValidate(t, n)
	// b must contain the full transitive closure of the chain minus the
	// 1-step pairs' closure subtleties: compositions of length >= 2 feed
	// back, so b = all pairs (i,j) with j > i reachable via >= 1 step.
	got := n.Peer("B").DB().Count("b")
	if got != 10 { // pairs (i,j), 1<=i<j<=5
		t.Fatalf("b has %d tuples, want 10", got)
	}
}

func TestPaperExampleFixpoint(t *testing.T) {
	def := rules.PaperExampleSeeded()
	n, err := Build(def, Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = n.Close() })
	runAndValidate(t, n)
}

func TestPaperExampleWithDelays(t *testing.T) {
	for _, seed := range []int64{1, 7, 1234} {
		def := rules.PaperExampleSeeded()
		n, err := Build(def, Options{Seed: seed, MaxDelay: 2 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		runAndValidate(t, n)
		_ = n.Close()
	}
}

func TestPaperExampleSynchronous(t *testing.T) {
	def := rules.PaperExampleSeeded()
	n, err := Build(def, Options{Synchronous: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = n.Close() })
	runAndValidate(t, n)
}

func TestPaperExampleDelta(t *testing.T) {
	def := rules.PaperExampleSeeded()
	n, err := Build(def, Options{Delta: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = n.Close() })
	runAndValidate(t, n)
}

func TestDiscoveryPathsMatchGraph(t *testing.T) {
	def := rules.PaperExample()
	n, err := Build(def, Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = n.Close() })
	if err := n.Discover(ctx(t)); err != nil {
		t.Fatal(err)
	}
	// After the super-peer's wave (plus lazy self-discoveries), every node
	// with rules knows its maximal dependency paths (Definitions 6–7).
	wantAll := map[string]int{"A": 4, "B": 4, "C": 6, "D": 4, "E": 0}
	// The closure flag set keeps only the confirmable subset: paths ending
	// at a dead end or cycling back to the node itself.
	wantConfirmable := map[string]int{"A": 3, "B": 4, "C": 6, "D": 2, "E": 0}
	for node, count := range wantAll {
		p := n.Peer(node)
		if node != "E" && !p.PathsReady() {
			t.Errorf("%s: paths not ready after discovery", node)
			continue
		}
		if got := len(p.AllMaximalPaths()); got != count {
			t.Errorf("%s: %d maximal paths, want %d", node, got, count)
		}
		if got := len(p.Paths()); got != wantConfirmable[node] {
			t.Errorf("%s: %d confirmable paths, want %d (%v)", node, got, wantConfirmable[node], p.Paths())
		}
	}
	// Discovered edges at the super-peer match the static dependency graph.
	edges := n.Peer("A").KnownEdges()
	if len(edges) != 7 {
		t.Errorf("A knows %d edges, want 7: %v", len(edges), edges)
	}
}

func TestExistentialsPropagate(t *testing.T) {
	src := `
node B { rel article(k,a) }
node C { rel pubinfo(k,a,y) }
rule rp: B:article(K,A) -> C:pubinfo(K,A,Y)
fact B:article('k1','alice')
fact B:article('k2','bob')
super C
`
	n := build(t, src, Options{})
	runAndValidate(t, n)
	rows := n.Peer("C").DB().Rel("pubinfo").Sorted()
	if len(rows) != 2 {
		t.Fatalf("pubinfo = %v", rows)
	}
	for _, r := range rows {
		if !r[2].IsNull() {
			t.Errorf("existential column should be a labelled null: %v", r)
		}
	}
}

func TestMultiSourceRuleJoinsAtHead(t *testing.T) {
	src := `
node A { rel merged(x,z) }
node B { rel b(x,y) }
node C { rel c(y,z) }
rule rm: B:b(X,Y), C:c(Y,Z), X <> Z -> A:merged(X,Z)
fact B:b('1','m')
fact B:b('2','n')
fact C:c('m','9')
fact C:c('n','2')
super A
`
	n := build(t, src, Options{})
	runAndValidate(t, n)
	rows, err := n.LocalQuery("A", "merged(X,Z)", []string{"X", "Z"})
	if err != nil {
		t.Fatal(err)
	}
	// ('1','9') joins and passes X<>Z; ('2','2') is filtered by X<>Z.
	if len(rows) != 1 || rows[0][0] != relalg.S("1") || rows[0][1] != relalg.S("9") {
		t.Fatalf("merged = %v", rows)
	}
}

func TestQueryDependentUpdate(t *testing.T) {
	src := `
node A { rel wanted(x)  rel ignored(x) }
node B { rel bsrc(x)  rel bother(x) }
node C { rel csrc(x) }
rule rw: B:bsrc(X) -> A:wanted(X)
rule ri: B:bother(X) -> A:ignored(X)
rule rb: C:csrc(X) -> B:bsrc(X)
fact B:bsrc('direct')
fact B:bother('noise')
fact C:csrc('deep')
super A
`
	n := build(t, src, Options{})
	// No global update: a scoped query-dependent update for wanted(X) must
	// pull bsrc transitively (through C) but not bother.
	rows, err := n.QueryDependentUpdate(ctx(t), "A", "wanted(X)", []string{"X"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("wanted = %v", rows)
	}
	if got := n.Peer("A").DB().Count("ignored"); got != 0 {
		t.Fatalf("scoped update leaked %d tuples into ignored", got)
	}
}

func TestDynamicAddLinkDuringRun(t *testing.T) {
	n := build(t, chainNet, Options{})
	runAndValidate(t, n)
	// Add a brand-new link C->A... (head A reads C directly) at runtime.
	if err := n.AddLink("rnew: C:c(X,Y) -> A:a(X,Y)"); err != nil {
		t.Fatal(err)
	}
	if err := n.Quiesce(ctx(t)); err != nil {
		t.Fatal(err)
	}
	if err := n.Update(ctx(t)); err != nil {
		t.Fatal(err)
	}
	// A must now also hold the unswapped pairs.
	rows, err := n.LocalQuery("A", "a(X,Y)", []string{"X", "Y"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("a = %v", rows)
	}
	if err := n.ValidateAgainstCentralized(); err == nil {
		t.Fatal("validation uses the ORIGINAL definition; adding the rule must diverge")
	}
}

func TestDynamicDeleteLinkStopsFutureImports(t *testing.T) {
	n := build(t, chainNet, Options{})
	runAndValidate(t, n)
	if err := n.DeleteLink("B", "rb"); err != nil {
		t.Fatal(err)
	}
	if err := n.Quiesce(ctx(t)); err != nil {
		t.Fatal(err)
	}
	before := n.Peer("B").DB().Count("b")
	// New source data must no longer flow to B.
	if err := n.Peer("C").Seed("c", relalg.Tuple{relalg.S("9"), relalg.S("9")}); err != nil {
		t.Fatal(err)
	}
	if err := n.Update(ctx(t)); err != nil {
		t.Fatal(err)
	}
	if got := n.Peer("B").DB().Count("b"); got != before {
		t.Fatalf("deleted rule still imports: %d -> %d", before, got)
	}
}

func TestSelfContainedNodeClosesImmediately(t *testing.T) {
	src := `
node A { rel a(x) }
node B { rel b(x) }
rule r: B:b(X) -> A:a(X)
fact B:b('1')
super A
`
	n := build(t, src, Options{})
	runAndValidate(t, n)
	if n.Peer("B").State() != peer.Closed {
		t.Error("leaf node must be closed")
	}
}

func TestUpdateIdempotent(t *testing.T) {
	n := build(t, chainNet, Options{})
	runAndValidate(t, n)
	first := n.Snapshot()
	// A second full update run must change nothing.
	if err := n.Update(ctx(t)); err != nil {
		t.Fatal(err)
	}
	second := n.Snapshot()
	for node, db := range first {
		if !db.Equal(second[node]) {
			t.Errorf("node %s changed across idempotent re-update", node)
		}
	}
}

func TestDisconnectedComponents(t *testing.T) {
	src := `
node A { rel a(x) }
node B { rel b(x) }
node X { rel x(v) }
node Y { rel y(v) }
rule r1: B:b(V) -> A:a(V)
rule r2: Y:y(V) -> X:x(V)
fact B:b('1')
fact Y:y('2')
super A
`
	n := build(t, src, Options{})
	if err := n.RunToFixpoint(ctx(t)); err != nil {
		t.Fatal(err)
	}
	// The StartUpdate flood travels over pipes, which exist only within
	// components; X/Y are in a separate component and are never activated,
	// so only A/B close. This mirrors the paper: the super-node reaches its
	// weakly connected component.
	if n.Peer("A").State() != peer.Closed || n.Peer("B").State() != peer.Closed {
		t.Error("A/B component must close")
	}
	if n.Peer("X").Activated() {
		t.Error("X must not be activated by A's wave")
	}
}

func TestDomainMapsEndToEnd(t *testing.T) {
	// The future-work extension of §2: a domain relation maps B's object
	// identifiers onto A's when data crosses the rule. Distributed and
	// centralised runs must agree (both translate before the chase step).
	src := `
node A { rel a(x,y) }
node B { rel b(x,y) }
node C { rel c(x,y) }
rule rb: C:c(X,Y) -> B:b(X,Y)
rule ra: B:b(X,Y) -> A:a(X,Y)
map B -> A { 'obj_b1' => 'obj_a1' }
map C -> B { 'raw1' => 'obj_b1' }
fact C:c('raw1', 'payload')
fact C:c('raw2', 'payload')
super A
`
	n := build(t, src, Options{})
	runAndValidate(t, n)
	rows, err := n.LocalQuery("A", "a(X,Y)", []string{"X"})
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]bool{}
	for _, r := range rows {
		got[r[0].Str()] = true
	}
	// raw1 -> obj_b1 at B, then obj_b1 -> obj_a1 at A; raw2 untouched.
	if !got["obj_a1"] || !got["raw2"] || got["raw1"] || got["obj_b1"] {
		t.Fatalf("translated identifiers wrong: %v", got)
	}
	// B holds the intermediate identifiers.
	bRows, err := n.LocalQuery("B", "b(X,Y)", []string{"X"})
	if err != nil {
		t.Fatal(err)
	}
	bGot := map[string]bool{}
	for _, r := range bRows {
		bGot[r[0].Str()] = true
	}
	if !bGot["obj_b1"] || bGot["raw1"] {
		t.Fatalf("B identifiers wrong: %v", bGot)
	}
}

func TestDiscoveryKnowledgeConvergence(t *testing.T) {
	// Invariant: at quiescence after discovery, every node with rules knows
	// exactly the edges of its reachable subgraph (gossip convergence along
	// request edges).
	def := rules.PaperExample()
	n, err := Build(def, Options{Seed: 5, MaxDelay: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = n.Close() })
	if err := n.Discover(ctx(t)); err != nil {
		t.Fatal(err)
	}
	full := graph.FromRules(def.Rules)
	for _, id := range n.Nodes() {
		p := n.Peer(id)
		if len(p.Rules()) == 0 {
			continue
		}
		want := full.ReachableSubgraph(id).Edges()
		got := p.KnownEdges()
		// got may be a superset (gossip shares sibling knowledge); the
		// invariant is got ⊇ want.
		gotSet := map[graph.Edge]bool{}
		for _, e := range got {
			gotSet[e] = true
		}
		for _, e := range want {
			if !gotSet[e] {
				t.Errorf("%s is missing reachable edge %v", id, e)
			}
		}
	}
}

func TestBroadcastReconfiguresTopology(t *testing.T) {
	n := build(t, chainNet, Options{})
	runAndValidate(t, n)
	// Replace rb (B<-C) with a direct A<-C rule via super-peer broadcast.
	newConfig := `
node A { rel a(x,y) }
node B { rel b(x,y) }
node C { rel c(x,y) }
rule ra: B:b(X,Y) -> A:a(Y,X)
rule rc: C:c(X,Y) -> A:a(X,Y)
super A
`
	if err := n.Broadcast(newConfig); err != nil {
		t.Fatal(err)
	}
	if err := n.Quiesce(ctx(t)); err != nil {
		t.Fatal(err)
	}
	if got := n.Peer("B").Rules(); len(got) != 0 {
		t.Fatalf("B should have lost its rule: %v", got)
	}
	if got := n.Peer("A").Rules(); len(got) != 2 {
		t.Fatalf("A rules = %v", got)
	}
	if err := n.Update(ctx(t)); err != nil {
		t.Fatal(err)
	}
	// A now holds swapped pairs (via ra, from the first run's B data) plus
	// direct pairs (via rc).
	rows, err := n.LocalQuery("A", "a(X,Y)", []string{"X", "Y"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("a = %v", rows)
	}
	if err := n.Broadcast("not a config"); err == nil {
		t.Error("malformed broadcast must error")
	}
}

func TestCollectStatsOverWire(t *testing.T) {
	n := build(t, chainNet, Options{})
	runAndValidate(t, n)
	reports, err := n.CollectStats(ctx(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 3 {
		t.Fatalf("reports = %v", reports)
	}
	for _, node := range []string{"A", "B", "C"} {
		if reports[node].TotalSent() == 0 {
			t.Errorf("%s report empty", node)
		}
	}
}
