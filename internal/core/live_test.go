package core

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/relalg"
	"repro/internal/stats"
	"repro/internal/transport"
	"repro/internal/workload"
)

// Tests for the live half of the network API: online writes through node
// handles, continuous-query watchers, and orchestration over transports
// without a global quiescence oracle.

// liveChainNet builds a 3-node copy chain C -> B -> A seeded with n facts
// at C.
func liveChainNet(n int) string {
	var sb strings.Builder
	sb.WriteString(`
node A { rel a(x,y) }
node B { rel b(x,y) }
node C { rel c(x,y) }
rule rb: C:c(X,Y) -> B:b(X,Y)
rule ra: B:b(X,Y) -> A:a(Y,X)
`)
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, "fact C:c('k%d','v%d')\n", i, i)
	}
	sb.WriteString("super A\n")
	return sb.String()
}

// drainWatcher accumulates every batch of a watcher into a key-set, for
// comparison against a final local query.
func drainWatcher(w *Watcher) chan map[string]bool {
	out := make(chan map[string]bool, 1)
	go func() {
		seen := map[string]bool{}
		for batch := range w.Out() {
			for _, t := range batch.Tuples {
				seen[t.Key()] = true
			}
		}
		out <- seen
	}()
	return out
}

func keySet(ts []relalg.Tuple) map[string]bool {
	out := make(map[string]bool, len(ts))
	for _, t := range ts {
		out[t.Key()] = true
	}
	return out
}

func diffKeys(got, want map[string]bool) string {
	var missing, extra []string
	for k := range want {
		if !got[k] {
			missing = append(missing, k)
		}
	}
	for k := range got {
		if !want[k] {
			extra = append(extra, k)
		}
	}
	sort.Strings(missing)
	sort.Strings(extra)
	return fmt.Sprintf("missing=%v extra=%v", missing, extra)
}

// TestInsertPropagatesIncrementally is the acceptance oracle for online
// writes: after the fix-point, one inserted tuple must reach every dependent
// through the standing subscriptions — shipping the delta, not the
// materialised result — and the network must still match the centralised
// fix-point of the grown fact set.
func TestInsertPropagatesIncrementally(t *testing.T) {
	n := build(t, liveChainNet(40), Options{Delta: true})
	runAndValidate(t, n)
	full := stats.Merge(n.Stats())
	n.ResetStats()

	added, err := n.Node("C").Insert(ctx(t), "c", relalg.Tuple{relalg.S("fresh"), relalg.S("x")})
	if err != nil {
		t.Fatal(err)
	}
	if added != 1 {
		t.Fatalf("added = %d, want 1", added)
	}
	if err := n.Quiesce(ctx(t)); err != nil {
		t.Fatal(err)
	}
	if err := n.ValidateAgainstCentralized(); err != nil {
		t.Fatalf("live insert diverged from the centralised fix-point: %v", err)
	}
	rows, err := n.LocalQuery("A", "a(X,Y)", []string{"X", "Y"})
	if err != nil {
		t.Fatal(err)
	}
	if !keySet(rows)[relalg.Tuple{relalg.S("x"), relalg.S("fresh")}.Key()] {
		t.Fatal("the inserted tuple did not reach A")
	}

	inc := stats.Merge(n.Stats())
	// One local insert plus one import per dependent: the shipped volume
	// tracks the delta.
	if inc.TuplesInserted != 3 {
		t.Errorf("incremental run inserted %d tuples, want 3 (1 local + 2 imports)", inc.TuplesInserted)
	}
	if inc.BytesSent*5 >= full.BytesSent {
		t.Errorf("incremental propagation shipped %d bytes; full run shipped %d — not a delta",
			inc.BytesSent, full.BytesSent)
	}

	// A malformed batch is rejected all-or-nothing: nothing is written, no
	// fact is recorded, and the centralised oracle still matches.
	if _, err := n.Node("C").Insert(ctx(t), "c",
		relalg.Tuple{relalg.S("half")},
		relalg.Tuple{relalg.S("a"), relalg.S("b")}); err == nil {
		t.Fatal("arity-mismatched batch must fail")
	}
	if err := n.Quiesce(ctx(t)); err != nil {
		t.Fatal(err)
	}
	if err := n.ValidateAgainstCentralized(); err != nil {
		t.Fatalf("rejected batch broke the oracle: %v", err)
	}

	// A second insert of the same tuple is a no-op end to end.
	n.ResetStats()
	added, err = n.Node("C").Insert(ctx(t), "c", relalg.Tuple{relalg.S("fresh"), relalg.S("x")})
	if err != nil {
		t.Fatal(err)
	}
	if added != 0 {
		t.Fatalf("duplicate insert added %d", added)
	}
	if err := n.Quiesce(ctx(t)); err != nil {
		t.Fatal(err)
	}
	if got := stats.Merge(n.Stats()).TuplesInserted; got != 0 {
		t.Errorf("duplicate insert caused %d inserts downstream", got)
	}
}

// TestWatchStreamsDeltas pins the watcher contract on a deterministic run:
// the first batch is the current result, later batches are exactly the newly
// derived tuples, the stream closes after Close, and the union equals the
// final local result.
func TestWatchStreamsDeltas(t *testing.T) {
	n := build(t, liveChainNet(4), Options{Delta: true})
	w, err := n.Node("A").Watch("a(X,Y)", []string{"X", "Y"})
	if err != nil {
		t.Fatal(err)
	}
	streamed := drainWatcher(w)

	runAndValidate(t, n)
	if _, err := n.Node("C").Insert(ctx(t), "c", relalg.Tuple{relalg.S("k9"), relalg.S("v9")}); err != nil {
		t.Fatal(err)
	}
	if err := n.Quiesce(ctx(t)); err != nil {
		t.Fatal(err)
	}
	w.Close()
	got := <-streamed
	rows, err := n.LocalQuery("A", "a(X,Y)", []string{"X", "Y"})
	if err != nil {
		t.Fatal(err)
	}
	want := keySet(rows)
	if len(got) != len(want) || diffKeys(got, want) != "missing=[] extra=[]" {
		t.Fatalf("watch stream diverges from the local result: %s", diffKeys(got, want))
	}
	if len(want) != 5 {
		t.Fatalf("final result = %d rows, want 5", len(want))
	}
	// Watch on an unknown node errors through the nil handle.
	if _, err := n.Node("nope").Watch("a(X,Y)", nil); err == nil {
		t.Fatal("watch at unknown node must fail")
	}
	if _, err := n.Node("nope").Insert(ctx(t), "a"); err == nil {
		t.Fatal("insert at unknown node must fail")
	}
	// A doomed continuous query must be rejected at registration, not
	// register and stream nothing forever.
	if _, err := n.Node("A").Watch("a(X,Y)", []string{"Z"}); err == nil {
		t.Fatal("watch with an unbound output variable must fail")
	}
	if _, err := n.Node("A").Watch("nosuch(X)", []string{"X"}); err == nil {
		t.Fatal("watch over an undeclared relation must fail")
	}
}

// TestWatcherOracleAdversarial is the satellite oracle: under Delta +
// SemiNaive with adversarial message delays, across online inserts and
// AddLink/DeleteLink, the accumulated watch deltas must equal the final
// LocalQuery result at fix-point — every derived tuple streamed exactly
// once, none lost, none invented.
func TestWatcherOracleAdversarial(t *testing.T) {
	const src = `
node A { rel a(x,y) }
node B { rel b(x,y) }
node C { rel c(x,y) }
rule rab: B:b(X,Y) -> A:a(X,Y)
rule rbc: C:c(X,Y) -> B:b(X,Y)
rule rca: A:a(X,Y) -> C:c(X,Y)
fact B:b('s1','s2')
fact C:c('s3','s4')
super A
`
	for _, seed := range []int64{1, 7} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			n := build(t, src, Options{Delta: true, Seed: seed, MaxDelay: 2 * time.Millisecond})
			w, err := n.Node("A").Watch("a(X,Y)", []string{"X", "Y"})
			if err != nil {
				t.Fatal(err)
			}
			streamed := drainWatcher(w)

			if err := n.RunToFixpoint(ctx(t)); err != nil {
				t.Fatal(err)
			}
			// Topology change 1: a join rule gives A new derivations from B.
			if err := n.AddLink("rx: B:b(X,Y), B:b(Y,Z) -> A:a(X,Z)"); err != nil {
				t.Fatal(err)
			}
			if _, err := n.Node("B").Insert(ctx(t), "b",
				relalg.Tuple{relalg.S("s2"), relalg.S("s5")},
				relalg.Tuple{relalg.S("s5"), relalg.S("s6")}); err != nil {
				t.Fatal(err)
			}
			if err := n.Quiesce(ctx(t)); err != nil {
				t.Fatal(err)
			}
			// Topology change 2: drop the join rule again (monotone model:
			// already-imported data stays) and keep inserting.
			if err := n.DeleteLink("A", "rx"); err != nil {
				t.Fatal(err)
			}
			if _, err := n.Node("C").Insert(ctx(t), "c",
				relalg.Tuple{relalg.S("s7"), relalg.S("s8")}); err != nil {
				t.Fatal(err)
			}
			if err := n.Quiesce(ctx(t)); err != nil {
				t.Fatal(err)
			}
			if err := n.Update(ctx(t)); err != nil { // settle closure after the churn
				t.Fatal(err)
			}

			w.Close()
			got := <-streamed
			rows, err := n.LocalQuery("A", "a(X,Y)", []string{"X", "Y"})
			if err != nil {
				t.Fatal(err)
			}
			want := keySet(rows)
			if diffKeys(got, want) != "missing=[] extra=[]" {
				t.Fatalf("accumulated watch deltas diverge from the fix-point result: %s",
					diffKeys(got, want))
			}
		})
	}
}

// TestSyncQuiesceHonorsCancel: the synchronous driver must check the
// context between BSP rounds instead of spinning uninterruptibly.
func TestSyncQuiesceHonorsCancel(t *testing.T) {
	n := build(t, liveChainNet(2), Options{Synchronous: true})
	n.Peer(n.Super()).StartUpdateWave()
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if err := n.Quiesce(cancelled); err == nil {
		t.Fatal("quiesce with a cancelled context must fail")
	}
	// A live context still drives the buffered rounds to completion.
	if err := n.Quiesce(ctx(t)); err != nil {
		t.Fatal(err)
	}
	if err := n.Update(ctx(t)); err != nil {
		t.Fatal(err)
	}
	if err := n.ValidateAgainstCentralized(); err != nil {
		t.Fatal(err)
	}
}

// TestCrossTransportOracle: the same workload must reach the identical
// fix-point over the in-memory router and over real TCP sockets — the
// protocol needs nothing beyond reliable point-to-point messaging, and the
// polling fallback detects termination without a global oracle.
func TestCrossTransportOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("TCP mesh run skipped in -short mode")
	}
	spec := workload.DataSpec{RecordsPerNode: 6, Seed: 3, Style: workload.StyleMixed}
	defMem, err := workload.Generate(workload.Tree(3, 2), spec)
	if err != nil {
		t.Fatal(err)
	}
	mem, err := Build(defMem, Options{Delta: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = mem.Close() })
	if err := mem.RunToFixpoint(ctx(t)); err != nil {
		t.Fatal(err)
	}
	if err := mem.ValidateAgainstCentralized(); err != nil {
		t.Fatal(err)
	}

	defTCP, err := workload.Generate(workload.Tree(3, 2), spec)
	if err != nil {
		t.Fatal(err)
	}
	tcp, err := Build(defTCP, Options{Delta: true, Transport: transport.NewTCPMesh("127.0.0.1:0")})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = tcp.Close() })
	if tcp.faults() != nil {
		t.Fatal("the TCP mesh must not advertise fault injection")
	}
	if err := tcp.RunToFixpoint(ctx(t)); err != nil {
		t.Fatal(err)
	}

	for _, id := range mem.Nodes() {
		a, b := mem.Peer(id).DB(), tcp.Peer(id).DB()
		if !a.Equal(b) {
			t.Fatalf("node %s diverges across transports:\n mem: %s\n tcp: %s",
				id, a.Dump(), b.Dump())
		}
	}
}
