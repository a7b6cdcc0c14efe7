package core

import (
	"context"
	"fmt"
	"sort"
	"testing"
	"time"

	"repro/internal/relalg"
	"repro/internal/wal"
	"repro/internal/workload"
)

// Batched wire protocol tests: the batcher is an optimisation, so batched and
// unbatched networks must be observationally identical — same fix-point
// databases, same durable subscription structure, and durable frontiers that
// never run ahead of their source relations — even under fault injection
// (seeded delivery reorder plus a transient partition).

// TestBuildRejectsResendWithoutDelta pins the configuration contract: the
// resend loop re-ships unacknowledged deltas from the acked frontiers, which
// only Delta maintains. Before this check the
// option was silently accepted and silently inert.
func TestBuildRejectsResendWithoutDelta(t *testing.T) {
	text := "node A { rel a(x,y) }\nnode B { rel b(x,y) }\nrule r: A:a(X,Y) -> B:b(X,Y)\nsuper A\n"

	def := mustParse(t, text)
	if _, err := Build(def, Options{ResendEvery: time.Second}); err == nil {
		t.Fatal("ResendEvery without Delta must be rejected")
	}
	def = mustParse(t, text)
	n, err := Build(def, Options{Delta: true, ResendEvery: time.Second})
	if err != nil {
		t.Fatalf("ResendEvery with Delta must build: %v", err)
	}
	_ = n.Close()
}

// frontierKey renders one subscription's identity — dependent, rule, epoch,
// primed — without its mark positions. The resting *position* of the durable
// frontier at a quiescent point is legitimately timing-dependent in every
// mode: a subscription whose data all arrived inside the priming answer never
// ships a sequence-carrying delta, so nothing acknowledges it and its
// frontier rests empty, while a run where the same data arrived as deltas
// acknowledges all of it. Equivalence therefore compares structure, and
// safety (below) bounds the positions.
func frontierKey(ss wal.SubState) string {
	return fmt.Sprintf("%s/%s epoch=%d primed=%v", ss.Dependent, ss.RuleID, ss.Epoch, ss.Primed)
}

// equivalenceRun executes one leg of the batched-vs-unbatched oracle: a ring
// fix-point, an online write burst (with or without faults around it), a
// re-pull, and validation — returning byte-exact database dumps and rendered
// durable frontiers. The durable backend (FsyncNever) makes the frontier
// half meaningful: acks are gated on sync-point group commits, so
// ackedDurable advances in both legs.
func equivalenceRun(t *testing.T, window time.Duration, faults bool) (map[string]string, map[string][]string) {
	t.Helper()
	def, err := workload.Generate(workload.Ring(5), workload.DataSpec{
		RecordsPerNode: 8, Seed: 3, Style: workload.StyleCopy,
	})
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{
		Seed: 7, Delta: true,
		BatchWindow: window, DataDir: t.TempDir(), Fsync: wal.FsyncNever,
	}
	if faults {
		opts.MaxDelay = 500 * time.Microsecond // seeded delivery reorder
	}
	n, err := Build(def, opts)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := n.RunToFixpoint(ctx); err != nil {
		t.Fatal(err)
	}
	// Online burst; under faults, a partition across the ring drops the
	// N01 <-> N02 answers and acks while the writes land, and the heal +
	// re-pull must close the gap.
	if faults {
		n.faults().Partition("N01", "N02")
	}
	for i := 0; i < 10; i++ {
		key := fmt.Sprintf("conf/p2pdb/eq-%d", i)
		if _, err := n.Node("N00").Insert(ctx, "pub", relalg.Tuple{relalg.S(key), relalg.S("t"), relalg.I(2004)}); err != nil {
			t.Fatal(err)
		}
		if _, err := n.Node("N00").Insert(ctx, "wrote", relalg.Tuple{relalg.S("a"), relalg.S(key)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := n.Quiesce(ctx); err != nil {
		t.Fatal(err)
	}
	if faults {
		n.faults().Heal("N01", "N02")
	}
	if err := n.RunToFixpoint(ctx); err != nil {
		t.Fatal(err)
	}
	if err := n.ValidateAgainstCentralized(); err != nil {
		t.Fatalf("window=%v: %v", window, err)
	}
	snap := n.Snapshot()
	dumps := map[string]string{}
	for node, db := range snap {
		dumps[node] = db.Dump()
	}
	// Collect structural frontier keys and check the safety invariant: a
	// durable acknowledgment frontier that ran AHEAD of its source relation
	// would make a restarted source skip tuples, so every recorded mark must
	// be covered by the relation's final sequence number.
	fronts := map[string][]string{}
	for _, id := range n.Nodes() {
		for _, ss := range n.Peer(id).DurableSubs() {
			fronts[id] = append(fronts[id], frontierKey(ss))
			rels := make([]string, 0, len(ss.Marks))
			for rel := range ss.Marks {
				rels = append(rels, rel)
			}
			src := snap[id].MarksFor(rels)
			for rel, seq := range ss.Marks {
				if seq > src[rel] {
					t.Errorf("window=%v node %s sub %s/%s: durable frontier %s=%d ahead of source seq %d",
						window, id, ss.Dependent, ss.RuleID, rel, seq, src[rel])
				}
			}
		}
		sort.Strings(fronts[id])
	}
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	return dumps, fronts
}

// compareLegs asserts the cross-leg oracle: byte-identical fix-point
// databases on every node and structurally identical durable subscription
// sets (same dependents, rules, epochs, primed flags).
func compareLegs(t *testing.T, baseDumps, batchDumps map[string]string, baseFronts, batchFronts map[string][]string) {
	t.Helper()
	for node, dump := range baseDumps {
		if batchDumps[node] != dump {
			t.Errorf("node %s: fix-point diverged under batching\nunbatched:\n%s\nbatched:\n%s",
				node, dump, batchDumps[node])
		}
	}
	for node, fronts := range baseFronts {
		got := batchFronts[node]
		if len(got) != len(fronts) {
			t.Fatalf("node %s: %d durable subs batched vs %d unbatched", node, len(got), len(fronts))
		}
		for i := range fronts {
			if got[i] != fronts[i] {
				t.Errorf("node %s: durable subscription diverged under batching:\nunbatched: %s\nbatched:   %s",
					node, fronts[i], got[i])
			}
		}
	}
}

// TestBatchedEquivalenceUnderFaults runs the same cyclic workload twice —
// one frame per message and under a batch window — with seeded delivery
// reorder and a transient partition in the middle of an online write burst,
// then asserts identical fix-points and frontier structure. Per-leg frontier
// safety (no durable mark ahead of its source relation) is checked inside
// equivalenceRun.
func TestBatchedEquivalenceUnderFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("two faulted fix-points with write bursts; skipped in -short mode")
	}
	baseDumps, baseFronts := equivalenceRun(t, 0, true)
	batchDumps, batchFronts := equivalenceRun(t, 2*time.Millisecond, true)
	compareLegs(t, baseDumps, batchDumps, baseFronts, batchFronts)
}

// TestBatchedFrontierEquivalence is the fault-free variant: with reliable
// in-order delivery the same oracle must hold without any partition or
// reorder masking a batching defect.
func TestBatchedFrontierEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("two fix-points with write bursts; skipped in -short mode")
	}
	baseDumps, baseFronts := equivalenceRun(t, 0, false)
	batchDumps, batchFronts := equivalenceRun(t, 2*time.Millisecond, false)
	compareLegs(t, baseDumps, batchDumps, baseFronts, batchFronts)
}
