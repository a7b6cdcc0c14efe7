package core

import (
	"context"
	"fmt"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/relalg"
	"repro/internal/rules"
	"repro/internal/stats"
	"repro/internal/wal"
	"repro/internal/workload"
)

func mustParse(t *testing.T, text string) *rules.Network {
	t.Helper()
	def, err := rules.ParseNetwork(text)
	if err != nil {
		t.Fatal(err)
	}
	return def
}

// Durability tests: a network built with DataDir must survive clean restarts
// (resuming standing subscriptions delta-only from persisted marks) and
// crashes (recovering a prefix and re-converging to the oracle fix-point).

// durableChainDef builds a 3-node copy chain C -> B -> A with n facts at C
// plus a multi-source rule at A joining B and D — the rule whose correctness
// across restarts depends on persisted part results.
func durableChainDef(n int) string {
	var sb strings.Builder
	sb.WriteString(`
node A { rel a(x,y) rel m(x,z) }
node B { rel b(x,y) }
node C { rel c(x,y) }
node D { rel d(x,y) }
rule rb: C:c(X,Y) -> B:b(X,Y)
rule ra: B:b(X,Y) -> A:a(Y,X)
rule rm: B:b(X,Y), D:d(Y,Z) -> A:m(X,Z)
super A
`)
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, "fact C:c('k%d','v%d')\n", i, i)
	}
	sb.WriteString("fact D:d('v0','z0')\n")
	sb.WriteString("fact D:d('v1','z1')\n")
	return sb.String()
}

func buildDurable(t *testing.T, text, dir string, fsync wal.FsyncPolicy) *Network {
	t.Helper()
	def := mustParse(t, text)
	n, err := Build(def, Options{Delta: true, DataDir: dir, Fsync: fsync})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func runToFixpoint(t *testing.T, n *Network) stats.Snapshot {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := n.RunToFixpoint(ctx); err != nil {
		t.Fatal(err)
	}
	if err := n.ValidateAgainstCentralized(); err != nil {
		t.Fatal(err)
	}
	return stats.Merge(n.Stats())
}

// TestDurableCloseRebuildValidates: a network with DataDir can be closed and
// rebuilt from disk; the rebuilt databases already hold the fix-point
// (ValidateAgainstCentralized passes before any new update runs).
func TestDurableCloseRebuildValidates(t *testing.T) {
	dir := t.TempDir()
	text := durableChainDef(30)
	n := buildDurable(t, text, dir, wal.FsyncInterval)
	runToFixpoint(t, n)
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}

	n2 := buildDurable(t, text, dir, wal.FsyncInterval)
	defer n2.Close()
	if err := n2.ValidateAgainstCentralized(); err != nil {
		t.Fatalf("rebuilt network does not hold the fix-point: %v", err)
	}
	// Re-running the update on recovered state must stay at the fix-point.
	runToFixpoint(t, n2)
}

// TestDurableRestartIsDeltaOnly asserts the marks story with message
// accounting: a clean restart re-answers from the persisted acked frontiers
// (near-empty answers), and — since the acknowledgment handshake (AnswerAck)
// made those frontiers trustworthy after power loss too — a crash restart
// stays delta-only under EVERY fsync policy, instead of re-shipping the full
// result sets as it did before the handshake. FsyncAlways earns this by
// syncing each append; FsyncNever earns it through the sync-point group
// commit that gates every acknowledgment, so routine appends never fsync yet
// acked frontiers still never claim more than the disk holds.
func TestDurableRestartIsDeltaOnly(t *testing.T) {
	text := durableChainDef(120)

	// Clean shutdown, then rebuild and re-run.
	cleanDir := t.TempDir()
	n := buildDurable(t, text, cleanDir, wal.FsyncNever)
	first := runToFixpoint(t, n)
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	n2 := buildDurable(t, text, cleanDir, wal.FsyncNever)
	cleanRestart := runToFixpoint(t, n2)
	if err := n2.Close(); err != nil {
		t.Fatal(err)
	}

	// Crash after the fix-point (no clean-close record — only what the
	// policy's appends and ack-gating sync points made durable), then
	// rebuild and re-run, for both ends of the fsync spectrum.
	for _, fsync := range []wal.FsyncPolicy{wal.FsyncAlways, wal.FsyncNever} {
		crashDir := t.TempDir()
		c := buildDurable(t, text, crashDir, fsync)
		crashFirst := runToFixpoint(t, c)
		if err := c.Crash(); err != nil {
			t.Fatal(err)
		}
		c2 := buildDurable(t, text, crashDir, fsync)
		crashRestart := runToFixpoint(t, c2)
		if err := c2.Close(); err != nil {
			t.Fatal(err)
		}
		if crashRestart.BytesSent >= crashFirst.BytesSent/2 {
			t.Fatalf("fsync=%v: crash restart shipped %d bytes, first run %d: acked frontiers did not keep re-answering delta-only",
				fsync, crashRestart.BytesSent, crashFirst.BytesSent)
		}
	}

	if cleanRestart.BytesSent >= first.BytesSent/2 {
		t.Fatalf("clean restart shipped %d bytes, first run %d: marks did not keep re-answering delta-only",
			cleanRestart.BytesSent, first.BytesSent)
	}
}

// TestCrashRestartResendsExactlyUnacked opens the lost-delta window on
// purpose and asserts the handshake closes it with a delta, not a flood:
// with B partitioned away, every delta C evaluates for B's subscription
// advances the in-flight marks while the send silently vanishes, so the
// acked frontier stays behind. After a crash restart the epoch re-pull must
// re-send exactly the unacknowledged suffix — the partition-window facts and
// their consequences, nothing else — and re-converge to the centralised
// fix-point (before the handshake, those tuples were simply lost until a
// full-epoch pull).
func TestCrashRestartResendsExactlyUnacked(t *testing.T) {
	if testing.Short() {
		t.Skip("partition+crash matrix runs two full fix-points; skipped in -short mode")
	}
	dir := t.TempDir()
	// Enough facts that result bytes dominate the fixed per-epoch protocol
	// overhead (discovery, queries, acks) the ratio check must see through.
	text := durableChainDef(200)
	n := buildDurable(t, text, dir, wal.FsyncAlways)
	first := runToFixpoint(t, n)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	n.faults().Partition("B", "C")
	const lost = 5
	var extraFacts strings.Builder
	for i := 0; i < lost; i++ {
		x, y := fmt.Sprintf("px%d", i), fmt.Sprintf("py%d", i)
		if _, err := n.Node("C").Insert(ctx, "c", relalg.Tuple{relalg.S(x), relalg.S(y)}); err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&extraFacts, "fact C:c('%s','%s')\n", x, y)
	}
	if err := n.Quiesce(ctx); err != nil {
		t.Fatal(err)
	}
	// Sanity: the window is real — B must be missing the partition tuples.
	if got := n.Peer("B").DB().Count("b"); got != 200 {
		t.Fatalf("B holds %d b-tuples during the partition, want 200", got)
	}
	if err := n.Crash(); err != nil {
		t.Fatal(err)
	}

	// Rebuild (the definition now lists the runtime facts too, so the
	// centralised baseline expects them; seeding them again is a no-op on
	// the recovered database).
	n2 := buildDurable(t, text+extraFacts.String(), dir, wal.FsyncAlways)
	crashRestart := runToFixpoint(t, n2) // includes ValidateAgainstCentralized
	defer n2.Close()

	// Exactly the unacked tuples: the lost c-deltas imply one b-tuple at B
	// and one a-tuple at A each (their y-values join nothing in d), and
	// nothing else in the network is re-materialised.
	if crashRestart.TuplesInserted != 2*lost {
		t.Fatalf("crash restart materialised %d tuples, want exactly %d (the unacked window)",
			crashRestart.TuplesInserted, 2*lost)
	}
	if crashRestart.BytesSent >= first.BytesSent/3 {
		t.Fatalf("crash restart shipped %d bytes vs %d for the full run: re-send was not delta-only",
			crashRestart.BytesSent, first.BytesSent)
	}
}

// TestDurableRestartResumesLiveSubscriptions: after a clean restart, a fresh
// online insert flows through the restored standing subscriptions — and the
// multi-source rule still joins against part results recovered from disk.
func TestDurableRestartResumesLiveSubscriptions(t *testing.T) {
	dir := t.TempDir()
	text := durableChainDef(10)
	n := buildDurable(t, text, dir, wal.FsyncInterval)
	runToFixpoint(t, n)
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}

	n2 := buildDurable(t, text, dir, wal.FsyncInterval)
	defer n2.Close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := n2.RunToFixpoint(ctx); err != nil {
		t.Fatal(err)
	}
	n2.ResetStats()
	// d('v3','z3') joins the restored part tuples of b (X='k3', Y='v3'):
	// without recovered parts the old-b x new-d combination would be lost.
	if _, err := n2.Node("D").Insert(ctx, "d", relalg.Tuple{relalg.S("v3"), relalg.S("z3")}); err != nil {
		t.Fatal(err)
	}
	if err := n2.Quiesce(ctx); err != nil {
		t.Fatal(err)
	}
	if err := n2.ValidateAgainstCentralized(); err != nil {
		t.Fatal(err)
	}
	rows, err := n2.LocalQuery("A", "m('k3',Z)", []string{"Z"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0][0].Str() != "z3" {
		t.Fatalf("multi-source join across restart: got %v, want [z3]", rows)
	}
	// Delta accounting: the insert implied exactly one new m-tuple at A.
	agg := stats.Merge(n2.Stats())
	if agg.TuplesInserted != 2 { // d at D (local) + m at A (imported)
		t.Fatalf("post-restart insert materialised %d tuples, want 2", agg.TuplesInserted)
	}
}

// TestSingleSourceRuleRecordsNoParts: a rule with one source keeps no part
// history, so a durable head logs an imported tuple once (the insert), not
// twice; the multi-source rule beside it still records its parts. After a
// crash the rebuilt network holds and re-converges to the referee's fix-point
// — also from a DataDir that does carry part records for single-source
// rules, which is what every build before this one wrote.
func TestSingleSourceRuleRecordsNoParts(t *testing.T) {
	dir := t.TempDir()
	text := durableChainDef(40)
	n := buildDurable(t, text, dir, wal.FsyncAlways)
	runToFixpoint(t, n)
	if err := n.Crash(); err != nil {
		t.Fatal(err)
	}
	partTuples := func() map[string]int {
		t.Helper()
		out := map[string]int{}
		for _, node := range []string{"A", "B", "C", "D"} {
			rec, err := wal.Inspect(filepath.Join(dir, node))
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range rec.State.Parts {
				out[node+" "+p.RuleID+" "+p.Part] += len(p.Tuples)
			}
		}
		return out
	}
	wantParts := map[string]int{"A rm B": 40, "A rm D": 2}
	if got := partTuples(); !reflect.DeepEqual(got, wantParts) {
		t.Fatalf("part records after the crash = %v, want only the multi-source rule's: %v", got, wantParts)
	}

	// An older build's leftovers: part records for the single-source rules.
	for node, pd := range map[string]wal.PartState{
		"B": {RuleID: "rb", Part: "C", Cols: []string{"X", "Y"}, Tuples: []relalg.Tuple{{relalg.S("k0"), relalg.S("v0")}, {relalg.S("k1"), relalg.S("v1")}}},
		"A": {RuleID: "ra", Part: "B", Cols: []string{"Y", "X"}, Tuples: []relalg.Tuple{{relalg.S("v0"), relalg.S("k0")}}},
	} {
		st, _, err := wal.Open(filepath.Join(dir, node), wal.Options{Fsync: wal.FsyncAlways})
		if err != nil {
			t.Fatal(err)
		}
		if err := st.AppendParts(pd); err != nil {
			t.Fatal(err)
		}
		if err := st.Sync(); err != nil {
			t.Fatal(err)
		}
		st.Abort()
	}
	if got := partTuples(); got["B rb C"] != 2 || got["A ra B"] != 1 {
		t.Fatalf("the old-format part records did not land: %v", got)
	}

	n2 := buildDurable(t, text, dir, wal.FsyncAlways)
	if err := n2.ValidateAgainstCentralized(); err != nil {
		t.Fatalf("rebuilt network does not hold the fix-point: %v", err)
	}
	runToFixpoint(t, n2)
	if err := n2.Close(); err != nil {
		t.Fatal(err)
	}
	if got := partTuples(); !reflect.DeepEqual(got, wantParts) {
		t.Fatalf("part records after a clean close = %v, want %v", got, wantParts)
	}
}

// TestDurableCrashMidUpdateRecovers kills the network in the middle of the
// update wave; the rebuilt network must recover a consistent prefix and
// re-converge to the same fix-point as an uninterrupted run.
func TestDurableCrashMidUpdateRecovers(t *testing.T) {
	if testing.Short() {
		t.Skip("crash mid-update runs several fix-points; skipped in -short mode")
	}
	text := durableChainDef(60)
	for trial := 0; trial < 3; trial++ {
		dir := t.TempDir()
		def := mustParse(t, text)
		n, err := Build(def, Options{
			Delta: true, DataDir: dir, Fsync: wal.FsyncAlways,
			Seed: int64(trial), MaxDelay: 500 * time.Microsecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		done := make(chan error, 1)
		go func() { done <- n.RunToFixpoint(ctx) }()
		time.Sleep(time.Duration(1+trial*3) * time.Millisecond) // mid-wave
		_ = n.Crash()
		<-done // the interrupted run may or may not report an error; either way it is dead
		cancel()

		n2 := buildDurable(t, text, dir, wal.FsyncAlways)
		runToFixpoint(t, n2) // includes ValidateAgainstCentralized
		if err := n2.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestDurableSchemaConflictRefusesToOpen: rebuilding over a data directory
// whose recovered schemas contradict the definition must fail loudly, not
// silently alias columns.
func TestDurableSchemaConflictRefusesToOpen(t *testing.T) {
	dir := t.TempDir()
	n := buildDurable(t, "node A { rel a(x,y) }\nfact A:a('1','2')\nsuper A\n", dir, wal.FsyncInterval)
	runToFixpoint(t, n)
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	def := mustParse(t, "node A { rel a(x,zzz) }\nsuper A\n")
	if _, err := Build(def, Options{DataDir: dir}); err == nil {
		t.Fatal("conflicting recovered schema must refuse to build")
	}
}

// TestDurableFailedBuildStaysUnclean: a Build that opens the stores of a
// crashed network and then fails must leave them unclean — closing them
// cleanly would write the recovered (distrusted) marks into a clean-close
// record, and the next successful Build would trust marks whose answers the
// original crash may have lost.
func TestDurableFailedBuildStaysUnclean(t *testing.T) {
	dir := t.TempDir()
	text := durableChainDef(10)
	n := buildDurable(t, text, dir, wal.FsyncAlways)
	runToFixpoint(t, n)
	if err := n.Crash(); err != nil {
		t.Fatal(err)
	}
	// A rebuild that fails after opening the stores (schema conflict at B).
	bad := mustParse(t, strings.Replace(text, "node B { rel b(x,y) }", "node B { rel b(x,zzz) }", 1))
	if _, err := Build(bad, Options{Delta: true, DataDir: dir, Fsync: wal.FsyncAlways}); err == nil {
		t.Fatal("conflicting rebuild must fail")
	}
	for _, node := range []string{"A", "B", "C", "D"} {
		rec, err := wal.Inspect(filepath.Join(dir, node))
		if err != nil {
			t.Fatal(err)
		}
		if rec.Clean {
			t.Fatalf("node %s: failed Build laundered the crash into a clean close", node)
		}
	}
	// The original definition still rebuilds and re-converges.
	n2 := buildDurable(t, text, dir, wal.FsyncAlways)
	runToFixpoint(t, n2)
	if err := n2.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestRebuiltCliqueClosesUnprobed is the statistical twin of
// TestPinnedSchedulesCloseUnprobed on the real in-memory router: a clique
// brought to its fix-point, crashed and rebuilt from its DataDir re-discovers
// inside the next update epoch while every re-sent answer is a duplicate —
// the wave that used to settle with two nodes open about once in fifty. Every
// rebuilt wave must close by itself: no error, no probe round. The deadline
// is per round: one budget for all 300 ran out at round 296 under -race with
// two test processes sharing two cores, a slow machine rather than a hang.
func TestRebuiltCliqueClosesUnprobed(t *testing.T) {
	if testing.Short() {
		t.Skip("300 crash/rebuild rounds skipped in -short mode")
	}
	def, err := workload.Generate(workload.Clique(4), workload.DataSpec{RecordsPerNode: 40, Seed: 1, Style: workload.StyleCopy})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		opts := Options{Delta: true, DataDir: filepath.Join(t.TempDir(), "data")}
		n, err := Build(def, opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := n.RunToFixpoint(ctx); err != nil {
			t.Fatalf("round %d: first fix-point: %v", i, err)
		}
		if err := n.Crash(); err != nil {
			t.Fatal(err)
		}
		n, err = Build(def, opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := n.Update(ctx); err != nil {
			t.Fatalf("round %d: rebuilt update: %v", i, err)
		}
		if got := n.probeRounds.Load(); got != 0 {
			t.Fatalf("round %d: the rebuilt wave needed %d probe round(s)", i, got)
		}
		if err := n.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
