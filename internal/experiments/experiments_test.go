package experiments

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

var quick = Config{RecordsPerNode: 12, Seed: 1, Timeout: 60 * time.Second}

func TestE1TableMatchesPaper(t *testing.T) {
	r, err := E1PathsTable()
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(r.Table, "\tNO\n") {
		t.Fatalf("computed paths disagree with the §2 table:\n%s", r.Table)
	}
	for _, path := range []string{"ABCDA", "BCDAB", "CDABE", "DABCD"} {
		if !strings.Contains(r.Table, path) {
			t.Errorf("path %s missing from table:\n%s", path, r.Table)
		}
	}
}

func TestE2TraceHasBothPhases(t *testing.T) {
	r, err := E2Figure1Trace(quick)
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []string{"requestNodes", "query", "answer"} {
		if !strings.Contains(r.Table, kind) {
			t.Errorf("chart missing %s:\n%s", kind, r.Table)
		}
	}
	if !strings.HasPrefix(r.Table, ":A") {
		t.Errorf("chart header wrong:\n%s", r.Table)
	}
}

func TestE3TreeRowsPresent(t *testing.T) {
	r, err := E3TreeDepth(quick)
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(r.Table, "\n"); got < 6 {
		t.Fatalf("expected 5 depth rows:\n%s", r.Table)
	}
}

func TestE5CliqueDuplicatesCounted(t *testing.T) {
	if testing.Short() {
		t.Skip("clique sweep runs at fix-point cost; skipped in -short mode")
	}
	r, err := E5Clique(quick)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(r.Table, "dup_answers") {
		t.Fatalf("table:\n%s", r.Table)
	}
}

func TestE8AllSeedsHold(t *testing.T) {
	r, err := E8DynamicFinite(quick)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(r.Table, "VIOLATED") {
		t.Fatalf("Definition 9 violated:\n%s", r.Table)
	}
}

func TestE10DeltaSaves(t *testing.T) {
	r, err := E10Delta(quick)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(r.Table, "bytes saved") {
		t.Fatalf("table:\n%s", r.Table)
	}
	// The saving figure must be positive.
	if strings.Contains(r.Table, "saved by delta:\t-") {
		t.Fatalf("delta increased bytes:\n%s", r.Table)
	}
}

func TestE11FixpointsAgree(t *testing.T) {
	r, err := E11Baseline(quick)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(r.Table, "false") {
		t.Fatalf("a baseline disagreed:\n%s", r.Table)
	}
}

func TestE12SeparationHolds(t *testing.T) {
	r, err := E12Separation(quick)
	if err != nil {
		t.Fatal(err)
	}
	// tabwriter expands tabs to spaces: match the row loosely.
	closed := false
	for _, line := range strings.Split(r.Table, "\n") {
		if strings.Contains(line, "closed") && strings.Contains(line, "true") {
			closed = true
		}
	}
	if !closed {
		t.Fatalf("region did not close:\n%s", r.Table)
	}
}

// TestE15DurabilityBackends pins the durable ablation's record keeping: one
// in-memory baseline run plus one run per fsync policy, each labelled with
// its backend (these labels are what the BENCH json trajectory keys on).
func TestE15DurabilityBackends(t *testing.T) {
	if testing.Short() {
		t.Skip("four fix-point runs plus fsync micro-benchmarks; skipped in -short mode")
	}
	r, err := Run("E15", Config{RecordsPerNode: 8, Seed: 2, Timeout: 60 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	backends := map[string]int{}
	for _, rec := range r.Runs {
		backends[rec.Backend]++
	}
	for _, want := range []string{"", "wal/never", "wal/interval", "wal/always"} {
		if backends[want] != 1 {
			t.Fatalf("backend %q appears %d times, want 1 (runs: %+v)", want, backends[want], backends)
		}
	}
}

func TestE17FailoverConverges(t *testing.T) {
	if testing.Short() {
		t.Skip("E17 spins a TCP cluster; skipped in -short mode")
	}
	r, err := Run("E17", Config{RecordsPerNode: 6, Seed: 3, Timeout: 2 * time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"driver fail-overs", "fail-over (new driver elected)", "identical at all 5 members"} {
		if !strings.Contains(r.Table, want) {
			t.Errorf("E17 table missing %q:\n%s", want, r.Table)
		}
	}
}

// TestE18ReplicationZeroLoss pins the replication experiment's acceptance:
// the kill of a fully-replicated primary must end in a promotion inside the
// agreed placement, a reference-equal fix-point, and a closed
// under-replication window — with the phase latencies in the BENCH record.
func TestE18ReplicationZeroLoss(t *testing.T) {
	if testing.Short() {
		t.Skip("E18 spins a replicated TCP cluster; skipped in -short mode")
	}
	r, err := Run("E18", Config{RecordsPerNode: 6, Seed: 3, Timeout: 2 * time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"mirror promoted", "under-replication window closed", "zero lost extensional tuples"} {
		if !strings.Contains(r.Table, want) {
			t.Errorf("E18 table missing %q:\n%s", want, r.Table)
		}
	}
	if len(r.Runs) != 1 {
		t.Fatalf("want 1 BENCH record, got %d", len(r.Runs))
	}
	rec := r.Runs[0]
	if rec.PromotionMS <= 0 || rec.ConvergenceMS < rec.PromotionMS || rec.UnderReplicationWindowMS < rec.ConvergenceMS {
		t.Fatalf("phase latencies out of order: %+v", rec)
	}
}

// TestE19ServeLoadRecord pins the serve-load experiment's acceptance: every
// watcher delivered in full (fan-out = watchers-weighted amplification of the
// insert volume), extraction sharing actually saved work, and the BENCH
// record carries an ordered latency distribution for the CI p99 gate.
func TestE19ServeLoadRecord(t *testing.T) {
	if testing.Short() {
		t.Skip("E19 spins a TCP cluster under concurrent load; skipped in -short mode")
	}
	r, err := Run("E19", Config{RecordsPerNode: 20, Seed: 3, Timeout: 2 * time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Runs) != 1 {
		t.Fatalf("want 1 BENCH record, got %d", len(r.Runs))
	}
	rec := r.Runs[0]
	if rec.Watchers != 20 || rec.TuplesInserted != 60 {
		t.Fatalf("workload shape drifted: %+v", rec)
	}
	// 16 head watchers x 3N + 2 x 2N + 2 x N = 54N delivered for 3N inserted.
	if rec.DeliveredTuples != 18*rec.TuplesInserted || rec.FanOut != 18 {
		t.Fatalf("fan-out accounting wrong: delivered %d of %d (%.1fx)",
			rec.DeliveredTuples, rec.TuplesInserted, rec.FanOut)
	}
	if rec.SavedExtractions == 0 || rec.DeltaExtractions == 0 {
		t.Fatalf("extraction sharing unmeasured: %+v", rec)
	}
	if rec.DeliveryP50MS <= 0 || rec.DeliveryP95MS < rec.DeliveryP50MS || rec.DeliveryP99MS < rec.DeliveryP95MS {
		t.Fatalf("latency percentiles out of order: %+v", rec)
	}
}

func TestRunUnknownID(t *testing.T) {
	if _, err := Run("E99", quick); err == nil {
		t.Error("unknown experiment must error")
	}
}

// TestRunAllQuick sweeps every experiment at a small scale. E17–E19 spin TCP
// clusters for seconds each and have their own tests above
// (TestE17FailoverConverges, TestE18ReplicationZeroLoss,
// TestE19ServeLoadRecord), so the sweep does not run them a second time.
func TestRunAllQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep skipped in -short mode")
	}
	ids := IDs()
	if len(ids) != 18 {
		t.Fatalf("got %d experiment ids: %v", len(ids), ids)
	}
	for _, id := range ids {
		if id == "E17" || id == "E18" || id == "E19" {
			continue
		}
		r, err := Run(id, Config{RecordsPerNode: 8, Seed: 2, Timeout: 120 * time.Second})
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if r.Table == "" || r.Title == "" {
			t.Errorf("%s: empty output", r.ID)
		}
	}
}

// TestE16BatchingReduction pins the batched wire protocol's acceptance
// criterion: on both cyclic topologies the burst phase must ship at least
// 10x fewer frames per tuple than one-frame-per-message operation, with the
// fix-point unchanged (E16 itself errors on tuple-count divergence and
// validates every leg against the centralized oracle).
func TestE16BatchingReduction(t *testing.T) {
	if testing.Short() {
		t.Skip("four fix-point runs plus write bursts; skipped in -short mode")
	}
	r, err := Run("E16", quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Runs) != 8 {
		t.Fatalf("want 8 run records (fix-point + burst, twice per topology), got %d", len(r.Runs))
	}
	// Records arrive as fix, burst, fix, burst, ... per leg; bursts are at
	// odd indices. Compare unbatched burst (leg 0) vs batched burst (leg 1).
	for i := 0; i+3 < len(r.Runs); i += 4 {
		unbatched, batched := r.Runs[i+1], r.Runs[i+3]
		if unbatched.MsgsPerTuple <= 0 || batched.MsgsPerTuple <= 0 {
			t.Fatalf("burst records missing msgs-per-tuple: %+v / %+v", unbatched, batched)
		}
		if ratio := unbatched.MsgsPerTuple / batched.MsgsPerTuple; ratio < 10 {
			t.Errorf("frames-per-tuple reduction %.1fx < 10x (unbatched %.2f, batched %.2f)\n%s",
				ratio, unbatched.MsgsPerTuple, batched.MsgsPerTuple, r.Table)
		}
	}
}

func TestE13StagedWinsOnChain(t *testing.T) {
	if testing.Short() {
		t.Skip("six full fix-point runs; skipped in -short mode")
	}
	r, err := E13Staged(quick)
	if err != nil {
		t.Fatal(err)
	}
	// Extract the chain rows and compare message counts.
	var flood, staged uint64
	for _, line := range strings.Split(r.Table, "\n") {
		fields := strings.Fields(line)
		if len(fields) >= 3 && strings.HasPrefix(fields[0], "chain") {
			var v uint64
			if _, err := fmt.Sscanf(fields[2], "%d", &v); err != nil {
				continue
			}
			if fields[1] == "flood" {
				flood = v
			} else {
				staged = v
			}
		}
	}
	if flood == 0 || staged == 0 || staged >= flood {
		t.Fatalf("staged should beat flood on a chain: flood=%d staged=%d\n%s", flood, staged, r.Table)
	}
}
