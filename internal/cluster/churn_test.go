package cluster

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/relalg"
	"repro/internal/rules"
	"repro/internal/workload"
)

// Churn synthesis: a deterministic, seeded schedule of membership and write
// events for TestReplicaChurnSoak — the regime the paper's network model
// assumes away (nodes "can dynamically join and leave at any moment") and the
// replica subsystem must survive. The soak interprets it against in-process
// members (Crash, restart from disk) and feeds the same inserts to its oracle.

// churnOp is the kind of one churn event.
type churnOp uint8

const (
	// churnInsert writes a fresh batch of records at an up node.
	churnInsert churnOp = iota
	// churnCrash kills the member hosting a node without a goodbye.
	churnCrash
	// churnRestart boots a previously crashed member again.
	churnRestart
	// churnSettle drives the network to a quiescent fix-point — a checkpoint
	// at which the harness may run its oracle comparison.
	churnSettle
)

func (op churnOp) String() string {
	switch op {
	case churnInsert:
		return "insert"
	case churnCrash:
		return "crash"
	case churnRestart:
		return "restart"
	case churnSettle:
		return "settle"
	default:
		return fmt.Sprintf("op(%d)", uint8(op))
	}
}

// churnEvent is one step of a schedule.
type churnEvent struct {
	Op   churnOp
	Node string // subject node (empty for settle)
	// Facts carries an insert's records in the copy-style schema
	// (workload.StyleCopy: pub(key,title,year), wrote(author,key)) — the
	// harness only has to apply them (and feed the same list to its oracle).
	Facts []rules.Fact
}

// churnSpec parameterises a schedule.
type churnSpec struct {
	// Events is the number of insert/crash/restart events (settle checkpoints
	// and the final drain come on top).
	Events int
	// Seed makes the schedule deterministic.
	Seed int64
	// CrashEvery makes roughly one in this many events a crash when a crash
	// is admissible (default 8).
	CrashEvery int
	// MaxDown bounds how many members are down simultaneously (default 1;
	// keep it below half the cluster or the consensus control plane cannot
	// agree on anything, including the deaths themselves).
	MaxDown int
	// DownFor is how many events a crashed member stays down before its
	// restart is scheduled (default 6).
	DownFor int
	// Batch is the records per insert event (default 3).
	Batch int
	// SettleEvery inserts a settle checkpoint after this many events
	// (default 25; 0 keeps only the final one).
	SettleEvery int
	// Protected lists nodes the schedule never crashes (e.g. the node a
	// harness observes from, or the super-peer a driver needs).
	Protected []string
}

func (s churnSpec) withDefaults() churnSpec {
	if s.CrashEvery <= 0 {
		s.CrashEvery = 8
	}
	if s.MaxDown <= 0 {
		s.MaxDown = 1
	}
	if s.DownFor <= 0 {
		s.DownFor = 6
	}
	if s.Batch <= 0 {
		s.Batch = 3
	}
	if s.SettleEvery < 0 {
		s.SettleEvery = 0
	}
	return s
}

// churn generates a schedule over n nodes (named workload.NodeName(0..n-1)).
// Invariants the generator maintains:
//
//   - at most MaxDown members are down at any point, and a crashed member is
//     restarted after DownFor further events;
//   - inserts only target up nodes (the harness applies them at the live
//     primary; writes during a fail-over window are the promotion tests' job);
//   - record keys are "churn/<node>/<n>", so they never collide with each
//     other or with workload.Generate's seeds;
//   - the schedule ends with every member restarted and a final settle, so a
//     harness can always run its oracle at the end.
func churn(n int, spec churnSpec) []churnEvent {
	spec = spec.withDefaults()
	rng := rand.New(rand.NewSource(spec.Seed))
	protected := map[string]bool{}
	for _, p := range spec.Protected {
		protected[p] = true
	}

	var events []churnEvent
	down := map[int]bool{}
	restartAt := map[int]int{} // node index -> event count at which to restart
	inserted := make([]int, n)
	sinceSettle := 0

	upNodes := func() []int {
		var up []int
		for i := 0; i < n; i++ {
			if !down[i] {
				up = append(up, i)
			}
		}
		return up
	}

	for ev := 0; ev < spec.Events; ev++ {
		// Due restarts take priority over everything: they bound the down
		// window and keep the MaxDown budget honest.
		restarted := false
		for i := 0; i < n; i++ { // index order, not map order: schedules must be deterministic
			if at, ok := restartAt[i]; ok && ev >= at {
				events = append(events, churnEvent{Op: churnRestart, Node: workload.NodeName(i)})
				delete(down, i)
				delete(restartAt, i)
				restarted = true
				break
			}
		}
		if restarted {
			continue
		}

		if len(down) < spec.MaxDown && rng.Intn(spec.CrashEvery) == 0 {
			// Pick a crash victim among unprotected up nodes.
			var cands []int
			for _, i := range upNodes() {
				if !protected[workload.NodeName(i)] {
					cands = append(cands, i)
				}
			}
			if len(cands) > 0 {
				victim := cands[rng.Intn(len(cands))]
				events = append(events, churnEvent{Op: churnCrash, Node: workload.NodeName(victim)})
				down[victim] = true
				restartAt[victim] = ev + spec.DownFor
				continue
			}
		}

		// Default event: an insert batch at a random up node.
		up := upNodes()
		target := up[rng.Intn(len(up))]
		node := workload.NodeName(target)
		var facts []rules.Fact
		for b := 0; b < spec.Batch; b++ {
			key := relalg.S(fmt.Sprintf("churn/%s/%d", node, inserted[target]))
			inserted[target]++
			facts = append(facts,
				rules.Fact{Node: node, Rel: "pub", Tuple: relalg.Tuple{key, relalg.S("title"), relalg.I(int64(1994 + rng.Intn(11)))}},
				rules.Fact{Node: node, Rel: "wrote", Tuple: relalg.Tuple{relalg.S("author"), key}})
		}
		events = append(events, churnEvent{Op: churnInsert, Node: node, Facts: facts})

		sinceSettle++
		if spec.SettleEvery > 0 && sinceSettle >= spec.SettleEvery {
			events = append(events, churnEvent{Op: churnSettle})
			sinceSettle = 0
		}
	}

	// Drain: bring everyone back, then settle once so the harness can compare
	// against its oracle from a fully-alive, quiescent network.
	for i := 0; i < n; i++ {
		if down[i] {
			events = append(events, churnEvent{Op: churnRestart, Node: workload.NodeName(i)})
		}
	}
	events = append(events, churnEvent{Op: churnSettle})
	return events
}

// TestChurnScheduleInvariants pins the generator's contract: deterministic
// for a seed, never more than MaxDown members down, crashed members restarted
// within DownFor events, inserts only at up nodes, protected nodes never
// crashed, and a final settle with everyone back up.
func TestChurnScheduleInvariants(t *testing.T) {
	spec := churnSpec{Events: 200, Seed: 42, CrashEvery: 5, MaxDown: 2, DownFor: 4, SettleEvery: 20, Protected: []string{workload.NodeName(0)}}
	evs := churn(8, spec)
	evs2 := churn(8, spec)
	if !reflect.DeepEqual(evs, evs2) {
		t.Fatal("schedule not deterministic for a fixed seed")
	}

	down := map[string]bool{}
	downSince := map[string]int{}
	crashes, inserts := 0, 0
	for i, ev := range evs {
		switch ev.Op {
		case churnCrash:
			crashes++
			if ev.Node == workload.NodeName(0) {
				t.Fatalf("event %d crashes the protected node", i)
			}
			if down[ev.Node] {
				t.Fatalf("event %d crashes already-down %s", i, ev.Node)
			}
			down[ev.Node] = true
			downSince[ev.Node] = i
			if len(down) > spec.MaxDown {
				t.Fatalf("event %d: %d members down, budget %d", i, len(down), spec.MaxDown)
			}
		case churnRestart:
			if !down[ev.Node] {
				t.Fatalf("event %d restarts up member %s", i, ev.Node)
			}
			delete(down, ev.Node)
		case churnInsert:
			inserts++
			if down[ev.Node] {
				t.Fatalf("event %d inserts at down node %s", i, ev.Node)
			}
			if len(ev.Facts) == 0 {
				t.Fatalf("event %d: empty insert batch", i)
			}
		}
	}
	if len(down) != 0 {
		t.Fatalf("schedule ends with %v still down", down)
	}
	if last := evs[len(evs)-1]; last.Op != churnSettle {
		t.Fatalf("schedule ends with %v, want settle", last.Op)
	}
	if crashes == 0 || inserts == 0 {
		t.Fatalf("vacuous schedule: %d crashes, %d inserts", crashes, inserts)
	}

	// Key uniqueness across the whole schedule: every inserted fact is
	// distinct.
	seen := map[string]bool{}
	for _, ev := range evs {
		for _, f := range ev.Facts {
			k := f.Node + "/" + f.Rel + "/" + f.Tuple.String()
			if seen[k] {
				t.Fatalf("duplicate churn fact %s", k)
			}
			seen[k] = true
		}
	}
}
