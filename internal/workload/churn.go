package workload

import (
	"fmt"

	"repro/internal/rules"
)

// Churn synthesis: a deterministic, seeded schedule of membership and write
// events for the replication soak tests — the regime the paper's network model
// assumes away (nodes "can dynamically join and leave at any moment") and the
// replica subsystem must survive. The generator is execution-agnostic: it
// emits an event list, and a harness (in-process networks with Crash, or real
// serve processes with SIGKILL) interprets it, so the same seed exercises both.

// ChurnOp is the kind of one churn event.
type ChurnOp uint8

const (
	// ChurnInsert writes a fresh batch of records at an up node.
	ChurnInsert ChurnOp = iota
	// ChurnCrash kills the member hosting a node without a goodbye (SIGKILL
	// in the process harness, Crash/Abandon in the in-process one).
	ChurnCrash
	// ChurnRestart boots a previously crashed member again.
	ChurnRestart
	// ChurnSettle drives the network to a quiescent fix-point — a checkpoint
	// at which the harness may run its oracle comparison.
	ChurnSettle
)

func (op ChurnOp) String() string {
	switch op {
	case ChurnInsert:
		return "insert"
	case ChurnCrash:
		return "crash"
	case ChurnRestart:
		return "restart"
	case ChurnSettle:
		return "settle"
	default:
		return fmt.Sprintf("op(%d)", uint8(op))
	}
}

// ChurnEvent is one step of a schedule.
type ChurnEvent struct {
	Op   ChurnOp
	Node string // subject node (empty for Settle)
	// Facts carries an insert's records, already projected into the node's
	// schema shape — the harness only has to apply them (and feed the same
	// list to its oracle).
	Facts []rules.Fact
}

// ChurnSpec parameterises a schedule.
type ChurnSpec struct {
	// Events is the number of insert/crash/restart events (settle checkpoints
	// and the final drain come on top).
	Events int
	// Seed makes the schedule deterministic.
	Seed int64
	// Style must match the DataSpec the network was generated with, so insert
	// batches land in the right schema shape.
	Style RuleStyle
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
	// SettleEvery inserts a ChurnSettle checkpoint after this many events
	// (default 25; 0 keeps only the final one).
	SettleEvery int
	// Protected lists nodes the schedule never crashes (e.g. the node a
	// harness observes from, or the super-peer a driver needs).
	Protected []string
}

func (s ChurnSpec) withDefaults() ChurnSpec {
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

// Churn generates a schedule over n nodes (named NodeName(0..n-1), shaped as
// Generate shapes them). Invariants the generator maintains:
//
//   - at most MaxDown members are down at any point, and a crashed member is
//     restarted after DownFor further events;
//   - inserts only target up nodes (the harness applies them at the live
//     primary; writes during a fail-over window are the promotion tests' job);
//   - record keys never collide with Generate's seeds for the same node (the
//     insert counter starts beyond any initial RecordsPerNode);
//   - the schedule ends with every member restarted and a final ChurnSettle,
//     so a harness can always run its oracle at the end.
func Churn(n int, spec ChurnSpec) []ChurnEvent {
	spec = spec.withDefaults()
	rng := newRng(spec.Seed)
	protected := map[string]bool{}
	for _, p := range spec.Protected {
		protected[p] = true
	}

	var events []ChurnEvent
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
				events = append(events, ChurnEvent{Op: ChurnRestart, Node: NodeName(i)})
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
				if !protected[NodeName(i)] {
					cands = append(cands, i)
				}
			}
			if len(cands) > 0 {
				victim := cands[rng.Intn(len(cands))]
				events = append(events, ChurnEvent{Op: ChurnCrash, Node: NodeName(victim)})
				down[victim] = true
				restartAt[victim] = ev + spec.DownFor
				continue
			}
		}

		// Default event: an insert batch at a random up node.
		up := upNodes()
		target := up[rng.Intn(len(up))]
		node := NodeName(target)
		shape := shapeOf(spec.Style, target)
		var facts []rules.Fact
		for b := 0; b < spec.Batch; b++ {
			// Offset the record index far past any initial seeding so churn
			// keys never collide with Generate's.
			r := genRecord(rng, target, 1<<20+inserted[target])
			inserted[target]++
			facts = appendShapeFacts(facts, node, shape, r)
		}
		events = append(events, ChurnEvent{Op: ChurnInsert, Node: node, Facts: facts})

		sinceSettle++
		if spec.SettleEvery > 0 && sinceSettle >= spec.SettleEvery {
			events = append(events, ChurnEvent{Op: ChurnSettle})
			sinceSettle = 0
		}
	}

	// Drain: bring everyone back, then settle once so the harness can compare
	// against its oracle from a fully-alive, quiescent network.
	for i := 0; i < n; i++ {
		if down[i] {
			events = append(events, ChurnEvent{Op: ChurnRestart, Node: NodeName(i)})
		}
	}
	events = append(events, ChurnEvent{Op: ChurnSettle})
	return events
}
