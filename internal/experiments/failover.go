package experiments

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"text/tabwriter"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/relalg"
	"repro/internal/rules"
	"repro/internal/wire"
)

// E17: the replicated control plane under a driver kill. Five single-node
// processes-in-miniature (one cluster.Member each, over TCP loopback) run a baseline update, take new facts at
// the source, and kick a second update at the source member — which the
// experiment then kills mid-wave. The agreed log must record the suspicion,
// elect the next driver, re-drive the wave, and after the killed member
// restarts from its WAL and control log the whole cluster must land on the
// same fix-point as an in-memory reference run. The table reports the phase
// costs an operator would see: time to fail over, time until the re-driven
// update commits, and time to full data convergence.

const e17Net = `
node A { rel a(x,y) }
node B { rel b(x,y) }
node C { rel c(x,y) }
node D { rel d(x,y) }
node E { rel e(x,y) }
rule re: E:e(X,Y) -> D:d(X,Y)
rule rd: D:d(X,Y) -> C:c(X,Y)
rule rc: C:c(X,Y) -> B:b(X,Y)
rule rb: B:b(X,Y) -> A:a(Y,X)
fact E:e('1','2')
fact E:e('3','4')
super A
`

// e17Wait polls cond until it holds or the deadline passes.
func e17Wait(max time.Duration, cond func() bool) bool {
	deadline := time.Now().Add(max)
	for time.Now().Before(deadline) {
		if cond() {
			return true
		}
		//lint:allow baresleep designated poll helper: deadline-bounded, used only by one-shot experiment scenarios
		time.Sleep(5 * time.Millisecond)
	}
	return false
}

// E17Failover runs the driver-kill scenario and reports its phase costs.
func E17Failover(cfg Config) (Result, error) {
	def, err := rules.ParseNetwork(e17Net)
	if err != nil {
		return Result{}, err
	}
	refDef, err := rules.ParseNetwork(e17Net)
	if err != nil {
		return Result{}, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), cfg.Timeout)
	defer cancel()

	// The in-memory reference fix-point (same facts, same extra inserts).
	ref, err := core.Build(refDef, core.Options{Delta: true})
	if err != nil {
		return Result{}, err
	}
	defer ref.Close()
	if err := ref.RunToFixpoint(ctx); err != nil {
		return Result{}, err
	}

	dataRoot, err := os.MkdirTemp("", "p2pdb-e17")
	if err != nil {
		return Result{}, err
	}
	defer os.RemoveAll(dataRoot)

	names := []string{"A", "B", "C", "D", "E"}
	book := map[string]string{}
	members := map[string]*cluster.Member{}
	defer func() {
		for _, m := range members {
			_ = m.Close()
		}
	}()
	boot := func(node string) error {
		m, err := cluster.Boot(cluster.LoopbackConfig(def, node, book, filepath.Join(dataRoot, node), 0, 0))
		if err != nil {
			return fmt.Errorf("E17: boot %s: %w", node, err)
		}
		members[node] = m
		book[node] = m.Transport().Addr()
		return nil
	}
	for _, node := range names {
		if err := boot(node); err != nil {
			return Result{}, err
		}
	}
	coord, err := cluster.NewCoordinator(def, "127.0.0.1:0", book, cluster.CoordinatorOptions{
		Membership: cluster.Options{HeartbeatEvery: 25 * time.Millisecond},
		PollEvery:  25 * time.Millisecond,
	})
	if err != nil {
		return Result{}, err
	}
	defer coord.Close()
	if err := coord.WaitMembers(ctx, len(names)); err != nil {
		return Result{}, fmt.Errorf("E17: join: %w", err)
	}
	t0 := time.Now()
	if err := coord.Discover(ctx); err != nil {
		return Result{}, fmt.Errorf("E17: discover: %w", err)
	}
	if err := coord.Update(ctx); err != nil {
		return Result{}, fmt.Errorf("E17: baseline update: %w", err)
	}
	baseline := time.Since(t0)
	// The wave has closed; the plane's driver may not have committed updateDone
	// yet, and the kill below must meet the NEXT update in flight, not this one.
	idle := func() bool {
		for _, m := range members {
			if m.Control().Metrics().PendingInst != 0 {
				return false
			}
		}
		return true
	}
	if !e17Wait(10*time.Second, idle) {
		return Result{}, fmt.Errorf("E17: baseline update never committed updateDone")
	}

	// New facts at the source, mirrored into the reference.
	extra := cfg.RecordsPerNode
	if extra < 4 {
		extra = 4
	}
	for i := 0; i < extra; i++ {
		tup := relalg.Tuple{relalg.S(fmt.Sprintf("k%d", i)), relalg.S("failover")}
		if _, err := members["E"].Network().Peer("E").InsertLocal("e", tup); err != nil {
			return Result{}, err
		}
		if _, err := ref.Peer("E").InsertLocal("e", tup); err != nil {
			return Result{}, err
		}
	}
	if err := ref.Update(ctx); err != nil {
		return Result{}, err
	}

	// Kick the second update at the source member and kill it mid-wave.
	if err := coord.Transport().Send(cluster.CoordinatorName, "E", wire.UpdateRequest{}); err != nil {
		return Result{}, err
	}
	if !e17Wait(10*time.Second, func() bool { return members["B"].Control().Metrics().PendingInst > 0 }) {
		return Result{}, fmt.Errorf("E17: update entry never applied at a survivor")
	}
	tKill := time.Now()
	if err := members["E"].Crash(); err != nil {
		return Result{}, err
	}
	delete(members, "E")

	if !e17Wait(15*time.Second, func() bool {
		m := members["A"].Control().Metrics()
		return m.Failovers >= 1 && m.Driver == "A"
	}) {
		return Result{}, fmt.Errorf("E17: no driver fail-over after the kill")
	}
	failover := time.Since(tKill)

	// Restart the killed member; the new driver's unbounded probes then pull
	// the chain to closure and commit updateDone.
	if err := boot("E"); err != nil {
		return Result{}, err
	}
	if !e17Wait(30*time.Second, idle) {
		return Result{}, fmt.Errorf("E17: re-driven update never committed updateDone")
	}
	redrive := time.Since(tKill)

	if !e17Wait(30*time.Second, func() bool {
		for node, m := range members {
			if m.Network().Peer(node).DB().Dump() != ref.Peer(node).DB().Dump() {
				return false
			}
		}
		return true
	}) {
		return Result{}, fmt.Errorf("E17: cluster diverged from the reference fix-point after fail-over")
	}
	converge := time.Since(tKill)

	// The agreed member table must be identical at every member.
	refView, refVer := members["A"].Control().AgreedView()
	if !e17Wait(15*time.Second, func() bool {
		refView, refVer = members["A"].Control().AgreedView()
		for _, node := range names {
			view, ver := members[node].Control().AgreedView()
			if ver != refVer {
				return false
			}
			for n, st := range refView {
				if view[n] != st {
					return false
				}
			}
		}
		return true
	}) {
		return Result{}, fmt.Errorf("E17: agreed member views diverged")
	}
	cm := members["A"].Control().Metrics()

	tbl := table(func(w *tabwriter.Writer) {
		fmt.Fprintln(w, "phase\tms")
		fmt.Fprintf(w, "baseline discover+update\t%.1f\n", float64(baseline.Microseconds())/1000)
		fmt.Fprintf(w, "kill -> fail-over (new driver elected)\t%.1f\n", float64(failover.Microseconds())/1000)
		fmt.Fprintf(w, "kill -> re-driven update committed\t%.1f\n", float64(redrive.Microseconds())/1000)
		fmt.Fprintf(w, "kill -> full data convergence\t%.1f\n", float64(converge.Microseconds())/1000)
		fmt.Fprintf(w, "\nlog instances applied\t%d\n", cm.Applied)
		fmt.Fprintf(w, "driver fail-overs\t%d\n", cm.Failovers)
		fmt.Fprintf(w, "agreed view version\t%d (identical at all %d members)\n", refVer, len(names))
		fmt.Fprintln(w, "\nnote:\tthe killed member was the elected update driver; the survivors'")
		fmt.Fprintln(w, "\tquorum agreed on its suspicion, re-elected, and finished its update")
	})
	return Result{ID: "E17", Title: "replicated control plane — driver kill, fail-over, agreed recovery", Table: tbl}, nil
}
