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

// chainCluster is the setup E17 and E18 share: the e17Net chain as five
// loopback members with data directories, an in-memory reference run of the
// same network, and a coordinator that ran the baseline discover and update.
type chainCluster struct {
	id        string
	def       *rules.Network
	ref       *core.Network
	dataRoot  string
	k         int
	deadAfter time.Duration
	book      map[string]string
	members   map[string]*cluster.Member
	coord     *cluster.Coordinator
	baseline  time.Duration // the baseline discover+update
}

var chainNodes = []string{"A", "B", "C", "D", "E"}

// startChain boots the chain with k replicas per node and death declared
// after deadAfter of suspicion (0, 0: no replication), then runs the baseline.
// Close releases everything, also after an error.
func startChain(ctx context.Context, id string, k int, deadAfter time.Duration) (*chainCluster, error) {
	c := &chainCluster{id: id, k: k, deadAfter: deadAfter, book: map[string]string{}, members: map[string]*cluster.Member{}}
	var err error
	if c.def, err = rules.ParseNetwork(e17Net); err != nil {
		return c, err
	}
	refDef, err := rules.ParseNetwork(e17Net)
	if err != nil {
		return c, err
	}
	if c.ref, err = core.Build(refDef, core.Options{Delta: true}); err != nil {
		return c, err
	}
	if err := c.ref.RunToFixpoint(ctx); err != nil {
		return c, err
	}
	if c.dataRoot, err = os.MkdirTemp("", "p2pdb-"+id); err != nil {
		return c, err
	}
	for _, node := range chainNodes {
		if err := c.boot(node); err != nil {
			return c, err
		}
	}
	c.coord, err = cluster.NewCoordinator(c.def, "127.0.0.1:0", c.book, cluster.CoordinatorOptions{
		Membership: cluster.Options{HeartbeatEvery: 25 * time.Millisecond},
		PollEvery:  25 * time.Millisecond,
	})
	if err != nil {
		return c, err
	}
	if err := c.coord.WaitMembers(ctx, len(chainNodes)); err != nil {
		return c, fmt.Errorf("%s: join: %w", id, err)
	}
	t0 := time.Now()
	if err := c.coord.Discover(ctx); err != nil {
		return c, fmt.Errorf("%s: discover: %w", id, err)
	}
	if err := c.coord.Update(ctx); err != nil {
		return c, fmt.Errorf("%s: baseline update: %w", id, err)
	}
	c.baseline = time.Since(t0)
	return c, nil
}

// boot starts node's member, or restarts it from its data directory.
func (c *chainCluster) boot(node string) error {
	m, err := cluster.Boot(cluster.LoopbackConfig(c.def, node, c.book, filepath.Join(c.dataRoot, node), c.k, c.deadAfter))
	if err != nil {
		return fmt.Errorf("%s: boot %s: %w", c.id, node, err)
	}
	c.members[node] = m
	c.book[node] = m.Transport().Addr()
	return nil
}

// insertAtSource inserts max(cfg.RecordsPerNode, 4) new facts tagged tag at
// the source E, mirrors them into the reference and updates it. It returns
// how many it inserted.
func (c *chainCluster) insertAtSource(ctx context.Context, cfg Config, tag string) (int, error) {
	n := max(cfg.RecordsPerNode, 4)
	for i := 0; i < n; i++ {
		tup := relalg.Tuple{relalg.S(fmt.Sprintf("k%d", i)), relalg.S(tag)}
		if _, err := c.members["E"].Network().Peer("E").InsertLocal("e", tup); err != nil {
			return 0, err
		}
		if _, err := c.ref.Peer("E").InsertLocal("e", tup); err != nil {
			return 0, err
		}
	}
	return n, c.ref.Update(ctx)
}

// Close stops what startChain and boot started and removes the data.
func (c *chainCluster) Close() {
	if c.coord != nil {
		_ = c.coord.Close()
	}
	for _, m := range c.members {
		_ = m.Close()
	}
	if c.dataRoot != "" {
		_ = os.RemoveAll(c.dataRoot)
	}
	if c.ref != nil {
		_ = c.ref.Close()
	}
}

// E17Failover runs the driver-kill scenario and reports its phase costs.
func E17Failover(cfg Config) (Result, error) {
	ctx, cancel := context.WithTimeout(context.Background(), cfg.Timeout)
	defer cancel()
	c, err := startChain(ctx, "E17", 0, 0)
	defer c.Close()
	if err != nil {
		return Result{}, err
	}
	members := c.members

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

	if _, err := c.insertAtSource(ctx, cfg, "failover"); err != nil {
		return Result{}, err
	}

	// Kick the second update at the source member and kill it mid-wave.
	if err := c.coord.Transport().Send(cluster.CoordinatorName, "E", wire.UpdateRequest{}); err != nil {
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
	if err := c.boot("E"); err != nil {
		return Result{}, err
	}
	if !e17Wait(30*time.Second, idle) {
		return Result{}, fmt.Errorf("E17: re-driven update never committed updateDone")
	}
	redrive := time.Since(tKill)

	if !e17Wait(30*time.Second, func() bool {
		for node, m := range members {
			if m.Network().Peer(node).DB().Dump() != c.ref.Peer(node).DB().Dump() {
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
		for _, node := range chainNodes {
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
		fmt.Fprintf(w, "baseline discover+update\t%.1f\n", float64(c.baseline.Microseconds())/1000)
		fmt.Fprintf(w, "kill -> fail-over (new driver elected)\t%.1f\n", float64(failover.Microseconds())/1000)
		fmt.Fprintf(w, "kill -> re-driven update committed\t%.1f\n", float64(redrive.Microseconds())/1000)
		fmt.Fprintf(w, "kill -> full data convergence\t%.1f\n", float64(converge.Microseconds())/1000)
		fmt.Fprintf(w, "\nlog instances applied\t%d\n", cm.Applied)
		fmt.Fprintf(w, "driver fail-overs\t%d\n", cm.Failovers)
		fmt.Fprintf(w, "agreed view version\t%d (identical at all %d members)\n", refVer, len(chainNodes))
		fmt.Fprintln(w, "\nnote:\tthe killed member was the elected update driver; the survivors'")
		fmt.Fprintln(w, "\tquorum agreed on its suspicion, re-elected, and finished its update")
	})
	return Result{ID: "E17", Title: "replicated control plane — driver kill, fail-over, agreed recovery", Table: tbl}, nil
}
