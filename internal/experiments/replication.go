package experiments

import (
	"context"
	"fmt"
	"sort"
	"text/tabwriter"
	"time"
)

// E18: k-way replication under a primary kill. The E17 chain runs again, but
// every member mirrors its node's extensional relations on two rendezvous-
// placed peers. After the baseline fix-point and a burst of new facts at the
// source E, the experiment waits until both replicas' durable frontiers cover
// E's write-ahead frontier, then kills E without a goodbye. The agreed member
// view must escalate the continuous suspicion to a death, elect the live
// replica with the highest durable frontier, re-home E's peer there, and
// re-converge on the reference fix-point with zero lost extensional tuples.
// The table (and the BENCH json record) reports the operator-visible phases:
// replication catch-up, kill → promotion, kill → full convergence, and the
// under-replication window — how long the cluster ran with fewer than k
// durable copies of E's data.

// E18Replication runs the primary-kill scenario and reports its phase costs.
func E18Replication(cfg Config) (Result, error) {
	const k = 2
	const deadAfter = 400 * time.Millisecond
	ctx, cancel := context.WithTimeout(context.Background(), cfg.Timeout)
	defer cancel()
	c, err := startChain(ctx, "E18", k, deadAfter)
	defer c.Close()
	if err != nil {
		return Result{}, err
	}
	members := c.members

	tInsert := time.Now()
	extra, err := c.insertAtSource(ctx, cfg, "replicated")
	if err != nil {
		return Result{}, err
	}

	// Replication catch-up: both placement members' durable frontiers must
	// cover E's write-ahead frontier — the zero-loss precondition.
	placement, placementVer := members["A"].Control().PlacementFor("E")
	if len(placement) != k {
		return Result{}, fmt.Errorf("E18: placement for E = %v, want %d members", placement, k)
	}
	frontier := members["E"].Replica().Frontier("E")
	if frontier == 0 {
		return Result{}, fmt.Errorf("E18: E's primary frontier is zero")
	}
	if !e17Wait(30*time.Second, func() bool {
		for _, p := range placement {
			if members[p].Replica().Frontier("E") < frontier {
				return false
			}
		}
		return true
	}) {
		return Result{}, fmt.Errorf("E18: replicas never caught up to E's durable frontier")
	}
	catchup := time.Since(tInsert)

	// Kill the primary without a goodbye.
	tKill := time.Now()
	_ = members["E"].Crash()
	delete(members, "E")

	// Promotion: the agreed death must re-home E onto one of its replicas.
	var adopter string
	if !e17Wait(30*time.Second, func() bool {
		h := members["A"].Control().HostOf("E")
		if h == "E" {
			return false
		}
		m := members[h]
		if m == nil || m.Network().Peer("E") == nil {
			return false
		}
		adopter = h
		return true
	}) {
		return Result{}, fmt.Errorf("E18: no survivor ever adopted E after the kill")
	}
	promotion := time.Since(tKill)
	inPlacement := false
	for _, p := range placement {
		if p == adopter {
			inPlacement = true
		}
	}
	if !inPlacement {
		return Result{}, fmt.Errorf("E18: E re-homed to %s, outside its placement %v", adopter, placement)
	}

	// Zero lost tuples: the adopted E and every survivor land back on the
	// reference fix-point.
	survivors := []string{"A", "B", "C", "D"}
	if !e17Wait(60*time.Second, func() bool {
		if members[adopter].Network().Peer("E").DB().Dump() != c.ref.Peer("E").DB().Dump() {
			return false
		}
		for _, node := range survivors {
			if members[node].Network().Peer(node).DB().Dump() != c.ref.Peer(node).DB().Dump() {
				return false
			}
		}
		return true
	}) {
		return Result{}, fmt.Errorf("E18: cluster diverged from the reference fix-point after the promotion")
	}
	converge := time.Since(tKill)

	// Under-replication window: the adopter must re-establish k durable
	// copies of everything it now hosts (E re-placed over the survivors).
	if !e17Wait(60*time.Second, func() bool {
		return members[adopter].Replica().Metrics().UnderReplicated == 0
	}) {
		return Result{}, fmt.Errorf("E18: the under-replication window never closed")
	}
	window := time.Since(tKill)
	am := members[adopter].Replica().Metrics()

	cfg.collector.addRecord(RunRecord{
		Mode:                     "delta",
		Nodes:                    len(chainNodes),
		Rules:                    len(c.def.Rules),
		TuplesInserted:           uint64(extra),
		UpdateMS:                 float64(c.baseline.Microseconds()) / 1000,
		PromotionMS:              float64(promotion.Microseconds()) / 1000,
		ConvergenceMS:            float64(converge.Microseconds()) / 1000,
		UnderReplicationWindowMS: float64(window.Microseconds()) / 1000,
	})

	sort.Strings(placement)
	tbl := table(func(w *tabwriter.Writer) {
		fmt.Fprintln(w, "phase\tms")
		fmt.Fprintf(w, "baseline discover+update\t%.1f\n", float64(c.baseline.Microseconds())/1000)
		fmt.Fprintf(w, "insert -> replicas durably caught up\t%.1f\n", float64(catchup.Microseconds())/1000)
		fmt.Fprintf(w, "kill -> mirror promoted (adopter %s)\t%.1f\n", adopter, float64(promotion.Microseconds())/1000)
		fmt.Fprintf(w, "kill -> full data convergence\t%.1f\n", float64(converge.Microseconds())/1000)
		fmt.Fprintf(w, "kill -> under-replication window closed\t%.1f\n", float64(window.Microseconds())/1000)
		fmt.Fprintf(w, "\nreplicas per node (k)\t%d\n", k)
		fmt.Fprintf(w, "placement of E\t%v (agreed view v%d)\n", placement, placementVer)
		fmt.Fprintf(w, "adopter promotions\t%d\n", am.Promotions)
		fmt.Fprintln(w, "\nnote:\tthe killed member was the source of the chain's facts; its mirror")
		fmt.Fprintln(w, "\tre-homed the node with zero lost extensional tuples")
	})
	return Result{ID: "E18", Title: "k-way replication — primary kill, mirror promotion, zero-loss recovery", Table: tbl}, nil
}
