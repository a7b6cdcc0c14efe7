package main

import (
	"context"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/cq"
	"repro/internal/stats"
)

// cmdCtl is the remote control plane: one invocation joins the cluster under
// the reserved coordinator name, runs one verb against the live serve
// processes, and leaves. Quiescence and closure are detected purely through
// the wire — polled peer counters and state reports — because no global
// oracle exists across processes.
func cmdCtl(args []string) error {
	if len(args) < 2 {
		return fmt.Errorf("usage: p2pdb ctl <net-file> <verb> [args...]\n" +
			"verbs: status | discover | update | quiesce | query <node> <conj> |\n" +
			"       watch <node> <conj> [resume-token] |\n" +
			"       stats | reset | broadcast <file> | addlink <rule> | dellink <node> <rule-id>")
	}
	def, err := loadNet(args[0])
	if err != nil {
		return err
	}
	verb, rest := args[1], args[2:]
	joins, err := parseJoin(*joinFlag)
	if err != nil {
		return err
	}
	listen := *listenAddr
	if listen == "" {
		listen = "127.0.0.1:0"
	}
	copts := cluster.CoordinatorOptions{Membership: clusterOpts()}
	if verb == "watch" {
		// A watch session is long-lived: it must not share the default
		// coordinator name, or the next one-shot ctl verb would overwrite its
		// address in the members' books and the delta stream would route to a
		// dead port.
		copts.Name = fmt.Sprintf("@ctl-watch-%d", os.Getpid())
	}
	coord, err := cluster.NewCoordinator(def, listen, joins, copts)
	if err != nil {
		return err
	}
	defer coord.Close()
	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()

	// Give the join handshake a bounded head start towards every declared
	// node; missing members are reported, not fatal — a partial cluster is
	// an operator's call.
	waitCtx, waitCancel := context.WithTimeout(ctx, 5*time.Second)
	if err := coord.WaitMembers(waitCtx, len(def.Nodes)); err != nil {
		fmt.Fprintf(os.Stderr, "ctl: not all declared nodes joined: %v\n", err)
	}
	waitCancel()

	switch verb {
	case "status":
		return ctlStatus(ctx, coord)
	case "discover":
		if err := coord.Discover(ctx); err != nil {
			return err
		}
		fmt.Println("discovery quiescent")
		return nil
	case "update":
		t0 := time.Now()
		if err := coord.Update(ctx); err != nil {
			return err
		}
		fmt.Printf("update closed in %v\n", time.Since(t0).Round(time.Millisecond))
		if n := coord.ProbeRounds(); n > 0 {
			fmt.Printf("warning: the wave settled with nodes open and needed %d closure-probe round(s)\n", n)
		}
		return nil
	case "quiesce":
		return coord.Quiesce(ctx)
	case "query":
		if len(rest) != 2 {
			return fmt.Errorf("usage: p2pdb ctl <net-file> query <node> <conj>")
		}
		conj, err := cq.ParseConjunction(rest[1])
		if err != nil {
			return err
		}
		outVars := conj.Vars()
		rows, err := coord.Query(ctx, rest[0], rest[1], outVars)
		if err != nil {
			return err
		}
		fmt.Printf("-- %s @ %s: %d rows over %v\n", rest[1], rest[0], len(rows), outVars)
		for _, r := range rows {
			fmt.Println(r)
		}
		return nil
	case "watch":
		if len(rest) != 2 && len(rest) != 3 {
			return fmt.Errorf("usage: p2pdb ctl <net-file> watch <node> <conj> [resume-token]")
		}
		token := ""
		if len(rest) == 3 {
			token = rest[2]
		}
		return ctlWatch(coord, rest[0], rest[1], token)
	case "stats":
		snaps, err := coord.CollectStats(ctx)
		if err != nil {
			return err
		}
		list := make([]stats.Snapshot, 0, len(snaps))
		for _, s := range snaps {
			list = append(list, s)
		}
		fmt.Println(stats.Table(list))
		return nil
	case "reset":
		coord.ResetStats()
		return nil
	case "broadcast":
		if len(rest) != 1 {
			return fmt.Errorf("usage: p2pdb ctl <net-file> broadcast <file>")
		}
		text, err := os.ReadFile(rest[0])
		if err != nil {
			return err
		}
		return coord.Broadcast(string(text))
	case "addlink":
		if len(rest) == 0 {
			return fmt.Errorf("usage: p2pdb ctl <net-file> addlink <rule-text>")
		}
		return coord.AddLink(strings.Join(rest, " "))
	case "dellink":
		if len(rest) != 2 {
			return fmt.Errorf("usage: p2pdb ctl <net-file> dellink <node> <rule-id>")
		}
		return coord.DeleteLink(rest[0], rest[1])
	default:
		return fmt.Errorf("unknown ctl verb %q", verb)
	}
}

// ctlWatch streams a continuous query from a hosted member until interrupted
// or the server ends the stream, then prints the resume token covering every
// printed batch — handed back as the third argument, a new watch re-receives
// exactly what was not printed.
func ctlWatch(coord *cluster.Coordinator, node, body, token string) error {
	conj, err := cq.ParseConjunction(body)
	if err != nil {
		return err
	}
	w, err := coord.Watch(node, body, conj.Vars(), cluster.WatchOptions{ResumeToken: token})
	if err != nil {
		return err
	}
	defer w.Close()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	fmt.Printf("-- watching %s @ %s over %v (interrupt to stop)\n", body, node, conj.Vars())
	for {
		d, err := w.Next(ctx)
		if err != nil {
			fmt.Printf("-- resume token: %s\n", w.Token())
			return nil
		}
		if d.Closed {
			if d.Err != "" {
				fmt.Printf("-- stream closed by server: %s\n", d.Err)
			} else {
				fmt.Println("-- stream closed by server")
			}
			fmt.Printf("-- resume token: %s\n", w.Token())
			return nil
		}
		label := "delta"
		if d.Prime {
			label = "prime"
		}
		fmt.Printf("-- %s #%d: %d rows\n", label, d.Seq, len(d.Tuples))
		for _, t := range d.Tuples {
			fmt.Println(t)
		}
	}
}

// ctlStatus prints the member table, the alive peers' polled protocol states
// and — where members run with -replicas — their replication status: role,
// placement streams, durable frontiers and the under_replicated gauge.
func ctlStatus(ctx context.Context, coord *cluster.Coordinator) error {
	states, err := coord.States(ctx)
	if err != nil {
		return err
	}
	members := coord.Transport().Members()
	sort.Slice(members, func(i, j int) bool { return members[i].Name < members[j].Name })
	for _, m := range members {
		line := fmt.Sprintf("%-12s %-8s %s", m.Name, m.Status, m.Addr)
		if st, ok := states[m.Name]; ok {
			state := "open"
			if st.Closed {
				state = "closed"
			}
			line += fmt.Sprintf("   epoch=%d state=%s paths_ready=%v tuples=%d", st.Epoch, state, st.PathsReady, st.Tuples)
			if st.BadFrames > 0 {
				line += fmt.Sprintf(" bad_frames=%d (undecodable: mixed wire versions?)", st.BadFrames)
			}
		}
		fmt.Println(line)
		if st, ok := states[m.Name]; ok && (st.Watchers > 0 || st.WatchExtracted > 0 ||
			st.WatchDropped > 0 || st.WatchCanceled > 0) {
			fmt.Printf("  serving: watchers=%d queued=%d extractions=%d saved=%d dropped=%d canceled=%d\n",
				st.Watchers, st.WatchQueued, st.WatchExtracted, st.WatchSaved,
				st.WatchDropped, st.WatchCanceled)
		}
	}
	// The replica round is allowed to come back partial (members without
	// -replicas never answer); print whatever arrived.
	reps, err := coord.ReplicaStatuses(ctx)
	if err != nil || len(reps) == 0 {
		return nil
	}
	names := make([]string, 0, len(reps))
	for name := range reps {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		rep := reps[name]
		fmt.Printf("replication @ %-8s k=%d under_replicated=%d\n", rep.Member, rep.K, rep.UnderReplicated)
		for _, e := range rep.Entries {
			switch e.Role {
			case "primary":
				fmt.Printf("  %s: primary -> %s  acked=%d/%d\n", e.Node, e.Peer, e.Applied, e.Target)
			default:
				fmt.Printf("  %s: mirror (primary %s)  applied=%d\n", e.Node, e.Peer, e.Applied)
			}
		}
	}
	return nil
}
