package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
)

// Multi-process deployment: `p2pdb serve <net-file> <node>` hosts exactly one
// peer of the network in this OS process, over the cluster membership
// transport — the deployment story the paper sketches with JXTA, with the
// net-file's addr lines as the address book and a join handshake for
// everything the book does not cover. Orchestration comes from outside:
// `p2pdb ctl` (ctl.go) speaks the wire control verbs against the serve
// processes.

var (
	listenAddr   = flag.String("listen", "", "serve/ctl listen address (default: the net-file's addr for the node, else 127.0.0.1:0)")
	joinFlag     = flag.String("join", "", "extra address-book entries, NODE=host:port[,NODE=host:port...]")
	metricsAddr  = flag.String("metrics", "", "serve observability endpoint (host:port; empty = off)")
	hbEvery      = flag.Duration("hb", time.Second, "cluster heartbeat cadence")
	suspectAfter = flag.Duration("suspect", 0, "silence window before suspecting a member (0 = 3×hb)")
	batchWindow  = flag.Duration("batch-window", 2*time.Millisecond, "longest hold: answers/acks to a member whose link is busy coalesce into batched frames for at most this long; a message to a quiet member leaves at once (0 = one frame per message)")
	batchBytes   = flag.Int("batch-bytes", 64<<10, "flush a batch early past this encoded payload size")
	replicasK    = flag.Int("replicas", 0, "mirror each node's extensional relations on this many other members, with promotion fail-over (0 = off)")
	deadAfter    = flag.Duration("dead-after", 0, "continuous suspicion before a member is declared permanently dead and its nodes fail over (0 = 10s)")
)

// parseJoin parses the -join flag ("A=127.0.0.1:7101,B=...").
func parseJoin(s string) (map[string]string, error) {
	out := map[string]string{}
	if s == "" {
		return out, nil
	}
	for _, part := range strings.Split(s, ",") {
		name, addr, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok || name == "" || addr == "" {
			return nil, fmt.Errorf("bad -join entry %q (want NODE=host:port)", part)
		}
		out[name] = addr
	}
	return out, nil
}

// clusterOpts builds the membership tuning from the flags. The batched wire
// protocol lives in the cluster transport (not core.Options.BatchWindow), so
// the membership plane's heartbeats share frames with the peer's traffic.
func clusterOpts() cluster.Options {
	return cluster.Options{
		HeartbeatEvery: *hbEvery,
		SuspectAfter:   *suspectAfter,
		BatchWindow:    *batchWindow,
		BatchBytes:     *batchBytes,
	}
}

// cmdServe hosts one node of the network in this process until SIGINT or
// SIGTERM, then closes cleanly: watchers drain, the cluster says Goodbye,
// and the durable store (with -data) seals with a clean-close record so the
// next start recovers and re-joins delta-only.
func cmdServe(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: p2pdb serve <net-file> <node>")
	}
	def, err := loadNet(args[0])
	if err != nil {
		return err
	}
	node := args[1]
	if _, ok := def.Node(node); !ok {
		return fmt.Errorf("node %q not declared in %s", node, args[0])
	}
	joins, err := parseJoin(*joinFlag)
	if err != nil {
		return err
	}
	book := map[string]string{}
	for name, addr := range def.Addrs {
		book[name] = addr
	}
	for name, addr := range joins {
		book[name] = addr
	}
	listen := *listenAddr
	if listen == "" {
		listen = def.Addrs[node]
	}
	if listen == "" {
		listen = "127.0.0.1:0"
	}

	o, err := opts(nil)
	if err != nil {
		return err
	}
	// A long-lived serve process defaults the ack-resend loop on (losses the
	// membership layer cannot see still heal); the deterministic one-shot
	// modes leave it off unless asked. Negative -resend disables it here
	// too. Only with -delta: the resend loop re-ships from acked frontiers,
	// which only the delta configuration maintains — core.Build rejects the
	// combination loudly, so don't default into it.
	if *resend == 0 && o.Delta {
		o.ResendEvery = time.Second
	}
	// The replicated control plane: a consensus log over the net-file's
	// fixed node set. Control verbs arriving at ANY member become agreed log
	// entries, and a killed update-driver is replaced by the next eligible
	// member. With -data the applied entries persist beside the node's WAL
	// directory and replay on restart; with -replicas every node's relations
	// are mirrored and a dead member's nodes fail over.
	m, err := cluster.Boot(cluster.MemberConfig{
		Def: def, Node: node, Listen: listen, Book: book,
		Cluster: clusterOpts(),
		Core:    o,
		Control: &cluster.ControlPlaneOptions{
			Replication: cluster.ReplicationOptions{K: *replicasK, DeadAfter: *deadAfter},
		},
	})
	if err != nil {
		return err
	}

	if *metricsAddr != "" {
		maddr, closeMetrics, err := cluster.StartMetrics(*metricsAddr, m.Metrics)
		if err != nil {
			_ = m.Close()
			return err
		}
		defer func() { _ = closeMetrics() }()
		fmt.Printf("metrics at http://%s/metrics\n", maddr)
	}

	fmt.Printf("serving %s at %s (pid %d)\n", node, m.Transport().Addr(), os.Getpid())
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)
	select {
	case s := <-sig:
		fmt.Printf("%s: closing %s cleanly\n", s, node)
		return m.Close()
	case <-m.Deposed():
		// The agreed log re-homed this process's own node and the member is
		// shutting itself down; Close only waits for that to finish.
		_ = m.Close()
		return fmt.Errorf("deposed: %s is hosted elsewhere now", node)
	}
}
