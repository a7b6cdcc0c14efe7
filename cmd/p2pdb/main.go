// Command p2pdb runs P2P database networks from network-description files:
// topology discovery, global updates, local and query-dependent queries,
// execution traces, and a TCP demonstration where every peer talks over real
// sockets.
//
// Usage:
//
//	p2pdb run <net-file>                # discover + update + stats
//	p2pdb paths <net-file> [node]       # maximal dependency paths (Defs. 6–7)
//	p2pdb query <net-file> <node> <q>   # update, then answer q locally
//	p2pdb qdu <net-file> <node> <q>     # query-dependent update only
//	p2pdb trace <net-file>              # message sequence chart (Figure 1)
//	p2pdb tcp <net-file>                # run the update over TCP sockets
//	p2pdb serve <net-file> <node>       # host ONE peer in this process (cluster member)
//	p2pdb ctl <net-file> <verb> [...]   # remote control plane against serve processes
//	p2pdb recover <data-dir> [node]     # print a durable store's contents
//	p2pdb example                       # print the paper's running example
//
// Flags (before the subcommand): -delta, -sync, -seed, -timeout, the
// durability pair -data (per-node write-ahead-log directory; networks built
// with it survive restarts and crashes) and -fsync (always, interval, never),
// and the cluster flags -listen, -join, -metrics, -hb, -suspect (serve/ctl).
//
// serve and tcp catch SIGINT/SIGTERM and shut down cleanly: watchers drain,
// the cluster is told goodbye, durable stores seal with a clean-close record
// so the next start recovers delta-only.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/cq"
	"repro/internal/graph"
	"repro/internal/rules"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/wal"
)

var (
	delta    = flag.Bool("delta", false, "enable the delta optimisation")
	sync_    = flag.Bool("sync", false, "synchronous (BSP) rounds instead of async messaging")
	staged   = flag.Bool("staged", false, "topology-aware staged update (SCC condensation, sources first)")
	seed     = flag.Int64("seed", 1, "deterministic seed")
	timeout  = flag.Duration("timeout", 2*time.Minute, "run timeout")
	dataDir  = flag.String("data", "", "durable backend: write-ahead-log directory (one store per node; empty = in-memory)")
	fsyncStr = flag.String("fsync", "interval", "fsync policy of the durable backend: always, interval or never")
	resend   = flag.Duration("resend", 0, "re-ship unacknowledged subscription deltas after this silence (serve defaults to 1s; 0 keeps the other, deterministic modes off; negative disables in serve too)")
)

func main() {
	flag.Parse()
	if err := run(flag.Args()); err != nil {
		fmt.Fprintf(os.Stderr, "p2pdb: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("missing subcommand (run, paths, query, qdu, trace, tcp, serve, ctl, recover, analyze, example)")
	}
	cmd, rest := args[0], args[1:]
	switch cmd {
	case "example":
		fmt.Print(rules.PaperExampleSeeded().Format())
		return nil
	case "run":
		return cmdRun(rest)
	case "paths":
		return cmdPaths(rest)
	case "query":
		return cmdQuery(rest, false)
	case "qdu":
		return cmdQuery(rest, true)
	case "trace":
		return cmdTrace(rest)
	case "tcp":
		return cmdTCP(rest)
	case "serve":
		return cmdServe(rest)
	case "ctl":
		return cmdCtl(rest)
	case "recover":
		return cmdRecover(rest)
	case "analyze":
		return cmdAnalyze(rest)
	default:
		return fmt.Errorf("unknown subcommand %q", cmd)
	}
}

// cmdRecover inspects a durable data directory without opening it for
// writing: per node, the recovered relations with their sequence high-water
// marks, the protocol state (epoch, subscriptions, part results) and whether
// the log ended with a clean close.
func cmdRecover(args []string) error {
	if len(args) < 1 || len(args) > 2 {
		return fmt.Errorf("usage: p2pdb recover <data-dir> [node]")
	}
	dir := args[0]
	var nodes []string
	if len(args) == 2 {
		nodes = []string{args[1]}
	} else {
		entries, err := os.ReadDir(dir)
		if err != nil {
			return err
		}
		for _, e := range entries {
			if e.IsDir() {
				nodes = append(nodes, e.Name())
			}
		}
		sort.Strings(nodes)
		if len(nodes) == 0 {
			return fmt.Errorf("no node stores under %s", dir)
		}
	}
	for _, node := range nodes {
		rec, err := wal.Inspect(filepath.Join(dir, node))
		if err != nil {
			return fmt.Errorf("%s: %w", node, err)
		}
		fmt.Printf("%s: %s\n", node, rec)
		for _, sch := range rec.DB.Schemas() {
			rel := rec.DB.Rel(sch.Name)
			fmt.Printf("  %s/%d  seq=%d  tuples=%d\n", sch.Name, sch.Arity(), rel.Seq(), rel.Len())
		}
		for _, sub := range rec.State.Subs {
			fmt.Printf("  sub %s←%s rule=%s primed=%v marks=%v\n",
				node, sub.Dependent, sub.RuleID, sub.Primed, sub.Marks)
		}
	}
	return nil
}

func loadNet(path string) (*rules.Network, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return rules.ParseNetwork(string(data))
}

func opts(rec *trace.Recorder) (core.Options, error) {
	policy, err := wal.ParseFsyncPolicy(*fsyncStr)
	if err != nil {
		return core.Options{}, err
	}
	resendEvery := *resend
	if resendEvery < 0 {
		resendEvery = 0
	}
	return core.Options{
		Seed:        *seed,
		Delta:       *delta,
		Synchronous: *sync_,
		Recorder:    rec,
		DataDir:     *dataDir,
		Fsync:       policy,
		ResendEvery: resendEvery,
	}, nil
}

func cmdRun(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("usage: p2pdb run <net-file>")
	}
	def, err := loadNet(args[0])
	if err != nil {
		return err
	}
	o, err := opts(nil)
	if err != nil {
		return err
	}
	n, err := core.Build(def, o)
	if err != nil {
		return err
	}
	defer n.Close()
	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	t0 := time.Now()
	if err := n.Discover(ctx); err != nil {
		return err
	}
	tDisc := time.Since(t0)
	t1 := time.Now()
	var upErr error
	if *staged {
		upErr = n.UpdateStaged(ctx)
	} else {
		upErr = n.Update(ctx)
	}
	if upErr != nil {
		return upErr
	}
	fmt.Printf("discovery: %v   update: %v   super-peer: %s\n\n", tDisc.Round(time.Microsecond), time.Since(t1).Round(time.Microsecond), n.Super())
	fmt.Println(stats.Table(n.Stats()))
	for _, id := range n.Nodes() {
		p := n.Peer(id)
		fmt.Printf("%s [%s] %d tuples\n", id, p.State(), p.DB().TotalTuples())
	}
	return nil
}

func cmdPaths(args []string) error {
	if len(args) < 1 || len(args) > 2 {
		return fmt.Errorf("usage: p2pdb paths <net-file> [node]")
	}
	def, err := loadNet(args[0])
	if err != nil {
		return err
	}
	g := graph.FromRules(def.Rules)
	nodes := g.Nodes()
	if len(args) == 2 {
		nodes = []string{args[1]}
	}
	sort.Strings(nodes)
	for _, node := range nodes {
		paths := g.MaximalPaths(node)
		fmt.Printf("%s: %d maximal dependency paths\n", node, len(paths))
		for _, p := range paths {
			fmt.Printf("  %s\n", p)
		}
	}
	return nil
}

func cmdQuery(args []string, scoped bool) error {
	if len(args) != 3 {
		return fmt.Errorf("usage: p2pdb %s <net-file> <node> <query>", map[bool]string{false: "query", true: "qdu"}[scoped])
	}
	def, err := loadNet(args[0])
	if err != nil {
		return err
	}
	node, q := args[1], args[2]
	conj, err := cq.ParseConjunction(q)
	if err != nil {
		return err
	}
	outVars := conj.Vars()
	o, err := opts(nil)
	if err != nil {
		return err
	}
	n, err := core.Build(def, o)
	if err != nil {
		return err
	}
	defer n.Close()
	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	var rowsErr error
	var rows []fmt.Stringer
	if scoped {
		ts, err := n.QueryDependentUpdate(ctx, node, q, outVars)
		if err != nil {
			return err
		}
		for _, t := range ts {
			rows = append(rows, t)
		}
	} else {
		if err := n.RunToFixpoint(ctx); err != nil {
			return err
		}
		ts, err := n.LocalQuery(node, q, outVars)
		if err != nil {
			return err
		}
		for _, t := range ts {
			rows = append(rows, t)
		}
	}
	if rowsErr != nil {
		return rowsErr
	}
	fmt.Printf("-- %s @ %s: %d rows over %v\n", q, node, len(rows), outVars)
	for _, r := range rows {
		fmt.Println(r)
	}
	return nil
}

func cmdTrace(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("usage: p2pdb trace <net-file>")
	}
	def, err := loadNet(args[0])
	if err != nil {
		return err
	}
	rec := trace.NewRecorder(2000)
	o, err := opts(rec)
	if err != nil {
		return err
	}
	n, err := core.Build(def, o)
	if err != nil {
		return err
	}
	defer n.Close()
	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	if err := n.RunToFixpoint(ctx); err != nil {
		return err
	}
	events := rec.Events()
	limit := 60
	if len(events) < limit {
		limit = len(events)
	}
	fmt.Println(trace.Sequence(events[:limit], n.Nodes()))
	fmt.Printf("(%d events total, %d dropped by the recorder cap)\n", len(events), rec.Dropped())
	return nil
}

// cmdAnalyze prints advisory findings about a network description: redundant
// coordination rules (conjunctive-query containment on aligned rule pairs)
// and topology facts relevant to update cost.
func cmdAnalyze(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("usage: p2pdb analyze <net-file>")
	}
	def, err := loadNet(args[0])
	if err != nil {
		return err
	}
	g := graph.FromRules(def.Rules)
	fmt.Printf("nodes: %d   rules: %d   dependency edges: %d   acyclic: %v\n",
		len(def.Nodes), len(def.Rules), len(g.Edges()), g.IsAcyclic())
	for _, scc := range g.SCCs() {
		if len(scc) > 1 {
			fmt.Printf("cyclic component: %v (update iterates to a fix-point here)\n", scc)
		}
	}
	totalPaths := 0
	for _, n := range g.Nodes() {
		totalPaths += len(g.MaximalPaths(n))
	}
	fmt.Printf("maximal dependency paths (all nodes): %d\n\n", totalPaths)
	fmt.Print(rules.AnalyzeNetwork(def))
	return nil
}
