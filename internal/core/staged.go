package core

import (
	"context"

	"repro/internal/graph"
)

// UpdateStaged runs the topology-aware update strategy the paper's §3 hints
// at ("optimizations … exploit the knowledge of specific topological
// structures"): the dependency graph's strongly connected components are
// processed in reverse topological order (data sources first), so by the
// time a component pulls, all its external sources are final — their answers
// arrive complete on the first exchange, eliminating the intermediate change
// waves and re-pulls of the flood strategy. Cyclic components still iterate
// internally, but only among themselves.
//
// The result is the same fix-point as Update (validated by the test suite);
// the saving is in messages and bytes, largest on deep chains and trees.
func (n *Network) UpdateStaged(ctx context.Context) error {
	// One shared epoch, adopted quietly by every peer so that queries do
	// not trigger activation floods.
	peers, _, nodeOrder := n.hosted()
	var epoch uint64
	for _, id := range nodeOrder {
		if e := peers[id].Epoch(); e > epoch {
			epoch = e
		}
	}
	epoch++
	for _, id := range nodeOrder {
		peers[id].ActivateQuiet(epoch)
	}
	if err := n.Quiesce(ctx); err != nil { // discovery waves from activation
		return err
	}

	n.defMu.Lock()
	defRules := n.def.Rules
	n.defMu.Unlock()
	g := graph.FromRules(defRules)
	for _, id := range nodeOrder {
		g.AddNode(id)
	}
	sccs := g.SCCs() // Tarjan emits components children-first on this graph
	order := topoOrderSCCs(g, sccs)

	// Sources first: reverse topological order of the condensation
	// (dependency edges point head -> source, so sources are sinks). Each
	// stage is a wave of its own — the component pulls, and must close before
	// the stage above reads it; cyclic components iterate internally.
	for i := len(order) - 1; i >= 0; i-- {
		comp := order[i]
		pull := func() {
			for _, id := range comp {
				peers[id].ForcePull()
			}
		}
		if err := n.drive(ctx, localWave{kick: pull, nodes: comp}); err != nil {
			return err
		}
	}
	// Every stage closed its own component; the network as a whole must have
	// stayed closed.
	return n.drive(ctx, localWave{kick: func() {}})
}

// topoOrderSCCs orders the components so that every dependency edge goes
// from an earlier component to a later one (heads before sources).
func topoOrderSCCs(g *graph.Graph, sccs [][]string) [][]string {
	compOf := map[string]int{}
	for i, c := range sccs {
		for _, node := range c {
			compOf[node] = i
		}
	}
	// Build the condensation and Kahn-sort it.
	succ := make(map[int]map[int]bool, len(sccs))
	indeg := make([]int, len(sccs))
	for _, e := range g.Edges() {
		a, b := compOf[e.From], compOf[e.To]
		if a == b {
			continue
		}
		if succ[a] == nil {
			succ[a] = map[int]bool{}
		}
		if !succ[a][b] {
			succ[a][b] = true
			indeg[b]++
		}
	}
	var ready []int
	for i := range sccs {
		if indeg[i] == 0 {
			ready = append(ready, i)
		}
	}
	var order [][]string
	for len(ready) > 0 {
		c := ready[0]
		ready = ready[1:]
		order = append(order, sccs[c])
		for s := range succ[c] {
			indeg[s]--
			if indeg[s] == 0 {
				ready = append(ready, s)
			}
		}
	}
	return order
}
