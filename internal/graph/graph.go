// Package graph implements the dependency-graph machinery of the paper:
// dependency edges (Definition 5, from a rule's head node to each body node),
// dependency paths and maximal dependency paths (Definitions 6 and 7),
// reachability, strongly connected components, and the separation conditions
// of Definition 10 used by Theorem 3.
package graph

import (
	"sort"
	"strings"

	"repro/internal/rules"
)

// Edge is a dependency edge From → To: node From has a coordination rule
// whose body reads node To (data flows To → From).
type Edge struct {
	From, To string
}

// Graph is a directed graph over node names with set semantics for edges.
type Graph struct {
	nodes map[string]bool
	succ  map[string]map[string]bool
}

// New creates an empty graph.
func New() *Graph {
	return &Graph{nodes: map[string]bool{}, succ: map[string]map[string]bool{}}
}

// FromRules builds the dependency graph of a rule set: an edge head→source
// for every rule and body node.
func FromRules(rs []rules.Rule) *Graph {
	g := New()
	for _, r := range rs {
		g.AddNode(r.HeadNode)
		for _, src := range r.SourceNodes() {
			g.AddEdge(r.HeadNode, src)
		}
	}
	return g
}

// AddNode registers a node (idempotent).
func (g *Graph) AddNode(n string) {
	g.nodes[n] = true
	if g.succ[n] == nil {
		g.succ[n] = map[string]bool{}
	}
}

// AddEdge registers a directed edge (idempotent), registering endpoints.
func (g *Graph) AddEdge(from, to string) {
	g.AddNode(from)
	g.AddNode(to)
	g.succ[from][to] = true
}

// HasEdge reports edge presence.
func (g *Graph) HasEdge(from, to string) bool { return g.succ[from][to] }

// Nodes returns all node names, sorted.
func (g *Graph) Nodes() []string {
	out := make([]string, 0, len(g.nodes))
	for n := range g.nodes {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Succ returns the successors of a node, sorted.
func (g *Graph) Succ(n string) []string {
	out := make([]string, 0, len(g.succ[n]))
	for m := range g.succ[n] {
		out = append(out, m)
	}
	sort.Strings(out)
	return out
}

// Edges returns all edges sorted by (From, To).
func (g *Graph) Edges() []Edge {
	var out []Edge
	for from, set := range g.succ {
		for to := range set {
			out = append(out, Edge{from, to})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].From != out[j].From {
			return out[i].From < out[j].From
		}
		return out[i].To < out[j].To
	})
	return out
}

// Reachable returns the set of nodes reachable from start (excluding start
// unless it lies on a cycle through itself... start is included only if
// reachable via at least one edge).
func (g *Graph) Reachable(start string) map[string]bool {
	out := map[string]bool{}
	var stack []string
	for _, s := range g.Succ(start) {
		stack = append(stack, s)
	}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if out[n] {
			continue
		}
		out[n] = true
		for _, s := range g.Succ(n) {
			if !out[s] {
				stack = append(stack, s)
			}
		}
	}
	return out
}

// ReachableSubgraph returns the subgraph induced by start plus everything
// reachable from it (the part of the network a node discovers).
func (g *Graph) ReachableSubgraph(start string) *Graph {
	keep := g.Reachable(start)
	keep[start] = true
	sub := New()
	for n := range keep {
		sub.AddNode(n)
	}
	for from := range keep {
		for to := range g.succ[from] {
			if keep[to] {
				sub.AddEdge(from, to)
			}
		}
	}
	return sub
}

// Path is a dependency path: a sequence of node names connected by edges.
type Path []string

// String joins the node names ("A→B→C" rendered as ABC when names are single
// letters, else dot-separated).
func (p Path) String() string {
	single := true
	for _, n := range p {
		if len(n) != 1 {
			single = false
			break
		}
	}
	if single {
		return strings.Join(p, "")
	}
	return strings.Join(p, ".")
}

// Key returns an injective encoding usable as a map key.
func (p Path) Key() string { return strings.Join(p, "\x00") }

// MaximalPaths enumerates the maximal dependency paths for start, per
// Definitions 6 and 7: sequences ⟨i1,…,in⟩ of dependency edges with i1 =
// start whose prefix ⟨i1,…,i(n−1)⟩ is simple, such that no extension is again
// a dependency path. The start node is included as the first element (the
// paper omits it when listing). Results are sorted lexicographically.
//
// The enumeration is exponential in the worst case (cliques), as the paper's
// own 2EXPTIME bound anticipates; callers cap topology sizes accordingly.
func (g *Graph) MaximalPaths(start string) []Path {
	var out []Path
	onPath := map[string]bool{start: true}
	prefix := Path{start}

	var dfs func(last string)
	dfs = func(last string) {
		succ := g.Succ(last)
		extended := false
		for _, next := range succ {
			if onPath[next] {
				// ⟨prefix, next⟩ has a repeated node: it is still a
				// dependency path (only the prefix must be simple) but it
				// cannot be extended further, so it is maximal.
				p := make(Path, len(prefix)+1)
				copy(p, prefix)
				p[len(prefix)] = next
				out = append(out, p)
				extended = true
				continue
			}
			onPath[next] = true
			prefix = append(prefix, next)
			dfs(next)
			prefix = prefix[:len(prefix)-1]
			delete(onPath, next)
			extended = true
		}
		if !extended && len(prefix) > 1 {
			// Dead end: the simple path itself is maximal.
			p := make(Path, len(prefix))
			copy(p, prefix)
			out = append(out, p)
		}
	}
	dfs(start)
	sort.Slice(out, func(i, j int) bool { return out[i].Key() < out[j].Key() })
	return out
}

// SCCs returns the strongly connected components (Tarjan), each sorted, in
// deterministic order (by smallest member).
func (g *Graph) SCCs() [][]string {
	index := map[string]int{}
	low := map[string]int{}
	onStack := map[string]bool{}
	var stack []string
	next := 0
	var out [][]string

	var strong func(v string)
	strong = func(v string) {
		index[v] = next
		low[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true
		for _, w := range g.Succ(v) {
			if _, seen := index[w]; !seen {
				strong(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			var comp []string
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				comp = append(comp, w)
				if w == v {
					break
				}
			}
			sort.Strings(comp)
			out = append(out, comp)
		}
	}
	for _, v := range g.Nodes() {
		if _, seen := index[v]; !seen {
			strong(v)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i][0] < out[j][0] })
	return out
}

// IsAcyclic reports whether the graph has no directed cycle.
func (g *Graph) IsAcyclic() bool {
	for _, c := range g.SCCs() {
		if len(c) > 1 {
			return false
		}
		if g.HasEdge(c[0], c[0]) {
			return false
		}
	}
	return true
}

// Topological returns a topological order (sources of data last) when the
// graph is acyclic; ok=false otherwise.
func (g *Graph) Topological() (order []string, ok bool) {
	if !g.IsAcyclic() {
		return nil, false
	}
	indeg := map[string]int{}
	for _, n := range g.Nodes() {
		indeg[n] += 0
	}
	for _, e := range g.Edges() {
		indeg[e.To]++
	}
	var ready []string
	for n, d := range indeg {
		if d == 0 {
			ready = append(ready, n)
		}
	}
	sort.Strings(ready)
	for len(ready) > 0 {
		n := ready[0]
		ready = ready[1:]
		order = append(order, n)
		for _, s := range g.Succ(n) {
			indeg[s]--
			if indeg[s] == 0 {
				ready = append(ready, s)
				sort.Strings(ready)
			}
		}
	}
	return order, true
}

// Separated reports whether node set a is separated from node set b
// (Definition 10.1): no dependency path from a node in a involves a node in
// b, i.e. nothing in b is reachable from a.
func (g *Graph) Separated(a, b []string) bool {
	bset := map[string]bool{}
	for _, n := range b {
		bset[n] = true
	}
	for _, n := range a {
		if bset[n] {
			return false
		}
		for r := range g.Reachable(n) {
			if bset[r] {
				return false
			}
		}
	}
	return true
}
