// Package workload generates the experimental setups of Section 5 of the
// paper: topology families (trees, layered acyclic graphs, cliques, plus
// chains, rings, grids and random graphs), DBLP-like publication data spread
// over three heterogeneous relational schemas (~1000 records per node, about
// 20000 in the paper's 31-node runs), two data distributions (0% and 50%
// neighbour overlap), and the coordination rules connecting the schema
// shapes (including rules with existential head variables).
package workload

import (
	"fmt"
)

// Link is one directed data-flow edge: data moves Src -> Dst, i.e. Dst gains
// a coordination rule whose body reads Src (the dependency edge is Dst ->
// Src).
type Link struct {
	Src, Dst int
}

// Topology is an abstract node/link structure, later materialised into a
// network by Generate.
type Topology struct {
	Name  string
	N     int
	Links []Link
}

// Depth-ish summary used by the experiment tables.
func (t Topology) String() string {
	return fmt.Sprintf("%s(n=%d, links=%d)", t.Name, t.N, len(t.Links))
}

// Tree builds a rooted tree of the given depth and branching factor; data
// flows from the leaves towards the root (node 0), so the root's update
// requires the full depth of propagation. Nodes are numbered in BFS order.
func Tree(depth, branching int) Topology {
	t := Topology{Name: fmt.Sprintf("tree(d=%d,b=%d)", depth, branching)}
	type level struct{ first, count int }
	cur := level{0, 1}
	t.N = 1
	for d := 0; d < depth; d++ {
		next := level{t.N, cur.count * branching}
		for i := 0; i < cur.count; i++ {
			parent := cur.first + i
			for b := 0; b < branching; b++ {
				child := next.first + i*branching + b
				t.Links = append(t.Links, Link{Src: child, Dst: parent})
			}
		}
		t.N += next.count
		cur = next
	}
	return t
}

// TreeWithDepth builds a tree over exactly n nodes with exactly the given
// depth: the n-1 non-root nodes are spread evenly over `depth` levels and
// each node links to a parent in the previous level (round-robin). Fixing n
// while varying depth isolates the paper's "execution time is linear in the
// depth of the structure" claim from data-volume effects.
func TreeWithDepth(n, depth int) Topology {
	t := Topology{Name: fmt.Sprintf("tree(n=%d,depth=%d)", n, depth), N: n}
	if depth < 1 || n < 2 {
		return t
	}
	if depth > n-1 {
		depth = n - 1
	}
	// Level 0 = {root}; levels 1..depth share the remaining n-1 nodes.
	levels := make([][]int, depth+1)
	levels[0] = []int{0}
	next := 1
	remaining := n - 1
	for l := 1; l <= depth; l++ {
		size := remaining / (depth - l + 1)
		if size < 1 {
			size = 1
		}
		for i := 0; i < size && next < n; i++ {
			levels[l] = append(levels[l], next)
			next++
		}
		remaining = n - next
	}
	for l := 1; l <= depth; l++ {
		parents := levels[l-1]
		for i, node := range levels[l] {
			t.Links = append(t.Links, Link{Src: node, Dst: parents[i%len(parents)]})
		}
	}
	return t
}

// LayeredDAGWithNodes builds a layered acyclic graph over exactly n nodes
// and the given number of layers: layer 0 is the single querying site, the
// other n-1 nodes are spread evenly, and every node reads up to fanin nodes
// of the next layer. Fixed n, varying layers isolates the depth effect.
func LayeredDAGWithNodes(n, layers, fanin int) Topology {
	t := Topology{Name: fmt.Sprintf("dag(n=%d,layers=%d,f=%d)", n, layers, fanin), N: n}
	if layers < 1 || n < 2 {
		return t
	}
	if layers > n-1 {
		layers = n - 1
	}
	if fanin < 1 {
		fanin = 1
	}
	levels := make([][]int, layers+1)
	levels[0] = []int{0}
	next := 1
	remaining := n - 1
	for l := 1; l <= layers; l++ {
		size := remaining / (layers - l + 1)
		if size < 1 {
			size = 1
		}
		for i := 0; i < size && next < n; i++ {
			levels[l] = append(levels[l], next)
			next++
		}
		remaining = n - next
	}
	for l := 0; l < layers; l++ {
		srcLevel := levels[l+1]
		for i, dst := range levels[l] {
			for f := 0; f < fanin && f < len(srcLevel); f++ {
				src := srcLevel[(i+f)%len(srcLevel)]
				t.Links = append(t.Links, Link{Src: src, Dst: dst})
			}
		}
	}
	return t
}

// Chain builds a linear chain 0 <- 1 <- ... <- n-1 (data flows towards 0):
// the degenerate tree with branching 1.
func Chain(n int) Topology {
	t := Topology{Name: fmt.Sprintf("chain(n=%d)", n), N: n}
	for i := 1; i < n; i++ {
		t.Links = append(t.Links, Link{Src: i, Dst: i - 1})
	}
	return t
}

// LayeredDAG builds a layered acyclic graph with the given number of layers
// and width: every node of layer k reads `fanin` nodes of layer k+1 (data
// flows towards layer 0). Layer 0 has one node (the querying site).
func LayeredDAG(layers, width, fanin int) Topology {
	t := Topology{Name: fmt.Sprintf("dag(l=%d,w=%d,f=%d)", layers, width, fanin)}
	if fanin < 1 {
		fanin = 1
	}
	layerFirst := make([]int, layers+1)
	layerFirst[0] = 0
	t.N = 1
	for l := 1; l <= layers; l++ {
		layerFirst[l] = t.N
		t.N += width
	}
	for l := 0; l < layers; l++ {
		curWidth := width
		if l == 0 {
			curWidth = 1
		}
		for i := 0; i < curWidth; i++ {
			dst := layerFirst[l] + i
			for f := 0; f < fanin && f < width; f++ {
				src := layerFirst[l+1] + (i+f)%width
				t.Links = append(t.Links, Link{Src: src, Dst: dst})
			}
		}
	}
	return t
}

// Grid builds a rows×cols mesh; data flows left and up: every node imports
// from its right and lower neighbour, so node 0 (the top-left corner, the
// querying site) transitively depends on the whole grid. Grids have the
// diamond-rich dependency structure that stresses duplicate derivations:
// most tuples reach a node along several paths.
func Grid(rows, cols int) Topology {
	t := Topology{Name: fmt.Sprintf("grid(%dx%d)", rows, cols), N: rows * cols}
	id := func(r, c int) int { return r*cols + c }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				t.Links = append(t.Links, Link{Src: id(r, c+1), Dst: id(r, c)})
			}
			if r+1 < rows {
				t.Links = append(t.Links, Link{Src: id(r+1, c), Dst: id(r, c)})
			}
		}
	}
	return t
}

// Clique builds a complete digraph on n nodes: every node imports from every
// other (the cyclic stress topology of the paper's experiments).
func Clique(n int) Topology {
	t := Topology{Name: fmt.Sprintf("clique(n=%d)", n), N: n}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				t.Links = append(t.Links, Link{Src: i, Dst: j})
			}
		}
	}
	return t
}

// Ring builds a directed cycle 0 <- 1 <- 2 ... <- n-1 <- 0.
func Ring(n int) Topology {
	t := Topology{Name: fmt.Sprintf("ring(n=%d)", n), N: n}
	for i := 0; i < n; i++ {
		t.Links = append(t.Links, Link{Src: (i + 1) % n, Dst: i})
	}
	return t
}

// RandomDAG builds a random acyclic topology: each node i reads each higher-
// numbered node with probability p (deterministic in the seed).
func RandomDAG(n int, p float64, seed int64) Topology {
	t := Topology{Name: fmt.Sprintf("rand(n=%d,p=%.2f,s=%d)", n, p, seed), N: n}
	rng := newRng(seed)
	for i := 0; i < n; i++ {
		degree := 0
		for j := i + 1; j < n; j++ {
			if rng.Float64() < p {
				t.Links = append(t.Links, Link{Src: j, Dst: i})
				degree++
			}
		}
		// Keep the graph connected-ish: every non-terminal node reads at
		// least one source.
		if degree == 0 && i+1 < n {
			t.Links = append(t.Links, Link{Src: i + 1, Dst: i})
		}
	}
	return t
}

// Depth returns the length of the longest source-to-sink data path in the
// topology (the "depth of the structure" the paper reports execution time to
// be linear in). For cyclic topologies it returns n.
func (t Topology) Depth() int {
	succ := make(map[int][]int)
	for _, l := range t.Links {
		succ[l.Src] = append(succ[l.Src], l.Dst)
	}
	memo := make(map[int]int, t.N)
	visiting := map[int]bool{}
	cyclic := false
	var depth func(v int) int
	depth = func(v int) int {
		if d, ok := memo[v]; ok {
			return d
		}
		if visiting[v] {
			cyclic = true
			return 0
		}
		visiting[v] = true
		best := 0
		for _, s := range succ[v] {
			if d := depth(s) + 1; d > best {
				best = d
			}
		}
		visiting[v] = false
		memo[v] = best
		return best
	}
	max := 0
	for v := 0; v < t.N; v++ {
		if d := depth(v); d > max {
			max = d
		}
	}
	if cyclic {
		return t.N
	}
	return max
}

// RandomDigraph builds a random directed topology that may contain cycles:
// every ordered pair gains a link with probability p (deterministic in the
// seed). The result is made weakly connected (extra links join stray
// components to node 0's), because the update wave covers exactly one weak
// component — the super-peer's — and the soak tests validate every node
// against the centralised fix-point.
func RandomDigraph(n int, p float64, seed int64) Topology {
	t := Topology{Name: fmt.Sprintf("digraph(n=%d,p=%.2f,s=%d)", n, p, seed), N: n}
	rng := newRng(seed)
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		if parent[x] != x {
			parent[x] = find(parent[x])
		}
		return parent[x]
	}
	union := func(a, b int) { parent[find(a)] = find(b) }

	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			if rng.Float64() < p {
				t.Links = append(t.Links, Link{Src: i, Dst: j})
				union(i, j)
			}
		}
	}
	for i := 1; i < n; i++ {
		if find(i) != find(0) {
			t.Links = append(t.Links, Link{Src: i, Dst: 0})
			union(i, 0)
		}
	}
	return t
}
