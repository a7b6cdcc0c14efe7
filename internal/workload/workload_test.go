package workload

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/rules"
)

func TestTreeShape(t *testing.T) {
	tr := Tree(2, 2)
	if tr.N != 7 {
		t.Fatalf("binary tree depth 2: %d nodes", tr.N)
	}
	if len(tr.Links) != 6 {
		t.Fatalf("links = %d", len(tr.Links))
	}
	if tr.Depth() != 2 {
		t.Fatalf("depth = %d", tr.Depth())
	}
	// Every link flows towards the root (node 0 reachable from every src).
	g := graph.New()
	for _, l := range tr.Links {
		g.AddEdge(NodeName(l.Dst), NodeName(l.Src)) // dependency direction
	}
	if !g.IsAcyclic() {
		t.Error("tree must be acyclic")
	}
}

func TestChainAndRing(t *testing.T) {
	if Chain(5).Depth() != 4 {
		t.Errorf("chain depth = %d", Chain(5).Depth())
	}
	r := Ring(4)
	if len(r.Links) != 4 || r.Depth() != 4 {
		t.Errorf("ring: %d links, depth %d", len(r.Links), r.Depth())
	}
}

func TestGridShape(t *testing.T) {
	g := Grid(3, 4)
	if g.N != 12 {
		t.Fatalf("nodes = %d", g.N)
	}
	// Each of the 3×4 cells links to its right and lower neighbour:
	// 3 rows × 3 horizontal + 2×4 vertical = 17 links.
	if len(g.Links) != 17 {
		t.Fatalf("links = %d", len(g.Links))
	}
	// Longest data path is the Manhattan diameter: (rows-1)+(cols-1).
	if g.Depth() != 5 {
		t.Fatalf("depth = %d", g.Depth())
	}
	// The corner imports from exactly two neighbours; every link flows
	// towards lower-numbered nodes (acyclicity).
	for _, l := range g.Links {
		if l.Src <= l.Dst {
			t.Fatalf("link %v does not flow towards node 0", l)
		}
	}
	if _, err := Generate(g, DataSpec{RecordsPerNode: 2, Seed: 1, Style: StyleCopy}); err != nil {
		t.Fatal(err)
	}
}

func TestLayeredDAG(t *testing.T) {
	d := LayeredDAG(3, 3, 2)
	if d.N != 10 {
		t.Fatalf("nodes = %d", d.N)
	}
	if d.Depth() != 3 {
		t.Fatalf("depth = %d", d.Depth())
	}
	g := graph.New()
	for _, l := range d.Links {
		g.AddEdge(NodeName(l.Dst), NodeName(l.Src))
	}
	if !g.IsAcyclic() {
		t.Error("layered DAG must be acyclic")
	}
}

func TestClique(t *testing.T) {
	c := Clique(4)
	if len(c.Links) != 12 {
		t.Fatalf("links = %d", len(c.Links))
	}
	if c.Depth() != 4 { // cyclic: depth defined as n
		t.Fatalf("depth = %d", c.Depth())
	}
}

func TestRandomDAGDeterministicAndAcyclic(t *testing.T) {
	a := RandomDAG(12, 0.3, 42)
	b := RandomDAG(12, 0.3, 42)
	if len(a.Links) != len(b.Links) {
		t.Fatal("random topology not deterministic")
	}
	g := graph.New()
	for _, l := range a.Links {
		g.AddEdge(NodeName(l.Dst), NodeName(l.Src))
	}
	if !g.IsAcyclic() {
		t.Error("random DAG must be acyclic")
	}
}

func TestGenerateMixedValidates(t *testing.T) {
	net, err := Generate(Tree(2, 2), DataSpec{RecordsPerNode: 20, Seed: 1, Style: StyleMixed})
	if err != nil {
		t.Fatal(err)
	}
	if len(net.Nodes) != 7 || len(net.Rules) != 6 {
		t.Fatalf("nodes=%d rules=%d", len(net.Nodes), len(net.Rules))
	}
	if net.Super != "N00" {
		t.Errorf("super = %s", net.Super)
	}
	// Shapes rotate: node 1 is shape 1 (article), node 2 is shape 2 (rec).
	n1, _ := net.Node("N01")
	if len(n1.Schemas) != 1 || n1.Schemas[0].Name != "article" {
		t.Errorf("N01 schemas = %+v", n1.Schemas)
	}
	// ~20 records per node; shape 0 nodes produce 2 facts per record.
	if len(net.Facts) < 7*20 {
		t.Errorf("facts = %d", len(net.Facts))
	}
}

func TestGenerateDeterministic(t *testing.T) {
	spec := DataSpec{RecordsPerNode: 10, Overlap: 0.5, Seed: 99, Style: StyleMixed}
	a, err := Generate(Chain(4), spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(Chain(4), spec)
	if err != nil {
		t.Fatal(err)
	}
	if a.Format() != b.Format() {
		t.Error("generation must be deterministic in the seed")
	}
}

func TestGenerateOverlapCreatesDuplicates(t *testing.T) {
	spec0 := DataSpec{RecordsPerNode: 60, Overlap: 0, Seed: 5, Style: StyleCopy}
	spec50 := DataSpec{RecordsPerNode: 60, Overlap: 0.5, Seed: 5, Style: StyleCopy}
	n0, err := Generate(Chain(4), spec0)
	if err != nil {
		t.Fatal(err)
	}
	n50, err := Generate(Chain(4), spec50)
	if err != nil {
		t.Fatal(err)
	}
	if d0, d50 := distinctFactKeys(n0), distinctFactKeys(n50); d50 >= d0 {
		t.Errorf("50%% overlap should reduce distinct records: %d vs %d", d50, d0)
	}
}

// distinctFactKeys counts distinct fact tuples ignoring the node, so shared
// records across neighbours collapse.
func distinctFactKeys(n *rules.Network) int {
	seen := map[string]bool{}
	for _, f := range n.Facts {
		seen[f.Rel+"|"+f.Tuple.Key()] = true
	}
	return len(seen)
}

func TestGenerateCopyStyleSingleShape(t *testing.T) {
	net, err := Generate(Clique(3), DataSpec{RecordsPerNode: 5, Seed: 2, Style: StyleCopy})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range net.Nodes {
		if len(d.Schemas) != 2 || d.Schemas[0].Name != "pub" {
			t.Fatalf("copy style should use shape 0 everywhere: %+v", d)
		}
	}
}

func TestTreeWithDepthShape(t *testing.T) {
	for _, d := range []int{1, 2, 3, 5, 15} {
		tr := TreeWithDepth(16, d)
		if tr.N != 16 {
			t.Fatalf("depth %d: n = %d", d, tr.N)
		}
		if len(tr.Links) != 15 {
			t.Fatalf("depth %d: links = %d (a tree over 16 nodes has 15)", d, len(tr.Links))
		}
		if got := tr.Depth(); got != d {
			t.Errorf("TreeWithDepth(16,%d).Depth() = %d", d, got)
		}
		g := graph.New()
		for _, l := range tr.Links {
			g.AddEdge(NodeName(l.Dst), NodeName(l.Src))
		}
		if !g.IsAcyclic() {
			t.Errorf("depth %d: cyclic", d)
		}
	}
	// Depth capped at n-1.
	if TreeWithDepth(4, 99).Depth() != 3 {
		t.Error("depth must cap at n-1")
	}
}

func TestLayeredDAGWithNodesShape(t *testing.T) {
	for _, l := range []int{1, 2, 3, 5} {
		d := LayeredDAGWithNodes(16, l, 2)
		if d.N != 16 {
			t.Fatalf("layers %d: n = %d", l, d.N)
		}
		if got := d.Depth(); got != l {
			t.Errorf("LayeredDAGWithNodes(16,%d).Depth() = %d", l, got)
		}
		g := graph.New()
		for _, lk := range d.Links {
			g.AddEdge(NodeName(lk.Dst), NodeName(lk.Src))
		}
		if !g.IsAcyclic() {
			t.Errorf("layers %d: cyclic", l)
		}
	}
}

func TestRandomDigraphWeaklyConnected(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		topo := RandomDigraph(7, 0.15, seed)
		adj := map[int][]int{}
		for _, l := range topo.Links {
			adj[l.Src] = append(adj[l.Src], l.Dst)
			adj[l.Dst] = append(adj[l.Dst], l.Src)
		}
		seen := map[int]bool{0: true}
		stack := []int{0}
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, w := range adj[v] {
				if !seen[w] {
					seen[w] = true
					stack = append(stack, w)
				}
			}
		}
		if len(seen) != topo.N {
			t.Fatalf("seed %d: only %d/%d nodes weakly connected", seed, len(seen), topo.N)
		}
	}
}
