package graph

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/rules"
)

// fromEdges builds a graph from an edge list.
func fromEdges(edges []Edge) *Graph {
	g := New()
	for _, e := range edges {
		g.AddEdge(e.From, e.To)
	}
	return g
}

func paperGraph() *Graph {
	return FromRules(rules.PaperExample().Rules)
}

func TestFromRulesPaperEdges(t *testing.T) {
	g := paperGraph()
	want := []Edge{
		{"A", "B"},
		{"B", "C"}, {"B", "E"},
		{"C", "A"}, {"C", "B"}, {"C", "D"},
		{"D", "A"},
	}
	if got := g.Edges(); !reflect.DeepEqual(got, want) {
		t.Fatalf("edges = %v, want %v", got, want)
	}
}

// TestE1MaximalPathsPaperTable reproduces the table in Section 2 of the
// paper. The expected sets below are derived mechanically from Definitions 6
// and 7 on the example's dependency edges; they agree with the paper's table
// up to its OCR/typesetting glitches (the paper prints "ABDA" for A's path
// ABCDA and omits CDABE from C's list), which EXPERIMENTS.md documents.
func TestE1MaximalPathsPaperTable(t *testing.T) {
	g := paperGraph()
	want := map[string][]string{
		"A": {"ABCA", "ABCB", "ABCDA", "ABE"},
		"B": {"BCAB", "BCB", "BCDAB", "BE"},
		"C": {"CABC", "CABE", "CBC", "CBE", "CDABC", "CDABE"},
		"D": {"DABCA", "DABCB", "DABCD", "DABE"},
		"E": nil,
	}
	for node, expect := range want {
		var got []string
		for _, p := range g.MaximalPaths(node) {
			got = append(got, p.String())
		}
		sort.Strings(got)
		sort.Strings(expect)
		if !reflect.DeepEqual(got, expect) {
			t.Errorf("MaximalPaths(%s) = %v, want %v", node, got, expect)
		}
	}
}

// bruteMaximalPaths enumerates maximal dependency paths by exhaustive
// generation straight from the definitions, as an independent oracle.
func bruteMaximalPaths(g *Graph, start string) []Path {
	isDepPath := func(p Path) bool {
		if len(p) < 2 || p[0] != start {
			return false
		}
		for i := 0; i+1 < len(p); i++ {
			if !g.HasEdge(p[i], p[i+1]) {
				return false
			}
		}
		seen := map[string]bool{}
		for _, n := range p[:len(p)-1] { // prefix must be simple
			if seen[n] {
				return false
			}
			seen[n] = true
		}
		return true
	}
	nodes := g.Nodes()
	var all []Path
	var gen func(p Path)
	gen = func(p Path) {
		if len(p) > len(nodes)+1 {
			return
		}
		if isDepPath(p) {
			all = append(all, append(Path(nil), p...))
		}
		for _, n := range nodes {
			if len(p) >= 2 && !g.HasEdge(p[len(p)-1], n) {
				continue
			}
			if len(p) == 1 && !g.HasEdge(p[0], n) {
				continue
			}
			next := append(p, n)
			if isDepPath(next) || len(next) == 1 {
				gen(next)
			}
		}
	}
	gen(Path{start})

	var maximal []Path
	for _, p := range all {
		extendable := false
		for _, n := range nodes {
			ext := append(append(Path(nil), p...), n)
			if isDepPath(ext) {
				extendable = true
				break
			}
		}
		if !extendable {
			maximal = append(maximal, p)
		}
	}
	sort.Slice(maximal, func(i, j int) bool { return maximal[i].Key() < maximal[j].Key() })
	return maximal
}

func TestMaximalPathsAgainstBruteForce(t *testing.T) {
	graphs := map[string]*Graph{
		"paper":    paperGraph(),
		"chain":    fromEdges([]Edge{{"a", "b"}, {"b", "c"}, {"c", "d"}}),
		"diamond":  fromEdges([]Edge{{"a", "b"}, {"a", "c"}, {"b", "d"}, {"c", "d"}}),
		"triangle": fromEdges([]Edge{{"a", "b"}, {"b", "c"}, {"c", "a"}}),
		"self":     fromEdges([]Edge{{"a", "a"}}),
		"k4": fromEdges([]Edge{
			{"a", "b"}, {"a", "c"}, {"a", "d"},
			{"b", "a"}, {"b", "c"}, {"b", "d"},
			{"c", "a"}, {"c", "b"}, {"c", "d"},
			{"d", "a"}, {"d", "b"}, {"d", "c"},
		}),
	}
	for name, g := range graphs {
		for _, start := range g.Nodes() {
			got := g.MaximalPaths(start)
			want := bruteMaximalPaths(g, start)
			if len(got) != len(want) {
				t.Errorf("%s/%s: %d paths, oracle says %d", name, start, len(got), len(want))
				continue
			}
			for i := range got {
				if got[i].Key() != want[i].Key() {
					t.Errorf("%s/%s: path %d = %v, oracle %v", name, start, i, got[i], want[i])
				}
			}
		}
	}
}

func TestMaximalPathsSelfLoop(t *testing.T) {
	g := fromEdges([]Edge{{"a", "a"}})
	paths := g.MaximalPaths("a")
	if len(paths) != 1 || paths[0].String() != "aa" {
		t.Fatalf("self loop paths = %v", paths)
	}
}

func TestReachable(t *testing.T) {
	g := paperGraph()
	r := g.Reachable("D")
	for _, n := range []string{"A", "B", "C", "D", "E"} {
		if !r[n] {
			t.Errorf("D should reach %s (got %v)", n, r)
		}
	}
	if r2 := g.Reachable("E"); len(r2) != 0 {
		t.Errorf("E reaches nothing, got %v", r2)
	}
}

func TestReachableSubgraph(t *testing.T) {
	g := fromEdges([]Edge{{"a", "b"}, {"b", "c"}, {"x", "y"}})
	sub := g.ReachableSubgraph("a")
	if len(sub.Nodes()) != 3 || sub.HasEdge("x", "y") {
		t.Errorf("subgraph = %v", sub.Edges())
	}
}

func TestSCCsAndAcyclicity(t *testing.T) {
	g := paperGraph()
	sccs := g.SCCs()
	// A, B, C, D are mutually reachable; E is alone.
	var big []string
	for _, c := range sccs {
		if len(c) > 1 {
			big = c
		}
	}
	if !reflect.DeepEqual(big, []string{"A", "B", "C", "D"}) {
		t.Errorf("big SCC = %v", big)
	}
	if g.IsAcyclic() {
		t.Error("paper graph is cyclic")
	}
	dag := fromEdges([]Edge{{"a", "b"}, {"b", "c"}, {"a", "c"}})
	if !dag.IsAcyclic() {
		t.Error("dag misclassified")
	}
	if self := fromEdges([]Edge{{"a", "a"}}); self.IsAcyclic() {
		t.Error("self loop is a cycle")
	}
}

func TestTopological(t *testing.T) {
	dag := fromEdges([]Edge{{"a", "b"}, {"b", "c"}, {"a", "c"}})
	order, ok := dag.Topological()
	if !ok {
		t.Fatal("dag must topo-sort")
	}
	pos := map[string]int{}
	for i, n := range order {
		pos[n] = i
	}
	for _, e := range dag.Edges() {
		if pos[e.From] > pos[e.To] {
			t.Errorf("edge %v violates order %v", e, order)
		}
	}
	if _, ok := paperGraph().Topological(); ok {
		t.Error("cyclic graph must not topo-sort")
	}
}

func TestSeparated(t *testing.T) {
	g := fromEdges([]Edge{{"a", "b"}, {"b", "c"}, {"x", "y"}})
	if !g.Separated([]string{"x", "y"}, []string{"a", "b", "c"}) {
		t.Error("x,y separated from a,b,c")
	}
	if g.Separated([]string{"a"}, []string{"c"}) {
		t.Error("a reaches c, not separated")
	}
	if g.Separated([]string{"a"}, []string{"a"}) {
		t.Error("overlapping sets are not separated")
	}
	// Separation is directional: c does not reach a's component upstream.
	if !g.Separated([]string{"c"}, []string{"a", "b"}) {
		t.Error("c has no outgoing edges; it is separated from a,b")
	}
}

func TestPathString(t *testing.T) {
	if (Path{"A", "B"}).String() != "AB" {
		t.Error("single-letter paths concatenate")
	}
	if (Path{"n1", "n2"}).String() != "n1.n2" {
		t.Error("long names join with dots")
	}
}

func TestMaximalPathsRandomGraphsAgainstOracle(t *testing.T) {
	// Random sparse digraphs across seeds: the DFS enumeration must agree
	// with the brute-force oracle everywhere.
	rng := rand.New(rand.NewSource(77))
	names := []string{"a", "b", "c", "d", "e", "f"}
	for trial := 0; trial < 60; trial++ {
		g := New()
		for _, n := range names {
			g.AddNode(n)
		}
		for _, from := range names {
			for _, to := range names {
				if rng.Float64() < 0.22 {
					g.AddEdge(from, to)
				}
			}
		}
		for _, start := range names {
			got := g.MaximalPaths(start)
			want := bruteMaximalPaths(g, start)
			if len(got) != len(want) {
				t.Fatalf("trial %d start %s: %d vs oracle %d\nedges: %v",
					trial, start, len(got), len(want), g.Edges())
			}
			for i := range got {
				if got[i].Key() != want[i].Key() {
					t.Fatalf("trial %d start %s: path %d = %v, oracle %v",
						trial, start, i, got[i], want[i])
				}
			}
		}
	}
}
