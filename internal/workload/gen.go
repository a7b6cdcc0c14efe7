package workload

import (
	"fmt"
	"math/rand"

	"repro/internal/relalg"
	"repro/internal/rules"
)

func newRng(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// RuleStyle selects how coordination rules are synthesised between nodes.
type RuleStyle uint8

const (
	// StyleMixed rotates the three DBLP schema shapes across nodes and
	// connects them with translation rules, including rules with
	// existential head variables (the heterogeneous setting of Section 5).
	StyleMixed RuleStyle = iota
	// StyleCopy gives every node the same shape and synthesises plain copy
	// rules. Used for cliques, where translation existentials would make
	// the fix-point combinatorially explosive rather than informative.
	StyleCopy
)

// DataSpec parameterises data generation.
type DataSpec struct {
	// RecordsPerNode is the number of publication records seeded per node
	// (the paper used ~1000 per node, ~20000 over 31 nodes).
	RecordsPerNode int
	// Overlap is the probability that a record duplicates one already
	// generated at a linked neighbour (the paper's two distributions: 0.0
	// and 0.5).
	Overlap float64
	// Seed makes generation deterministic.
	Seed int64
	// Style selects rule synthesis.
	Style RuleStyle
}

// record is one abstract DBLP-like publication record, projected into a
// node's schema shape when seeding. Its values are built once, by genRecord:
// a record duplicated at a neighbour shares them.
type record struct {
	key, author, title, year, venue relalg.Value
}

var (
	venues     = []string{"edbt", "vldb", "sigmod", "icde", "pods", "p2pdb"}
	firstNames = []string{"enrico", "gabriel", "andrei", "ilya", "diego", "maurizio", "alon", "luciano", "fausto", "philip"}
	lastNames  = []string{"rossi", "kuper", "lopatenko", "zaihrayeu", "calvanese", "lenzerini", "halevy", "serafini", "giunchiglia", "bernstein"}
	titleWords = []string{"robust", "distributed", "peer", "database", "update", "query", "semantic", "coordination", "network", "exchange"}
)

func genRecord(rng *rand.Rand, node, i int) record {
	venue := venues[rng.Intn(len(venues))]
	year := int64(1994 + rng.Intn(11))
	author := firstNames[rng.Intn(len(firstNames))] + "_" + lastNames[rng.Intn(len(lastNames))]
	title := titleWords[rng.Intn(len(titleWords))] + "_" + titleWords[rng.Intn(len(titleWords))] + fmt.Sprintf("_%d_%d", node, i)
	key := fmt.Sprintf("conf/%s/%s%d-%d-%d", venue, lastNames[rng.Intn(len(lastNames))], year%100, node, i)
	return record{key: relalg.S(key), author: relalg.S(author), title: relalg.S(title), year: relalg.I(year), venue: relalg.S(venue)}
}

// NodeName renders the canonical node name for an index.
func NodeName(i int) string { return fmt.Sprintf("N%02d", i) }

// shapeOf assigns a schema shape to a node.
func shapeOf(style RuleStyle, node int) int {
	if style == StyleCopy {
		return 0
	}
	return node % 3
}

// shapeSchemas returns the relation schemas of a shape.
func shapeSchemas(shape int) []relalg.Schema {
	switch shape {
	case 1:
		return []relalg.Schema{{Name: "article", Attrs: []string{"key", "author", "title"}}}
	case 2:
		return []relalg.Schema{{Name: "rec", Attrs: []string{"key", "author", "year", "venue"}}}
	default:
		return []relalg.Schema{
			{Name: "pub", Attrs: []string{"key", "title", "year"}},
			{Name: "wrote", Attrs: []string{"author", "key"}},
		}
	}
}

// appendShapeFacts appends a record's projection into a node's shape
// relations to facts.
func appendShapeFacts(facts []rules.Fact, node string, shape int, r record) []rules.Fact {
	k, a, ti, y, v := r.key, r.author, r.title, r.year, r.venue
	switch shape {
	case 1:
		return append(facts, rules.Fact{Node: node, Rel: "article", Tuple: relalg.Tuple{k, a, ti}})
	case 2:
		return append(facts, rules.Fact{Node: node, Rel: "rec", Tuple: relalg.Tuple{k, a, y, v}})
	default:
		return append(facts,
			rules.Fact{Node: node, Rel: "pub", Tuple: relalg.Tuple{k, ti, y}},
			rules.Fact{Node: node, Rel: "wrote", Tuple: relalg.Tuple{a, k}})
	}
}

// linkRule synthesises the coordination rule importing src's data into dst.
// Cross-shape rules translate between schemas, inventing existential values
// where the target schema has attributes the source lacks.
func linkRule(id, src, dst string, srcShape, dstShape int) string {
	body0 := fmt.Sprintf("%s:pub(K,T,Y), %s:wrote(A,K)", src, src)
	switch {
	case srcShape == 0 && dstShape == 0:
		return fmt.Sprintf("%s: %s -> %s:pub(K,T,Y), %s:wrote(A,K)", id, body0, dst, dst)
	case srcShape == 0 && dstShape == 1:
		return fmt.Sprintf("%s: %s -> %s:article(K,A,T)", id, body0, dst)
	case srcShape == 0 && dstShape == 2:
		return fmt.Sprintf("%s: %s -> %s:rec(K,A,Y,V)", id, body0, dst)
	case srcShape == 1 && dstShape == 0:
		return fmt.Sprintf("%s: %s:article(K,A,T) -> %s:pub(K,T,Y), %s:wrote(A,K)", id, src, dst, dst)
	case srcShape == 1 && dstShape == 1:
		return fmt.Sprintf("%s: %s:article(K,A,T) -> %s:article(K,A,T)", id, src, dst)
	case srcShape == 1 && dstShape == 2:
		return fmt.Sprintf("%s: %s:article(K,A,T) -> %s:rec(K,A,Y,V)", id, src, dst)
	case srcShape == 2 && dstShape == 0:
		return fmt.Sprintf("%s: %s:rec(K,A,Y,V) -> %s:pub(K,T,Y), %s:wrote(A,K)", id, src, dst, dst)
	case srcShape == 2 && dstShape == 1:
		return fmt.Sprintf("%s: %s:rec(K,A,Y,V) -> %s:article(K,A,T)", id, src, dst)
	default:
		return fmt.Sprintf("%s: %s:rec(K,A,Y,V) -> %s:rec(K,A,Y,V)", id, src, dst)
	}
}

// Generate materialises a topology into a full network description: schemas
// by shape, one coordination rule per link, seeded records with the
// requested neighbour overlap, and node 0 as super-peer.
func Generate(topo Topology, spec DataSpec) (*rules.Network, error) {
	rng := newRng(spec.Seed)
	net := &rules.Network{Super: NodeName(0)}

	shapes := make([]int, topo.N)
	for i := 0; i < topo.N; i++ {
		shapes[i] = shapeOf(spec.Style, i)
		net.Nodes = append(net.Nodes, rules.NodeDecl{
			Name:    NodeName(i),
			Schemas: shapeSchemas(shapes[i]),
		})
	}

	for li, l := range topo.Links {
		id := fmt.Sprintf("r%d_%dto%d", li, l.Src, l.Dst)
		text := linkRule(id, NodeName(l.Src), NodeName(l.Dst), shapes[l.Src], shapes[l.Dst])
		r, err := rules.ParseRule(text)
		if err != nil {
			return nil, fmt.Errorf("workload: synthesising %s: %w", text, err)
		}
		net.Rules = append(net.Rules, r)
	}

	// Neighbour sets for the overlap distribution (undirected adjacency).
	neigh := make([][]int, topo.N)
	for _, l := range topo.Links {
		neigh[l.Src] = append(neigh[l.Src], l.Dst)
		neigh[l.Dst] = append(neigh[l.Dst], l.Src)
	}

	recs := make([][]record, topo.N)
	for i := 0; i < topo.N; i++ {
		node := NodeName(i)
		for j := 0; j < spec.RecordsPerNode; j++ {
			var r record
			reused := false
			if spec.Overlap > 0 && rng.Float64() < spec.Overlap {
				// Duplicate a record already generated at a linked node.
				candidates := neigh[i]
				for attempts := 0; attempts < len(candidates); attempts++ {
					nb := candidates[rng.Intn(len(candidates))]
					if len(recs[nb]) > 0 {
						r = recs[nb][rng.Intn(len(recs[nb]))]
						reused = true
						break
					}
				}
			}
			if !reused {
				r = genRecord(rng, i, j)
			}
			recs[i] = append(recs[i], r)
			net.Facts = appendShapeFacts(net.Facts, node, shapes[i], r)
		}
	}
	if err := net.Validate(); err != nil {
		return nil, fmt.Errorf("workload: generated network invalid: %w", err)
	}
	return net, nil
}
