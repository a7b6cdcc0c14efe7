// Package baseline implements the comparison algorithms of the paper's
// related work: the centralised global fix-point in the style of
// [Calvanese et al. 2003] — a single site holding every local database and
// chasing all coordination rules to the fix-point — and a one-pass
// topological algorithm for acyclic networks in the style of
// [Halevy et al. 2003]. The centralised algorithm doubles as the ground
// truth the distributed algorithm is validated against: both use the same
// deterministic Skolemisation, so their fix-points are identical relation by
// relation.
package baseline

import (
	"fmt"

	"repro/internal/cq"
	"repro/internal/graph"
	"repro/internal/rules"
	"repro/internal/storage"
)

// Result carries the materialised databases and work counters of a run.
type Result struct {
	DBs map[string]*storage.DB
	// Iterations counts full passes over the rule set (centralised) or
	// processed nodes (one-pass).
	Iterations int
	// RuleEvaluations counts body evaluations.
	RuleEvaluations int
	// TuplesInserted counts new head tuples.
	TuplesInserted int
	// Truncated counts null-depth-bound hits.
	Truncated int
}

// Build materialises the network's schemas and seed facts into fresh
// databases, one per node.
func Build(net *rules.Network) (map[string]*storage.DB, error) {
	dbs := make(map[string]*storage.DB, len(net.Nodes))
	for _, decl := range net.Nodes {
		dbs[decl.Name] = storage.New(decl.Schemas...)
	}
	for _, f := range net.Facts {
		db, ok := dbs[f.Node]
		if !ok {
			return nil, fmt.Errorf("baseline: fact at unknown node %s", f.Node)
		}
		if _, err := db.Insert(f.Rel, f.Tuple, storage.InsertExact); err != nil {
			return nil, err
		}
	}
	return dbs, nil
}

// Centralized runs the global fix-point: repeatedly evaluate every rule body
// against the current databases and apply the heads until nothing changes.
// This is the semantics the distributed algorithm must reproduce.
func Centralized(net *rules.Network, opts rules.ApplyOptions) (Result, error) {
	dbs, err := Build(net)
	if err != nil {
		return Result{}, err
	}
	res := Result{DBs: dbs}
	src := func(node string) cq.Source {
		if db, ok := dbs[node]; ok {
			return db
		}
		return nil
	}
	maps := net.MapSet()
	ruleSet := append([]rules.Rule(nil), net.Rules...)
	for {
		res.Iterations++
		changed := false
		for _, r := range ruleSet {
			bindings, err := rules.EvaluateBody(r, src, maps)
			if err != nil {
				return res, fmt.Errorf("baseline: rule %s: %w", r.ID, err)
			}
			res.RuleEvaluations++
			head, ok := dbs[r.HeadNode]
			if !ok {
				return res, fmt.Errorf("baseline: rule %s targets unknown node %s", r.ID, r.HeadNode)
			}
			ar, err := rules.Apply(head, r, bindings, opts)
			if err != nil {
				return res, fmt.Errorf("baseline: rule %s: %w", r.ID, err)
			}
			res.TuplesInserted += ar.Added
			res.Truncated += ar.Truncated
			if ar.Added > 0 {
				changed = true
			}
		}
		if !changed {
			return res, nil
		}
		// Safety valve: the depth-bounded chase must terminate, but a bug
		// here would hang every caller, so cap generously and fail loudly.
		if res.Iterations > 1_000_000 {
			return res, fmt.Errorf("baseline: fix-point did not converge after %d passes", res.Iterations)
		}
	}
}

// AcyclicOnePass runs the one-pass algorithm for acyclic dependency graphs:
// process nodes in reverse topological order of the dependency graph (data
// sources first), evaluating each node's incoming rules exactly once. It
// fails on cyclic networks.
func AcyclicOnePass(net *rules.Network, opts rules.ApplyOptions) (Result, error) {
	g := graph.FromRules(net.Rules)
	order, ok := g.Topological()
	if !ok {
		return Result{}, fmt.Errorf("baseline: network is cyclic; one-pass algorithm inapplicable")
	}
	dbs, err := Build(net)
	if err != nil {
		return Result{}, err
	}
	res := Result{DBs: dbs}
	src := func(node string) cq.Source {
		if db, ok := dbs[node]; ok {
			return db
		}
		return nil
	}
	maps := net.MapSet()
	// Topological() orders dependents before their sources (edges point
	// head -> source), so process in reverse: sources first.
	byHead := map[string][]rules.Rule{}
	for _, r := range net.Rules {
		byHead[r.HeadNode] = append(byHead[r.HeadNode], r)
	}
	for i := len(order) - 1; i >= 0; i-- {
		node := order[i]
		res.Iterations++
		for _, r := range byHead[node] {
			bindings, err := rules.EvaluateBody(r, src, maps)
			if err != nil {
				return res, fmt.Errorf("baseline: rule %s: %w", r.ID, err)
			}
			res.RuleEvaluations++
			ar, err := rules.Apply(dbs[node], r, bindings, opts)
			if err != nil {
				return res, fmt.Errorf("baseline: rule %s: %w", r.ID, err)
			}
			res.TuplesInserted += ar.Added
			res.Truncated += ar.Truncated
		}
	}
	return res, nil
}

// Equal reports whether two database maps agree on every node (relation by
// relation), returning the first differing node name for diagnostics.
func Equal(a, b map[string]*storage.DB) (bool, string) {
	names := map[string]bool{}
	for n := range a {
		names[n] = true
	}
	for n := range b {
		names[n] = true
	}
	for n := range names {
		da, db := a[n], b[n]
		switch {
		case da == nil && db == nil:
		case da == nil:
			if db.TotalTuples() != 0 {
				return false, n
			}
		case db == nil:
			if da.TotalTuples() != 0 {
				return false, n
			}
		default:
			if !da.Equal(db) {
				return false, n
			}
		}
	}
	return true, ""
}
