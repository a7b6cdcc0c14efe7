// Package dynamic implements Section 4 of the paper: atomic network change
// operations (addLink/deleteLink), change sequences and subchanges, the
// soundness/completeness bounds of Definition 9 (the result of a run under
// runtime change must lie between the deletes-first fix-point and the
// adds-first fix-point), the separation conditions of Definition 10, and a
// churn harness for exercising Theorem 3 (a separated region terminates
// under infinite change elsewhere).
package dynamic

import (
	"fmt"
	"time"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/rules"
	"repro/internal/storage"
)

// Op is one atomic change operation (Definition 8).
type Op interface {
	isOp()
	String() string
}

// AddLink adds the coordination rule to the network; the head node is
// notified (addRule). RuleText is "id: body -> head" surface syntax, which
// carries all four components of addLink(i, j, rule, id).
type AddLink struct {
	RuleText string
}

func (AddLink) isOp() {}

// String renders the operation.
func (a AddLink) String() string { return "addLink(" + a.RuleText + ")" }

// DeleteLink deletes the rule with the id at the head node (deleteLink).
type DeleteLink struct {
	HeadNode string
	RuleID   string
}

func (DeleteLink) isOp() {}

// String renders the operation.
func (d DeleteLink) String() string {
	return fmt.Sprintf("deleteLink(%s, %s)", d.HeadNode, d.RuleID)
}

// Change is a sequence of atomic operations (Definition 8.1); a finite slice
// models a finite change (8.2).
type Change []Op

// Apply performs one operation on a running network.
func Apply(n *core.Network, op Op) error {
	switch o := op.(type) {
	case AddLink:
		return n.AddLink(o.RuleText)
	case DeleteLink:
		return n.DeleteLink(o.HeadNode, o.RuleID)
	default:
		return fmt.Errorf("dynamic: unknown op %T", op)
	}
}

// ---------------------------------------------------------------------------
// Definition 9: sound/complete bounds

// ruleSetAfter returns the network definition with the change's deletions
// and/or additions applied statically.
func ruleSetAfter(base *rules.Network, ch Change, applyAdds, applyDeletes bool) (*rules.Network, error) {
	out := &rules.Network{
		Nodes: append([]rules.NodeDecl(nil), base.Nodes...),
		Facts: append([]rules.Fact(nil), base.Facts...),
		Maps:  base.Maps,
		Super: base.Super,
	}
	rs := map[string]rules.Rule{}
	order := []string{}
	for _, r := range base.Rules {
		rs[r.ID] = r
		order = append(order, r.ID)
	}
	for _, op := range ch {
		switch o := op.(type) {
		case AddLink:
			if !applyAdds {
				continue
			}
			r, err := rules.ParseRule(o.RuleText)
			if err != nil {
				return nil, fmt.Errorf("dynamic: %s: %w", o, err)
			}
			if _, ok := rs[r.ID]; !ok {
				order = append(order, r.ID)
			}
			rs[r.ID] = r
		case DeleteLink:
			if !applyDeletes {
				continue
			}
			delete(rs, o.RuleID)
		}
	}
	for _, id := range order {
		if r, ok := rs[id]; ok {
			out.Rules = append(out.Rules, r)
		}
	}
	return out, nil
}

// Bounds computes the Definition 9 reference fix-points for a base network
// and a change: Lower is the fix-point with every deleteLink applied first
// and no addLink at all (the completeness bound); Upper is the fix-point
// with every addLink applied first and no deleteLink at all (the soundness
// bound).
func Bounds(base *rules.Network, ch Change, opts rules.ApplyOptions) (lower, upper map[string]*storage.DB, err error) {
	lowNet, err := ruleSetAfter(base, ch, false, true)
	if err != nil {
		return nil, nil, err
	}
	upNet, err := ruleSetAfter(base, ch, true, false)
	if err != nil {
		return nil, nil, err
	}
	low, err := baseline.Centralized(lowNet, opts)
	if err != nil {
		return nil, nil, err
	}
	up, err := baseline.Centralized(upNet, opts)
	if err != nil {
		return nil, nil, err
	}
	return low.DBs, up.DBs, nil
}

// CheckDef9 verifies Lower ⊆ Actual ⊆ Upper relation by relation, returning
// a descriptive error naming the first violation.
func CheckDef9(actual, lower, upper map[string]*storage.DB) error {
	if err := contained(lower, actual, "completeness (lower ⊆ actual)"); err != nil {
		return err
	}
	return contained(actual, upper, "soundness (actual ⊆ upper)")
}

// contained checks a ⊆ b per node and relation.
func contained(a, b map[string]*storage.DB, label string) error {
	for node, dbA := range a {
		dbB := b[node]
		for _, schema := range dbA.Schemas() {
			relA := dbA.Rel(schema.Name)
			if relA == nil || relA.Len() == 0 {
				continue
			}
			for _, t := range relA.All() {
				if dbB == nil || dbB.Rel(schema.Name) == nil || !dbB.Rel(schema.Name).Contains(t) {
					return fmt.Errorf("dynamic: %s violated at %s.%s: tuple %s missing",
						label, node, schema.Name, t)
				}
			}
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Definition 10: separation

// SeparatedUnderChange checks Definition 10.2 exactly for a finite change:
// for every initial subchange (prefix, including the empty one), the network
// obtained by applying it keeps a separated from b.
func SeparatedUnderChange(base *rules.Network, ch Change, a, b []string) (bool, error) {
	current := map[string]rules.Rule{}
	for _, r := range base.Rules {
		current[r.ID] = r
	}
	check := func() bool {
		rs := make([]rules.Rule, 0, len(current))
		for _, r := range current {
			rs = append(rs, r)
		}
		g := graph.FromRules(rs)
		for _, n := range a {
			g.AddNode(n)
		}
		return g.Separated(a, b)
	}
	if !check() {
		return false, nil
	}
	for _, op := range ch {
		switch o := op.(type) {
		case AddLink:
			r, err := rules.ParseRule(o.RuleText)
			if err != nil {
				return false, fmt.Errorf("dynamic: %s: %w", o, err)
			}
			current[r.ID] = r
		case DeleteLink:
			delete(current, o.RuleID)
		}
		if !check() {
			return false, nil
		}
	}
	return true, nil
}

// ---------------------------------------------------------------------------
// Theorem 3: churn

// Churn generates an endless alternating add/delete workload on the given
// rule (used by the Theorem 3 harness: infinite change confined to one
// region). It runs until stop is closed, returning how many operations it
// applied.
func Churn(n *core.Network, ruleText, headNode, ruleID string, period time.Duration, stop <-chan struct{}) int {
	ops := 0
	present := false
	for {
		select {
		case <-stop:
			return ops
		case <-time.After(period):
		}
		var op Op
		if present {
			op = DeleteLink{HeadNode: headNode, RuleID: ruleID}
		} else {
			op = AddLink{RuleText: ruleText}
		}
		if err := Apply(n, op); err == nil {
			ops++
			present = !present
		}
	}
}
