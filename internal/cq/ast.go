// Package cq implements conjunctive queries with built-in predicates: the
// query language of the coordination rules (Definition 2 of the paper) and of
// local user queries (Definition 4). It provides an AST, a parser for the
// surface syntax, and a pipelined index-probing join evaluator over relalg
// relations. An evaluation numbers the conjunction's variables once (Slots)
// and carries its bindings as rows of values indexed by slot, carved from a
// per-call Arena; the map-shaped Binding exists at the API edge only
// (containment, built-ins over user-supplied bindings).
//
// Surface syntax, by example:
//
//	a(X, Y), b(Y, Z), X <> Z, Y >= 1999
//	B:b(X,Y), B:b(Y,Z)          (node-qualified atoms, used in rules)
//
// Identifiers starting with an upper-case letter are variables; lower-case
// identifiers, 'quoted strings' and integers are constants.
package cq

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/relalg"
)

// Term is either a variable or a constant value.
type Term struct {
	IsVar bool
	Var   string       // variable name when IsVar
	Val   relalg.Value // constant when !IsVar
}

// V builds a variable term.
func V(name string) Term { return Term{IsVar: true, Var: name} }

// C builds a constant term.
func C(v relalg.Value) Term { return Term{Val: v} }

// String renders the term in surface syntax.
func (t Term) String() string {
	if t.IsVar {
		return t.Var
	}
	return t.Val.Quoted()
}

// Atom is a relational atom rel(t1,...,tn), optionally qualified with the
// node holding the relation (used inside coordination rules).
type Atom struct {
	Node  string // optional node qualifier; "" for local atoms
	Rel   string
	Terms []Term
}

// String renders the atom in surface syntax.
func (a Atom) String() string {
	parts := make([]string, len(a.Terms))
	for i, t := range a.Terms {
		parts[i] = t.String()
	}
	prefix := ""
	if a.Node != "" {
		prefix = a.Node + ":"
	}
	return fmt.Sprintf("%s%s(%s)", prefix, a.Rel, strings.Join(parts, ","))
}

// Vars returns the variable names occurring in the atom, in first-occurrence
// order.
func (a Atom) Vars() []string {
	var out []string
	seen := map[string]bool{}
	for _, t := range a.Terms {
		if t.IsVar && !seen[t.Var] {
			seen[t.Var] = true
			out = append(out, t.Var)
		}
	}
	return out
}

// Op is a built-in comparison operator.
type Op uint8

// Comparison operators supported in rule bodies and queries.
const (
	OpEQ Op = iota
	OpNEQ
	OpLT
	OpLE
	OpGT
	OpGE
)

// String renders the operator in surface syntax.
func (o Op) String() string {
	switch o {
	case OpEQ:
		return "="
	case OpNEQ:
		return "<>"
	case OpLT:
		return "<"
	case OpLE:
		return "<="
	case OpGT:
		return ">"
	case OpGE:
		return ">="
	}
	return "?"
}

// Builtin is a comparison L op R between terms; it restricts bindings and
// binds nothing itself (range-restriction is enforced at rule validation).
type Builtin struct {
	Op   Op
	L, R Term
}

// String renders the built-in in surface syntax.
func (b Builtin) String() string {
	return fmt.Sprintf("%s %s %s", b.L, b.Op, b.R)
}

// Eval evaluates the builtin under a binding; ok=false means some side is an
// unbound variable or the comparison involves an incomparable null, in which
// case the row is rejected (naive evaluation over nulls).
func (b Builtin) Eval(bind Binding) (holds, ok bool) {
	l, lok := resolve(b.L, bind)
	r, rok := resolve(b.R, bind)
	if !lok || !rok {
		return false, false
	}
	return b.Holds(l, r)
}

// Holds evaluates the builtin's operator on resolved operands; ok=false
// means the comparison involves an incomparable null.
func (b Builtin) Holds(l, r relalg.Value) (holds, ok bool) {
	if b.Op == OpEQ || b.Op == OpNEQ {
		// Nulls are first-class invented values (the URI reading): equal
		// iff identical labels. Constants compare with numeric coercion,
		// so the string '2004' equals the integer 2004.
		var eq bool
		if l.IsNull() || r.IsNull() {
			eq = l.Equal(r)
		} else {
			cmp, _ := relalg.CompareAs(l, r)
			eq = cmp == 0
		}
		if b.Op == OpEQ {
			return eq, true
		}
		return !eq, true
	}
	cmp, cok := relalg.CompareAs(l, r)
	if !cok {
		return false, false
	}
	switch b.Op {
	case OpLT:
		return cmp < 0, true
	case OpLE:
		return cmp <= 0, true
	case OpGT:
		return cmp > 0, true
	case OpGE:
		return cmp >= 0, true
	}
	return false, false
}

func resolve(t Term, bind Binding) (relalg.Value, bool) {
	if !t.IsVar {
		return t.Val, true
	}
	v, ok := bind[t.Var]
	return v, ok
}

// Conjunction is a conjunctive query body: relational atoms plus built-ins.
type Conjunction struct {
	Atoms    []Atom
	Builtins []Builtin
}

// String renders the conjunction in surface syntax.
func (c Conjunction) String() string {
	parts := make([]string, 0, len(c.Atoms)+len(c.Builtins))
	for _, a := range c.Atoms {
		parts = append(parts, a.String())
	}
	for _, b := range c.Builtins {
		parts = append(parts, b.String())
	}
	return strings.Join(parts, ", ")
}

// Vars returns all variables of the conjunction (atoms then builtins) in
// first-occurrence order.
func (c Conjunction) Vars() []string {
	var out []string
	seen := map[string]bool{}
	add := func(t Term) {
		if t.IsVar && !seen[t.Var] {
			seen[t.Var] = true
			out = append(out, t.Var)
		}
	}
	for _, a := range c.Atoms {
		for _, t := range a.Terms {
			add(t)
		}
	}
	for _, b := range c.Builtins {
		add(b.L)
		add(b.R)
	}
	return out
}

// AtomVars returns the variables occurring in relational atoms only (the
// range-restricted variables).
func (c Conjunction) AtomVars() map[string]bool {
	out := map[string]bool{}
	for _, a := range c.Atoms {
		for _, t := range a.Terms {
			if t.IsVar {
				out[t.Var] = true
			}
		}
	}
	return out
}

// Nodes returns the distinct node qualifiers mentioned by the atoms, sorted.
func (c Conjunction) Nodes() []string {
	set := map[string]bool{}
	for _, a := range c.Atoms {
		set[a.Node] = true
	}
	out := make([]string, 0, len(set))
	for n := range set {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Restrict returns the sub-conjunction whose atoms live at the given node,
// together with the built-ins fully covered by that part's variables (or
// constant-only built-ins, which are attached to every part).
func (c Conjunction) Restrict(node string) Conjunction {
	var out Conjunction
	vars := map[string]bool{}
	for _, a := range c.Atoms {
		if a.Node == node {
			out.Atoms = append(out.Atoms, a)
			for _, t := range a.Terms {
				if t.IsVar {
					vars[t.Var] = true
				}
			}
		}
	}
	for _, b := range c.Builtins {
		covered := true
		for _, t := range []Term{b.L, b.R} {
			if t.IsVar && !vars[t.Var] {
				covered = false
			}
		}
		if covered {
			out.Builtins = append(out.Builtins, b)
		}
	}
	return out
}

// Binding maps variable names to values.
type Binding map[string]relalg.Value

// Clone copies the binding.
func (b Binding) Clone() Binding {
	out := make(Binding, len(b))
	for k, v := range b {
		out[k] = v
	}
	return out
}
