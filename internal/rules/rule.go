// Package rules models coordination rules (Definition 2 of the paper):
// expressions j1:b1(x1,y1) ∧ … ∧ jk:bk(xk,yk) ⇒ i:h(x) whose bodies are
// conjunctive queries with built-ins at one or more source nodes and whose
// heads are conjunctions of atoms at the target node, possibly with
// existential variables. The package provides validation, deterministic
// Skolemisation of existentials, the local-update (chase) step A6, and the
// network-description file format a super-peer broadcasts (Section 5).
package rules

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"

	"repro/internal/cq"
	"repro/internal/relalg"
	"repro/internal/storage"
)

// Rule is one coordination rule. Body atoms carry node qualifiers naming the
// source nodes; head atoms live at HeadNode (their qualifiers, if present,
// must match it).
type Rule struct {
	ID       string
	HeadNode string
	Head     []cq.Atom
	Body     cq.Conjunction
}

// String renders the rule in surface syntax.
func (r Rule) String() string {
	heads := make([]string, len(r.Head))
	for i, a := range r.Head {
		qualified := a
		qualified.Node = r.HeadNode
		heads[i] = qualified.String()
	}
	return fmt.Sprintf("rule %s: %s -> %s", r.ID, r.Body.String(), strings.Join(heads, ", "))
}

// SourceNodes returns the distinct source (body) nodes, sorted.
func (r Rule) SourceNodes() []string { return r.Body.Nodes() }

// HeadVars returns the variables occurring in the head, in first-occurrence
// order.
func (r Rule) HeadVars() []string {
	var out []string
	seen := map[string]bool{}
	for _, a := range r.Head {
		for _, t := range a.Terms {
			if t.IsVar && !seen[t.Var] {
				seen[t.Var] = true
				out = append(out, t.Var)
			}
		}
	}
	return out
}

// ExportVars returns the universally quantified head variables: head
// variables bound by body atoms. These are the columns of the result sets
// shipped in Answer messages.
func (r Rule) ExportVars() []string {
	atomVars := r.Body.AtomVars()
	var out []string
	for _, v := range r.HeadVars() {
		if atomVars[v] {
			out = append(out, v)
		}
	}
	return out
}

// ExistentialVars returns head variables not bound by the body — fresh
// labelled nulls are invented for them (data-exchange style).
func (r Rule) ExistentialVars() []string {
	atomVars := r.Body.AtomVars()
	var out []string
	for _, v := range r.HeadVars() {
		if !atomVars[v] {
			out = append(out, v)
		}
	}
	return out
}

// BodyPart returns the sub-conjunction of the body at the given source node
// together with the variables that part must export: variables used by the
// head plus variables shared with other body parts or cross-part built-ins
// (the head node joins the parts locally).
func (r Rule) BodyPart(node string) (part cq.Conjunction, exportVars []string) {
	part = r.Body.Restrict(node)
	partVars := part.AtomVars()

	needed := map[string]bool{}
	for _, v := range r.ExportVars() {
		needed[v] = true
	}
	// Variables shared with atoms at other nodes (join columns).
	for _, a := range r.Body.Atoms {
		if a.Node == node {
			continue
		}
		for _, t := range a.Terms {
			if t.IsVar && partVars[t.Var] {
				needed[t.Var] = true
			}
		}
	}
	// Variables used by built-ins that are not fully local to this part.
	for _, b := range r.Body.Builtins {
		local := true
		uses := false
		for _, t := range []cq.Term{b.L, b.R} {
			if t.IsVar {
				if partVars[t.Var] {
					uses = true
				} else {
					local = false
				}
			}
		}
		if uses && !local {
			for _, t := range []cq.Term{b.L, b.R} {
				if t.IsVar && partVars[t.Var] {
					needed[t.Var] = true
				}
			}
		}
	}
	for v := range needed {
		if partVars[v] {
			exportVars = append(exportVars, v)
		}
	}
	sort.Strings(exportVars)
	return part, exportVars
}

// SchemaLookup resolves relation arities per node; -1 means undeclared.
type SchemaLookup func(node, rel string) int

// Validate checks structural well-formedness: non-empty ID/head/body, head
// node distinct from source nodes (Definition 2 requires distinct indices),
// every body atom node-qualified, arities consistent with the schemas, head
// universal variables range-restricted, and built-in variables bound by body
// atoms.
func (r Rule) Validate(lookup SchemaLookup) error {
	if r.ID == "" {
		return fmt.Errorf("rules: rule without id")
	}
	if r.HeadNode == "" || len(r.Head) == 0 {
		return fmt.Errorf("rules: rule %s has no head", r.ID)
	}
	if len(r.Body.Atoms) == 0 {
		return fmt.Errorf("rules: rule %s has an empty body", r.ID)
	}
	for _, a := range r.Head {
		if a.Node != "" && a.Node != r.HeadNode {
			return fmt.Errorf("rules: rule %s head atom %s not at head node %s", r.ID, a, r.HeadNode)
		}
		if len(a.Terms) == 0 {
			return fmt.Errorf("rules: rule %s has a nullary head atom", r.ID)
		}
	}
	for _, a := range r.Body.Atoms {
		if a.Node == "" {
			return fmt.Errorf("rules: rule %s body atom %s lacks a node qualifier", r.ID, a)
		}
		if a.Node == r.HeadNode {
			return fmt.Errorf("rules: rule %s reads its own head node %s (indices must be distinct)", r.ID, r.HeadNode)
		}
	}
	if lookup != nil {
		for _, a := range r.Body.Atoms {
			if got := lookup(a.Node, a.Rel); got != -1 && got != len(a.Terms) {
				return fmt.Errorf("rules: rule %s body atom %s has arity %d, schema says %d",
					r.ID, a, len(a.Terms), got)
			}
		}
		for _, a := range r.Head {
			if got := lookup(r.HeadNode, a.Rel); got != -1 && got != len(a.Terms) {
				return fmt.Errorf("rules: rule %s head atom %s has arity %d, schema says %d",
					r.ID, a, len(a.Terms), got)
			}
		}
	}
	atomVars := r.Body.AtomVars()
	for _, b := range r.Body.Builtins {
		for _, t := range []cq.Term{b.L, b.R} {
			if t.IsVar && !atomVars[t.Var] {
				return fmt.Errorf("rules: rule %s builtin %s uses variable %s unbound by body atoms", r.ID, b, t.Var)
			}
		}
	}
	return nil
}

// bindingDepth is the deepest invention depth among the binding's values
// (relalg.Value.NullDepth: 0 for a constant, 1 for a foreign null).
func bindingDepth(binding relalg.Tuple) int {
	depth := 0
	for _, v := range binding {
		if d := v.NullDepth(); d > depth {
			depth = d
		}
	}
	return depth
}

// ApplyOptions tunes the chase step.
type ApplyOptions struct {
	// Mode selects exact-duplicate or core (subsumption) redundancy checks.
	Mode storage.InsertMode
	// MaxNullDepth bounds the invention depth of labelled nulls; bindings
	// that would invent deeper nulls are skipped (counted in Truncated).
	// Zero means the default of 4.
	MaxNullDepth int
}

// DefaultMaxNullDepth bounds cyclic null invention when ApplyOptions leaves
// MaxNullDepth zero.
const DefaultMaxNullDepth = 4

// ApplyResult reports the effect of one chase step.
type ApplyResult struct {
	Added     int // tuples newly inserted
	Truncated int // distinct bindings skipped by the null-depth bound
}

// Apply performs the local-update step A6: given the rule and the result set
// of its body (bindings over ExportVars, in that column order), instantiate
// every head atom — inventing deterministic nulls for existential variables —
// and insert the tuples that are not already present. A binding of another
// width is an error.
func Apply(db *storage.DB, r Rule, bindings []relalg.Tuple, opts ApplyOptions) (ApplyResult, error) {
	return chase(db, r, bindings, nil, 0, opts)
}

// ApplyPart is Apply for a rule with one source, fed that source's part
// result as it arrived. With no other part to join and every built-in applied
// by the source, the part's columns are the export variables (sorted, see
// BodyPart), so what JoinParts would do — join, project onto ExportVars,
// deduplicate — is a column permutation of a set that is already distinct.
// The chase reads each tuple through the permutation; the head relations'
// duplicate check absorbs a repeated binding (it re-derives identical Skolem
// nulls), and Truncated counts it once. JoinParts' edge cases are kept:
// a column list missing an export variable derives nothing, a tuple shorter
// than the column list is skipped, a repeated column reads its last
// occurrence. An empty part, the usual confirmation, costs no allocation.
func ApplyPart(db *storage.DB, r Rule, part PartTuples, opts ApplyOptions) (ApplyResult, error) {
	if len(part.Tuples) == 0 {
		return ApplyResult{}, nil
	}
	exportVars := r.ExportVars()
	perm := make([]int, len(exportVars))
	for i, v := range exportVars {
		perm[i] = -1
		for j, c := range part.Cols {
			if c == v {
				perm[i] = j
			}
		}
		if perm[i] < 0 {
			return ApplyResult{}, nil
		}
	}
	return chase(db, r, part.Tuples, perm, len(part.Cols), opts)
}

// chaseFlush bounds the derived tuples the chase holds for one head relation
// before it inserts them, and so what a pooled buffer keeps: the pool holds
// its buffers through a collection, and at 256 tuples that held ~0.06 MB of
// dblp-mem's heap for no measurable speed.
const chaseFlush = 64

// headBatch is one head relation's derived tuples not yet inserted, in
// derivation order: their values back to back in vals, a view of each in ts.
type headBatch struct {
	rel  string
	vals []relalg.Value
	ts   []relalg.Tuple
}

// chaseBuf is a chase's reusable scratch: one batch per head relation — not
// per head atom, since the order of a relation's inserts decides what
// InsertCore keeps — and, per head atom, the batch it feeds.
type chaseBuf struct {
	batches []headBatch
	of      []int
}

var chaseBufs = sync.Pool{New: func() any { return new(chaseBuf) }}

// reset empties cb for the head atoms of one chase over n tuples. A batch
// has room for all the tuples it can take before a flush, so no view it
// hands out moves.
func (cb *chaseBuf) reset(head []cq.Atom, n int) {
	rows, width := min(n*len(head), chaseFlush), 0
	for _, atom := range head {
		width = max(width, len(atom.Terms))
	}
	cb.batches, cb.of = cb.batches[:0], cb.of[:0]
	for _, atom := range head {
		i := slices.IndexFunc(cb.batches, func(b headBatch) bool { return b.rel == atom.Rel })
		if i < 0 {
			i = len(cb.batches)
			cb.batches = slices.Grow(cb.batches, 1)[:i+1] // a pooled batch keeps its buffers
			b := &cb.batches[i]
			b.rel = atom.Rel
			if cap(b.ts) < rows || cap(b.vals) < rows*width {
				b.ts, b.vals = make([]relalg.Tuple, 0, rows), make([]relalg.Value, 0, rows*width)
			}
			b.ts, b.vals = b.ts[:0], b.vals[:0]
		}
		cb.of = append(cb.of, i)
	}
}

// chase is the one loop behind Apply and ApplyPart. With a nil perm a tuple is
// a binding over ExportVars; otherwise it is a part tuple of at least cols
// columns and export variable i is read from column perm[i]. Handed no tuples
// it returns before any set-up: nearly every answer of an update is an empty
// confirmation, and the slot table would be built for nothing. Derived head
// tuples are inserted a batch per relation (storage.DB.InsertAll), up to
// chaseFlush at a time, each relation's in derivation order; nothing the
// chase derives reads the database, so the batching changes no derivation.
func chase(db *storage.DB, r Rule, tuples []relalg.Tuple, perm []int, cols int, opts ApplyOptions) (ApplyResult, error) {
	var res ApplyResult
	if len(tuples) == 0 {
		return res, nil
	}
	exportVars := r.ExportVars()
	maxDepth := opts.MaxNullDepth
	if maxDepth <= 0 {
		maxDepth = DefaultMaxNullDepth
	}
	existential := r.ExistentialVars()

	// The head environment is a row: the binding's columns, then one slot per
	// existential variable. Head terms are resolved to slots once.
	var slots cq.Slots
	for _, v := range exportVars {
		slots.Add(v)
	}
	for _, v := range existential {
		slots.Add(v)
	}
	heads := make([][]int, len(r.Head)) // per head atom, per term: slot, or -1 for a constant
	for i, atom := range r.Head {
		heads[i] = make([]int, len(atom.Terms))
		for j, t := range atom.Terms {
			heads[i][j] = -1
			if t.IsVar {
				heads[i][j] = slots.Lookup(t.Var)
			}
		}
	}
	env := make([]relalg.Value, slots.Len())
	binding := relalg.Tuple(env[:len(exportVars)])
	cb := chaseBufs.Get().(*chaseBuf)
	defer chaseBufs.Put(cb)
	cb.reset(r.Head, len(tuples))
	flush := func(b *headBatch) error {
		added, err := db.InsertAll(b.rel, b.ts, opts.Mode)
		res.Added += added
		b.ts, b.vals = b.ts[:0], b.vals[:0]
		return err
	}
	flushAll := func() error {
		for i := range cb.batches {
			if err := flush(&cb.batches[i]); err != nil {
				return err
			}
		}
		return nil
	}
	// The Skolem terms' rule and variables, as symbols, for a rule that has
	// existentials: a known null costs a lookup and allocates nothing
	// (relalg.Skolem).
	var rule relalg.Value
	variables := make([]relalg.Value, len(existential))
	for i, ev := range existential {
		rule, variables[i] = relalg.S(r.ID), relalg.S(ev)
	}
	var truncated relalg.TupleSet // the bindings the depth bound cut; it allocates on the first

	for _, t := range tuples {
		if perm == nil {
			if len(t) != len(exportVars) {
				if err := flushAll(); err != nil {
					return res, err
				}
				return res, fmt.Errorf("rules: rule %s expects %d-column bindings over %v, got %d columns",
					r.ID, len(exportVars), exportVars, len(t))
			}
			copy(binding, t)
		} else {
			if len(t) < cols {
				continue
			}
			for i, c := range perm {
				binding[i] = t[c]
			}
		}
		if len(existential) > 0 {
			// Depth bound: inventing from a binding at depth >= max would
			// create a null of depth max+1; skip and count.
			depth := bindingDepth(binding)
			if depth >= maxDepth {
				if truncated.Add(binding) {
					res.Truncated++
				}
				continue
			}
			for i, v := range variables {
				env[len(exportVars)+i] = relalg.Skolem(depth+1, rule, v, binding)
			}
		}
		for i, atom := range r.Head {
			b := &cb.batches[cb.of[i]]
			from := len(b.vals)
			for j, t := range atom.Terms {
				if s := heads[i][j]; s >= 0 {
					b.vals = append(b.vals, env[s])
				} else {
					b.vals = append(b.vals, t.Val)
				}
			}
			b.ts = append(b.ts, b.vals[from:len(b.vals):len(b.vals)])
			if len(b.ts) == chaseFlush {
				if err := flush(b); err != nil {
					return res, err
				}
			}
		}
	}
	return res, flushAll()
}
