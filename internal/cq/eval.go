package cq

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/relalg"
)

func sval(s string) relalg.Value { return relalg.S(s) }
func ival(n int64) relalg.Value  { return relalg.I(n) }

// Source supplies relation extents to the evaluator. A nil *relalg.Relation
// (or absence) is treated as the empty relation.
type Source interface {
	Rel(name string) *relalg.Relation
}

// MapSource is a trivial Source backed by a map, used by tests and by the
// local join step for multi-source rules.
type MapSource map[string]*relalg.Relation

// Rel implements Source.
func (m MapSource) Rel(name string) *relalg.Relation { return m[name] }

// Eval evaluates the conjunction against src and returns the distinct
// projections of all satisfying bindings onto outVars. Every variable in
// outVars must occur in some atom of the conjunction (range restriction);
// otherwise an error is returned.
//
// The evaluation is a pipelined join: atoms are ordered greedily (most
// already-bound variables first, then smallest extent), each step probes the
// relations' per-position indexes on the bound positions, and built-ins fire
// as soon as their variables are in scope.
//
// The result is a set in first-derivation order: the same relations (in
// insertion order) in give the same order out, whatever the process's hash
// seed, but the order is not canonical — a caller that shows rows to a person
// sorts them (relalg.SortTuples). The slice is the caller's. A conjunction of
// one atom and no built-in is projected straight from the relation's rows,
// walked by position (see evalSeeded), which keeps the contract: first
// derivation is insertion order.
//
// Node qualifiers on atoms are ignored: the caller is responsible for
// evaluating a conjunction against the right node's database (rules are
// restricted per node before evaluation).
func Eval(src Source, c Conjunction, outVars []string) ([]relalg.Tuple, error) {
	e := compile(src, c)
	outSlots, err := e.outSlots(c, outVars)
	if err != nil {
		return nil, err
	}
	out := relalg.MakeTupleSet(len(outSlots))
	if e.direct() && !e.atoms[0].hasConst() {
		// The whole extent seeds the one atom (a constant keeps the general
		// path: a point query probes the index, it does not scan).
		if rel := src.Rel(e.atoms[0].rel); rel != nil {
			err = e.evalSeeded(&out, outSlots, 0, rel.Len(), rel.At, nil, nil)
		}
		return out.All(), err
	}
	rows, err := e.evalAll()
	if err != nil {
		return nil, err
	}
	ProjectInto(&out, rows, outSlots)
	return out.All(), nil
}

// EvalDelta evaluates the conjunction semi-naively: delta holds, per relation
// name, the tuples inserted since the caller's high-water marks, and the
// result contains exactly the distinct projections onto outVars of bindings
// that use at least one delta tuple (the relations behind src must already
// include the delta). Accumulating an initial full Eval with the EvalDelta of
// every subsequent delta therefore reproduces the full Eval of the final
// state, at cost proportional to the deltas instead of the whole database.
// The result order follows Eval's contract: first derivation, a function of
// the relations' insertion order and the delta slices alone; for a
// conjunction of one atom and no built-in that is the order of the delta
// slice, whose matches are projected straight into the result. The delta
// slices are only read.
//
// The semi-naive expansion runs one pass per atom whose relation has new
// tuples, with that atom seeded from the delta. Passes are ordered
// adaptively — smallest delta first — and use the classic old/new split:
// pass k draws every earlier pass's seed atom from its pre-delta extent
// (full minus that atom's delta). A binding is therefore produced by exactly
// one pass — the first whose seed atom it binds to a delta tuple — instead
// of once per delta atom it touches, and the cheapest seeds run first.
// Seed passes share joined prefixes: the non-seed extents are static for the
// whole call, so bindings that agree on an atom's probed positions — within
// one pass or across passes — expand identically, and the probe-and-unify
// work is done once per distinct prefix and replayed from a cache.
func EvalDelta(src Source, c Conjunction, outVars []string, delta map[string][]relalg.Tuple) ([]relalg.Tuple, error) {
	return evalDelta(src, c, outVars, delta, true, true)
}

// evalDelta is EvalDelta with its optimisations switchable: adaptive=false
// seeds in body order without the old/new split, share=false disables the
// joined-prefix cache — both pre-optimisation behaviours, kept for the
// ablation benchmarks and the equivalence tests.
func evalDelta(src Source, c Conjunction, outVars []string, delta map[string][]relalg.Tuple, adaptive, share bool) ([]relalg.Tuple, error) {
	e := compile(src, c)
	outSlots, err := e.outSlots(c, outVars)
	if err != nil {
		return nil, err
	}
	order := make([]int, 0, len(c.Atoms))
	for i := range c.Atoms {
		if len(delta[c.Atoms[i].Rel]) > 0 {
			order = append(order, i)
		}
	}
	if adaptive {
		sort.SliceStable(order, func(a, b int) bool {
			return len(delta[c.Atoms[order[a]].Rel]) < len(delta[c.Atoms[order[b]].Rel])
		})
	}
	out := relalg.MakeTupleSet(len(outSlots))
	var cache *joinCache
	if share {
		cache = &joinCache{ctxs: map[expandCtx]int{}, m: map[prefixKey]*prefix{}}
	}
	// exclude maps an already-seeded atom's index to its delta tuples: later
	// passes must not bind that atom to its delta (those combinations were
	// produced when it was the seed).
	var exclude map[int]*relalg.TupleSet
	for k, i := range order {
		seedTuples := delta[c.Atoms[i].Rel]
		at := func(j int) relalg.Tuple { return seedTuples[j] }
		if err := e.evalSeeded(&out, outSlots, i, len(seedTuples), at, exclude, cache); err != nil {
			return nil, err
		}
		if adaptive && k < len(order)-1 {
			if exclude == nil {
				exclude = map[int]*relalg.TupleSet{}
			}
			set := &relalg.TupleSet{}
			for _, t := range seedTuples {
				set.Add(t)
			}
			exclude[i] = set
		}
	}
	return out.All(), nil
}

// ProjectInto adds the projection of every row onto the given slots to out,
// which copies only the projections not seen before.
func ProjectInto(out *relalg.TupleSet, rows [][]relalg.Value, slots []int) {
	out.Grow(len(rows))
	proj := make(relalg.Tuple, len(slots))
	for _, row := range rows {
		for i, s := range slots {
			proj[i] = row[s]
		}
		out.Add(proj)
	}
}

// Slots numbers variables. An evaluation numbers a conjunction's variables
// once and carries its bindings as rows — []relalg.Value indexed by slot —
// instead of one map per binding.
type Slots struct {
	names []string
	index map[string]int
}

// Add returns the variable's slot, assigning the next free one on first use.
func (s *Slots) Add(name string) int {
	if i, ok := s.index[name]; ok {
		return i
	}
	if s.index == nil {
		s.index = map[string]int{}
	}
	i := len(s.names)
	s.index[name] = i
	s.names = append(s.names, name)
	return i
}

// Lookup returns the variable's slot, or -1 if it has none.
func (s *Slots) Lookup(name string) int {
	if i, ok := s.index[name]; ok {
		return i
	}
	return -1
}

// Len returns the number of slots, i.e. the width of a row.
func (s *Slots) Len() int { return len(s.names) }

// Arena hands out value slices carved from geometrically growing chunks, so
// the rows of one evaluation cost a handful of allocations in total and are
// released together when the evaluation's results are dropped. The zero value
// is ready for use.
type Arena struct {
	free []relalg.Value
	next int // size of the next chunk
}

// Alloc returns a zeroed slice of n values with no spare capacity.
func (a *Arena) Alloc(n int) []relalg.Value {
	if n > len(a.free) {
		const minChunk, maxChunk = 64, 8192
		if a.next < minChunk {
			a.next = minChunk
		}
		size := a.next
		if size < n {
			size = n
		}
		if a.next < maxChunk {
			a.next *= 2
		}
		a.free = make([]relalg.Value, size)
	}
	out := a.free[:n:n]
	a.free = a.free[n:]
	return out
}

// Clone returns an arena copy of row.
func (a *Arena) Clone(row []relalg.Value) []relalg.Value {
	out := a.Alloc(len(row))
	copy(out, row)
	return out
}

// slotTerm is a compiled term: a variable's slot, or a constant.
type slotTerm struct {
	slot int          // noSlot for a constant
	val  relalg.Value // the constant
}

const (
	noSlot      = -1 // the term is a constant
	unboundSlot = -2 // a built-in's variable that no atom binds
)

type slotAtom struct {
	rel   string
	terms []slotTerm
}

type slotBuiltin struct {
	b    Builtin
	l, r slotTerm
}

func (sb slotBuiltin) ready(bound []bool) bool {
	for _, t := range [2]slotTerm{sb.l, sb.r} {
		if t.slot == unboundSlot || t.slot >= 0 && !bound[t.slot] {
			return false
		}
	}
	return true
}

func (sb slotBuiltin) holds(row []relalg.Value) bool {
	l, r := sb.l.val, sb.r.val
	if sb.l.slot >= 0 {
		l = row[sb.l.slot]
	}
	if sb.r.slot >= 0 {
		r = row[sb.r.slot]
	}
	holds, ok := sb.b.Holds(l, r)
	return ok && holds
}

// evaluator is one conjunction compiled against its slots: the state of a
// single Eval or EvalDelta call.
type evaluator struct {
	src      Source
	slots    Slots // the atom variables, in first-occurrence order
	atoms    []slotAtom
	builtins []slotBuiltin
	arena    Arena
}

func compile(src Source, c Conjunction) *evaluator {
	e := &evaluator{src: src, atoms: make([]slotAtom, len(c.Atoms)), builtins: make([]slotBuiltin, len(c.Builtins))}
	for i, a := range c.Atoms {
		terms := make([]slotTerm, len(a.Terms))
		for j, t := range a.Terms {
			if t.IsVar {
				terms[j] = slotTerm{slot: e.slots.Add(t.Var)}
			} else {
				terms[j] = slotTerm{slot: noSlot, val: t.Val}
			}
		}
		e.atoms[i] = slotAtom{rel: a.Rel, terms: terms}
	}
	builtinTerm := func(t Term) slotTerm {
		if !t.IsVar {
			return slotTerm{slot: noSlot, val: t.Val}
		}
		if s := e.slots.Lookup(t.Var); s >= 0 {
			return slotTerm{slot: s}
		}
		return slotTerm{slot: unboundSlot}
	}
	for i, b := range c.Builtins {
		e.builtins[i] = slotBuiltin{b: b, l: builtinTerm(b.L), r: builtinTerm(b.R)}
	}
	return e
}

// outSlots resolves the output variables, enforcing range restriction.
func (e *evaluator) outSlots(c Conjunction, outVars []string) ([]int, error) {
	out := make([]int, len(outVars))
	for i, v := range outVars {
		if out[i] = e.slots.Lookup(v); out[i] < 0 {
			return nil, fmt.Errorf("cq: output variable %s not range-restricted in %q", v, c.String())
		}
	}
	return out, nil
}

// evalAll returns one row per satisfying binding of the whole conjunction.
func (e *evaluator) evalAll() ([][]relalg.Value, error) {
	if len(e.atoms) == 0 {
		// A body with no atoms: satisfied by the empty binding iff all
		// built-ins are constant and hold.
		for _, sb := range e.builtins {
			if !sb.ready(nil) || !sb.holds(nil) {
				return nil, nil
			}
		}
		return [][]relalg.Value{nil}, nil
	}
	rest := make([]int, len(e.atoms))
	for i := range rest {
		rest[i] = i
	}
	rows := [][]relalg.Value{e.arena.Alloc(e.slots.Len())}
	return e.join(rows, make([]bool, e.slots.Len()), rest, nil, e.builtins, nil)
}

// direct reports whether seeding alone finishes the conjunction: one atom and
// no built-in, so the projection of every tuple the atom matches is a result.
func (e *evaluator) direct() bool { return len(e.atoms) == 1 && len(e.builtins) == 0 }

func (a slotAtom) hasConst() bool {
	for _, t := range a.terms {
		if t.slot == noSlot {
			return true
		}
	}
	return false
}

// evalSeeded runs the pipelined join with atom `seed` restricted to the n
// seed tuples at(0)..at(n-1) — a delta slice, or a relation's rows walked by
// position — atoms in exclude restricted to their pre-delta extents, and every
// other atom drawn from its full extent in src, and adds the projections of
// the resulting rows onto outSlots to out. When the conjunction is direct the
// seed loop writes each match's projection itself, in seed order — no row, no
// second pass; out still deduplicates (dropped columns can collide).
func (e *evaluator) evalSeeded(out *relalg.TupleSet, outSlots []int, seed, n int, at func(int) relalg.Tuple, exclude map[int]*relalg.TupleSet, cache *joinCache) error {
	atom := e.atoms[seed]
	bound := make([]bool, e.slots.Len())
	m := newMatcher(atom, bound)
	direct := e.direct()
	var rows [][]relalg.Value
	var proj relalg.Tuple // direct only: the projection scratch,
	var projPos []int     // and the tuple position each of its columns reads
	if direct {
		out.Grow(n)
		proj, projPos = make(relalg.Tuple, len(outSlots)), make([]int, len(outSlots))
		for i, s := range outSlots {
			for k, as := range m.assignSlot {
				if as == s {
					projPos[i] = m.assignPos[k]
				}
			}
		}
	} else {
		rows = make([][]relalg.Value, 0, n)
	}
	for j := range n {
		t := at(j)
		// Nothing is bound yet, so the fixed positions are the constants.
		if len(t) != len(atom.terms) || !m.fixedMatch(t, nil) || !m.consistent(t) {
			continue
		}
		if direct {
			for i, p := range projPos {
				proj[i] = t[p]
			}
			out.Add(proj)
			continue
		}
		row := e.arena.Alloc(e.slots.Len())
		for k, p := range m.assignPos {
			row[m.assignSlot[k]] = t[p]
		}
		rows = append(rows, row)
	}
	if len(rows) == 0 {
		return nil
	}
	for _, s := range m.assignSlot {
		bound[s] = true
	}
	rest := make([]int, 0, len(e.atoms)-1)
	for i := range e.atoms {
		if i != seed {
			rest = append(rest, i)
		}
	}
	pending := e.applyReadyBuiltins(e.builtins, bound, &rows)
	rows, err := e.join(rows, bound, rest, exclude, pending, cache)
	if err != nil {
		return err
	}
	ProjectInto(out, rows, outSlots)
	return nil
}

// matcher is an atom split by what its positions do under a given set of
// bound slots: fixed positions hold a constant or a bound variable, assign
// positions are the first occurrence of an unbound variable, and repeats must
// agree with the assign position of the same variable.
type matcher struct {
	atom       slotAtom
	fixed      []int
	assignPos  []int
	assignSlot []int
	repeats    [][2]int // position, position of the first occurrence
}

func newMatcher(atom slotAtom, bound []bool) matcher {
	m := matcher{atom: atom}
	for i, t := range atom.terms {
		if t.slot < 0 || bound[t.slot] {
			m.fixed = append(m.fixed, i)
			continue
		}
		first := -1
		for k, s := range m.assignSlot {
			if s == t.slot {
				first = m.assignPos[k]
			}
		}
		if first >= 0 {
			m.repeats = append(m.repeats, [2]int{i, first})
		} else {
			m.assignPos = append(m.assignPos, i)
			m.assignSlot = append(m.assignSlot, t.slot)
		}
	}
	return m
}

// fixedValue returns what fixed position p must equal under row.
func (m *matcher) fixedValue(p int, row []relalg.Value) relalg.Value {
	t := m.atom.terms[p]
	if t.slot >= 0 {
		return row[t.slot]
	}
	return t.val
}

// fixedMatch reports whether the tuple agrees with row on the fixed
// positions (an index probe on them guarantees it).
func (m *matcher) fixedMatch(tuple relalg.Tuple, row []relalg.Value) bool {
	for _, p := range m.fixed {
		if tuple[p] != m.fixedValue(p, row) {
			return false
		}
	}
	return true
}

// consistent reports whether the tuple gives every repeated unbound variable
// one value.
func (m *matcher) consistent(tuple relalg.Tuple) bool {
	for _, rp := range m.repeats {
		if tuple[rp[0]] != tuple[rp[1]] {
			return false
		}
	}
	return true
}

// join drives the pipelined join over the atoms listed in rest, starting from
// rows in which the bound slots are filled. excl restricts an atom (by index)
// to its pre-delta extent by skipping probed tuples in the listed set (the
// semi-naive old/new split).
func (e *evaluator) join(rows [][]relalg.Value, bound []bool, rest []int, excl map[int]*relalg.TupleSet, pending []slotBuiltin, cache *joinCache) ([][]relalg.Value, error) {
	for len(rest) > 0 {
		k := e.pickNextAtom(rest, bound)
		ai := rest[k]
		rest = append(rest[:k], rest[k+1:]...)

		rows = e.expand(rows, ai, excl[ai], bound, cache)
		for _, t := range e.atoms[ai].terms {
			if t.slot >= 0 {
				bound[t.slot] = true
			}
		}
		pending = e.applyReadyBuiltins(pending, bound, &rows)
		if len(rows) == 0 {
			return nil, nil
		}
	}
	// Any leftover builtin references an unbound variable: reject (the rule
	// validator should have caught this, but user queries reach here too).
	if len(pending) > 0 {
		var names []string
		for _, sb := range pending {
			names = append(names, sb.b.String())
		}
		return nil, fmt.Errorf("cq: builtins with unbound variables: %s", strings.Join(names, "; "))
	}
	return rows, nil
}

// pickNextAtom chooses the next atom to join: maximise the number of bound
// positions (variables already in scope plus constants); break ties by
// smaller relation extent, then by original order. It returns an index into
// rest.
func (e *evaluator) pickNextAtom(rest []int, bound []bool) int {
	best, bestScore, bestSize := 0, -1, -1
	for k, ai := range rest {
		a := e.atoms[ai]
		score := 0
		for _, t := range a.terms {
			if t.slot < 0 || bound[t.slot] {
				score++
			}
		}
		size := 0
		if r := e.src.Rel(a.rel); r != nil {
			size = r.Len()
		}
		if score > bestScore || (score == bestScore && size < bestSize) {
			best, bestScore, bestSize = k, score, size
		}
	}
	return best
}

// joinCache shares joined prefixes between the seed passes of one EvalDelta
// call. The non-seed extents (full or pre-delta) are static for the whole
// call, so the set of ways an atom extends a row depends only on the atom,
// which of its positions are probed, the old/new exclusion in force — the
// expand context — and the probed values: the row's join prefix. Rows
// agreeing on that prefix, within one pass or across passes, replay the
// cached extensions instead of re-probing and re-unifying. Prefixes are found
// by the hash of their values and verified against them.
type joinCache struct {
	ctxs map[expandCtx]int
	m    map[prefixKey]*prefix
}

// expandCtx is everything an atom's extensions depend on besides the probed
// values. The skip set is compared by identity: each seeded atom's exclusion
// set is allocated once and reused across all later passes.
type expandCtx struct {
	atom   int
	probed uint64 // bit i set: position i is probed
	skip   *relalg.TupleSet
}

type prefixKey struct {
	ctx  int
	hash uint64 // of the probed values
}

// prefix is one cached join prefix: the probed values and the n ways the atom
// extends them, flattened (n runs of one value per assigned slot).
type prefix struct {
	vals []relalg.Value
	exts []relalg.Value
	n    int
	next *prefix // another prefix with the same key (hash collision)
}

func (c *joinCache) context(ctx expandCtx) int {
	id, ok := c.ctxs[ctx]
	if !ok {
		id = len(c.ctxs)
		c.ctxs[ctx] = id
	}
	return id
}

func (c *joinCache) lookup(k prefixKey, vals []relalg.Value) *prefix {
	for p := c.m[k]; p != nil; p = p.next {
		if relalg.Tuple(p.vals).Equal(vals) {
			return p
		}
	}
	return nil
}

// expand joins the rows with one atom by probing the relation's persistent
// per-position index on the atom's bound positions (constants and variables
// already in scope). Unlike a per-call hash build, the probe costs nothing
// when the row set is small — the semi-naive delta path depends on this to
// stay O(delta). skip, when non-nil, holds tuples this atom must not bind
// (its own delta, under the old/new split). cache, when non-nil, shares the
// probe-and-unify work between rows with equal join prefixes (see joinCache).
// A row's last extension is written into the row itself; only the others are
// copies.
func (e *evaluator) expand(rows [][]relalg.Value, ai int, skip *relalg.TupleSet, bound []bool, cache *joinCache) [][]relalg.Value {
	atom := e.atoms[ai]
	rel := e.src.Rel(atom.rel)
	if rel == nil || rel.Len() == 0 || rel.Schema().Arity() != len(atom.terms) {
		return nil
	}
	// The fixed positions are probed through the index and match by
	// construction; only the unbound variables are left to place.
	m := newMatcher(atom, bound)
	probed, width := m.fixed, len(m.assignPos)

	// The cache context names the probed positions by bit mask; a wider atom
	// simply goes uncached.
	ctx := -1
	if cache != nil && len(atom.terms) <= 64 {
		var mask uint64
		for _, p := range probed {
			mask |= 1 << uint(p)
		}
		ctx = cache.context(expandCtx{atom: ai, probed: mask, skip: skip})
	}

	out := make([][]relalg.Value, 0, len(rows))
	vals := make([]relalg.Value, len(probed))
	var cands []relalg.Tuple   // probe scratch
	var scratch []relalg.Value // extension scratch of the uncached path
	for _, row := range rows {
		for i, p := range probed {
			vals[i] = m.fixedValue(p, row)
		}
		var hit *prefix
		var key prefixKey
		if ctx >= 0 {
			key = prefixKey{ctx: ctx, hash: relalg.Tuple(vals).Hash()}
			hit = cache.lookup(key, vals)
		}
		exts, n := scratch[:0], 0
		if hit != nil {
			exts, n = hit.exts, hit.n
		} else {
			cands = rel.AppendProbe(cands[:0], probed, vals)
			for _, tuple := range cands {
				if !m.consistent(tuple) || skip != nil && skip.Has(tuple) {
					continue
				}
				for _, p := range m.assignPos {
					exts = append(exts, tuple[p])
				}
				n++
			}
			scratch = exts
			if ctx >= 0 {
				p := &prefix{vals: e.arena.Clone(vals), exts: e.arena.Clone(exts), n: n, next: cache.m[key]}
				cache.m[key] = p
			}
		}
		for j := 0; j < n; j++ {
			target := row
			if j < n-1 {
				target = e.arena.Clone(row)
			}
			for k, s := range m.assignSlot {
				target[s] = exts[j*width+k]
			}
			out = append(out, target)
		}
	}
	return out
}

// applyReadyBuiltins filters rows through every builtin whose variables are
// now all bound, returning the still-pending builtins.
func (e *evaluator) applyReadyBuiltins(builtins []slotBuiltin, bound []bool, rows *[][]relalg.Value) []slotBuiltin {
	var pending []slotBuiltin
	for _, sb := range builtins {
		if !sb.ready(bound) {
			pending = append(pending, sb)
			continue
		}
		kept := (*rows)[:0]
		for _, row := range *rows {
			if sb.holds(row) {
				kept = append(kept, row)
			}
		}
		*rows = kept
	}
	return pending
}
