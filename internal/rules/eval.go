package rules

import (
	"repro/internal/cq"
	"repro/internal/relalg"
)

// PartTuples is the result set of one body part: tuples over the named
// columns.
type PartTuples struct {
	Cols   []string
	Tuples []relalg.Tuple
}

// JoinParts joins per-source body-part result sets into bindings over the
// rule's export variables (in ExportVars order), applying cross-part
// built-ins. A missing or empty part yields an empty result. The output is
// distinct and in first-derivation order (see cq.Eval): a function of the
// order of the parts' tuples, never of the hash seed.
//
// It is the join of a rule with several sources. A rule with one source has
// nothing to join and nothing to deduplicate — the source's answer is a set
// over exactly the export variables, and the head relations refuse a repeat —
// so the peer feeds that answer to ApplyPart instead, which must derive what
// Apply(JoinParts(...)) derives (TestApplyPartMatchesJoinThenApply).
func JoinParts(r Rule, parts map[string]PartTuples) []relalg.Tuple {
	// Number the part columns once; bindings are rows indexed by slot.
	sources := r.SourceNodes()
	var slots cq.Slots
	for _, src := range sources {
		pr, ok := parts[src]
		if !ok || len(pr.Tuples) == 0 {
			return nil
		}
		for _, c := range pr.Cols {
			slots.Add(c)
		}
	}
	var arena cq.Arena
	rows := [][]relalg.Value{arena.Alloc(slots.Len())}
	bound := make([]bool, slots.Len())
	for _, src := range sources {
		rows = joinOne(&arena, rows, bound, &slots, parts[src])
		if len(rows) == 0 {
			return nil
		}
	}
	for _, b := range r.Body.Builtins {
		if builtinLocalToOnePart(r, b) {
			continue // the source already applied it
		}
		kept := rows[:0]
		for _, row := range rows {
			lv, lok := operand(b.L, &slots, row)
			rv, rok := operand(b.R, &slots, row)
			if !lok || !rok {
				continue
			}
			if holds, ok := b.Holds(lv, rv); ok && holds {
				kept = append(kept, row)
			}
		}
		rows = kept
	}
	exportVars := r.ExportVars()
	exportSlots := make([]int, len(exportVars))
	for i, v := range exportVars {
		if exportSlots[i] = slots.Lookup(v); exportSlots[i] < 0 {
			return nil // defensive: part columns missing an export variable
		}
	}
	out := relalg.MakeTupleSet(len(exportSlots))
	cq.ProjectInto(&out, rows, exportSlots)
	return out.All()
}

// operand resolves a built-in's term against a row; ok=false means the term
// is a variable no part exports.
func operand(t cq.Term, slots *cq.Slots, row []relalg.Value) (relalg.Value, bool) {
	if !t.IsVar {
		return t.Val, true
	}
	if s := slots.Lookup(t.Var); s >= 0 {
		return row[s], true
	}
	return relalg.Value{}, false
}

// joinOne hash-free nested-loop joins the rows with one part on shared
// columns (part result sets are small: they are already projections), marking
// the part's columns bound. A pair is checked on the shared columns before
// anything is copied; a row's last match extends the row in place.
func joinOne(arena *cq.Arena, rows [][]relalg.Value, bound []bool, slots *cq.Slots, pr PartTuples) [][]relalg.Value {
	colSlots := make([]int, len(pr.Cols))
	for i, c := range pr.Cols {
		colSlots[i] = slots.Lookup(c)
	}
	// A column either joins with a slot an earlier part bound or assigns a
	// free one.
	var joins, assigns []int
	for i, s := range colSlots {
		if bound[s] {
			joins = append(joins, i)
		} else {
			assigns = append(assigns, i)
		}
	}
	out := make([][]relalg.Value, 0, len(pr.Tuples))
	var matches []relalg.Tuple
	for _, row := range rows {
		matches = matches[:0]
	tuples:
		for _, t := range pr.Tuples {
			if len(t) < len(pr.Cols) {
				continue
			}
			for _, i := range joins {
				if row[colSlots[i]] != t[i] {
					continue tuples
				}
			}
			matches = append(matches, t)
		}
		for j, t := range matches {
			target := row
			if j < len(matches)-1 {
				target = arena.Clone(row)
			}
			for _, i := range assigns {
				target[colSlots[i]] = t[i]
			}
			out = append(out, target)
		}
	}
	for _, s := range colSlots {
		bound[s] = true
	}
	return out
}

// builtinLocalToOnePart reports whether all the builtin's variables are
// bound by a single body part, in which case the part's evaluation already
// applied it.
func builtinLocalToOnePart(r Rule, b cq.Builtin) bool {
	for _, src := range r.SourceNodes() {
		vars := r.Body.Restrict(src).AtomVars()
		all := true
		for _, t := range []cq.Term{b.L, b.R} {
			if t.IsVar && !vars[t.Var] {
				all = false
				break
			}
		}
		if all {
			return true
		}
	}
	return false
}

// EvaluateBody evaluates the whole rule body against per-node sources (used
// by the centralised baseline, which holds all databases in one place) and
// returns bindings over ExportVars. Domain maps, when given, translate each
// part's tuples from the source node's identifiers to the head node's before
// the join — the same rewriting a peer applies to incoming Answer payloads.
func EvaluateBody(r Rule, src func(node string) cq.Source, maps MapSet) ([]relalg.Tuple, error) {
	parts := map[string]PartTuples{}
	for _, node := range r.SourceNodes() {
		part, cols := r.BodyPart(node)
		s := src(node)
		if s == nil {
			return nil, nil
		}
		tuples, err := cq.Eval(s, part, cols)
		if err != nil {
			return nil, err
		}
		tuples = maps.For(node, r.HeadNode).TranslateTuples(tuples)
		parts[node] = PartTuples{Cols: cols, Tuples: tuples}
	}
	return JoinParts(r, parts), nil
}
