package cq

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/relalg"
)

func mkrel(t *testing.T, name string, arity int, rows ...[]string) *relalg.Relation {
	t.Helper()
	r := relalg.NewRelation(relalg.MakeSchema(name, arity))
	for _, row := range rows {
		tp := make(relalg.Tuple, len(row))
		for i, s := range row {
			tp[i] = relalg.S(s)
		}
		if _, err := r.Insert(tp); err != nil {
			t.Fatal(err)
		}
	}
	return r
}

func TestParseConjunctionBasics(t *testing.T) {
	c, err := ParseConjunction("b(X,Y), b(Y,Z), X <> Z")
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Atoms) != 2 || len(c.Builtins) != 1 {
		t.Fatalf("got %d atoms %d builtins", len(c.Atoms), len(c.Builtins))
	}
	if c.Atoms[0].Rel != "b" || c.Atoms[0].Node != "" {
		t.Errorf("atom 0 = %+v", c.Atoms[0])
	}
	if got := c.String(); got != "b(X,Y), b(Y,Z), X <> Z" {
		t.Errorf("round trip = %q", got)
	}
}

func TestParseNodeQualified(t *testing.T) {
	c, err := ParseConjunction("B:b(X,Y), E:e(Y, 'w''x'), Y >= 1999")
	if err != nil {
		t.Fatal(err)
	}
	if c.Atoms[0].Node != "B" || c.Atoms[1].Node != "E" {
		t.Fatalf("nodes = %q %q", c.Atoms[0].Node, c.Atoms[1].Node)
	}
	if c.Atoms[1].Terms[1].Val != relalg.S("w'x") {
		t.Errorf("quoted constant = %v", c.Atoms[1].Terms[1].Val)
	}
	if c.Builtins[0].R.Val != relalg.I(1999) {
		t.Errorf("int constant = %v", c.Builtins[0].R.Val)
	}
	nodes := c.Nodes()
	if len(nodes) != 2 || nodes[0] != "B" || nodes[1] != "E" {
		t.Errorf("Nodes() = %v", nodes)
	}
}

func TestParseConstantsVsVariables(t *testing.T) {
	c, err := ParseConjunction("a(X, foo, 'Bar', 42, _tmp)")
	if err != nil {
		t.Fatal(err)
	}
	terms := c.Atoms[0].Terms
	if !terms[0].IsVar {
		t.Error("X should be a variable")
	}
	if terms[1].IsVar || terms[1].Val != relalg.S("foo") {
		t.Error("foo should be a string constant")
	}
	if terms[2].IsVar || terms[2].Val != relalg.S("Bar") {
		t.Error("'Bar' should be a string constant")
	}
	if terms[3].IsVar || terms[3].Val != relalg.I(42) {
		t.Error("42 should be an int constant")
	}
	if !terms[4].IsVar {
		t.Error("_tmp should be a variable")
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"a(",
		"a()",
		"a(X,)",
		"a(X) extra",
		"X <",
		"a(X), , b(Y)",
		"a('unterminated)",
	}
	for _, src := range bad {
		if _, err := ParseConjunction(src); err == nil {
			t.Errorf("ParseConjunction(%q) should fail", src)
		}
	}
}

func TestEvalSingleAtom(t *testing.T) {
	src := MapSource{"e": mkrel(t, "e", 2, []string{"a", "b"}, []string{"b", "c"})}
	c, _ := ParseConjunction("e(X,Y)")
	out, err := Eval(src, c, []string{"X", "Y"})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 {
		t.Fatalf("got %d tuples", len(out))
	}
}

func TestEvalJoin(t *testing.T) {
	src := MapSource{"e": mkrel(t, "e", 2,
		[]string{"a", "b"}, []string{"b", "c"}, []string{"c", "d"}, []string{"x", "y"})}
	c, _ := ParseConjunction("e(X,Y), e(Y,Z)")
	out, err := Eval(src, c, []string{"X", "Z"})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{"a|c": true, "b|d": true}
	if len(out) != len(want) {
		t.Fatalf("got %v", out)
	}
	for _, tp := range out {
		k := tp[0].Str() + "|" + tp[1].Str()
		if !want[k] {
			t.Errorf("unexpected %v", tp)
		}
	}
}

func TestEvalRepeatedVariable(t *testing.T) {
	src := MapSource{"e": mkrel(t, "e", 2, []string{"a", "a"}, []string{"a", "b"})}
	c, _ := ParseConjunction("e(X,X)")
	out, err := Eval(src, c, []string{"X"})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0][0] != relalg.S("a") {
		t.Fatalf("got %v", out)
	}
}

func TestEvalConstantInAtom(t *testing.T) {
	src := MapSource{"e": mkrel(t, "e", 2, []string{"a", "b"}, []string{"c", "b"}, []string{"a", "z"})}
	c, _ := ParseConjunction("e(a, Y)") // lower-case a is the constant 'a'
	out, err := Eval(src, c, []string{"Y"})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 {
		t.Fatalf("got %v", out)
	}
}

func TestEvalBuiltins(t *testing.T) {
	src := MapSource{"p": mkrel(t, "p", 2,
		[]string{"k1", "1998"}, []string{"k2", "2001"}, []string{"k3", "2004"})}
	c, _ := ParseConjunction("p(K, Y), Y >= 1999, Y <> 2004")
	out, err := Eval(src, c, []string{"K"})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0][0] != relalg.S("k2") {
		t.Fatalf("got %v", out)
	}
}

func TestEvalCrossProductDistinct(t *testing.T) {
	src := MapSource{
		"a": mkrel(t, "a", 1, []string{"x"}, []string{"y"}),
		"b": mkrel(t, "b", 1, []string{"1"}, []string{"2"}),
	}
	c, _ := ParseConjunction("a(X), b(Y)")
	out, err := Eval(src, c, []string{"X", "Y"})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 4 {
		t.Fatalf("cross product size = %d", len(out))
	}
	// Projection onto X alone must be distinct.
	out, err = Eval(src, c, []string{"X"})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 {
		t.Fatalf("distinct projection size = %d", len(out))
	}
}

func TestEvalEmptyRelation(t *testing.T) {
	src := MapSource{"a": mkrel(t, "a", 1, []string{"x"})}
	c, _ := ParseConjunction("a(X), missing(X)")
	out, err := Eval(src, c, []string{"X"})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 0 {
		t.Fatalf("join with missing relation must be empty, got %v", out)
	}
}

func TestEvalUnsafeOutputVar(t *testing.T) {
	src := MapSource{"a": mkrel(t, "a", 1, []string{"x"})}
	c, _ := ParseConjunction("a(X)")
	if _, err := Eval(src, c, []string{"Y"}); err == nil {
		t.Error("projection onto unbound variable must error")
	}
}

func TestEvalBuiltinUnboundVar(t *testing.T) {
	src := MapSource{"a": mkrel(t, "a", 1, []string{"x"})}
	c, _ := ParseConjunction("a(X), X <> Q")
	if _, err := Eval(src, c, []string{"X"}); err == nil {
		t.Error("builtin over unbound variable must error")
	}
}

func TestEvalNullSemantics(t *testing.T) {
	r := relalg.NewRelation(relalg.MakeSchema("p", 2))
	if _, err := r.Insert(relalg.Tuple{relalg.S("k1"), relalg.Null("n1")}); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Insert(relalg.Tuple{relalg.S("k2"), relalg.S("2000")}); err != nil {
		t.Fatal(err)
	}
	src := MapSource{"p": r}

	// Nulls join by label (they are first-class invented values).
	c, _ := ParseConjunction("p(K, Y)")
	out, err := Eval(src, c, []string{"K", "Y"})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 {
		t.Fatalf("got %v", out)
	}

	// Order comparisons involving nulls reject the row.
	c, _ = ParseConjunction("p(K, Y), Y >= 1999")
	out, err = Eval(src, c, []string{"K"})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0][0] != relalg.S("k2") {
		t.Fatalf("null should not satisfy >=: %v", out)
	}
}

func TestRestrict(t *testing.T) {
	c, err := ParseConjunction("B:b(X,Y), E:e(Y,Z), X <> Z, X <> Y")
	if err != nil {
		t.Fatal(err)
	}
	b := c.Restrict("B")
	if len(b.Atoms) != 1 || b.Atoms[0].Rel != "b" {
		t.Fatalf("restrict B atoms = %v", b.Atoms)
	}
	// X <> Y is covered by B's variables; X <> Z is not.
	if len(b.Builtins) != 1 || b.Builtins[0].String() != "X <> Y" {
		t.Fatalf("restrict B builtins = %v", b.Builtins)
	}
	e := c.Restrict("E")
	if len(e.Atoms) != 1 || len(e.Builtins) != 0 {
		t.Fatalf("restrict E = %v | %v", e.Atoms, e.Builtins)
	}
}

func TestConjunctionVarsOrder(t *testing.T) {
	c, _ := ParseConjunction("b(X,Y), c(Y,Z), W < Z")
	got := strings.Join(c.Vars(), ",")
	if got != "X,Y,Z,W" {
		t.Errorf("Vars() = %s", got)
	}
	av := c.AtomVars()
	if av["W"] || !av["X"] || !av["Z"] {
		t.Errorf("AtomVars = %v", av)
	}
}

func TestBuiltinEvalNullEquality(t *testing.T) {
	b := Builtin{Op: OpEQ, L: C(relalg.Null("a")), R: C(relalg.Null("a"))}
	holds, ok := b.Eval(Binding{})
	if !ok || !holds {
		t.Error("identical nulls must be =")
	}
	b = Builtin{Op: OpNEQ, L: C(relalg.Null("a")), R: C(relalg.Null("b"))}
	holds, ok = b.Eval(Binding{})
	if !ok || !holds {
		t.Error("distinct null labels are <> under the URI reading")
	}
}

// TestEvalOrderIsFirstDerivation pins the order contract of Eval and
// EvalDelta: distinct rows in the order they are first derived from the
// relation logs (and the delta slices), the same on every call — and not the
// canonical order, which only LocalQuery and the printers promise. That the
// order does not depend on the hash seed is checked where the seed can be
// changed (relalg's TestEvalOrderIndependentOfHashSeed).
func TestEvalOrderIsFirstDerivation(t *testing.T) {
	e := mkrel(t, "e", 2,
		[]string{"z", "1"}, []string{"a", "2"}, []string{"m", "3"}, []string{"z", "4"}, []string{"b", "5"})
	src := MapSource{"e": e}
	c, _ := ParseConjunction("e(X,Y)")
	render := func(ts []relalg.Tuple) string { return fmt.Sprint(ts) }
	for i := 0; i < 3; i++ {
		got, err := Eval(src, c, []string{"X"})
		if err != nil {
			t.Fatal(err)
		}
		if want := "[(z) (a) (m) (b)]"; render(got) != want {
			t.Fatalf("Eval #%d = %v, want log order %s", i, got, want)
		}
		delta, err := EvalDelta(src, c, []string{"X"}, map[string][]relalg.Tuple{"e": e.All()[2:]})
		if err != nil {
			t.Fatal(err)
		}
		if want := "[(m) (z) (b)]"; render(delta) != want {
			t.Fatalf("EvalDelta #%d = %v, want delta order %s", i, delta, want)
		}
	}
}
