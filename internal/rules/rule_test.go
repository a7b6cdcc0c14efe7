package rules

import (
	"strings"
	"testing"

	"repro/internal/cq"
	"repro/internal/relalg"
	"repro/internal/storage"
)

func parseRule(t *testing.T, src string) Rule {
	t.Helper()
	r, err := ParseRule(src)
	if err != nil {
		t.Fatalf("ParseRule(%q): %v", src, err)
	}
	return r
}

func TestParseRuleBasics(t *testing.T) {
	r := parseRule(t, "r2: B:b(X,Y), B:b(Y,Z) -> C:c(X,Z)")
	if r.ID != "r2" || r.HeadNode != "C" {
		t.Fatalf("rule = %+v", r)
	}
	if len(r.Body.Atoms) != 2 || len(r.Head) != 1 {
		t.Fatalf("rule shape = %+v", r)
	}
	if got := r.SourceNodes(); len(got) != 1 || got[0] != "B" {
		t.Errorf("sources = %v", got)
	}
	if got := r.ExportVars(); strings.Join(got, ",") != "X,Z" {
		t.Errorf("export vars = %v", got)
	}
	if got := r.ExistentialVars(); len(got) != 0 {
		t.Errorf("existential vars = %v", got)
	}
}

func TestParseRuleMultiAtomHead(t *testing.T) {
	r := parseRule(t, "rx: A:a(X,Y) -> D:d(Y,X), D:seen(X)")
	if len(r.Head) != 2 || r.HeadNode != "D" {
		t.Fatalf("rule = %+v", r)
	}
	if _, err := ParseRule("ry: A:a(X,Y) -> D:d(Y,X), E:e(X)"); err == nil {
		t.Error("head spanning two nodes must fail")
	}
}

func TestParseRuleErrors(t *testing.T) {
	bad := []string{
		"no arrow here",
		"r1: A:a(X) -> ",
		"r1: -> B:b(X)",
		"r1: A:a(X) -> B:b(X), X <> Y", // builtin in head
		"r1: A:a(X) -> b(X)",           // unqualified head
	}
	for _, src := range bad {
		if _, err := ParseRule(src); err == nil {
			t.Errorf("ParseRule(%q) should fail", src)
		}
	}
}

func TestExistentialVars(t *testing.T) {
	r := parseRule(t, "r: B:article(K,P,T) -> C:pubinfo(K,P,Y,V)")
	if got := strings.Join(r.ExistentialVars(), ","); got != "Y,V" {
		t.Errorf("existentials = %q", got)
	}
	if got := strings.Join(r.ExportVars(), ","); got != "K,P" {
		t.Errorf("exports = %q", got)
	}
}

func TestValidate(t *testing.T) {
	lookup := func(node, rel string) int {
		switch node + ":" + rel {
		case "A:a", "B:b":
			return 2
		}
		return -1
	}
	good := parseRule(t, "r: A:a(X,Y) -> B:b(Y,X)")
	if err := good.Validate(lookup); err != nil {
		t.Errorf("valid rule rejected: %v", err)
	}
	cases := []struct {
		src  string
		want string
	}{
		{"r: A:a(X,Y,Z) -> B:b(Y,X)", "arity"},
		{"r: A:a(X,Y) -> B:b(Y,X,X)", "arity"},
		{"r: B:b(X,Y) -> B:b(Y,X)", "distinct"},
		{"r: A:a(X,Y), X < Q -> B:b(Y,X)", "unbound"},
	}
	for _, c := range cases {
		r := parseRule(t, c.src)
		err := r.Validate(lookup)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("Validate(%q) = %v, want mention of %q", c.src, err, c.want)
		}
	}
}

// skolemize invents the labelled null for an existential head variable under
// a binding of the export variables, as the chase does: the null is a
// deterministic term of (rule id, variable, binding), so re-derivations
// re-create the identical null and exact-mode insertion deduplicates them. The
// term additionally holds the invention depth (1 + max depth of the binding
// values), which ApplyResult uses to cut off pathological cyclic invention.
func skolemize(ruleID, variable string, exportVars []string, binding relalg.Tuple) relalg.Value {
	_ = exportVars // binding is ordered by exportVars
	return relalg.Skolem(bindingDepth(binding)+1, relalg.S(ruleID), relalg.S(variable), binding)
}

// NullDepth is the depth the tests read: relalg.Value.NullDepth.
func NullDepth(v relalg.Value) int { return v.NullDepth() }

func TestSkolemizeDeterministicAndDepth(t *testing.T) {
	bind := relalg.Tuple{relalg.S("k1"), relalg.S("p1")}
	n1 := skolemize("r9", "V", []string{"K", "P"}, bind)
	n2 := skolemize("r9", "V", []string{"K", "P"}, bind)
	if n1 != n2 {
		t.Error("skolemisation must be deterministic")
	}
	other := skolemize("r9", "W", []string{"K", "P"}, bind)
	if n1 == other {
		t.Error("different variables must give different nulls")
	}
	if NullDepth(n1) != 1 {
		t.Errorf("depth of constant-derived null = %d", NullDepth(n1))
	}
	// A null derived from a depth-1 null has depth 2.
	deeper := skolemize("r9", "V", []string{"K"}, relalg.Tuple{n1})
	if NullDepth(deeper) != 2 {
		t.Errorf("depth = %d, want 2", NullDepth(deeper))
	}
	if NullDepth(relalg.S("x")) != 0 {
		t.Error("constants have depth 0")
	}
	if NullDepth(relalg.Null("foreign")) != 1 {
		t.Error("unparseable null labels default to depth 1")
	}
}

// TestSkolemLabelGolden pins the exact bytes of invented null labels: they
// are persisted in WALs and compared across nodes, so parent and change must
// agree on them.
func TestSkolemLabelGolden(t *testing.T) {
	binding := relalg.Tuple{relalg.S("conf/edbt/04"), relalg.I(2004), relalg.Null("d1|r0|Z|2:sa")}
	got := skolemize("r7", "Id", []string{"K", "Y", "N"}, binding)
	want := relalg.Null("d2|r7|Id|13:sconf/edbt/045:i200413:nd1|r0|Z|2:sa")
	if got != want {
		t.Fatalf("Skolemize = %s, want %s", got.Quoted(), want.Quoted())
	}
	if NullDepth(got) != 2 {
		t.Fatalf("depth %d, want 2", NullDepth(got))
	}
	if got := skolemize("r", "V", nil, relalg.Tuple{}); got != relalg.Null("d1|r|V|") {
		t.Fatalf("empty binding: %s", got.Quoted())
	}
}

func TestApplyInsertsHeads(t *testing.T) {
	db := storage.New(relalg.MakeSchema("c", 2))
	r := parseRule(t, "r2: B:b(X,Y), B:b(Y,Z) -> C:c(X,Z)")
	bindings := []relalg.Tuple{
		{relalg.S("a"), relalg.S("c")},
		{relalg.S("b"), relalg.S("d")},
	}
	res, err := Apply(db, r, bindings, ApplyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Added != 2 || db.Count("c") != 2 {
		t.Fatalf("added=%d count=%d", res.Added, db.Count("c"))
	}
	// Re-applying is a no-op.
	res, err = Apply(db, r, bindings, ApplyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Added != 0 {
		t.Fatalf("re-apply added %d", res.Added)
	}
}

func TestApplyExistentialDeterministic(t *testing.T) {
	db := storage.New(relalg.MakeSchema("pubinfo", 4))
	r := parseRule(t, "r: B:article(K,P,T) -> C:pubinfo(K,P,Y,V)")
	bindings := []relalg.Tuple{{relalg.S("k1"), relalg.S("au1")}}
	res, err := Apply(db, r, bindings, ApplyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Added != 1 {
		t.Fatalf("added = %d", res.Added)
	}
	// Same binding re-derived: identical Skolem nulls, so the duplicate is
	// suppressed by exact-mode insertion — the paper's termination argument.
	res, err = Apply(db, r, bindings, ApplyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Added != 0 {
		t.Fatal("re-derivation must deduplicate under deterministic skolemisation")
	}
	row := db.Rel("pubinfo").All()[0]
	if !row[2].IsNull() || !row[3].IsNull() {
		t.Fatalf("existential columns should be nulls: %v", row)
	}
}

func TestApplyNullDepthBound(t *testing.T) {
	db := storage.New(relalg.MakeSchema("h", 2))
	r := parseRule(t, "r: S:src(X) -> H:h(X, Y)")
	// Feed the rule with progressively deeper nulls to hit the bound.
	bind := relalg.Tuple{relalg.S("seed")}
	total := ApplyResult{}
	for i := 0; i < 10; i++ {
		res, err := Apply(db, r, []relalg.Tuple{bind}, ApplyOptions{MaxNullDepth: 3})
		if err != nil {
			t.Fatal(err)
		}
		total.Added += res.Added
		total.Truncated += res.Truncated
		// Pretend the invented null flows back into the body.
		bind = relalg.Tuple{skolemize("r", "Y", []string{"X"}, bind)}
	}
	if total.Truncated == 0 {
		t.Error("depth bound never triggered")
	}
	if total.Added == 0 {
		t.Error("nothing inserted before the bound")
	}
}

func TestApplyBindingArityMismatch(t *testing.T) {
	db := storage.New(relalg.MakeSchema("c", 2))
	r := parseRule(t, "r2: B:b(X,Y), B:b(Y,Z) -> C:c(X,Z)")
	_, err := Apply(db, r, []relalg.Tuple{{relalg.S("only-one")}}, ApplyOptions{})
	if err == nil {
		t.Error("binding arity mismatch must error")
	}
}

func TestBodyPartSingleSource(t *testing.T) {
	r := parseRule(t, "r4: B:b(X,Y), B:b(X,Z), X <> Z -> A:a(X,Y)")
	part, vars := r.BodyPart("B")
	if len(part.Atoms) != 2 || len(part.Builtins) != 1 {
		t.Fatalf("part = %v", part)
	}
	if strings.Join(vars, ",") != "X,Y" {
		t.Errorf("export vars = %v", vars)
	}
}

func TestBodyPartMultiSource(t *testing.T) {
	r := parseRule(t, "r: B:b(X,Y), E:e(Y,Z), X <> Z -> A:a(X,Z)")
	bPart, bVars := r.BodyPart("B")
	if len(bPart.Atoms) != 1 || bPart.Atoms[0].Rel != "b" {
		t.Fatalf("B part = %v", bPart)
	}
	// B must export X (head+builtin) and Y (join with E); the cross-part
	// builtin X <> Z must NOT be attached to B's part alone.
	if strings.Join(bVars, ",") != "X,Y" {
		t.Errorf("B export vars = %v", bVars)
	}
	if len(bPart.Builtins) != 0 {
		t.Errorf("cross-part builtin leaked into B part: %v", bPart.Builtins)
	}
	ePart, eVars := r.BodyPart("E")
	if len(ePart.Atoms) != 1 || strings.Join(eVars, ",") != "Y,Z" {
		t.Fatalf("E part = %v vars %v", ePart, eVars)
	}
}

func TestRuleStringRoundTrip(t *testing.T) {
	src := "r4: B:b(X,Y), B:b(X,Z), X <> Z -> A:a(X,Y)"
	r := parseRule(t, src)
	again := parseRule(t, strings.TrimPrefix(r.String(), "rule "))
	if again.String() != r.String() {
		t.Errorf("unstable rendering: %q vs %q", r.String(), again.String())
	}
}

func TestHeadConstants(t *testing.T) {
	db := storage.New(relalg.MakeSchema("tag", 2))
	r := Rule{
		ID:       "rc",
		HeadNode: "T",
		Head: []cq.Atom{{Rel: "tag", Terms: []cq.Term{
			cq.V("X"), cq.C(relalg.S("imported")),
		}}},
		Body: mustConj(t, "S:s(X)"),
	}
	res, err := Apply(db, r, []relalg.Tuple{{relalg.S("k")}}, ApplyOptions{})
	if err != nil || res.Added != 1 {
		t.Fatalf("apply: %+v %v", res, err)
	}
	row := db.Rel("tag").All()[0]
	if row[1] != relalg.S("imported") {
		t.Errorf("constant head term lost: %v", row)
	}
}

func mustConj(t *testing.T, s string) cq.Conjunction {
	t.Helper()
	c, err := cq.ParseConjunction(s)
	if err != nil {
		t.Fatal(err)
	}
	return c
}
