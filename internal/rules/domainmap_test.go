package rules

import (
	"strings"
	"testing"

	"repro/internal/cq"
	"repro/internal/relalg"
	"repro/internal/storage"
)

func TestDomainMapTranslate(t *testing.T) {
	m := NewDomainMap("A", "B")
	m.Add(relalg.S("x"), relalg.S("y"))
	m.Add(relalg.I(1), relalg.I(100))

	if got := m.Translate(relalg.S("x")); got != relalg.S("y") {
		t.Errorf("x -> %v", got)
	}
	if got := m.Translate(relalg.S("unmapped")); got != relalg.S("unmapped") {
		t.Error("unmapped values must pass through")
	}
	if got := m.Translate(relalg.I(1)); got != relalg.I(100) {
		t.Errorf("1 -> %v", got)
	}
	null := relalg.Null("n")
	if got := m.Translate(null); got != null {
		t.Error("nulls must never be translated")
	}
	// Nil receiver is a no-op.
	var nilMap *DomainMap
	if got := nilMap.Translate(relalg.S("x")); got != relalg.S("x") {
		t.Error("nil map must pass through")
	}
}

func TestDomainMapTranslateTuple(t *testing.T) {
	m := NewDomainMap("A", "B")
	m.Add(relalg.S("x"), relalg.S("y"))
	in := relalg.Tuple{relalg.S("x"), relalg.S("keep")}
	out := m.TranslateTuple(in)
	if out[0] != relalg.S("y") || out[1] != relalg.S("keep") {
		t.Errorf("out = %v", out)
	}
	if in[0] != relalg.S("x") {
		t.Error("input tuple mutated")
	}
	// No change: same slice returned (no allocation).
	same := relalg.Tuple{relalg.S("a")}
	if got := m.TranslateTuple(same); &got[0] != &same[0] {
		t.Error("unchanged tuple should be returned as-is")
	}
}

func TestParseNetworkWithMaps(t *testing.T) {
	src := `
node A { rel a(x) }
node B { rel b(x) }
rule r: B:b(X) -> A:a(X)
map B -> A { 'beta_1' => 'alpha_1'  'beta_2' => 'alpha_2'  7 => 70 }
fact B:b('beta_1')
`
	net, err := ParseNetwork(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(net.Maps) != 1 || len(net.Maps[0].Pairs) != 3 {
		t.Fatalf("maps = %+v", net.Maps)
	}
	ms := net.MapSet()
	if ms.For("B", "A") == nil || ms.For("A", "B") != nil {
		t.Error("MapSet direction wrong")
	}
	if got := ms.For("B", "A").Translate(relalg.I(7)); got != relalg.I(70) {
		t.Errorf("7 -> %v", got)
	}
}

func TestParseNetworkMapErrors(t *testing.T) {
	cases := []struct{ src, want string }{
		{"node A { rel a(x) }\nmap A -> Z { 'x' => 'y' }", "undeclared"},
		{"node A { rel a(x) }\nmap A -> A { 'x' => 'y' }", "distinct"},
		{"node A { rel a(x) }\nnode B { rel b(x) }\nmap A B { 'x' => 'y' }", "->"},
		{"node A { rel a(x) }\nnode B { rel b(x) }\nmap A -> B 'x' => 'y'", "{"},
		{"node A { rel a(x) }\nnode B { rel b(x) }\nmap A -> B { 'x' 'y' }", "=>"},
	}
	for _, c := range cases {
		if _, err := ParseNetwork(c.src); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("ParseNetwork(%q) err = %v, want mention of %q", c.src, err, c.want)
		}
	}
}

func TestMapFormatRoundTrip(t *testing.T) {
	src := `
node A { rel a(x) }
node B { rel b(x) }
map B -> A { 'p' => 'q'  'it''s' => 'ok' }
`
	net, err := ParseNetwork(src)
	if err != nil {
		t.Fatal(err)
	}
	again, err := ParseNetwork(net.Format())
	if err != nil {
		t.Fatalf("re-parse: %v\n%s", err, net.Format())
	}
	if len(again.Maps) != 1 || len(again.Maps[0].Pairs) != 2 {
		t.Fatalf("round trip lost pairs: %s", again.Format())
	}
	if got := again.MapSet().For("B", "A").Translate(relalg.S("it's")); got != relalg.S("ok") {
		t.Errorf("quoted key mangled: %v", got)
	}
}

func TestEvaluateBodyAppliesMaps(t *testing.T) {
	src := `
node A { rel a(x) }
node B { rel b(x) }
rule r: B:b(X) -> A:a(X)
map B -> A { 'beta' => 'alpha' }
fact B:b('beta')
fact B:b('other')
`
	net, err := ParseNetwork(src)
	if err != nil {
		t.Fatal(err)
	}
	bdb := storage.New(relalg.MakeSchema("b", 1))
	if _, err := bdb.Insert("b", relalg.Tuple{relalg.S("beta")}, storage.InsertExact); err != nil {
		t.Fatal(err)
	}
	if _, err := bdb.Insert("b", relalg.Tuple{relalg.S("other")}, storage.InsertExact); err != nil {
		t.Fatal(err)
	}
	srcFn := func(node string) cq.Source {
		if node == "B" {
			return bdb
		}
		return nil
	}
	bindings, err := EvaluateBody(net.Rules[0], srcFn, net.MapSet())
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]bool{}
	for _, b := range bindings {
		got[b[0].Str()] = true
	}
	if !got["alpha"] || !got["other"] || got["beta"] {
		t.Fatalf("bindings = %v (beta should translate to alpha)", bindings)
	}
	// Without maps, beta stays beta.
	plain, err := EvaluateBody(net.Rules[0], srcFn, nil)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, b := range plain {
		if b[0] == relalg.S("beta") {
			found = true
		}
	}
	if !found {
		t.Error("nil MapSet should not translate")
	}
}
