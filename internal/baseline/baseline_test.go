package baseline

import (
	"strings"
	"testing"

	"repro/internal/relalg"
	"repro/internal/rules"
	"repro/internal/storage"
)

func parse(t *testing.T, src string) *rules.Network {
	t.Helper()
	net, err := rules.ParseNetwork(src)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func TestBuildSeedsFacts(t *testing.T) {
	net := parse(t, `
node A { rel a(x) }
fact A:a('1')
fact A:a('2')
`)
	dbs, err := Build(net)
	if err != nil {
		t.Fatal(err)
	}
	if dbs["A"].Count("a") != 2 {
		t.Fatalf("a = %d", dbs["A"].Count("a"))
	}
}

func TestCentralizedChain(t *testing.T) {
	net := parse(t, `
node A { rel a(x,y) }
node B { rel b(x,y) }
node C { rel c(x,y) }
rule rb: C:c(X,Y) -> B:b(X,Y)
rule ra: B:b(X,Y) -> A:a(Y,X)
fact C:c('1','2')
`)
	res, err := Centralized(net, rules.ApplyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.DBs["A"].Count("a") != 1 || res.DBs["B"].Count("b") != 1 {
		t.Fatalf("counts: a=%d b=%d", res.DBs["A"].Count("a"), res.DBs["B"].Count("b"))
	}
	row := res.DBs["A"].Rel("a").All()[0]
	if row[0] != relalg.S("2") || row[1] != relalg.S("1") {
		t.Fatalf("row = %v", row)
	}
	// Chain of length 2 needs 2 productive passes + 1 idle: rules are
	// evaluated in declaration order and ra precedes... order is rb, ra so
	// one pass suffices to propagate both hops, plus the idle pass.
	if res.Iterations < 2 || res.Iterations > 3 {
		t.Errorf("iterations = %d", res.Iterations)
	}
	if res.TuplesInserted != 2 {
		t.Errorf("inserted = %d", res.TuplesInserted)
	}
}

func TestCentralizedCycleTerminates(t *testing.T) {
	net := parse(t, `
node B { rel b(x,y) }
node C { rel c(x,y) }
rule rc: B:b(X,Y), B:b(Y,Z) -> C:c(X,Z)
rule rb: C:c(X,Y) -> B:b(X,Y)
fact B:b('1','2')
fact B:b('2','3')
fact B:b('3','4')
`)
	res, err := Centralized(net, rules.ApplyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// b converges to the transitive closure: (1,2),(2,3),(3,4),(1,3),(2,4),(1,4).
	if got := res.DBs["B"].Count("b"); got != 6 {
		t.Fatalf("b = %d", got)
	}
}

func TestCentralizedExistentialCycleBounded(t *testing.T) {
	// A pathological self-feeding existential: B invents values that flow
	// back into its own source relation. The depth bound must terminate it.
	net := parse(t, `
node A { rel a(x,y) }
node B { rel b(x,y) }
rule r1: A:a(X,Y) -> B:b(Y,Z)
rule r2: B:b(X,Y) -> A:a(X,Y)
fact A:a('s','t')
`)
	res, err := Centralized(net, rules.ApplyOptions{MaxNullDepth: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Truncated == 0 {
		t.Error("depth bound should have triggered")
	}
	if res.DBs["B"].Count("b") == 0 {
		t.Error("some derivation must survive")
	}
}

func TestAcyclicOnePassMatchesCentralized(t *testing.T) {
	net := parse(t, `
node A { rel a(x) }
node B { rel b(x) }
node C { rel c(x) }
node D { rel d(x) }
rule r1: B:b(X) -> A:a(X)
rule r2: C:c(X) -> B:b(X)
rule r3: D:d(X) -> B:b(X)
rule r4: D:d(X) -> C:c(X)
fact D:d('1')
fact C:c('2')
`)
	cen, err := Centralized(net, rules.ApplyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	one, err := AcyclicOnePass(net, rules.ApplyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if ok, node := Equal(cen.DBs, one.DBs); !ok {
		t.Fatalf("one-pass diverges at %s:\n%s\nvs\n%s", node, cen.DBs[node].Dump(), one.DBs[node].Dump())
	}
	// One pass must evaluate each rule exactly once.
	if one.RuleEvaluations != 4 {
		t.Errorf("one-pass evaluations = %d", one.RuleEvaluations)
	}
	if cen.RuleEvaluations <= one.RuleEvaluations {
		t.Errorf("centralised should cost more evaluations: %d vs %d", cen.RuleEvaluations, one.RuleEvaluations)
	}
}

func TestAcyclicOnePassRejectsCycles(t *testing.T) {
	net := parse(t, `
node B { rel b(x) }
node C { rel c(x) }
rule rc: B:b(X) -> C:c(X)
rule rb: C:c(X) -> B:b(X)
`)
	if _, err := AcyclicOnePass(net, rules.ApplyOptions{}); err == nil || !strings.Contains(err.Error(), "cyclic") {
		t.Fatalf("err = %v", err)
	}
}

func TestEqualAndTotalTuples(t *testing.T) {
	a := map[string]*storage.DB{"X": storage.New(relalg.MakeSchema("r", 1))}
	b := map[string]*storage.DB{"X": storage.New(relalg.MakeSchema("r", 1))}
	if ok, _ := Equal(a, b); !ok {
		t.Error("empty DBs must be equal")
	}
	if _, err := a["X"].Insert("r", relalg.Tuple{relalg.S("1")}, storage.InsertExact); err != nil {
		t.Fatal(err)
	}
	if ok, node := Equal(a, b); ok || node != "X" {
		t.Errorf("Equal = %v %q", ok, node)
	}
	// One side missing a node entirely.
	c := map[string]*storage.DB{}
	if ok, _ := Equal(a, c); ok {
		t.Error("missing node with data must differ")
	}
	if ok, _ := Equal(b, c); !ok {
		t.Error("missing node with empty data is equal")
	}
}

func TestCentralizedPaperExample(t *testing.T) {
	net := rules.PaperExampleSeeded()
	res, err := Centralized(net, rules.ApplyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// The seeded example drives every rule: every node must gain data.
	for _, node := range []string{"A", "B", "C", "D"} {
		if res.DBs[node].TotalTuples() == 0 {
			t.Errorf("%s is empty at the fix-point", node)
		}
	}
	// r5 fills C.f with first components of A.a.
	if res.DBs["C"].Count("f") == 0 {
		t.Error("C.f empty; rule r5 never fired")
	}
}
