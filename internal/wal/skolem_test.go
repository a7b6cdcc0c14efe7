package wal

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/baseline"
	"repro/internal/rules"
)

// skolemDir is a DataDir written by the build in which the chase interned
// every labelled null as its printed label: `p2pdb -delta -data D run
// net.txt` over testdata/skolem/net.txt. Its rules invent a depth-1 null (r1)
// and, from a binding holding it, a depth-2 null (r2); the bindings hold a
// string with a '|' in it and a boxed int. skolem.dump is what that build
// read back from it.
const skolemDir = "testdata/skolem"

// TestSkolemDataDirReplays: a DataDir written before nulls were terms replays
// to the same dump and tuple keys byte for byte, and its nulls are the very
// values the chase derives now — so a replayed node and a live one agree.
func TestSkolemDataDirReplays(t *testing.T) {
	var got strings.Builder
	replayed := map[string]*Recovered{}
	for _, node := range []string{"A", "B", "C"} {
		rec, err := Inspect(filepath.Join(skolemDir, node))
		if err != nil {
			t.Fatal(err)
		}
		replayed[node] = rec
		fmt.Fprintf(&got, "== %s\n%s", node, rec.DB.Dump())
		for _, s := range rec.DB.Schemas() {
			for _, tu := range rec.DB.Rel(s.Name).Sorted() {
				fmt.Fprintf(&got, "key %s\n", tu.Key())
			}
		}
	}
	want, err := os.ReadFile("testdata/skolem.dump")
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Fatalf("replayed dump:\n%s\nwant:\n%s", got.String(), want)
	}

	src, err := os.ReadFile(filepath.Join(skolemDir, "net.txt"))
	if err != nil {
		t.Fatal(err)
	}
	net, err := rules.ParseNetwork(string(src))
	if err != nil {
		t.Fatal(err)
	}
	derived, err := baseline.Centralized(net, rules.ApplyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	deep := 0
	for node, rec := range replayed {
		if !derived.DBs[node].Equal(rec.DB) {
			t.Errorf("node %s: re-derived\n%s\nreplayed\n%s", node, derived.DBs[node].Dump(), rec.DB.Dump())
		}
		for _, s := range rec.DB.Schemas() {
			for _, tu := range rec.DB.Rel(s.Name).All() {
				for _, v := range tu {
					if v.NullDepth() == 2 {
						deep++
					}
				}
			}
		}
	}
	if deep != 3 {
		t.Errorf("%d depth-2 nulls replayed, want 3", deep)
	}
}
