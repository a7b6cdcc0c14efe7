package analysis_test

import (
	"strings"
	"testing"

	"repro/internal/analysis"
)

// TestAllowRequiresReason pins the suppression contract: a bare
// `//lint:allow <analyzer>` with no reason keeps the diagnostic and flags
// the missing justification.
func TestAllowRequiresReason(t *testing.T) {
	diags, _ := diagnostics(t, "testdata/src", analysis.BareSleep, "internal/allowfix")
	if len(diags) != 1 {
		t.Fatalf("got %d diagnostics, want 1: %v", len(diags), diags)
	}
	if !strings.Contains(diags[0].Message, "carries no reason") {
		t.Fatalf("diagnostic does not flag the reasonless allow: %s", diags[0].Message)
	}
}

// TestSuiteNames pins the suite's vocabulary: the root TestSourceRules runs
// All, diagnostics and `//lint:allow` comments name its members, and the
// README documents the same five invariants.
func TestSuiteNames(t *testing.T) {
	want := []string{"locksend", "wireexhaustive", "goroshutdown", "atomicmix", "baresleep"}
	all := analysis.All()
	if len(all) != len(want) {
		t.Fatalf("suite has %d analyzers, want %d", len(all), len(want))
	}
	for i, a := range all {
		if a.Name != want[i] {
			t.Errorf("suite[%d] = %s, want %s", i, a.Name, want[i])
		}
	}
}
