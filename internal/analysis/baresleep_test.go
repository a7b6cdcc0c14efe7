package analysis_test

import (
	"testing"

	"repro/internal/analysis"
)

func TestBareSleep(t *testing.T) {
	run(t, "testdata/src", analysis.BareSleep, "internal/sleepy")
}

// TestBareSleepScope pins the Match scoping: the sleep discipline binds
// internal/* only, so a fixture loaded under a non-internal path must
// produce nothing even though it sleeps.
func TestBareSleepScope(t *testing.T) {
	if analysis.BareSleep.Match == nil {
		t.Fatal("baresleep has no package matcher")
	}
	for path, want := range map[string]bool{
		"internal/sleepy":       true,
		"repro/internal/peer":   true,
		"repro/examples/live":   false,
		"repro/cmd/p2pbench":    false,
		"repro/internalization": false,
	} {
		if got := analysis.BareSleep.Match(path); got != want {
			t.Errorf("Match(%q) = %v, want %v", path, got, want)
		}
	}
}
