package analysis_test

import (
	"testing"

	"repro/internal/analysis"
)

func TestAtomicMix(t *testing.T) {
	run(t, "testdata/src", analysis.AtomicMix,
		"internal/atomica", "internal/atomicb")
}
