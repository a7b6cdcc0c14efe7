package analysis_test

import (
	"testing"

	"repro/internal/analysis"
)

func TestGoroShutdown(t *testing.T) {
	run(t, "testdata/src", analysis.GoroShutdown,
		"internal/work2", "internal/goro")
}
